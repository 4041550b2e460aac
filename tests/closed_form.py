"""The derivative-sum transvectant: the independent oracle of the tests.

The library evaluates every transvectant through one integer weight table,
`batch.band`.  This module computes the same forms from the
definition instead, by differentiating each form coefficient by coefficient
(`mixed_partial`) and multiplying the derivatives with a schoolbook
convolution, so a wrong weight table cannot agree with it.
"""

from fractions import Fraction
from math import comb, factorial

from binforms.forms import BinaryForm


def _falling(x: int, t: int) -> int:
    r = 1
    for k in range(t):
        r *= x - k
    return r


def mixed_partial(f: BinaryForm, xderivs: int, yderivs: int) -> BinaryForm:
    """d^(a+b) f / dx^a dy^b, computed from the closed coefficient formula."""
    m = f.order
    a, b = xderivs, yderivs
    if a + b > m:
        return BinaryForm.zero(f.ring, 0)
    mul_int = f.ring.mul_int
    out = []
    for k in range(m - a - b + 1):
        s = _falling(m - k - b, a) * _falling(k + b, b)
        out.append(mul_int(f.coeffs[k + b], s))
    return BinaryForm(f.ring, m - a - b, out)


def convolve(ring, xs, ys) -> list:
    """Coefficients of the product of two forms, by schoolbook convolution."""
    out = [ring.zero] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return out


def transvectant(g: BinaryForm, h: BinaryForm, p: int) -> BinaryForm:
    """(g, h)_p from its definition as a sum of products of derivatives."""
    ring = g.ring
    m, n = g.order, h.order
    if p < 0 or p > min(m, n):
        raise ValueError(f"transvectant index {p} exceeds min(order) = {min(m, n)}")
    acc = [ring.zero] * (m + n - 2 * p + 1)
    for i in range(p + 1):
        dg = mixed_partial(g, p - i, i)
        dh = mixed_partial(h, i, p - i)
        sign = (-1) ** i * comb(p, i)
        for t, c in enumerate(convolve(ring, dg.coeffs, dh.coeffs)):
            acc[t] = ring.add(acc[t], ring.mul_int(c, sign))
    pref = ring.from_fraction(
        Fraction(factorial(m - p) * factorial(n - p), factorial(m) * factorial(n))
    )
    return BinaryForm(ring, m + n - 2 * p, [ring.mul(pref, c) for c in acc])
