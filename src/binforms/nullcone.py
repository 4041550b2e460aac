"""Root multiplicities and nullform tests.

A form of order n lies in the nullcone exactly when it has a projective root
of multiplicity greater than n/2.  `nullform_report` computes the largest
multiplicity over the rationals with gcd chains (g, g'), (gcd, gcd'), ...;
the chain length at which the gcd becomes constant is the maximal
multiplicity among finite roots, and the point at infinity is handled by
splitting off the power of y first.  Nothing here is numeric: the verdicts
feed certification logic.

`random_nullform` draws a seeded nullform as primitive integer coefficients,
the one shape in which the exact nullform check evaluates it.

The dense univariate helpers below (coefficient lists over the rationals,
low degree first) give the gcd chains; nothing else in the package uses them.  The
displayed identities of the nullcone lemmas are checked in `lemmas`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Tuple

from .forms import BinaryForm
# Nothing here calls it: the name stays bound because perfbench's tracer binds it.
from .forms import transvectant  # noqa: F401
from .rings import random_rational


class NullformReport(NamedTuple):
    multiplicity: Optional[int]  # None for the zero form, which has no roots
    is_nullform: bool
    witness: str


# ---------------------------------------------------------------------------
# Dense univariate helpers over the rationals (coefficient lists, low first).

def dense_trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def dense_monic(cs: list) -> list:
    if not cs:
        return []
    lead = cs[-1]
    return [c / lead for c in cs]


def dense_derivative(cs: list) -> list:
    return dense_trim([c * k for k, c in enumerate(cs)][1:])


def dense_divmod(a: list, b: list) -> tuple:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and dense_trim(a):
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        dense_trim(a)
    return dense_trim(q), a


def dense_gcd(a: list, b: list) -> list:
    """Monic gcd of two rational coefficient lists."""
    a, b = dense_trim(list(a)), dense_trim(list(b))
    while b:
        _, r = dense_divmod(a, b)
        a, b = b, dense_trim(r)
    return dense_monic(a)


def _root_chain(f: BinaryForm) -> Tuple[int, List[List[Fraction]]]:
    """(power b of y dividing f, gcd chain of g_0 = f(x, 1) / y^b).

    g_(k+1) = gcd(g_k, g_k'), stopping at the first constant; coefficient
    lists run low degree first.
    """
    coeffs = [Fraction(c) for c in f.coeffs]
    b = 0
    while b <= f.order and coeffs[b] == 0:
        b += 1
    # term i contributes coeffs[i] * x^(n - i); x-degree n - i - ... after the
    # y^b split the polynomial in x has degree n - b with leading coeff[b].
    n = f.order
    dense = [Fraction(0)] * (n - b + 1)
    for i in range(b, n + 1):
        dense[n - i] = coeffs[i]
    chain = [dense_trim(dense)]
    while len(chain[-1]) > 1:
        g = chain[-1]
        chain.append(dense_gcd(g, dense_derivative(g)))
    return b, chain


def nullform_report(f: BinaryForm) -> NullformReport:
    """The largest multiplicity among the projective roots of a rational form,
    whether it exceeds order/2, and the roots that attain it.

    The zero form is a nullform with no multiplicity.  A nonzero form of
    order 0, a constant, has no roots: multiplicity 0.
    """
    if f.is_zero():
        return NullformReport(None, True, "zero form")
    y_mult, chain = _root_chain(f)
    finite_mult = len(chain) - 1
    multiplicity = max(y_mult, finite_mult)
    if multiplicity == 0:
        witness = "no roots"
    elif finite_mult == 0 or y_mult > finite_mult:
        # f = c * y^order (up to the split), or infinity has the larger multiplicity.
        witness = "point at infinity"
    else:
        witness = _witness(chain, finite_mult)
    return NullformReport(multiplicity, 2 * multiplicity > f.order, witness)


def _witness(chain: List[List[Fraction]], mult: int) -> str:
    """The squarefree factor whose roots attain the maximal multiplicity."""
    sf = chain[mult - 1]
    terms = []
    for k in range(len(sf) - 1, -1, -1):
        c = sf[k]
        if c:
            terms.append(f"{c}*z^{k}" if k else f"{c}")
    return "roots of " + " + ".join(terms)


def _times_linear(cs: List[int], lin: Tuple[int, int]) -> List[int]:
    """Integer coefficients of (form cs) * (lin[0] x + lin[1] y)."""
    a, b = lin
    return [a * u + b * v for u, v in zip(cs + [0], [0] + cs)]


def random_nullform(n: int, seed: int) -> List[int]:
    """A seeded random nullform of order n: the primitive integer coefficients
    of an SL2 image of x^(floor(n/2)+1) * r(x, y).

    The draws are rationals from `rings.random_rational`: the coefficients of
    r, then b and c of g = ((1, b), (c, cb + 1)), which acts by
    (g . f)(v) = f(g^-1 v).
    Write r's coefficients as N_i / q over their common denominator q, and
    b = bn/bd, c = cn/cd.  The substitution of that action,
    x -> (cb + 1) x - b y and y -> -c x + y, times bd*cd and cd gives the
    integer linear forms LX = (cn bn + cd bd, -bn cd) and LY = (-cn, cd), so
    the image is sum_i N_i bd^i LX^(n-i) LY^i / (q (bd cd)^n).  The sum is
    built by Horner steps in Python ints and divided by the gcd of its
    coefficients: the row is the image times a positive rational, so every
    invariant's value changes by a nonzero factor and vanishes where the
    image's does.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    rng = random.Random(f"nullform:{seed}:{n}")
    k = n // 2 + 1
    while True:
        rest = [random_rational(rng) for _ in range(n - k + 1)]
        if any(rest):
            break
    b, c = random_rational(rng), random_rational(rng)
    bn, bd, cn, cd = b.numerator, b.denominator, c.numerator, c.denominator
    q = lcm(*(r.denominator for r in rest))
    nums = [r.numerator * (q // r.denominator) for r in rest]
    lx, ly = (cn * bn + cd * bd, -bn * cd), (-cn, cd)
    # Horner: after step i, out = sum_(j <= i) N_j bd^j LX^(i-j) LY^j.
    out, ypow = [nums[0]], [1]
    for i in range(1, n + 1):
        out = _times_linear(out, lx)
        ypow = _times_linear(ypow, ly)
        if i < len(nums):
            w = nums[i] * bd**i
            out = [u + w * v for u, v in zip(out, ypow)]
    g = gcd(*out)
    return [v // g for v in out]
