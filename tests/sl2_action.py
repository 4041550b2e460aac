"""The SL2 action on binary forms, random SL2 matrices, random forms and
coefficient-wise sums of forms: test helpers.

No command needs them.  The tests use `sl2_act` and `random_sl2` to check
that covariants are equivariant and that nullforms stay nullforms, and
`random_form` to draw operands with any draw function, such as
`rings.random_rational` or a `PrimeField`'s `random`.  `nullform_by_sl2_act`
builds the nullform whose multiple `nullcone.random_nullform` returns, from
the same draws, with `random_sl2` drawing b then c.
"""

import random

from binforms.forms import BinaryForm
from binforms.rings import random_rational


def form_sum(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """f + g, coefficient by coefficient; the orders must agree."""
    if f.order != g.order:
        raise ValueError("cannot add forms of different orders")
    return BinaryForm(f.order, [a + b for a, b in zip(f.coeffs, g.coeffs)])


def form_scale(c, f: BinaryForm) -> BinaryForm:
    """The form c * f."""
    return BinaryForm(f.order, [c * v for v in f.coeffs])


def sl2_act(mat, f: BinaryForm) -> BinaryForm:
    """Apply g in SL2 to f via (g . f)(v) = f(g^-1 v); order is preserved.

    `mat` is ((a, b), (c, d)), entries that mix with f's coefficients, with
    determinant 1.
    """
    (a, b), (c, d) = mat
    if a * d - b * c != 1:
        raise ValueError("matrix determinant is not 1")
    # g^-1 = ((d, -b), (-c, a)); substitute x -> d x - b y, y -> -c x + a y.
    lx = BinaryForm(1, (d, -b))
    ly = BinaryForm(1, (-c, a))
    n = f.order
    powx = [BinaryForm(0, (1,))]
    powy = [BinaryForm(0, (1,))]
    for _ in range(n):
        powx.append(powx[-1] * lx)
        powy.append(powy[-1] * ly)
    out = BinaryForm(n, [0] * (n + 1))
    for i, ci in enumerate(f.coeffs):
        if ci:
            out = form_sum(out, form_scale(ci, powx[n - i] * powy[i]))
    return out


def random_sl2(draw, rng: random.Random):
    """A random determinant-1 matrix (product of unit triangulars) of two
    `draw(rng)` values."""
    b = draw(rng)
    c = draw(rng)
    # ((1, 0), (c, 1)) * ((1, b), (0, 1)) = ((1, b), (c, c*b + 1))
    return ((1, b), (c, c * b + 1))


def random_form(draw, order: int, rng: random.Random) -> BinaryForm:
    return BinaryForm(order, [draw(rng) for _ in range(order + 1)])


def nullform_by_sl2_act(n: int, seed: int) -> BinaryForm:
    """The reference construction of `random_nullform(n, seed)` over the
    rationals: the same draws, and the image of x^(n//2 + 1) * r(x, y) under
    `sl2_act`."""
    rng = random.Random(f"nullform:{seed}:{n}")
    k = n // 2 + 1
    while True:
        rest = [random_rational(rng) for _ in range(n - k + 1)]
        if any(rest):
            break
    base = BinaryForm.monomial(k, 0) * BinaryForm(n - k, rest)
    return sl2_act(random_sl2(random_rational, rng), base)
