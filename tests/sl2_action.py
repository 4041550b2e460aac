"""The SL2 action on binary forms, random SL2 matrices and random forms:
test helpers.

No command needs them.  The tests use `sl2_act` and `random_sl2` to check
that covariants are equivariant and that nullforms stay nullforms, and
`random_form` to draw operands over any scalar ring.  `nullform_by_sl2_act`
builds the nullform whose multiple `nullcone.random_nullform` returns, from
the same draws, with `random_sl2` drawing b then c.
"""

import random

from binforms.forms import BinaryForm
from binforms.rings import QQ, Ring


def sl2_act(mat, f: BinaryForm) -> BinaryForm:
    """Apply g in SL2 to f via (g . f)(v) = f(g^-1 v); order is preserved.

    `mat` is ((a, b), (c, d)) with entries in f's ring and determinant 1.
    """
    ring = f.ring
    (a, b), (c, d) = mat
    det = ring.sub(ring.mul(a, d), ring.mul(b, c))
    if det != ring.one:
        raise ValueError("matrix determinant is not 1")
    # g^-1 = ((d, -b), (-c, a)); substitute x -> d x - b y, y -> -c x + a y.
    lx = BinaryForm(ring, 1, (d, ring.neg(b)))
    ly = BinaryForm(ring, 1, (ring.neg(c), a))
    n = f.order
    powx = [BinaryForm(ring, 0, (ring.one,))]
    powy = [BinaryForm(ring, 0, (ring.one,))]
    for _ in range(n):
        powx.append(powx[-1] * lx)
        powy.append(powy[-1] * ly)
    out = BinaryForm.zero(ring, n)
    for i, ci in enumerate(f.coeffs):
        if ring.is_zero(ci):
            continue
        out = out + (powx[n - i] * powy[i]).scale(ci)
    return out


def random_sl2(ring: Ring, rng: random.Random):
    """A random determinant-1 matrix (product of unit triangulars)."""
    b = ring.random(rng)
    c = ring.random(rng)
    # ((1, 0), (c, 1)) * ((1, b), (0, 1)) = ((1, b), (c, c*b + 1))
    return (
        (ring.one, b),
        (c, ring.add(ring.mul(c, b), ring.one)),
    )


def random_form(ring: Ring, order: int, rng: random.Random) -> BinaryForm:
    return BinaryForm(ring, order, [ring.random(rng) for _ in range(order + 1)])


def nullform_by_sl2_act(n: int, seed: int) -> BinaryForm:
    """The reference construction of `random_nullform(n, seed)` over QQ: the
    same draws, and the image of x^(n//2 + 1) * r(x, y) under `sl2_act`."""
    rng = random.Random(f"nullform:{seed}:{n}")
    k = n // 2 + 1
    while True:
        rest = [QQ.random(rng) for _ in range(n - k + 1)]
        if not all(QQ.is_zero(c) for c in rest):
            break
    base = BinaryForm.monomial(QQ, k, 0) * BinaryForm(QQ, n - k, rest)
    return sl2_act(random_sl2(QQ, rng), base)
