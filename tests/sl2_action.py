"""The SL2 action on binary forms and random forms: test helpers.

No command needs either.  The tests use `sl2_act` to check that covariants
are equivariant and that nullforms stay nullforms, and `random_form` to draw
operands over any scalar ring.
"""

import random

from binforms.forms import BinaryForm
from binforms.rings import Ring


def sl2_act(mat, f: BinaryForm) -> BinaryForm:
    """Apply g in SL2 to f via (g . f)(v) = f(g^-1 v); order is preserved.

    `mat` is ((a, b), (c, d)) with entries in f's ring and determinant 1.
    """
    ring = f.ring
    (a, b), (c, d) = mat
    det = ring.sub(ring.mul(a, d), ring.mul(b, c))
    if not ring.eq(det, ring.one):
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


def random_form(ring: Ring, order: int, rng: random.Random) -> BinaryForm:
    return BinaryForm(ring, order, [ring.random(rng) for _ in range(order + 1)])
