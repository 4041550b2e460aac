"""Binary forms and transvectants.

A form of order n is stored as the raw coefficient vector c with
f = sum_i c[i] * x^(n-i) * y^i.  The classical literature often writes
f = sum_i binom(n, i) * a_i * x^(n-i) * y^i instead; `from_a_convention`
builds a form from such a_i so fixtures can be transcribed literally.

The p-th transvectant of g (order m) and h (order n) is

    (g, h)_p = (m-p)! (n-p)! / (m! n!) *
               sum_{i=0}^{p} (-1)^i binom(p, i)
                   d^p g / dx^(p-i) dy^i  *  d^p h / dx^i dy^(p-i)

a form of order m + n - 2p.  Expanded on coefficients, the sum is one integer
weight per coefficient pair, a signed sum over the derivative factors
`derivative_weights` of both operands.  `batch.band` builds that table, the
only transvectant formula in the package, as one product of the factors.
`transvectant` applies its exact table with the scalar ring's own
operations, so it serves rationals, prime fields and polynomial rings alike,
and `batch` applies it to whole arrays of forms.  The product of forms is
the 0-th transvectant.  The prefactor is computed exactly over the rationals
and mapped into the scalar ring, so a prime dividing one of the factorials
is rejected rather than silently wrapped.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import List, Tuple

from .rings import Ring


class BinaryForm:
    """Homogeneous two-variable form with coefficients in a scalar ring."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring: Ring, order: int, coeffs):
        coeffs = tuple(coeffs)
        if order < 0 or len(coeffs) != order + 1:
            raise ValueError(
                f"order {order} needs {order + 1} coefficients, got {len(coeffs)}"
            )
        self.ring = ring
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, ring: Ring, order: int) -> "BinaryForm":
        return cls(ring, order, [ring.zero] * (order + 1))

    @classmethod
    def from_a_convention(cls, ring: Ring, order: int, a) -> "BinaryForm":
        """Build sum_i binom(n, i) * a_i * x^(n-i) * y^i from the a_i."""
        a = list(a)
        if len(a) != order + 1:
            raise ValueError("coefficient count does not match order")
        return cls(
            ring, order, [ring.mul_int(ai, comb(order, i)) for i, ai in enumerate(a)]
        )

    @classmethod
    def monomial(cls, ring: Ring, xexp: int, yexp: int, coeff=None) -> "BinaryForm":
        """The form c * x^xexp * y^yexp."""
        n = xexp + yexp
        cs = [ring.zero] * (n + 1)
        cs[yexp] = ring.one if coeff is None else coeff
        return cls(ring, n, cs)

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coeffs)

    def scalar(self):
        """The value of an order-0 form."""
        if self.order != 0:
            raise ValueError(f"form of order {self.order} is not a scalar")
        return self.coeffs[0]

    def _check(self, other: "BinaryForm"):
        if self.ring != other.ring:
            raise ValueError("scalar ring mismatch")

    def __add__(self, other):
        self._check(other)
        if self.order != other.order:
            raise ValueError("cannot add forms of different orders")
        add = self.ring.add
        return BinaryForm(
            self.ring, self.order, [add(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check(other)
        if self.order != other.order:
            raise ValueError("cannot subtract forms of different orders")
        sub = self.ring.sub
        return BinaryForm(
            self.ring, self.order, [sub(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return BinaryForm(self.ring, self.order, [self.ring.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        """Product of forms, the 0-th transvectant; orders add."""
        return transvectant(self, other, 0)

    def scale(self, c) -> "BinaryForm":
        mul = self.ring.mul
        return BinaryForm(self.ring, self.order, [mul(c, v) for v in self.coeffs])

    def power(self, k: int) -> "BinaryForm":
        if k < 1:
            raise ValueError("power must be >= 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and other.ring == self.ring
            and other.order == self.order
            and all(self.ring.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"BinaryForm(order={self.order}, coeffs={list(self.coeffs)})"


# _FALLING[x][t] = (x)_t = perm(x, t), zero for t > x: one square table,
# rebuilt larger when an order beyond it is asked for.
_FALLING: List[List[int]] = []


@lru_cache(maxsize=None)
def derivative_weights(m: int, k: int) -> Tuple[Tuple[int, ...], ...]:
    """The derivative factor of order m and index k: m+1 rows of k+1.

    D[u][j] = (m-u)_{k-j} (u)_j is the integer that d^k / dx^(k-j) dy^j takes
    x^(m-u) y^u to, times x^(m-u-k+j) y^(u-j); (x)_t = perm(x, t) is the
    falling factorial.  The table is a tuple of rows of Python ints, shared
    by every caller.
    """
    if not 0 <= k <= m:
        raise ValueError(f"transvectant index {k} exceeds order {m}")
    if len(_FALLING) <= m:
        _FALLING[:] = [[perm(x, t) for t in range(m + 1)] for x in range(m + 1)]
    F = _FALLING
    return tuple(tuple(map(operator.mul, F[m - u][k::-1], F[u][: k + 1])) for u in range(m + 1))


def transvectant(g: BinaryForm, h: BinaryForm, p: int) -> BinaryForm:
    """The p-th transvectant (g, h)_p, a form of order m + n - 2p."""
    # `batch` imports `exprs`, which imports this module.
    from .batch import band

    if g.ring != h.ring:
        raise ValueError("scalar ring mismatch")
    m, n = g.order, h.order
    U, V, W, _ = band(m, n, p, None)
    ring = g.ring
    add, mul, mul_int, is_zero = ring.add, ring.mul, ring.mul_int, ring.is_zero
    gs, hs = g.coeffs, h.coeffs
    nonzero_g = [not is_zero(c) for c in gs]
    nonzero_h = [not is_zero(c) for c in hs]
    out = [ring.zero] * (m + n - 2 * p + 1)
    for u, v, w in zip(U.tolist(), V.tolist(), W.tolist()):
        if w and nonzero_g[u] and nonzero_h[v]:
            out[u + v - p] = add(out[u + v - p], mul_int(mul(gs[u], hs[v]), w))
    pref = Fraction(factorial(m - p) * factorial(n - p), factorial(m) * factorial(n))
    if pref != 1:
        c = ring.from_fraction(pref)
        out = [mul(c, x) for x in out]
    return BinaryForm(ring, m + n - 2 * p, out)

