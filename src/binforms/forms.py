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
only transvectant formula in the package, and `batch.transvect` is the only
code that applies it.  `transvectant` is one call of that kernel on one-row
object arrays of the operands' coefficients, which may be any scalars closed
under + and * with integers and Fractions: rationals, or the tests'
polynomials and prime-field residues.  Nothing here names a ring, and no
command calls `transvectant`: it is the tests' single-form entry to the
kernel.  The prefactor is the Fraction 1 / (perm(m, p) perm(n, p)), which
the result's coefficients multiply by themselves, so a scalar type that maps
rationals into F_p rejects a prime dividing one of the factorials rather than
wrapping it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, perm
from typing import List, Tuple


class BinaryForm:
    """Homogeneous two-variable form; its coefficients are any scalars
    closed under + and * with integers."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if order < 0 or len(coeffs) != order + 1:
            raise ValueError(
                f"order {order} needs {order + 1} coefficients, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_a_convention(cls, order: int, a) -> "BinaryForm":
        """Build sum_i binom(n, i) * a_i * x^(n-i) * y^i from the a_i."""
        a = list(a)
        if len(a) != order + 1:
            raise ValueError("coefficient count does not match order")
        return cls(order, [ai * comb(order, i) for i, ai in enumerate(a)])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, BinaryForm) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"BinaryForm(order={self.order}, coeffs={list(self.coeffs)})"


# _FALLING[x][t] = (x)_t = perm(x, t), zero for t > x: one square table.  An
# order beyond it widens its rows with zeros and appends the new rows, so a
# climb through orders 1..m makes O(m^2) `perm` calls in all.
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
    F = _FALLING
    if len(F) <= m:
        for row in F:
            row += [0] * (m + 1 - len(row))
        F += ([perm(x, t) for t in range(x + 1)] + [0] * (m - x) for x in range(len(F), m + 1))
    return tuple(tuple(map(operator.mul, F[m - u][k::-1], F[u][: k + 1])) for u in range(m + 1))


def transvectant(g: BinaryForm, h: BinaryForm, p: int) -> BinaryForm:
    """The p-th transvectant (g, h)_p, a form of order m + n - 2p.

    It keeps its name, and its bindings in `exprs` and `nullcone`, because
    perfbench's tracer binds them.
    """
    # `batch` imports `exprs`, which imports this module; numpy loads with it.
    import numpy as np

    from .batch import transvect

    G, H = (np.array([f.coeffs], dtype=object) for f in (g, h))
    exact = transvect(G, H, p, None)[0]
    c = Fraction(1, perm(g.order, p) * perm(h.order, p))
    return BinaryForm(g.order + h.order - 2 * p, [c * x for x in exact])
