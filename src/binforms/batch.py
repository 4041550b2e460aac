"""Batched evaluation of covariant expressions at many forms, over F_p or Z.

Every F_p value the pipeline needs comes from here.  A covariant of order m
evaluated at P base forms is an array of shape (P, m + 1), one row of
coefficients per form, and the transvectant (g, h)_k of a whole batch over
F_p is one int64 matrix product

    ((G (x) H) mod p) @ T(m, n, k) mod p

where G (x) H is the row-wise outer product flattened to (P, (m+1)(n+1)) and
T is the bilinear map of the transvectant on coefficient pairs
(`transvectant_matrix`).  A power is a chain of index-0 transvectants.

Both modes, and the single-form `forms.transvectant`, share one weight
table.  `forms.integer_weights(m, n, k)` holds the integer weight W[u, v]
that carries g_u * h_v into output coefficient u + v - k; the transvectant
is pref * W with pref = (m-k)! (n-k)! / (m! n!), and the F_p table T is W
reduced mod p, times pref mod p, on its band.

With `prime=None` the batch is exact over the integers instead: values are
object arrays of Python ints, nothing is reduced, and a transvectant applies
W without its prefactor, one banded pass per row u of W.  At integer base
forms an exact value is therefore the true value times the product of
1 / pref over the transvectant nodes of the expression, a nonzero rational
constant, so it is zero exactly where the true value is.

Forward-mode derivatives use the same kernel.  A value then carries its
first-order jet (value, slope) and bilinearity gives the product rule
d(g, h)_k = (dg, h)_k + (g, dh)_k, so one batch of n + 1 jets seeded with the
coordinate directions yields a whole gradient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Optional, Tuple

import numpy as np

from .exprs import Base, Expr, Pow, Tr
from .forms import integer_weights
from .rings import PrimeField

Jet = Tuple[np.ndarray, ...]


@lru_cache(maxsize=None)
def transvectant_matrix(m: int, n: int, k: int, prime: int) -> np.ndarray:
    """The map (g, h) -> (g, h)_k on coefficient pairs, reduced mod `prime`.

    Row u * (n + 1) + v carries g_u * h_v into output coefficient u + v - k
    (its only nonzero column) with weight pref * W[u, v] mod p, from
    `integer_weights`.  The result is read-only and shared by every caller.
    """
    # W is built without being cached: T is, and a campaign over F_p would
    # otherwise hold ~9 KB of Python ints per table for nothing.
    W = np.array(integer_weights.__wrapped__(m, n, k), dtype=object)
    # Each output entry of the kernel sums (m+1)(n+1) products of residues.
    if (m + 1) * (n + 1) * (prime - 1) ** 2 >= 2 ** 63:
        raise ValueError(
            f"prime {prime} is too large for exact int64 transvectants of "
            f"orders {m} and {n}"
        )
    pref = PrimeField(prime).from_fraction(
        Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
    )
    weight = (W % prime).astype(np.int64) * pref % prime
    u, v = np.indices((m + 1, n + 1))
    out = u + v - k
    band = (out >= 0) & (out <= m + n - 2 * k)
    T = np.zeros(((m + 1) * (n + 1), m + n - 2 * k + 1), dtype=np.int64)
    T[(u * (n + 1) + v)[band], out[band]] = weight[band]
    T.flags.writeable = False
    return T


def transvect(G: np.ndarray, H: np.ndarray, k: int, prime: Optional[int]) -> np.ndarray:
    """(g, h)_k for every row pair of G (P, m+1) and H (P, n+1).

    With a prime, entries of G and H must lie in [0, p) and the result is
    reduced mod p.  With `prime=None`, G and H are object arrays of Python
    ints and the result is the exact integer value without the prefactor:
    (g, h)_k / pref.
    """
    m, n = G.shape[1] - 1, H.shape[1] - 1
    if prime is None:
        W = np.array(integer_weights(m, n, k), dtype=object)
        out = np.zeros((G.shape[0], m + n - 2 * k + 1), dtype=object)
        for u in range(m + 1):
            # Output columns u + v - k for the v on the band.
            lo, hi = max(0, k - u), min(n, m + n - k - u)
            if lo <= hi:
                out[:, u + lo - k : u + hi - k + 1] += (
                    G[:, u, None] * (H[:, lo : hi + 1] * W[u, lo : hi + 1])
                )
        return out
    T = transvectant_matrix(m, n, k, prime)
    outer = (G[:, :, None] * H[:, None, :]) % prime
    return outer.reshape(G.shape[0], T.shape[0]) @ T % prime


class BatchEvaluator:
    """Evaluates expressions at a batch of base forms over F_p, or Z, at once.

    `forms` holds one base form per row, shape (P, n + 1).  Every node value
    is a jet: `(value,)`, or `(value, slope)` when `slopes` (same shape as
    `forms`) gives the direction of a derivative at each row.  Shared
    subtrees are evaluated once per batch.  With `prime=None` the base forms
    must be integers and values are exact without transvectant prefactors
    (see `transvect`).
    """

    def __init__(self, forms, prime: Optional[int], slopes=None):
        self.prime = prime
        parts = (forms,) if slopes is None else (forms, slopes)
        if prime is None:
            self._base: Jet = tuple(np.array(a, dtype=object) for a in parts)
        else:
            self._base = tuple(np.asarray(a, dtype=np.int64) % prime for a in parts)
        self._memo: Dict[Expr, Jet] = {}

    def eval(self, e: Expr) -> Jet:
        got = self._memo.get(e)
        if got is not None:
            return got
        if isinstance(e, Base):
            val = self._base
        elif isinstance(e, Tr):
            val = self._transvect(self.eval(e.left), self.eval(e.right), e.index)
        elif isinstance(e, Pow):
            child = self.eval(e.child)
            val = child
            for _ in range(e.k - 1):
                val = self._transvect(val, child, 0)
        else:
            raise TypeError(f"cannot evaluate {e!r} in a batch; inline named references first")
        self._memo[e] = val
        return val

    def _transvect(self, a: Jet, b: Jet, k: int) -> Jet:
        # Jet entry j of the result is sum_{i <= j} (a_i, b_{j-i})_k.
        p = self.prime
        out = []
        for j in range(len(a)):
            acc = transvect(a[0], b[j], k, p)
            for i in range(1, j + 1):
                acc = acc + transvect(a[i], b[j - i], k, p)
                if p is not None:
                    acc %= p
            out.append(acc)
        return tuple(out)

    def scalar(self, e: Expr) -> Tuple[np.ndarray, ...]:
        """The jet of an invariant as 1-D arrays, one entry per row."""
        jet = self.eval(e)
        order = jet[0].shape[1] - 1
        if order != 0:
            raise ValueError(f"form of order {order} is not a scalar")
        return tuple(part[:, 0] for part in jet)
