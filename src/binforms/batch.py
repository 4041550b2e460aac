"""Batched evaluation of covariant expressions at many forms, over F_p or exactly.

Every covariant value the package computes comes from here.  A covariant of
order m evaluated at P base forms is an array of shape (P, m + 1), one row
of coefficients per form.  A power is a chain of index-0 transvectants.

There is one weight table: W[u, v] carries g_u * h_v into output
coefficient u + v - k, the transvectant is pref * W with
pref = (m-k)! (n-k)! / (m! n!), and W is one product of the derivative
factors D = `forms.derivative_weights` (`band`).  `transvect` is the one
kernel that applies it, for every mode and every caller, the single-form
`forms.transvectant` included: it gathers the band of W (`band`),
multiplies the gathered coefficients of both operands by its weights, and
sums each output column with one `np.add.reduceat`.  Over F_p the weights
are pref * W mod p, one int64 product of the factors reduced mod p and
reduced once more (the delayed reduction of FFLAS-FFPACK), and the sums are
reduced mod p, all exact in int64 within `check_int64`'s bound.

With `prime=None` the batch is exact instead: values are object arrays of
Python scalars (ints, Fractions, or `multipoly` polynomials in
`forms.transvectant`), nothing is reduced, and the weights are W without
its prefactor.  An exact value is therefore the true value divided by the
product of the prefactors over the transvectant nodes of the expression
(`exprs.expr_prefactor`), a nonzero rational constant: it is zero exactly
where the true value is, and `binforms eval` multiplies the constant back.

Forward-mode derivatives use the same kernel.  A value then carries its
first-order jet (value, slope) and bilinearity gives the product rule
d(g, h)_k = (dg, h)_k + (g, dh)_k, so one batch of n + 1 jets seeded with the
coordinate directions yields a whole gradient.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, perm
from typing import Dict, Optional, Tuple

import numpy as np

from .exprs import Base, Expr, Pow, Tr
from .forms import derivative_weights

Jet = Tuple[np.ndarray, ...]


def check_int64(m: int, n: int, prime: int) -> None:
    """Reject a prime at which the int64 kernel on orders m and n could overflow."""
    # Each output entry sums at most min(m, n) + 1 products below (p - 1)^2.
    if (min(m, n) + 1) * (prime - 1) ** 2 >= 2 ** 63:
        raise ValueError(
            f"prime {prime} is too large for exact int64 transvectants of "
            f"orders {m} and {n}: need ({min(m, n)} + 1) * (p - 1)^2 < 2^63"
        )


@lru_cache(maxsize=None)
def _layout(m: int, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every coefficient pair (u, v) of orders m and n, ordered by (u + v, u).

    Returns (U, V, offsets): the pairs with u + v = s are entries offsets[s]
    to offsets[s + 1].  Read-only and shared by every index k.
    """
    s = np.add.outer(np.arange(m + 1), np.arange(n + 1)).ravel()
    # Entry u * (n + 1) + v of the flat grid; a stable sort by u + v keeps
    # each diagonal in order of u.
    order = np.argsort(s, kind="stable")
    table = (*np.divmod(order, n + 1), np.searchsorted(s[order], np.arange(m + n + 2)))
    for a in table:
        a.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _factors(m: int, k: int, prime: Optional[int]) -> np.ndarray:
    """`derivative_weights(m, k)` read-only: mod prime in int64, or Python ints."""
    D = np.array(derivative_weights(m, k), dtype=object)
    D = D if prime is None else (D % prime).astype(np.int64)
    D.flags.writeable = False
    return D


@lru_cache(maxsize=None)
def band(m: int, n: int, k: int, prime: Optional[int]) -> Tuple[np.ndarray, ...]:
    """The band of the weight table W of (g, h)_k by output column: (U, V, w, starts).

    Entry i carries g_U[i] * h_V[i] with weight w[i]; output column c sums
    the entries from starts[c] to starts[c + 1], the pairs with u + v = c + k
    in order of u.  With the derivative factors D = `derivative_weights`,

        W[u, v] = sum_i (-1)^i C(k, i) D_m[u][i] D_n[v][k-i]
                = sum_i (-1)^i C(k, i) (m-u)_{k-i} (u)_i (n-v)_i (v)_{k-i},

    that is W = (D_m * s) @ D_n[:, ::-1].T with s_i = (-1)^i C(k, i), and
    every term vanishes off the band 0 <= u + v - k <= m + n - 2k.  With
    `prime=None` the weights are W in Python ints.  Over F_p the weights are
    pref * W mod p in int64, with pref folded into s mod p: each of the
    product's k + 1 terms is below (p - 1)^2, within `check_int64`'s bound.
    The arrays are read-only and shared by every caller.
    """
    s = np.array([(-1) ** i * comb(k, i) for i in range(k + 1)], dtype=object)
    if prime is None:
        W = (_factors(m, k, None) * s) @ _factors(n, k, None)[:, ::-1].T
    else:
        check_int64(m, n, prime)
        # pref = (m-k)! (n-k)! / (m! n!) = 1 / (perm(m, k) perm(n, k)).
        s = (s * pow(perm(m, k) * perm(n, k), -1, prime) % prime).astype(np.int64)
        W = (_factors(m, k, prime) * s % prime) @ _factors(n, k, prime)[:, ::-1].T % prime
    U, V, offsets = _layout(m, n)
    lo, hi = offsets[k], offsets[m + n - k + 1]
    U, V = U[lo:hi], V[lo:hi]
    table = (U, V, W[U, V], offsets[k : m + n - k + 1] - lo)
    for a in table:
        a.flags.writeable = False
    return table


def transvect(G: np.ndarray, H: np.ndarray, k: int, prime: Optional[int]) -> np.ndarray:
    """(g, h)_k for every row pair of G (P, m+1) and H (P, n+1).

    With a prime, entries of G and H must lie in [0, p) and the result is
    reduced mod p.  With `prime=None`, G and H are object arrays of exact
    scalars closed under + and * with Python ints, and the result is the
    exact value without the prefactor: (g, h)_k / pref.
    """
    U, V, w, starts = band(G.shape[1] - 1, H.shape[1] - 1, k, prime)
    terms = H[:, V] * w
    if prime is not None:
        terms %= prime
    terms *= G[:, U]
    out = np.add.reduceat(terms, starts, axis=1)
    return out if prime is None else out % prime


class BatchEvaluator:
    """Evaluates expressions at a batch of base forms over F_p, or exactly, at once.

    `forms` holds one base form per row, shape (P, n + 1).  Every node value
    is a jet: `(value,)`, or `(value, slope)` when `slopes` (same shape as
    `forms`) gives the direction of a derivative at each row.  Shared
    subtrees are evaluated once per batch, and every transvectant and power
    node runs through the one band kernel, `transvect`.  With `prime=None`
    the base forms hold exact scalars (ints or Fractions) and values are
    exact without transvectant prefactors.
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
