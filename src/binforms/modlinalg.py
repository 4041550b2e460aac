"""Linear algebra over a prime field.

Ranks here certify dimension counts, so everything is exact and
deterministic.  `rank` is a dense forward elimination in int64 whose pivot
is always the first nonzero entry in the current column; every product it
forms stays below p**2, so it is exact while (p - 1)**2 < 2**63.

`StreamingEchelon` consumes rows while maintaining a reduced echelon basis,
so a rank lower bound can be certified without materializing the full
matrix.  `add_rows` draws its rows lazily from any iterable, one chunk at a
time, and stops drawing once the rank reaches its target; `add_row` inserts
one row and says whether it raised the rank.  The reduction step runs on
float64 matrices whose entries are exact integers (products stay below
2**53), which turns the inner loop into BLAS calls while keeping the
arithmetic exact.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional

import numpy as np


def rank(rows, p: int) -> int:
    """Exact rank over F_p of a two-dimensional array-like of integers."""
    if (p - 1) ** 2 >= 2 ** 63:
        raise ValueError("(p - 1)**2 exceeds the exact int64 range")
    M = np.asarray(rows, dtype=np.int64) % p
    if M.ndim != 2:
        raise ValueError("matrix data must be two-dimensional")
    n_rows, n_cols = M.shape
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r] = M[r] * pow(int(M[r, c]), -1, p) % p
        below = M[r + 1 :]
        nzr = np.nonzero(below[:, c])[0]
        if nzr.size:
            below[nzr] = (below[nzr] - np.outer(below[nzr, c], M[r])) % p
        r += 1
    return r


class StreamingEchelon:
    """Incrementally reduced echelon basis over F_p with float64 kernels.

    Exactness bound: every inner product has at most rank <= n_cols terms,
    each below p**2, and must stay below 2**53; the constructor enforces it.

    The basis lives in two tiers so the hot path is matrix products rather
    than per-row updates: a `settled` tier in reduced echelon form, and a
    small `fresh` tier of recently inserted rows (reduced against settled
    and among themselves).  When fresh fills up it is folded into settled
    with a single multiply.  Reducing an incoming row therefore takes two
    products, and everything stays exact integers in float64.
    """

    _FOLD = 128

    def __init__(self, p: int, n_cols: int):
        if n_cols * (p - 1) ** 2 >= 2 ** 53:
            raise ValueError("p**2 * n_cols exceeds the exact float64 range")
        self.p = p
        self.n_cols = n_cols
        self._settled = np.zeros((0, n_cols), dtype=np.float64)
        self._spiv: List[int] = []
        self._fresh = np.zeros((self._FOLD, n_cols), dtype=np.float64)
        self._nfresh = 0
        self._fpiv: List[int] = []

    @property
    def rank(self) -> int:
        return len(self._spiv) + self._nfresh

    def _fold(self) -> None:
        """Merge the fresh tier into the settled reduced echelon basis."""
        if not self._nfresh:
            return
        fresh = self._fresh[: self._nfresh]
        if self._settled.shape[0]:
            coeff = self._settled[:, self._fpiv]
            if coeff.any():
                self._settled = (self._settled - coeff @ fresh) % self.p
            self._settled = np.concatenate([self._settled, fresh])
        else:
            self._settled = fresh.copy()
        self._spiv.extend(self._fpiv)
        self._fpiv.clear()
        self._nfresh = 0

    def _reduce_block(self, B: np.ndarray) -> np.ndarray:
        if self._spiv:
            B = (B - B[:, self._spiv] @ self._settled) % self.p
        if self._nfresh:
            B = (B - B[:, self._fpiv] @ self._fresh[: self._nfresh]) % self.p
        return B

    def reduce(self, vec) -> np.ndarray:
        """Residue of `vec` modulo the current row space."""
        v = np.asarray(vec, dtype=np.float64) % self.p
        if v.shape != (self.n_cols,):
            raise ValueError(f"row length {v.shape} != ({self.n_cols},)")
        return self._reduce_block(v.reshape(1, -1))[0]

    def _insert_reduced(self, v: np.ndarray) -> bool:
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        j = int(nz[0])
        v = v * pow(int(v[j]), -1, self.p) % self.p
        # Keep the fresh tier reduced against the new pivot.
        fresh = self._fresh[: self._nfresh]
        if self._nfresh:
            col = fresh[:, j]
            nzr = np.nonzero(col)[0]
            if nzr.size:
                fresh[nzr] = (fresh[nzr] - np.outer(col[nzr], v)) % self.p
        self._fresh[self._nfresh] = v
        self._nfresh += 1
        self._fpiv.append(j)
        return True

    def add_row(self, vec) -> bool:
        """Insert a row; True if it increased the rank."""
        added = self._insert_reduced(self.reduce(vec))
        if self._nfresh == self._FOLD:
            self._fold()
        return added

    def add_rows(self, block, stop_at: Optional[int] = None) -> int:
        """Insert rows from `block`, a 2-D array or any iterable of rows,
        until the rank reaches `stop_at`; returns the rows consumed.

        Rows are drawn one chunk at a time, at most as many as the fresh tier
        has room for, so a fold can only happen between chunks and the new
        pivots of the current chunk are a suffix of the fresh tier.  No row
        past the chunk that reaches `stop_at` is drawn.
        """
        rows = iter(block)
        consumed = 0
        while stop_at is None or self.rank < stop_at:
            chunk = list(islice(rows, self._FOLD - self._nfresh))
            if not chunk:
                break
            B = np.asarray(chunk, dtype=np.float64) % self.p
            if B.ndim != 2 or B.shape[1] != self.n_cols:
                raise ValueError("block shape mismatch")
            fresh_start = self._nfresh
            for v in self._reduce_block(B):
                if stop_at is not None and self.rank >= stop_at:
                    break
                new_piv = self._fpiv[fresh_start:]
                if new_piv:
                    coeffs = v[new_piv]
                    if np.any(coeffs):
                        v = (v - coeffs @ self._fresh[fresh_start : self._nfresh]) % self.p
                self._insert_reduced(v)
                consumed += 1
            if self._nfresh == self._FOLD:
                self._fold()
        return consumed
