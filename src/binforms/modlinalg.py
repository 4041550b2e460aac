"""Linear algebra over a prime field.

Ranks here certify dimension counts, so everything is exact and
deterministic.  `rank` is a dense forward elimination in int64 whose pivot
is always the first nonzero entry in the current column; every product it
forms stays below p**2, so it is exact while (p - 1)**2 < 2**63.

`StreamingEchelon` consumes rows while maintaining a reduced echelon basis,
so a rank lower bound can be certified without materializing the full
matrix.  `add_rows` draws its rows lazily from any iterable, one chunk at a
time, and stops drawing once the rank reaches its target; `add_row` inserts
one row and says whether it raised the rank.  Each chunk is eliminated by
recursive halving into matrix products, the recursive row echelon of
FFLAS-FFPACK (Dumas, Giorgi & Pernet 2008), which also finds the chunk's
row rank profile (Dumas, Pernet & Sultan 2015).  The products run on
float64 matrices whose entries are exact integers (products stay below
2**53): BLAS calls with exact arithmetic.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Tuple

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

    The basis is one tier in reduced echelon form: row i of `_basis` has a 1
    in column `_piv[i]` and a 0 in every other pivot column.  A block of
    rows is reduced against the basis with one product, its row rank
    profile is found by recursive halving (`_profile`), and the new rows are
    folded in with one more product (`_fold`), so the hot path is a few
    matrix products per block.
    """

    _CHUNK = 512

    def __init__(self, p: int, n_cols: int):
        if n_cols * (p - 1) ** 2 >= 2 ** 53:
            raise ValueError("p**2 * n_cols exceeds the exact float64 range")
        self.p = p
        self.n_cols = n_cols
        self._basis = np.empty((0, n_cols))
        self._piv: List[int] = []

    @property
    def rank(self) -> int:
        return len(self._piv)

    def _reduce_block(self, rows) -> np.ndarray:
        B = np.asarray(rows, dtype=np.float64) % self.p
        if B.ndim != 2 or B.shape[1] != self.n_cols:
            raise ValueError(f"rows of shape {B.shape[1:]} != ({self.n_cols},)")
        if self._piv:
            B = (B - B[:, self._piv] @ self._basis[: self.rank]) % self.p
        return B

    def reduce(self, vec) -> np.ndarray:
        """Residue of `vec` modulo the current row space."""
        return self._reduce_block([vec])[0]

    def _profile(self, B: np.ndarray) -> Tuple[List[int], np.ndarray, List[int]]:
        """Row rank profile of `B`, whose rows are reduced against the basis.

        Returns the indices of the rows that raise the rank of the rows
        before them, the reduced echelon form R of those rows, and R's pivot
        columns.  The halves are profiled in turn: the top half's R is
        eliminated from the bottom half, and the bottom half's from the top
        R, with one product each.
        """
        p = self.p
        if not B.any():
            return [], B[:0], []
        if len(B) == 1:
            j = int(np.flatnonzero(B[0])[0])
            return [0], B * pow(int(B[0, j]), -1, p) % p, [j]
        h = len(B) // 2
        top, R1, p1 = self._profile(B[:h])
        low = B[h:]
        if p1:
            low = (low - low[:, p1] @ R1) % p
        bottom, R2, p2 = self._profile(low)
        if p2:
            R1 = (R1 - R1[:, p2] @ R2) % p
        return top + [h + i for i in bottom], np.concatenate([R1, R2]), p1 + p2

    def _fold(self, R: np.ndarray, piv: List[int]) -> None:
        """Clear the pivot columns of R from the basis, then append R."""
        r, k = self.rank, len(piv)
        if not k:
            return
        if r + k > len(self._basis):
            grown = np.empty((min(2 * (r + k), self.n_cols), self.n_cols))
            grown[:r] = self._basis[:r]
            self._basis = grown
        for s in range(0, r, self._CHUNK):
            slab = self._basis[s : min(s + self._CHUNK, r)]
            slab -= slab[:, piv] @ R
            slab %= self.p
        self._basis[r : r + k] = R
        self._piv += piv

    def add_row(self, vec) -> bool:
        """Insert a row; True if it increased the rank."""
        _, R, piv = self._profile(self._reduce_block([vec]))
        self._fold(R, piv)
        return bool(piv)

    def add_rows(self, block, stop_at: Optional[int] = None) -> int:
        """Insert rows from `block`, a 2-D array or any iterable of rows,
        until the rank reaches `stop_at`; returns the rows consumed.

        Rows are drawn `_CHUNK` at a time.  When a chunk's profile reaches
        `stop_at`, the chunk is profiled again up to the row that reaches it
        (the profile of a prefix is a prefix of the profile), and only rows
        up to that one count as consumed.  No row past that chunk is drawn.
        """
        rows = iter(block)
        consumed = 0
        while stop_at is None or self.rank < stop_at:
            chunk = list(islice(rows, self._CHUNK))
            if not chunk:
                break
            B = self._reduce_block(chunk)
            index, R, piv = self._profile(B)
            if stop_at is not None and self.rank + len(piv) >= stop_at:
                B = B[: index[stop_at - self.rank - 1] + 1]
                index, R, piv = self._profile(B)
            consumed += len(B)
            self._fold(R, piv)
        return consumed
