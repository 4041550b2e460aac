"""The dense F_p rank: the oracle for `binforms.modlinalg`.

This is the forward elimination `modlinalg.rank` ran before it became one
`StreamingEchelon`.  Its pivot is always the first nonzero entry in the
current column, and every product it forms stays below p**2, so it is exact
while (p - 1)**2 < 2**63, at any width.  The tests compare the echelon with
it, and the lowering-operator oracle ranks with it at primes near 2**31,
where no echelon of two or more columns is exact in int64.
"""

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
