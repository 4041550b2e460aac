"""The per-pair weight tables: the reference for `forms` and `batch`.

These are the loop bodies `forms.integer_weights` and `batch.band` had before
both were built from the derivative factors (`forms.derivative_weights`): one
Python sum of k + 1 products per coefficient pair, and over F_p one
reduction per weight.  The library's tables must equal them in value and in
dtype.
"""

import operator
from functools import lru_cache
from math import comb, perm

import numpy as np

from binforms.batch import check_int64


@lru_cache(maxsize=None)
def integer_weights(m, n, k):
    """W[u][v] = sum_i (-1)^i C(k, i) (m-u)_{k-i} (u)_i (n-v)_i (v)_{k-i}."""
    if not 0 <= k <= min(m, n):
        raise ValueError(f"transvectant index {k} exceeds min(order) = {min(m, n)}")
    sign = [(-1) ** i * comb(k, i) for i in range(k + 1)]
    left = [[perm(m - u, k - i) * perm(u, i) for i in range(k + 1)] for u in range(m + 1)]
    right = [[sign[i] * perm(n - v, i) * perm(v, k - i) for i in range(k + 1)] for v in range(n + 1)]
    return tuple(tuple(sum(map(operator.mul, lu, rv)) for rv in right) for lu in left)


def band(m, n, k, prime):
    """(U, V, w, starts) of `integer_weights(m, n, k)`, column by column."""
    W = integer_weights(m, n, k)
    pairs, starts = [], []
    for c in range(m + n - 2 * k + 1):
        starts.append(len(pairs))
        pairs += [(u, c + k - u) for u in range(max(0, c + k - n), min(m, c + k) + 1)]
    weights = [W[u][v] for u, v in pairs]
    if prime is None:
        w = np.array(weights, dtype=object)
    else:
        check_int64(m, n, prime)
        pref = pow(perm(m, k) * perm(n, k), -1, prime)
        w = np.array([x * pref % prime for x in weights], dtype=np.int64)
    return (*np.array(pairs).T, w, np.array(starts))
