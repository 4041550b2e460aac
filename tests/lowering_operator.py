"""The lowering-operator dimension: the independent oracle for
`series.invariant_dimension`.

The library counts dim I_d by the Cayley-Sylvester formula.  This module
recomputes it as the nullity of the sl2 lowering operator on weight-space
monomials, with the dense F_p rank of `dense_rank`, so a wrong partition
count cannot agree with it.
"""

from typing import List, Tuple

import numpy as np

from dense_rank import rank


def _weight_monomials(n: int, d: int, w: int) -> List[Tuple[int, ...]]:
    """Exponent tuples (m_0..m_n) with sum m_i = d and sum i*m_i = w."""
    out: List[Tuple[int, ...]] = []

    def rec(i: int, left: int, weight: int, acc: list):
        if i == n:
            # last variable contributes i = n per unit
            if weight == left * n:
                out.append(tuple(acc + [left]))
            return
        # bound: remaining weight must be achievable with exponents at i+1..n
        for k in range(left + 1):
            rem_w = weight - k * i
            rem = left - k
            if rem_w < 0 or rem_w > rem * n:
                continue
            rec(i + 1, rem, rem_w, acc + [k])

    rec(0, d, w, [])
    return out


def dimension_by_lowering_operator(n: int, d: int) -> int:
    """Independent dimension oracle: nullity of the sl2 lowering operator.

    Enumerates the degree-d monomials in a_0..a_n of weight nd/2 and computes
    the rank of L = sum_i (n - i) a_(i+1) d/d a_i into the weight-(nd/2 + 1)
    monomials.  The rank is taken modulo two distinct large primes, which must
    agree; entries are tiny so rank loss at both primes would require two
    independent miracles.
    """
    if (n * d) % 2 == 1:
        return 0
    if d == 0:
        return 1
    w = n * d // 2
    sources = _weight_monomials(n, d, w)
    targets = _weight_monomials(n, d, w + 1)
    index = {mono: j for j, mono in enumerate(targets)}
    L = np.zeros((len(sources), len(targets)), dtype=np.int64)
    for r, mono in enumerate(sources):
        for i in range(n):
            if mono[i] == 0:
                continue
            img = list(mono)
            img[i] -= 1
            img[i + 1] += 1
            L[r, index[tuple(img)]] += (n - i) * mono[i]
    r1 = rank(L, 2147483629)
    r2 = rank(L, 2147483647)
    if r1 != r2:
        raise ArithmeticError("modular ranks disagree; escalate to exact arithmetic")
    return len(sources) - r1
