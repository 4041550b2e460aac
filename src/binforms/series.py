"""Dimensions of invariant spaces and Poincare series machinery.

The dimension of the degree-d invariants of binary forms of order n is the
classical Cayley-Sylvester count

    dim I_d = N(n, d, nd/2) - N(n, d, nd/2 - 1)

where N(n, d, w) is the number of partitions of w into at most d parts, each
at most n (a coefficient of the Gaussian binomial [n+d, d]_q), and dim I_d = 0
when nd is odd.  An independent oracle recomputes the same dimension as the
nullity of the sl2 lowering operator on weight-space monomials; the two must
agree and the test suite enforces it.

On top of the dimension table sit rational-form representations
P(t) = a(t) / prod(1 - t^(d_i)), the divisibility restrictions on parameter
degrees, and the search for minimal-product degree sequences (the "ecritures
minimales" of the Poincare series).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .modlinalg import rank

# Built-in parameter-system degree sequences, used to seed and bound the
# minimal-ecriture search.  (For n = 9 these are Dixmier's degrees.)
SEED_DEGREES = {
    3: (4,),
    6: (2, 4, 6, 10),
    7: (4, 8, 12, 12, 20),
    9: (4, 8, 10, 12, 12, 14, 16),
}


def _dimensions(n: int, top: int) -> Iterator[int]:
    """dim I_d for d = 0, 1, ..., top, from one incremental pass.

    The Gaussian binomial [n+d, d]_q (degree n*d; coefficient w counts the
    partitions of w into at most d parts, each <= n) is built from the
    previous one as [n+d-1, d-1]_q * (1 - q^(n+d)) / (1 - q^d), so the pass
    costs O(n * top^2) and keeps one polynomial alive.
    """
    box = [1]
    yield 1
    for d in range(1, top + 1):
        box.extend([0] * n)
        _mul_one_minus_tk(box, n + d)
        # divide exactly by (1 - q^d)
        for j in range(d, len(box)):
            box[j] += box[j - d]
        if (n * d) % 2 == 1:
            yield 0
        else:
            w = n * d // 2
            yield box[w] - box[w - 1]


@lru_cache(maxsize=None)
def invariant_dimension(n: int, d: int) -> int:
    """dim of the degree-d invariants of forms of order n (exact)."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    if (n * d) % 2 == 1:
        return 0
    for dim in _dimensions(n, d):
        pass
    return dim


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


class DimTable(NamedTuple):
    """Invariant-space dimensions, degree 0 .. max_degree inclusive."""

    n: int
    dims: Tuple[int, ...]

    @property
    def max_degree(self) -> int:
        return len(self.dims) - 1


@lru_cache(maxsize=None)
def poincare_series(n: int, max_degree: int) -> DimTable:
    """Dimension table for degrees 0..max_degree (frozen, so shared safely)."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if n < 1:
        raise ValueError("need n >= 1 and d >= 0")
    return DimTable(n, tuple(_dimensions(n, max_degree)))


class DegreeSequence:
    """Sorted multiset of parameter degrees."""

    def __init__(self, degrees: Sequence[int]):
        self.degrees: Tuple[int, ...] = tuple(sorted(int(d) for d in degrees))
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive")

    @property
    def product(self) -> int:
        return prod(self.degrees)

    @property
    def total(self) -> int:
        return sum(self.degrees)

    def __len__(self):
        return len(self.degrees)


class PoincareRational(NamedTuple):
    """P(t) = numerator / prod(1 - t^d) with the stated denominator degrees."""

    numerator: Tuple[int, ...]
    denominator_degrees: Tuple[int, ...]

    @property
    def numerator_degree(self) -> int:
        return len(self.numerator) - 1

    def expand(self, max_degree: int) -> Tuple[int, ...]:
        """Power-series coefficients through max_degree."""
        out = list(self.numerator[: max_degree + 1])
        out += [0] * (max_degree + 1 - len(out))
        for d in self.denominator_degrees:
            # divide by (1 - t^d): prefix sums with stride d
            for j in range(d, max_degree + 1):
                out[j] += out[j - d]
        return tuple(out)


def _mul_one_minus_tk(coeffs: List[int], k: int) -> None:
    for j in range(len(coeffs) - 1, k - 1, -1):
        coeffs[j] -= coeffs[j - k]


def series_numerator(table: DimTable, degrees: Sequence[int]) -> List[int]:
    """Coefficients of P(t) * prod(1 - t^d), computed through the table bound.

    Raises if the table is too short to cover the guard window
    (sum of degrees, sum + max], which the acceptance test needs.
    """
    degrees = sorted(degrees)
    needed = sum(degrees) + max(degrees)
    if table.max_degree < needed:
        raise ValueError(
            f"dimension table up to {table.max_degree} is too shallow; "
            f"need degree {needed} for degrees {tuple(degrees)}"
        )
    coeffs = list(table.dims)
    for d in degrees:
        _mul_one_minus_tk(coeffs, d)
    return coeffs


def to_rational(
    table: DimTable,
    degrees: Sequence[int],
    reference: Optional[PoincareRational] = None,
) -> Optional[PoincareRational]:
    """Try to write the series as a(t) / prod(1 - t^d_i); None on rejection.

    Without a reference, acceptance demands nonnegative coefficients through
    the degree sum plus an all-zero guard window of width max(degrees) above
    it.  With a validated reference rational form the check is exact: the
    candidate numerator is a(t) * prod(1 - t^d_i) / prod(1 - t^e_j), accepted
    iff the division is exact and the quotient is nonnegative.
    """
    seq = DegreeSequence(degrees)
    if reference is not None:
        return _to_rational_exact(seq, reference)
    coeffs = series_numerator(table, seq.degrees)
    total = seq.total
    window_top = total + max(seq.degrees)
    if any(c < 0 for c in coeffs[: total + 1]):
        return None
    if any(coeffs[j] != 0 for j in range(total + 1, window_top + 1)):
        return None
    num = coeffs[: total + 1]
    while num and num[-1] == 0:
        num.pop()
    return PoincareRational(tuple(num), seq.degrees)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _denominator_poly(degrees: Sequence[int]) -> List[int]:
    out = [1]
    for d in degrees:
        factor = [0] * (d + 1)
        factor[0] = 1
        factor[d] = -1
        out = _poly_mul(out, factor)
    return out


def _poly_divmod_exact(a: Sequence[int], b: Sequence[int]) -> Optional[List[int]]:
    """Quotient of a by b when the division is exact, else None (b[0] = 1)."""
    deg_q = len(a) - len(b)
    if deg_q < 0:
        return None if any(a) else [0]
    q = [0] * (deg_q + 1)
    rem = list(a)
    for k in range(deg_q + 1):
        q[k] = rem[k]
        if q[k]:
            for j, c in enumerate(b):
                rem[k + j] -= q[k] * c
    if any(rem):
        return None
    return q


def _to_rational_exact(
    seq: DegreeSequence, reference: PoincareRational
) -> Optional[PoincareRational]:
    num = _poly_mul(reference.numerator, _denominator_poly(seq.degrees))
    quotient = _poly_divmod_exact(num, _denominator_poly(reference.denominator_degrees))
    if quotient is None or any(c < 0 for c in quotient):
        return None
    while quotient and quotient[-1] == 0:
        quotient.pop()
    return PoincareRational(tuple(quotient), seq.degrees)


# ---------------------------------------------------------------------------
# Divisibility restrictions on hsop degree sequences.

def min_degree_count(n: int, t: int) -> Tuple[int, int]:
    """(required count, divisor): at least `count` of the degrees in any
    parameter system for order-n forms must be divisible by `divisor`.

    For odd n the divisor is 2t (with j minimal such that gcd(n - 2j, t) = 1);
    for even n it is t (with j minimal such that gcd(n/2 - j, t) = 1).
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    if n % 2 == 1:
        j = next(j for j in range(n + 1) if gcd(n - 2 * j, t) == 1)
        return (n - j) // t, 2 * t
    j = next(j for j in range(n // 2 + 1) if gcd(n // 2 - j, t) == 1)
    return (n - j) // t, t


class SequenceCheck(NamedTuple):
    ok: bool
    violations: Tuple[Tuple[int, int, int, int], ...]
    """Each violation is (t, divisor, required, found)."""


def check_sequence(n: int, degrees: Sequence[int]) -> SequenceCheck:
    """Check every divisibility restriction for t in 2..max(degrees)."""
    seq = tuple(sorted(degrees))
    bad = []
    for t in range(2, max(seq) + 1):
        required, divisor = min_degree_count(n, t)
        if required == 0:
            continue
        found = sum(1 for d in seq if d % divisor == 0)
        if found < required:
            bad.append((t, divisor, required, found))
    return SequenceCheck(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# Minimal ecritures.

class EcritureRow(NamedTuple):
    degrees: Tuple[int, ...]
    numerator: Tuple[int, ...]

    @property
    def numerator_degree(self) -> int:
        return len(self.numerator) - 1

    @property
    def product(self) -> int:
        return prod(self.degrees)


class EcritureContext:
    """Dimension table plus a validated reference rational form for one n."""

    def __init__(self, n: int, seed_degrees: Optional[Sequence[int]] = None):
        if seed_degrees is None:
            seed_degrees = SEED_DEGREES.get(n)
        if seed_degrees is None:
            raise ValueError(
                f"no seed degree sequence known for n = {n}; pass one explicitly"
            )
        self.n = n
        self.seed = DegreeSequence(seed_degrees)
        depth = self.seed.total + max(self.seed.degrees)
        self.table = poincare_series(n, depth)
        ref = to_rational(self.table, self.seed.degrees)
        if ref is None:
            raise ValueError(f"seed degrees {self.seed.degrees} are not a valid ecriture")
        self.reference = ref
        # The least degree with invariants bounds every other degree of a
        # sequence from below (4 for n = 3, 7, 9; 2 for the sextic).
        self.least = next(d for d, dim in enumerate(self.table.dims) if d and dim)
        # Degrees with invariants.  Beyond the partition-counted table the
        # series is extended through the validated rational form, which is
        # exact once the guard window has certified the numerator.
        bound = max(self.least, self.seed.product // (self.least ** (len(self.seed) - 1)))
        self.extended = self.reference.expand(bound)

    def has_invariants(self, d: int) -> bool:
        return d < len(self.extended) and self.extended[d] > 0

    def accept(self, degrees: Sequence[int]) -> Optional[PoincareRational]:
        return to_rational(self.table, degrees, reference=self.reference)


def _candidate_degrees(ctx: EcritureContext, bound: int) -> List[int]:
    return [d for d in range(2, bound + 1) if ctx.has_invariants(d)]


def ecriture_minimale_search(
    n: int, seed_degrees: Optional[Sequence[int]] = None
) -> List[EcritureRow]:
    """All minimal-product degree sequences of length n - 2, sorted lex.

    A sequence qualifies when every degree carries invariants, the
    divisibility restrictions hold, and the numerator of the corresponding
    rational form is a nonnegative polynomial; among those, only sequences
    with the minimum product are returned.
    """
    if n < 3:
        raise ValueError("ecriture search needs n >= 3")
    ctx = EcritureContext(n, seed_degrees)
    k = n - 2
    budget = ctx.seed.product
    domain = _candidate_degrees(ctx, budget // ctx.least ** (k - 1))
    constraints = [
        (divisor, required)
        for t in range(2, max(domain, default=2) + 1)
        for (required, divisor) in [min_degree_count(n, t)]
        if required > 0
    ]
    accepted: List[Tuple[Tuple[int, ...], PoincareRational]] = []

    def feasible(prefix: List[int], remaining: int) -> bool:
        for divisor, required in constraints:
            have = sum(1 for d in prefix if d % divisor == 0)
            if have + remaining < required:
                return False
        return True

    def rec(prefix: List[int], start_idx: int, product: int):
        remaining = k - len(prefix)
        if remaining == 0:
            if not check_sequence(n, prefix).ok:
                return
            rat = ctx.accept(prefix)
            if rat is not None:
                accepted.append((tuple(prefix), rat))
            return
        if not feasible(prefix, remaining):
            return
        for idx in range(start_idx, len(domain)):
            d = domain[idx]
            if product * d**remaining > budget:
                break
            rec(prefix + [d], idx, product * d)

    rec([], 0, 1)
    if not accepted:
        return []
    best = min(prod(degs) for degs, _ in accepted)
    rows = [
        EcritureRow(degs, rat.numerator)
        for degs, rat in accepted
        if prod(degs) == best
    ]
    rows.sort(key=lambda r: r.degrees)
    return rows
