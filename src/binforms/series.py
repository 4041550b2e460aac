"""Dimensions of invariant spaces and Poincare series machinery.

The dimension of the degree-d invariants of binary forms of order n is the
classical Cayley-Sylvester count

    dim I_d = N(n, d, nd/2) - N(n, d, nd/2 - 1)

where N(n, d, w) is the number of partitions of w into at most d parts, each
at most n (a coefficient of the Gaussian binomial [n+d, d]_q), and dim I_d = 0
when nd is odd.  The test suite checks it against an independent oracle, the
nullity of the sl2 lowering operator on weight-space monomials.

`poincare_series(n, D)` is the tuple of these dimensions for d = 0..D.  On
top of it sit the rational forms P(t) = a(t) / prod(1 - t^(d_i)), each one
`PoincareRational(numerator, degrees)`, the divisibility restrictions on
parameter degrees, and the search for minimal-product degree sequences (the
"ecritures minimales" of the Poincare series), whose rows are the
`PoincareRational`s it accepts.

All power-series arithmetic is two in-place primitives on coefficient lists:
`_mul_one_minus_tk` multiplies by (1 - t^k) and `_div_one_minus_tk` divides by
it (prefix sums with stride k), both truncated at the list's length.  The
divisibility restrictions of one order are one cached table, `restrictions(n)`,
of (t, divisor, required) for t = 2..n; no restriction applies for t > n.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from operator import sub
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

# Built-in parameter-system degree sequences, used to seed and bound the
# minimal-ecriture search.  (For n = 9 these are Dixmier's degrees.)
SEED_DEGREES = {
    3: (4,),
    6: (2, 4, 6, 10),
    7: (4, 8, 12, 12, 20),
    9: (4, 8, 10, 12, 12, 14, 16),
    10: (2, 4, 6, 6, 8, 9, 10, 14),
}


def _mul_one_minus_tk(coeffs: List[int], k: int) -> None:
    """coeffs *= (1 - t^k), in place, truncated at len(coeffs)."""
    for j in range(len(coeffs) - 1, k - 1, -1):
        coeffs[j] -= coeffs[j - k]


def _div_one_minus_tk(coeffs: List[int], k: int) -> None:
    """coeffs /= (1 - t^k) as a power series, in place, truncated at len(coeffs)."""
    for j in range(k, len(coeffs)):
        coeffs[j] += coeffs[j - k]


def _dimensions(n: int, top: int) -> Iterator[int]:
    """dim I_d for d = 0, 1, ..., top, from one incremental pass.

    The Gaussian binomial [n+d, d]_q (degree n*d; coefficient w counts the
    partitions of w into at most d parts, each <= n) is built from the
    previous one as [n+d-1, d-1]_q * (1 - q^(n+d)) / (1 - q^d), so the pass
    costs O(n * top^2) and keeps one polynomial alive.  No degree reads a
    coefficient above n * top / 2, and both primitives compute each
    coefficient from lower ones, so the polynomial stops at that index.
    """
    box = [1]
    yield 1
    for d in range(1, top + 1):
        box.extend([0] * (min(n * d, n * top // 2) + 1 - len(box)))
        _mul_one_minus_tk(box, n + d)
        _div_one_minus_tk(box, d)  # exact: the result is a polynomial
        if (n * d) % 2 == 1:
            yield 0
        else:
            w = n * d // 2
            yield box[w] - box[w - 1]


@lru_cache(maxsize=None)
def poincare_series(n: int, max_degree: int) -> Tuple[int, ...]:
    """dim I_d for d = 0..max_degree (a tuple, so the cache shares it safely)."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    return tuple(_dimensions(n, max_degree))


@lru_cache(maxsize=None)
def invariant_dimension(n: int, d: int) -> int:
    """dim of the degree-d invariants of forms of order n (exact)."""
    return poincare_series(n, d)[d]


def _trimmed(coeffs: List[int]) -> Tuple[int, ...]:
    """The coefficients without their trailing zeros, as a tuple."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class PoincareRational(NamedTuple):
    """P(t) = numerator / prod(1 - t^d) over the sorted denominator `degrees`."""

    numerator: Tuple[int, ...]
    degrees: Tuple[int, ...]

    @property
    def numerator_degree(self) -> int:
        return len(self.numerator) - 1

    def expand(self, max_degree: int) -> Tuple[int, ...]:
        """Power-series coefficients through max_degree."""
        out = list(self.numerator[: max_degree + 1])
        out += [0] * (max_degree + 1 - len(out))
        for d in self.degrees:
            _div_one_minus_tk(out, d)
        return tuple(out)

    def over(self, degrees: Sequence[int]) -> Optional["PoincareRational"]:
        """The same series over prod(1 - t^d) for `degrees`; None unless the
        new numerator a(t) * prod(1 - t^d) / prod(1 - t^e) is a nonnegative
        polynomial.

        The product is padded to its full degree, so each division by
        (1 - t^e) is exact exactly when the top e coefficients of the
        quotient series vanish; those are then dropped.
        """
        degrees = tuple(sorted(degrees))
        num = list(self.numerator) + [0] * sum(degrees)
        for d in degrees:
            _mul_one_minus_tk(num, d)
        for e in self.degrees:
            _div_one_minus_tk(num, e)
            if any(num[-e:]):
                return None
            del num[-e:]
        if any(c < 0 for c in num):
            return None
        return PoincareRational(_trimmed(num), degrees)


def to_rational(dims: Sequence[int], degrees: Sequence[int]) -> Optional[PoincareRational]:
    """Try to write the series with dimensions `dims` (degree 0 up) as
    a(t) / prod(1 - t^d_i); None on rejection.

    a(t) is `dims` times prod(1 - t^d_i), by `_mul_one_minus_tk`.  Acceptance
    demands nonnegative coefficients through the degree sum plus an all-zero
    guard window of width max(degrees) above it, so `dims` must reach degree
    sum + max; a shorter table raises.  Once a rational form is validated,
    `PoincareRational.over` rewrites it over other degrees exactly, with no
    table, by `_mul_one_minus_tk` and `_div_one_minus_tk`.
    """
    degrees = tuple(sorted(degrees))
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    total = sum(degrees)
    needed = total + max(degrees)
    if len(dims) <= needed:
        raise ValueError(
            f"dimension table up to {len(dims) - 1} is too shallow; "
            f"need degree {needed} for degrees {degrees}"
        )
    coeffs = list(dims)
    for d in degrees:
        _mul_one_minus_tk(coeffs, d)
    if any(c < 0 for c in coeffs[: total + 1]) or any(coeffs[total + 1 : needed + 1]):
        return None
    return PoincareRational(_trimmed(coeffs[: total + 1]), degrees)


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


@lru_cache(maxsize=None)
def restrictions(n: int) -> Tuple[Tuple[int, int, int], ...]:
    """(t, divisor, required) for every t in 2..n with required > 0.

    These are all the restrictions of order n: `min_degree_count` requires
    at most (n - j) // t = 0 degrees for t > n, for both parities of n.
    """
    return tuple(
        (t, divisor, required)
        for t in range(2, n + 1)
        for required, divisor in [min_degree_count(n, t)]
        if required
    )


class SequenceCheck(NamedTuple):
    ok: bool
    violations: Tuple[Tuple[int, int, int, int], ...]
    """Each violation is (t, divisor, required, found)."""


def check_sequence(n: int, degrees: Sequence[int]) -> SequenceCheck:
    """Check every divisibility restriction of order n: the table
    `restrictions(n)`, for t = 2..n whatever the largest degree."""
    bad = []
    for t, divisor, required in restrictions(n):
        found = sum(1 for d in degrees if d % divisor == 0)
        if found < required:
            bad.append((t, divisor, required, found))
    return SequenceCheck(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# Minimal ecritures.

def ecriture_minimale_search(n: int) -> List[PoincareRational]:
    """All minimal-product rational forms over degree sequences of length
    n - 2, sorted lex by degrees.

    A sequence qualifies when every degree carries invariants, the
    divisibility restrictions hold, and the numerator of the corresponding
    rational form is a nonnegative polynomial; among those, only sequences
    with the minimum product are returned.  The built-in seed sequence of
    order n bounds the search and gives its reference rational form.
    """
    seed = SEED_DEGREES.get(n)
    if seed is None:
        known = ", ".join(str(k) for k in sorted(SEED_DEGREES))
        raise ValueError(
            f"ecriture has a built-in seed degree sequence only for n = {known}; got n = {n}"
        )
    dims = poincare_series(n, sum(seed) + max(seed))
    reference = to_rational(dims, seed)
    k = n - 2
    budget = prod(seed)
    # The least degree with invariants bounds every other degree of a
    # sequence from below (4 for n = 3, 7, 9; 2 for n = 6, 10), so no
    # degree exceeds `top`.  Up to `top` the series is read from the
    # validated rational form, which is exact once the guard window has
    # certified the numerator.
    least = next(d for d, dim in enumerate(dims) if d and dim)
    top = budget // least ** (k - 1)
    extended = reference.expand(top)
    domain = [d for d in range(2, top + 1) if extended[d] > 0]
    # hits[i][j]: 1 when domain[i] is divisible by the j-th restriction's divisor.
    hits = [[int(d % divisor == 0) for _, divisor, _ in restrictions(n)] for d in domain]
    accepted: List[PoincareRational] = []

    def rec(prefix: List[int], start_idx: int, product: int, need: List[int]):
        # need[j]: how many more degrees divisible by the j-th restriction's
        # divisor the sequence still requires.
        remaining = k - len(prefix)
        if max(need, default=0) > remaining:
            return
        if remaining == 0:
            rat = reference.over(prefix)
            if rat is not None:
                accepted.append(rat)
            return
        for idx in range(start_idx, len(domain)):
            d = domain[idx]
            if product * d**remaining > budget:
                break
            rec(prefix + [d], idx, product * d, list(map(sub, need, hits[idx])))

    # The recursion visits nondecreasing sequences in lex order.
    rec([], 0, 1, [required for _, _, required in restrictions(n)])
    best = min((prod(r.degrees) for r in accepted), default=None)
    return [r for r in accepted if prod(r.degrees) == best]
