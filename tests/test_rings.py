import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from binforms.rings import QQ, is_prime, randbelow
from dual_numbers import DualNumbers
from prime_field import PrimeField

P = 32003
GF = PrimeField(P)

SEEDS = (0, 1, "candidates:1:9", 2 ** 40 + 3)
# Bounds at and around every bit-length change up to 2^33, and the primes
# the library draws below.
BOUNDS = sorted(
    {1, 2, 3, 32003, 2 ** 31 - 1, 696735691}
    | {b for k in range(1, 34) for b in (2 ** k - 1, 2 ** k, 2 ** k + 1)}
)


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(32001)  # 3 * 10667
    with pytest.raises(ValueError):
        PrimeField(2)
    assert is_prime(32003)
    assert not is_prime(1)


def test_randbelow_makes_the_draws_of_randrange():
    # `randbelow` relies on how CPython's `randrange(n)` draws (its
    # `_randbelow`: rejection on getrandbits(n.bit_length())).
    for seed in SEEDS:
        drawn, reference = random.Random(seed), random.Random(seed)
        for n in BOUNDS:
            for _ in range(3):
                assert randbelow(drawn.getrandbits, n) == reference.randrange(n), (seed, n)
                assert drawn.getstate() == reference.getstate(), (seed, n)


def test_randbelow_with_an_offset_makes_the_draws_of_randint():
    for seed in SEEDS:
        drawn, reference = random.Random(seed), random.Random(seed)
        for lo in (-9, 0, 1):
            for top in (lo - 1 + n for n in BOUNDS):
                got = lo + randbelow(drawn.getrandbits, top + 1 - lo)
                assert got == reference.randint(lo, top), (seed, lo, top)
                assert drawn.getstate() == reference.getstate(), (seed, lo, top)


@given(st.integers(), st.integers())
def test_field_ops_match_integer_arithmetic(a, b):
    x, y = GF.from_int(a), GF.from_int(b)
    assert GF.add(x, y) == (a + b) % P
    assert GF.sub(x, y) == (a - b) % P
    assert GF.mul(x, y) == (a * b) % P
    assert GF.neg(x) == (-a) % P


def test_thousand_random_pairs_against_bigints():
    rng = random.Random(0)
    for _ in range(1000):
        a, b = rng.randrange(P), rng.randrange(P)
        assert GF.mul(a, b) == a * b % P
        assert GF.add(a, b) == (a + b) % P


def test_from_fraction():
    assert GF.from_fraction(Fraction(1, 2)) == pow(2, -1, P)
    assert GF.mul(GF.from_fraction(Fraction(3, 7)), 7) == 3
    with pytest.raises(ZeroDivisionError):
        GF.from_fraction(Fraction(1, P))


@given(
    st.fractions(max_denominator=10**4),
    st.fractions(max_denominator=10**4),
)
def test_rationals_exact(a, b):
    # (a/b + c/d) * b * d == a*d + c*b, exactly
    s = QQ.add(a, b)
    assert s * a.denominator * b.denominator == (
        a.numerator * b.denominator + b.numerator * a.denominator
    )


def test_dual_product_rule():
    D = DualNumbers(GF)
    a, b, c, d = 5, 7, 11, 13
    assert D.mul((a, b), (c, d)) == (a * c % P, (a * d + b * c) % P)


def test_dual_evaluates_derivative_of_polynomials():
    # P(a + eps) = (P(a), P'(a)) for P given by its coefficients.
    D = DualNumbers(GF)
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [rng.randrange(P) for _ in range(6)]
        a = rng.randrange(P)
        x = (a, 1)
        acc = D.zero
        for c in reversed(coeffs):
            acc = D.add(D.mul(acc, x), D.from_int(c))
        value = sum(c * pow(a, k, P) for k, c in enumerate(coeffs)) % P
        deriv = sum(k * c * pow(a, k - 1, P) for k, c in enumerate(coeffs) if k) % P
        assert acc == (value, deriv)
