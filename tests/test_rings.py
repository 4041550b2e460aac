import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from binforms.rings import is_prime, randbelow
from dual_numbers import Dual
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
    x, y = GF(a), GF(b)
    assert (x + y).value == (a + b) % P
    assert (x - y).value == (a - b) % P
    assert (x * y).value == (a * b) % P
    assert (-x).value == (-a) % P
    assert (a - y).value == (a - b) % P and (x * b).value == (a * b) % P
    assert bool(x) == (a % P != 0)


def test_thousand_random_pairs_against_bigints():
    rng = random.Random(0)
    for _ in range(1000):
        a, b = rng.randrange(P), rng.randrange(P)
        assert (GF(a) * GF(b)).value == a * b % P
        assert (GF(a) + GF(b)).value == (a + b) % P


def test_from_fraction():
    assert GF(Fraction(1, 2)).value == pow(2, -1, P)
    assert GF(Fraction(3, 7)) * 7 == 3
    assert (Fraction(3, 7) * GF(7)).value == 3
    with pytest.raises(ZeroDivisionError):
        GF(Fraction(1, P))
    with pytest.raises(ZeroDivisionError):
        GF(1) * Fraction(1, P)


def test_dual_product_rule():
    a, b, c, d = 5, 7, 11, 13
    prod = Dual(a, b, P) * Dual(c, d, P)
    assert (prod.value, prod.slope) == (a * c % P, (a * d + b * c) % P)


def test_dual_evaluates_derivative_of_polynomials():
    # P(a + eps) = (P(a), P'(a)) for P given by its coefficients.
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [rng.randrange(P) for _ in range(6)]
        a = rng.randrange(P)
        x = Dual(a, 1, P)
        acc = Dual(0, 0, P)
        for c in reversed(coeffs):
            acc = acc * x + c
        value = sum(c * pow(a, k, P) for k, c in enumerate(coeffs)) % P
        deriv = sum(k * c * pow(a, k - 1, P) for k, c in enumerate(coeffs) if k) % P
        assert (acc.value, acc.slope) == (value, deriv)
