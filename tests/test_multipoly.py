import random
from fractions import Fraction

import pytest

from binforms.forms import BinaryForm
from binforms.nullcone import dense_divmod, dense_gcd
from multipoly import PolynomialRing
from prime_field import PrimeField

R2 = PolynomialRing(("x", "y"))


def dense(poly):
    """Coefficient list (low degree first) of a polynomial in one variable."""
    deg = max((e for (e,) in poly.terms), default=-1)
    return [Fraction(poly.terms.get((k,), 0)) for k in range(deg + 1)]


def test_difference_of_squares():
    x, y = R2.vars()
    assert (x + y) * (x - y) == x * x - y * y


def test_additive_inverse_is_empty():
    x, y = R2.vars()
    p = 3 * x * y + y ** 2
    assert (p + -p).terms == {}


def test_binomial_expansion():
    R = PolynomialRing(("a4", "a5", "x", "y"))
    a4, a5, x, y = R.vars()
    assert (a4 * x + a5 * y) ** 2 == a4 ** 2 * x ** 2 + 2 * a4 * a5 * x * y + a5 ** 2 * y ** 2


def test_ring_mismatch_rejected():
    other = PolynomialRing(("x", "z"))
    with pytest.raises(ValueError):
        R2.var("x") + other.var("x")


def test_gcd_shared_root():
    R = PolynomialRing(("x",))
    (x,) = R.vars()
    p = (x - 1) ** 2 * (x + 2)
    q = (x - 1) * (x + 3)
    assert dense_gcd(dense(p), dense(q)) == dense(x - 1)


def test_gcd_with_zero_is_monic():
    R = PolynomialRing(("x",))
    (x,) = R.vars()
    p = 3 * x ** 2 + 6
    g = dense_gcd(dense(p), dense(R.zero))
    assert g == dense(x ** 2 + 2)


def test_gcd_random_coprime_cubics():
    # Built from disjoint random root sets, so the gcd must be 1.
    R = PolynomialRing(("x",))
    (x,) = R.vars()
    rng = random.Random(11)
    for _ in range(10):
        roots = rng.sample(range(-30, 30), 6)
        p = (x - roots[0]) * (x - roots[1]) * (x - roots[2])
        q = (x - roots[3]) * (x - roots[4]) * (x - roots[5])
        assert dense_gcd(dense(p), dense(q)) == dense(R.one)


def test_gcd_divides_both_and_cofactors_coprime():
    R = PolynomialRing(("x",))
    (x,) = R.vars()
    rng = random.Random(5)
    for _ in range(10):
        roots = [rng.randint(-9, 9) for _ in range(5)]
        p = (x - roots[0]) * (x - roots[1]) * (x - roots[2])
        q = (x - roots[0]) * (x - roots[3]) * (x - roots[4])
        g = dense_gcd(dense(p), dense(q))
        for h in (p, q):
            quo, rem = dense_divmod(dense(h), g)
            assert not rem
        cp, _ = dense_divmod(dense(p), g)
        cq, _ = dense_divmod(dense(q), g)
        # cofactors are coprime
        assert dense_gcd(cp, cq) == [Fraction(1)]


def test_no_zero_terms_survive():
    x, y = R2.vars()
    p = x * y + 2 * y
    q = -(x * y)
    assert all(c != 0 for c in (p + q).terms.values())


def test_scalars_scale_every_term_and_zero_gives_the_zero_polynomial():
    x, y = R2.vars()
    p = 3 * x * y + y ** 2
    assert p * 0 == R2.zero and 0 * p == R2.zero and not (0 * p).terms
    assert p * Fraction(1, 3) == x * y + Fraction(1, 3) * y ** 2
    assert Fraction(1, 3) * p == p * Fraction(1, 3)
    assert 2 * p == p + p and p - 1 == -(1 - p)


def test_zero_terms_are_dropped_over_a_prime_field():
    # Over F_7 the integer 7 is zero, so 7 * s is the zero polynomial.
    F7 = PrimeField(7)
    R = PolynomialRing(("s",))
    s = F7(1) * R.var("s")
    assert 7 * s == R.zero and not (s * 7).terms
    assert s + 6 * s == R.zero
    f = BinaryForm.from_a_convention(7, [s] * 8)
    assert f.coeffs[1] == R.zero and not f.coeffs[1]
    assert f.coeffs[0] == s


def test_canonical_text_is_graded_lex():
    R = PolynomialRing(("a4", "a5", "x", "y"))
    a4, a5, x, y = R.vars()
    p = 70 * a5 ** 2 * y ** 2 + 28 * a4 * a5 * x * y
    # graded lex on the declared list, highest first
    assert str(p) == "28*a4*a5*x*y + 70*a5^2*y^2"

