import random
from fractions import Fraction

import pytest

from binforms.multipoly import (
    PolynomialRing,
    dense_divmod,
    gcd_univariate,
    partial_derivative,
)
from binforms.rings import DualNumbers, PrimeField

R2 = PolynomialRing(("x", "y"))


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


def test_partial_derivative_power_rule():
    R = PolynomialRing(("x", "y"))
    x, y = R.vars()
    assert partial_derivative(x ** 9, "x") == 9 * x ** 8
    assert partial_derivative(x ** 2, "y").is_zero()
    R3 = PolynomialRing(("a3", "x", "y"))
    a3, x, y = R3.vars()
    assert partial_derivative(a3 * x ** 2 * y, "x") == 2 * a3 * x * y
    with pytest.raises(ValueError):
        partial_derivative(x ** 2, "w")


def test_gcd_shared_root():
    R = PolynomialRing(("x",))
    (x,) = R.vars()
    p = (x - 1) ** 2 * (x + 2)
    q = (x - 1) * (x + 3)
    assert gcd_univariate(p, q) == x - 1


def test_gcd_with_zero_is_monic():
    R = PolynomialRing(("x",))
    (x,) = R.vars()
    p = 3 * x ** 2 + 6
    g = gcd_univariate(p, R.zero)
    assert g == x ** 2 + 2


def test_gcd_random_coprime_cubics():
    # Built from disjoint random root sets, so the gcd must be 1.
    R = PolynomialRing(("x",))
    (x,) = R.vars()
    rng = random.Random(11)
    for _ in range(10):
        roots = rng.sample(range(-30, 30), 6)
        p = (x - roots[0]) * (x - roots[1]) * (x - roots[2])
        q = (x - roots[3]) * (x - roots[4]) * (x - roots[5])
        assert gcd_univariate(p, q) == R.one


def test_gcd_divides_both_and_cofactors_coprime():
    R = PolynomialRing(("x",))
    (x,) = R.vars()
    rng = random.Random(5)
    for _ in range(10):
        roots = [rng.randint(-9, 9) for _ in range(5)]
        p = (x - roots[0]) * (x - roots[1]) * (x - roots[2])
        q = (x - roots[0]) * (x - roots[3]) * (x - roots[4])
        g = gcd_univariate(p, q)

        def dense(poly):
            deg = poly.degree_in("x")
            return [Fraction(poly.coefficient({"x": k})) for k in range(deg + 1)]

        for h in (p, q):
            quo, rem = dense_divmod(dense(h), dense(g))
            assert not rem
        cp, _ = dense_divmod(dense(p), dense(g))
        cq, _ = dense_divmod(dense(q), dense(g))
        # cofactors are coprime
        from binforms.multipoly import dense_gcd

        assert dense_gcd(cp, cq) == [Fraction(1)]


def test_gcd_rejects_multivariate():
    x, y = R2.vars()
    with pytest.raises(ValueError):
        gcd_univariate(x * y, x)


def test_no_zero_terms_survive():
    x, y = R2.vars()
    p = x * y + 2 * y
    q = -(x * y)
    assert all(c != 0 for c in (p + q).terms.values())


def test_canonical_text_is_graded_lex():
    R = PolynomialRing(("a4", "a5", "x", "y"))
    a4, a5, x, y = R.vars()
    p = 70 * a5 ** 2 * y ** 2 + 28 * a4 * a5 * x * y
    # graded lex on the declared list, highest first
    assert str(p) == "28*a4*a5*x*y + 70*a5^2*y^2"


def test_evaluate_into_prime_field_and_duals():
    R = PolynomialRing(("x", "y"))
    x, y = R.vars()
    p = x ** 3 + 2 * x * y
    GF = PrimeField(101)
    assert p.evaluate({"x": 5, "y": 7}, GF) == (125 + 70) % 101
    D = DualNumbers(GF)
    val = p.evaluate({"x": (5, 1), "y": (7, 0)}, D)
    # d/dx (x^3 + 2xy) = 3x^2 + 2y at (5, 7)
    assert val == ((125 + 70) % 101, (75 + 14) % 101)


def test_dual_evaluation_matches_formal_derivative():
    R = PolynomialRing(("x", "y"))
    GF = PrimeField(32003)
    D = DualNumbers(GF)
    rng = random.Random(2)
    for _ in range(15):
        p = R.zero
        for _ in range(6):
            term = R.const(rng.randint(-9, 9))
            term = term * R.var("x") ** rng.randint(0, 4) * R.var("y") ** rng.randint(0, 4)
            p = p + term
        a, b = rng.randrange(32003), rng.randrange(32003)
        got = p.evaluate({"x": (a, 1), "y": (b, 0)}, D)
        dp = partial_derivative(p, "x")
        assert got[0] == p.evaluate({"x": a, "y": b}, GF)
        assert got[1] == dp.evaluate({"x": a, "y": b}, GF)
