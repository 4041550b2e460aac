import random
from fractions import Fraction
from math import comb

import pytest

import closed_form
from binforms.forms import BinaryForm, derivative_weights, transvectant
from binforms.rings import random_rational
from multipoly import PolynomialRing
from prime_field import PrimeField
from sl2_action import (
    form_product,
    form_scale,
    form_sum,
    monomial,
    random_form,
    random_sl2,
    scalar,
    sl2_act,
)

P = 32003
GF = PrimeField(P)


def test_form_construction_and_zero():
    f = BinaryForm(4, [0] * 5)
    assert f.is_zero() and f.order == 4 and len(f.coeffs) == 5
    assert not monomial(2, 2).is_zero()
    with pytest.raises(ValueError):
        BinaryForm(3, [1, 2, 3])  # wrong length


def test_a_convention_weights():
    f = BinaryForm.from_a_convention(9, [Fraction(1)] * 10)
    assert [int(c) for c in f.coeffs] == [comb(9, i) for i in range(10)]


def test_zeroth_transvectant_is_product():
    rng = random.Random(1)
    for _ in range(5):
        g = random_form(random_rational, 5, rng)
        h = random_form(random_rational, 3, rng)
        want = [Fraction(0)] * 9
        for i, a in enumerate(g.coeffs):
            for j, b in enumerate(h.coeffs):
                want[i + j] += a * b
        assert list(transvectant(g, h, 0).coeffs) == want
        assert list(form_product(g, h).coeffs) == want


def test_gf_form_product_reduces_every_coefficient():
    f = BinaryForm(29, [GF(P - 1)] * 30)
    out = form_product(f, f).coeffs
    assert all(0 <= v.value < P for v in out)
    integer = BinaryForm(29, [P - 1] * 30)
    assert [v.value for v in out] == [c % P for c in form_product(integer, integer).coeffs]


def _symbolic_form(ring, order, rng):
    # Coefficients are c0 + c1 * s with small random residues.
    s = ring.var("s")
    return BinaryForm(
        order, [GF(rng.randint(-3, 3)) + GF(rng.randint(-3, 3)) * s for _ in range(order + 1)]
    )


def test_transvectant_matches_derivative_sum_oracle_through_order_12():
    rng = random.Random(11)
    # One variable with GF(p) coefficients keeps the symbolic sweep to about 2.5 s.
    sym = PolynomialRing(("s",))
    for m in range(13):
        for n in range(13):
            pairs = [
                (random_form(random_rational, m, rng), random_form(random_rational, n, rng)),
                (random_form(GF.random, m, rng), random_form(GF.random, n, rng)),
                (_symbolic_form(sym, m, rng), _symbolic_form(sym, n, rng)),
            ]
            for g, h in pairs:
                for k in range(min(m, n) + 1):
                    want = closed_form.transvectant(g, h, k)
                    assert transvectant(g, h, k) == want, (g, m, n, k)


def test_polynomial_transvectant_matches_derivative_sum_oracle_through_order_6():
    # Coefficients that are independent variables make each comparison an
    # identity in them: the object-array kernel against the definition.
    R = PolynomialRing(tuple(f"a{i}" for i in range(7)) + tuple(f"b{i}" for i in range(7)))
    for m in range(7):
        g = BinaryForm(m, [R.var(f"a{i}") for i in range(m + 1)])
        for n in range(7):
            h = BinaryForm(n, [R.var(f"b{i}") for i in range(n + 1)])
            for k in range(min(m, n) + 1):
                assert transvectant(g, h, k) == closed_form.transvectant(g, h, k), (m, n, k)
                if m == n:
                    assert transvectant(g, g, k) == closed_form.transvectant(g, g, k), (m, k)


def test_odd_self_transvectant_vanishes():
    rng = random.Random(2)
    for order in (4, 7, 9):
        g = random_form(random_rational, order, rng)
        for i in range(0, order, 2):
            assert transvectant(g, g, i + 1).is_zero()


def test_transvectant_index_errors():
    g = random_form(random_rational, 4, random.Random(0))
    h = random_form(random_rational, 2, random.Random(1))
    with pytest.raises(ValueError):
        transvectant(g, h, 3)
    with pytest.raises(ValueError):
        derivative_weights(2, 3)


def test_antisymmetry():
    rng = random.Random(3)
    g = random_form(random_rational, 6, rng)
    h = random_form(random_rational, 4, rng)
    for p in range(5):
        lhs = transvectant(g, h, p)
        rhs = transvectant(h, g, p)
        assert lhs == (rhs if p % 2 == 0 else form_scale(-1, rhs))


def test_bilinearity():
    rng = random.Random(4)
    g1 = random_form(random_rational, 5, rng)
    g2 = random_form(random_rational, 5, rng)
    h = random_form(random_rational, 4, rng)
    c = Fraction(3, 7)
    left = transvectant(form_sum(g1, form_scale(c, g2)), h, 3)
    right = form_sum(transvectant(g1, h, 3), form_scale(c, transvectant(g2, h, 3)))
    assert left == right


def test_nonic_l_expansion_symbolically():
    # with a_6 = ... = a_9 = 0 the eighth self-transvectant collapses to
    # 70 a5^2 y^2 + 28 a4 a5 x y + (70 a4^2 - 112 a3 a5) x^2
    R = PolynomialRing(tuple(f"a{i}" for i in range(10)))
    a = [R.var(f"a{i}") for i in range(10)]
    f = BinaryForm.from_a_convention(9, a[:6] + [0] * 4)
    l = transvectant(f, f, 8)
    assert l.coeffs[2] == 70 * a[5] ** 2
    assert l.coeffs[1] == 28 * a[4] * a[5]
    assert l.coeffs[0] == 70 * a[4] ** 2 - 112 * a[3] * a[5]


def test_pair_scalar_identity_symbolically():
    # ((h,h)_6, g)_2 = -4/245 b1^2 for g = x^2, h = y^4(b1 x^3 + ... + b4 y^3)
    R = PolynomialRing(("b1", "b2", "b3", "b4"))
    b1, b2, b3, b4 = R.vars()
    g = monomial(2, 0)
    h = BinaryForm(7, [0] * 4 + [b1, b2, b3, b4])
    v = transvectant(transvectant(h, h, 6), g, 2)
    assert scalar(v) == Fraction(-4, 245) * b1 ** 2


def test_mixed_partial_closed_form():
    rng = random.Random(5)
    f = random_form(random_rational, 7, rng)

    def diff_x(g):
        return BinaryForm(g.order - 1, [g.coeffs[i] * (g.order - i) for i in range(g.order)])

    def diff_y(g):
        return BinaryForm(g.order - 1, [g.coeffs[i + 1] * (i + 1) for i in range(g.order)])

    step = diff_y(diff_y(diff_x(f)))
    assert closed_form.mixed_partial(f, 1, 2) == step


def test_act_identity_and_diagonal():
    f = random_form(random_rational, 5, random.Random(6))
    ident = ((1, 0), (0, 1))
    assert sl2_act(ident, f) == f
    lam = Fraction(3)
    diag = ((lam, 0), (0, 1 / lam))
    xn = monomial(5, 0)
    acted = sl2_act(diag, xn)
    assert acted.coeffs[0] == lam ** -5
    assert all(c == 0 for c in acted.coeffs[1:])


def test_act_requires_det_one():
    f = random_form(random_rational, 3, random.Random(7))
    bad = ((Fraction(2), 0), (0, Fraction(2)))
    with pytest.raises(ValueError):
        sl2_act(bad, f)


def test_act_is_a_group_action():
    rng = random.Random(8)
    f = random_form(random_rational, 6, rng)
    g1 = random_sl2(random_rational, rng)
    g2 = random_sl2(random_rational, rng)
    prod = (
        (
            g1[0][0] * g2[0][0] + g1[0][1] * g2[1][0],
            g1[0][0] * g2[0][1] + g1[0][1] * g2[1][1],
        ),
        (
            g1[1][0] * g2[0][0] + g1[1][1] * g2[1][0],
            g1[1][0] * g2[0][1] + g1[1][1] * g2[1][1],
        ),
    )
    assert sl2_act(prod, f) == sl2_act(g1, sl2_act(g2, f))


def test_transvectant_equivariance():
    # (g.q, g.h)_p = g.(q, h)_p over the rationals
    rng = random.Random(9)
    q = random_form(random_rational, 5, rng)
    h = random_form(random_rational, 4, rng)
    g = random_sl2(random_rational, rng)
    for p in range(5):
        assert transvectant(sl2_act(g, q), sl2_act(g, h), p) == sl2_act(
            g, transvectant(q, h, p)
        )


def test_clebsch_gordan_order_dimensions():
    # sum of target dims over the transvectant indices matches dim Vm x dim Vn
    for m in range(1, 8):
        for n in range(1, m + 1):
            total = sum(m + n - 2 * p + 1 for p in range(n + 1))
            assert total == (m + 1) * (n + 1)
