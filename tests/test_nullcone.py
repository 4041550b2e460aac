import random
from fractions import Fraction
from math import gcd

from binforms.catalog import catalog_for
from binforms.forms import BinaryForm
from binforms.lemmas import verify_lemma_expansions
from binforms.nullcone import NullformReport, nullform_report, random_nullform
from binforms.rings import random_rational
from multipoly import PolynomialRing
from prime_field import PrimeField
from scalar_evaluator import Evaluator
from sl2_action import (
    form_power,
    form_product,
    monomial,
    nullform_by_sl2_act,
    random_form,
    random_sl2,
    scalar,
    sl2_act,
)


def lin(a, b):
    return BinaryForm(1, (Fraction(a), Fraction(b)))


def test_constructed_multiplicities():
    f = form_product(form_power(lin(1, -2), 7), form_power(lin(1, 1), 2))
    assert nullform_report(f).multiplicity == 7
    rep = nullform_report(monomial(0, 9))
    assert rep.multiplicity == 9 and rep.witness == "point at infinity"


def test_distinct_roots_give_multiplicity_one():
    rng = random.Random(1)
    for _ in range(5):
        roots = rng.sample(range(-40, 40), 9)
        f = lin(1, -roots[0])
        for r in roots[1:]:
            f = form_product(f, lin(1, -r))
        assert nullform_report(f).multiplicity == 1


def test_zero_form_sentinel():
    for n in (1, 2, 9):
        assert nullform_report(BinaryForm(n, [0] * (n + 1))) == NullformReport(None, True, "zero form")


def test_nonzero_constant_has_no_roots():
    # A nonzero form of order 0 has no roots, not even at infinity.
    for c in (Fraction(3), Fraction(-1, 2)):
        assert nullform_report(BinaryForm(0, (c,))) == NullformReport(0, False, "no roots")


def test_nullform_threshold():
    assert nullform_report(monomial(5, 4)).is_nullform  # mult 5 > 4.5
    f = form_product(monomial(4, 4), lin(1, 1))
    assert not nullform_report(f).is_nullform  # max mult 4 <= 4.5


def test_multiplicity_is_sl2_invariant():
    rng = random.Random(2)
    for seed in range(5):
        f = form_product(form_power(lin(1, -3), 6), random_form(random_rational, 3, rng))
        if f.is_zero():
            continue
        g = random_sl2(random_rational, rng)
        assert nullform_report(sl2_act(g, f)).multiplicity == nullform_report(f).multiplicity


def test_nullform_invariance_under_sl2():
    rng = random.Random(3)
    base = monomial(6, 3)  # x^6 y^3, mult 6 > 4.5
    for _ in range(5):
        g = random_sl2(random_rational, rng)
        assert nullform_report(sl2_act(g, base)).is_nullform


def test_random_nullform_is_deterministic_and_null():
    for seed in range(10):
        row = random_nullform(9, seed)
        assert row == random_nullform(9, seed)
        assert nullform_report(BinaryForm(9, row)).is_nullform


def test_random_nullform_rows_are_primitive_and_nonzero():
    for n in range(1, 13):
        for seed in range(100):
            row = random_nullform(n, seed)
            assert len(row) == n + 1 and all(type(c) is int for c in row)
            assert any(row) and gcd(*row) == 1, (n, seed)


def test_random_nullform_equals_sl2_act_image():
    for n in range(1, 13):
        for seed in range(100):
            row = random_nullform(n, seed)
            want = nullform_by_sl2_act(n, seed).coeffs
            assert len(row) == n + 1 and any(row) and any(want), (n, seed)
            # Proportional: every cross product row[i] * want[j] - row[j] * want[i] is 0,
            # and by a positive factor.
            assert all(
                row[i] * want[j] == row[j] * want[i] for i in range(n + 1) for j in range(i)
            ), (n, seed)
            assert all(r * w >= 0 for r, w in zip(row, want)), (n, seed)


def test_all_low_degree_invariants_vanish_on_nullforms_mod_p():
    gf = PrimeField(32003)
    cat = catalog_for(9)
    names = [e.name for e in cat.invariants() if e.degree <= 12]
    assert len(names) >= 17
    for seed in range(50):
        nf = BinaryForm(9, [gf(c) for c in random_nullform(9, seed)])
        ev = Evaluator(nf)
        for name in names:
            assert scalar(ev.eval(cat[name].expr)) == 0, (seed, name)


def test_invariants_vanish_exactly_over_rationals():
    for n in (6, 9):
        cat = catalog_for(n)
        invariants = [e for e in cat.invariants()]
        for seed in range(25):
            ev = Evaluator(BinaryForm(n, random_nullform(n, seed)))
            for e in invariants:
                assert scalar(ev.eval(e.expr)) == 0, (n, seed, e.name)


def test_lemma_expansions_all_pass():
    report = verify_lemma_expansions()
    assert report.ok, [c for c in report.checks if not c.ok]
    assert len(report.checks) == 26
    lemmas = {c.lemma for c in report.checks}
    assert lemmas == {"nonic-multiplicity", "pair-V2+V7", "pair-V6+V3"}


def test_nonic_case1_q_vanishes_on_parametrized_family():
    # The residual branch of the first multiplicity-6 case: with
    # a_i = binom(9-i, 2) c s^(7-i) (i <= 7) and a_8 = a_9 = 0 the sixth
    # self-transvectant vanishes identically, so q = x^6 is impossible there.
    from binforms.forms import transvectant

    R = PolynomialRing(("c", "s"))
    c, s = R.vars()
    from math import comb

    a = [c * s ** (7 - i) * comb(9 - i, 2) for i in range(8)] + [0, 0]
    f = BinaryForm.from_a_convention(9, a)
    assert transvectant(f, f, 6).is_zero()
