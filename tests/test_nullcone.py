import random
from fractions import Fraction

from binforms.catalog import catalog_for
from binforms.exprs import Evaluator
from binforms.forms import BinaryForm, random_sl2
from binforms.nullcone import (
    is_nullform,
    random_nullform,
    root_multiplicity_max,
    verify_lemma_expansions,
)
from binforms.rings import QQ, PrimeField
from sl2_action import random_form, sl2_act


def lin(a, b):
    return BinaryForm(QQ, 1, (Fraction(a), Fraction(b)))


def test_constructed_multiplicities():
    f = lin(1, -2).power(7) * lin(1, 1).power(2)
    assert root_multiplicity_max(f).max_multiplicity == 7
    rep = root_multiplicity_max(BinaryForm.monomial(QQ, 0, 9))
    assert rep.max_multiplicity == 9 and rep.witness == "point at infinity"


def test_distinct_roots_give_multiplicity_one():
    rng = random.Random(1)
    for _ in range(5):
        roots = rng.sample(range(-40, 40), 9)
        f = lin(1, -roots[0])
        for r in roots[1:]:
            f = f * lin(1, -r)
        assert root_multiplicity_max(f).max_multiplicity == 1


def test_zero_form_sentinel():
    rep = root_multiplicity_max(BinaryForm.zero(QQ, 9))
    assert rep.is_zero_form and rep.max_multiplicity == 10
    assert is_nullform(BinaryForm.zero(QQ, 9))


def test_nullform_threshold():
    assert is_nullform(BinaryForm.monomial(QQ, 5, 4))  # mult 5 > 4.5
    f = BinaryForm.monomial(QQ, 4, 4) * lin(1, 1)
    assert not is_nullform(f)  # max mult 4 <= 4.5


def test_multiplicity_is_sl2_invariant():
    rng = random.Random(2)
    for seed in range(5):
        f = lin(1, -3).power(6) * random_form(QQ, 3, rng)
        if f.is_zero():
            continue
        g = random_sl2(QQ, rng)
        assert (
            root_multiplicity_max(sl2_act(g, f)).max_multiplicity
            == root_multiplicity_max(f).max_multiplicity
        )


def test_nullform_invariance_under_sl2():
    rng = random.Random(3)
    base = BinaryForm.monomial(QQ, 6, 3)  # x^6 y^3, mult 6 > 4.5
    for _ in range(5):
        g = random_sl2(QQ, rng)
        assert is_nullform(sl2_act(g, base))


def test_random_nullform_is_deterministic_and_null():
    for seed in range(10):
        f1 = random_nullform(9, QQ, seed)
        f2 = random_nullform(9, QQ, seed)
        assert f1 == f2
        assert is_nullform(f1)


def _nullform_by_sl2_act(n, ring, seed):
    """The reference construction: the same draws, acted on by sl2_act."""
    rng = random.Random(f"nullform:{seed}:{n}")
    k = n // 2 + 1
    while True:
        rest = [ring.random(rng) for _ in range(n - k + 1)]
        if not all(ring.is_zero(c) for c in rest):
            break
    base = BinaryForm.monomial(ring, k, 0) * BinaryForm(ring, n - k, rest)
    return sl2_act(random_sl2(ring, rng), base)


def test_random_nullform_equals_sl2_act_image():
    for ring in (QQ, PrimeField(32003), PrimeField(7)):
        for n in range(1, 13):
            for seed in range(100):
                got = random_nullform(n, ring, seed)
                assert got.order == n
                assert got.coeffs == _nullform_by_sl2_act(n, ring, seed).coeffs, (ring, n, seed)


def test_all_low_degree_invariants_vanish_on_nullforms_mod_p():
    gf = PrimeField(32003)
    cat = catalog_for(9)
    names = [e.name for e in cat.invariants() if e.degree <= 12]
    assert len(names) >= 17
    for seed in range(50):
        nf = random_nullform(9, gf, seed)
        ev = Evaluator(nf, cat.defs)
        for name in names:
            assert ev.eval(cat[name].expr).scalar() == 0, (seed, name)


def test_invariants_vanish_exactly_over_rationals():
    for n in (6, 9):
        cat = catalog_for(n)
        invariants = [e for e in cat.invariants()]
        for seed in range(25):
            nf = random_nullform(n, QQ, seed)
            ev = Evaluator(nf, cat.defs)
            for e in invariants:
                assert ev.eval(e.expr).scalar() == 0, (n, seed, e.name)


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
    from binforms.multipoly import PolynomialRing

    R = PolynomialRing(("c", "s"))
    c, s = R.vars()
    from math import comb

    a = [c * s ** (7 - i) * comb(9 - i, 2) for i in range(8)] + [R.zero, R.zero]
    f = BinaryForm.from_a_convention(R, 9, a)
    assert transvectant(f, f, 6).is_zero()
