import random
from fractions import Fraction

import pytest

from binforms.catalog import catalog_for
from binforms.exprs import (
    expr_from_text,
    expr_meta,
    expr_to_text,
    ref,
    tr,
    F,
)
from binforms.forms import BinaryForm, transvectant
from binforms.rings import random_rational
from multipoly import PolynomialRing
from prime_field import PrimeField
from scalar_evaluator import Evaluator
from sl2_action import form_scale, monomial, random_form, random_sl2, scalar, sl2_act

GF = PrimeField(32003)


def test_supported_orders():
    for n in (2, 3, 6, 7, 9):
        assert catalog_for(n).n == n
    with pytest.raises(ValueError):
        catalog_for(5)


def test_declared_metadata_recomputed():
    # Catalog construction itself raises on mismatch; spot-check a few here.
    cat = catalog_for(9)
    memo = {}
    for name, want in [("j_4", (0, 4)), ("D_10", (0, 10)), ("j_60", (0, 60)), ("u", (14, 2))]:
        assert expr_meta(cat[name].expr, 9, cat.defs, memo) == want


def test_nonic_catalog_contents():
    cat = catalog_for(9)
    assert cat["j_4"].expr == tr(ref("l"), ref("l"), 2)
    d10 = cat["D_10"].expr
    assert expr_to_text(d10) == "(tr (tr (tr (tr @u @u 10) f 6) (tr @q f 2) 5) @q 6)"
    assert {e.name for e in cat.hsop()} == {"j_4", "B_8", "D_10", "j_12", "B_12", "j_14", "j_16"}
    assert hsop_degrees(9) == (4, 8, 10, 12, 12, 14, 16)


def hsop_degrees(n):
    return tuple(sorted(e.degree for e in catalog_for(n).hsop()))


def test_small_catalog_degrees():
    assert hsop_degrees(2) == (2,)
    assert hsop_degrees(3) == (4,)
    assert hsop_degrees(6) == (2, 4, 6, 10)
    assert hsop_degrees(7) == (4, 8, 12, 12, 20)


def test_j4_vanishes_on_monomial_form():
    cat = catalog_for(9)
    x9 = BinaryForm(9, [GF(c) for c in monomial(9, 0).coeffs])
    assert scalar(Evaluator(x9, cat.defs).eval(cat["j_4"].expr)) == 0


def test_r_orientation_agrees_both_ways():
    # (q, f)_6 and (f, q)_6 coincide because the index is even.
    cat = catalog_for(9)
    rng = random.Random(1)
    f = random_form(random_rational, 9, rng)
    q = transvectant(f, f, 6)
    assert transvectant(q, f, 6) == transvectant(f, q, 6)
    r_val = Evaluator(f, cat.defs).eval(cat["r"].expr)
    assert r_val == transvectant(f, q, 6)


def test_catalog_invariance_under_sl2():
    cat = catalog_for(9)
    rng = random.Random(2)
    names = [e.name for e in cat.invariants() if e.degree <= 12]
    for trial in range(20):
        f = random_form(GF.random, 9, rng)
        g = random_sl2(GF.random, rng)
        ev1 = Evaluator(f, cat.defs)
        ev2 = Evaluator(sl2_act(g, f), cat.defs)
        for name in names:
            assert scalar(ev1.eval(cat[name].expr)) == scalar(ev2.eval(cat[name].expr)), (trial, name)


def test_covariant_equivariance():
    cat = catalog_for(9)
    rng = random.Random(3)
    f = random_form(random_rational, 9, rng)
    g = random_sl2(random_rational, rng)
    for name in ("l", "q", "r", "p", "k_q"):
        ev1 = Evaluator(sl2_act(g, f), cat.defs)
        ev2 = Evaluator(f, cat.defs)
        assert ev1.eval(cat[name].expr) == sl2_act(g, ev2.eval(cat[name].expr)), name


def test_invariant_homogeneity():
    cat = catalog_for(9)
    rng = random.Random(4)
    f = random_form(random_rational, 9, rng)
    lam = Fraction(2, 3)
    for name in ("j_4", "B_8", "D_10", "j_12"):
        entry = cat[name]
        v1 = scalar(Evaluator(form_scale(lam, f), cat.defs).eval(entry.expr))
        v0 = scalar(Evaluator(f, cat.defs).eval(entry.expr))
        assert v1 == v0 * lam ** entry.degree, name


def test_invariant_weight_condition_symbolically():
    # Every monomial a_0^m0 ... a_n^mn of a degree-d invariant satisfies
    # sum m_i = d and sum i m_i = n d / 2 (small orders, raw coefficients).
    cases = [
        (2, catalog_for(2)["h_2"].expr, catalog_for(2).defs, 2),
        (3, catalog_for(3)["h_4"].expr, catalog_for(3).defs, 4),
        (4, tr(F, F, 4), {}, 2),
        (4, tr(tr(F, F, 2), F, 4), {}, 3),
    ]
    for n, expr, defs, degree in cases:
        R = PolynomialRing(tuple(f"a{i}" for i in range(n + 1)))
        f = BinaryForm(n, [R.var(f"a{i}") for i in range(n + 1)])
        value = scalar(Evaluator(f, defs).eval(expr))
        assert value
        for exps in value.terms:
            assert sum(exps) == degree
            assert sum(i * e for i, e in enumerate(exps)) == n * degree // 2


def test_text_round_trip_whole_catalog():
    for n in (2, 3, 6, 7, 9):
        cat = catalog_for(n)
        for entry in cat.entries.values():
            text = expr_to_text(entry.expr)
            assert expr_to_text(expr_from_text(text)) == text


def test_parse_errors():
    for bad in ("(tr f f)", "(pow f 0)", "@", "(foo f 2)", "f f", "(tr f f 2"):
        with pytest.raises(Exception):
            expr_from_text(bad)


def test_inline_refs_values_match():
    cat = catalog_for(9)
    rng = random.Random(5)
    f = random_form(GF.random, 9, rng)
    with_defs = Evaluator(f, cat.defs)
    closed = Evaluator(f)
    for name in ("j_4", "B_8", "j_16", "C_20"):
        assert scalar(closed.eval(cat.closed(name))) == scalar(with_defs.eval(cat[name].expr))


def test_evaluator_memoizes_shared_subtrees():
    cat = catalog_for(9)
    f = random_form(GF.random, 9, random.Random(6))
    ev = Evaluator(f, cat.defs)
    ev.eval(cat["j_4"].expr)
    l_value = ev._memo[cat["l"].expr]
    ev.eval(cat["B_12"].expr)  # also uses l via p
    assert ev._memo[cat["l"].expr] is l_value


def test_unresolvable_name_raises():
    f = random_form(GF.random, 9, random.Random(7))
    with pytest.raises(KeyError):
        Evaluator(f, {}).eval(ref("nope"))


def test_order_mismatch_raises():
    cat = catalog_for(9)
    f7 = random_form(GF.random, 7, random.Random(8))
    with pytest.raises(ValueError):
        Evaluator(f7, cat.defs).eval(cat["j_4"].expr)  # (f,f)_8 needs order >= 8
