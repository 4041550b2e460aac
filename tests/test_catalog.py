import random
from fractions import Fraction

import pytest

from binforms.catalog import catalog_for
from binforms.exprs import F, Pow, Tr, expr_from_text, expr_meta, expr_to_text
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
        assert expr_meta(cat[name].expr, 9, memo) == want


def test_nonic_catalog_contents():
    cat = catalog_for(9)
    l, q, u = Tr(F, F, 8), Tr(F, F, 6), Tr(F, F, 2)
    assert cat["j_4"].text == "(tr @l @l 2)"
    assert cat["j_4"].expr == Tr(l, l, 2)
    d10 = cat["D_10"]
    assert d10.text == "(tr (tr (tr (tr @u @u 10) f 6) (tr @q f 2) 5) @q 6)"
    assert d10.expr == Tr(Tr(Tr(Tr(u, u, 10), F, 6), Tr(q, F, 2), 5), q, 6)
    assert cat["B_8"].expr == Tr(q, Pow(Tr(q, F, 6), 2), 6)
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
    assert scalar(Evaluator(x9).eval(cat["j_4"].expr)) == 0


def test_r_orientation_agrees_both_ways():
    # (q, f)_6 and (f, q)_6 coincide because the index is even.
    cat = catalog_for(9)
    rng = random.Random(1)
    f = random_form(random_rational, 9, rng)
    q = transvectant(f, f, 6)
    assert transvectant(q, f, 6) == transvectant(f, q, 6)
    r_val = Evaluator(f).eval(cat["r"].expr)
    assert r_val == transvectant(f, q, 6)


def test_catalog_invariance_under_sl2():
    cat = catalog_for(9)
    rng = random.Random(2)
    names = [e.name for e in cat.invariants() if e.degree <= 12]
    for trial in range(20):
        f = random_form(GF.random, 9, rng)
        g = random_sl2(GF.random, rng)
        ev1 = Evaluator(f)
        ev2 = Evaluator(sl2_act(g, f))
        for name in names:
            assert scalar(ev1.eval(cat[name].expr)) == scalar(ev2.eval(cat[name].expr)), (trial, name)


def test_covariant_equivariance():
    cat = catalog_for(9)
    rng = random.Random(3)
    f = random_form(random_rational, 9, rng)
    g = random_sl2(random_rational, rng)
    for name in ("l", "q", "r", "p", "k_q"):
        ev1 = Evaluator(sl2_act(g, f))
        ev2 = Evaluator(f)
        assert ev1.eval(cat[name].expr) == sl2_act(g, ev2.eval(cat[name].expr)), name


def test_invariant_homogeneity():
    cat = catalog_for(9)
    rng = random.Random(4)
    f = random_form(random_rational, 9, rng)
    lam = Fraction(2, 3)
    for name in ("j_4", "B_8", "D_10", "j_12"):
        entry = cat[name]
        v1 = scalar(Evaluator(form_scale(lam, f)).eval(entry.expr))
        v0 = scalar(Evaluator(f).eval(entry.expr))
        assert v1 == v0 * lam ** entry.degree, name


def test_invariant_weight_condition_symbolically():
    # Every monomial a_0^m0 ... a_n^mn of a degree-d invariant satisfies
    # sum m_i = d and sum i m_i = n d / 2 (small orders, raw coefficients).
    cases = [
        (2, catalog_for(2)["h_2"].expr, 2),
        (3, catalog_for(3)["h_4"].expr, 4),
        (4, Tr(F, F, 4), 2),
        (4, Tr(Tr(F, F, 2), F, 4), 3),
    ]
    for n, expr, degree in cases:
        R = PolynomialRing(tuple(f"a{i}" for i in range(n + 1)))
        f = BinaryForm(n, [R.var(f"a{i}") for i in range(n + 1)])
        value = scalar(Evaluator(f).eval(expr))
        assert value
        for exps in value.terms:
            assert sum(exps) == degree
            assert sum(i * e for i, e in enumerate(exps)) == n * degree // 2


def test_text_round_trip_whole_catalog():
    # A closed expression prints without names and reads back with none.
    for n in (2, 3, 6, 7, 9):
        for entry in catalog_for(n).entries.values():
            assert expr_from_text(expr_to_text(entry.expr), {}) == entry.expr, (n, entry.name)


def test_parse_errors():
    for bad in ("(tr f f)", "(pow f 0)", "@", "(foo f 2)", "f f", "(tr f f 2"):
        with pytest.raises(ValueError):
            expr_from_text(bad, {})


def test_name_is_the_entry_node():
    # `@name` parses to the entry's own node, so shared subtrees stay shared.
    cat = catalog_for(9)
    assert expr_from_text("@l", cat.defs) is cat["l"].expr
    j4 = cat["j_4"].expr
    assert j4.left is cat["l"].expr and j4.right is cat["l"].expr
    e = expr_from_text("(tr (pow @p 2) @l 2)", cat.defs)
    assert e.left.child is cat["p"].expr and e.right is cat["l"].expr
    assert cat["p"].expr.right is cat["l"].expr


def test_evaluator_memoizes_shared_subtrees():
    cat = catalog_for(9)
    f = random_form(GF.random, 9, random.Random(6))
    ev = Evaluator(f)
    ev.eval(cat["j_4"].expr)
    l_value = ev._memo[cat["l"].expr]
    ev.eval(cat["B_12"].expr)  # also uses l via p
    assert ev._memo[cat["l"].expr] is l_value


def test_unresolvable_name_raises():
    for text, names, name in [("@l", {}, "l"), ("(tr @nope f 2)", catalog_for(9).defs, "nope")]:
        with pytest.raises(KeyError) as info:
            expr_from_text(text, names)
        assert info.value.args == (f"unresolvable name {name!r}",)


def test_order_mismatch_raises():
    cat = catalog_for(9)
    f7 = random_form(GF.random, 7, random.Random(8))
    with pytest.raises(ValueError):
        Evaluator(f7).eval(cat["j_4"].expr)  # (f,f)_8 needs order >= 8
