"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two long-budget checks
(the full degree-22 discovery row and the degree-36 ideal-membership rank)
are marked `extended` and skipped unless BINFORMS_EXTENDED=1 is set; both
complete well inside their budgets (minutes, not hours).
"""

import json
import os
import random
import time
from math import prod

import numpy as np
import pytest

from binforms.catalog import catalog_for
from binforms.cli import main
from binforms.exprs import Pow, Tr
from binforms.forms import BinaryForm, transvectant
from binforms.modlinalg import rank
from binforms.nullcone import nullform_report, random_nullform
from binforms.pipeline import (
    PointEvaluations,
    jacobian_rank,
)
from binforms.rings import random_rational
from binforms.series import (
    ecriture_minimale_search,
    invariant_dimension,
    poincare_series,
    to_rational,
)
from lowering_operator import dimension_by_lowering_operator
from prime_field import PrimeField
from scalar_evaluator import Evaluator
from sl2_action import form_scale, form_sum, random_form, random_sl2, scalar, sl2_act

EXTENDED = os.environ.get("BINFORMS_EXTENDED") == "1"
P = 32003

# Every printed coefficient of the nonic Poincare series through degree 66.
P_SERIES = {
    0: 1, 4: 2, 8: 8, 10: 5, 12: 28, 14: 27, 16: 84, 18: 99, 20: 217,
    22: 273, 24: 506, 26: 647, 28: 1066, 30: 1367, 32: 2082, 34: 2649,
    36: 3811, 38: 4796, 40: 6612, 42: 8228, 44: 10960, 46: 13483,
    48: 17487, 50: 21274, 52: 26979, 54: 32490, 56: 40443, 58: 48242,
    60: 59107, 62: 69885, 64: 84470, 66: 99074,
}

# All 30 printed numerator coefficients for degrees (4, 8, 10, 12, 12, 14, 16).
A_SERIES = {
    0: 1, 4: 1, 8: 5, 10: 4, 12: 17, 14: 20, 16: 47, 18: 61, 20: 97,
    22: 120, 24: 165, 26: 189, 28: 223, 30: 241, 32: 254, 34: 254,
    36: 241, 38: 223, 40: 189, 42: 165, 44: 120, 46: 97, 48: 61,
    50: 47, 52: 20, 54: 17, 56: 4, 58: 5, 62: 1, 66: 1,
}

D_TABLE = {4: 2, 8: 5, 10: 5, 12: 14, 14: 17, 16: 21, 18: 25, 20: 2, 22: 1}


def conclude(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.1f} s, budget {budget:.0f} s)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_poincare_series(capsys):
    t0 = time.time()
    code = main(["poincare", "--n", "9", "--max-degree", "66", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    dims = json.loads(out)["dims"]
    for d in range(67):
        assert dims[str(d)] == P_SERIES.get(d, 0), d
    with capsys.disabled():
        conclude(1, "nonic series matches all printed coefficients", t0, 10)


def test_criterion_02_numerator(capsys):
    t0 = time.time()
    table = poincare_series(9, 92)
    rat = to_rational(table, (4, 8, 10, 12, 12, 14, 16))
    assert rat is not None and rat.numerator_degree == 66
    for d in range(67):
        assert rat.numerator[d] == A_SERIES.get(d, 0), d
    assert all(rat.numerator[i] == rat.numerator[66 - i] for i in range(67))
    with capsys.disabled():
        conclude(2, "numerator matches the 30 printed coefficients; palindrome", t0, 5)


def test_criterion_03_ecritures(capsys):
    t0 = time.time()
    code = main(["ecriture", "--n", "9", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    rows = payload["rows"]
    got = {(tuple(r["degrees"]), r["numerator_degree"]) for r in rows}
    assert got == {
        ((4, 8, 10, 12, 12, 14, 16), 66),
        ((4, 4, 10, 12, 14, 16, 24), 74),
        ((4, 4, 8, 12, 14, 16, 30), 78),
        ((4, 4, 8, 10, 12, 16, 42), 86),
        ((4, 4, 8, 10, 12, 14, 48), 90),
    }
    assert all(prod(r["degrees"]) == 10321920 for r in rows)
    septic = {r.degrees for r in ecriture_minimale_search(7)}
    assert (4, 8, 12, 12, 20) in septic and (4, 8, 8, 12, 30) in septic
    with capsys.disabled():
        conclude(3, "five nonic rows and both septic rows reproduced", t0, 120)


def test_criterion_04_lemma_expansions(capsys):
    t0 = time.time()
    code = main(["verify-lemmas", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["ok"]
    assert len(payload["checks"]) == 26
    assert all(c["ok"] for c in payload["checks"])
    # the exact constants live in specific transcription labels
    for fragment in ("-4/245", "2/735", "-2/147", "1/495", "-1/540", "-8/729", "1/84", "1/15"):
        assert any(fragment in c["label"] for c in payload["checks"]), fragment
    with capsys.disabled():
        conclude(4, "all lemma transcriptions pass, exact constants included", t0, 60)


def test_criterion_05_dm_quick(capsys):
    t0 = time.time()
    code = main(["basis", "--n", "9", "--max-degree", "14", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["d"] == {"4": 2, "8": 5, "10": 5, "12": 14, "14": 17}
    assert all(ev["degree"] != 6 or ev["d"] == 0 for ev in payload["evidence"])
    with capsys.disabled():
        conclude(5, "d_m through degree 14 matches the published row", t0, 600)


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set BINFORMS_EXTENDED=1 to run")
def test_criterion_05_dm_extended(capsys):
    t0 = time.time()
    code = main(["basis", "--n", "9", "--max-degree", "22", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["d"] == {str(m): d for m, d in D_TABLE.items()}
    assert payload["total"] == 92
    with capsys.disabled():
        conclude(5, "extended: full d_m row and 92 generators", t0, 4 * 3600)


def test_criterion_06_degree8_and_10_spans(capsys):
    t0 = time.time()
    cat = catalog_for(9)
    j4, a4 = cat["j_4"].expr, cat["A_4"].expr
    deg8 = [
        cat["j_8"].expr, cat["A_8"].expr, cat["B_8"].expr,
        cat["C_8"].expr, cat["D_8"].expr,
        Pow(j4, 2), Pow(a4, 2), Tr(a4, j4, 0),
    ]
    pe8 = PointEvaluations(9, P, 1, 14, "acc8")
    assert rank(np.vstack([pe8.vector(e) for e in deg8]), P) == 8
    deg10 = [cat[n].expr for n in ("j_10", "A_10", "B_10", "C_10", "D_10")]
    pe10 = PointEvaluations(9, P, 1, 11, "acc10")
    assert rank(np.vstack([pe10.vector(e) for e in deg10]), P) == 5
    with capsys.disabled():
        conclude(6, "degree-8 set has rank 8 and degree-10 set rank 5", t0, 30)


def test_criterion_07_hsop_certification(capsys):
    t0 = time.time()
    code = main([
        "hsop", "check", "--n", "9", "--set", "thm",
        "--membership-degrees", "4,8,12", "--trials", "100", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "certified-at-sampling-level"
    assert max(payload["jacobian_ranks"]) == 7
    assert payload["nullform_vanishing"] == "100/100"
    by_degree = {m["degree"]: m for m in payload["membership"]}
    for i, a_i in ((4, 1), (8, 5), (12, 17)):
        entry = by_degree[i]
        assert entry["a_coefficient"] == a_i
        assert entry["rank"] == entry["dim"] - a_i
        assert entry["consistent"]
    with capsys.disabled():
        conclude(7, "flagged parameter system certified; membership consistent at 4, 8, 12", t0, 900)


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set BINFORMS_EXTENDED=1 to run")
def test_criterion_07_membership_extended(capsys):
    t0 = time.time()
    code = main([
        "hsop", "membership", "--n", "9", "--set", "hprime",
        "--degrees", "36", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    entry = payload["membership"][0]
    assert entry["degree"] == 36
    assert entry["dim"] == 3811
    assert entry["rank"] == 3811
    assert entry["certifies_containment"]
    assert (entry["rows_used"], entry["points"]) == (16276, 4002)
    with capsys.disabled():
        conclude(7, "extended: I_36 inside H' at rank 3811", t0, 4 * 3600)


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set BINFORMS_EXTENDED=1 to run")
def test_criterion_07_membership_below_dim_extended(capsys):
    # The rank stays below dim, so the echelon takes every row in many
    # chunks and never stops early.  Neither the exit code nor the verdict
    # fields are pinned: both say only that no expected value exists.
    t0 = time.time()
    main(["hsop", "membership", "--n", "9", "--set", "hprime", "--degrees", "30", "--json"])
    entry = json.loads(capsys.readouterr().out)["membership"][0]
    assert (entry["degree"], entry["rank"], entry["dim"]) == (30, 1315, 1367)
    assert (entry["rows_used"], entry["points"]) == (3059, 1436)
    with capsys.disabled():
        conclude(7, "extended: I_30 membership rank 1315 of dim 1367", t0, 4 * 3600)


def test_criterion_08_dimension_oracle(capsys):
    t0 = time.time()
    for n in range(1, 7):
        for d in range(0, 11):
            assert invariant_dimension(n, d) == dimension_by_lowering_operator(n, d), (n, d)
    for n in range(1, 9):
        for d in range(1, 9):
            assert invariant_dimension(n, d) == invariant_dimension(d, n), (n, d)
    with capsys.disabled():
        conclude(8, "lowering-operator oracle agreement and Hermite reciprocity", t0, 120)


def test_criterion_09_property_suites(capsys):
    t0 = time.time()
    rng = random.Random(99)
    # transvectant antisymmetry and bilinearity over the rationals
    g, h = random_form(random_rational, 6, rng), random_form(random_rational, 4, rng)
    for k in range(5):
        assert transvectant(g, h, k) == (
            transvectant(h, g, k) if k % 2 == 0 else form_scale(-1, transvectant(h, g, k))
        )
    g2 = random_form(random_rational, 6, rng)
    lhs = transvectant(form_sum(g, g2), h, 2)
    assert lhs == form_sum(transvectant(g, h, 2), transvectant(g2, h, 2))
    # equivariance of catalog covariants
    cat = catalog_for(9)
    f = random_form(random_rational, 9, rng)
    s = random_sl2(random_rational, rng)
    for name in ("l", "q", "r", "p"):
        left = Evaluator(sl2_act(s, f)).eval(cat[name].expr)
        right = sl2_act(s, Evaluator(f).eval(cat[name].expr))
        assert left == right, name
    # invariance of catalog invariants under 20 random determinant-1 matrices
    gf = PrimeField(P)
    names = [e.name for e in cat.invariants() if e.degree <= 16]
    for _ in range(20):
        fp = random_form(gf.random, 9, rng)
        sp = random_sl2(gf.random, rng)
        ev1, ev2 = Evaluator(fp), Evaluator(sl2_act(sp, fp))
        for name in names:
            assert scalar(ev1.eval(cat[name].expr)) == scalar(ev2.eval(cat[name].expr)), name
    # nullform invariance under the group action
    for seed in range(10):
        nf = BinaryForm(9, random_nullform(9, seed))
        assert nullform_report(sl2_act(random_sl2(random_rational, rng), nf)).is_nullform
    with capsys.disabled():
        conclude(9, "antisymmetry, equivariance, invariance, nullcone", t0, 600)


def test_criterion_10_small_order_parameter_systems(capsys):
    t0 = time.time()
    # For n >= 3 Hilbert's count makes the expected Jacobian rank n - 2; the
    # n = 2 catalog system is a single invariant (rank 1, Krull dimension 1).
    for n in (2, 3, 6, 7):
        cat = catalog_for(n)
        hsop = cat.hsop()
        assert len(hsop) == max(n - 2, 1)
        exprs = [e.expr for e in hsop]
        for seed in range(50):
            ev = Evaluator(BinaryForm(n, random_nullform(n, seed)))
            for e, entry in zip(exprs, hsop):
                assert scalar(ev.eval(e)) == 0, (n, seed, entry.name)
        rng = random.Random(f"acc10:{n}")
        ranks = jacobian_rank(
            exprs, [[rng.randrange(P) for _ in range(n + 1)] for _ in range(5)], n, P
        )
        assert max(ranks) == len(hsop), (n, ranks)
    with capsys.disabled():
        conclude(10, "small-order systems vanish on nullforms; full Jacobian rank", t0, 300)
