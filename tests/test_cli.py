import argparse
import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from binforms import cli
from binforms.cli import build_parser, main, parse_form_literal
from binforms.pipeline import HsopReport, MembershipResult

# Stdout and exit code of command lines in every format they offer.  The
# first six, the commands that evaluate one form at a time, were recorded
# from the derivative-sum transvectant that the weight table replaced; the
# rest from the per-command renderers that the one output writer replaced.
# A change here is a change of output.  The two `nullcone test` text entries
# were re-pinned once, when that text went from the payload's Python repr to
# one `key: value` line per field.  The next fourteen, the small-order
# catalogs and one `eval` through a catalog name per small order, were
# recorded before the catalogs became tables of expression texts.  The next
# two, `hsop check --json` refuted by the count and unsampled, were recorded
# before `HsopReport` became the payload that command prints.  The next, a
# count-refuted `hsop check --json` with membership degrees, was recorded
# when the command discovered the membership basis before the count check.
# The last two, an `hsop membership --json` whose degrees need no basis and
# an `hsop check --json` with one membership degree, were recorded before
# the hsop candidates became `BasisRecord`s.
SCALAR_PATH = json.loads((Path(__file__).parent / "data" / "scalar_path.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poincare_json_ends_at_requested_degree(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--n", "9", "--max-degree", "20", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"]["20"] == 217
    assert payload["dims"]["4"] == 2
    assert list(payload["dims"])[-1] == "20"


def test_poincare_csv(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--n", "3", "--max-degree", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dim"
    assert lines[-1] == "8,1"


def test_ecriture_five_rows(capsys):
    code, out, _ = run_cli(capsys, "ecriture", "--n", "9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 5
    assert sorted(r["numerator_degree"] for r in payload["rows"]) == [66, 74, 78, 86, 90]


# n = 6 needs its degree bounds read from the sextic's degree-2 invariant.
ECRITURE_TEXT = {
    3: """minimal ecritures for order 3 (product 4):
  numerator degree 0: denominator degrees (4,)
""",
    6: """minimal ecritures for order 6 (product 480):
  numerator degree 15: denominator degrees (2, 4, 6, 10)
""",
    7: """minimal ecritures for order 7 (product 92160):
  numerator degree 48: denominator degrees (4, 8, 12, 12, 20)
  numerator degree 54: denominator degrees (4, 8, 8, 12, 30)
""",
    9: """minimal ecritures for order 9 (product 10321920):
  numerator degree 66: denominator degrees (4, 8, 10, 12, 12, 14, 16)
  numerator degree 74: denominator degrees (4, 4, 10, 12, 14, 16, 24)
  numerator degree 78: denominator degrees (4, 4, 8, 12, 14, 16, 30)
  numerator degree 86: denominator degrees (4, 4, 8, 10, 12, 16, 42)
  numerator degree 90: denominator degrees (4, 4, 8, 10, 12, 14, 48)
""",
    10: """minimal ecritures for order 10 (product 2903040):
  numerator degree 48: denominator degrees (2, 4, 6, 6, 8, 9, 10, 14)
""",
}


@pytest.mark.parametrize("n", sorted(ECRITURE_TEXT))
def test_ecriture_text_for_every_seeded_order(capsys, n):
    assert run_cli(capsys, "ecriture", "--n", str(n)) == (0, ECRITURE_TEXT[n], "")


@pytest.mark.parametrize("n", [4, 5, 8])
def test_ecriture_without_a_seed_names_the_seeded_orders(capsys, n):
    code, out, err = run_cli(capsys, "ecriture", "--n", str(n))
    assert (code, out) == (2, "")
    assert err == (
        "error: ecriture has a built-in seed degree sequence only for "
        f"n = 3, 6, 7, 9, 10; got n = {n}\n"
    )


# sha256 of `ecriture --json` for every seeded order.  The nonic digest was
# recorded before the exact division became prefix sums, the others before
# the ecriture rows became `PoincareRational`s.  They pin every numerator
# coefficient, which the text pins above do not.
ECRITURE_JSON_SHA256 = {
    3: "38f9d5c6a0394fc9b619b79db4cec7933370cbfaa49db7419abfb9f27fa75464",
    6: "dc89acf8fae91fcce96790c93813c15c4f5c1190cb602659f996fbb933e0378a",
    7: "4804b87acb8ed80a5cfb4edcc46f1e1dde75192b6079dec8dddd8ef152afaa1c",
    9: "77be46d9ef255759e162ddb27765819686431a520b4dde2b7e89f30f19bc075b",
    10: "d868295827bb69c8710609baee5b543be473475a34df3db8def064af9e0e814d",
}


@pytest.mark.parametrize("n", sorted(ECRITURE_JSON_SHA256))
def test_ecriture_json_is_pinned(capsys, n):
    code, out, _ = run_cli(capsys, "ecriture", "--n", str(n), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ECRITURE_JSON_SHA256[n]


def test_byte_identical_reruns(capsys):
    argv = ("ecriture", "--n", "7", "--json")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2

    argv = ("basis", "--n", "9", "--max-degree", "8", "--seed", "3", "--json")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_nullcone_test_json(capsys):
    code, out, _ = run_cli(
        capsys, "nullcone", "test", "--n", "9",
        "--form", "9: 0,0,0,0,1,0,0,0,0,0", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "multiplicity": 5,
        "is_nullform": True,
        "witness": payload["witness"],
    }


def test_nullcone_zero_form(capsys):
    code, out, _ = run_cli(
        capsys, "nullcone", "test", "--n", "2", "--form", "2: 0,0,0", "--json"
    )
    assert code == 0
    assert json.loads(out)["is_nullform"] is True


def test_verify_lemmas_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas")
    assert code == 0
    assert "26/26 checks passed" in out
    code, out, _ = run_cli(capsys, "verify-lemmas", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def _command_tree(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {name: _command_tree(sub) for name, sub in action.choices.items()}
    return None


def test_command_line_surface_is_pinned(capsys):
    assert _command_tree(build_parser()) == {
        "poincare": None,
        "ecriture": None,
        "nullcone": {"test": None},
        "verify-lemmas": None,
        "catalog": None,
        "eval": None,
        "basis": None,
        "hsop": {"check": None, "membership": None},
    }
    # verify-lemmas exists once, at top level
    with pytest.raises(SystemExit) as exc:
        main(["nullcone", "verify-lemmas"])
    assert exc.value.code == 2
    assert "invalid choice: 'verify-lemmas'" in capsys.readouterr().err


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--n", "9", "--json")
    payload = json.loads(out)
    assert code == 0
    names = {e["name"] for e in payload["entries"]}
    assert {"j_4", "D_10", "j_60", "m_qp"} <= names
    hsop = [e["name"] for e in payload["entries"] if e["hsop"]]
    assert sorted(hsop) == ["B_12", "B_8", "D_10", "j_12", "j_14", "j_16", "j_4"]


def test_eval_invariant_on_nullform(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--n", "9", "--expr", "@j_4",
        "--form", "9: 0,0,0,0,126,0,0,0,0,0",
    )
    assert code == 0
    assert out.strip() == "0"


def test_eval_round_trips_value(capsys):
    # (f, f)_0 = f^2 on a tiny explicit quadratic over the rationals
    code, out, _ = run_cli(
        capsys, "eval", "--n", "2", "--expr", "(tr f f 0)", "--form", "2: 1,0,1"
    )
    assert code == 0
    assert out.strip() == "4: 1,0,2,0,1"


def test_eval_a_convention(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--n", "2", "--expr", "f", "--form", "2: 1,1,1",
        "--a-convention",
    )
    assert code == 0
    assert out.strip() == "2: 1,2,1"


def test_eval_mod_p(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--n", "2", "--expr", "(tr f f 2)",
        "--form", "2: 1,0,1", "--prime", "32003",
    )
    assert code == 0
    # (f,f)_2 of x^2 + y^2: discriminant-like scalar, nonzero mod p
    assert out.strip() != "0"


def test_eval_prime_beyond_the_int64_bound_and_prime_dividing_a_prefactor(capsys):
    # eval runs on the exact batch whatever the prime: 2^61 - 1 is beyond the
    # bound of the int64 kernel, and a prime dividing a transvectant's
    # prefactor is refused at that node, before anything is evaluated.
    from binforms.batch import check_int64

    argv = ("eval", "--n", "9", "--expr", "@j_4", "--form", "9: 1,2,3,4,5,6,7,8,9,10")
    with pytest.raises(ValueError, match="int64"):
        check_int64(9, 9, 2**61 - 1)
    assert run_cli(capsys, *argv, "--prime", str(2**61 - 1)) == (0, "1560273547092863901\n", "")
    assert run_cli(capsys, *argv, "--prime", "7") == (
        2, "", "error: denominator 131681894400 is divisible by p=7\n",
    )


def test_basis_quick_json(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--n", "9", "--max-degree", "10", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == {"4": 2, "8": 5, "10": 5}
    assert payload["total"] == 12


def test_septimic_basis_json_is_pinned(capsys):
    # At degrees 24 and 28 the products outnumber dim (74 > 62, 135 > 97)
    # and span I_m, so the echelon stops drawing them at rank dim while
    # `products` still reports every product.
    code, out, _ = run_cli(capsys, "basis", "--n", "7", "--max-degree", "30", "--json")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "basis_n7_max30_seed1.json").read_text()


def test_basis_csv_row_order(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--n", "9", "--max-degree", "10", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["m,d_m", "4,2", "8,5", "10,5"]


def test_cubic_basis_finds_the_discriminant(capsys):
    # The cubic's numerator degree is 0; its one generator is the degree-4
    # primary, so the campaign must run past the numerator degree.
    code, out, _ = run_cli(capsys, "basis", "--n", "3", "--max-degree", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["d"], payload["total"]) == ({"4": 1}, 1)


def test_hsop_check_quick(capsys):
    code, out, _ = run_cli(
        capsys, "hsop", "check", "--n", "9", "--set", "thm",
        "--trials", "10", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "certified-at-sampling-level"
    assert payload["nullform_vanishing"] == "10/10"


def test_hsop_check_refuted_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "hsop", "check", "--n", "9",
        "--set", "j_4,B_8,D_10,j_12,B_12,j_14", "--trials", "2", "--json",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "refuted"


def test_size_refuted_hsop_check_prints_its_golden_without_any_work(capsys, monkeypatch):
    # The count alone refutes the set, so neither the membership basis nor
    # the Jacobian is computed, however high --membership-degrees reaches.
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a set its size refutes")

    # Work started would surface as an unexpected crash (exit 3).
    for site in ("pipeline.find_basic_invariants", "pipeline.jacobian_rank"):
        monkeypatch.setattr(f"binforms.{site}", no_work)
    argv = ["hsop", "check", "--n", "9", "--set", "j_4,B_8,D_10,j_12,B_12,j_14",
            "--trials", "2", "--membership-degrees", "24", "--json"]
    (case,) = [case for case in SCALAR_PATH if case["argv"] == argv]
    assert run_cli(capsys, *argv) == (case["exit"], case["stdout"], "")


def test_size_refuted_hsop_check_is_refuted_where_discovery_is_inconclusive(capsys):
    # The septimic campaign of seed 2 stops inconclusive at degree 30, which
    # --membership-degrees 34 would need; a set its size refutes never runs it.
    code, out, err = run_cli(
        capsys, "hsop", "check", "--n", "7", "--set", "h_4,h_8", "--seed", "2",
        "--trials", "2", "--membership-degrees", "34",
    )
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "verdict: refuted", "  jacobian_ranks: []", "  nullform_vanishing: None",
        "  generic_all_vanish: None", "  ! expected 5 invariants, got 2",
    ]


def test_hsop_check_and_membership_print_the_same_membership_rows(capsys):
    code, check, _ = run_cli(
        capsys, "hsop", "check", "--n", "9", "--set", "thm",
        "--membership-degrees", "4,8,12", "--json",
    )
    assert code == 0
    code, membership, _ = run_cli(
        capsys, "hsop", "membership", "--n", "9", "--set", "thm", "--degrees", "4,8,12", "--json",
    )
    assert code == 0
    rows = json.loads(check)["membership"]
    assert [row["degree"] for row in rows] == [4, 8, 12]
    assert rows == json.loads(membership)["membership"]


def test_hsop_check_reports_degree_filters_up_to_the_order(capsys):
    code, out, _ = run_cli(
        capsys, "hsop", "check", "--n", "9",
        "--set", "j_4,A_4,j_4,A_4,j_4,A_4,j_4", "--trials", "2", "--json",
    )
    assert code == 1
    reasons = [r for r in json.loads(out)["reasons"] if r.startswith("degree filter")]
    assert reasons == [
        f"degree filter t={t}: need {need} degrees divisible by {2 * t}, found 0"
        for t, need in ((3, 2), (4, 2), (5, 1), (6, 1), (7, 1), (8, 1))
    ]


def test_hsop_check_without_nullform_trials_is_inconclusive(capsys):
    code, out, _ = run_cli(
        capsys, "hsop", "check", "--n", "9", "--set", "thm", "--trials", "0", "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "inconclusive"
    assert payload["nullform_vanishing"] == "0/0"
    assert any("not sampled" in r for r in payload["reasons"])


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poincare"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # domain errors are usage-grade too
    code, _, err = run_cli(capsys, "catalog", "--n", "5")
    assert code == 2 and "no catalog" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "--n", "9", "--max-degree", "12", "--json"),
        ("hsop", "check", "--n", "9", "--set", "thm", "--membership-degrees", "4,8,12", "--json"),
        ("hsop", "membership", "--n", "9", "--set", "thm", "--degrees", "8", "--json"),
    ],
)
@pytest.mark.parametrize(
    "prime, reason",
    [("32004", "not an odd prime"), ("3037000493", "too large for exact ranks")],
)
def test_bad_prime_rejected_before_any_work(capsys, monkeypatch, argv, prime, reason):
    def no_points(*args, **kwargs):
        raise AssertionError("a point set was built before the prime was checked")

    # A point set built first would surface as an unexpected crash (exit 3).
    monkeypatch.setattr("binforms.pipeline.PointEvaluations", no_points)
    code, out, err = run_cli(capsys, *argv, "--prime", prime)
    assert code == 2
    assert out == ""
    assert reason in err


@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "--n", "9", "--max-degree", "12"),
        ("hsop", "check", "--n", "9", "--set", "thm", "--membership-degrees", "4,8,12"),
        ("hsop", "membership", "--n", "9", "--set", "thm", "--degrees", "8"),
    ],
)
def test_negative_points_margin_rejected_before_any_work(capsys, monkeypatch, argv):
    def no_points(*args, **kwargs):
        raise AssertionError("a point set was built before the margin was checked")

    monkeypatch.setattr("binforms.pipeline.PointEvaluations", no_points)
    code, out, err = run_cli(capsys, *argv, "--points-margin", "-1")
    assert code == 2
    assert out == ""
    assert "--points-margin must be >= 0, got -1" in err


def test_membership_below_the_smallest_set_degree(capsys):
    # Degrees below deg j_4 = 4 have no membership rows and need no basis.
    code, out, err = run_cli(
        capsys, "hsop", "membership", "--n", "9", "--set", "thm", "--degrees", "2"
    )
    assert (code, err) == (0, "")
    assert out.startswith("degree 2: dim 0, rank 0 -> contained")
    code, out, _ = run_cli(
        capsys, "hsop", "membership", "--n", "9", "--set", "thm", "--degrees", "0", "--json"
    )
    assert code == 0
    (m,) = json.loads(out)["membership"]
    assert (m["dim"], m["expected_ideal_dim"], m["consistent"]) == (1, 0, True)
    code, out, _ = run_cli(
        capsys, "hsop", "check", "--n", "9", "--set", "thm", "--trials", "5",
        "--membership-degrees", "2,3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "certified-at-sampling-level"
    assert [m["consistent"] for m in payload["membership"]] == [True, True]


@pytest.mark.parametrize(
    "argv, option, bad",
    [
        (("hsop", "membership", "--degrees", "-2"), "--degrees", "'-2'"),
        (("hsop", "check", "--membership-degrees=-3"), "--membership-degrees", "'-3'"),
        (("hsop", "membership", "--degrees", "x"), "--degrees", "'x'"),
    ],
)
def test_bad_membership_degrees_rejected_by_option_name(capsys, monkeypatch, argv, option, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the degrees were checked")

    # Work started first would surface as an unexpected crash (exit 3).
    for name in ("_named_set", "open_cache"):
        monkeypatch.setattr(f"binforms.cli.{name}", no_work)
    monkeypatch.setattr("binforms.cli.PipelineConfig.validate", no_work)
    code, out, err = run_cli(capsys, *argv, "--n", "9", "--set", "thm")
    assert (code, out) == (2, "")
    assert err == f"error: {option} takes degrees >= 0, got {bad}\n"


@pytest.mark.parametrize("selector", [",", " ", ""])
@pytest.mark.parametrize(
    "argv",
    [
        ("hsop", "check"),
        ("hsop", "check", "--membership-degrees", "8"),
        ("hsop", "membership", "--degrees", "8"),
    ],
)
def test_empty_set_is_a_usage_error_before_any_work(capsys, monkeypatch, argv, selector):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --set was checked")

    # Work started first would surface as an unexpected crash (exit 3).
    for name in ("membership_basis", "certify_hsop", "ideal_membership_dim"):
        monkeypatch.setattr(f"binforms.cli.{name}", no_work)
    code, out, err = run_cli(capsys, *argv, "--n", "9", "--set", selector)
    assert (code, out) == (2, "")
    assert err == f"error: --set names no invariant, got {selector!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "--max-degree", "4"),
        ("hsop", "check", "--membership-degrees", "4,8"),
        ("hsop", "membership", "--degrees", "8"),
    ],
)
def test_cache_dir_that_is_a_file_is_rejected_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --cache-dir was checked")

    # `--set` is resolved before the cache opens (see the next test); only
    # the computations count as work here.
    for name in ("find_basic_invariants", "membership_basis", "certify_hsop",
                 "ideal_membership_dim"):
        monkeypatch.setattr(f"binforms.cli.{name}", no_work)
    path = tmp_path / "a-file"
    path.write_text("kept\n")
    code, out, err = run_cli(capsys, *argv, "--n", "9", "--cache-dir", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --cache-dir {str(path)!r} is not a usable directory")
    assert err.count("\n") == 1
    assert path.read_text() == "kept\n"


BASIS = ("basis", "--n", "9", "--max-degree", "12")
CHECK = ("hsop", "check", "--n", "9", "--set", "thm", "--trials", "2")
CHECK_AT = CHECK + ("--membership-degrees", "4,8,12")
MEMBERSHIP = ("hsop", "membership", "--n", "9", "--set", "thm", "--degrees", "8")


# Every site a "before any work" test in this file patches to raise, with
# valid command lines of the commands that test runs: a spy that valid input
# never reaches would pass whatever the order of the checks.  The degree
# filter's spy has its control in its own test.
@pytest.mark.parametrize(
    "site, argv",
    [
        ("pipeline.PointEvaluations", BASIS),
        ("pipeline.PointEvaluations", CHECK_AT),
        ("pipeline.PointEvaluations", MEMBERSHIP),
        ("pipeline.find_basic_invariants", CHECK_AT),
        ("pipeline.jacobian_rank", CHECK_AT),
        ("cli._named_set", CHECK),
        ("cli._named_set", MEMBERSHIP),
        ("cli.open_cache", CHECK),
        ("cli.open_cache", MEMBERSHIP),
        ("cli.PipelineConfig.validate", CHECK),
        ("cli.PipelineConfig.validate", MEMBERSHIP),
        ("cli.find_basic_invariants", BASIS),
        ("cli.membership_basis", MEMBERSHIP),
        ("cli.ideal_membership_dim", MEMBERSHIP),
        ("cli.certify_hsop", CHECK),
        ("cli.certify_hsop", CHECK_AT),
    ],
)
def test_every_before_any_work_spy_fires_on_valid_input(capsys, monkeypatch, site, argv):
    def spy(*args, **kwargs):
        raise AssertionError(f"{site} reached")

    monkeypatch.setattr(f"binforms.{site}", spy)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert f"{site} reached" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("basis", "--max-degree", "-3"), "max_degree must be >= 0, got -3"),
        (("hsop", "check", "--set", "bogus"), "unknown catalog name 'bogus' for n = 9"),
        (
            ("hsop", "membership", "--set", "bogus", "--degrees", "8"),
            "unknown catalog name 'bogus' for n = 9",
        ),
    ],
    ids=["basis", "hsop-check", "hsop-membership"],
)
def test_bad_input_is_rejected_before_the_cache_directory_exists(capsys, tmp_path, argv, message):
    cache = tmp_path / "cache"
    code, out, err = run_cli(capsys, *argv, "--n", "9", "--cache-dir", str(cache))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not cache.exists()


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (("poincare", "--n", "0", "--max-degree", "3"), "error: order n must be >= 1, got 0\n"),
        (("basis", "--n", "0", "--max-degree", "3"), "error: order n must be >= 1, got 0\n"),
        (("hsop", "check", "--n", "0"), "error: order n must be >= 1, got 0\n"),
        (("poincare", "--n", "9", "--max-degree", "-3"), "error: max_degree must be >= 0, got -3\n"),
    ],
    ids=["poincare-order", "basis-order", "hsop-check-order", "poincare-degree"],
)
def test_order_and_degree_errors_name_the_given_value(capsys, argv, stderr):
    assert run_cli(capsys, *argv) == (2, "", stderr)


@pytest.mark.parametrize(
    "case", SCALAR_PATH, ids=[f"{case['argv'][0]}-{i}" for i, case in enumerate(SCALAR_PATH)]
)
def test_scalar_path_stdout_is_pinned(capsys, case):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


def test_readme_lists_the_hsop_check_keys_of_its_records():
    readme = " ".join((Path(__file__).parent.parent / "README.md").read_text().split())
    schema = re.search(
        r"\* `hsop check`: `\{(.*?)\}` where each membership entry is `\{(.*?)\}`", readme
    )
    assert [re.findall(r'"(\w+)"', keys) for keys in schema.groups()] == [
        list(HsopReport._fields), list(MembershipResult._fields)
    ]


def test_nullcone_order_mismatch_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "nullcone", "test", "--n", "9", "--form", "2: 1,0,1"
    )
    assert code == 2 and "order" in err


def test_unresolvable_name_error_is_not_quoted_twice(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--n", "9", "--expr", "@zz", "--form", "9: 1,0,0,0,0,0,0,0,0,1"
    )
    assert (code, out, err) == (2, "", "error: unresolvable name 'zz'\n")


def test_unknown_name_is_reported_before_a_later_syntax_error(capsys):
    # The parser resolves a name where it reads it, so an unknown name ahead
    # of the missing ')' is the error reported.
    code, out, err = run_cli(
        capsys, "eval", "--n", "9", "--expr", "(tr @zz", "--form", "9: 1,0,0,0,0,0,0,0,0,1"
    )
    assert (code, out, err) == (2, "", "error: unresolvable name 'zz'\n")


def test_deeply_nested_expr_is_a_usage_error(capsys):
    deep = "(pow " * 3000 + "f" + " 1)" * 3000
    code, out, err = run_cli(
        capsys, "eval", "--n", "9", "--expr", deep, "--form", "9: 1,0,0,0,0,0,0,0,0,1"
    )
    assert (code, out, err) == (2, "", "error: --expr is nested too deeply\n")


def test_recursion_in_a_walk_of_the_parsed_expr_is_a_usage_error(capsys, monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "expr_prefactor", too_deep)
    code, out, err = run_cli(
        capsys, "eval", "--n", "9", "--expr", "@j_4", "--form", "9: 1,0,0,0,0,0,0,0,0,1"
    )
    assert (code, out, err) == (2, "", "error: --expr is nested too deeply\n")


def test_form_literal_errors():
    with pytest.raises(ValueError):
        parse_form_literal("banana")
    with pytest.raises(ValueError):
        parse_form_literal("3: 1,2")


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["eval", "--n", "2", "--expr", "f", "--form", "2: 1,1/0,2"],
         "error: coefficient c1 = 1/0 has a zero denominator\n"),
        (["nullcone", "test", "--n", "2", "--form", "2: 1,1/0,2"],
         "error: coefficient c1 = 1/0 has a zero denominator\n"),
        (["nullcone", "test", "--n", "3", "--form=-1: 3"], "error: form order -1 is negative\n"),
    ],
)
def test_form_literal_errors_name_the_problem(capsys, argv, stderr):
    assert run_cli(capsys, *argv) == (2, "", stderr)


def test_form_literal_round_trip():
    from binforms.cli import print_form_literal

    text = "4: 1,-3/2,0,7,2/5"
    form = parse_form_literal(text)
    assert parse_form_literal(print_form_literal(form)) == form
    assert all(type(c) is Fraction for c in form.coeffs)
    assert print_form_literal(form) == text


def test_base_expression_is_identity(capsys):
    code, out, _ = run_cli(capsys, "eval", "--n", "3", "--expr", "f", "--form", "3: 1,2,3,4")
    assert code == 0
    assert out.strip() == "3: 1,2,3,4"


def test_help_round_trips(capsys):
    for argv in (["--help"], ["poincare", "--help"], ["hsop", "check", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    # The last help is `hsop check`'s; argparse wraps it to the terminal width.
    text = " ".join(capsys.readouterr().out.split())
    assert "nullcone criterion; 0 skips it" in text
    assert "membership ranks with the Poincare numerator" in text


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "binforms.cli", "poincare", "--n", "9",
         "--max-degree", "8", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dims"]["8"] == 8


# The process entry, `cli.run`: `python -m binforms.cli` and the `binforms`
# console script freeze the heap before exiting; in-process `main` does not.
ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"

# A sitecustomize that writes `gc.get_freeze_count()` to ./freeze_count when
# the interpreter exits; atexit runs it after the entry's `sys.exit`.
FREEZE_PROBE = """
import atexit, gc

def _report():
    with open("freeze_count", "w") as out:
        out.write(str(gc.get_freeze_count()))

atexit.register(_report)
"""


def run_entry(tmp_path, *argv, python=("-m", "binforms.cli")):
    """(exit code, stdout, stderr, frozen objects at exit) of one CLI process."""
    probe = tmp_path / "probe"
    probe.mkdir(exist_ok=True)
    (probe / "sitecustomize.py").write_text(FREEZE_PROBE)
    (tmp_path / "freeze_count").unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(probe), str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *python, *argv], cwd=tmp_path, env=env, capture_output=True, timeout=300,
    )
    frozen = int((tmp_path / "freeze_count").read_text())
    return proc.returncode, proc.stdout, proc.stderr, frozen


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("basis", "--n", "9", "--max-degree", "12", "--json"), "basis_n9_max12_seed1.json"),
        (
            ("hsop", "check", "--n", "9", "--set", "thm", "--membership-degrees", "4,8,12",
             "--trials", "100", "--json"),
            "hsop_check_thm_4_8_12_seed1.json",
        ),
    ],
)
def test_entry_freezes_the_heap_and_prints_the_golden(tmp_path, argv, golden):
    code, out, err, frozen = run_entry(tmp_path, *argv)
    assert (code, out, err) == (0, (DATA / golden).read_bytes(), b"")
    assert frozen > 0


@pytest.mark.parametrize(
    "argv, exit_code, stderr",
    [
        (("hsop", "membership", "--n", "9", "--set", "hprime", "--degrees", "12"), 1, b""),
        (
            ("basis", "--n", "9", "--max-degree", "12", "--prime", "4"),
            2,
            b"error: prime 4 is not an odd prime\n",
        ),
    ],
)
def test_entry_keeps_exit_code_and_stderr(tmp_path, argv, exit_code, stderr):
    code, _, err, frozen = run_entry(tmp_path, *argv)
    assert (code, err) == (exit_code, stderr)
    assert frozen > 0


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, "poincare", "--n", "9", "--max-degree", "8")[0] == 0
    assert gc.get_freeze_count() == before


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_cache_written_through_the_entry_equals_in_process_main(capsys, tmp_path):
    # Frozen cyclic garbage is never finalized, so no cache write may wait
    # for a finalizer: the campaign file must be complete when the process
    # exits.
    argv = ("basis", "--n", "9", "--max-degree", "10", "--json")
    entry, direct = tmp_path / "entry", tmp_path / "direct"
    code, out, err, _ = run_entry(tmp_path, *argv, "--cache-dir", str(entry))
    assert (code, err) == (0, b"") and out
    assert run_entry(tmp_path, *argv, "--cache-dir", str(entry))[:3] == (0, out, b"")
    assert run_cli(capsys, *argv, "--cache-dir", str(direct)) == (0, out.decode(), "")
    assert _files(entry) and _files(entry) == _files(direct)


def _console_script_target():
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return re.search(r'^binforms = "(.+)"$', text, re.M).group(1)
    return tomllib.loads(text)["project"]["scripts"]["binforms"]


def test_console_script_runs_the_entry_of_python_dash_m(tmp_path):
    module, _, name = _console_script_target().partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    argv = ("poincare", "--n", "9", "--max-degree", "8")
    # What an installed console script runs.
    script = f"import sys; from {module} import {name}; sys.exit({name}())"
    code, out, err, frozen = run_entry(tmp_path, *argv, python=("-c", script))
    assert (code, out, err) == run_entry(tmp_path, *argv)[:3]
    assert code == 0 and out and frozen > 0


def test_hsop_check_rejects_int64_unsafe_prime_before_degree_filter(capsys, monkeypatch):
    def no_filter(*args, **kwargs):
        raise AssertionError("the degree filter ran before the prime was checked")

    # Without membership degrees no point set bounds the prime; the kernel's
    # int64 bound for orders up to 2n must reject it first (else exit 3).
    monkeypatch.setattr("binforms.pipeline.check_sequence", no_filter)
    argv = ("hsop", "check", "--n", "9", "--set", "thm", "--trials", "5")
    code, out, err = run_cli(capsys, *argv, "--prime", "2147483647")
    assert code == 2
    assert out == ""
    assert "int64" in err
    # The control: at the default prime the filter runs, and the spy fires.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "the degree filter ran" in err


# Both primes are above the float64 bound of a 10-column echelon, about
# 3.0e7, so the Jacobian ranks run on its int64 path; 696735691 is the largest
# prime the transvectant kernel admits at n = 9.
@pytest.mark.parametrize("prime", [500000003, 696735691])
def test_hsop_check_at_a_prime_beyond_the_float64_echelon(capsys, prime):
    code, out, _ = run_cli(
        capsys, "hsop", "check", "--n", "9", "--set", "thm", "--trials", "5",
        "--prime", str(prime), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["jacobian_ranks"] == [7, 7, 7, 7, 7]
    assert payload["verdict"] == "certified-at-sampling-level"
    assert payload["prime"] == prime


@pytest.mark.parametrize("extra", [(), ("--membership-degrees", "4,8,12")])
def test_hsop_check_rejects_negative_trials_before_any_work(capsys, monkeypatch, extra):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --trials was checked")

    # Work started first would surface as an unexpected crash (exit 3).
    monkeypatch.setattr("binforms.cli.certify_hsop", no_work)
    code, out, err = run_cli(
        capsys, "hsop", "check", "--n", "9", "--set", "thm", "--trials", "-1", *extra,
    )
    assert code == 2
    assert out == ""
    assert "--trials" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("hsop", "check", "--n", "9", "--set", "thm", "--trials", "2"),
        ("hsop", "membership", "--n", "9", "--set", "thm", "--degrees", "12"),
        ("eval", "--n", "2", "--expr", "f", "--form", "2: 1,0,1"),
        ("nullcone", "test", "--n", "2", "--form", "2: 1,0,1"),
        ("verify-lemmas", "--json"),
        ("verify-lemmas",),
    ],
)
def test_csv_rejected_where_no_csv_is_written(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


@pytest.mark.parametrize(
    "argv, header",
    [
        (("catalog", "--n", "3"), "name,order,degree,hsop,expr"),
        (("ecriture", "--n", "3"), "numerator_degree,degrees"),
    ],
)
def test_csv_written_by_catalog_and_ecriture(capsys, argv, header):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == header
