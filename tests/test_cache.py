"""The campaign cache: one key-named JSON file of generators, proved on every read.

A warm run replays the stored generators through the cold run's degree
routine, so the rank decides.  A file that fails to load, or whose
generators fail to saturate a degree, is discarded with one stderr line and
rewritten; the run's stdout never changes, and nothing planted in the
directory runs.
"""

import json
import os
import pickle
import shutil

import numpy as np
import pytest

from binforms import pipeline
from binforms.cache import EvalCache
from binforms.cli import main
from binforms.exprs import expr_to_text

ARGV = ["basis", "--n", "9", "--max-degree", "10", "--json"]
NAME = "campaign-9_32003_1_10.json"  # n, prime, seed, --points-margin


def _run(capsys, cache_dir, argv=ARGV):
    code = main(list(argv) + ["--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cold(capsys, argv=ARGV):
    code = main(list(argv))
    return code, capsys.readouterr().out


class _Planted:
    """Loading this object creates the directory `marker`."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (os.mkdir, (self.marker,))


def _discarded(err, path):
    """The reason of the one discard line in `err`, which must name `path`."""
    assert err.count("\n") == 1, err
    prefix = f"binforms: discarding cache file {path}: "
    assert err.startswith(prefix), err
    return err[len(prefix):].rstrip("\n")


def test_planted_file_never_runs(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, want, err = _run(capsys, cache)
    assert (code, err) == (0, "")
    files = sorted(cache.iterdir())
    assert files == [cache / NAME]
    marker = tmp_path / "marker"
    for path in files:
        path.write_bytes(pickle.dumps(_Planted(marker)))
    # The planted object is live: loading it would create the marker.
    pickle.loads(files[0].read_bytes())
    assert marker.is_dir()
    marker.rmdir()

    code, out, err = _run(capsys, cache)
    assert (code, out) == (0, want)
    assert not marker.exists()
    lines = err.splitlines()
    assert len(lines) == len(files)
    named = set()
    for line in lines:
        assert line.startswith("binforms: discarding cache file ")
        path, _, reason = line[len("binforms: discarding cache file "):].partition(": ")
        assert reason.startswith("unreadable (")
        named.add(path)
    assert named == {str(path) for path in files}
    # Every file was rewritten and now loads.
    assert _run(capsys, cache) == (0, want, "")
    assert sorted(cache.iterdir()) == files


def test_stale_points_are_discarded_and_rewritten(capsys, tmp_path):
    # A file from another seed's campaign (other points, other generators)
    # copied under this run's name is refused by its key fields.
    cache, other = tmp_path / "cache", tmp_path / "other"
    code, want, _ = _run(capsys, cache)
    assert code == 0
    assert _run(capsys, other, ARGV + ["--seed", "2"])[0] == 0
    target = cache / NAME
    fresh = target.read_bytes()
    shutil.copyfile(other / "campaign-9_32003_2_10.json", target)

    code, out, err = _run(capsys, cache)
    assert (code, out) == (0, want)
    assert _discarded(err, target) == "seed 2 differs from the run's 1"
    assert target.read_bytes() == fresh
    assert _run(capsys, cache) == (0, want, "")


def test_object_arrays_are_refused(capsys, tmp_path):
    # An object array saved by numpy holds a pickle; the reader is `json`
    # alone, so the file is discarded and nothing of it runs.
    marker = tmp_path / "marker"
    cache = tmp_path / "cache"
    cache.mkdir()
    with open(cache / NAME, "wb") as fh:
        np.save(fh, np.array([_Planted(marker)], dtype=object), allow_pickle=True)
    code, want = _cold(capsys)
    code, out, err = _run(capsys, cache)
    assert (code, out) == (0, want)
    assert not marker.exists()
    assert _discarded(err, cache / NAME).startswith("unreadable (")


def test_old_pickle_files_are_ignored_not_deleted(capsys, tmp_path):
    old = tmp_path / "points-0123456789abcdef01234567.pkl"
    old.write_bytes(b"not read")
    # A value-row bucket of the earlier `.npy` format, named as degree 8's
    # point set and zeroed: no run reads it.
    bucket = tmp_path / "points-v2-9_32003_1_dm_8_1_18.npy"
    with open(bucket, "wb") as fh:
        np.save(fh, np.zeros((18, 10), dtype=np.int64))
        np.save(fh, np.frombuffer(b"f", dtype=np.uint8))
        np.save(fh, np.zeros((1, 18), dtype=np.int64))
    kept = bucket.read_bytes()
    code, want = _cold(capsys)
    assert _run(capsys, tmp_path) == (0, want, "")
    assert _run(capsys, tmp_path) == (0, want, "")
    assert old.read_bytes() == b"not read"
    assert bucket.read_bytes() == kept


def _edited(edit):
    """A tampering of the file's text that applies `edit` to the parsed file."""

    def tamper(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    return tamper


def _set(field, value):
    return _edited(lambda doc: doc.update({field: value}))


def _generator(m, text_of):
    def edit(doc):
        doc["degrees"][str(m)]["generators"][0] = text_of(doc)

    return _edited(edit)


def _quartic_product(doc):
    a, b = doc["degrees"]["4"]["generators"]
    return f"(tr {a} {b} 0)"


DEEP = "(tr " * 5000 + "f" + " f 0)" * 5000

# (tampering of the file's text, the start of the discard reason)
TAMPERINGS = {
    "dependent": (_generator(8, _quartic_product), "replay failed: degree 8: rank 7 < dim 8"),
    "deleted": (
        _edited(lambda doc: doc["degrees"]["8"]["generators"].pop()),
        "replay failed: degree 8: rank 7 < dim 8",
    ),
    "wrong-degree": (
        _generator(8, lambda doc: doc["degrees"]["10"]["generators"][0]),
        "degree 8: ",
    ),
    "covariant": (_generator(8, lambda doc: "(pow (tr f f 8) 4)"), "degree 8: "),
    "reference": (_generator(4, lambda doc: "@j_4"), "degree 4: '@j_4' holds a named reference"),
    "truncated": (lambda text: text[: len(text) // 2], "unreadable ("),
    "deep": (_generator(4, lambda doc: DEEP), "maximum recursion depth exceeded"),
    "prime": (_set("prime", 32009), "prime 32009 differs from the run's 32003"),
    "seed": (_set("seed", 7), "seed 7 differs from the run's 1"),
    "attempt": (
        _edited(lambda doc: doc["degrees"]["10"].update(attempt=3)),
        "degree 10: attempt 3 is not 1 or 2",
    ),
    "missing-degree": (_edited(lambda doc: doc["degrees"].pop("10")), "degree 10 is missing"),
}


@pytest.mark.parametrize("case", sorted(TAMPERINGS))
def test_tampered_file_never_changes_a_result(capsys, tmp_path, case):
    tamper, reason = TAMPERINGS[case]
    code, want = _cold(capsys)
    assert code == 0
    assert _run(capsys, tmp_path) == (0, want, "")
    path = tmp_path / NAME
    fresh = path.read_text()
    path.write_text(tamper(fresh))

    code, out, err = _run(capsys, tmp_path)
    assert (code, out) == (0, want)
    assert _discarded(err, path).startswith(reason)
    assert path.read_text() == fresh
    assert _run(capsys, tmp_path) == (0, want, "")


def test_warm_run_replays_without_drawing_and_writes_nothing(capsys, monkeypatch, tmp_path):
    # The file reaches degree 14; a degree-10 run replays its first degrees.
    argv14 = ["basis", "--n", "9", "--max-degree", "14", "--json"]
    assert _run(capsys, tmp_path, argv14)[0] == 0
    path = tmp_path / NAME
    stored = path.read_bytes()
    code, want = _cold(capsys)

    def no_draws(self, m):
        raise AssertionError("a warm run drew a candidate")

    with monkeypatch.context() as patch:
        patch.setattr(pipeline.CandidateGenerator, "candidates", no_draws)
        assert _run(capsys, tmp_path) == (0, want, "")
    assert path.read_bytes() == stored


def test_warm_replay_keeps_an_attempt_2_degree(monkeypatch, tmp_path):
    # Degree 20 of the nonic settles only at the second, doubled point set.
    # The stored attempt is the one field of the file the rank cannot check,
    # so the warm evidence must carry it, and every other field, unchanged.
    cfg = pipeline.PipelineConfig()
    cold_evidence, cold_records = pipeline.find_basic_invariants(9, 22, cfg, EvalCache(tmp_path))
    assert {ev.degree: ev.attempt for ev in cold_evidence}[20] == 2

    def no_draws(self, m):
        raise AssertionError("a warm run drew a candidate")

    monkeypatch.setattr(pipeline.CandidateGenerator, "candidates", no_draws)
    warm_evidence, warm_records = pipeline.find_basic_invariants(9, 22, cfg, EvalCache(tmp_path))
    assert [ev._asdict() for ev in warm_evidence] == [ev._asdict() for ev in cold_evidence]
    assert [(rec.name, rec.degree, expr_to_text(rec.expr)) for rec in warm_records] == [
        (rec.name, rec.degree, expr_to_text(rec.expr)) for rec in cold_records
    ]


def test_file_below_the_run_top_degree_is_rerun_cold_and_rewritten(capsys, tmp_path):
    argv14 = ["basis", "--n", "9", "--max-degree", "14", "--json"]
    assert _run(capsys, tmp_path)[0] == 0
    path = tmp_path / NAME
    assert json.loads(path.read_text())["top"] == 10
    code, want = _cold(capsys, argv14)
    assert _run(capsys, tmp_path, argv14) == (0, want, "")
    assert json.loads(path.read_text())["top"] == 14
    assert _run(capsys, tmp_path, argv14) == (0, want, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["hsop", "check", "--n", "9", "--set", "thm", "--membership-degrees", "4,8,12",
         "--trials", "5", "--json"],
        ["hsop", "membership", "--n", "9", "--set", "hprime", "--degrees", "12", "--json"],
    ],
)
def test_hsop_reads_its_basis_from_the_file(capsys, monkeypatch, tmp_path, argv):
    code, want = _cold(capsys, argv)
    assert _run(capsys, tmp_path, argv) == (code, want, "")
    assert (tmp_path / NAME).is_file()

    def no_draws(self, m):
        raise AssertionError("a warm run drew a candidate")

    monkeypatch.setattr(pipeline.CandidateGenerator, "candidates", no_draws)
    assert _run(capsys, tmp_path, argv) == (code, want, "")


def test_size_refuted_hsop_check_writes_no_campaign(capsys, tmp_path):
    # A set its size refutes returns before the membership basis is
    # discovered, so its cache directory stays empty; a set of the right
    # size writes the file (`test_hsop_reads_its_basis_from_the_file`).
    argv = ["hsop", "check", "--n", "9", "--set", "j_4,B_8,D_10,j_12,B_12,j_14",
            "--membership-degrees", "24", "--trials", "2", "--json"]
    code, want = _cold(capsys, argv)
    assert code == 1
    for _ in range(2):
        assert _run(capsys, tmp_path, argv) == (code, want, "")
        assert list(tmp_path.iterdir()) == []


def test_membership_that_needs_no_basis_neither_reads_nor_writes_a_campaign(capsys, tmp_path):
    # Degrees below the set's smallest degree, 4, need no basis, so no
    # campaign runs: none is written, and a broken file is not even read.
    argv = ["hsop", "membership", "--n", "9", "--set", "thm", "--degrees", "2"]
    code, want = _cold(capsys, argv)
    assert code == 0
    for _ in range(2):
        assert _run(capsys, tmp_path, argv) == (code, want, "")
        assert list(tmp_path.iterdir()) == []
    (tmp_path / NAME).write_text("{not json")
    assert _run(capsys, tmp_path, argv) == (code, want, "")
    assert [p.name for p in tmp_path.iterdir()] == [NAME]
    assert (tmp_path / NAME).read_text() == "{not json"


def test_inconclusive_campaign_writes_nothing(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(pipeline, "CANDIDATE_BUDGET", -(10 ** 6))
    code, out, err = _run(capsys, tmp_path)
    assert (code, out) == (1, "")
    assert err.startswith("inconclusive: ")
    assert list(tmp_path.iterdir()) == []
