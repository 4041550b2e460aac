"""The evaluation cache: key-named `.npy` buckets that a run checks before use.

A bucket that fails to load, or that does not fit the run's point set, is
discarded with one stderr line and rewritten; the run's stdout never changes,
and nothing planted in the directory runs.
"""

import os
import pickle
import shutil

import numpy as np
import pytest

from binforms.cache import EvalCache
from binforms.catalog import catalog_for
from binforms.cli import main
from binforms.pipeline import PointEvaluations, PointSet

ARGV = ["basis", "--n", "9", "--max-degree", "10", "--json"]


def _run(capsys, cache_dir):
    code = main(ARGV + ["--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _Planted:
    """Loading this object creates the directory `marker`."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (os.mkdir, (self.marker,))


def test_planted_file_never_runs(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, want, err = _run(capsys, cache)
    assert (code, err) == (0, "")
    files = sorted(cache.iterdir())
    assert len(files) >= 2
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
        assert reason.startswith("unreadable (the magic string is not correct")
        named.add(path)
    assert named == {str(path) for path in files}
    # Every bucket was rewritten and now loads.
    assert _run(capsys, cache) == (0, want, "")
    assert sorted(cache.iterdir()) == files


def test_stale_points_are_discarded_and_rewritten(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, want, _ = _run(capsys, cache)
    assert code == 0
    source, target = sorted(cache.iterdir())[:2]
    shutil.copyfile(source, target)

    code, out, err = _run(capsys, cache)
    assert (code, out) == (0, want)
    assert err == (
        f"binforms: discarding cache file {target}: "
        "coefficients differ from the run's point set\n"
    )
    assert target.read_bytes() != source.read_bytes()
    assert _run(capsys, cache) == (0, want, "")


@pytest.mark.parametrize(
    "values, reason",
    [
        (np.zeros((1, 5), dtype=np.int64), "value rows of shape (1, 5), expected (1, 6)"),
        (np.full((1, 6), 32003, dtype=np.int64), "values outside [0, 32003)"),
        (np.zeros((1, 6), dtype=np.float64), "value rows of dtype float64, expected int64"),
    ],
)
def test_bucket_that_does_not_fit_is_discarded(capsys, tmp_path, values, reason):
    points = PointSet(9, 32003, 1, 6, "cache-test")
    cache = EvalCache(str(tmp_path))
    path = cache._path(points.key)
    with open(path, "wb") as fh:
        np.save(fh, points.coeffs)
        np.save(fh, np.frombuffer(b"f", dtype=np.uint8))
        np.save(fh, values)
    assert cache.get(points, "f") is None
    assert capsys.readouterr().err == f"binforms: discarding cache file {path}: {reason}\n"


def test_header_asking_for_a_huge_array_is_discarded(capsys, tmp_path):
    points = PointSet(9, 32003, 1, 6, "cache-test")
    cache = EvalCache(str(tmp_path))
    path = cache._path(points.key)
    with open(path, "wb") as fh:
        header = {"descr": "<i8", "fortran_order": False, "shape": (2 ** 40,)}
        np.lib.format.write_array_header_1_0(fh, header)
        fh.write(bytes(64))
    assert cache.get(points, "f") is None
    err = capsys.readouterr().err
    assert err.startswith(f"binforms: discarding cache file {path}: unreadable (")
    assert err.count("\n") == 1


def test_object_arrays_are_refused(capsys, tmp_path):
    # An object array would be unpickled on load; the bucket is discarded
    # before any of it is read.
    marker = tmp_path / "marker"
    points = PointSet(9, 32003, 1, 6, "cache-test")
    cache = EvalCache(str(tmp_path))
    path = cache._path(points.key)
    with open(path, "wb") as fh:
        np.save(fh, np.array([_Planted(marker)], dtype=object), allow_pickle=True)
    assert cache.get(points, "f") is None
    assert not marker.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"binforms: discarding cache file {path}: unreadable (")
    assert err.count("\n") == 1


def test_hits_are_read_only_int64_rows(tmp_path):
    points = PointSet(9, 32003, 1, 6, "cache-test")
    j4 = catalog_for(9).closed("j_4")
    cache = EvalCache(str(tmp_path))
    want = PointEvaluations(points, cache).vector(j4)
    cache.flush()
    assert [p.name for p in tmp_path.iterdir()] == ["points-v2-9_32003_1_cache-test_6.npy"]

    got = PointEvaluations(points, EvalCache(str(tmp_path))).vector(j4)
    assert got.dtype == np.int64 and not got.flags.writeable
    assert got.tolist() == want.tolist()


def test_old_pickle_files_are_ignored_not_deleted(capsys, tmp_path):
    old = tmp_path / "points-0123456789abcdef01234567.pkl"
    old.write_bytes(b"not read")
    code, out, err = _run(capsys, tmp_path)
    assert (code, err) == (0, "")
    assert old.read_bytes() == b"not read"
