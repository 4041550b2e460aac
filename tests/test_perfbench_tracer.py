"""The benchmark's layer tracer still finds every name it wraps.

`perfbench/tracer.py` patches binforms functions and methods by name and
fails loudly when one is gone, so a rename shows up here rather than in a
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_patches_rank_and_echelon(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "S.json", "SP.jsonl",
         "--", "poincare", "--n", "9", "--max-degree", "4"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    patched = json.loads((tmp_path / "S.json").read_text())["patched"]
    assert "binforms.pipeline.matrix_rank" in patched
    assert "binforms.pipeline.random_nullform" in patched
    assert "binforms.modlinalg.StreamingEchelon.add_rows" in patched


def test_tracer_runs_membership_through_add_rows(tmp_path):
    # Membership rows reach the echelon through `add_rows`; the tracer's
    # after-hook must still accept the call and count the rows.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "S.json", "SP.jsonl",
         "--", "hsop", "membership", "--n", "9", "--set", "thm", "--degrees", "8"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "S.json").read_text())
    assert "binforms.modlinalg.StreamingEchelon.add_rows" in summary["patched"]
    assert summary["modlinalg.echelon.rows"] > 0


def test_tracer_times_the_cache_under_its_names(tmp_path):
    # The tracer binds `EvalCache.get` and `EvalCache.flush`; a warm run
    # reads the campaign file once and draws no candidate.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = ["basis", "--n", "9", "--max-degree", "8", "--json", "--cache-dir", str(tmp_path / "D")]
    summaries = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "S.json", "SP.jsonl",
             "--", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        summaries.append(json.loads((tmp_path / "S.json").read_text()))
    cold, warm = summaries
    assert "binforms.cache.EvalCache.get" in cold["patched"]
    assert (cold["cache.hits"], cold["cache.misses"]) == (0, 1)
    assert cold["pipeline.candidates.draws"] > 0
    assert (warm["cache.hits"], warm["cache.misses"]) == (1, 0)
    assert warm["pipeline.candidates.draws"] == 0


def test_tracer_runs_verify_lemmas_with_the_untraced_stdout(tmp_path):
    # The tracer's span hook on `forms.transvectant` reads a `ring` attribute
    # that forms no longer have.  The lemma checks call the batch kernel
    # directly, so a traced run prints what an untraced one does.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = ["verify-lemmas", "--json"]
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "S.json", "SP.jsonl", "--", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "binforms.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    assert json.loads(traced.stdout)["ok"] is True
