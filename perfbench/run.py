"""End-to-end and per-layer benchmark of the binforms command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload discover --seed 1 --seconds 25 --trace 0

Each workload runs one binforms command line as fresh processes, one at a
time, for ``--seconds`` seconds, and checks every output.  With ``--trace 0``
it reports the end-to-end metrics (median wall time relative to
perfbench/reference.py, peak memory, set-up time); with ``--trace 1`` it alternates traced passes (perfbench/tracer.py)
with untraced processes and reports the per-layer metrics.  The last line of
stdout is one JSON object; a fuller record, with every sample and the
machine, goes to perfbench/_work/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
TRACER = ROOT / "perfbench" / "tracer.py"
REFERENCE = ROOT / "perfbench" / "reference.py"

# One benchmark run must end within 180 s, set-up and probe included.
DEADLINE_S = 170.0
# Set-up is this many untimed runs of the workload's command (discover-warm:
# each fills its cache from empty); setup_s is their median.
SETUP_RUNS = 2
REFS_PER_SAMPLE = 2  # reference.py processes after each timed process

# The nonic d_m row (degrees 4..14); it does not depend on the seed.
DM_ROW = {4: 2, 8: 5, 10: 5, 12: 14, 14: 17}

DISCOVER = ("basis", "--n", "9", "--max-degree", "12", "--json")
WARM = ("basis", "--n", "9", "--max-degree", "14", "--json")
CERTIFY = (
    "hsop", "check", "--n", "9", "--set", "thm",
    "--membership-degrees", "4,8,12", "--trials", "100", "--json",
)
# The timed runs use the program's default seed; see README.md for why.
DEFAULT_SEED = 1

END_TO_END = {"wall_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "wall_s": "s",
    "forms.transvectant.calls.fp": "count",
    "forms.transvectant.calls.qq": "count",
    "forms.transvectant.calls.dual": "count",
    "forms.transvectant.self_s.fp": "s",
    "forms.transvectant.self_s.qq": "s",
    "forms.transvectant.self_s.dual": "s",
    "forms.transvectant.ops": "count",
    "forms.transvectant.ns_per_op": "ns/op",
    "pipeline.vector.calls": "count",
    "pipeline.vector.self_s": "s",
    "pipeline.candidates.draws": "count",
    "pipeline.candidates.self_s": "s",
    "pipeline.candidates.grow_calls": "count",
    "pipeline.candidates.accept_ratio": "ratio",
    "modlinalg.echelon.rows": "count",
    "modlinalg.echelon.rank_gain": "count",
    "modlinalg.echelon.self_s": "s",
    "modlinalg.rank.calls": "count",
    "modlinalg.rank.self_s": "s",
    "series.calls": "count",
    "series.self_s": "s",
    "nullcone.random_nullform.self_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.get.self_s": "s",
    "cache.flush.self_s": "s",
    "cache.bytes_on_disk": "bytes",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "cli.cpu_s": "s",
    "failed_frac": "fraction",
}


# ---------------------------------------------------------------------------
# Output checks: facts that hold for every seed.


def check_basis(max_degree: int) -> Callable[[dict, int], List[str]]:
    want_d = {str(m): d for m, d in DM_ROW.items() if m <= max_degree}

    def check(doc: dict, seed: int) -> List[str]:
        problems = []
        if doc.get("d") != want_d:
            problems.append(f"d = {doc.get('d')}, expected {want_d}")
        if doc.get("total") != sum(want_d.values()):
            problems.append(f"total = {doc.get('total')}, expected {sum(want_d.values())}")
        if doc.get("seed") != seed:
            problems.append(f"seed = {doc.get('seed')}, expected {seed}")
        return problems

    return check


def check_certify(doc: dict, seed: int) -> List[str]:
    problems = []
    if doc.get("verdict") != "certified-at-sampling-level":
        problems.append(f"verdict {doc.get('verdict')!r}")
    if max(doc.get("jacobian_ranks") or [0]) != 7:
        problems.append(f"jacobian ranks {doc.get('jacobian_ranks')}, max should be 7")
    if doc.get("nullform_vanishing") != "100/100":
        problems.append(f"nullform vanishing {doc.get('nullform_vanishing')}")
    rows = doc.get("membership") or []
    got = [(r.get("degree"), r.get("a_coefficient")) for r in rows]
    if got != [(4, 1), (8, 5), (12, 17)]:
        problems.append(f"membership (degree, a_i) = {got}")
    for r in rows:
        if r.get("rank") != r.get("dim", 0) - (r.get("a_coefficient") or 0):
            problems.append(f"membership degree {r.get('degree')}: rank {r.get('rank')} != dim - a_i")
    if doc.get("seed") != seed:
        problems.append(f"seed = {doc.get('seed')}, expected {seed}")
    return problems


@dataclass(frozen=True)
class Workload:
    argv: Sequence[str]  # timed command line (default seed)
    check: Callable[[dict, int], List[str]]
    probe_argv: Sequence[str]  # run once more with --seed <benchmark seed>
    probe_check: Callable[[dict, int], List[str]]
    warm: bool = False  # set-up fills a cache that the timed runs read


WORKLOADS = {
    "discover": Workload(DISCOVER, check_basis(12), DISCOVER, check_basis(12)),
    "discover-warm": Workload(WARM, check_basis(14), DISCOVER, check_basis(12), warm=True),
    "certify": Workload(CERTIFY, check_certify, CERTIFY, check_certify),
}


# ---------------------------------------------------------------------------
# Processes.


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    ok: bool = True


class Runner:
    """Runs one process at a time and records every attempt and failure."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "BINFORMS_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, s: Sample, message: str) -> None:
        self.failures.append(message)
        if s.ok:
            s.ok = False
            self.failed += 1

    def process(self, argv: Sequence[str]) -> Sample:
        """Run `python3 <argv>`; wall, CPU and peak RSS come from wait4."""
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        limit = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
        )

    def cli(self, argv: Sequence[str], check, seed: int, what: str,
            traced: Optional[Path] = None) -> Sample:
        """One binforms command line, counted and checked."""
        if traced is None:
            cmd = ["-m", "binforms.cli", *argv]
        else:
            cmd = [str(TRACER), str(traced), str(WORK / "spans.jsonl"), "--", *argv]
        self.attempted += 1
        s = self.process(cmd)
        problems = []
        if s.code != 0:
            tail = s.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {s.code} {tail}")
        else:
            try:
                problems = check(json.loads(s.stdout), seed)
            except ValueError as exc:
                problems.append(f"stdout is not JSON: {exc}")
        if problems:
            self.fail(s, f"{what}: " + "; ".join(problems))
        return s

    def same_output(self, first: Sample, s: Sample, what: str) -> None:
        if first.stdout != s.stdout:
            self.fail(s, f"{what}: stdout differs from the first run")

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def _cache_arg(path: Path) -> List[str]:
    return ["--cache-dir", str(path)]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _reference(runner: Runner) -> float:
    """Wall time of one reference.py process (the machine-speed yardstick)."""
    s = runner.process([str(REFERENCE)])
    if s.code != 0 or not s.stdout.strip():
        raise SystemExit(f"perfbench: reference.py failed: {s.stderr.decode(errors='replace')}")
    return s.wall_s


def _import_check(runner: Runner) -> None:
    """Stop unless `import binforms` resolves to this checkout's sources."""
    s = runner.process(["-c", "import binforms; print(binforms.__file__)"])
    where = s.stdout.decode(errors="replace").strip()
    if s.code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: cannot import binforms from {SRC} (got {where!r})")


# ---------------------------------------------------------------------------
# Measurement.


def stats(values: Sequence[float]) -> dict:
    """Median, quartiles, extremes and single-run spread of one metric's samples."""
    vals = sorted(values)
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return {
        "n": len(vals), "median": med, "q1": q1, "q3": q3, "min": vals[0],
        "max": vals[-1], "iqr_over_median": (q3 - q1) / med if med else None,
        "values": list(values),
    }


def probe(runner: Runner, wl: Workload, seed: int) -> None:
    """Check the workload's path once on an input made from the seed."""
    argv = [*wl.probe_argv, "--seed", str(seed)]
    if wl.warm:
        cache = _cache_arg(_fresh(WORK / "probe-cache"))
        fill = runner.cli([*argv, *cache], wl.probe_check, seed, "probe fill")
        warm = runner.cli([*argv, *cache], wl.probe_check, seed, "probe warm")
        runner.same_output(fill, warm, "probe warm vs fill")
    else:
        runner.cli(argv, wl.probe_check, seed, "probe")


def measure(runner: Runner, wl: Workload, seconds: float) -> dict:
    """Set-up, then untraced processes for `seconds`: end-to-end metrics."""
    _import_check(runner)
    argv = list(wl.argv)
    cache = _cache_arg(WORK / "cache") if wl.warm else []
    setup: List[float] = []
    first: Optional[Sample] = None
    for i in range(SETUP_RUNS):
        if wl.warm:
            _fresh(WORK / "cache")
        s = runner.cli([*argv, *cache], wl.check, DEFAULT_SEED, f"set-up {i}")
        setup.append(s.wall_s)
        first = first or s
        runner.same_output(first, s, f"set-up {i}")
    argv += cache
    samples: List[Sample] = []
    ref: List[float] = []
    t0 = time.monotonic()
    while not samples or (time.monotonic() - t0 < seconds and not runner.expired()):
        s = runner.cli(argv, wl.check, DEFAULT_SEED, f"timed {len(samples)}")
        first = first or s
        runner.same_output(first, s, f"timed {len(samples)}")
        samples.append(s)
        ref += [_reference(runner) for _ in range(REFS_PER_SAMPLE)]
    wall = stats([s.wall_s for s in samples])
    reference = stats(ref)
    return {
        "wall_rel": stats([wall["median"] / reference["median"]]),
        "wall_s": wall,
        "reference_s": reference,
        "peak_rss_mb": stats([s.rss_mb for s in samples]),
        "setup_s": stats(setup),
        "cli.cpu_s": stats([s.cpu_s for s in samples]),
    }


def measure_traced(runner: Runner, wl: Workload, seconds: float) -> dict:
    """Traced passes alternating with untraced processes: per-layer metrics."""
    argv = list(wl.argv)
    summary_path = WORK / "summary.json"
    first: Optional[Sample] = None
    flush_s = None
    disk = 0
    _import_check(runner)
    if wl.warm:
        # The set-up fill is the pass that writes the cache, so it is traced too.
        cache = _fresh(WORK / "cache")
        summary_path.unlink(missing_ok=True)
        first = runner.cli([*argv, *_cache_arg(cache)], wl.check, DEFAULT_SEED,
                           "traced fill", traced=summary_path)
        flush_s = json.loads(summary_path.read_text())["cache.flush.self_s"]
        disk = _dir_bytes(cache)
        argv += _cache_arg(cache)
    traced: List[dict] = []
    walls: List[float] = []
    plain: List[Sample] = []
    t0 = time.monotonic()
    while not traced or (time.monotonic() - t0 < seconds and not runner.expired()):
        summary_path.unlink(missing_ok=True)
        s = runner.cli(argv, wl.check, DEFAULT_SEED, f"traced {len(traced)}", traced=summary_path)
        first = first or s
        runner.same_output(first, s, f"traced {len(traced)}")
        summary = json.loads(summary_path.read_text())
        traced.append(summary)
        walls.append(s.wall_s - summary["write_s"])
        u = runner.cli(argv, wl.check, DEFAULT_SEED, f"untraced {len(plain)}")
        runner.same_output(first, u, f"untraced {len(plain)}")
        plain.append(u)
    layers = {}
    for key in PER_LAYER:
        if key in traced[0]:
            layers[key] = stats([t[key] for t in traced])
    if flush_s is not None:
        layers["cache.flush.self_s"] = stats([flush_s])
    layers["cache.bytes_on_disk"] = stats([disk])
    plain_wall = stats([u.wall_s for u in plain])
    layers["wall_s"] = plain_wall
    layers["trace.overhead_s"] = stats([statistics.median(walls) - plain_wall["median"]])
    layers["cli.cpu_s"] = stats([u.cpu_s for u in plain])
    layers["traced_wall_s"] = stats(walls)
    layers["self_s_by_span"] = traced[-1]["self_s_by_span"]
    return layers


# ---------------------------------------------------------------------------
# Environment record.


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    files = sorted((SRC / "binforms").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    threads = {
        k: os.environ.get(k)
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    }
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
        "python": sys.version,
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_settings": threads,
        "loadavg": load,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps the process it is waiting on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "binforms" / "cli.py").is_file():
        print(f"perfbench: no binforms sources under {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    WORK.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]
    runner = Runner(start + DEADLINE_S)
    if args.trace:
        measured = measure_traced(runner, wl, args.seconds)
    else:
        measured = measure(runner, wl, args.seconds)
    probe(runner, wl, args.seed)
    failed = runner.failed
    measured["failed_frac"] = stats([failed / runner.attempted])
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": measured[name]["median"], "unit": unit} for name, unit in wanted.items()
    }
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "argv": list(wl.argv),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": time.monotonic() - start,
        "failures": runner.failures,
        "result": result,
        "samples": measured,
        "environment": environment(),
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for name, m in measured.items():
        if isinstance(m, dict) and "median" in m:
            print(f"{name}: median {m['median']:.6g} (n={m['n']}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
