"""Outside-in layer trace of one binforms command line.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py SUMMARY.json SPANS.jsonl -- basis --n 9 ...

The script wraps the public functions of each binforms module, patching
every module-level name that refers to them (``exprs.transvectant``,
``pipeline.matrix_rank`` and so on), then calls ``binforms.cli.main(argv)``
in this process.  The command's stdout passes through unchanged.  Spans
(name, start, end, parent, attributes) are kept in memory; when the command
returns, per-layer aggregates go to SUMMARY.json and every span to
SPANS.jsonl.  Nothing under ``src/binforms`` is edited.

``Evaluator.eval`` is deliberately not wrapped: it recurses a few hundred
thousand times per discovery run and a wrapper there costs more than the
layer it would measure.  ``transvectant`` sits one level below it at a
fraction of the call count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Stage spans: they give the span tree its structure.
STAGES = (
    "find_basic_invariants",
    "compute_dm",
    "certify_hsop",
    "jacobian_rank",
    "vanish_on_nullcone_sample",
    "ideal_membership_dim",
)

# Ring class name -> tag used in the per-ring transvectant metrics.
RING_TAGS = {"PrimeField": "fp", "RationalField": "qq", "DualNumbers": "dual"}


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, attrs]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """`fn` recording one span per call.

        `before(*args, **kwargs)` gives the span's attributes; `after(attrs,
        result, *args, **kwargs)` replaces them once the call has returned.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                span[4] = after(attrs, result, *args, **kwargs)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def wrap_stream(self, fn: Callable, name: str) -> Callable:
        """A generator function whose every `next()` is one span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    span[2] = clock()
                    stack.pop()
                yield item

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def self_times(self) -> List[float]:
        """Duration of each span minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]


# ---------------------------------------------------------------------------
# What to wrap.


def _transvectant_attrs(g, h, p):
    # One coefficient product per (i, output term) pair: (p+1)(m-p+1)(n-p+1).
    ops = (p + 1) * (g.order - p + 1) * (h.order - p + 1)
    return (RING_TAGS.get(type(g.ring).__name__, "other"), ops)


def _rank_before(ech, *args, **kwargs):
    return ech.rank


def _echelon_row(rank0, added, ech, vec):
    return (1, ech.rank - rank0)


def _echelon_rows(rank0, consumed, ech, block, stop_at=None):
    return (consumed, ech.rank - rank0)


def _cache_hit(attrs, result, *args, **kwargs):
    return result is not None


def _degree(pos: int, key: str) -> Callable:
    def attrs(*args, **kwargs):
        return {"degree": kwargs[key] if key in kwargs else args[pos]}

    return attrs


def _new_records(attrs, result, *args, **kwargs):
    _, records = result
    return {**attrs, "new": len(records)}


# (defining module, attribute, span name, import sites that must be patched too)
FUNCTIONS = (
    ("forms", "transvectant", "forms.transvectant", ("exprs.transvectant", "nullcone.transvectant")),
    ("modlinalg", "rank", "modlinalg.rank", ("pipeline.matrix_rank",)),
    ("series", "invariant_dimension", "series.invariant_dimension", ("pipeline.invariant_dimension",)),
    ("series", "poincare_series", "series.poincare_series", ("pipeline.poincare_series",)),
    ("series", "to_rational", "series.to_rational", ("pipeline.to_rational",)),
    ("nullcone", "random_nullform", "nullcone.random_nullform", ("pipeline.random_nullform",)),
) + tuple(
    ("pipeline", stage, f"pipeline.{stage}", ()) for stage in STAGES
)

HOOKS: Dict[str, tuple] = {
    "forms.transvectant": (_transvectant_attrs, None),
    "pipeline.compute_dm": (_degree(1, "m"), _new_records),
    "pipeline.ideal_membership_dim": (_degree(2, "degree"), None),
}

# (module, class, method, span name, before, after)
METHODS = (
    ("pipeline", "PointEvaluations", "vector", "pipeline.vector", None, None),
    ("pipeline", "CandidateGenerator", "grow", "pipeline.candidates.grow", None, None),
    ("modlinalg", "StreamingEchelon", "add_row", "modlinalg.echelon.add_row", _rank_before, _echelon_row),
    ("modlinalg", "StreamingEchelon", "add_rows", "modlinalg.echelon.add_rows", _rank_before, _echelon_rows),
    ("cache", "EvalCache", "get", "cache.get", None, _cache_hit),
    ("cache", "EvalCache", "flush", "cache.flush", None, None),
)

STREAMS = (("pipeline", "CandidateGenerator", "candidates", "pipeline.candidates.next"),)


def _module(short: str):
    return importlib.import_module(f"binforms.{short}")


def _require(owner, attr: str, where: str):
    if not hasattr(owner, attr):
        raise RuntimeError(f"perfbench: {where}.{attr} no longer exists; update perfbench/tracer.py")
    return getattr(owner, attr)


def install(tracer: Tracer) -> List[str]:
    """Wrap every target; returns the patched `module.name` sites."""
    importlib.import_module("binforms.cli")
    loaded = [m for k, m in sys.modules.items() if k == "binforms" or k.startswith("binforms.")]
    patched: List[str] = []
    for short, attr, name, sites in FUNCTIONS:
        original = _require(_module(short), attr, f"binforms.{short}")
        if getattr(original, "__wrapped_by_perfbench__", False):
            raise RuntimeError(f"perfbench: {name} wrapped twice")
        before, after = HOOKS.get(name, (None, None))
        wrapper = tracer.wrap(original, name, before, after)
        # Every module-level name bound to the original, wherever imported.
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append(f"{mod.__name__}.{key}")
        for site in sites:
            site_mod, site_attr = site.rsplit(".", 1)
            if _require(_module(site_mod), site_attr, f"binforms.{site_mod}") is not wrapper:
                raise RuntimeError(f"perfbench: binforms.{site} is not binforms.{short}.{attr}")
    for short, cls_name, meth, name, before, after in METHODS:
        cls = _require(_module(short), cls_name, f"binforms.{short}")
        setattr(cls, meth, tracer.wrap(_require(cls, meth, cls_name), name, before, after))
        patched.append(f"binforms.{short}.{cls_name}.{meth}")
    for short, cls_name, meth, name in STREAMS:
        cls = _require(_module(short), cls_name, f"binforms.{short}")
        original = _require(cls, meth, cls_name)
        if not inspect.isgeneratorfunction(original):
            raise RuntimeError(f"perfbench: {cls_name}.{meth} is no longer a generator")
        setattr(cls, meth, tracer.wrap_stream(original, name))
        patched.append(f"binforms.{short}.{cls_name}.{meth}")
    return patched


# ---------------------------------------------------------------------------
# Aggregation.


def summarize(tracer: Tracer, main_s: float) -> dict:
    """Per-layer metrics of one traced pass (times in seconds)."""
    selfs = tracer.self_times()
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    tv_calls: Dict[str, int] = defaultdict(int)
    tv_self: Dict[str, float] = defaultdict(float)
    ops = rows = rank_gain = hits = adjoined = 0
    root_s = 0.0
    for (name, start, end, parent, attrs), own in zip(tracer.spans, selfs):
        calls[name] += 1
        self_s[name] += own
        if parent < 0:
            root_s += end - start
        if name == "forms.transvectant":
            tv_calls[attrs[0]] += 1
            tv_self[attrs[0]] += own
            ops += attrs[1]
        elif name.startswith("modlinalg.echelon."):
            rows += attrs[0]
            rank_gain += attrs[1]
        elif name == "cache.get":
            hits += bool(attrs)
        elif name == "pipeline.compute_dm":
            adjoined += attrs.get("new", 0)
    draws = calls["pipeline.candidates.next"]
    tv_total = sum(tv_self.values())
    series = ("series.invariant_dimension", "series.poincare_series", "series.to_rational")
    out = {}
    for tag in ("fp", "qq", "dual"):
        out[f"forms.transvectant.calls.{tag}"] = tv_calls[tag]
        out[f"forms.transvectant.self_s.{tag}"] = tv_self[tag]
    out.update(
        {
            "forms.transvectant.ops": ops,
            "forms.transvectant.ns_per_op": tv_total * 1e9 / ops if ops else 0.0,
            "pipeline.vector.calls": calls["pipeline.vector"],
            "pipeline.vector.self_s": self_s["pipeline.vector"],
            "pipeline.candidates.draws": draws,
            "pipeline.candidates.self_s": self_s["pipeline.candidates.next"]
            + self_s["pipeline.candidates.grow"],
            "pipeline.candidates.grow_calls": calls["pipeline.candidates.grow"],
            "pipeline.candidates.accept_ratio": adjoined / draws if draws else 0.0,
            "modlinalg.echelon.rows": rows,
            "modlinalg.echelon.rank_gain": rank_gain,
            "modlinalg.echelon.self_s": self_s["modlinalg.echelon.add_row"]
            + self_s["modlinalg.echelon.add_rows"],
            "modlinalg.rank.calls": calls["modlinalg.rank"],
            "modlinalg.rank.self_s": self_s["modlinalg.rank"],
            "series.calls": sum(calls[s] for s in series),
            "series.self_s": sum(self_s[s] for s in series),
            "nullcone.random_nullform.self_s": self_s["nullcone.random_nullform"],
            "cache.hits": hits,
            "cache.misses": calls["cache.get"] - hits,
            "cache.get.self_s": self_s["cache.get"],
            "cache.flush.self_s": self_s["cache.flush"],
            "trace.unattributed_s": main_s - root_s,
        }
    )
    out["self_s_by_span"] = dict(self_s)
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        for i, span in enumerate(tracer.spans):
            fh.write(json.dumps([i, *span]) + "\n")


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    summary_path, spans_path, cli_argv = argv[0], argv[1], argv[3:]
    import binforms.cli

    tracer = Tracer()
    patched = install(tracer)
    t0 = time.perf_counter()
    code = binforms.cli.main(cli_argv)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    summary = summarize(tracer, main_s)
    t1 = time.perf_counter()
    write_spans(tracer, spans_path)
    summary.update(
        exit_code=code, main_s=main_s, spans=len(tracer.spans),
        write_s=time.perf_counter() - t1, patched=patched,
    )
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
