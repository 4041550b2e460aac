"""Command-line front end.

Subcommands: poincare, ecriture, nullcone test, verify-lemmas, catalog,
eval, basis, hsop (check, membership).  Each command computes one `Result`:
its JSON payload, its text lines, its csv rows where it offers csv, and its
exit code.  `main` prints that result through one writer, in the format that
`--format` (or `--json`) chose, so text and csv render what the JSON holds.

Exit codes: 0 success; 1 mathematically meaningful mismatch (a refuted
candidate, an inconclusive campaign, a failed lemma transcription); 2 usage
errors; 3 unexpected crashes.  JSON output depends only on argv and the seed,
so golden-file comparisons are byte-stable.
"""

from __future__ import annotations

import gc
import os

# Before numpy loads: an idle OpenBLAS worker then sleeps at once instead of spinning.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

# The objects the imports below allocate live as long as the process, so
# cyclic collection pauses while they run, and the heap they built is then
# frozen out of every later collection.  Collection resumes only if the
# importer had it on; the finally ends the pause even when an import fails.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import json
    import sys
    from fractions import Fraction
    from math import prod
    from typing import List, NamedTuple, Optional, Sequence

    from .exprs import expr_from_text, expr_meta, expr_prefactor
    from .forms import BinaryForm
    from .nullcone import nullform_report
    from .pipeline import (
        BasisRecord,
        PipelineConfig,
        SaturationError,
        campaign_top,
        certify_hsop,
        find_basic_invariants,
        ideal_membership_dim,
        membership_basis,
    )
    from .rings import is_prime, residue
    # After `pipeline`, which loads numpy: importing `batch` ahead of it raised
    # the peak RSS of `basis --n 9 --max-degree 12` by 0.7 MB.
    from .batch import BatchEvaluator
    from .series import ecriture_minimale_search, poincare_series
finally:
    gc.freeze()
    if _collecting:
        gc.enable()

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


class Result(NamedTuple):
    """What one command prints: a JSON payload, text lines, and csv rows for
    the commands that offer csv.  `code` is the process exit code."""

    payload: dict
    text: List[str]
    csv: Optional[List[Sequence]] = None
    code: int = EXIT_OK


def _write(result: Result, fmt: str) -> int:
    """Print `result` on stdout in `fmt`; returns its exit code."""
    if fmt == "json":
        sys.stdout.write(json.dumps(result.payload, indent=2) + "\n")
    elif fmt == "csv":
        # csv: only the four commands that offer --format csv write it.
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows(result.csv)
    else:
        sys.stdout.write("".join(line + "\n" for line in result.text))
    return result.code


def open_cache(root: Optional[str]):
    """The campaign cache in `root`, or None when no directory is given; the
    `cache` module loads only when one is."""
    if not root:
        return None
    from . import cache

    return cache.EvalCache(root)


def parse_form_literal(text: str, a_convention: bool = False) -> BinaryForm:
    """Parse `order: c0,c1,...,cn` into Fraction coefficients; they may be fractions."""
    head, _, tail = text.partition(":")
    if not tail:
        raise ValueError("form literal must look like 'order: c0,c1,...,cn'")
    order = int(head.strip())
    if order < 0:
        raise ValueError(f"form order {order} is negative")
    parts = [part.strip() for part in tail.split(",")]
    if len(parts) != order + 1:
        raise ValueError(f"order {order} needs {order + 1} coefficients, got {len(parts)}")
    coeffs = []
    for i, part in enumerate(parts):
        try:
            coeffs.append(Fraction(part))
        except ZeroDivisionError:
            raise ValueError(f"coefficient c{i} = {part} has a zero denominator") from None
    if a_convention:
        return BinaryForm.from_a_convention(order, coeffs)
    return BinaryForm(order, coeffs)


def print_form_literal(f: BinaryForm) -> str:
    return f"{f.order}: " + ",".join(str(c) for c in f.coeffs)


def _cmd_poincare(args) -> Result:
    dims = dict(enumerate(poincare_series(args.n, args.max_degree)))
    text = [f"invariant dimensions for order {args.n}, degrees 0..{args.max_degree}:"]
    return Result(
        {"n": args.n, "max_degree": args.max_degree, "dims": dims},
        text + [f"  {d}: {dim}" for d, dim in dims.items() if dim],
        [("degree", "dim"), *dims.items()],
    )


def _cmd_ecriture(args) -> Result:
    rows = ecriture_minimale_search(args.n)
    by_numerator = sorted(rows, key=lambda r: r.numerator_degree)
    product = prod(rows[0].degrees) if rows else "-"
    entries = [
        {"degrees": r.degrees, "numerator_degree": r.numerator_degree, "numerator": r.numerator}
        for r in rows
    ]
    return Result(
        {"n": args.n, "rows": entries},
        [f"minimal ecritures for order {args.n} (product {product}):"]
        + [f"  numerator degree {r.numerator_degree}: denominator degrees {r.degrees}"
           for r in by_numerator],
        [("numerator_degree", "degrees")]
        + [(r.numerator_degree, " ".join(map(str, r.degrees))) for r in by_numerator],
    )


def _cmd_nullcone_test(args) -> Result:
    form = parse_form_literal(args.form, args.a_convention)
    if form.order != args.n:
        raise ValueError(f"form literal has order {form.order}, --n says {args.n}")
    payload = nullform_report(form)._asdict()
    return Result(
        payload,
        [f"{key}: {v if isinstance(v, str) else json.dumps(v)}" for key, v in payload.items()],
    )


def _cmd_verify_lemmas(args) -> Result:
    # The lattice checks of the lemmas: only verify-lemmas runs them.
    from .lemmas import verify_lemma_expansions

    checks = verify_lemma_expansions()
    text = [
        f"[{'ok  ' if c.ok else 'FAIL'}] {c.lemma}: {c.label}"
        + (f"  ({c.detail})" if c.detail else "")
        for c in checks
    ]
    text.append(f"{sum(c.ok for c in checks)}/{len(checks)} checks passed")
    ok = all(c.ok for c in checks)
    payload = {"ok": ok, "checks": [c._asdict() for c in checks]}
    return Result(payload, text, code=EXIT_OK if ok else EXIT_MISMATCH)


def _cmd_catalog(args) -> Result:
    # Only catalog, eval and hsop load the covariant catalog; basis never does.
    from .catalog import catalog_for

    header = ("name", "order", "degree", "hsop", "expr")
    rows = [
        (e.name, e.order, e.degree, e.hsop, e.text)
        for e in catalog_for(args.n).entries.values()
    ]
    text = [
        f"{name:7s} order {order:2d} degree {degree:2d}{' *' if hsop else ''}  {expr}"
        for name, order, degree, hsop, expr in rows
    ]
    return Result(
        {"n": args.n, "entries": [dict(zip(header, row)) for row in rows]},
        text + ["(* = member of the flagged parameter system)"],
        [header] + [(name, order, degree, int(hsop), expr)
                    for name, order, degree, hsop, expr in rows],
    )


def _cmd_eval(args) -> Result:
    p = args.prime
    if p is not None and (p == 2 or not is_prime(p)):
        raise ValueError(f"modulus {p} is not an odd prime")
    form = parse_form_literal(args.form)
    # With --prime each given coefficient maps to F_p before the --a-convention
    # binomials multiply it, so a denominator p divides is refused as given.
    coeffs = form.coeffs if p is None else [residue(c, p) for c in form.coeffs]
    if args.a_convention:
        coeffs = BinaryForm.from_a_convention(form.order, coeffs).coeffs
    # Only catalog, eval and hsop load the covariant catalog; basis never does.
    from .catalog import ORDERS, catalog_for

    # An @name in --expr is an entry of the catalog of --n, if that order has one.
    names = catalog_for(args.n).defs if args.n in ORDERS else {}
    try:
        expr = expr_from_text(args.expr, names)
        order, degree = expr_meta(expr, args.n)
        if form.order != args.n:
            raise ValueError(f"form has order {form.order}, expected {args.n}")
        pref = expr_prefactor(expr, args.n, p)
        (exact,) = BatchEvaluator([coeffs], prime=None).eval(expr)
    except RecursionError:
        # Parsing and every walk of the tree recurse once per level.
        raise ValueError("--expr is nested too deeply") from None
    value = [c * pref if p is None else residue(c * pref, p) for c in exact[0]]
    out = str(value[0]) if order == 0 else print_form_literal(BinaryForm(order, value))
    return Result(
        {"n": args.n, "expr": args.expr, "order": order, "degree": degree, "value": out},
        [out],
    )


def _cmd_basis(args) -> Result:
    cfg = PipelineConfig(args.prime, args.seed, args.margin)
    cfg.validate(args.n, campaign_top(args.n, args.max_degree))
    evidence, _ = find_basic_invariants(args.n, args.max_degree, cfg, open_cache(args.cache_dir))
    d = {ev.degree: ev.d for ev in evidence if ev.d}
    payload = {
        "n": args.n, "prime": cfg.prime, "seed": cfg.seed, "max_degree": args.max_degree,
        "d": d, "total": sum(d.values()),
        # `attempt` names the point set for the cache; the JSON leaves it out.
        "evidence": [
            {key: value for key, value in ev._asdict().items() if key != "attempt"}
            for ev in evidence
        ],
    }
    text = [
        f"basic invariants for order {args.n} through degree {args.max_degree} "
        f"(prime {cfg.prime}, seed {cfg.seed}):",
        "  m  : " + "  ".join(f"{m:4d}" for m in d),
        "  d_m: " + "  ".join(f"{v:4d}" for v in d.values()),
        f"  total {payload['total']}",
    ]
    return Result(payload, text, [("m", "d_m"), *d.items()])


def _named_set(n: int, selector: str) -> List[BasisRecord]:
    # Only catalog, eval and hsop load the covariant catalog; basis never does.
    from .catalog import catalog_for

    cat = catalog_for(n)
    if selector == "thm":
        names = [e.name for e in cat.hsop()]
    elif selector == "hprime" and n == 9:
        names = ["j_4", "A_4", "B_8", "D_10", "j_12", "B_12", "j_14", "j_16"]
    else:
        names = [s.strip() for s in selector.split(",") if s.strip()]
        if not names:
            raise ValueError(f"--set names no invariant, got {selector!r}")
    out = []
    for name in names:
        if name not in cat.entries:
            raise ValueError(f"unknown catalog name {name!r} for n = {n}")
        entry = cat[name]
        if entry.order != 0:
            raise ValueError(f"{name} is a covariant of order {entry.order}, not an invariant")
        out.append(BasisRecord(name, entry.degree, entry.expr))
    return out


def _cmd_hsop_check(args) -> Result:
    degrees = _parse_degree_list(args.membership_degrees, "--membership-degrees")
    cfg = PipelineConfig(args.prime, args.seed, args.margin)
    cfg.validate(args.n, max(degrees, default=0))
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    report = certify_hsop(
        _named_set(args.n, args.set), args.n, cfg, membership_degrees=degrees,
        cache=open_cache(args.cache_dir), nullcone_trials=args.trials,
    )
    payload = {**report._asdict(), "membership": [r._asdict() for r in report.membership]}
    text = [f"candidate set {report.set} (degrees {report.degrees})", f"verdict: {report.verdict}"]
    text += [f"  {key}: {payload[key]}"
             for key in ("jacobian_ranks", "nullform_vanishing", "generic_all_vanish")]
    text += [
        f"  membership degree {r.degree}: rank {r.rank} of dim {r.dim}"
        f" (a_i = {r.a_coefficient}, consistent = {r.consistent})"
        for r in report.membership
    ]
    text += [f"  ! {reason}" for reason in report.reasons]
    certified = report.verdict == "certified-at-sampling-level"
    return Result(payload, text, code=EXIT_OK if certified else EXIT_MISMATCH)


def _cmd_hsop_membership(args) -> Result:
    degrees = _parse_degree_list(args.degrees, "--degrees")
    if not degrees:
        raise ValueError("--degrees is required")
    cfg = PipelineConfig(args.prime, args.seed, args.margin)
    cfg.validate(args.n, max(degrees))
    candidates = _named_set(args.n, args.set)
    need, basis = membership_basis(candidates, degrees, args.n, cfg, open_cache(args.cache_dir))
    results = [ideal_membership_dim(candidates, basis, i, args.n, cfg) for i in degrees]
    payload = {
        "n": args.n, "set": [h.name for h in candidates], "prime": cfg.prime,
        "seed": cfg.seed, "basis_max_degree": need,
        "membership": [r._asdict() for r in results],
    }
    text = [
        f"degree {r.degree}: dim {r.dim}, rank {r.rank} -> "
        + ("contained" if r.certifies_containment else f"rank {r.rank}")
        + f" (rows {r.rows_used}, points {r.points})"
        for r in results
    ]
    ok = all(r.consistent for r in results)
    return Result(payload, text, code=EXIT_OK if ok else EXIT_MISMATCH)


def _parse_degree_list(text: Optional[str], option: str) -> List[int]:
    """The distinct degrees of a comma-separated list, ascending."""
    degrees = set()
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        try:
            degree = int(part)
        except ValueError:
            degree = None
        if degree is None or degree < 0:
            raise ValueError(f"{option} takes degrees >= 0, got {part!r}")
        degrees.add(degree)
    return sorted(degrees)


def _add_common(sub, *, needs_n=True, compute=False, csv=False):
    if needs_n:
        sub.add_argument("--n", type=int, required=True, help="order of the base form")
    formats = ("text", "json", "csv") if csv else ("text", "json")
    sub.add_argument("--format", dest="fmt", choices=formats, default="text")
    sub.add_argument("--json", dest="fmt", action="store_const", const="json")
    if compute:
        sub.add_argument("--prime", type=int, default=32003)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--points-margin", type=int, default=10, dest="margin")
        sub.add_argument("--cache-dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binforms",
        description="Invariants of binary forms: series, catalogs, nullcone, "
        "basic-invariant discovery, and parameter-system certification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("poincare", help="invariant dimensions by degree")
    _add_common(sp, csv=True)
    sp.add_argument("--max-degree", type=int, required=True)
    sp.set_defaults(func=_cmd_poincare)

    sp = subs.add_parser("ecriture", help="minimal-product rational forms of the series")
    _add_common(sp, csv=True)
    sp.set_defaults(func=_cmd_ecriture)

    sp = subs.add_parser("nullcone", help="nullform tests")
    nsubs = sp.add_subparsers(dest="subcommand", required=True)
    spt = nsubs.add_parser("test", help="multiplicity and nullform membership")
    _add_common(spt)
    spt.add_argument("--form", required=True, help="form literal 'order: c0,...,cn'")
    spt.add_argument("--a-convention", action="store_true")
    spt.set_defaults(func=_cmd_nullcone_test)
    sp = subs.add_parser("verify-lemmas", help="recompute the displayed lemma expansions")
    _add_common(sp, needs_n=False)
    sp.set_defaults(func=_cmd_verify_lemmas)

    sp = subs.add_parser("catalog", help="named covariants and invariants")
    _add_common(sp, csv=True)
    sp.set_defaults(func=_cmd_catalog)

    sp = subs.add_parser("eval", help="evaluate a covariant expression at a form")
    _add_common(sp)
    sp.add_argument("--expr", required=True)
    sp.add_argument("--form", required=True)
    sp.add_argument("--a-convention", action="store_true")
    sp.add_argument(
        "--prime", type=int, default=None, help="evaluate over F_p (default: rationals)"
    )
    sp.set_defaults(func=_cmd_eval)

    sp = subs.add_parser("basis", help="discover basic invariants degree by degree")
    _add_common(sp, compute=True, csv=True)
    sp.add_argument("--max-degree", type=int, required=True)
    sp.set_defaults(func=_cmd_basis)

    sp = subs.add_parser("hsop", help="parameter-system certification")
    hsubs = sp.add_subparsers(dest="subcommand", required=True)
    spc = hsubs.add_parser("check", help="certify a candidate set at sampling level")
    _add_common(spc, compute=True)
    spc.add_argument("--set", default="thm", help="'thm', 'hprime', or comma-separated names")
    spc.add_argument(
        "--membership-degrees", default=None,
        help="comma-separated degrees at which to compare ideal-membership ranks "
        "with the Poincare numerator (default: none)",
    )
    spc.add_argument(
        "--trials", type=int, default=100,
        help="random nullforms, and as many generic forms, to sample for the "
        "nullcone criterion; 0 skips it, leaving the verdict inconclusive "
        "(default: 100)",
    )
    spc.set_defaults(func=_cmd_hsop_check)
    spm = hsubs.add_parser("membership", help="graded ideal-membership ranks")
    _add_common(spm, compute=True)
    spm.add_argument("--set", default="thm")
    spm.add_argument("--degrees", required=True)
    spm.set_defaults(func=_cmd_hsop_membership)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _write(args.func(args), args.fmt)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_USAGE
    except SaturationError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as exc:  # pragma: no cover
        print(f"unexpected failure: {exc!r}", file=sys.stderr)
        return EXIT_CRASH


def run() -> None:
    """Process entry point: `python -m binforms.cli` and the `binforms` script.

    Runs `main()` on `sys.argv`, freezes the heap with `gc.freeze()`, then
    exits with main's code, so the cyclic collections of interpreter
    shutdown skip every object still alive.  Output flushing, atexit
    handlers and module teardown still run; only cyclic garbage among
    frozen objects is never finalized, so no file write may wait for a
    finalizer.  The imports' heap is frozen when this module loads (the
    block above its imports); this second freeze adds what `main()`
    allocated.  In-process callers use `main()`, which freezes nothing more.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
