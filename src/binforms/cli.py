"""Command-line front end.

Subcommands: poincare, ecriture, nullcone test, verify-lemmas, catalog,
eval, basis, hsop (check, membership).

Exit codes: 0 success; 1 mathematically meaningful mismatch (a refuted
candidate, an inconclusive campaign, a failed lemma transcription); 2 usage
errors; 3 unexpected crashes.  JSON output depends only on argv and the seed,
so golden-file comparisons are byte-stable.
"""

from __future__ import annotations

import gc

# The objects the imports below allocate live as long as the process, so
# cyclic collection pauses while they run, and the heap they built is then
# frozen out of every later collection.  Collection resumes only if the
# importer had it on; the finally ends the pause even when an import fails.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import io
    import json
    import sys
    from fractions import Fraction
    from typing import List, Optional, Sequence, Tuple

    from .exprs import Evaluator, expr_from_text, expr_meta, expr_to_text
    from .forms import BinaryForm
    from .nullcone import is_nullform, root_multiplicity_max, verify_lemma_expansions
    from .pipeline import (
        PipelineConfig,
        SaturationError,
        certify_hsop,
        find_basic_invariants,
        ideal_membership_dim,
    )
    from .rings import QQ, PrimeField
    from .series import SEED_DEGREES, ecriture_minimale_search, poincare_series
finally:
    gc.freeze()
    if _collecting:
        gc.enable()

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


def open_cache(root: Optional[str]):
    """`cache.open_cache(root)`; the `cache` module loads only when a directory is given."""
    if not root:
        return None
    from . import cache

    return cache.open_cache(root)


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_csv(rows: Sequence[Sequence]) -> None:
    # csv: only the four commands that offer --format csv write it.
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())


def parse_form_literal(text: str, ring, a_convention: bool = False) -> BinaryForm:
    """Parse `order: c0,c1,...,cn`; coefficients may be fractions."""
    head, _, tail = text.partition(":")
    if not tail:
        raise ValueError("form literal must look like 'order: c0,c1,...,cn'")
    order = int(head.strip())
    raw = [Fraction(part.strip()) for part in tail.split(",")]
    if len(raw) != order + 1:
        raise ValueError(f"order {order} needs {order + 1} coefficients, got {len(raw)}")
    coeffs = [ring.from_fraction(c) for c in raw]
    if a_convention:
        return BinaryForm.from_a_convention(ring, order, coeffs)
    return BinaryForm(ring, order, coeffs)


def print_form_literal(f: BinaryForm) -> str:
    return f"{f.order}: " + ",".join(str(c) for c in f.coeffs)


def _cmd_poincare(args) -> int:
    table = poincare_series(args.n, args.max_degree)
    if args.fmt == "json":
        _emit_json(
            {
                "n": args.n,
                "max_degree": args.max_degree,
                "dims": {str(d): table.dims[d] for d in range(args.max_degree + 1)},
            }
        )
    elif args.fmt == "csv":
        _emit_csv([["degree", "dim"]] + [[d, table.dims[d]] for d in range(args.max_degree + 1)])
    else:
        print(f"invariant dimensions for order {args.n}, degrees 0..{args.max_degree}:")
        for d in range(args.max_degree + 1):
            if table.dims[d]:
                print(f"  {d}: {table.dims[d]}")
    return EXIT_OK


def _cmd_ecriture(args) -> int:
    if args.n not in SEED_DEGREES:
        known = ", ".join(str(n) for n in sorted(SEED_DEGREES))
        raise ValueError(
            f"ecriture has a built-in seed degree sequence only for n = {known}; "
            f"got n = {args.n}"
        )
    rows = ecriture_minimale_search(args.n)
    payload = {
        "n": args.n,
        "rows": [
            {
                "degrees": list(r.degrees),
                "numerator_degree": r.numerator_degree,
                "numerator": list(r.numerator),
            }
            for r in rows
        ],
    }
    if args.fmt == "json":
        _emit_json(payload)
    elif args.fmt == "csv":
        table = [["numerator_degree", "degrees"]]
        for r in sorted(rows, key=lambda r: r.numerator_degree):
            table.append([r.numerator_degree, " ".join(str(d) for d in r.degrees)])
        _emit_csv(table)
    else:
        print(f"minimal ecritures for order {args.n} (product {rows[0].product if rows else '-'}):")
        for r in sorted(rows, key=lambda r: r.numerator_degree):
            print(f"  numerator degree {r.numerator_degree}: denominator degrees {r.degrees}")
    return EXIT_OK


def _cmd_nullcone_test(args) -> int:
    form = parse_form_literal(args.form, QQ, args.a_convention)
    if form.order != args.n:
        raise ValueError(f"form literal has order {form.order}, --n says {args.n}")
    if form.is_zero():
        payload = {"multiplicity": None, "is_nullform": True, "witness": "zero form"}
    else:
        report = root_multiplicity_max(form)
        payload = {
            "multiplicity": report.max_multiplicity,
            "is_nullform": is_nullform(form),
            "witness": report.witness,
        }
    if args.fmt == "json":
        _emit_json(payload)
    else:
        print(payload)
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    report = verify_lemma_expansions()
    if args.fmt == "json":
        _emit_json(
            {
                "ok": report.ok,
                "checks": [
                    {"lemma": c.lemma, "label": c.label, "ok": c.ok, "detail": c.detail}
                    for c in report.checks
                ],
            }
        )
    else:
        for c in report.checks:
            mark = "ok  " if c.ok else "FAIL"
            print(f"[{mark}] {c.lemma}: {c.label}" + (f"  ({c.detail})" if c.detail else ""))
        print(f"{sum(c.ok for c in report.checks)}/{len(report.checks)} checks passed")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_catalog(args) -> int:
    # The covariant catalog: only catalog, eval and hsop resolve names; basis never does.
    from .catalog import catalog_for

    cat = catalog_for(args.n)
    rows = [
        {
            "name": e.name,
            "order": e.order,
            "degree": e.degree,
            "hsop": e.hsop,
            "expr": expr_to_text(e.expr),
        }
        for e in cat.entries.values()
    ]
    if args.fmt == "json":
        _emit_json({"n": args.n, "entries": rows})
    elif args.fmt == "csv":
        _emit_csv(
            [["name", "order", "degree", "hsop", "expr"]]
            + [[r["name"], r["order"], r["degree"], int(r["hsop"]), r["expr"]] for r in rows]
        )
    else:
        for r in rows:
            star = " *" if r["hsop"] else ""
            print(f"{r['name']:7s} order {r['order']:2d} degree {r['degree']:2d}{star}  {r['expr']}")
        print("(* = member of the flagged parameter system)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    ring = QQ if args.prime is None else PrimeField(args.prime)
    form = parse_form_literal(args.form, ring, args.a_convention)
    expr = expr_from_text(args.expr)
    # The covariant catalog: only catalog, eval and hsop resolve names; basis never does.
    from .catalog import catalog_for

    cat = catalog_for(args.n) if args.n in (2, 3, 6, 7, 9) else None
    defs = cat.defs if cat else {}
    order, degree = expr_meta(expr, args.n, defs)
    if form.order != args.n:
        raise ValueError(f"form has order {form.order}, expected {args.n}")
    value = Evaluator(form, defs).eval(expr)
    if order == 0:
        out = str(value.scalar())
    else:
        out = print_form_literal(value)
    if args.fmt == "json":
        _emit_json(
            {"n": args.n, "expr": args.expr, "order": order, "degree": degree, "value": out}
        )
    else:
        print(out)
    return EXIT_OK


def _cmd_basis(args) -> int:
    cfg = PipelineConfig(args.prime, args.seed, args.margin)
    table = find_basic_invariants(args.n, args.max_degree, cfg, open_cache(args.cache_dir))
    nonzero = table.nonzero()
    if args.fmt == "json":
        _emit_json(
            {
                "n": args.n,
                "prime": cfg.prime,
                "seed": cfg.seed,
                "max_degree": args.max_degree,
                "d": {str(m): d for m, d in nonzero.items()},
                "total": table.total(),
                "evidence": [
                    {
                        "degree": ev.degree,
                        "dim": ev.dim,
                        "products": ev.n_products,
                        "product_rank": ev.product_rank,
                        "d": ev.d,
                        "points": ev.points,
                    }
                    for _, ev in sorted(table.evidence.items())
                ],
            }
        )
    elif args.fmt == "csv":
        _emit_csv([["m", "d_m"]] + [[m, d] for m, d in nonzero.items()])
    else:
        print(f"basic invariants for order {args.n} through degree {args.max_degree} "
              f"(prime {cfg.prime}, seed {cfg.seed}):")
        print("  m  : " + "  ".join(f"{m:4d}" for m in nonzero))
        print("  d_m: " + "  ".join(f"{d:4d}" for d in nonzero.values()))
        print(f"  total {table.total()}")
    return EXIT_OK


def _named_set(n: int, selector: str) -> List[Tuple[str, object, int]]:
    # The covariant catalog: only catalog, eval and hsop resolve names; basis never does.
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
        out.append((name, cat.closed(name), entry.degree))
    return out


def _basis_degree(candidates, degrees: Sequence[int]) -> int:
    """The degree the basis must reach for membership rows at `degrees`.

    A degree-i row is h * (a basis monomial of degree i - deg h), so the
    basis is needed up to max(degrees) minus the smallest candidate degree;
    degrees below that smallest degree need no basis at all.
    """
    return max(0, max(degrees) - min(d for _, _, d in candidates))


def _membership_payload(res) -> dict:
    return {
        "degree": res.degree,
        "dim": res.dim,
        "rank": res.achieved_rank,
        "a_coefficient": res.a_coefficient,
        "expected_ideal_dim": res.expected_ideal_dim,
        "rows_used": res.rows_used,
        "points": res.points,
        "certifies_containment": res.certifies_containment,
        "consistent": res.consistent,
    }


def _cmd_hsop_check(args) -> int:
    degrees = _parse_degree_list(args.membership_degrees, "--membership-degrees")
    cfg = PipelineConfig(args.prime, args.seed, args.margin)
    cfg.validate(args.n, max(degrees, default=0))
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    cache = open_cache(args.cache_dir)
    candidates = _named_set(args.n, args.set)
    basis = None
    if degrees:
        need = _basis_degree(candidates, degrees)
        basis = find_basic_invariants(args.n, need, cfg, cache).records
    report = certify_hsop(
        candidates, args.n, cfg, membership_degrees=degrees, basis=basis,
        nullcone_trials=args.trials,
    )
    payload = {
        "n": report.n,
        "set": list(report.names),
        "degrees": list(report.degrees),
        "verdict": report.verdict,
        "reasons": list(report.reasons),
        "jacobian_ranks": list(report.jacobian_ranks),
        "jacobian_required": report.jacobian_required,
        "nullform_vanishing": (
            f"{report.vanish.nullform_all_vanish}/{report.vanish.nullform_trials}"
            if report.vanish
            else None
        ),
        "generic_all_vanish": report.vanish.generic_all_vanish if report.vanish else None,
        "membership": [_membership_payload(r) for r in report.membership],
        "prime": report.prime,
        "seed": report.seed,
    }
    if args.fmt == "json":
        _emit_json(payload)
    else:
        print(f"candidate set {payload['set']} (degrees {payload['degrees']})")
        print(f"verdict: {report.verdict}")
        for key in ("jacobian_ranks", "nullform_vanishing", "generic_all_vanish"):
            print(f"  {key}: {payload[key]}")
        for m in payload["membership"]:
            print(
                f"  membership degree {m['degree']}: rank {m['rank']} of dim {m['dim']}"
                f" (a_i = {m['a_coefficient']}, consistent = {m['consistent']})"
            )
        for reason in report.reasons:
            print(f"  ! {reason}")
    return EXIT_OK if report.verdict == "certified-at-sampling-level" else EXIT_MISMATCH


def _cmd_hsop_membership(args) -> int:
    degrees = _parse_degree_list(args.degrees, "--degrees")
    if not degrees:
        raise ValueError("--degrees is required")
    cfg = PipelineConfig(args.prime, args.seed, args.margin)
    cfg.validate(args.n, max(degrees))
    cache = open_cache(args.cache_dir)
    candidates = _named_set(args.n, args.set)
    need = _basis_degree(candidates, degrees)
    table = find_basic_invariants(args.n, need, cfg, cache)
    results = [ideal_membership_dim(candidates, table.records, i, args.n, cfg) for i in degrees]
    payload = {
        "n": args.n,
        "set": [name for name, _, _ in candidates],
        "prime": cfg.prime,
        "seed": cfg.seed,
        "basis_max_degree": need,
        "membership": [_membership_payload(r) for r in results],
    }
    ok = all(r.consistent for r in results)
    if args.fmt == "json":
        _emit_json(payload)
    else:
        for m in payload["membership"]:
            verdict = "contained" if m["certifies_containment"] else f"rank {m['rank']}"
            print(
                f"degree {m['degree']}: dim {m['dim']}, rank {m['rank']} -> {verdict}"
                f" (rows {m['rows_used']}, points {m['points']})"
            )
    return EXIT_OK if ok else EXIT_MISMATCH


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
    sp.add_argument("--prime", type=int, default=None, help="evaluate over F_p (default: rationals)")
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
        return args.func(args)
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
