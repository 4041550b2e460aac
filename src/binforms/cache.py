"""Optional on-disk record of discovery campaigns, proved again on every read.

A completed discovery campaign writes one JSON file per key (n, prime, seed,
`--points-margin`), atomically, for example `campaign-9_32003_1_10.json`.
It holds the campaign's top degree and, for each degree m up to it with
dim I_m > 0, the point-set attempt the degree settled at and the expression
texts of the generators adjoined there.  A run with the same key and a top
degree no higher replays the file through `pipeline.compute_dm`, the cold
run's own degree routine: products are evaluated and ranked again and each
stored text is fed to the echelon, so the file only proposes candidates and
the rank decides.  A file that stops below the run's top degree is not read;
the cold campaign rewrites it.

A file that does not parse, has the wrong shape or key fields, or lists a
text that is not an invariant of its degree is discarded with one line on
stderr, as is one whose generators do not saturate a degree on replay; the
campaign then runs cold and rewrites it, and stdout never changes.  Only
`json` reads the file.  Files of the earlier value caches (`points-v2-*.npy`,
`points-*.pkl`) are ignored, not deleted.  `EvalCache`, `get` and `flush`
keep the names of that value cache because perfbench's tracer binds them.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .exprs import Expr, expr_from_text, expr_meta, expr_to_text
from .series import invariant_dimension

FORMAT = 1

# degree -> (attempt, generators adjoined at that degree)
Stored = Dict[int, Tuple[int, List[Expr]]]


def _key_fields(n: int, cfg) -> dict:
    return {
        "format": FORMAT, "n": n, "prime": cfg.prime, "seed": cfg.seed,
        "points_margin": cfg.margin_floor,
    }


def _stored(doc, n: int, cfg, top: int) -> Optional[Stored]:
    """The generators of degrees 1..top in a loaded file, or None when the
    file stops below `top`; ValueError says why the file is unusable."""
    if not (isinstance(doc, dict) and isinstance(doc.get("degrees"), dict)
            and isinstance(doc.get("top"), int)):
        raise ValueError("not a campaign file")
    for field, want in _key_fields(n, cfg).items():
        if doc.get(field) != want:
            raise ValueError(f"{field} {doc.get(field)!r} differs from the run's {want!r}")
    if doc["top"] < top:
        return None
    stored: Stored = {}
    for m in range(1, top + 1):
        dim = invariant_dimension(n, m)
        if not dim:
            continue
        entry = doc["degrees"].get(str(m))
        if not isinstance(entry, dict) or set(entry) != {"attempt", "generators"}:
            raise ValueError(f"degree {m} is missing or malformed")
        attempt, texts = entry["attempt"], entry["generators"]
        if attempt not in (1, 2):
            raise ValueError(f"degree {m}: attempt {attempt!r} is not 1 or 2")
        if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)
                and len(texts) <= dim):
            raise ValueError(f"degree {m}: generators are not a list of at most {dim} texts")
        exprs = []
        for text in texts:
            if "@" in text:
                raise ValueError(f"degree {m}: {text[:60]!r} holds a named reference")
            exprs.append(expr_from_text(text, {}))
            if expr_meta(exprs[-1], n) != (0, m):
                raise ValueError(f"degree {m}: {text[:60]!r} is not an invariant of degree {m}")
        stored[m] = (attempt, exprs)
    return stored


class EvalCache:
    """The campaign files of one cache directory."""

    def __init__(self, root: str):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--cache-dir {root!r} is not a usable directory: {exc}") from None

    def _path(self, n: int, cfg) -> Path:
        return self.root / f"campaign-{n}_{cfg.prime}_{cfg.seed}_{cfg.margin_floor}.json"

    def discard(self, n: int, cfg, reason: str) -> None:
        """Report the campaign file of (n, cfg) as unusable; the cold run rewrites it."""
        print(f"binforms: discarding cache file {self._path(n, cfg)}: {reason}", file=sys.stderr)

    def get(self, n: int, cfg, top: int) -> Optional[Stored]:
        """The stored generators of degrees up to `top`, or None when the file
        is missing, stops below `top` or is discarded.  Deep nesting that
        ends json's or the expression parser's recursion is one more unusable
        file."""
        try:
            doc = json.loads(self._path(n, cfg).read_bytes())
        except FileNotFoundError:
            return None
        except (OSError, ValueError, RecursionError) as exc:
            self.discard(n, cfg, f"unreadable ({exc})")
            return None
        try:
            return _stored(doc, n, cfg, top)
        except (ValueError, RecursionError) as exc:
            self.discard(n, cfg, str(exc))
            return None

    def flush(self, n: int, cfg, top: int, table) -> None:
        """Write the campaign of `table`, a `pipeline.DmTable` up to `top`."""
        degrees = {str(m): {"attempt": ev.attempt, "generators": []}
                   for m, ev in table.evidence.items()}
        for rec in table.records:
            degrees[str(rec.degree)]["generators"].append(expr_to_text(rec.expr))
        doc = {**_key_fields(n, cfg), "top": top, "degrees": degrees}
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=1)
            os.replace(tmp, self._path(n, cfg))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
