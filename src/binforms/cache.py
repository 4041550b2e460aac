"""Optional on-disk cache for invariant values at seeded point sets.

Keys are (point set, expression text); values are the evaluation vectors
over F_p.  Each point set's bucket is one `.npy` file named by its key and
the format version (`points-v2-9_32003_1_dm_14_1_37.npy` for the key
`9:32003:1:dm:14:1:37`), written atomically, so repeated CLI runs (quick
suite, then the long membership checks) reuse the expensive basis
evaluations.  The file holds three `.npy` arrays, written with `np.save` and
read back from one handle by `np.lib.format.read_array`, which refuses
object arrays by default: the point set's coefficients, the expression
texts as newline-joined ASCII bytes, and one int64 value row per text.

A bucket that fails to load, or whose coefficients, shapes or values do not
fit the run's point set, is discarded with one line on stderr and rewritten
at flush; nothing of it is used.  Hits are read-only int64 rows.  Without a
cache directory there is no cache object at all (`open_cache` returns None);
each point set's vectors then live only in the pipeline's own memo.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

import numpy as np

FORMAT = "v2"


def open_cache(root: Optional[str]) -> Optional[EvalCache]:
    """The cache in `root`, or None when no directory is given."""
    return EvalCache(root) if root else None


class _Bucket:
    """The value rows of one point set, by expression text."""

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self.rows: Dict[str, np.ndarray] = {}
        self.dirty = False


def _stale(points, coeffs: np.ndarray, texts: list, values: np.ndarray) -> Optional[str]:
    """Why a loaded bucket does not fit `points`, or None when it does."""
    if not np.array_equal(coeffs, points.coeffs):
        return "coefficients differ from the run's point set"
    if values.shape != (len(texts), points.count):
        return f"value rows of shape {values.shape}, expected ({len(texts)}, {points.count})"
    if values.dtype != np.int64:
        return f"value rows of dtype {values.dtype}, expected int64"
    if values.size and (values.min() < 0 or values.max() >= points.prime):
        return f"values outside [0, {points.prime})"
    return None


class EvalCache:
    def __init__(self, root: str):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--cache-dir {root!r} is not a usable directory: {exc}") from None
        self._store: Dict[str, _Bucket] = {}

    def _path(self, pointset_key: str) -> Path:
        return self.root / f"points-{FORMAT}-{pointset_key.replace(':', '_')}.npy"

    def _bucket(self, points) -> _Bucket:
        """The bucket of `points` (a `pipeline.PointSet`), loaded on first use."""
        bucket = self._store.get(points.key)
        if bucket is None:
            bucket = self._store[points.key] = self._load(points)
        return bucket

    def _load(self, points) -> _Bucket:
        bucket = _Bucket(points.coeffs)
        path = self._path(points.key)
        try:
            with open(path, "rb") as fh:
                coeffs, text_bytes, values = (
                    np.lib.format.read_array(fh) for _ in range(3)
                )
            texts = text_bytes.tobytes().decode("ascii").split("\n") if text_bytes.size else []
            reason = _stale(points, coeffs, texts, values)
        except FileNotFoundError:
            return bucket
        except (OSError, ValueError, EOFError, MemoryError) as exc:
            # A planted header can ask for any array size; numpy's refusal
            # to allocate it is one more unreadable file.
            reason = f"unreadable ({exc})"
        if reason is not None:
            # Every lookup in a discarded bucket misses, and each computed
            # row is put back, so flush rewrites the file.
            print(f"binforms: discarding cache file {path}: {reason}", file=sys.stderr)
            return bucket
        values.flags.writeable = False
        bucket.rows = dict(zip(texts, values))
        return bucket

    def get(self, points, expr_text: str) -> Optional[np.ndarray]:
        """The read-only value row of `expr_text` at `points`, or None."""
        return self._bucket(points).rows.get(expr_text)

    def put(self, points, expr_text: str, values: np.ndarray) -> None:
        bucket = self._bucket(points)
        bucket.rows[expr_text] = values
        bucket.dirty = True

    def flush(self) -> None:
        for key, bucket in self._store.items():
            if not bucket.dirty:
                continue
            texts = "\n".join(bucket.rows).encode("ascii")
            values = np.array(list(bucket.rows.values()), dtype=np.int64)
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.save(fh, bucket.coeffs)
                    np.save(fh, np.frombuffer(texts, dtype=np.uint8))
                    np.save(fh, values.reshape(len(bucket.rows), bucket.coeffs.shape[0]))
                os.replace(tmp, self._path(key))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            bucket.dirty = False
