"""Optional on-disk cache for invariant values at seeded point sets.

Keys are (point-set key, expression text); values are the evaluation vectors
over F_p.  One pickle per point set, written atomically, so repeated CLI runs
(quick suite, then the long membership checks) reuse the expensive basis
evaluations.  Without a cache directory there is no cache object at all
(`open_cache` returns None); each point set's vectors then live only in the
pipeline's own memo.  A file is named by the SHA-256 of its point-set key;
`hashlib` (and with it OpenSSL's libcrypto) loads only when a cache directory
is given, so a run without one never maps it.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

def open_cache(root: Optional[str]) -> Optional[EvalCache]:
    """The cache in `root`, or None when no directory is given."""
    return EvalCache(root) if root else None


class EvalCache:
    def __init__(self, root: str):
        self.root = Path(root)
        self._store: Dict[str, Dict[str, List[int]]] = {}
        self._dirty: Dict[str, bool] = {}

    def _bucket(self, pointset_key: str) -> Dict[str, List[int]]:
        bucket = self._store.get(pointset_key)
        if bucket is None:
            bucket = {}
            path = self._path(pointset_key)
            if path.exists():
                try:
                    with open(path, "rb") as fh:
                        bucket = pickle.load(fh)
                except Exception:
                    bucket = {}
            self._store[pointset_key] = bucket
            self._dirty[pointset_key] = False
        return bucket

    def _path(self, pointset_key: str) -> Path:
        # hashlib maps OpenSSL's libcrypto; only runs given a cache directory need it.
        import hashlib

        digest = hashlib.sha256(pointset_key.encode()).hexdigest()[:24]
        return self.root / f"points-{digest}.pkl"

    def get(self, pointset_key: str, expr_text: str) -> Optional[List[int]]:
        return self._bucket(pointset_key).get(expr_text)

    def put(self, pointset_key: str, expr_text: str, values: List[int]) -> None:
        self._bucket(pointset_key)[expr_text] = list(values)
        self._dirty[pointset_key] = True

    def flush(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        for key, bucket in self._store.items():
            if not self._dirty.get(key):
                continue
            path = self._path(key)
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(bucket, fh)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            self._dirty[key] = False
