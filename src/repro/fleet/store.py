"""Content-addressed result store for fleet cells.

Each cell's artifact is persisted as canonical JSON under its cache
key: ``objects/<key[:2]>/<key>.json``. The key is a SHA-256 over every
input the cell depends on (see :mod:`repro.fleet.job`), so the store
never needs invalidation logic — a changed input is a different key.

The objects directory is the whole store: there is no index beside it,
so there is nothing to lock, reconcile or lose in a crash.

- **Atomic writes.** Every object lands through :func:`write_atomic`
  (temp file, then ``os.replace``), so a reader only ever sees a
  complete document. Two writers racing on one key write the same
  bytes (the key fixes the content), so last-replace-wins is harmless.
- **Recency is the object's mtime.** ``get`` stamps it, and ``gc``
  evicts least-recently-used objects first (ties in key order) until
  the store fits a bound. Eviction only ever costs recompute, never
  correctness: the scheduler treats a missing key as a cold cell.
- **A corrupt object is a miss.** ``get`` unlinks an object it cannot
  parse, so the cell is recomputed rather than found again and again.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path

__all__ = ["ResultStore", "write_atomic"]

_OBJECTS = "objects"

# Disambiguates concurrent writes to one target from one process (the
# controller and an inline worker share a pid; store instances and
# threads share a root); the pid disambiguates across processes.
_TMP_SEQ = itertools.count()


def write_atomic(path: Path, text: str) -> None:
    """Write *text* to *path* through a same-directory temp file and
    ``os.replace``: readers never see a torn file.

    The temp name (``<name>.tmp-<pid>-<n>``) must NOT end in ``.json``:
    the store and every queue/claimed/done scan glob ``*.json``, and a
    kill -9 between write and replace must leave only debris those
    scans never see.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}-{next(_TMP_SEQ)}"
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class ResultStore:
    """Content-addressed JSON store keyed by cell cache key."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        (self.root / _OBJECTS).mkdir(parents=True, exist_ok=True)

    def _object_path(self, key: str) -> Path:
        return self.root / _OBJECTS / key[:2] / f"{key}.json"

    def _scan(self) -> list[tuple[int, str, int]]:
        """``(mtime_ns, key, size)`` of every object on disk."""
        entries = []
        for path in (self.root / _OBJECTS).glob("*/*.json"):
            try:
                st = path.stat()
            except FileNotFoundError:
                continue  # evicted mid-scan by another process
            entries.append((st.st_mtime_ns, path.stem, st.st_size))
        return entries

    def put(self, key: str, payload: dict) -> None:
        """Persist one cell result under its cache key, atomically."""
        write_atomic(
            self._object_path(key), json.dumps(payload, indent=2, sort_keys=True)
        )

    def get(self, key: str) -> dict | None:
        """Fetch one cell result; ``None`` on a miss. A hit stamps the
        object's recency; an object that does not parse is deleted."""
        path = self._object_path(key)
        try:
            payload = json.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except ValueError:
            path.unlink(missing_ok=True)
            return None
        # lint: allow(CLK003) LRU recency stamp on a store file, never artifact data
        now = time.time_ns()
        try:
            os.utime(path, ns=(now, now))
        except FileNotFoundError:
            pass  # evicted by a concurrent gc after the read
        return payload

    def contains(self, key: str) -> bool:
        return self._object_path(key).is_file()

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self._object_path(key))
        except FileNotFoundError:
            return False
        return True

    def keys(self) -> tuple[str, ...]:
        return tuple(sorted(key for _, key, _ in self._scan()))

    def stats(self) -> dict[str, int]:
        entries = self._scan()
        return {
            "objects": len(entries),
            "bytes": sum(size for _, _, size in entries),
        }

    def gc(self, max_bytes: int) -> int:
        """Evict least-recently-used objects until the store fits
        *max_bytes*. Returns how many this call unlinked."""
        entries = sorted(self._scan())
        total = sum(size for _, _, size in entries)
        evicted = 0
        for _, key, size in entries:
            if total <= max_bytes:
                break
            total -= size
            evicted += self.delete(key)
        return evicted
