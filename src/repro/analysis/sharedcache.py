"""The hunt's trace-analysis cache, shareable across fork workers.

Every hunt creates one :class:`SharedTraceCache`.  A serial hunt uses
it memory-only: a dict keyed by trace fingerprint, so a hit is one
lookup and a miss does no file I/O.  A pool hunt gives the same object
a shared file before forking.  Without it, each worker would pay one
analysis per distinct trace fingerprint, so a workload whose serial hit
rate is 0.90 would drop toward ``1 - workers * distinct / tries`` in a
pool.  The shared file restores the serial hit rate by sharing
*analysis digests* — never live reports — across workers through a
structure every fork-safe process can use:

* an **append-only JSONL file** of ``[fingerprint, racy, digest,
  race_count, certified_races]`` entries, created by the hunt parent
  and inherited by workers through fork;
* a **lock-guarded write path** (one :class:`multiprocessing.Lock`
  serializes appends, each a single flushed ``write()``), so records
  never interleave;
* a **lock-free read path**: a worker that misses the dict reads
  the file tail past its own offset and folds only *complete* lines
  (everything up to the final newline), so a read racing an append sees
  the previous consistent prefix, never a torn record.

Two workers may race to analyze the same fingerprint and both append
it; that is harmless — the detector is a pure function of the trace
(:mod:`repro.trace.fingerprint`), so duplicate entries carry identical
values and the last one folded wins.

The cache stores exactly what the hunt's merge needs (the racy flag,
the report digest, and the race counts) and is deleted with the hunt
that created it; nothing here outlives a single ``hunt_races`` call.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

#: What one cached analysis is: (racy, report digest, race count,
#: certified race count).
CacheValue = Tuple[bool, str, int, int]


class SharedTraceCache:
    """Fingerprint-keyed analysis digests, optionally shared across
    fork workers.

    *local* is the in-process dict (hits never touch the file); *path*
    is the shared JSONL file, ``None`` while the cache is memory-only;
    *lock* guards appends.  ``max_entries`` bounds the dict: on
    overflow it is cleared (a shared file keeps serving refreshed
    entries, so correctness never depends on the bound).
    """

    max_entries = 4096

    def __init__(self) -> None:
        self.path: Optional[str] = None
        self.lock = None
        self.local: Dict[str, CacheValue] = {}
        self._offset = 0  # bytes of the shared file already folded

    def share(self, path: str, lock) -> None:
        """Back the cache with the shared file at *path*, appended under
        *lock*.  The pool parent calls this before forking, so every
        worker inherits the same backend."""
        self.path = path
        self.lock = lock
        self._offset = 0

    def unshare(self) -> None:
        """Delete the shared file at hunt teardown; the cache is
        memory-only again."""
        if self.path is not None:
            remove_cache_file(self.path)
            self.path = None

    # -- read path -----------------------------------------------------
    def get(self, fingerprint: str) -> Optional[CacheValue]:
        """The cached analysis for *fingerprint*, consulting the local
        dict first and, when shared, refreshing from the file on a
        miss."""
        value = self.local.get(fingerprint)
        if value is not None or self.path is None:
            return value
        self._refresh()
        return self.local.get(fingerprint)

    def _refresh(self) -> None:
        """Fold every complete record appended since the last refresh
        into the local dict.  Lock-free: appends are serialized writes,
        so the only hazard is a trailing partial line — stop at the
        last newline and re-read it next time."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except OSError:
            return  # file gone (hunt teardown raced a late worker)
        end = data.rfind(b"\n")
        if end < 0:
            return
        for line in data[: end + 1].splitlines():
            if not line:
                continue
            try:
                fingerprint, racy, digest, races, certified = json.loads(
                    line.decode("utf-8")
                )
            except (ValueError, UnicodeDecodeError):
                continue  # unreadable record: skip, never poison the hunt
            self._store_local(
                fingerprint, (bool(racy), digest, int(races), int(certified))
            )
        self._offset += end + 1

    # -- write path ----------------------------------------------------
    def put(self, fingerprint: str, value: CacheValue) -> None:
        """Record one fresh analysis locally and, when shared, append it
        to the file under the lock."""
        self._store_local(fingerprint, value)
        if self.path is None:
            return
        racy, digest, races, certified = value
        line = json.dumps(
            [fingerprint, bool(racy), digest, int(races), int(certified)],
            separators=(",", ":"),
        ).encode("utf-8") + b"\n"
        try:
            with self.lock:
                with open(self.path, "ab") as fh:
                    fh.write(line)
                    fh.flush()
        except OSError:
            pass  # shared file unavailable: the local dict still serves

    def _store_local(self, fingerprint: str, value: CacheValue) -> None:
        if len(self.local) >= self.max_entries:
            self.local.clear()
        self.local[fingerprint] = value


def create_cache_file(prefix: str = "repro-trace-cache-") -> str:
    """Create the empty shared-cache file and return its path (the
    parent calls this before forking the pool)."""
    import tempfile

    fd, path = tempfile.mkstemp(prefix=prefix, suffix=".jsonl")
    os.close(fd)
    return path


def remove_cache_file(path: str) -> None:
    """Best-effort removal at hunt teardown."""
    try:
        os.unlink(path)
    except OSError:
        pass
