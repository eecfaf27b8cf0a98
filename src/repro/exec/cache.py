"""Content-addressed on-disk cache for sweep-cell results.

Entries live under ``.repro_cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable or the ``root`` argument),
sharded by the first two hex digits of the key.  Each entry is a
checksummed pickle: a corrupted, truncated or unreadable file is
counted as an *invalidation* and treated as a miss — the sweep simply
recomputes the cell and overwrites the bad entry.

The cache is purely content-addressed: keys already encode the code
version (see :func:`repro.exec.hashing.code_salt`), so there is no
expiry logic; ``clear()`` (or ``make clean-cache``) drops everything.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

_MAGIC = b"REPROCACHE1\n"
_DIGEST_BYTES = 32
#: temp-file numbers shared by every cache in the process, so two
#: instances on one root never race for the same ``.tmp-<pid>-<n>``
_TMP_SEQ = itertools.count()
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL


@dataclass
class CacheStats:
    """Hit/miss accounting for one sweep (or one cache lifetime)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: corrupted / truncated / unpicklable entries discarded as misses
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_line(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"stores={self.stores} invalidations={self.invalidations}"
        )


@dataclass
class CacheEntry:
    hit: bool
    value: Any = None
    #: raw pickled payload (byte-identical across replays of a key)
    payload: Optional[bytes] = None


@dataclass
class ResultCache:
    """Store/retrieve pickled results keyed by content hash."""

    root: Path = field(default_factory=lambda: Path(
        os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    ))
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        # put() runs once per executed cell; plain strings keep
        # pathlib out of it
        self._root_str = os.fspath(self.root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> CacheEntry:
        """Look up ``key``; corruption of any kind degrades to a miss."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return CacheEntry(hit=False)
        payload = self._verify(raw)
        if payload is None:
            self.stats.invalidations += 1
            self.stats.misses += 1
            self._discard(path)
            return CacheEntry(hit=False)
        try:
            value = pickle.loads(payload)
        # unpickling a (checksum-valid but stale/foreign) entry can raise
        # nearly anything — AttributeError, ImportError, UnpicklingError —
        # and every one of them must degrade to a cache miss; no
        # simulation runs inside this frame, so no SimulationError can be
        # swallowed here.
        except Exception:  # simlint: disable=SIM006
            self.stats.invalidations += 1
            self.stats.misses += 1
            self._discard(path)
            return CacheEntry(hit=False)
        self.stats.hits += 1
        return CacheEntry(hit=True, value=value, payload=payload)

    def put(self, key: str, value: Any) -> bytes:
        """Store ``value``; returns the pickled payload bytes."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).digest()
        shard = os.path.join(self._root_str, key[:2])
        path = os.path.join(shard, key + ".pkl")
        # atomic publish: a crashed writer never leaves a short file
        fd, tmp_name = _open_temp(shard)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(digest)
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return payload

    @staticmethod
    def _verify(raw: bytes) -> Optional[bytes]:
        header = len(_MAGIC) + _DIGEST_BYTES
        if len(raw) < header or not raw.startswith(_MAGIC):
            return None
        digest = raw[len(_MAGIC):header]
        payload = raw[header:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        return payload

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def sweep_temps(self) -> int:
        """Remove stranded atomic-write temp files; returns the count.

        ``put`` publishes entries via rename, so a ``.tmp-*`` file is
        only ever left behind by a process that died mid-write (SIGKILL,
        Ctrl-C delivered at exactly the wrong instruction).  Such files
        are unreachable garbage — no key resolves to them — and the
        engine sweeps them on run-directory open and on interrupt.
        """
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.rglob(".tmp-*"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.rglob("*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def _open_temp(shard: str) -> tuple[int, str]:
    """Create a fresh ``.tmp-<pid>-<n>.pkl`` in ``shard`` for writing.

    The shard directory is made on first use only; a name left by an
    earlier process with the same pid is skipped, not reused.
    """
    pid = os.getpid()
    while True:
        name = os.path.join(shard, f".tmp-{pid}-{next(_TMP_SEQ)}.pkl")
        try:
            return os.open(name, _TMP_FLAGS, 0o600), name
        except FileExistsError:
            continue
        except FileNotFoundError:
            os.makedirs(shard, exist_ok=True)


__all__ = ["CacheStats", "CacheEntry", "ResultCache"]
