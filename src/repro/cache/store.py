"""The on-disk artifact store behind the parallel sweep engine.

:class:`CompileCache` is a content-addressed pickle store: each entry
lives at ``<root>/<key[:2]>/<key>.pkl`` and is written atomically
(:func:`repro.durable.atomic_write`), so concurrent writers across
processes can only ever race to produce the same bytes and a killed
worker can never leave a torn entry behind.  Readers treat anything
that fails to load — truncated pickles, wrong schema version, key
mismatch — as a miss, move the bad file into ``<root>/quarantine/``
for post-mortem inspection, and let the caller recompute: the slot is
freed, so the same corruption is never re-hit, but the evidence is
kept instead of silently destroyed.

Payloads are plain data (dicts of primitives and numpy arrays), never
live ``Device``/``Circuit`` objects; the callers own the conversion
(see :meth:`repro.compiler.CompiledProgram.to_payload`).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.cache.keys import CACHE_SCHEMA_VERSION
from repro.durable import atomic_write

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@dataclass
class CacheStats:
    """Hit/miss counters for one cache handle (one process)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries quarantined because they failed to load (corruption,
    #: schema drift, key mismatch).
    recovered: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            stores=self.stores + other.stores,
            recovered=self.recovered + other.recovered,
        )

    def __str__(self) -> str:
        return (
            f"{self.hits} hits / {self.lookups} lookups "
            f"({100.0 * self.hit_rate:.0f}%), {self.stores} stores, "
            f"{self.recovered} recovered"
        )


class NullCache:
    """A disabled cache: every lookup misses, every store is dropped."""

    enabled = False

    def __init__(self) -> None:
        self.stats = CacheStats()

    def get(self, key: str) -> None:
        return None

    def put(self, key: str, payload: Any) -> None:
        return None


class CompileCache:
    """Content-addressed pickle store shared by all worker processes."""

    enabled = True

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        #: Optional observability hook called with one of "hit" /
        #: "miss" / "store" / "recovered" per operation.  None (the
        #: default) keeps the lookup path exactly as fast as before;
        #: ``repro.obs`` attaches a metrics counter here when profiling.
        self.observer: Optional[Callable[[str], None]] = None

    def _notify(self, event: str) -> None:
        observer = self.observer
        if observer is not None:
            observer(event)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    @property
    def quarantine_dir(self) -> Path:
        """Where unreadable entries are moved for inspection."""
        return self.root / "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (fall back to deletion)."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, key: str) -> Optional[Any]:
        """The stored payload, or None on miss or unreadable entry."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                version, stored_key, payload = pickle.load(handle)
            if version != CACHE_SCHEMA_VERSION or stored_key != key:
                raise ValueError("stale or mismatched cache entry")
        except FileNotFoundError:
            self.stats.misses += 1
            self._notify("miss")
            return None
        except Exception:
            # Corrupted / truncated / stale entry: quarantine it and
            # miss.  The slot becomes writable again immediately, so
            # the sweep recomputes once, not forever.
            self.stats.recovered += 1
            self.stats.misses += 1
            self._quarantine(path)
            self._notify("recovered")
            return None
        self.stats.hits += 1
        self._notify("hit")
        return payload

    def put(self, key: str, payload: Any) -> None:
        """Store ``payload`` under ``key`` atomically."""
        atomic_write(self._path(key), pickle.dumps(
            (CACHE_SCHEMA_VERSION, key, payload),
            protocol=pickle.HIGHEST_PROTOCOL,
        ))
        self.stats.stores += 1
        self._notify("store")

    def __len__(self) -> int:
        return sum(
            1
            for entry in self.root.glob("*/*.pkl")
            if entry.parent.name != "quarantine"
        )


Cache = Union[CompileCache, NullCache]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else a per-user cache directory."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def open_cache(
    cache_dir: Optional[Union[str, Path]] = None, enabled: bool = True
) -> Cache:
    """A cache handle: :class:`CompileCache` or, when disabled, a null one."""
    if not enabled:
        return NullCache()
    return CompileCache(cache_dir if cache_dir is not None else default_cache_dir())
