"""Session-level caching: a bounded LRU cache for rule/goal graphs.

The paper's Section 1 split between the *permanent* IDB/EDB and the
transient per-query rules is a serving architecture: the PIDB and EDB
persist while queries come and go.  Theorem 2.1 makes the expensive
structural artifact — the information-passing rule/goal graph — depend
only on the IDB and the (adorned) query, never on the EDB, so a
:class:`~repro.session.Session` may reuse one graph across arbitrarily
many queries and across ``add_facts`` calls.  This module holds the
cache machinery; the session keys it by
:func:`repro.core.rulegoal.graph_cache_key` over the query's *shape*
(:func:`repro.core.rulegoal.query_shape`), so one entry serves every
constant of a shape.

The cache is a plain LRU over hashable keys.  ``capacity=0`` disables
caching entirely (every lookup misses, nothing is stored) — useful for
benchmarking the uncached behavior through the same code path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional, TypeVar

__all__ = ["CacheStats", "GraphCache"]

V = TypeVar("V")


@dataclass(frozen=True)
class CacheStats:
    """An immutable snapshot of one cache's counters.

    ``hits``/``misses`` count :meth:`GraphCache.get` outcomes over the
    cache's lifetime; ``evictions`` counts entries dropped by the LRU
    bound (explicit :meth:`GraphCache.clear` calls count separately as
    ``invalidations``).
    """

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} evictions={self.evictions} "
            f"size={self.size}/{self.capacity}"
        )


class GraphCache:
    """A bounded LRU mapping cache keys to rule/goal graphs.

    The values are treated as immutable shared structure: a hit returns
    the very same object that was stored, so callers must not mutate
    cached graphs.

    Thread-safe: every operation (including the ``move_to_end`` recency
    bump inside :meth:`get`) runs under one internal lock, so concurrent
    queries against a shared session cannot corrupt the LRU ordering or
    the hit/miss/eviction counters.  The lock is re-entrant, so a holder
    may call back into the cache (e.g. ``stats()`` inside a traced
    ``put``) without deadlocking.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[object]:
        """The cached value for ``key`` (refreshing its recency), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: object) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            if self.capacity == 0:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> int:
        """Drop every entry (rule-set invalidation); returns the count dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        """A snapshot of cached keys, least- to most-recently used."""
        with self._lock:
            return iter(list(self._entries.keys()))

    def stats(self) -> CacheStats:
        """A point-in-time :class:`CacheStats` snapshot."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                size=len(self._entries),
                capacity=self.capacity,
            )
