"""The one bounded LRU every cache in this package is built on.

The paper's Section 1 split between the *permanent* IDB/EDB and the
transient per-query rules is a serving architecture: the PIDB and EDB
persist while queries come and go.  Theorem 2.1 makes the expensive
structural artifact — the information-passing rule/goal graph — depend
only on the IDB and the (adorned) query, never on the EDB, so a
:class:`~repro.session.Session` may reuse one graph across arbitrarily
many queries and across ``add_facts`` calls.  The session keys its
graph cache by :func:`repro.core.rulegoal.graph_cache_key` over the
query's *shape* (:func:`repro.core.rulegoal.query_shape`), so one entry
serves every constant of a shape.

The same argument puts a cache at every other layer — answer sets, warm
networks, the front door's stale answers, cluster job-spec parts — and
each is one :class:`BoundedCache`.  ``GraphCache`` is the name ``repro``
exports it under.  ``capacity=0`` disables a cache (every lookup misses,
nothing is stored), so the uncached path runs the same code.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Optional

__all__ = ["BoundedCache", "CacheStats", "GraphCache"]


@dataclass(frozen=True)
class CacheStats:
    """An immutable snapshot of one cache's counters.

    ``hits``/``misses`` count :meth:`BoundedCache.get` outcomes over the
    cache's lifetime; ``evictions`` counts entries dropped by the bounds
    (explicit :meth:`BoundedCache.clear` calls count separately as
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


class BoundedCache:
    """An LRU of shared values, bounded by entries and optionally bytes.

    ``max_bytes`` (None: no byte bound) bounds the sizes callers give
    :meth:`put` and :meth:`charge`.  One eviction rule: :meth:`put`
    always admits its entry, then evicts older ones until both bounds
    hold (one entry larger than ``max_bytes`` still works); a later
    :meth:`charge` evicts from the cold end until they hold, which may
    take the charged entry itself.  ``on_evict(key, value)`` runs once
    per entry the bounds evict, not for :meth:`pop` or :meth:`clear`.

    Thread-safe: everything runs under :attr:`lock`, which is re-entrant
    so a caller may hold it across a compound step (check, then put).
    """

    def __init__(
        self,
        capacity: int = 64,
        max_bytes: Optional[int] = None,
        on_evict: Optional[Callable[[Hashable, object], None]] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"cache byte bound must be >= 0, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.on_evict = on_evict
        self.lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._sizes: dict = {}  # key -> bytes charged
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[object]:
        """The cached value for ``key`` (refreshing its recency), or None."""
        with self.lock:
            return self.lookup(key)

    def lookup(self, key: Hashable) -> Optional[object]:
        """:meth:`get` for a caller already holding :attr:`lock`."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: Hashable) -> Optional[object]:
        """The cached value for ``key`` or None, leaving recency and counters."""
        with self.lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value: object, size: int = 0) -> None:
        """Store ``value`` as most recently used, then evict to the bounds."""
        with self.lock:
            if self.capacity == 0:
                return
            self.pop(key)
            self._entries[key] = value
            self._sizes[key] = size
            self.bytes += size
            self._evict(keep=1)

    def charge(self, key: Hashable, size: int) -> None:
        """Add ``size`` bytes to a resident entry, then evict to the bounds."""
        with self.lock:
            if key not in self._entries:
                return
            self._sizes[key] += size
            self.bytes += size
            self._evict(keep=0)

    def _evict(self, keep: int) -> None:
        """LRU-evict until within both bounds, sparing the ``keep`` newest."""
        entries = self._entries
        while len(entries) > keep and (
            len(entries) > self.capacity
            or (self.max_bytes is not None and self.bytes > self.max_bytes)
        ):
            key, value = entries.popitem(last=False)
            self.bytes -= self._sizes.pop(key)
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(key, value)

    def pop(self, key: Hashable) -> Optional[object]:
        """Drop ``key`` if resident (no hook, no counter); its value or None."""
        with self.lock:
            value = self._entries.pop(key, None)
            if value is not None:
                self.bytes -= self._sizes.pop(key)
            return value

    def clear(self) -> int:
        """Drop every entry (counted as invalidations); returns the count."""
        with self.lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._sizes.clear()
            self.bytes = 0
            self.invalidations += dropped
            return dropped

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self.lock:
            return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        """A snapshot of cached keys, least- to most-recently used."""
        with self.lock:
            return iter(list(self._entries))

    def items(self) -> list[tuple[Hashable, object]]:
        """A snapshot of ``(key, value)`` pairs, least- to most-recently used."""
        with self.lock:
            return list(self._entries.items())

    def stats(self) -> CacheStats:
        """A point-in-time :class:`CacheStats` snapshot."""
        with self.lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                size=len(self._entries),
                capacity=self.capacity,
            )


#: The session's rule/goal-graph cache: the shared LRU, bounded by entries.
GraphCache = BoundedCache
