"""A versioned answer cache: completed answer sets served without evaluation.

The graph cache (PR 1) reuses the *structure* of a query across time;
in-flight coalescing (PR 5) shares one evaluation across concurrent
twins.  Both still evaluate.  This module closes the remaining gap: a
*completed* answer set is kept and served directly, so a repeat query
under an unchanged knowledge base costs a dictionary lookup instead of
a fixpoint.

Soundness is the same two-part argument the serving layer already
leans on:

* **Theorem 2.1** — the graph-cache key (IDB fingerprint + query
  variant signature + SIP and planner options) is equal exactly when two
  queries must have equal answers *over the same EDB/IDB*;
* **the database version** — :attr:`repro.session.Session.db_version`
  is bumped by every committed mutation, so two requests seeing the
  same version see the same EDB/IDB.

Entries are therefore keyed by ``(graph_cache_key, db_version)``.  A
write never edits an answer set in place: it bumps the version, every
existing entry's key stops matching, and the stale entries age out of
the LRU (or are reclaimed eagerly via :meth:`AnswerCache.purge_below`,
which is what :class:`~repro.service.shared_session.SharedSession` does
after each commit).  There is no flush to race with in-flight
evaluations — an evaluation that started before a write commits is
stored under the version it actually read, where no post-write lookup
will find it.

A writer that *knows* what a write did to an answer — the serving
layer's warm networks report the rows each delta wave added — moves the
entry forward instead of recomputing it: :meth:`AnswerCache.carry`
re-keys an unchanged entry to the new version in O(1), renders and byte
charge intact, and :meth:`AnswerCache.extend` builds the successor of a
grown entry from the old one plus the new rows, sizing and rendering
only those.

The cache is bounded twice: by entry count (LRU) and by an approximate
byte budget, since answer sets vary from empty to millions of rows.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import asdict, dataclass, field
from typing import Callable, Hashable, Iterable, Optional

from ..cache import BoundedCache

__all__ = ["AnswerCacheStats", "CachedAnswer", "AnswerCache", "estimate_answer_bytes"]


def _rows_bytes(rows: Iterable[tuple]) -> int:
    """``sys.getsizeof`` summed over each row tuple and each of its values."""
    total = 0
    for row in rows:
        total += sys.getsizeof(row)
        for value in row:
            total += sys.getsizeof(value)
    return total


def estimate_answer_bytes(answers: frozenset) -> int:
    """A cheap upper-ish estimate of one answer set's memory footprint.

    Sums ``sys.getsizeof`` over the container, each row tuple, and each
    value.  Shared/interned values make this an overestimate, which is
    the safe direction for a budget.
    """
    return sys.getsizeof(answers) + _rows_bytes(answers)


def _estimate_render_bytes(value) -> int:
    """Footprint estimate for one attached render (list/bytes/str-ish)."""
    total = sys.getsizeof(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            total += sys.getsizeof(item)
    return total


@dataclass(eq=False)
class CachedAnswer:
    """One stored answer set plus the accounting needed to serve it.

    ``answers`` never changes.  The owning cache advances ``version`` when
    it carries the entry across a write that left the answers alone, and
    keeps ``render_charges`` in step with ``renders``; everything else is
    fixed at store time.
    """

    answers: frozenset
    version: int  # db_version the answers are current for
    nbytes: int  # estimate_answer_bytes of ``answers``
    elapsed: float  # wall seconds the original evaluation cost (saved per hit)
    #: Lazily attached derived forms of ``answers`` (e.g. the server's
    #: wire-encoded row list), computed by whoever serves the entry and
    #: reused on later hits.  Purely derived data, so a carried entry
    #: keeps them and an extended entry's are derived from them.
    #: Mutate only through :meth:`render` — direct check-then-set from
    #: concurrent server threads is the race this method exists to fix.
    renders: dict = field(default_factory=dict, repr=False)
    #: Bytes charged to the owning cache per render kind.
    render_charges: dict = field(default_factory=dict, repr=False)
    #: ``kind -> (compute, merge)`` for renders that can follow an
    #: extension (see :meth:`render`).
    _merges: dict = field(default_factory=dict, repr=False)
    #: Serializes render computation/attachment per entry.
    _render_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: The cache holding this entry, so attached renders are charged
    #: against its byte budget; None for entries that were never stored
    #: (oversized, cache disabled).
    _owner: Optional["AnswerCache"] = field(default=None, repr=False)
    #: The ``(key, version)`` this entry is resident under; None once
    #: evicted, purged or replaced.  Owned by the cache, under its lock.
    _slot: Optional[tuple] = field(default=None, repr=False)

    @property
    def render_nbytes(self) -> int:
        """Bytes charged for every attached render."""
        return sum(self.render_charges.values())

    def render(
        self,
        kind: Hashable,
        compute: Callable[[Iterable[tuple]], object],
        merge: Optional[Callable[[object, object], object]] = None,
    ):
        """``compute(answers)``, memoized race-free under ``kind``.

        Exactly one thread computes each kind; concurrent callers block
        briefly and reuse its value, so a hot entry is wire-encoded once
        rather than once per racing response thread.  The render's
        estimated footprint is charged to the owning cache's byte budget
        (entries hold renders comparable in size to the answers
        themselves — uncounted, the cache could hold ~2x ``max_bytes``).

        ``merge`` makes the render follow :meth:`AnswerCache.extend`: the
        successor's render is ``merge(this render, compute(new rows))``,
        which must equal ``compute`` of the whole grown answer set and
        must not modify its arguments.  Without it the successor starts
        with no render of this kind and computes one on first use.
        """
        value = self.renders.get(kind)
        if value is not None:
            return value
        with self._render_lock:
            value = self.renders.get(kind)
            if value is not None:
                return value
            value = compute(self.answers)
            self.renders[kind] = value
            if merge is not None:
                self._merges[kind] = (compute, merge)
        if self._owner is not None:
            self._owner._charge_render(
                self, kind, _estimate_render_bytes(value), len(self.answers)
            )
        return value


@dataclass(frozen=True)
class AnswerCacheStats:
    """An immutable snapshot of one answer cache's counters.

    ``evictions`` counts entries dropped by the count/byte bounds;
    ``invalidations`` counts entries reclaimed because a write made
    their version unreachable (:meth:`AnswerCache.purge_below`).
    ``render_bytes`` is the portion of ``bytes`` held by renders
    attached to resident entries (wire encodings etc.); it is already
    included in ``bytes``, not in addition to it.  ``carried`` and
    ``extended`` count entries moved to a new version without, and with,
    new rows.  ``rows_sized`` counts answer rows whose footprint was
    measured value by value and ``rows_rendered`` rows passed to a render
    computation: a store or first render touches every row of the
    answer, an extension only the new ones, a carry none.
    """

    hits: int
    misses: int
    stores: int
    evictions: int
    invalidations: int
    entries: int
    bytes: int
    render_bytes: int
    capacity: int
    max_bytes: int
    seconds_saved: float
    carried: int = 0
    extended: int = 0
    rows_sized: int = 0
    rows_rendered: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-safe view for the ``stats`` op."""
        return {**asdict(self), "seconds_saved": round(self.seconds_saved, 6)}


class AnswerCache:
    """A bounded LRU of completed answer sets keyed by (graph key, version).

    ``capacity`` bounds the entry count, ``max_bytes`` the summed
    :func:`estimate_answer_bytes` of stored answer sets plus their
    renders; the LRU is a :class:`~repro.cache.BoundedCache` with both
    bounds, and this class adds the version slots on top of it.
    ``capacity=0`` disables the cache (every lookup misses, nothing is
    stored) so the disabled path exercises the same code.

    Thread-safe: every operation runs under the LRU's one lock.  A
    single answer set larger than ``max_bytes`` is simply not stored —
    caching it would evict everything else for one entry that may never
    repeat.
    """

    def __init__(self, capacity: int = 256, max_bytes: int = 64 * 1024 * 1024) -> None:
        self.capacity = capacity
        self.max_bytes = max_bytes
        # Each resident entry is charged its answers plus its renders.
        self._lru = BoundedCache(capacity, max_bytes, on_evict=self._unslot)
        self._lock = self._lru.lock
        # Resident slots grouped by version, so reclaiming what a write
        # made unreachable visits only that.
        self._by_version: dict[int, set[tuple]] = {}
        self._render_bytes = 0  # the renders' share of the LRU's bytes
        self.stores = 0
        self.carried = 0
        self.extended = 0
        self.invalidations = 0
        self.rows_sized = 0
        self.rows_rendered = 0
        self.seconds_saved = 0.0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, version: int) -> Optional[CachedAnswer]:
        """The answer set stored for ``key`` at exactly ``version``, or None."""
        with self._lock:
            entry = self._lru.lookup((key, version))
            if entry is not None:
                self.seconds_saved += entry.elapsed
            return entry

    def peek(self, key: Hashable, version: int) -> Optional[CachedAnswer]:
        """:meth:`get` that moves no counter and no recency."""
        return self._lru.peek((key, version))

    def put(
        self, key: Hashable, version: int, answers: frozenset, elapsed: float = 0.0
    ) -> Optional[CachedAnswer]:
        """Store one completed answer set; returns the entry (None if not stored)."""
        if self.capacity == 0 or self.max_bytes == 0:
            return None
        nbytes = estimate_answer_bytes(answers)
        if nbytes > self.max_bytes:
            return None  # one oversized set must not flush the whole cache
        entry = CachedAnswer(
            answers=answers, version=version, nbytes=nbytes, elapsed=elapsed, _owner=self
        )
        with self._lock:
            self._remove((key, version))
            self._insert((key, version), entry)
            self.stores += 1
            self.rows_sized += len(answers)
        return entry

    def carry(
        self, key: Hashable, from_version: int, to_version: int
    ) -> Optional[CachedAnswer]:
        """Re-key an entry whose answers a write left unchanged, in O(1).

        The very same entry — answer set, attached renders, byte charge —
        becomes the entry for ``(key, to_version)`` and the most recently
        used.  Returns it, or None when nothing is resident under
        ``(key, from_version)`` (evicted meanwhile: the caller stores
        afresh).  The caller vouches that the answers at the two versions
        are equal.
        """
        with self._lock:
            entry = self._remove((key, from_version))
            if entry is None:
                return None
            self._remove((key, to_version))
            entry.version = to_version
            self._insert((key, to_version), entry)
            self.carried += 1
            return entry

    def extend(
        self,
        key: Hashable,
        from_version: int,
        to_version: int,
        new_rows: Iterable[tuple],
    ) -> Optional[CachedAnswer]:
        """Store ``(key, to_version)`` as the predecessor plus ``new_rows``.

        The caller vouches that the answers at ``to_version`` are the
        answers at ``from_version`` and ``new_rows``.  Only the new rows
        are sized, and each render attached with a ``merge`` is brought
        forward by rendering only them; what is copied — the answer set
        and the rendered sequences — is copied by the container, not row
        by row.  The predecessor leaves the cache.  Returns the new
        entry, or None when there is no predecessor or the grown answer
        no longer fits ``max_bytes``.
        """
        old = self._lru.peek((key, from_version))
        if old is None:
            return None
        added = [row for row in new_rows if row not in old.answers]
        if not added:
            return self.carry(key, from_version, to_version)
        answers = old.answers.union(added)
        nbytes = (
            old.nbytes
            - sys.getsizeof(old.answers)
            + sys.getsizeof(answers)
            + _rows_bytes(added)
        )
        with old._render_lock:  # waits out a first render in progress
            renders = dict(old.renders)
            merges = dict(old._merges)
        entry = CachedAnswer(
            answers=answers,
            version=to_version,
            nbytes=nbytes,
            elapsed=old.elapsed,
            _merges=merges,
            _owner=self,
        )
        for kind, (compute, merge) in merges.items():
            part = compute(added)
            value = merge(renders[kind], part)
            entry.renders[kind] = value
            charged = old.render_charges.get(kind)
            if charged is None:  # attached a moment ago, charge still in flight
                entry.render_charges[kind] = _estimate_render_bytes(value)
            else:
                entry.render_charges[kind] = (
                    charged
                    + _estimate_render_bytes(part)
                    - sys.getsizeof(part)
                    + sys.getsizeof(value)
                    - sys.getsizeof(renders[kind])
                )
        with self._lock:
            self._remove((key, from_version))
            self._remove((key, to_version))
            if nbytes + entry.render_nbytes > self.max_bytes:
                return None
            self._insert((key, to_version), entry)
            self.extended += 1
            self.rows_sized += len(added)
            self.rows_rendered += len(added) * len(entry.renders)
        return entry

    def _insert(self, slot: tuple, entry: CachedAnswer) -> None:
        """Make ``entry`` resident under ``slot``, most recently used (lock held).

        Older entries past either bound are evicted; ``entry`` stays.
        """
        entry._slot = slot
        self._by_version.setdefault(slot[1], set()).add(slot)
        render_nbytes = entry.render_nbytes
        self._render_bytes += render_nbytes
        self._lru.put(slot, entry, entry.nbytes + render_nbytes)

    def _remove(self, slot: tuple) -> Optional[CachedAnswer]:
        """Drop whatever is resident under ``slot`` and its charges (lock held)."""
        entry = self._lru.pop(slot)
        if entry is not None:
            self._unslot(slot, entry)
        return entry

    def _unslot(self, slot: tuple, entry: CachedAnswer) -> None:
        """Forget a slot the LRU no longer holds (lock held; the eviction hook)."""
        entry._slot = None
        slots = self._by_version[slot[1]]
        slots.discard(slot)
        if not slots:
            del self._by_version[slot[1]]
        self._render_bytes -= entry.render_nbytes

    def _charge_render(
        self, entry: CachedAnswer, kind: Hashable, nbytes: int, rows: int
    ) -> None:
        """Count one attached render against the byte budget (entry callback).

        A render attached after its entry was evicted/purged charges
        nothing — the cache no longer holds it, only the caller does.  A
        charge that pushes the cache past ``max_bytes`` evicts from the
        cold end, which may be this very entry.
        """
        with self._lock:
            self.rows_rendered += rows
            if entry._slot is None:
                return
            entry.render_charges[kind] = entry.render_charges.get(kind, 0) + nbytes
            self._render_bytes += nbytes
            self._lru.charge(entry._slot, nbytes)

    def purge_below(self, version: int) -> int:
        """Reclaim entries whose version a lookup can no longer present.

        Lookups always use the *current* ``db_version`` and the counter
        is strictly monotone, so after a commit to ``version`` every
        entry below it is unreachable garbage.  Called by the serving
        layer after each write; returns the number reclaimed (counted
        as ``invalidations``).  Visits the resident versions and the
        entries it reclaims, not every entry.
        """
        with self._lock:
            stale = [
                slot
                for resident, slots in self._by_version.items()
                if resident < version
                for slot in slots
            ]
            for slot in stale:
                self._remove(slot)
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> int:
        """Drop everything (counted as invalidations); returns the count."""
        with self._lock:
            for _, entry in self._lru.items():
                entry._slot = None
            self._by_version.clear()
            self._render_bytes = 0
            dropped = self._lru.clear()
            self.invalidations += dropped
            return dropped

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, full_key: Hashable) -> bool:
        return full_key in self._lru

    @property
    def nbytes(self) -> int:
        return self._lru.bytes

    def stats(self) -> AnswerCacheStats:
        """A point-in-time :class:`AnswerCacheStats` snapshot."""
        with self._lock:
            lru = self._lru
            return AnswerCacheStats(
                hits=lru.hits,
                misses=lru.misses,
                stores=self.stores,
                evictions=lru.evictions,
                invalidations=self.invalidations,
                entries=len(lru),
                bytes=lru.bytes,
                render_bytes=self._render_bytes,
                capacity=self.capacity,
                max_bytes=self.max_bytes,
                seconds_saved=self.seconds_saved,
                carried=self.carried,
                extended=self.extended,
                rows_sized=self.rows_sized,
                rows_rendered=self.rows_rendered,
            )
