"""A concurrency-safe facade over :class:`repro.session.Session`.

The PR 1 session is the serving engine the paper's Section 1 PIDB/EDB
split implies — one permanent knowledge base, many transient queries —
but it is single-threaded.  :class:`SharedSession` makes it safe (and
profitable) to share across threads:

* **Readers/writer discipline** — queries hold a shared read lock for
  the duration of evaluation, so any number run at once against the
  immutable-during-read ``Database``/``GraphCache``; ``add_facts`` and
  ``add_rules`` take the write lock, keeping the session's existing
  validate-then-commit flush atomic with respect to every in-flight
  query (a query observes the base either entirely before or entirely
  after a mutation, never mid-commit).

* **In-flight request coalescing** — the Theorem 2.1 cache key
  (:meth:`Session.cache_key_for`) is equal exactly when two queries
  must have equal answers (same IDB fingerprint, same variant
  signature, same SIP/coalesce options) *over the same base*, so the
  coalescing key is the cache key **plus the database version**: a
  query whose (key, version) matches an evaluation already in flight
  *joins* it — one leader evaluates, every follower waits on the
  leader's completion event and shares the same answer set.  Keying by
  version closes a linearizability hole the bare key had: a request
  arriving *after* a write commits can never join (and be served by)
  an evaluation that read the pre-write base.

* **Answer caching** — the same ``(cache_key, db_version)`` pair keys
  a bounded :class:`~repro.service.answer_cache.AnswerCache` of
  *completed* answer sets: a repeat query under an unchanged base is
  answered without evaluating at all.  Writes invalidate purely by
  version mismatch (plus an eager purge of the now-unreachable
  entries), so there is no flush to race with in-flight evaluations.

* **Durability** (optional) — pass a
  :class:`~repro.service.persistence.DurableStore` and every committed
  ``add_facts``/``add_rules`` is appended to its log *inside the write
  lock* (log order = commit order) before the caller is acknowledged;
  a restart replays snapshot + log and answers identically.

Evaluation itself dispatches through :meth:`Session.run_query`, which
never touches the session's ``last_result`` slots, so overlapping
leaders cannot race; the session's ``runtime=`` option still selects
the simulator or the supervised pool/cluster substrates per evaluation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence, Union

from ..cache import BoundedCache, CacheStats
from ..core.atoms import Atom
from ..runtime.supervision import EvaluationTimeout
from ..session import MaterializedQuery, MaterializedQueryClosed, Session
from .answer_cache import AnswerCache
from .locks import ReadWriteLock
from .metrics import MetricsRegistry
from .persistence import DurableStore

__all__ = ["SharedSession", "QueryOutcome"]


@dataclass(frozen=True)
class QueryOutcome:
    """One caller's view of one (possibly shared) evaluation."""

    answers: frozenset
    coalesced: bool  # this caller joined an evaluation another one led
    shared: int  # total callers served by the evaluation (1 = exclusive)
    cache_hit: bool  # the rule/goal graph came from the LRU
    elapsed: float  # evaluation wall seconds (the leader's clock)
    attempts: int = 1
    degraded: bool = False
    failure_log: tuple[str, ...] = ()
    logical_messages: Optional[int] = None
    physical_messages: Optional[int] = None
    answer_cached: bool = False  # served straight from the answer cache
    materialized: bool = False  # served by a warm (retained-network) query
    db_version: Optional[int] = None  # base version the answers reflect
    #: The answer-cache entry backing this outcome (when one exists).
    #: Transport layers hang rendered forms of the answer set off its
    #: ``renders`` memo, so a hot query's rows are wire-encoded once,
    #: not once per repeat response.
    cache_entry: Optional[object] = field(default=None, repr=False, compare=False)


def _per_caller_error(error: BaseException) -> BaseException:
    """A fresh copy of the leader's failure for one follower to raise.

    Re-raising the *same* exception object from N follower threads at
    once mutates its ``__traceback__`` concurrently; each follower gets
    its own instance of the same type (chained to the original for the
    full story), falling back to the shared object for exception types
    that cannot be rebuilt from their args.
    """
    try:
        clone = type(error)(*error.args)
    except Exception:
        return error
    clone.__cause__ = error
    return clone


class _InFlight:
    """One in-progress evaluation: completion event + shared outcome."""

    __slots__ = ("done", "joiners", "outcome", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.joiners = 0  # followers that joined before completion
        self.outcome: Optional[QueryOutcome] = None
        self.error: Optional[BaseException] = None


class SharedSession:
    """A :class:`Session` safe for concurrent readers and serialized writers.

    Accepts the same construction arguments as :class:`Session` (pass a
    prebuilt ``session=`` to wrap one instead), plus an optional
    ``metrics`` registry every operation reports into:

    ``queries_total``, ``coalesced_joins_total``,
    ``shared_evaluations_total``, ``graph_cache_hits_total`` /
    ``graph_cache_misses_total``, ``answer_cache_hits_total`` /
    ``answer_cache_misses_total`` / ``answer_cache_invalidations_total``,
    ``writes_total``, ``retries_total``, ``degraded_total``,
    ``logical_messages_total`` / ``physical_messages_total``,
    ``log_appends_total`` / ``log_snapshots_total`` /
    ``replayed_records_total`` / ``replay_torn_tail_total`` (counters)
    and ``evaluation_seconds`` (histogram).  The same registry is
    shared with :class:`repro.service.server.QueryServer` when serving.

    ``answer_cache_size``/``answer_cache_bytes`` bound the answer cache
    (``answer_cache_size=0`` disables it; coalescing still applies).
    ``store`` attaches a :class:`DurableStore` the writes append to —
    wrap the session that store's :meth:`DurableStore.restore` built,
    or the log would repeat mutations the snapshot already holds.

    ``materialize=True`` (simulator runtime only; silently ignored for
    the multiprocess runtimes, which cannot retain a network) keeps a
    bounded LRU pool of up to ``materialize_pool`` warm
    :class:`~repro.session.MaterializedQuery` instances keyed by the
    Theorem 2.1 graph-cache key.  Repeat queries refresh the retained
    network semi-naively instead of re-deriving the fixpoint, and each
    committed ``add_facts`` delta-refreshes the warm entries and moves
    their answer-cache entries to the new ``db_version`` — carried over
    as they are when the write derived nothing for them, extended by the
    new rows when it did — so hot keys ride through writes without ever
    missing the answer cache, at a cost that follows the delta.
    """

    def __init__(
        self,
        source=None,
        *,
        session: Optional[Session] = None,
        metrics: Optional[MetricsRegistry] = None,
        store: Optional[DurableStore] = None,
        answer_cache_size: int = 256,
        answer_cache_bytes: int = 64 * 1024 * 1024,
        materialize: bool = False,
        materialize_pool: int = 32,
        **session_options,
    ) -> None:
        if (source is None) == (session is None):
            raise ValueError("pass exactly one of source= or session=")
        if materialize_pool < 1:
            raise ValueError(
                f"materialize_pool must be >= 1, got {materialize_pool}"
            )
        self._session = session if session is not None else Session(
            source, **session_options
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._store = store
        self._answers = (
            AnswerCache(answer_cache_size, answer_cache_bytes)
            if answer_cache_size > 0
            else None
        )
        # Warm materializations: evaluated networks retained per Theorem
        # 2.1 key, refreshed semi-naively on writes.  Only the simulator
        # runtime can retain a network; other runtimes fall back to the
        # invalidate-and-recompute path transparently.  Eviction from the
        # pool closes the network.
        self._materialize = materialize and self._session.runtime == "simulator"
        self._mats = BoundedCache(
            materialize_pool, on_evict=lambda _key, mat: mat.close()
        )
        self._rw = ReadWriteLock()
        self._inflight: dict[tuple, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        m = self.metrics
        self._queries = m.counter(
            "queries_total", "query/ask evaluations requested"
        )
        self._joins = m.counter(
            "coalesced_joins_total", "requests served by joining an in-flight evaluation"
        )
        self._shared_evals = m.counter(
            "shared_evaluations_total", "evaluations that served more than one request"
        )
        self._cache_hits = m.counter("graph_cache_hits_total")
        self._cache_misses = m.counter("graph_cache_misses_total")
        self._answer_hits = m.counter(
            "answer_cache_hits_total", "queries answered without evaluation"
        )
        self._answer_misses = m.counter("answer_cache_misses_total")
        self._answer_invalidations = m.counter(
            "answer_cache_invalidations_total",
            "cached answer sets made unreachable by a committed write",
        )
        self._writes = m.counter("writes_total", "add_facts/add_rules commits")
        self._log_appends = m.counter(
            "log_appends_total", "mutations appended to the durable log"
        )
        self._log_snapshots = m.counter(
            "log_snapshots_total", "compacted snapshots written"
        )
        replayed = m.counter(
            "replayed_records_total", "log records replayed at the last boot"
        )
        torn = m.counter(
            "replay_torn_tail_total", "torn final log records dropped at boot"
        )
        if store is not None and store.last_report is not None:
            replayed.inc(store.last_report.records_replayed)
            torn.inc(store.last_report.torn_tail_dropped)
        self._retries = m.counter(
            "retries_total", "extra attempts spent by supervised runtimes"
        )
        self._degraded = m.counter(
            "degraded_total", "queries answered by the in-process fallback"
        )
        self._logical = m.counter("logical_messages_total")
        self._physical = m.counter("physical_messages_total")
        self._eval_seconds = m.histogram(
            "evaluation_seconds", help="evaluation wall time per leader run"
        )
        self._materializations = m.counter(
            "materializations_total", "warm networks built (initial fixpoints)"
        )
        self._delta_refreshes = m.counter(
            "delta_refreshes_total",
            "semi-naive delta waves propagated through warm networks",
        )
        self._noop_refreshes = m.counter(
            "noop_refreshes_total",
            "delta waves that reached none of a warm network's open streams",
        )
        self._answer_refreshes = m.counter(
            "answer_cache_refreshes_total",
            "cached answer sets delta-refreshed to the new version on a write",
        )
        self._answers_carried = m.counter(
            "answers_carried_total",
            "unchanged cached answer sets re-keyed to the new version on a write",
        )
        self._answers_extended = m.counter(
            "answers_extended_total",
            "cached answer sets extended by a write's new rows",
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def query(
        self, query: Union[str, Atom, Sequence[Atom]], timeout: Optional[float] = None
    ) -> set[tuple]:
        """Evaluate (possibly by joining an in-flight twin); the answer set."""
        return set(self.query_detailed(query, timeout=timeout).answers)

    def ask(
        self, query: Union[str, Atom, Sequence[Atom]], timeout: Optional[float] = None
    ) -> bool:
        """Boolean query: is the (possibly non-ground) query satisfiable?"""
        return bool(self.query_detailed(query, timeout=timeout).answers)

    def query_detailed(
        self, query: Union[str, Atom, Sequence[Atom]], timeout: Optional[float] = None
    ) -> QueryOutcome:
        """Evaluate with full serving accounting (:class:`QueryOutcome`).

        ``timeout`` bounds only a *follower's* wait on the leader it
        joined — the leader's own evaluation deadline belongs to the
        runtime (``Session(timeout=...)``) or to the server's admission
        layer, which enforces per-request deadlines around this call.
        """
        self._queries.inc()
        # One parse per request: prepare() parses and computes the
        # Theorem 2.1 key once; the prepared form rides through the
        # cache lookup, coalescing, and the evaluation itself.
        prepared = self._session.prepare(query)
        key = self._session.cache_key_for(prepared)
        version = self._session.db_version
        if self._answers is not None:
            cached = self._answers.get(key, version)
            if cached is not None:
                self._answer_hits.inc()
                return QueryOutcome(
                    answers=cached.answers,
                    coalesced=False,
                    shared=1,
                    cache_hit=True,
                    elapsed=0.0,
                    answer_cached=True,
                    db_version=version,
                    cache_entry=cached,
                )
            self._answer_misses.inc()
        # Coalesce on (key, version): joining is only sound when the
        # in-flight evaluation reads the same base this request sees.
        ckey = (key, version)
        with self._inflight_lock:
            entry = self._inflight.get(ckey)
            if entry is not None:
                entry.joiners += 1
                leader = False
            else:
                entry = _InFlight()
                self._inflight[ckey] = entry
                leader = True
        if leader:
            return self._lead(key, ckey, entry, prepared)
        return self._follow(entry, timeout)

    def _lead(self, key: tuple, ckey: tuple, entry: _InFlight, prepared) -> QueryOutcome:
        start = time.perf_counter()
        try:
            with self._rw.read_locked():
                # Writers are excluded while we hold the read lock, so
                # this is the version the whole evaluation reads.  It can
                # exceed ckey's version if a write slipped in before the
                # lock; answers are then stored under what was truly read.
                version = self._session.db_version
                # Re-derive the key under the lock: an add_rules that
                # slipped in changed the IDB fingerprint prepared.key
                # was computed against.
                key = self._session.cache_key_for(prepared)
                if self._materialize:
                    result, materialized = self._query_materialized(prepared, key)
                else:
                    result = self._session.run_query(prepared)
                    materialized = False
            elapsed = time.perf_counter() - start
            outcome = QueryOutcome(
                answers=frozenset(result.answers),
                coalesced=False,
                shared=1,
                cache_hit=bool(result.graph_cache_hit),
                elapsed=elapsed,
                materialized=materialized,
                attempts=result.attempts,
                degraded=result.degraded,
                failure_log=tuple(result.failure_log),
                logical_messages=result.total_messages,
                physical_messages=result.physical_messages,
                db_version=version,
            )
            if self._answers is not None:
                # Store before closing the join window so no identical
                # request falls in the gap between the two.
                stored = self._answers.put(key, version, outcome.answers, elapsed)
                if stored is not None:
                    outcome = replace(outcome, cache_entry=stored)
            with self._inflight_lock:
                self._inflight.pop(ckey, None)
                shared = 1 + entry.joiners
            outcome = replace(outcome, shared=shared)
            entry.outcome = outcome
        except BaseException as exc:
            # Publish the failure itself: followers must observe the
            # same typed error, never a stale or partial entry.
            entry.error = exc
            raise
        finally:
            # Whatever happened above, close the join window and wake
            # every follower; a leader that leaves without publishing
            # would hang them on the completion event forever.
            with self._inflight_lock:
                self._inflight.pop(ckey, None)
            entry.done.set()
        self._account(outcome)
        if shared > 1:
            self._shared_evals.inc()
        return outcome

    def _follow(self, entry: _InFlight, timeout: Optional[float]) -> QueryOutcome:
        if not entry.done.wait(timeout):
            raise EvaluationTimeout(
                f"coalesced evaluation did not complete within {timeout}s"
            )
        self._joins.inc()
        if entry.error is not None:
            raise _per_caller_error(entry.error)
        assert entry.outcome is not None
        return replace(entry.outcome, coalesced=True)

    def _account(self, outcome: QueryOutcome) -> None:
        self._eval_seconds.observe(outcome.elapsed)
        (self._cache_hits if outcome.cache_hit else self._cache_misses).inc()
        if outcome.attempts > 1:
            self._retries.inc(outcome.attempts - 1)
        if outcome.degraded:
            self._degraded.inc()
        if outcome.logical_messages is not None:
            self._logical.inc(outcome.logical_messages)
        if outcome.physical_messages is not None:
            self._physical.inc(outcome.physical_messages)

    # ------------------------------------------------------------------
    # Warm materializations
    # ------------------------------------------------------------------
    def _query_materialized(self, prepared, key: tuple):
        """Serve one leader evaluation from the warm pool (read lock held).

        A pool hit refreshes the retained network (a no-op when no
        writes are pending); a miss evaluates from scratch, retains the
        network, and LRU-evicts past the pool bound.  Coalescing on
        ``(key, version)`` means no two leaders share a key at once, and
        the read lock excludes writers, so each materialization sees a
        quiescent base; its own lock still makes refreshes safe against
        the write path's background refresh.
        """
        mat = self._mats.get(key)
        if mat is not None:
            try:
                return self._refresh(mat), True
            except MaterializedQueryClosed:
                self._forget(key, mat)
        mat = self._session.materialize(prepared)
        self._materializations.inc()
        with self._mats.lock:
            existing = self._mats.peek(key)
            if existing is not None and not existing.closed:
                # Lost an (unlikely) install race; keep the incumbent.
                mat.close()
                mat = existing
            else:
                self._mats.put(key, mat)
        return mat.result, True

    def _forget(self, key: tuple, mat: MaterializedQuery) -> None:
        """Drop ``key`` from the warm pool if ``mat`` still holds it."""
        with self._mats.lock:
            if self._mats.peek(key) is mat:
                self._mats.pop(key)

    def _refresh(self, mat: MaterializedQuery):
        """``mat.refresh()`` with the wave counters it moved accounted."""
        waves, noops = mat.refreshes, mat.noop_refreshes
        result = mat.refresh()
        if mat.refreshes > waves:
            self._delta_refreshes.inc(mat.refreshes - waves)
            self._noop_refreshes.inc(mat.noop_refreshes - noops)
        return result

    def _refresh_warm(self) -> None:
        """Delta-refresh every warm materialization after a commit.

        Runs under the read lock (writers excluded, concurrent queries
        fine) *before* stale answer-cache entries are purged: each
        network's cached answer set is moved to the new ``db_version``,
        so hot keys stay answerable without evaluation across writes —
        the cache is maintained, not invalidated.  Closed
        materializations (``add_rules`` changed the IDB) just fall out
        of the pool; their keys take the ordinary invalidation path.
        """
        if not self._materialize:
            return
        with self._rw.read_locked():
            version = self._session.db_version
            for key, mat in self._mats.items():
                try:
                    start = time.perf_counter()
                    result = self._refresh(mat)
                    elapsed = time.perf_counter() - start
                except MaterializedQueryClosed:
                    self._forget(key, mat)
                    continue
                # mat.version lags the commit only if another write
                # landed meanwhile — impossible under the read lock.
                if self._answers is not None and mat.version == version:
                    self._advance_answer(key, mat, result, version, elapsed)

    def _advance_answer(
        self, key: tuple, mat: MaterializedQuery, result, version: int, elapsed: float
    ) -> None:
        """Bring ``key``'s cached answer set to ``version`` (read lock held).

        ``result`` is the network's last wave, which took it from
        ``mat.previous_version`` to ``version`` and added exactly
        ``result.new_answers``.  Whatever correct evaluation stored the
        entry under the earlier version, its answers plus those rows are
        the answers now, so the entry is carried (no new rows: O(1)) or
        extended (work proportional to the new rows) instead of being
        rebuilt.  Only when no predecessor is resident — evicted, or the
        network has run no wave yet — is the whole answer set stored.
        """
        cache = self._answers
        if (key, version) in cache:
            return  # a reader refreshed this network first and stored it
        stored = None
        new_rows = result.new_answers
        if new_rows is not None and mat.previous_version != version:
            if new_rows:
                stored = cache.extend(key, mat.previous_version, version, new_rows)
                if stored is not None:
                    self._answers_extended.inc()
            else:
                stored = cache.carry(key, mat.previous_version, version)
                if stored is not None:
                    self._answers_carried.inc()
        if stored is None:
            cache.put(key, version, frozenset(result.answers), elapsed)
        self._answer_refreshes.inc()

    def _drop_closed_materializations(self) -> None:
        """Forget pool entries ``add_rules`` invalidated (networks closed)."""
        for key, mat in self._mats.items():
            if mat.closed:
                self._forget(key, mat)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add_facts(self, facts) -> None:
        """Extend the EDB under the write lock (validate-then-commit).

        With a durable store attached, the committed mutation is logged
        (and fsynced per the store's policy) before this method — and
        therefore the server's acknowledgement — returns.
        """
        with self._rw.write_locked():
            before = self._session.db_version
            self._session.add_facts(facts)
            self._record_write("add_facts", facts, changed=self._session.db_version != before)
        self._writes.inc()
        # Maintain before invalidating: warm keys are re-stored under
        # the new version first, then the purge sweeps only what no
        # materialization kept alive.
        self._refresh_warm()
        self._reclaim_stale_answers()

    def add_rules(self, source) -> None:
        """Extend the IDB under the write lock; flushes the graph cache.

        New *rules* change the IDB fingerprint every warm network was
        built against, so the session closes all materializations; the
        pool drops them and repeat queries re-materialize on demand.  A
        facts-only ``add_rules`` keeps the networks and delta-refreshes
        like :meth:`add_facts`.
        """
        with self._rw.write_locked():
            before = self._session.db_version
            self._session.add_rules(source)
            self._record_write("add_rules", source, changed=self._session.db_version != before)
        self._writes.inc()
        self._drop_closed_materializations()
        self._refresh_warm()
        self._reclaim_stale_answers()

    def _record_write(self, op: str, payload, changed: bool) -> None:
        """Append one committed mutation to the durable log (write lock held)."""
        if self._store is None or not changed:
            return  # a no-op commit has nothing worth replaying
        self._store.record(op, payload)
        self._log_appends.inc()
        if self._store.should_compact():
            self._store.compact(self._session)
            self._log_snapshots.inc()

    def _reclaim_stale_answers(self) -> None:
        """Free answer-cache entries the version bump made unreachable.

        Purely an eager memory reclaim — correctness needs nothing
        here, because lookups already key on the current version.
        """
        if self._answers is not None:
            purged = self._answers.purge_below(self._session.db_version)
            if purged:
                self._answer_invalidations.inc(purged)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def session(self) -> Session:
        """The wrapped single-threaded session (locking is *your* job)."""
        return self._session

    @property
    def lock(self) -> ReadWriteLock:
        return self._rw

    @property
    def answer_cache(self) -> Optional[AnswerCache]:
        """The answer cache (None when disabled)."""
        return self._answers

    @property
    def store(self) -> Optional[DurableStore]:
        """The attached durability layer (None when serving in-memory)."""
        return self._store

    @property
    def db_version(self) -> int:
        return self._session.db_version

    def cache_stats(self) -> CacheStats:
        return self._session.cache_stats()

    def inflight_count(self) -> int:
        """How many distinct evaluations are running right now."""
        with self._inflight_lock:
            return len(self._inflight)

    def stats(self) -> dict:
        """A JSON-safe serving summary (cache + coalescing + lock)."""
        return {
            "queries": self._queries.value,
            "coalesced_joins": self._joins.value,
            "shared_evaluations": self._shared_evals.value,
            "writes": self._writes.value,
            "inflight": self.inflight_count(),
            "db_version": self._session.db_version,
            "answer_cache": (
                self._answers.stats().as_dict() if self._answers is not None else None
            ),
            "materialized": (
                {
                    "enabled": True,
                    "pool_size": len(self._mats),
                    "pool_capacity": self._mats.capacity,
                    "materializations": self._materializations.value,
                    "delta_refreshes": self._delta_refreshes.value,
                    "noop_refreshes": self._noop_refreshes.value,
                    "answer_refreshes": self._answer_refreshes.value,
                    "answers_carried": self._answers_carried.value,
                    "answers_extended": self._answers_extended.value,
                }
                if self._materialize
                else {"enabled": False}
            ),
            "persistence": (
                self._store.stats() if self._store is not None else None
            ),
            # Cluster runtime only: the manager's transport snapshot
            # (per-worker wire bytes, batches, reconnects, heartbeat RTT).
            # None under every other runtime — and before the first
            # cluster query, since the client connects lazily.
            "cluster": (
                self._session.cluster_stats()
                if self._session.runtime == "cluster"
                else None
            ),
            "graph_cache": asdict(self.cache_stats()),
            "lock": {
                "reads_acquired": self._rw.reads_acquired,
                "writes_acquired": self._rw.writes_acquired,
                "max_concurrent_readers": self._rw.max_concurrent_readers,
            },
        }
