"""A convenience session API: one knowledge base, many queries.

The paper's IDB is split into the *permanent* IDB and per-query rules
(Section 1): the PIDB and EDB persist while queries come and go.
:class:`Session` mirrors that — and treats it as a serving architecture.
Construct it once with rules and facts, then call :meth:`query` with goal
atoms.  Two layers persist across queries:

* **the EDB**: one shared, index-preserving
  :class:`~repro.relational.database.Database` is built at construction
  and handed to every engine, so :class:`~repro.relational.relation.Relation`
  hash indexes survive from query to query (``add_facts`` extends them
  incrementally instead of rebuilding);
* **the rule/goal graph**: Theorem 2.1 makes the information-passing
  graph depend only on the IDB and the query's variant signature — never
  on the EDB — so graphs are cached in a bounded LRU
  (:class:`~repro.cache.GraphCache`) keyed by
  :func:`~repro.core.rulegoal.graph_cache_key` and reused across queries
  *and* across ``add_facts``.  ``add_rules`` flushes the graph cache.

Each :class:`~repro.network.engine.QueryResult` reports per-query database
counters (the engine snapshots the shared counters at ``run()`` start)
plus the cache outcome in ``graph_cache_hit`` / ``cache_stats``.

>>> from repro.session import Session
>>> s = Session('''
...     anc(X, Y) <- par(X, Y).
...     anc(X, Y) <- par(X, U), anc(U, Y).
...     par(ann, bob).  par(bob, cal).
... ''')
>>> sorted(s.query("anc(ann, Z)"))
[('bob',), ('cal',)]
>>> s.ask("anc(ann, cal)")
True
>>> s.query("anc(ann, W)") == s.query("anc(ann, Z)")  # graph-cache hit
True
>>> s.last_result.graph_cache_hit
True
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .cache import CacheStats, GraphCache
from .core.atoms import Atom
from .core.parser import _Parser, _tokenize, parse_program, query_to_rule
from .core.program import Program, ProgramError
from .core.rulegoal import (
    RuleGoalGraph,
    SipFactory,
    build_rule_goal_graph,
    graph_cache_key,
    rule_set_fingerprint,
)
from .core.rules import GOAL_PREDICATE, Rule
from .core.sips import greedy_sip
from .network.engine import QueryResult, evaluate
from .relational.database import Database

__all__ = ["Session", "PreparedQuery", "MaterializedQuery", "MaterializedQueryClosed"]


def _parse_query_atoms(query: Union[str, Atom, Sequence[Atom]]) -> list[Atom]:
    if isinstance(query, Atom):
        return [query]
    if isinstance(query, str):
        parser = _Parser(_tokenize(query.rstrip(". \n") + "."))
        return parser.atom_list()
    return list(query)


@dataclass(frozen=True)
class PreparedQuery:
    """A query parsed once: its atoms plus the Theorem 2.1 cache key.

    Built by :meth:`Session.prepare`; every Session entry point accepts
    one in place of the raw query, so a serving layer that needs the key
    *before* evaluating (answer-cache lookup, in-flight coalescing) pays
    one parse and one key computation per request instead of two.
    ``fingerprint`` pins the IDB rule set the key was computed against —
    if ``add_rules`` commits in between, the key is recomputed rather
    than trusted (the atoms themselves never go stale).
    """

    atoms: tuple[Atom, ...]
    key: tuple
    fingerprint: tuple
    #: The bucketed EDB-size digest the key embeds under ``planner="cost"``
    #: (always ``()`` for the static planner).  If ``add_facts`` grows a
    #: relation past the next order of magnitude, the key is recomputed.
    size_fingerprint: tuple = ()


class MaterializedQueryClosed(RuntimeError):
    """The materialization was invalidated (``add_rules``) or closed."""


class MaterializedQuery:
    """One query kept *warm*: the evaluated network retained for deltas.

    After the initial fixpoint the engine's per-node state — goal-node
    answer relations, rule-node environments and stage temporaries, the
    per-stream dedup sets — is kept alive.  Each committed ``add_facts``
    on the owning session enqueues its delta tuples here;
    :meth:`refresh` injects them into the warm network
    (:meth:`~repro.network.engine.MessagePassingEngine.run_delta`) and
    re-runs monotone set-semantics propagation to convergence — classic
    semi-naive evaluation, so a refresh costs work proportional to the
    *new* derivations, not the whole fixpoint.

    Lifecycle: created by :meth:`Session.materialize`, fed by the
    session's writes, invalidated by ``add_rules`` (the IDB fingerprint
    the network was built against changed), released by :meth:`close`.
    Instances are internally locked — refreshes and delta enqueues are
    mutually exclusive — but the *answers* object must be treated as
    read-only by callers.
    """

    def __init__(self, session: "Session", prepared: PreparedQuery, engine, result) -> None:
        self._session = session
        self.prepared = prepared
        self.key = prepared.key
        self._engine = engine
        self._result = result
        #: db_version of the last converged fixpoint this holds.
        self.version = session.db_version
        #: db_version the last wave started from: ``result.new_answers`` is
        #: exactly what the answers gained between it and ``version``.
        self.previous_version = self.version
        self._pending: list[Atom] = []
        self._pending_version = self.version
        self._lock = threading.RLock()
        self.refreshes = 0  # delta waves propagated
        self.noop_refreshes = 0  # ... of which no EDB leaf accepted a row
        self.closed = False

    # ------------------------------------------------------------------
    @property
    def answers(self) -> set[tuple]:
        """The answer set as of the last converged refresh (no implicit work).

        A refresh that derives nothing keeps this very object; one that
        derives something replaces it.
        """
        return self._result.answers

    @property
    def result(self) -> QueryResult:
        """The full :class:`QueryResult` of the last converged wave."""
        return self._result

    @property
    def stale(self) -> bool:
        """True when committed deltas have not been propagated yet."""
        with self._lock:
            return bool(self._pending) and not self.closed

    # ------------------------------------------------------------------
    def _absorb_write(self, facts: Sequence[Atom], version: int) -> None:
        """Session hook: queue one committed delta batch (cheap, no eval)."""
        with self._lock:
            if self.closed:
                return
            self._pending.extend(facts)
            self._pending_version = version

    def refresh(self) -> QueryResult:
        """Propagate every pending delta through the warm network.

        Returns the (possibly unchanged) :class:`QueryResult`; answers
        after a refresh equal a from-scratch evaluation against the
        current base, and ``result.new_answers`` are the rows the wave
        added.  A wave that reaches none of this network's open streams
        costs only the check that it does not.  Raises :class:`MaterializedQueryClosed` once the
        materialization has been invalidated.
        """
        with self._lock:
            if self.closed:
                raise MaterializedQueryClosed(
                    "materialized query was invalidated; re-materialize"
                )
            if not self._pending:
                return self._result
            delta, self._pending = self._pending, []
            result = self._engine.run_delta(delta)
            result.graph_cache_hit = True  # the whole network was reused
            result.cache_stats = self._session.cache_stats()
            self._result = result
            self.previous_version = self.version
            self.version = self._pending_version
            self.refreshes += 1
            if not result.total_messages:
                self.noop_refreshes += 1
            return result

    def close(self) -> None:
        """Release the warm network (idempotent); further refreshes raise."""
        with self._lock:
            self.closed = True
            self._engine = None
            self._pending = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else f"v{self.version}"
        return (
            f"MaterializedQuery({', '.join(map(str, self.prepared.atoms))} "
            f"[{state}, {self.refreshes} refreshes])"
        )


class Session:
    """A permanent IDB + EDB against which queries are evaluated on demand.

    Parameters
    ----------
    source:
        The knowledge base: Datalog source text or a parsed
        :class:`~repro.core.program.Program` (any ``goal`` rules are
        stripped — the session supplies queries itself).
    sip_factory, coalesce, package_requests, planner, provenance:
        Evaluation options applied to every query (see
        :class:`~repro.network.engine.MessagePassingEngine`).
    graph_cache_size:
        LRU bound on cached rule/goal graphs (one per distinct query
        variant).  ``0`` disables graph caching — every query rebuilds
        its graph, the pre-cache behavior.
    runtime:
        Which substrate answers queries: ``"simulator"`` (default, the
        in-process scheduler), ``"pool"`` (supervised shard workers),
        ``"mp"`` (supervised one-process-per-node), or ``"cluster"``
        (remote shard workers behind a TCP cluster manager; see
        :mod:`repro.cluster`).  The non-simulator runtimes reuse the
        session's cached graphs — a retry after a worker crash skips
        graph construction — and the shared database (copy-on-write
        under fork; shipped once per database version to the cluster's
        workers, which keep it resident).
    workers:
        Pool/cluster runtimes: shard worker count (pool default: CPU
        count; cluster default: every registered worker).
    cluster_address:
        Cluster runtime: the manager's ``"host:port"``.  ``None`` makes
        the session start a private localhost
        :class:`~repro.cluster.ClusterHarness` on first query and keep
        it warm until :meth:`close`.
    cluster_listen:
        Cluster runtime, mutually exclusive with ``cluster_address``:
        instead of dialing out, *announce* a manager at this
        ``"host:port"`` (port ``0`` binds an ephemeral port; read the
        bound address from :attr:`cluster_listen_address`).  Remote
        workers dial in with ``repro worker --connect``; the first
        query blocks until at least ``workers`` (default 1) of them
        have registered, bounded by ``timeout``.
    retries, backoff, backoff_factor, jitter:
        Whole-query re-execution policy for the multiprocess runtimes
        (``retries`` = max attempts; safe by monotonicity).  ``retries``
        also accepts a prebuilt
        :class:`~repro.runtime.supervision.RetryPolicy`, which then
        wins over the scalar knobs.  ``backoff_factor > 1`` grows the
        inter-attempt sleep geometrically and ``jitter`` adds a uniform
        random slice; the defaults keep the original fixed-sleep,
        fully deterministic behavior.
    fallback:
        ``"inprocess"`` to degrade to the simulator after retries are
        exhausted (the result is flagged ``degraded``); ``"none"`` to
        propagate the typed error.
    heartbeat_interval:
        Arms wedged-worker (stalled heartbeat) detection in the
        multiprocess runtimes; ``None`` leaves only crash detection on.
    timeout:
        Per-attempt deadline for the multiprocess runtimes.
    """

    def __init__(
        self,
        source: Union[str, Program],
        sip_factory: SipFactory = greedy_sip,
        coalesce: bool = False,
        package_requests: bool = False,
        planner: str = "static",
        provenance: bool = False,
        graph_cache_size: int = 64,
        runtime: str = "simulator",
        workers: Optional[int] = None,
        cluster_address: Optional[str] = None,
        cluster_listen: Optional[str] = None,
        retries=1,
        backoff: float = 0.0,
        backoff_factor: float = 1.0,
        jitter: float = 0.0,
        fallback: str = "none",
        heartbeat_interval: Optional[float] = None,
        timeout: float = 120.0,
    ) -> None:
        if runtime not in ("simulator", "pool", "mp", "cluster"):
            raise ValueError(
                f"unknown session runtime {runtime!r}; "
                "use 'simulator', 'pool', 'mp', or 'cluster'"
            )
        if planner not in ("static", "cost"):
            raise ValueError(
                f"unknown planner {planner!r} (expected 'static' or 'cost')"
            )
        if isinstance(source, Program):
            program = source
        else:
            program = parse_program(source)
        # Strip any goal rules: the session supplies queries itself.
        self._rules = tuple(
            r for r in program.rules if r.head.predicate != GOAL_PREDICATE
        )
        # The EDB as a log of accepted facts (duplicates kept): appended to
        # in place by every write, exposed as a tuple memoized per version.
        self._facts: list[Atom] = list(program.facts)
        self._facts_view: Optional[tuple[Atom, ...]] = tuple(self._facts)
        self._idb_predicates = {r.head.predicate for r in self._rules}
        # Validate the base eagerly so later queries can skip re-validation.
        Program(self._rules, self._facts_view)
        self.sip_factory = sip_factory
        self.coalesce = coalesce
        self.package_requests = package_requests
        self.planner = planner
        self.provenance = provenance
        self.runtime = runtime
        self.workers = workers
        if cluster_address is not None and cluster_listen is not None:
            raise ValueError(
                "cluster_address and cluster_listen are mutually exclusive: "
                "either dial an existing manager or announce one, not both"
            )
        self.cluster_address = cluster_address
        self.cluster_listen = cluster_listen
        # Cluster runtime: the client (and private harness or announced
        # manager, when no address was given) are created lazily on the
        # first query and kept warm across queries — connection reuse is
        # the whole point of a session — until close() tears them down.
        self._cluster_client = None
        self._cluster_harness = None
        self._cluster_manager = None
        self._cluster_lock = threading.Lock()
        self.retries = retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.jitter = jitter
        self.fallback = fallback
        self.heartbeat_interval = heartbeat_interval
        self.timeout = timeout
        self.last_result: Optional[QueryResult] = None
        self._last_engine = None
        # The shared, index-preserving EDB (one build; grown incrementally).
        self._database = Database.from_facts(self._facts)
        # The graph cache and the IDB fingerprint that keys it.
        self._graph_cache = GraphCache(graph_cache_size)
        self._rules_fingerprint = rule_set_fingerprint(self._rules)
        # Under the cost planner, cached graphs additionally embed the
        # bucketed EDB sizes their plans were chosen from (recomputed on
        # every add_facts commit; cheap — one len() per relation).
        self._size_fingerprint = self._planner_fingerprint()
        # Monotone knowledge-base version: bumped by every committed
        # mutation (add_facts/add_rules), never by queries.  Anything
        # derived from the base at version v — notably the serving
        # layer's answer cache — stays valid exactly while the counter
        # still reads v, so version mismatch *is* the invalidation.
        self._db_version = 0
        # Live materializations (weak: dropping the handle releases the
        # warm network).  add_facts feeds each one its delta; add_rules
        # invalidates them all — the networks embed the IDB fingerprint.
        self._materialized: "weakref.WeakSet[MaterializedQuery]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    def program_for(self, query: Union[str, Atom, Sequence[Atom]]) -> Program:
        """The program (PIDB + EDB + desugared query) a query induces."""
        atoms = _parse_query_atoms(query)
        rules = list(self._rules)
        rules.append(query_to_rule(atoms))
        return Program(rules, self.facts)

    def prepare(
        self, query: Union[str, Atom, Sequence[Atom], PreparedQuery]
    ) -> PreparedQuery:
        """Parse a query and compute its cache key exactly once.

        The returned :class:`PreparedQuery` is accepted by every query
        entry point (``query``/``run_query``/``materialize``/
        ``cache_key_for``), which then skip their own parse and key
        computation — the serving layer's lookup-then-evaluate flow pays
        for one parse per request, not two.  Idempotent: preparing a
        prepared query returns it unchanged.
        """
        if isinstance(query, PreparedQuery):
            return query
        atoms = tuple(_parse_query_atoms(query))
        for atom_ in atoms:
            if atom_.predicate == GOAL_PREDICATE:
                raise ProgramError(f"'goal' may not be queried directly: {atom_}")
        key = self._key_for(atoms)
        return PreparedQuery(
            atoms, key, self._rules_fingerprint, self._size_fingerprint
        )

    def cache_key_for(
        self, query: Union[str, Atom, Sequence[Atom], PreparedQuery]
    ) -> tuple:
        """The graph-cache key a query resolves to (Theorem 2.1 key).

        Identical for *variant* queries (same predicates, constants, and
        repeated-variable pattern), different whenever the answer could
        differ — which also makes it the in-flight coalescing key used by
        :class:`repro.service.SharedSession`.
        """
        return self._current_key(self.prepare(query))

    def _planner_fingerprint(self) -> tuple:
        """The bucketed EDB-size digest (``()`` under the static planner)."""
        if self.planner == "static":
            return ()
        from .core.planner import size_fingerprint

        log_sizes = {
            predicate: math.log10(max(len(self._database.relation(predicate)), 2))
            for predicate in self._database.predicates()
            if len(self._database.relation(predicate)) > 0
        }
        return size_fingerprint(log_sizes)

    def _key_for(self, atoms: Sequence[Atom]) -> tuple:
        """The graph-cache key for query atoms under the current base."""
        return graph_cache_key(
            self._rules_fingerprint,
            atoms,
            self.sip_factory,
            self.coalesce,
            planner=self.planner,
            size_fingerprint=self._size_fingerprint,
        )

    def _current_key(self, prepared: PreparedQuery) -> tuple:
        """``prepared.key``, recomputed only if a commit outdated it."""
        if (
            prepared.fingerprint == self._rules_fingerprint
            and prepared.size_fingerprint == self._size_fingerprint
        ):
            return prepared.key
        return self._key_for(prepared.atoms)

    def _graph_for(
        self, atoms: Sequence[Atom], key: Optional[tuple] = None
    ) -> tuple[RuleGoalGraph, bool]:
        """The (possibly cached) rule/goal graph for a query; (graph, hit)."""
        if key is None:
            key = self._key_for(atoms)
        cached = self._graph_cache.get(key)
        if cached is not None:
            return cached, True  # type: ignore[return-value]
        # The base was validated at construction / mutation time and the
        # desugared query rule is safe by construction, so skip the
        # per-query O(|EDB|) re-validation the naive path would pay.
        program = Program(
            self._rules + (query_to_rule(atoms),), self.facts, validate=False
        )
        sip_factory = self.sip_factory
        plan_report = None
        if self.planner == "cost":
            from .core.planner import CostPlanner

            cost_planner = CostPlanner.from_database(self._database)
            sip_factory = cost_planner.sip_factory()
            plan_report = cost_planner.report
        graph = build_rule_goal_graph(program, sip_factory, coalesce=self.coalesce)
        if plan_report is not None:
            # Attached before caching; cached graphs are treated as
            # immutable afterwards.  The engine surfaces it on QueryResult.
            graph.plan_report = plan_report
        self._graph_cache.put(key, graph)
        return graph, False

    def query(
        self,
        query: Union[str, Atom, Sequence[Atom], PreparedQuery],
        seed: Optional[int] = None,
    ) -> set[tuple]:
        """Evaluate; answers are tuples over the query's free variables.

        Variable order follows first occurrence in the query, exactly as the
        ``?-`` syntax.  The full :class:`QueryResult` (messages, protocol
        statistics, the graph, cache accounting) is kept in
        :attr:`last_result`; multiprocess runtimes store their own result
        type there, carrying ``attempts`` / ``degraded`` / ``failure_log``
        supervision accounting instead of simulator statistics.  ``seed``
        randomizes delivery latencies in the simulator only.
        """
        result, engine = self._run_query(query, seed)
        self.last_result = result
        self._last_engine = engine
        return result.answers

    def run_query(
        self,
        query: Union[str, Atom, Sequence[Atom], PreparedQuery],
        seed: Optional[int] = None,
    ):
        """Evaluate and return the full result *without* touching session state.

        Unlike :meth:`query` this does not update :attr:`last_result` /
        :meth:`explain` state, so overlapping calls from different threads
        (e.g. :class:`repro.service.SharedSession` readers) never race on
        the result slots.  Shared structures it *does* touch — the graph
        cache and the database counters — are individually thread-safe or
        monotone.  Pass a :class:`PreparedQuery` (from :meth:`prepare`) to
        skip the parse and key computation already paid for.
        """
        result, _ = self._run_query(query, seed)
        return result

    def _run_query(self, query, seed=None):
        """Shared evaluation path; returns ``(result, engine_or_None)``."""
        from .network.engine import MessagePassingEngine

        prepared = self.prepare(query)
        graph, cache_hit = self._graph_for(
            prepared.atoms, self._current_key(prepared)
        )
        if self.runtime != "simulator":
            result = self._query_multiprocess(graph)
            result.graph_cache_hit = cache_hit
            result.cache_stats = self._graph_cache.stats()
            # explain() needs the in-process engine; none exists here.
            return result, None
        engine = MessagePassingEngine(
            graph.program,
            sip_factory=self.sip_factory,
            seed=seed,
            coalesce=self.coalesce,
            package_requests=self.package_requests,
            provenance=self.provenance,
            database=self._database,
            graph=graph,
        )
        result = engine.run()
        result.graph_cache_hit = cache_hit
        result.cache_stats = self._graph_cache.stats()
        return result, engine

    def _query_multiprocess(self, graph: RuleGoalGraph):
        """Dispatch one query to a supervised multiprocess runtime.

        The session's cached graph is passed through, so retries after a
        worker crash skip graph construction entirely, and the shared
        database rides into the workers copy-on-write under fork.
        """
        from .runtime import RetryPolicy, evaluate_multiprocessing, evaluate_pool

        if isinstance(self.retries, RetryPolicy):
            retry = self.retries
        else:
            retry = RetryPolicy(
                max_attempts=int(self.retries),
                backoff=self.backoff,
                backoff_factor=self.backoff_factor,
                jitter=self.jitter,
            )
        common = dict(
            timeout=self.timeout,
            package_requests=self.package_requests,
            retry=retry,
            fallback=self.fallback,
            heartbeat_interval=self.heartbeat_interval,
            graph=graph,
            database=self._database,
        )
        if self.runtime == "cluster":
            from .cluster import evaluate_cluster

            return evaluate_cluster(
                graph.program,
                workers=self.workers,
                client=self._ensure_cluster_client(),
                **common,
            )
        if self.runtime == "pool":
            return evaluate_pool(graph.program, workers=self.workers, **common)
        return evaluate_multiprocessing(graph.program, **common)

    # ------------------------------------------------------------------
    # Cluster runtime plumbing
    # ------------------------------------------------------------------
    def _ensure_cluster_manager(self):
        """Start (once) the announced manager for :attr:`cluster_listen`.

        Does not wait for workers — :meth:`_ensure_cluster_client` does
        that before the first dispatch.  Callers hold
        :attr:`_cluster_lock` or tolerate the idempotent race.
        """
        with self._cluster_lock:
            if self._cluster_manager is None:
                from .cluster.manager import ManagerThread

                host, _, port_text = self.cluster_listen.rpartition(":")
                self._cluster_manager = ManagerThread(
                    host or "127.0.0.1", int(port_text or 0)
                ).start()
            return self._cluster_manager

    @property
    def cluster_listen_address(self) -> str:
        """The announced manager's bound ``"host:port"``.

        Only meaningful with :attr:`cluster_listen`; starts the manager
        if the first query has not already.  Point remote workers here:
        ``repro worker --connect <this address>``.
        """
        if self.cluster_listen is None:
            raise RuntimeError(
                "cluster_listen_address requires Session(cluster_listen=...)"
            )
        return self._ensure_cluster_manager().address

    def _ensure_cluster_client(self):
        """The session's shared cluster client, created on first use.

        With :attr:`cluster_address` set it connects there; with
        :attr:`cluster_listen` set it announces a manager there and
        waits for :attr:`workers` (default 1) remote registrations;
        otherwise a private localhost
        :class:`~repro.cluster.ClusterHarness` (two workers, or
        :attr:`workers`) is started and owned by the session.  Either
        way the TCP connections persist across queries, so retry after
        a worker crash reuses the registration state the manager
        already holds.
        """
        if self.cluster_listen is not None:
            # Started outside the client lock: wait_for_workers can block
            # for the full timeout and must not hold up close().
            manager = self._ensure_cluster_manager()
            manager.wait_for_workers(self.workers or 1, timeout=self.timeout)
        with self._cluster_lock:
            if self._cluster_client is None:
                from .cluster import ClusterClient, ClusterHarness

                if self.cluster_address is not None:
                    self._cluster_client = ClusterClient(self.cluster_address)
                elif self._cluster_manager is not None:
                    self._cluster_client = ClusterClient(
                        self._cluster_manager.address
                    )
                else:
                    self._cluster_harness = ClusterHarness(
                        workers=self.workers or 2
                    ).start()
                    self._cluster_client = self._cluster_harness.client()
            return self._cluster_client

    def cluster_stats(self) -> Optional[dict]:
        """The manager's transport snapshot (cluster runtime; else ``None``).

        JSON-safe: per-worker wire counters (bytes, batches, reconnects,
        heartbeat RTT), each worker's ``spec`` block (plan/edb cache hits
        and misses, resends, bytes shipped per part, resident entries and
        bytes, held end requests), the manager's ``spec_store``, plus
        registration and job totals — the section the service ``stats``
        op surfaces under ``"cluster"``.
        """
        with self._cluster_lock:
            client = self._cluster_client
        if client is None:
            return None
        try:
            return client.stats()
        except Exception as exc:  # manager down ≠ stats op failure
            return {"error": f"{type(exc).__name__}: {exc}"}

    def close(self) -> None:
        """Release runtime resources (idempotent; simulator: no-op).

        Cluster runtime: closes the client connections and, when the
        session owns a private harness or an announced
        ``cluster_listen`` manager, stops it.  The session remains
        usable — the next query reconnects.
        """
        with self._cluster_lock:
            client, self._cluster_client = self._cluster_client, None
            harness, self._cluster_harness = self._cluster_harness, None
            manager, self._cluster_manager = self._cluster_manager, None
        if client is not None and harness is None:
            client.close()
        if harness is not None:
            harness.stop()  # also closes clients it handed out
        if manager is not None:
            manager.stop()  # announced manager; remote workers will retry

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def materialize(
        self,
        query: Union[str, Atom, Sequence[Atom], PreparedQuery],
        seed: Optional[int] = None,
    ) -> MaterializedQuery:
        """Evaluate once and keep the network warm for incremental deltas.

        Runs the query to its fixpoint and returns a
        :class:`MaterializedQuery` that retains the engine's per-node
        state.  From then on every committed ``add_facts`` queues its
        delta tuples on the materialization; ``refresh()`` propagates
        them semi-naively instead of re-deriving from scratch.
        ``add_rules`` with new rules closes all live materializations —
        their networks embed the old IDB.  Simulator runtime only: the
        multiprocess runtimes tear their node processes down after each
        query, so there is no warm network to retain.
        """
        if self.runtime != "simulator":
            raise ValueError(
                "materialized queries require the simulator runtime; "
                f"this session uses {self.runtime!r} — multiprocess "
                "runtimes invalidate and recompute instead"
            )
        from .network.engine import MessagePassingEngine

        prepared = self.prepare(query)
        graph, cache_hit = self._graph_for(
            prepared.atoms, self._current_key(prepared)
        )
        engine = MessagePassingEngine(
            graph.program,
            sip_factory=self.sip_factory,
            seed=seed,
            coalesce=self.coalesce,
            package_requests=self.package_requests,
            provenance=self.provenance,
            database=self._database,
            graph=graph,
        )
        result = engine.run()
        result.graph_cache_hit = cache_hit
        result.cache_stats = self._graph_cache.stats()
        mat = MaterializedQuery(self, prepared, engine, result)
        self._materialized.add(mat)
        return mat

    def ask(self, query: Union[str, Atom, Sequence[Atom]]) -> bool:
        """Boolean query: is the (possibly non-ground) query satisfiable?"""
        return bool(self.query(query))

    def explain(self, row: tuple):
        """Proof tree for an answer of the *last* query (needs provenance).

        Construct the session with ``provenance=True``; returns a
        :class:`~repro.network.provenance.Derivation`.
        """
        if self._last_engine is None:
            raise RuntimeError("no query has been evaluated yet")
        return self._last_engine.explain(row)

    # ------------------------------------------------------------------
    # Mutation — validate first, commit atomically
    # ------------------------------------------------------------------
    def add_facts(self, facts: Union[str, Iterable[Atom]]) -> None:
        """Extend the EDB (subsequent queries see the new facts).

        Accepts either an iterable of ground :class:`Atom` or program text
        containing only facts.  The shared database and its relation
        indexes grow incrementally; cached rule/goal graphs stay valid
        (Theorem 2.1: the graph never depends on the EDB).  Validation
        happens before any state changes, so a rejected batch leaves the
        session exactly as it was.  The cost follows the batch, not the
        base: relations and their indexes grow in place and nothing sized
        like the EDB is rebuilt.
        """
        if isinstance(facts, str):
            parsed = parse_program(facts, validate=False)
            if parsed.rules:
                raise ProgramError(
                    "add_facts accepts facts only; use add_rules for rules"
                )
            new_facts: tuple[Atom, ...] = tuple(parsed.facts)
        else:
            new_facts = tuple(facts)
        idb = self._idb_predicates
        for fact in new_facts:
            if not fact.is_ground():
                raise ProgramError(f"EDB fact {fact} is not ground")
            if fact.predicate == GOAL_PREDICATE:
                raise ProgramError(
                    "the distinguished predicate 'goal' may not appear in the EDB"
                )
            if fact.predicate in idb:
                raise ProgramError(
                    f"fact predicate {fact.predicate} is defined by IDB rules"
                )
        # May raise on arity mismatch — internally atomic, nothing committed.
        self._database.add_facts(new_facts)
        if new_facts:
            self._facts.extend(new_facts)
            self._facts_view = None
            self._db_version += 1
            self._size_fingerprint = self._planner_fingerprint()
            for mat in list(self._materialized):
                mat._absorb_write(new_facts, self._db_version)

    def add_rules(self, source: Union[str, Iterable[Rule]]) -> None:
        """Extend the permanent IDB with more rules.

        The combined program is validated *before* anything is committed —
        a validation failure leaves rules, facts, database, and caches
        untouched.  On success the graph cache is flushed: cached graphs
        were built against the old rule set.
        """
        if isinstance(source, str):
            parsed = parse_program(source, validate=False)
            new_rules: tuple[Rule, ...] = tuple(parsed.rules)
            new_facts: tuple[Atom, ...] = tuple(parsed.facts)
        else:
            new_rules = tuple(source)
            new_facts = ()
        new_rules = tuple(
            r for r in new_rules if r.head.predicate != GOAL_PREDICATE
        )
        candidate_rules = self._rules + new_rules
        # Validate the combined program first for a clear error site.
        Program(candidate_rules, self.facts + new_facts)
        if new_facts:
            # Atomic: raises on arity mismatch before touching anything.
            self._database.add_facts(new_facts)
            self._facts.extend(new_facts)
            self._facts_view = None
        self._rules = candidate_rules
        if new_rules:
            self._idb_predicates.update(r.head.predicate for r in new_rules)
            self._rules_fingerprint = rule_set_fingerprint(self._rules)
            self._graph_cache.clear()
        if new_rules or new_facts:
            self._db_version += 1
        if new_facts:
            self._size_fingerprint = self._planner_fingerprint()
        if new_rules:
            # Live networks embed the old IDB — invalidate, don't refresh.
            for mat in list(self._materialized):
                mat.close()
        elif new_facts:
            for mat in list(self._materialized):
                mat._absorb_write(new_facts, self._db_version)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rules(self) -> tuple[Rule, ...]:
        """The permanent IDB."""
        return self._rules

    @property
    def facts(self) -> tuple[Atom, ...]:
        """The extensional database, as a tuple (rebuilt once per write)."""
        if self._facts_view is None:
            self._facts_view = tuple(self._facts)
        return self._facts_view

    @property
    def database(self) -> Database:
        """The shared EDB instance handed to every query's engine.

        Its ``scans``/``indexed_lookups``/``rows_retrieved`` counters are
        cumulative across the session; each :class:`QueryResult` reports
        per-query deltas.
        """
        return self._database

    @property
    def db_version(self) -> int:
        """The monotone version of the knowledge base (mutation counter).

        Bumped once per committed ``add_facts``/``add_rules`` that
        actually changed something.  Two reads of the session at the
        same version are guaranteed to see the same rules and facts, so
        ``(cache_key_for(q), db_version)`` keys an answer set soundly:
        Theorem 2.1 covers the graph/query side, the version covers the
        EDB/IDB side.
        """
        return self._db_version

    @property
    def graph_cache(self) -> GraphCache:
        """The session's rule/goal-graph cache (for inspection and tests)."""
        return self._graph_cache

    def cache_stats(self) -> CacheStats:
        """A snapshot of graph-cache hit/miss/eviction counters."""
        return self._graph_cache.stats()
