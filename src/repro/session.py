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
  on the EDB — and a query constant that equals no rule constant shapes
  it only through which query constants it equals.  So graphs are built
  per query *shape* (:func:`~repro.core.rulegoal.query_shape`: such
  constants become numbered parameters, bound when the engine reads
  them), cached in a bounded LRU (:class:`~repro.cache.GraphCache`) keyed
  by :func:`~repro.core.rulegoal.graph_cache_key` over the shape, and
  reused across queries, constants *and* ``add_facts``.  ``add_rules``
  flushes the graph cache.

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
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .cache import CacheStats, GraphCache
from .core.atoms import Atom
from .core.parser import parse_program, parse_query, query_to_rule
from .core.program import Program, ProgramError
from .core.rulegoal import (
    RuleGoalGraph,
    SipFactory,
    graph_cache_key,
    plan_graph,
    query_shape,
    rule_constants,
    rule_set_fingerprint,
)
from .core.rules import GOAL_PREDICATE, Rule
from .core.sips import greedy_sip
from .network.engine import MessagePassingEngine, QueryResult, collector_paused
from .options import EvalOptions, RetryPolicy, RuntimeOptions
from .relational.database import Database

__all__ = ["Session", "PreparedQuery", "MaterializedQuery", "MaterializedQueryClosed"]


def _parse_query_atoms(query: Union[str, Atom, Sequence[Atom]]) -> list[Atom]:
    if isinstance(query, Atom):
        return [query]
    if isinstance(query, str):
        return list(parse_query(query))
    return list(query)


@dataclass(frozen=True)
class PreparedQuery:
    """A query parsed once: its atoms, its two keys and its bindings.

    Built by :meth:`Session.prepare`; every Session entry point accepts
    one in place of the raw query, so a serving layer that needs the key
    *before* evaluating (answer-cache lookup, in-flight coalescing) pays
    one parse and one key computation per request instead of two.
    ``key`` is the Theorem 2.1 value key — the coalescing and answer-cache
    key, per constant value.  ``shape_key`` keys the graph cache: the same
    key over the query's shape, whose parameters ``bindings`` fill.
    ``fingerprint`` pins the IDB rule set the keys were computed against —
    if ``add_rules`` commits in between, they are recomputed rather than
    trusted (the atoms themselves never go stale).
    """

    atoms: tuple[Atom, ...]
    key: tuple
    fingerprint: tuple
    #: The bucketed EDB-size digest the key embeds under ``planner="cost"``
    #: (always ``()`` for the static planner).  If ``add_facts`` grows a
    #: relation past the next order of magnitude, the key is recomputed.
    size_fingerprint: tuple = ()
    #: The query atoms with each non-rule constant a numbered parameter.
    shape: tuple[Atom, ...] = ()
    shape_key: tuple = ()
    #: ``bindings[k]`` is the value of the shape's ``Parameter(k)``.
    bindings: tuple = ()


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

        A refresh that reaches no open stream keeps this very object; one
        that runs a wave replaces it and leaves the old one as it was.
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
    sip_factory, package_requests, planner, provenance:
        The :class:`~repro.options.EvalOptions` applied to every query,
        kept as :attr:`options`.  Every query runs the coalesced rule/goal
        graph.
    graph_cache_size:
        LRU bound on cached rule/goal graphs, one per query *shape*:
        queries that differ only in constants equal to no rule constant
        share a graph.  ``0`` disables graph caching — every query
        rebuilds its graph, the pre-cache behavior.
    runtime, workers, cluster_address, cluster_listen, fallback,
    heartbeat_interval, timeout:
        The :class:`~repro.options.RuntimeOptions`, kept as
        :attr:`runtime_options`; ``batch_size`` and ``edb_shards`` keep
        their defaults.  The pool and cluster runtimes reuse the
        session's cached graphs and its database; a cluster session keeps
        its client (and any harness or announced manager, whose bound
        address is :attr:`cluster_listen_address`) until :meth:`close`.
    retries, backoff, backoff_factor, jitter:
        The :class:`~repro.options.RetryPolicy` (``retries`` = attempts),
        or a prebuilt policy as ``retries``, which then wins over the
        scalar knobs.
    """

    def __init__(
        self,
        source: Union[str, Program],
        sip_factory: SipFactory = greedy_sip,
        package_requests: bool = True,
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
        #: What shapes every query's graph and network (the cache keys'
        #: options) ...
        self.options = EvalOptions(
            sip_factory=sip_factory,
            package_requests=package_requests,
            planner=planner,
            provenance=provenance,
        )
        #: ... and where the network runs (never part of a key).
        self.runtime_options = RuntimeOptions(
            runtime=runtime,
            workers=workers,
            cluster_address=cluster_address,
            cluster_listen=cluster_listen,
            retry=(
                retries
                if isinstance(retries, RetryPolicy)
                else RetryPolicy(int(retries), backoff, backoff_factor, jitter)
            ),
            fallback=fallback,
            heartbeat_interval=heartbeat_interval,
            timeout=timeout,
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
        # Validate the base eagerly so later queries can skip re-validation;
        # facts the program's own validation accepted are not walked again.
        Program(self._rules, self._facts_view, validate=False).validate(
            facts=not program.facts_validated
        )
        # Cluster runtime: the client (and private harness or announced
        # manager, when no address was given) open lazily on the first
        # query and stay warm across queries — connection reuse is the
        # whole point of a session — until close() releases them.
        self._cluster = None
        if runtime == "cluster":
            from .cluster.evaluate import ClusterLink

            self._cluster = ClusterLink(self.runtime_options)
        #: The last :meth:`query`'s full result (``None`` before the first).
        self.last_result: Optional[QueryResult] = None
        #: That query's engine, kept for :meth:`explain` only when
        #: ``provenance=True`` — the one case it can explain; any other
        #: engine is freed as soon as its query returns.
        self._last_engine = None
        # The shared, index-preserving EDB (one build; grown incrementally).
        self._database = Database.from_facts(self._facts)
        # The graph cache and the IDB fingerprint that keys it.
        self._graph_cache = GraphCache(graph_cache_size)
        self._rules_fingerprint = rule_set_fingerprint(self._rules)
        # A query constant equal to one of these stays literal in its shape.
        self._rule_constants = rule_constants(self._rules)
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

    # The options' fields, read where they used to be attributes.
    sip_factory = property(lambda self: self.options.sip_factory)
    planner = property(lambda self: self.options.planner)
    provenance = property(lambda self: self.options.provenance)
    runtime = property(lambda self: self.runtime_options.runtime)
    workers = property(lambda self: self.runtime_options.workers)
    cluster_address = property(lambda self: self.runtime_options.cluster_address)
    cluster_listen = property(lambda self: self.runtime_options.cluster_listen)
    timeout = property(lambda self: self.runtime_options.timeout)

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
        # Fingerprints first: add_rules publishes the rule constants before
        # the fingerprint, so a shape taken against older constants is
        # stamped stale and recomputed before its graph is looked up.
        fingerprint, size_fingerprint = self._rules_fingerprint, self._size_fingerprint
        shape, bindings = query_shape(atoms, self._rule_constants)
        return PreparedQuery(
            atoms,
            self._key_for(atoms),
            fingerprint,
            size_fingerprint,
            shape,
            self._key_for(shape),
            bindings,
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
        options = self.options
        return graph_cache_key(
            self._rules_fingerprint,
            atoms,
            options.sip_factory,
            planner=options.planner,
            size_fingerprint=self._size_fingerprint,
        )

    def _is_current(self, prepared: PreparedQuery) -> bool:
        """Whether no commit outdated ``prepared``'s keys."""
        return (
            prepared.fingerprint == self._rules_fingerprint
            and prepared.size_fingerprint == self._size_fingerprint
        )

    def _current_key(self, prepared: PreparedQuery) -> tuple:
        """``prepared.key``, recomputed only if a commit outdated it."""
        if self._is_current(prepared):
            return prepared.key
        return self._key_for(prepared.atoms)

    def _graph_for(
        self, prepared: PreparedQuery
    ) -> tuple[RuleGoalGraph, tuple, bool]:
        """The (possibly cached) shape graph for a query; (graph, bindings, hit)."""
        if not self._is_current(prepared):
            prepared = self.prepare(prepared.atoms)
        cached = self._graph_cache.get(prepared.shape_key)
        if cached is not None:
            return cached, prepared.bindings, True  # type: ignore[return-value]
        # Rules only: the base was validated at construction / mutation
        # time, the desugared query rule is safe by construction, and the
        # EDB predicates are the database's — no miss walks the facts.
        program = Program(
            self._rules + (query_to_rule(prepared.shape),),
            edb_predicates=self._database.predicates(),
            validate=False,
        )
        # A cost plan's report rides on the graph, cached with it; cached
        # graphs are treated as immutable afterwards.
        options = self.options
        graph = plan_graph(program, options.planner, options.sip_factory, self._database)
        self._graph_cache.put(prepared.shape_key, graph)
        return graph, prepared.bindings, False

    def query(
        self,
        query: Union[str, Atom, Sequence[Atom], PreparedQuery],
        seed: Optional[int] = None,
    ) -> set[tuple]:
        """Evaluate; answers are tuples over the query's free variables.

        Variable order follows first occurrence in the query, exactly as the
        ``?-`` syntax.  The full :class:`QueryResult` (messages, protocol
        statistics, the graph, cache accounting) is kept in
        :attr:`last_result`; the pool and cluster runtimes store a
        :class:`~repro.runtime.sharded.ShardedQueryResult` there, carrying
        per-shard accounting and ``attempts`` / ``degraded`` /
        ``failure_log`` instead of simulator statistics.  ``seed``
        randomizes delivery latencies in the simulator only.

        The evaluated network is kept for :meth:`explain` only when the
        session records provenance; otherwise it is freed before this
        returns.  While the simulator runs, the cyclic collector is paused
        process-wide (:func:`~repro.network.engine.collector_paused`).
        """
        result, self._last_engine = self._run_query(query, seed)
        self.last_result = result
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
        skip the parse and key computation already paid for.  As in
        :meth:`query`, the simulator pauses the cyclic collector
        process-wide while it runs.
        """
        result, _ = self._run_query(query, seed)
        return result

    def _run_query(self, query, seed=None, materialize=False):
        """Shared evaluation path; returns ``(result, engine_or_None)``.

        The simulator builds and runs its engine under
        :func:`~repro.network.engine.collector_paused` and drops it before
        the pause ends, unless a provenance session keeps it for
        :meth:`explain`.  A materialization keeps its network warm, so it
        runs with the collector as it is and gets its engine back.
        """
        graph, bindings, cache_hit = self._graph_for(self.prepare(query))
        engine = None
        if self.runtime != "simulator":
            from .runtime.sharded import evaluate_sharded

            # The cached graph makes a retry skip graph construction; the
            # shared database rides into the workers copy-on-write (pool)
            # or by digest (cluster).
            result = evaluate_sharded(
                graph.program,
                self.options,
                self.runtime_options,
                client=self._ensure_cluster_client(),
                graph=graph,
                database=self._database,
                bindings=bindings,
            )
        else:
            with nullcontext() if materialize else collector_paused():
                engine = MessagePassingEngine(
                    graph.program,
                    seed=seed,
                    database=self._database,
                    graph=graph,
                    bindings=bindings,
                    **vars(self.options),
                )
                result = engine.run()
                if not (materialize or self.provenance):
                    engine = None  # freed here, before the collector resumes
        result.graph_cache_hit = cache_hit
        result.cache_stats = self._graph_cache.stats()
        return result, engine

    # ------------------------------------------------------------------
    # Cluster runtime plumbing
    # ------------------------------------------------------------------
    @property
    def cluster_listen_address(self) -> str:
        """The announced manager's bound ``"host:port"``.

        Only meaningful with :attr:`cluster_listen`; starts the manager
        if the first query has not already.  Point remote workers here:
        ``repro worker --connect <this address>``.
        """
        if self._cluster is None or self.cluster_listen is None:
            raise RuntimeError(
                "cluster_listen_address requires "
                "Session(runtime='cluster', cluster_listen=...)"
            )
        return self._cluster.manager().address

    def _ensure_cluster_client(self):
        """The session's cluster client, opened on first use (``None`` off
        the cluster runtime).  Its TCP connections persist across queries,
        so a retry after a worker crash reuses the registration state the
        manager already holds."""
        return self._cluster.client() if self._cluster is not None else None

    def cluster_stats(self) -> Optional[dict]:
        """The manager's transport snapshot (cluster runtime; else ``None``).

        JSON-safe: per-worker wire counters (bytes, batches, reconnects,
        heartbeat RTT), each worker's ``spec`` block (plan/edb cache hits
        and misses, resends, bytes shipped per part, resident entries and
        bytes, held end requests), the manager's ``spec_store``, plus
        registration and job totals — the section the service ``stats``
        op surfaces under ``"cluster"``.
        """
        return self._cluster.stats() if self._cluster is not None else None

    def close(self) -> None:
        """Release runtime resources (idempotent; simulator: no-op).

        Cluster runtime: closes the client connections and, when the
        session owns a private harness or an announced
        ``cluster_listen`` manager, stops it.  The session remains
        usable — the next query reconnects.
        """
        if self._cluster is not None:
            self._cluster.close()

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
        prepared = self.prepare(query)
        result, engine = self._run_query(prepared, seed, materialize=True)
        mat = MaterializedQuery(self, prepared, engine, result)
        self._materialized.add(mat)
        return mat

    def ask(self, query: Union[str, Atom, Sequence[Atom]]) -> bool:
        """Boolean query: is the (possibly non-ground) query satisfiable?"""
        return bool(self.query(query))

    def explain(self, row: tuple):
        """Proof tree for an answer of the *last* query (needs provenance).

        Construct the session with ``provenance=True``; returns a
        :class:`~repro.network.provenance.Derivation`.  Raises
        ``RuntimeError`` before the first :meth:`query`, and
        :class:`~repro.network.provenance.ProvenanceError` when the last
        query kept no network to explain (provenance off, or a
        multiprocess runtime).
        """
        if self.last_result is None:
            raise RuntimeError("no query has been evaluated yet")
        if self._last_engine is None:
            from .network.provenance import ProvenanceError

            raise ProvenanceError(
                "construct the session with provenance=True to record derivations"
                if self.runtime == "simulator"
                else f"the {self.runtime!r} runtime keeps no network to explain"
            )
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
            self._rule_constants = rule_constants(self._rules)
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
