"""The message-passing query evaluation engine.

Glues the pieces together: builds the information-passing rule/goal graph
(Section 2), instantiates one process per node (Section 3.1), wires consumer
and feeder streams along the graph's arcs, attaches the Fig-2 termination
protocol to every strong component (Section 3.2), and runs the network to
completion under the deterministic scheduler.

The public entry point is :func:`evaluate`; it returns a
:class:`QueryResult` carrying the goal relation together with the message,
storage, join, and protocol statistics the benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..cache import CacheStats
from ..core.adornment import AdornedAtom
from ..core.program import Program
from ..core.rulegoal import RuleGoalGraph, SipFactory, plan_graph
from ..core.sips import greedy_sip
from ..options import EvalOptions
from ..relational.database import Database
from .messages import Message
from .nodes import (
    DRIVER_ID,
    CyclicNodeProcess,
    DriverProcess,
    EdbLeafProcess,
    GoalNodeProcess,
    NodeProcess,
    RuleNodeProcess,
)
from .scheduler import Scheduler, SchedulerStats
from .termination import TerminationProtocol

__all__ = ["QueryResult", "MessagePassingEngine", "evaluate", "assign_shards"]


def assign_shards(engine: "MessagePassingEngine", n_shards: int) -> dict[int, int]:
    """Node -> shard placement for the pooled runtime.

    Placement policy:

    * every strong component stays whole on one shard (round-robin over
      components, largest first), so the Fig-2 termination waves — and the
      dense intra-component tuple traffic — never cross a process boundary;
    * EDB replicas are spread by replica index, one per shard when counts
      match, so the hash-routed semijoin fan-out lands on distinct workers;
    * remaining acyclic nodes round-robin; the driver pins to shard 0.
    """
    n_shards = max(1, n_shards)
    assignment: dict[int, int] = {DRIVER_ID: 0}
    components = sorted(
        engine.graph.strong_components(), key=lambda info: (-len(info.members), info.leader)
    )
    for index, info in enumerate(components):
        shard = index % n_shards
        for member in info.members:
            assignment[member] = shard
    for replica_ids in engine.edb_replicas.values():
        for k, replica_id in enumerate(replica_ids):
            assignment[replica_id] = k % n_shards
    rest = sorted(nid for nid in engine.processes if nid not in assignment)
    for index, node_id in enumerate(rest):
        assignment[node_id] = index % n_shards
    return assignment


@dataclass
class QueryResult:
    """Everything a run produces: the answer plus full accounting."""

    answers: set[tuple]
    completed: bool  # the driver received its end message
    stats: SchedulerStats
    tuples_stored: int  # rows materialized across all node relations
    tuples_by_node: dict[str, int]
    join_lookups: int  # alias of probe_lookups (pre-PR-8 name, kept for A/Bs)
    envs_materialized: int
    protocol_rounds: int
    protocol_conclusions: int
    protocol_violations: list[str]
    db_scans: int
    db_indexed_lookups: int
    db_rows_retrieved: int
    graph: RuleGoalGraph
    #: The values of ``graph``'s parameters (a shape graph); labels bind them.
    bindings: tuple = ()
    # Session-cache accounting (filled by Session; defaults for direct use).
    graph_cache_hit: bool = False
    cache_stats: Optional[CacheStats] = None
    # Supervision accounting, shared with the sharded runtimes' result:
    # the in-process scheduler always answers in one non-degraded attempt.
    attempts: int = 1
    degraded: bool = False
    failure_log: list[str] = field(default_factory=list)
    # True when this result came from a semi-naive delta wave through a
    # warm network (MessagePassingEngine.run_delta) rather than a cold
    # fixpoint.  Message and db counters then cover the wave alone, while
    # tuples_stored/join_lookups/envs_materialized stay cumulative — they
    # describe the retained network's footprint, not one wave's work.
    incremental: bool = False
    # Delta waves only: the rows this wave added to ``answers`` (empty for
    # a wave that derived nothing).  None for a cold fixpoint, where every
    # answer is new.  A consumer holding the previous answer set extends it
    # with these instead of re-reading ``answers``.
    new_answers: Optional[frozenset] = None
    # PR 8 accounting: index probes vs. insertions (join_lookups used to
    # conflate them), per-kernel batch statistics, and — under the cost
    # planner — the per-rule plan choices with their §4.3 estimates.
    probe_lookups: int = 0
    index_inserts: int = 0
    batch_rows_in: int = 0
    batch_rows_out: int = 0
    batch_distinct_keys: int = 0
    batch_stats_by_node: dict = field(default_factory=dict)
    plan: Optional[object] = None  # core.planner.PlanReport when planner="cost"

    @property
    def total_messages(self) -> int:
        """All delivered *logical* messages (a TupleSet counts len(rows))."""
        return self.stats.delivered_total

    @property
    def physical_messages(self) -> int:
        """Actual message deliveries (a TupleSet counts once)."""
        return self.stats.physical_total

    @property
    def computation_messages(self) -> int:
        """Delivered relation/tuple requests, tuples, and ends."""
        return self.stats.computation_messages

    @property
    def protocol_messages(self) -> int:
        """Delivered end request/negative/confirmed messages."""
        return self.stats.protocol_messages

    def summary(self) -> str:
        """A compact human-readable report."""
        stats = self.stats
        lines = [
            f"answers: {len(self.answers)}",
            f"messages: {self.total_messages} logical in {self.physical_messages} "
            f"deliveries (computation {self.computation_messages}, "
            f"protocol {self.protocol_messages})",
        ]
        if stats.tuple_sets:
            lines.append(
                f"tuple sets: {stats.tuple_sets} carrying {stats.tuple_set_rows} rows "
                f"(avg batch {stats.tuple_set_rows / stats.tuple_sets:.1f})"
            )
        lines += [
            f"tuples stored: {self.tuples_stored}; probes: {self.probe_lookups}; "
            f"inserts: {self.index_inserts}",
            f"kernel batches: {self.batch_rows_in} rows in, "
            f"{self.batch_rows_out} envs out, "
            f"{self.batch_distinct_keys} distinct keys probed",
            f"protocol rounds: {self.protocol_rounds}; conclusions: {self.protocol_conclusions}",
            f"db: {self.db_scans} scans, {self.db_indexed_lookups} lookups, "
            f"{self.db_rows_retrieved} rows retrieved",
        ]
        if self.plan is not None:
            lines.append(f"planner: {self.plan.oneline()}")
        if self.cache_stats is not None:
            hit = "hit" if self.graph_cache_hit else "miss"
            lines.append(f"graph cache: {hit} ({self.cache_stats})")
        return "\n".join(lines)

    def node_table(self, top: int = 10) -> str:
        """The busiest nodes: messages received and tuples stored, per node.

        A per-process hot-spot view — in a real deployment these would be the
        processes to place on separate machines or to coalesce.
        """
        label_by_id = {
            node_id: self.graph.node_label(node_id, self.bindings)
            for node_id in list(self.graph.goal_nodes) + list(self.graph.rule_nodes)
        }
        rows = []
        for node_id, received in self.stats.by_receiver.items():
            if node_id == DRIVER_ID:
                label = "driver"
            else:
                # Ids beyond the graph belong to EDB replicas (edb_shards > 1).
                label = label_by_id.get(node_id, f"edb-replica:{node_id}")
            batch = self.batch_stats_by_node.get(label, (0, 0, 0))
            rows.append(
                (
                    received,
                    self.tuples_by_node.get(label, 0),
                    self.stats.sets_by_receiver.get(node_id, 0),
                    batch,
                    label,
                )
            )
        rows.sort(reverse=True)
        width = max((len(r[4]) for r in rows[:top]), default=4)
        lines = [
            f"{'node'.ljust(width)}  msgs-in  tuples  sets-in  rows-in  envs-out  keys"
        ]
        for received, tuples, sets, (b_in, b_out, b_keys), label in rows[:top]:
            lines.append(
                f"{label.ljust(width)}  {received:7d}  {tuples:6d}  {sets:7d}"
                f"  {b_in:7d}  {b_out:8d}  {b_keys:4d}"
            )
        return "\n".join(lines)


class MessagePassingEngine:
    """Builds the process network for a program and evaluates queries.

    Parameters
    ----------
    program:
        The validated EDB+IDB+query bundle.
    sip_factory, coalesce, package_requests, planner, provenance:
        The :class:`~repro.options.EvalOptions` fields (documented there),
        kept as ``self.options``.
    seed:
        ``None`` for send-order delivery; an int for seeded random latencies
        (exercises asynchrony; the answer must not change).
    validate_protocol:
        When true (default), every protocol conclusion is checked against the
        scheduler's global quiescence oracle — Theorem 3.1's "only if"
        direction; violations are recorded in the result.
    database:
        A shared EDB to serve leaf requests from (defaults to one built from
        the program's inline facts).  Shared databases keep cumulative
        access counters; results always report per-query deltas.
    graph:
        A prebuilt rule/goal graph to reuse (e.g. from a session cache);
        construction is skipped and ``sip_factory``/``coalesce``/``planner``
        are ignored for graph-building purposes.  Treated as read-only.
    bindings:
        The values of ``graph``'s parameters when it is a *shape* graph
        (see :func:`~repro.core.rulegoal.query_shape`): ``bindings[k]``
        replaces ``Parameter(k)`` wherever a value is read — an EDB leaf's
        constant filter, a rule node's constant head slots — and in every
        node label.  Empty for a graph built from the query's own values.
    edb_shards:
        When > 1, every EDB leaf with "d" positions is partitioned into that
        many replica processes, each serving the hash partition of the
        bindings routed to it (``repro.network.nodes.route_hash``).  Each
        consumer keeps one fully-accounted stream per replica, so the
        end-message semantics is untouched; the pooled runtime places the
        replicas on distinct shards so semijoin fan-out parallelizes.

    Producers ship each burst of more than one fresh answer row as a single
    :class:`~repro.network.messages.TupleSet` (a lone row travels as a
    :class:`~repro.network.messages.TupleMessage`) and every node joins
    whole batches with the set-at-a-time kernels; accounting stays in
    logical tuples (a set weighs ``len(rows)``).  ``provenance=True`` runs
    the same kernels and only adds the first-derivation bookkeeping.

    Nothing in the process network points back at a process or the
    engine, so dropping the last reference to an engine frees the whole
    network by reference counting, without a cyclic collection.
    """

    def __init__(
        self,
        program: Program,
        sip_factory: SipFactory = greedy_sip,
        seed: Optional[int] = None,
        max_messages: int = 5_000_000,
        validate_protocol: bool = True,
        query_goal: Optional[AdornedAtom] = None,
        trace: Optional[Callable[[Message], None]] = None,
        coalesce: bool = False,
        package_requests: bool = False,
        provenance: bool = False,
        on_answer: Optional[Callable[[tuple], None]] = None,
        database: Optional[Database] = None,
        trivial_relay: bool = True,
        graph: Optional[RuleGoalGraph] = None,
        edb_shards: int = 1,
        planner: str = "static",
        bindings: tuple = (),
    ) -> None:
        self.program = program
        self.options = EvalOptions(
            sip_factory, coalesce, package_requests, planner, provenance
        )
        self.bindings = bindings
        self.database = database if database is not None else Database.from_facts(program.facts)
        # A prebuilt (possibly session-cached) graph skips planning;
        # Theorem 2.1 makes the graph EDB-independent, so a cached one is
        # valid for any database over the same IDB and query shape.
        if graph is None:
            graph = plan_graph(
                program, planner, sip_factory, self.database, query_goal, coalesce
            )
        self.graph = graph
        self._edb_shards = max(1, edb_shards)
        #: original EDB node id -> replica node ids (original first); empty
        #: unless ``edb_shards > 1``.
        self.edb_replicas: dict[int, tuple[int, ...]] = {}
        self._on_answer = on_answer
        self._trivial_relay = trivial_relay
        self.scheduler = Scheduler(
            seed=seed,
            max_messages=max_messages,
            trace=trace,
            validate_protocol=validate_protocol,
        )
        self.processes: dict[int, NodeProcess] = {}
        #: EDB leaves (replicas included) by predicate: where a delta enters.
        self._edb_leaves: dict[str, list[EdbLeafProcess]] = {}
        #: The last result collected; a wave that derives nothing returns
        #: it again with the wave counters zeroed.
        self._result: Optional[QueryResult] = None
        #: Bound node labels, rendered once per engine, not once per wave.
        self._labels: dict[int, str] = {}
        self.driver: DriverProcess
        self._build_network()

    # ------------------------------------------------------------------
    def _component_members(self) -> dict[int, frozenset[int]]:
        membership: dict[int, frozenset[int]] = {}
        for info in self.graph.strong_components():
            for member in info.members:
                membership[member] = info.members
        return membership

    def _build_network(self) -> None:
        graph = self.graph
        membership = self._component_members()

        def same_component(a: int, b: int) -> bool:
            return membership.get(a) is not None and membership.get(a) == membership.get(b)

        # --- instantiate processes -----------------------------------
        for goal in graph.goal_nodes.values():
            if goal.kind == "edb":
                process: NodeProcess = EdbLeafProcess(
                    goal.id, goal.adorned, self.database, self.bindings
                )
            elif goal.kind == "cyclic":
                assert goal.cycle_source is not None
                process = CyclicNodeProcess(goal.id, goal.adorned, goal.cycle_source)
            else:
                process = GoalNodeProcess(goal.id, goal.adorned)
            self.processes[goal.id] = process
        for rule_node in graph.rule_nodes.values():
            parent_goal = graph.goal_nodes[rule_node.parent]
            self.processes[rule_node.id] = RuleNodeProcess(
                rule_node.id,
                rule_node.rule,
                rule_node.head,
                parent_goal.adorned,
                rule_node.sip.order,
                rule_node.adorned_body,
                tuple(rule_node.subgoal_children),
                self.bindings,
            )

        root_goal = graph.goal_nodes[graph.root]
        self.driver = DriverProcess(graph.root, root_goal.adorned.adornment)
        self.driver.on_answer = self._on_answer
        self.processes[DRIVER_ID] = self.driver

        # --- wire streams ---------------------------------------------
        def wants_all(producer_adorned: AdornedAtom) -> bool:
            return not producer_adorned.dynamic_positions

        for rule_node in graph.rule_nodes.values():
            parent = graph.goal_nodes[rule_node.parent]
            # rule -> parent goal (answers up)
            self.processes[rule_node.id].add_consumer(
                parent.id, wants_all(parent.adorned)
            )
            self.processes[parent.id].add_feeder(
                rule_node.id, is_feeder=not same_component(rule_node.id, parent.id)
            )
            # subgoal children -> rule node (a coalesced child may serve two
            # subgoals of the same rule: one stream each way)
            for position, child_id in enumerate(rule_node.subgoal_children):
                child = graph.goal_nodes[child_id]
                if rule_node.id not in self.processes[child_id].consumers:
                    self.processes[child_id].add_consumer(
                        rule_node.id, wants_all(child.adorned)
                    )
                if child_id not in self.processes[rule_node.id].feeders:
                    self.processes[rule_node.id].add_feeder(
                        child_id,
                        is_feeder=not same_component(child_id, rule_node.id),
                    )
        for goal in graph.goal_nodes.values():
            if goal.kind == "cyclic":
                assert goal.cycle_source is not None
                ancestor = graph.goal_nodes[goal.cycle_source]
                self.processes[ancestor.id].add_consumer(
                    goal.id, wants_all(goal.adorned)
                )
                # Ancestor and cyclic node always share a strong component.
                self.processes[goal.id].add_feeder(ancestor.id, is_feeder=False)

        self.driver.add_feeder(graph.root, is_feeder=True)
        self.processes[graph.root].add_consumer(
            DRIVER_ID, wants_all(root_goal.adorned)
        )

        # --- EDB leaf partitioning (pooled-runtime sharding) -------------
        # Each replica is a full EdbLeafProcess over the (shared) database;
        # consumers open one stream per replica and route each "d" binding
        # to the replica owning its hash partition.  Per-replica sequence
        # numbering and end messages keep the Section 3.1/3.2 accounting
        # exact — a replica ends precisely the requests it received.
        if self._edb_shards > 1:
            next_id = max(self.processes) + 1
            for goal in graph.goal_nodes.values():
                if goal.kind != "edb" or not goal.adorned.dynamic_positions:
                    continue  # nothing to partition without "d" fan-out
                original = self.processes[goal.id]
                consumer_streams = list(original.consumers.items())
                replica_ids = [goal.id]
                for _ in range(self._edb_shards - 1):
                    replica_id = next_id
                    next_id += 1
                    replica = EdbLeafProcess(
                        replica_id, goal.adorned, self.database, self.bindings
                    )
                    self.processes[replica_id] = replica
                    replica_ids.append(replica_id)
                    for consumer_id, stream in consumer_streams:
                        replica.add_consumer(consumer_id, stream.wants_all)
                        self.processes[consumer_id].add_feeder(
                            replica_id, is_feeder=True
                        )
                route = tuple(replica_ids)
                self.edb_replicas[goal.id] = route
                for consumer_id, _ in consumer_streams:
                    consumer = self.processes[consumer_id]
                    consumer.replica_route[goal.id] = route
                    if isinstance(consumer, RuleNodeProcess):
                        for replica_id in replica_ids[1:]:
                            consumer.child_stage[replica_id] = consumer.child_stage[
                                goal.id
                            ]

        # --- termination protocol per strong component -----------------
        for info in graph.strong_components():
            for member in sorted(info.members):
                protocol = TerminationProtocol(
                    node_id=member,
                    is_leader=member == info.leader,
                    bfst_parent=info.bfst_parent.get(member),
                    bfst_children=info.bfst_children.get(member, ()),
                )
                self.processes[member].attach_protocol(
                    protocol, info.members, leader_id=info.leader
                )

        # --- trivial goal nodes (§3.1's storage exemption) ---------------
        if self._trivial_relay:
            for process in self.processes.values():
                if (
                    isinstance(process, GoalNodeProcess)
                    and len(process.consumers) == 1
                    and len(process.feeders) == 1
                ):
                    process.trivial_relay = True

        # --- register with the scheduler --------------------------------
        for process in self.processes.values():
            if isinstance(process, EdbLeafProcess):
                self._edb_leaves.setdefault(
                    process.adorned.predicate, []
                ).append(process)
            process.package_requests = self.options.package_requests
            process.record_provenance = self.options.provenance
            self.scheduler.register(process)

    # ------------------------------------------------------------------
    def explain(self, row: tuple):
        """Proof tree for one answer (requires ``provenance=True``).

        Returns a :class:`~repro.network.provenance.Derivation`.
        """
        from .provenance import ProvenanceError, explain

        if not self.options.provenance:
            raise ProvenanceError(
                "construct the engine with provenance=True to record derivations"
            )
        return explain(self, row)

    # ------------------------------------------------------------------
    def run(self) -> QueryResult:
        """Evaluate the query and collect the result with full accounting."""
        # The database may be shared across queries (session caching), so its
        # counters are cumulative; snapshot now and report per-query deltas.
        snapshot = self._db_snapshot()
        self.driver.start(self.scheduler)
        stats = self.scheduler.run()
        self._result = self._collect_result(stats, snapshot)
        return self._result

    def run_delta(self, facts) -> QueryResult:
        """Semi-naive continuation: inject delta tuples, reconverge, re-collect.

        ``facts`` are ground EDB atoms **already committed to the shared
        database** (the session's ``add_facts`` path guarantees this; a
        direct caller must ``self.database.add_facts(...)`` first).  Each
        delta row is offered to the EDB leaves serving its predicate
        (:meth:`EdbLeafProcess.inject_delta`), which re-serve exactly the
        open streams that would have carried the row in a cold run; the
        scheduler then drains to a new fixpoint.  Sound because evaluation
        is monotone under set semantics: every node deduplicates, so the
        warm network's relations converge to the same least fixpoint a
        from-scratch evaluation over the grown EDB computes, and the §3.2
        end-wave machinery re-arms itself for the new work.

        The returned result's message/db counters cover this wave only
        (``scheduler.stats`` is reset per wave, which also makes the
        ``max_messages`` budget per-wave); answers and storage counters
        are cumulative across the materialization's lifetime, and
        ``new_answers`` holds exactly the rows this wave added.

        A wave no EDB leaf accepted a row of — every delta row was
        irrelevant to this network, a duplicate, or outside the bindings
        its streams requested — sends no message, so nothing downstream
        can have changed.  It returns at once, in time proportional to
        the delta and the leaves of its predicates: the previous result
        with ``incremental`` set, every per-wave counter zero, an empty
        ``new_answers`` and the *same* ``answers`` object (after another
        such wave, that very result again); the per-node walk that
        rebuilds the storage counters is skipped because they cannot
        have moved.
        """
        snapshot = self._db_snapshot()
        stats = self.scheduler.stats
        if stats.physical_total:  # else the last wave left them at zero
            stats = self.scheduler.stats = SchedulerStats()
        by_predicate: dict[str, list[tuple]] = {}
        for fact in facts:
            by_predicate.setdefault(fact.predicate, []).append(fact.ground_tuple())
        for predicate, rows in by_predicate.items():
            for leaf in self._edb_leaves.get(predicate, ()):
                leaf.inject_delta(rows, self.scheduler)
        previous = self._result
        if previous is not None and not self.scheduler.in_flight():
            if previous.stats is stats:
                return previous  # an empty wave after an empty wave
            scans, lookups, retrieved = snapshot
            result = replace(
                previous,
                stats=stats,
                db_scans=self.database.scans - scans,
                db_indexed_lookups=self.database.indexed_lookups - lookups,
                db_rows_retrieved=self.database.rows_retrieved - retrieved,
                incremental=True,
                new_answers=frozenset(),
            )
        else:
            self.driver.fresh = fresh = set()
            try:
                self.scheduler.run()
            finally:
                self.driver.fresh = None
            result = self._collect_result(stats, snapshot)
            result.incremental = True
            result.new_answers = frozenset(fresh)
        self._result = result
        return result

    def _label(self, node_id: int) -> str:
        label = self._labels.get(node_id)
        if label is None:
            label = self._labels[node_id] = self.graph.node_label(node_id, self.bindings)
        return label

    def _db_snapshot(self) -> tuple[int, int, int]:
        return (
            self.database.scans,
            self.database.indexed_lookups,
            self.database.rows_retrieved,
        )

    def _collect_result(
        self, stats: SchedulerStats, snapshot: tuple[int, int, int]
    ) -> QueryResult:
        scans_before, lookups_before, rows_before = snapshot
        tuples_by_node: dict[str, int] = {}
        batch_by_node: dict[str, tuple[int, int, int]] = {}
        tuples_total = 0
        probes = 0
        inserts = 0
        batch_in = 0
        batch_out = 0
        batch_keys = 0
        envs = 0
        rounds = 0
        conclusions = 0
        for node_id, process in self.processes.items():
            if node_id == DRIVER_ID:
                continue
            if process.tuples_stored:
                # Distinct nodes can share a label (e.g. a ground cyclic
                # variant and its ancestor), so aggregate rather than assign.
                label = self._label(node_id)
                tuples_by_node[label] = (
                    tuples_by_node.get(label, 0) + process.tuples_stored
                )
                tuples_total += process.tuples_stored
            if isinstance(process, RuleNodeProcess):
                probes += process.probe_lookups
                inserts += process.index_inserts
                batch_in += process.batch_rows_in
                batch_out += process.batch_rows_out
                batch_keys += process.batch_distinct_keys
                if process.batch_rows_in:
                    label = self._label(node_id)
                    prior = batch_by_node.get(label, (0, 0, 0))
                    batch_by_node[label] = (
                        prior[0] + process.batch_rows_in,
                        prior[1] + process.batch_rows_out,
                        prior[2] + process.batch_distinct_keys,
                    )
                envs += process.envs_materialized
                tuples_total += process.envs_materialized
            if process.protocol is not None and process.protocol.is_leader:
                rounds += process.protocol.rounds_started
                conclusions += process.protocol.conclusions

        return QueryResult(
            answers=set(self.driver.answers),
            completed=self.driver.completed,
            stats=stats,
            tuples_stored=tuples_total,
            tuples_by_node=tuples_by_node,
            join_lookups=probes,
            envs_materialized=envs,
            protocol_rounds=rounds,
            protocol_conclusions=conclusions,
            protocol_violations=list(self.scheduler.protocol_violations),
            db_scans=self.database.scans - scans_before,
            db_indexed_lookups=self.database.indexed_lookups - lookups_before,
            db_rows_retrieved=self.database.rows_retrieved - rows_before,
            graph=self.graph,
            bindings=self.bindings,
            probe_lookups=probes,
            index_inserts=inserts,
            batch_rows_in=batch_in,
            batch_rows_out=batch_out,
            batch_distinct_keys=batch_keys,
            batch_stats_by_node=batch_by_node,
            plan=getattr(self.graph, "plan_report", None),
        )


def evaluate(
    program: Program,
    sip_factory: SipFactory = greedy_sip,
    seed: Optional[int] = None,
    max_messages: int = 5_000_000,
    validate_protocol: bool = True,
    query_goal: Optional[AdornedAtom] = None,
    coalesce: bool = False,
    package_requests: bool = False,
    trivial_relay: bool = True,
    planner: str = "static",
) -> QueryResult:
    """Evaluate a program's query with the message-passing framework.

    ``sip_factory``, ``coalesce``, ``package_requests`` and ``planner``
    are :class:`~repro.options.EvalOptions` fields (documented there);
    the rest are :class:`MessagePassingEngine`'s.
    """
    options = EvalOptions(sip_factory, coalesce, package_requests, planner)
    return MessagePassingEngine(
        program,
        seed=seed,
        max_messages=max_messages,
        validate_protocol=validate_protocol,
        query_goal=query_goal,
        trivial_relay=trivial_relay,
        **vars(options),
    ).run()
