"""The sharded front: one result type and one evaluation front for both
shard transports.

:func:`~repro.runtime.pool_engine.evaluate_pool` (forked workers, queue
fabric) and :func:`~repro.cluster.evaluate.evaluate_cluster` (remote
workers, TCP fabric) differ only in how one attempt runs.  Everything
around it is :func:`evaluate_sharded`, which takes the two option values
(:mod:`repro.options`) whole: the fault plan, the graph, the choice of
transport, whole-query retry, the single in-process fallback and the
result stamping.  Both return a :class:`ShardedQueryResult`, whose accounting is
computed from the per-shard counter dicts every shard's
:class:`~repro.network.shard_loop.Router` keeps — one vocabulary on every
runtime, the in-process fallback included.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..cache import CacheStats
from ..core.adornment import AdornedAtom
from ..core.program import Program
from ..core.rulegoal import RuleGoalGraph, plan_graph
from ..network.engine import MessagePassingEngine
from ..network.shard_loop import node_label
from ..options import EvalOptions, RuntimeOptions
from ..relational.database import Database
from .faults import FaultPlan
from .supervision import run_with_retry

__all__ = ["ShardedQueryResult", "evaluate_sharded"]


@dataclass
class ShardedQueryResult:
    """Answers plus transport and supervision accounting from a sharded run.

    ``shards`` holds each shard's counters (in logical tuples: a TupleSet
    weighs ``len(rows)``); every total below is computed from them.  A
    degraded answer reports the in-process run's one shard as shard 0.
    ``transport`` (per-worker wire counters) and ``spec`` (job-spec bytes
    shipped, summed over attempts and resends) are filled by the cluster
    only, and so is the per-node data behind :meth:`node_table`.
    """

    answers: set[tuple]
    completed: bool
    workers: int  # 0 when the in-process fallback answered
    driver_last_seq_sent: int  # driver root-stream accounting (parity checks)
    driver_last_upto_ended: int
    shards: dict[int, dict] = field(default_factory=dict)
    transport: dict[str, dict] = field(default_factory=dict)
    spec: dict[str, int] = field(default_factory=dict)
    attempts: int = 1
    degraded: bool = False
    failure_log: list[str] = field(default_factory=list)
    graph: Optional[RuleGoalGraph] = field(default=None, repr=False)
    #: The values of ``graph``'s parameters (a shape graph); labels bind them.
    bindings: tuple = ()
    # Session-cache accounting (filled by Session; defaults for direct use).
    graph_cache_hit: bool = False
    cache_stats: Optional[CacheStats] = None

    def _sum(self, name: str) -> int:
        return sum(shard.get(name, 0) for shard in self.shards.values())

    @property
    def cross_messages(self) -> int:
        """Logical tuples that crossed a shard boundary."""
        return sum(sum(s.get("sent", {}).values()) for s in self.shards.values())

    @property
    def cross_batches(self) -> int:
        """Batches (queue puts / BATCH frames) used to carry them."""
        return self._sum("batches_out")

    @property
    def batching_factor(self) -> float:
        """Average messages per batch (the IPC amortization)."""
        return self.cross_messages / self.cross_batches if self.cross_batches else 0.0

    @property
    def total_messages(self) -> int:
        """All delivered logical messages, summed across shards."""
        return self._sum("delivered_logical")

    @property
    def physical_messages(self) -> int:
        return self._sum("delivered_physical")

    @property
    def protocol_messages(self) -> int:
        """Section 3.2 traffic delivered across all shards."""
        return self._sum("protocol_messages")

    @property
    def logical_tuple_rows(self) -> int:
        """Logical tuple-message rows delivered, summed across shards.

        This is the runtime-invariant slice of the accounting: node stores,
        EDB-leaf stream filters and rule-head dedup send each row once per
        stream, so the rows a stream carries are a property of the least
        fixpoint, not of batching or timing, and this total must match the
        in-process runtime's exactly — the parity tests assert it.
        Protocol-wave and end-message *counts* vary with scheduling.
        """
        return self._sum("tuple_rows")

    @property
    def held_end_requests(self) -> int:
        """End requests a busy member held, summed over every shard."""
        return self._sum("held_end_requests")

    @property
    def bytes_on_wire(self) -> int:
        return sum(
            t.get("bytes_in", 0) + t.get("bytes_out", 0)
            for t in self.transport.values()
        )

    @property
    def spec_bytes_shipped(self) -> int:
        """Job-spec bytes this query sent to the manager (0 when warm)."""
        return self.spec.get("plan_bytes", 0) + self.spec.get("edb_bytes", 0)

    def summary(self) -> str:
        """The compact report, matching ``QueryResult.summary``'s shape."""
        lines = [
            f"answers: {len(self.answers)}",
            f"messages: {self.total_messages} logical in "
            f"{self.physical_messages} deliveries "
            f"(tuple rows {self.logical_tuple_rows}, "
            f"protocol {self.protocol_messages})",
            f"cross-shard: {self.cross_messages} logical tuples in "
            f"{self.cross_batches} batches "
            f"(avg batch {self.batching_factor:.1f}) over {self.workers} workers; "
            f"held end-requests: {self.held_end_requests}",
        ]
        if self.spec:
            lines.append(
                f"wire: {self.bytes_on_wire} bytes, "
                f"{sum(t.get('reconnects', 0) for t in self.transport.values())} "
                f"reconnects"
            )
            rtts = [
                t["heartbeat_rtt_ms"]
                for t in self.transport.values()
                if t.get("heartbeat_rtt_ms") is not None
            ]
            if rtts:
                lines.append(
                    f"heartbeat rtt: {min(rtts):.2f}..{max(rtts):.2f} ms "
                    f"across {len(rtts)} workers"
                )
            hits = [s["spec"] for s in self.shards.values() if "spec" in s]
            edb_hits = [h["edb_hit"] for h in hits if h["edb_hit"] is not None]
            caches = [t["spec"] for t in self.transport.values() if "spec" in t]
            lines.append(
                f"spec: shipped {self.spec.get('plan_bytes', 0)} plan + "
                f"{self.spec.get('edb_bytes', 0)} edb bytes "
                f"({self.spec.get('resends', 0)} resends); worker cache hits: "
                f"plan {sum(h['plan_hit'] for h in hits)}/{len(hits)}, "
                f"edb {sum(edb_hits)}/{len(edb_hits)}; resident "
                f"{sum(c['resident_entries'] for c in caches)} parts / "
                f"{sum(c['resident_bytes'] for c in caches)} bytes"
            )
        lines.append(f"attempts: {self.attempts}; degraded: {self.degraded}")
        if self.cache_stats is not None:
            hit = "hit" if self.graph_cache_hit else "miss"
            lines.append(f"graph cache: {hit} ({self.cache_stats})")
        return "\n".join(lines)

    def node_table(self, top: int = 10) -> str:
        """Busiest nodes by logical messages received, across shards.

        Built from the per-shard ``by_receiver``/``tuples_by_node`` counters
        the cluster's workers report, labeled through the graph — the same
        hot-spot view ``QueryResult.node_table`` gives in process, with a
        shard column showing placement.
        """
        received: dict[int, int] = {}
        tuples: dict[int, int] = {}
        shard_of: dict[int, int] = {}
        for shard, counters in self.shards.items():
            for key, count in counters.get("by_receiver", {}).items():
                node_id = int(key)
                received[node_id] = received.get(node_id, 0) + count
                shard_of[node_id] = shard
            for key, count in counters.get("tuples_by_node", {}).items():
                node_id = int(key)
                tuples[node_id] = tuples.get(node_id, 0) + count
                shard_of.setdefault(node_id, shard)
        rows = sorted(
            (
                (received.get(nid, 0), tuples.get(nid, 0), nid)
                for nid in set(received) | set(tuples)
            ),
            reverse=True,
        )
        rows = rows[:top]
        labels = [node_label(self.graph, nid, self.bindings) for _, _, nid in rows]
        width = max(map(len, labels), default=4)
        lines = [f"{'node'.ljust(width)}  msgs-in  tuples  shard"]
        for (count, stored, nid), label in zip(rows, labels):
            lines.append(
                f"{label.ljust(width)}  {count:7d}  {stored:6d}"
                f"  {shard_of.get(nid, 0):5d}"
            )
        return "\n".join(lines)


def evaluate_sharded(
    program: Program,
    options: EvalOptions,
    runtime: RuntimeOptions,
    *,
    client=None,
    query_goal: Optional[AdornedAtom] = None,
    fault_plan: Optional[FaultPlan] = None,
    graph: Optional[RuleGoalGraph] = None,
    database: Optional[Database] = None,
    bindings: tuple = (),
) -> ShardedQueryResult:
    """Evaluate the query on ``runtime.runtime``'s shard transport, supervised.

    The transport (:func:`~repro.runtime.pool_engine.pool_transport` or
    :func:`~repro.cluster.evaluate.cluster_transport`; ``client`` is the
    cluster's, when one is already open) is a context manager yielding
    ``(attempt, spec)``: ``attempt(graph, bindings, armed_fault_plan)``
    runs the query once, and ``spec`` is the job-spec accounting the
    result carries.  It is entered after the graph is planned and exited
    after the last attempt.  ``bindings`` are the values of a shape
    graph's parameters (see
    :class:`~repro.network.engine.MessagePassingEngine`); every attempt
    and the fallback run the one graph under them.  ``runtime.retry``
    re-executes the whole query on typed runtime failures — sound because
    monotone set-semantics evaluation reaches the same least fixpoint on
    re-execution — reusing the one ``graph``.  ``runtime.fallback ==
    "inprocess"`` answers from the simulator (one in-process shard) after
    retries are exhausted, with ``degraded=True``.  ``fault_plan`` (or the
    ``REPRO_FAULTS`` environment variable) injects deterministic faults,
    armed per attempt.  Provenance is never recorded: no shard keeps a
    network that :meth:`~repro.session.Session.explain` could read.
    """
    options = replace(options, provenance=False)
    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    if graph is None:
        graph = plan_graph(program, options.planner, options.sip_factory, database, query_goal)
    if runtime.runtime == "pool":
        from .pool_engine import pool_transport

        transport = pool_transport(program, options, runtime, database)
    elif runtime.runtime == "cluster":
        from ..cluster.evaluate import cluster_transport

        transport = cluster_transport(program, options, runtime, database, client)
    else:
        raise ValueError(f"evaluate_sharded runs 'pool' or 'cluster', not {runtime.runtime!r}")

    def degraded_fallback() -> ShardedQueryResult:
        engine = MessagePassingEngine(
            program, database=database, graph=graph, bindings=bindings, **vars(options)
        )
        in_process = engine.run()
        stream = engine.driver.feeders[graph.root]
        return ShardedQueryResult(
            answers=set(in_process.answers),
            completed=in_process.completed,
            workers=0,
            driver_last_seq_sent=stream.last_seq_sent,
            driver_last_upto_ended=stream.last_upto_ended,
            shards={0: engine.fabric.counters()},
        )

    with transport as (attempt, spec):
        result, attempts, degraded, failure_log = run_with_retry(
            lambda number: attempt(
                graph, bindings, plan.for_attempt(number) if plan is not None else None
            ),
            runtime.retry,
            degraded_fallback if runtime.fallback == "inprocess" else None,
        )
    result.spec = spec
    result.attempts = attempts
    result.degraded = degraded
    result.failure_log = list(failure_log)
    result.graph = graph
    result.bindings = bindings
    return result
