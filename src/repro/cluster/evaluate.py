"""``evaluate_cluster``: the multi-host runtime behind ``runtime="cluster"``.

The call shape deliberately mirrors ``runtime/pool_engine.evaluate_pool`` —
same knobs, same retry/fallback semantics, same accounting vocabulary —
with the worker pool replaced by whatever workers are registered at a
cluster manager.  Point it at a running manager with ``address=...`` (or a
shared :class:`~repro.cluster.client.ClusterClient`), or give it neither
and it spins up a private localhost :class:`~repro.cluster.harness
.ClusterHarness` for the duration of the call — the CI path.

A job is two content-addressed parts (:mod:`repro.cluster.spec`) — the
*plan* (rules-only program + prebuilt rule/goal graph + options) and the
*edb* (the database) — plus a small per-attempt header.  Each part is
pickled once per live graph / database object and shipped once per
manager and worker; a repeat query submits two digests and an empty blob,
and the workers evaluate it over their resident copies (fresh per-query
node state, resident inputs).  Whole-query retry on worker loss
re-dispatches over the workers still registered, so losing a worker
degrades capacity, not correctness — monotone set semantics makes the
re-execution reach the identical least fixpoint.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from ..core.adornment import AdornedAtom
from ..core.program import Program
from ..core.rulegoal import RuleGoalGraph, SipFactory, build_rule_goal_graph
from ..core.sips import greedy_sip
from ..network.engine import MessagePassingEngine
from ..network.nodes import DRIVER_ID
from ..relational.database import Database
from ..runtime.faults import FaultPlan
from ..runtime.supervision import RetryPolicy, run_with_retry
from .client import ClusterClient, SpecMissError
from .framing import rows_from_wire

__all__ = ["ClusterQueryResult", "evaluate_cluster"]


@dataclass
class ClusterQueryResult:
    """Answers plus transport + supervision accounting from a cluster run.

    The logical/physical split carries over from the in-process accounting
    (PR 3): per-shard counters are in logical tuples (a TupleSet weighs
    ``len(rows)``), ``transport`` adds the wire-level view (bytes, frames,
    reconnects, heartbeat RTT) that has no in-process analogue.
    """

    answers: set[tuple]
    completed: bool
    workers: int
    cross_messages: int  # logical tuples that crossed a shard boundary
    cross_batches: int  # BATCH frames used to carry them
    driver_last_seq_sent: int
    driver_last_upto_ended: int
    shards: dict[int, dict] = field(default_factory=dict)  # per-shard counters
    transport: dict[str, dict] = field(default_factory=dict)  # per-worker wire
    #: Spec bytes this query shipped client → manager, per part, summed over
    #: attempts and resends (all zeros on a warm repeat).
    spec: dict[str, int] = field(default_factory=dict)
    attempts: int = 1
    degraded: bool = False
    failure_log: list[str] = field(default_factory=list)
    _labels: dict[int, str] = field(default_factory=dict, repr=False)

    @property
    def batching_factor(self) -> float:
        if not self.cross_batches:
            return 0.0
        return self.cross_messages / self.cross_batches

    @property
    def total_messages(self) -> int:
        """All delivered logical messages, summed across shards."""
        return sum(s.get("delivered_logical", 0) for s in self.shards.values())

    @property
    def physical_messages(self) -> int:
        return sum(s.get("delivered_physical", 0) for s in self.shards.values())

    @property
    def protocol_messages(self) -> int:
        return sum(s.get("protocol_messages", 0) for s in self.shards.values())

    @property
    def logical_tuple_rows(self) -> int:
        """Logical tuple-message rows delivered, summed across shards.

        This is the runtime-invariant slice of the accounting: per-stream
        dedup (``send_rows``'s ``sent_rows`` filter) makes the set of rows
        each stream carries a property of the least fixpoint, not of
        batching or timing, so this total must match the in-process
        runtime's exactly — the parity tests assert it.  Protocol-wave and
        end-message *counts* legitimately vary with scheduling.
        """
        return sum(s.get("tuple_rows", 0) for s in self.shards.values())

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

    @property
    def held_end_requests(self) -> int:
        """End requests the shard loops held for a non-idle receiver."""
        return sum(s.get("held_end_requests", 0) for s in self.shards.values())

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
            f"(avg batch {self.batching_factor:.1f}) over {self.workers} workers",
            f"wire: {self.bytes_on_wire} bytes, "
            f"{sum(t.get('reconnects', 0) for t in self.transport.values())} "
            f"reconnects",
        ]
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
            f"{sum(c['resident_bytes'] for c in caches)} bytes; "
            f"held end-requests: {self.held_end_requests}"
        )
        if self.degraded or self.attempts > 1:
            note = f"supervision: {self.attempts} attempt(s)"
            if self.degraded:
                note += ", degraded to the in-process runtime"
            lines.append(note)
        return "\n".join(lines)

    def node_table(self, top: int = 10) -> str:
        """Busiest nodes by logical messages received, cluster-wide.

        Built from the per-shard ``by_receiver``/``tuples_by_node`` counters
        the workers report, labeled through the client-side graph — the
        same hot-spot view ``QueryResult.node_table`` gives in process,
        with a shard column showing placement.
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
        width = max(
            (len(self._label(nid)) for _, _, nid in rows[:top]), default=4
        )
        lines = [f"{'node'.ljust(width)}  msgs-in  tuples  shard"]
        for count, stored, nid in rows[:top]:
            lines.append(
                f"{self._label(nid).ljust(width)}  {count:7d}  {stored:6d}"
                f"  {shard_of.get(nid, 0):5d}"
            )
        return "\n".join(lines)

    def _label(self, node_id: int) -> str:
        if node_id == DRIVER_ID:
            return "driver"
        return self._labels.get(node_id, f"edb-replica:{node_id}")


# ----------------------------------------------------------------------
def _result_from_reply(reply: dict, labels: dict[int, str]) -> ClusterQueryResult:
    shards = {int(k): v for k, v in reply.get("shards", {}).items()}
    cross_messages = sum(
        sum(s.get("sent", {}).values()) for s in shards.values()
    )
    cross_batches = sum(s.get("batches_out", 0) for s in shards.values())
    return ClusterQueryResult(
        answers={tuple(row) for row in rows_from_wire(reply.get("answers", []))},
        completed=True,
        workers=reply.get("workers", 0),
        cross_messages=cross_messages,
        cross_batches=cross_batches,
        driver_last_seq_sent=reply.get("seq", 0),
        driver_last_upto_ended=reply.get("upto", 0),
        shards=shards,
        transport=reply.get("transport", {}),
        _labels=labels,
    )


def evaluate_cluster(
    program: Program,
    sip_factory: SipFactory = greedy_sip,
    query_goal: Optional[AdornedAtom] = None,
    workers: Optional[int] = None,
    batch_size: int = 64,
    timeout: float = 120.0,
    coalesce: bool = False,
    package_requests: bool = False,
    edb_shards: Optional[int] = None,
    tuple_sets: bool = True,
    columnar: bool = True,
    planner: str = "static",
    retry: Union[RetryPolicy, int, None] = None,
    fallback: str = "none",
    heartbeat_interval: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    graph: Optional[RuleGoalGraph] = None,
    database: Optional[Database] = None,
    address: Optional[str] = None,
    listen: Optional[str] = None,
    client: Optional[ClusterClient] = None,
) -> ClusterQueryResult:
    """Evaluate the query on a cluster of remote shard workers.

    Targets, in precedence order: an existing ``client``, a manager
    ``address`` (``"host:port"``), a ``listen`` address to *announce* a
    manager at for the call's duration (remote ``repro worker --connect``
    processes dial in; blocks until ``workers`` or 1 register, bounded by
    ``timeout``), or — when none is given — a private two-worker
    localhost :class:`ClusterHarness` torn down after the call.
    All other knobs match :func:`~repro.runtime.pool_engine.evaluate_pool`;
    ``edb_shards`` defaults to the number of shards the manager actually
    dispatches (it sends one shard per registered worker).
    """
    if fallback not in ("none", "inprocess"):
        raise ValueError(f"unknown fallback {fallback!r}; use 'none' or 'inprocess'")
    policy = RetryPolicy.of(retry)
    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    if planner not in ("static", "cost"):
        raise ValueError(f"unknown planner {planner!r} (expected 'static' or 'cost')")
    if graph is None:
        if planner == "cost":
            from ..core.planner import CostPlanner

            # Seed from the facts when no database is shared, exactly as
            # the in-process engine does — parity demands the same plan,
            # hence the same graph, hence the same logical row totals.
            cost_planner = CostPlanner.from_database(
                database
                if database is not None
                else Database.from_facts(program.facts)
            )
            sip_factory = cost_planner.sip_factory()
        graph = build_rule_goal_graph(
            program, sip_factory, query_goal=query_goal, coalesce=coalesce
        )
        if planner == "cost":
            graph.plan_report = cost_planner.report

    labels: dict[int, str] = {}
    for node_id in list(graph.goal_nodes) + list(graph.rule_nodes):
        labels[node_id] = graph.node_label(node_id)

    if address is not None and listen is not None:
        raise ValueError(
            "address and listen are mutually exclusive: either dial an "
            "existing manager or announce one, not both"
        )
    own_harness = None
    own_client = None
    own_manager = None
    if client is None:
        if address is not None:
            client = own_client = ClusterClient(address)
        elif listen is not None:
            from .manager import ManagerThread

            host, _, port_text = listen.rpartition(":")
            own_manager = ManagerThread(
                host or "127.0.0.1", int(port_text or 0)
            ).start()
            try:
                own_manager.wait_for_workers(workers or 1, timeout=timeout)
            except Exception:
                own_manager.stop()
                raise
            client = own_client = ClusterClient(own_manager.address)
        else:
            from .harness import ClusterHarness

            own_harness = ClusterHarness(workers=workers or 2)
            own_harness.start()
            client = own_harness.client()

    # Everything that shapes the node network rides in the plan part; what
    # varies per attempt (fault plan, deadlines, batch size) in the header.
    options = {
        "package_requests": package_requests,
        "edb_shards": edb_shards,
        "tuple_sets": tuple_sets,
        "columnar": columnar,
    }
    shipped = {"plan_bytes": 0, "edb_bytes": 0, "resends": 0}

    def attempt(number: int) -> ClusterQueryResult:
        # Memoised on the client against the live graph / database: only
        # the first attempt over a given pair pickles anything.
        parts = [client.specs.plan(program, graph, options, database is not None)]
        if database is not None:
            parts.append(client.specs.edb(database))
        armed = plan.for_attempt(number) if plan is not None else None
        header = {
            "workers": workers,
            "timeout": timeout,
            "heartbeat_interval": heartbeat_interval,
            "batch_size": batch_size,
        }
        if armed is not None:
            header["fault_plan"] = dataclasses.asdict(armed)
        for resend in (False, True):
            job_header, blob = client.frame_job(header, parts)
            for kind, _, size in job_header["parts"]:
                shipped[f"{kind}_bytes"] += size
            try:
                reply = client.submit(job_header, blob, timeout)
                break
            except SpecMissError:
                # The manager restarted or evicted a part: submit has
                # already forgotten it, so the next frame carries the bytes.
                if resend:
                    raise
                shipped["resends"] += 1
        return _result_from_reply(reply, labels)

    def degraded_fallback() -> ClusterQueryResult:
        engine = MessagePassingEngine(
            program,
            package_requests=package_requests,
            tuple_sets=tuple_sets,
            columnar=columnar,
            database=database,
            graph=graph,
        )
        in_process = engine.run()
        stream = engine.driver.feeders[engine.graph.root]
        return ClusterQueryResult(
            answers=set(in_process.answers),
            completed=in_process.completed,
            workers=0,  # no cluster answered this query
            cross_messages=0,
            cross_batches=0,
            driver_last_seq_sent=stream.last_seq_sent,
            driver_last_upto_ended=stream.last_upto_ended,
            _labels=labels,
        )

    try:
        result, attempts, degraded, failure_log = run_with_retry(
            attempt,
            policy,
            degraded_fallback if fallback == "inprocess" else None,
        )
    finally:
        if own_client is not None:
            own_client.close()
        if own_harness is not None:
            own_harness.stop()
        if own_manager is not None:
            own_manager.stop()  # workers fall into their reconnect loop
    result.spec = shipped
    result.attempts = attempts
    result.degraded = degraded
    result.failure_log = list(failure_log)
    return result
