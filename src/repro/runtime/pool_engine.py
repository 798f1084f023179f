"""A pooled multiprocessing runtime: N shard workers over batched channels.

The paper's claim that "shared memory is not required" made concrete on one
host: a fixed pool of worker processes (default ``os.cpu_count()``), each
hosting a *shard* of node processes with its own address space, exchanging
:class:`MessageBatch` envelopes so the pickle + queue cost of IPC amortizes
over whole bursts of tuples instead of being paid per tuple.  The node code
is the simulator's, unchanged; :mod:`repro.cluster` runs the same shards on
remote workers over TCP.

Three ideas carry the design:

* **Sharding.**  ``repro.network.engine.assign_shards`` keeps every strong
  component whole on one shard (so termination waves and the dense recursive
  tuple traffic are intra-process, delivered through a plain deque), spreads
  EDB leaf replicas across shards (the engine's ``edb_shards`` partitioning:
  each replica owns a hash partition of the "d" bindings, so semijoin
  fan-out parallelizes), and round-robins the rest.

* **Batched channels.**  Cross-shard messages accumulate in a per-destination
  buffer and travel as one :class:`MessageBatch` per queue ``put`` — flushed
  when the buffer reaches ``batch_size`` or when the worker goes idle.  On
  arrival, adjacent same-channel tuple requests are coalesced into
  :class:`~repro.network.messages.PackagedTupleRequest` messages (the
  footnote-2 machinery every producer already serves), so a fan-out burst is
  also *handled* in one step, not just transported in one.

* **Eager visibility.**  Section 3.2's ``empty_queues()`` assumes a queued
  message is visible the instant it is sent.  Batching must not weaken that:
  a pair of single-writer shared counters per (origin, destination) shard
  pair — ``sent`` bumped by the sender the moment a message enters a buffer,
  ``received`` bumped by the receiver when the batch is ingested — makes
  ``pending_for`` a (conservative, shard-granular) upper bound that is
  nonzero from the instant a message exists anywhere outside the receiving
  worker.  A queued *batch* therefore keeps ``empty_queues()`` false exactly
  like a queued tuple, which is all the Section 3.2 termination argument
  needs (see docs/architecture.md).

Cross-component completion never relies on queue visibility at all: feeder
streams are per-replica and end-message accounting is exact, so the only
traffic the counters guard is the window between a send and the ingest on
the far side.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.sharedctypes import RawArray
from typing import Optional, Union

from ..core.adornment import AdornedAtom
from ..core.program import Program
from ..core.rulegoal import RuleGoalGraph, SipFactory, build_rule_goal_graph
from ..core.sips import greedy_sip
from ..network.engine import MessagePassingEngine, assign_shards
from ..network.messages import (
    COMPUTATION_TYPES,
    Message,
    MessageBatch,
    coalesce_batch,
    logical_size,
)
from ..network.nodes import DRIVER_ID
from ..relational.database import Database
from .faults import FaultPlan
from .shard_loop import STOP as _STOP, node_labels, run_shard_loop
from .supervision import (
    RetryPolicy,
    Supervisor,
    run_with_retry,
    shutdown_workers,
)

__all__ = ["PoolQueryResult", "ShardRouter", "evaluate_pool"]

#: Per-shard slots of the shared ``loop_stats`` array (single writer: the
#: shard's own worker; read by the parent after the run).
_PROTOCOL_DELIVERIES, _HELD_END_REQUESTS, _LOOP_STATS = 0, 1, 2


@dataclass
class PoolQueryResult:
    """Answers plus transport accounting from a pooled run."""

    answers: set[tuple]
    completed: bool
    workers: int
    cross_messages: int  # messages that crossed a shard boundary
    cross_batches: int  # queue puts used to carry them
    driver_last_seq_sent: int  # driver root-stream accounting (parity checks)
    driver_last_upto_ended: int
    # Section 3.2 traffic delivered across all shards, and how many end
    # requests the delivery loop held for a non-idle receiver instead.
    protocol_messages: int = 0
    held_end_requests: int = 0
    # Supervision accounting: how many executions it took, whether the
    # answer came from the in-process fallback, and what went wrong.
    attempts: int = 1
    degraded: bool = False
    failure_log: list[str] = field(default_factory=list)

    @property
    def batching_factor(self) -> float:
        """Average messages per queue operation (the IPC amortization)."""
        if not self.cross_batches:
            return 0.0
        return self.cross_messages / self.cross_batches


class ShardRouter:
    """The channel fabric as seen by the node processes of one shard worker.

    Implements the two operations node logic requires of a network — ``send``
    and ``pending_for`` — over a hybrid fabric: intra-shard messages land on
    a local deque (exact per-node pending counts), cross-shard messages are
    buffered per destination and shipped as :class:`MessageBatch` envelopes.

    ``sent``/``received``/``batches`` are flat ``n_shards × n_shards``
    shared arrays indexed ``origin * n_shards + destination``.  Every slot
    has exactly one writer — ``sent``/``batches`` the origin worker,
    ``received`` the destination worker — so plain (aligned) increments need
    no locks; readers may observe a momentarily stale sum, which only ever
    *overstates* pending work and therefore only delays, never falsifies, a
    termination conclusion.  ``loop_stats`` holds each shard's delivery-loop
    statistics (protocol deliveries, held end requests), written only by
    that shard and read by the parent after the run.
    """

    def __init__(
        self,
        shard_id: int,
        shard_of: dict[int, int],
        inboxes: list,
        sent,
        received,
        batches,
        loop_stats,
        n_shards: int,
        batch_size: int,
    ) -> None:
        self.shard_id = shard_id
        self.shard_of = shard_of
        self.inboxes = inboxes
        self.sent = sent
        self.received = received
        self.batches = batches
        self.loop_stats = loop_stats
        self.n_shards = n_shards
        self.batch_size = max(1, batch_size)
        self.local: deque[Message] = deque()
        self.local_pending: dict[int, int] = {}
        self.buffers: dict[int, list[Message]] = {
            dest: [] for dest in range(n_shards) if dest != shard_id
        }

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Deliver locally or buffer for a batched cross-shard ship."""
        dest = self.shard_of[message.receiver]
        if dest == self.shard_id:
            self.local.append(message)
            self.local_pending[message.receiver] = (
                self.local_pending.get(message.receiver, 0) + 1
            )
            return
        # Visibility precedes transport: the receiving shard's
        # ``pending_for`` must count this message from this instant on.
        # Counts are in *logical* tuples (a TupleSet weighs len(rows)) so
        # the Section 3.2 sent/received accounting keeps its meaning.
        self.sent[self.shard_id * self.n_shards + dest] += logical_size(message)
        buffer = self.buffers[dest]
        buffer.append(message)
        if len(buffer) >= self.batch_size:
            self._flush_one(dest)

    def _flush_one(self, dest: int) -> None:
        buffer = self.buffers[dest]
        if not buffer:
            return
        self.buffers[dest] = []
        self.batches[self.shard_id * self.n_shards + dest] += 1
        self.inboxes[dest].put(MessageBatch(self.shard_id, tuple(buffer)))

    def flush(self) -> None:
        """Ship every buffered batch (called when the worker goes idle)."""
        for dest in self.buffers:
            self._flush_one(dest)

    def ingest(self, batch: MessageBatch) -> None:
        """Unpack an arrived batch onto the local deque (FIFO preserved).

        Adjacent same-channel requests coalesce into packaged requests and
        adjacent same-channel rows into
        :class:`~repro.network.messages.TupleSet` messages, so a transported
        burst is *handled* set-at-a-time, not unpacked row by row.  The
        ``received`` counter mirrors the sender's logical accounting.
        """
        self.received[batch.origin * self.n_shards + self.shard_id] += logical_size(
            batch
        )
        for message in coalesce_batch(batch.messages):
            self.local.append(message)
            self.local_pending[message.receiver] = (
                self.local_pending.get(message.receiver, 0) + 1
            )

    # ------------------------------------------------------------------
    def pending_for(self, node_id: int) -> int:
        """Inbox length for ``empty_queues()``: exact locally, conservative
        (shard-granular) for traffic still in transit toward this shard."""
        pending = self.local_pending.get(node_id, 0)
        column = self.shard_id
        n = self.n_shards
        for origin in range(n):
            if origin == column:
                continue
            pending += self.sent[origin * n + column] - self.received[origin * n + column]
        return pending

    # ------------------------------------------------------------------
    def account_delivery(self, message: Message) -> None:
        """Count one delivered message (protocol traffic only is kept)."""
        if not isinstance(message, COMPUTATION_TYPES):
            self.loop_stats[self.shard_id * _LOOP_STATS + _PROTOCOL_DELIVERIES] += 1

    def account_hold(self) -> None:
        """Count one end request held for a non-idle receiver."""
        self.loop_stats[self.shard_id * _LOOP_STATS + _HELD_END_REQUESTS] += 1


def _shard_worker(
    engine: MessagePassingEngine,
    router: ShardRouter,
    result_queue,
    heartbeats=None,
    poll_interval: float = 0.25,
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    """Supervised entry point: capture worker exceptions as structured payloads.

    Any exception escaping the loop (node code, fault injection, transport)
    is shipped to the driver as ``("error", where, traceback)`` — flushed
    through the queue's feeder thread before the hard exit, so the parent
    re-raises a :class:`WorkerCrashError` with the remote traceback instead
    of timing out against a silently dead worker.
    """
    try:
        _shard_worker_loop(
            engine, router, result_queue, heartbeats, poll_interval, fault_plan
        )
    except BaseException:  # pragma: no cover - exercised via chaos suite
        try:
            result_queue.put(
                ("error", f"shard {router.shard_id}", traceback.format_exc())
            )
            result_queue.close()
            result_queue.join_thread()  # flush the payload before dying
        except Exception:
            pass
        os._exit(1)


def _shard_worker_loop(
    engine: MessagePassingEngine,
    router: ShardRouter,
    result_queue,
    heartbeats,
    poll_interval: float,
    fault_plan: Optional[FaultPlan],
) -> None:
    """Run one shard's node processes until the stop sentinel arrives."""
    shard_id = router.shard_id
    processes = engine.processes
    hosted = [
        process
        for node_id, process in processes.items()
        if router.shard_of[node_id] == shard_id
    ]
    injector = fault_plan.injector(shard_id) if fault_plan is not None else None
    if router.shard_of[DRIVER_ID] == shard_id:
        driver = engine.driver
        root_stream = driver.feeders[engine.graph.root]

        def on_complete() -> None:
            result_queue.put(
                (
                    "done",
                    sorted(driver.answers),
                    (root_stream.last_seq_sent, root_stream.last_upto_ended),
                )
            )

        driver.on_complete = on_complete
        # Pose the query from inside the worker that owns the driver — the
        # feeder sequence bump and the opening relation request happen in
        # the same address space, so no state desyncs across the fork.
        driver.start(router)  # type: ignore[arg-type]

    inbox = router.inboxes[shard_id]

    def take(timeout: Optional[float]):
        try:
            return inbox.get_nowait() if timeout is None else inbox.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def beat() -> None:
        if heartbeats is not None:
            heartbeats[shard_id] += 1

    run_shard_loop(
        router,
        processes,
        hosted,
        take,
        beat,
        poll_interval,
        injector,
        node_labels(engine) if injector is not None else None,
    )


def _pool_attempt(
    program: Program,
    graph: RuleGoalGraph,
    n_shards: int,
    batch_size: int,
    timeout: float,
    package_requests: bool,
    replicas: int,
    database: Optional[Database],
    heartbeat_interval: Optional[float],
    fault_plan: Optional[FaultPlan],
) -> PoolQueryResult:
    """One supervised execution: fork, wait under the supervisor, tear down."""
    context = mp.get_context("fork")
    # A fresh engine per attempt: worker-side state (the driver's posed
    # query, node relations) dies with the attempt's forks, and the shared
    # prebuilt graph makes reconstruction a dictionary lookup, not a parse.
    engine = MessagePassingEngine(
        program,
        validate_protocol=False,  # the oracle belongs to the simulator
        package_requests=package_requests,
        edb_shards=replicas,
        database=database,
        graph=graph,
    )
    shard_of = assign_shards(engine, n_shards)

    inboxes = [context.Queue() for _ in range(n_shards)]
    result_queue = context.Queue()
    # Single-writer transport counters (see ShardRouter) plus one heartbeat
    # slot per worker: allocated before the fork so every worker maps the
    # same shared memory.  Heartbeats are supervision-only — they are never
    # read by ``pending_for``/``empty_queues()``, so the Section 3.2
    # visibility invariant is untouched (see docs/protocol.md).
    sent = RawArray("q", n_shards * n_shards)
    received = RawArray("q", n_shards * n_shards)
    batches = RawArray("q", n_shards * n_shards)
    loop_stats = RawArray("q", n_shards * _LOOP_STATS)
    heartbeats = RawArray("q", n_shards)
    poll_interval = (
        max(0.01, heartbeat_interval / 4.0) if heartbeat_interval else 0.25
    )

    workers_list = [
        context.Process(
            target=_shard_worker,
            args=(
                engine,
                ShardRouter(
                    shard_id,
                    shard_of,
                    inboxes,
                    sent,
                    received,
                    batches,
                    loop_stats,
                    n_shards,
                    batch_size,
                ),
                result_queue,
                heartbeats,
                poll_interval,
                fault_plan,
            ),
            daemon=True,
        )
        for shard_id in range(n_shards)
    ]
    for worker in workers_list:
        worker.start()

    supervisor = Supervisor(
        workers_list,
        result_queue,
        heartbeats=heartbeats,
        heartbeat_interval=heartbeat_interval,
        labels=[f"shard {shard_id}" for shard_id in range(n_shards)],
        what="pooled evaluation",
    )
    try:
        _, answers, driver_accounting = supervisor.wait(timeout)
    finally:
        def send_stop() -> None:
            for shard_id, inbox in enumerate(inboxes):
                if fault_plan is not None and fault_plan.drop_stop_for == shard_id:
                    continue  # injected fault: this worker never hears STOP
                try:
                    inbox.put_nowait(_STOP)
                except Exception:  # full/closed/broken: escalation reaps it
                    pass

        shutdown_workers(workers_list, send_stop)
        for q in [*inboxes, result_queue]:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - defensive cleanup
                pass

    total_sent = sum(sent)
    total_batches = sum(batches)
    return PoolQueryResult(
        answers={tuple(row) for row in answers},
        completed=True,
        workers=n_shards,
        cross_messages=total_sent,
        cross_batches=total_batches,
        driver_last_seq_sent=driver_accounting[0],
        driver_last_upto_ended=driver_accounting[1],
        protocol_messages=sum(loop_stats[_PROTOCOL_DELIVERIES::_LOOP_STATS]),
        held_end_requests=sum(loop_stats[_HELD_END_REQUESTS::_LOOP_STATS]),
    )


def evaluate_pool(
    program: Program,
    sip_factory: SipFactory = greedy_sip,
    query_goal: Optional[AdornedAtom] = None,
    workers: Optional[int] = None,
    batch_size: int = 64,
    timeout: float = 120.0,
    coalesce: bool = False,
    package_requests: bool = False,
    edb_shards: Optional[int] = None,
    planner: str = "static",
    retry: Union[RetryPolicy, int, None] = None,
    fallback: str = "none",
    heartbeat_interval: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    graph: Optional[RuleGoalGraph] = None,
    database: Optional[Database] = None,
) -> PoolQueryResult:
    """Evaluate the query on a supervised pool of shard workers.

    ``workers`` defaults to ``os.cpu_count()``; ``edb_shards`` (how many
    hash-partition replicas each "d"-bound EDB leaf gets) defaults to
    ``workers``.  Producers emit packaged answer sets, batches carry them
    natively, and ingest merges adjacent rows; cross-shard counters
    (``cross_messages``) are in logical tuples.

    Fault tolerance: every attempt runs under a :class:`Supervisor` —
    a crashed worker raises :class:`~repro.runtime.supervision
    .WorkerCrashError` (with the remote traceback when the worker could
    report one), a wedged worker raises ``WorkerStallError`` within
    ``2 × heartbeat_interval`` when ``heartbeat_interval`` is set, and the
    global ``timeout`` raises ``EvaluationTimeout`` (a ``TimeoutError``).
    ``retry`` (a :class:`RetryPolicy` or an attempt count) re-executes the
    whole query on such failures — sound because monotone set-semantics
    evaluation reaches the same least fixpoint on re-execution — reusing
    the prebuilt ``graph`` so retries skip graph construction.
    ``fallback="inprocess"`` answers from the single-process scheduler
    after retries are exhausted, with ``degraded=True`` and the per-attempt
    ``failure_log`` recorded on the result.  ``fault_plan`` (or the
    ``REPRO_FAULTS`` environment variable) injects deterministic faults
    for testing.
    """
    if fallback not in ("none", "inprocess"):
        raise ValueError(f"unknown fallback {fallback!r}; use 'none' or 'inprocess'")
    n_shards = workers if workers is not None else (os.cpu_count() or 1)
    n_shards = max(1, n_shards)
    replicas = edb_shards if edb_shards is not None else n_shards
    policy = RetryPolicy.of(retry)
    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    if planner not in ("static", "cost"):
        raise ValueError(f"unknown planner {planner!r} (expected 'static' or 'cost')")
    if graph is None:
        if planner == "cost":
            from ..core.planner import CostPlanner

            # Seed from the facts when no database was shared, as the
            # in-process engine does: same priors, same chosen plan.
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

    def attempt(number: int) -> PoolQueryResult:
        return _pool_attempt(
            program,
            graph,
            n_shards,
            batch_size,
            timeout,
            package_requests,
            replicas,
            database,
            heartbeat_interval,
            plan.for_attempt(number) if plan is not None else None,
        )

    def degraded_fallback() -> PoolQueryResult:
        engine = MessagePassingEngine(
            program,
            package_requests=package_requests,
            database=database,
            graph=graph,
        )
        in_process = engine.run()
        stream = engine.driver.feeders[engine.graph.root]
        return PoolQueryResult(
            answers=set(in_process.answers),
            completed=in_process.completed,
            workers=0,  # no pool answered this query
            cross_messages=0,
            cross_batches=0,
            driver_last_seq_sent=stream.last_seq_sent,
            driver_last_upto_ended=stream.last_upto_ended,
        )

    result, attempts, degraded, failure_log = run_with_retry(
        attempt,
        policy,
        degraded_fallback if fallback == "inprocess" else None,
    )
    result.attempts = attempts
    result.degraded = degraded
    result.failure_log = list(failure_log)
    return result
