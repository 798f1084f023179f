"""A pooled multiprocessing runtime: N shard workers over batched channels.

The paper's claim that "shared memory is not required" made concrete on one
host: a fixed pool of worker processes (default ``os.cpu_count()``), each
hosting a *shard* of node processes with its own address space, exchanging
:class:`MessageBatch` envelopes so the pickle + queue cost of IPC amortizes
over whole bursts of tuples instead of being paid per tuple.  The node code
and the delivery loop are the simulator's, unchanged
(:mod:`repro.network.shard_loop`), the front (retry, fallback, graph) is
:mod:`repro.runtime.sharded`'s, and :mod:`repro.cluster` runs the same
shards on remote workers over TCP.  This module is only the queue
transport: how one attempt forks, ships batches and tears down.

Three ideas carry the design:

* **Sharding.**  ``repro.network.engine.assign_shards`` keeps every strong
  component whole on one shard (so termination waves and the dense recursive
  tuple traffic are intra-process, delivered through a plain deque) and
  places every other node with its consumer, so a component takes its EDB
  leaves and acyclic feeders with it.  EDB leaves stay whole by default; an
  explicit ``edb_shards > 1`` partitions each into replicas (each owns a
  hash partition of the "d" bindings) spread across shards, so semijoin
  fan-out parallelizes.

* **Batched channels.**  The shared router's per-destination buffers
  travel as one :class:`MessageBatch` per queue ``put``.

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
from contextlib import nullcontext
from functools import partial
from multiprocessing.sharedctypes import RawArray
from typing import Optional, Union

from ..core.adornment import AdornedAtom
from ..core.program import Program
from ..core.rulegoal import RuleGoalGraph, SipFactory
from ..core.sips import greedy_sip
from ..network.engine import MessagePassingEngine, assign_shards
from ..network.messages import Message, MessageBatch
from ..network.shard_loop import (
    COUNTERS,
    STOP as _STOP,
    Router,
    open_shard,
    run_shard_loop,
)
from ..options import EvalOptions, RetryPolicy, RuntimeOptions
from ..relational.database import Database
from .faults import FaultPlan
from .sharded import ShardedQueryResult, evaluate_sharded
from .supervision import Supervisor, shutdown_workers

__all__ = ["ShardRouter", "evaluate_pool", "pool_transport"]


class ShardRouter(Router):
    """The :class:`~repro.network.shard_loop.Router` over multiprocessing queues.

    ``sent``/``received`` are ``n_shards`` shared rows of ``n_shards``
    slots: ``sent[origin][dest]`` and ``received[dest][origin]``.  This
    shard's own row of each is its ``sent_total``/``received_total``, so
    every slot has exactly one writer — ``sent`` the origin worker,
    ``received`` the destination worker — and plain (aligned) increments
    need no locks; readers may observe a momentarily stale sum, which only
    ever *overstates* pending work and therefore only delays, never
    falsifies, a termination conclusion.
    """

    def __init__(
        self,
        shard_id: int,
        shard_of: dict[int, int],
        n_shards: int,
        batch_size: int,
        inboxes: list,
        sent: list,
        received: list,
    ) -> None:
        super().__init__(shard_id, shard_of, n_shards, batch_size)
        self.inboxes = inboxes
        self.sent = sent
        # Visibility precedes transport: a send bumps the shared row at
        # once, so the receiving shard's ``pending_for`` counts the message
        # from the instant it enters a buffer.
        self.sent_total = sent[shard_id]
        self.received_total = received[shard_id]

    def _ship(self, dest: int, messages: list[Message]) -> None:
        self.inboxes[dest].put(MessageBatch(self.shard_id, tuple(messages)))

    def pending_for(self, node_id: int) -> int:
        """Inbox length for ``empty_queues()``: exact locally, conservative
        (shard-granular) for traffic still in transit toward this shard."""
        pending = super().pending_for(node_id)
        me, received = self.shard_id, self.received_total
        for origin in self.buffers:
            pending += self.sent[origin][me] - received[origin]
        return pending


def _shard_worker(
    engine: MessagePassingEngine,
    router: ShardRouter,
    result_queue,
    loop_stats,
    heartbeats,
    poll_interval: float,
    fault_plan: Optional[FaultPlan],
) -> None:
    """Supervised entry point: run one shard, capture exceptions as payloads.

    Any exception escaping the loop (node code, fault injection, transport)
    is shipped to the driver as ``("error", where, traceback)`` — flushed
    through the queue's feeder thread before the hard exit, so the parent
    re-raises a :class:`WorkerCrashError` with the remote traceback instead
    of timing out against a silently dead worker.  On a clean stop the
    shard's counters land in its ``loop_stats`` slots, read by the parent.
    """
    shard_id = router.shard_id
    inbox = router.inboxes[shard_id]

    def take(timeout: Optional[float]):
        try:
            return inbox.get_nowait() if timeout is None else inbox.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def beat() -> None:
        heartbeats[shard_id] += 1

    def on_done(answers, seq: int, upto: int) -> None:
        # A snapshot (the queue pickles later, on its feeder thread), never
        # sorted: an answer column may mix int and str.
        result_queue.put(("done", list(answers), (seq, upto)))

    try:
        hosted = open_shard(engine, router, on_done)
        injector = None if fault_plan is None else fault_plan.injector(shard_id, engine)
        run_shard_loop(hosted, router, take, beat, poll_interval, injector)
        base = shard_id * len(COUNTERS)
        for offset, name in enumerate(COUNTERS):
            loop_stats[base + offset] = getattr(router.stats, name)
    except BaseException:  # pragma: no cover - exercised via chaos suite
        try:
            result_queue.put(("error", f"shard {shard_id}", traceback.format_exc()))
            result_queue.close()
            result_queue.join_thread()  # flush the payload before dying
        except Exception:
            pass
        os._exit(1)


def _pool_attempt(
    program: Program,
    options: EvalOptions,
    runtime: RuntimeOptions,
    database: Optional[Database],
    graph: RuleGoalGraph,
    bindings: tuple,
    armed: Optional[FaultPlan],
) -> ShardedQueryResult:
    """One supervised execution: fork, wait under the supervisor, tear down."""
    context = mp.get_context("fork")
    n_shards = runtime.workers or os.cpu_count() or 1
    # A fresh engine per attempt: worker-side state (the driver's posed
    # query, node relations) dies with the attempt's forks, and the shared
    # prebuilt graph makes reconstruction a dictionary lookup, not a parse.
    engine = MessagePassingEngine(
        program,
        validate_protocol=False,  # the oracle belongs to the simulator
        edb_shards=runtime.edb_shards or 1,
        database=database,
        graph=graph,
        bindings=bindings,
        **vars(options),
    )
    shard_of = assign_shards(engine, n_shards)

    inboxes = [context.Queue() for _ in range(n_shards)]
    result_queue = context.Queue()
    # Single-writer transport counters (see ShardRouter), each shard's
    # loop counters, and one heartbeat slot per worker: allocated before
    # the fork so every worker maps the same shared memory.  Heartbeats are
    # supervision-only — never read by ``pending_for``/``empty_queues()``,
    # so the Section 3.2 visibility invariant is untouched (see
    # docs/protocol.md).
    sent = [RawArray("q", n_shards) for _ in range(n_shards)]
    received = [RawArray("q", n_shards) for _ in range(n_shards)]
    loop_stats = RawArray("q", n_shards * len(COUNTERS))
    heartbeats = RawArray("q", n_shards)
    heartbeat_interval = runtime.heartbeat_interval
    poll_interval = (
        max(0.01, heartbeat_interval / 4.0) if heartbeat_interval else 0.25
    )

    workers_list = [
        context.Process(
            target=_shard_worker,
            args=(
                engine,
                ShardRouter(
                    shard_id, shard_of, n_shards, runtime.batch_size, inboxes, sent, received
                ),
                result_queue,
                loop_stats,
                heartbeats,
                poll_interval,
                armed,
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
        _, answers, driver_accounting = supervisor.wait(runtime.timeout)
    finally:
        def send_stop() -> None:
            for shard_id, inbox in enumerate(inboxes):
                if armed is not None and armed.drop_stop_for == shard_id:
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

    k = len(COUNTERS)
    return ShardedQueryResult(
        answers={tuple(row) for row in answers},
        completed=True,
        workers=n_shards,
        driver_last_seq_sent=driver_accounting[0],
        driver_last_upto_ended=driver_accounting[1],
        shards={
            shard: {
                "sent": {str(d): sent[shard][d] for d in range(n_shards) if d != shard},
                **dict(zip(COUNTERS, loop_stats[shard * k:(shard + 1) * k])),
            }
            for shard in range(n_shards)
        },
    )


def pool_transport(
    program: Program,
    options: EvalOptions,
    runtime: RuntimeOptions,
    database: Optional[Database],
):
    """The queue transport for :func:`~repro.runtime.sharded.evaluate_sharded`.

    Every attempt forks its own workers, so there is nothing to open or
    close around them, and no job spec to account for.
    """
    return nullcontext((partial(_pool_attempt, program, options, runtime, database), {}))


def evaluate_pool(
    program: Program,
    sip_factory: SipFactory = greedy_sip,
    query_goal: Optional[AdornedAtom] = None,
    workers: Optional[int] = None,
    batch_size: int = 64,
    timeout: float = 120.0,
    package_requests: bool = True,
    edb_shards: Optional[int] = None,
    planner: str = "static",
    retry: Union[RetryPolicy, int, None] = None,
    fallback: str = "none",
    heartbeat_interval: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    graph: Optional[RuleGoalGraph] = None,
    database: Optional[Database] = None,
    bindings: tuple = (),
) -> ShardedQueryResult:
    """Evaluate the query on a supervised pool of shard workers.

    The options are :class:`~repro.options.EvalOptions` and
    :class:`~repro.options.RuntimeOptions` fields (``retry`` also takes an
    attempt count): ``workers`` defaults to ``os.cpu_count()`` and
    ``edb_shards`` to 1 (unpartitioned EDB leaves).  Producers emit
    packaged answer sets, batches carry them natively, and ingest merges
    adjacent rows; cross-shard counters (``cross_messages``) are in
    logical tuples.

    Fault tolerance: every attempt runs under a :class:`Supervisor` —
    a crashed worker raises :class:`~repro.runtime.supervision
    .WorkerCrashError` (with the remote traceback when the worker could
    report one), a wedged worker raises ``WorkerStallError`` within
    ``2 × heartbeat_interval`` when ``heartbeat_interval`` is set, and the
    global ``timeout`` raises ``EvaluationTimeout`` (a ``TimeoutError``).
    ``retry``, ``fallback``, ``fault_plan`` and ``bindings`` are the
    sharded front's (:func:`~repro.runtime.sharded.evaluate_sharded`).
    """
    return evaluate_sharded(
        program,
        EvalOptions(
            sip_factory=sip_factory, package_requests=package_requests, planner=planner
        ),
        RuntimeOptions(
            runtime="pool",
            workers=workers,
            batch_size=batch_size,
            edb_shards=edb_shards,
            retry=RetryPolicy.of(retry),
            fallback=fallback,
            heartbeat_interval=heartbeat_interval,
            timeout=timeout,
        ),
        query_goal=query_goal,
        fault_plan=fault_plan,
        graph=graph,
        database=database,
        bindings=bindings,
    )
