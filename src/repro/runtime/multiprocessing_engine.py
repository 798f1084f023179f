"""A multi-process runtime: one OS process per rule/goal graph node.

The strongest form of the paper's claim — "shared memory is not required,
making this approach suitable for distributed systems" — demonstrated
literally: every node runs in its own operating-system process with its own
address space; the only interaction is message passing over OS pipes
(``multiprocessing.Queue``), i.e. exactly the "existing operating system
features, such as scheduling, message queueing, and multi-tasking" the
paper appeals to.

The node logic is byte-for-byte the same as in the deterministic simulator.
Each worker process loops on its queue; the driver
worker ships the final answer set back over a result pipe when the
distributed termination machinery delivers its end message — the parent
process has no other way to know the computation finished.

Supervision: the paper's model assumes reliable processes; this runtime does
not.  Worker loops bump per-worker heartbeat slots and capture their own
exceptions as ``("error", node, traceback)`` payloads; the parent waits
under :class:`~repro.runtime.supervision.Supervisor`, so a dead or wedged
node process surfaces as a typed error in about a poll interval instead of
hanging out the global deadline, and ``retry=`` / ``fallback=`` recover by
whole-query re-execution (sound for monotone programs — see
``docs/architecture.md``).

Practical notes: workers are started with the ``fork`` method (each child
inherits a copy-on-write snapshot of the built network — including its own
private copy of the EDB, which is faithfully share-nothing); per-node OS
processes are, of course, wildly inefficient for small queries — this
runtime exists to *demonstrate* the architecture, the simulator to measure
it.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import traceback
from dataclasses import dataclass, field
from multiprocessing.sharedctypes import RawArray
from typing import Optional, Union

from ..core.adornment import AdornedAtom
from ..core.program import Program
from ..core.rulegoal import RuleGoalGraph, SipFactory, build_rule_goal_graph
from ..core.sips import greedy_sip
from ..network.engine import MessagePassingEngine
from ..network.messages import Message
from ..network.nodes import DRIVER_ID
from ..relational.database import Database
from .faults import FaultPlan, wedge_forever
from .supervision import (
    RetryPolicy,
    Supervisor,
    run_with_retry,
    shutdown_workers,
)

__all__ = ["MpQueryResult", "MpNetwork", "evaluate_multiprocessing"]

#: Sentinel placed on every queue to stop the worker loops.
_STOP = "__stop__"


@dataclass
class MpQueryResult:
    """Answers and coarse accounting from a multi-process run."""

    answers: set[tuple]
    completed: bool
    processes: int
    driver_last_seq_sent: int = 0  # driver root-stream accounting
    driver_last_upto_ended: int = 0
    # Supervision accounting (see PoolQueryResult for the same trio).
    attempts: int = 1
    degraded: bool = False
    failure_log: list[str] = field(default_factory=list)


class MpNetwork:
    """The channel fabric: one managed queue per node process.

    Manager queues live in a broker process and every ``put`` is a
    synchronous RPC, so a message is visible in the receiver's queue (and
    its ``qsize``) the moment ``send`` returns — the "message queuing" OS
    model the paper assumes, under which a queued-but-unprocessed tuple
    keeps ``empty_queues()`` false.  (A plain ``multiprocessing.Queue``
    buffers in a feeder thread, which would weaken that assumption.)
    """

    def __init__(self, manager, node_ids) -> None:
        self.queues = {node_id: manager.Queue() for node_id in node_ids}

    def send(self, message: Message) -> None:
        """Enqueue a message on the receiver's queue (crosses processes)."""
        self.queues[message.receiver].put(message)

    def pending_for(self, node_id: int) -> int:
        """The receiver's inbox length (a process asks only about its own)."""
        return self.queues[node_id].qsize()


def _worker_loop(
    node_id: int,
    network: MpNetwork,
    engine: MessagePassingEngine,
    result_queue,
    slot: int = 0,
    heartbeats=None,
    poll_interval: float = 0.25,
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    """Run one node process until the stop sentinel arrives.

    The loop polls its queue on a bounded timeout and bumps its heartbeat
    slot every iteration, so a healthy worker — busy or blocked on input —
    always beats; exceptions from node code ship back as structured
    ``("error", node, traceback)`` payloads (the result queue is a manager
    proxy, so the put is a synchronous RPC and survives the hard exit).
    """
    process = engine.processes[node_id]
    label = "driver"
    if node_id != DRIVER_ID:
        try:
            label = engine.graph.node_label(node_id)
        except KeyError:  # pragma: no cover - replicas are pool-only today
            label = f"node:{node_id}"
    if node_id == DRIVER_ID:
        root_stream = process.feeders[engine.graph.root]
        process.on_complete = lambda: result_queue.put(
            (
                "done",
                sorted(process.answers),
                (root_stream.last_seq_sent, root_stream.last_upto_ended),
            )
        )
    injector = fault_plan.injector(slot) if fault_plan is not None else None
    inbox = network.queues[node_id]
    try:
        while True:
            if heartbeats is not None:
                heartbeats[slot] += 1
            try:
                message = inbox.get(timeout=poll_interval)
            except queue_module.Empty:
                continue
            if message == _STOP:
                return
            if injector is not None:
                injector.delay()
                action = injector.on_delivery(label)
                if action == "kill":  # pragma: no cover - the worker dies
                    os._exit(1)
                if action == "wedge":  # pragma: no cover - reaped by teardown
                    wedge_forever()
            process.handle(message, network)  # type: ignore[arg-type]
            process.on_idle_check(network)  # type: ignore[arg-type]
    except BaseException:  # pragma: no cover - exercised via chaos suite
        try:
            result_queue.put(("error", label, traceback.format_exc()))
        except Exception:
            pass
        os._exit(1)


def _mp_attempt(
    program: Program,
    graph: RuleGoalGraph,
    timeout: float,
    package_requests: bool,
    database: Optional[Database],
    heartbeat_interval: Optional[float],
    fault_plan: Optional[FaultPlan],
) -> MpQueryResult:
    """One supervised execution: fork the node network, wait, tear down."""
    context = mp.get_context("fork")
    engine = MessagePassingEngine(
        program,
        validate_protocol=False,  # the oracle belongs to the simulator
        package_requests=package_requests,
        database=database,
        graph=graph,
    )
    manager = context.Manager()
    network = MpNetwork(manager, engine.processes.keys())
    result_queue = manager.Queue()
    node_ids = list(engine.processes)
    heartbeats = RawArray("q", len(node_ids))
    poll_interval = (
        max(0.01, heartbeat_interval / 4.0) if heartbeat_interval else 0.25
    )

    # Pose the query BEFORE forking.  ``driver.start`` bumps the root feeder
    # stream's sequence number *and* sends the opening relation request; the
    # bump must happen while the engine is still the pre-fork snapshot every
    # worker will inherit.  (Bumping after ``worker.start()`` mutates only
    # the parent's copy — the forked driver would then believe it never
    # asked for anything, accept the first end message at upto=0 as fully
    # caught up, and its stream accounting would disagree with the
    # simulator's.)  The request itself lands in a manager queue, which is
    # shared, so posing early loses nothing.
    engine.driver.start(network)

    workers = [
        context.Process(
            target=_worker_loop,
            args=(
                node_id,
                network,
                engine,
                result_queue,
                slot,
                heartbeats,
                poll_interval,
                fault_plan,
            ),
            daemon=True,
        )
        for slot, node_id in enumerate(node_ids)
    ]
    for worker in workers:
        worker.start()

    def worker_label(slot: int) -> str:
        node_id = node_ids[slot]
        if node_id == DRIVER_ID:
            return "driver"
        try:
            return engine.graph.node_label(node_id)
        except KeyError:  # pragma: no cover - replicas are pool-only today
            return f"node:{node_id}"

    supervisor = Supervisor(
        workers,
        result_queue,
        heartbeats=heartbeats,
        heartbeat_interval=heartbeat_interval,
        labels=[worker_label(slot) for slot in range(len(node_ids))],
        what="distributed evaluation",
    )
    try:
        _, answers, driver_accounting = supervisor.wait(timeout)
    finally:
        # Teardown ordering matters: STOP sentinels first (non-blocking —
        # a broken manager queue must not wedge the caller), then bounded
        # joins with terminate→kill escalation, and ``manager.shutdown()``
        # strictly last, after no worker can still touch a manager proxy.
        def send_stop() -> None:
            for slot, node_id in enumerate(node_ids):
                if fault_plan is not None and fault_plan.drop_stop_for == slot:
                    continue  # injected fault: this worker never hears STOP
                try:
                    network.queues[node_id].put_nowait(_STOP)
                except Exception:  # dead manager/full proxy: escalation reaps
                    pass

        shutdown_workers(workers, send_stop)
        try:
            manager.shutdown()
        except Exception:  # pragma: no cover - defensive cleanup
            pass

    return MpQueryResult(
        answers={tuple(row) for row in answers},
        completed=True,
        processes=len(workers),
        driver_last_seq_sent=driver_accounting[0],
        driver_last_upto_ended=driver_accounting[1],
    )


def evaluate_multiprocessing(
    program: Program,
    sip_factory: SipFactory = greedy_sip,
    query_goal: Optional[AdornedAtom] = None,
    timeout: float = 120.0,
    coalesce: bool = False,
    package_requests: bool = False,
    planner: str = "static",
    retry: Union[RetryPolicy, int, None] = None,
    fallback: str = "none",
    heartbeat_interval: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    graph: Optional[RuleGoalGraph] = None,
    database: Optional[Database] = None,
) -> MpQueryResult:
    """Evaluate the query with one supervised OS process per graph node.

    ``TupleSet`` messages pickle and ship over
    the managed queues like any other message — one RPC then carries a
    whole answer set.

    Fault tolerance mirrors :func:`~repro.runtime.pool_engine.evaluate_pool`:
    a dead node process raises ``WorkerCrashError`` (with the remote
    traceback when available), a stalled heartbeat raises
    ``WorkerStallError`` within ``2 × heartbeat_interval``, the global
    deadline raises ``EvaluationTimeout`` (a ``TimeoutError``); ``retry``
    re-executes the whole query (safe by monotonicity) reusing the prebuilt
    ``graph``, and ``fallback="inprocess"`` degrades to the single-process
    scheduler after retries are exhausted, flagged on the result.
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

            cost_planner = CostPlanner.from_database(database)
            sip_factory = cost_planner.sip_factory()
        graph = build_rule_goal_graph(
            program, sip_factory, query_goal=query_goal, coalesce=coalesce
        )
        if planner == "cost":
            graph.plan_report = cost_planner.report

    def attempt(number: int) -> MpQueryResult:
        return _mp_attempt(
            program,
            graph,
            timeout,
            package_requests,
            database,
            heartbeat_interval,
            plan.for_attempt(number) if plan is not None else None,
        )

    def degraded_fallback() -> MpQueryResult:
        engine = MessagePassingEngine(
            program,
            package_requests=package_requests,
            database=database,
            graph=graph,
        )
        in_process = engine.run()
        stream = engine.driver.feeders[engine.graph.root]
        return MpQueryResult(
            answers=set(in_process.answers),
            completed=in_process.completed,
            processes=0,  # no process network answered this query
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
