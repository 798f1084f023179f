"""A genuinely concurrent runtime: one asyncio task and queue per process.

The paper pitches the formulation as "amenable to parallel computation": the
network requires no shared memory, only message channels, so it can run on
"existing operating system features, such as scheduling, message queueing,
and multi-tasking".  This runtime demonstrates that claim with the *same*
node logic as the deterministic simulator, but with each node as an asyncio
task owning a private queue.  Nothing here can observe global quiescence —
the run finishes exactly when the distributed termination machinery delivers
the final ``end`` to the driver, which is the whole point of Section 3.2.

Results must (and, in the tests, do) coincide with the deterministic
scheduler's for every program.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

from ..core.adornment import AdornedAtom
from ..core.program import Program
from ..core.rulegoal import SipFactory
from ..core.sips import greedy_sip
from ..network.engine import MessagePassingEngine
from ..network.messages import Message, logical_size
from ..network.nodes import DRIVER_ID

__all__ = ["AsyncQueryResult", "AsyncNetwork", "evaluate_async", "run_async"]


@dataclass
class AsyncQueryResult:
    """Answers plus coarse accounting from a concurrent run."""

    answers: set[tuple]
    completed: bool
    messages_sent: int
    tasks: int


class AsyncNetwork:
    """The channel fabric: an unbounded ``asyncio.Queue`` per process.

    Exposes the same two operations node logic needs from the deterministic
    scheduler — ``send`` and ``pending_for`` (a process may inspect only its
    *own* queue length, which is local knowledge in any real system).
    """

    def __init__(self) -> None:
        self.queues: dict[int, asyncio.Queue] = {}
        self.messages_sent = 0

    def add_process(self, node_id: int) -> asyncio.Queue:
        """Create the queue for one process."""
        queue: asyncio.Queue = asyncio.Queue()
        self.queues[node_id] = queue
        return queue

    def send(self, message: Message) -> None:
        """Enqueue a message on the receiver's queue (never blocks).

        ``messages_sent`` counts logical tuples — a ``TupleSet`` weighs
        ``len(rows)`` — to stay comparable with the simulator's totals.
        """
        self.queues[message.receiver].put_nowait(message)
        self.messages_sent += logical_size(message)

    def pending_for(self, node_id: int) -> int:
        """The length of one process's own inbox."""
        return self.queues[node_id].qsize()


async def run_async(
    program: Program,
    sip_factory: SipFactory = greedy_sip,
    query_goal: Optional[AdornedAtom] = None,
    timeout: float = 120.0,
    coalesce: bool = False,
    package_requests: bool = False,
    planner: str = "static",
) -> AsyncQueryResult:
    """Evaluate the query with one concurrent task per graph node."""
    engine = MessagePassingEngine(
        program,
        sip_factory=sip_factory,
        query_goal=query_goal,
        validate_protocol=False,  # the oracle check needs the simulator
        coalesce=coalesce,
        package_requests=package_requests,
        planner=planner,
    )
    network = AsyncNetwork()
    for node_id in engine.processes:
        network.add_process(node_id)

    done = asyncio.Event()
    engine.driver.on_complete = done.set

    async def node_loop(node_id: int) -> None:
        process = engine.processes[node_id]
        queue = network.queues[node_id]
        while True:
            message = await queue.get()
            process.handle(message, network)  # type: ignore[arg-type]
            process.on_idle_check(network)  # type: ignore[arg-type]

    tasks = [asyncio.create_task(node_loop(node_id)) for node_id in engine.processes]
    try:
        engine.driver.start(network)  # type: ignore[arg-type]
        await asyncio.wait_for(done.wait(), timeout=timeout)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    return AsyncQueryResult(
        answers=set(engine.driver.answers),
        completed=engine.driver.completed,
        messages_sent=network.messages_sent,
        tasks=len(tasks),
    )


def evaluate_async(
    program: Program,
    sip_factory: SipFactory = greedy_sip,
    query_goal: Optional[AdornedAtom] = None,
    timeout: float = 120.0,
    coalesce: bool = False,
    package_requests: bool = False,
    planner: str = "static",
) -> AsyncQueryResult:
    """Synchronous wrapper around :func:`run_async`."""
    return asyncio.run(
        run_async(
            program,
            sip_factory,
            query_goal,
            timeout,
            coalesce,
            package_requests,
            planner,
        )
    )
