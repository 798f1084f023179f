"""The shard delivery loop shared by the pooled and the cluster runtimes.

Both runtimes host a *shard* of node processes per worker and differ only
in the far fabric (multiprocessing queues vs. TCP frames).  The loop that
drives a shard is the same, so it lives here once:

1. drain the OS/wire inbox without blocking;
2. deliver one local message;
3. when nothing is local: flush request packaging, idle-check every hosted
   node, ship buffered batches, and block on the inbox.

**Held end requests.**  A strong component's leader whose member waits on
remote input (a cross-shard EDB replica, say) would otherwise re-probe on
every negative wave: the member answers *end negative* while its
``empty_queues()`` is false, the leader — itself idle — immediately floods
the next ``EndRequest``, and the shard burns its core on protocol traffic
until the remote batch lands.  That spin also starves whatever thread is
trying to *read* that batch.  So an ``EndRequest`` popped for a hosted node
whose ``empty_queues()`` is currently false is **held**: set aside, and
re-queued once the receiver has gone idle — checked after every
computation delivery on this shard, after every remote batch is ingested,
and at the idle step (the only events that can change the predicate).  A
wave blocked on remote input then costs O(1) deliveries and the shard
blocks on its inbox.

Holding is a transport-level delay, which the asynchronous model of
Section 3.2 already allows: Theorem 3.1 assumes nothing about *when* an
end request arrives, only that a node answers *end confirmed* when it was
idle for the whole period between two successive requests — and a held
request is, by construction, processed while the node is idle, so
``idleness`` only ever counts genuine idle periods.  Liveness holds
because every member of a finished component eventually has
``empty_queues()`` true (its feeders end independently of this
component's protocol), and the idle step re-checks held requests on every
poll timeout.  ``network/termination.py`` and the simulator are untouched.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from ..network.engine import MessagePassingEngine
from ..network.messages import COMPUTATION_TYPES, EndRequest
from ..network.nodes import DRIVER_ID
from .faults import FaultInjector, wedge_forever

__all__ = ["STOP", "node_labels", "run_shard_loop"]

#: Inbox sentinel: the job concluded, leave the loop.
STOP = "__stop__"


def node_labels(engine: MessagePassingEngine) -> dict[int, str]:
    """Readable node labels for fault plans that target a node by name."""
    labels: dict[int, str] = {}
    for node_id in engine.processes:
        if node_id == DRIVER_ID:
            labels[node_id] = "driver"
        else:
            try:
                labels[node_id] = engine.graph.node_label(node_id)
            except KeyError:  # EDB replicas live outside the graph
                labels[node_id] = f"edb-replica:{node_id}"
    return labels


def run_shard_loop(
    router,
    processes: dict,
    hosted: list,
    take: Callable[[Optional[float]], object],
    tick: Callable[[], None],
    idle_poll: float,
    injector: Optional[FaultInjector] = None,
    labels: Optional[dict[int, str]] = None,
) -> None:
    """Run one shard's node processes until :data:`STOP` arrives.

    ``router`` is the shard's channel fabric (``local`` deque,
    ``local_pending``, ``ingest``/``flush``/``account_delivery``/
    ``account_hold``).  ``take(timeout)`` returns the next inbox item —
    without blocking when ``timeout`` is None — or None when there is none.
    ``tick`` runs once per iteration, idle polls included (heartbeats,
    abort checks), so a healthy worker — busy or blocked on input — always
    beats and only one wedged inside a handler goes silent.
    """
    held: list[EndRequest] = []

    def ingest(item) -> None:
        if injector is not None:
            injector.delay()
        router.ingest(item)

    def release_held() -> None:
        """Re-queue held end requests whose receiver has gone idle."""
        still_blocked = []
        for request in held:
            if processes[request.receiver].empty_queues(router):
                router.local.append(request)
                router.local_pending[request.receiver] += 1
            else:
                still_blocked.append(request)
        held[:] = still_blocked

    while True:
        tick()
        # 1) Drain the inbox without blocking, so arriving work is
        #    interleaved with local delivery and pending counts stay fresh.
        arrived = False
        while True:
            item = take(None)
            if item is None:
                break
            if item == STOP:
                return
            ingest(item)
            arrived = True
        if arrived and held:
            release_held()

        # 2) Deliver one local message.
        if router.local:
            message = router.local.popleft()
            router.local_pending[message.receiver] -= 1
            process = processes[message.receiver]
            if type(message) is EndRequest and not process.empty_queues(router):
                held.append(message)
                router.account_hold()
                continue
            if injector is not None:
                action = injector.on_delivery(labels.get(message.receiver))
                if action == "kill":  # pragma: no cover - the worker dies
                    os._exit(1)
                if action == "wedge":  # pragma: no cover - reaped by teardown
                    wedge_forever()
            router.account_delivery(message)
            process.handle(message, router)
            process.on_idle_check(router)
            if held and isinstance(message, COMPUTATION_TYPES):
                release_held()
            continue

        # 3) Idle: flush request packaging, give every hosted node an idle
        #    check (in the simulator each delivery checks only its receiver,
        #    and the receiver of this shard's *last* delivery may not be the
        #    leader whose probe is now due), ship buffered batches, re-check
        #    held end requests, then block for remote input.  The block is a
        #    bounded poll rather than an indefinite get so ``tick`` keeps
        #    running while the worker waits.
        for process in hosted:
            if process._request_buffer:
                process.flush_requests(router)
        for process in hosted:
            process.on_idle_check(router)
        router.flush()
        if held:
            release_held()
        if router.local:
            continue
        item = take(idle_poll)
        if item is None:
            continue
        if item == STOP:
            return
        ingest(item)
        if held:
            release_held()
