"""The shard runtime shared by the pooled and the cluster transports.

Both transports host a *shard* of node processes per worker and differ only
in the far fabric (multiprocessing queues vs. TCP frames).  What a shard
does is the same, so it lives here once: the :class:`Router` (local deque,
per-destination batch buffers, delivery accounting) and the loop that
drives a shard:

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
from collections import deque
from typing import Callable, Optional

from ..network.engine import MessagePassingEngine
from ..network.messages import (
    COMPUTATION_TYPES,
    EndRequest,
    Message,
    MessageBatch,
    TupleMessage,
    TupleSet,
    coalesce_batch,
    logical_size,
)
from ..network.nodes import DRIVER_ID
from .faults import FaultPlan, wedge_forever

__all__ = ["COUNTERS", "STOP", "Router", "node_label", "run_shard_loop"]

#: Inbox sentinel: the job concluded, leave the loop.
STOP = "__stop__"

#: The scalar per-shard counters every router keeps, in report order.
COUNTERS = (
    "batches_out",
    "batches_in",
    "delivered_logical",
    "delivered_physical",
    "tuple_rows",
    "protocol_messages",
    "held_end_requests",
)


class Router:
    """The channel fabric as seen by the node processes of one shard.

    Node logic needs only ``send`` and ``pending_for``.  Intra-shard
    messages land on a local deque (exact per-node pending counts);
    cross-shard messages are buffered per destination shard and shipped as
    one batch when the buffer reaches ``batch_size`` or the shard goes idle.
    On arrival, adjacent same-channel requests and rows coalesce into
    packaged requests and :class:`~repro.network.messages.TupleSet`
    messages, so a transported burst is *handled* set-at-a-time too.

    ``sent_total`` / ``received_total`` count *logical* tuples per link (a
    TupleSet weighs ``len(rows)``), so the Section 3.2 sent/received
    accounting keeps its meaning.  A transport supplies how a batch is
    shipped (:meth:`_ship`) and how ``pending_for`` counts work still in
    transit toward this shard.
    """

    def __init__(
        self, shard_id: int, shard_of: dict[int, int], n_shards: int, batch_size: int
    ) -> None:
        self.shard_id = shard_id
        self.shard_of = shard_of
        self.batch_size = batch_size
        self.local: deque[Message] = deque()
        self.local_pending: dict[int, int] = {}
        self.buffers: dict[int, list[Message]] = {
            dest: [] for dest in range(n_shards) if dest != shard_id
        }
        self.sent_total = {dest: 0 for dest in self.buffers}
        self.received_total = {origin: 0 for origin in self.buffers}
        # The COUNTERS, plus logical messages received per node.
        self.batches_out = self.batches_in = 0
        self.delivered_logical = self.delivered_physical = self.tuple_rows = 0
        self.protocol_messages = self.held_end_requests = 0
        self.by_receiver: dict[int, int] = {}

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
        self.sent_total[dest] += logical_size(message)
        buffer = self.buffers[dest]
        buffer.append(message)
        if len(buffer) >= self.batch_size:
            self._flush_one(dest)

    def _flush_one(self, dest: int) -> None:
        buffer = self.buffers[dest]
        if not buffer:
            return
        self.buffers[dest] = []
        self.batches_out += 1
        self._ship(dest, buffer)

    def _ship(self, dest: int, messages: list[Message]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Ship every buffered batch (called when the shard goes idle)."""
        for dest in self.buffers:
            self._flush_one(dest)

    def ingest(self, batch: MessageBatch) -> None:
        """Unpack an arrived batch onto the local deque (FIFO preserved)."""
        self.batches_in += 1
        self.received_total[batch.origin] += logical_size(batch)
        for message in coalesce_batch(batch.messages):
            self.local.append(message)
            self.local_pending[message.receiver] = (
                self.local_pending.get(message.receiver, 0) + 1
            )

    # ------------------------------------------------------------------
    def account_delivery(self, message: Message) -> None:
        """Count one delivered message."""
        size = logical_size(message)
        self.delivered_logical += size
        self.delivered_physical += 1
        if isinstance(message, (TupleMessage, TupleSet)):
            self.tuple_rows += size
        elif not isinstance(message, COMPUTATION_TYPES):
            self.protocol_messages += size
        self.by_receiver[message.receiver] = (
            self.by_receiver.get(message.receiver, 0) + size
        )

    def account_hold(self) -> None:
        """Count one end request held for a non-idle receiver."""
        self.held_end_requests += 1

    def counters(self) -> dict:
        """This shard's accounting, JSON-safe (string keys)."""
        return {
            "sent": {str(d): self.sent_total[d] for d in self.buffers},
            "received": {
                str(o): self.received_total[o]
                for o in self.buffers
                if self.received_total[o]
            },
            **{name: getattr(self, name) for name in COUNTERS},
            "by_receiver": {str(k): v for k, v in self.by_receiver.items()},
        }


def node_label(graph, node_id: int, bindings: tuple = ()) -> str:
    """Readable label for any node of a sharded network."""
    if node_id == DRIVER_ID:
        return "driver"
    try:
        return graph.node_label(node_id, bindings)
    except KeyError:  # EDB replicas live outside the graph
        return f"edb-replica:{node_id}"


def run_shard_loop(
    engine: MessagePassingEngine,
    router: Router,
    take: Callable[[Optional[float]], object],
    tick: Callable[[], None],
    idle_poll: float,
    fault_plan: Optional[FaultPlan],
    on_done: Callable[[set, int, int], None],
) -> None:
    """Run the router's shard of ``engine`` until :data:`STOP` arrives.

    On the shard that hosts the driver the query is posed here — inside
    the worker that owns the driver, so its feeder state never desyncs —
    and ``on_done(answers, last_seq_sent, last_upto_ended)`` fires when
    the driver completes.  ``take(timeout)`` returns the next inbox item —
    without blocking when ``timeout`` is None — or None when there is none.
    ``tick`` runs once per iteration, idle polls included (heartbeats,
    abort checks), so a healthy worker — busy or blocked on input — always
    beats and only one wedged inside a handler goes silent.
    """
    processes = engine.processes
    shard_id, shard_of = router.shard_id, router.shard_of
    hosted = [p for node_id, p in processes.items() if shard_of[node_id] == shard_id]
    injector = fault_plan.injector(shard_id) if fault_plan is not None else None
    if shard_of[DRIVER_ID] == shard_id:
        driver = engine.driver
        root_stream = driver.feeders[engine.graph.root]
        # The hook reads the (in-place grown) answer set, not the driver:
        # a closure over the driver would make the engine cyclic.
        answers = driver.answers

        def on_complete() -> None:
            on_done(answers, root_stream.last_seq_sent, root_stream.last_upto_ended)

        driver.on_complete = on_complete
        driver.start(router)  # type: ignore[arg-type]
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
                action = injector.on_delivery(
                    node_label(engine.graph, message.receiver, engine.bindings)
                )
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

