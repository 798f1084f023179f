"""The one delivery loop, and the fabric every node process talks through.

Every evaluation delivers messages through :func:`run_shard_loop`: the
simulator on one in-memory shard (:class:`LocalFabric`), the pool and the
cluster on one shard per worker, over queues and TCP.  A shard's loop
drains its inbox without blocking, delivers one local message, and when
nothing is local flushes request packaging, idle-checks every hosted node,
ships buffered batches and blocks on the inbox.  Node logic needs only
``send`` and ``pending_for`` of its :class:`Router`; channels are FIFO per
(sender, receiver) pair, as the end-message semantics needs.

:class:`LocalFabric` is the reference semantics: it returns once the
network drains and adds what only a simulation can have — a seeded
delivery order, ``step()``, a message budget, a trace hook, and Theorem
3.1's global quiescence oracle, which sees every queued message.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from .messages import (
    COMPUTATION_TYPES,
    PROTOCOL_TYPES,
    Message,
    MessageBatch,
    TupleMessage,
    TupleSet,
    coalesce_batch,
    logical_size,
)
from .nodes import DRIVER_ID

if TYPE_CHECKING:
    from .engine import MessagePassingEngine
    from .nodes import NodeProcess

__all__ = [
    "COUNTERS",
    "STOP",
    "DeliveryStats",
    "LocalFabric",
    "MessageBudgetExceeded",
    "Router",
    "node_label",
    "open_shard",
    "run_shard_loop",
]

#: Inbox sentinel: the job concluded, leave the loop.
STOP = "__stop__"

#: The scalar per-shard counters a shard reports, in report order.
COUNTERS = (
    "batches_out",
    "batches_in",
    "delivered_logical",
    "delivered_physical",
    "tuple_rows",
    "protocol_messages",
    "held_end_requests",
)


class MessageBudgetExceeded(RuntimeError):
    """Raised when a run exceeds its message budget (a bug guard)."""


@dataclass
class DeliveryStats:
    """One shard's delivery accounting (in process: one run or delta wave).

    Counts are *logical*: a :class:`TupleSet` weighs ``len(rows)``, so
    packaging answers changes neither the totals nor what a ``max_messages``
    budget means (the paper's per-tuple accounting).  ``delivered_physical``
    counts handler invocations, ``by_kind`` physical deliveries per message
    class, and ``tuple_sets`` / ``tuple_set_rows`` how much batching the run
    achieved.  The :data:`COUNTERS` are what a shard reports.
    """

    batches_out: int = 0
    batches_in: int = 0
    delivered_logical: int = 0
    delivered_physical: int = 0
    tuple_rows: int = 0
    protocol_messages: int = 0
    held_end_requests: int = 0
    tuple_sets: int = 0
    tuple_set_rows: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    by_receiver: dict[int, int] = field(default_factory=dict)
    sets_by_receiver: dict[int, int] = field(default_factory=dict)

    @property
    def computation_messages(self) -> int:
        """Delivered relation/tuple requests, tuples, and ends."""
        return self.delivered_logical - self.protocol_messages

    def record(self, message: Message) -> None:
        """Account one delivered message (weighted by its logical size)."""
        receiver = message.receiver
        kind = message.kind()
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.delivered_physical += 1
        if isinstance(message, TupleSet):
            size = len(message.rows)
            self.tuple_sets += 1
            self.tuple_set_rows += size
            self.tuple_rows += size
            self.sets_by_receiver[receiver] = self.sets_by_receiver.get(receiver, 0) + 1
        else:
            size = 1
            if isinstance(message, TupleMessage):
                self.tuple_rows += 1
            elif isinstance(message, PROTOCOL_TYPES):
                self.protocol_messages += 1
        self.delivered_logical += size
        self.by_receiver[receiver] = self.by_receiver.get(receiver, 0) + size


class Router:
    """The channel fabric as seen by the node processes of one shard.

    Intra-shard messages land on a local deque (exact per-node pending
    counts); cross-shard messages are buffered per destination shard and
    shipped as one batch when the buffer reaches ``batch_size`` or the
    shard goes idle.  On arrival, adjacent same-channel rows coalesce into
    one :class:`~repro.network.messages.TupleSet`, so a transported burst
    is *handled* set-at-a-time too.

    ``sent_total`` / ``received_total`` count *logical* tuples per link (a
    TupleSet weighs ``len(rows)``), so the Section 3.2 sent/received
    accounting keeps its meaning.  A transport supplies how a batch is
    shipped (:meth:`_ship`) and adds the work still in transit toward this
    shard to :meth:`pending_for`.
    """

    def __init__(
        self, shard_id: int, shard_of: dict[int, int], n_shards: int, batch_size: int
    ) -> None:
        self.shard_id = shard_id
        self.shard_of = shard_of
        self.batch_size = batch_size
        self.local = deque()
        self.local_pending: dict[int, int] = {}
        self.buffers: dict[int, list[Message]] = {
            dest: [] for dest in range(n_shards) if dest != shard_id
        }
        self.sent_total = {dest: 0 for dest in self.buffers}
        self.received_total = {origin: 0 for origin in self.buffers}
        self.stats = DeliveryStats()

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

    def pending_for(self, node_id: int) -> int:
        """A node's inbox length (nodes ask only for their own id)."""
        return self.local_pending.get(node_id, 0)

    def _flush_one(self, dest: int) -> None:
        buffer = self.buffers[dest]
        if not buffer:
            return
        self.buffers[dest] = []
        self.stats.batches_out += 1
        self._ship(dest, buffer)

    def _ship(self, dest: int, messages: list[Message]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Ship every buffered batch (called when the shard goes idle)."""
        for dest in self.buffers:
            self._flush_one(dest)

    def ingest(self, batch: MessageBatch) -> None:
        """Unpack an arrived batch onto the local deque (FIFO preserved)."""
        self.stats.batches_in += 1
        self.received_total[batch.origin] += logical_size(batch)
        for message in coalesce_batch(batch.messages):
            self.local.append(message)
            self.local_pending[message.receiver] = (
                self.local_pending.get(message.receiver, 0) + 1
            )

    # ------------------------------------------------------------------
    def account_delivery(self, message: Message) -> None:
        """Count one delivered message."""
        self.stats.record(message)

    def check_conclusion(self, leader: "NodeProcess") -> None:
        """A leader concludes; no shard sees every channel, so only
        :class:`LocalFabric` checks (Theorem 3.1's oracle)."""

    def counters(self) -> dict:
        """This shard's accounting, JSON-safe (string keys)."""
        stats = self.stats
        return {
            "sent": {str(d): self.sent_total[d] for d in self.buffers},
            "received": {
                str(o): self.received_total[o]
                for o in self.buffers
                if self.received_total[o]
            },
            **{name: getattr(stats, name) for name in COUNTERS},
            "by_receiver": {str(k): v for k, v in stats.by_receiver.items()},
        }


def node_label(graph, node_id: int, bindings: tuple = ()) -> str:
    """Readable label for any node of a sharded network."""
    if node_id == DRIVER_ID:
        return "driver"
    try:
        return graph.node_label(node_id, bindings)
    except KeyError:  # EDB replicas live outside the graph
        return f"edb-replica:{node_id}"


def _deliver_next(router: Router, processes: dict, injector=None) -> Message:
    """Deliver the router's next local message; the queue must not be empty."""
    message = router.local.popleft()
    router.local_pending[message.receiver] -= 1
    if injector is not None:
        injector.on_delivery(message.receiver)
    router.account_delivery(message)
    process = processes[message.receiver]
    process.handle(message, router)
    # Fig 2 attaches the protocol-start check to the moment a node
    # finishes a unit of work.
    process.on_idle_check(router)
    return message


def _idle_pass(router: Router, processes: dict) -> None:
    """Nothing is local: flush request packaging, idle-check every node,
    ship buffered batches.

    The receiver of the last delivery may not be the leader whose probe is
    now due, nor a member holding an end request (``pending_for`` counts
    remote traffic per shard, so a member goes idle when rows for another
    node land).
    """
    for process in processes.values():
        if process._request_buffer:
            process.flush_requests(router)
    for process in processes.values():
        process.on_idle_check(router)
    router.flush()


def run_shard_loop(
    processes: dict,
    router: Router,
    take: Callable[[Optional[float]], object],
    tick: Callable[[], None],
    idle_poll: float,
    injector=None,
) -> None:
    """Deliver to ``processes`` (this shard's nodes) until :data:`STOP`.

    ``take(timeout)`` returns the next inbox item — without blocking when
    ``timeout`` is None — or None when there is none.  ``tick`` runs once
    per iteration, idle polls included (heartbeats, abort checks), so a
    healthy worker — busy or blocked on input — always beats and only one
    wedged inside a handler goes silent.  A fault ``injector`` (from
    ``runtime/faults.py``) sees every delivery (``on_delivery(node_id)``)
    and every ingest (``delay()``).
    """

    def ingest(item) -> None:
        if injector is not None:
            injector.delay()
        router.ingest(item)

    try:
        while True:
            tick()
            # 1) Drain the inbox without blocking, so arriving work is
            #    interleaved with local delivery and pending counts stay fresh.
            while True:
                item = take(None)
                if item is None:
                    break
                if item == STOP:
                    return
                ingest(item)

            # 2) Deliver one local message.
            if router.local:
                _deliver_next(router, processes, injector)
                continue

            # 3) Idle, then block for remote input: a bounded poll rather
            #    than an indefinite get, so ``tick`` keeps running.
            _idle_pass(router, processes)
            if router.local:
                continue
            item = take(idle_poll)
            if item is None:
                continue
            if item == STOP:
                return
            ingest(item)
    finally:
        # Held end requests are the protocol's own count (termination.py).
        router.stats.held_end_requests = sum(
            p.protocol.held_end_requests
            for p in processes.values()
            if p.protocol is not None
        )


def open_shard(
    engine: "MessagePassingEngine",
    router: Router,
    on_done: Callable[[set, int, int], None],
) -> dict:
    """The router's shard of ``engine``, with the query posed if it is here.

    On the shard that hosts the driver the query is posed now — inside the
    worker that owns the driver, so its feeder state never desyncs — and
    ``on_done(answers, last_seq_sent, last_upto_ended)`` fires when the
    driver completes.
    """
    shard_id, shard_of = router.shard_id, router.shard_of
    hosted = {
        node_id: process
        for node_id, process in engine.processes.items()
        if shard_of[node_id] == shard_id
    }
    if DRIVER_ID in hosted:
        driver = engine.driver
        root_stream = driver.feeders[engine.graph.root]
        # The hook reads the (in-place grown) answer set, not the driver:
        # a closure over the driver would make the engine cyclic.
        answers = driver.answers

        def on_complete() -> None:
            on_done(answers, root_stream.last_seq_sent, root_stream.last_upto_ended)

        driver.on_complete = on_complete
        driver.start(router)
    return hosted


class _SeededQueue:
    """A local queue that hands out a seeded pick among channel heads.

    Each (sender, receiver) channel stays FIFO.  A message that reaches the
    head of its channel waits a seeded random 1-16 delivery steps; the head
    whose wait ends first goes next.  So channels overtake one another by
    bounded amounts, and a seed reproduces its order.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._channels: dict[tuple[int, int], deque] = defaultdict(deque)
        self._due: dict[int, deque] = defaultdict(deque)  # step -> channel keys
        self._step = self._size = 0

    def _wait(self, key: tuple[int, int]) -> None:
        self._due[self._step + self._rng.randint(1, 16)].append(key)

    def append(self, message: Message) -> None:
        key = (message.sender, message.receiver)
        channel = self._channels[key]
        if not channel:
            self._wait(key)
        channel.append(message)
        self._size += 1

    def popleft(self) -> Message:
        while self._step not in self._due:
            self._step += 1
        due = self._due[self._step]
        channel = self._channels[due.popleft()]
        if not due:
            del self._due[self._step]
        message = channel.popleft()
        if channel:
            self._wait((message.sender, message.receiver))
        self._size -= 1
        return message

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Message]:
        for channel in self._channels.values():
            yield from channel


def _drained(timeout: Optional[float]) -> object:
    """A one-shard fabric's inbox: nothing arrives, so idle means drained."""
    return None if timeout is None else STOP


class LocalFabric(Router):
    """The simulator: every process on one in-memory shard.

    :meth:`run` drives :func:`run_shard_loop` until the network drains, in
    global send order or, with a ``seed``, in a seeded order that keeps
    every channel FIFO.  ``max_messages`` bounds the logical deliveries
    (:class:`MessageBudgetExceeded`), ``trace`` sees every delivered
    message, and with ``validate_protocol`` every conclusion is checked
    (:meth:`check_conclusion`) into :attr:`protocol_violations`.
    """

    def __init__(
        self,
        processes: Optional[dict] = None,
        seed: Optional[int] = None,
        max_messages: int = 5_000_000,
        trace: Optional[Callable[[Message], None]] = None,
        validate_protocol: bool = False,
    ) -> None:
        processes = processes if processes is not None else {}
        super().__init__(0, dict.fromkeys(processes, 0), 1, batch_size=1)
        self.processes = processes
        if seed is not None:
            self.local = _SeededQueue(seed)
        self.max_messages = max_messages
        self.trace = trace
        self.validate_protocol = validate_protocol
        #: Theorem 3.1 violations the oracle saw (empty on a correct run).
        self.protocol_violations: list[str] = []

    def register(self, process) -> None:
        """Add a process to the network (ids must be unique)."""
        if process.node_id in self.processes:
            raise ValueError(f"duplicate process id {process.node_id}")
        self.processes[process.node_id] = process
        self.shard_of[process.node_id] = 0

    def in_flight(self) -> int:
        """Global oracle: total undelivered messages."""
        return len(self.local)

    def account_delivery(self, message: Message) -> None:
        if self.stats.delivered_logical >= self.max_messages:
            raise MessageBudgetExceeded(f"exceeded {self.max_messages} delivered messages")
        self.stats.record(message)
        if self.trace is not None:
            self.trace(message)

    def run(self) -> DeliveryStats:
        """Deliver messages until the network drains; return the counters."""
        run_shard_loop(self.processes, self, _drained, lambda: None, 0.0)
        return self.stats

    def step(self) -> Optional[Message]:
        """Deliver one message, or None once the network has drained.

        When nothing is queued the loop's idle pass runs first, as it
        would in :meth:`run`; the ``max_messages`` budget holds here too.
        """
        if not self.local:
            _idle_pass(self, self.processes)
            if not self.local:
                return None
        return _deliver_next(self, self.processes)

    def check_conclusion(self, leader: "NodeProcess") -> None:
        """Theorem 3.1 oracle: at conclusion, the component must be quiescent.

        No computation message may be in flight between members, and every
        member's feeders must be caught up.  A new request from an external
        customer may be queued (coalesced graphs): its sequence number
        exceeds the ends about to be sent, so it is answered and ended later.
        """
        if not self.validate_protocol:
            return
        members = leader.sc_members
        for member in members:
            for stream in self.processes[member].feeders.values():
                if stream.is_feeder and not stream.caught_up:
                    self.protocol_violations.append(
                        f"member {member} concluded with feeder "
                        f"{stream.producer_id} not caught up"
                    )
        for message in self.local:
            if not isinstance(message, COMPUTATION_TYPES):
                continue
            if message.sender in members and message.receiver in members:
                self.protocol_violations.append(
                    f"internal computation message in flight "
                    f"{message.sender}->{message.receiver} at conclusion: "
                    f"{message.kind()}"
                )
