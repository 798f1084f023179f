"""A deterministic discrete-event message scheduler.

The paper's processes communicate only by messages; this scheduler owns the
channels and delivers messages one at a time to node ``handle`` methods.  Two
properties matter:

* **FIFO channels** — each (sender, receiver) pair delivers in send order.
  The end-message semantics relies on this ("tuples before the end"), as do
  real message-queue substrates the paper appeals to.
* **Deterministic but reorderable delivery** — by default messages are
  delivered globally in send order; with a ``seed`` the scheduler assigns
  random per-message latencies (still respecting channel FIFO) to exercise
  the asynchrony the distributed termination protocol must survive.

The scheduler also keeps the *global quiescence oracle* used to validate
Theorem 3.1: it can see that no messages are in flight — something the
distributed nodes themselves never can.  With ``validate_protocol`` on, it
checks every strong component's conclusion against that view and records
what it finds in :attr:`Scheduler.protocol_violations`.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol

from .messages import COMPUTATION_TYPES, PROTOCOL_TYPES, Message, TupleSet, logical_size

__all__ = ["Process", "SchedulerStats", "Scheduler", "MessageBudgetExceeded"]


class MessageBudgetExceeded(RuntimeError):
    """Raised when a run exceeds its message budget (a bug guard)."""


class Process(Protocol):
    """What the scheduler requires of a node process.

    The quiescence oracle (``validate_protocol=True``) also reads each
    process's ``protocol``, ``sc_members`` and ``feeders``.
    """

    node_id: int

    def handle(self, message: Message, network: "Scheduler") -> None:
        """Process one delivered message, sending follow-ups via ``network``."""
        ...

    def on_idle_check(self, network: "Scheduler") -> None:
        """Hook invoked after each delivery (leaders may start the protocol)."""
        ...


@dataclass
class SchedulerStats:
    """Message accounting for a run.

    Counters are *logical*: a :class:`TupleSet` weighs ``len(rows)`` —
    packaging answers must not change what the totals (or ``max_messages``
    budgets) mean, per the paper's per-tuple accounting.  ``physical_total``
    counts actual deliveries (handler invocations), ``by_kind`` counts
    physical messages per class, and the ``tuple_sets`` / ``tuple_set_rows``
    pair exposes how much batching the run achieved.
    """

    delivered_total: int = 0
    physical_total: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    by_receiver: dict[int, int] = field(default_factory=dict)
    sets_by_receiver: dict[int, int] = field(default_factory=dict)
    computation_messages: int = 0
    protocol_messages: int = 0
    tuple_sets: int = 0
    tuple_set_rows: int = 0

    def record(self, message: Message) -> None:
        """Account one delivered message (weighted by its logical size)."""
        weight = logical_size(message)
        self.delivered_total += weight
        self.physical_total += 1
        kind = message.kind()
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.by_receiver[message.receiver] = (
            self.by_receiver.get(message.receiver, 0) + weight
        )
        if isinstance(message, TupleSet):
            self.tuple_sets += 1
            self.tuple_set_rows += weight
            self.sets_by_receiver[message.receiver] = (
                self.sets_by_receiver.get(message.receiver, 0) + 1
            )
        if isinstance(message, COMPUTATION_TYPES):
            self.computation_messages += weight
        elif isinstance(message, PROTOCOL_TYPES):
            self.protocol_messages += weight


class Scheduler:
    """Delivers messages to registered processes until the network drains.

    Parameters
    ----------
    seed:
        ``None`` (default) delivers in global send order; an integer seed
        draws a random latency (1–``max_latency``) per message, subject to
        per-channel FIFO.
    max_messages:
        Delivery budget; :class:`MessageBudgetExceeded` beyond it.
    trace:
        Optional callback invoked with every delivered message.
    validate_protocol:
        Check each termination-protocol conclusion against the global view
        (:meth:`_check_conclusion`); violations go to
        :attr:`protocol_violations`.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        max_latency: int = 16,
        max_messages: int = 5_000_000,
        trace: Optional[Callable[[Message], None]] = None,
        validate_protocol: bool = False,
    ) -> None:
        self._processes: dict[int, Process] = {}
        self._heap: list[tuple[int, int, Message]] = []
        self._now = 0
        self._send_seq = 0
        self._channel_clock: dict[tuple[int, int], int] = {}
        self._pending_per_node: dict[int, int] = {}
        self._rng = random.Random(seed) if seed is not None else None
        self._max_latency = max(1, max_latency)
        self._max_messages = max_messages
        self._trace = trace
        self._validate_protocol = validate_protocol
        #: Theorem 3.1 violations the oracle saw (empty on a correct run).
        self.protocol_violations: list[str] = []
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, process: Process) -> None:
        """Add a process to the network (ids must be unique)."""
        if process.node_id in self._processes:
            raise ValueError(f"duplicate process id {process.node_id}")
        self._processes[process.node_id] = process
        self._pending_per_node.setdefault(process.node_id, 0)

    def process(self, node_id: int) -> Process:
        """Look up a registered process."""
        return self._processes[node_id]

    def processes(self) -> Iterable[Process]:
        """All registered processes."""
        return self._processes.values()

    # ------------------------------------------------------------------
    # Sending and delivery
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Enqueue a message for delivery (FIFO per channel)."""
        if message.receiver not in self._processes:
            raise KeyError(f"message to unknown process {message.receiver}: {message}")
        channel = (message.sender, message.receiver)
        if self._rng is None:
            deliver_at = self._now + 1
        else:
            deliver_at = self._now + self._rng.randint(1, self._max_latency)
        # FIFO: never deliver before the channel's previous message.
        deliver_at = max(deliver_at, self._channel_clock.get(channel, 0) + 1)
        self._channel_clock[channel] = deliver_at
        self._send_seq += 1
        heapq.heappush(self._heap, (deliver_at, self._send_seq, message))
        self._pending_per_node[message.receiver] = (
            self._pending_per_node.get(message.receiver, 0) + 1
        )

    def pending_for(self, node_id: int) -> int:
        """Messages queued (undelivered) for a node — its inbox length.

        A real process knows its own queue length; nodes use this only for
        *their own* id inside ``empty_queues()``.
        """
        return self._pending_per_node.get(node_id, 0)

    def in_flight(self) -> int:
        """Global oracle: total undelivered messages (tests only)."""
        return len(self._heap)

    def run(self) -> SchedulerStats:
        """Deliver messages until the network drains; return the statistics."""
        while self._heap:
            self._deliver()
        return self.stats

    def step(self) -> Optional[Message]:
        """Deliver a single message (for fine-grained tests); None if drained.

        Enforces the same ``max_messages`` budget as :meth:`run` — a
        step-driven loop must hit the bug guard too, not run unbounded.
        """
        if not self._heap:
            return None
        return self._deliver()

    def _deliver(self) -> Message:
        """Deliver the next message; the heap must not be empty."""
        if self.stats.delivered_total >= self._max_messages:
            raise MessageBudgetExceeded(
                f"exceeded {self._max_messages} delivered messages"
            )
        deliver_at, _, message = heapq.heappop(self._heap)
        self._now = max(self._now, deliver_at)
        self._pending_per_node[message.receiver] -= 1
        self.stats.record(message)
        if self._trace is not None:
            self._trace(message)
        receiver = self._processes[message.receiver]
        protocol = receiver.protocol if self._validate_protocol else None
        conclusions = protocol.conclusions if protocol is not None else 0
        receiver.handle(message, self)
        # Post-delivery hook: Fig 2 attaches the protocol-start check to
        # the moment a node finishes a unit of work.
        receiver.on_idle_check(self)
        if protocol is not None and protocol.conclusions != conclusions:
            self._check_conclusion(receiver)
        return message

    def _check_conclusion(self, leader: Process) -> None:
        """Theorem 3.1 oracle: at conclusion, the component must be quiescent.

        Quiescent with respect to its *own* computation: no computation
        message in flight between members, and every member's feeder
        streams caught up.  A brand-new request from an external customer
        may be legitimately queued at this instant (coalesced graphs); its
        sequence number exceeds the ends being emitted, so it is not
        covered by them and will be answered — and ended — later.  Running
        right after the concluding delivery sees the same state as running
        inside it: what the conclusion sent since (ends to external
        customers, ComponentDone) is not checked.
        """
        members = leader.sc_members
        for member in members:
            for stream in self._processes[member].feeders.values():
                if stream.is_feeder and not stream.caught_up:
                    self.protocol_violations.append(
                        f"member {member} concluded with feeder "
                        f"{stream.producer_id} not caught up"
                    )
        for _, _, message in self._heap:
            if not isinstance(message, COMPUTATION_TYPES):
                continue
            if message.sender in members and message.receiver in members:
                self.protocol_violations.append(
                    f"internal computation message in flight "
                    f"{message.sender}->{message.receiver} at conclusion: "
                    f"{message.kind()}"
                )
