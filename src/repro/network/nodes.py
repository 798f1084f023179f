"""Node processes: the relational computations behind each graph node.

Section 2.2: "we interpret each node as a processor that performs a
relational computation.  Predicate nodes with rule-children compute the union
of the relations computed by their children; rule nodes combine their subgoal
relations using join, select, and project.  The predicate nodes that are
connected to an ancestor predicate node by a cyclic edge perform a selection
on the relation computed by the ancestor."

Section 3.1's storage discipline is followed: "rule nodes store their
subgoals' temporary relations ...  When a tuple arrives, provided it does not
duplicate one already received, it is matched against the (partial) temporary
relations of other subgoals to form new tuples via joins.  Detection of
duplicates is necessary to allow loops to terminate.  In addition, goal nodes
store their temporary relations, and only forward answer tuples that are
genuinely new."  Processes never block waiting for complete answers — every
arriving tuple or tuple request is processed incrementally.

No process reads another's state; all interaction goes through
:class:`~repro.network.scheduler.Scheduler` messages.
"""

from __future__ import annotations

import itertools
import operator
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from ..core.adornment import AdornedAtom
from ..core.rules import Rule
from ..core.terms import Constant, Variable, bound_value
from ..relational.database import Database
from .messages import (
    ColumnBatch,
    ComponentDone,
    EndConfirmed,
    EndMessage,
    EndNegative,
    EndNudge,
    EndRequest,
    Message,
    PackagedTupleRequest,
    RelationRequest,
    TupleMessage,
    TupleRequest,
    TupleSet,
)
from .termination import TerminationProtocol

if TYPE_CHECKING:
    from .scheduler import Scheduler

__all__ = [
    "ConsumerStream",
    "FeederStream",
    "NodeProcess",
    "GoalNodeProcess",
    "CyclicNodeProcess",
    "EdbLeafProcess",
    "RuleNodeProcess",
    "DriverProcess",
    "DRIVER_ID",
]

#: Node id of the query driver (the environment posing the query).
DRIVER_ID = -1


def route_hash(binding: tuple) -> int:
    """A deterministic hash for partitioning "d" bindings across replicas.

    ``hash()`` is salted per interpreter (PYTHONHASHSEED), which forked
    workers happen to share — but a seed-independent hash keeps replica
    routing identical across runs, so sharded executions are reproducible.
    """
    return zlib.crc32(repr(binding).encode("utf-8"))


@dataclass
class ConsumerStream:
    """Producer-side state for one successor (customer) of this node.

    "A goal node with multiple out-edges needs to furnish answers in separate
    streams to each successor node; different successors ... normally will
    have requested different subsets of the total temporary relation."
    """

    consumer_id: int
    wants_all: bool  # producer has no "d" positions: everything flows
    last_seq_received: int = -1  # -1: no relation request yet
    last_seq_ended: int = -1
    requested: set[tuple] = field(default_factory=set)  # d-bindings asked for
    sent_rows: set[tuple] = field(default_factory=set)  # per-stream dedup

    @property
    def owes_end(self) -> bool:
        """True when requests arrived that no end message has covered yet."""
        return self.last_seq_ended < self.last_seq_received


@dataclass
class FeederStream:
    """Consumer-side state for one producer this node requests tuples from."""

    producer_id: int
    is_feeder: bool  # producer in a different strong component (Def 2.1)
    last_seq_sent: int = -1
    last_upto_ended: int = -1
    sent_bindings: set[tuple] = field(default_factory=set)

    @property
    def caught_up(self) -> bool:
        """All requests sent so far have been covered by end messages."""
        return self.last_upto_ended >= self.last_seq_sent

    def next_seq(self) -> int:
        """Allocate the next request sequence number on this stream."""
        self.last_seq_sent += 1
        return self.last_seq_sent


class NodeProcess:
    """Common machinery: streams, ends, and termination-protocol plumbing."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.consumers: dict[int, ConsumerStream] = {}
        self.feeders: dict[int, FeederStream] = {}
        self.protocol: Optional[TerminationProtocol] = None
        self.sc_members: frozenset[int] = frozenset()
        self.tuples_stored = 0  # statistic: rows materialized at this node
        # Protocol triggers (meaningful only for strong-component members):
        # the leader probes while work arrived since its last conclusion or
        # ends are owed; members nudge the leader when they owe ends that
        # never produced component-wide work (coalesced graphs, footnote 4).
        self.work_since_conclusion = False
        self.nudge_sent = False
        self._leader_id: Optional[int] = None
        # Footnote-2 packaging: buffer outgoing tuple requests per producer
        # during one handle() and flush them as one message each.
        self.package_requests = False
        self._request_buffer: dict[int, list[tuple]] = {}
        # Partitioned producers: logical producer id -> replica node ids.  A
        # tuple request is routed to replicas[route_hash(binding) % k], so a
        # sharded EDB leaf's semijoin fan-out spreads across replicas while
        # each binding deterministically reaches exactly one of them (stream
        # sequence numbers and per-stream dedup stay per-replica and exact).
        self.replica_route: dict[int, tuple[int, ...]] = {}
        # Provenance: when on, processes record each tuple's first derivation
        # so proof trees can be reassembled after the run.  The kernels are
        # the same either way; recording is one flag test per batch.
        self.record_provenance = False

    # ------------------------------------------------------------------
    # Wiring (done by the engine before the run)
    # ------------------------------------------------------------------
    def add_consumer(self, consumer_id: int, wants_all: bool) -> ConsumerStream:
        """Register a successor stream."""
        stream = ConsumerStream(consumer_id, wants_all)
        self.consumers[consumer_id] = stream
        return stream

    def add_feeder(self, producer_id: int, is_feeder: bool) -> FeederStream:
        """Register a producer stream (``is_feeder``: cross-component)."""
        stream = FeederStream(producer_id, is_feeder)
        self.feeders[producer_id] = stream
        return stream

    def attach_protocol(
        self,
        protocol: TerminationProtocol,
        members: frozenset[int],
        leader_id: Optional[int] = None,
    ) -> None:
        """Join a strong component's termination protocol."""
        self.protocol = protocol
        self.sc_members = members
        self._leader_id = leader_id if leader_id is not None else protocol.node_id

    # ------------------------------------------------------------------
    # The distributed idleness predicate
    # ------------------------------------------------------------------
    def empty_queues(self, network: "Scheduler") -> bool:
        """Fig 2's ``empty-queues()``: inbox empty and all feeders ended.

        Only *feeder* streams (producers outside this node's strong
        component) are required to have reported end; in-component producers
        cannot — detecting their collective completion is the protocol's job.
        """
        if network.pending_for(self.node_id) > 0:
            return False
        if self._request_buffer:
            return False  # unflushed packaged requests are pending work
        return all(f.caught_up for f in self.feeders.values() if f.is_feeder)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle(self, message: Message, network: "Scheduler") -> None:
        """Dispatch one delivered message."""
        if isinstance(
            message,
            (
                RelationRequest,
                TupleRequest,
                PackagedTupleRequest,
                TupleMessage,
                TupleSet,
                EndMessage,
            ),
        ):
            if self.protocol is not None:
                self.protocol.on_work()
                self.work_since_conclusion = True
            if isinstance(message, RelationRequest):
                self.on_relation_request(message, network)
            elif isinstance(message, TupleRequest):
                self.on_tuple_request(message, network)
            elif isinstance(message, PackagedTupleRequest):
                self.on_packaged_request(message, network)
            elif isinstance(message, TupleSet):
                self.on_tuple_set(message, network)
            elif isinstance(message, TupleMessage):
                # A lone row is a one-row set: every node has one row handler.
                self.on_tuple_set(
                    TupleSet(
                        message.sender, message.receiver, frozenset((message.row,))
                    ),
                    network,
                )
            else:
                self.on_end(message, network)
        elif isinstance(message, EndRequest):
            assert self.protocol is not None, f"protocol message at non-SC node {self.node_id}"
            self.protocol.handle_end_request(message, self, network)
        elif isinstance(message, EndNegative):
            assert self.protocol is not None
            self.protocol.handle_end_negative(message, self, network)
        elif isinstance(message, EndConfirmed):
            assert self.protocol is not None
            self.protocol.handle_end_confirmed(message, self, network)
        elif isinstance(message, ComponentDone):
            assert self.protocol is not None
            self.protocol.handle_component_done(message, self, network)
        elif isinstance(message, EndNudge):
            # A member owes an end: make sure the leader probes again.
            assert self.protocol is not None and self.protocol.is_leader
            self.work_since_conclusion = True
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown message {message}")

    def on_idle_check(self, network: "Scheduler") -> None:
        """Post-delivery hook: emit ends (acyclic) or run the protocol (leader)."""
        if self._request_buffer and network.pending_for(self.node_id) == 0:
            # Packaging: requests accumulated over the burst go out together
            # once the inbox drains ("package a set of related tuple requests").
            self.flush_requests(network)
        if self.protocol is not None:
            if self.protocol.is_leader:
                self.protocol.maybe_initiate(
                    self,
                    network,
                    self._owes_external_end() or self.work_since_conclusion,
                )
            elif self._owes_external_end() and not self.nudge_sent:
                self.nudge_sent = True
                network.send(EndNudge(self.node_id, self.protocol_leader_id))
            return
        self.maybe_send_ends(network)

    @property
    def protocol_leader_id(self) -> int:
        """The strong component's leader (valid only for SC members)."""
        assert self.protocol is not None
        leader = self._leader_id
        assert leader is not None
        return leader

    def on_component_conclude(self, network: "Scheduler") -> None:
        """Conclusion reached (locally or via ComponentDone): emit owed ends."""
        self.send_owed_ends(network)
        self.work_since_conclusion = False
        self.nudge_sent = False

    # ------------------------------------------------------------------
    # Tuple-request emission (with optional footnote-2 packaging)
    # ------------------------------------------------------------------
    def send_tuple_request(self, producer_id: int, binding: tuple, network: "Scheduler") -> None:
        """Request one "d" binding from a producer, deduplicated per stream.

        With packaging on, the request is buffered and flushed (as part of
        one :class:`PackagedTupleRequest` per producer) when the current
        message finishes processing.  A producer with registered replicas is
        resolved to the replica owning the binding's hash partition first.
        """
        replicas = self.replica_route.get(producer_id)
        if replicas is not None:
            producer_id = replicas[route_hash(binding) % len(replicas)]
        feeder = self.feeders[producer_id]
        if binding in feeder.sent_bindings:
            return
        feeder.sent_bindings.add(binding)
        if self.package_requests:
            self._request_buffer.setdefault(producer_id, []).append(binding)
        else:
            network.send(
                TupleRequest(self.node_id, producer_id, binding, feeder.next_seq())
            )

    def send_tuple_requests_batch(
        self, producer_id: int, bindings: set, network: "Scheduler"
    ) -> None:
        """Batch variant of :meth:`send_tuple_request` for the stage kernels.

        Deduplicates the whole binding set against the feeder stream with one
        set difference; falls back to the per-binding path when the producer
        has replicas (each binding routes by hash partition).
        """
        if producer_id in self.replica_route:
            for binding in bindings:
                self.send_tuple_request(producer_id, binding, network)
            return
        feeder = self.feeders[producer_id]
        fresh = bindings - feeder.sent_bindings
        if not fresh:
            return
        feeder.sent_bindings |= fresh
        if self.package_requests:
            self._request_buffer.setdefault(producer_id, []).extend(fresh)
        else:
            for binding in fresh:
                network.send(
                    TupleRequest(self.node_id, producer_id, binding, feeder.next_seq())
                )

    def flush_requests(self, network: "Scheduler") -> None:
        """Send each producer's buffered bindings as one packaged request."""
        if not self._request_buffer:
            return
        buffered, self._request_buffer = self._request_buffer, {}
        for producer_id in sorted(buffered):
            bindings = buffered[producer_id]
            feeder = self.feeders[producer_id]
            seq = -1
            for _ in bindings:
                seq = feeder.next_seq()
            network.send(
                PackagedTupleRequest(self.node_id, producer_id, tuple(bindings), seq)
            )

    def on_packaged_request(self, message: PackagedTupleRequest, network: "Scheduler") -> None:
        """Serve every binding of a package under one sequence number."""
        stream = self.consumers[message.sender]
        stream.last_seq_received = max(stream.last_seq_received, message.seq)
        for binding in message.bindings:
            self.serve_binding(stream, binding, network)

    def serve_binding(self, stream: ConsumerStream, binding: tuple, network: "Scheduler") -> None:
        """Node-specific handling of one "d" binding (see subclasses)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Set-at-a-time answer emission
    # ------------------------------------------------------------------
    def send_rows(
        self, stream: ConsumerStream, rows: Iterable[tuple], network: "Scheduler"
    ) -> None:
        """Send fresh rows to one consumer, packaged when it pays off.

        Applies the per-stream duplicate filter first — one set difference,
        which also deduplicates within the burst (projections can collide) —
        then ships the survivors as a single :class:`TupleSet` when more
        than one row is fresh.  A single fresh row travels as a
        :class:`TupleMessage`: a one-row set buys nothing, and the per-tuple
        message is §3.1's own vocabulary.
        """
        if not isinstance(rows, (set, frozenset)):
            rows = set(rows)
        fresh = rows - stream.sent_rows
        if not fresh:
            return
        stream.sent_rows |= fresh
        self._ship(stream.consumer_id, fresh, network)

    def _ship(self, consumer_id: int, fresh, network: "Scheduler") -> None:
        """Emit already-deduplicated rows: one set, or one tuple message."""
        if len(fresh) > 1:
            network.send(TupleSet(self.node_id, consumer_id, frozenset(fresh)))
        else:
            for row in fresh:
                network.send(TupleMessage(self.node_id, consumer_id, row))

    def _fan_out(
        self, fresh, buckets: Optional[dict], network: "Scheduler"
    ) -> None:
        """Send every consumer stream the fresh rows it asked for.

        ``buckets`` groups ``fresh`` by "d" binding; ``None`` means the
        producer has no "d" positions, so every row carries the nullary
        binding.  Each stream's matching rows are collected by walking
        whichever is smaller, the buckets or the stream's requests.
        """
        for stream in self.consumers.values():
            if stream.wants_all:
                self.send_rows(stream, fresh, network)
                continue
            requested = stream.requested
            if buckets is None:
                if () in requested:
                    self.send_rows(stream, fresh, network)
                continue
            matching: list[tuple] = []
            if len(buckets) <= len(requested):
                for binding, rows in buckets.items():
                    if binding in requested:
                        matching.extend(rows)
            else:
                for binding in requested:
                    rows = buckets.get(binding)
                    if rows:
                        matching.extend(rows)
            if matching:
                self.send_rows(stream, matching, network)

    # ------------------------------------------------------------------
    # End emission
    # ------------------------------------------------------------------
    def _owes_external_end(self) -> bool:
        return any(
            stream.owes_end
            for consumer_id, stream in self.consumers.items()
            if consumer_id not in self.sc_members
        )

    def maybe_send_ends(self, network: "Scheduler") -> None:
        """Acyclic-node end rule: once every feeder stream is caught up,
        everything requested so far is complete (FIFO channels guarantee all
        child tuples were delivered before their ends)."""
        if self._request_buffer:
            return  # unflushed packaged requests: not done yet
        if not all(f.caught_up for f in self.feeders.values()):
            return
        self.send_owed_ends(network)

    def send_owed_ends(self, network: "Scheduler") -> None:
        """End every external consumer stream with uncovered requests."""
        for consumer_id, stream in self.consumers.items():
            if consumer_id in self.sc_members:
                continue
            if stream.owes_end:
                stream.last_seq_ended = stream.last_seq_received
                network.send(EndMessage(self.node_id, consumer_id, stream.last_seq_ended))

    # ------------------------------------------------------------------
    # Handlers to override
    # ------------------------------------------------------------------
    def on_relation_request(self, message: RelationRequest, network: "Scheduler") -> None:
        """Open a consumer stream and begin computing (node-specific)."""
        raise NotImplementedError

    def on_tuple_request(self, message: TupleRequest, network: "Scheduler") -> None:
        """Serve one "d" binding for a consumer stream (node-specific)."""
        raise NotImplementedError

    def on_tuple_set(self, message: TupleSet, network: "Scheduler") -> None:
        """Consume a set of answer rows from one producer.

        Semantically a :class:`TupleSet` *is* ``len(rows)`` tuple messages
        delivered back to back; every consuming node joins it as one batch.
        A delivered :class:`TupleMessage` arrives here as a one-row set.
        """
        raise NotImplementedError

    def on_end(self, message: EndMessage, network: "Scheduler") -> None:
        """Default: record the feeder's progress."""
        stream = self.feeders[message.sender]
        stream.last_upto_ended = max(stream.last_upto_ended, message.upto)


# ----------------------------------------------------------------------
# Shared helpers for adorned atoms
# ----------------------------------------------------------------------

def _tuple_getter(
    positions: Sequence[int], width: Optional[int] = None
) -> Callable[[tuple], tuple]:
    """A compiled projection: row -> tuple of the values at ``positions``.

    ``operator.itemgetter`` already returns a tuple for two or more
    positions; the 0/1-position cases are wrapped so the result is always a
    tuple (bindings and merge suffixes concatenate onto other tuples).
    When ``positions`` are every position of a ``width``-wide row, in
    order, the projection is the row itself and nothing is copied.
    """
    if width is not None and tuple(positions) == tuple(range(width)):
        return lambda row: row
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    return operator.itemgetter(*positions)


def _key_getter(positions: Sequence[int]) -> Callable[[tuple], object]:
    """A compiled join-key extractor for the stage kernels.

    Single-position keys are the *bare* value — no per-row 1-tuple
    allocation.  Key representation only needs to agree between the two
    sides of one node's private indexes, and a node runs all of its stages
    through the same compiled getters for its whole lifetime.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        return operator.itemgetter(positions[0])
    return operator.itemgetter(*positions)


class _RowShape:
    """Precomputed position bookkeeping for one adorned atom's tuple rows.

    Rows on a stream carry values for the atom's "d" and "f" positions
    only, in position order: a "c" value is fixed when the graph is built
    and an "e" value is never transmitted.  ``d_in_row`` locates the "d"
    positions inside such a row so bindings can be projected without
    consulting the atom again.
    """

    def __init__(self, adorned: AdornedAtom) -> None:
        self.adorned = adorned
        self.row_positions = adorned.output_positions
        self.d_positions = adorned.dynamic_positions
        row_index = {pos: i for i, pos in enumerate(self.row_positions)}
        self.d_in_row = tuple(row_index[p] for p in self.d_positions)
        #: Project a row to the values at the "d" positions (compiled).
        self.binding_of = _tuple_getter(self.d_in_row, len(self.row_positions))

    def buckets(self, rows: Iterable[tuple]) -> Optional[dict[tuple, list[tuple]]]:
        """``rows`` grouped by "d" binding; ``None`` without "d" positions
        (every row then shares the nullary binding — no bucketing pass)."""
        if not self.d_in_row:
            return None
        binding_of = self.binding_of
        buckets: dict[tuple, list[tuple]] = {}
        for row in rows:
            binding = binding_of(row)
            bucket = buckets.get(binding)
            if bucket is None:
                buckets[binding] = [row]
            else:
                bucket.append(row)
        return buckets


class GoalNodeProcess(NodeProcess):
    """An expanded IDB goal node: the union of its rule children's relations.

    Stores the answer relation, forwards only genuinely new tuples, serves
    each successor the subset matching that successor's tuple requests, and
    relays tuple requests down to every rule child.
    """

    def __init__(self, node_id: int, adorned: AdornedAtom) -> None:
        super().__init__(node_id)
        self.adorned = adorned
        self.shape = _RowShape(adorned)
        self.answers: set[tuple] = set()
        self.answers_by_binding: dict[tuple, list[tuple]] = {}
        self.bindings_seen: set[tuple] = set()
        self.requests_propagated = False
        self.row_sources: dict[tuple, int] = {}  # provenance: row -> first sender
        # §3.1: "trivial goal nodes, with only one in-edge and one out-edge
        # are exempt" from storing their temporary relation — with a single
        # producer (which deduplicates its emissions) and a single consumer
        # (whose requests are exactly the ones forwarded), storing buys
        # nothing.  The engine sets this after wiring.
        self.trivial_relay = False

    # -- producer side -------------------------------------------------
    def on_relation_request(self, message: RelationRequest, network: "Scheduler") -> None:
        stream = self.consumers[message.sender]
        stream.last_seq_received = max(stream.last_seq_received, 0)
        if not self.requests_propagated:
            self.requests_propagated = True
            for child_id, feeder in self.feeders.items():
                feeder.next_seq()  # sequence 0 = the relation request
                network.send(
                    RelationRequest(self.node_id, child_id, self.adorned.adornment)
                )
        if stream.wants_all:
            self.send_rows(stream, self.answers, network)

    def on_tuple_request(self, message: TupleRequest, network: "Scheduler") -> None:
        stream = self.consumers[message.sender]
        stream.last_seq_received = max(stream.last_seq_received, message.seq)
        self.serve_binding(stream, message.binding, network)

    def serve_binding(self, stream: ConsumerStream, binding: tuple, network: "Scheduler") -> None:
        """Replay known matching answers; propagate a fresh binding downward."""
        if binding not in stream.requested:
            stream.requested.add(binding)
            self.send_rows(stream, self.answers_by_binding.get(binding, ()), network)
        if binding not in self.bindings_seen:
            self.bindings_seen.add(binding)
            for child_id in self.feeders:
                self.send_tuple_request(child_id, binding, network)

    # -- consumer side ---------------------------------------------------
    def on_tuple_set(self, message: TupleSet, network: "Scheduler") -> None:
        """Set-at-a-time union: one set difference, one bucketed fan-out.

        The set difference is the duplicate deletion that lets loops
        terminate.
        """
        if self.trivial_relay:
            # One producer, one consumer: the producer already deduplicated
            # and every row answers a binding this consumer asked for.
            if self.record_provenance:
                for row in message.rows:
                    self.row_sources.setdefault(row, message.sender)
            (stream,) = self.consumers.values()
            self.send_rows(stream, message.rows, network)
            return
        fresh = message.rows - self.answers
        if not fresh:
            return
        self.answers |= fresh
        self.tuples_stored += len(fresh)
        if self.record_provenance:
            self.row_sources.update(dict.fromkeys(fresh, message.sender))
        buckets = self.shape.buckets(fresh)
        by_binding = self.answers_by_binding
        for binding, rows in (buckets if buckets is not None else {(): fresh}).items():
            stored = by_binding.get(binding)
            if stored is None:
                by_binding[binding] = list(rows)
            else:
                stored.extend(rows)
        self._fan_out(fresh, buckets, network)


class CyclicNodeProcess(NodeProcess):
    """A variant-of-ancestor goal node: a selection on the ancestor's relation.

    Forwards its parent's tuple requests to the ancestor and relays the
    ancestor's matching answers back up.  Always inside a strong component,
    so it emits no end messages of its own (the component's leader does).
    """

    def __init__(self, node_id: int, adorned: AdornedAtom, ancestor_id: int) -> None:
        super().__init__(node_id)
        self.adorned = adorned
        self.shape = _RowShape(adorned)
        self.ancestor_id = ancestor_id
        self.rows: set[tuple] = set()
        #: ``rows`` grouped by "d" binding (kept only when there are "d"
        #: positions; otherwise every row answers the nullary binding).
        self.rows_by_binding: dict[tuple, list[tuple]] = {}

    def on_relation_request(self, message: RelationRequest, network: "Scheduler") -> None:
        stream = self.consumers[message.sender]
        stream.last_seq_received = max(stream.last_seq_received, 0)
        feeder = self.feeders[self.ancestor_id]
        if feeder.last_seq_sent < 0:
            feeder.next_seq()
            network.send(
                RelationRequest(self.node_id, self.ancestor_id, self.adorned.adornment)
            )
        if stream.wants_all:
            self.send_rows(stream, self.rows, network)

    def on_tuple_request(self, message: TupleRequest, network: "Scheduler") -> None:
        stream = self.consumers[message.sender]
        stream.last_seq_received = max(stream.last_seq_received, message.seq)
        self.serve_binding(stream, message.binding, network)

    def serve_binding(self, stream: ConsumerStream, binding: tuple, network: "Scheduler") -> None:
        """Replay matching rows and forward the binding to the ancestor."""
        if binding not in stream.requested:
            stream.requested.add(binding)
            if self.shape.d_in_row:
                rows = self.rows_by_binding.get(binding, ())
            else:
                rows = self.rows
            self.send_rows(stream, rows, network)
        self.send_tuple_request(self.ancestor_id, binding, network)

    def on_tuple_set(self, message: TupleSet, network: "Scheduler") -> None:
        """Relay a whole set: dedup once, then filter per consumer stream."""
        fresh = message.rows - self.rows
        if not fresh:
            return
        self.rows |= fresh
        self.tuples_stored += len(fresh)
        buckets = self.shape.buckets(fresh)
        if buckets is not None:
            by_binding = self.rows_by_binding
            for binding, rows in buckets.items():
                stored = by_binding.get(binding)
                if stored is None:
                    by_binding[binding] = rows  # a fresh list; _fan_out only reads it
                else:
                    stored.extend(rows)
        self._fan_out(fresh, buckets, network)


class EdbLeafProcess(NodeProcess):
    """An EDB subgoal leaf: serves requests straight from the database.

    A relation request with no "d" positions triggers one (filtered) scan; a
    tuple request triggers an indexed retrieval on the "c"+"d" positions —
    "a class 'd' argument functions as a semi-join operand".  A shape
    graph's parameter constants are bound here, once, from ``bindings``.
    """

    def __init__(
        self,
        node_id: int,
        adorned: AdornedAtom,
        database: Database,
        bindings: tuple = (),
    ) -> None:
        super().__init__(node_id)
        self.adorned = adorned
        self.shape = _RowShape(adorned)
        self.database = database
        atom = adorned.atom
        self.constant_filter: dict[int, object] = {
            i: bound_value(term.value, bindings)
            for i, term in enumerate(atom.args)
            if isinstance(term, Constant)
        }
        # Positions sharing a repeated variable must hold equal values.
        groups: dict[Variable, list[int]] = {}
        for i, term in enumerate(atom.args):
            if isinstance(term, Variable):
                groups.setdefault(term, []).append(i)
        self.equal_groups = [tuple(v) for v in groups.values() if len(v) > 1]
        self._relation_size: Optional[int] = None  # lazy; EDB is fixed per run
        # Serve plan: most leaves filter nothing and project nothing (no
        # constants, no repeated variables, no "e" positions) — stored rows
        # can then be served as-is, whole batches at a time.
        self._no_filter = not self.constant_filter and not self.equal_groups
        # Stored row -> the "d" binding a consumer would have requested it by.
        self._d_binding = _tuple_getter(self.shape.d_positions)
        self._identity_projection = self.shape.row_positions == tuple(range(len(atom.args)))

    # ------------------------------------------------------------------
    def _matches(self, row: tuple) -> bool:
        for pos, value in self.constant_filter.items():
            if row[pos] != value:
                return False
        for group in self.equal_groups:
            first = row[group[0]]
            if any(row[p] != first for p in group[1:]):
                return False
        return True

    def _emit(self, stream: ConsumerStream, rows: Iterable[tuple], network: "Scheduler") -> None:
        # One whole serve becomes one TupleSet (when >1 fresh row): answers
        # are sets, and determinism lives at the result-collection boundary
        # (the driver's answer set, the CLI's sorted print).
        if not self._no_filter:
            rows = [row for row in rows if self._matches(row)]
        if not self._identity_projection:
            rows = ColumnBatch(rows).project(self.shape.row_positions)
        self.send_rows(stream, rows, network)

    # ------------------------------------------------------------------
    def on_relation_request(self, message: RelationRequest, network: "Scheduler") -> None:
        stream = self.consumers[message.sender]
        stream.last_seq_received = max(stream.last_seq_received, 0)
        if not self.shape.d_positions:
            if self.constant_filter:
                rows = self.database.lookup(self.adorned.predicate, self.constant_filter)
            else:
                rows = self.database.scan(self.adorned.predicate).rows
            self._emit(stream, rows, network)
        # maybe_send_ends fires from on_idle_check (no feeders: caught up).

    def on_tuple_request(self, message: TupleRequest, network: "Scheduler") -> None:
        stream = self.consumers[message.sender]
        stream.last_seq_received = max(stream.last_seq_received, message.seq)
        self.serve_binding(stream, message.binding, network)

    def inject_delta(self, rows: Iterable[tuple], network: "Scheduler") -> None:
        """Feed newly committed database rows into every open stream.

        The delta-propagation entry point
        (:meth:`~repro.network.engine.MessagePassingEngine.run_delta`): a
        warm network's EDB leaves are the only places base rows ever
        entered the computation, so re-serving exactly the streams that
        would have received each row had it been present originally —
        full-relation streams get every matching row, "d" streams the
        rows matching a binding they already requested — restarts the
        monotone fixpoint from the delta alone.  Per-stream ``sent_rows``
        dedup keeps re-injection idempotent; bindings requested *after*
        the injection are served straight from the (already grown)
        database as usual.
        """
        self._relation_size = None  # the cached scan-vs-lookup pivot moved
        matching = rows
        if not self._no_filter:
            matching = [row for row in rows if self._matches(row)]
        if not matching:
            return
        if not self.shape.d_positions:
            for stream in self.consumers.values():
                if stream.last_seq_received >= 0:
                    self._emit(stream, matching, network)
            return
        binding_of = self._d_binding
        for stream in self.consumers.values():
            if not stream.requested:
                continue
            asked = [row for row in matching if binding_of(row) in stream.requested]
            if asked:
                self._emit(stream, asked, network)

    def _lookup_binding(self, binding: tuple) -> Iterable[tuple]:
        """Indexed retrieval for one "d" binding (plus the "c" constants)."""
        bound = dict(self.constant_filter)
        bound.update(zip(self.shape.d_positions, binding))
        return self.database.lookup(self.adorned.predicate, bound)

    def serve_binding(self, stream: ConsumerStream, binding: tuple, network: "Scheduler") -> None:
        """Indexed retrieval for one "d" binding.

        The binding is remembered on the stream so a later
        :meth:`inject_delta` can re-serve it when new matching rows are
        committed — the leaf-side half of the semi-naive contract.
        """
        stream.requested.add(binding)
        self._emit(stream, self._lookup_binding(binding), network)

    def on_packaged_request(self, message: PackagedTupleRequest, network: "Scheduler") -> None:
        """Serve a package; large packages use one scan (footnote 2).

        "If an EDB relation r(X, Y) has no index on its second argument, then
        tuple requests r(X, a), r(X, b), ..., presented separately require
        the whole r relation to be scanned for each one.  If packaged, the
        retrieval can be done in one scan."  Here: when the package holds
        several bindings, one scan filtered against the binding set replaces
        one retrieval per binding.
        """
        stream = self.consumers[message.sender]
        stream.last_seq_received = max(stream.last_seq_received, message.seq)
        stream.requested.update(message.bindings)
        if self._relation_size is None:
            self._relation_size = len(self.database.relation(self.adorned.predicate))
        if (
            len(message.bindings) <= 1
            or not self.shape.d_positions
            # Cost choice: one scan beats k indexed lookups only when the
            # package is large relative to the relation; against a big EDB a
            # small package (e.g. a transport batch coalesced by the pooled
            # runtime) is served by its indexes.
            or 4 * len(message.bindings) < self._relation_size
        ):
            gathered: list[tuple] = []
            for binding in message.bindings:
                gathered.extend(self._lookup_binding(binding))
            self._emit(stream, gathered, network)
            return
        wanted = set(message.bindings)
        relation = self.database.scan(self.adorned.predicate)
        d_pos = self.shape.d_positions
        if len(d_pos) == 1:
            p = d_pos[0]
            wanted_values = {binding[0] for binding in wanted}
            matching = [row for row in relation.rows if row[p] in wanted_values]
        else:
            d_get = operator.itemgetter(*d_pos)
            matching = [row for row in relation.rows if d_get(row) in wanted]
        self._emit(stream, matching, network)


class _Stage:
    """One stage of a rule node's incremental multiway join pipeline.

    Stage ``j`` (1-based) corresponds to the ``j``-th subgoal in SIP order.
    A received row's *sub-environment* holds the subgoal's distinct
    variables in row order — the row itself unless a variable repeats.
    ``env_vars`` is the cumulative variable schema after joining this stage;
    ``envs`` the set of environments reached; indexes keyed by the values of
    the variables shared with the *next* stage's subgoal are kept on both
    sides so new envs and new tuples can each find their join partners.
    """

    __slots__ = (
        "subgoal_index",
        "adorned",
        "shape",
        "row_vars",  # the variable at each row position (repeats kept)
        "env_vars",
        "envs",
        "rows",
        "shared_with_prev",
        "prev_key_positions",
        "row_key_positions",
        "env_index",
        "row_index",
        # Kernel plan: compiled getters and gathers, fixed per node.
        "row_perm",  # "id": the row is its sub-environment; None: repeats
        "env_is_row",  # every environment reached here is its sub-environment
        "prev_key_get",
        "suffix_positions",  # sub-environment positions of the merge suffix
        "suffix_get",  # sub-environment -> the merge suffix (the new variables)
        "d_env_positions",  # previous-env positions of the tuple-request binding
        "d_get",  # previous env -> the tuple-request binding
    )

    def __init__(self) -> None:
        self.envs: set[tuple] = set()
        self.rows: set[tuple] = set()
        self.env_index: dict[tuple, list[tuple]] = {}
        self.row_index: dict[tuple, list[tuple]] = {}


class RuleNodeProcess(NodeProcess):
    """A rule node: stores subgoal temporaries and joins incrementally.

    The evaluation follows the SIP order ``o_1 .. o_k``: environments for the
    prefix through ``o_j`` are materialized; a new environment at stage ``j``
    issues tuple requests for the "d" arguments of ``o_{j+1}`` and joins with
    the tuples already received for it; a new tuple at stage ``j+1`` joins
    with the stage-``j`` environments.  "Since p is recursive, all steps are
    interleaved" (Example 2.1) — the interleaving falls out of the message
    loop.
    """

    def __init__(
        self,
        node_id: int,
        rule: Rule,
        head: AdornedAtom,
        parent_goal: AdornedAtom,
        sip_order: Sequence[int],
        adorned_body: Sequence[AdornedAtom],
        child_ids: Sequence[int],
        bindings: tuple = (),
    ) -> None:
        super().__init__(node_id)
        self.rule = rule
        self.head = head
        self.parent_shape = _RowShape(parent_goal)
        self.sip_order = tuple(sip_order)
        self.adorned_body = tuple(adorned_body)
        self.child_ids = tuple(child_ids)  # aligned with rule.body positions
        # child id -> stage numbers (1-based); coalesced graphs may serve two
        # subgoals of one rule from a single shared goal node.
        self.child_stage: dict[int, list[int]] = {}
        self.sent_rows: set[tuple] = set()
        self.request_started = False
        # Accounting (PR 8 split): probes and inserts used to share one
        # ``join_lookups`` counter; they are different operations with
        # different costs, so they are counted apart.  ``join_lookups``
        # remains as a read-only alias for the probe count.
        self.probe_lookups = 0  # statistic: index probes performed
        self.index_inserts = 0  # statistic: index insertions performed
        # Per-kernel batch statistics: rows entering the stage kernels,
        # fresh environments they produced, and distinct join keys probed.
        self.batch_rows_in = 0
        self.batch_rows_out = 0
        self.batch_distinct_keys = 0
        self.envs_materialized = 0
        self._stage0_envs: set[tuple] = set()
        self._stage0_index: dict[tuple, list[tuple]] = {}
        # Provenance: emitted head row -> the final environment that first
        # produced it; derivation_children rebuilds the child rows from it.
        self._head_env: dict[tuple, tuple] = {}

        # ---- precompute stage plans -------------------------------------
        # Stage-0 variables in head position order, like every row: a first
        # subgoal that repeats the head's bound variables in the same order
        # then has env_is_row.
        self.stage0_vars: tuple[Variable, ...] = tuple(
            dict.fromkeys(
                t
                for i in head.bound_positions
                for t in [rule.head.args[i]]
                if isinstance(t, Variable)
            )
        )
        self.stages: list[_Stage] = []
        prev_vars: tuple[Variable, ...] = self.stage0_vars
        for stage_number, subgoal_index in enumerate(self.sip_order, start=1):
            stage = _Stage()
            stage.subgoal_index = subgoal_index
            stage.adorned = self.adorned_body[subgoal_index]
            stage.shape = _RowShape(stage.adorned)
            atom = stage.adorned.atom
            # Row positions are "d"/"f", so every term there is a variable
            # (AdornedAtom holds constants at "c" positions only).
            stage.row_vars = tuple(atom.args[p] for p in stage.shape.row_positions)
            subenv_vars = tuple(dict.fromkeys(stage.row_vars))
            stage.row_perm = "id" if len(subenv_vars) == len(stage.row_vars) else None
            shared = tuple(v for v in prev_vars if v in subenv_vars)
            stage.shared_with_prev = shared
            prev_pos = {v: i for i, v in enumerate(prev_vars)}
            sub_pos = {v: i for i, v in enumerate(subenv_vars)}
            stage.prev_key_positions = tuple(prev_pos[v] for v in shared)
            stage.row_key_positions = tuple(sub_pos[v] for v in shared)
            new_vars = tuple(v for v in subenv_vars if v not in prev_pos)
            # The cumulative schema keeps earlier variables as an identity
            # prefix, so a merge is prev_env plus a gathered suffix of the
            # sub-environment's new variables.  When that schema *is* the
            # sub-environment's, the join key is the whole previous
            # environment and every merge rebuilds the sub-environment:
            # the kernels keep the sub-environment itself.
            stage.env_vars = prev_vars + new_vars
            stage.env_is_row = stage.env_vars == subenv_vars
            stage.suffix_positions = tuple(sub_pos[v] for v in new_vars)
            stage.suffix_get = _tuple_getter(stage.suffix_positions, len(subenv_vars))
            stage.prev_key_get = _key_getter(stage.prev_key_positions)
            for pos in stage.shape.d_positions:
                if atom.args[pos] not in prev_pos:
                    raise AssertionError(
                        f"'d' variable {atom.args[pos]} of {atom} not bound "
                        f"by stage {stage_number - 1}"
                    )
            stage.d_env_positions = tuple(
                prev_pos[atom.args[pos]] for pos in stage.shape.d_positions
            )
            stage.d_get = _tuple_getter(stage.d_env_positions, len(prev_vars))
            self.stages.append(stage)
            prev_vars = stage.env_vars
            self.child_stage.setdefault(self.child_ids[subgoal_index], []).append(
                stage_number
            )

        # Head-output plan: value source per parent row position (a head
        # constant there comes from the rule, not from the environment; a
        # shape graph's parameter is bound to its value here).
        final_pos = {v: i for i, v in enumerate(prev_vars)}
        out_plan: list[tuple[str, object]] = []
        for pos in self.parent_shape.row_positions:
            term = rule.head.args[pos]
            if isinstance(term, Constant):
                out_plan.append(("const", bound_value(term.value, bindings)))
            else:
                out_plan.append(("env", final_pos[term]))
        self.head_out_plan = tuple(out_plan)
        # Compiled head projection for the emit kernel (only when every
        # output position reads from the environment; constant head
        # arguments keep the interpreted plan).
        if all(kind == "env" for kind, _ in out_plan):
            self._head_positions: Optional[tuple[int, ...]] = tuple(
                i for _, i in out_plan
            )
        else:
            self._head_positions = None

        # Head-request plan: parent "d" positions -> constraints on stage0 env.
        self.stage0_pos = {v: i for i, v in enumerate(self.stage0_vars)}
        req_plan: list[tuple[str, object]] = []
        for pos in self.parent_shape.d_positions:
            term = rule.head.args[pos]
            if isinstance(term, Constant):
                req_plan.append(("const", bound_value(term.value, bindings)))
            else:
                req_plan.append(("var", self.stage0_pos[term]))
        self.head_request_plan = tuple(req_plan)

    # ------------------------------------------------------------------
    # Producer side: requests from the parent goal node
    # ------------------------------------------------------------------
    def on_relation_request(self, message: RelationRequest, network: "Scheduler") -> None:
        stream = self.consumers[message.sender]
        stream.last_seq_received = max(stream.last_seq_received, 0)
        if not self.request_started:
            self.request_started = True
            opened: set[int] = set()
            for position, child_id in enumerate(self.child_ids):
                adorned = self.adorned_body[position]
                # A partitioned child opens one stream per replica; each
                # replica then serves the binding partition routed to it.
                for target in self.replica_route.get(child_id, (child_id,)):
                    if target in opened:
                        continue  # shared node serving several subgoals: one stream
                    opened.add(target)
                    feeder = self.feeders[target]
                    feeder.next_seq()
                    network.send(RelationRequest(self.node_id, target, adorned.adornment))
        if not self.parent_shape.d_positions:
            self._add_stage0_env((), network)

    def on_tuple_request(self, message: TupleRequest, network: "Scheduler") -> None:
        stream = self.consumers[message.sender]
        stream.last_seq_received = max(stream.last_seq_received, message.seq)
        self.serve_binding(stream, message.binding, network)

    def serve_binding(self, stream: ConsumerStream, binding: tuple, network: "Scheduler") -> None:
        """One head binding becomes one stage-0 environment."""
        env = self._stage0_env_from_binding(binding)
        if env is not None:
            self._add_stage0_env(env, network)

    def _stage0_env_from_binding(self, binding: tuple) -> Optional[tuple]:
        """Turn a head tuple request into a stage-0 environment.

        Returns None when the binding clashes with a head constant or with a
        repeated head variable (the specialized rule simply contributes
        nothing for that request).
        """
        values: list[Optional[object]] = [None] * len(self.stage0_vars)
        filled = [False] * len(self.stage0_vars)
        for (kind, payload), value in zip(self.head_request_plan, binding):
            if kind == "const":
                if payload != value:
                    return None
            else:
                index = payload  # type: ignore[assignment]
                if filled[index]:
                    if values[index] != value:
                        return None
                else:
                    values[index] = value
                    filled[index] = True
        if not all(filled):
            # A stage-0 variable not covered by the request: impossible, since
            # stage0_vars come exactly from the head's bound positions.
            raise AssertionError("head request did not bind all stage-0 variables")
        return tuple(values)

    # ------------------------------------------------------------------
    # Consumer side: tuples from subgoal children
    # ------------------------------------------------------------------
    @property
    def join_lookups(self) -> int:
        """Back-compat alias for :attr:`probe_lookups` (pre-PR-8 name)."""
        return self.probe_lookups

    def on_tuple_set(self, message: TupleSet, network: "Scheduler") -> None:
        """Bulk stage kernel entry: join a whole set of child rows at once."""
        for stage_number in self.child_stage[message.sender]:
            self._tuples_into_stage(stage_number, message.rows, network)

    def _tuples_into_stage(
        self, stage_number: int, rows: frozenset, network: "Scheduler"
    ) -> None:
        """Stage kernel: whole-batch dedup, index, probe.

        A row is its own sub-environment unless a variable repeats in it
        (then the checked per-row conversion runs).  Fresh rows are found
        with one set difference, the batch hash index is built once, and
        the previous stage is probed once per distinct join key.  A merge
        is ``prev_env + suffix`` — the cumulative schema keeps earlier
        variables as an identity prefix — with the suffixes gathered in one
        column pass; at an ``env_is_row`` stage the merge is the
        sub-environment itself and nothing is built.
        """
        stage = self.stages[stage_number - 1]
        self.batch_rows_in += len(rows)
        batch = rows
        if stage.row_perm != "id":
            batch = set()
            for row in rows:
                env = self._row_to_subenv(stage, row)
                if env is not None:
                    batch.add(env)
        fresh = batch - stage.rows
        if not fresh:
            return
        stage.rows |= fresh
        self.tuples_stored += len(fresh)
        self.index_inserts += len(fresh)
        fresh_list = list(fresh)
        cb = ColumnBatch(fresh_list)
        if stage_number == 1:
            prev_index = self._stage0_index
        else:
            prev_index = self.stages[stage_number - 2].env_index
        row_index = stage.row_index
        merged: list[tuple]
        if not stage.row_key_positions:
            # Nullary join key (no shared variables yet): one bucket, one
            # probe, zero per-row dict traffic.
            bucket = row_index.get(())
            if bucket is None:
                row_index[()] = list(fresh_list)
            else:
                bucket.extend(fresh_list)
            self.batch_distinct_keys += 1
            self.probe_lookups += 1
            prev_envs = prev_index.get(())
            if not prev_envs:
                return
            if stage.env_is_row:
                merged = fresh_list  # the previous environment is ()
            else:
                suffixes = cb.project(stage.suffix_positions)
                merged = [
                    prev_env + suffix
                    for prev_env in prev_envs
                    for suffix in suffixes
                ]
        else:
            keys = cb.keys(stage.row_key_positions)
            for env, key in zip(fresh_list, keys):
                bucket = row_index.get(key)
                if bucket is None:
                    row_index[key] = [env]
                else:
                    bucket.append(env)
            if stage.env_is_row:
                # The key is the whole previous environment: a hit means
                # exactly one partner, and the merge equals ``env``.
                merged = [env for env, key in zip(fresh_list, keys) if key in prev_index]
            else:
                prev_get = prev_index.get
                suffixes = cb.project(stage.suffix_positions)
                merged = [
                    prev_env + suffix
                    for key, suffix in zip(keys, suffixes)
                    for prev_env in prev_get(key, ())
                ]
            distinct = len(set(keys))
            self.batch_distinct_keys += distinct
            self.probe_lookups += distinct
        if merged:
            self._add_envs(stage_number, merged, network)

    def _row_to_subenv(self, stage: _Stage, row: tuple) -> Optional[tuple]:
        """A row with a repeated variable -> its sub-environment, or None
        when the repeated positions disagree."""
        values: dict[Variable, object] = {}
        for var, value in zip(stage.row_vars, row):
            if values.setdefault(var, value) != value:
                return None
        return tuple(values.values())

    # ------------------------------------------------------------------
    # Stage-0 environments (head bindings)
    # ------------------------------------------------------------------
    def _add_stage0_env(self, env: tuple, network: "Scheduler") -> None:
        if env in self._stage0_envs:
            return
        self._stage0_envs.add(env)
        self.envs_materialized += 1
        if not self.stages:
            # Bodiless rule: the head itself is the (single) answer.
            self._emit_heads((env,), network)
            return
        first = self.stages[0]
        key = first.prev_key_get(env)
        self._stage0_index.setdefault(key, []).append(env)
        self.index_inserts += 1
        if first.d_env_positions:
            self.send_tuple_request(
                self.child_ids[first.subgoal_index], first.d_get(env), network
            )
        self.probe_lookups += 1
        row_envs = first.row_index.get(key)
        if row_envs:
            if not first.env_is_row:
                suffix_get = first.suffix_get
                row_envs = [env + suffix_get(row_env) for row_env in row_envs]
            self._add_envs(1, row_envs, network)

    # ------------------------------------------------------------------
    # Env propagation
    # ------------------------------------------------------------------
    def _add_envs(
        self, stage_number: int, merged: list[tuple], network: "Scheduler"
    ) -> None:
        """Materialize a batch of environments at one stage.

        Fresh environments are found with one set difference and indexed;
        their tuple-request bindings are gathered with the stage's compiled
        plan and deduplicated batch-wide before emission; the join against
        the *next* stage's already-received tuples probes once per distinct
        key, and the results recurse as one batch again.
        """
        stage = self.stages[stage_number - 1]
        batch = set(merged)
        fresh = batch - stage.envs
        if not fresh:
            return
        stage.envs |= fresh
        self.envs_materialized += len(fresh)
        self.batch_rows_out += len(fresh)
        if stage_number == len(self.stages):
            self._emit_heads(fresh, network)
            return
        next_stage = self.stages[stage_number]
        fresh_list = list(fresh)
        cb = ColumnBatch(fresh_list)
        if next_stage.d_env_positions:
            self.send_tuple_requests_batch(
                self.child_ids[next_stage.subgoal_index],
                set(cb.project(next_stage.d_env_positions)),
                network,
            )
        env_index = stage.env_index
        row_index = next_stage.row_index
        self.index_inserts += len(fresh)
        next_merged: list[tuple] = []
        if not next_stage.prev_key_positions:
            bucket = env_index.get(())
            if bucket is None:
                env_index[()] = list(fresh_list)
            else:
                bucket.extend(fresh_list)
            self.batch_distinct_keys += 1
            self.probe_lookups += 1
            rows = row_index.get(())
            if rows:
                if next_stage.env_is_row:
                    next_merged = rows  # the one fresh environment is ()
                else:
                    suffix_get = next_stage.suffix_get
                    suffixes = [suffix_get(row_env) for row_env in rows]
                    next_merged = [
                        env + suffix for env in fresh_list for suffix in suffixes
                    ]
        else:
            keys = cb.keys(next_stage.prev_key_positions)
            for env, key in zip(fresh_list, keys):
                bucket = env_index.get(key)
                if bucket is None:
                    env_index[key] = [env]
                else:
                    bucket.append(env)
            row_get = row_index.get
            if next_stage.env_is_row:
                # The key is the whole environment: every sub-environment
                # under it is already the merged environment.
                for key in keys:
                    rows = row_get(key)
                    if rows:
                        next_merged.extend(rows)
            else:
                # Suffixes gathered once per probed key, not once per output pair.
                suffix_get = next_stage.suffix_get
                suffix_memo: dict = {}
                append = next_merged.append
                for env, key in zip(fresh_list, keys):
                    rows = row_get(key)
                    if rows:
                        suffixes = suffix_memo.get(key)
                        if suffixes is None:
                            suffix_memo[key] = suffixes = [
                                suffix_get(row_env) for row_env in rows
                            ]
                        for suffix in suffixes:
                            append(env + suffix)
            distinct = len(set(keys))
            self.batch_distinct_keys += distinct
            self.probe_lookups += distinct
        if next_merged:
            self._add_envs(stage_number + 1, next_merged, network)

    # ------------------------------------------------------------------
    def _emit_heads(self, envs, network: "Scheduler") -> None:
        """Project final environments to head rows and send the fresh ones.

        One column gather projects the batch and one set difference against
        the node's sent rows deduplicates it, so every consumer gets each
        head row exactly once — the whole batch as one :class:`TupleSet`.
        With provenance on, the first environment behind each head row is
        kept for :meth:`derivation_children`.
        """
        envs_list = envs if isinstance(envs, list) else list(envs)
        if not envs_list:
            return
        if self._head_positions is not None:
            rows = ColumnBatch(envs_list).project(self._head_positions)
        elif any(kind == "env" for kind, _ in self.head_out_plan):
            # Constant head slots (a bound head argument substituted at graph
            # build): splice constant streams between the gathered columns —
            # zip over itertools.repeat keeps the whole build at C level.
            streams = [
                itertools.repeat(payload)
                if kind == "const"
                else map(operator.itemgetter(payload), envs_list)
                for kind, payload in self.head_out_plan
            ]
            rows = list(zip(*streams))
        else:
            # Fully-constant head: a single row.
            rows = [tuple(payload for _, payload in self.head_out_plan)]
        if self.record_provenance:
            head_env = self._head_env
            for row, env in zip(rows, envs_list):
                head_env.setdefault(row, env)
        fresh = set(rows) - self.sent_rows
        if not fresh:
            return
        self.sent_rows |= fresh
        for stream in self.consumers.values():
            self._ship(stream.consumer_id, fresh, network)

    def derivation_children(
        self, head_row: tuple
    ) -> Optional[list[tuple[int, tuple]]]:
        """Provenance: the child rows behind a head row, in body order.

        Rebuilt from the recorded final environment alone.  The cumulative
        schema keeps each stage's environment as an identity prefix of the
        final one, and a child row holds only variables (repeats were
        checked on the way in), so every stage's child row is a projection
        of the final environment.  Returns ``None`` when no derivation was
        recorded (provenance off or foreign row); an empty list for
        bodiless rules.
        """
        env = self._head_env.get(head_row)
        if env is None:
            return None
        out: list[tuple[int, tuple]] = []
        for stage in self.stages:
            position = {v: i for i, v in enumerate(stage.env_vars)}
            row = tuple(env[position[var]] for var in stage.row_vars)
            out.append((stage.subgoal_index, row))
        out.sort(key=lambda pair: pair[0])
        return out


class DriverProcess(NodeProcess):
    """The environment: poses the query and collects the answer stream."""

    def __init__(self, root_id: int, adornment: tuple[str, ...]) -> None:
        super().__init__(DRIVER_ID)
        self.root_id = root_id
        self.adornment = adornment
        self.answers: set[tuple] = set()
        #: While a delta wave runs: the rows it has added to ``answers``
        #: (the engine installs a set before the wave and takes it after).
        self.fresh: Optional[set[tuple]] = None
        self.completed = False
        self.on_complete: Optional[Callable[[], None]] = None  # runtime hook
        self.on_answer: Optional[Callable[[tuple], None]] = None  # streaming hook

    def start(self, network: "Scheduler") -> None:
        """Send the opening relation request to the top-level goal node."""
        feeder = self.feeders[self.root_id]
        feeder.next_seq()
        network.send(RelationRequest(DRIVER_ID, self.root_id, self.adornment))

    def on_relation_request(self, message: RelationRequest, network: "Scheduler") -> None:  # pragma: no cover
        raise AssertionError("the driver receives no requests")

    def on_tuple_request(self, message: TupleRequest, network: "Scheduler") -> None:  # pragma: no cover
        raise AssertionError("the driver receives no requests")

    def on_tuple_set(self, message: TupleSet, network: "Scheduler") -> None:
        """Collect a packaged answer set (streaming hook still fires per row)."""
        if self.on_answer is None and self.fresh is None:
            self.answers |= message.rows
            return
        for row in message.rows:
            if row not in self.answers:
                self.answers.add(row)
                if self.fresh is not None:
                    self.fresh.add(row)
                if self.on_answer is not None:
                    self.on_answer(row)

    def on_end(self, message: EndMessage, network: "Scheduler") -> None:
        super().on_end(message, network)
        self.completed = True
        if self.on_complete is not None:
            self.on_complete()

    def maybe_send_ends(self, network: "Scheduler") -> None:
        """The driver has no customers."""
