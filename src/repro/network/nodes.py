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

No process reads another's state; all interaction goes through messages
sent on a :class:`~repro.network.shard_loop.Router`, the fabric of the one
delivery loop.
"""

from __future__ import annotations

import itertools
import operator
import zlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Collection,
    Iterable,
    Optional,
    Sequence,
)

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
    from .shard_loop import Router

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
        # until the inbox drains and flush them as one message each.
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
    def empty_queues(self, network: "Router") -> bool:
        """Fig 2's ``empty-queues()``: inbox empty and all feeders ended.

        Only *feeder* streams (producers outside this node's strong
        component) are required to have reported end; in-component producers
        cannot — detecting their collective completion is the protocol's job.
        """
        if network.pending_for(self.node_id) > 0:
            return False
        if self._request_buffer:
            return False  # unflushed requests are pending work
        return all(f.caught_up for f in self.feeders.values() if f.is_feeder)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle(self, message: Message, network: "Router") -> None:
        """Dispatch one delivered message through :data:`HANDLERS`."""
        try:
            handler, work = HANDLERS[type(message)]
        except KeyError:
            raise TypeError(f"unknown message {message}") from None
        if not work:
            assert self.protocol is not None, f"protocol message at non-SC node {self.node_id}"
        elif self.protocol is not None:
            self.protocol.on_work()
            self.work_since_conclusion = True
        handler(self, message, network)

    def on_idle_check(self, network: "Router") -> None:
        """Post-delivery hook: emit ends (acyclic) or run the protocol.

        A strong-component member answers a held end request here, after
        the flush, so unflushed requests can never strand it.
        """
        if self._request_buffer and network.pending_for(self.node_id) == 0:
            # Requests accumulated over the burst go out together once the
            # inbox drains ("package a set of related tuple requests").
            self.flush_requests(network)
        if self.protocol is not None:
            self.protocol.release_held(self, network)
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

    def on_component_conclude(self, network: "Router") -> None:
        """Conclusion reached (locally or via ComponentDone): emit owed ends."""
        self.send_owed_ends(network)
        self.work_since_conclusion = False
        self.nudge_sent = False

    # ------------------------------------------------------------------
    # Requests: the one sender and the shared stream bookkeeping
    # ------------------------------------------------------------------
    def send_requests(self, producer_id: int, bindings: AbstractSet[tuple]) -> None:
        """Request "d" bindings from a producer, each at most once per stream.

        One set difference against the feeder stream drops what was asked
        before.  A producer with registered replicas is resolved, binding
        by binding, to the replica owning the binding's hash partition.
        The fresh bindings are buffered and flushed, one message per
        producer, once the inbox drains (footnote 2's packaging).
        """
        replicas = self.replica_route.get(producer_id)
        if replicas is None:
            routed: Iterable = ((producer_id, bindings),)
        else:
            routed = [(replicas[route_hash(b) % len(replicas)], {b}) for b in bindings]
        for target, wanted in routed:
            feeder = self.feeders[target]
            fresh = wanted - feeder.sent_bindings
            if fresh:
                feeder.sent_bindings |= fresh
                self._request_buffer.setdefault(target, []).extend(fresh)

    def flush_requests(self, network: "Router") -> None:
        """Send each producer's buffered bindings as one message: a
        :class:`PackagedTupleRequest`, or a :class:`TupleRequest` for a lone
        binding (a package of one buys nothing)."""
        buffered, self._request_buffer = self._request_buffer, {}
        for producer_id, bindings in sorted(buffered.items()):
            feeder = self.feeders[producer_id]
            feeder.last_seq_sent += len(bindings)  # one number per binding
            seq = feeder.last_seq_sent
            if len(bindings) > 1:
                network.send(PackagedTupleRequest(self.node_id, producer_id, tuple(bindings), seq))
            else:
                network.send(TupleRequest(self.node_id, producer_id, bindings[0], seq))

    def request_stream(self, consumer_id: int, seq: int) -> ConsumerStream:
        """Record a request (a relation request is sequence 0) on its stream."""
        stream = self.consumers[consumer_id]
        if seq > stream.last_seq_received:
            stream.last_seq_received = seq
        return stream

    def serve_package(
        self, stream: ConsumerStream, bindings: Sequence[tuple], network: "Router"
    ) -> None:
        """Serve "d" bindings in order; a lone tuple request is a package of one."""
        for binding in bindings:
            self.serve_binding(stream, binding, network)

    def serve_binding(self, stream: ConsumerStream, binding: tuple, network: "Router") -> None:
        """Node-specific handling of one "d" binding (see subclasses)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Set-at-a-time answer emission
    # ------------------------------------------------------------------
    def _ship(self, consumer_id: int, fresh, network: "Router") -> None:
        """Emit distinct rows the stream has not carried yet: one
        :class:`TupleSet` in ``fresh``'s order, or one :class:`TupleMessage`
        for a lone row (a one-row set buys nothing).  ``tuple`` copies a
        list or a store's bucket and returns a received ``rows`` as it is."""
        if len(fresh) > 1:
            network.send(TupleSet(self.node_id, consumer_id, tuple(fresh)))
        else:
            for row in fresh:
                network.send(TupleMessage(self.node_id, consumer_id, row))

    def _fan_out(self, fresh: list, bindings: list, network: "Router") -> None:
        """Send every consumer stream the fresh rows it asked for.

        ``bindings`` holds each fresh row's "d" binding (``()`` when the
        producer has no "d" positions).  A ``wants_all`` stream gets every
        row; any other stream the rows whose binding it requested.  The
        node's store admitted each row once, so no stream gets it twice.
        """
        for stream in self.consumers.values():
            if stream.wants_all:
                matching = fresh
            else:
                requested = stream.requested
                matching = [row for row, binding in zip(fresh, bindings) if binding in requested]
            if matching:
                self._ship(stream.consumer_id, matching, network)

    # ------------------------------------------------------------------
    # End emission
    # ------------------------------------------------------------------
    def _owes_external_end(self) -> bool:
        return any(
            stream.owes_end
            for consumer_id, stream in self.consumers.items()
            if consumer_id not in self.sc_members
        )

    def maybe_send_ends(self, network: "Router") -> None:
        """Acyclic-node end rule: once every feeder stream is caught up,
        everything requested so far is complete (FIFO channels guarantee all
        child tuples were delivered before their ends)."""
        if self._request_buffer:
            return  # unflushed requests: not done yet
        if not all(f.caught_up for f in self.feeders.values()):
            return
        self.send_owed_ends(network)

    def send_owed_ends(self, network: "Router") -> None:
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
    def on_relation_request(self, stream: ConsumerStream, network: "Router") -> None:
        """Open a consumer stream and begin computing (node-specific)."""
        raise NotImplementedError

    def on_tuple_set(self, message: TupleSet, network: "Router") -> None:
        """Consume a set of answer rows from one producer.

        Semantically a :class:`TupleSet` *is* ``len(rows)`` tuple messages
        delivered back to back; every consuming node joins it as one batch.
        A delivered :class:`TupleMessage` arrives here as a one-row set.
        """
        raise NotImplementedError

    def on_end(self, message: EndMessage, network: "Router") -> None:
        """Default: record the feeder's progress."""
        stream = self.feeders[message.sender]
        stream.last_upto_ended = max(stream.last_upto_ended, message.upto)


def _nudged(node: NodeProcess, message: EndNudge, network: "Router") -> None:
    """A member owes an end: make sure the leader probes again."""
    assert node.protocol is not None and node.protocol.is_leader
    node.work_since_conclusion = True


#: Message type -> (handler, whether it is computation work).  Each request
#: passes :meth:`NodeProcess.request_stream` first, and a tuple request is
#: served as a package of one; a lone row is a one-row set.
HANDLERS: dict[type, tuple[Callable, bool]] = {
    RelationRequest: (
        lambda node, m, net: node.on_relation_request(node.request_stream(m.sender, 0), net),
        True,
    ),
    TupleRequest: (
        lambda node, m, net: node.serve_package(
            node.request_stream(m.sender, m.seq), (m.binding,), net
        ),
        True,
    ),
    PackagedTupleRequest: (
        lambda node, m, net: node.serve_package(
            node.request_stream(m.sender, m.seq), m.bindings, net
        ),
        True,
    ),
    TupleSet: (lambda node, m, net: node.on_tuple_set(m, net), True),
    TupleMessage: (
        lambda node, m, net: node.on_tuple_set(TupleSet(m.sender, m.receiver, (m.row,)), net),
        True,
    ),
    EndMessage: (lambda node, m, net: node.on_end(m, net), True),
    EndRequest: (lambda node, m, net: node.protocol.handle_end_request(m, node, net), False),
    EndNegative: (lambda node, m, net: node.protocol.handle_end_negative(m, node, net), False),
    EndConfirmed: (lambda node, m, net: node.protocol.handle_end_confirmed(m, node, net), False),
    ComponentDone: (lambda node, m, net: node.protocol.handle_component_done(m, node, net), False),
    EndNudge: (_nudged, False),
}


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


def _bind(terms: Sequence, values: tuple) -> Optional[tuple]:
    """Match ``values`` against ``terms`` (variables, or the values of
    constants): the distinct variables' values in first-occurrence order,
    or None when a constant or a repeated variable disagrees."""
    env: dict = {}
    for term, value in zip(terms, values):
        if isinstance(term, Variable):
            if env.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return tuple(env.values())


def _insert(
    index: dict, batch: Collection[tuple], positions: Sequence[int], tuple_keys: bool = False
) -> tuple[list[tuple], list]:
    """Add ``batch``, distinct rows, to a relation stored as key -> set of rows.

    The keyed index is the relation's only store, so a row is fresh
    exactly when its key's bucket does not hold it yet.  Returns the fresh
    rows and their keys, aligned, in the batch's order.  A key is the
    row's values at ``positions``: a bare value for a single position
    unless ``tuple_keys`` (a "d" binding is always a tuple).  With no
    positions every row sits in the one bucket under ``()`` and the fresh
    rows are one C-level filter.  A level whose key is the whole
    environment holds no buckets: :func:`_insert_keyed` stores it.
    """
    if not positions:
        fresh = list(itertools.filterfalse(index.get((), ()).__contains__, batch))
        if fresh:
            index.setdefault((), set()).update(fresh)
        return fresh, [()] * len(fresh)
    batch_columns = ColumnBatch(batch)
    rows = batch_columns.rows
    if tuple_keys:
        keys = batch_columns.project(positions)
    else:
        keys = batch_columns.keys(positions)
    fresh: list[tuple] = []
    fresh_keys: list = []
    get, add_row, add_key = index.get, fresh.append, fresh_keys.append
    for row, key in zip(rows, keys):
        bucket = get(key)
        if bucket is None:
            index[key] = {row}
        elif row in bucket:
            continue
        else:
            bucket.add(row)
        add_row(row)
        add_key(key)
    return fresh, fresh_keys


def _insert_keyed(
    index: dict, batch: Collection[tuple], positions: Sequence[int]
) -> tuple[list[tuple], list]:
    """Add ``batch`` to a level whose join key is the whole environment.

    Such a key names exactly one environment, so the level maps key ->
    environment with no bucket around it: an environment is fresh exactly
    when its key is absent, and a probe is one ``get``.  Returns the fresh
    environments and their keys, aligned, in the batch's iteration order.
    """
    batch_columns = ColumnBatch(batch)
    fresh: list[tuple] = []
    fresh_keys: list = []
    add_row, add_key = fresh.append, fresh_keys.append
    for row, key in zip(batch_columns.rows, batch_columns.keys(positions)):
        if key not in index:
            index[key] = row
            add_row(row)
            add_key(key)
    return fresh, fresh_keys


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
        #: The answer relation: "d" binding -> the answers carrying it.
        self.answer_index: dict[tuple, set[tuple]] = {}
        self.requests_propagated = False
        self.row_sources: dict[tuple, int] = {}  # provenance: row -> first sender
        # §3.1: "trivial goal nodes, with only one in-edge and one out-edge
        # are exempt" from storing their temporary relation — with a single
        # producer (which deduplicates its emissions) and a single consumer
        # (whose requests are exactly the ones forwarded), storing buys
        # nothing.  The engine sets this after wiring.
        self.trivial_relay = False

    # -- producer side -------------------------------------------------
    def on_relation_request(self, stream: ConsumerStream, network: "Router") -> None:
        if not self.requests_propagated:
            self.requests_propagated = True
            for child_id, feeder in self.feeders.items():
                feeder.next_seq()  # sequence 0 = the relation request
                network.send(
                    RelationRequest(self.node_id, child_id, self.adorned.adornment)
                )
        # No replay for a wants_all stream: _fan_out sent it every answer.

    def serve_binding(self, stream: ConsumerStream, binding: tuple, network: "Router") -> None:
        """Replay known matching answers (once: until the binding is asked
        for, none go to this stream); request the binding from every child
        (each child's stream drops a binding it already carried)."""
        if binding not in stream.requested:
            stream.requested.add(binding)
            self._ship(stream.consumer_id, self.answer_index.get(binding, ()), network)
        for child_id in self.feeders:
            self.send_requests(child_id, {binding})

    # -- consumer side ---------------------------------------------------
    def on_tuple_set(self, message: TupleSet, network: "Router") -> None:
        """Set-at-a-time union: store the fresh rows, fan them out.

        Freshness is decided in each row's binding bucket; that duplicate
        deletion is what lets loops terminate.
        """
        if self.trivial_relay:
            # One producer, one consumer: the producer already deduplicated
            # and every row answers a binding this consumer asked for.
            if self.record_provenance:
                for row in message.rows:
                    self.row_sources.setdefault(row, message.sender)
            (consumer_id,) = self.consumers
            self._ship(consumer_id, message.rows, network)
            return
        fresh, bindings = _insert(
            self.answer_index, message.rows, self.shape.d_in_row, tuple_keys=True
        )
        if not fresh:
            return
        self.tuples_stored += len(fresh)
        if self.record_provenance:
            self.row_sources.update(dict.fromkeys(fresh, message.sender))
        self._fan_out(fresh, bindings, network)


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
        #: The relayed relation: "d" binding -> the rows carrying it.  Left
        #: empty without "d" positions: no tuple request asks for a replay.
        self.row_index: dict[tuple, set[tuple]] = {}

    def on_relation_request(self, stream: ConsumerStream, network: "Router") -> None:
        feeder = self.feeders[self.ancestor_id]
        if feeder.last_seq_sent < 0:
            feeder.next_seq()
            network.send(
                RelationRequest(self.node_id, self.ancestor_id, self.adorned.adornment)
            )
        # No replay for a wants_all stream: _fan_out sent it every row.

    def serve_binding(self, stream: ConsumerStream, binding: tuple, network: "Router") -> None:
        """Replay matching rows and forward the binding to the ancestor."""
        if binding not in stream.requested:
            stream.requested.add(binding)
            self._ship(stream.consumer_id, self.row_index.get(binding, ()), network)
        self.send_requests(self.ancestor_id, {binding})

    def on_tuple_set(self, message: TupleSet, network: "Router") -> None:
        """Relay a whole set: store the fresh rows, fan them out.

        Without "d" positions every row goes to every consumer as it
        came: the ancestor sends each row once.
        """
        if not self.shape.d_positions:
            self.tuples_stored += len(message.rows)
            for consumer_id in self.consumers:
                self._ship(consumer_id, message.rows, network)
            return
        fresh, bindings = _insert(
            self.row_index, message.rows, self.shape.d_in_row, tuple_keys=True
        )
        if not fresh:
            return
        self.tuples_stored += len(fresh)
        self._fan_out(fresh, bindings, network)


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
        # Probe plan: the database index over the "c" and "d" positions, in
        # position order, keyed by their values gathered from
        # ``const_prefix + binding``.
        probed = (*self.constant_filter, *self.shape.d_positions)
        self._probe_positions = tuple(sorted(probed))
        self._const_prefix = tuple(self.constant_filter.values())
        self._probe_key = _tuple_getter(
            [probed.index(pos) for pos in self._probe_positions], len(probed)
        )
        #: Consumer id -> rows sent.  Only here can a duplicate enter a stream:
        #: a delta may re-offer a fact, and dropping "e" positions merges rows.
        self.sent_rows: dict[int, set[tuple]] = {}

    def add_consumer(self, consumer_id: int, wants_all: bool) -> ConsumerStream:
        self.sent_rows[consumer_id] = set()
        return super().add_consumer(consumer_id, wants_all)

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

    def _emit(self, stream: ConsumerStream, rows: Iterable[tuple], network: "Router") -> None:
        # One whole serve becomes one TupleSet (when >1 fresh row), in the
        # fresh set's order: determinism lives at the result-collection
        # boundary (the driver's answer set, the CLI's sorted print).  One
        # set difference drops what the stream already carried, and also
        # deduplicates within the serve (projections can collide).
        if not self._no_filter:
            rows = [row for row in rows if self._matches(row)]
        if not self._identity_projection:
            rows = ColumnBatch(rows).project(self.shape.row_positions)
        if not isinstance(rows, (set, frozenset)):
            rows = set(rows)
        sent = self.sent_rows[stream.consumer_id]
        fresh = rows - sent
        if fresh:
            sent |= fresh
            self._ship(stream.consumer_id, fresh, network)

    # ------------------------------------------------------------------
    def on_relation_request(self, stream: ConsumerStream, network: "Router") -> None:
        if not self.shape.d_positions:
            if self.constant_filter:
                rows = self.database.lookup(
                    self.adorned.predicate,
                    self._probe_positions,
                    self._probe_key(self._const_prefix),
                )
            else:
                rows = self.database.scan(self.adorned.predicate).rows
            self._emit(stream, rows, network)
        # maybe_send_ends fires from on_idle_check (no feeders: caught up).

    def inject_delta(self, rows: Iterable[tuple], network: "Router") -> None:
        """Feed newly committed database rows into every open stream.

        The delta-propagation entry point
        (:meth:`~repro.network.engine.MessagePassingEngine.run_delta`): a
        warm network's EDB leaves are the only places base rows ever
        entered the computation, so re-serving exactly the streams that
        would have received each row had it been present originally —
        full-relation streams get every matching row, "d" streams the
        rows matching a binding they already requested — restarts the
        monotone fixpoint from the delta alone.  The leaf's per-stream
        ``sent_rows`` dedup keeps re-injection idempotent: a re-offered
        committed fact sends nothing, so no node downstream needs a second
        filter of its own.  Bindings requested *after*
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

    def serve_package(
        self, stream: ConsumerStream, bindings: Sequence[tuple], network: "Router"
    ) -> None:
        """Indexed retrieval per binding; large packages use one scan (footnote 2).

        "If an EDB relation r(X, Y) has no index on its second argument, then
        tuple requests r(X, a), r(X, b), ..., presented separately require
        the whole r relation to be scanned for each one.  If packaged, the
        retrieval can be done in one scan."  Here: when the package holds
        several bindings, one scan filtered against the binding set replaces
        one retrieval per binding.  The bindings are remembered on the
        stream so a later :meth:`inject_delta` can re-serve them when new
        matching rows are committed — the leaf-side half of the semi-naive
        contract.
        """
        stream.requested.update(bindings)
        if self._relation_size is None:
            self._relation_size = len(self.database.relation(self.adorned.predicate))
        if (
            len(bindings) <= 1
            or not self.shape.d_positions
            # Cost choice: one scan beats k indexed lookups only when the
            # package is large relative to the relation; against a big EDB a
            # small package is served by its indexes.
            or 4 * len(bindings) < self._relation_size
        ):
            probe_key, prefix = self._probe_key, self._const_prefix
            gathered = self.database.lookup_many(
                self.adorned.predicate,
                self._probe_positions,
                [probe_key(prefix + binding) for binding in bindings],
            )
            self._emit(stream, gathered, network)
            return
        relation = self.database.scan(self.adorned.predicate)
        d_pos = self.shape.d_positions
        if len(d_pos) == 1:
            p = d_pos[0]
            wanted_values = {binding[0] for binding in bindings}
            matching = [row for row in relation.rows if row[p] in wanted_values]
        else:
            wanted = set(bindings)
            d_get = operator.itemgetter(*d_pos)
            matching = [row for row in relation.rows if d_get(row) in wanted]
        self._emit(stream, matching, network)


class _Stage:
    """One stage of a rule node's incremental multiway join pipeline.

    Stage ``j`` (1-based) corresponds to the ``j``-th subgoal in SIP order.
    A received row's *sub-environment* holds the subgoal's distinct
    variables in row order — the row itself unless a variable repeats.
    ``env_vars`` is the cumulative variable schema after joining this stage.
    ``row_index`` is the subgoal's temporary relation, stored once: join
    key (the values of ``shared_with_prev``) -> the set of sub-environments
    received under it.  The environments the join meets live in the rule
    node's ``env_indexes``, keyed the same way, so a fresh row and a fresh
    environment each find their partners with one probe per distinct key.
    When the key is the whole previous environment (``env_is_key``), that
    level maps each key to its one environment instead of to a set.  A
    stage whose rows no later probe reads (``keeps_rows`` False) joins
    each row on arrival and leaves ``row_index`` empty, except for rows
    that come before its previous level holds any environment.
    """

    __slots__ = (
        "subgoal_index",
        "adorned",
        "shape",
        "row_vars",  # the variable at each row position (repeats kept)
        "env_vars",
        "shared_with_prev",
        "prev_key_positions",
        "row_key_positions",
        "row_index",
        # Kernel plan: compiled getters and gathers, fixed per node.
        "row_perm",  # "id": the row is its sub-environment; None: repeats
        "env_is_row",  # every environment reached here is its sub-environment
        "env_is_key",  # the join key is the whole previous environment
        "suffix_positions",  # sub-environment positions of the merge suffix
        "suffix_get",  # sub-environment -> the merge suffix (the new variables)
        "d_env_positions",  # previous-env positions of the tuple-request binding
        "keeps_rows",  # a later environment may probe the received rows
    )

    def __init__(self) -> None:
        self.row_index: dict[object, set[tuple]] = {}


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
        self.request_started = False
        # Accounting: index probes and index insertions are different
        # operations with different costs, so they are counted apart.
        self.probe_lookups = 0  # statistic: index probes performed
        self.index_inserts = 0  # statistic: index insertions performed
        # Per-kernel batch statistics: rows entering the stage kernels,
        # fresh environments they produced, and distinct join keys probed.
        self.batch_rows_in = 0
        self.batch_rows_out = 0
        self.batch_distinct_keys = 0
        self.envs_materialized = 0
        # Provenance: emitted head row -> the final environment that first
        # produced it; derivation_children rebuilds the child rows from it.
        self._head_env: dict[tuple, tuple] = {}

        # ---- precompute stage plans -------------------------------------
        # Head arguments: variables, and the values of constants (a shape
        # graph's parameter is bound here).  A head request binds the
        # parent's "d" positions; stage-0 variables follow in head position
        # order, like every row: a first subgoal that repeats them in the
        # same order then has env_is_row.
        head_args = [
            bound_value(t.value, bindings) if isinstance(t, Constant) else t
            for t in rule.head.args
        ]
        self.head_terms = tuple(head_args[p] for p in self.parent_shape.d_positions)
        self.stage0_vars: tuple[Variable, ...] = tuple(
            dict.fromkeys(t for t in self.head_terms if isinstance(t, Variable))
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
            stage.env_is_key = len(shared) == len(prev_vars)
            stage.suffix_positions = tuple(sub_pos[v] for v in new_vars)
            stage.suffix_get = _tuple_getter(stage.suffix_positions, len(subenv_vars))
            for pos in stage.shape.d_positions:
                if atom.args[pos] not in prev_pos:
                    raise AssertionError(
                        f"'d' variable {atom.args[pos]} of {atom} not bound "
                        f"by stage {stage_number - 1}"
                    )
            stage.d_env_positions = tuple(
                prev_pos[atom.args[pos]] for pos in stage.shape.d_positions
            )
            # A binding that is the whole previous environment names the one
            # environment that asked, stored before the request left, so no
            # later probe reads a row for it (unless the child feeds another
            # stage).  An empty binding answers the relation request instead;
            # under a parent with no "d" position, stage 1's one environment
            # is the (), stored by that request (see _insert_then_probe).
            covered = len(set(stage.d_env_positions))
            stage.keeps_rows = not covered or covered < len(prev_vars)
            if stage_number == 1 and not self.parent_shape.d_positions:
                stage.keeps_rows = False
            self.stages.append(stage)
            prev_vars = stage.env_vars
            self.child_stage.setdefault(self.child_ids[subgoal_index], []).append(
                stage_number
            )
        for stage in self.stages:
            if len(self.child_stage[self.child_ids[stage.subgoal_index]]) > 1:
                stage.keeps_rows = True

        #: The environments a later probe meets, stored once: level 0 holds
        #: the head bindings, level ``j`` the environments after stage
        #: ``j``.  Each is keyed like the join it feeds (stage ``j + 1``'s
        #: ``prev_key_positions``): key -> set of environments, or key ->
        #: the environment itself where that stage's ``env_is_key``.  The
        #: last level feeds no join and has no store (see :meth:`_add_envs`),
        #: except that a bodiless rule keeps its level 0 as one bucket under
        #: ``()``.
        self.env_indexes: list[dict[object, object]] = [
            {} for _ in range(max(len(self.stages), 1))
        ]

        # Head-output plan: value source per parent row position (a head
        # constant there comes from the rule, not from the environment).
        final_pos = {v: i for i, v in enumerate(prev_vars)}
        self.head_out_plan = tuple(
            ("env", final_pos[t]) if isinstance(t, Variable) else ("const", t)
            for t in (head_args[p] for p in self.parent_shape.row_positions)
        )
        # Compiled head projection for the emit kernel (only when every
        # output position reads from the environment; constant head
        # arguments keep the interpreted plan).
        self._head_positions: Optional[tuple[int, ...]] = None
        if all(kind == "env" for kind, _ in self.head_out_plan):
            self._head_positions = tuple(i for _, i in self.head_out_plan)
        #: Head rows already sent, or None where none can repeat: a rule
        #: with a body derives each final environment once, so a head that
        #: reads every final position never repeats a row.
        read = {i for kind, i in self.head_out_plan if kind == "env"}
        self.sent_rows: Optional[set[tuple]] = (
            None if self.stages and len(read) == len(final_pos) else set()
        )

    # ------------------------------------------------------------------
    # Producer side: requests from the parent goal node
    # ------------------------------------------------------------------
    def on_relation_request(self, stream: ConsumerStream, network: "Router") -> None:
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
            self._add_envs(0, ((),), network)

    def serve_binding(self, stream: ConsumerStream, binding: tuple, network: "Router") -> None:
        """One head binding becomes one stage-0 environment, unless it
        clashes with a head constant or a repeated head variable (the
        specialized rule then contributes nothing for that request)."""
        env = _bind(self.head_terms, binding)
        if env is not None:
            self._add_envs(0, (env,), network)

    # ------------------------------------------------------------------
    # Consumer side: tuples from subgoal children
    # ------------------------------------------------------------------
    def on_tuple_set(self, message: TupleSet, network: "Router") -> None:
        """Bulk stage kernel entry: join a whole set of child rows at once.

        A row is its own sub-environment unless a variable repeats in it
        (then the checked per-row conversion runs; it drops only positions
        that repeat an earlier one, so distinct rows stay distinct).
        """
        for stage_number in self.child_stage[message.sender]:
            stage = self.stages[stage_number - 1]
            self.batch_rows_in += len(message.rows)
            batch = message.rows
            if stage.row_perm != "id":
                batch = [
                    env
                    for env in (_bind(stage.row_vars, row) for row in batch)
                    if env is not None
                ]
            self._insert_then_probe(stage_number, batch, False, network)

    # ------------------------------------------------------------------
    # The join: one insert-then-probe path for rows and environments
    # ------------------------------------------------------------------
    def _add_envs(self, level: int, merged: Sequence[tuple], network: "Router") -> None:
        """Environments reached at ``level`` (0: head bindings, ``j``: after
        stage ``j``).  Below the last stage they enter the next stage's
        join; at the last they are projected to head rows.

        The last level of a rule with a body is not stored: nothing probes
        it, and it could reject nothing.  Each (environment, row) pair is
        joined once — by whichever of the two was inserted second — and the
        join key plus the suffix determine the sub-environment, so distinct
        pairs merge to distinct environments.  ``_emit_heads`` deduplicates
        the head rows.  A bodiless rule's level 0 is re-entered on every
        relation request, so it keeps its store.
        """
        if level < len(self.stages):
            self._insert_then_probe(level + 1, set(merged), True, network)
            return
        if level:
            self.envs_materialized += len(merged)
            self.batch_rows_out += len(merged)
            self._emit_heads(merged, network)
            return
        fresh, _ = _insert(self.env_indexes[0], set(merged), ())
        if fresh:
            self.envs_materialized += len(fresh)
            self._emit_heads(fresh, network)

    def _insert_then_probe(
        self, stage_number: int, batch: Collection[tuple], envs: bool, network: "Router"
    ) -> None:
        """Stage kernel: store a batch on one side of a join, probe the other.

        ``batch`` holds distinct environments from the previous level
        (``envs``) or distinct sub-environments received for this stage.
        Its fresh members are found in their key's bucket (or, at an
        ``env_is_key`` level, by their key's absence; rows at a stage that
        keeps none are all fresh), the other side is probed once per
        distinct key, and the merged environments go on to the next level
        as one batch.  A merge is ``env + suffix`` — the cumulative schema
        keeps earlier variables as an identity prefix — and at an
        ``env_is_row`` stage it is the sub-environment itself.  Fresh
        environments first request the stage's "d" bindings, deduplicated
        batch-wide.
        """
        stage = self.stages[stage_number - 1]
        env_index = self.env_indexes[stage_number - 1]
        # Head bindings (level-0 environments) arrive one request at a time;
        # the batch statistics count the kernel's own batches only.
        kernel_batch = not envs or stage_number > 1
        if envs:
            insert = _insert_keyed if stage.env_is_key else _insert
            fresh, keys = insert(env_index, batch, stage.prev_key_positions)
            if not fresh:
                return
            self.envs_materialized += len(fresh)
            if kernel_batch:
                self.batch_rows_out += len(fresh)
            if stage.d_env_positions:
                self.send_requests(
                    self.child_ids[stage.subgoal_index],
                    set(ColumnBatch(fresh).project(stage.d_env_positions)),
                )
        else:
            if stage.keeps_rows or not env_index:
                # A row that finds no environment yet waits in the store.  At
                # a stage that keeps no rows, this is stage 1 under a parent
                # with no "d" position: a shared or cyclic child may send a
                # row before the relation request has stored the ().
                fresh, keys = _insert(stage.row_index, batch, stage.row_key_positions)
            else:  # each row arrives once, to meet its one environment
                batch_columns = ColumnBatch(batch)
                fresh = batch_columns.rows
                keys = batch_columns.keys(stage.row_key_positions)
            if not fresh:
                return
            self.tuples_stored += len(fresh)
        self.index_inserts += len(fresh)
        distinct = len(set(keys))
        self.probe_lookups += distinct
        if kernel_batch:
            self.batch_distinct_keys += distinct
        merged: list[tuple]
        if stage.env_is_row:
            # The key is the whole previous environment: a hit means exactly
            # one partner, and the merge is the sub-environment.
            if envs:
                get = stage.row_index.get
                merged = [row for key in keys for row in get(key, ())]
            else:
                merged = [row for row, key in zip(fresh, keys) if key in env_index]
        elif envs:
            # Suffixes gathered once per probed key, not once per output pair.
            get = stage.row_index.get
            suffix_get = stage.suffix_get
            suffix_memo: dict = {}
            merged = []
            for env, key in zip(fresh, keys):
                rows = get(key)
                if rows:
                    suffixes = suffix_memo.get(key)
                    if suffixes is None:
                        suffix_memo[key] = suffixes = [suffix_get(row) for row in rows]
                    merged += [env + suffix for suffix in suffixes]
        else:
            get = env_index.get
            suffixes = ColumnBatch(fresh).project(stage.suffix_positions)
            if stage.env_is_key:
                merged = [
                    env + suffix
                    for key, suffix in zip(keys, suffixes)
                    if (env := get(key)) is not None
                ]
            else:
                merged = [
                    env + suffix for key, suffix in zip(keys, suffixes) for env in get(key, ())
                ]
        if envs and not stage.keeps_rows and stage.row_index:
            stage.row_index = {}  # the waiting rows have met the one ()
        if merged:
            self._add_envs(stage_number, merged, network)

    # ------------------------------------------------------------------
    def _emit_heads(self, envs, network: "Router") -> None:
        """Project final environments to head rows and send the fresh ones.

        One column gather projects the batch and one set difference against
        the node's sent rows deduplicates it, so every consumer gets each
        head row exactly once — the whole batch as one :class:`TupleSet`.
        A node without sent rows projects distinct environments one-to-one.
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
        if self.sent_rows is None:
            fresh = rows
        else:
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

    def start(self, network: "Router") -> None:
        """Send the opening relation request to the top-level goal node."""
        feeder = self.feeders[self.root_id]
        feeder.next_seq()
        network.send(RelationRequest(DRIVER_ID, self.root_id, self.adornment))

    def on_tuple_set(self, message: TupleSet, network: "Router") -> None:
        """Collect a packaged answer set (streaming hook still fires per row)."""
        if self.on_answer is None and self.fresh is None:
            self.answers.update(message.rows)
            return
        for row in message.rows:
            if row not in self.answers:
                self.answers.add(row)
                if self.fresh is not None:
                    self.fresh.add(row)
                if self.on_answer is not None:
                    self.on_answer(row)

    def on_end(self, message: EndMessage, network: "Router") -> None:
        super().on_end(message, network)
        self.completed = True
        if self.on_complete is not None:
            self.on_complete()
