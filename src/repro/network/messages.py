"""The message vocabulary of the framework — Sections 3.1 and 3.2.

Basic computation messages (Section 3.1):

* :class:`RelationRequest` — "triggers the beginning of computation and
  identifies the classes of the arguments"; flows against the orientation of
  the arcs.
* :class:`TupleRequest` — "specifies one binding for all of the 'd'
  arguments"; the complete specification of an intermediate relation is the
  relation request plus the set of associated tuple requests.
* :class:`TupleMessage` — "whenever a tuple is derived it is sent to the
  parent via a tuple message" (and to cyclic successors).
* :class:`TupleSet` — footnote 2's "efficiency of volume", generalized from
  requests to answers: one message carrying a whole set of derived rows for
  a stream.  Logically equivalent to ``len(rows)`` tuple messages delivered
  back to back, and accounted as exactly that many logical tuples (see
  :func:`logical_size`).
* :class:`EndMessage` — "when a feeder node determines that it can produce
  no more tuples for a particular tuple request (or relation request), it
  sends an end message".

Termination-protocol messages (Section 3.2, Fig 2):

* :class:`EndRequest` — propagated down the breadth-first spanning tree by
  the leader;
* :class:`EndNegative` / :class:`EndConfirmed` — the answers passed back up.

Requests on a stream are *sequence numbered* by the consumer (the relation
request is sequence 0; tuple requests count up from 1) and an
:class:`EndMessage` carries ``upto``, the highest request sequence it
completes.  Channels are FIFO, so "caught up" is simply
``last end.upto == last sequence sent`` — this realizes the paper's
per-request end semantics while letting one end message cover a batch
(compare the paper's remark on packaging related tuple requests).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Message",
    "RelationRequest",
    "TupleRequest",
    "PackagedTupleRequest",
    "TupleMessage",
    "TupleSet",
    "ColumnBatch",
    "EndMessage",
    "EndRequest",
    "EndNegative",
    "EndConfirmed",
    "MessageBatch",
    "coalesce_batch",
    "logical_size",
    "COMPUTATION_TYPES",
    "PROTOCOL_TYPES",
]


@dataclass(frozen=True, slots=True)
class Message:
    """Base class: every message names its sender and receiver node ids."""

    sender: int
    receiver: int

    def kind(self) -> str:
        """Short lowercase tag used by the statistics tables."""
        return type(self).__name__


@dataclass(frozen=True, slots=True)
class RelationRequest(Message):
    """Opens a stream: the consumer asks the producer for its relation.

    ``adornment`` is the producer goal's argument classes, carried so that a
    process could in principle be spawned knowing only the message (the
    specification "for the relation [is] received in messages from
    neighboring processes" — Section 1.2).  Sequence number 0 on the stream.
    """

    adornment: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class TupleRequest(Message):
    """One binding for all the "d" arguments of the producer's goal.

    ``binding`` lists values for the producer's "d" positions in increasing
    position order; ``seq`` is the consumer's per-stream sequence number.
    """

    binding: tuple
    seq: int


@dataclass(frozen=True, slots=True)
class PackagedTupleRequest(Message):
    """A batch of related tuple requests — the footnote-2 enhancement.

    "A further enhancement would be to 'package' a set of related tuple
    requests, in case the node servicing the request can gain some
    efficiency of volume ... If packaged, the retrieval can be done in one
    scan."  ``bindings`` holds several "d" bindings; ``seq`` is the sequence
    number of the *last* request in the package (one end covers them all).
    """

    bindings: tuple
    seq: int


@dataclass(frozen=True, slots=True)
class TupleMessage(Message):
    """One derived tuple, as the values at the producer goal's "d"/"f" positions."""

    row: tuple


@dataclass(frozen=True, slots=True)
class TupleSet(Message):
    """A set of derived rows shipped as one message — packaged *answers*.

    Footnote 2 observes that messages gain "efficiency of volume" when
    related tuple requests travel as a package; this is the same idea on the
    answer stream.  ``rows`` holds several rows (each over the producer
    goal's "d"/"f" positions) for the same (producer, consumer) channel.
    Semantically a :class:`TupleSet` is exactly ``len(rows)`` tuple messages
    delivered back to back: it carries no sequence number of its own, and
    per-channel FIFO still guarantees every row arrives before the
    :class:`EndMessage` whose ``upto`` covers the requests that produced it.
    Accounting weighs it as ``len(rows)`` logical tuples so ``max_messages``
    budgets and the Section 3.2 sent/received counters keep their meaning.
    """

    rows: frozenset

    def logical(self) -> int:
        """Number of logical tuples this message stands for."""
        return len(self.rows)


class ColumnBatch:
    """A batch of stage rows with the two gathers the join kernels need.

    A row-at-a-time join touches every row with several python-level
    operations (convert, key-project, probe).  This wrapper serves the
    kernels whole batches instead: join keys and merge suffixes are each
    one C-level ``map(itemgetter)`` pass, join keys for a single shared
    variable are the bare value (no per-row 1-tuple allocation), and a
    gather of every position in order is the batch's own rows.

    Instances are node-local kernel state, not messages: the wire format
    stays :class:`TupleSet`, so transports, accounting, and the termination
    protocol are untouched.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[tuple]) -> None:
        self.rows: list[tuple] = rows if isinstance(rows, list) else list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def _is_identity(self, positions: Sequence[int]) -> bool:
        """True when ``positions`` are every position of the rows, in order."""
        width = len(self.rows[0])
        return len(positions) == width and tuple(positions) == tuple(range(width))

    def keys(self, positions: Sequence[int]) -> Sequence:
        """The join key of every row: bare values for a single position,
        tuples otherwise (key arity, not representation, is what both sides
        of a columnar join agree on).  A multi-position key over the whole
        row is the row itself.
        """
        if not self.rows:
            return []
        if len(positions) == 1:
            return list(map(operator.itemgetter(positions[0]), self.rows))
        if not positions:  # every row keys to the nullary tuple
            return [()] * len(self.rows)
        if self._is_identity(positions):
            return self.rows
        return list(map(operator.itemgetter(*positions), self.rows))

    def project(self, positions: Sequence[int]) -> list[tuple]:
        """Gather: the rows restricted to ``positions``, as tuples.

        A gather of every position in order copies nothing: it returns the
        batch's own row list, which callers must not mutate.
        """
        if not self.rows:
            return []
        if not positions:
            return [()] * len(self.rows)
        if self._is_identity(positions):
            return self.rows
        if len(positions) == 1:
            return list(zip(self.keys(positions)))  # re-box as 1-tuples
        return list(map(operator.itemgetter(*positions), self.rows))


@dataclass(frozen=True, slots=True)
class EndMessage(Message):
    """All requests with sequence number ≤ ``upto`` on this stream are complete."""

    upto: int


@dataclass(frozen=True, slots=True)
class EndRequest(Message):
    """Protocol: the leader (via the BFST) asks "are you done?" — round ``round_id``."""

    round_id: int


@dataclass(frozen=True, slots=True)
class EndNegative(Message):
    """Protocol: some node below was not idle for a full period."""

    round_id: int


@dataclass(frozen=True, slots=True)
class EndConfirmed(Message):
    """Protocol: this subtree was idle for the whole period between two requests."""

    round_id: int


@dataclass(frozen=True, slots=True)
class ComponentDone(Message):
    """Protocol: the leader concluded; members may end their own customers.

    Footnote 4: "if nodes with identical predicates and binding patterns were
    coalesced, then the leader must propagate the end message around the
    strong component, as other nodes may have customers."  This message is
    that propagation, sent down the BFST after a conclusion.
    """

    round_id: int


@dataclass(frozen=True, slots=True)
class EndNudge(Message):
    """Protocol: a member owing an end asks the leader to probe.

    Needed only in coalesced graphs: a member can receive a tuple request it
    can serve entirely from cache, creating an end obligation without any
    work ever reaching the leader; the nudge restores the leader's trigger.
    """


@dataclass(frozen=True, slots=True)
class MessageBatch:
    """A transport envelope: many messages in one channel operation.

    Addressed shard-to-shard, not node-to-node — the pooled runtime's queue
    fabric carries one ``MessageBatch`` per OS ``put`` so the pickle + queue
    cost amortizes over ``len(messages)`` tuples/requests instead of being
    paid per tuple.  The envelope is invisible to node logic: the receiving
    worker unpacks it (see :func:`coalesce_batch`) and delivers the
    contained messages one at a time, in order, preserving per-channel FIFO.
    """

    origin: int  # sending shard id
    messages: tuple[Message, ...]

    def __len__(self) -> int:
        return len(self.messages)


def coalesce_batch(messages: Sequence[Message]) -> list[Message]:
    """Merge adjacent same-channel messages into their packaged forms.

    The batch unpack path of the pooled runtime, applied on ingest so the
    hosted nodes see set-at-a-time messages even when the sender shipped
    rows one at a time:

    * a run of :class:`TupleRequest` messages adjacent in the batch and
      sharing a (sender, receiver) channel becomes one
      :class:`PackagedTupleRequest` carrying their distinct bindings (first
      occurrence kept; serving a binding is idempotent so duplicates are
      dropped) under the *last* request's sequence number — the footnote-2
      package the producers already serve, possibly in one scan;
    * a run of :class:`TupleMessage` / :class:`TupleSet` messages on one
      channel becomes a single :class:`TupleSet` with the union of their
      rows.

    Only adjacent runs are merged, so the relative order of every channel's
    messages is untouched: requests keep their sequence semantics (``seq``
    of the last member covers the package) and rows still precede the
    :class:`EndMessage` that covers them.
    """
    out: list[Message] = []
    run: list[Message] = []

    def same_channel(message: Message) -> bool:
        return (
            run[-1].sender == message.sender
            and run[-1].receiver == message.receiver
        )

    def flush_run() -> None:
        if not run:
            return
        if len(run) == 1:
            out.append(run[0])
        elif isinstance(run[0], TupleRequest):
            bindings = tuple(dict.fromkeys(r.binding for r in run))
            out.append(
                PackagedTupleRequest(
                    run[0].sender, run[0].receiver, bindings, run[-1].seq
                )
            )
        else:
            rows = frozenset().union(
                *(
                    m.rows if isinstance(m, TupleSet) else (m.row,)
                    for m in run
                )
            )
            out.append(TupleSet(run[0].sender, run[0].receiver, rows))
        run.clear()

    row_types = (TupleMessage, TupleSet)
    for message in messages:
        if isinstance(message, TupleRequest):
            if run and not (isinstance(run[-1], TupleRequest) and same_channel(message)):
                flush_run()
            run.append(message)
            continue
        if isinstance(message, row_types):
            if run and not (isinstance(run[-1], row_types) and same_channel(message)):
                flush_run()
            run.append(message)
            continue
        flush_run()
        out.append(message)
    flush_run()
    return out


def logical_size(message) -> int:
    """Number of logical tuples/messages a physical message stands for.

    A :class:`TupleSet` counts as ``len(rows)`` — the paper's accounting is
    per tuple, and packaging answers must not change what ``max_messages``
    budgets, :class:`SchedulerStats` totals, or the Section 3.2
    sent/received termination counters mean.  A :class:`MessageBatch` sums
    its members; every other message counts as one.
    """
    if isinstance(message, TupleSet):
        return len(message.rows)
    if isinstance(message, MessageBatch):
        return sum(logical_size(m) for m in message.messages)
    return 1


#: Message classes that constitute *work* (reset the idleness counter).
COMPUTATION_TYPES = (
    RelationRequest,
    TupleRequest,
    PackagedTupleRequest,
    TupleMessage,
    TupleSet,
    EndMessage,
)

#: Message classes belonging to the Fig-2 termination protocol.
PROTOCOL_TYPES = (EndRequest, EndNegative, EndConfirmed, ComponentDone, EndNudge)
