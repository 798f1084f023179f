"""Distributed termination of cycles — Section 3.2 and Fig 2.

Duplicate deletion guarantees that the nodes of a strong component eventually
become idle, but no node can *see* that all of them are idle at once: "one
(or a few) answer tuples may be trickling through the nodes of the strong
component, yet each node happens to be caught up on its work at the time the
message arrives asking whether it is done."

The protocol: the unique entry node of each strong component (the DFS root;
footnote 3 notes the absence of cross and forward edges guarantees it is
unique and makes the breadth-first spanning tree coincide with the DFS tree)
is the **BFST leader**.  The leader floods an *end request* down the BFST.
Each node remembers, via the ``idleness`` counter, how many consecutive end
requests found it idle; any delivered work message resets the counter.  A
node answers *end confirmed* only when it has been idle for the entire
period between two successive end requests (``idleness ≥ 2``) **and** every
BFST child confirmed; otherwise it answers *end negative* once all children
have answered.  On a negative outcome the leader starts another wave; on a
confirmed outcome with itself still idle it concludes and sends ``end`` to
its customer (Theorem 3.1).

**Held end requests.**  A member that is busy (``empty_queues()`` false)
when a wave reaches it holds the request (``held``; one at most, since
waves never overlap) and answers from its idle check once it is idle
(:meth:`TerminationProtocol.release_held`), instead of Fig 2's immediate
*end negative*, which only buys the idle leader a wave that cannot
succeed.  Only the moment of the answer moves: the confirm rule is
unchanged, and a held request is processed while the node is idle, so
``idleness`` still counts genuine idle periods.  Liveness rests on the
release running *after* the idle check's request flush (docs/protocol.md).
Every runtime runs this one rule, from the one delivery loop
(``network/shard_loop.py``).

Two repairs of apparent typos in the Fig-2 pseudocode (the prose of
Section 3.2 is unambiguous on both):

1. the stray ``idleness := empty_queues()`` assignment inside the
   send-to-children loop is dropped — idleness changes only on work arrival
   (reset) and when an end request is processed (increment: the node is
   idle by then, see above);
2. a per-round negative flag is kept so an internal node never answers
   *end confirmed* when some child answered *end negative* in the same round
   (the pseudocode's ``process-end-confirmed`` checks only its own idleness;
   the prose requires "received an end confirmed message from all its
   children").

Set-at-a-time messages do not perturb the argument: a delivered
:class:`~repro.network.messages.TupleSet` is ONE work event (it resets
``idleness`` exactly like the ``len(rows)`` tuple messages it replaces —
once is enough, resets are idempotent), it occupies the receiver's queue
until delivered (so ``empty_queues()`` still sees it), and the logical
sent/received accounting weighs it as ``len(rows)`` tuples, leaving the
Section 3.2 counter argument's meaning unchanged.

Worker *heartbeats* (the supervision layer of the multiprocess runtimes,
:mod:`repro.runtime.supervision`) do not perturb it either, by
construction: a heartbeat is a per-worker shared counter bumped by the
worker loop and read only by the parent supervisor.  It is not a message —
it travels no channel, lands in no queue, and is never consulted by
``empty_queues()`` or ``pending_for``, so the visibility invariant the
protocol rests on ("a computation message keeps ``empty_queues()`` false
from send to delivery") is untouched; the ``sent``/``received`` transport
counters and the heartbeat slots are disjoint single-writer arrays.  The
converse also holds: the protocol never delays a heartbeat, because the
worker loop bumps it once per iteration including idle polls — only a
worker truly wedged inside a handler goes silent, which is precisely the
condition the supervisor is meant to detect.  Recovery after a detected
failure is whole-query re-execution, sound because evaluation is monotone
set-semantics Datalog: re-running (or re-delivering) can only re-derive
tuples that every node deduplicates, so any completed retry computes the
same least fixpoint the crashed attempt was converging to.

The protocol object holds protocol state only: its handlers receive the
owning node (a :class:`Member`) at call time, so no protocol → node
reference closes a cycle and a finished network is freed by reference
counting.  A leader that concludes hands itself to the fabric's
``check_conclusion`` first: the simulator's fabric checks the conclusion
against global quiescence there
(:meth:`~repro.network.shard_loop.LocalFabric.check_conclusion`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol

from .messages import ComponentDone, EndConfirmed, EndNegative, EndRequest

if TYPE_CHECKING:
    from .shard_loop import Router

__all__ = ["Member", "TerminationProtocol"]


class Member(Protocol):
    """What the protocol asks of the node it runs for."""

    def empty_queues(self, network: "Router") -> bool:
        """Fig 2's ``empty-queues()``: inbox empty and all feeders ended."""
        ...

    def on_component_conclude(self, network: "Router") -> None:
        """The component concluded: "send an end message to its customer"."""
        ...


@dataclass
class TerminationProtocol:
    """Per-node protocol state and handlers (one instance per SC member).

    Parameters
    ----------
    node_id:
        The owning node.
    is_leader:
        True for the strong component's unique leader.
    bfst_parent:
        The node's parent in the breadth-first spanning tree (None for the
        leader).
    bfst_children:
        The node's children in the spanning tree.
    """

    node_id: int
    is_leader: bool
    bfst_parent: Optional[int]
    bfst_children: tuple[int, ...]

    idleness: int = 0
    waiting_for: int = 0
    negatives_this_round: int = 0
    round_id: int = 0
    round_active: bool = False  # leader: a wave is in flight somewhere below
    held: bool = False  # an end request waits for this node to go idle
    rounds_started: int = 0  # statistics
    conclusions: int = 0  # statistics
    held_end_requests: int = 0  # statistics

    # ------------------------------------------------------------------
    # Work notifications
    # ------------------------------------------------------------------
    def on_work(self) -> None:
        """A computation message was delivered: the node is no longer idle.

        Fig 2: ``procedure process-tuple: idleness := 0``.
        """
        self.idleness = 0

    # ------------------------------------------------------------------
    # Leader initiation
    # ------------------------------------------------------------------
    def maybe_initiate(
        self, node: Member, network: "Router", has_pending_customer: bool
    ) -> None:
        """Start a wave if leader, idle, no wave active, and ends are owed.

        Fig 2 attaches this to ``send-answer-tuple``; we invoke it after every
        delivered message, which subsumes that trigger.
        """
        if not self.is_leader or self.round_active or not has_pending_customer:
            return
        if not node.empty_queues(network):
            return
        self.idleness = 1
        self._start_round(node, network)

    def _start_round(self, node: Member, network: "Router") -> None:
        self.round_id += 1
        self.rounds_started += 1
        self.round_active = True
        self._process_end_request(node, network)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def handle_end_request(
        self, message: EndRequest, node: Member, network: "Router"
    ) -> None:
        """A wave reached this (non-leader) node from its BFST parent.

        A busy node holds the request until :meth:`release_held` finds it
        idle, instead of answering *end negative* at once.
        """
        self.round_id = message.round_id
        if node.empty_queues(network):
            self._process_end_request(node, network)
        else:
            self.held = True
            self.held_end_requests += 1

    def release_held(self, node: Member, network: "Router") -> None:
        """Answer a held end request once the node is idle (its idle check)."""
        if self.held and node.empty_queues(network):
            self.held = False
            self._process_end_request(node, network)

    def _process_end_request(self, node: Member, network: "Router") -> None:
        # Every caller runs only while the node is idle (a busy member holds
        # the request), so Fig 2's ``else idleness := 0`` branch never fires.
        self.idleness += 1
        self.waiting_for = len(self.bfst_children)
        self.negatives_this_round = 0
        if self.waiting_for > 0:
            for child in self.bfst_children:
                network.send(EndRequest(self.node_id, child, self.round_id))
        else:
            self._answer(node, network)

    def handle_end_negative(
        self, message: EndNegative, node: Member, network: "Router"
    ) -> None:
        """A child's subtree was not uniformly idle this round."""
        assert message.round_id == self.round_id, "protocol waves must not overlap"
        self.waiting_for -= 1
        self.negatives_this_round += 1
        if self.waiting_for == 0:
            self._answer(node, network)

    def handle_end_confirmed(
        self, message: EndConfirmed, node: Member, network: "Router"
    ) -> None:
        """A child's subtree was idle for the whole inter-request period."""
        assert message.round_id == self.round_id, "protocol waves must not overlap"
        self.waiting_for -= 1
        if self.waiting_for == 0:
            self._answer(node, network)

    def handle_component_done(
        self, message: ComponentDone, node: Member, network: "Router"
    ) -> None:
        """The leader concluded: emit owed ends here and keep propagating."""
        node.on_component_conclude(network)
        for child in self.bfst_children:
            network.send(ComponentDone(self.node_id, child, message.round_id))

    # ------------------------------------------------------------------
    def _answer(self, node: Member, network: "Router") -> None:
        """All children (if any) answered: respond upward or conclude."""
        confirmed = self.negatives_this_round == 0 and self.idleness > 1
        if not self.is_leader:
            assert self.bfst_parent is not None
            if confirmed:
                network.send(EndConfirmed(self.node_id, self.bfst_parent, self.round_id))
            else:
                network.send(EndNegative(self.node_id, self.bfst_parent, self.round_id))
            return
        # Leader: conclude, or start another wave.
        self.round_active = False
        if confirmed and node.empty_queues(network):
            self.conclusions += 1
            network.check_conclusion(node)
            node.on_component_conclude(network)
            # Footnote 4: propagate the conclusion around the component so
            # members with their own customers can send their end messages.
            for child in self.bfst_children:
                network.send(ComponentDone(self.node_id, child, self.round_id))
            return
        # Fig 2, process-end-negative at the leader: re-initiate immediately
        # when still idle; otherwise wait for the next post-work idle check.
        if node.empty_queues(network):
            self.idleness = 1
            self._start_round(node, network)
