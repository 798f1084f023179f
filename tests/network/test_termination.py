"""Unit tests for the Fig-2 distributed termination protocol in isolation.

A synthetic strong component of stub nodes is wired to a real scheduler; the
stubs' "busy" state is controlled by hand (and by injected work messages) so
the protocol's two-wave behavior can be probed precisely.
"""

import pytest

from repro.network.messages import (
    EndConfirmed,
    EndNegative,
    EndRequest,
    TupleMessage,
)
from repro.network.scheduler import Scheduler
from repro.network.termination import TerminationProtocol


class StubNode:
    """A protocol-only node: work arrives as TupleMessage, rest is protocol."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.protocol = None
        self.busy = False
        self.concluded = 0
        self.work_seen = 0

    def empty_queues(self, network):
        return not self.busy and network.pending_for(self.node_id) == 0

    def on_component_conclude(self, network):
        self.concluded += 1

    def handle(self, message, network):
        if isinstance(message, TupleMessage):
            self.protocol.on_work()
            self.work_seen += 1
            return
        if isinstance(message, EndRequest):
            self.protocol.handle_end_request(message, self, network)
        elif isinstance(message, EndNegative):
            self.protocol.handle_end_negative(message, self, network)
        elif isinstance(message, EndConfirmed):
            self.protocol.handle_end_confirmed(message, self, network)

    def on_idle_check(self, network):
        # Mirror the engine: a leader only probes while it still owes an end
        # to its customer (here: until the first conclusion).
        if self.protocol.is_leader:
            self.protocol.maybe_initiate(self, network, self.concluded == 0)


def build_component(tree: dict[int, list[int]], leader: int = 0, seed=None):
    """Wire a stub component with the given BFST children map.

    The scheduler's quiescence oracle is on: every conclusion is checked
    against the messages in flight.
    """
    scheduler = Scheduler(seed=seed, validate_protocol=True)
    parents: dict[int, int] = {}
    for parent, kids in tree.items():
        for kid in kids:
            parents[kid] = parent
    members = frozenset(tree)
    nodes = {}
    for node_id in tree:
        node = StubNode(node_id)
        node.protocol = TerminationProtocol(
            node_id=node_id,
            is_leader=node_id == leader,
            bfst_parent=parents.get(node_id),
            bfst_children=tuple(tree.get(node_id, ())),
        )
        node.sc_members = members
        node.feeders = {}  # stubs have no cross-component producers
        nodes[node_id] = node
        scheduler.register(node)
    return scheduler, nodes


CHAIN = {0: [1], 1: [2], 2: []}
STAR = {0: [1, 2, 3], 1: [], 2: [], 3: []}


class TestQuiescentComponent:
    def test_concludes_in_two_waves_on_chain(self):
        scheduler, nodes = build_component(CHAIN)
        nodes[0].on_idle_check(scheduler)  # leader notices it is idle
        scheduler.run()
        assert nodes[0].concluded == 1
        assert nodes[0].protocol.rounds_started == 2

    def test_concludes_on_star(self):
        scheduler, nodes = build_component(STAR)
        nodes[0].on_idle_check(scheduler)
        scheduler.run()
        assert nodes[0].concluded == 1

    def test_leaves_answer_first_request_negative(self):
        # Round 1 must come back negative (leaf idleness reaches only 1).
        scheduler, nodes = build_component(CHAIN)
        nodes[0].on_idle_check(scheduler)
        negatives = []
        confirmations = []
        while True:
            msg = scheduler.step()
            if msg is None:
                break
            if isinstance(msg, EndNegative):
                negatives.append(msg)
            if isinstance(msg, EndConfirmed):
                confirmations.append(msg)
        assert negatives and confirmations
        # All negatives belong to round 1, all confirmations to round 2.
        assert {m.round_id for m in negatives} == {1}
        assert {m.round_id for m in confirmations} == {2}

    def test_no_initiation_without_pending_customer(self):
        scheduler, nodes = build_component(CHAIN)
        nodes[0].protocol.maybe_initiate(nodes[0], scheduler, has_pending_customer=False)
        assert scheduler.in_flight() == 0

    def test_single_conclusion_then_silence(self):
        scheduler, nodes = build_component(CHAIN)

        def idle_check_done(network):
            if nodes[0].concluded == 0:
                nodes[0].protocol.maybe_initiate(nodes[0], network, True)

        nodes[0].on_idle_check = idle_check_done
        nodes[0].on_idle_check(scheduler)
        scheduler.run()
        assert nodes[0].concluded == 1


class TestBusyNodes:
    def test_busy_member_blocks_conclusion(self):
        # With a permanently busy member the leader probes forever (the
        # protocol cannot know the member will never finish); bound the run
        # by steps and verify no conclusion ever happens.
        scheduler, nodes = build_component(CHAIN)
        nodes[2].busy = True  # never idle
        nodes[0].on_idle_check(scheduler)
        for _ in range(500):
            if scheduler.step() is None:
                break
        assert nodes[0].concluded == 0
        assert nodes[0].protocol.rounds_started > 2  # it kept probing

    def test_work_between_waves_forces_another_round(self):
        # Inject work at a leaf in the middle of the protocol: idleness must
        # reset and the component must need extra rounds before concluding.
        scheduler, nodes = build_component(CHAIN)
        nodes[0].on_idle_check(scheduler)
        injected = False
        while True:
            msg = scheduler.step()
            if msg is None:
                break
            if (
                not injected
                and isinstance(msg, EndRequest)
                and msg.receiver == 2
            ):
                # During round 1, slip a tuple into node 2's queue.
                scheduler.send(TupleMessage(1, 2, ("late",)))
                injected = True
        assert nodes[2].work_seen == 1
        assert nodes[0].concluded == 1
        assert nodes[0].protocol.rounds_started >= 3

    def test_conclusion_requires_full_period_idleness(self):
        # A node that was busy at the first request of a wave pair cannot
        # confirm that wave; conclusion slips at least one round.
        scheduler, nodes = build_component(STAR)
        nodes[3].busy = True

        def release_after_round(network):
            if nodes[0].protocol.rounds_started >= 1:
                nodes[3].busy = False
            nodes[0].protocol.maybe_initiate(nodes[0], network, nodes[0].concluded == 0)

        nodes[0].on_idle_check = release_after_round
        nodes[0].on_idle_check(scheduler)
        scheduler.run()
        assert nodes[0].concluded == 1
        assert nodes[0].protocol.rounds_started >= 2


class TestTheorem31Soundness:
    """If the leader concludes, every node was idle for a full period."""

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 17])
    def test_conclusion_implies_quiescence(self, seed):
        scheduler, nodes = build_component({0: [1, 2], 1: [3], 2: [], 3: []}, seed=seed)

        def check_conclude(network):
            nodes[0].concluded += 1
            for node in nodes.values():
                assert node.empty_queues(network), "concluded while busy"
            assert network.in_flight() == 0 or all(
                not isinstance(m, TupleMessage) for _, _, m in network._heap
            )

        nodes[0].on_component_conclude = check_conclude
        nodes[0].on_idle_check(scheduler)
        scheduler.run()
        assert nodes[0].concluded == 1
        assert scheduler.protocol_violations == []

    def test_oracle_catches_planted_early_conclusion(self):
        # Plant work between two members just before the leader's
        # concluding delivery: the conclusion is then premature, and the
        # scheduler's oracle must say so.
        scheduler, nodes = build_component(CHAIN)
        nodes[0].on_idle_check(scheduler)
        planted = False
        while scheduler.in_flight():
            _, _, upcoming = scheduler._heap[0]
            if (
                not planted
                and isinstance(upcoming, EndConfirmed)
                and upcoming.receiver == 0
            ):
                scheduler.send(TupleMessage(1, 2, ("late",)))
                planted = True
            scheduler.step()
        assert planted and nodes[0].concluded == 1
        assert scheduler.protocol_violations == [
            "internal computation message in flight 1->2 at conclusion: TupleMessage"
        ]

    def test_idleness_counter_semantics(self):
        scheduler, nodes = build_component(CHAIN)
        protocol = nodes[2].protocol
        assert protocol.idleness == 0
        protocol.on_work()
        assert protocol.idleness == 0
        nodes[0].on_idle_check(scheduler)
        scheduler.run()
        # After two idle waves the leaf reached idleness 2.
        assert protocol.idleness >= 2
