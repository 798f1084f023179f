"""Unit tests for the Fig-2 distributed termination protocol in isolation.

A synthetic strong component of stub nodes is wired to the simulator's fabric; the
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
from repro.network.shard_loop import LocalFabric
from repro.network.termination import TerminationProtocol


class StubNode:
    """A protocol-only node: work arrives as TupleMessage, rest is protocol."""

    _request_buffer = {}  # never buffers a request

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
        # Mirror the engine: a busy member answers a held end request from
        # its idle check, and a leader only probes while it still owes an
        # end to its customer (here: until the first conclusion).
        self.protocol.release_held(self, network)
        if self.protocol.is_leader:
            self.protocol.maybe_initiate(self, network, self.concluded == 0)


def build_component(tree: dict[int, list[int]], leader: int = 0, seed=None):
    """Wire a stub component with the given BFST children map.

    The fabric's quiescence oracle is on: every conclusion is checked
    against the messages in flight.
    """
    fabric = LocalFabric(seed=seed, validate_protocol=True)
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
        fabric.register(node)
    return fabric, nodes


CHAIN = {0: [1], 1: [2], 2: []}
STAR = {0: [1, 2, 3], 1: [], 2: [], 3: []}


class TestQuiescentComponent:
    def test_concludes_in_two_waves_on_chain(self):
        fabric, nodes = build_component(CHAIN)
        nodes[0].on_idle_check(fabric)  # leader notices it is idle
        fabric.run()
        assert nodes[0].concluded == 1
        assert nodes[0].protocol.rounds_started == 2

    def test_concludes_on_star(self):
        fabric, nodes = build_component(STAR)
        nodes[0].on_idle_check(fabric)
        fabric.run()
        assert nodes[0].concluded == 1

    def test_leaves_answer_first_request_negative(self):
        # Round 1 must come back negative (leaf idleness reaches only 1).
        fabric, nodes = build_component(CHAIN)
        nodes[0].on_idle_check(fabric)
        negatives = []
        confirmations = []
        while True:
            msg = fabric.step()
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
        fabric, nodes = build_component(CHAIN)
        nodes[0].protocol.maybe_initiate(nodes[0], fabric, has_pending_customer=False)
        assert fabric.in_flight() == 0

    def test_single_conclusion_then_silence(self):
        fabric, nodes = build_component(CHAIN)

        def idle_check_done(network):
            if nodes[0].concluded == 0:
                nodes[0].protocol.maybe_initiate(nodes[0], network, True)

        nodes[0].on_idle_check = idle_check_done
        nodes[0].on_idle_check(fabric)
        fabric.run()
        assert nodes[0].concluded == 1


class TestBusyNodes:
    def test_busy_member_blocks_conclusion(self):
        # A busy member holds the wave's end request: it sends no negative,
        # the leader starts no further wave, and nothing concludes.  Once
        # its flag clears, its idle check answers and the component ends.
        fabric, nodes = build_component(CHAIN)
        nodes[2].busy = True
        nodes[0].on_idle_check(fabric)
        delivered = []
        while (message := fabric.step()) is not None:
            delivered.append(message)
        assert not any(isinstance(m, EndNegative) for m in delivered)
        assert nodes[0].concluded == 0
        assert nodes[0].protocol.rounds_started == 1
        assert nodes[2].protocol.held and nodes[2].protocol.held_end_requests == 1
        nodes[2].busy = False
        nodes[2].on_idle_check(fabric)
        fabric.run()
        assert not nodes[2].protocol.held
        assert nodes[0].concluded == 1
        assert fabric.protocol_violations == []

    def test_work_between_waves_forces_another_round(self):
        # Inject work at a leaf in the middle of the protocol: idleness must
        # reset and the component must need extra rounds before concluding.
        fabric, nodes = build_component(CHAIN)
        nodes[0].on_idle_check(fabric)
        injected = False
        while True:
            msg = fabric.step()
            if msg is None:
                break
            if (
                not injected
                and isinstance(msg, EndRequest)
                and msg.receiver == 2
            ):
                # During round 1, slip a tuple into node 2's queue.
                fabric.send(TupleMessage(1, 2, ("late",)))
                injected = True
        assert nodes[2].work_seen == 1
        assert nodes[0].concluded == 1
        assert nodes[0].protocol.rounds_started >= 3

    def test_conclusion_requires_full_period_idleness(self):
        # A node that was busy when a wave reached it cannot confirm that
        # wave: it answers only once idle, and then negative (its first
        # idle period has just begun), so conclusion slips a round.
        fabric, nodes = build_component(STAR)
        nodes[3].busy = True
        nodes[0].on_idle_check(fabric)
        fabric.run()
        assert nodes[0].concluded == 0
        assert nodes[3].protocol.held
        nodes[3].busy = False
        nodes[3].on_idle_check(fabric)
        answers = []
        while (message := fabric.step()) is not None:
            if message.sender == 3 and isinstance(message, (EndNegative, EndConfirmed)):
                answers.append(message)
        assert isinstance(answers[0], EndNegative) and answers[0].round_id == 1
        assert nodes[0].concluded == 1
        assert nodes[0].protocol.rounds_started >= 2


class TestTheorem31Soundness:
    """If the leader concludes, every node was idle for a full period."""

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 17])
    def test_conclusion_implies_quiescence(self, seed):
        fabric, nodes = build_component({0: [1, 2], 1: [3], 2: [], 3: []}, seed=seed)

        def check_conclude(network):
            nodes[0].concluded += 1
            for node in nodes.values():
                assert node.empty_queues(network), "concluded while busy"
            assert network.in_flight() == 0 or all(
                not isinstance(m, TupleMessage) for m in network.local
            )

        nodes[0].on_component_conclude = check_conclude
        nodes[0].on_idle_check(fabric)
        fabric.run()
        assert nodes[0].concluded == 1
        assert fabric.protocol_violations == []

    def test_oracle_catches_planted_early_conclusion(self):
        # Plant work between two members just before the leader's
        # concluding delivery: the conclusion is then premature, and the
        # fabric's oracle must say so.
        fabric, nodes = build_component(CHAIN)
        nodes[0].on_idle_check(fabric)
        planted = False
        while fabric.in_flight():
            upcoming = fabric.local[0]
            if (
                not planted
                and isinstance(upcoming, EndConfirmed)
                and upcoming.receiver == 0
            ):
                fabric.send(TupleMessage(1, 2, ("late",)))
                planted = True
            fabric.step()
        assert planted and nodes[0].concluded == 1
        assert fabric.protocol_violations == [
            "internal computation message in flight 1->2 at conclusion: TupleMessage"
        ]

    def test_idleness_counter_semantics(self):
        fabric, nodes = build_component(CHAIN)
        protocol = nodes[2].protocol
        assert protocol.idleness == 0
        protocol.on_work()
        assert protocol.idleness == 0
        nodes[0].on_idle_check(fabric)
        fabric.run()
        # After two idle waves the leaf reached idleness 2.
        assert protocol.idleness >= 2
