"""White-box tests of goal-node and cyclic-node stream behavior."""

import pytest

from repro.core.adornment import AdornedAtom
from repro.core.atoms import atom
from repro.core.terms import Variable
from repro.network.messages import (
    EndMessage,
    RelationRequest,
    TupleMessage,
    TupleRequest,
    TupleSet,
)
from repro.network.nodes import CyclicNodeProcess, GoalNodeProcess
from repro.network.scheduler import Scheduler

X, Y = Variable("X"), Variable("Y")


class Probe:
    """Records whatever reaches it, by type."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.tuples = []
        self.requests = []
        self.relation_requests = []
        self.ends = []

    def handle(self, message, network):
        if isinstance(message, TupleMessage):
            self.tuples.append(message.row)
        elif isinstance(message, TupleSet):
            self.tuples.extend(message.rows)
        elif isinstance(message, TupleRequest):
            self.requests.append(message.binding)
        elif isinstance(message, RelationRequest):
            self.relation_requests.append(message)
        elif isinstance(message, EndMessage):
            self.ends.append(message)

    def on_idle_check(self, network):
        pass


def goal_fixture(adornment=("d", "f"), consumers=(50,), children=(100, 101)):
    node = GoalNodeProcess(1, AdornedAtom(atom("p", X, Y), adornment))
    scheduler = Scheduler()
    scheduler.register(node)
    probes = {}
    wants_all = "d" not in adornment
    for cid in consumers:
        probe = Probe(cid)
        probes[cid] = probe
        node.add_consumer(cid, wants_all)
        scheduler.register(probe)
    for child in children:
        probe = Probe(child)
        probes[child] = probe
        node.add_feeder(child, is_feeder=True)
        scheduler.register(probe)
    return node, scheduler, probes


class TestGoalNodeStreams:
    def test_relation_request_propagates_once(self):
        node, scheduler, probes = goal_fixture()
        scheduler.send(RelationRequest(50, 1, ("d", "f")))
        scheduler.run()
        assert len(probes[100].relation_requests) == 1
        assert len(probes[101].relation_requests) == 1
        # A second consumer's relation request must not re-propagate.
        node.add_consumer(51, wants_all=False)
        probe51 = Probe(51)
        scheduler.register(probe51)
        scheduler.send(RelationRequest(51, 1, ("d", "f")))
        scheduler.run()
        assert len(probes[100].relation_requests) == 1

    def test_tuple_requests_forwarded_to_all_children_once(self):
        node, scheduler, probes = goal_fixture()
        scheduler.send(RelationRequest(50, 1, ("d", "f")))
        scheduler.send(TupleRequest(50, 1, ("k",), 1))
        scheduler.send(TupleRequest(50, 1, ("k",), 2))  # duplicate binding
        scheduler.run()
        assert probes[100].requests == [("k",)]
        assert probes[101].requests == [("k",)]

    def test_answers_filtered_per_stream_binding(self):
        node, scheduler, probes = goal_fixture(consumers=(50, 51))
        scheduler.send(RelationRequest(50, 1, ("d", "f")))
        scheduler.send(RelationRequest(51, 1, ("d", "f")))
        scheduler.send(TupleRequest(50, 1, ("k1",), 1))
        scheduler.send(TupleRequest(51, 1, ("k2",), 1))
        scheduler.run()
        scheduler.send(TupleMessage(100, 1, ("k1", "v1")))
        scheduler.send(TupleMessage(100, 1, ("k2", "v2")))
        scheduler.run()
        # Each consumer sees only the rows matching its own requests.
        assert probes[50].tuples == [("k1", "v1")]
        assert probes[51].tuples == [("k2", "v2")]

    def test_replay_for_late_binding(self):
        node, scheduler, probes = goal_fixture()
        scheduler.send(RelationRequest(50, 1, ("d", "f")))
        scheduler.send(TupleRequest(50, 1, ("k1",), 1))
        scheduler.run()
        scheduler.send(TupleMessage(100, 1, ("k2", "v2")))  # unrequested row
        scheduler.run()
        assert probes[50].tuples == []
        scheduler.send(TupleRequest(50, 1, ("k2",), 2))  # late interest
        scheduler.run()
        assert probes[50].tuples == [("k2", "v2")]

    def test_duplicate_answers_dropped(self):
        node, scheduler, probes = goal_fixture()
        scheduler.send(RelationRequest(50, 1, ("d", "f")))
        scheduler.send(TupleRequest(50, 1, ("k",), 1))
        scheduler.run()
        for _ in range(3):
            scheduler.send(TupleMessage(100, 1, ("k", "v")))
            scheduler.send(TupleMessage(101, 1, ("k", "v")))
        scheduler.run()
        assert probes[50].tuples == [("k", "v")]
        assert node.tuples_stored == 1

    def test_end_emission_after_feeders_caught_up(self):
        node, scheduler, probes = goal_fixture()
        scheduler.send(RelationRequest(50, 1, ("d", "f")))
        scheduler.send(TupleRequest(50, 1, ("k",), 1))
        scheduler.run()
        assert probes[50].ends == []  # children have not ended
        scheduler.send(EndMessage(100, 1, 1))
        scheduler.send(EndMessage(101, 1, 1))
        scheduler.run()
        assert len(probes[50].ends) == 1
        assert probes[50].ends[0].upto == 1

    def test_wants_all_streams_get_everything(self):
        node, scheduler, probes = goal_fixture(adornment=("f", "f"))
        scheduler.send(RelationRequest(50, 1, ("f", "f")))
        scheduler.run()
        scheduler.send(TupleMessage(100, 1, ("a", 1)))
        scheduler.send(TupleMessage(100, 1, ("b", 2)))
        scheduler.run()
        assert sorted(probes[50].tuples) == [("a", 1), ("b", 2)]


class TestCyclicNode:
    def build(self):
        node = CyclicNodeProcess(2, AdornedAtom(atom("p", X, Y), ("d", "f")), ancestor_id=1)
        scheduler = Scheduler()
        scheduler.register(node)
        ancestor = Probe(1)
        parent = Probe(60)
        node.add_feeder(1, is_feeder=False)
        node.add_consumer(60, wants_all=False)
        scheduler.register(ancestor)
        scheduler.register(parent)
        return node, scheduler, ancestor, parent

    def test_requests_relayed_to_ancestor(self):
        node, scheduler, ancestor, parent = self.build()
        scheduler.send(RelationRequest(60, 2, ("d", "f")))
        scheduler.send(TupleRequest(60, 2, ("k",), 1))
        scheduler.run()
        assert len(ancestor.relation_requests) == 1
        assert ancestor.requests == [("k",)]

    def test_rows_relayed_and_deduplicated(self):
        node, scheduler, ancestor, parent = self.build()
        scheduler.send(RelationRequest(60, 2, ("d", "f")))
        scheduler.send(TupleRequest(60, 2, ("k",), 1))
        scheduler.run()
        scheduler.send(TupleMessage(1, 2, ("k", "v")))
        scheduler.send(TupleMessage(1, 2, ("k", "v")))
        scheduler.run()
        assert parent.tuples == [("k", "v")]

    def test_no_ends_from_cyclic_nodes(self):
        # Cyclic nodes live inside strong components: ends are the leader's.
        node, scheduler, ancestor, parent = self.build()
        node.sc_members = frozenset({1, 2, 60})
        scheduler.send(RelationRequest(60, 2, ("d", "f")))
        scheduler.run()
        assert parent.ends == []
