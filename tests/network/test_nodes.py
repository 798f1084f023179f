"""Unit tests for node-process building blocks: streams, shapes, EDB leaves."""

import pytest

from repro.core.adornment import AdornedAtom
from repro.core.atoms import atom
from repro.core.terms import Variable
from repro.network.messages import (
    RelationRequest,
    TupleMessage,
    TupleRequest,
    TupleSet,
)
from repro.network.nodes import (
    ConsumerStream,
    EdbLeafProcess,
    FeederStream,
    _RowShape,
)
from repro.network.scheduler import Scheduler
from repro.relational.database import Database

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestStreams:
    def test_consumer_owes_end(self):
        stream = ConsumerStream(consumer_id=1, wants_all=True)
        assert not stream.owes_end
        stream.last_seq_received = 0
        assert stream.owes_end
        stream.last_seq_ended = 0
        assert not stream.owes_end

    def test_feeder_caught_up(self):
        stream = FeederStream(producer_id=2, is_feeder=True)
        assert stream.caught_up  # nothing sent yet
        assert stream.next_seq() == 0
        assert not stream.caught_up
        stream.last_upto_ended = 0
        assert stream.caught_up

    def test_feeder_sequence_numbers_increment(self):
        stream = FeederStream(producer_id=2, is_feeder=True)
        assert [stream.next_seq() for _ in range(3)] == [0, 1, 2]


class TestRowShape:
    def test_non_e_positions(self):
        a = AdornedAtom(atom("p", "k", X, Y, Z), ("c", "d", "e", "f"))
        shape = _RowShape(a)
        assert shape.non_e == (0, 1, 3)
        assert shape.d_positions == (1,)
        # Row ("k", x, z): the d value sits at row index 1.
        assert shape.binding_of(("k", 5, 9)) == (5,)

    def test_all_free(self):
        a = AdornedAtom(atom("p", X, Y), ("f", "f"))
        shape = _RowShape(a)
        assert shape.non_e == (0, 1)
        assert shape.binding_of((1, 2)) == ()


class Sink:
    """Collects messages addressed to it."""

    def __init__(self, node_id=99):
        self.node_id = node_id
        self.rows = []
        self.ends = []

    def handle(self, message, network):
        if isinstance(message, TupleMessage):
            self.rows.append(message.row)
        elif isinstance(message, TupleSet):
            self.rows.extend(message.rows)
        else:
            self.ends.append(message)

    def on_idle_check(self, network):
        pass


def leaf_fixture(adorned, rows):
    db = Database.from_tuples({adorned.predicate: rows})
    leaf = EdbLeafProcess(1, adorned, db)
    sink = Sink()
    leaf.add_consumer(99, wants_all=not adorned.dynamic_positions)
    scheduler = Scheduler()
    scheduler.register(leaf)
    scheduler.register(sink)
    return leaf, sink, scheduler


class TestEdbLeaf:
    def test_full_scan_on_relation_request(self):
        adorned = AdornedAtom(atom("e", X, Y), ("f", "f"))
        leaf, sink, scheduler = leaf_fixture(adorned, [(1, 2), (3, 4)])
        scheduler.send(RelationRequest(99, 1, adorned.adornment))
        scheduler.run()
        assert sorted(sink.rows) == [(1, 2), (3, 4)]
        assert len(sink.ends) == 1  # end after the scan

    def test_constant_filter(self):
        adorned = AdornedAtom(atom("e", "a", Y), ("c", "f"))
        leaf, sink, scheduler = leaf_fixture(adorned, [("a", 1), ("b", 2), ("a", 3)])
        scheduler.send(RelationRequest(99, 1, adorned.adornment))
        scheduler.run()
        assert sorted(sink.rows) == [("a", 1), ("a", 3)]

    def test_tuple_request_semijoin(self):
        adorned = AdornedAtom(atom("e", X, Y), ("d", "f"))
        leaf, sink, scheduler = leaf_fixture(adorned, [(1, 2), (1, 3), (2, 4)])
        scheduler.send(RelationRequest(99, 1, adorned.adornment))
        scheduler.send(TupleRequest(99, 1, (1,), 1))
        scheduler.run()
        assert sorted(sink.rows) == [(1, 2), (1, 3)]

    def test_repeated_variable_equality(self):
        adorned = AdornedAtom(atom("e", X, X), ("f", "f"))
        leaf, sink, scheduler = leaf_fixture(adorned, [(1, 1), (1, 2), (3, 3)])
        scheduler.send(RelationRequest(99, 1, adorned.adornment))
        scheduler.run()
        assert sorted(sink.rows) == [(1, 1), (3, 3)]

    def test_existential_positions_projected_and_deduplicated(self):
        # e(X^f, W^e): one row per distinct X even with many W partners.
        W = Variable("W")
        adorned = AdornedAtom(atom("e", X, W), ("f", "e"))
        leaf, sink, scheduler = leaf_fixture(adorned, [(1, 10), (1, 20), (2, 30)])
        scheduler.send(RelationRequest(99, 1, adorned.adornment))
        scheduler.run()
        assert sorted(sink.rows) == [(1,), (2,)]

    def test_overlapping_tuple_requests_not_resent(self):
        adorned = AdornedAtom(atom("e", X, Y), ("d", "f"))
        leaf, sink, scheduler = leaf_fixture(adorned, [(1, 2)])
        scheduler.send(RelationRequest(99, 1, adorned.adornment))
        scheduler.send(TupleRequest(99, 1, (1,), 1))
        scheduler.send(TupleRequest(99, 1, (1,), 2))
        scheduler.run()
        assert sink.rows == [(1, 2)]  # per-stream dedup
        # And the final end covers the latest request.
        assert sink.ends[-1].upto == 2

    def test_inconsistent_binding_with_constant_ignored(self):
        adorned = AdornedAtom(atom("e", "a", Y), ("c", "f"))
        db = Database.from_tuples({"e": [("a", 1)]})
        leaf = EdbLeafProcess(1, adorned, db)
        # Force a d-position artificially via a tuple request on position 0:
        # the shape has no d positions, so binding is empty; nothing breaks.
        sink = Sink()
        leaf.add_consumer(99, wants_all=True)
        scheduler = Scheduler()
        scheduler.register(leaf)
        scheduler.register(sink)
        scheduler.send(RelationRequest(99, 1, adorned.adornment))
        scheduler.run()
        assert sink.rows == [("a", 1)]
