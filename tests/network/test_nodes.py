"""Unit tests for node-process building blocks: streams, shapes, EDB leaves."""

import pytest

from repro.core.adornment import AdornedAtom
from repro.core.atoms import atom
from repro.core.parser import parse_program
from repro.core.terms import Variable
from repro.network.messages import (
    ColumnBatch,
    RelationRequest,
    TupleMessage,
    TupleRequest,
    TupleSet,
)
from repro.network.engine import MessagePassingEngine
from repro.network.nodes import (
    ConsumerStream,
    CyclicNodeProcess,
    EdbLeafProcess,
    FeederStream,
    GoalNodeProcess,
    RuleNodeProcess,
    _RowShape,
)
from repro.network.scheduler import Scheduler
from repro.relational.database import Database
from repro.workloads import (
    ancestor_program,
    chain_edges,
    cycle_edges,
    facts_from_tables,
    nonlinear_tc_program,
    random_digraph_edges,
)

from tests.helpers import with_tables

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
        # Rows carry "d"/"f" values only: the "c" constant is fixed by the
        # graph and the "e" value is never sent.
        a = AdornedAtom(atom("p", "k", X, Y, Z), ("c", "d", "e", "f"))
        shape = _RowShape(a)
        assert shape.row_positions == (1, 3)
        assert shape.d_positions == (1,)
        # Row (x, z): the d value sits at row index 0.
        assert shape.binding_of((5, 9)) == (5,)

    def test_all_free(self):
        a = AdornedAtom(atom("p", X, Y), ("f", "f"))
        shape = _RowShape(a)
        assert shape.row_positions == (0, 1)
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
        # Selected on the constant, which then leaves the row.
        assert sorted(sink.rows) == [(1,), (3,)]

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
        assert sink.rows == [(1,)]


class TestKernelLayout:
    """The row and environment layout is fixed when the graph is built:
    rows carry "d"/"f" values only, and an environment whose layout equals
    its row's is that row object, not a copy."""

    def run_left_recursive_tc(self):
        program = parse_program(
            """
            goal(Z) <- t(a, Z).
            t(X, Y) <- e(X, Y).
            t(X, Y) <- t(X, U), e(U, Y).
            e(a, b).  e(b, c).  e(c, a).  e(c, d).
            """
        )
        engine = MessagePassingEngine(program)
        result = engine.run()
        assert result.answers == {("a",), ("b",), ("c",), ("d",)}
        return engine

    def test_constants_compiled_out_and_envs_are_rows(self):
        engine = self.run_left_recursive_tc()
        rule_nodes = [
            p for p in engine.processes.values() if isinstance(p, RuleNodeProcess)
        ]
        assert len(rule_nodes) == 3
        for node in rule_nodes:
            assert [stage.row_perm for stage in node.stages] == ["id"] * len(node.stages)
            final = node.stages[-1]
            assert final.envs
            received = {row: row for row in final.rows}
            assert all(received[env] is env for env in final.envs)

        def width(adorned):
            return sum(letter in "df" for letter in adorned.adornment)

        for process in engine.processes.values():
            if isinstance(process, GoalNodeProcess):
                rows = process.answers
            elif isinstance(process, CyclicNodeProcess):
                rows = process.rows
            elif isinstance(process, RuleNodeProcess):
                for stage in process.stages:
                    assert all(len(r) <= width(stage.adorned) for r in stage.rows)
                continue
            else:
                continue
            assert all(len(row) <= width(process.adorned) for row in rows)

    def test_identity_gather_copies_nothing(self):
        rows = [(1, "x"), (2, "y")]
        batch = ColumnBatch(rows)
        assert all(out is row for out, row in zip(batch.project(range(2)), rows))
        assert batch.project((1, 0)) == [("x", 1), ("y", 2)]


def cyclic_nodes(engine):
    return [
        process
        for process in engine.processes.values()
        if isinstance(process, CyclicNodeProcess)
    ]


def assert_index_matches_rows(engine):
    """Every cyclic node's by-binding index is its rows grouped by binding."""
    nodes = cyclic_nodes(engine)
    assert any(node.shape.d_in_row and node.rows for node in nodes)
    for node in nodes:
        if not node.shape.d_in_row:
            assert node.rows_by_binding == {}
            continue
        grouped: dict = {}
        for row in node.rows:
            grouped.setdefault(node.shape.binding_of(row), set()).add(row)
        assert {b: set(rows) for b, rows in node.rows_by_binding.items()} == grouped
        indexed = sum(len(rows) for rows in node.rows_by_binding.values())
        assert indexed == len(node.rows)  # no row indexed twice


class TestCyclicRowIndex:
    def test_linear_tc_over_a_cycle(self):
        program = with_tables(ancestor_program(0), {"par": cycle_edges(9)})
        engine = MessagePassingEngine(program)
        assert engine.run().completed
        assert_index_matches_rows(engine)

    def test_linear_ancestor(self):
        program = with_tables(ancestor_program(0), {"par": chain_edges(14)})
        engine = MessagePassingEngine(program)
        assert engine.run().completed
        assert_index_matches_rows(engine)

    def test_nonlinear_tc(self):
        edges = random_digraph_edges(15, 40, seed=2)
        program = with_tables(nonlinear_tc_program(edges[0][0]), {"e": edges})
        engine = MessagePassingEngine(program, seed=3)
        assert engine.run().completed
        assert_index_matches_rows(engine)

    def test_after_delta_waves(self):
        edges = chain_edges(10)
        program = with_tables(nonlinear_tc_program(0), {"e": edges[:5]})
        engine = MessagePassingEngine(program)
        engine.run()
        for batch in (edges[5:8], edges[8:] + [(9, 2)]):
            delta = facts_from_tables({"e": batch})
            engine.database.add_facts(delta)
            result = engine.run_delta(delta)
            assert result.completed and result.new_answers
            assert_index_matches_rows(engine)
        full = with_tables(nonlinear_tc_program(0), {"e": edges + [(9, 2)]})
        assert result.answers == MessagePassingEngine(full).run().answers
