"""In-place growth: Relation.extend and Database.add_facts.

A relation held by a live database grows where it stands: same object,
same row set, same index dicts, same bucket lists.  These tests pin that
(nothing sized like the relation is rebuilt), that the grown state equals
a from-scratch build, and that a rejected batch touches nothing.
"""

import pytest

from repro.core.atoms import atom
from repro.core.parser import parse_program
from repro.network.engine import MessagePassingEngine
from repro.network.messages import TupleSet
from repro.relational.database import Database
from repro.relational.relation import Relation


def index_contents(relation):
    """``{positions: {key: sorted bucket}}`` — order inside a bucket is free."""
    return {
        pos: {key: sorted(bucket) for key, bucket in index.items()}
        for pos, index in relation._indexes.items()
    }


class TestRelationExtend:
    def test_grows_in_place_and_counts_new_rows(self):
        rel = Relation(("a0", "a1"), [(1, 2), (3, 4)])
        rows = rel.rows
        assert rel.extend([(5, 6), (1, 2), (5, 6)]) == 1
        assert len(rel) == 3 and (5, 6) in rel
        assert rel.rows is rows  # the live view, not a copy

    def test_duplicates_and_empty_batches_change_nothing(self):
        rel = Relation(("a0",), [(1,), (2,)])
        rel.index(("a0",))
        before = index_contents(rel)
        assert rel.extend([(1,), (2,)]) == 0
        assert rel.extend([]) == 0
        assert len(rel) == 2 and index_contents(rel) == before

    def test_arity_mismatch_raises_before_touching_rows_or_indexes(self):
        rel = Relation(("a0", "a1"), [(1, 2)])
        rel.index(("a0",))
        before = index_contents(rel)
        with pytest.raises(ValueError):
            rel.extend([(7, 8), (1, 2, 3)])  # the good row must not land either
        assert set(rel.rows) == {(1, 2)}
        assert index_contents(rel) == before

    def test_memoized_indexes_grow_without_a_rebuild(self):
        rel = Relation(("a0", "a1"), [(1, "x"), (2, "y")])
        index = rel.index(("a0",))
        bucket = rel.lookup(("a0",), (1,))
        rel.extend([(1, "z"), (3, "w")])
        assert rel.index(("a0",)) is index  # same dict ...
        assert rel.lookup(("a0",), (1,)) is bucket  # ... same touched bucket
        assert sorted(bucket) == [(1, "x"), (1, "z")]
        assert rel.lookup(("a0",), (3,)) == [(3, "w")]

    def test_every_index_shape_equals_a_from_scratch_rebuild(self):
        rows = [(i % 3, i % 5, i) for i in range(30)]
        extra = [(i % 4, i % 7, 100 + i) for i in range(20)]
        grown = Relation(("a0", "a1", "a2"), rows)
        for columns in [("a0",), ("a1",), ("a0", "a1"), ("a2", "a0"), ()]:
            grown.index(columns)
        grown.extend(extra)
        fresh = Relation(("a0", "a1", "a2"), rows + extra)
        for pos in grown.index_positions:
            fresh.index(tuple(fresh.columns[i] for i in pos))
        assert grown == fresh
        assert index_contents(grown) == index_contents(fresh)

    def test_an_index_built_after_growth_sees_every_row(self):
        rel = Relation(("a0",), [(0,)])
        for i in range(1, 50):
            rel.extend([(i,)])
        assert len(rel) == 50
        assert rel.lookup(("a0",), (25,)) == [(25,)]

    def test_algebra_results_do_not_follow_the_source(self):
        rel = Relation(("a0", "a1"), [(1, 2)])
        renamed = rel.rename({"a0": "x"})
        selected = rel.select_eq({"a0": 1})
        rel.extend([(1, 3)])
        assert set(renamed.rows) == {(1, 2)}
        assert set(selected.rows) == {(1, 2)}


class TestDatabaseAddFacts:
    def test_new_predicate(self):
        db = Database.from_facts([atom("p", "a", "b")])
        db.add_facts([atom("q", "c")])
        assert "q" in db
        assert len(db.relation("q")) == 1

    def test_existing_predicate_grows(self):
        db = Database.from_facts([atom("p", "a", "b")])
        db.add_facts([atom("p", "b", "c"), atom("p", "c", "d")])
        assert len(db.relation("p")) == 3
        assert db.total_rows() == 3

    def test_relation_is_a_live_view_with_its_indexes(self):
        db = Database.from_facts([atom("p", "a", "b")])
        assert db.lookup("p", {0: "a"}) == [("a", "b")]
        relation = db.relation("p")
        db.add_facts([atom("p", "a", "c")])
        assert db.relation("p") is relation
        assert ("a", "c") in relation
        assert sorted(db.lookup("p", {0: "a"})) == [("a", "b"), ("a", "c")]

    def test_grown_indexes_equal_a_from_scratch_database(self):
        base = [atom("e", i, i + 1) for i in range(40)]
        extra = [atom("e", i % 10, 1000 + i) for i in range(25)]
        db = Database.from_facts(base)
        for bound in [{0: 3}, {1: 4}, {0: 3, 1: 4}]:
            db.lookup("e", bound)
        db.add_facts(extra[:10])
        db.add_facts(extra[10:])
        fresh = Database.from_facts(base + extra)
        for bound in [{0: 3}, {1: 4}, {0: 3, 1: 4}]:
            fresh.lookup("e", bound)
        assert db.relation("e") == fresh.relation("e")
        assert index_contents(db.relation("e")) == index_contents(fresh.relation("e"))

    def test_write_counters_follow_the_batch(self):
        db = Database.from_facts([atom("e", i, i + 1) for i in range(100)])
        db.lookup("e", {0: 1})
        db.lookup("e", {1: 2})
        version = db.version
        db.add_facts([atom("e", 1, 500), atom("e", 1, 501), atom("e", 0, 1)])
        assert (db.rows_added, db.index_entries_added) == (2, 4)
        assert db.version == version + 1
        db.add_facts([atom("e", 1, 500)])  # nothing new: contents unchanged
        assert (db.rows_added, db.index_entries_added) == (2, 4)
        assert db.version == version + 1

    def test_arity_mismatch_within_batch_is_atomic(self):
        db = Database.from_facts([atom("p", "a", "b")])
        with pytest.raises(ValueError):
            db.add_facts([atom("q", "x"), atom("q", "y", "z")])
        assert "q" not in db
        assert db.total_rows() == 1

    def test_arity_mismatch_with_existing_leaves_rows_and_indexes_untouched(self):
        db = Database.from_facts([atom("p", "a", "b"), atom("r", "x")])
        db.lookup("p", {0: "a"})
        db.lookup("r", {0: "x"})
        before = {name: index_contents(db.relation(name)) for name in ("p", "r")}
        version = db.version
        with pytest.raises(ValueError):
            db.add_facts([atom("r", "y"), atom("s", "new"), atom("p", "only-one")])
        assert "s" not in db  # the valid groups were not applied either
        assert set(db.relation("r").rows) == {("x",)}
        assert set(db.relation("p").rows) == {("a", "b")}
        assert {name: index_contents(db.relation(name)) for name in ("p", "r")} == before
        assert (db.version, db.rows_added, db.index_entries_added) == (version, 0, 0)

    def test_counters_snapshot(self):
        db = Database.from_facts([atom("p", "a", "b")])
        assert db.counters() == (0, 0, 0)
        db.scan("p")
        db.lookup("p", {0: "a"})
        assert db.counters() == (1, 1, 2)


class TestInFlightMessagesAreSnapshots:
    """``lookup`` hands out the live bucket; the engine's leaves copy at the
    message boundary, so a message queued before a write never grows."""

    PROGRAM = """
        goal(Y) <- r(a, Y).
        r(X, Y) <- e(X, Y).
        e(a, 1). e(a, 2). e(b, 3).
    """

    def test_a_queued_tuple_set_is_not_grown_by_a_later_write(self):
        program = parse_program(self.PROGRAM)
        database = Database.from_facts(program.facts)
        engine = MessagePassingEngine(program, database=database)
        engine.driver.start(engine.scheduler)
        in_flight = None
        while in_flight is None:  # run until a leaf's answer is on the wire
            engine.scheduler.step()
            in_flight = next(
                (m for _, _, m in engine.scheduler._heap if isinstance(m, TupleSet)), None
            )
        bucket = database.lookup("e", {0: "a"})
        carried = set(in_flight.rows)
        database.add_facts([atom("e", "a", 9)])
        assert ("a", 9) in bucket  # the handed-out bucket is the live one
        assert set(in_flight.rows) == carried  # the message is its own copy
        engine.scheduler.run()
        # The cold run converges on what it was served; the delta wave
        # brings in the row committed mid-flight.
        assert engine.driver.answers == {(1,), (2,)}
        assert engine.run_delta([atom("e", "a", 9)]).answers == {(1,), (2,), (9,)}
