"""The EDB access surface the engine and the planner read.

Every id in this module keeps a retired name: the SQLite backend these
tests once drove is gone, and each test now checks the same access API —
``predicates`` / ``relation`` / ``scan`` / ``lookup`` / ``facts`` and the
access counters — on :meth:`Database.from_tuples`, the in-memory EDB the
engine serves leaf requests from.
"""

import pytest

from repro.baselines import naive
from repro.core.atoms import atom
from repro.core.parser import parse_program
from repro.network.engine import MessagePassingEngine
from repro.relational.database import Database
from repro.workloads import chain_edges, facts_from_tables


@pytest.fixture
def db():
    return Database.from_tuples({"e": [(1, 2), (1, 3), (2, 3)], "v": [("x",)]})


class TestAccess:
    def test_predicates(self, db):
        assert db.predicates() == ["e", "v"]
        assert "e" in db and "nope" not in db

    def test_relation_snapshot(self, db):
        rel = db.relation("e")
        assert rel.columns == ("a0", "a1")
        assert (1, 2) in rel

    def test_unknown_relation_empty(self, db):
        assert db.relation("nope").is_empty()
        assert db.relation_or_empty("nope", 2).columns == ("a0", "a1")

    def test_scan_counts(self, db):
        rel = db.scan("e")
        assert len(rel) == 3
        assert db.scans == 1 and db.rows_retrieved == 3

    def test_lookup_single_position(self, db):
        rows = db.lookup("e", (0,), (1,))
        assert sorted(rows) == [(1, 2), (1, 3)]
        assert db.indexed_lookups == 1

    def test_lookup_two_positions(self, db):
        assert db.lookup("e", (0, 1), (1, 3)) == [(1, 3)]

    def test_lookup_second_position_uses_index(self, db):
        # The footnote-2 scenario: position-1 lookups are indexed too.
        assert sorted(db.lookup("e", (1,), (3,))) == [(1, 3), (2, 3)]
        assert db.relation("e").index_positions

    def test_lookup_no_bindings(self, db):
        assert len(db.lookup("e", (), ())) == 3

    def test_facts_roundtrip(self, db):
        facts = list(db.facts())
        assert atom("e", 1, 2) in facts
        assert atom("v", "x") in facts

    def test_total_rows_and_reset(self, db):
        assert db.total_rows() == 4
        db.scan("e")
        db.reset_counters()
        assert db.scans == 0

    def test_from_facts(self):
        db = Database.from_facts([atom("p", "a", 1), atom("p", "b", 2)])
        assert db.total_rows() == 2


class TestEngineIntegration:
    def test_query_over_sqlite(self):
        # Rules only; the EDB is a separately built database.
        rules = parse_program(
            """
            goal(Z) <- t(0, Z).
            t(X, Y) <- e(X, Y).
            t(X, Y) <- e(X, U), t(U, Y).
            """
        )
        edges = chain_edges(8)
        db = Database.from_tuples({"e": edges})
        engine = MessagePassingEngine(rules, database=db)
        result = engine.run()
        oracle = naive.goal_answers(rules.with_facts(facts_from_tables({"e": edges})))
        assert result.answers == oracle
        # The engine really read the shared database.
        assert db.indexed_lookups + db.scans > 0

    def test_same_answers_as_in_memory(self):
        rules = parse_program(
            """
            goal(Z) <- anc(a, Z).
            anc(X, Y) <- par(X, Y).
            anc(X, Y) <- par(X, U), anc(U, Y).
            """
        )
        par = [("a", "b"), ("b", "c"), ("c", "d")]
        inline = rules.with_facts(facts_from_tables({"par": par}))
        in_memory = MessagePassingEngine(inline).run()
        shared = MessagePassingEngine(
            rules, database=Database.from_tuples({"par": par})
        ).run()
        assert shared.answers == in_memory.answers

    def test_statistics_from_sqlite(self):
        from repro.core.optimizer import EdbStatistics

        db = Database.from_tuples({"e": [(i, i % 3) for i in range(30)]})
        stats = EdbStatistics.from_database(db)
        assert stats.cardinality("e") == 30
        assert stats.distinct("e", 1) == 3
