"""Unit tests for the EDB Database wrapper."""

import pytest

from repro.core.atoms import atom
from repro.relational.database import Database, columns_for


class TestConstruction:
    def test_from_facts_groups_by_predicate(self):
        db = Database.from_facts([atom("e", 1, 2), atom("e", 2, 3), atom("v", 1)])
        assert db.predicates() == ["e", "v"]
        assert len(db.relation("e")) == 2
        assert db.relation("e").columns == ("a0", "a1")

    def test_from_facts_arity_conflict(self):
        with pytest.raises(ValueError):
            Database.from_facts([atom("e", 1), atom("e", 1, 2)])

    def test_from_tuples(self):
        db = Database.from_tuples({"e": [(1, 2)], "v": [(9,)]})
        assert (1, 2) in db.relation("e")

    def test_columns_for(self):
        assert columns_for(3) == ("a0", "a1", "a2")
        assert columns_for(2, "x") == ("x0", "x1")

    def test_unknown_predicate_gives_empty(self):
        db = Database()
        assert db.relation("nope").is_empty()
        assert db.relation_or_empty("nope", 2).columns == ("a0", "a1")

    def test_add_relation(self):
        from repro.relational.relation import Relation

        db = Database()
        db.add_relation("e", Relation(("a0", "a1"), [(1, 2)]))
        assert "e" in db


class TestAccessCounting:
    def setup_method(self):
        self.db = Database.from_tuples({"e": [(1, 2), (1, 3), (2, 3)]})

    def test_scan_counts(self):
        rel = self.db.scan("e")
        assert len(rel) == 3
        assert self.db.scans == 1
        assert self.db.rows_retrieved == 3

    def test_lookup_bound_position(self):
        rows = self.db.lookup("e", (0,), (1,))
        assert sorted(rows) == [(1, 2), (1, 3)]
        assert self.db.indexed_lookups == 1
        assert self.db.rows_retrieved == 2

    def test_lookup_two_positions(self):
        assert self.db.lookup("e", (0, 1), (1, 3)) == [(1, 3)]

    def test_lookup_no_bindings_is_full_retrieval(self):
        rows = self.db.lookup("e", (), ())
        assert len(rows) == 3

    def test_lookup_unknown_predicate(self):
        assert self.db.lookup("nope", (0,), (1,)) == []

    def test_lookup_many_counts_like_separate_lookups(self):
        keys = [(1,), (9,), (2,)]
        separate = Database.from_tuples({"e": [(1, 2), (1, 3), (2, 3)]})
        expected = [row for key in keys for row in separate.lookup("e", (0,), key)]
        assert self.db.lookup_many("e", (0,), keys) == expected
        assert self.db.counters() == separate.counters() == (0, 3, 3)

    def test_lookup_many_without_positions_repeats_the_relation(self):
        rows = self.db.lookup_many("e", (), [(), ()])
        assert sorted(rows) == sorted(list(self.db.relation("e").rows) * 2)
        assert (self.db.indexed_lookups, self.db.rows_retrieved) == (2, 6)
        assert self.db.lookup_many("nope", (0,), [(1,)]) == []
        assert self.db.indexed_lookups == 2

    def test_reset_counters(self):
        self.db.scan("e")
        self.db.reset_counters()
        assert self.db.scans == 0 and self.db.rows_retrieved == 0

    def test_total_rows(self):
        assert self.db.total_rows() == 3

    def test_facts_roundtrip(self):
        facts = list(self.db.facts())
        assert atom("e", 1, 2) in facts
        assert len(facts) == 3
