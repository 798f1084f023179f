"""Unit tests for the Relation data structure."""

import pytest

from repro.relational.relation import Relation


@pytest.fixture
def edges() -> Relation:
    return Relation(("src", "dst"), [(1, 2), (2, 3), (1, 3)])


class TestConstruction:
    def test_schema_and_rows(self, edges):
        assert edges.columns == ("src", "dst")
        assert edges.arity == 2
        assert len(edges) == 3

    def test_duplicate_rows_collapse(self):
        r = Relation(("a",), [(1,), (1,), (2,)])
        assert len(r) == 2

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Relation(("a", "a"), [])

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            Relation(("a", "b"), [(1,)])

    def test_empty_factory(self):
        r = Relation.empty(("x", "y"))
        assert r.is_empty() and r.columns == ("x", "y")

    def test_from_pairs_coerces(self):
        r = Relation.from_pairs(("a", "b"), [[1, 2], (3, 4)])
        assert (1, 2) in r and (3, 4) in r

    def test_equality_and_hash(self, edges):
        same = Relation(("src", "dst"), [(2, 3), (1, 2), (1, 3)])
        assert edges == same
        assert hash(edges) == hash(same)
        assert edges != Relation(("src", "dst"), [(1, 2)])


class TestAccess:
    def test_membership(self, edges):
        assert (1, 2) in edges
        assert (9, 9) not in edges

    def test_position_lookup(self, edges):
        assert edges.position("dst") == 1
        with pytest.raises(ValueError):
            edges.position("nope")

    def test_index_groups_rows(self, edges):
        index = edges.index(("src",))
        assert sorted(index[(1,)]) == [(1, 2), (1, 3)]
        assert index[(2,)] == [(2, 3)]

    def test_index_memoized(self, edges):
        assert edges.index(("src",)) is edges.index(("src",))

    def test_index_memoized_by_positions(self, edges):
        assert edges.index(("dst", "src")) is edges.index_on((1, 0))
        assert edges.index_on((1, 0)) is not edges.index_on((0, 1))
        assert edges.index_positions == ((1, 0), (0, 1))

    def test_lookup_missing_key(self, edges):
        assert edges.lookup(("src",), (42,)) == []

    def test_distinct_values(self, edges):
        assert edges.distinct_values("src") == {1, 2}


class TestOperations:
    def test_select_eq_uses_values(self, edges):
        out = edges.select_eq({"src": 1})
        assert set(out.rows) == {(1, 2), (1, 3)}

    def test_select_eq_multi_column(self, edges):
        out = edges.select_eq({"src": 1, "dst": 3})
        assert set(out.rows) == {(1, 3)}

    def test_select_eq_empty_bindings_is_identity(self, edges):
        assert edges.select_eq({}) is edges

    def test_select_predicate(self, edges):
        out = edges.select(lambda r: r[0] + 1 == r[1])
        assert set(out.rows) == {(1, 2), (2, 3)}

    def test_project_deduplicates(self, edges):
        out = edges.project(("src",))
        assert set(out.rows) == {(1,), (2,)}

    def test_project_reorders(self, edges):
        out = edges.project(("dst", "src"))
        assert (2, 1) in out

    def test_rename(self, edges):
        out = edges.rename({"src": "from"})
        assert out.columns == ("from", "dst")
        assert set(out.rows) == set(edges.rows)

    def test_union(self, edges):
        other = Relation(("src", "dst"), [(9, 9)])
        assert len(edges.union(other)) == 4

    def test_union_schema_mismatch(self, edges):
        with pytest.raises(ValueError):
            edges.union(Relation(("x", "y"), []))

    def test_difference(self, edges):
        out = edges.difference(Relation(("src", "dst"), [(1, 2)]))
        assert set(out.rows) == {(2, 3), (1, 3)}

    def test_difference_schema_mismatch(self, edges):
        with pytest.raises(ValueError):
            edges.difference(Relation(("x",), []))
