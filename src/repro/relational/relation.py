"""In-memory relations with named columns and hash indexes.

Each node of the rule/goal graph "performs a relational computation"
(Section 2.2): predicate nodes union their children's relations, rule nodes
combine subgoal relations with join, select, and project.  This module is
that relational substrate — a compact, set-based implementation with
memoized hash indexes so that the semijoin-style restriction driven by class
"d" arguments is cheap.

Algebra results are *value-semantic*: every operation returns a new
:class:`Relation` over its own copy of the rows.  The one mutator is
:meth:`Relation.extend`, the EDB's growth path: a relation held by a live
:class:`~repro.relational.database.Database` is a *growing view* — its
``rows`` set, its memoized indexes and the bucket lists ``lookup`` hands out
all grow in place when facts are added, so a write costs O(|new rows|), not
O(|relation|).  Callers that must keep a snapshot across a write copy what
they read (the engine's leaves do: rows enter a message as a fresh set).
"""

from __future__ import annotations

import operator
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

__all__ = ["Relation", "Row"]

#: One tuple of a relation — plain Python tuples of hashable values.
Row = tuple


class Relation:
    """A named-column set of tuples.

    Parameters
    ----------
    columns:
        Distinct column names, defining the schema and tuple positions.
    rows:
        Iterable of tuples, each with exactly ``len(columns)`` entries.
    """

    __slots__ = ("columns", "_rows", "_indexes")

    def __init__(self, columns: Sequence[str], rows: Iterable[Row] = ()) -> None:
        cols = tuple(columns)
        if len(set(cols)) != len(cols):
            raise ValueError(f"duplicate column names in {cols}")
        self.columns: tuple[str, ...] = cols
        materialized = set(map(tuple, rows))
        for row in materialized:
            if len(row) != len(cols):
                raise ValueError(f"row {row} does not match schema {cols}")
        # A copy, not ``materialized`` itself: copying sizes the hash table
        # for its contents, where row-by-row insertion leaves up to 2x slack.
        self._rows: set[Row] = set(materialized)
        self._indexes: dict[tuple[int, ...], dict[Row, list[Row]]] = {}

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    @property
    def rows(self) -> AbstractSet[Row]:
        """The tuple set — read-only, and live: it grows with :meth:`extend`."""
        return self._rows

    @property
    def index_positions(self) -> tuple[tuple[int, ...], ...]:
        """The column-position tuples a hash index has been built over."""
        return tuple(self._indexes)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.columns == other.columns and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.columns, frozenset(self._rows)))

    def __repr__(self) -> str:
        preview = ", ".join(map(str, sorted(self._rows, key=repr)[:4]))
        suffix = ", ..." if len(self._rows) > 4 else ""
        return f"Relation({self.columns}, {{{preview}{suffix}}})"

    def is_empty(self) -> bool:
        """True iff the relation holds no tuples."""
        return not self._rows

    # ------------------------------------------------------------------
    # Schema helpers
    # ------------------------------------------------------------------
    def position(self, column: str) -> int:
        """Index of ``column`` in the schema (raises ``ValueError`` if absent)."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise ValueError(f"no column {column!r} in schema {self.columns}") from None

    def positions(self, columns: Sequence[str]) -> tuple[int, ...]:
        """Indices of several columns, in the given order."""
        return tuple(self.position(c) for c in columns)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def index(self, columns: Sequence[str]) -> Mapping[Row, list[Row]]:
        """A hash index: key tuple over ``columns`` -> rows having that key."""
        return self.index_on(self.positions(columns))

    def index_on(self, pos: tuple[int, ...]) -> Mapping[Row, list[Row]]:
        """A hash index: key tuple over positions ``pos`` -> rows having it.

        Indexes are built lazily and memoized by position tuple; the cache
        never invalidates because :meth:`extend` grows every memoized index
        along with the rows.  The paper's footnote on "packaged" tuple
        requests observes an index over an EDB relation can be built in one
        scan — this is that one scan.
        """
        cached = self._indexes.get(pos)
        if cached is None:
            cached = {}
            if len(pos) == 1:
                # C-level key gather; zip re-boxes the bare values as the
                # 1-tuple keys the lookup contract expects.
                keys: Iterable[Row] = zip(map(operator.itemgetter(pos[0]), self._rows))
            elif pos:
                keys = map(operator.itemgetter(*pos), self._rows)
            else:
                keys = iter([()] * len(self._rows))
            for key, row in zip(keys, self._rows):
                cached.setdefault(key, []).append(row)
            self._indexes[pos] = cached
        return cached

    def lookup(self, columns: Sequence[str], key: Row) -> list[Row]:
        """Rows whose ``columns`` projection equals ``key`` (via the index)."""
        return self.index(columns).get(tuple(key), [])

    def extend(self, rows: Iterable[Row]) -> int:
        """Grow this relation in place; returns how many rows were new.

        The incremental-growth path of a long-lived session.  New rows are
        added to the row set and appended to the bucket they land in of
        every memoized index — O(|new rows| x |indexes|), independent of
        the relation's size; nothing is copied.  Validation comes first: a
        row of the wrong arity raises before anything is touched.

        Single writer, no concurrent readers: the caller (the session's
        ``add_facts``, under the service's write lock) guarantees nobody
        is iterating ``rows`` or a bucket while this runs.  A bucket list
        obtained from :meth:`lookup` earlier is the live bucket and sees
        the appended rows.
        """
        arity = len(self.columns)
        present = self._rows
        added = [
            row for row in dict.fromkeys(map(tuple, rows)) if row not in present
        ]
        for row in added:
            if len(row) != arity:
                raise ValueError(f"row {row} does not match schema {self.columns}")
        present.update(added)
        for pos, index in self._indexes.items():
            for row in added:
                key = tuple(row[i] for i in pos)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
        return len(added)

    # ------------------------------------------------------------------
    # Core operations (select / project / rename / union / difference)
    # ------------------------------------------------------------------
    def select_eq(self, bindings: Mapping[str, object]) -> "Relation":
        """Selection by column-value equality, using an index when possible."""
        if not bindings:
            return self
        cols = tuple(sorted(bindings))
        key = tuple(bindings[c] for c in cols)
        return Relation(self.columns, self.lookup(cols, key))

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Selection by an arbitrary row predicate (full scan)."""
        return Relation(self.columns, (r for r in self._rows if predicate(r)))

    def project(self, columns: Sequence[str]) -> "Relation":
        """Projection with duplicate elimination (set semantics)."""
        pos = self.positions(columns)
        return Relation(columns, (tuple(r[i] for i in pos) for r in self._rows))

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename columns; unmentioned columns keep their names."""
        new_cols = tuple(mapping.get(c, c) for c in self.columns)
        return Relation(new_cols, self._rows)

    def union(self, other: "Relation") -> "Relation":
        """Set union; schemas must match exactly."""
        if self.columns != other.columns:
            raise ValueError(f"union schema mismatch: {self.columns} vs {other.columns}")
        return Relation(self.columns, self._rows | other._rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference; schemas must match exactly."""
        if self.columns != other.columns:
            raise ValueError(f"difference schema mismatch: {self.columns} vs {other.columns}")
        return Relation(self.columns, self._rows - other._rows)

    def distinct_values(self, column: str) -> set[object]:
        """The active domain of one column."""
        pos = self.position(column)
        return {r[pos] for r in self._rows}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Relation":
        """An empty relation over the given schema."""
        return cls(columns, ())

    @classmethod
    def from_pairs(cls, columns: Sequence[str], pairs: Iterable[Sequence[object]]) -> "Relation":
        """Build a relation, coercing each row to a tuple."""
        return cls(columns, (tuple(p) for p in pairs))
