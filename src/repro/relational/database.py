"""The extensional database (EDB): named relations of ground facts.

"The EDB may be viewed as a conventional relational database" (Section 1).
:class:`Database` maps predicate names to :class:`Relation` objects with
canonical column names ``a0, a1, ...`` and tracks retrieval counts so the
benchmarks can report database access work alongside join work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from ..core.atoms import Atom
from .relation import Relation, Row

__all__ = ["Database", "columns_for"]


def columns_for(arity: int, prefix: str = "a") -> tuple[str, ...]:
    """Canonical positional column names for an ``arity``-ary predicate."""
    return tuple(f"{prefix}{i}" for i in range(arity))


@dataclass
class Database:
    """A set of EDB relations keyed by predicate name."""

    _relations: dict[str, Relation] = field(default_factory=dict)
    scans: int = 0
    indexed_lookups: int = 0
    rows_retrieved: int = 0
    #: Mutation counter: bumped by every change to the stored facts, never
    #: by reads.  Anything derived from the contents (the cluster runtime's
    #: pickled edb part) is current exactly while this still reads the same.
    version: int = field(default=0, compare=False)
    #: Write-side work counters: rows that were genuinely new, and bucket
    #: appends made to already-built indexes, summed over every
    #: :meth:`add_facts`.  They count what a write touched, so a write's
    #: cost can be checked to follow the delta and not the database.
    rows_added: int = field(default=0, compare=False)
    index_entries_added: int = field(default=0, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_facts(cls, facts: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms, grouping by predicate."""
        grouped: dict[str, list[Row]] = {}
        arities: dict[str, int] = {}
        for fact in facts:
            row = fact.ground_tuple()
            previous = arities.setdefault(fact.predicate, len(row))
            if previous != len(row):
                raise ValueError(
                    f"inconsistent arity for EDB predicate {fact.predicate}: "
                    f"{previous} vs {len(row)}"
                )
            grouped.setdefault(fact.predicate, []).append(row)
        db = cls()
        for predicate, rows in grouped.items():
            db._relations[predicate] = Relation(columns_for(arities[predicate]), rows)
        return db

    @classmethod
    def from_tuples(cls, tables: Mapping[str, Iterable[Sequence[object]]]) -> "Database":
        """Build a database from ``{predicate: iterable-of-rows}``."""
        db = cls()
        for predicate, rows in tables.items():
            materialized = [tuple(r) for r in rows]
            if materialized:
                arity = len(materialized[0])
            else:
                arity = 0
            db._relations[predicate] = Relation(columns_for(arity), materialized)
        return db

    def add_relation(self, predicate: str, relation: Relation) -> None:
        """Install (or replace) a relation for ``predicate``."""
        self._relations[predicate] = relation
        self.version += 1

    def add_facts(self, facts: Iterable[Atom]) -> None:
        """Incrementally add ground facts, growing relations in place.

        Validation (arity consistency within the batch and against any
        existing relation) happens *before* any mutation, so a bad batch
        leaves rows and indexes untouched.  Existing relations grow via
        :meth:`Relation.extend`: the same :class:`Relation` object gains
        the new rows and its memoized hash indexes gain the new entries,
        so the cost is O(|batch|) whatever the database holds.  A
        ``Relation`` obtained from this database before the call is
        therefore a live view and shows the new rows afterwards.

        Single-writer: callers serialize writes and keep readers out for
        the duration (the session is single-threaded; the service holds
        its write lock).  ``version`` moves only when a row was new.
        """
        grouped: dict[str, list[Row]] = {}
        arities: dict[str, int] = {}
        for fact in facts:
            row = fact.ground_tuple()
            previous = arities.setdefault(fact.predicate, len(row))
            if previous != len(row):
                raise ValueError(
                    f"inconsistent arity for EDB predicate {fact.predicate}: "
                    f"{previous} vs {len(row)}"
                )
            grouped.setdefault(fact.predicate, []).append(row)
        for predicate, arity in arities.items():
            existing = self._relations.get(predicate)
            if existing is not None and existing.arity != arity:
                raise ValueError(
                    f"inconsistent arity for EDB predicate {predicate}: "
                    f"{existing.arity} vs {arity}"
                )
        rows_added = 0
        for predicate, rows in grouped.items():
            existing = self._relations.get(predicate)
            if existing is None:
                existing = self._relations[predicate] = Relation(
                    columns_for(arities[predicate]), rows
                )
                rows_added += len(existing)
            else:
                added = existing.extend(rows)
                rows_added += added
                self.index_entries_added += added * len(existing.index_positions)
        if rows_added:
            self.rows_added += rows_added
            self.version += 1

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __contains__(self, predicate: str) -> bool:
        return predicate in self._relations

    def predicates(self) -> list[str]:
        """Sorted predicate names present in the database."""
        return sorted(self._relations)

    def relation(self, predicate: str) -> Relation:
        """The full relation for ``predicate`` (empty 0-ary if unknown)."""
        return self._relations.get(predicate, Relation(()))

    def relation_or_empty(self, predicate: str, arity: int) -> Relation:
        """The relation for ``predicate``, or an empty one of given arity."""
        rel = self._relations.get(predicate)
        if rel is None:
            return Relation(columns_for(arity))
        return rel

    def scan(self, predicate: str) -> Relation:
        """Full scan (counted) of one relation."""
        self.scans += 1
        rel = self.relation(predicate)
        self.rows_retrieved += len(rel)
        return rel

    def lookup(
        self, predicate: str, positions: tuple[int, ...], key: Row
    ) -> list[Row]:
        """Indexed retrieval: rows holding ``key`` at argument ``positions``.

        The shape of a tuple request for an EDB subgoal with "c"/"d"
        arguments; an EDB leaf fixes ``positions`` when the graph is built.
        A key that is present returns the index's live bucket.
        """
        rel = self._relations.get(predicate)
        if rel is None:
            return []
        self.indexed_lookups += 1
        if not positions:
            self.rows_retrieved += len(rel)
            return list(rel.rows)
        rows = rel.index_on(positions).get(key, [])
        self.rows_retrieved += len(rows)
        return rows

    def lookup_many(
        self, predicate: str, positions: tuple[int, ...], keys: Sequence[Row]
    ) -> list[Row]:
        """:meth:`lookup` for several keys: the rows of each key, in order.

        The relation's index is resolved once and the rows are gathered in
        one pass; the counters read as ``len(keys)`` separate lookups.
        """
        rel = self._relations.get(predicate)
        if rel is None:
            return []
        self.indexed_lookups += len(keys)
        if positions:
            get = rel.index_on(positions).get
            rows = [row for key in keys for row in get(key, ())]
        else:
            rows = [row for _ in keys for row in rel.rows]
        self.rows_retrieved += len(rows)
        return rows

    def facts(self) -> Iterator[Atom]:
        """Iterate all facts as ground atoms (deterministic order)."""
        from ..core.terms import Constant

        for predicate in self.predicates():
            for row in sorted(self._relations[predicate].rows, key=repr):
                yield Atom(predicate, tuple(Constant(v) for v in row))

    def total_rows(self) -> int:
        """Total number of facts across all relations."""
        return sum(len(r) for r in self._relations.values())

    def reset_counters(self) -> None:
        """Zero the access counters (between benchmark phases)."""
        self.scans = 0
        self.indexed_lookups = 0
        self.rows_retrieved = 0
        self.rows_added = 0
        self.index_entries_added = 0

    def counters(self) -> tuple[int, int, int]:
        """A ``(scans, indexed_lookups, rows_retrieved)`` snapshot.

        Engines snapshot this at ``run()`` start so a database shared
        across queries still yields per-query deltas in each result.
        """
        return (self.scans, self.indexed_lookups, self.rows_retrieved)
