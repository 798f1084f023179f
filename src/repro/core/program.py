"""Programs: EDB facts + IDB rules + query, with the paper's well-formedness.

Section 1 structures the input as three parts:

* the **EDB** — ground atomic formulas (facts), viewed as a relational
  database;
* the **PIDB** (permanent intentional database) — Horn rules containing no
  positive occurrence of an EDB predicate and no occurrence of the
  distinguished predicate ``goal``;
* the **query** — Horn rules whose head predicate is ``goal``, which appears
  negatively nowhere.

:class:`Program` bundles these, validates the constraints, and exposes the
predicate dependency graph used to classify recursion (linear vs. nonlinear,
Section 1.1/3) and to drive the baselines.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .atoms import Atom
from .rules import GOAL_PREDICATE, Rule

__all__ = ["Program", "ProgramError", "strongly_connected_components"]


class ProgramError(ValueError):
    """Raised when a program violates the paper's well-formedness conditions."""


def strongly_connected_components(graph: Mapping[str, set[str]]) -> list[set[str]]:
    """Strongly connected components of a digraph, in reverse topological order.

    Iterative Tarjan's algorithm (no recursion limit issues on deep chains of
    predicates).  ``graph`` maps each node to its successor set; nodes that
    appear only as successors are included automatically.
    """
    index_counter = [0]
    stack: list[str] = []
    lowlink: dict[str, int] = {}
    index: dict[str, int] = {}
    on_stack: set[str] = set()
    components: list[set[str]] = []

    all_nodes: set[str] = set(graph)
    for succs in graph.values():
        all_nodes |= succs

    def successors(node: str) -> Iterable[str]:
        return sorted(graph.get(node, ()))

    for root in sorted(all_nodes):
        if root in index:
            continue
        work: list[tuple[str, Iterable[str]]] = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succ_iter = work[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in index:
                    index[succ] = lowlink[succ] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


@dataclass
class Program:
    """An EDB + IDB + query bundle.

    Parameters
    ----------
    rules:
        The IDB — union of the PIDB and the query rules (rules whose head
        predicate is :data:`~repro.core.rules.GOAL_PREDICATE`).
    facts:
        The EDB — ground atoms.
    edb_predicates:
        Optional explicit declaration of EDB predicate names.  When omitted it
        is inferred as the set of predicates of ``facts`` plus any body
        predicate never defined by a rule.
    """

    rules: tuple[Rule, ...]
    facts: tuple[Atom, ...] = ()
    edb_predicates: frozenset[str] = frozenset()

    def __init__(
        self,
        rules: Sequence[Rule],
        facts: Sequence[Atom] = (),
        edb_predicates: Iterable[str] = (),
        validate: bool = True,
    ) -> None:
        self.rules = tuple(rules)
        self.facts = tuple(facts)
        declared = set(edb_predicates)
        inferred = {f.predicate for f in self.facts}
        defined = {r.head.predicate for r in self.rules}
        used = set()
        for rule in self.rules:
            used |= rule.body_predicates()
        inferred |= {p for p in used if p not in defined}
        self.edb_predicates = frozenset(declared | inferred)
        # The facts tuple the last full validate() accepted.
        self._validated_facts: tuple[Atom, ...] | None = None
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Well-formedness (Section 1)
    # ------------------------------------------------------------------
    def validate(self, facts: bool = True) -> None:
        """Check the paper's constraints; raise :class:`ProgramError` if broken.

        With ``facts=False`` the walk over the EDB is skipped: for a caller
        whose facts an earlier validation already accepted
        (:attr:`facts_validated`).
        """
        if facts:
            for fact in self.facts:
                if not fact.is_ground():
                    raise ProgramError(f"EDB fact {fact} is not ground")
                if fact.predicate == GOAL_PREDICATE:
                    raise ProgramError(
                        "the distinguished predicate 'goal' may not appear in the EDB"
                    )
        for rule in self.rules:
            if rule.head.predicate in self.edb_predicates and self.facts:
                # "no positive occurrence of a predicate that appears in the EDB"
                if rule.head.predicate in {f.predicate for f in self.facts}:
                    raise ProgramError(
                        f"rule head {rule.head.predicate} is an EDB predicate: {rule}"
                    )
            if not rule.is_safe():
                raise ProgramError(f"unsafe rule (head variable not in body): {rule}")
            for sub in rule.body:
                if sub.predicate == GOAL_PREDICATE:
                    raise ProgramError(f"'goal' appears negatively in {rule}")
        if facts:
            self._validated_facts = self.facts

    @property
    def facts_validated(self) -> bool:
        """True iff a full :meth:`validate` accepted this program's current facts."""
        return self._validated_facts is self.facts

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def idb_predicates(self) -> set[str]:
        """Predicates defined by at least one rule."""
        return {r.head.predicate for r in self.rules}

    @property
    def query_rules(self) -> list[Rule]:
        """The rules whose head predicate is ``goal``."""
        return [r for r in self.rules if r.head.predicate == GOAL_PREDICATE]

    @property
    def pidb_rules(self) -> list[Rule]:
        """The permanent IDB: every rule that is not a query rule."""
        return [r for r in self.rules if r.head.predicate != GOAL_PREDICATE]

    def rules_for(self, predicate: str) -> list[Rule]:
        """All rules whose head predicate is ``predicate``."""
        return [r for r in self.rules if r.head.predicate == predicate]

    def is_edb(self, predicate: str) -> bool:
        """True iff ``predicate`` belongs to the extensional database."""
        return predicate in self.edb_predicates and predicate not in self.idb_predicates

    def constants(self) -> set[object]:
        """All constant values appearing in the EDB and IDB.

        This is the Herbrand universe of the function-free system; the brute
        force baseline (Section 1.1) instantiates rules over it.
        """
        values: set[object] = set()
        for fact in self.facts:
            values |= set(fact.ground_tuple())
        for rule in self.rules:
            for atom_ in (rule.head, *rule.body):
                values |= {c.value for c in atom_.constants()}
        return values

    # ------------------------------------------------------------------
    # Predicate dependency analysis
    # ------------------------------------------------------------------
    def dependency_graph(self) -> dict[str, set[str]]:
        """Digraph with an arc head-predicate -> body-predicate per rule."""
        graph: dict[str, set[str]] = defaultdict(set)
        for rule in self.rules:
            graph[rule.head.predicate] |= rule.body_predicates()
        return dict(graph)

    def predicate_sccs(self) -> list[set[str]]:
        """Strong components of the dependency graph, reverse-topological."""
        return strongly_connected_components(self.dependency_graph())

    def recursive_predicates(self) -> set[str]:
        """Predicates involved in a dependency cycle (including self-loops)."""
        graph = self.dependency_graph()
        recursive: set[str] = set()
        for component in self.predicate_sccs():
            if len(component) > 1:
                recursive |= component
            else:
                (only,) = component
                if only in graph.get(only, set()):
                    recursive.add(only)
        return recursive

    def is_recursive(self) -> bool:
        """True iff any predicate is recursive."""
        return bool(self.recursive_predicates())

    def is_linear_rule(self, rule: Rule) -> bool:
        """Linear recursion test for one rule (Section 1.1, Henschen–Naqvi).

        A rule is *linear* when its head is recursively related to at most one
        subgoal: at most one body atom's predicate shares a strong component
        with the head's predicate.
        """
        components = {p: i for i, comp in enumerate(self.predicate_sccs()) for p in comp}
        head_comp = components.get(rule.head.predicate)
        recursive = self.recursive_predicates()
        if rule.head.predicate not in recursive:
            return True
        mutual = [s for s in rule.body if components.get(s.predicate) == head_comp]
        return len(mutual) <= 1

    def is_linear(self) -> bool:
        """True iff every rule is linear (the Henschen–Naqvi restriction)."""
        return all(self.is_linear_rule(r) for r in self.rules)

    def nonlinear_rules(self) -> list[Rule]:
        """Rules exhibiting nonlinear recursion (two or more mutual subgoals)."""
        return [r for r in self.rules if not self.is_linear_rule(r)]

    # ------------------------------------------------------------------
    def with_facts(self, facts: Sequence[Atom]) -> "Program":
        """A copy of this program with the EDB replaced by ``facts``."""
        return Program(self.rules, facts, self.edb_predicates)

    def __str__(self) -> str:
        lines = [str(r) for r in self.rules]
        lines += [f"{f}." for f in self.facts]
        return "\n".join(lines)
