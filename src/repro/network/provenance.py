"""Answer provenance: reconstruct one derivation tree per answer tuple.

When the engine runs with ``provenance=True``, each process records the
*first* way every tuple was derived locally:

* a rule node remembers, per emitted head row, the final join environment
  and, per stage, which child row extended which prefix environment;
* a goal node remembers which rule child first delivered each answer row;
* EDB rows are facts; cyclic-node rows come from the ancestor.

Because only first derivations are kept, the recorded graph is well-founded
(a tuple's first derivation can only use tuples that existed strictly
earlier), so walking it always terminates even though the *relation* is
recursive.  :func:`explain` assembles the per-node records into a
:class:`Derivation` tree — a resolution proof of the answer from the EDB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core.adornment import AdornedAtom, CONSTANT, EXISTENTIAL
from ..core.rulegoal import bind_rule
from ..core.terms import bound_value

if TYPE_CHECKING:
    from .engine import MessagePassingEngine

__all__ = ["Derivation", "ProvenanceError", "explain"]


class ProvenanceError(RuntimeError):
    """Raised when a derivation is requested but was not recorded."""


@dataclass(frozen=True)
class Derivation:
    """One node of a proof tree.

    ``kind`` is ``"fact"`` (an EDB tuple), ``"rule"`` (a rule application
    whose children prove the subgoals, in body order), or ``"goal"`` (a
    goal-node step — the union/selection layer; one child).
    """

    atom: str
    kind: str
    rule: Optional[str] = None
    children: tuple["Derivation", ...] = ()

    def render(self, indent: int = 0) -> str:
        """An indented proof-tree rendering."""
        pad = "  " * indent
        if self.kind == "fact":
            line = f"{pad}{self.atom}   [EDB fact]"
        elif self.kind == "rule":
            line = f"{pad}{self.atom}   [by {self.rule}]"
        else:
            line = f"{pad}{self.atom}"
        parts = [line]
        for child in self.children:
            parts.append(child.render(indent + 1))
        return "\n".join(parts)

    def facts(self) -> list[str]:
        """The EDB leaves supporting this derivation (left-to-right)."""
        if self.kind == "fact":
            return [self.atom]
        result: list[str] = []
        for child in self.children:
            result.extend(child.facts())
        return result

    def depth(self) -> int:
        """Height of the proof tree (a fact has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)


def _display_atom(adorned: AdornedAtom, row: tuple, bindings: tuple = ()) -> str:
    """Render an atom instance from a stream row ("d"/"f" values).

    Constant positions display the adorned atom's constant (a parameter
    its value in ``bindings``); existential positions (whose values were
    never transmitted) display as ``_``.
    """
    values = iter(row)
    parts = []
    for letter, term in zip(adorned.adornment, adorned.atom.args):
        if letter == EXISTENTIAL:
            parts.append("_")
        elif letter == CONSTANT:
            parts.append(str(bound_value(term.value, bindings)))
        else:
            parts.append(str(next(values)))
    return f"{adorned.predicate}({', '.join(parts)})"


def explain(engine: "MessagePassingEngine", row: tuple, max_depth: int = 10_000) -> Derivation:
    """Build the proof tree for one answer ``row`` of the query.

    The engine must have been constructed with ``provenance=True`` and run
    to completion; ``row`` must be one of the returned answers.
    """
    from .nodes import CyclicNodeProcess, EdbLeafProcess, GoalNodeProcess, RuleNodeProcess

    graph, bindings = engine.graph, engine.bindings

    def goal_step(node_id: int, value_row: tuple, depth: int) -> Derivation:
        if depth > max_depth:
            raise ProvenanceError("derivation too deep (raise max_depth)")
        process = engine.processes[node_id]
        if isinstance(process, EdbLeafProcess):
            return Derivation(_display_atom(process.adorned, value_row, bindings), "fact")
        if isinstance(process, CyclicNodeProcess):
            # The selection layer: delegate to the ancestor's derivation.
            return goal_step(process.ancestor_id, value_row, depth + 1)
        assert isinstance(process, GoalNodeProcess)
        source = process.row_sources.get(value_row)
        if source is None:
            raise ProvenanceError(
                f"no derivation recorded for {value_row} at {graph.node_label(node_id, bindings)}"
            )
        return rule_step(source, value_row, depth + 1)

    def rule_step(node_id: int, head_row: tuple, depth: int) -> Derivation:
        if depth > max_depth:
            raise ProvenanceError("derivation too deep (raise max_depth)")
        process = engine.processes[node_id]
        assert isinstance(process, RuleNodeProcess)
        child_rows = process.derivation_children(head_row)
        if child_rows is None:
            raise ProvenanceError(
                f"no derivation recorded for {head_row} at {graph.node_label(node_id, bindings)}"
            )
        children = []
        for subgoal_index, child_row in child_rows:
            child_id = process.child_ids[subgoal_index]
            children.append(goal_step(child_id, child_row, depth + 1))
        atom_text = _display_atom(process.parent_shape.adorned, head_row, bindings)
        rule = str(bind_rule(process.rule, bindings))
        return Derivation(atom_text, "rule", rule=rule, children=tuple(children))

    root = graph.goal_nodes[graph.root]
    if row not in engine.driver.answers:
        raise ProvenanceError(f"{row} is not an answer of the query")
    return goal_step(graph.root, row, 0)
