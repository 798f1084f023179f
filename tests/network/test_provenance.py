"""Tests for answer provenance (proof trees)."""

import re

import pytest

from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine
from repro.network.provenance import Derivation, ProvenanceError
from repro.session import Session
from repro.workloads import chain_edges, cycle_edges, facts_from_tables, program_p1

from tests.helpers import with_tables


def run_with_provenance(program, **kwargs):
    engine = MessagePassingEngine(program, provenance=True, **kwargs)
    result = engine.run()
    return engine, result


def edb_facts(program):
    return {f"{f.predicate}({', '.join(str(v) for v in f.ground_tuple())})"
            for f in program.facts}


class TestProofTrees:
    def test_base_case_is_one_fact(self):
        program = parse_program(
            "goal(Z) <- p(a, Z). p(X, Y) <- r(X, Y). r(a, b)."
        )
        engine, result = run_with_provenance(program)
        derivation = engine.explain(("b",))
        assert derivation.kind == "rule"
        assert derivation.facts() == ["r(a, b)"]
        assert derivation.depth() == 3  # goal rule -> p rule -> fact

    def test_recursive_derivation_through_cycle_edges(self, p1_small):
        engine, result = run_with_provenance(p1_small)
        for row in result.answers:
            derivation = engine.explain(row)
            assert derivation.atom == f"goal({row[0]})"
            assert derivation.depth() >= 3

    def test_all_leaves_are_real_edb_facts(self, p1_small):
        engine, result = run_with_provenance(p1_small)
        valid = edb_facts(p1_small)
        for row in result.answers:
            for leaf in engine.explain(row).facts():
                assert leaf in valid

    def test_deep_chain_derivation_depth_scales(self):
        program = with_tables(
            parse_program(
                """
                goal(Z) <- t(0, Z).
                t(X, Y) <- e(X, Y).
                t(X, Y) <- e(X, U), t(U, Y).
                """
            ),
            {"e": chain_edges(10)},
        )
        engine, result = run_with_provenance(program)
        deepest = max(engine.explain(row).depth() for row in result.answers)
        assert deepest >= 10

    def test_cyclic_data_well_founded(self):
        # Recursion over a data cycle: proofs must still bottom out.
        program = with_tables(
            parse_program(
                """
                goal(Z) <- t(0, Z).
                t(X, Y) <- e(X, Y).
                t(X, Y) <- t(X, U), t(U, Y).
                """
            ),
            {"e": cycle_edges(5)},
        )
        engine, result = run_with_provenance(program)
        for row in result.answers:
            derivation = engine.explain(row)
            assert all(leaf.startswith("e(") for leaf in derivation.facts())

    def test_render_is_indented_tree(self, p1_small):
        engine, result = run_with_provenance(p1_small)
        text = engine.explain(sorted(result.answers)[0]).render()
        assert "[EDB fact]" in text
        assert "[by " in text
        assert text.splitlines()[0].startswith("goal(")

    def test_coalesced_mode_supported(self, p1_small):
        # The default graph is coalesced; the distributed one explains too.
        for graph in (None, build_rule_goal_graph(p1_small, coalesce=False)):
            engine, result = run_with_provenance(p1_small, graph=graph)
            for row in result.answers:
                assert engine.explain(row).facts()


class TestErrors:
    def test_requires_flag(self, p1_small):
        engine = MessagePassingEngine(p1_small)
        engine.run()
        with pytest.raises(ProvenanceError):
            engine.explain(("1",))

    def test_non_answer_rejected(self, p1_small):
        engine, result = run_with_provenance(p1_small)
        with pytest.raises(ProvenanceError):
            engine.explain(("nonsense",))


class TestSessionExplain:
    def test_explain_last_query(self):
        session = Session(
            """
            anc(X, Y) <- par(X, Y).
            anc(X, Y) <- par(X, U), anc(U, Y).
            par(ann, bob).  par(bob, cal).
            """,
            provenance=True,
        )
        answers = session.query("anc(ann, Z)")
        assert ("cal",) in answers
        derivation = session.explain(("cal",))
        assert "par(ann, bob)" in derivation.facts()
        assert "par(bob, cal)" in derivation.facts()

    def test_explain_before_query_raises(self):
        for provenance in (True, False):
            session = Session("p(X) <- e(X). e(1).", provenance=provenance)
            with pytest.raises(RuntimeError, match="no query") as excinfo:
                session.explain((1,))
            assert not isinstance(excinfo.value, ProvenanceError)

    def test_explain_without_provenance_raises_provenance_error(self):
        # The session keeps no network when provenance is off, but the
        # error still says why explain() cannot work, not "no query yet".
        session = Session("p(X) <- e(X). e(1).")
        assert session.query("p(X)") == {(1,)}
        with pytest.raises(ProvenanceError, match="provenance=True"):
            session.explain((1,))
        with pytest.raises(ProvenanceError):
            session.explain((2,))


# ----------------------------------------------------------------------
# An independent derivation checker.  It shares no code with the kernels
# (nor with the parser): it reads only the rendered proof tree, the rule
# texts, and the EDB, all as strings.
# ----------------------------------------------------------------------

_ATOM = re.compile(r"(\w+)\(([^()]*)\)")


def parse_atoms(text):
    """Every ``pred(t1, ..., tn)`` in ``text`` as ``(pred, [t1, ..., tn])``."""
    return [
        (name, args.split(", ") if args else [])
        for name, args in _ATOM.findall(text)
    ]


def is_variable(term):
    return term[0].isupper() or term[0] == "_"


def bind(pattern, value, theta):
    """Extend ``theta`` so the pattern term reads ``value``; False if none."""
    if value == "_":
        return True  # an existential position of an instance: any value
    if is_variable(pattern):
        return theta.setdefault(pattern, value) == value
    return pattern == value


def fits(pattern, instance, theta):
    (p_name, p_args), (i_name, i_args) = pattern, instance
    return (
        p_name == i_name
        and len(p_args) == len(i_args)
        and all(bind(p, i, theta) for p, i in zip(p_args, i_args))
    )


def is_instance(step, general):
    """One substitution maps the ``general`` rule's atoms onto ``step``'s."""
    theta = {}
    return len(step) == len(general) and all(
        fits(g, a, theta) for g, a in zip(general, step)
    )


def check_derivation(derivation, program):
    """Soundness of one proof tree against the program's rules and EDB.

    Every rule step must be an instance of a program rule, and one
    substitution must map that rule's head onto the step's atom and its
    body, in order, onto the children's atoms; every leaf must be a fact.
    """
    facts = [parse_atoms(str(f))[0] for f in program.facts]
    rules = [parse_atoms(str(r)) for r in program.rules]

    def visit(node):
        (atom,) = parse_atoms(node.atom)
        if node.kind == "fact":
            assert any(fits(fact, atom, {}) for fact in facts), (
                f"leaf {node.atom} is not an EDB fact"
            )
            return
        assert node.kind == "rule", node.kind
        step = parse_atoms(node.rule)  # head first, then the body in order
        assert any(is_instance(step, general) for general in rules), (
            f"{node.rule} is no instance of a program rule"
        )
        assert len(node.children) == len(step) - 1, node.render()
        theta = {}
        assert fits(step[0], atom, theta), node.render()
        for subgoal, child in zip(step[1:], node.children):
            (child_atom,) = parse_atoms(child.atom)
            assert fits(subgoal, child_atom, theta), (
                f"child {child.atom} does not fit {subgoal} under {theta}"
            )
            visit(child)

    visit(derivation)


def cyclic_tc():
    """Non-linear transitive closure over a 5-cycle: proofs through cycles."""
    return with_tables(
        parse_program(
            """
            goal(Z) <- t(0, Z).
            t(X, Y) <- e(X, Y).
            t(X, Y) <- t(X, U), t(U, Y).
            """
        ),
        {"e": cycle_edges(5)},
    )


class TestDerivationChecker:
    @pytest.mark.parametrize(
        "name,coalesce",
        [("p1", False), ("cyclic-tc", False), ("p1", True)],
        ids=["p1", "cyclic-tc", "coalesced-p1"],
    )
    def test_every_answer_has_a_sound_derivation(self, name, coalesce, p1_small):
        program = p1_small if name == "p1" else cyclic_tc()
        graph = None if coalesce else build_rule_goal_graph(program, coalesce=False)
        engine, result = run_with_provenance(program, graph=graph)
        assert result.answers
        for row in result.answers:
            check_derivation(engine.explain(row), program)

    def test_checker_rejects_forged_steps(self, p1_small):
        engine, result = run_with_provenance(p1_small)
        first, second = (engine.explain(row) for row in sorted(result.answers)[:2])
        # goal(1) "proved" from p(a, 2): no one substitution gives both.
        swapped = Derivation(
            first.atom, "rule", rule=first.rule, children=second.children
        )
        # A leaf that is not in the EDB.
        invented = Derivation(
            "p(a, 9)", "rule", rule="p(a, Ans0) <- r(a, Ans0).",
            children=(Derivation("r(a, 9)", "fact"),),
        )
        for forged in (swapped, invented):
            with pytest.raises(AssertionError):
                check_derivation(forged, p1_small)
