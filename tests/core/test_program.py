"""Unit tests for Program: validation, dependency analysis, recursion classes."""

import pytest

from repro.core.atoms import atom
from repro.core.parser import parse_program, parse_rule
from repro.core.program import Program, ProgramError, strongly_connected_components
from repro.workloads import (
    ancestor_program,
    mutual_recursion_program,
    nonlinear_tc_program,
    nonrecursive_join_program,
    program_p1,
)


class TestValidation:
    def test_nonground_fact_rejected(self):
        from repro.core.terms import Variable

        with pytest.raises(ProgramError):
            Program([], [atom("e", Variable("X"))])

    def test_goal_in_edb_rejected(self):
        with pytest.raises(ProgramError):
            Program([], [atom("goal", "a")])

    def test_goal_in_body_rejected(self):
        with pytest.raises(ProgramError):
            Program([parse_rule("p(X) <- goal(X).")])

    def test_unsafe_rule_rejected(self):
        with pytest.raises(ProgramError):
            Program([parse_rule("p(X, Y) <- e(X, X).")])

    def test_edb_head_rejected(self):
        with pytest.raises(ProgramError):
            Program([parse_rule("e(X, Y) <- f(X, Y).")], [atom("e", 1, 2)])

    def test_valid_program_passes(self):
        program = program_p1()
        program.validate()  # must not raise

    def test_program_records_validated_facts(self):
        facts = [atom("e", 1, 2)]
        assert Program([], facts).facts_validated
        unchecked = Program([], facts, validate=False)
        assert not unchecked.facts_validated
        unchecked.validate(facts=False)  # rules only: the facts stay unchecked
        assert not unchecked.facts_validated
        unchecked.validate()
        assert unchecked.facts_validated
        # Replacing the facts forgets the validation.
        unchecked.facts = (atom("e", 3, 4),)
        assert not unchecked.facts_validated


class TestViews:
    def test_idb_edb_partition(self):
        program = program_p1()
        assert program.idb_predicates == {"goal", "p"}
        assert program.is_edb("r") and program.is_edb("q")
        assert not program.is_edb("p")

    def test_query_vs_pidb(self):
        program = program_p1()
        assert len(program.query_rules) == 1
        assert len(program.pidb_rules) == 2

    def test_rules_for(self):
        program = program_p1()
        assert len(program.rules_for("p")) == 2
        assert program.rules_for("nope") == []

    def test_constants_gathers_edb_and_idb(self):
        program = parse_program("goal(X) <- p(b, X). p(X, Y) <- e(X, Y). e(1, 2).")
        assert program.constants() == {"b", 1, 2}

    def test_with_facts_replaces_edb(self):
        program = program_p1().with_facts([atom("r", "a", "z")])
        assert len(program.facts) == 1


class TestSccs:
    def test_simple_cycle(self):
        sccs = strongly_connected_components({"a": {"b"}, "b": {"a"}})
        assert {frozenset(c) for c in sccs} == {frozenset({"a", "b"})}

    def test_reverse_topological_order(self):
        # a -> b -> c: c's component must come before a's.
        sccs = strongly_connected_components({"a": {"b"}, "b": {"c"}})
        order = [next(iter(c)) for c in sccs]
        assert order.index("c") < order.index("a")

    def test_self_loop_is_single_component(self):
        sccs = strongly_connected_components({"a": {"a"}})
        assert sccs == [{"a"}]

    def test_isolated_successors_included(self):
        sccs = strongly_connected_components({"a": {"b"}})
        nodes = set().union(*sccs)
        assert nodes == {"a", "b"}

    def test_deep_chain_no_recursion_error(self):
        graph = {str(i): {str(i + 1)} for i in range(5000)}
        sccs = strongly_connected_components(graph)
        assert len(sccs) == 5001


class TestRecursionClasses:
    def test_nonrecursive(self):
        program = nonrecursive_join_program()
        assert not program.is_recursive()
        assert program.is_linear()

    def test_linear_recursion(self):
        program = ancestor_program()
        assert program.is_recursive()
        assert program.is_linear()
        assert program.recursive_predicates() == {"anc"}

    def test_nonlinear_recursion(self):
        program = nonlinear_tc_program()
        assert program.is_recursive()
        assert not program.is_linear()
        assert len(program.nonlinear_rules()) == 1

    def test_p1_is_nonlinear(self):
        # P1's recursive rule has two recursive p subgoals.
        assert not program_p1().is_linear()

    def test_mutual_recursion_detected(self):
        program = mutual_recursion_program()
        assert program.recursive_predicates() == {"oddp", "evenp"}
        # One recursive subgoal per rule: still linear.
        assert program.is_linear()

    def test_goal_not_recursive(self):
        assert "goal" not in program_p1().recursive_predicates()
