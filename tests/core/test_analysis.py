"""Tests for the whole-program static analysis module."""

import pytest

from repro.core.analysis import analyze
from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.workloads import (
    ancestor_program,
    nonrecursive_join_program,
    program_p1,
    rule_r3,
)


class TestPredicateClassification:
    def test_p1(self):
        report = analyze(program_p1())
        by_name = {p.name: p for p in report.predicates}
        assert by_name["p"].kind == "idb"
        assert by_name["p"].recursive and not by_name["p"].linear
        assert by_name["q"].kind == "edb"
        assert not by_name["goal"].recursive

    def test_query_induced_adornments(self):
        report = analyze(program_p1())
        by_name = {p.name: p for p in report.predicates}
        assert set(by_name["p"].adornments) == {"cf", "df"}
        assert by_name["q"].adornments == ("df",)

    def test_linear_recursion_flag(self):
        report = analyze(ancestor_program(0))
        by_name = {p.name: p for p in report.predicates}
        assert by_name["anc"].recursive and by_name["anc"].linear


class TestRuleNodeReports:
    def test_p1_rules_all_monotone_and_greedy(self):
        report = analyze(program_p1())
        assert all(r.monotone_flow for r in report.rule_nodes)
        assert all(r.sip_is_greedy for r in report.rule_nodes)
        assert report.warnings == ()

    def test_distinct_binding_patterns_reported_separately(self):
        report = analyze(program_p1())
        recursive_reports = [
            r for r in report.rule_nodes if r.rule.count("p(") >= 3
        ]
        assert {r.head_adornment for r in recursive_reports} == {"cf", "df"}

    def test_non_monotone_rule_warned(self):
        r3 = rule_r3()
        program = parse_program(
            """
            goal(Z) <- p(x0, Z).
            p(X, Z) <- a(X, Y, V), b(Y, W, U), c(V, W, T), d(T), e(U, Z).
            """
        )
        report = analyze(program)
        assert any("monotone flow" in w for w in report.warnings)
        bad = [r for r in report.rule_nodes if not r.monotone_flow]
        assert bad and set(bad[0].cyclic_core)

    def test_cartesian_stage_warned(self):
        program = parse_program(
            """
            goal(X, Y) <- left(X), right(Y).
            left(X) <- a(X).
            right(Y) <- b(Y).
            """
        )
        report = analyze(program)
        assert any("cartesian" in w for w in report.warnings)

    def test_existential_positions_counted(self):
        program = parse_program(
            "goal(X) <- p(X). p(X) <- e(X, W)."
        )
        report = analyze(program)
        rule = next(r for r in report.rule_nodes if "e(" in r.rule)
        assert rule.existential_positions == 1


class TestGraphAndComponents:
    def test_component_summary(self):
        # Fig 1's two components, in the paper's distributed graph.
        graph = build_rule_goal_graph(program_p1(), coalesce=False)
        report = analyze(program_p1(), graph=graph)
        assert len(report.components) == 2
        assert {c.size for c in report.components} == {3, 4}
        assert all("p(" in c.leader for c in report.components)

    def test_nonrecursive_has_no_components(self):
        report = analyze(nonrecursive_join_program())
        assert report.components == ()

    def test_render_contains_all_sections(self):
        text = analyze(program_p1()).render()
        for section in ("PREDICATES", "RULE/GOAL GRAPH", "RULES"):
            assert section in text

    def test_render_includes_warnings_section_when_present(self):
        program = parse_program(
            "goal(X, Y) <- a(X), b(Y). a(1). b(2)."
        )
        text = analyze(program).render()
        assert "WARNINGS" in text
