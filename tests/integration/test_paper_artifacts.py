"""End-to-end checks of every figure / worked example / theorem in the paper.

Each test class corresponds to one artifact; together they are the "the code
reproduces the paper's own objects" guarantee backing EXPERIMENTS.md.
"""

import pytest

from repro.baselines import naive
from repro.core.adornment import AdornedAtom, DYNAMIC, FREE
from repro.core.costmodel import CostModel, best_order
from repro.core.monotone import (
    HEAD_LABEL,
    compose_qual_trees,
    evaluation_hypergraph,
    has_monotone_flow,
    qual_tree_sip,
    rule_qual_tree,
    subgoal_label,
)
from repro.core.parser import parse_rule
from repro.core.rulegoal import build_rule_goal_graph
from repro.core.sips import adorn_body, greedy_sip, is_greedy
from repro.network.engine import evaluate
from repro.workloads import (
    adorned_head_df,
    program_p1,
    rule_r1,
    rule_r2,
    rule_r3,
)

from tests.helpers import with_tables


class TestFigure1:
    """The greedy information-passing rule/goal graph for P1."""

    def setup_method(self):
        # Fig 1 is the paper's distributed graph (no coalescing).
        self.graph = build_rule_goal_graph(program_p1(), greedy_sip, coalesce=False)

    def test_recursive_rule_adornment_sequence(self):
        # Fig 1's recursive rule node under p(a^c, Z^f):
        # p(a^c, U^f), q(U^d, V^f), p(V^d, Z^f).
        root_p = next(
            g
            for g in self.graph.goal_nodes.values()
            if g.predicate == "p" and g.kind == "idb" and g.adorned.adornment == ("c", "f")
        )
        recursive = next(
            r
            for r in (self.graph.rule_nodes[i] for i in root_p.rule_children)
            if len(r.rule.body) == 3
        )
        assert [a.adornment_string() for a in recursive.adorned_body] == ["cf", "df", "df"]

    def test_first_subgoal_cycles_to_root_p(self):
        # p(a^c, U^f) is a variant of p(a^c, Z^f): a dashed cycle edge.
        cyclic_cf = [
            g
            for g in self.graph.goal_nodes.values()
            if g.kind == "cyclic" and g.adorned.adornment == ("c", "f")
        ]
        assert len(cyclic_cf) == 1
        source = self.graph.goal_nodes[cyclic_cf[0].cycle_source]
        assert source.adorned.adornment == ("c", "f") and source.kind == "idb"

    def test_df_node_supplies_both_recursive_variants(self):
        df_node = next(
            g
            for g in self.graph.goal_nodes.values()
            if g.predicate == "p" and g.kind == "idb" and g.adorned.adornment == ("d", "f")
        )
        # "p(V^d, Z^f) supplies tuples to p(V^d, Y^f) and p(W^d, Z^f)".
        assert len(df_node.cycle_targets) == 2
        for target in df_node.cycle_targets:
            assert self.graph.goal_nodes[target].adorned.adornment == ("d", "f")

    def test_separate_goal_node_for_each_binding_pattern(self):
        # "the goal node p(a^c, Z^f) cannot supply tuples to nodes with
        # different binding patterns, necessitating a separate goal node".
        idb_p = [
            g
            for g in self.graph.goal_nodes.values()
            if g.predicate == "p" and g.kind == "idb"
        ]
        assert {g.adorned.adornment for g in idb_p} == {("c", "f"), ("d", "f")}

    def test_evaluation_follows_the_narrated_flow(self):
        # Example 2.1's narration, executed: with r a chain from a and q
        # connecting chain vertices, answers combine r-steps and q-hops.
        program = with_tables(
            program_p1(),
            {"r": [("a", 1), (1, 2), (2, 3), (3, 4)], "q": [(1, 2), (2, 3)]},
        )
        result = evaluate(program)
        assert result.answers == naive.goal_answers(program)


class TestFigure2Protocol:
    """Fig 2 in vivo: see tests/network/test_termination.py for the unit
    level; here the protocol must conclude exactly once per component on a
    live recursive query and never fire a violation."""

    def test_conclusions_per_component(self):
        program = with_tables(
            program_p1(),
            {"r": [("a", 1), (1, 2)], "q": [(1, 1), (2, 2)]},
        )
        result = evaluate(program)
        components = result.graph.strong_components()
        assert len(components) == 2
        assert result.protocol_conclusions >= len(components)
        assert result.protocol_violations == []

    def test_at_least_two_waves_each(self):
        program = with_tables(
            program_p1(), {"r": [("a", 1)], "q": [(1, 1)]}
        )
        result = evaluate(program)
        assert result.protocol_rounds >= 2 * result.protocol_conclusions


class TestFigure3And4:
    """The hypergraphs of rules R2 (acyclic) and R3 (cyclic)."""

    def test_fig3_r2_hypergraph(self):
        rule = rule_r2()
        h = evaluation_hypergraph(rule, adorned_head_df(rule))
        names = {
            label: {v.name for v in vs} for label, vs in h.edges.items()
        }
        assert names[HEAD_LABEL] == {"X"}
        assert names[subgoal_label(0)] == {"X", "Y", "V"}
        assert names[subgoal_label(1)] == {"Y", "U"}
        assert names[subgoal_label(2)] == {"V", "T"}
        assert names[subgoal_label(3)] == {"T"}
        assert names[subgoal_label(4)] == {"U", "Z"}
        assert h.is_acyclic()

    def test_fig4_r3_hypergraph_cyclic(self):
        rule = rule_r3()
        h = evaluation_hypergraph(rule, adorned_head_df(rule))
        result = h.gyo_reduction()
        assert not result.acyclic
        assert {v.name for v in result.cyclic_core_vertices()} == {"Y", "V", "W"}


class TestExample42AndTheorem41:
    def test_qual_tree_matches_example(self):
        tree = rule_qual_tree(rule_r2(), adorned_head_df(rule_r2()))
        parents = tree.parent_map()
        assert parents[subgoal_label(0)] == HEAD_LABEL
        assert parents[subgoal_label(1)] == subgoal_label(0)
        assert parents[subgoal_label(2)] == subgoal_label(0)
        assert parents[subgoal_label(3)] == subgoal_label(2)
        assert parents[subgoal_label(4)] == subgoal_label(1)

    def test_theorem41_on_paper_rules(self):
        for rule in (rule_r1(), rule_r2()):
            sip = qual_tree_sip(rule, adorned_head_df(rule))
            assert sip is not None and is_greedy(sip)

    def test_theorem41_on_random_acyclic_rules(self):
        # A family of generated chain/star rules — all monotone — must all
        # produce greedy SIPs from their qual trees.
        texts = [
            "p(X, Z) <- a(X, A), b(A, B), c(B, Z).",
            "p(X, Z) <- a(X, A, B), b(A, C), c(B, D), d(C), e(D, Z).",
            "p(X, Z) <- a(X, A), b(X, B), c(A, B, Z).",
            "p(X, Z) <- hub(X, A, B, C), s1(A), s2(B), s3(C, Z).",
        ]
        for text in texts:
            rule = parse_rule(text)
            head = adorned_head_df(rule)
            if not has_monotone_flow(rule, head):
                continue
            sip = qual_tree_sip(rule, head)
            assert sip is not None and is_greedy(sip), text


class TestFigure5:
    """Qual tree composition under resolution (Theorem 4.2)."""

    def test_figure5_shape(self):
        # Fig 5's schematic: upper rule r <- q, s, p ; lower p' <- a, b.
        upper = parse_rule("r(X, Z) <- q(X, Y), s(Y), p(Y, Z).")
        lower = parse_rule("p(S, T) <- a(S, W), b(W, T).")
        head = AdornedAtom(upper.head, (DYNAMIC, FREE))
        ext, tree = compose_qual_trees(upper, head, 2, lower)
        # Extended rule: q, s, a, b.
        assert [g.predicate for g in ext.rule.body] == ["q", "s", "a", "b"]
        assert tree.is_tree()
        assert tree.satisfies_qual_tree_property()
        # And it is a genuine qual tree of the extended rule's hypergraph.
        hyper = evaluation_hypergraph(ext.rule, ext.head)
        assert dict(tree.nodes) == dict(hyper.edges)


class TestSection43CostModel:
    def test_footnote_alpha_example(self):
        model = CostModel(alpha=0.3, base_size=10**6)
        assert model.selected_log_size(1) == pytest.approx(6 * 0.3)
        assert model.selected_log_size(2) == pytest.approx(6 * 0.09)

    def test_conjecture_for_monotone_paper_rules(self):
        # The greedy/qual-tree order attains the model optimum for R1, R2.
        model = CostModel()
        for rule in (rule_r1(), rule_r2()):
            head = adorned_head_df(rule)
            sip = qual_tree_sip(rule, head)
            assert model.estimate_sip(sip).total_cost == pytest.approx(
                best_order(rule, head, model).total_cost
            )
