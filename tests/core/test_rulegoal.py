"""Unit tests for rule/goal graph construction (Section 2) — including the
exact structure of Fig 1 and the Theorem 2.1 termination guarantees.

These are about the paper's distributed construction, so every graph is
built with coalescing off; evaluation runs the coalesced graph, whose
structure ``tests/integration/test_coalesced.py`` checks."""

import pytest

from repro.core.adornment import AdornedAtom, CONSTANT, DYNAMIC, FREE, initial_goal_adornment
from repro.core.atoms import atom
from repro.core.parser import parse_program
from repro.core.rulegoal import (
    GraphSizeExceeded,
    build_basic_rule_goal_graph,
    build_rule_goal_graph,
)
from repro.core.sips import all_free_sip
from repro.workloads import (
    ancestor_program,
    mutual_recursion_program,
    nonrecursive_join_program,
    program_p1,
)


@pytest.fixture
def fig1_graph():
    """The greedy information-passing rule/goal graph for P1 (Fig 1)."""
    return build_rule_goal_graph(program_p1(), coalesce=False)


class TestFigure1:
    def test_root_is_goal_predicate(self, fig1_graph):
        root = fig1_graph.goal_nodes[fig1_graph.root]
        assert root.predicate == "goal"
        assert root.adorned.adornment == (FREE,)

    def _goal_labels(self, graph):
        return {
            (g.predicate, "".join(g.adorned.adornment), g.kind)
            for g in graph.goal_nodes.values()
        }

    def test_node_inventory_matches_figure(self, fig1_graph):
        labels = self._goal_labels(fig1_graph)
        # Fig 1 (plus the trivial goal level): p appears with cf (root call),
        # df (recursive call); q is an EDB leaf with df; r with cf and df.
        assert ("p", "cf", "idb") in labels
        assert ("p", "df", "idb") in labels
        assert ("p", "cf", "cyclic") in labels
        assert ("p", "df", "cyclic") in labels
        assert ("q", "df", "edb") in labels
        assert ("r", "cf", "edb") in labels
        assert ("r", "df", "edb") in labels

    def test_counts_match_figure(self, fig1_graph):
        # 2 (goal level) + 13 (Fig 1 proper): see the worked example.
        assert len(fig1_graph.goal_nodes) == 10
        assert len(fig1_graph.rule_nodes) == 5
        cyclic = [g for g in fig1_graph.goal_nodes.values() if g.kind == "cyclic"]
        assert len(cyclic) == 3

    def test_cycle_edges_target_correct_ancestors(self, fig1_graph):
        for goal in fig1_graph.goal_nodes.values():
            if goal.kind != "cyclic":
                continue
            ancestor = fig1_graph.goal_nodes[goal.cycle_source]
            assert (
                ancestor.adorned.variant_signature()
                == goal.adorned.variant_signature()
            )
            assert ancestor.id in goal.ancestors

    def test_recursive_df_node_serves_two_cyclic_variants(self, fig1_graph):
        # p(V^d, Z^f) supplies tuples to p(V^d, Y^f) and p(W^d, Z^f).
        df_nodes = [
            g
            for g in fig1_graph.goal_nodes.values()
            if g.predicate == "p"
            and g.kind == "idb"
            and "".join(g.adorned.adornment) == "df"
        ]
        assert len(df_nodes) == 1
        assert len(df_nodes[0].cycle_targets) == 2

    def test_graph_size_independent_of_edb(self):
        small = build_rule_goal_graph(
            program_p1().with_facts([atom("r", "a", "b")]), coalesce=False
        )
        big_facts = [atom("r", i, i + 1) for i in range(500)]
        big = build_rule_goal_graph(program_p1().with_facts(big_facts), coalesce=False)
        assert small.size() == big.size()  # Theorem 2.1


class TestStrongComponents:
    def test_two_components_in_fig1(self, fig1_graph):
        components = fig1_graph.strong_components()
        assert len(components) == 2

    def test_leaders_are_goal_nodes_with_outside_parents(self, fig1_graph):
        for info in fig1_graph.strong_components():
            assert fig1_graph.is_goal(info.leader)
            parent = fig1_graph.dfs_parent(info.leader)
            assert parent not in info.members

    def test_bfst_spans_component(self, fig1_graph):
        for info in fig1_graph.strong_components():
            reached = {info.leader}
            frontier = [info.leader]
            while frontier:
                node = frontier.pop()
                for child in info.bfst_children.get(node, ()):
                    assert child not in reached
                    reached.add(child)
                    frontier.append(child)
            assert reached == set(info.members)

    def test_feeders_and_customers(self, fig1_graph):
        for info in fig1_graph.strong_components():
            leader = info.leader
            customers = fig1_graph.customers(leader)
            assert customers, "a leader must have an external customer"
            for member in info.members:
                for feeder in fig1_graph.feeders(member):
                    assert feeder not in info.members

    def test_nonrecursive_program_has_no_components(self):
        graph = build_rule_goal_graph(nonrecursive_join_program(), coalesce=False)
        assert graph.strong_components() == []

    def test_mutual_recursion_single_component(self):
        graph = build_rule_goal_graph(mutual_recursion_program(0), coalesce=False)
        components = graph.strong_components()
        assert len(components) == 1
        predicates = {
            graph.goal_nodes[m].predicate
            for m in components[0].members
            if graph.is_goal(m)
        }
        assert {"oddp", "evenp"} <= predicates


class TestConstruction:
    def test_edb_subgoals_stay_leaves(self, fig1_graph):
        for goal in fig1_graph.goal_nodes.values():
            if goal.kind == "edb":
                assert goal.rule_children == []

    def test_rule_head_unifies_with_parent_goal(self, fig1_graph):
        from repro.core.unify import unify

        for rule_node in fig1_graph.rule_nodes.values():
            parent = fig1_graph.goal_nodes[rule_node.parent]
            assert unify(rule_node.rule.head, parent.adorned.atom) is not None

    def test_rule_copies_are_renamed_apart(self, fig1_graph):
        # Variables a rule copy introduces (i.e. not inherited from its parent
        # goal through unification) must be globally unique across rule nodes.
        seen: set = set()
        for rule_node in fig1_graph.rule_nodes.values():
            parent = fig1_graph.goal_nodes[rule_node.parent]
            introduced = rule_node.rule.variables() - parent.adorned.atom.variable_set()
            assert seen.isdisjoint(introduced)
            seen |= introduced

    def test_constant_clash_prunes_rule(self):
        # Rule heads p(a,...) and p(b,...): the goal p(a, Z) matches only one.
        program = parse_program(
            """
            goal(Z) <- p(a, Z).
            p(a, X) <- e(X).
            p(b, X) <- f(X).
            """
        )
        graph = build_rule_goal_graph(program, coalesce=False)
        p_goal = next(
            g for g in graph.goal_nodes.values() if g.predicate == "p"
        )
        assert len(p_goal.rule_children) == 1

    def test_left_recursion_terminates(self):
        program = parse_program(
            """
            goal(Z) <- t(a, Z).
            t(X, Y) <- t(X, U), e(U, Y).
            t(X, Y) <- e(X, Y).
            """
        )
        graph = build_rule_goal_graph(program, coalesce=False)
        assert graph.size() > 0  # construction itself must terminate

    def test_repeated_variable_goal_patterns(self):
        # Thm 2.1's technicality: p(X, X, Z) vs p(V, V, V) nodes coexist.
        program = parse_program(
            """
            goal(Z) <- p(Z, Z, Z).
            p(X, X, Z) <- p(X, Y, Z), e(Y, X).
            p(X, Y, Z) <- e(X, Y), e(Y, Z).
            """
        )
        graph = build_rule_goal_graph(program, coalesce=False)
        patterns = {
            g.adorned.atom.repetition_pattern()
            for g in graph.goal_nodes.values()
            if g.predicate == "p"
        }
        assert len(patterns) >= 2

    def test_missing_query_rule_raises(self):
        program = parse_program("p(X, Y) <- e(X, Y).", validate=False)
        with pytest.raises(ValueError):
            build_rule_goal_graph(program, coalesce=False)

    def test_query_goal_override(self):
        program = ancestor_program(0)
        goal = initial_goal_adornment(atom("anc", 0, Variable_Z()))
        graph = build_rule_goal_graph(program, query_goal=goal, coalesce=False)
        assert graph.goal_nodes[graph.root].predicate == "anc"

    def test_max_nodes_guard(self):
        with pytest.raises(GraphSizeExceeded):
            build_rule_goal_graph(program_p1(), max_nodes=3, coalesce=False)

    def test_basic_graph_has_no_d_arguments(self):
        graph = build_basic_rule_goal_graph(ancestor_program(0))
        for goal in graph.goal_nodes.values():
            assert DYNAMIC not in goal.adorned.adornment

    def test_pretty_renders_every_reachable_node(self, fig1_graph):
        text = fig1_graph.pretty()
        assert "cycle from" in text
        assert "[EDB]" in text
        assert "p(" in text and "q(" in text and "r(" in text

    def test_dot_export(self, fig1_graph):
        dot = fig1_graph.to_dot()
        assert dot.startswith("digraph")
        # Every node declared; cycle edges dashed; components clustered.
        for node_id in list(fig1_graph.goal_nodes) + list(fig1_graph.rule_nodes):
            assert f"n{node_id} " in dot
        assert "style=dashed" in dot
        assert dot.count("subgraph cluster_") == 2
        assert dot.rstrip().endswith("}")

    def test_depths_increase_down_the_tree(self, fig1_graph):
        for rule_node in fig1_graph.rule_nodes.values():
            parent = fig1_graph.goal_nodes[rule_node.parent]
            assert rule_node.depth == parent.depth + 1
            for child in rule_node.subgoal_children:
                assert fig1_graph.goal_nodes[child].depth == rule_node.depth + 1


def Variable_Z():
    from repro.core.terms import Variable

    return Variable("Z")
