"""Tests for coalesced rule/goal graphs — §2.2's single-processor variant.

"Several nodes in the graph may have identical predicates and binding
patterns.  For single processor computation it is probably desirable to
coalesce such nodes (thereby introducing cross and forward edges)."  With
coalescing, the strong-component leader must "propagate the end message
around the strong component, as other nodes may have customers"
(footnote 4) — here realized by the ComponentDone wave.

Every evaluation runs the coalesced graph; ``build_rule_goal_graph``'s
``coalesce=False`` gives the paper's distributed graph, compared against
here.
"""

import pytest

from repro.baselines import naive
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine, evaluate
from repro.workloads import (
    chain_edges,
    cycle_edges,
    mutual_recursion_program,
    nonlinear_tc_program,
    program_p1,
    random_digraph_edges,
    same_generation_program,
    tree_parent_edges,
)

from tests.helpers import oracle_answers, with_tables


def cases():
    return [
        ("p1", with_tables(program_p1(), {
            "r": [("a", 1), (1, 2), (2, 3)], "q": [(1, 2), (2, 3), (3, 1)],
        })),
        ("tc", with_tables(nonlinear_tc_program(0), {"e": cycle_edges(8)})),
        ("mutual", with_tables(mutual_recursion_program(0), {"e": chain_edges(8)})),
        ("same-gen", with_tables(same_generation_program(5), {
            "par": tree_parent_edges(3, 2)})),
    ]


class TestCoalescedGraphStructure:
    def test_p1_graph_shrinks(self):
        plain = build_rule_goal_graph(program_p1(), coalesce=False)
        merged = build_rule_goal_graph(program_p1())
        assert merged.size() < plain.size()
        assert merged.coalesced

    def test_no_cyclic_selection_nodes(self):
        merged = build_rule_goal_graph(program_p1(), coalesce=True)
        assert all(g.kind != "cyclic" for g in merged.goal_nodes.values())

    def test_signatures_unique(self):
        merged = build_rule_goal_graph(program_p1(), coalesce=True)
        signatures = [
            g.adorned.variant_signature() for g in merged.goal_nodes.values()
        ]
        assert len(signatures) == len(set(signatures))

    def test_shared_node_serves_both_recursive_subgoals(self):
        # In coalesced P1 the recursive rule's two p subgoals resolve to the
        # same goal node — the hardest wiring case.
        merged = build_rule_goal_graph(program_p1(), coalesce=True)
        doubled = [
            r
            for r in merged.rule_nodes.values()
            if len(r.subgoal_children) != len(set(r.subgoal_children))
        ]
        assert doubled

    def test_components_have_leaders_and_spanning_trees(self):
        merged = build_rule_goal_graph(program_p1(), coalesce=True)
        for info in merged.strong_components():
            reached = {info.leader}
            frontier = [info.leader]
            while frontier:
                node = frontier.pop()
                for child in info.bfst_children.get(node, ()):
                    assert child not in reached
                    reached.add(child)
                    frontier.append(child)
            assert reached == set(info.members)

    def test_pretty_handles_sharing(self):
        merged = build_rule_goal_graph(program_p1(), coalesce=True)
        text = merged.pretty()
        assert "shared node" in text


@pytest.mark.parametrize(("name", "program"), cases(), ids=[n for n, _ in cases()])
class TestCoalescedCorrectness:
    def test_matches_oracle(self, name, program):
        result = evaluate(program)
        assert result.graph.coalesced
        assert result.answers == oracle_answers(program)
        assert result.completed
        assert result.protocol_violations == []

    @pytest.mark.parametrize("seed", [2, 31])
    def test_random_delivery(self, name, program, seed):
        result = evaluate(program, seed=seed)
        assert result.answers == oracle_answers(program)
        assert result.protocol_violations == []

    def test_cheaper_than_uncoalesced(self, name, program):
        plain_graph = build_rule_goal_graph(program, coalesce=False)
        plain = MessagePassingEngine(program, graph=plain_graph).run()
        merged = evaluate(program)
        assert merged.graph.size() <= plain.graph.size()
        assert merged.total_messages <= plain.total_messages


class TestComponentDonePropagation:
    def test_every_member_catches_up(self):
        program = cases()[0][1]
        engine = MessagePassingEngine(program)
        engine.run()
        for process in engine.processes.values():
            for stream in process.feeders.values():
                if stream.is_feeder:
                    assert stream.caught_up

    def test_cached_replay_still_gets_an_end(self):
        # A second query wave against the same component: requests answered
        # from cache must still receive ends (the EndNudge path).
        edges = random_digraph_edges(8, 20, seed=5) + [(0, 1)]
        program = with_tables(nonlinear_tc_program(0), {"e": edges})
        result = evaluate(program)
        assert result.completed
        assert result.answers == oracle_answers(program)
