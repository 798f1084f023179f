"""Ablation — coalescing identical goal nodes (§2.2's single-processor mode).

"Several nodes in the graph may have identical predicates and binding
patterns.  For single processor computation it is probably desirable to
coalesce such nodes (thereby introducing cross and forward edges).  However,
for distributed or parallel computation, combining nodes may well be
counterproductive."

Series: graph size, total messages, and tuples materialized with and without
coalescing, across the recursion-shaped workloads.  Shape: coalescing always
shrinks the graph and the message count (the single-processor win the paper
predicts) while preserving answers and the termination guarantees — at the
price of shared nodes, i.e. the loss of per-branch parallelism the paper
warns about (measured here as the reduced process count).  Evaluation
runs the coalesced graph; both graphs are built explicitly here.
"""

import pytest

from repro.baselines import naive
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine
from repro.workloads import (
    chain_edges,
    cycle_edges,
    facts_from_tables,
    mutual_recursion_program,
    nonlinear_tc_program,
    program_p1,
    same_generation_program,
    tree_parent_edges,
)

from _support import emit_table, ratio


def cases():
    return [
        ("p1", program_p1().with_facts(facts_from_tables({
            "r": [("a", 1), (1, 2), (2, 3)], "q": [(1, 2), (2, 3), (3, 1)],
        }))),
        ("nonlinear tc", nonlinear_tc_program(0).with_facts(
            facts_from_tables({"e": cycle_edges(10)}))),
        ("mutual", mutual_recursion_program(0).with_facts(
            facts_from_tables({"e": chain_edges(10)}))),
        ("same-gen", same_generation_program(5).with_facts(
            facts_from_tables({"par": tree_parent_edges(4, 2)}))),
    ]


def run(program, coalesce: bool, seed=None):
    """One evaluation on the coalesced graph or on the distributed one."""
    graph = build_rule_goal_graph(program, coalesce=coalesce)
    return MessagePassingEngine(program, seed=seed, graph=graph).run()


def coalesce_rows() -> list[tuple]:
    """The table's rows; ``tests/integration/test_protocol_tables.py`` pins them."""
    rows = []
    for name, program in cases():
        oracle = naive.goal_answers(program)
        plain = run(program, coalesce=False)
        merged = run(program, coalesce=True)
        assert plain.answers == merged.answers == oracle
        assert merged.protocol_violations == []
        rows.append(
            (
                name,
                plain.graph.size(),
                merged.graph.size(),
                plain.total_messages,
                merged.total_messages,
                f"{ratio(plain.total_messages, merged.total_messages):.2f}x",
            )
        )
    return rows


def test_claim_coalesce_table():
    rows = coalesce_rows()
    emit_table(
        "claim-coalesce: single-processor coalescing vs distributed graphs",
        ["case", "nodes", "nodes (coalesced)", "msgs", "msgs (coalesced)", "msg factor"],
        rows,
    )
    for row in rows:
        assert row[2] <= row[1]  # graph never grows
        assert row[4] <= row[3]  # messages never grow on these workloads


def test_claim_coalesce_preserves_termination_guarantees():
    for name, program in cases():
        for seed in (1, 23):
            result = run(program, coalesce=True, seed=seed)
            assert result.completed
            assert result.protocol_violations == []


@pytest.mark.benchmark(group="claim-coalesce")
@pytest.mark.parametrize("mode", ["distributed", "coalesced"])
def test_bench_coalesce(benchmark, mode):
    program = cases()[1][1]
    result = benchmark(run, program, coalesce=(mode == "coalesced"))
    assert result.completed
