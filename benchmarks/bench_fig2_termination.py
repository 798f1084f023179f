"""Experiment fig2 — the distributed termination protocol in action.

Measures the Fig-2 protocol's cost (waves, protocol messages) as the
workload scales, on live recursive evaluations, and validates Theorem 3.1
against the scheduler's global quiescence oracle on every run.  The series
reported: protocol messages and waves vs EDB cycle length, and the protocol
share of all message traffic.  The protocol runs on the paper's
distributed graph (coalescing off), the machine Fig 2 describes.
"""

import pytest

from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine
from repro.workloads import cycle_edges, facts_from_tables, nonlinear_tc_program

from _support import emit_table, ratio


def run_cycle(n: int, seed=None):
    program = nonlinear_tc_program(0).with_facts(
        facts_from_tables({"e": cycle_edges(n)})
    )
    graph = build_rule_goal_graph(program, coalesce=False)
    return MessagePassingEngine(program, seed=seed, graph=graph).run()


def fig2_rows() -> list[tuple]:
    """The table's rows; ``tests/integration/test_protocol_tables.py`` pins them."""
    rows = []
    for n in (4, 8, 16, 24):
        result = run_cycle(n)
        assert result.completed and not result.protocol_violations
        assert len(result.answers) == n  # full cycle reachability
        rows.append(
            (
                n,
                result.computation_messages,
                result.protocol_messages,
                result.protocol_rounds,
                result.protocol_conclusions,
                f"{ratio(result.protocol_messages, result.total_messages):.2f}",
            )
        )
    return rows


def test_fig2_protocol_scaling_table():
    rows = fig2_rows()
    emit_table(
        "Fig 2: termination protocol cost vs cycle length (nonlinear TC)",
        ["n", "comp msgs", "proto msgs", "waves", "conclusions", "proto share"],
        rows,
    )
    # Shape: protocol traffic grows with the workload but conclusions stay
    # per-component (liveness without repeated false conclusions).
    assert rows[-1][2] > rows[0][2]
    assert all(row[4] <= 3 for row in rows)


def test_fig2_protocol_robust_to_delivery_order():
    baseline = run_cycle(10).answers
    for seed in (1, 2, 3, 4, 5):
        result = run_cycle(10, seed=seed)
        assert result.answers == baseline
        assert result.protocol_violations == []


@pytest.mark.benchmark(group="fig2-termination")
@pytest.mark.parametrize("n", [8, 16])
def test_bench_fig2_recursive_query(benchmark, n):
    result = benchmark(run_cycle, n)
    assert result.completed
