"""Experiment fig1 — regenerate Fig 1: the greedy rule/goal graph for P1.

Asserts the exact node inventory, adornments, and cycle edges of the figure,
prints the graph, and benchmarks graph construction (which, per Theorem 2.1,
must be independent of the EDB size — also asserted here).  Fig 1 is the
paper's distributed graph, so it is built with coalescing off; evaluation
runs the coalesced graph (``bench_claim_coalesce.py`` compares the two).
"""

import pytest

from repro.core.atoms import atom
from repro.core.rulegoal import build_rule_goal_graph
from repro.core.sips import greedy_sip
from repro.workloads import program_p1

from _support import emit_table


def build_fig1():
    return build_rule_goal_graph(program_p1(), greedy_sip, coalesce=False)


def test_fig1_structure_and_render():
    graph = build_fig1()
    inventory = sorted(
        (g.predicate, "".join(g.adorned.adornment), g.kind)
        for g in graph.goal_nodes.values()
    )
    emit_table(
        "Fig 1: goal-node inventory of the greedy rule/goal graph for P1",
        ["predicate", "adornment", "kind"],
        inventory,
    )
    print(graph.pretty())
    # Fig 1's inventory (plus the two trivial goal levels the paper omits).
    assert inventory.count(("p", "df", "cyclic")) == 2
    assert inventory.count(("p", "cf", "cyclic")) == 1
    assert inventory.count(("p", "df", "idb")) == 1
    assert inventory.count(("q", "df", "edb")) == 2
    assert ("r", "cf", "edb") in inventory and ("r", "df", "edb") in inventory
    assert len(graph.rule_nodes) == 5
    assert len(graph.strong_components()) == 2


def test_fig1_size_independent_of_edb():
    small = build_rule_goal_graph(
        program_p1().with_facts([atom("r", "a", 1)]), coalesce=False
    )
    facts = [atom("r", i, i + 1) for i in range(2000)]
    facts += [atom("q", i, i + 2) for i in range(2000)]
    big = build_rule_goal_graph(program_p1().with_facts(facts), coalesce=False)
    assert small.size() == big.size()  # Theorem 2.1


@pytest.mark.benchmark(group="fig1-construction")
def test_bench_fig1_construction(benchmark):
    graph = benchmark(build_fig1)
    assert graph.size() == 15
