"""Stacked and interlocking strong components: recursion feeding recursion.

The reduced rule/goal graph is a DAG of strong components; end messages must
flow bottom-up through it (a component's feeders include lower components'
leaders), and each component runs its own Fig-2 protocol instance.  These
tests pin down that composition.
"""

import sys

import pytest

from repro.baselines import naive, seminaive, topdown
from repro.core.parser import parse_program
from repro.network.engine import evaluate
from repro.runtime import evaluate_async, evaluate_pool
from repro.workloads import chain_edges, cycle_edges, facts_from_tables

STACKED = """
goal(Z) <- p(0, Z).
p(X, Y) <- q(X, Y).
p(X, Y) <- q(X, U), p(U, Y).
q(X, Y) <- e(X, Y).
q(X, Y) <- e(X, U), q(U, Y).
"""

INTERLOCKED = """
goal(Z) <- a(0, Z).
a(X, Y) <- e(X, Y).
a(X, Y) <- b(X, U), a(U, Y).
b(X, Y) <- e(X, Y).
b(X, Y) <- a(X, U), b(U, Y).
"""

TRIPLE = """
goal(Z) <- top(0, Z).
top(X, Y) <- mid(X, Y).
top(X, Y) <- mid(X, U), top(U, Y).
mid(X, Y) <- low(X, Y).
mid(X, Y) <- low(X, U), mid(U, Y).
low(X, Y) <- e(X, Y).
low(X, Y) <- e(X, U), low(U, Y).
"""


def make(text, edges):
    return parse_program(text).with_facts(facts_from_tables({"e": edges}))


CASES = [
    ("stacked/chain", make(STACKED, chain_edges(7))),
    ("stacked/cycle", make(STACKED, cycle_edges(6))),
    ("interlocked", make(INTERLOCKED, chain_edges(6))),
    ("triple-stack", make(TRIPLE, chain_edges(6))),
]
IDS = [n for n, _ in CASES]


@pytest.mark.parametrize(("name", "program"), CASES, ids=IDS)
class TestNestedComponents:
    def test_engine_matches_oracle(self, name, program):
        expected = naive.goal_answers(program)
        result = evaluate(program)
        assert result.answers == expected
        assert result.completed
        assert result.protocol_violations == []

    @pytest.mark.parametrize("seed", [7, 101])
    def test_random_delivery(self, name, program, seed):
        result = evaluate(program, seed=seed)
        assert result.answers == naive.goal_answers(program)
        assert result.protocol_violations == []

    def test_coalesced(self, name, program):
        result = evaluate(program, coalesce=True)
        assert result.answers == naive.goal_answers(program)
        assert result.protocol_violations == []

    def test_asyncio(self, name, program):
        assert evaluate_async(program).answers == naive.goal_answers(program)

    @pytest.mark.skipif(
        sys.platform not in ("linux", "darwin"), reason="fork start method required"
    )
    def test_pool(self, name, program):
        # Two shards: stacked components land on different workers, so the
        # end messages between them cross a process boundary.
        result = evaluate_pool(program, workers=2, timeout=60)
        assert result.answers == naive.goal_answers(program)

    def test_baselines_agree(self, name, program):
        expected = naive.goal_answers(program)
        assert seminaive.evaluate(program).answers() == expected
        assert topdown.evaluate(program).answers() == expected


class TestComponentStructure:
    def test_stacked_components_are_disjoint_and_ordered(self):
        program = CASES[0][1]
        result = evaluate(program)
        infos = result.graph.strong_components()
        # q's components feed p's components, never vice versa: every feeder
        # of a member of a p-component is not inside any q-component above it.
        members = [info.members for info in infos]
        for a in members:
            for b in members:
                if a is not b:
                    assert not (a & b)

    def test_each_component_concludes(self):
        program = CASES[3][1]  # triple stack
        result = evaluate(program)
        assert result.protocol_conclusions >= len(result.graph.strong_components())

    def test_triple_stack_has_at_least_three_components(self):
        result = evaluate(CASES[3][1])
        assert len(result.graph.strong_components()) >= 3
