"""The correctness matrix: every evaluator × every program shape × EDBs.

All evaluators must agree with the naive minimum-model oracle on the goal
relation.  This is the package's master equivalence test.

``test_asyncio_runtime`` keeps a retired name: the asyncio runtime is gone,
and the id now runs the simulator under a second seeded random delivery
order, the interleaving property that runtime stood for.
"""

import pytest

from repro.baselines import bruteforce, naive, seminaive, topdown
from repro.core.sips import all_free_sip, left_to_right_sip
from repro.network.engine import evaluate
from repro.workloads import (
    ancestor_program,
    bill_of_materials_program,
    bom_tables,
    chain_edges,
    cycle_edges,
    grid_edges,
    left_recursive_tc_program,
    mutual_recursion_program,
    nonlinear_tc_program,
    nonrecursive_join_program,
    pair_table,
    program_p1,
    p1_tables,
    random_digraph_edges,
    same_generation_program,
    tree_parent_edges,
)

from tests.helpers import with_tables


def matrix_programs():
    """(name, program) pairs covering all recursion shapes and data shapes."""
    cases = []
    cases.append(
        ("p1/hand", with_tables(program_p1(), {
            "r": [("a", 1), (1, 2), (2, 3)],
            "q": [(1, 2), (2, 3), (3, 1)],
        }))
    )
    cases.append(("p1/random", with_tables(program_p1(), p1_tables(12, 0.5, seed=7))))
    cases.append(
        ("ancestor/chain", with_tables(ancestor_program(0), {"par": chain_edges(10)}))
    )
    cases.append(
        ("ancestor/tree", with_tables(ancestor_program(1), {"par": [
            (child, parent) for child, parent in tree_parent_edges(3, 2)
        ]}))
    )
    edges = random_digraph_edges(10, 25, seed=13)
    cases.append(("tc/nonlinear", with_tables(nonlinear_tc_program(edges[0][0]), {"e": edges})))
    cases.append(("tc/left-rec", with_tables(left_recursive_tc_program(0), {"e": chain_edges(9)})))
    cases.append(("tc/cycle", with_tables(nonlinear_tc_program(0), {"e": cycle_edges(7)})))
    cases.append(("tc/grid", with_tables(left_recursive_tc_program(0), {"e": grid_edges(3, 3)})))
    cases.append(
        ("same-gen", with_tables(same_generation_program(4), {"par": tree_parent_edges(3, 2)}))
    )
    cases.append(
        ("mutual", with_tables(mutual_recursion_program(0), {"e": chain_edges(8)}))
    )
    cases.append(
        ("nonrec-join", with_tables(nonrecursive_join_program(), {
            "a": pair_table(6, 6, 14, seed=1),
            "b": pair_table(6, 6, 14, seed=2),
            "c": pair_table(6, 6, 14, seed=3),
        }))
    )
    cases.append(
        ("bom", with_tables(bill_of_materials_program(), bom_tables(4, 3, 5, seed=2)))
    )
    return cases


CASES = matrix_programs()
IDS = [name for name, _ in CASES]


@pytest.fixture(scope="module")
def oracles():
    return {name: naive.goal_answers(program) for name, program in CASES}


@pytest.mark.parametrize(("name", "program"), CASES, ids=IDS)
class TestEvaluatorMatrix:
    def test_message_engine_greedy(self, name, program, oracles):
        result = evaluate(program)
        assert result.answers == oracles[name]
        assert result.completed
        assert result.protocol_violations == []

    def test_message_engine_all_free(self, name, program, oracles):
        assert evaluate(program, sip_factory=all_free_sip).answers == oracles[name]

    def test_message_engine_left_to_right(self, name, program, oracles):
        assert evaluate(program, sip_factory=left_to_right_sip).answers == oracles[name]

    def test_message_engine_random_delivery(self, name, program, oracles):
        assert evaluate(program, seed=42).answers == oracles[name]

    def test_asyncio_runtime(self, name, program, oracles):
        result = evaluate(program, seed=2024)
        assert result.answers == oracles[name]
        assert result.completed
        assert result.protocol_violations == []

    def test_seminaive(self, name, program, oracles):
        assert seminaive.evaluate(program).answers() == oracles[name]

    def test_topdown(self, name, program, oracles):
        assert topdown.evaluate(program).answers() == oracles[name]

    def test_bruteforce(self, name, program, oracles):
        try:
            result = bruteforce.evaluate(program, max_instances=400_000)
        except RuntimeError:
            pytest.skip("instantiation volume beyond the test budget")
        assert result.answers() == oracles[name]
