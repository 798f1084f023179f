"""Asynchrony on the simulator: seeded delivery, one process per node.

Every id in this module keeps a retired name: the asyncio runtime these
tests once drove is gone, and each test now checks, on the deterministic
simulator, the property its asyncio test stood for — answers that survive
an arbitrary (seeded random) delivery order, one process per graph node,
counted deliveries, a query run from inside an event loop the way
``QueryServer`` runs one, and a bounded run that fails typed instead of
hanging.
"""

import asyncio

import pytest

from repro.core.sips import all_free_sip
from repro.network.engine import MessagePassingEngine, evaluate
from repro.network.nodes import DRIVER_ID
from repro.network.scheduler import MessageBudgetExceeded
from repro.session import Session
from repro.workloads import (
    chain_edges,
    mutual_recursion_program,
    program_p1,
)

from tests.helpers import oracle_answers, with_tables


class TestEquivalence:
    def test_p1(self, p1_small):
        result = evaluate(p1_small, seed=3)
        assert result.completed
        assert result.answers == oracle_answers(p1_small)
        assert result.protocol_violations == []

    def test_nonlinear_tc(self, tc_random):
        result = evaluate(tc_random, seed=5)
        assert result.answers == oracle_answers(tc_random)
        assert result.protocol_violations == []

    def test_mutual_recursion(self):
        program = with_tables(mutual_recursion_program(0), {"e": chain_edges(8)})
        assert evaluate(program, seed=11).answers == oracle_answers(program)

    def test_all_free_sip(self, p1_small):
        result = evaluate(p1_small, sip_factory=all_free_sip, seed=13)
        assert result.answers == oracle_answers(p1_small)

    def test_repeated_runs_stable(self, p1_small):
        expected = oracle_answers(p1_small)
        for seed in range(5):
            assert evaluate(p1_small, seed=seed).answers == expected

    def test_empty_answer_set_completes(self):
        program = with_tables(program_p1(), {"r": [(5, 6)], "q": [(6, 5)]})
        result = evaluate(program, seed=17)
        assert result.completed and result.answers == set()


class TestRuntimeShape:
    def test_one_task_per_node(self, p1_small):
        engine = MessagePassingEngine(p1_small, seed=19)
        graph = engine.graph
        assert set(engine.processes) == (
            set(graph.goal_nodes) | set(graph.rule_nodes) | {DRIVER_ID}
        )
        assert engine.run().answers == oracle_answers(p1_small)

    def test_messages_counted(self, p1_small):
        result = evaluate(p1_small, seed=23)
        assert result.stats.delivered_total > 0

    def test_run_async_inside_event_loop(self, p1_small):
        session = Session(p1_small)

        async def main():
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, session.query, "p(a, Z)")

        assert asyncio.run(main()) == oracle_answers(p1_small)
        assert session.last_result.completed

    def test_timeout_raises(self, tc_random):
        with pytest.raises(MessageBudgetExceeded):
            evaluate(tc_random, seed=29, max_messages=10)
