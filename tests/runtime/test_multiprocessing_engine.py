"""The pool at its finest placement: eight workers, batches of one.

Every id in this module keeps a retired name: the one-OS-process-per-node
runtime these tests once drove is gone, and each test now runs the pool
with ``workers=8, batch_size=1``: strong components and acyclic nodes
round-robin over eight shards, eight EDB replicas, and every cross-shard
message shipped alone — the finest placement the surviving runtimes have.
"""

import sys

import pytest

from repro.core.rulegoal import build_rule_goal_graph
from repro.runtime import evaluate_pool
from repro.workloads import (
    ancestor_program,
    chain_edges,
    cycle_edges,
    mutual_recursion_program,
    nonlinear_tc_program,
)

from tests.helpers import oracle_answers, with_tables

pytestmark = pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="fork start method required"
)


def _finest_pool(program, **options):
    return evaluate_pool(
        program, workers=8, batch_size=1, edb_shards=8, timeout=60, **options
    )


class TestMultiprocessingRuntime:
    def test_p1(self, p1_small):
        result = _finest_pool(p1_small)
        assert result.completed
        assert result.answers == oracle_answers(p1_small)
        assert result.workers == 8 and result.cross_messages > 0

    def test_recursive_cycle(self):
        program = with_tables(nonlinear_tc_program(0), {"e": cycle_edges(6)})
        result = _finest_pool(program)
        assert result.answers == oracle_answers(program)

    def test_mutual_recursion(self):
        program = with_tables(mutual_recursion_program(0), {"e": chain_edges(6)})
        result = _finest_pool(program)
        assert result.cross_batches > 0
        assert result.answers == oracle_answers(program)

    def test_empty_answer_set_still_terminates(self):
        program = with_tables(ancestor_program("nobody"), {"par": chain_edges(4)})
        result = _finest_pool(program)
        assert result.cross_batches > 0
        assert result.completed and result.answers == set()

    def test_repeated_runs_stable(self, p1_small):
        expected = oracle_answers(p1_small)
        for _ in range(3):
            assert _finest_pool(p1_small).answers == expected

    def test_driver_accounting_matches_simulator(self, p1_small):
        # Regression: the query used to be posed by bumping the driver's
        # feeder sequence in the parent AFTER worker.start() — under fork the
        # driver child never saw the bump, so its stream accounting diverged
        # from the simulator's.  Posing now happens before the fork via
        # ``driver.start``; the pool must report the simulator's root-stream
        # accounting.
        from repro.network.engine import MessagePassingEngine

        engine = MessagePassingEngine(p1_small)
        engine.run()
        stream = engine.driver.feeders[engine.graph.root]

        result = _finest_pool(p1_small)
        assert result.driver_last_seq_sent == stream.last_seq_sent
        assert result.driver_last_upto_ended == stream.last_upto_ended
        # The driver poses exactly one request (the relation request, seq 0)
        # and must end fully caught up.
        assert result.driver_last_seq_sent == 0
        assert result.driver_last_upto_ended == 0

    def test_coalesce_and_package_knobs(self, p1_small):
        expected = oracle_answers(p1_small)
        # The distributed graph, passed in prebuilt (the default is coalesced).
        result = _finest_pool(p1_small, graph=build_rule_goal_graph(p1_small, coalesce=False))
        assert result.answers == expected
