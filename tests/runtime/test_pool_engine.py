"""Tests for the pooled shard-worker runtime with batched channels."""

import sys

import pytest

from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine, assign_shards
from repro.network.nodes import DRIVER_ID
from repro.runtime.pool_engine import evaluate_pool
from repro.workloads import (
    ancestor_program,
    chain_edges,
    cycle_edges,
    left_recursive_tc_program,
    mutual_recursion_program,
    nonlinear_tc_program,
    program_p1,
    random_digraph_edges,
)

from tests.helpers import oracle_answers, with_tables

pytestmark = pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="fork start method required"
)


def two_component_program():
    """A join of two independent left-recursive closures: two components."""
    program = parse_program(
        """
        q(X, Y) <- t(X, U), s(U, Y).
        t(X, Y) <- e(X, Y).
        t(X, Y) <- t(X, U), e(U, Y).
        s(X, Y) <- f(X, Y).
        s(X, Y) <- s(X, U), f(U, Y).
        ?- q(0, Y).
        """
    )
    return with_tables(program, {"e": chain_edges(4), "f": chain_edges(4)})


class TestPoolRuntime:
    def test_p1(self, p1_small):
        result = evaluate_pool(p1_small, workers=2, timeout=60)
        assert result.completed
        assert result.answers == oracle_answers(p1_small)
        assert result.workers == 2

    def test_single_worker_degenerates_to_local_delivery(self, p1_small):
        result = evaluate_pool(p1_small, workers=1, timeout=60)
        assert result.answers == oracle_answers(p1_small)
        # One shard: everything is intra-process, nothing crosses a channel.
        assert result.cross_messages == 0
        assert result.cross_batches == 0

    def test_one_component_query_crosses_nothing(self):
        # Default placement: the component, its EDB leaves (one replica
        # each) and its acyclic feeders all share the driver's shard.
        program = with_tables(left_recursive_tc_program(0), {"e": chain_edges(10)})
        result = evaluate_pool(program, workers=2, timeout=60)
        assert result.cross_batches == 0
        assert result.answers == oracle_answers(program)

    def test_recursive_cycle(self):
        program = with_tables(nonlinear_tc_program(0), {"e": cycle_edges(6)})
        result = evaluate_pool(program, workers=2, timeout=60)
        assert result.answers == oracle_answers(program)

    def test_mutual_recursion(self):
        program = with_tables(mutual_recursion_program(0), {"e": chain_edges(6)})
        result = evaluate_pool(program, workers=3, edb_shards=3, timeout=60)
        assert result.cross_batches > 0
        assert result.answers == oracle_answers(program)

    def test_empty_answer_set_still_terminates(self):
        program = with_tables(ancestor_program("nobody"), {"par": chain_edges(4)})
        result = evaluate_pool(program, workers=2, edb_shards=2, timeout=60)
        assert result.cross_batches > 0
        assert result.completed and result.answers == set()

    def test_batch_size_one_matches_batch_size_large(self):
        edges = random_digraph_edges(10, 25, seed=13)
        program = with_tables(nonlinear_tc_program(edges[0][0]), {"e": edges})
        expected = oracle_answers(program)
        small = evaluate_pool(program, workers=2, batch_size=1, timeout=60)
        large = evaluate_pool(program, workers=2, batch_size=64, timeout=60)
        assert small.answers == expected
        assert large.answers == expected

    def test_batching_amortizes_queue_operations(self):
        # The point of the envelope: with batch_size > 1 the same traffic
        # must ride in strictly fewer queue operations.  A one-component
        # query crosses no shard by default, so spread the EDB replicas.
        program = with_tables(
            left_recursive_tc_program(0), {"e": chain_edges(20)}
        )
        unbatched = evaluate_pool(
            program, workers=2, batch_size=1, edb_shards=2, timeout=60
        )
        batched = evaluate_pool(
            program, workers=2, batch_size=64, edb_shards=2, timeout=60
        )
        assert unbatched.cross_batches > 0 and batched.cross_batches > 0
        assert unbatched.answers == batched.answers
        assert unbatched.cross_batches == unbatched.cross_messages
        assert batched.cross_batches < batched.cross_messages
        assert batched.batching_factor > 1.0

    def test_driver_accounting_matches_simulator(self, p1_small):
        engine = MessagePassingEngine(p1_small)
        engine.run()
        stream = engine.driver.feeders[engine.graph.root]
        result = evaluate_pool(p1_small, workers=2, timeout=60)
        assert result.driver_last_seq_sent == stream.last_seq_sent
        assert result.driver_last_upto_ended == stream.last_upto_ended

    def test_coalesce_and_package_knobs(self, p1_small):
        # The pool runs the coalesced graph by default; the paper's
        # distributed graph runs when passed in prebuilt.
        expected = oracle_answers(p1_small)
        graph = build_rule_goal_graph(p1_small, coalesce=False)
        result = evaluate_pool(p1_small, workers=2, graph=graph, timeout=60)
        assert result.answers == expected

    def test_more_workers_than_nodes(self, p1_small):
        # Shards beyond the node count just idle; correctness is unaffected.
        result = evaluate_pool(p1_small, workers=6, timeout=60)
        assert result.answers == oracle_answers(p1_small)

    def test_repeated_runs_stable(self, p1_small):
        expected = oracle_answers(p1_small)
        for _ in range(3):
            assert evaluate_pool(p1_small, workers=2, timeout=60).answers == expected


class TestAssignShards:
    def test_strong_components_stay_whole(self):
        program = with_tables(
            nonlinear_tc_program(0), {"e": random_digraph_edges(8, 16, seed=3)}
        )
        engine = MessagePassingEngine(program, validate_protocol=False)
        shard_of = assign_shards(engine, 3)
        for info in engine.graph.strong_components():
            shards = {shard_of[m] for m in info.members}
            assert len(shards) == 1, "a strong component crossed a shard boundary"

    def test_every_process_is_assigned(self, p1_small):
        engine = MessagePassingEngine(p1_small, validate_protocol=False)
        shard_of = assign_shards(engine, 4)
        assert set(shard_of) == set(engine.processes)
        assert all(0 <= s < 4 for s in shard_of.values())

    def test_driver_lands_on_shard_zero(self, p1_small):
        engine = MessagePassingEngine(p1_small, validate_protocol=False)
        assert assign_shards(engine, 3)[DRIVER_ID] == 0

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_one_component_query_lands_on_one_shard(self, n_shards):
        # The component goes to shard 0 with the driver, and every acyclic
        # node follows its consumer there: nothing is left to cross.
        program = with_tables(left_recursive_tc_program(0), {"e": chain_edges(8)})
        engine = MessagePassingEngine(program, validate_protocol=False)
        assert len(engine.graph.strong_components()) == 1
        assert set(assign_shards(engine, n_shards).values()) == {0}

    @pytest.mark.parametrize(
        "program",
        [
            program_p1(),
            nonlinear_tc_program(0),
            two_component_program(),
            left_recursive_tc_program(0),
        ],
        ids=["p1", "nonlinear-tc", "two-components", "left-recursive-tc"],
    )
    def test_acyclic_nodes_follow_a_consumer(self, program):
        engine = MessagePassingEngine(program, validate_protocol=False)
        in_component = {
            m for info in engine.graph.strong_components() for m in info.members
        }
        shard_of = assign_shards(engine, 3)
        for node_id, process in engine.processes.items():
            if node_id == DRIVER_ID or node_id in in_component:
                continue
            consumer_shards = {shard_of[c] for c in process.consumers}
            assert shard_of[node_id] == min(consumer_shards), node_id

    def test_two_components_still_spread(self):
        engine = MessagePassingEngine(two_component_program(), validate_protocol=False)
        components = engine.graph.strong_components()
        assert len(components) == 2
        shard_of = assign_shards(engine, 2)
        assert {shard_of[min(info.members)] for info in components} == {0, 1}

    def test_edb_replicas_spread_across_shards(self):
        program = with_tables(
            left_recursive_tc_program(0), {"e": chain_edges(8)}
        )
        engine = MessagePassingEngine(
            program, validate_protocol=False, edb_shards=3
        )
        shard_of = assign_shards(engine, 3)
        for replicas in engine.edb_replicas.values():
            assert len({shard_of[r] for r in replicas}) > 1


class TestEdbSharding:
    def test_replicated_edb_answers_match(self):
        program = with_tables(
            left_recursive_tc_program(0), {"e": chain_edges(10)}
        )
        expected = oracle_answers(program)
        for shards in (2, 4):
            result = evaluate_pool(
                program, workers=2, edb_shards=shards, timeout=60
            )
            assert result.answers == expected, f"edb_shards={shards}"

    def test_replicated_edb_in_simulator(self):
        # The replica wiring is engine-level, so even the deterministic
        # simulator can drive a partitioned-EDB network.
        program = with_tables(
            left_recursive_tc_program(0), {"e": chain_edges(10)}
        )
        engine = MessagePassingEngine(program, edb_shards=3)
        result = engine.run()
        assert result.answers == oracle_answers(program)
