"""Tests for set-at-a-time evaluation: TupleSet emission and bulk kernels.

The invariants:

* answers match the naive oracle, and the logical tuple rows every stream
  carries are pinned — per-stream dedup makes them a property of the least
  fixpoint, so they equal what a per-tuple evaluation sends (the pinned
  numbers are the counts both send paths agreed on before the per-tuple
  path was retired, on the paper's distributed graph, which the pinned
  runs below build explicitly);
* a ``TupleSet`` weighs ``len(rows)`` logical tuples in every counter that
  meant "tuples" (``delivered_logical``, per-receiver, computation), while
  ``delivered_physical`` counts deliveries;
* the bulk join kernels probe each stage index once per *distinct* join key
  per batch, so ``probe_lookups`` stays at or below the per-tuple count;
* provenance survives the bulk paths row by row.
"""

import pytest

from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine, evaluate
from repro.network.messages import TupleSet
from repro.workloads import (
    chain_edges,
    cycle_edges,
    facts_from_tables,
    left_recursive_tc_program,
    nonlinear_tc_program,
    nonrecursive_join_program,
    pair_table,
    program_p1,
    same_generation_program,
    tree_parent_edges,
)

from tests.helpers import oracle_answers, with_tables


def fan_out_program(rows=12):
    """One EDB scan that answers with many rows at once."""
    return parse_program("goal(X, Y) <- e(X, Y).").with_facts(
        facts_from_tables({"e": [(i, i + 1) for i in range(rows)]})
    )


def join_heavy_program():
    """A three-way join whose middle stages see duplicate join keys."""
    return with_tables(
        nonrecursive_join_program(),
        {
            "a": pair_table(6, 6, 24, seed=5),
            "b": pair_table(6, 6, 24, seed=6),
            "c": pair_table(6, 6, 24, seed=7),
        },
    )


WORKLOADS = {
    "p1": lambda: with_tables(
        program_p1(),
        {"r": [("a", 1), (1, 2), (2, 3)], "q": [(1, 2), (2, 3), (3, 1)]},
    ),
    "fan-out": fan_out_program,
    "tc-left-rec": lambda: with_tables(
        left_recursive_tc_program(0), {"e": chain_edges(10)}
    ),
    "tc-nonlinear": lambda: with_tables(
        nonlinear_tc_program(0), {"e": cycle_edges(6)}
    ),
    "same-gen": lambda: with_tables(
        same_generation_program(4), {"par": tree_parent_edges(3, 2)}
    ),
    "join": join_heavy_program,
}


def distributed(program, **options):
    """A run on the paper's distributed graph, the one the pins were taken on."""
    graph = build_rule_goal_graph(program, coalesce=False)
    return MessagePassingEngine(program, graph=graph, **options).run()


def logical_rows(result):
    """Tuple rows carried, whether as TupleMessages or inside TupleSets."""
    return result.stats.by_kind.get("TupleMessage", 0) + result.stats.tuple_set_rows


#: workload -> (answers, logical tuple rows), identical on both send paths.
PINNED = {
    "fan-out": (12, 36),
    "join": (36, 216),
    "p1": (3, 40),
    "same-gen": (4, 34),
    "tc-left-rec": (9, 63),
    "tc-nonlinear": (6, 266),
}


class TestAnswerParity:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_answers_with_and_without_sets(self, name):
        # The per-tuple side is the PINNED record of what that path sent.
        program = WORKLOADS[name]()
        result = distributed(program)
        assert result.completed
        assert result.answers == oracle_answers(program)
        assert (len(result.answers), logical_rows(result)) == PINNED[name]

    @pytest.mark.parametrize("seeded", [False, True])
    def test_parity_composes_with_request_packaging(self, seeded):
        # Packaging merges requests, never answers: the rows are unchanged,
        # also when random latencies group the requests differently.
        program = join_heavy_program()
        result = distributed(program, seed=11 if seeded else None)
        assert result.answers == oracle_answers(program)
        assert logical_rows(result) == PINNED["join"][1]


class TestEmissionDiscipline:
    def test_fan_out_scan_is_one_physical_delivery(self):
        result = evaluate(fan_out_program(12))
        assert result.stats.tuple_sets > 0
        # The 12-row scan answer travels as sets, not 12 tuple messages.
        assert result.physical_messages < result.total_messages

    def test_single_row_emissions_stay_tuple_messages(self):
        # One matching fact per lookup: nothing to package, so every row
        # travels as a plain tuple message.
        program = parse_program("goal(Y) <- e(a, Y).").with_facts(
            facts_from_tables({"e": [("a", "b")]})
        )
        result = evaluate(program)
        assert not result.stats.tuple_sets
        assert result.stats.by_kind["TupleMessage"] == 3  # leaf, rule, goal
        assert result.answers == {("b",)}


class TestLogicalAccounting:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_logical_equals_physical_plus_extra_rows(self, name):
        # Each TupleSet adds len(rows) to the logical total but 1 to the
        # physical total, so the difference is exactly rows-minus-sets.
        stats = evaluate(WORKLOADS[name]()).stats
        assert (
            stats.delivered_logical - stats.delivered_physical
            == stats.tuple_set_rows - stats.tuple_sets
        )

    def test_per_receiver_counters_are_weighted(self):
        stats = evaluate(fan_out_program(12)).stats
        assert sum(stats.by_receiver.values()) == stats.delivered_logical
        assert sum(stats.sets_by_receiver.values()) == stats.tuple_sets

    def test_max_messages_budget_is_logical(self):
        # A tiny logical budget must trip even when everything ships as a
        # handful of physical sets.
        from repro.network.shard_loop import MessageBudgetExceeded

        program = fan_out_program(40)
        with pytest.raises(MessageBudgetExceeded):
            evaluate(program, max_messages=10)


class TestBulkJoinKernels:
    # The per-tuple path probed once per arriving row: 184 probes on the
    # join workload and 47 on the 12-edge chain.  The bulk kernels probe
    # once per distinct key per batch, and packaged requests make the
    # join's batches larger.
    def test_join_lookups_never_exceed_per_tuple(self):
        program = join_heavy_program()
        bulk = distributed(program)
        assert bulk.answers == oracle_answers(program)
        assert bulk.probe_lookups == 28 <= 184

    def test_distinct_key_probing_on_recursion(self):
        program = with_tables(left_recursive_tc_program(0), {"e": chain_edges(12)})
        bulk = distributed(program)
        assert bulk.answers == oracle_answers(program)
        assert (len(bulk.answers), logical_rows(bulk)) == (11, 77)
        assert bulk.probe_lookups == 47 <= 47


class TestProvenanceUnderSets:
    @pytest.mark.parametrize("name", ["fan-out", "tc-nonlinear", "join"])
    def test_every_answer_explainable(self, name):
        program = WORKLOADS[name]()
        engine = MessagePassingEngine(program, provenance=True)
        result = engine.run()
        assert result.stats.tuple_sets > 0, "workload should exercise sets"
        valid = {
            f"{f.predicate}({', '.join(str(v) for v in f.ground_tuple())})"
            for f in program.facts
        }
        for row in result.answers:
            derivation = engine.explain(row)
            for leaf in derivation.facts():
                assert leaf in valid


class TestReporting:
    def test_summary_and_node_table_mention_sets(self):
        result = evaluate(fan_out_program(12))
        summary = result.summary()
        assert "tuple sets:" in summary
        assert "logical in" in summary
        assert "sets-in" in result.node_table()

    def test_trace_sees_whole_sets(self):
        from repro.network.tracing import MessageTrace

        trace = MessageTrace()
        engine = MessagePassingEngine(fan_out_program(8), trace=trace)
        result = engine.run()
        traced_sets = [m for m in trace.messages if isinstance(m, TupleSet)]
        assert len(traced_sets) == result.stats.tuple_sets
