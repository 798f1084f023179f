"""Engine-level tests: end-to-end evaluation, statistics, configurations."""

import pytest

from repro.baselines import naive
from repro.core.parser import parse_program
from repro.core.sips import all_free_sip, left_to_right_sip
from repro.network.engine import MessagePassingEngine, evaluate
from repro.network.shard_loop import MessageBudgetExceeded
from repro.network.tracing import MessageTrace
from repro.workloads import facts_from_tables, program_p1

from tests.helpers import oracle_answers, with_tables


class TestBasicEvaluation:
    def test_p1_answers(self, p1_small):
        result = evaluate(p1_small)
        assert result.answers == oracle_answers(p1_small)
        assert result.completed

    def test_ancestor_chain(self, ancestor_chain):
        result = evaluate(ancestor_chain)
        assert result.answers == {(i,) for i in range(1, 12)}

    def test_empty_edb(self):
        program = program_p1().with_facts([])
        result = evaluate(program)
        assert result.answers == set()
        assert result.completed

    def test_no_matching_tuples(self):
        program = with_tables(program_p1(), {"r": [(5, 6)], "q": [(6, 7)]})
        result = evaluate(program)  # query constant 'a' unreachable
        assert result.answers == set()
        assert result.completed

    def test_nonrecursive_program(self):
        program = parse_program(
            """
            goal(X, Z) <- a(X, Y), b(Y, Z).
            a(1, 2).  a(3, 4).  b(2, 9).  b(4, 8).
            """
        )
        result = evaluate(program)
        assert result.answers == {(1, 9), (3, 8)}
        # No recursion: no strong components, no protocol traffic.
        assert result.protocol_messages == 0
        assert result.protocol_rounds == 0

    def test_unit_rules(self):
        program = parse_program(
            """
            goal(X) <- p(a, X).
            p(X, Y) <- e(X, Y).
            p(a, direct).
            e(a, b).
            """
        )
        assert evaluate(program).answers == {("b",), ("direct",)}

    def test_multiple_query_rules(self):
        program = parse_program(
            """
            goal(X) <- a(X).
            goal(X) <- b(X).
            a(1).  b(2).
            """
        )
        assert evaluate(program).answers == {(1,), (2,)}

    def test_constants_inside_rule_bodies(self):
        program = parse_program(
            """
            goal(X) <- p(X).
            p(X) <- e(k, X).
            e(k, 1).  e(j, 2).
            """
        )
        assert evaluate(program).answers == {(1,)}


class TestConfigurations:
    def test_all_sips_agree(self, p1_small, tc_random):
        for program in (p1_small, tc_random):
            expected = oracle_answers(program)
            for sip in (None, all_free_sip, left_to_right_sip):
                kwargs = {} if sip is None else {"sip_factory": sip}
                assert evaluate(program, **kwargs).answers == expected

    @pytest.mark.parametrize("seed", [1, 2, 3, 10, 99])
    def test_random_delivery_orders_agree(self, p1_small, seed):
        expected = oracle_answers(p1_small)
        result = evaluate(p1_small, seed=seed)
        assert result.answers == expected
        assert not result.protocol_violations

    def test_message_budget(self, tc_random):
        with pytest.raises(MessageBudgetExceeded):
            evaluate(tc_random, max_messages=20)

    def test_trace_hook(self, p1_small):
        trace = MessageTrace(limit=1000)
        engine = MessagePassingEngine(p1_small, trace=trace)
        engine.run()
        assert trace.messages
        rendered = trace.render(engine.graph)
        assert "relation request" in rendered
        assert "tuple" in rendered


class TestStatistics:
    def test_sideways_reduces_materialization(self):
        # The central efficiency claim: class "d" restriction keeps
        # intermediate relations smaller than the all-free variant.
        from repro.workloads import chain_edges

        program = with_tables(
            parse_program(
                """
                goal(Z) <- t(0, Z).
                t(X, Y) <- e(X, Y).
                t(X, Y) <- e(X, U), t(U, Y).
                """
            ),
            {"e": chain_edges(16)},
        )
        greedy = evaluate(program)
        free = evaluate(program, sip_factory=all_free_sip)
        assert greedy.answers == free.answers
        assert greedy.tuples_stored <= free.tuples_stored

    def test_protocol_accounting_present_for_recursion(self, p1_small):
        result = evaluate(p1_small)
        assert result.protocol_rounds >= 2
        assert result.protocol_conclusions >= 1
        assert result.protocol_messages > 0

    def test_db_counters(self, p1_small):
        result = evaluate(p1_small)
        assert result.db_indexed_lookups + result.db_scans > 0
        assert result.db_rows_retrieved > 0

    def test_tuples_by_node_labels(self, p1_small):
        result = evaluate(p1_small)
        assert result.tuples_by_node
        assert all(isinstance(k, str) for k in result.tuples_by_node)

    def test_summary_renders(self, p1_small):
        text = evaluate(p1_small).summary()
        assert "answers" in text and "messages" in text

    def test_node_table_renders(self, p1_small):
        text = evaluate(p1_small).node_table(top=5)
        assert "msgs-in" in text
        assert "p(" in text
        assert len(text.splitlines()) <= 6

    def test_trivial_relay_saves_storage(self, p1_small):
        # §3.1: trivial goal nodes (one in-edge, one out-edge) are exempt
        # from storing their temporary relations.
        from repro.network.engine import MessagePassingEngine
        from repro.network.nodes import GoalNodeProcess

        engine = MessagePassingEngine(p1_small)
        exempt = [
            p
            for p in engine.processes.values()
            if isinstance(p, GoalNodeProcess) and p.trivial_relay
        ]
        assert exempt, "P1's top goal node is trivial"
        with_opt = engine.run()
        plain = MessagePassingEngine(p1_small)
        for process in plain.processes.values():
            if isinstance(process, GoalNodeProcess):
                process.trivial_relay = False
        without_opt = plain.run()
        assert with_opt.answers == without_opt.answers
        assert with_opt.tuples_stored < without_opt.tuples_stored

    def test_no_protocol_violations_across_seeds(self, tc_random):
        for seed in (None, 5, 6):
            result = evaluate(tc_random, seed=seed)
            assert result.protocol_violations == []


class TestDistributionProperties:
    def test_driver_gets_end_exactly_after_all_answers(self, p1_small):
        # The driver's completion flag implies the full answer set arrived.
        result = evaluate(p1_small)
        assert result.completed
        assert result.answers == oracle_answers(p1_small)

    def test_goal_node_serves_separate_streams(self):
        # P1's p(V^d, Z^f) node serves two cyclic customers; per-stream
        # bookkeeping must keep them independent (exercised end-to-end).
        program = with_tables(
            program_p1(),
            {"r": [("a", 1), (1, 2), (2, 3), (3, 4)], "q": [(1, 1), (2, 2), (1, 2)]},
        )
        result = evaluate(program)
        assert result.answers == oracle_answers(program)

    def test_specialized_rule_heads(self):
        # Rule heads with constants and repeated variables under d-requests.
        program = parse_program(
            """
            goal(Z) <- p(a, Z).
            p(X, Y) <- q(X, Y).
            q(X, X) <- loopy(X).
            q(a, special) <- trigger(a).
            loopy(a).  loopy(b).  trigger(a).
            """
        )
        assert evaluate(program).answers == {("a",), ("special",)}
