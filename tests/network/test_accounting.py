"""Per-query accounting regressions: node tuple attribution and db deltas."""

from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine, evaluate
from repro.relational.database import Database

# A ground recursive goal: in the distributed graph the subgoal t(c1)
# inside the second rule is a variant of its ancestor goal t(c1),
# producing a cyclic node whose label equals the ancestor's — two
# distinct nodes, one label.  (The coalesced graph merges them.)
GROUND_RECURSION = """
t(X) <- base(X).
t(X) <- link(X), t(X).
base(c1). link(c1).
?- t(c1).
"""


def _tuples_invariant(result):
    """Sum over the by-node map must reach the stored-tuple total."""
    return (
        sum(result.tuples_by_node.values())
        == result.tuples_stored - result.envs_materialized
    )


class TestTuplesByNode:
    def test_duplicate_labels_aggregate_instead_of_overwrite(self):
        program = parse_program(GROUND_RECURSION)
        graph = build_rule_goal_graph(program, coalesce=False)
        engine = MessagePassingEngine(program, graph=graph)
        result = engine.run()
        labels = [
            engine.graph.node_label(node_id)
            for node_id in list(engine.graph.goal_nodes)
            + list(engine.graph.rule_nodes)
        ]
        assert labels.count("t(c1^c)") == 2  # the scenario is real
        assert result.answers == {()}
        # Both same-label nodes store one tuple each; the overwrite bug
        # reported 1 here instead of 2.
        assert result.tuples_by_node["t(c1^c)"] == 2
        assert _tuples_invariant(result)

    def test_invariant_holds_with_coalesce(self):
        program = parse_program(GROUND_RECURSION)
        result = evaluate(program)  # the coalesced graph
        assert result.answers == {()}
        assert _tuples_invariant(result)

    def test_invariant_on_recursive_workload_both_modes(self):
        from repro.workloads import ancestor_program, chain_edges, facts_from_tables

        program = ancestor_program(0).with_facts(
            facts_from_tables({"par": chain_edges(13)})
        )
        for graph in (build_rule_goal_graph(program, coalesce=False), None):
            result = MessagePassingEngine(program, graph=graph).run()
            assert len(result.answers) == 12
            assert _tuples_invariant(result)

    def test_node_table_consistent_with_by_node_map(self):
        program = parse_program(GROUND_RECURSION)
        result = evaluate(program)
        table = result.node_table(top=20)
        assert "t(c1^c)" in table


class TestSharedDatabaseDeltas:
    KB = """
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, U), anc(U, Y).
    ?- anc(ann, Z).
    """
    FACTS = "par(ann, bob).  par(bob, cal).  par(cal, dee)."

    def _program(self):
        return parse_program(self.KB + self.FACTS)

    def test_two_runs_against_one_database_report_deltas(self):
        program = self._program()
        database = Database.from_facts(program.facts)
        first = MessagePassingEngine(program, database=database).run()
        second = MessagePassingEngine(program, database=database).run()
        assert first.answers == second.answers
        # Per-query deltas: identical work both times, not cumulative.
        assert (second.db_scans, second.db_indexed_lookups, second.db_rows_retrieved) == (
            first.db_scans,
            first.db_indexed_lookups,
            first.db_rows_retrieved,
        )
        assert first.db_scans + first.db_indexed_lookups > 0
        # The shared database's own counters do accumulate.
        assert database.indexed_lookups == 2 * first.db_indexed_lookups
        assert database.scans == 2 * first.db_scans
        assert database.rows_retrieved == 2 * first.db_rows_retrieved

    def test_fresh_database_matches_shared_database_deltas(self):
        program = self._program()
        fresh = MessagePassingEngine(program).run()
        database = Database.from_facts(program.facts)
        MessagePassingEngine(program, database=database).run()
        shared = MessagePassingEngine(program, database=database).run()
        assert (fresh.db_scans, fresh.db_indexed_lookups, fresh.db_rows_retrieved) == (
            shared.db_scans,
            shared.db_indexed_lookups,
            shared.db_rows_retrieved,
        )


class TestPrebuiltGraph:
    def test_engine_accepts_prebuilt_graph(self):
        from repro.core.rulegoal import build_rule_goal_graph
        from repro.core.sips import greedy_sip

        program = parse_program(
            TestSharedDatabaseDeltas.KB + TestSharedDatabaseDeltas.FACTS
        )
        graph = build_rule_goal_graph(program, greedy_sip)
        baseline = evaluate(program)
        engine = MessagePassingEngine(program, graph=graph)
        assert engine.graph is graph
        result = engine.run()
        assert result.answers == baseline.answers

    def test_one_graph_many_engines(self):
        from repro.core.rulegoal import build_rule_goal_graph
        from repro.core.sips import greedy_sip

        program = parse_program(
            TestSharedDatabaseDeltas.KB + TestSharedDatabaseDeltas.FACTS
        )
        graph = build_rule_goal_graph(program, greedy_sip)
        database = Database.from_facts(program.facts)
        answers = [
            MessagePassingEngine(program, graph=graph, database=database).run().answers
            for _ in range(3)
        ]
        assert answers[0] == answers[1] == answers[2] == {("bob",), ("cal",), ("dee",)}
