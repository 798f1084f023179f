"""One evaluation graph: every entry point runs the coalesced rule/goal graph.

"For single processor computation it is probably desirable to coalesce
such nodes (thereby introducing cross and forward edges)" (§2.2).  Every
strong component and its feeders run on one shard, so evaluation builds
only the coalesced graph; ``build_rule_goal_graph(..., coalesce=False)``
is the one way to reach the paper's distributed graph, passed in as a
prebuilt ``graph``.  These tests check that every entry point runs the
graph ``build_rule_goal_graph`` gives by default, that none of them takes a
``coalesce`` keyword, and that no CLI command takes ``--coalesce``.
"""

import pytest

from repro.cli import main
from repro.cluster import evaluate_cluster
from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph, graph_cache_key, plan_graph
from repro.network.engine import MessagePassingEngine, evaluate
from repro.options import EvalOptions
from repro.runtime import evaluate_pool
from repro.service import SharedSession
from repro.session import Session

#: Nonlinear closure: the recursive rule's first subgoal is a variant of
#: the query goal, one shared node in the coalesced graph and a cyclic
#: node in the distributed one.
KB = """
t(X, Y) <- e(X, Y).
t(X, Y) <- t(X, Z), t(Z, Y).
e(1, 2). e(2, 3). e(3, 1). e(3, 4).
"""
QUERY = "t(1, Y)"
SOURCE = KB + f"?- {QUERY}."


def inventory(graph) -> tuple:
    """The graph's nodes, whatever their ids and variable names: each goal
    node's predicate, adornment and kind, and each rule node's head and
    body adornments."""
    goals = sorted(
        (g.predicate, g.adorned.adornment_string(), g.kind)
        for g in graph.goal_nodes.values()
    )
    rules = sorted(
        (
            r.head.predicate,
            r.head.adornment_string(),
            tuple((a.predicate, a.adornment_string()) for a in r.adorned_body),
        )
        for r in graph.rule_nodes.values()
    )
    return goals, rules


def session_graph():
    session = Session(KB)
    session.query(QUERY)
    return session.last_result.graph


def pool_graph():
    return evaluate_pool(parse_program(SOURCE), workers=2, timeout=60).graph


def cluster_graph():
    return evaluate_cluster(parse_program(SOURCE), workers=2, timeout=60).graph


RUNS = {
    "Session": session_graph,
    "evaluate": lambda: evaluate(parse_program(SOURCE)).graph,
    "MessagePassingEngine": lambda: MessagePassingEngine(parse_program(SOURCE)).run().graph,
    "evaluate_pool": pool_graph,
    "evaluate_cluster": cluster_graph,
}


def test_the_distributed_graph_has_another_inventory():
    program = parse_program(SOURCE)
    default = build_rule_goal_graph(program)
    distributed = build_rule_goal_graph(program, coalesce=False)
    assert default.coalesced and not distributed.coalesced
    assert inventory(default) != inventory(distributed)


@pytest.mark.parametrize("entry", list(RUNS))
def test_every_entry_point_runs_the_default_graph(entry):
    graph = RUNS[entry]()
    assert graph.coalesced
    assert inventory(graph) == inventory(build_rule_goal_graph(parse_program(SOURCE)))


def test_repro_graph_prints_the_default_graph(tmp_path, capsys):
    path = tmp_path / "t.dl"
    path.write_text(SOURCE)
    assert main(["graph", str(path)]) == 0
    graph = build_rule_goal_graph(parse_program(SOURCE))
    assert capsys.readouterr().out.startswith(
        graph.pretty()
        + f"\n-- {len(graph.goal_nodes)} goal nodes, {len(graph.rule_nodes)} rule nodes\n"
    )


REFUSED = {
    "Session": lambda: Session(KB, coalesce=True),
    "SharedSession": lambda: SharedSession(KB, coalesce=True),
    "MessagePassingEngine": lambda: MessagePassingEngine(parse_program(SOURCE), coalesce=True),
    "evaluate": lambda: evaluate(parse_program(SOURCE), coalesce=True),
    "evaluate_pool": lambda: evaluate_pool(parse_program(SOURCE), coalesce=True),
    "evaluate_cluster": lambda: evaluate_cluster(parse_program(SOURCE), coalesce=True),
    "plan_graph": lambda: plan_graph(parse_program(SOURCE), coalesce=True),
    "graph_cache_key": lambda: graph_cache_key(0, (), None, coalesce=True),
    "EvalOptions": lambda: EvalOptions(coalesce=True),
}


@pytest.mark.parametrize("entry", list(REFUSED))
def test_no_entry_point_takes_coalesce(entry):
    with pytest.raises(TypeError, match="coalesce"):
        REFUSED[entry]()


@pytest.mark.parametrize("command", ["run", "trace", "graph", "explain", "serve", "bench-session"])
def test_no_command_takes_the_coalesce_flag(command, tmp_path, capsys):
    path = tmp_path / "t.dl"
    path.write_text(SOURCE)
    with pytest.raises(SystemExit) as info:
        main([command, str(path), "--coalesce"])
    assert info.value.code == 2
    assert "unrecognized arguments: --coalesce" in capsys.readouterr().err
