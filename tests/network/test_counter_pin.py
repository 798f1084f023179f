"""Pinned QueryResult counters for programs that reach every kernel branch.

Each program below exercises one branch of the node kernels — a nullary
join key, an ``env_is_row`` stage, a row with a repeated variable, a
constant head and a bodiless rule, a coalesced shared subgoal, a goal
node serving a ``wants_all`` consumer, the cost planner, and EDB leaves
whose "c" constants sit before and after their "d" positions.  Every
counter of each run, and of one ``run_delta`` wave, is pinned exactly: a
rewrite of the kernels' data structures must leave every count where it
was.  The runs use the default options, so every node packages its tuple
requests per producer (footnote 2) and a request message may carry
several bindings.

``LOGICAL`` and ``SCHEDULE`` were recorded on the paper's distributed
rule/goal graph (the coalesced one for ``coalesced_shared_subgoal``), and
each run builds that graph explicitly.  ``DEFAULT_LOGICAL`` and
``DEFAULT_SCHEDULE`` pin the same programs on the coalesced graph that
every entry point builds by default.

The logical counts are a property of the least fixpoint and must not
depend on set iteration order, so CI runs this file under two
``PYTHONHASHSEED`` values as well.  The schedule counts (how rows were
packed into deliveries, how many protocol waves ran) follow the order in
which string-valued bindings leave a set, so they are pinned in a child
interpreter with the hash seed fixed.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine
from repro.workloads import facts_from_tables

from tests.helpers import distributed_graph, oracle_answers

CHAIN = "e(a, b). e(b, c). e(c, d). e(d, b). e(c, e). e(e, f)."

PROGRAMS = {
    # Stage 1 and stage 2 share no variable: both join on the nullary key,
    # and the free query makes every goal stream wants_all.
    "nullary_key": (
        """
        goal(X, Y) <- p(X, Y).
        p(X, Y) <- a(X), b(Y).
        a(1). a(2). a(3). b(x). b(y).
        """,
        {},
    ),
    # Left-recursive closure over string constants: the recursive stage's
    # environment is the received row.
    "env_is_row": (
        f"""
        goal(Z) <- t(a, Z).
        t(X, Y) <- e(X, Y).
        t(X, Y) <- t(X, U), e(U, Y).
        {CHAIN}
        """,
        {},
    ),
    # e(X, X) and f(Y, Y): rows whose variables repeat (row_perm is None).
    "repeated_variable": (
        """
        goal(X, Y) <- p(X, Y).
        p(X, Y) <- e(X, Y), f(Y, Y).
        p(X, X) <- e(X, X).
        e(1, 1). e(1, 2). e(2, 3). e(3, 3).
        f(2, 2). f(3, 3). f(3, 4).
        """,
        {},
    ),
    # A constant head argument on a "d" position (requests that clash with
    # it derive nothing), a constant in an output position, and a bodiless
    # rule (an IDB fact).
    "constant_head_bodiless": (
        """
        goal(X, Y) <- r(X, Z), s(Z, Y).
        s(k, X) <- q(X).
        s(m, tag) <- q(m).
        s(n, lone).
        r(1, k). r(2, m). r(3, n). r(4, z).
        q(m). q(v). q(w).
        """,
        {},
    ),
    # Nonlinear closure with coalescing: both t subgoals of the recursive
    # rule are served by one shared goal node.
    "coalesced_shared_subgoal": (
        f"""
        goal(Z) <- t(a, Z).
        t(X, Y) <- e(X, Y).
        t(X, Y) <- t(X, Z), t(Z, Y).
        {CHAIN}
        """,
        {},
    ),
    # The goal t(X, Y) has no "d" positions: its consumer wants all rows.
    "wants_all_consumer": (
        f"""
        goal(X, Y) <- t(X, Y), s(Y).
        t(X, Y) <- e(X, Y).
        t(X, Y) <- e(X, U), t(U, Y).
        s(d). s(f).
        {CHAIN}
        """,
        {},
    ),
    # The cost planner reorders a skewed three-way join.
    "cost_planner": (
        """
        goal(X, W) <- big(X, Y), mid(Y, Z), tiny(Z, W).
        big(1, 1). big(1, 2). big(2, 2). big(2, 3). big(3, 1). big(3, 3).
        big(4, 1). big(4, 2). big(5, 3). big(6, 2).
        mid(1, 7). mid(2, 8). mid(3, 7).
        tiny(7, end).
        """,
        {"planner": "cost"},
    ),
    # EDB leaves whose "c" constant follows, and precedes, the "d" value.
    "edb_constant_positions": (
        """
        goal(X, Y) <- a(X), r(X, k, Y), w(k, Y, Z).
        a(1). a(2). a(3).
        r(1, k, p). r(1, j, q). r(2, k, q). r(3, k, p). r(3, k, s).
        w(k, p, 1). w(k, q, 2). w(j, p, 3). w(k, s, 4).
        """,
        {},
    ),
}


#: Counts a least fixpoint determines, whatever the delivery order -- but
#: for the computation-message count (the second field): it includes end
#: messages, and how many requests one end covers follows the delivery
#: order (a seeded run of ``constant_head_bodiless``,
#: ``coalesced_shared_subgoal`` or ``wants_all_consumer`` moves it), so it
#: is pinned for the send-order delivery of the one delivery loop.
LOGICAL = {
    "nullary_key": (6, 41, 29, 28, 6, 16, 17, 11, 15, 4, 2, 0, 5),
    "env_is_row": (5, 60, 37, 45, 21, 24, 19, 16, 16, 18, 1, 4, 10),
    "repeated_variable": (4, 43, 25, 32, 12, 19, 16, 12, 13, 9, 3, 0, 11),
    "constant_head_bodiless": (5, 53, 28, 35, 13, 20, 17, 13, 13, 10, 2, 1, 8),
    "coalesced_shared_subgoal": (5, 132, 84, 194, 75, 98, 109, 64, 96, 62, 1, 4, 10),
    "wants_all_consumer": (9, 195, 157, 232, 84, 122, 102, 77, 89, 71, 5, 0, 26),
    "cost_planner": (5, 33, 19, 19, 8, 13, 10, 9, 9, 7, 1, 3, 9),
    "edb_constant_positions": (4, 32, 18, 23, 14, 19, 13, 10, 12, 13, 2, 1, 11),
    "delta_wave": (7, 19, 15, 63, 30, 33, 26, 23, 23, 27, 0, 2, 2),
}

#: Counts that follow the delivery order, under PYTHONHASHSEED=0.
SCHEDULE = {
    "nullary_key": (41, 18, 0, 6, 29, 0, 0),
    "env_is_row": (82, 73, 22, 9, 18, 5, 1),
    "repeated_variable": (43, 29, 0, 11, 25, 0, 0),
    "constant_head_bodiless": (53, 40, 0, 6, 19, 0, 0),
    "coalesced_shared_subgoal": (148, 112, 16, 25, 61, 7, 2),
    "wants_all_consumer": (213, 137, 18, 36, 112, 4, 1),
    "cost_planner": (33, 19, 0, 4, 18, 0, 0),
    "edb_constant_positions": (32, 19, 0, 5, 18, 0, 0),
    "delta_wave": (33, 33, 14, 0, 0, 8, 2),
}

#: ``LOGICAL`` on the default (coalesced) graph.
DEFAULT_LOGICAL = {
    "nullary_key": (6, 41, 29, 28, 6, 16, 17, 11, 15, 4, 2, 0, 5),
    "env_is_row": (5, 54, 32, 40, 21, 24, 19, 16, 16, 18, 1, 4, 10),
    "repeated_variable": (4, 43, 25, 32, 12, 19, 16, 12, 13, 9, 3, 0, 11),
    "constant_head_bodiless": (5, 53, 28, 35, 13, 20, 17, 13, 13, 10, 2, 1, 8),
    "coalesced_shared_subgoal": (5, 132, 84, 194, 75, 98, 109, 64, 96, 62, 1, 4, 10),
    "wants_all_consumer": (9, 178, 141, 216, 84, 122, 102, 77, 89, 71, 5, 0, 26),
    "cost_planner": (5, 33, 19, 19, 8, 13, 10, 9, 9, 7, 1, 3, 9),
    "edb_constant_positions": (4, 32, 18, 23, 14, 19, 13, 10, 12, 13, 2, 1, 11),
    "delta_wave": (7, 17, 13, 56, 30, 33, 26, 23, 23, 27, 0, 2, 2),
}

#: ``SCHEDULE`` on the default graph, under PYTHONHASHSEED=0.
DEFAULT_SCHEDULE = {
    "nullary_key": (41, 18, 0, 6, 29, 0, 0),
    "env_is_row": (65, 57, 11, 8, 16, 5, 1),
    "repeated_variable": (43, 29, 0, 11, 25, 0, 0),
    "constant_head_bodiless": (53, 40, 0, 6, 19, 0, 0),
    "coalesced_shared_subgoal": (148, 112, 16, 25, 61, 7, 2),
    "wants_all_consumer": (189, 116, 11, 33, 106, 5, 1),
    "cost_planner": (33, 19, 0, 4, 18, 0, 0),
    "edb_constant_positions": (32, 19, 0, 5, 18, 0, 0),
    "delta_wave": (24, 24, 7, 0, 0, 8, 2),
}


def logical_counters(result) -> tuple:
    """Answers, logical traffic, storage, probes, kernel batches, EDB reads."""
    by_kind = result.stats.by_kind
    return (
        len(result.answers),
        result.computation_messages,
        by_kind.get("TupleMessage", 0) + result.stats.tuple_set_rows,
        result.tuples_stored,
        result.probe_lookups,
        result.index_inserts,
        result.envs_materialized,
        result.batch_rows_in,
        result.batch_rows_out,
        result.batch_distinct_keys,
        result.db_scans,
        result.db_indexed_lookups,
        result.db_rows_retrieved,
    )


def schedule_counters(result) -> tuple:
    """How rows were packed into deliveries and how many protocol waves ran."""
    return (
        result.total_messages,
        result.physical_messages,
        result.protocol_messages,
        result.stats.tuple_sets,
        result.stats.tuple_set_rows,
        result.protocol_rounds,
        result.protocol_conclusions,
    )


def pinned_graph(name: str, program, options: dict):
    """The graph ``LOGICAL`` and ``SCHEDULE`` pin ``name`` on."""
    if name == "coalesced_shared_subgoal":
        return build_rule_goal_graph(program, coalesce=True)
    return distributed_graph(program, **options)


def run(name: str, default_graph: bool = False):
    """One cold run, on the pinned graph or on the default one."""
    text, options = PROGRAMS[name]
    program = parse_program(text)
    graph = None if default_graph else pinned_graph(name, program, options)
    engine = MessagePassingEngine(program, graph=graph, **options)
    result = engine.run()
    assert result.completed and not result.protocol_violations
    assert result.answers == oracle_answers(program)
    return engine, result


def delta_wave(default_graph: bool = False):
    """One run_delta wave over the left-recursive closure."""
    engine, _ = run("env_is_row", default_graph)
    delta = facts_from_tables({"e": [("f", "g"), ("g", "a"), ("x", "y")]})
    engine.database.add_facts(delta)
    wave = engine.run_delta(delta)
    assert wave.completed and wave.incremental
    assert sorted(wave.new_answers) == [("a",), ("g",)]
    return wave


def results(default_graph: bool = False) -> dict:
    """Every pinned run: the cold run of each program, then the wave."""
    out = {name: run(name, default_graph)[1] for name in PROGRAMS}
    out["delta_wave"] = delta_wave(default_graph)
    return out


@pytest.fixture(scope="module")
def pinned_results():
    return results()


@pytest.fixture(scope="module")
def default_results():
    return results(default_graph=True)


@pytest.mark.parametrize("name", list(LOGICAL))
def test_logical_counters(pinned_results, name):
    assert logical_counters(pinned_results[name]) == LOGICAL[name]


@pytest.mark.parametrize("name", list(DEFAULT_LOGICAL))
def test_default_graph_logical_counters(default_results, name):
    assert logical_counters(default_results[name]) == DEFAULT_LOGICAL[name]


def test_schedule_counters_under_a_fixed_hash_seed():
    assert schedule_in_a_child(default_graph=False) == SCHEDULE


def test_default_graph_schedule_counters_under_a_fixed_hash_seed():
    assert schedule_in_a_child(default_graph=True) == DEFAULT_SCHEDULE


def schedule_in_a_child(default_graph: bool) -> dict:
    """Every run's schedule counters, from an interpreter with PYTHONHASHSEED=0."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    script = (
        "import json\n"
        "from tests.network.test_counter_pin import results, schedule_counters\n"
        f"runs = results(default_graph={default_graph})\n"
        "print(json.dumps({n: schedule_counters(r) for n, r in runs.items()}))\n"
    )
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return {name: tuple(values) for name, values in json.loads(done.stdout).items()}
