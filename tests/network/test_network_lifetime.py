"""A finished process network is freed by reference counting.

The network an engine builds for one query is acyclic — engine → fabric
→ processes → protocol state, with nothing pointing back — so the moment
the last reference to the engine goes, every process goes with it, without
waiting for the cyclic garbage collector.  These tests run with the
collector disabled: an object that survives them is kept alive by a
reference cycle (or by an owner that should not have kept it).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine
from repro.relational.database import Database
from repro.session import Session
from repro.workloads import (
    ancestor_program,
    chain_edges,
    cycle_edges,
    facts_from_tables,
    nonlinear_tc_program,
    random_digraph_edges,
    same_generation_program,
    tree_parent_edges,
)

from tests.helpers import with_tables
from tests.network.test_counter_pin import PROGRAMS


def linear_tc():
    return with_tables(ancestor_program(0), {"par": chain_edges(12)})


def nonlinear_tc():
    edges = random_digraph_edges(15, 40, seed=2)
    return with_tables(nonlinear_tc_program(edges[0][0]), {"e": edges})


def cyclic_tc():
    return with_tables(ancestor_program(0), {"par": cycle_edges(9)})


def same_generation():
    return with_tables(same_generation_program(7), {"par": tree_parent_edges(3)})


#: ``package_requests`` keeps the id of the option that once switched
#: request packaging on; every run packages now, so that case runs seeded
#: random latencies instead, a schedule no other case covers.  Likewise
#: ``coalesce``: every run is coalesced now, so that case runs the paper's
#: distributed graph, passed in prebuilt.
CASES = {
    "linear_tc": (linear_tc, {}),
    "nonlinear_tc": (nonlinear_tc, {}),
    "cyclic_tc": (cyclic_tc, {}),
    "same_generation": (same_generation, {}),
    "coalesce": (
        nonlinear_tc, {"graph": build_rule_goal_graph(nonlinear_tc(), coalesce=False)}
    ),
    "package_requests": (nonlinear_tc, {"seed": 3}),
    "edb_shards": (cyclic_tc, {"edb_shards": 2}),
    "cost_planner": (nonlinear_tc, {"planner": "cost"}),
}

SESSION_KB = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, U), anc(U, Y).
t(X, Y) <- par(X, Y).
t(X, Y) <- t(X, U), t(U, Y).
par(0, 1). par(1, 2). par(2, 3). par(3, 4). par(4, 0). par(2, 5).
"""
SESSION_QUERIES = ("anc(0, Z)", "anc(X, Y)", "t(2, Z)", "t(X, 3)")


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def network_refs(engine) -> list[weakref.ref]:
    """Weak references to the engine and every object of its network."""
    refs = [weakref.ref(engine), weakref.ref(engine.fabric)]
    for process in engine.processes.values():
        refs.append(weakref.ref(process))
        if process.protocol is not None:
            refs.append(weakref.ref(process.protocol))
    return refs


def alive(refs) -> list:
    return [ref() for ref in refs if ref() is not None]


@pytest.fixture
def built(monkeypatch):
    """Weak references to the network of every engine run from here on."""
    networks: list[list[weakref.ref]] = []
    run = MessagePassingEngine.run

    def recording_run(self):
        networks.append(network_refs(self))
        return run(self)

    monkeypatch.setattr(MessagePassingEngine, "run", recording_run)
    return networks


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_freed_when_dropped(collector_off, case):
    program, options = CASES[case]
    engine = MessagePassingEngine(program(), **options)
    result = engine.run()
    assert result.completed and result.answers
    assert result.protocol_conclusions and not result.protocol_violations
    refs = network_refs(engine)
    del engine
    assert not alive(refs)
    assert result.answers  # the result outlives the network it came from


def test_session_query_keeps_no_network(collector_off, built):
    session = Session(SESSION_KB)  # provenance off
    for query in SESSION_QUERIES * 2:
        assert session.query(query)
    assert len(built) == 2 * len(SESSION_QUERIES)
    for refs in built:
        assert not alive(refs)
    assert session.last_result.completed


def test_provenance_session_keeps_only_its_last_network(collector_off, built):
    session = Session(SESSION_KB, provenance=True)
    for query in SESSION_QUERIES:
        session.query(query)
    *earlier, last = built
    assert all(not alive(refs) for refs in earlier)
    assert len(alive(last)) == len(last)  # explain() still has it
    session.explain(next(iter(session.last_result.answers)))


def test_materialization_keeps_its_network_until_closed(collector_off, built):
    session = Session(SESSION_KB)
    mat = session.materialize("anc(0, Z)")
    (refs,) = built
    for batch in ([(5, 6)], [(6, 7), (7, 8)]):
        session.add_facts(facts_from_tables({"par": batch}))
        result = mat.refresh()
        assert result.incremental and result.new_answers
    assert (8,) in mat.answers
    assert len(alive(refs)) == len(refs)  # a live materialization is warm
    mat.close()
    assert not alive(refs)
    assert (8,) in mat.answers


def pin_program(name: str):
    """A counter-pin program, its options and its query's body atoms."""
    text, options = PROGRAMS[name]
    program = parse_program(text)
    (query_rule,) = program.query_rules
    return program, options, list(query_rule.body)


def assert_no_cyclic_garbage(run_once) -> None:
    """``run_once`` leaves nothing for the collector once it ran warm.

    The first call warms the graph cache: building a rule/goal graph
    leaves cyclic garbage, evaluating over a cached one must not.
    """
    run_once()
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            run_once()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_queries_leave_no_cyclic_garbage():
    session = Session(SESSION_KB)

    def run_once():
        for query in SESSION_QUERIES:
            session.query(query)

    assert_no_cyclic_garbage(run_once)


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_pin_program_queries_leave_no_cyclic_garbage(name):
    program, options, query = pin_program(name)
    session = Session(program, **options)
    assert_no_cyclic_garbage(lambda: session.query(query))


@pytest.mark.parametrize("edb_shards", [1, 2])
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_job_engines_leave_no_cyclic_garbage(name, edb_shards):
    """An engine over a resident graph and database, as a cluster worker
    builds one per job."""
    program, options, _ = pin_program(name)
    graph = MessagePassingEngine(program, **options).graph
    database = Database.from_facts(program.facts)

    def run_once():
        engine = MessagePassingEngine(
            graph.program,
            validate_protocol=False,
            edb_shards=edb_shards,
            database=database,
            graph=graph,
            **options,
        )
        assert engine.run().completed

    assert_no_cyclic_garbage(run_once)
