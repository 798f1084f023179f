"""A finished process network is freed by reference counting.

The network an engine builds for one query is acyclic — engine → scheduler
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

from repro.network.engine import MessagePassingEngine
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


def linear_tc():
    return with_tables(ancestor_program(0), {"par": chain_edges(12)})


def nonlinear_tc():
    edges = random_digraph_edges(15, 40, seed=2)
    return with_tables(nonlinear_tc_program(edges[0][0]), {"e": edges})


def cyclic_tc():
    return with_tables(ancestor_program(0), {"par": cycle_edges(9)})


def same_generation():
    return with_tables(same_generation_program(7), {"par": tree_parent_edges(3)})


CASES = {
    "linear_tc": (linear_tc, {}),
    "nonlinear_tc": (nonlinear_tc, {}),
    "cyclic_tc": (cyclic_tc, {}),
    "same_generation": (same_generation, {}),
    "coalesce": (nonlinear_tc, {"coalesce": True}),
    "package_requests": (nonlinear_tc, {"package_requests": True}),
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
    refs = [weakref.ref(engine), weakref.ref(engine.scheduler)]
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


def test_queries_leave_no_cyclic_garbage():
    session = Session(SESSION_KB)
    for query in SESSION_QUERIES:  # warm the graph cache
        session.query(query)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            for query in SESSION_QUERIES:
                session.query(query)
        assert gc.collect() == 0
    finally:
        gc.enable()
