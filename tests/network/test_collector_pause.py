"""The cyclic collector is paused while a query's network lives.

A query's process network is acyclic (``test_network_lifetime.py``), so a
collection during the query could only walk live objects.
``collector_paused`` disables the collector while ``Session`` builds,
runs and drops the engine, and re-enables it afterwards: also after an
exception, never when the caller had disabled it, and only once the one
evaluation that owns the pause is done, whatever other threads overlap it.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.core.sips import all_free_sip
from repro.network.engine import MessagePassingEngine, collector_paused
from repro.session import Session

KB = """
t(X, Y) <- e(X, Y).
t(X, Y) <- t(X, Z), t(Z, Y).
e(1, 2). e(2, 3). e(3, 4). e(4, 1). e(3, 5).
"""
QUERIES = ("t(1, Y)", "t(X, Y)", "t(X, 5)")


@pytest.fixture
def run_states(monkeypatch):
    """Whether the collector was enabled at each MessagePassingEngine.run."""
    states: list[bool] = []
    run = MessagePassingEngine.run

    def recording_run(self):
        states.append(gc.isenabled())
        return run(self)

    monkeypatch.setattr(MessagePassingEngine, "run", recording_run)
    return states


@pytest.fixture
def collector_on():
    assert gc.isenabled()
    yield
    gc.enable()


def test_paused_under_query_and_run_query(collector_on, run_states):
    session = Session(KB)
    assert session.query("t(1, Y)") == {(2,), (3,), (4,), (1,), (5,)}
    assert gc.isenabled()
    assert session.run_query("t(X, 5)").answers
    assert gc.isenabled()
    assert run_states == [False, False]


def test_materialization_runs_with_the_collector(collector_on, run_states):
    session = Session(KB)
    session.materialize("t(1, Y)")
    assert run_states == [True]


def test_enabled_again_after_a_run_that_raises(collector_on, monkeypatch):
    def failing_run(self):
        assert not gc.isenabled()
        raise RuntimeError("boom")

    monkeypatch.setattr(MessagePassingEngine, "run", failing_run)
    with pytest.raises(RuntimeError, match="boom"):
        Session(KB).query("t(1, Y)")
    assert gc.isenabled()


def test_a_callers_disable_stands(run_states):
    session = Session(KB)
    gc.disable()
    try:
        session.query("t(1, Y)")
        assert not gc.isenabled()
        with collector_paused():
            pass
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert run_states == [False]


def test_an_overlapping_query_leaves_the_owners_pause(collector_on, monkeypatch):
    session = Session(KB)
    session.query("t(1, Y)")  # warm the graph cache
    entered, release = threading.Event(), threading.Event()
    run = MessagePassingEngine.run
    owner_answers: list = []

    def blocking_run(self):
        if threading.current_thread() is owner:
            entered.set()
            assert release.wait(10)
        return run(self)

    monkeypatch.setattr(MessagePassingEngine, "run", blocking_run)
    owner = threading.Thread(target=lambda: owner_answers.append(session.run_query("t(1, Y)")))
    owner.start()
    try:
        assert entered.wait(10)
        assert not gc.isenabled()
        assert session.query("t(X, 5)")  # overlaps the owner and completes
        assert not gc.isenabled()  # the owner's pause outlives the overlapping query
    finally:
        release.set()
        owner.join(10)
    assert not owner.is_alive() and owner_answers[0].completed
    assert gc.isenabled()


def test_no_collection_starts_while_a_network_lives(collector_on, monkeypatch):
    """Over three warm passes, every collection that starts finds every
    engine already freed: the pause lasts until the network is dropped.

    A young collection may still start once a pause ends: objects that a
    query freed into CPython's free lists never took back their share of
    the collector's allocation count.
    """
    engines: list[weakref.ref] = []
    init = MessagePassingEngine.__init__

    def recording_init(self, *args, **kwargs):
        engines.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(MessagePassingEngine, "__init__", recording_init)
    sessions = [Session(KB), Session(KB, sip_factory=all_free_sip)]

    def one_pass():
        for session in sessions:
            for query in QUERIES:
                session.query(query)

    one_pass()  # warm the graph caches
    gc.collect()
    live_at_start: list[int] = []

    def hook(phase, info):
        if phase == "start":
            live_at_start.append(sum(ref() is not None for ref in engines))

    gc.callbacks.append(hook)
    try:
        for _ in range(3):
            one_pass()
    finally:
        gc.callbacks.remove(hook)
    assert len(engines) == 4 * len(QUERIES) * len(sessions)
    assert not any(live_at_start)


def test_threads_racing_for_the_pause(collector_on):
    """More query threads than cores, switching often: every answer is
    right and the collector is on once they are all done."""
    session = Session(KB)
    expected = {query: session.query(query) for query in QUERIES}
    failures: list[BaseException] = []

    def worker():
        try:
            for _ in range(10):
                for query in QUERIES:
                    assert session.run_query(query).answers == expected[query]
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert gc.isenabled()
