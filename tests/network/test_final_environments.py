"""A rule node derives each final environment exactly once.

A rule node keeps no store at its last level: nothing probes it, and
insert-then-probe joins each (environment, row) pair once — by whichever
of the two arrived second — while distinct pairs merge to distinct
environments.  These tests record every environment handed to
``_emit_heads`` and check that no rule node is handed one twice, over
random programs, every counter-pin program, a ``run_delta`` wave and a
materialized refresh.  They also check that ``envs_materialized`` is
exactly the environments stored at the probed levels plus the distinct
final ones, so the count did not lose or gain anything with the store.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import contextlib
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine
from repro.network.nodes import RuleNodeProcess
from repro.session import Session
from repro.workloads import facts_from_tables

from tests.helpers import oracle_answers
from tests.network.test_counter_pin import CHAIN, PROGRAMS, pinned_graph
from tests.property.test_property_engine import programs


@contextlib.contextmanager
def recording():
    """Rule node -> every environment its ``_emit_heads`` was handed."""
    seen: dict = defaultdict(list)
    emit = RuleNodeProcess._emit_heads

    def record(self, envs, network):
        envs = list(envs)
        seen[self].extend(envs)
        emit(self, envs, network)

    RuleNodeProcess._emit_heads = record
    try:
        yield seen
    finally:
        RuleNodeProcess._emit_heads = emit


def stored_envs(node: RuleNodeProcess) -> int:
    """Environments held at the levels a later stage probes."""
    total = 0
    for level, stage in zip(node.env_indexes, node.stages):
        if stage.env_is_key:
            assert all(type(env) is tuple for env in level.values())
            total += len(level)
        else:
            total += sum(len(bucket) for bucket in level.values())
    return total


def check_once(engine: MessagePassingEngine, seen: dict) -> int:
    """Assert the invariant on every rule node; return the finals checked."""
    checked = 0
    for node in engine.processes.values():
        if not isinstance(node, RuleNodeProcess):
            continue
        finals = seen.get(node, [])
        assert len(set(finals)) == len(finals), node.rule
        if node.stages:
            assert node.envs_materialized == stored_envs(node) + len(finals), node.rule
        else:
            # A bodiless rule stores its level 0 and hands on only the new.
            (bucket,) = node.env_indexes[0].values() or [set()]
            assert set(finals) == bucket
            assert node.envs_materialized == len(finals)
        checked += len(finals)
    return checked


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(programs())
def test_random_programs(program):
    for graph in (None, build_rule_goal_graph(program, coalesce=False)):
        with recording() as seen:
            engine = MessagePassingEngine(program, graph=graph)
            result = engine.run()
            assert result.completed
            check_once(engine, seen)


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_counter_pin_programs(name):
    text, options = PROGRAMS[name]
    program = parse_program(text)
    for graph in (None, pinned_graph(name, program, options)):
        with recording() as seen:
            engine = MessagePassingEngine(program, graph=graph, **options)
            result = engine.run()
            assert result.answers == oracle_answers(program)
            assert check_once(engine, seen)


@pytest.mark.parametrize("name", ["env_is_row", "coalesced_shared_subgoal"])
def test_delta_wave(name):
    text, options = PROGRAMS[name]
    with recording() as seen:
        engine = MessagePassingEngine(parse_program(text), **options)
        engine.run()
        before = check_once(engine, seen)
        delta = facts_from_tables({"e": [("f", "g"), ("g", "a"), ("x", "y")]})
        engine.database.add_facts(delta)
        wave = engine.run_delta(delta)
        assert wave.completed and wave.incremental and wave.new_answers
        assert check_once(engine, seen) > before


def test_materialized_refresh():
    session = Session(
        f"""
        t(X, Y) <- e(X, Y).
        t(X, Y) <- t(X, Z), t(Z, Y).
        {CHAIN}
        """
    )
    with recording() as seen:
        mat = session.materialize("t(a, Z)")
        before = check_once(mat._engine, seen)
        session.add_facts("e(f, g). e(g, h).")
        refreshed = mat.refresh()
        assert refreshed.incremental and refreshed.new_answers
        assert check_once(mat._engine, seen) > before
