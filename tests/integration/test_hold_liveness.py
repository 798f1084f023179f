"""Liveness of the one end-request hold rule on every loop.

A strong-component member that is busy when a wave reaches it holds the
end request and answers it from its idle check once it is idle
(``network/termination.py``).  The simulator and the shard loop of the
pool and the cluster run that one rule, so each must still finish every
program: the counter-pin programs, which reach every kernel branch, and
the random programs of the engine property tests.  Every run must
complete with ``baselines.seminaive``'s answers; the simulator's runs are
also checked by the quiescence oracle over several latency seeds.  A lost
end cannot hang a run: the simulator stops when its queue drains, and the
pool and the cluster runs carry a timeout.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines import seminaive
from repro.core.parser import parse_program
from repro.network.engine import MessagePassingEngine, evaluate
from repro.network.messages import EndRequest
from repro.runtime import evaluate_pool
from repro.workloads import chain_edges, nonlinear_tc_program

from tests.helpers import with_tables
from tests.network.test_counter_pin import PROGRAMS
from tests.property.test_property_engine import programs

SEEDS = [None, 1, 7, 23]
PINNED = sorted(PROGRAMS)
PROPERTY = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

posix_only = pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"),
    reason="the shard runtimes need POSIX process control",
)


def pinned(name):
    text, options = PROGRAMS[name]
    return parse_program(text), options


def expected(program) -> set:
    return seminaive.evaluate(program).answers()


def assert_simulator_live(program, seed, **options) -> None:
    result = evaluate(program, seed=seed, validate_protocol=True, **options)
    assert result.completed
    assert result.protocol_violations == []
    assert result.answers == expected(program)


def assert_sharded_live(run, program) -> None:
    assert run.completed and run.attempts == 1 and not run.degraded
    assert run.answers == expected(program)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PINNED)
def test_simulator_finishes_every_pinned_program(name, seed):
    program, options = pinned(name)
    assert_simulator_live(program, seed, **options)


@PROPERTY
@given(programs())
def test_simulator_finishes_property_programs(program):
    for seed in SEEDS:
        assert_simulator_live(program, seed)


@posix_only
@pytest.mark.parametrize("name", PINNED)
def test_pool_finishes_every_pinned_program(name):
    program, options = pinned(name)
    run = evaluate_pool(program, workers=2, edb_shards=2, timeout=60, **options)
    assert_sharded_live(run, program)


@posix_only
@PROPERTY
@given(programs())
def test_pool_finishes_property_programs(program):
    assert_sharded_live(evaluate_pool(program, workers=2, edb_shards=2, timeout=60), program)


@pytest.fixture(scope="module")
def cluster():
    """One localhost 2-worker cluster shared by the cluster tests."""
    from repro.cluster import ClusterHarness

    harness = ClusterHarness(workers=2)
    harness.start()
    try:
        yield harness.client()
    finally:
        harness.stop()


@posix_only
@pytest.mark.parametrize("name", PINNED)
def test_cluster_finishes_every_pinned_program(cluster, name):
    from repro.cluster import evaluate_cluster

    program, options = pinned(name)
    run = evaluate_cluster(program, client=cluster, edb_shards=2, timeout=60, **options)
    assert_sharded_live(run, program)


@posix_only
@PROPERTY
@given(programs())
def test_cluster_finishes_property_programs(cluster, program):
    from repro.cluster import evaluate_cluster

    run = evaluate_cluster(program, client=cluster, edb_shards=2, timeout=60)
    assert_sharded_live(run, program)


def drive_planting(program, dead_end, plant_round=None):
    """Run ``program`` step by step; at the wave ``plant_round``, buffer a
    request for ``dead_end`` at the member the wave reaches with an
    otherwise empty inbox.  Returns the engine, the planted member and the
    last wave at which planting was possible."""
    engine = MessagePassingEngine(program, validate_protocol=True)
    fabric = engine.fabric
    engine.driver.start(fabric)
    planted, last_chance = None, None
    while fabric.in_flight():
        upcoming = fabric.local[0]
        member = engine.processes[upcoming.receiver]
        if type(upcoming) is EndRequest and fabric.pending_for(member.node_id) == 1:
            producer, stream = next(
                (p, s) for p, s in member.feeders.items() if not s.is_feeder
            )
            if dead_end in stream.sent_bindings:
                last_chance = upcoming.round_id
                if upcoming.round_id == plant_round:
                    member._request_buffer[producer] = [dead_end]
                    planted = member
        fabric.step()
    return engine, planted, last_chance


def test_a_member_held_behind_its_own_request_buffer_still_answers():
    """The trap a hold outside the idle check falls into.

    At the concluding wave a member gets its end request while its request
    buffer is unflushed and its inbox is otherwise empty.  The buffered
    binding was asked before and has no answers, so no delivery ever comes
    back to the member: only the release after the flush in its own idle
    check can answer the wave.
    """
    n = 12
    program = with_tables(nonlinear_tc_program(0), {"e": chain_edges(n)})
    dead_end = (n - 1,)  # the chain's last node reaches nothing
    _, _, concluding = drive_planting(program, dead_end)
    assert concluding is not None, "no wave met a member with a drained inbox"
    engine, planted, _ = drive_planting(program, dead_end, plant_round=concluding)
    assert planted is not None
    assert planted.protocol.held_end_requests >= 1 and not planted.protocol.held
    assert engine.driver.completed
    assert engine.fabric.protocol_violations == []
    assert engine.driver.answers == expected(program)


@pytest.mark.parametrize("seed", SEEDS)
def test_nonlinear_chain_completes(seed):
    """``eval_mix``'s tiny-message entry: a nonlinear closure over a chain."""
    program = with_tables(nonlinear_tc_program(0), {"e": chain_edges(40)})
    result = evaluate(program, seed=seed, validate_protocol=True)
    assert result.completed and result.protocol_violations == []
    assert result.answers == expected(program)
    assert result.held_end_requests > 0, "the chain must exercise the hold"
