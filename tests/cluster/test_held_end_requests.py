"""Held end requests: a wave blocked on remote input waits, it does not spin.

The recursive component of a transitive closure lives whole on one shard
while half of its EDB replicas (``edb_shards=2``, spread ``k % 2``) live
on the other, so its members keep waiting on cross-shard answers.  Before
the hold rule the component's leader re-probed on every negative wave —
over a thousand protocol deliveries for a query whose simulator run needed
42.  With it (``network/termination.py``, run from each node's idle check
by the simulator and the shard loop alike) a non-idle member sets an
``EndRequest`` aside until it can answer, so the query must (a) still
terminate with the simulator's answers and (b) deliver protocol traffic
within a small multiple of the simulator's — on both shard runtimes,
which share the loop.
"""

import sys

import pytest

from repro.cluster import ClusterHarness, evaluate_cluster
from repro.network.engine import evaluate
from repro.runtime import evaluate_pool
from repro.workloads import facts_from_tables, left_recursive_tc_program

pytestmark = pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"),
    reason="the shard runtimes need POSIX process control",
)


@pytest.fixture(scope="module")
def workload():
    """TC over a 511-node binary tree: bushy enough to keep requests in flight."""
    tree = [(i, 2 * i + 1) for i in range(255)] + [(i, 2 * i + 2) for i in range(255)]
    program = left_recursive_tc_program(0).with_facts(facts_from_tables({"e": tree}))
    sim = evaluate(program)
    assert sim.answers == {(i,) for i in range(1, 511)}
    return program, sim


def assert_bounded(run, sim) -> None:
    assert run.cross_batches > 0, "the replicas must sit across a shard boundary"
    assert run.answers == sim.answers
    assert run.attempts == 1
    assert run.held_end_requests > 0, "the workload must exercise the hold rule"
    assert run.protocol_messages <= 2 * sim.protocol_messages + 16, (
        f"{run.protocol_messages} protocol deliveries against the simulator's "
        f"{sim.protocol_messages}: a blocked wave is spinning"
    )


def test_pool_holds_blocked_end_requests(workload):
    program, sim = workload
    run = evaluate_pool(
        program, workers=2, edb_shards=2, timeout=60
    )
    assert_bounded(run, sim)


def test_cluster_holds_blocked_end_requests(workload):
    program, sim = workload
    with ClusterHarness(workers=2) as harness:
        run = evaluate_cluster(
            program,
            client=harness.client(),
            edb_shards=2,
            timeout=60,
        )
    assert_bounded(run, sim)
    assert run.held_end_requests == sum(
        counters["spec"]["held_end_requests"] for counters in run.transport.values()
    )
