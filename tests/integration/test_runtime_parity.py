"""Runtime parity: every runtime, every workload, every knob — same answers.

The five runtimes (deterministic simulator, asyncio tasks, one-OS-process-
per-node, pooled shard workers with batched channels, and TCP cluster
workers behind a manager) execute byte-for-byte the same node logic over
different channel fabrics.  This matrix pins the only property that
justifies having five of them: the fabric is invisible — for every
workload shape in :mod:`repro.workloads.programs`, every combination of
the paper's coalesce / package-requests knobs and the planner, and both
pool batch sizes, all runtimes must produce exactly the naive oracle's
answer set.

The cluster column additionally pins the *logical* accounting: per-stream
dedup makes the set of tuple rows each stream carries a property of the
least fixpoint, not of scheduling, so the cluster's ``logical_tuple_rows``
must equal the simulator's TupleMessage + TupleSet row total exactly.
(Protocol-wave and end-message counts legitimately vary with timing and
are not compared.)  Every cluster cell runs twice over one live graph and
database — cold, shipping both spec parts, then warm, shipping nothing and
evaluating over the workers' resident copies — and both runs must agree
with the simulator: resident inputs may never leak per-query state.

Each test arms a ``SIGALRM`` watchdog: a hung distributed run must fail the
test, not the whole suite (the process runtimes also carry their own
``timeout=`` as a second line of defense).
"""

import signal
import sys

import pytest

from repro.baselines import naive
from repro.core.planner import CostPlanner
from repro.core.rulegoal import build_rule_goal_graph
from repro.core.sips import greedy_sip
from repro.network.engine import evaluate
from repro.relational.database import Database
from repro.runtime import evaluate_async, evaluate_multiprocessing, evaluate_pool
from repro.workloads import (
    ancestor_program,
    bill_of_materials_program,
    bom_tables,
    chain_edges,
    cycle_edges,
    left_recursive_tc_program,
    mutual_recursion_program,
    nonlinear_tc_program,
    nonrecursive_join_program,
    pair_table,
    program_p1,
    random_digraph_edges,
    same_generation_program,
    tree_parent_edges,
)

from tests.helpers import with_tables

pytestmark = pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"),
    reason="process runtimes need the fork start method",
)

#: Every program factory in repro.workloads.programs, with data small enough
#: that the slowest runtime (per-node mp: ~a dozen OS processes + a Manager
#: broker per run) stays well under the watchdog.
CASES = {
    "p1": lambda: with_tables(program_p1(), {
        "r": [("a", 1), (1, 2), (2, 3)],
        "q": [(1, 2), (2, 3), (3, 1)],
    }),
    "ancestor": lambda: with_tables(
        ancestor_program(0), {"par": chain_edges(8)}
    ),
    "tc-left-rec": lambda: with_tables(
        left_recursive_tc_program(0), {"e": chain_edges(8)}
    ),
    "tc-nonlinear": lambda: with_tables(
        nonlinear_tc_program(0), {"e": cycle_edges(6)}
    ),
    "tc-random": lambda: with_tables(
        nonlinear_tc_program(random_digraph_edges(8, 16, seed=13)[0][0]),
        {"e": random_digraph_edges(8, 16, seed=13)},
    ),
    "same-gen": lambda: with_tables(
        same_generation_program(4), {"par": tree_parent_edges(3, 2)}
    ),
    "mutual": lambda: with_tables(
        mutual_recursion_program(0), {"e": chain_edges(7)}
    ),
    "nonrec-join": lambda: with_tables(nonrecursive_join_program(), {
        "a": pair_table(5, 5, 10, seed=1),
        "b": pair_table(5, 5, 10, seed=2),
        "c": pair_table(5, 5, 10, seed=3),
    }),
    "bom": lambda: with_tables(
        bill_of_materials_program(), bom_tables(4, 3, 5, seed=2)
    ),
}

#: (coalesce, package_requests, planner) combinations: the paper's
#: single-processor coalescing (footnote 4) and request packaging
#: (footnote 2), alone and together, and the cost planner (which changes
#: subgoal orders, i.e. the graph itself, and must still converge on the
#: oracle's answers).
#:
#: The ids ending in ``no-tuple-sets`` / ``row-kernels`` name rows that
#: once also switched off set emission or the set-at-a-time stage kernels.
#: Both switches are gone — every run takes the one kernel path and the
#: one send path — so those rows keep their ids and run only their
#: remaining knobs: each repeats the row named without the suffix, except
#: ``cost-planner+row-kernels``, which is the only cost-planner row with
#: request packaging.
KNOBS = [
    pytest.param(False, False, "static", id="plain"),
    pytest.param(False, False, "static", id="no-tuple-sets"),
    pytest.param(False, False, "static", id="row-kernels"),
    pytest.param(True, False, "static", id="coalesce"),
    pytest.param(False, True, "static", id="package"),
    pytest.param(False, True, "static", id="package+no-tuple-sets"),
    pytest.param(False, True, "static", id="package+row-kernels"),
    pytest.param(True, True, "static", id="coalesce+package"),
    pytest.param(False, False, "cost", id="cost-planner"),
    pytest.param(False, True, "cost", id="cost-planner+row-kernels"),
]

BATCH_SIZES = (1, 64)


@pytest.fixture(autouse=True)
def watchdog():
    """Per-test SIGALRM timeout (the environment has no pytest-timeout).

    Platforms without SIGALRM (Windows) skip cleanly rather than running
    unguarded: a hung process runtime would otherwise stall the whole job.
    """
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("platform lacks SIGALRM; parity watchdog unavailable")

    def on_alarm(signum, frame):
        raise TimeoutError("parity test exceeded its per-test timeout")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(90)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def oracles():
    """The naive minimum-model answers, computed once per workload."""
    return {name: naive.goal_answers(make()) for name, make in CASES.items()}


@pytest.fixture(scope="module")
def cluster():
    """One localhost 2-worker cluster shared by every cluster-column test.

    Module-scoped deliberately: registration, handshake, and connection
    reuse across many jobs is exactly what a long-lived deployment does,
    and starting a fresh harness per matrix cell would dominate runtime.
    """
    from repro.cluster import ClusterHarness

    harness = ClusterHarness(workers=2)
    harness.start()
    client = harness.client()
    try:
        yield client
    finally:
        harness.stop()


@pytest.mark.parametrize("coalesce,package,planner", KNOBS)
@pytest.mark.parametrize("name", sorted(CASES))
class TestRuntimeParity:
    def test_simulator_and_asyncio(
        self, name, coalesce, package, planner, oracles
    ):
        program = CASES[name]()
        expected = oracles[name]
        knobs = dict(coalesce=coalesce, package_requests=package, planner=planner)
        sim = evaluate(program, **knobs)
        assert sim.answers == expected, f"{name}: simulator diverged"
        assert sim.completed and sim.protocol_violations == []
        run = evaluate_async(program, timeout=60, **knobs)
        assert run.answers == expected, f"{name}: asyncio diverged"

    def test_multiprocessing(self, name, coalesce, package, planner, oracles):
        program = CASES[name]()
        run = evaluate_multiprocessing(
            program,
            coalesce=coalesce,
            package_requests=package,
            planner=planner,
            timeout=60,
        )
        assert run.answers == oracles[name], f"{name}: per-node mp diverged"

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_pool(self, name, coalesce, package, planner, batch_size, oracles):
        program = CASES[name]()
        run = evaluate_pool(
            program,
            workers=2,
            batch_size=batch_size,
            coalesce=coalesce,
            package_requests=package,
            planner=planner,
            timeout=60,
        )
        assert run.answers == oracles[name], (
            f"{name}: pool diverged (batch_size={batch_size})"
        )

    def test_cluster(self, name, coalesce, package, planner, oracles, cluster):
        from repro.cluster import evaluate_cluster

        program = CASES[name]()
        knobs = dict(coalesce=coalesce, package_requests=package, planner=planner)
        sim = evaluate(program, **knobs)
        assert sim.answers == oracles[name], f"{name}: simulator diverged"
        # The runtime-invariant accounting slice (see module docstring).
        sim_rows = (
            sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows
        )
        # What a Session hands the runtime: one live graph + database, so
        # the second run finds both spec parts resident on every worker.
        database = Database.from_facts(program.facts)
        sip_factory = (
            CostPlanner.from_database(database).sip_factory()
            if planner == "cost"
            else greedy_sip
        )
        graph = build_rule_goal_graph(program, sip_factory, coalesce=coalesce)
        for temperature in ("cold", "warm"):
            run = evaluate_cluster(
                program,
                client=cluster,
                timeout=60,
                graph=graph,
                database=database,
                **knobs,
            )
            assert run.answers == oracles[name], (
                f"{name}: {temperature} cluster run diverged"
            )
            assert run.logical_tuple_rows == sim_rows, (
                f"{name}: {temperature} cluster logical tuple rows "
                f"{run.logical_tuple_rows} != simulator {sim_rows}"
            )
            if temperature == "warm":
                # ("cold" may still find content-identical parts from an
                # earlier cell: the digests address bytes, not objects.)
                hits = [shard["spec"] for shard in run.shards.values()]
                assert run.spec_bytes_shipped == 0
                assert all(h["plan_hit"] and h["edb_hit"] for h in hits)
