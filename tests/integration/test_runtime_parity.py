"""Runtime parity: every runtime, every workload, every knob — same answers.

The three runtimes (deterministic simulator, pooled shard workers with
batched channels, and TCP cluster workers behind a manager) execute
byte-for-byte the same node logic over different channel fabrics.  This
matrix pins the only property that justifies having three of them: the
fabric is invisible — for every workload shape in
:mod:`repro.workloads.programs`, every combination of the paper's
coalesce / package-requests knobs, the planner and SIP on or off, and
three pool placements, all runtimes must produce exactly the naive
oracle's answer set.

The pool and cluster columns additionally pin the *logical* accounting:
per-stream dedup makes the set of tuple rows each stream carries a
property of the least fixpoint, not of scheduling, so a sharded run's
``logical_tuple_rows`` must equal the simulator's TupleMessage + TupleSet
row total exactly.
(Protocol-wave and end-message counts legitimately vary with timing and
are not compared.)  Every cluster cell runs twice over one live graph and
database — cold, shipping both spec parts, then warm, shipping nothing and
evaluating over the workers' resident copies — and both runs must agree
with the simulator: resident inputs may never leak per-query state.

Ids that keep a retired name: ``test_simulator_and_asyncio`` once ran an
asyncio column; its second run is now the simulator under seeded random
delivery, another interleaving of the same network with the Theorem 3.1
oracle still switched on.  ``test_multiprocessing`` once ran one OS
process per node; it now runs the pool at its finest placement
(``workers=8, batch_size=1``), a configuration no other column runs.  The
``no-tuple-sets`` / ``row-kernels`` knob ids are described at
:data:`KNOBS`.

Each test arms a ``SIGALRM`` watchdog: a hung distributed run must fail the
test, not the whole suite (the process runtimes also carry their own
``timeout=`` as a second line of defense).
"""

import signal
import sys

import pytest

from repro.baselines import naive
from repro.core.rulegoal import plan_graph
from repro.core.sips import all_free_sip, greedy_sip
from repro.network.engine import evaluate
from repro.relational.database import Database
from repro.runtime import evaluate_pool
from repro.session import Session
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
#: that the slowest column (the pool at eight workers, one message per
#: batch) stays well under the watchdog.
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

#: (coalesce, package_requests, planner, sip_factory) combinations: the
#: paper's single-processor coalescing (footnote 4) and request packaging
#: (footnote 2), alone and together, the cost planner (which changes
#: subgoal orders, i.e. the graph itself, and must still converge on the
#: oracle's answers), and sideways information passing off.
#:
#: The ids ending in ``no-tuple-sets`` / ``row-kernels`` name rows that
#: once also switched off set emission or the set-at-a-time stage kernels.
#: Both switches are gone — every run takes the one kernel path and the
#: one send path — so those rows keep their ids with configurations no
#: other row covers: ``no-tuple-sets`` and ``package+no-tuple-sets`` are
#: coalescing under the cost planner, without and with packaging;
#: ``cost-planner+row-kernels`` is the cost planner with packaging; and
#: ``row-kernels`` and ``package+row-kernels`` are ``all_free_sip`` (the
#: paper's no-SIP baseline), without and with packaging.
KNOBS = [
    pytest.param(False, False, "static", greedy_sip, id="plain"),
    pytest.param(True, False, "cost", greedy_sip, id="no-tuple-sets"),
    pytest.param(False, False, "static", all_free_sip, id="row-kernels"),
    pytest.param(True, False, "static", greedy_sip, id="coalesce"),
    pytest.param(False, True, "static", greedy_sip, id="package"),
    pytest.param(True, True, "cost", greedy_sip, id="package+no-tuple-sets"),
    pytest.param(False, True, "static", all_free_sip, id="package+row-kernels"),
    pytest.param(True, True, "static", greedy_sip, id="coalesce+package"),
    pytest.param(False, False, "cost", greedy_sip, id="cost-planner"),
    pytest.param(False, True, "cost", greedy_sip, id="cost-planner+row-kernels"),
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


def simulator_rows(program, sip, coalesce, package, planner) -> int:
    """The simulator's logical tuple rows under the same knobs."""
    sim = evaluate(
        program,
        sip_factory=sip,
        coalesce=coalesce,
        package_requests=package,
        planner=planner,
    )
    return sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows


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


@pytest.mark.parametrize("coalesce,package,planner,sip", KNOBS)
@pytest.mark.parametrize("name", sorted(CASES))
class TestRuntimeParity:
    def test_simulator_and_asyncio(
        self, name, coalesce, package, planner, sip, oracles
    ):
        program = CASES[name]()
        expected = oracles[name]
        knobs = dict(
            sip_factory=sip,
            coalesce=coalesce,
            package_requests=package,
            planner=planner,
        )
        sim = evaluate(program, **knobs)
        assert sim.answers == expected, f"{name}: simulator diverged"
        assert sim.completed and sim.protocol_violations == []
        run = evaluate(program, seed=7, **knobs)
        assert run.answers == expected, f"{name}: seeded delivery diverged"
        assert run.completed and run.protocol_violations == []

    def test_multiprocessing(self, name, coalesce, package, planner, sip, oracles):
        program = CASES[name]()
        run = evaluate_pool(
            program,
            sip_factory=sip,
            workers=8,
            batch_size=1,
            coalesce=coalesce,
            package_requests=package,
            planner=planner,
            timeout=60,
        )
        assert run.answers == oracles[name], (
            f"{name}: pool diverged (workers=8, batch_size=1)"
        )
        assert run.logical_tuple_rows == simulator_rows(
            program, sip, coalesce, package, planner
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_pool(
        self, name, coalesce, package, planner, sip, batch_size, oracles
    ):
        program = CASES[name]()
        run = evaluate_pool(
            program,
            sip_factory=sip,
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
        assert run.logical_tuple_rows == simulator_rows(
            program, sip, coalesce, package, planner
        )

    def test_cluster(
        self, name, coalesce, package, planner, sip, oracles, cluster
    ):
        from repro.cluster import evaluate_cluster

        program = CASES[name]()
        knobs = dict(coalesce=coalesce, package_requests=package, planner=planner)
        sim = evaluate(program, sip_factory=sip, **knobs)
        assert sim.answers == oracles[name], f"{name}: simulator diverged"
        # The runtime-invariant accounting slice (see module docstring).
        sim_rows = (
            sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows
        )
        # What a Session hands the runtime: one live graph + database, so
        # the second run finds both spec parts resident on every worker.
        database = Database.from_facts(program.facts)
        graph = plan_graph(program, planner, sip, database, coalesce=coalesce)
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


#: Two constants of one query shape: a session's second query runs on the
#: first one's rule/goal graph, its parameter bound to the new value — in
#: the pool's forked engines and in the cluster's per-attempt header.
SHAPE_QUERIES = (("anc(2, Z)", 2), ("anc(5, Z)", 5))


def check_shape_parity(session) -> None:
    reference = Session(CASES["ancestor"]())
    for index, (query, value) in enumerate(SHAPE_QUERIES):
        assert session.query(query) == reference.query(query)
        result, sim = session.last_result, reference.last_result
        assert result.graph_cache_hit is (index == 1)
        assert result.bindings == (value,)
        assert result.logical_tuple_rows == (
            sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows
        )
    assert session.cache_stats().size == 1


class TestShapeGraphParity:
    def test_pool_binds_one_shape_graph(self):
        with Session(
            CASES["ancestor"](), runtime="pool", workers=2, timeout=60
        ) as session:
            check_shape_parity(session)

    def test_cluster_binds_one_shape_graph(self, cluster):
        with Session(
            CASES["ancestor"](),
            runtime="cluster",
            workers=2,
            cluster_address=cluster.address,
            timeout=60,
        ) as session:
            check_shape_parity(session)
