"""Runtime parity: every runtime, every workload, every knob — same answers.

The three runtimes (deterministic simulator, pooled shard workers with
batched channels, and TCP cluster workers behind a manager) execute
byte-for-byte the same node logic over different channel fabrics.  This
matrix pins the only property that justifies having three of them: the
fabric is invisible — for every workload shape in
:mod:`repro.workloads.programs`, both rule/goal graphs (the coalesced one
every entry point builds, and the paper's distributed one, passed in
prebuilt), the planner, three SIPs, and several EDB placements, all
runtimes must produce exactly the naive oracle's answer set.

The pool and cluster columns run a *spread* placement: ``edb_shards``
equal to the worker count puts EDB replicas on every shard, so rows cross
between workers even where the default placement (every node on its
consumer's shard) keeps a one-component query on one shard, and the cells
assert that some batch crossed (see :func:`assert_crossed` for the cells
that have nothing to spread).  The cluster column also runs the default
placement once.

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
(``workers=8, batch_size=1, edb_shards=8``), a configuration no other
column runs.  The
``no-tuple-sets`` / ``row-kernels`` / ``package`` knob ids are described
at :data:`KNOBS`.

Each test arms a ``SIGALRM`` watchdog: a hung distributed run must fail the
test, not the whole suite (the process runtimes also carry their own
``timeout=`` as a second line of defense).
"""

import signal
import sys

import pytest

from repro.baselines import naive
from repro.core.parser import parse_program
from repro.core.rulegoal import plan_graph
from repro.core.sips import all_free_sip, greedy_sip, left_to_right_sip
from repro.network.engine import MessagePassingEngine, evaluate
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

from tests.helpers import distributed_graph, with_tables

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

#: (coalesce, planner, sip_factory, edb_shards) combinations: the paper's
#: single-processor coalescing (footnote 4; ``False`` passes the
#: distributed graph as ``graph=``, see :func:`graph_for`), the cost planner (which
#: changes subgoal orders, i.e. the graph itself, and must still converge
#: on the oracle's answers; it replaces the SIP), three SIPs (greedy,
#: Prolog's left-to-right, and sideways information passing off), and the
#: EDB placement.  ``edb_shards=None`` runs each column's own placement:
#: whole leaves in the simulator, as many replicas as workers in the pool
#: and cluster columns.  A number runs that many replicas per "d"-bound
#: EDB leaf in every column, the simulator included.
#:
#: Some ids name switches that are gone: ``no-tuple-sets`` / ``row-kernels``
#: once switched off set emission or the set-at-a-time stage kernels, and
#: ``package`` switched on footnote-2 request packaging, which every run
#: now takes.  Those rows keep their ids with configurations no other row
#: covers: ``no-tuple-sets`` is coalescing under the cost planner and
#: ``package+no-tuple-sets`` the same over three replicas;
#: ``cost-planner+row-kernels`` is the cost planner over three replicas;
#: ``row-kernels`` is ``all_free_sip`` (the paper's no-SIP baseline) and
#: ``package+row-kernels`` the same with coalescing; and ``package`` and
#: ``coalesce+package`` are ``left_to_right_sip``, without and with
#: coalescing.
KNOBS = [
    pytest.param(False, "static", greedy_sip, None, id="plain"),
    pytest.param(True, "cost", greedy_sip, None, id="no-tuple-sets"),
    pytest.param(False, "static", all_free_sip, None, id="row-kernels"),
    pytest.param(True, "static", greedy_sip, None, id="coalesce"),
    pytest.param(False, "static", left_to_right_sip, None, id="package"),
    pytest.param(True, "cost", greedy_sip, 3, id="package+no-tuple-sets"),
    pytest.param(True, "static", all_free_sip, None, id="package+row-kernels"),
    pytest.param(True, "static", left_to_right_sip, None, id="coalesce+package"),
    pytest.param(False, "cost", greedy_sip, None, id="cost-planner"),
    pytest.param(False, "cost", greedy_sip, 3, id="cost-planner+row-kernels"),
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


def graph_for(program, coalesce, planner, sip, database=None):
    """``None`` for the coalesced graph every entry point builds, or the
    paper's distributed graph under the same planner and SIP, prebuilt."""
    return None if coalesce else distributed_graph(program, sip, planner, database)


def simulator_rows(program, sip, coalesce, planner) -> int:
    """The simulator's logical tuple rows under the same knobs."""
    graph = graph_for(program, coalesce, planner, sip)
    sim = MessagePassingEngine(program, sip_factory=sip, planner=planner, graph=graph).run()
    return sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows


def assert_crossed(run, sip) -> None:
    """The spread placement put batches between workers.

    Under ``all_free_sip`` no EDB leaf has a "d" position, so there is no
    replica to spread, and a one-component or non-recursive query runs on
    one shard whatever ``edb_shards`` says.
    """
    if sip is not all_free_sip:
        assert run.cross_batches > 0


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


@pytest.mark.parametrize("coalesce,planner,sip,shards", KNOBS)
@pytest.mark.parametrize("name", sorted(CASES))
class TestRuntimeParity:
    def test_simulator_and_asyncio(
        self, name, coalesce, planner, sip, shards, oracles
    ):
        program = CASES[name]()
        expected = oracles[name]
        knobs = dict(
            sip_factory=sip,
            planner=planner,
            edb_shards=shards or 1,
            graph=graph_for(program, coalesce, planner, sip),
        )
        sim = MessagePassingEngine(program, **knobs).run()
        assert sim.answers == expected, f"{name}: simulator diverged"
        assert sim.completed and sim.protocol_violations == []
        run = MessagePassingEngine(program, seed=7, **knobs).run()
        assert run.answers == expected, f"{name}: seeded delivery diverged"
        assert run.completed and run.protocol_violations == []

    def test_multiprocessing(self, name, coalesce, planner, sip, shards, oracles):
        program = CASES[name]()
        run = evaluate_pool(
            program,
            sip_factory=sip,
            workers=8,
            batch_size=1,
            edb_shards=shards or 8,
            planner=planner,
            graph=graph_for(program, coalesce, planner, sip),
            timeout=60,
        )
        assert_crossed(run, sip)
        assert run.answers == oracles[name], (
            f"{name}: pool diverged (workers=8, batch_size=1)"
        )
        assert run.logical_tuple_rows == simulator_rows(
            program, sip, coalesce, planner
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_pool(
        self, name, coalesce, planner, sip, shards, batch_size, oracles
    ):
        program = CASES[name]()
        run = evaluate_pool(
            program,
            sip_factory=sip,
            workers=2,
            batch_size=batch_size,
            edb_shards=shards or 2,
            planner=planner,
            graph=graph_for(program, coalesce, planner, sip),
            timeout=60,
        )
        assert_crossed(run, sip)
        assert run.answers == oracles[name], (
            f"{name}: pool diverged (batch_size={batch_size})"
        )
        assert run.logical_tuple_rows == simulator_rows(
            program, sip, coalesce, planner
        )

    def test_cluster(
        self, name, coalesce, planner, sip, shards, oracles, cluster
    ):
        from repro.cluster import evaluate_cluster

        program = CASES[name]()
        sim = MessagePassingEngine(
            program, sip_factory=sip, planner=planner,
            graph=graph_for(program, coalesce, planner, sip),
        ).run()
        assert sim.answers == oracles[name], f"{name}: simulator diverged"
        # The runtime-invariant accounting slice (see module docstring).
        sim_rows = (
            sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows
        )
        # What a Session hands the runtime: one live graph + database, so
        # the second run finds both spec parts resident on every worker.
        database = Database.from_facts(program.facts)
        graph = graph_for(program, coalesce, planner, sip, database) or plan_graph(
            program, planner, sip, database
        )
        # Cold and warm run the spread placement; "default" leaves
        # edb_shards unset, so each node runs on its consumer's shard.
        spread = {"edb_shards": shards or 2}
        for temperature, placement in (
            ("cold", spread), ("warm", spread), ("default", {})
        ):
            run = evaluate_cluster(
                program,
                client=cluster,
                timeout=60,
                graph=graph,
                database=database,
                planner=planner,
                **placement,
            )
            if placement:
                assert_crossed(run, sip)
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


#: An answer column that mixes ``int`` and ``str``: such rows have no
#: order, so a shard runtime must carry them without sorting.
MIXED_KB = """
t(X, Y) <- e(X, Y).
t(X, Y) <- t(X, U), e(U, Y).
e(1, 2). e(2, "a"). e("a", 3).
?- t(1, Y).
"""
MIXED_ANSWERS = {(2,), ("a",), (3,)}


class TestMixedTypeAnswers:
    def check(self, run) -> None:
        program = parse_program(MIXED_KB)
        sim = evaluate(program)
        assert run.cross_batches > 0
        assert sim.answers == MIXED_ANSWERS
        assert run.answers == MIXED_ANSWERS
        assert run.attempts == 1
        assert run.logical_tuple_rows == (
            sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows
        )

    def test_pool(self):
        program = parse_program(MIXED_KB)
        self.check(
            evaluate_pool(
                program, workers=2, edb_shards=2, timeout=60
            )
        )

    def test_cluster(self, cluster):
        from repro.cluster import evaluate_cluster

        program = parse_program(MIXED_KB)
        self.check(
            evaluate_cluster(
                program,
                client=cluster,
                edb_shards=2,
                timeout=60,
            )
        )
