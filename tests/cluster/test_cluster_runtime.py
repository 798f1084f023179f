"""Supervision and transport-fault coverage for the cluster runtime.

The parity matrix (``tests/integration/test_runtime_parity.py``) pins the
happy path; this file pins the failure model over real localhost TCP:

* a worker SIGKILLed (``FaultPlan.kill_worker``) mid-query is masked by a
  supervised whole-query retry over the survivors — same answers, a
  ``WorkerCrashError`` entry in the failure log, zero caller-visible
  errors;
* a wedged worker (alive but silent) draws a ``WorkerStallError`` verdict
  from heartbeats alone;
* link-level faults at the manager relay — a severed connection
  mid-transfer, a slow hop, duplicated row batches — either retry or are
  absorbed without changing the least fixpoint;
* every result carries the wire-level transport counters that have no
  in-process analogue.

Destructive scenarios (a kill or drop leaves the harness degraded or
reconnected) get their own harness; benign ones share a module-scoped one.
"""

import sys
import time

import pytest

from repro.baselines import naive
from repro.cluster import ClusterHarness, evaluate_cluster
from repro.network.engine import evaluate
from repro.runtime.faults import FaultPlan
from repro.runtime.supervision import WorkerStallError
from repro.workloads import ancestor_program, chain_edges, left_recursive_tc_program

from tests.helpers import with_tables

pytestmark = pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"),
    reason="the localhost harness needs POSIX process control",
)


def make_program():
    return with_tables(ancestor_program(0), {"par": chain_edges(8)})


def check_spread_run(client, expected) -> None:
    """A fault-free run over the spread placement the fault scenarios use.

    The ancestor query is one strong component, so by default every node
    sits on shard 0 and nothing crosses a link; ``edb_shards=2`` puts half
    of the EDB replicas on shard 1, so both workers and the ``0->1`` link
    carry traffic.
    """
    result = evaluate_cluster(make_program(), client=client, edb_shards=2, timeout=60)
    assert result.cross_batches > 0
    assert result.answers == expected


@pytest.fixture(scope="module")
def expected():
    return naive.goal_answers(make_program())


@pytest.fixture(scope="module")
def shared_cluster():
    """One 2-worker harness for the tests that leave the cluster healthy."""
    with ClusterHarness(workers=2) as harness:
        yield harness.client()


@pytest.fixture()
def own_cluster():
    """A private harness for tests that kill, wedge, or disconnect workers."""
    with ClusterHarness(workers=2) as harness:
        yield harness


class TestWorkerLoss:
    def test_killed_worker_is_masked_by_retry(self, own_cluster, expected):
        """The acceptance scenario: SIGKILL mid-query, zero visible errors.

        ``kill_worker=0`` hard-exits shard 0's process after 3 deliveries
        on attempt 1 only.  The manager turns the EOF into a crash verdict,
        the client's retry policy re-dispatches over the survivor, and
        monotone set semantics makes the 1-shard re-run reach the identical
        least fixpoint.
        """
        plan = FaultPlan(kill_worker=0, kill_after=3, only_attempt=1)
        result = evaluate_cluster(
            make_program(),
            client=own_cluster.client(),
            retry=2,
            fault_plan=plan,
            timeout=60,
        )
        assert result.answers == expected
        assert result.attempts == 2
        assert not result.degraded
        assert any("WorkerCrashError" in line for line in result.failure_log)
        # The dead worker stays dead: the retry ran on the survivor alone.
        assert result.workers == 1

    def test_wedged_worker_draws_a_stall_verdict(self, own_cluster, expected):
        """A silent-but-alive worker is a stall, detected from heartbeats.

        The wedge keeps the TCP connection open, so only the heartbeat
        watchdog — not connection loss — can reach this verdict.  (No
        retry: the wedged process never recovers, so every attempt would
        stall; the single-attempt verdict is what this test pins.)
        """
        check_spread_run(own_cluster.client(), expected)
        plan = FaultPlan(wedge_worker=1, wedge_after=2)
        with pytest.raises(WorkerStallError):
            evaluate_cluster(
                make_program(),
                client=own_cluster.client(),
                edb_shards=2,
                fault_plan=plan,
                heartbeat_interval=0.3,
                timeout=30,
            )


class TestLinkFaults:
    def test_severed_link_retries_and_worker_reconnects(
        self, own_cluster, expected
    ):
        """drop_link cuts the origin worker's socket mid-transfer.

        Unlike a SIGKILL the process survives and reconnects under its own
        name.  The retry may race the reconnect backoff — a degraded-
        capacity second attempt is correct too — so the answers and the
        crash verdict are asserted from the result, and the
        re-registration from the manager's registry once the worker is
        back.
        """
        check_spread_run(own_cluster.client(), expected)
        plan = FaultPlan(drop_link="0->1", drop_link_after=0, only_attempt=1)
        result = evaluate_cluster(
            make_program(),
            client=own_cluster.client(),
            edb_shards=2,
            retry=3,
            fault_plan=plan,
            timeout=60,
        )
        assert result.answers == expected
        assert result.attempts >= 2
        assert any("WorkerCrashError" in line for line in result.failure_log)
        deadline = time.monotonic() + 15.0
        while own_cluster.worker_count() < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert own_cluster.worker_count() == 2
        snapshot = own_cluster.transport_snapshot()
        reconnects = sum(
            w.get("reconnects", 0) for w in snapshot["workers"].values()
        )
        assert reconnects >= 1

    @pytest.mark.parametrize(
        "plan",
        [
            pytest.param(
                FaultPlan(delay_link="0->1", delay_link_seconds=0.02),
                id="slow-hop",
            ),
            pytest.param(
                FaultPlan(duplicate_link="0->1", duplicate_count=3),
                id="at-least-once",
            ),
        ],
    )
    def test_benign_link_faults_leave_the_fixpoint_unchanged(
        self, shared_cluster, expected, plan
    ):
        """A slow hop or duplicated row batches must be absorbed, not
        retried: delay only reorders wall-clock, and row re-delivery is
        idempotent under monotone set semantics."""
        result = evaluate_cluster(
            make_program(),
            client=shared_cluster,
            edb_shards=2,
            fault_plan=plan,
            timeout=60,
        )
        assert result.cross_batches > 0, "the 0->1 link must carry batches"
        assert result.answers == expected
        assert result.attempts == 1
        assert not result.failure_log


class TestTransportAccounting:
    def test_result_carries_wire_counters(self, shared_cluster, expected):
        result = evaluate_cluster(
            make_program(), client=shared_cluster, edb_shards=2, timeout=60
        )
        assert result.cross_batches > 0
        assert result.answers == expected
        assert result.workers == 2
        assert set(result.transport) == {"worker-0", "worker-1"}
        for counters in result.transport.values():
            assert counters["bytes_in"] > 0
            assert counters["bytes_out"] > 0
        assert result.bytes_on_wire > 0
        assert "wire:" in result.summary()

    def test_client_stats_reports_the_whole_cluster(self, shared_cluster):
        stats = shared_cluster.stats()
        assert stats["registered"] == 2
        assert stats["jobs_dispatched"] >= 1
        assert set(stats["workers"]) == {"worker-0", "worker-1"}


class TestPlacement:
    def test_one_component_query_sends_nothing_between_workers(
        self, shared_cluster
    ):
        """The default placement keeps a one-component query on one shard:
        the component takes its EDB leaves and acyclic feeders with it."""
        tree = [(i, 2 * i + c) for i in range(31) for c in (1, 2)]
        program = with_tables(left_recursive_tc_program(0), {"e": tree})
        sim = evaluate(program)
        result = evaluate_cluster(program, client=shared_cluster, timeout=60)
        assert result.workers == 2
        assert result.cross_batches == 0
        assert result.answers == sim.answers
        assert result.logical_tuple_rows == (
            sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows
        )


class TestAnnouncedManager:
    """The --cluster-listen path: the evaluating process owns the manager
    and remote ``repro worker --connect`` processes dial in."""

    def test_session_announces_and_remote_workers_dial_in(self, expected):
        import multiprocessing as mp

        from repro.cluster.worker import worker_main
        from repro.session import Session

        session = Session(
            make_program(),
            runtime="cluster",
            cluster_listen="127.0.0.1:0",
            workers=2,
            timeout=60,
        )
        processes = []
        try:
            address = session.cluster_listen_address
            context = mp.get_context("spawn")
            for index in range(2):
                process = context.Process(
                    target=worker_main,
                    args=(address,),
                    kwargs={"name": f"dialin-{index}"},
                    daemon=True,
                )
                process.start()
                processes.append(process)
            answers = session.query("anc(0, Z)")
            assert answers == expected
            assert session.last_result.workers == 2
            assert set(session.last_result.transport) == {
                "dialin-0",
                "dialin-1",
            }
        finally:
            session.close()
            for process in processes:
                process.join(timeout=10)
                if process.is_alive():  # pragma: no cover - cleanup only
                    process.kill()

    def test_evaluate_cluster_listen_waits_then_tears_down(self, expected):
        import multiprocessing as mp

        from repro.cluster.manager import ManagerThread
        from repro.cluster.worker import worker_main

        # The announce address must be known before workers can dial, so
        # bind a throwaway manager first to claim a free port.
        probe = ManagerThread("127.0.0.1", 0).start()
        address = probe.address
        probe.stop()

        context = mp.get_context("spawn")
        process = context.Process(
            target=worker_main,
            args=(address,),
            kwargs={"name": "dialin-0", "reconnect_backoff": 0.1},
            daemon=True,
        )
        process.start()
        try:
            result = evaluate_cluster(
                make_program(), listen=address, timeout=60
            )
            assert result.answers == expected
            assert result.workers == 1
        finally:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()

    def test_listen_and_address_are_mutually_exclusive(self):
        from repro.session import Session

        with pytest.raises(ValueError, match="mutually exclusive"):
            evaluate_cluster(
                make_program(), address="127.0.0.1:1", listen="127.0.0.1:2"
            )
        with pytest.raises(ValueError, match="mutually exclusive"):
            Session(
                make_program(),
                runtime="cluster",
                cluster_address="127.0.0.1:1",
                cluster_listen="127.0.0.1:2",
            )

    def test_listen_times_out_without_workers(self):
        from repro.cluster import ClusterError

        with pytest.raises(ClusterError, match="workers registered"):
            evaluate_cluster(
                make_program(), listen="127.0.0.1:0", timeout=1.0
            )
