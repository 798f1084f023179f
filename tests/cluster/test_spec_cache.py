"""Warm cluster workers: each plan and database ships once, then stays resident.

The job spec is two content-addressed parts (``repro.cluster.spec``).  This
file pins what moves and what does not over a real localhost cluster:

* a repeat query ships an empty blob and both workers report cache hits;
* a write re-ships only the edb part, a new query shape only the plan, and
  a new constant of a served shape nothing (its value rides in the header);
* every way a digest can go missing — a worker SIGKILLed and respawned, a
  stale acknowledgement, a restarted manager, an eviction — heals in band,
  with zero caller-visible errors and answers identical to the in-process
  runtime's (never a stale or wrong-version database);
* resident *inputs* never leak per-query *state*: the warm run's logical
  tuple-row total equals the simulator's, exactly as the cold run's does.
"""

import multiprocessing as mp
import sys
import time

import pytest

from repro.cluster import ClusterClient, ClusterHarness, evaluate_cluster
from repro.cluster.manager import ManagerThread
from repro.cluster.worker import _RESIDENT_PLANS, worker_main
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import evaluate
from repro.relational.database import Database
from repro.session import Session
from repro.workloads import ancestor_program, chain_edges

from tests.helpers import with_tables

pytestmark = pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"),
    reason="the localhost harness needs POSIX process control",
)

RULES = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."
CHAIN = 14


def chain_facts(start: int, stop: int) -> str:
    return " ".join(f"par({i}, {i + 1})." for i in range(start, stop))


def knowledge_base() -> str:
    return f"{RULES} {chain_facts(0, CHAIN)}"


@pytest.fixture()
def harness():
    with ClusterHarness(workers=2) as cluster:
        yield cluster


@pytest.fixture()
def session(harness):
    with Session(
        knowledge_base(),
        runtime="cluster",
        workers=2,
        cluster_address=harness.address,
        retries=3,
        timeout=60,
    ) as cluster_session:
        yield cluster_session


def record_blobs(session) -> list:
    """Wrap the session client's ``submit``; returns the shipped blob sizes."""
    client = session._ensure_cluster_client()
    sizes: list = []
    submit = client.submit

    def recording_submit(header, blob, timeout):
        sizes.append(len(blob))
        return submit(header, blob, timeout)

    client.submit = recording_submit
    return sizes


def worker_hits(result) -> dict:
    return {shard: counters["spec"] for shard, counters in result.shards.items()}


def simulator_rows(session, query: str) -> int:
    sim = evaluate(session.program_for(query))
    return sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows


class TestWarmRepeat:
    def test_second_identical_query_ships_nothing(self, session):
        sizes = record_blobs(session)
        oracle = Session(knowledge_base()).query("anc(0, Z)")
        rows = simulator_rows(session, "anc(0, Z)")

        assert session.query("anc(0, Z)") == oracle
        cold = session.last_result
        assert sizes[-1] > 0 and cold.spec_bytes_shipped == sizes[-1]
        assert worker_hits(cold) == {
            0: {"plan_hit": False, "edb_hit": False},
            1: {"plan_hit": False, "edb_hit": False},
        }

        assert session.query("anc(0, Z)") == oracle
        warm = session.last_result
        assert sizes[-1] == 0, "a warm repeat must submit an empty blob"
        assert warm.spec == {"plan_bytes": 0, "edb_bytes": 0, "resends": 0}
        assert worker_hits(warm) == {
            0: {"plan_hit": True, "edb_hit": True},
            1: {"plan_hit": True, "edb_hit": True},
        }
        # Resident inputs, fresh node state: identical logical accounting.
        assert cold.logical_tuple_rows == warm.logical_tuple_rows == rows
        assert warm.attempts == 1
        assert "spec: shipped 0 plan + 0 edb bytes" in warm.summary()

    def test_a_write_reships_only_the_edb(self, session):
        session.query("anc(0, Z)")
        session.add_facts(chain_facts(CHAIN, CHAIN + 3))
        oracle = Session(f"{RULES} {chain_facts(0, CHAIN + 3)}").query("anc(0, Z)")

        assert session.query("anc(0, Z)") == oracle
        result = session.last_result
        assert (CHAIN + 3,) in result.answers, "the answer must see the write"
        assert result.spec["plan_bytes"] == 0
        assert result.spec["edb_bytes"] > 0
        assert worker_hits(result) == {
            0: {"plan_hit": True, "edb_hit": False},
            1: {"plan_hit": True, "edb_hit": False},
        }
        assert result.logical_tuple_rows == simulator_rows(session, "anc(0, Z)")

    def test_a_new_query_variant_reships_only_the_plan(self, session):
        session.query("anc(0, Z)")
        # Another shape: a new constant alone would reuse the plan.
        oracle = Session(knowledge_base()).query("anc(Z, 5)")

        assert session.query("anc(Z, 5)") == oracle
        result = session.last_result
        assert result.spec["plan_bytes"] > 0
        assert result.spec["edb_bytes"] == 0
        assert worker_hits(result) == {
            0: {"plan_hit": False, "edb_hit": True},
            1: {"plan_hit": False, "edb_hit": True},
        }

    def test_a_new_constant_of_one_shape_ships_the_plan_once(self, session):
        session.query("anc(0, Z)")
        sizes = record_blobs(session)
        oracle = Session(knowledge_base()).query("anc(5, Z)")

        assert session.query("anc(5, Z)") == oracle
        result = session.last_result
        assert result.graph_cache_hit and result.bindings == (5,)
        assert sizes == [0] and result.spec_bytes_shipped == 0
        assert worker_hits(result) == {
            0: {"plan_hit": True, "edb_hit": True},
            1: {"plan_hit": True, "edb_hit": True},
        }
        assert result.logical_tuple_rows == simulator_rows(session, "anc(5, Z)")
        # The node table binds the shape's parameter to the query's value.
        table = result.node_table(top=100)
        assert "anc(5^c, Ans0^f)" in table and "$" not in table

    def test_stats_surface_the_cache_counters(self, session):
        session.query("anc(0, Z)")
        session.query("anc(0, Z)")
        stats = session.cluster_stats()
        assert stats["spec_store"]["entries"] == 2
        for counters in stats["workers"].values():
            spec = counters["spec"]
            assert (spec["plan_hits"], spec["plan_misses"]) == (1, 1)
            assert (spec["edb_hits"], spec["edb_misses"]) == (1, 1)
            assert spec["plan_bytes"] > 0 and spec["edb_bytes"] > 0
            assert spec["resident_entries"] == 2
            assert spec["resident_bytes"] == spec["plan_bytes"] + spec["edb_bytes"]
            assert spec["resends"] == 0
        assert session.last_result.transport.keys() == stats["workers"].keys()


class TestMissesHealInBand:
    def test_eviction_stays_correct(self, session):
        """More distinct plans than a worker keeps resident, then the first
        again: the workers evicted it, the manager knows (their STATS report
        the resident set) and re-ships it from its own store."""
        reference = Session(knowledge_base())
        for length in range(_RESIDENT_PLANS + 3):
            # A longer path is a distinct shape, so a distinct plan.
            query = "anc(0, Z0)" + "".join(
                f", par(Z{hop}, Z{hop + 1})" for hop in range(length)
            )
            assert session.query(query) == reference.query(query)
        assert session.query("anc(0, Z0)") == reference.query("anc(0, Z0)")
        result = session.last_result
        assert result.attempts == 1
        assert result.spec_bytes_shipped == 0, "the manager still held the blob"
        assert worker_hits(result) == {
            0: {"plan_hit": False, "edb_hit": True},
            1: {"plan_hit": False, "edb_hit": True},
        }
        for counters in result.transport.values():
            assert counters["spec"]["resident_entries"] == _RESIDENT_PLANS + 1

    def test_stale_acknowledgement_draws_spec_miss_and_a_resend(self, harness):
        """A worker asked to run on a digest it does not hold says so
        (SPEC_MISS) and the manager resends — the path a failed job's
        unreported evictions would take."""
        program = with_tables(ancestor_program(0), {"par": chain_edges(8)})
        shared = dict(
            graph=build_rule_goal_graph(program),
            database=Database.from_facts(program.facts),
        )
        client = harness.client()
        digest = client.specs.edb(shared["database"]).digest
        harness.manager.manager.workers["worker-0"].has.add(digest)

        result = evaluate_cluster(
            program, client=client, edb_shards=2, timeout=60, **shared
        )
        assert result.cross_batches > 0
        assert result.answers == evaluate(program).answers
        assert result.attempts == 1
        assert result.transport["worker-0"]["spec"]["resends"] == 1
        assert result.transport["worker-1"]["spec"]["resends"] == 0
        assert result.shards[0]["spec"]["edb_hit"] is False

    def test_killed_and_respawned_worker_is_sent_the_parts_again(
        self, harness, session
    ):
        oracle = Session(knowledge_base()).query("anc(0, Z)")
        assert session.query("anc(0, Z)") == oracle
        harness.kill_worker(1)
        deadline = time.monotonic() + 15.0
        while harness.worker_count() > 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        respawned = mp.get_context("spawn").Process(
            target=worker_main,
            args=(harness.address,),
            kwargs={"name": "worker-1"},
            daemon=True,
        )
        respawned.start()
        harness.processes.append(respawned)  # torn down with the harness
        while harness.worker_count() < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert harness.worker_count() == 2

        assert session.query("anc(0, Z)") == oracle
        result = session.last_result
        assert result.workers == 2
        assert not result.failure_log and not result.degraded
        assert result.spec_bytes_shipped == 0, "the manager's store served it"
        by_worker = {
            name: result.shards[shard]["spec"]
            for shard, name in enumerate(result.transport)
        }
        assert by_worker["worker-0"] == {"plan_hit": True, "edb_hit": True}
        assert by_worker["worker-1"] == {"plan_hit": False, "edb_hit": False}

    def test_manager_restart_heals_through_spec_miss(self):
        probe = ManagerThread("127.0.0.1", 0).start()
        address = probe.address
        probe.stop()
        host, _, port = address.rpartition(":")

        context = mp.get_context("spawn")
        workers = [
            context.Process(
                target=worker_main,
                args=(address,),
                kwargs={"name": f"w{index}", "reconnect_backoff": 0.05},
                daemon=True,
            )
            for index in range(2)
        ]
        for process in workers:
            process.start()
        program = with_tables(ancestor_program(0), {"par": chain_edges(8)})
        shared = dict(
            graph=build_rule_goal_graph(program),
            database=Database.from_facts(program.facts),
            edb_shards=2,
        )
        expected = evaluate(program).answers
        client = ClusterClient(address)
        manager = ManagerThread(host, int(port)).start()
        try:
            manager.wait_for_workers(2, timeout=30)
            first = evaluate_cluster(program, client=client, timeout=60, **shared)
            assert first.cross_batches > 0
            assert first.answers == expected and first.spec_bytes_shipped > 0

            manager.stop()
            manager = ManagerThread(host, int(port)).start()
            manager.wait_for_workers(2, timeout=30)

            # The client still believes the manager holds both digests: it
            # submits them bare, the fresh manager answers spec_miss, and
            # the same attempt resends the bytes.
            healed = evaluate_cluster(
                program, client=client, retry=3, timeout=60, **shared
            )
            assert healed.cross_batches > 0
            assert healed.answers == expected
            assert not healed.degraded
            assert healed.spec["resends"] == 1
            assert healed.spec_bytes_shipped == first.spec_bytes_shipped
            assert manager.transport_snapshot()["spec_store"]["client_misses"] == 1
            # The workers kept their parts across the reconnect.
            assert all(
                shard["spec"] == {"plan_hit": True, "edb_hit": True}
                for shard in healed.shards.values()
            )
        finally:
            client.close()
            manager.stop()
            for process in workers:
                process.kill()
                process.join(timeout=5)
                assert not process.is_alive()
