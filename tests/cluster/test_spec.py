"""Unit coverage for the content-addressed job spec (``repro.cluster.spec``)
and the client's connection handling around it — no worker processes."""

import dataclasses
import pickle

import pytest

from repro.cache import BoundedCache
from repro.cluster import ClusterClient
from repro.cluster.client import SpecMissError
from repro.cluster.framing import FrameSocket
from repro.cluster.manager import ManagerThread
from repro.cluster.spec import (
    EDB,
    PLAN,
    JobSpecMemo,
    Part,
    digest_of,
    pack_parts,
    unpack_parts,
)
from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.options import EvalOptions
from repro.relational.database import Database
from repro.workloads import ancestor_program, chain_edges

from tests.helpers import with_tables

OPTIONS = EvalOptions()


def make_program():
    return with_tables(ancestor_program(0), {"par": chain_edges(8)})


class TestParts:
    def test_pack_unpack_round_trip(self):
        parts = [Part(PLAN, digest_of(b"plan"), b"plan"), Part(EDB, digest_of(b"db"), b"db")]
        entries, blob = pack_parts(parts)
        assert blob == b"plandb"
        assert unpack_parts(entries, blob) == parts
        assert pack_parts([]) == ([], b"")

    def test_a_part_that_fails_its_digest_is_refused(self):
        entries, blob = pack_parts([Part(EDB, digest_of(b"right"), b"wrong")])
        with pytest.raises(ValueError, match="digest check"):
            unpack_parts(entries, blob)
        entries, blob = pack_parts([Part(EDB, digest_of(b"whole"), b"whole")])
        with pytest.raises(ValueError, match="digest check"):
            unpack_parts(entries, blob[:-1])  # truncated frame


class TestPartCache:
    def test_lru_bounds_by_entries_and_bytes(self):
        # The part stores are the shared LRU, bounded by entries and bytes.
        cache = BoundedCache(2, max_bytes=100)
        cache.put("a", "A", 10)
        cache.put("b", "B", 10)
        assert cache.get("a") == "A"  # now most recently used
        cache.put("c", "C", 10)
        assert list(cache.keys()) == ["a", "c"] and cache.bytes == 20
        cache.put("d", "D", 95)  # over the byte bound: evicts down to itself
        assert list(cache.keys()) == ["d"] and cache.bytes == 95
        cache.put("e", "E", 500)  # larger than the whole bound: still admitted
        assert list(cache.keys()) == ["e"] and "e" in cache and len(cache) == 1
        cache.pop("e")
        assert cache.bytes == 0 and cache.get("e") is None


class TestJobSpecMemo:
    def test_database_is_repickled_only_after_a_mutation(self):
        program = make_program()
        database = Database.from_facts(program.facts)
        memo = JobSpecMemo()
        first = memo.edb(database)
        assert memo.edb(database) is first
        database.lookup("par", {0: 0})  # reads move counters, not the version
        assert memo.edb(database) is first
        relation = database.relation("par")
        database.add_facts(parse_program("par(100, 101).").facts)
        # Grown in place — the same objects — so only the version can tell.
        assert database.relation("par") is relation
        second = memo.edb(database)
        assert second.digest != first.digest
        shipped = pickle.loads(second.blob)
        assert (100, 101) in shipped.relation("par")
        assert shipped.lookup("par", {0: 100}) == [(100, 101)]  # index came along
        assert (shipped.rows_added, shipped.index_entries_added) == (0, 0)
        database.add_facts(parse_program("par(100, 101).").facts)  # nothing new
        assert memo.edb(database) is second
        # Same facts in another object, whatever its access history: same
        # bytes, same address.
        twin = Database.from_facts(program.facts)
        twin.scan("par")
        assert JobSpecMemo().edb(twin).digest == first.digest

    def test_plan_is_keyed_on_the_live_graph_and_options(self):
        program = make_program()
        graph = build_rule_goal_graph(program)
        memo = JobSpecMemo()
        plan = memo.plan(program, graph, OPTIONS, True)
        assert memo.plan(program, graph, OPTIONS, True) is plan
        other = memo.plan(program, graph, dataclasses.replace(OPTIONS, package_requests=True), True)
        assert other.digest != plan.digest

    def test_at_most_sixteen_entries_per_kind_dead_owners_first(self):
        import gc

        program = make_program()
        graphs = [build_rule_goal_graph(program) for _ in range(17)]
        databases = [Database.from_facts(program.facts) for _ in range(17)]
        memo = JobSpecMemo()
        plans = [memo.plan(program, graph, OPTIONS, True) for graph in graphs]
        edbs = [memo.edb(database) for database in databases]
        # Past 16 live owners the least recently used is dropped.
        assert len(memo._plans) == len(memo._edbs) == 16
        assert memo.plan(program, graphs[-1], OPTIONS, True) is plans[-1]
        assert memo.edb(databases[-1]) is edbs[-1]
        assert id(graphs[0]) not in memo._plans
        assert id(databases[0]) not in memo._edbs
        # A dead owner is purged before any live entry is evicted.
        del graphs[5], databases[5]
        gc.collect()
        fresh_graph = build_rule_goal_graph(program)
        fresh_database = Database.from_facts(program.facts)
        memo.plan(program, fresh_graph, OPTIONS, True)
        memo.edb(fresh_database)
        for table, owners in ((memo._plans, graphs), (memo._edbs, databases)):
            assert len(table) == 16
            assert all(id(owner) in table for owner in owners[1:])

    def test_program_ships_rules_only_when_a_database_rides_along(self):
        program = make_program()
        graph = build_rule_goal_graph(program)
        lean = pickle.loads(JobSpecMemo().plan(program, graph, OPTIONS, True).blob)
        assert lean["program"].facts == () and lean["graph"].program.facts == ()
        assert lean["program"].rules == program.rules
        assert lean["program"].edb_predicates == program.edb_predicates
        full = pickle.loads(JobSpecMemo().plan(program, graph, OPTIONS, False).blob)
        assert full["program"].facts == program.facts
        # The session's graph is never mutated by shipping it.
        assert graph.program is program and program.facts


class TestClientConnections:
    def test_submit_closes_the_connection_on_any_exception(self, monkeypatch):
        """A connection that failed mid-exchange is closed, never pooled —
        whatever the exception (here: one no handler anticipates)."""
        manager = ManagerThread("127.0.0.1", 0).start()
        client = ClusterClient(manager.address)
        try:
            pooled = client._connect()
            client._release(pooled)

            def exploding_recv(self, timeout=None):
                raise RuntimeError("unexpected")

            monkeypatch.setattr(FrameSocket, "recv_frame", exploding_recv)
            with pytest.raises(RuntimeError, match="unexpected"):
                client.submit({"plan": "0" * 32, "parts": []}, b"", 5.0)
            monkeypatch.undo()
            assert pooled.sock.fileno() == -1
            assert client._idle == []
            # ... and the client still works: a fresh connection, a typed
            # answer (this manager has never seen that digest).
            with pytest.raises(SpecMissError):
                client.submit({"plan": "0" * 32, "parts": []}, b"", 5.0)
            assert len(client._idle) == 1
        finally:
            client.close()
            manager.stop()
