"""Replicated serving chaos matrix: the front door must hide everything.

Every test runs a real :class:`ReplicaSet` — replica *processes* behind
the asyncio front door — and drives it through the existing NDJSON
protocol with real TCP clients.  The service-tier chaos matrix mirrors
the runtime one (``tests/runtime/test_fault_tolerance.py``) a level up:
a replica killed, wedged, dropping connections, or answering slowly
under concurrent read+write load must yield

* **answer parity** with a single-process oracle session,
* **zero client-visible read errors** (failover + retries mask faults),
* **write monotonicity**: the log's ``seq`` only grows, and every
  readmitted replica has applied exactly the committed prefix.

Degradation is tested at the bottom: with *no* healthy replica the
front door serves cached answers marked ``stale`` and types everything
else ``degraded`` — never a hang, never a silent wrong answer.
"""

import json
import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.service import (
    ReplicaConfig,
    ReplicaSet,
    ReplicaSetConfig,
    ReplicaSetThread,
    ServiceClient,
    ServiceClientError,
)
from repro.session import Session

pytestmark = pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="fork start method required"
)

BASE = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, U), anc(U, Y).
par(ann, bob).  par(bob, cal).  par(cal, dee).
"""

ANC_ANN = {("bob",), ("cal",), ("dee",)}

#: Small, impatient tunables so faults are detected and healed in
#: test-sized time; semantics are identical to the defaults.
FAST = dict(
    read_timeout=1.0,
    probe_interval=0.2,
    heartbeat_interval=0.1,
    stall_timeout=0.8,
    health_interval=0.05,
)


def make_set(tmp_path, *, replicas=3, faults=None, monkeypatch=None, **overrides):
    """A running replica set (healthy), its port, and the thread handle."""
    if faults is not None:
        assert monkeypatch is not None
        monkeypatch.setenv("REPRO_SERVICE_FAULTS", json.dumps(faults))
    config = ReplicaSetConfig(replicas=replicas, **{**FAST, **overrides})
    thread = ReplicaSetThread(
        BASE,
        data_dir=str(tmp_path / "data"),
        config=config,
        replica_config=ReplicaConfig(max_concurrent=2, max_queue=8),
    )
    port = thread.start()
    return thread, port


def wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def replication_stats(port):
    client = ServiceClient(port=port, timeout=10)
    try:
        return client.stats()["replication"]
    finally:
        client.close()


def all_caught_up(port):
    stats = replication_stats(port)
    return stats["healthy"] == len(stats["replicas"]) and all(
        snap["state"] == "healthy" and snap["applied_seq"] == stats["seq"]
        for snap in stats["replicas"].values()
    )


class _Load:
    """Concurrent readers (and optionally a writer) against the front door."""

    def __init__(self, port, queries, readers=4):
        self.port = port
        self.queries = queries
        self.readers = readers
        self.errors: list = []
        self.served = 0
        self.answers: dict = {}
        self._stop = threading.Event()
        self._threads: list = []
        self._lock = threading.Lock()

    def _reader(self, index):
        client = ServiceClient(port=self.port, timeout=15)
        i = 0
        while not self._stop.is_set():
            query = self.queries[(index + i) % len(self.queries)]
            i += 1
            try:
                reply = client.query(query)
            except Exception as exc:  # noqa: BLE001 - every error is a failure
                self.errors.append(repr(exc))
                continue
            with self._lock:
                self.served += 1
                self.answers[query] = reply.answers
        client.close()

    def __enter__(self):
        self._threads = [
            threading.Thread(target=self._reader, args=(i,)) for i in range(self.readers)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30)


class TestParityAndWrites:
    def test_reads_match_the_single_process_oracle(self, tmp_path):
        oracle = Session(BASE)
        thread, port = make_set(tmp_path)
        try:
            client = ServiceClient(port=port, timeout=10)
            for query in ("anc(ann, Z)", "anc(X, dee)", "par(X, Y)"):
                assert set(client.query(query).answers) == oracle.query(query)
            assert client.ask("anc(ann, dee)") is True
            assert client.ping() is True
            client.close()
        finally:
            thread.stop()

    def test_writes_fan_out_log_then_ack(self, tmp_path):
        thread, port = make_set(tmp_path)
        try:
            client = ServiceClient(port=port, timeout=10)
            reply = client.add_facts("par(dee, eve).")
            assert reply["seq"] == 1
            assert reply["replicas_applied"] == 3
            assert set(client.query("anc(ann, Z)").answers) == ANC_ANN | {("eve",)}
            reply = client.add_rules("desc(X, Y) <- anc(Y, X).")
            assert reply["seq"] == 2
            assert client.ask("desc(eve, ann)") is True
            assert all_caught_up(port)
            client.close()
        finally:
            thread.stop()

    def test_rejected_write_is_never_logged(self, tmp_path):
        thread, port = make_set(tmp_path)
        try:
            client = ServiceClient(port=port, timeout=10)
            with pytest.raises(ServiceClientError) as info:
                client.add_facts("this is ((( not datalog")
            assert info.value.error_type == "bad_request"
            stats = replication_stats(port)
            assert stats["seq"] == 0  # nothing reached the log
            assert stats["healthy"] == 3
            assert set(client.query("anc(ann, Z)").answers) == ANC_ANN
            client.close()
        finally:
            thread.stop()

    def test_front_door_speaks_the_protocol_edge_cases(self, tmp_path):
        thread, port = make_set(tmp_path, replicas=2, max_request_bytes=200)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                file = sock.makefile("rwb")

                def exchange(line: bytes) -> dict:
                    file.write(line + b"\n")
                    file.flush()
                    return json.loads(file.readline())

                bad = exchange(b"{not json")
                assert not bad["ok"] and bad["error"]["type"] == "bad_request"
                unknown = exchange(b'{"op": "explode"}')
                assert unknown["error"]["type"] == "unknown_op"
                missing = exchange(b'{"op": "query"}')
                assert missing["error"]["type"] == "bad_request"
                # Blank lines get no response: the next reply is the ping's.
                pong = exchange(b'\n  \n{"id": 9, "op": "ping"}')
                assert pong["ok"] and pong["id"] == 9
                oversized = exchange(
                    json.dumps({"op": "query", "query": "x" * 500}).encode()
                )
                assert oversized["error"]["type"] == "oversized"
                assert file.readline() == b""  # framing is gone: closed
            # The front door is unharmed for the next connection.
            with ServiceClient(port=port, timeout=10) as client:
                assert client.ping()
        finally:
            thread.stop()


class TestChaosMatrix:
    """kill / wedge / drop / slow — under live read+write load, invisibly."""

    def _run_load(self, port, seconds=2.0):
        queries = ["anc(ann, Z)", "anc(X, dee)", "par(X, Y)", "anc(bob, Z)"]
        with _Load(port, queries) as load:
            time.sleep(seconds)
        return load

    def test_killed_replica_is_invisible_and_readmitted(self, tmp_path, monkeypatch):
        faults = {"kill_replica": "replica-1", "kill_after": 5, "only_ops": ["query"]}
        thread, port = make_set(tmp_path, faults=faults, monkeypatch=monkeypatch)
        try:
            load = self._run_load(port)
            assert load.errors == []
            assert load.served > 20
            assert wait_for(lambda: all_caught_up(port))
            stats = replication_stats(port)
            assert stats["replicas"]["replica-1"]["restarts"] >= 1
            assert stats["restarts"] >= 1
            oracle = Session(BASE)
            for query, answers in load.answers.items():
                assert set(answers) == oracle.query(query)
        finally:
            thread.stop()

    def test_wedged_replica_is_detected_and_restarted(self, tmp_path, monkeypatch):
        faults = {"wedge_replica": "replica-2", "wedge_after": 3, "only_ops": ["query"]}
        thread, port = make_set(tmp_path, faults=faults, monkeypatch=monkeypatch)
        try:
            load = self._run_load(port, seconds=3.0)
            assert load.errors == []
            assert wait_for(lambda: all_caught_up(port))
            stats = replication_stats(port)
            # The wedge froze the heartbeat; the stall detector killed it.
            assert stats["replicas"]["replica-2"]["restarts"] >= 1
        finally:
            thread.stop()

    def test_connection_drops_are_masked_by_failover(self, tmp_path, monkeypatch):
        faults = {
            "drop_replica": "replica-0",
            "drop_after": 2,
            "drop_count": 4,
            "only_ops": ["query"],
        }
        thread, port = make_set(tmp_path, faults=faults, monkeypatch=monkeypatch)
        try:
            load = self._run_load(port)
            assert load.errors == []
            assert wait_for(lambda: all_caught_up(port))
            stats = replication_stats(port)
            assert stats["failovers"] >= 1  # the drops were really retried
        finally:
            thread.stop()

    def test_slow_replica_is_routed_around(self, tmp_path, monkeypatch):
        faults = {
            "delay_replica": "replica-1",
            "delay_seconds": 3.0,
            "delay_after": 2,
            "only_ops": ["query"],
        }
        thread, port = make_set(
            tmp_path, faults=faults, monkeypatch=monkeypatch, read_timeout=0.5
        )
        try:
            load = self._run_load(port, seconds=3.0)
            assert load.errors == []
            assert load.served > 10
            stats = replication_stats(port)
            # Per-attempt timeouts fired and the reads finished elsewhere.
            assert stats["failovers"] >= 1
        finally:
            thread.stop()

    def test_write_monotonicity_across_failover(self, tmp_path):
        thread, port = make_set(tmp_path)
        try:
            queries = ["anc(ann, Z)", "par(X, Y)"]
            accepted = []
            stop_writes = threading.Event()

            def writer():
                client = ServiceClient(port=port, timeout=15)
                i = 0
                while not stop_writes.is_set():
                    i += 1
                    reply = client.add_facts(f"par(dee, w{i}).")
                    accepted.append((reply["seq"], f"w{i}"))
                    time.sleep(0.02)
                client.close()

            with _Load(port, queries) as load:
                writes = threading.Thread(target=writer)
                writes.start()
                time.sleep(0.5)
                victim = thread.replica_set._replicas[0]
                os.kill(victim.process.pid, signal.SIGKILL)
                time.sleep(1.5)
                stop_writes.set()
                writes.join(timeout=30)
            assert load.errors == []
            assert accepted, "the writer never got a write through"
            # seq is strictly monotone in ack order: the log never rewinds.
            seqs = [seq for seq, _ in accepted]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
            # The killed replica comes back with exactly the committed prefix.
            assert wait_for(lambda: all_caught_up(port))
            stats = replication_stats(port)
            assert stats["seq"] == seqs[-1]
            assert stats["replicas"]["replica-0"]["restarts"] >= 1
            # Answer parity with an oracle that saw the same accepted writes.
            oracle = Session(BASE)
            for _, name in accepted:
                oracle.add_facts(f"par(dee, {name}).")
            client = ServiceClient(port=port, timeout=10)
            assert set(client.query("anc(ann, Z)").answers) == oracle.query("anc(ann, Z)")
            client.close()
        finally:
            thread.stop()


class TestDegradedService:
    def test_stale_cache_then_typed_degraded(self, tmp_path, monkeypatch):
        # One replica, killed while serving its second query: the front
        # door is briefly replica-less and must degrade, not hang.
        faults = {"kill_replica": "replica-0", "kill_after": 1, "only_ops": ["query"]}
        thread, port = make_set(
            tmp_path, replicas=1, faults=faults, monkeypatch=monkeypatch
        )
        try:
            client = ServiceClient(port=port, timeout=10)
            warm = client.query("anc(ann, Z)")  # request 1: served, cached
            assert set(warm.answers) == ANC_ANN
            # Request 2 kills the only replica mid-flight; the front door
            # falls back to its own cache of this exact query.
            stale = client.query("anc(ann, Z)")
            assert set(stale.answers) == ANC_ANN
            assert stale.raw.get("stale") is True
            # An uncached read in the replica-less window is typed, fast.
            with pytest.raises(ServiceClientError) as info:
                client.query("anc(bob, Z)")
            assert info.value.error_type == "degraded"
            # The supervisor restarts and readmits; service resumes fully.
            assert wait_for(lambda: all_caught_up(port))
            assert wait_for(
                lambda: self._fresh(port, "anc(bob, Z)") == {("cal",), ("dee",)}
            )
            client.close()
        finally:
            thread.stop()

    def test_front_door_drains_an_in_flight_read(self, tmp_path, monkeypatch):
        # The only replica answers queries 1 s late; stop() lands mid-read.
        faults = {"delay_replica": "replica-0", "delay_seconds": 1.0, "only_ops": ["query"]}
        thread, port = make_set(
            tmp_path,
            replicas=1,
            faults=faults,
            monkeypatch=monkeypatch,
            read_timeout=5.0,
            drain_timeout=3.0,
        )
        outcome = {}

        def read():
            try:
                with ServiceClient(port=port, timeout=10) as client:
                    outcome["reply"] = client.query("anc(ann, Z)")
            except ServiceClientError as exc:
                outcome["error"] = exc

        reader = threading.Thread(target=read)
        reader.start()
        time.sleep(0.3)  # the read is at the replica now
        start = time.monotonic()
        thread.stop()
        stopped_in = time.monotonic() - start
        reader.join(10)
        assert not reader.is_alive()
        assert "error" not in outcome, outcome.get("error")
        reply = outcome["reply"]
        assert set(reply.answers) == ANC_ANN
        assert not reply.raw.get("stale")  # a real answer, not the cache's
        assert stopped_in < 3.0 + 2.0

    def test_front_cache_drops_its_lru_entry_past_its_bound(self, tmp_path):
        # No replica is spawned: the front door's stale-answer cache alone.
        front = ReplicaSet(
            BASE,
            data_dir=str(tmp_path / "data"),
            config=ReplicaSetConfig(replicas=1, front_cache_size=2),
        )
        try:
            def cache(text):
                reply = {"id": 1, "ok": True, "answers": [[text]], "replica": "r0"}
                front._cache_answer("query", text, reply)

            cache("anc(ann, Z)")
            cache("anc(bob, Z)")
            # Serving a stale answer does not make it recent.
            assert front._degraded_read("query", "anc(ann, Z)", 2)["stale"]
            cache("anc(cal, Z)")
            gone = front._degraded_read("query", "anc(ann, Z)", 3)
            assert gone["error"]["type"] == "degraded"
            for text in ("anc(bob, Z)", "anc(cal, Z)"):
                stale = front._degraded_read("query", text, 4)
                assert stale == {"ok": True, "answers": [[text]], "id": 4, "stale": True}
            assert len(front._front_cache) == 2
        finally:
            front.store.close()

    @staticmethod
    def _fresh(port, query):
        client = ServiceClient(port=port, timeout=10)
        try:
            reply = client.query(query)
            if reply.raw.get("stale"):
                return None
            return set(reply.answers)
        except ServiceClientError:
            return None
        finally:
            client.close()


class TestClientRetry:
    """The ServiceClient satellite: reconnect + bounded idempotent retry."""

    def test_transport_failures_retry_then_succeed(self):
        client = ServiceClient(port=1, retries=2, backoff=0.0, jitter=0.0)
        attempts = []

        def flaky(op, **fields):
            attempts.append(op)
            if len(attempts) < 3:
                raise ServiceClientError("transport", "injected")
            return {"ok": True, "op": op}

        client._call_once = flaky
        assert client.call("ping")["ok"] is True
        assert len(attempts) == 3
        assert client.transport_retries == 2

    def test_writes_are_not_retried_by_default(self):
        client = ServiceClient(port=1, retries=3, backoff=0.0)
        attempts = []

        def always_down(op, **fields):
            attempts.append(op)
            raise ServiceClientError("transport", "injected")

        client._call_once = always_down
        with pytest.raises(ServiceClientError):
            client.call("add_facts", facts="p(a).")
        assert len(attempts) == 1  # ambiguous write: surfaced, not replayed
        with pytest.raises(ServiceClientError):
            client.call("query", query="p(X)")
        assert len(attempts) == 1 + 4  # idempotent read: 1 + 3 retries

    def test_retry_writes_opts_in(self):
        client = ServiceClient(port=1, retries=1, backoff=0.0, retry_writes=True)
        attempts = []

        def always_down(op, **fields):
            attempts.append(op)
            raise ServiceClientError("transport", "injected")

        client._call_once = always_down
        with pytest.raises(ServiceClientError):
            client.call("add_facts", facts="p(a).")
        assert len(attempts) == 2

    def test_typed_server_errors_are_never_retried(self):
        client = ServiceClient(port=1, retries=3, backoff=0.0)
        attempts = []

        def overloaded(op, **fields):
            attempts.append(op)
            raise ServiceClientError("overloaded", "queue full")

        client._call_once = overloaded
        with pytest.raises(ServiceClientError) as info:
            client.call("query", query="p(X)")
        assert info.value.error_type == "overloaded"
        assert len(attempts) == 1

    def test_refused_connection_is_typed_transport(self):
        # Bind-then-close guarantees a dead port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(port=dead_port, retries=1, backoff=0.0, jitter=0.0)
        with pytest.raises(ServiceClientError) as info:
            client.ping()
        assert info.value.error_type == "transport"
        assert client.transport_retries == 1

    def test_client_reconnects_through_a_front_door_lifetime(self, tmp_path):
        thread, port = make_set(tmp_path, replicas=2)
        try:
            client = ServiceClient(port=port, timeout=10)
            assert client.ping()
            client.close()  # sever; the next call reconnects lazily
            assert set(client.query("anc(ann, Z)").answers) == ANC_ANN
            client.close()
        finally:
            thread.stop()


class TestReadmissionWarmup:
    """A restarted replica is warmed from the recent-read log before HEALTHY."""

    def test_restarted_replica_is_warmed_before_readmission(
        self, tmp_path, monkeypatch
    ):
        faults = {"kill_replica": "replica-1", "kill_after": 3, "only_ops": ["query"]}
        thread, port = make_set(tmp_path, faults=faults, monkeypatch=monkeypatch)
        try:
            # Concurrent readers populate the recent-read log and trip
            # the kill on replica-1; failover keeps every read answered.
            queries = ["anc(ann, Z)", "anc(X, dee)", "par(X, Y)"]
            with _Load(port, queries) as load:
                time.sleep(2.0)
            assert load.errors == []
            assert wait_for(lambda: all_caught_up(port))
            stats = replication_stats(port)
            snap = stats["replicas"]["replica-1"]
            assert snap["restarts"] >= 1
            # Readmission after the restart replayed the logged reads.
            assert snap["warmups"] >= 1
            assert snap["warmed_queries"] >= 1
            assert stats["warmups"] >= 1
            assert stats["warmup_queries_replayed"] >= 1
            assert stats["recent_reads_logged"] >= 1
        finally:
            thread.stop()

    def test_warm_op_evaluates_without_shipping_rows(self, tmp_path):
        thread, port = make_set(tmp_path)
        try:
            client = ServiceClient(port=port, timeout=10)
            response = client.call("warm", query="anc(ann, Z)")
            assert response["ok"] and response["op"] == "warm"
            assert response["count"] == len(ANC_ANN)
            assert "answers" not in response  # priming ships no rows
            # The replica that served the warm now answers from its caches.
            assert set(client.query("anc(ann, Z)").answers) == ANC_ANN
            client.close()
        finally:
            thread.stop()

    def test_recent_read_log_is_bounded_and_deduped(self, tmp_path):
        thread, port = make_set(tmp_path, warmup_queries=2)
        try:
            client = ServiceClient(port=port, timeout=10)
            for query in ["anc(ann, Z)", "anc(bob, Z)", "par(X, Y)", "anc(ann, Z)"]:
                client.query(query)
                client.query(query)  # repeats dedup, they don't evict
            client.close()
            stats = replication_stats(port)
            assert stats["recent_reads_logged"] == 2
        finally:
            thread.stop()
