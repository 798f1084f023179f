"""The asyncio query server: round trips, typed edge cases, no wedging.

Every test runs a real server (ephemeral port, background thread) and a
real TCP client.  The edge-case matrix is the satellite contract:
malformed JSON, unknown op, oversized request, client disconnect
mid-evaluation, deadline exceeded, and admission-queue-full rejection —
each must answer a *typed* error payload (or close cleanly) and leave
the server serving the next request.
"""

import asyncio
import json
import os
import signal
import socket
import sys
import threading
import time

import pytest

import repro.session as session_module
from repro.core.parser import ParseError, parse_query
from repro.core.program import ProgramError
from repro.service import (
    QueryServer,
    ReplicaSetConfig,
    ReplicaSetThread,
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceClientError,
    SharedSession,
)
from repro.service.protocol import error_payload
from repro.session import Session

BASE = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, U), anc(U, Y).
par(ann, bob).  par(bob, cal).  par(cal, dee).
"""

ANC_ANN = {("bob",), ("cal",), ("dee",)}


@pytest.fixture()
def service():
    shared = SharedSession(BASE)
    thread = ServerThread(shared, ServerConfig(max_concurrent=2, max_queue=2))
    port = thread.start()
    yield shared, port
    thread.stop()


def raw_exchange(port, *lines):
    """Send raw bytes lines; return the decoded response per line."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        file = sock.makefile("rwb")
        replies = []
        for line in lines:
            file.write(line if line.endswith(b"\n") else line + b"\n")
            file.flush()
            replies.append(json.loads(file.readline()))
        return replies


def slow_evaluations(shared, delay):
    original = shared.session.run_query

    def slowed(query, seed=None):
        time.sleep(delay)
        return original(query, seed)

    shared.session.run_query = slowed


class TestRoundTrips:
    def test_query_ask_and_ping(self, service):
        _, port = service
        with ServiceClient(port=port) as client:
            assert client.ping()
            reply = client.query("anc(ann, Z)")
            assert set(reply.answers) == ANC_ANN
            assert reply.shared == 1 and not reply.coalesced
            assert client.ask("anc(ann, dee)") is True
            assert client.ask("anc(dee, ann)") is False

    def test_writes_are_visible_to_later_queries(self, service):
        _, port = service
        with ServiceClient(port=port) as client:
            client.add_facts("par(dee, eve).")
            assert ("eve",) in client.query("anc(ann, Z)").answers
            client.add_rules("desc(X, Y) <- anc(Y, X).")
            assert client.ask("desc(eve, ann)")

    def test_stats_snapshot_shape(self, service):
        _, port = service
        with ServiceClient(port=port) as client:
            client.query("anc(ann, Z)")
            stats = client.stats()
        assert stats["metrics"]["counters"]["queries_total"] >= 1
        assert stats["metrics"]["histograms"]["evaluation_seconds"]["count"] >= 1
        assert stats["session"]["graph_cache"]["capacity"] > 0
        assert stats["server"]["max_concurrent"] == 2
        assert stats["server"]["draining"] is False

    def test_one_connection_many_requests(self, service):
        _, port = service
        with ServiceClient(port=port) as client:
            for _ in range(5):
                assert set(client.query("anc(ann, Z)").answers) == ANC_ANN
            assert client.query("anc(ann, Z)").cache_hit


class TestProtocolEdgeCases:
    def test_malformed_json_then_connection_still_works(self, service):
        _, port = service
        bad, good = raw_exchange(
            port,
            b"this is not json",
            b'{"id": 2, "op": "ping"}',
        )
        assert bad["ok"] is False
        assert bad["error"]["type"] == "bad_request"
        assert good == {"id": 2, "ok": True, "op": "ping"}

    def test_non_object_and_missing_op(self, service):
        _, port = service
        array, missing = raw_exchange(port, b"[1, 2]", b'{"id": 9}')
        assert array["error"]["type"] == "bad_request"
        assert missing["error"]["type"] == "bad_request"
        assert missing["id"] == 9  # id echoed even on failure

    def test_unknown_op_is_typed(self, service):
        _, port = service
        (reply,) = raw_exchange(port, b'{"id": 1, "op": "frobnicate"}')
        assert reply["error"]["type"] == "unknown_op"

    def test_missing_query_field_is_bad_request(self, service):
        _, port = service
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.call("query")
            assert excinfo.value.error_type == "bad_request"
            assert client.ping()  # connection survives

    def test_unparseable_program_is_bad_request(self, service):
        _, port = service
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.query("anc(ann, Z")  # unbalanced paren
            assert excinfo.value.error_type == "bad_request"
            with pytest.raises(ServiceClientError) as excinfo:
                client.add_facts("anc(x, y).")  # IDB predicate
            assert excinfo.value.error_type == "bad_request"
            assert client.ping()

    def test_oversized_request_is_typed_and_closes(self):
        shared = SharedSession(BASE)
        config = ServerConfig(max_request_bytes=200)
        with ServerThread(shared, config) as port:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                file = sock.makefile("rwb")
                file.write(
                    json.dumps({"op": "query", "query": "x" * 500}).encode() + b"\n"
                )
                file.flush()
                reply = json.loads(file.readline())
                assert reply["error"]["type"] == "oversized"
                assert file.readline() == b""  # framing is gone: closed
            # The server is unharmed for the next connection.
            with ServiceClient(port=port) as client:
                assert client.ping()


class TestAdmissionControl:
    def test_deadline_exceeded_is_typed_and_server_recovers(self, service):
        shared, port = service
        slow_evaluations(shared, delay=1.0)
        with ServiceClient(port=port) as client:
            start = time.monotonic()
            with pytest.raises(ServiceClientError) as excinfo:
                client.query("anc(ann, Z)", timeout=0.2)
            assert excinfo.value.error_type == "deadline_exceeded"
            assert time.monotonic() - start < 0.9  # rejected, not served late
            # Same connection keeps working; the orphaned evaluation's
            # result warms the cache, so this may even coalesce onto it.
            assert set(client.query("anc(ann, Z)", timeout=30).answers) == ANC_ANN

    def test_overload_rejection_when_queue_full(self):
        shared = SharedSession(BASE)
        slow_evaluations(shared, delay=1.5)
        config = ServerConfig(max_concurrent=1, max_queue=0)
        with ServerThread(shared, config) as port:
            # Occupy the only slot with a distinct variant per request so
            # coalescing cannot absorb the burst before admission does.
            busy = ServiceClient(port=port, timeout=30)
            busy.connect()
            import threading

            first_sent = threading.Event()

            def occupy():
                first_sent.set()
                busy.query("anc(ann, Z)")

            t = threading.Thread(target=occupy)
            t.start()
            first_sent.wait(5)
            time.sleep(0.3)  # the slot is now held by the slow evaluation
            with ServiceClient(port=port) as second:
                with pytest.raises(ServiceClientError) as excinfo:
                    second.query("anc(bob, Z)")
                assert excinfo.value.error_type == "overloaded"
                assert "retry" in str(excinfo.value)
            t.join(10)
            assert not t.is_alive()
            busy.close()
            # Once the slot frees, service resumes.
            with ServiceClient(port=port) as third:
                assert set(third.query("anc(ann, Z)").answers) == ANC_ANN
        stats = shared.metrics.snapshot()
        assert stats["counters"]["server_rejections_total"] >= 1

    def test_client_disconnect_mid_evaluation_does_not_wedge(self, service):
        shared, port = service
        slow_evaluations(shared, delay=0.8)
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.sendall(b'{"id": 1, "op": "query", "query": "anc(ann, Z)"}\n')
        time.sleep(0.2)  # evaluation is in flight
        sock.close()  # client gives up
        # The server must absorb the severed connection and keep serving.
        with ServiceClient(port=port, timeout=30) as client:
            assert set(client.query("anc(bob, Z)").answers) == {("cal",), ("dee",)}
        time.sleep(1.0)  # let the orphaned evaluation finish + release its slot
        assert shared.inflight_count() == 0


def counted_parses(monkeypatch):
    """Count every query parse the session performs from here on."""
    counter = {"parses": 0}
    real = session_module._parse_query_atoms

    def counting(query):
        counter["parses"] += 1
        return real(query)

    monkeypatch.setattr(session_module, "_parse_query_atoms", counting)
    return counter


def counter_value(shared, name):
    return shared.metrics.snapshot()["counters"].get(name, 0)


def queue_waits(shared):
    return shared.metrics.snapshot()["histograms"]["queue_wait_seconds"]["count"]


class TestCacheHitsOnTheLoop:
    """Answer-cache hits are answered on the event loop, misses evaluated."""

    @pytest.mark.parametrize("op", ["query", "ask"])
    def test_one_parse_per_request_hit_or_miss(self, service, monkeypatch, op):
        shared, port = service
        parses = counted_parses(monkeypatch)
        with ServiceClient(port=port) as client:
            call = client.query if op == "query" else client.ask
            call("anc(ann, Z)")  # miss: prepared on the loop, evaluated off it
            assert parses["parses"] == 1
            call("anc(ann, Z)")  # hit: prepared and answered on the loop
            assert parses["parses"] == 2
        answer_cache = shared.stats()["answer_cache"]
        assert (answer_cache["hits"], answer_cache["misses"]) == (1, 1)
        assert counter_value(shared, "queries_total") == 2

    def test_unparseable_query_keeps_its_typed_payload(self, service):
        shared, port = service
        with pytest.raises(ParseError) as parse_error:
            parse_query("anc(ann, Z")
        with pytest.raises(ProgramError) as program_error:
            shared.session.prepare("goal(X)")
        replies = raw_exchange(
            port,
            b'{"id": 1, "op": "query", "query": "anc(ann, Z"}',
            b'{"id": 2, "op": "ask", "query": "anc(ann, Z"}',
            b'{"id": 3, "op": "query", "query": "goal(X)"}',
        )
        assert replies == [
            error_payload("bad_request", str(parse_error.value), 1),
            error_payload("bad_request", str(parse_error.value), 2),
            error_payload("bad_request", str(program_error.value), 3),
        ]
        # Rejected before admission: no slot was waited for.
        assert queue_waits(shared) == 0
        assert counter_value(shared, "server_errors_total") == 3

    def test_full_server_still_answers_cached_keys(self):
        shared = SharedSession(BASE)
        config = ServerConfig(max_concurrent=1, max_queue=0)
        with ServerThread(shared, config) as port:
            with ServiceClient(port=port, timeout=30) as client:
                assert set(client.query("anc(ann, Z)").answers) == ANC_ANN
            slow_evaluations(shared, delay=1.5)
            holder = ServiceClient(port=port, timeout=30)
            holder.connect()
            held = threading.Thread(target=holder.query, args=("anc(bob, Z)",))
            held.start()
            deadline = time.monotonic() + 5
            while shared.inflight_count() == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert shared.inflight_count() == 1  # the only slot is held
            rejections = counter_value(shared, "server_rejections_total")
            with ServiceClient(port=port, timeout=30) as client:
                reply = client.query("anc(ann, Z)", timeout=0.05)
                assert reply.answer_cached and set(reply.answers) == ANC_ANN
                assert client.ask("anc(ann, Z)") is True
                # Answered while the slow evaluation still holds the slot.
                assert shared.inflight_count() == 1
                assert counter_value(shared, "server_rejections_total") == rejections
                with pytest.raises(ServiceClientError) as excinfo:
                    client.query("anc(cal, Z)")  # a miss still needs a slot
                assert excinfo.value.error_type == "overloaded"
            assert counter_value(shared, "server_rejections_total") == rejections + 1
            held.join(10)
            assert not held.is_alive()
            holder.close()
        # Only the two evaluations waited for a slot; the hits never did.
        assert queue_waits(shared) == 2

    @pytest.mark.parametrize("materialize", [False, True], ids=["plain", "materialized"])
    def test_read_your_writes_on_the_inline_path(self, materialize):
        shared = SharedSession(BASE, materialize=materialize)
        with ServerThread(shared) as port, ServiceClient(port=port) as client:
            client.query("anc(ann, Z)")
            assert client.query("anc(ann, Z)").answer_cached
            client.add_facts("par(dee, eve).")  # extends anc(ann, Z)
            extended = client.query("anc(ann, Z)")
            assert set(extended.answers) == ANC_ANN | {("eve",)}
            assert extended.raw["db_version"] == shared.db_version
            client.add_facts("par(zed, yan).")  # reaches nothing anc(ann, Z) has
            carried = client.query("anc(ann, Z)")
            assert set(carried.answers) == ANC_ANN | {("eve",)}
            assert carried.raw["db_version"] == shared.db_version
            # With warm networks both writes moved the entry, so both
            # reads were hits; without, each write forced one miss.
            assert extended.answer_cached is materialize
            assert carried.answer_cached is materialize
        if materialize:
            moved = shared.stats()["materialized"]
            assert (moved["answers_extended"], moved["answers_carried"]) == (1, 1)


    @pytest.mark.parametrize("materialize", [False, True], ids=["plain", "materialized"])
    def test_concurrent_hits_misses_and_writes_stay_consistent(self, materialize):
        # More client threads than cores and a short switch interval, so
        # loop-thread lookups interleave with evaluations and commits.
        queries = ["anc(ann, Z)", "anc(cal, Z)"]
        writes = [f"par(dee, n{i})." for i in range(6)]
        oracle_session = Session(BASE)
        oracle = {oracle_session.db_version: {q: oracle_session.query(q) for q in queries}}
        for batch in writes:
            oracle_session.add_facts(batch)
            oracle[oracle_session.db_version] = {q: oracle_session.query(q) for q in queries}
        shared = SharedSession(BASE, materialize=materialize)
        wrong, errors = [], []

        def reader(index):
            try:
                with ServiceClient(port=port, timeout=30) as client:
                    for step in range(40):
                        query = queries[(index + step) % 2]
                        reply = client.query(query)
                        version = reply.raw["db_version"]
                        if set(reply.answers) != oracle[version][query]:
                            wrong.append((query, version))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def writer():
            try:
                with ServiceClient(port=port, timeout=30) as client:
                    for batch in writes:
                        client.add_facts(batch)
                        time.sleep(0.005)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServerThread(shared, ServerConfig(max_concurrent=2, max_queue=16)) as port:
                threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
                threads.append(threading.Thread(target=writer))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not wrong
        # Each request counted once, as a hit (on the loop) or a miss.
        answer_cache = shared.stats()["answer_cache"]
        assert answer_cache["hits"] + answer_cache["misses"] == 6 * 40
        assert counter_value(shared, "queries_total") == 6 * 40
        assert shared.db_version == max(oracle)

class TestShutdown:
    def test_shutdown_op_drains_and_refuses_new_connections(self):
        shared = SharedSession(BASE)
        thread = ServerThread(shared)
        port = thread.start()
        with ServiceClient(port=port) as client:
            assert set(client.query("anc(ann, Z)").answers) == ANC_ANN
            reply = client.shutdown()
            assert reply["draining"] is True
        thread._thread.join(15)
        assert not thread._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=2)
        thread.stop()  # idempotent on an already-stopped server

    def test_server_thread_context_manager_stops_cleanly(self):
        import threading

        before = threading.active_count()
        shared = SharedSession(BASE)
        with ServerThread(shared) as port:
            with ServiceClient(port=port) as client:
                assert client.ping()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if threading.active_count() <= before:
                break
            time.sleep(0.05)
        assert threading.active_count() <= before


    @pytest.mark.parametrize(
        "harness", [ServerThread, ReplicaSetThread], ids=lambda h: h.__name__
    )
    def test_idle_client_does_not_hold_up_stop(self, harness, tmp_path):
        # Python 3.12's Server.wait_closed waits for every connection, so
        # the server must close idle client connections before it.
        if harness is ServerThread:
            thread = harness(SharedSession(BASE), ServerConfig(drain_timeout=1.0))
        else:
            thread = harness(
                BASE,
                data_dir=str(tmp_path / "data"),
                config=ReplicaSetConfig(replicas=1, drain_timeout=1.0),
            )
        port = thread.start()
        client = ServiceClient(port=port, timeout=10)
        assert client.ping()  # ...and the connection stays open, idle
        try:
            start = time.monotonic()
            thread.stop(timeout=1.0 + 2.0)
            assert time.monotonic() - start < 1.0 + 2.0
        finally:
            client.close()


class TestSignalShutdown:
    """Satellite (b): SIGINT/SIGTERM → graceful drain, twice → force stop.

    These run the server loop on the *main* thread (``asyncio.run`` in
    the test itself) because loop signal handlers can only be installed
    there; clients drive it from side threads.
    """

    def test_sigint_drains_in_flight_evaluation_then_stops(self):
        shared = SharedSession(BASE)
        slow_evaluations(shared, 0.4)
        server = QueryServer(shared, ServerConfig())
        results = {}

        def client_call():
            with ServiceClient(port=server.port) as client:
                results["reply"] = client.query("anc(ann, Z)")

        async def main():
            await server.start()
            assert server.install_signal_handlers()
            worker = threading.Thread(target=client_call)
            worker.start()
            await asyncio.sleep(0.15)  # the evaluation is now in flight
            os.kill(os.getpid(), signal.SIGINT)
            await asyncio.wait_for(server.serve_forever(), timeout=10)
            worker.join(10)
            assert not worker.is_alive()

        asyncio.run(main())
        # The interrupted-mid-evaluation query still got its full answer.
        assert set(results["reply"].answers) == ANC_ANN
        # Clean drain: the executor joined, nothing leaks.
        assert not any(
            t.name.startswith("repro-eval") for t in threading.enumerate()
        )

    def test_sigterm_is_equivalent_to_sigint(self):
        shared = SharedSession(BASE)
        server = QueryServer(shared, ServerConfig())

        async def main():
            await server.start()
            assert server.install_signal_handlers()
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(server.serve_forever(), timeout=10)

        asyncio.run(main())

    def test_second_signal_abandons_the_drain(self):
        shared = SharedSession(BASE)
        slow_evaluations(shared, 1.5)
        # A huge drain timeout: only the second signal can end this fast.
        server = QueryServer(shared, ServerConfig(drain_timeout=60.0))

        def client_call():
            try:
                with ServiceClient(port=server.port) as client:
                    client.query("anc(ann, Z)")
            except ServiceClientError:
                pass  # the abandoned drain severs the connection

        async def main():
            await server.start()
            assert server.install_signal_handlers()
            worker = threading.Thread(target=client_call)
            worker.start()
            await asyncio.sleep(0.2)  # evaluation in flight
            os.kill(os.getpid(), signal.SIGINT)  # begin graceful drain
            await asyncio.sleep(0.1)
            os.kill(os.getpid(), signal.SIGINT)  # "stop NOW"
            start = time.monotonic()
            await asyncio.wait_for(server.serve_forever(), timeout=5)
            assert time.monotonic() - start < 2.0  # not the 60s drain
            worker.join(10)
            assert not worker.is_alive()

        asyncio.run(main())
        # The orphaned evaluation finishes on its thread; join it so the
        # test leaves no straggler behind.
        server._executor.shutdown(wait=True)

    def test_request_shutdown_is_idempotent_and_retains_its_task(self):
        shared = SharedSession(BASE)
        server = QueryServer(shared, ServerConfig())

        async def main():
            await server.start()
            server.request_shutdown()
            assert server._shutdown_task is not None  # strong ref held
            server.request_shutdown()  # second call: abort path, no error
            await asyncio.wait_for(server.serve_forever(), timeout=10)

        asyncio.run(main())
