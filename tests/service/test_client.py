"""ServiceClient transport behaviour against a listener that never replies."""

import socket
import threading
import time

import pytest

from repro.service import ServiceClient, ServiceClientError


@pytest.fixture
def silent_listener():
    """A localhost listener that accepts connections and never replies."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(0.05)
    accepted = []
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            accepted.append(conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield server.getsockname()[1], accepted
    stop.set()
    thread.join()
    for conn in accepted:
        conn.close()
    server.close()


def test_close_does_not_wait_for_a_pending_call(silent_listener):
    port, accepted = silent_listener
    client = ServiceClient(port=port, timeout=3, retries=2, backoff=0, jitter=0)
    errors = []

    def pending():
        try:
            client.ping()
        except ServiceClientError as exc:
            errors.append(exc)

    thread = threading.Thread(target=pending)
    thread.start()
    deadline = time.monotonic() + 2
    while not accepted and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.1)  # the request is written and the reply awaited
    start = time.perf_counter()
    client.close()
    took = time.perf_counter() - start
    thread.join(timeout=5)
    assert took < 0.5
    assert not thread.is_alive()
    assert [exc.error_type for exc in errors] == ["transport"]
    assert len(accepted) == 1  # the closed client did not reconnect
