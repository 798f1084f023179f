"""CI service smoke: mixed read/write load, clean drain, zero leaks.

Starts the query server on an ephemeral port over a small ancestor
base, drives a short mixed load (identical + distinct queries from
several client threads, interleaved ``add_facts``/``add_rules``, a
malformed request, an unknown op, a deadline'd ask), asks the server to
drain via the ``shutdown`` op, and then asserts the conditions CI is
really there to check:

* every answer matches a serial oracle session;
* a burst of distinct keys of one query shape adds one graph to the
  session's graph cache (one rule/goal graph per shape, not per key);
* the server drains *cleanly* — the server thread joins, no evaluation
  is severed mid-flight;
* zero leaked threads and zero leaked child processes after drain
  (polled briefly: executor threads unwind asynchronously).

Exits non-zero on any violation.  Budget: well under a CI minute.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import sys
import threading
import time

from repro.service import (
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceClientError,
    SharedSession,
)
from repro.session import Session

BASE = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, U), anc(U, Y).
par(ann, bob).  par(bob, cal).  par(cal, dee).  par(dee, eve).
par(ann, abe).  par(abe, ada).
"""

EXTRA_FACTS = "par(eve, fay).  par(fay, gus)."
EXTRA_RULES = "desc(X, Y) <- anc(Y, X)."

QUERIES = ["anc(ann, Z)", "anc(bob, Z)", "anc(ann, W)", "anc(abe, Q)"]

#: ~50 distinct keys of one shape no earlier request has: the people of
#: the final base, then names it has never seen (empty answers).
PEOPLE = ["ann", "bob", "cal", "dee", "eve", "abe", "ada", "fay", "gus"]
BURST = [f"desc(Z, {name})" for name in PEOPLE + [f"kid{i}" for i in range(41)]]


def oracle_answers(queries: list[str]) -> dict:
    """Serial single-threaded session over the *final* base: the oracle."""
    session = Session(BASE)
    session.add_facts(EXTRA_FACTS)
    session.add_rules(EXTRA_RULES)
    return {q: session.query(q) for q in queries}


def client_load(port: int, index: int, failures: list) -> None:
    """One client thread: a few queries, its share of the writes."""
    try:
        with ServiceClient(port=port, timeout=30.0) as client:
            for round_ in range(3):
                query = QUERIES[(index + round_) % len(QUERIES)]
                reply = client.query(query, timeout=30.0)
                if not reply.answers:
                    failures.append(f"client {index}: empty answers for {query}")
            if index == 0:
                client.add_facts(EXTRA_FACTS)
            if index == 1:
                # May race client 0's add_facts; both orders are valid.
                client.add_rules(EXTRA_RULES)
            client.ask("anc(ann, eve)", timeout=30.0)
    except Exception as exc:  # noqa: BLE001 - report, don't hang CI
        failures.append(f"client {index}: {type(exc).__name__}: {exc}")


def main() -> int:
    failures: list[str] = []
    threads_before = threading.active_count()
    shared = SharedSession(BASE)
    server = ServerThread(
        shared,
        ServerConfig(max_concurrent=3, max_queue=8, default_deadline=20.0),
    )
    port = server.start()

    # Protocol edge cases must answer typed errors without wedging anyone.
    raw = socket.create_connection(("127.0.0.1", port), timeout=10)
    raw_file = raw.makefile("rwb")
    raw_file.write(b"this is not json\n")
    raw_file.flush()
    bad = json.loads(raw_file.readline())
    assert bad["error"]["type"] == "bad_request", bad
    raw_file.write(b'{"id": 1, "op": "frobnicate"}\n')
    raw_file.flush()
    unknown = json.loads(raw_file.readline())
    assert unknown["error"]["type"] == "unknown_op", unknown
    raw.close()

    # Mixed read/write load from several concurrent clients.
    workers = [
        threading.Thread(target=client_load, args=(port, i, failures))
        for i in range(4)
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join(60)
        if t.is_alive():
            failures.append("client thread wedged")

    # Post-load verification against the serial oracle.
    oracle = oracle_answers(QUERIES + ["desc(gus, ann)"])
    burst_oracle = oracle_answers(BURST)
    with ServiceClient(port=port, timeout=30.0) as client:
        graphs_before = client.stats()["session"]["graph_cache"]["size"]
        for query, expected in burst_oracle.items():
            got = set(client.query(query).answers)
            if got != expected:
                failures.append(f"{query}: {got} != oracle {expected}")
        graphs_after = client.stats()["session"]["graph_cache"]["size"]
        if graphs_after != graphs_before + 1:
            failures.append(
                f"{len(BURST)} keys of one shape grew the graph cache "
                f"{graphs_before} -> {graphs_after}, not by one"
            )
        for query, expected in oracle.items():
            if query.startswith("desc"):
                if not client.ask(query):
                    failures.append(f"{query}: expected true after add_rules")
            else:
                got = set(client.query(query).answers)
                if got != expected:
                    failures.append(f"{query}: {got} != oracle {expected}")
        stats = client.stats()
        counters = stats["metrics"]["counters"]
        if counters["queries_total"] < 12:
            failures.append(f"suspicious queries_total {counters['queries_total']}")
        if stats["session"]["writes"] != 2:
            failures.append(f"expected 2 writes, saw {stats['session']['writes']}")

    # Graceful drain via the protocol, then the leak audit.
    try:
        ServiceClient(port=port).shutdown()
    except ServiceClientError as exc:
        failures.append(f"shutdown op failed: {exc}")
    server._thread.join(30)
    if server._thread.is_alive():
        failures.append("server thread did not drain")

    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        leaked_threads = threading.active_count() - threads_before
        leaked_children = multiprocessing.active_children()
        if leaked_threads <= 0 and not leaked_children:
            break
        time.sleep(0.1)
    else:
        failures.append(
            f"leaked {leaked_threads} thread(s), "
            f"{len(leaked_children)} child process(es) after drain"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("service smoke ok: mixed load served, clean drain, zero leaks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
