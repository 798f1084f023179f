"""Replicated-service benchmark: zipf read load with a mid-run SIGKILL.

The PR 9 headline: putting N replica processes behind the failover
front door scales reads past one process's ceiling **and survives
losing a replica mid-run with zero client-visible errors**.  The PR 5
service bench recorded the single-process warm mixed load at 7.1 qps
with a 2.55 s p99 (:data:`PR5_QPS`, :data:`PR5_P99`); the acceptance
bar here is **≥2x that throughput at equal-or-better p99** while a
replica is SIGKILLed, restarted, resynced, and readmitted in the middle
of the measured window.

Shape of the run (same 20,439-fact bushy transitive closure as PR 3/5):

1. *Single-server reference*: the identical client load against one
   ``QueryServer`` — today's one-process number, for the table.
2. *Replicated chaos load*: 100 client threads fire a zipf-distributed
   mix over 8 query variants at a 3-replica :class:`ReplicaSet`.  At
   ~30% progress one replica process is SIGKILLed.  Clients must see
   zero errors; the supervisor must restart, resync, and readmit the
   victim before the run ends.

Records land in ``BENCH_PR9.json`` at the repo root.

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/bench_replication.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import statistics
import sys
import threading
import time

from _support import BENCH_PR9_JSON_PATH, emit_json, emit_table
from repro.service import (
    ReplicaConfig,
    ReplicaSetConfig,
    ReplicaSetThread,
    ServerConfig,
    ServerThread,
    ServiceClient,
    SharedSession,
)
from repro.workloads import facts_from_tables, left_recursive_tc_program

#: One server's warm mixed load (qps, p99 s): the bar doubles this qps.
PR5_QPS = 7.1
PR5_P99 = 2.55113

N_VARIANTS = 8
KILL_AT_FRACTION = 0.3


def tc_bushy_workload(branch: int = 27, depth: int = 3):
    """The set-at-a-time workload: a uniform tree TC, all reachable."""
    edges = []
    level = [0]
    next_id = 1
    for _ in range(depth):
        new = []
        for parent in level:
            for _ in range(branch):
                edges.append((parent, next_id))
                new.append(next_id)
                next_id += 1
        level = new
    program = left_recursive_tc_program(0).with_facts(
        facts_from_tables({"e": edges})
    )
    expected = {(i,) for i in range(1, next_id)}
    return program, expected, len(edges)


def zipf_schedule(clients: int, per_client: int, seed: int = 9) -> list[list[str]]:
    """Per-client query lists, zipf-distributed over the variant pool.

    Rank-``k`` variant drawn with probability proportional to ``1/k``:
    a hot head that exercises the answer caches plus a cold tail that
    keeps real evaluations in the mix.  The variants are depth-1
    subtree closures (hundreds of answers each, not the 20k-answer
    full closure), so the measurement is about serving and failover
    rather than shoveling megabyte response payloads.
    """
    variants = [f"t({k}, Z)" for k in range(1, N_VARIANTS + 1)]
    weights = [1.0 / (rank + 1) for rank in range(N_VARIANTS)]
    rng = random.Random(seed)
    return [
        rng.choices(variants, weights=weights, k=per_client) for _ in range(clients)
    ]


class LoadResult:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.errors: list[str] = []
        self.done = 0
        self.lock = threading.Lock()


def drive_load(port: int, schedule: list[list[str]], on_progress=None) -> tuple[float, LoadResult]:
    """Every client is a thread with its own connection; wall-clock overall."""
    result = LoadResult()
    total = sum(len(queries) for queries in schedule)

    def client(queries: list[str]) -> None:
        mine: list[float] = []
        try:
            with ServiceClient(port=port, timeout=300.0) as c:
                for q in queries:
                    start = time.perf_counter()
                    c.query(q, timeout=300.0)
                    mine.append(time.perf_counter() - start)
                    with result.lock:
                        result.done += 1
                        done = result.done
                    if on_progress is not None:
                        on_progress(done, total)
        except Exception as exc:  # any client-visible failure is a finding
            result.errors.append(repr(exc))
        with result.lock:
            result.latencies.extend(mine)

    threads = [threading.Thread(target=client, args=(qs,)) for qs in schedule]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start, result


def prime(port: int, concurrency: int = 6) -> None:
    """Warm every replica's caches: concurrent hits spread by least-inflight."""
    for k in range(1, N_VARIANTS + 1):
        query = f"t({k}, Z)"

        def hit() -> None:
            with ServiceClient(port=port, timeout=300.0) as c:
                c.query(query, timeout=300.0)

        threads = [threading.Thread(target=hit) for _ in range(concurrency)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


def single_server_reference(program, schedule) -> dict:
    shared = SharedSession(program)
    config = ServerConfig(
        max_concurrent=8, max_queue=4096, default_deadline=300.0
    )
    with ServerThread(shared, config) as port:
        prime(port, concurrency=2)
        wall, result = drive_load(port, schedule)
    if result.errors:
        raise RuntimeError(f"single-server reference failed: {result.errors[0]}")
    return summarize("single server", wall, result)


def replicated_chaos_load(program, schedule, replicas: int = 3) -> tuple[dict, dict]:
    total = sum(len(queries) for queries in schedule)
    kill_at = max(1, int(total * KILL_AT_FRACTION))
    thread = ReplicaSetThread(
        program,
        config=ReplicaSetConfig(
            replicas=replicas,
            read_timeout=300.0,
            health_interval=0.05,
            probe_interval=0.2,
        ),
        replica_config=ReplicaConfig(
            max_concurrent=8, max_queue=4096, default_deadline=300.0
        ),
    )
    killed = threading.Event()

    def on_progress(done: int, _total: int) -> None:
        if done >= kill_at and not killed.is_set():
            killed.set()  # exactly one killer; losers of the race no-op
            victim = thread.replica_set._replicas[1]
            print(
                f"  ... SIGKILL {victim.name} (pid {victim.process.pid}) "
                f"after {done}/{total} requests"
            )
            os.kill(victim.process.pid, signal.SIGKILL)

    port = thread.start(timeout=300.0)
    try:
        prime(port)
        wall, result = drive_load(port, schedule, on_progress)
        with ServiceClient(port=port, timeout=60.0) as c:
            # Let the victim finish restart + resync before the snapshot.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                stats = c.stats()["replication"]
                if stats["healthy"] == replicas and all(
                    snap["applied_seq"] == stats["seq"]
                    for snap in stats["replicas"].values()
                ):
                    break
                time.sleep(0.2)
    finally:
        thread.stop(timeout=120.0)
    assert killed.is_set(), "the run finished before the kill threshold"
    return summarize(f"{replicas}-replica set + SIGKILL", wall, result), stats


def summarize(label: str, wall: float, result: LoadResult) -> dict:
    quantiles = statistics.quantiles(result.latencies, n=100)
    return {
        "label": label,
        "requests": len(result.latencies),
        "errors": len(result.errors),
        "error_samples": result.errors[:3],
        "wall": wall,
        "qps": len(result.latencies) / wall,
        "p50": quantiles[49],
        "p99": quantiles[98],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller tree and fewer clients (CI-sized); headline bars relaxed",
    )
    args = parser.parse_args(argv)
    branch, clients, per_client = (7, 24, 5) if args.quick else (27, 100, 8)

    program, expected, n_facts = tc_bushy_workload(branch, 3)
    schedule = zipf_schedule(clients, per_client)
    total = sum(len(queries) for queries in schedule)
    print(
        f"workload: {n_facts}-fact bushy TC; {clients} clients x {per_client} "
        f"requests, zipf over {N_VARIANTS} variants"
    )

    single = single_server_reference(program, schedule)
    replicated, stats = replicated_chaos_load(program, schedule)
    base_qps, base_p99 = PR5_QPS, PR5_P99

    emit_table(
        f"zipf read load, {clients} clients, {total} requests",
        ["architecture", "qps", "p50 ms", "p99 ms", "errors"],
        [
            ("PR5 warm mixed load (committed)", f"{base_qps:.1f}", "-", f"{base_p99 * 1e3:.0f}", "-"),
            (
                single["label"],
                f"{single['qps']:.1f}",
                f"{single['p50'] * 1e3:.1f}",
                f"{single['p99'] * 1e3:.1f}",
                single["errors"],
            ),
            (
                replicated["label"],
                f"{replicated['qps']:.1f}",
                f"{replicated['p50'] * 1e3:.1f}",
                f"{replicated['p99'] * 1e3:.1f}",
                replicated["errors"],
            ),
        ],
    )
    emit_table(
        "replica set during the run",
        ["metric", "value"],
        [
            ("healthy at end", f"{stats['healthy']}/{len(stats['replicas'])}"),
            ("restarts", stats["restarts"]),
            ("resyncs", stats["resyncs"]),
            ("failovers", stats["failovers"]),
            ("breaker trips", stats["breaker_trips"]),
            ("vs PR5 qps", f"{replicated['qps'] / base_qps:.1f}x"),
        ],
    )
    for phase, record in (("single_server_reference", single), ("replicated_chaos_load", replicated)):
        emit_json(
            {
                "bench": phase,
                "workload": f"tc-bushy-{n_facts}",
                "runtime": "service",
                "knobs": {
                    "clients": clients,
                    "per_client": per_client,
                    "variants": N_VARIANTS,
                    "replicas": 3 if phase == "replicated_chaos_load" else 1,
                    "sigkill_mid_run": phase == "replicated_chaos_load",
                    "quick": args.quick,
                },
                "seconds": round(record["wall"], 4),
                "requests": record["requests"],
                "client_errors": record["errors"],
                "throughput_qps": round(record["qps"], 2),
                "p50_seconds": round(record["p50"], 5),
                "p99_seconds": round(record["p99"], 5),
                "baseline_pr5_qps": base_qps,
                "baseline_pr5_p99_seconds": base_p99,
                **(
                    {
                        "replica_restarts": stats["restarts"],
                        "replica_resyncs": stats["resyncs"],
                        "healthy_at_end": stats["healthy"],
                    }
                    if phase == "replicated_chaos_load"
                    else {}
                ),
            },
            path=BENCH_PR9_JSON_PATH,
        )

    # Acceptance: chaos is invisible, and (full runs) the headline holds.
    failures = []
    if replicated["errors"]:
        failures.append(
            f"{replicated['errors']} client-visible errors, e.g. "
            f"{replicated['error_samples']}"
        )
    if stats["restarts"] < 1:
        failures.append("the SIGKILLed replica was never restarted")
    if stats["healthy"] < len(stats["replicas"]):
        failures.append(
            f"only {stats['healthy']}/{len(stats['replicas'])} replicas healthy at end"
        )
    if not args.quick:
        if replicated["qps"] < 2.0 * base_qps:
            failures.append(
                f"replicated qps {replicated['qps']:.1f} < 2x PR5 baseline {base_qps}"
            )
        if replicated["p99"] > base_p99:
            failures.append(
                f"replicated p99 {replicated['p99']:.3f}s worse than PR5 {base_p99}s"
            )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print(
        f"ok: {replicated['qps']:.1f} qps ({replicated['qps'] / base_qps:.1f}x PR5) "
        f"at p99 {replicated['p99'] * 1e3:.0f} ms with a mid-run SIGKILL, "
        f"{replicated['errors']} client errors, victim restarted and readmitted"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
