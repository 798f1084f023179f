"""CI cluster smoke: 20k-fact TC over localhost TCP, with a mid-run SIGKILL.

The acceptance scenario for the multi-host shard runtime, end to end:

1. boot a 2-worker localhost :class:`~repro.cluster.harness.ClusterHarness`
   (manager thread + spawned worker processes over loopback TCP — every
   wire byte, handshake, and heartbeat is the real deployment path);
2. evaluate a ≥20k-fact bushy transitive closure and assert the answers
   are byte-identical to the in-process simulator's **and** the logical
   tuple-row total matches exactly (per-stream dedup makes that slice of
   the accounting runtime-invariant);
3. repeat the query and assert the warm path: zero job-spec bytes shipped,
   a plan and an edb cache hit on both workers, the same answers and the
   same logical tuple-row total;
4. re-run the query while a timer SIGKILLs one worker mid-flight, and
   assert the supervised whole-query retry masks the loss: same answers,
   zero caller-visible errors, a crash verdict in the failure log.

Each phase prints one JSON record line.  Exits non-zero on any failed
check.  Usage::

    PYTHONPATH=src python benchmarks/cluster_smoke.py
"""

from __future__ import annotations

import json
import sys
import threading
import time

from repro.cluster import ClusterHarness, evaluate_cluster
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import evaluate
from repro.relational.database import Database
from repro.runtime.faults import FaultPlan
from repro.workloads import facts_from_tables, left_recursive_tc_program


def print_record(record: dict) -> None:
    """Print one phase's machine-readable record as a JSON line."""
    print(json.dumps(record, sort_keys=True))


def tc_20k_workload():
    """≥20k-fact TC whose reachable part is a bushy binary tree.

    Same shape as ``bench_runtimes.tc_20k_workload``: a complete binary
    tree (2047 nodes) keeps many tuple requests in flight so cross-shard
    batches fill; ~18k disjoint noise edges are real facts the EDB shards
    must index and skip.
    """
    tree = [(i, 2 * i + 1) for i in range(1023)] + [
        (i, 2 * i + 2) for i in range(1023)
    ]
    noise = [(100_000 + 2 * i, 100_001 + 2 * i) for i in range(18_000)]
    program = left_recursive_tc_program(0).with_facts(
        facts_from_tables({"e": tree + noise})
    )
    expected = {(i,) for i in range(1, 2047)}
    return program, expected, len(tree) + len(noise)


def check(condition: bool, label: str, failures: list) -> None:
    print(f"  {'ok ' if condition else 'FAIL'} {label}")
    if not condition:
        failures.append(label)


def main() -> int:
    program, expected, n_facts = tc_20k_workload()
    failures: list = []

    print(f"workload: {n_facts}-fact transitive closure, "
          f"{len(expected)} expected answers")
    sim = evaluate(program)
    sim_rows = sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows
    check(sim.answers == expected, "simulator matches the oracle", failures)

    # What a Session hands the runtime: one live graph and one live
    # database, so the spec parts are memoised and a repeat ships nothing.
    shared = dict(
        graph=build_rule_goal_graph(program),
        database=Database.from_facts(program.facts),
    )

    with ClusterHarness(workers=2) as harness:
        client = harness.client()

        # -- Phase 1: clean run — answers and logical accounting parity.
        start = time.perf_counter()
        clean = evaluate_cluster(program, client=client, timeout=300, **shared)
        t_clean = time.perf_counter() - start
        print(f"phase 1: clean cluster run in {t_clean:.2f}s "
              f"({clean.bytes_on_wire} wire bytes, "
              f"{clean.cross_batches} cross-shard batches)")
        check(clean.answers == expected, "cluster answers byte-identical", failures)
        check(
            clean.logical_tuple_rows == sim_rows,
            f"logical tuple rows match exactly "
            f"({clean.logical_tuple_rows} == {sim_rows})",
            failures,
        )
        check(clean.workers == 2, "both workers served the job", failures)
        print_record(
            {
                "bench": "cluster_smoke",
                "workload": f"tc-binary-{n_facts}",
                "runtime": "cluster",
                "phase": "clean",
                "seconds": round(t_clean, 4),
                "logical_tuple_rows": clean.logical_tuple_rows,
                "wire_bytes": clean.bytes_on_wire,
                "answers": len(clean.answers),
            },
        )

        # -- Phase 2: the same query again — nothing to ship, all resident.
        start = time.perf_counter()
        warm = evaluate_cluster(program, client=client, timeout=300, **shared)
        t_warm = time.perf_counter() - start
        hits = [shard["spec"] for shard in warm.shards.values()]
        print(f"phase 2: warm repeat in {t_warm:.2f}s "
              f"(cold shipped {clean.spec_bytes_shipped} spec bytes, "
              f"warm shipped {warm.spec_bytes_shipped})")
        check(clean.spec_bytes_shipped > 0, "cold run shipped both parts", failures)
        check(
            warm.spec_bytes_shipped == 0,
            "warm repeat shipped zero spec bytes",
            failures,
        )
        check(
            len(hits) == 2 and all(h["plan_hit"] and h["edb_hit"] for h in hits),
            "both workers served the repeat from resident parts",
            failures,
        )
        check(
            warm.answers == expected and warm.logical_tuple_rows == sim_rows,
            "warm answers and logical tuple rows unchanged",
            failures,
        )
        print_record(
            {
                "bench": "cluster_smoke",
                "workload": f"tc-binary-{n_facts}",
                "runtime": "cluster",
                "phase": "warm-repeat",
                "seconds": round(t_warm, 4),
                "spec_bytes_cold": clean.spec_bytes_shipped,
                "spec_bytes_warm": warm.spec_bytes_shipped,
                "logical_tuple_rows": warm.logical_tuple_rows,
            },
        )

        # -- Phase 3: SIGKILL one worker mid-query; retry must mask it.
        # A warm query finishes in ~0.1 s, too fast for a timer to land
        # inside it, so the first attempt runs over a slow hop (50 ms per
        # batch on one link) that holds it open well past the kill.
        kill_delay = 0.3
        slow_first_attempt = FaultPlan(
            delay_link="0->1", delay_link_seconds=0.05, only_attempt=1
        )
        killer = threading.Timer(kill_delay, harness.kill_worker, args=(1,))
        killer.start()
        start = time.perf_counter()
        try:
            survived = evaluate_cluster(
                program,
                client=client,
                retry=3,
                timeout=300,
                fault_plan=slow_first_attempt,
                **shared,
            )
        finally:
            killer.cancel()
        t_survived = time.perf_counter() - start
        print(f"phase 3: SIGKILL at {kill_delay:.2f}s, query finished in "
              f"{t_survived:.2f}s after {survived.attempts} attempt(s)")
        check(
            survived.answers == expected,
            "answers identical after the mid-run SIGKILL",
            failures,
        )
        check(
            survived.attempts >= 2,
            "worker loss drew a supervised retry "
            f"(attempts={survived.attempts})",
            failures,
        )
        check(
            any("WorkerCrashError" in line for line in survived.failure_log),
            "failure log records the crash verdict",
            failures,
        )
        check(not survived.degraded, "no fallback needed", failures)
        print_record(
            {
                "bench": "cluster_smoke",
                "workload": f"tc-binary-{n_facts}",
                "runtime": "cluster",
                "phase": "worker-sigkill",
                "seconds": round(t_survived, 4),
                "attempts": survived.attempts,
                "answers": len(survived.answers),
            },
        )

    if failures:
        print(f"CLUSTER SMOKE FAILURES: {failures}", file=sys.stderr)
        return 1
    print("cluster smoke ok: parity, exact logical accounting, warm repeat "
          "and SIGKILL-survival all hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
