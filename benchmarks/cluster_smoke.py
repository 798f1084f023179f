"""CI cluster smoke: 20k-fact TC over localhost TCP, with a mid-run SIGKILL.

The acceptance scenario for the multi-host shard runtime, end to end:

1. boot a 2-worker localhost :class:`~repro.cluster.harness.ClusterHarness`
   (manager thread + spawned worker processes over loopback TCP — every
   wire byte, handshake, and heartbeat is the real deployment path);
2. evaluate a ≥20k-fact bushy transitive closure and assert the answers
   are byte-identical to the in-process simulator's **and** the logical
   tuple-row total matches exactly (per-stream dedup makes that slice of
   the accounting runtime-invariant); the query is one strong component,
   so the default placement puts every node on one shard and no batch
   crosses between the workers;
3. repeat the query and assert the warm path: zero job-spec bytes shipped,
   a plan and an edb cache hit on both workers, the same answers and the
   same logical tuple-row total;
4. evaluate a TC whose constants are ints, strings and floats (plus one
   tuple constant, which takes the tagged-cell fallback): answer and row
   columns mix types, so this puts the non-int column-block paths, and
   rows that cannot be sorted, over real TCP; the answers must equal the
   simulator's value for value and type for type, and the logical
   tuple-row total must match exactly;
5. spread the 20k query's EDB replicas over both workers
   (``edb_shards=2``), so batches cross the ``0->1`` link, and check a
   clean run of that placement; then re-run it while a timer SIGKILLs one
   worker mid-flight, and assert the supervised whole-query retry masks
   the loss: same answers, zero caller-visible errors, a crash verdict in
   the failure log.

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


def typed_tc_workload():
    """TC over a 1,023-node binary tree whose node constants mix types.

    Node ``i`` is the int ``i``, the string ``"n<i>"`` or the float
    ``i + 0.5`` by ``i % 3``, and one extra leaf is the tuple ``("leaf",
    7)``.  Row and answer columns mix types, which no row order can sort;
    the answer column also carries the tuple, so it takes the tagged-cell
    fallback.
    """

    def node(i: int):
        return (i, f"n{i}", i + 0.5)[i % 3]

    edges = [(node(i), node(2 * i + c)) for i in range(511) for c in (1, 2)]
    edges.append((node(1), ("leaf", 7)))
    program = left_recursive_tc_program(node(0)).with_facts(
        facts_from_tables({"e": edges})
    )
    expected = {(node(i),) for i in range(1, 1023)} | {(("leaf", 7),)}
    return program, expected


def typed(answers) -> list:
    """Answers as sorted ``repr`` strings: equal only if types match too."""
    return sorted(map(repr, answers))


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
        check(
            clean.cross_batches == 0,
            "one-component query sent nothing between workers",
            failures,
        )
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

        # -- Phase 3: typed constants — mixed-type columns over TCP.
        typed_program, typed_expected = typed_tc_workload()
        typed_sim = evaluate(typed_program)
        typed_rows = (
            typed_sim.stats.by_kind.get("TupleMessage", 0)
            + typed_sim.stats.tuple_set_rows
        )
        check(
            typed(typed_sim.answers) == typed(typed_expected),
            "typed-constant simulator matches the oracle",
            failures,
        )
        start = time.perf_counter()
        mixed = evaluate_cluster(typed_program, client=client, timeout=300)
        t_mixed = time.perf_counter() - start
        print(f"phase 3: typed-constant run in {t_mixed:.2f}s "
              f"({mixed.cross_batches} cross-shard batches)")
        check(
            typed(mixed.answers) == typed(typed_sim.answers),
            "typed-constant answers identical in value and type",
            failures,
        )
        check(
            mixed.logical_tuple_rows == typed_rows,
            f"typed-constant logical tuple rows match exactly "
            f"({mixed.logical_tuple_rows} == {typed_rows})",
            failures,
        )
        check(mixed.attempts == 1, "typed-constant run needed no retry", failures)
        print_record(
            {
                "bench": "cluster_smoke",
                "workload": "tc-binary-typed-1023",
                "runtime": "cluster",
                "phase": "typed-constants",
                "seconds": round(t_mixed, 4),
                "logical_tuple_rows": mixed.logical_tuple_rows,
                "answers": len(mixed.answers),
            },
        )

        # -- Phase 4: SIGKILL one worker mid-query; retry must mask it.
        # The default placement keeps this query on one shard, so spread
        # its EDB replicas to put traffic on the 0->1 link, and check a
        # clean run of that placement first (it also ships its plan part).
        spread = dict(shared, edb_shards=2)
        start = time.perf_counter()
        spread_clean = evaluate_cluster(program, client=client, timeout=300, **spread)
        t_spread = time.perf_counter() - start
        print(f"phase 4: clean spread run (edb_shards=2) in {t_spread:.2f}s "
              f"({spread_clean.cross_batches} cross-shard batches)")
        check(
            spread_clean.cross_batches > 0,
            "spread placement sends batches between workers",
            failures,
        )
        check(
            spread_clean.answers == expected
            and spread_clean.logical_tuple_rows == sim_rows,
            "spread answers and logical tuple rows match",
            failures,
        )
        print_record(
            {
                "bench": "cluster_smoke",
                "workload": f"tc-binary-{n_facts}",
                "runtime": "cluster",
                "phase": "spread-clean",
                "seconds": round(t_spread, 4),
                "cross_batches": spread_clean.cross_batches,
                "logical_tuple_rows": spread_clean.logical_tuple_rows,
            },
        )
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
                **spread,
            )
        finally:
            killer.cancel()
        t_survived = time.perf_counter() - start
        print(f"phase 4: SIGKILL at {kill_delay:.2f}s, query finished in "
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
    print("cluster smoke ok: parity, exact logical accounting, warm repeat, "
          "typed constants and SIGKILL-survival all hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
