"""cluster_repeat: one caller repeating a query through the TCP shard runtime.

``Session(runtime="cluster", workers=2)`` over a private loopback harness
(manager thread + two spawned workers), one caller repeating the tc_bushy
query.  ``cluster`` and ``runtime`` do most of the work here — job-spec
pickling, engine rebuild on every worker, framing, relay — and ``service``
none.  The traced run puts ``Session(runtime="pool", workers=2)`` beside it
on the same queries, so a cluster gain cannot quietly cost the pool.

The KB is tc_bushy at BENCH_PR10's size (14-ary depth 3, 2,954 facts): at
20,439 facts one cluster query takes 1.3 s on two cores, which leaves fewer
than ten samples in a run.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.cluster import ClusterHarness, evaluate_cluster
from repro.cluster.framing import (
    HEADER_SIZE,
    FrameType,
    decode_batch,
    encode_batch,
    encode_frame,
)
from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.core.sips import greedy_sip
from repro.network.engine import evaluate
from repro.network.messages import MessageBatch, TupleSet
from repro.relational.database import Database
from repro.runtime import evaluate_pool
from repro.session import Session

from .. import inputs, procs
from ..common import Config, Result, Section, measure, record_setups
from ..stats import Measured
from ..tracing import Tracer

NAME = "cluster_repeat"
WORKERS = 2
CLUSTER_OPS_PER_S = 8  # nominal
POOL_OPS_PER_S = 12  # nominal


def _simulator_tuple_rows(program) -> int:
    """The in-process runtime's logical tuple rows (the cluster must match)."""
    sim = evaluate(program, package_requests=True)
    return sim.stats.by_kind.get("TupleMessage", 0) + sim.stats.tuple_set_rows


def _step(run, entry, sim_rows, tracer=Tracer(False), span="", results=None):
    """One query through ``run()`` (returns a result with ``.answers``)."""

    def step() -> list:
        start = time.perf_counter()
        try:
            with tracer.span(span):
                last = run()
            if results is not None:
                results.append(last)
            ok = last.answers == entry.expected and (
                sim_rows is None or last.logical_tuple_rows == sim_rows
            )
        except Exception:
            ok = False
        return [(time.perf_counter() - start, ok)]

    return step


def _session_run(session: Session, query: str):
    def run():
        session.query(query)
        return session.last_result

    return run


def _setup(entry, text: str):
    """Harness up with workers registered, KB parsed, one warm-up query."""
    start = time.perf_counter()
    harness = ClusterHarness(workers=WORKERS).start()
    try:
        session = Session(
            parse_program(text),
            package_requests=True,
            runtime="cluster",
            workers=WORKERS,
            cluster_address=harness.address,
        )
        ok = session.query(entry.query) == entry.expected
    except BaseException:
        harness.stop()
        raise
    return harness, session, ok, time.perf_counter() - start


def _teardown(harness, session) -> float:
    """Stop the harness; returns the workers' summed peak RSS (MiB)."""
    rss = sum(procs.peak_rss_mb(p.pid) for p in harness.processes if p.pid)
    session.close()
    harness.stop()
    return rss


def run_e2e(cfg: Config) -> Result:
    result = Result()
    entry = inputs.cluster_entry(cfg.seed, cfg.scale)
    text = entry.text
    sim_rows = _simulator_tuple_rows(Session(text).program_for(entry.query))
    setup_times = []
    harness = None
    for _ in range(cfg.cheap_setups):
        if harness is not None:
            _teardown(harness, session)
        harness, session, ok, seconds = _setup(entry, text)
        result.count(ok, "warm-up cluster answer mismatch")
        setup_times.append(seconds)
    record_setups(result, setup_times)
    try:
        run = _session_run(session, entry.query)
        measure(result, [_step(run, entry, sim_rows)], cfg, CLUSTER_OPS_PER_S)
    finally:
        worker_rss = _teardown(harness, session)
    result.metrics["peak_rss_mb"] = Measured.single(procs.self_peak_rss_mb() + worker_rss)

    # The comparator: the same query through the forked pool, a third of the
    # window, so that a cluster gain that costs the pool shows in the same run.
    pool = Result()
    with Session(parse_program(text), package_requests=True, runtime="pool", workers=WORKERS) as session:
        pool_run = _session_run(session, entry.query)
        pool.count(pool_run().answers == entry.expected, "warm-up pool answer mismatch")
        third = Config(cfg.seed, cfg.seconds / 3, cfg.scale, rounds=cfg.rounds)
        measure(pool, [_step(pool_run, entry, None)], third, POOL_OPS_PER_S)
    result.metrics["pool_ops_per_s"] = pool.metrics["ops_per_s"]
    return result.absorb(pool)


# ----------------------------------------------------------------------
def run_layers(cfg: Config, tracer: Tracer, budget_s: float) -> Section:
    """runtime.pool and cluster numbers; the pool runs first (it forks)."""
    entry = inputs.cluster_entry(cfg.seed, cfg.scale)
    program = parse_program(entry.text)
    # What Session hands the runtimes: the query's program, its cached
    # rule/goal graph and the shared database.
    query_program = Session(program).program_for(entry.query)
    sim_rows = _simulator_tuple_rows(query_program)
    shared = dict(
        workers=WORKERS,
        package_requests=True,
        graph=build_rule_goal_graph(query_program, greedy_sip),
        database=Database.from_facts(program.facts),
    )
    phase = Config(cfg.seed, budget_s * 0.3, cfg.scale, rounds=1)

    def pool_run():
        return evaluate_pool(query_program, **shared)

    pool, pool_results = Result(), []
    with tracer.span("runtime.pool.first_query"):
        pool.count(pool_run().answers == entry.expected, "first pool answer mismatch")
    pool_step = _step(pool_run, entry, None, tracer, "runtime.evaluate_pool", pool_results)
    measure(pool, [pool_step], phase, POOL_OPS_PER_S)

    with tracer.span("cluster.ClusterHarness.start"):
        harness = ClusterHarness(workers=WORKERS).start()
    session = Session(
        program, package_requests=True, runtime="cluster", workers=WORKERS,
        cluster_address=harness.address,
    )
    spec_bytes = []
    plain, traced, cluster_results = Result(), Result(), []
    try:
        client = harness.client()
        submit = client.submit

        def counting_submit(header, blob, timeout):
            spec_bytes.append(len(blob))
            return submit(header, blob, timeout)

        client.submit = counting_submit

        def cluster_run():
            return evaluate_cluster(query_program, client=client, **shared)

        # Untraced: the real op (Session.query).  Traced: the call Session
        # makes into the cluster layer, with the job spec size recorded.
        run = _session_run(session, entry.query)
        measure(plain, [_step(run, entry, sim_rows)], phase, CLUSTER_OPS_PER_S)
        cluster_step = _step(
            cluster_run, entry, sim_rows, tracer, "cluster.evaluate_cluster", cluster_results
        )
        # bytes_on_wire is cumulative: one query first, to difference against.
        traced.count(cluster_step()[0][1], "first traced cluster answer mismatch")
        measure(traced, [cluster_step], phase, CLUSTER_OPS_PER_S)
    finally:
        _teardown(harness, session)

    # Framing cost of one cross-shard batch of the default size (64 rows).
    batch = MessageBatch(0, (TupleSet(1, 2, frozenset((i, i + 1) for i in range(64))),))
    for _ in range(300):
        with tracer.span("cluster.framing.encode_batch"):
            frame = encode_frame(
                FrameType.BATCH, json.dumps(encode_batch(batch), separators=(",", ":")).encode()
            )
        with tracer.span("cluster.framing.decode_batch"):
            decode_batch(json.loads(frame[HEADER_SIZE:]))

    wire = [r.bytes_on_wire for r in cluster_results]  # cumulative per worker link
    rtts = [
        t["heartbeat_rtt_ms"]
        for t in cluster_results[-1].transport.values()
        if t.get("heartbeat_rtt_ms") is not None
    ]
    last_pool, last_cluster = pool_results[-1], cluster_results[-1]
    pool_ops = pool.metrics["ops_per_s"].value
    values = {
        "cluster_repeat.op_p90_ms": plain.metrics["op_p90_ms"].value,
        "cluster_repeat.pool_ops_per_s": pool_ops,
        "runtime.pool.first_query_s": tracer.total("runtime.pool.first_query"),
        "runtime.pool.query_ms": tracer.median("runtime.evaluate_pool") * 1e3,
        "runtime.pool.cross_batches": last_pool.cross_batches,
        "runtime.pool.batching_factor": last_pool.batching_factor,
        "runtime.pool.attempts": statistics.fmean(r.attempts for r in pool_results),
        "cluster.harness_start_s": tracer.total("cluster.ClusterHarness.start"),
        "cluster.query_ms": tracer.median("cluster.evaluate_cluster") * 1e3,
        "cluster.job_spec_bytes": statistics.median(spec_bytes),
        "cluster.wire_bytes_per_query": (wire[-1] - wire[0]) / (len(wire) - 1),
        "cluster.cross_batches": last_cluster.cross_batches,
        "cluster.batching_factor": last_cluster.batching_factor,
        "cluster.framing.encode_us_per_batch": tracer.median("cluster.framing.encode_batch") * 1e6,
        "cluster.framing.decode_us_per_batch": tracer.median("cluster.framing.decode_batch") * 1e6,
        "cluster.heartbeat_rtt_ms": statistics.fmean(rtts),  # no sample fails the run
        "cluster.attempts": statistics.fmean(r.attempts for r in cluster_results),
        "cluster.logical_tuple_rows": last_cluster.logical_tuple_rows,
        "cluster.vs_pool_ratio": traced.metrics["ops_per_s"].value / pool_ops,
    }
    return Section(
        values,
        traced.absorb(pool, plain),
        coverage=tracer.median("cluster.evaluate_cluster") * plain.metrics["ops_per_s"].value,
        overhead=traced.metrics["ops_per_s"].value / plain.metrics["ops_per_s"].value,
    )
