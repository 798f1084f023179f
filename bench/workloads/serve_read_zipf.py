"""serve_read_zipf: the query service under a larger-than-cache read mix.

``python -m repro serve <kb> --port 0 --package`` runs as a subprocess on
the tc_bushy KB.  Two closed-loop ``ServiceClient`` connections each issue
``t(k,Z)`` with k drawn zipf(1.1) over 2,000 node ids — about eight times
the 256-entry answer cache, about three quarters hits.  The median op is
the ``service`` hit path (protocol, answer cache, event loop); the tail op
is a small cold evaluation dominated by ``session``/``network`` per-query
fixed cost, not by kernels.
"""

from __future__ import annotations

import itertools
import json
import os
import time

from repro.service import AnswerCache, ServiceClient, SharedSession
from repro.service.protocol import decode_request, encode, rows_to_wire, wire_to_rows

from .. import inputs, procs
from ..common import (
    Config,
    Result,
    Section,
    closed_loop,
    measure,
    record_setups,
    stat_delta,
    timed_op,
)
from ..stats import Measured, percentile
from ..tracing import Tracer

NAME = "serve_read_zipf"
CLIENTS = 2
OPS_PER_S = 600  # nominal, per client
WARM_OPS = 400  # untimed ops per client before the window: the answer cache fills
STREAM = 60_000  # keys pre-drawn per client; the stream wraps if exhausted
EMPTY = frozenset()


def write_kb(text: str, tag: str) -> str:
    os.makedirs(procs.OUT_DIR, exist_ok=True)
    path = os.path.join(procs.OUT_DIR, f"{tag}.dl")
    with open(path, "w") as handle:
        handle.write(text)
    return path


def boot(kb_path: str, *flags: str, tag: str = NAME):
    """Start a server and wait for its first ``ping``; (server, client, seconds)."""
    server = procs.Server(kb_path, "--package", *flags, tag=tag)
    client = ServiceClient(port=server.wait_port(), retries=0)
    client.ping()
    return server, client, time.perf_counter() - server.started


def _client_step(port: int, keys: list, expected: dict, tracer: Tracer):
    """One connection's step over its key stream (wraps if exhausted)."""
    client = ServiceClient(port=port, retries=0)
    stream = itertools.cycle(keys)

    def op() -> bool:
        key = next(stream)
        with tracer.span("service.ServiceClient.query"):
            reply = client.query(f"t({key},Z)")
        if tracer.enabled:
            # What the client spent turning the reply line back into rows.
            line = encode(reply.raw)
            with tracer.span("service.client.decode"):
                wire_to_rows(json.loads(line).get("answers"))
        return reply.answers == expected.get(key, EMPTY)

    return (lambda: timed_op(op)), client


def _open_clients(port: int, streams: list, expected: dict, tracer: Tracer):
    """One closed-loop client per key stream; (steps, clients to close)."""
    pairs = [_client_step(port, keys, expected, tracer) for keys in streams]
    return [step for step, _ in pairs], [client for _, client in pairs]


def run_e2e(cfg: Config) -> Result:
    result = Result()
    data = inputs.serve_inputs(cfg.seed, cfg.scale)
    expected = inputs.descendants_by_node(data.edges)
    kb_path = write_kb(data.entry.text, NAME)
    setup_times = []
    server = None
    for _ in range(cfg.cheap_setups):
        if server is not None:
            server.kill()
        server, probe, seconds = boot(kb_path)
        probe.close()
        setup_times.append(seconds)
    record_setups(result, setup_times)
    streams = [data.key_stream(i, STREAM) for i in range(CLIENTS)]
    steps, clients = _open_clients(server.port, streams, expected, Tracer(enabled=False))
    try:
        warm, _ = closed_loop(steps, 1, WARM_OPS, cfg.seconds)
        for _, ok in warm[0]:
            result.count(ok, "warm-up answer wrong")
        latencies = measure(result, steps, cfg, OPS_PER_S)
    finally:
        for client in clients:
            client.close()
        server.kill()
    result.metrics["op_p99_ms"] = Measured.of_rounds(
        (percentile(r, 0.99) * 1e3 for r in latencies), sum(map(len, latencies))
    )
    result.metrics["peak_rss_mb"] = Measured.single(server.peak_rss_mb)
    return result


# ----------------------------------------------------------------------
def _histogram_delta(after: dict, before: dict, name: str):
    """(sum, count) a server-side histogram gained between two snapshots."""
    path = ("metrics", "histograms", name)
    return stat_delta(after, before, *path, "sum"), stat_delta(after, before, *path, "count")


def run_layers(cfg: Config, tracer: Tracer, budget_s: float) -> Section:
    """service read-path numbers: spans, stats-op deltas, in-process replay."""
    data = inputs.serve_inputs(cfg.seed, cfg.scale)
    expected = inputs.descendants_by_node(data.edges)
    kb_path = write_kb(data.entry.text, NAME)
    server, control, _ = boot(kb_path)
    phase = Config(cfg.seed, budget_s * 0.4, cfg.scale, rounds=1)
    streams = [data.key_stream(i, STREAM) for i in range(CLIENTS)]
    half = STREAM // 2

    def run_phase(phase_tracer: Tracer, part: int):
        parts = [keys[part * half : (part + 1) * half] for keys in streams]
        steps, clients = _open_clients(server.port, parts, expected, phase_tracer)
        res = Result()
        try:
            return res, measure(res, steps, phase, OPS_PER_S)
        finally:
            for client in clients:
                client.close()

    try:
        # Untraced then traced halves of the same key streams; server-side
        # counts are stats-op deltas across the traced half.
        plain, plain_latencies = run_phase(Tracer(False), 0)
        before = control.stats()
        started = time.perf_counter()
        traced, _ = run_phase(tracer, 1)
        wall = time.perf_counter() - started
        after = control.stats()
        for _ in range(200):
            with tracer.span("service.ServiceClient.ping"):
                control.ping()
    finally:
        control.close()
        server.kill()
    p99 = percentile(plain_latencies[0], 0.99) * 1e3

    hits = stat_delta(after, before, "session", "answer_cache", "hits")
    misses = stat_delta(after, before, "session", "answer_cache", "misses")
    eval_sum, eval_count = _histogram_delta(after, before, "evaluation_seconds")
    wait_sum, wait_count = _histogram_delta(after, before, "queue_wait_seconds")

    # The same requests replayed in-process, layer by layer in the order the
    # server handles them: decode -> SharedSession -> encode.
    shared = SharedSession(data.entry.text, package_requests=True)
    cache = AnswerCache(256)
    sample = streams[0][: 400 if cfg.scale == "full" else 60]
    for index, key in enumerate(sample):
        query = f"t({key},Z)"
        line = encode({"id": index, "op": "query", "query": query})
        with tracer.span("replay.request", op=f"{NAME}:{index}"):
            with tracer.span("service.protocol.decode_request"):
                request = decode_request(line)
            with tracer.span("service.SharedSession.query") as span:
                outcome = shared.query_detailed(request["query"])
                span["hit"] = outcome.answer_cached
            with tracer.span("service.protocol.encode", rows=len(outcome.answers)):
                encode({"id": index, "ok": True, "answers": rows_to_wire(outcome.answers)})
        cache_key = shared.session.cache_key_for(query)
        with tracer.span("service.AnswerCache.put"):
            cache.put(cache_key, 0, outcome.answers)
        with tracer.span("service.AnswerCache.get"):
            cache.get(cache_key, 0)
    encodes = [s for s in tracer.spans if s["name"] == "service.protocol.encode" and s["rows"]]
    layer_s = sum(
        tracer.total(n)
        for n in ("service.protocol.decode_request", "service.SharedSession.query",
                  "service.protocol.encode")
    ) / len(sample)
    values = {
        "serve_read_zipf.op_p90_ms": plain.metrics["op_p90_ms"].value,
        "serve_read_zipf.op_p99_ms": p99,
        "service.client.ping_rtt_us": tracer.median("service.ServiceClient.ping") * 1e6,
        "service.client.decode_share": tracer.total("service.client.decode")
        / tracer.total("service.ServiceClient.query"),
        "service.protocol.decode_us": tracer.median("service.protocol.decode_request") * 1e6,
        "service.protocol.encode_us_per_row": sum(s["end"] - s["start"] for s in encodes)
        / sum(s["rows"] for s in encodes) * 1e6,
        "service.shared_session.hit_ms": tracer.median("service.SharedSession.query", hit=True) * 1e3,
        "service.shared_session.miss_ms": tracer.median("service.SharedSession.query", hit=False) * 1e3,
        "service.answer_cache.get_us": tracer.median("service.AnswerCache.get") * 1e6,
        "service.answer_cache.hit_ratio": hits / (hits + misses),
        "service.answer_cache.evictions": stat_delta(
            after, before, "session", "answer_cache", "evictions"
        ),
        "service.shared_session.coalesced_joins": stat_delta(
            after, before, "session", "coalesced_joins"
        ),
        "service.server.eval_ms_mean": eval_sum / eval_count * 1e3,
        "service.server.eval_busy_ratio": eval_sum / wall,
        "service.server.queue_wait_ms_mean": wait_sum / wait_count * 1e3,
        "service.server.rejections": stat_delta(
            after, before, "metrics", "counters", "server_rejections_total"
        ),
    }
    return Section(
        values,
        traced.absorb(plain),
        coverage=layer_s * plain.metrics["ops_per_s"].value / CLIENTS,
        overhead=traced.metrics["ops_per_s"].value / plain.metrics["ops_per_s"].value,
    )
