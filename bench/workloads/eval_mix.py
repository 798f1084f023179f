"""eval_mix: in-process batch evaluation, closed loop, one caller.

An op is one ``Session.query`` of the next entry in a fixed six-entry
rotation against a warm session (graph cache and EDB indexes warm, no
answer cache).  ``network``/``relational``/``core`` do all the work and
``service``/``cluster`` none; the wide-batch entry (tc_bushy) and the
tiny-message entry (tc_nonlinear_chain) use the same kernels in opposite
ways.  Rounds end on whole pairs of rotation passes so every round has the
same mix and the same number of full collections.
"""

from __future__ import annotations

import gc
import itertools
import time

from repro.core.parser import parse_program
from repro.core.planner import CostPlanner
from repro.core.rulegoal import build_rule_goal_graph
from repro.core.sips import greedy_sip
from repro.network.engine import MessagePassingEngine
from repro.relational.database import Database
from repro.session import Session

from .. import inputs, procs
from ..common import Config, Result, Section, measure, record_setups
from ..stats import Measured
from ..tracing import Tracer

NAME = "eval_mix"
# The collector's full pass (about 0.45 s over six KBs' heaps) lands on every
# other rotation pass, 0.57 s against 1.05 s, so a step is a pair of passes.
PASSES_PER_STEP = 2
STEPS_PER_S = 0.62  # nominal: a pair of passes takes ~1.6 s


def _pass_step(entries, sessions, tracer: Tracer, passes: int = PASSES_PER_STEP):
    """Rotation passes as a step: one op per entry, each checked against the oracle."""

    def step() -> list:
        out = []
        for entry, session in itertools.islice(
            itertools.cycle(zip(entries, sessions)), passes * len(entries)
        ):
            start = time.perf_counter()
            try:
                with tracer.span("session.Session.query", entry=entry.name):
                    ok = session.query(entry.query) == entry.expected
            except Exception:
                ok = False
            out.append((time.perf_counter() - start, ok))
        return out

    return step


def run_e2e(cfg: Config) -> Result:
    result = Result()
    entries = inputs.eval_entries(cfg.seed, cfg.scale)
    texts = [entry.text for entry in entries]
    off = Tracer(enabled=False)
    setup_times = []
    sessions = None
    for _ in range(cfg.setups):
        # Drop the previous set-up for good (its graphs hold cycles) so that
        # peak RSS is one set of KBs, not however many the collector left.
        del sessions
        gc.collect()
        start = time.perf_counter()
        sessions = [
            Session(parse_program(text), package_requests=True, **entry.options)
            for entry, text in zip(entries, texts)
        ]
        warm = _pass_step(entries, sessions, off, passes=1)()
        setup_times.append(time.perf_counter() - start)
        for _, ok in warm:
            result.count(ok, "warm-up pass answer mismatch")
    record_setups(result, setup_times)
    measure(result, [_pass_step(entries, sessions, off)], cfg, STEPS_PER_S)
    result.metrics["peak_rss_mb"] = Measured.single(procs.self_peak_rss_mb())
    return result


# ----------------------------------------------------------------------
def run_layers(cfg: Config, tracer: Tracer, budget_s: float) -> Section:
    """core / relational / network / session numbers, from spans and counters."""
    entries = inputs.eval_entries(cfg.seed, cfg.scale)
    texts = [entry.text for entry in entries]
    sessions, graphs = [], {}
    for entry, text in zip(entries, texts):
        with tracer.span("core.parse_program", entry=entry.name):
            program = parse_program(text)
        with tracer.span("relational.Database.from_facts", entry=entry.name):
            Database.from_facts(program.facts)
        session = Session(program, package_requests=True, **entry.options)
        sessions.append(session)
        query_program = session.program_for(entry.query)
        for _ in range(3):
            sip = greedy_sip
            if entry.options.get("planner") == "cost":
                with tracer.span("core.CostPlanner.from_database"):
                    sip = CostPlanner.from_database(session.database).sip_factory()
            with tracer.span("core.build_rule_goal_graph", entry=entry.name):
                graphs[entry.name] = build_rule_goal_graph(query_program, sip)

    # Untraced, then traced, passes of the real op: the difference is the
    # tracing overhead; the graph-cache ratio is read across the traced part.
    phase = Config(cfg.seed, budget_s * 0.35, cfg.scale, rounds=1)
    plain = Result()
    plain_lat = measure(plain, [_pass_step(entries, sessions, Tracer(False))], phase, STEPS_PER_S)
    before = [s.cache_stats() for s in sessions]
    traced = Result()
    measure(traced, [_pass_step(entries, sessions, tracer)], phase, STEPS_PER_S)
    after = [s.cache_stats() for s in sessions]
    hits = sum(a.hits - b.hits for a, b in zip(after, before))
    misses = sum(a.misses - b.misses for a, b in zip(after, before))

    # The op replayed layer by layer, in the order Session._run_query calls
    # them: (cached graph) -> MessagePassingEngine(...) -> engine.run().
    first_pass = []
    deadline = time.perf_counter() + budget_s * 0.3
    op = 0
    while not first_pass or time.perf_counter() < deadline:
        results = []
        for entry, session in zip(entries, sessions):
            op += 1
            with tracer.span("replay.Session.query", op=f"{NAME}:{op}", entry=entry.name):
                graph = graphs[entry.name]
                with tracer.span("network.MessagePassingEngine", entry=entry.name):
                    engine = MessagePassingEngine(
                        graph.program,
                        package_requests=True,
                        database=session.database,
                        graph=graph,
                    )
                with tracer.span("network.engine.run", entry=entry.name):
                    results.append(engine.run())
        first_pass = first_pass or results

    def per_pass(name: str) -> float:
        """Seconds per rotation pass: per-entry span medians, summed."""
        return sum(tracer.median(name, entry=e.name) for e in entries)

    facts = sum(e.fact_count for e in entries)
    logical = sum(r.total_messages for r in first_pass)
    physical = sum(r.physical_messages for r in first_pass)
    protocol = sum(r.protocol_messages for r in first_pass)
    set_rows = sum(r.stats.tuple_set_rows for r in first_pass)
    stored = sum(r.tuples_stored for r in first_pass)
    envs = sum(r.envs_materialized for r in first_pass)
    lookups = sum(r.db_indexed_lookups for r in first_pass)
    retrieved = sum(r.db_rows_retrieved for r in first_pass)
    run_s = per_pass("network.engine.run")
    build_s = per_pass("network.MessagePassingEngine")
    query_s = per_pass("session.Session.query")
    plain_pass_s = sum(plain_lat[0]) / (len(plain_lat[0]) / len(entries))
    values = {
        "eval_mix.op_p90_ms": plain.metrics["op_p90_ms"].value,
        "core.parse_s": tracer.total("core.parse_program"),
        "core.parse_facts_per_s": facts / tracer.total("core.parse_program"),
        "core.graph_build_ms": per_pass("core.build_rule_goal_graph") * 1e3,
        "core.plan_ms": (
            tracer.median("core.CostPlanner.from_database")
            + tracer.median("core.build_rule_goal_graph", entry="skew_join_cost")
        )
        * 1e3,
        "relational.db_build_s": tracer.total("relational.Database.from_facts"),
        "relational.indexed_lookups": lookups,
        "relational.rows_retrieved": retrieved,
        "relational.scans": sum(r.db_scans for r in first_pass),
        "relational.rows_per_lookup": retrieved / lookups,
        "network.engine_build_ms": build_s * 1e3,
        "network.logical_msgs": logical,
        "network.physical_msgs": physical,
        "network.protocol_msgs": protocol,
        "network.protocol_rounds": sum(r.protocol_rounds for r in first_pass),
        "network.tuple_set_rows": set_rows,
        "network.probe_lookups": sum(r.probe_lookups for r in first_pass),
        "network.index_inserts": sum(r.index_inserts for r in first_pass),
        "network.envs_materialized": envs,
        "network.tuples_stored": stored,
        "network.rows_per_delivery": logical / physical,
        "network.protocol_share": protocol / logical,
        "network.fresh_row_ratio": (stored - envs) / set_rows,
        "network.us_per_logical_msg": run_s / logical * 1e6,
        "session.query_ms": query_s / len(entries) * 1e3,
        "session.overhead_ratio": 1.0 - (build_s + run_s) / query_s,
        "session.graph_cache_hit_ratio": hits / (hits + misses),
    }
    for entry, replayed in zip(entries, first_pass):
        values[f"network.run_ms.{entry.name}"] = (
            tracer.median("network.engine.run", entry=entry.name) * 1e3
        )
        traced.count(replayed.answers == entry.expected, f"replayed {entry.name} answer mismatch")
    return Section(
        values,
        traced.absorb(plain),
        coverage=tracer.total("replay.Session.query") / (op / len(entries)) / plain_pass_s,
        overhead=traced.metrics["ops_per_s"].value / plain.metrics["ops_per_s"].value,
    )
