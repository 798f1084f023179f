"""What one small write costs as the database and the hot set grow (PR 13).

The claim: a committed ``add_facts`` costs work proportional to the
delta, not to the database and not to the warm queries it leaves alone.
For 20k- and 200k-fact knowledge bases serving 8 and 64 warm queries,
this prints the median of

* **write+refresh** — ``SharedSession.add_facts`` of a 4-edge batch under
  one hot node: the in-place EDB growth, the delta wave through every
  warm network, and the move of every hot answer-cache entry to the new
  version (no durability: the log append is a constant the serving
  benchmark already measures);
* **ack to fresh answer** — from that call returning to the written
  node's closure being served with its wire rows, which must contain
  exactly the rows written so far.

Only calls that predate this PR are used, so this file (with
``_support.py``) copied into an older checkout and run from its root
measures that checkout too.
Records land in ``BENCH_PR13.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import sys
import time

sys.path.insert(0, "benchmarks")
sys.path.insert(0, "src")

from _support import BENCH_PR13_JSON_PATH, emit_json, emit_table, ratio

from repro.core.atoms import atom
from repro.core.parser import parse_program
from repro.core.program import Program
from repro.service import SharedSession
from repro.service.server import QueryServer

RULES = parse_program(
    "t(X, Y) <- e(X, Y).\n" "t(X, Y) <- e(X, U), t(U, Y).", validate=False
).rules
BATCH = 4  # edges per write
SUBTREE = 27  # edges under each hot node before any write
FRESH = 10_000_000  # ids above every generated node


def knowledge_base(total_facts: int, hot: int) -> Program:
    """``hot`` small disjoint trees; the other edges hang off none of them."""
    facts = []
    for node in range(hot):
        base = (node + 1) * 1_000
        for child in range(1, SUBTREE + 1):
            facts.append(atom("e", base + (child - 1) // 3, base + child))
    filler = 1_000_000
    while len(facts) < total_facts:
        facts.append(atom("e", filler + len(facts) % 97, filler + len(facts)))
    return Program(RULES, facts)


def measure(total_facts: int, hot: int, writes: int) -> dict:
    shared = SharedSession(
        knowledge_base(total_facts, hot), materialize=True, materialize_pool=hot
    )
    roots = [(node + 1) * 1_000 for node in range(hot)]
    expected = {}
    for root in roots:
        outcome = shared.query_detailed(f"t({root}, Z)")
        QueryServer._wire_answers(outcome)  # the render a server attaches
        expected[root] = set(outcome.answers)
    fresh_ids = itertools.count(FRESH)
    write_ms, fresh_ms, wrong = [], [], 0
    for root in itertools.islice(itertools.cycle(roots), writes):
        new = [next(fresh_ids) for _ in range(BATCH)]
        batch = [atom("e", root, n) for n in new]
        expected[root].update((n,) for n in new)
        start = time.perf_counter()
        shared.add_facts(batch)
        acked = time.perf_counter()
        outcome = shared.query_detailed(f"t({root}, Z)")
        wire = QueryServer._wire_answers(outcome)
        done = time.perf_counter()
        write_ms.append((acked - start) * 1e3)
        fresh_ms.append((done - acked) * 1e3)
        if set(outcome.answers) != expected[root] or len(wire) != len(expected[root]):
            wrong += 1
    return {
        "facts": total_facts,
        "warm_queries": hot,
        "writes": writes,
        "write_refresh_ms": round(statistics.median(write_ms), 4),
        "ack_to_fresh_answer_ms": round(statistics.median(fresh_ms), 4),
        "wrong_answers": wrong,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="fewer writes per cell (CI-sized)"
    )
    args = parser.parse_args(argv)
    writes = 64 if args.quick else 400

    cells = {
        (facts, hot): measure(facts, hot, writes)
        for facts in (20_000, 200_000)
        for hot in (8, 64)
    }
    emit_table(
        f"One {BATCH}-edge write: median ms over {writes} writes",
        ["facts", "warm queries", "write+refresh ms", "ack -> fresh answer ms"],
        [
            (facts, hot, f"{c['write_refresh_ms']:.3f}", f"{c['ack_to_fresh_answer_ms']:.3f}")
            for (facts, hot), c in cells.items()
        ],
    )
    growth = {
        hot: ratio(
            cells[200_000, hot]["write_refresh_ms"], cells[20_000, hot]["write_refresh_ms"]
        )
        for hot in (8, 64)
    }
    per_network_us = {
        facts: (cells[facts, 64]["write_refresh_ms"] - cells[facts, 8]["write_refresh_ms"])
        / 56
        * 1e3
        for facts in (20_000, 200_000)
    }
    print(
        "200k vs 20k write+refresh: "
        + ", ".join(f"{g:.2f}x at {hot} warm" for hot, g in growth.items())
        + "; each unreached warm network adds "
        + ", ".join(f"{us:.1f} us at {facts // 1000}k" for facts, us in per_network_us.items())
    )
    emit_json(
        {
            "bench": "write_scaling",
            "quick": args.quick,
            "batch_edges": BATCH,
            "cells": list(cells.values()),
            "write_refresh_200k_over_20k": {str(h): round(g, 2) for h, g in growth.items()},
            "unreached_network_us": {
                str(f): round(us, 2) for f, us in per_network_us.items()
            },
        },
        path=BENCH_PR13_JSON_PATH,
    )

    failures = [
        f"{c['wrong_answers']} stale or wrong answers at {key}"
        for key, c in cells.items()
        if c["wrong_answers"]
    ]
    # Generous: the copying write path this replaced reads 2.2x-3.1x here.
    failures += [
        f"write+refresh grew {g:.2f}x from 20k to 200k facts at {hot} warm queries"
        for hot, g in growth.items()
        if g > 2.0
    ]
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
