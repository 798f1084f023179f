"""Shared helpers for the benchmark harness.

Every bench module regenerates one paper artifact (figure, worked example,
or quantitative claim — see DESIGN.md's per-experiment index) and both:

* *benchmarks* the relevant operation via pytest-benchmark, and
* *prints* the comparison table the experiment is about (the rows/series a
  paper evaluation section would report), asserting the qualitative shape —
  who wins, by roughly what factor.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
tables inline; they are also appended to ``benchmarks/results.txt``).
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")
#: Machine-readable bench records live at the *repo root*.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PR9_JSON_PATH = os.path.join(REPO_ROOT, "BENCH_PR9.json")


def emit_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Format, print, and persist one experiment table."""
    rows = [tuple(str(c) for c in row) for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [f"== {title} ==", fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in rows]
    text = "\n".join(lines)
    print("\n" + text)
    with open(RESULTS_PATH, "a") as handle:
        handle.write(text + "\n\n")
    return text


def ratio(a: float, b: float) -> float:
    """Safe ratio a/b for factor-of-improvement reporting."""
    return a / b if b else float("inf")


def emit_json(record: dict, path: str) -> dict:
    """Append one machine-readable benchmark record to a root BENCH file.

    Each record is a flat-ish dict — by convention ``bench`` (the emitting
    experiment), ``workload``, ``runtime``, ``knobs`` (evaluation options),
    ``seconds`` (wall time), and the logical/physical message counts.  The
    file is a JSON array, rewritten on every append so it is always valid;
    CI uploads it as an artifact and the A/B assertions read wall times
    from the same numbers the humans see.
    """
    records = []
    if os.path.exists(path):
        try:
            with open(path) as handle:
                records = json.load(handle)
        except (json.JSONDecodeError, OSError):
            records = []
    records.append(record)
    with open(path, "w") as handle:
        json.dump(records, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return record
