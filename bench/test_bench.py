"""Checks on the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest bench -q``; deliberately outside
the tier-1 ``testpaths`` (it boots servers and a cluster harness).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from bench import inputs
from bench.run import compare_sets
from bench.stats import latency_metrics
from bench.workloads import ALL

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT_COUNTS = (
    "network.logical_msgs", "network.physical_msgs", "network.protocol_msgs",
    "network.protocol_rounds", "network.tuple_set_rows", "network.probe_lookups",
    "network.index_inserts", "network.envs_materialized", "network.tuples_stored",
    "relational.indexed_lookups", "relational.rows_retrieved", "relational.scans",
    "cluster.logical_tuple_rows",
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_bench(*args: str):
    """Run the contract command; (stdout lines, parsed last line)."""
    spec = load_spec()
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_spec_meets_the_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(ALL)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in spec["end_to_end"] + spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128 and 1 <= spec["run_seconds"] <= 60


@pytest.mark.parametrize("workload", list(ALL))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    spec = load_spec()
    lines, last = run_bench("--workload", workload, "--trace", "0")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for metric in spec["end_to_end"]:
        emitted = last["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"] and emitted["value"] > 0
        # The table row carries unit, bound, sample count and round spread.
        row = next(line for line in lines if line.startswith(metric["name"] + " "))
        assert re.search(rf"{re.escape(metric['unit'])}\s+\d+%\s+\d+\s+[\d.]+%$", row), row
    assert any(line.startswith("leak audit: no surviving child") for line in lines)


def test_traced_run_emits_every_per_layer_metric_and_repeats_exact_counts():
    spec = load_spec()
    _, first = run_bench("--workload", "eval_mix", "--trace", "1", "--seed", "3")
    assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert first["correct"] is True
    for metric in spec["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    trace_file = os.path.join(ROOT, "bench", "out", "trace-eval_mix.json")
    with open(trace_file) as handle:
        spans = json.load(handle)["spans"]
    assert spans and {"name", "start", "end", "parent", "op"} <= set(spans[0])
    _, second = run_bench("--workload", "cluster_repeat", "--trace", "1", "--seed", "3")
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_oracle_agrees_with_seminaive_on_small_instances():
    assert inputs.oracle_self_check(seed=5) == []


def test_same_seed_same_inputs():
    assert inputs.eval_entries(7, "quick") == inputs.eval_entries(7, "quick")
    assert inputs.serve_inputs(7, "quick").keys != inputs.serve_inputs(8, "quick").keys


def test_compare_flags_a_difference_in_either_direction(capsys):
    spec = load_spec()

    def one_set(scale: float) -> dict:
        metrics = {m["name"]: {"value": 10.0 * scale} for m in spec["end_to_end"]}
        return {workload: {"metrics": metrics} for workload in ALL}

    pairs = len(ALL) * len(spec["end_to_end"])
    assert compare_sets(one_set(1.0), one_set(1.05), spec) == 0
    assert compare_sets(one_set(1.0), one_set(2.0), spec) == pairs
    assert compare_sets(one_set(2.0), one_set(1.0), spec) == pairs  # "better" is a breach too
    assert "BREACH" in capsys.readouterr().out


def test_throughput_counts_correct_ops_only():
    rounds = [[(0.1, True), (0.1, False)]] * 5
    assert latency_metrics(rounds, [1.0] * 5)["ops_per_s"].value == 1.0
