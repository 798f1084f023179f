"""One command for the whole benchmark.

The driver's contract (one workload per invocation, last stdout line is the
result object)::

    python3 bench/run.py --workload eval_mix --seed 1 --seconds 10 --trace 0

For people (all four workloads, a table per workload, summary last)::

    PYTHONPATH=src python -m bench.run [--quick] [--trace] [--sets 2 --compare]

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` is a separate traced run that prints every
per-layer metric: all four layer sections run with the same budget whatever
``--workload`` says, so a number means the same in every traced run; the
selected workload only decides whose ``trace.*`` ratios are reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import inputs, procs  # noqa: E402
from bench.common import Config, Result  # noqa: E402
from bench.tracing import Tracer  # noqa: E402
from bench.workloads import ALL  # noqa: E402

SECTION_SHARE = 0.5  # of --seconds: budget of each layer section in a traced run
WATCHDOG_S = 170.0  # one invocation runs one workload and must exit within 180 s
QUICK_S = 1.5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spin_ms() -> float:
    """A fixed pure-Python loop: a slow or busy host shows up here."""
    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


# ----------------------------------------------------------------------
def run_traced(selected: str, cfg: Config):
    """Every layer section once; returns (per-layer values, Result)."""
    values, result = {}, Result()
    spins = [spin_ms()]
    os.makedirs(procs.OUT_DIR, exist_ok=True)
    for name, module in ALL.items():
        tracer = Tracer()
        section = module.run_layers(cfg, tracer, cfg.seconds * SECTION_SHARE)
        result.absorb(section.result)
        values.update(section.values)
        tracer.dump(os.path.join(procs.OUT_DIR, f"trace-{name}.json"))
        if name == selected:
            values["trace.coverage_ratio"] = section.coverage
            values["trace.overhead_ratio"] = section.overhead
    spins.append(spin_ms())
    try:
        import numpy  # noqa: F401

        has_numpy = 1
    except ImportError:
        has_numpy = 0
    values.update(
        {
            "env.nproc": os.cpu_count() or 1,
            "env.loadavg_1m": os.getloadavg()[0],
            "env.spin_ms": sum(spins) / len(spins),
            "env.numpy": has_numpy,
            "env.python": float(".".join(platform.python_version_tuple()[:2])),
        }
    )
    return values, result


# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_e2e(name: str, result: Result, spec: dict) -> None:
    print(f"== {name} (end to end, tracing off) ==")
    print(f"{'metric':<18}{'value':>12} {'unit':<6}{'bound':>7}{'samples':>9}{'round spread':>14}")
    gated = {m["name"]: m for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for metric, m in result.metrics.items():
        # What BENCHMARK.json does not gate is listed there as <workload>.<metric>.
        unit = gated[metric]["unit"] if metric in gated else layer_units[f"{name}.{metric}"]
        bound = f"{gated[metric]['bound']:.0%}" if metric in gated else "-"
        print(f"{metric:<18}{_fmt(m.value):>12} {unit:<6}{bound:>7}{m.samples:>9}{m.spread:>14.1%}")
    ratio = result.failed / result.attempted
    print(f"{'fail_ratio':<18}{_fmt(ratio):>12} {'ratio':<6}{'0%':>7}{result.attempted:>9}")
    for note in result.notes:
        print(f"  failed op: {note}")


def print_layers(values: dict, spec: dict) -> None:
    print("== per-layer metrics (traced run; reported, not gated) ==")
    for metric in spec["per_layer"]:
        print(f"{metric['name']:<46}{_fmt(values[metric['name']]):>14} {metric['unit']}")


def audit(data_dirs=()) -> list:
    procs.kill_everything()  # the workloads tear down after themselves; this waits for the rest
    problems = procs.leak_audit(data_dirs)
    print(
        "leak audit: "
        + ("no surviving child, no held data-dir lock" if not problems else "; ".join(problems))
    )
    return problems


def _data_dirs() -> list:
    if not os.path.isdir(procs.OUT_DIR):
        return []
    return [
        os.path.join(procs.OUT_DIR, d) for d in os.listdir(procs.OUT_DIR) if d.startswith("data-")
    ]


def result_line(result: Result, metrics: dict, units: dict, clean: bool) -> str:
    return json.dumps(
        {
            "correct": bool(clean and result.failed == 0),
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
    )


# ----------------------------------------------------------------------
def one_workload(args, spec: dict, cfg: Config) -> int:
    """The driver's contract: one workload, one mode, result object last."""
    self_check = inputs.oracle_self_check(cfg.seed)
    if self_check:
        print(f"oracle disagrees with semi-naive on: {', '.join(self_check)}")
    if args.trace:
        values, result = run_traced(args.workload, cfg)
        print_layers(values, spec)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: values[name] for name in units}
    else:
        result = ALL[args.workload].run_e2e(cfg)
        print_e2e(args.workload, result, spec)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: result.metrics[name].value for name in units}
    clean = not audit(_data_dirs()) and not self_check
    print(result_line(result, metrics, units, clean))
    return 0


def contract_run(workload: str, trace: int, args, cfg: Config) -> dict:
    """Run one workload exactly as the driver does: in a process of its own.

    A process per workload keeps one workload's heap (and the collector's
    work on it) out of the next one's numbers.  Echoes the run's tables and
    returns its result object.
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(cfg.seed), "--seconds", str(cfg.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench: {workload} --trace {trace} exited {done.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def compare_sets(first: dict, second: dict, spec: dict) -> int:
    """Two sets of the same code must agree, either way round, within every bound."""
    print("== repeatability: set 1 vs set 2 ==")
    breaches = 0
    for workload in ALL:
        for metric in spec["end_to_end"]:
            a, b = (one[workload]["metrics"][metric["name"]]["value"] for one in (first, second))
            differ = abs(b - a) / a
            breach = differ > metric["bound"]
            breaches += breach
            print(
                f"{workload:<20}{metric['name']:<14}{_fmt(a):>12}{_fmt(b):>12}"
                f"{differ:>8.1%} bound {metric['bound']:.0%}{'  BREACH' if breach else ''}"
            )
    return breaches


def all_workloads(args, spec: dict, cfg: Config) -> int:
    """Every workload end to end, or traced (``--trace``), or both (``--quick``)."""
    runs, breaches = [], 0
    summary = {"seed": cfg.seed, "scale": cfg.scale, "seconds": cfg.seconds}
    if args.quick or not args.trace:
        sets = [{w: contract_run(w, 0, args, cfg) for w in ALL} for _ in range(args.sets)]
        if args.compare and len(sets) > 1:
            breaches = compare_sets(sets[0], sets[1], spec)
        runs += [run for one in sets for run in one.values()]
        summary["end_to_end"] = [
            {w: {n: m["value"] for n, m in run["metrics"].items()} for w, run in one.items()}
            for one in sets
        ]
    if args.quick or args.trace:
        # Each traced run prints every per-layer name; --quick needs only one.
        traced = {w: contract_run(w, 1, args, cfg) for w in (list(ALL)[:1] if args.quick else ALL)}
        runs += traced.values()
        summary["per_layer"] = {
            w: {n: m["value"] for n, m in run["metrics"].items()} for w, run in traced.items()
        }
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    correct = all(run["correct"] for run in runs)
    summary.update(
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / max(1, attempted),
        correct=correct,
        bound_breaches=breaches,
        claim=None,
    )
    print(json.dumps(summary))
    return 0 if correct and not breaches else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(ALL), help="one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="small inputs, short windows")
    parser.add_argument("--sets", type=int, default=1, help="full end-to-end sets to run")
    parser.add_argument("--compare", action="store_true", help="with --sets 2: check the bounds")
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else (
        QUICK_S if args.quick else spec["run_seconds"]
    )
    cfg = Config(
        seed=args.seed,
        seconds=seconds,
        scale="quick" if args.quick else "full",
        setups=1 if args.quick else 3,
    )
    procs.become_subreaper()
    # SIGTERM (a driver's timeout) must unwind through the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload:
            with procs.Watchdog(WATCHDOG_S, f"{args.workload} --trace {args.trace}"):
                return one_workload(args, spec, cfg)
        return all_workloads(args, spec, cfg)
    finally:
        procs.kill_everything()


if __name__ == "__main__":
    sys.exit(main())
