"""Run configuration, result records and the closed-loop load generator."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from .stats import Measured, latency_metrics


@dataclass(frozen=True)
class Config:
    seed: int = 1
    seconds: float = 10.0  # nominal length of the measured window
    scale: str = "full"  # "full" | "quick" (input sizes, see inputs.SIZES)
    setups: int = 3  # set-ups per run; setup_s is their median
    rounds: int = 5  # equal rounds per measured window

    @property
    def cheap_setups(self) -> int:
        """More repetitions where one set-up takes under a second."""
        return self.setups * 2 - 1

    @property
    def round_limit_s(self) -> float:
        """A round may take twice its nominal length before it is cut short."""
        return 2.0 * self.seconds / self.rounds

    def steps_per_round(self, nominal_steps_per_s: float) -> int:
        """The window as a fixed step count per client and round.

        ``--seconds`` is turned into an operation count through the
        workload's nominal rate (measured on the commit that added the
        benchmark, full scale).  A fixed count, not a deadline, because the
        collector's full passes are triggered by allocation counts: the
        same ops then meet the same number of them on every run.
        """
        return max(1, round(self.seconds * nominal_steps_per_s / self.rounds))


@dataclass
class Result:
    """What one workload run reports: named values plus failure accounting."""

    metrics: dict = field(default_factory=dict)  # name -> Measured
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)  # human-readable failure reasons

    def count(self, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if why and len(self.notes) < 20:
                self.notes.append(why)
        return ok

    def absorb(self, *others: "Result") -> "Result":
        """Add other results' failure accounting (not their metrics) to this one."""
        for other in others:
            self.attempted += other.attempted
            self.failed += other.failed
            self.notes += other.notes[: 20 - len(self.notes)]
        return self


@dataclass
class Section:
    """What one layer section of a traced run reports."""

    values: dict  # per-layer metric name -> number
    result: Result  # failure accounting of every op the section ran
    coverage: float  # layer spans per op / untraced op time
    overhead: float  # traced ops/s / untraced ops/s


def stat_delta(after: dict, before: dict, *path: str):
    """Difference of one counter between two ``stats``-op snapshots."""
    for key in path:
        after, before = after[key], before[key]
    return after - before


#: One client's "do the next op(s)": returns [(latency_seconds, ok), ...].
#: A step never raises for a failed op — a typed error, refusal, timeout or
#: wrong answer is a failed sample, not an aborted run.
Step = Callable[[], list]


def timed_op(fn: Callable[[], bool]) -> list:
    """Run one op; any exception makes it a failed sample."""
    start = time.perf_counter()
    try:
        ok = bool(fn())
    except Exception:
        ok = False
    return [(time.perf_counter() - start, ok)]


def closed_loop(steps: list[Step], rounds: int, steps_per_round: int, round_limit_s: float):
    """Drive ``len(steps)`` closed-loop clients through equal rounds.

    Each client sends its next op only after the previous one completed.
    Returns ``(samples_by_round, wall_by_round)``, a sample being
    ``(latency_seconds, ok)``; a round's wall time is that of its slowest
    client, so ops/s counts completed work over the time it really took.
    A round that outlasts ``round_limit_s`` is cut short: when the host
    stalls (a traced run took 160 s instead of 45 during one episode of
    stolen CPU) the run must still end within the driver's limit.
    """
    clients = len(steps)
    barrier = threading.Barrier(clients)
    samples = [[None] * rounds for _ in range(clients)]

    def client(index: int) -> None:
        step = steps[index]
        for r in range(rounds):
            barrier.wait()
            start = time.perf_counter()
            got = []
            for _ in range(steps_per_round):
                got += step()
                if time.perf_counter() - start > round_limit_s:
                    break
            samples[index][r] = (got, time.perf_counter() - start)

    if clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    merged = [[s for c in range(clients) for s in samples[c][r][0]] for r in range(rounds)]
    walls = [max(samples[c][r][1] for c in range(clients)) for r in range(rounds)]
    return merged, walls


def record_window(result: Result, samples_by_round: list, wall_by_round: list) -> None:
    """Count the window's ops and record the generic end-to-end metrics."""
    for ok in (ok for r in samples_by_round for _, ok in r):
        result.count(ok, "op failed in the measured window")
    result.metrics.update(latency_metrics(samples_by_round, wall_by_round))


def measure(
    result: Result, steps: list[Step], cfg: Config, nominal_steps_per_s: float
) -> list:
    """Run the measured window; returns its latencies (seconds) by round."""
    samples, walls = closed_loop(
        steps, cfg.rounds, cfg.steps_per_round(nominal_steps_per_s), cfg.round_limit_s
    )
    record_window(result, samples, walls)
    return [[latency for latency, _ in r] for r in samples]


def record_setups(result: Result, times: list) -> None:
    result.metrics["setup_s"] = Measured.of_rounds(times, len(times))
