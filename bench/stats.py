"""Round statistics: percentiles, round medians and their spread."""

from __future__ import annotations

import statistics
from dataclasses import dataclass


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass(frozen=True)
class Measured:
    """One reported value: the median of per-round values, with context."""

    value: float
    samples: int  # observations behind the per-round values
    spread: float  # (max - min) / median of the per-round values

    @classmethod
    def of_rounds(cls, per_round, samples: int) -> "Measured":
        per_round = list(per_round)
        value = statistics.median(per_round)
        spread = (max(per_round) - min(per_round)) / value if value else 0.0
        return cls(value, samples, spread)

    @classmethod
    def single(cls, value: float) -> "Measured":
        return cls(value, 1, 0.0)


def _whole_window(rounds, q: float) -> Measured:
    """Percentile over every op of the window; spread is that of the rounds."""
    everything = [latency for r in rounds for latency, _ in r]
    by_round = Measured.of_rounds(
        (percentile([latency for latency, _ in r], q) * 1e3 for r in rounds), len(everything)
    )
    return Measured(percentile(everything, q) * 1e3, len(everything), by_round.spread)


def latency_metrics(rounds, wall_by_round) -> dict:
    """The generic end-to-end numbers from per-round ``(seconds, ok)`` samples.

    ``ops_per_s`` counts correct ops only and is the median of the per-round
    rates (a burst of host noise spoils one round, not the value); never a
    best-of-N, because a full GC lands on every other large evaluation and
    users pay for it.  The percentiles are taken over all ops of the
    window, failed ones included (a failed op was still waited for).
    """
    count = sum(len(r) for r in rounds)
    return {
        "ops_per_s": Measured.of_rounds(
            (sum(ok for _, ok in r) / wall for r, wall in zip(rounds, wall_by_round)), count
        ),
        "op_p50_ms": _whole_window(rounds, 0.5),
        "op_p90_ms": _whole_window(rounds, 0.9),
    }
