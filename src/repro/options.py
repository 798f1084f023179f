"""Evaluation options as two values: what shapes the network, and where it runs.

Theorem 2.1 makes the rule/goal graph depend only on the IDB, the query
and the SIP; Query-Subquery Nets likewise separate the net, fixed per
program, from the control strategy that runs it.  The options follow
that split:

* :class:`EvalOptions` shapes the graph and the process network.  It
  feeds the graph-cache key (:func:`~repro.core.rulegoal.graph_cache_key`)
  and the cluster's plan-part digest.
* :class:`RuntimeOptions` says where the network runs and what happens
  when a worker fails.  It is never part of a cache key or a digest.

Both are frozen and check their values once, at construction.  Every
public entry point (``Session``, ``MessagePassingEngine``, ``evaluate``,
``evaluate_pool``, ``evaluate_cluster``, the CLI) turns its keywords into
them once; everything below passes them whole.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core.rulegoal import SipFactory
from .core.sips import greedy_sip

__all__ = [
    "PLANNERS", "RUNTIMES", "FALLBACKS",
    "EvalOptions", "RuntimeOptions", "RetryPolicy", "session_keywords",
]

PLANNERS = ("static", "cost")
RUNTIMES = ("simulator", "pool", "cluster")
#: What a sharded evaluation may do once its retries are exhausted.
FALLBACKS = ("none", "inprocess")


def _check_range(name: str, value, minimum, strict: bool = False) -> None:
    """``value`` (``None`` passes) must be >= ``minimum`` (> when ``strict``).

    Written as "not in range" so that NaN, which compares false with
    everything, is refused too.
    """
    if value is not None and not (value > minimum if strict else value >= minimum):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {minimum}, got {value}")


@dataclass(frozen=True)
class EvalOptions:
    """What shapes the rule/goal graph and the process network.

    ``sip_factory``
        The information passing strategy (Definition 2.4; default greedy).
        ``all_free_sip`` turns sideways information passing off.
    ``coalesce``
        Merge goal nodes with identical binding patterns (the paper's
        single-processor variant, §2.2 and footnote 4).
    ``package_requests``
        Batch related tuple requests per producer (footnote 2).
    ``planner``
        ``"static"`` keeps the SIP's subgoal order; ``"cost"`` ranks each
        rule's orders with the §4.3 model seeded from observed EDB sizes
        (see :mod:`repro.core.planner`) and replaces ``sip_factory``.
    ``provenance``
        Record each answer's first derivation, so it can be explained.
    """

    sip_factory: SipFactory = greedy_sip
    coalesce: bool = False
    package_requests: bool = False
    planner: str = "static"
    provenance: bool = False

    def __post_init__(self) -> None:
        if self.planner not in PLANNERS:
            raise ValueError(
                f"unknown planner {self.planner!r} (expected 'static' or 'cost')"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Whole-query retry: attempts, (exponential) backoff, wall-clock cap.

    ``max_attempts`` counts executions (1 = no retry).  The sleep before
    retry attempt *k* (the ``k``-th execution, ``k >= 2``) is::

        backoff * backoff_factor ** (k - 2)  +  uniform(0, jitter)

    The defaults (``backoff_factor=1.0``, ``jitter=0.0``) reproduce the
    original fixed-sleep behavior exactly — deterministic chaos tests
    stay deterministic unless a policy opts in.  ``backoff_factor > 1``
    grows the sleep geometrically (the classic exponential backoff);
    ``jitter > 0`` adds a uniform random slice so a herd of clients
    retrying the same failure decorrelates instead of stampeding in
    lockstep.  ``deadline``, when set, caps the total wall clock across
    attempts — no attempt *starts* after it passes.
    """

    max_attempts: int = 1
    backoff: float = 0.0
    backoff_factor: float = 1.0
    jitter: float = 0.0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        _check_range("max_attempts", self.max_attempts, 1)
        _check_range("backoff", self.backoff, 0)
        _check_range("backoff_factor", self.backoff_factor, 0, strict=True)
        _check_range("jitter", self.jitter, 0)

    def delay_for(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """Seconds to sleep *before* executing ``attempt`` (1-based).

        Attempt 1 never waits.  Pass an ``rng`` to make the jitter slice
        reproducible (tests); the module-level generator is used
        otherwise.
        """
        if attempt <= 1 or (self.backoff <= 0 and self.jitter <= 0):
            return 0.0
        delay = self.backoff * self.backoff_factor ** (attempt - 2)
        if self.jitter > 0:
            delay += (rng.uniform if rng else random.uniform)(0.0, self.jitter)
        return delay

    @classmethod
    def of(cls, value: "RetryPolicy | int | None") -> "RetryPolicy":
        """Normalize ``None`` / an attempt count / a policy into a policy."""
        if value is None:
            return cls()
        if isinstance(value, RetryPolicy):
            return value
        return cls(max_attempts=int(value))


@dataclass(frozen=True)
class RuntimeOptions:
    """Where the network runs, and what happens when a worker fails.

    ``runtime``
        ``"simulator"`` (the in-process scheduler), ``"pool"`` (supervised
        forked shard workers) or ``"cluster"`` (remote shard workers behind
        a TCP cluster manager; see :mod:`repro.cluster`).
    ``workers``
        Shard workers, >= 1.  ``None``: the pool uses the CPU count; the
        cluster dispatches to every registered worker (a private harness
        starts two; an announced manager waits for one).
    ``batch_size``
        Messages per cross-shard batch before a forced flush, >= 1.
    ``edb_shards``
        Hash-partition replicas per "d"-bound EDB leaf, >= 1 (``None``:
        one per shard).
    ``cluster_address`` / ``cluster_listen``
        Cluster only, mutually exclusive: dial a running manager at
        ``"host:port"``, or announce one there (port ``0`` binds an
        ephemeral port) for remote ``repro worker --connect`` processes.
        Neither: a private localhost harness.
    ``retry``
        The :class:`RetryPolicy` for whole-query re-execution (safe by
        monotonicity).
    ``fallback``
        ``"inprocess"`` answers from the simulator once retries are
        exhausted (the result is flagged ``degraded``); ``"none"`` raises
        the typed error.
    ``heartbeat_interval``
        Seconds, > 0: arms wedged-worker detection; ``None`` leaves only
        crash detection on.
    ``timeout``
        Per-attempt deadline in seconds, > 0.
    """

    runtime: str = "simulator"
    workers: Optional[int] = None
    batch_size: int = 64
    edb_shards: Optional[int] = None
    cluster_address: Optional[str] = None
    cluster_listen: Optional[str] = None
    retry: RetryPolicy = RetryPolicy()
    fallback: str = "none"
    heartbeat_interval: Optional[float] = None
    timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.runtime not in RUNTIMES:
            raise ValueError(
                f"unknown session runtime {self.runtime!r}; "
                "use 'simulator', 'pool', or 'cluster'"
            )
        if self.fallback not in FALLBACKS:
            raise ValueError(
                f"unknown fallback {self.fallback!r}; use 'none' or 'inprocess'"
            )
        if self.cluster_address is not None and self.cluster_listen is not None:
            raise ValueError(
                "cluster_address and cluster_listen are mutually exclusive: "
                "either dial an existing manager or announce one, not both"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(f"retry must be a RetryPolicy, got {self.retry!r}")
        _check_range("workers", self.workers, 1)
        _check_range("batch_size", self.batch_size, 1)
        _check_range("edb_shards", self.edb_shards, 1)
        _check_range("heartbeat_interval", self.heartbeat_interval, 0, strict=True)
        _check_range("timeout", self.timeout, 0, strict=True)


def session_keywords(options: EvalOptions, runtime: RuntimeOptions) -> dict:
    """The :class:`~repro.session.Session` keywords that rebuild both values.

    The inverse of the conversion ``Session.__init__`` makes; ``Session``
    takes the retry policy as ``retries`` and runs with the default
    ``batch_size`` and ``edb_shards``, so a ``runtime`` that sets either
    is refused rather than silently dropped.  Use it to build sessions
    from the values elsewhere (a replica process, ``DurableStore.restore``,
    ``SharedSession``).
    """
    keywords = {**vars(options), **vars(runtime)}
    keywords["retries"] = keywords.pop("retry")
    for name in ("batch_size", "edb_shards"):
        if keywords.pop(name) != getattr(RuntimeOptions, name):
            raise ValueError(f"a Session runs with the default {name}")
    return keywords
