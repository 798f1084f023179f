"""The pooled shard runtime for the message network.

The pool (and the cluster, :mod:`repro.cluster`, which reuses its
supervision) is *supervised*: see :mod:`repro.runtime.supervision` for
crash/stall detection, deterministic retry, and graceful degradation, and
:mod:`repro.runtime.faults` for the deterministic fault injection the
chaos suite drives them with.
"""

from .faults import (
    FaultInjectedError,
    FaultInjector,
    FaultPlan,
    ServiceFaultInjector,
    ServiceFaultPlan,
)
from .pool_engine import PoolQueryResult, ShardRouter, evaluate_pool
from .supervision import (
    EvaluationTimeout,
    RetryPolicy,
    RuntimeFailure,
    Supervisor,
    WorkerCrashError,
    WorkerStallError,
)

__all__ = [
    "PoolQueryResult", "ShardRouter", "evaluate_pool",
    "FaultPlan", "FaultInjector", "FaultInjectedError",
    "ServiceFaultPlan", "ServiceFaultInjector",
    "RetryPolicy", "Supervisor", "RuntimeFailure",
    "WorkerCrashError", "WorkerStallError", "EvaluationTimeout",
]
