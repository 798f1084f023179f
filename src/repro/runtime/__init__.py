"""Concurrent runtimes for the message network (multiprocessing, pool).

The multiprocess runtimes are *supervised*: see :mod:`repro.runtime
.supervision` for crash/stall detection, deterministic retry, and graceful
degradation, and :mod:`repro.runtime.faults` for the deterministic fault
injection the chaos suite drives them with.
"""

from .faults import (
    FaultInjectedError,
    FaultInjector,
    FaultPlan,
    ServiceFaultInjector,
    ServiceFaultPlan,
)
from .multiprocessing_engine import (
    MpNetwork,
    MpQueryResult,
    evaluate_multiprocessing,
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
    "MpNetwork", "MpQueryResult", "evaluate_multiprocessing",
    "PoolQueryResult", "ShardRouter", "evaluate_pool",
    "FaultPlan", "FaultInjector", "FaultInjectedError",
    "ServiceFaultPlan", "ServiceFaultInjector",
    "RetryPolicy", "Supervisor", "RuntimeFailure",
    "WorkerCrashError", "WorkerStallError", "EvaluationTimeout",
]
