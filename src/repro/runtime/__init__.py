"""The shard runtime for the message network: one shard loop, two transports.

:mod:`repro.runtime.shard_loop` is what every shard worker runs (the
router base and the delivery loop), :mod:`repro.runtime.sharded` the front
both transports share (validation, graph, retry, fallback, the
:class:`ShardedQueryResult`), and :mod:`repro.runtime.pool_engine` the
queue transport behind :func:`evaluate_pool`; :mod:`repro.cluster` is the
TCP transport.  Both are *supervised*: see :mod:`repro.runtime.supervision`
for crash/stall detection, deterministic retry, and graceful degradation,
and :mod:`repro.runtime.faults` for the deterministic fault injection the
chaos suite drives them with.
"""

from .faults import (
    FaultInjectedError,
    FaultInjector,
    FaultPlan,
    ServiceFaultInjector,
    ServiceFaultPlan,
)
from .pool_engine import ShardRouter, evaluate_pool
from .sharded import ShardedQueryResult
from .supervision import (
    EvaluationTimeout,
    RetryPolicy,
    RuntimeFailure,
    Supervisor,
    WorkerCrashError,
    WorkerStallError,
)

__all__ = [
    "ShardedQueryResult", "ShardRouter", "evaluate_pool",
    "FaultPlan", "FaultInjector", "FaultInjectedError",
    "ServiceFaultPlan", "ServiceFaultInjector",
    "RetryPolicy", "Supervisor", "RuntimeFailure",
    "WorkerCrashError", "WorkerStallError", "EvaluationTimeout",
]
