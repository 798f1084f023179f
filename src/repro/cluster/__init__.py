"""The multi-host shard runtime: TCP transport, manager, remote workers.

The paper's thesis is that logical query evaluation — including the
Section 3.2 termination protocol — is defined entirely in terms of
messages, so it ports across transports unchanged.  This package is that
claim demonstrated for real: the same node processes, message vocabulary,
and end-accounting as the in-process and pooled runtimes, carried over
length-prefixed TCP frames between hosts.

Entry points:

* :func:`evaluate_cluster` — evaluate one query over a manager's workers
  (``runtime="cluster"`` in :class:`~repro.session.Session` and the CLI);
* :class:`ClusterHarness` — a localhost manager + worker-process cluster
  for CI and single-machine use;
* :func:`~repro.cluster.worker.worker_main` — the remote worker loop
  behind ``repro worker --connect HOST:PORT``;
* :class:`~repro.cluster.manager.ClusterManager` / :class:`ManagerThread`
  — the hub: registration, shard dispatch, relay, supervision;
* :class:`ClusterClient` — the connection-pooled job-submission client,
  which also remembers each job-spec part it has shipped
  (:mod:`repro.cluster.spec`: plan and database travel once, by digest,
  and stay resident on the workers).

See the "Distributed evaluation" section of docs/architecture.md for the
topology, the failure model, and why the termination argument survives
the wire.
"""

from .client import ClusterClient, ClusterError, NoWorkersError, SpecMissError
from .evaluate import evaluate_cluster
from .framing import PROTOCOL_VERSION, FrameError
from .harness import ClusterHarness
from .manager import ClusterManager, ManagerThread
from .worker import worker_main

__all__ = [
    "PROTOCOL_VERSION",
    "ClusterClient",
    "ClusterError",
    "ClusterHarness",
    "ClusterManager",
    "FrameError",
    "ManagerThread",
    "NoWorkersError",
    "SpecMissError",
    "evaluate_cluster",
    "worker_main",
]
