"""Content-addressed job specs: what a cluster job ships, and what it does not.

A job is described by two independently digested *parts* plus a small
per-attempt JSON header:

``plan``
    The rules-only program, the prebuilt rule/goal graph, and the
    :class:`~repro.options.EvalOptions` (plus ``edb_shards``) that shape
    the node network.  Theorem 2.1 makes the
    graph EDB-independent, so a plan changes only with the rules, the query
    shape, or the SIP — never with a write.  A session's graph is a *shape*
    graph: queries that differ only in a constant share it, and the
    constant's value rides in the per-attempt header instead.
``edb``
    The :class:`~repro.relational.database.Database`.  It changes only on a
    write (``Database.version`` counts them).

A part is its pickled bytes; its digest names it everywhere.  The client
memoises each part's bytes against the *live* graph / database objects
(:class:`JobSpecMemo`), the manager keeps a bounded store of blobs, and
every worker keeps a bounded cache of *unpickled* parts (each a
:class:`~repro.cache.BoundedCache`) — so a repeat query moves two
digests, not the database.  A receiver that lacks a digest says so (``spec_miss``) and is
sent the bytes; nothing is ever served from a digest that was not
verified against the bytes it names.

Only inputs are resident.  Per-query node state (relations, streams,
protocol counters) is rebuilt for every job, which is what keeps the
logical tuple-row accounting identical to the in-process simulator's.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import threading
import weakref
from typing import NamedTuple, Optional

from ..cache import BoundedCache
from ..core.program import Program
from ..core.rulegoal import RuleGoalGraph
from ..core.sips import greedy_sip
from ..options import EvalOptions
from ..relational.database import Database

__all__ = [
    "PLAN",
    "EDB",
    "STORE_ENTRIES",
    "JobSpecMemo",
    "Part",
    "digest_of",
    "pack_parts",
    "unpack_parts",
]

PLAN = "plan"
EDB = "edb"

#: How many blobs the manager's store keeps — and therefore how many
#: digests a client bothers remembering it holds.  Sized above what the
#: workers keep resident, so a worker miss is served from the store.
STORE_ENTRIES = 64

#: Client-side memo bound: pickled parts kept per live graph / database.
_MEMO_ENTRIES = 16


def digest_of(blob: bytes) -> str:
    """The content address of a part's pickled bytes."""
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


class Part(NamedTuple):
    """One shippable half of a job spec."""

    kind: str  # PLAN or EDB
    digest: str
    blob: bytes


def pack_parts(parts: list[Part]) -> tuple[list, bytes]:
    """``(header entries, concatenated bytes)`` for the parts that ship."""
    return (
        [[part.kind, part.digest, len(part.blob)] for part in parts],
        b"".join(part.blob for part in parts),
    )


def unpack_parts(entries: list, blob: bytes) -> list[Part]:
    """Inverse of :func:`pack_parts`; verifies every digest.

    A part whose bytes do not hash to the digest it travels under is a
    corrupted or mislabeled frame — refusing it here is what makes a
    digest safe to use as the only name of a resident database.
    """
    parts: list[Part] = []
    offset = 0
    for kind, digest, size in entries:
        piece = bytes(blob[offset : offset + size])
        offset += size
        if len(piece) != size or digest_of(piece) != digest:
            raise ValueError(f"job-spec part {kind}:{digest} failed its digest check")
        parts.append(Part(kind, digest, piece))
    return parts


class JobSpecMemo:
    """Client-side: each part pickled once per live graph / database.

    Entries are keyed by object identity and validated through weak
    references, so a recycled ``id()`` can never resurrect a dead object's
    bytes.  Graphs are immutable once built (the session treats cached
    graphs that way); a database is re-pickled when its ``version`` —
    bumped by every mutation — has moved.  Thread-safe: the service's
    evaluation threads share one client.
    """

    def __init__(self) -> None:
        self._plans = BoundedCache(_MEMO_ENTRIES)
        self._edbs = BoundedCache(_MEMO_ENTRIES)
        self._lock = threading.Lock()

    def plan(
        self,
        program: Program,
        graph: RuleGoalGraph,
        options: EvalOptions,
        with_database: bool,
        edb_shards: Optional[int] = None,
    ) -> Part:
        """The plan part for ``graph`` evaluated under ``options``."""
        fingerprint = (with_database, options, edb_shards)
        with self._lock:
            entry = self._plans.get(id(graph))
            if entry is not None:
                graph_ref, program_ref, seen, part = entry
                if (
                    graph_ref() is graph
                    and program_ref() is program
                    and seen == fingerprint
                ):
                    return part
            part = _pickle_plan(program, graph, options, with_database, edb_shards)
            self._remember(
                self._plans,
                graph,
                (weakref.ref(graph), weakref.ref(program), fingerprint, part),
            )
            return part

    def edb(self, database: Database) -> Part:
        """The edb part for ``database`` at its current version."""
        with self._lock:
            entry = self._edbs.get(id(database))
            if entry is not None:
                database_ref, version, part = entry
                if database_ref() is database and version == database.version:
                    return part
            version = database.version
            # The facts only: access counters and the version are this
            # process's bookkeeping, and must not perturb the address.
            facts_only = dataclasses.replace(
                database,
                scans=0,
                indexed_lookups=0,
                rows_retrieved=0,
                version=0,
                rows_added=0,
                index_entries_added=0,
            )
            blob = pickle.dumps(facts_only, protocol=pickle.HIGHEST_PROTOCOL)
            part = Part(EDB, digest_of(blob), blob)
            self._remember(
                self._edbs, database, (weakref.ref(database), version, part)
            )
            return part

    @staticmethod
    def _remember(table: BoundedCache, owner, entry: tuple) -> None:
        # Drop entries whose owner died first (entry[0] is its weakref): a
        # caller that builds a fresh graph per call must not pin old bytes.
        for key, stale in table.items():
            if stale[0]() is None:
                table.pop(key)
        table.put(id(owner), entry)


def _pickle_plan(
    program: Program,
    graph: RuleGoalGraph,
    options: EvalOptions,
    with_database: bool,
    edb_shards: Optional[int],
) -> Part:
    """Pickle the plan: program + wire graph + options + ``edb_shards``.

    SIP decisions are already baked into the graph's arcs, so workers never
    call a ``sip_factory`` — but the cost planner's factory, or a caller's,
    may be a closure that cannot pickle.  Ship copies of the graph and the
    options with a picklable placeholder (the session's cached graph must
    not be mutated), and the graph without the plan report (client-side
    introspection only).

    A session's program is rules-only already, and its graph was built
    from that very object, so pickle's memo writes it once.  A direct
    caller's program may still carry facts: when a database accompanies
    the job they are dropped, since the engine reads ``program.facts``
    only to build a database it was not given.
    """
    wire_graph = copy.copy(graph)
    wire_graph.sip_factory = greedy_sip
    if getattr(wire_graph, "plan_report", None) is not None:
        wire_graph.plan_report = None
    wire_program = program
    if with_database and program.facts:
        wire_program = program.with_facts(())
        wire_graph.program = (
            wire_program if graph.program is program else graph.program.with_facts(())
        )
    blob = pickle.dumps(
        {
            "program": wire_program,
            "graph": wire_graph,
            "options": dataclasses.replace(options, sip_factory=greedy_sip),
            "edb_shards": edb_shards,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return Part(PLAN, digest_of(blob), blob)
