"""Durability for the query service: snapshot + append-only fact/rule log.

The serving layer's knowledge base lives in memory; without this module
a restart of ``repro serve`` forgets every ``add_facts``/``add_rules``
a client ever sent.  :class:`DurableStore` gives the service the
classic snapshot + write-ahead-log shape, sized for this repo's scale
(text-sized mutations, thousands-not-billions of records):

* **The log** (``facts.log``) is append-only NDJSON: one JSON object
  per committed mutation, carrying a strictly increasing ``seq`` and
  the mutation payload exactly as the session received it (the raw
  program text for text writes, a structured fact encoding otherwise).
  Appends flush to the OS on every record and ``fsync`` on a
  configurable cadence (``fsync_interval=0`` — the default — syncs
  every record; a positive interval group-commits, trading a bounded
  window of recent writes for throughput).

* **Snapshots** (``snapshot.json``) are compacted images of the whole
  base (rules as program text, facts in a JSON-native encoding),
  written atomically (temp file + ``fsync`` + ``rename``) every
  ``snapshot_every`` log records, after which the log is truncated.
  A crash between the snapshot rename and the log truncate merely
  leaves log records the snapshot already covers; replay skips any
  record whose ``seq`` the snapshot has absorbed.

* **Recovery** (:meth:`DurableStore.restore`) loads the snapshot, then
  replays the log in order.  A *torn tail* — the final record cut mid
  write by a crash or power loss — is expected, detected (unparseable
  or unterminated last line), dropped, and the log truncated back to
  the last durable record; the lost mutation was never acknowledged,
  because the service appends *before* answering the client.  A bad
  record anywhere **other** than the tail means real corruption and
  raises :class:`LogCorruptionError` rather than silently serving a
  hole in the knowledge base.

Values richer than JSON natives (str/int/float/bool/None) are
stringified on the way into a snapshot — the same convention as the
wire protocol's ``rows_to_wire`` — and rule text must round-trip
through the parser, which holds for every program this repo generates.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from ..core.atoms import Atom
from ..core.parser import parse_program
from ..core.program import Program
from ..core.rules import Rule
from ..core.terms import Constant
from ..session import Session

__all__ = [
    "LogCorruptionError",
    "LogLockedError",
    "ReplayReport",
    "DurableStore",
    "fact_to_wire",
    "fact_from_wire",
]

SNAPSHOT_NAME = "snapshot.json"
LOG_NAME = "facts.log"
LOCK_NAME = "lock.pid"
SNAPSHOT_FORMAT = 1

_JSON_NATIVE = (str, int, float, bool, type(None))

#: Data directories whose append lock is held by a store in *this*
#: process.  The pidfile alone cannot distinguish two stores in one
#: process (same pid), so in-process exclusion goes through here.
_HELD_LOCKS: set = set()
_HELD_LOCKS_GUARD = threading.Lock()


class LogCorruptionError(RuntimeError):
    """The log is damaged somewhere replay cannot safely skip."""


class LogLockedError(RuntimeError):
    """Another live server already owns this data directory's fact log.

    Two writers interleaving appends into one log would corrupt it in a
    way replay cannot repair (their records would shuffle into each
    other's sequence space).  The exclusive pidfile makes the second
    writer fail *loudly* instead; pass ``read_only=True`` to follow the
    log without writing (what replication replicas do).
    """


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a lockfile's recorded owner."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, different user
        return True
    except OSError:  # pragma: no cover - platform-dependent
        return True
    return True


def fact_to_wire(fact: Atom) -> list:
    """One ground atom as ``[predicate, [values...]]`` (JSON-native values)."""
    return [
        fact.predicate,
        [v if isinstance(v, _JSON_NATIVE) else str(v) for v in fact.ground_tuple()],
    ]


def fact_from_wire(entry: Iterable) -> Atom:
    """The inverse of :func:`fact_to_wire`."""
    predicate, values = entry
    return Atom(str(predicate), tuple(Constant(v) for v in values))


@dataclass(frozen=True)
class ReplayReport:
    """What one :meth:`DurableStore.restore` actually did."""

    snapshot_loaded: bool  # a snapshot file existed and was applied
    records_replayed: int  # log records applied on top of the snapshot
    records_skipped: int  # log records the snapshot had already absorbed
    torn_tail_dropped: int  # unterminated/unparseable final records removed
    bootstrapped: bool  # no prior state: the seed program became snapshot 0


class DurableStore:
    """Snapshot + append-only mutation log under one data directory.

    One store owns one directory; one directory serves one knowledge
    base.  The expected call pattern (what ``repro serve --data-dir``
    and :class:`~repro.service.shared_session.SharedSession` do)::

        store = DurableStore(data_dir)
        session, report = store.restore(seed_program_text)
        ...
        session.add_facts(text)   # commit in memory first
        store.record("add_facts", text)  # then make it durable

    ``record`` must be called *after* the in-memory commit succeeded
    (a rejected mutation must not be logged) and *before* the client is
    acknowledged (so nothing acknowledged is ever lost to a torn tail).
    The serving layer calls it under its write lock, which makes log
    order identical to commit order.
    """

    def __init__(
        self,
        data_dir: Union[str, os.PathLike],
        *,
        fsync_interval: float = 0.0,
        snapshot_every: int = 1000,
        read_only: bool = False,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        if not fsync_interval >= 0:  # NaN too: it would never fsync
            raise ValueError(f"fsync_interval must be >= 0, got {fsync_interval}")
        self.data_dir = os.fspath(data_dir)
        self.fsync_interval = fsync_interval
        self.snapshot_every = snapshot_every
        #: Read-only followers (replication replicas) restore from the
        #: directory but never lock it, never append, never compact, and
        #: never truncate a torn tail on disk — the single *writer* owns
        #: every mutation of the files.
        self.read_only = read_only
        os.makedirs(self.data_dir, exist_ok=True)
        self.snapshot_path = os.path.join(self.data_dir, SNAPSHOT_NAME)
        self.log_path = os.path.join(self.data_dir, LOG_NAME)
        self.lock_path = os.path.join(self.data_dir, LOCK_NAME)
        self._lock_key = os.path.realpath(self.data_dir)
        self._lock_held = False
        self._log_file = None  # opened for append on first record
        self._seq = 0  # last durable sequence number
        self._records_since_snapshot = 0
        self._last_fsync = 0.0
        # Replay/durability accounting, surfaced through serving stats.
        self.appends = 0
        self.fsyncs = 0
        self.snapshots_written = 0
        self.last_report: Optional[ReplayReport] = None

    # ------------------------------------------------------------------
    # The single-writer guard
    # ------------------------------------------------------------------
    def acquire_lock(self) -> None:
        """Take the directory's exclusive append lock (idempotent).

        Called implicitly by the first :meth:`record`/:meth:`compact`;
        servers call it eagerly at boot so a second server over the same
        ``--data-dir`` fails immediately with a clear message instead of
        at its first accepted write.  The lock is an ``O_EXCL`` pidfile:
        a leftover file naming a *dead* pid (hard-killed server) is
        stolen; a live pid — or another store in this same process —
        raises :class:`LogLockedError`.
        """
        if self._lock_held:
            return
        if self.read_only:
            raise LogLockedError(
                f"{self.data_dir}: read-only store cannot take the append lock"
            )
        with _HELD_LOCKS_GUARD:
            if self._lock_key in _HELD_LOCKS:
                raise LogLockedError(
                    f"{self.data_dir} is already locked by another store in "
                    "this process; one data directory serves one writer"
                )
            for _ in range(2):
                try:
                    fd = os.open(
                        self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                    )
                except FileExistsError:
                    owner = self._read_lock_owner()
                    if owner is not None and owner != os.getpid() and _pid_alive(owner):
                        raise LogLockedError(
                            f"{self.data_dir} is locked by live pid {owner} "
                            f"({self.lock_path}); two servers must not "
                            "interleave appends into one fact log"
                        ) from None
                    # Dead owner (or unreadable/own-pid leftover from a
                    # previous life): the lock is stale — steal it.
                    try:
                        os.unlink(self.lock_path)
                    except FileNotFoundError:  # pragma: no cover - race
                        pass
                    continue
                with os.fdopen(fd, "w") as handle:
                    handle.write(f"{os.getpid()}\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                _HELD_LOCKS.add(self._lock_key)
                self._lock_held = True
                return
            raise LogLockedError(  # pragma: no cover - repeated create race
                f"{self.data_dir}: could not create {self.lock_path}"
            )

    def _read_lock_owner(self) -> Optional[int]:
        try:
            with open(self.lock_path, encoding="utf-8") as handle:
                return int(handle.read().strip() or "0")
        except (OSError, ValueError):
            return None

    def release_lock(self) -> None:
        """Give the append lock back (part of :meth:`close`)."""
        if not self._lock_held:
            return
        with _HELD_LOCKS_GUARD:
            _HELD_LOCKS.discard(self._lock_key)
            self._lock_held = False
            try:
                os.unlink(self.lock_path)
            except FileNotFoundError:  # pragma: no cover - stolen/cleaned
                pass

    @property
    def locked(self) -> bool:
        return self._lock_held

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def has_state(self) -> bool:
        """True iff the directory holds a previous life of this base."""
        return os.path.exists(self.snapshot_path) or os.path.exists(self.log_path)

    def restore(
        self, source: Union[str, Program, None] = None, **session_options
    ) -> tuple[Session, ReplayReport]:
        """Build the session this directory describes; write-ready afterwards.

        With no prior state, ``source`` (program text or a parsed
        :class:`Program`) seeds the base and becomes snapshot 0 — the
        seed is durable before the service answers its first request.
        With prior state, ``source`` is **ignored** for content (the
        directory is the truth; the seed was absorbed at bootstrap) and
        the session is rebuilt as snapshot + log replay.
        """
        if not self.has_state():
            if source is None:
                raise ValueError(
                    f"{self.data_dir} holds no state and no seed program was given"
                )
            if self.read_only:
                raise ValueError(
                    f"{self.data_dir} holds no state to follow; a read-only "
                    "store cannot bootstrap (the writer does that)"
                )
            session = Session(source, **session_options)
            self._write_snapshot(session, seq=0)
            report = ReplayReport(
                snapshot_loaded=False,
                records_replayed=0,
                records_skipped=0,
                torn_tail_dropped=0,
                bootstrapped=True,
            )
            self.last_report = report
            return session, report

        snapshot = self._read_snapshot()
        if snapshot is not None:
            rules_text = snapshot["rules"]
            rules = (
                parse_program(rules_text, validate=False).rules if rules_text else ()
            )
            facts = tuple(fact_from_wire(e) for e in snapshot["facts"])
            session = Session(Program(tuple(rules), facts), **session_options)
            session._db_version = int(snapshot.get("db_version", 0))
            base_seq = int(snapshot["seq"])
        else:
            # A log with no snapshot: the directory was seeded by hand
            # or the snapshot was deleted; replay onto an empty base.
            session = Session(source if source is not None else "", **session_options)
            base_seq = 0

        records, torn = self._read_log()
        replayed = skipped = 0
        expected = base_seq
        for record in records:
            seq = int(record["seq"])
            if seq <= base_seq:
                skipped += 1  # absorbed by the snapshot (crash mid-compaction)
                continue
            expected += 1
            if seq != expected:
                raise LogCorruptionError(
                    f"{self.log_path}: sequence gap — expected record "
                    f"{expected}, found {seq}"
                )
            self._apply(session, record)
            replayed += 1
        self._seq = max(base_seq, expected)
        self._records_since_snapshot = replayed
        report = ReplayReport(
            snapshot_loaded=snapshot is not None,
            records_replayed=replayed,
            records_skipped=skipped,
            torn_tail_dropped=torn,
            bootstrapped=False,
        )
        self.last_report = report
        # Replaying may have left the log longer than the compaction
        # threshold (e.g. a crash loop); compact now so boot cost stays
        # bounded over any number of restarts.  Followers never compact:
        # truncating the log out from under the live writer would lose
        # its in-flight appends.
        if not self.read_only and self._records_since_snapshot >= self.snapshot_every:
            self.compact(session)
        return session, report

    @staticmethod
    def _apply(session: Session, record: dict) -> None:
        op = record.get("op")
        if op == "add_facts":
            payload = record["facts"]
            if isinstance(payload, str):
                session.add_facts(payload)
            else:
                session.add_facts(fact_from_wire(e) for e in payload)
        elif op == "add_rules":
            session.add_rules(record["rules"])
        else:
            raise LogCorruptionError(
                f"log record {record.get('seq')} has unknown op {op!r}"
            )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def record(
        self, op: str, payload: Union[str, Iterable[Atom], Iterable[Rule]]
    ) -> int:
        """Append one committed mutation; returns its sequence number.

        Text payloads are logged verbatim (they re-parse identically at
        replay); ``add_facts`` atom iterables are logged structurally;
        ``add_rules`` rule iterables are logged as program text.
        """
        if op == "add_facts":
            body = (
                payload
                if isinstance(payload, str)
                else [fact_to_wire(f) for f in payload]
            )
            field = "facts"
        elif op == "add_rules":
            body = (
                payload
                if isinstance(payload, str)
                else "\n".join(str(r) for r in payload)
            )
            field = "rules"
        else:
            raise ValueError(f"unloggable op {op!r}")
        if self.read_only:
            raise LogLockedError(
                f"{self.data_dir}: read-only store cannot append to the log"
            )
        self.acquire_lock()
        self._seq += 1
        line = (
            json.dumps({"seq": self._seq, "op": op, field: body}, sort_keys=True)
            + "\n"
        ).encode("utf-8")
        if self._log_file is None:
            self._log_file = open(self.log_path, "ab")
        self._log_file.write(line)
        self._log_file.flush()
        self.appends += 1
        self._records_since_snapshot += 1
        now = time.monotonic()
        if self.fsync_interval == 0.0 or now - self._last_fsync >= self.fsync_interval:
            os.fsync(self._log_file.fileno())
            self.fsyncs += 1
            self._last_fsync = now
        return self._seq

    def should_compact(self) -> bool:
        return self._records_since_snapshot >= self.snapshot_every

    def compact(self, session: Session) -> None:
        """Write a fresh snapshot of ``session`` and truncate the log.

        The snapshot lands atomically (temp + fsync + rename) *before*
        the log is touched, so a crash at any point leaves either the
        old snapshot with a full log or the new snapshot with a
        possibly-redundant log — both replay to the same base.
        """
        if self.read_only:
            raise LogLockedError(
                f"{self.data_dir}: read-only store cannot compact the log"
            )
        self.acquire_lock()
        self._write_snapshot(session, seq=self._seq)
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None
        with open(self.log_path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self._records_since_snapshot = 0

    def sync(self) -> None:
        """Force an fsync of any appended-but-unsynced records."""
        if self._log_file is not None:
            self._log_file.flush()
            os.fsync(self._log_file.fileno())
            self.fsyncs += 1
            self._last_fsync = time.monotonic()

    def close(self) -> None:
        if self._log_file is not None:
            self.sync()
            self._log_file.close()
            self._log_file = None
        self.release_lock()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def seq(self) -> int:
        """The last sequence number made durable."""
        return self._seq

    def stats(self) -> dict:
        """JSON-safe durability accounting for the ``stats`` op."""
        report = self.last_report
        return {
            "data_dir": self.data_dir,
            "read_only": self.read_only,
            "locked": self._lock_held,
            "seq": self._seq,
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "snapshots_written": self.snapshots_written,
            "records_since_snapshot": self._records_since_snapshot,
            "snapshot_every": self.snapshot_every,
            "fsync_interval": self.fsync_interval,
            "replay": None
            if report is None
            else {
                "snapshot_loaded": report.snapshot_loaded,
                "records_replayed": report.records_replayed,
                "records_skipped": report.records_skipped,
                "torn_tail_dropped": report.torn_tail_dropped,
                "bootstrapped": report.bootstrapped,
            },
        }

    # ------------------------------------------------------------------
    # File plumbing
    # ------------------------------------------------------------------
    def _write_snapshot(self, session: Session, seq: int) -> None:
        snapshot = {
            "format": SNAPSHOT_FORMAT,
            "seq": seq,
            "db_version": session.db_version,
            "rules": "\n".join(str(r) for r in session.rules),
            "facts": [fact_to_wire(f) for f in session.facts],
        }
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, separators=(",", ":"))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.snapshot_path)
        self._fsync_dir()
        self.snapshots_written += 1

    def _fsync_dir(self) -> None:
        # Make the rename itself durable; best-effort on platforms
        # where directories cannot be opened (e.g. Windows).
        try:
            fd = os.open(self.data_dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _read_snapshot(self) -> Optional[dict]:
        if not os.path.exists(self.snapshot_path):
            return None
        with open(self.snapshot_path, encoding="utf-8") as handle:
            try:
                snapshot = json.load(handle)
            except ValueError as exc:
                # Snapshots are written atomically, so a half-written
                # one never becomes visible; damage here is real.
                raise LogCorruptionError(
                    f"{self.snapshot_path}: unreadable snapshot: {exc}"
                ) from exc
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise LogCorruptionError(
                f"{self.snapshot_path}: unsupported snapshot format "
                f"{snapshot.get('format')!r}"
            )
        return snapshot

    def _read_log(self) -> tuple[list[dict], int]:
        """Parse the log; returns (records, torn_tail_dropped).

        A damaged *final* record (no terminating newline, or JSON cut
        mid-object) is the designed-for crash signature: it is dropped
        and the file truncated back to the last durable record.  Damage
        anywhere else raises :class:`LogCorruptionError`.
        """
        if not os.path.exists(self.log_path):
            return [], 0
        with open(self.log_path, "rb") as handle:
            raw = handle.read()
        records: list[dict] = []
        offset = 0  # end of the last fully-durable record
        torn = 0
        lines = raw.split(b"\n")
        # split() yields a trailing "" exactly when raw ends with \n.
        terminated = lines and lines[-1] == b""
        if terminated:
            lines = lines[:-1]
        for index, line in enumerate(lines):
            final = index == len(lines) - 1
            if not line.strip():
                offset += len(line) + 1
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "seq" not in record:
                    raise ValueError("record is not an object with a seq")
            except ValueError as exc:
                if final:
                    torn = 1  # the torn tail a crash mid-append leaves
                    break
                raise LogCorruptionError(
                    f"{self.log_path}: damaged record at line {index + 1} "
                    f"is not the final record: {exc}"
                ) from exc
            if final and not terminated:
                # Parsed, but the newline commit marker is missing: the
                # record may still be incomplete (e.g. a truncated
                # string that happens to parse).  Treat as torn.
                torn = 1
                break
            records.append(record)
            offset += len(line) + 1
        if torn and not self.read_only:
            # Followers drop the tail in memory only; truncating the
            # writer's live log out from under it is not theirs to do.
            with open(self.log_path, "r+b") as handle:
                handle.truncate(offset)
        return records, torn
