"""DurableStore: bootstrap, replay, torn tails, compaction, crash drills.

The recovery contract under test: every *acknowledged* mutation survives
a hard kill (append-before-ack), a torn final record is dropped
silently, and damage anywhere else raises rather than serving a hole.
"""

import json
import os

import pytest

from repro.service import DurableStore, LogCorruptionError, LogLockedError, SharedSession
from repro.service.persistence import LOG_NAME, SNAPSHOT_NAME, fact_from_wire, fact_to_wire
from repro.core.program import ProgramError
from repro.session import Session

BASE = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, U), anc(U, Y).
par(ann, bob).  par(bob, cal).
"""


def log_lines(store):
    if not os.path.exists(store.log_path):
        return []
    with open(store.log_path, "rb") as handle:
        return [line for line in handle.read().split(b"\n") if line.strip()]


class TestFactWire:
    def test_round_trip_plain_and_quoted_constants(self):
        session = Session('p(ann, 3). p("weird str", 4). p(bob, -1).')
        for fact in session.facts:
            assert fact_from_wire(fact_to_wire(fact)) == fact

    def test_wire_form_is_json_native(self):
        session = Session('p("has, comma", 3).')
        wire = fact_to_wire(session.facts[0])
        assert json.loads(json.dumps(wire)) == wire


class TestBootstrapAndReplay:
    def test_bootstrap_writes_snapshot_zero(self, tmp_path):
        store = DurableStore(tmp_path)
        assert not store.has_state()
        session, report = store.restore(BASE)
        assert report.bootstrapped and not report.snapshot_loaded
        assert store.has_state()
        assert session.query("anc(ann, Z)") == {("bob",), ("cal",)}
        # The seed itself is durable: a second store needs no source.
        again, report2 = DurableStore(tmp_path).restore()
        assert not report2.bootstrapped and report2.snapshot_loaded
        assert again.query("anc(ann, Z)") == {("bob",), ("cal",)}

    def test_restore_without_state_or_source_raises(self, tmp_path):
        with pytest.raises(ValueError):
            DurableStore(tmp_path).restore()

    def test_acknowledged_writes_replay_after_hard_kill(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore(BASE)
        session.add_facts("par(cal, dee).")
        store.record("add_facts", "par(cal, dee).")
        session.add_rules("desc(X, Y) <- anc(Y, X).")
        store.record("add_rules", "desc(X, Y) <- anc(Y, X).")
        # Hard kill: no close(), no compaction — just reopen the directory.
        restored, report = DurableStore(tmp_path).restore()
        assert report.records_replayed == 2 and report.torn_tail_dropped == 0
        assert restored.query("anc(ann, Z)") == session.query("anc(ann, Z)")
        assert restored.query("desc(dee, ann)") == {()}
        assert restored.db_version == session.db_version

    def test_structured_fact_payloads_replay(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore('p("weird str", 3).')
        extra = Session('p("a, b", 9).').facts
        session.add_facts(extra)
        store.record("add_facts", extra)
        restored, _ = DurableStore(tmp_path).restore()
        assert restored.query("p(X, Y)") == session.query("p(X, Y)")

    def test_torn_final_record_is_dropped_and_truncated(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore(BASE)
        session.add_facts("par(cal, dee).")
        store.record("add_facts", "par(cal, dee).")
        store.close()
        # Simulate a crash mid-append: half a JSON object, no newline.
        with open(store.log_path, "ab") as handle:
            handle.write(b'{"seq": 2, "op": "add_fa')
        restored, report = DurableStore(tmp_path).restore()
        assert report.records_replayed == 1
        assert report.torn_tail_dropped == 1
        assert restored.query("anc(ann, Z)") == {("bob",), ("cal",), ("dee",)}
        # The tail was truncated away: a further reopen sees a clean log.
        _, report2 = DurableStore(tmp_path).restore()
        assert report2.torn_tail_dropped == 0

    def test_unterminated_but_parseable_tail_is_treated_as_torn(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore(BASE)
        session.add_facts("par(cal, dee).")
        store.record("add_facts", "par(cal, dee).")
        store.close()
        # A record that parses but lost its newline commit marker.
        with open(store.log_path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.truncate()  # chop the final \n
        _, report = DurableStore(tmp_path).restore()
        assert report.torn_tail_dropped == 1
        assert report.records_replayed == 0

    def test_mid_log_damage_raises(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore(BASE)
        for fact in ("par(cal, dee).", "par(dee, eve)."):
            session.add_facts(fact)
            store.record("add_facts", fact)
        store.close()
        lines = log_lines(store)
        assert len(lines) == 2
        with open(store.log_path, "wb") as handle:
            handle.write(b"garbage not json\n" + lines[1] + b"\n")
        with pytest.raises(LogCorruptionError):
            DurableStore(tmp_path).restore()

    def test_sequence_gap_raises(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore(BASE)
        for fact in ("par(cal, dee).", "par(dee, eve)."):
            session.add_facts(fact)
            store.record("add_facts", fact)
        store.close()
        lines = log_lines(store)
        with open(store.log_path, "wb") as handle:
            handle.write(lines[1] + b"\n")  # record 1 missing
        with pytest.raises(LogCorruptionError):
            DurableStore(tmp_path).restore()

    def test_damaged_snapshot_raises(self, tmp_path):
        store = DurableStore(tmp_path)
        store.restore(BASE)
        with open(store.snapshot_path, "w") as handle:
            handle.write("{not json")
        with pytest.raises(LogCorruptionError):
            DurableStore(tmp_path).restore()

    @pytest.mark.parametrize(
        "bad_fact", [["goal", [1]], ["anc", ["ann", "bob"]]], ids=["goal-fact", "idb-fact"]
    )
    def test_invalid_snapshot_program_is_rejected(self, tmp_path, bad_fact):
        # Restore validates the snapshot's facts once (through Program);
        # the session it builds skips the walk but not the rejection.
        store = DurableStore(tmp_path)
        store.restore(BASE)
        with open(store.snapshot_path) as handle:
            snapshot = json.load(handle)
        snapshot["facts"].append(bad_fact)
        with open(store.snapshot_path, "w") as handle:
            json.dump(snapshot, handle)
        with pytest.raises(ProgramError):
            DurableStore(tmp_path).restore()

    def test_unknown_snapshot_format_raises(self, tmp_path):
        store = DurableStore(tmp_path)
        store.restore(BASE)
        with open(store.snapshot_path) as handle:
            snapshot = json.load(handle)
        snapshot["format"] = 99
        with open(store.snapshot_path, "w") as handle:
            json.dump(snapshot, handle)
        with pytest.raises(LogCorruptionError):
            DurableStore(tmp_path).restore()


class TestCompaction:
    def test_compaction_truncates_log_and_preserves_state(self, tmp_path):
        store = DurableStore(tmp_path, snapshot_every=3)
        session, _ = store.restore("t(X, Y) <- e(X, Y). t(X, Y) <- t(X, U), e(U, Y). e(0, 1).")
        for nxt in range(2, 6):
            fact = f"e({nxt - 1}, {nxt})."
            session.add_facts(fact)
            store.record("add_facts", fact)
            if store.should_compact():
                store.compact(session)
        assert store.snapshots_written >= 2  # bootstrap + at least one compaction
        assert len(log_lines(store)) < 4  # log was truncated mid-run
        restored, report = DurableStore(tmp_path).restore()
        assert restored.query("t(0, Z)") == session.query("t(0, Z)")
        assert report.records_skipped == 0

    def test_crash_between_snapshot_and_truncate_replays_clean(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore(BASE)
        session.add_facts("par(cal, dee).")
        store.record("add_facts", "par(cal, dee).")
        # Crash signature: new snapshot written, log NOT yet truncated.
        store._write_snapshot(session, seq=store.seq)
        store.close()
        assert len(log_lines(store)) == 1  # the already-absorbed record remains
        restored, report = DurableStore(tmp_path).restore()
        assert report.records_skipped == 1 and report.records_replayed == 0
        assert restored.query("anc(ann, Z)") == session.query("anc(ann, Z)")

    def test_restore_compacts_an_oversized_log(self, tmp_path):
        store = DurableStore(tmp_path, snapshot_every=2)
        session, _ = store.restore(BASE)
        for name in ("dee", "eve", "fay"):
            fact = f"par(cal, {name})."
            session.add_facts(fact)
            store.record("add_facts", fact)
        store.close()  # crash-loop shape: 3 records, never compacted
        store2 = DurableStore(tmp_path, snapshot_every=2)
        _, report = store2.restore()
        assert report.records_replayed == 3
        assert len(log_lines(store2)) == 0  # boot compacted the backlog

    def test_fsync_batching_counts(self, tmp_path):
        eager = DurableStore(tmp_path / "eager")
        session, _ = eager.restore(BASE)
        for i in range(3):
            eager.record("add_facts", f"par(cal, p{i}).")
        assert eager.fsyncs == 3  # interval 0: every record synced
        lazy = DurableStore(tmp_path / "lazy", fsync_interval=60.0)
        lazy.restore(BASE)
        for i in range(3):
            lazy.record("add_facts", f"par(cal, p{i}).")
        assert lazy.fsyncs <= 1  # group commit window still open
        lazy.sync()
        assert lazy.fsyncs >= 1

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurableStore(tmp_path, snapshot_every=0)
        with pytest.raises(ValueError):
            DurableStore(tmp_path, fsync_interval=-1.0)
        store = DurableStore(tmp_path)
        with pytest.raises(ValueError):
            store.record("drop_table", "oops")


class TestSharedSessionDurability:
    def test_shared_session_writes_land_in_the_log(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore(BASE)
        shared = SharedSession(session=session, store=store)
        shared.add_facts("par(cal, dee).")
        shared.add_rules("desc(X, Y) <- anc(Y, X).")
        answers = shared.query("anc(ann, Z)")
        shared_version = shared.db_version
        store.close()
        restored, report = DurableStore(tmp_path).restore()
        assert report.records_replayed == 2
        assert restored.query("anc(ann, Z)") == answers
        assert restored.query("desc(dee, ann)") == {()}
        assert restored.db_version == shared_version

    def test_rejected_writes_are_not_logged(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore(BASE)
        shared = SharedSession(session=session, store=store)
        with pytest.raises(Exception):
            shared.add_facts("anc(x, y).")  # IDB predicate: rejected
        assert store.appends == 0
        assert len(log_lines(store)) == 0

    def test_no_op_writes_are_not_logged(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore(BASE)
        shared = SharedSession(session=session, store=store)
        version = shared.db_version
        shared.add_facts("")  # empty batch: commits nothing
        shared.add_rules("")
        assert shared.db_version == version
        assert store.appends == 0

    def test_shared_session_compacts_at_threshold(self, tmp_path):
        store = DurableStore(tmp_path, snapshot_every=2)
        session, _ = store.restore(BASE)
        shared = SharedSession(session=session, store=store)
        for name in ("dee", "eve", "fay", "gus"):
            shared.add_facts(f"par(cal, {name}).")
        assert store.snapshots_written >= 2  # bootstrap + in-band compaction
        assert shared.stats()["persistence"]["snapshots_written"] >= 2
        restored, _ = DurableStore(tmp_path).restore()
        assert restored.query("anc(ann, Z)") == shared.query("anc(ann, Z)")

    def test_stats_surface_persistence_section(self, tmp_path):
        store = DurableStore(tmp_path)
        session, _ = store.restore(BASE)
        shared = SharedSession(session=session, store=store)
        shared.add_facts("par(cal, dee).")
        stats = shared.stats()
        assert stats["persistence"]["appends"] == 1
        assert stats["persistence"]["replay"]["bootstrapped"] is True
        assert json.dumps(stats)  # whole payload stays JSON-safe


class TestSingleWriterLock:
    """The O_EXCL pidfile: one data directory, one appending store."""

    def test_second_writer_is_refused(self, tmp_path):
        first = DurableStore(tmp_path)
        session, _ = first.restore(BASE)
        session.add_facts("par(cal, dee).")
        first.record("add_facts", "par(cal, dee).")  # takes the lock lazily
        assert first.locked
        second = DurableStore(tmp_path)
        with pytest.raises(LogLockedError):
            second.acquire_lock()
        with pytest.raises(LogLockedError):
            second.record("add_facts", "par(cal, eve).")
        # Releasing the lock hands the directory to the next writer.
        first.close()
        assert not first.locked
        second.acquire_lock()
        assert second.locked
        second.close()

    def test_eager_acquire_is_idempotent(self, tmp_path):
        store = DurableStore(tmp_path)
        store.restore(BASE)
        store.acquire_lock()
        store.acquire_lock()  # no-op, not an error
        assert store.locked
        store.close()

    def test_stale_lock_from_dead_pid_is_stolen(self, tmp_path):
        import subprocess
        import sys

        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()  # reaped: the pid no longer names a live process
        store = DurableStore(tmp_path)
        store.restore(BASE)
        with open(store.lock_path, "w") as handle:
            handle.write(f"{probe.pid}\n")
        store.acquire_lock()  # hard-killed predecessor: steal, don't fail
        assert store.locked
        store.close()

    def test_read_only_store_never_locks_or_appends(self, tmp_path):
        writer = DurableStore(tmp_path)
        session, _ = writer.restore(BASE)
        session.add_facts("par(cal, dee).")
        writer.record("add_facts", "par(cal, dee).")
        follower = DurableStore(tmp_path, read_only=True)
        restored, _ = follower.restore()
        assert restored.query("anc(ann, Z)") == {("bob",), ("cal",), ("dee",)}
        with pytest.raises(LogLockedError):
            follower.acquire_lock()
        with pytest.raises(LogLockedError):
            follower.record("add_facts", "par(cal, eve).")
        with pytest.raises(LogLockedError):
            follower.compact(restored)
        assert writer.locked  # the follower never disturbed the writer
        writer.close()

    def test_read_only_restore_leaves_torn_tail_on_disk(self, tmp_path):
        writer = DurableStore(tmp_path)
        session, _ = writer.restore(BASE)
        session.add_facts("par(cal, dee).")
        writer.record("add_facts", "par(cal, dee).")
        writer.sync()
        # A torn tail as seen mid-append by a concurrent follower read.
        with open(writer.log_path, "ab") as handle:
            handle.write(b'{"seq": 2, "op": "add_fa')
        size_before = os.path.getsize(writer.log_path)
        follower = DurableStore(tmp_path, read_only=True)
        _, report = follower.restore()
        assert report.torn_tail_dropped == 1
        # Dropped in memory only: the writer's file is not truncated
        # out from under its live append handle.
        assert os.path.getsize(writer.log_path) == size_before

    def test_read_only_cannot_bootstrap(self, tmp_path):
        follower = DurableStore(tmp_path, read_only=True)
        with pytest.raises(ValueError, match="read-only"):
            follower.restore(BASE)

    def test_stats_expose_lock_state(self, tmp_path):
        store = DurableStore(tmp_path)
        store.restore(BASE)
        assert store.stats()["locked"] is False
        store.acquire_lock()
        assert store.stats()["locked"] is True
        assert store.stats()["read_only"] is False
        store.close()
