"""Materialized queries: warm networks, delta refresh, lifecycle.

The tentpole contract: ``Session.materialize`` retains the evaluated
network after its fixpoint; each committed ``add_facts`` feeds delta
tuples to every live materialization and ``refresh()`` re-runs monotone
propagation to convergence, so answers after any write sequence equal a
cold evaluation against the grown base (classic semi-naive soundness).
``add_rules`` with new rules invalidates — the network embeds the IDB
fingerprint.
"""

import pytest

from repro.core.program import ProgramError
from repro.session import (
    MaterializedQueryClosed,
    PreparedQuery,
    Session,
)

BASE = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, U), anc(U, Y).
par(ann, bob).  par(bob, cal).
"""


def cold_answers(session, query):
    """From-scratch evaluation via a fresh session over the same base."""
    fresh = Session(
        "", sip_factory=session.sip_factory, coalesce=session.coalesce
    )
    fresh.add_rules(session.rules)
    fresh.add_facts(session.facts)
    return fresh.query(query)


class TestPreparedQuery:
    def test_prepare_is_idempotent(self):
        s = Session(BASE)
        prepared = s.prepare("anc(ann, Z)")
        assert isinstance(prepared, PreparedQuery)
        assert s.prepare(prepared) is prepared

    def test_prepared_key_matches_cache_key(self):
        s = Session(BASE)
        prepared = s.prepare("anc(ann, Z)")
        assert prepared.key == s.cache_key_for("anc(ann, Z)")
        # Variant queries share the key (Theorem 2.1 signature).
        assert s.cache_key_for(prepared) == s.cache_key_for("anc(ann, W)")

    def test_prepared_query_evaluates_identically(self):
        s = Session(BASE)
        prepared = s.prepare("anc(ann, Z)")
        assert s.query(prepared) == s.query("anc(ann, Z)")

    def test_prepare_rejects_goal_predicate(self):
        s = Session(BASE)
        with pytest.raises(ProgramError):
            s.prepare("goal(X)")

    def test_stale_fingerprint_recomputes_key(self):
        s = Session(BASE)
        prepared = s.prepare("anc(ann, Z)")
        s.add_rules("anc2(X, Y) <- anc(X, Y).")
        # The old key was computed against the old IDB fingerprint; the
        # session must not trust it, and evaluation must still work.
        assert s.cache_key_for(prepared) == s.cache_key_for("anc(ann, Z)")
        assert s.query(prepared) == {("bob",), ("cal",)}


class TestMaterializedLifecycle:
    def test_initial_answers_match_plain_query(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        assert mat.answers == s.query("anc(ann, Z)")
        assert not mat.stale
        assert mat.version == s.db_version

    def test_refresh_without_writes_is_a_noop(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        result = mat.result
        assert mat.refresh() is result
        assert mat.refreshes == 0

    def test_add_facts_marks_stale_and_refresh_converges(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        s.add_facts("par(cal, dee). par(dee, eve).")
        assert mat.stale
        result = mat.refresh()
        assert result.incremental
        assert not mat.stale
        assert mat.version == s.db_version
        assert mat.answers == {("bob",), ("cal",), ("dee",), ("eve",)}
        assert mat.answers == cold_answers(s, "anc(ann, Z)")

    def test_multiple_write_batches_coalesce_into_one_refresh(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        s.add_facts("par(cal, dee).")
        s.add_facts("par(dee, eve).")
        s.add_facts("par(eve, fay).")
        mat.refresh()
        assert mat.refreshes == 1  # one wave over the merged delta
        assert mat.answers == cold_answers(s, "anc(ann, Z)")

    def test_delta_creating_cycle_converges(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        s.add_facts("par(cal, ann).")  # closes a cycle through the root
        mat.refresh()
        assert mat.answers == cold_answers(s, "anc(ann, Z)")
        assert ("ann",) in mat.answers

    def test_irrelevant_delta_changes_nothing(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        before = set(mat.answers)
        s.add_facts("par(zoe, zed).")  # unreachable from ann
        mat.refresh()
        assert mat.answers == before
        assert mat.answers == cold_answers(s, "anc(ann, Z)")

    def test_add_rules_facts_only_feeds_delta(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        s.add_rules("par(cal, dee).")  # facts-only: network stays valid
        assert not mat.closed and mat.stale
        mat.refresh()
        assert ("dee",) in mat.answers

    def test_add_rules_with_rules_closes(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        s.add_rules("anc2(X, Y) <- anc(X, Y).")
        assert mat.closed
        with pytest.raises(MaterializedQueryClosed):
            mat.refresh()

    def test_close_is_idempotent_and_detaches(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        mat.close()
        mat.close()
        s.add_facts("par(cal, dee).")  # must not reach the closed instance
        assert not mat.stale

    def test_dropping_the_handle_releases_registration(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        assert len(s._materialized) == 1
        del mat
        import gc

        gc.collect()
        s.add_facts("par(cal, dee).")  # no live materialization to feed
        assert len(s._materialized) == 0

    def test_multiprocess_runtime_rejected(self):
        s = Session(BASE, runtime="pool")
        with pytest.raises(ValueError, match="simulator"):
            s.materialize("anc(ann, Z)")

    def test_two_materializations_fed_independently(self):
        s = Session(BASE)
        down = s.materialize("anc(ann, Z)")
        up = s.materialize("anc(X, cal)")
        s.add_facts("par(cal, dee).")
        down.refresh()
        up.refresh()
        assert down.answers == cold_answers(s, "anc(ann, Z)")
        assert up.answers == cold_answers(s, "anc(X, cal)")


class TestIncrementalResultAccounting:
    def test_refresh_is_cheaper_than_cold_evaluation(self):
        edges = [f"par(n{i}, n{i + 1})." for i in range(120)]
        s = Session(
            "anc(X, Y) <- par(X, Y).\n"
            "anc(X, Y) <- par(X, U), anc(U, Y).\n" + "\n".join(edges)
        )
        mat = s.materialize("anc(n0, Z)")
        s.add_facts("par(n120, n121).")
        refreshed = mat.refresh()
        cold = s.run_query("anc(n0, Z)")
        assert refreshed.answers == cold.answers
        # The wave's message count must reflect only the delta work.
        assert refreshed.total_messages < cold.total_messages / 5

    def test_refresh_result_reports_incremental_flag(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        assert not mat.result.incremental
        s.add_facts("par(cal, dee).")
        assert mat.refresh().incremental


class TestNoopAndReportedWaves:
    """A wave says what it added; one that reaches nothing costs nothing."""

    def noop_batches(self):
        # Irrelevant predicate, a subtree no stream asked about, a duplicate.
        return ["other(1, 2).", "par(zed, yan).", "par(ann, bob)."]

    def test_noop_wave_zero_counters_same_answers_object(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        cold = mat.result
        for batch in self.noop_batches():
            answers = mat.answers
            s.add_facts(batch)
            result = mat.refresh()
            assert result.answers is answers, batch
            assert result.incremental and result.new_answers == frozenset()
            assert (result.total_messages, result.physical_messages) == (0, 0)
            assert (result.computation_messages, result.protocol_messages) == (0, 0)
            assert result.stats.by_kind == {} and result.stats.tuple_set_rows == 0
            assert (
                result.db_scans, result.db_indexed_lookups, result.db_rows_retrieved
            ) == (0, 0, 0)
            # Storage counters describe the retained network: unchanged.
            assert result.tuples_stored == cold.tuples_stored
            assert result.tuples_by_node == cold.tuples_by_node
            assert result.probe_lookups == cold.probe_lookups
            assert result.protocol_violations == []
            assert mat.version == s.db_version and not mat.stale
        assert (mat.refreshes, mat.noop_refreshes) == (3, 3)
        assert mat.answers == cold_answers(s, "anc(ann, Z)")

    def test_noop_wave_skips_the_per_node_collection(self, monkeypatch):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        monkeypatch.setattr(
            mat._engine, "_collect_result", lambda *a: pytest.fail("collected")
        )
        s.add_facts("par(zed, yan).")
        assert mat.refresh().total_messages == 0

    def test_deriving_wave_reports_exactly_the_new_rows(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        assert mat.result.new_answers is None  # cold: every answer is new
        before = set(mat.answers)
        s.add_facts("par(cal, dee). par(dee, eve). par(ann, bob).")
        result = mat.refresh()
        assert result.new_answers == {("dee",), ("eve",)}
        assert result.answers == before | result.new_answers
        assert result.total_messages > 0 and mat.noop_refreshes == 0
        assert (mat.previous_version, mat.version) == (0, 1)

    def test_row_by_row_kernels_report_new_rows_too(self):
        s = Session(BASE, tuple_sets=False)
        mat = s.materialize("anc(ann, Z)")
        s.add_facts("par(cal, dee). par(dee, eve).")
        assert mat.refresh().new_answers == {("dee",), ("eve",)}

    def test_a_wave_after_a_noop_wave_still_derives(self):
        s = Session(BASE)
        mat = s.materialize("anc(ann, Z)")
        s.add_facts("par(zed, yan).")
        mat.refresh()
        s.add_facts("par(cal, zed).")  # now the earlier fact matters
        result = mat.refresh()
        assert result.new_answers == {("zed",), ("yan",)}
        assert mat.answers == cold_answers(s, "anc(ann, Z)")
