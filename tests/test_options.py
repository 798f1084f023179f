"""The two option values (``repro.options``) and the entry points built on them."""

import dataclasses
import inspect
import pickle

import pytest

from repro.cluster import evaluate_cluster
from repro.cluster.spec import JobSpecMemo
from repro.core.rulegoal import build_rule_goal_graph
from repro.core.sips import greedy_sip
from repro.options import (
    EvalOptions,
    RetryPolicy,
    RuntimeOptions,
    session_keywords,
)
from repro.runtime import evaluate_pool
from repro.service import SharedSession
from repro.service.replication import ReplicaSetConfig
from repro.session import Session
from repro.workloads import ancestor_program

KB = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, U), anc(U, Y). par(ann, bob)."

#: Entry-point parameters that are inputs, not options.
INPUTS = {"source", "program", "query_goal", "fault_plan", "graph", "database",
          "bindings", "client"}

#: Today's keyword spellings of the RuntimeOptions fields that have others.
SPELLINGS = {
    "retry": {"retry", "retries", "backoff", "backoff_factor", "jitter"},
    "cluster_address": {"cluster_address", "address"},
    "cluster_listen": {"cluster_listen", "listen"},
}


def field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def keywords(entry) -> set:
    return set(inspect.signature(entry).parameters) - INPUTS


class TestOneSetOfOptions:
    def test_session_takes_exactly_the_two_values_and_its_cache_size(self):
        # batch_size and edb_shards are taken by evaluate_pool and
        # evaluate_cluster only; a Session runs with their defaults.
        runtime = field_names(RuntimeOptions) - {"retry", "batch_size", "edb_shards"}
        runtime |= {"retries", "backoff", "backoff_factor", "jitter"}
        assert keywords(Session) == field_names(EvalOptions) | runtime | {"graph_cache_size"}

    @pytest.mark.parametrize("entry", [evaluate_pool, evaluate_cluster],
                             ids=["evaluate_pool", "evaluate_cluster"])
    def test_sharded_entry_points_take_a_subset(self, entry):
        union = field_names(EvalOptions) | field_names(RuntimeOptions)
        union |= set().union(*SPELLINGS.values()) | {"graph_cache_size"}
        assert keywords(entry) <= union

    def test_session_keywords_rebuild_both_values(self):
        options = EvalOptions(coalesce=True, package_requests=True, planner="cost")
        runtime = RuntimeOptions(
            "pool",
            3,
            retry=RetryPolicy(2, 0.5),
            fallback="inprocess",
            heartbeat_interval=0.5,
            timeout=30.0,
        )
        session = Session(KB, **session_keywords(options, runtime))
        assert (session.options, session.runtime_options) == (options, runtime)

    @pytest.mark.parametrize("field", ["batch_size", "edb_shards"])
    def test_session_keywords_refuse_what_a_session_cannot_take(self, field):
        with pytest.raises(ValueError, match=f"default {field}"):
            session_keywords(EvalOptions(), RuntimeOptions(**{field: 8}))

    def test_runtime_options_are_never_part_of_the_cache_key(self):
        plain = Session(KB)
        elsewhere = Session(KB, runtime="pool", workers=2, timeout=9.0, retries=3)
        assert plain.cache_key_for("anc(ann, Z)") == elsewhere.cache_key_for("anc(ann, Z)")
        assert Session(KB, coalesce=True).cache_key_for("anc(ann, Z)") != (
            plain.cache_key_for("anc(ann, Z)")
        )

    def test_session_attributes_read_the_values(self):
        session = Session(KB, coalesce=True, runtime="pool", workers=2)
        assert (session.coalesce, session.sip_factory, session.runtime) == (
            True, greedy_sip, "pool"
        )


BAD = [
    ("planner", "bogus", lambda: EvalOptions(planner="bogus")),
    ("fallback", "bogus", lambda: RuntimeOptions(fallback="bogus")),
    ("runtime", "threads", lambda: RuntimeOptions(runtime="threads")),
    ("workers", 0, lambda: RuntimeOptions(workers=0)),
]

ENTRIES = {
    "Session": lambda **kw: Session(KB, **kw),
    "SharedSession": lambda **kw: SharedSession(KB, **kw),
    "evaluate_pool": lambda **kw: evaluate_pool(ancestor_program(), **kw),
    "evaluate_cluster": lambda **kw: evaluate_cluster(ancestor_program(), **kw),
}
ACCEPTS = {
    "Session": field_names(EvalOptions) | field_names(RuntimeOptions),
    "SharedSession": field_names(EvalOptions) | field_names(RuntimeOptions),
    "evaluate_pool": keywords(evaluate_pool),
    "evaluate_cluster": keywords(evaluate_cluster),
}


CASES = [
    pytest.param(entry, keyword, value, reference, id=f"{entry}-{keyword}")
    for keyword, value, reference in BAD
    for entry in ENTRIES
    if keyword in ACCEPTS[entry]
]


@pytest.mark.parametrize("entry, keyword, value, reference", CASES)
def test_every_entry_point_rejects_a_bad_value_with_one_message(
    entry, keyword, value, reference
):
    with pytest.raises(ValueError) as expected:
        reference()
    with pytest.raises(ValueError) as raised:
        ENTRIES[entry](**{keyword: value})
    assert str(raised.value) == str(expected.value)


class TestRanges:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RetryPolicy(max_attempts=0),
            lambda: RetryPolicy(backoff=-1.0),
            lambda: RuntimeOptions(batch_size=0),
            lambda: RuntimeOptions(edb_shards=0),
            lambda: RuntimeOptions(heartbeat_interval=0.0),
            lambda: RuntimeOptions(timeout=0.0),
            lambda: RuntimeOptions(cluster_address="h:1", cluster_listen="h:2"),
            lambda: ReplicaSetConfig(replicas=0),
            lambda: ReplicaSetConfig(warmup_queries=-1),
            lambda: ReplicaSetConfig(front_cache_size=-1),
            lambda: RetryPolicy(backoff_factor=float("nan")),
            lambda: RuntimeOptions(heartbeat_interval=float("nan")),
            lambda: RuntimeOptions(timeout=float("nan")),
        ],
        ids=["max-attempts", "backoff", "batch-size", "edb-shards", "heartbeat",
             "timeout", "cluster-address-and-listen", "replicas", "warmup-queries",
             "front-cache-size", "backoff-factor-nan", "heartbeat-nan", "timeout-nan"],
    )
    def test_out_of_range_value_is_refused_at_construction(self, build):
        with pytest.raises(ValueError):
            build()

    def test_durable_store_refuses_a_nan_fsync_interval(self, tmp_path):
        from repro.service import DurableStore

        with pytest.raises(ValueError, match="fsync_interval must be >= 0, got nan"):
            DurableStore(tmp_path, fsync_interval=float("nan"))

    def test_zero_warmup_and_front_cache_stay_valid(self):
        config = ReplicaSetConfig(warmup_queries=0, front_cache_size=0)
        assert (config.warmup_queries, config.front_cache_size) == (0, 0)


class TestShardedProvenance:
    def test_pool_attempts_do_not_record_provenance(self, monkeypatch):
        # Nothing reads a shard's first-derivation records (explain needs
        # the simulator's network), so a provenance session's pool attempts
        # must not pay for them.
        from repro.runtime import pool_engine

        engines = []

        class Recording(pool_engine.MessagePassingEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(pool_engine, "MessagePassingEngine", Recording)
        session = Session(KB, provenance=True, runtime="pool", workers=2, timeout=60)
        assert session.query("anc(ann, Z)") == {("bob",)}
        assert engines and not any(engine.options.provenance for engine in engines)
        assert not any(
            process.record_provenance
            for engine in engines
            for process in engine.scheduler.processes()
        )


class TestPlanPart:
    def test_ships_the_options_value_with_a_picklable_sip(self):
        program = ancestor_program()
        graph = build_rule_goal_graph(program)
        options = EvalOptions(lambda rule, head: greedy_sip(rule, head), package_requests=True)
        part = JobSpecMemo().plan(program, graph, options, True, 3)
        spec = pickle.loads(part.blob)
        assert spec["options"] == dataclasses.replace(options, sip_factory=greedy_sip)
        assert spec["edb_shards"] == 3
