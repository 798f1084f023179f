"""Chaos suite: the pool runtime under deterministic fault injection.

Every entry in the matrix — worker killed mid-query, worker wedged (alive
but silent), node code raising, STOP sentinel dropped during teardown, a
slowed channel — must end one of exactly two ways:

* the run completes (possibly via retry or degradation) with the **same
  answer set as the in-process runtime** — whole-query re-execution is
  sound because evaluation is monotone set-semantics Datalog and every
  node deduplicates; or
* a **typed** supervision error (``WorkerCrashError`` / ``WorkerStallError``
  / ``EvaluationTimeout``) surfaces promptly — never a bare hang that eats
  the full 120s default deadline.

Either way teardown must leave no live child processes behind.

The ``[mp]`` ids and ``TestSessionRuntimes::test_mp_session_matches_simulator``
keep a retired name: the one-OS-process-per-node runtime they once drove
is gone, and the ``mp`` column now runs the pool at ``workers=4,
batch_size=1`` — a second placement beside the ``pool`` column's two
workers and default batches.
"""

import multiprocessing as mp
import random
import signal
import sys
import time

import pytest

from repro.network.engine import evaluate
from repro.runtime import (
    EvaluationTimeout,
    FaultPlan,
    RetryPolicy,
    RuntimeFailure,
    ServiceFaultPlan,
    WorkerCrashError,
    WorkerStallError,
    evaluate_pool,
)
from repro.runtime.supervision import Supervisor, run_with_retry
from repro.session import Session
from repro.workloads import chain_edges, left_recursive_tc_program
from tests.helpers import oracle_answers, with_tables

pytestmark = pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="fork start method required"
)

#: Worst-case gap between a healthy worker's heartbeats in these tests.
#: Detection latency for a wedged worker is bounded by 2× this.
HEARTBEAT = 0.3

#: Generous wall-clock bound for "detected promptly": covers fork/startup
#: and the fault's own trigger latency, but is far below the 60s attempt
#: timeouts used here (and the 120s default a hang used to burn).
PROMPT = 15.0


def make_program():
    return with_tables(left_recursive_tc_program(0), {"e": chain_edges(10)})


@pytest.fixture(scope="module")
def expected():
    """The in-process runtime's answers — the parity oracle for every fault."""
    program = make_program()
    answers = evaluate(program).answers
    assert answers == oracle_answers(program)
    return answers


#: Two pool placements, normalized to runner(program, **fault_kwargs).
#: Worker index 0 always receives traffic: the pool puts the driver on
#: shard 0.
RUNNERS = {
    "pool": lambda program, **kw: evaluate_pool(
        program, workers=2, timeout=kw.pop("timeout", 60), **kw
    ),
    "mp": lambda program, **kw: evaluate_pool(
        program, workers=4, batch_size=1, timeout=kw.pop("timeout", 60), **kw
    ),
}

RUNTIME_PARAMS = sorted(RUNNERS)


@pytest.fixture(autouse=True)
def watchdog():
    """Backstop alarm: a chaos test that hangs must fail, not stall the job."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("platform lacks SIGALRM; chaos watchdog unavailable")

    def on_alarm(signum, frame):
        raise TimeoutError("chaos test exceeded its per-test timeout")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(90)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_stray_children(grace: float = 5.0) -> None:
    """Teardown must reap every worker."""
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        children = mp.active_children()  # also joins finished processes
        if not children:
            return
        time.sleep(0.05)
    pytest.fail(f"zombie child processes left behind: {mp.active_children()}")


@pytest.mark.parametrize("runtime", RUNTIME_PARAMS)
class TestCrashDetection:
    def test_killed_worker_raises_typed_error_promptly(self, runtime):
        started = time.monotonic()
        with pytest.raises(WorkerCrashError) as info:
            RUNNERS[runtime](
                make_program(),
                fault_plan=FaultPlan(kill_worker=0, kill_after=2),
            )
        elapsed = time.monotonic() - started
        assert elapsed < PROMPT, f"crash took {elapsed:.1f}s to surface"
        # A hard os._exit(1) leaves no traceback, only the where/exit code.
        assert "crashed" in str(info.value)
        assert_no_stray_children()

    def test_in_node_exception_ships_remote_traceback(self, runtime):
        # The worker catches the injected error, posts a structured
        # ("error", where, traceback) payload, and the supervisor re-raises
        # it driver-side with the remote traceback attached.
        with pytest.raises(WorkerCrashError) as info:
            RUNNERS[runtime](
                make_program(),
                fault_plan=FaultPlan(raise_in_node="t(", raise_after=1),
            )
        assert info.value.remote_traceback is not None
        assert "FaultInjectedError" in info.value.remote_traceback
        # The faulting node's label rides in the traceback; ``where`` names
        # the failing worker (its shard).
        assert "t(" in info.value.remote_traceback
        assert info.value.where
        assert_no_stray_children()

    def test_wedged_worker_raises_stall_within_heartbeat_bound(self, runtime):
        started = time.monotonic()
        with pytest.raises(WorkerStallError) as info:
            RUNNERS[runtime](
                make_program(),
                fault_plan=FaultPlan(wedge_worker=0, wedge_after=2),
                heartbeat_interval=HEARTBEAT,
            )
        elapsed = time.monotonic() - started
        assert elapsed < PROMPT, f"stall took {elapsed:.1f}s to surface"
        assert info.value.stalled_for >= 2 * HEARTBEAT
        assert_no_stray_children()

    def test_wedged_worker_without_heartbeat_hits_timeout(self, runtime):
        # No heartbeat interval → no stall detection; the global deadline
        # is the only net, and it must catch a TimeoutError subclass so
        # pre-supervision callers keep working.
        started = time.monotonic()
        with pytest.raises(TimeoutError) as info:
            RUNNERS[runtime](
                make_program(),
                fault_plan=FaultPlan(wedge_worker=0, wedge_after=2),
                timeout=2,
            )
        assert isinstance(info.value, EvaluationTimeout)
        assert time.monotonic() - started < PROMPT
        assert_no_stray_children()


@pytest.mark.parametrize("runtime", RUNTIME_PARAMS)
class TestRecovery:
    def test_kill_one_worker_mid_query_recovers_via_retry(
        self, runtime, expected
    ):
        result = RUNNERS[runtime](
            make_program(),
            fault_plan=FaultPlan(kill_worker=0, kill_after=2, only_attempt=1),
            retry=2,
        )
        assert result.answers == expected
        assert result.attempts == 2
        assert not result.degraded
        assert len(result.failure_log) == 1
        assert "WorkerCrashError" in result.failure_log[0]
        assert_no_stray_children()

    def test_in_node_exception_recovers_via_retry(self, runtime, expected):
        result = RUNNERS[runtime](
            make_program(),
            fault_plan=FaultPlan(raise_in_node="t(", raise_after=1, only_attempt=1),
            retry=RetryPolicy(max_attempts=3),
        )
        assert result.answers == expected
        assert result.attempts == 2
        assert not result.degraded
        assert_no_stray_children()

    def test_persistent_fault_degrades_to_inprocess(self, runtime, expected):
        # The fault fires on *every* attempt; after retries are exhausted
        # the in-process scheduler answers, flagged as degraded.
        result = RUNNERS[runtime](
            make_program(),
            fault_plan=FaultPlan(kill_worker=0, kill_after=2),
            retry=2,
            fallback="inprocess",
        )
        assert result.answers == expected
        assert result.degraded
        assert result.attempts == 2
        assert result.failure_log[-1].startswith("degraded:")
        # The degraded result ran no worker processes at all.
        assert result.workers == 0
        assert_no_stray_children()

    def test_exhausted_retries_reraise_with_failure_log(self, runtime):
        with pytest.raises(WorkerCrashError) as info:
            RUNNERS[runtime](
                make_program(),
                fault_plan=FaultPlan(kill_worker=0, kill_after=2),
                retry=2,
            )
        log = getattr(info.value, "failure_log", None)
        assert log is not None and len(log) == 2
        assert all("attempt" in line for line in log)
        assert_no_stray_children()


@pytest.mark.parametrize("runtime", RUNTIME_PARAMS)
class TestTeardown:
    def test_dropped_stop_sentinel_is_reaped_not_hung(self, runtime, expected):
        # Teardown skips worker 1's STOP: the bounded join fails and the
        # terminate→kill escalation must reap it without blocking the query.
        started = time.monotonic()
        result = RUNNERS[runtime](
            make_program(),
            fault_plan=FaultPlan(drop_stop_for=1),
        )
        assert result.answers == expected
        assert time.monotonic() - started < PROMPT
        assert_no_stray_children()


#: Survivable-fault matrix: every plan here must leave the answers
#: byte-identical to the in-process runtime.
SURVIVABLE = {
    "slow-channel": dict(
        fault_plan=FaultPlan(delay_worker=1, delay_seconds=0.05)
    ),
    "kill-then-retry": dict(
        fault_plan=FaultPlan(kill_worker=0, kill_after=2, only_attempt=1),
        retry=2,
    ),
    "raise-then-retry": dict(
        fault_plan=FaultPlan(raise_in_node="t(", raise_after=1, only_attempt=1),
        retry=2,
    ),
    "dropped-stop": dict(fault_plan=FaultPlan(drop_stop_for=1)),
    "wedge-degrade": dict(
        fault_plan=FaultPlan(wedge_worker=0, wedge_after=2),
        heartbeat_interval=HEARTBEAT,
        retry=1,
        fallback="inprocess",
    ),
}


@pytest.mark.parametrize("fault", sorted(SURVIVABLE))
@pytest.mark.parametrize("runtime", RUNTIME_PARAMS)
class TestParityUnderFaults:
    def test_answers_match_in_process_runtime(self, runtime, fault, expected):
        result = RUNNERS[runtime](make_program(), **SURVIVABLE[fault])
        assert result.answers == expected, f"{runtime}/{fault} diverged"
        assert_no_stray_children()


class TestSessionRuntimes:
    KB = """
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, U), anc(U, Y).
    par(ann, bob).  par(bob, cal).  par(cal, dee).
    """

    def test_pool_session_matches_simulator(self):
        expected = Session(self.KB).query("anc(ann, Z)")
        pooled = Session(
            self.KB, runtime="pool", workers=2, retries=2, timeout=60
        )
        assert pooled.query("anc(ann, Z)") == expected
        assert pooled.last_result.attempts == 1
        assert not pooled.last_result.degraded

    def test_mp_session_matches_simulator(self):
        expected = Session(self.KB).query("anc(ann, Z)")
        distributed = Session(
            self.KB, runtime="pool", workers=4, retries=2, timeout=60
        )
        assert distributed.query("anc(ann, Z)") == expected

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="unknown session runtime"):
            Session(self.KB, runtime="threads")
        with pytest.raises(ValueError, match="unknown session runtime"):
            Session(self.KB, runtime="mp")

    @pytest.mark.parametrize("runtime", ["simulator", "pool", "cluster"])
    def test_unknown_fallback_rejected_at_construction(self, runtime):
        # Checked next to runtime and planner, not on the first query, and
        # under every runtime, the simulator included.
        with pytest.raises(ValueError, match="unknown fallback"):
            Session(self.KB, runtime=runtime, fallback="bogus")


# ----------------------------------------------------------------------
# In-process units: payload validation, retry driver, plan parsing.
# ----------------------------------------------------------------------


class TestSupervisorAccept:
    """The typed replacement for the old ``assert kind == "done"``."""

    def _wait(self, payload):
        import queue

        inbox = queue.Queue()
        inbox.put(payload)
        return Supervisor(workers=[], result_queue=inbox).wait(timeout=5)

    def test_done_payload_passes_through(self):
        payload = ("done", {("a",)}, {"messages": 3})
        assert self._wait(payload) is payload

    def test_error_payload_reraises_with_remote_traceback(self):
        with pytest.raises(WorkerCrashError) as info:
            self._wait(("error", "shard 1", "Traceback ...\nBoomError: x"))
        assert info.value.where == "shard 1"
        assert "BoomError" in info.value.remote_traceback

    def test_unknown_payload_kind_is_a_typed_error(self):
        # Under ``python -O`` the old assert vanished entirely; the typed
        # check must hold regardless of optimization level.
        with pytest.raises(RuntimeFailure, match="unexpected result payload"):
            self._wait(("gibberish", 1, 2))


class TestRetryDriver:
    def test_policy_normalization(self):
        assert RetryPolicy.of(None) == RetryPolicy()
        assert RetryPolicy.of(3) == RetryPolicy(max_attempts=3)
        policy = RetryPolicy(max_attempts=2, backoff=0.1)
        assert RetryPolicy.of(policy) is policy

    def test_first_attempt_success_does_not_retry(self):
        result, attempts, degraded, log = run_with_retry(
            lambda attempt: attempt, RetryPolicy(max_attempts=3)
        )
        assert (result, attempts, degraded, log) == (1, 1, False, [])

    def test_typed_failures_are_retried_deterministically(self):
        def flaky(attempt):
            if attempt < 3:
                raise WorkerCrashError(f"w{attempt}")
            return "ok"

        result, attempts, degraded, log = run_with_retry(
            flaky, RetryPolicy(max_attempts=3)
        )
        assert (result, attempts, degraded) == ("ok", 3, False)
        assert len(log) == 2

    def test_programming_errors_propagate_immediately(self):
        calls = []

        def buggy(attempt):
            calls.append(attempt)
            raise KeyError("not a runtime failure")

        with pytest.raises(KeyError):
            run_with_retry(buggy, RetryPolicy(max_attempts=3))
        assert calls == [1]

    def test_fallback_marks_degraded(self):
        def always_down(attempt):
            raise WorkerStallError("w0", stalled_for=1.0, heartbeat_interval=0.3)

        result, attempts, degraded, log = run_with_retry(
            always_down, RetryPolicy(max_attempts=2), fallback_fn=lambda: "plan-b"
        )
        assert (result, attempts, degraded) == ("plan-b", 2, True)
        assert log[-1].startswith("degraded:")

    def test_deadline_caps_attempts(self):
        def always_down(attempt):
            raise WorkerCrashError(f"w{attempt}")

        with pytest.raises(WorkerCrashError):
            run_with_retry(
                always_down, RetryPolicy(max_attempts=50, deadline=0.0)
            )


class TestFaultPlanParsing:
    def test_from_env_unset_or_none(self):
        assert FaultPlan.from_env(environ={}) is None
        assert FaultPlan.from_env(environ={"REPRO_FAULTS": "none"}) is None

    def test_from_env_round_trip(self):
        plan = FaultPlan.from_env(
            environ={"REPRO_FAULTS": '{"kill_worker": 0, "kill_after": 3}'}
        )
        assert plan == FaultPlan(kill_worker=0, kill_after=3)

    def test_from_env_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_env(environ={"REPRO_FAULTS": '{"explode": true}'})

    def test_from_env_rejects_bad_json(self):
        with pytest.raises(ValueError, match="JSON"):
            FaultPlan.from_env(environ={"REPRO_FAULTS": "{notjson"})

    def test_only_attempt_arming(self):
        plan = FaultPlan(kill_worker=0, only_attempt=2)
        assert plan.for_attempt(1) is None
        assert plan.for_attempt(2) is plan
        always = FaultPlan(kill_worker=0)
        assert always.for_attempt(1) is always
        assert always.for_attempt(7) is always


class TestBackoffSchedule:
    """RetryPolicy backoff: exponential growth, bounded jitter, quiet defaults."""

    def test_defaults_have_no_delay(self):
        policy = RetryPolicy(max_attempts=3)
        assert [policy.delay_for(a) for a in (1, 2, 3)] == [0.0, 0.0, 0.0]

    def test_exponential_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff=0.1, backoff_factor=2.0)
        assert policy.delay_for(1) == 0.0
        assert policy.delay_for(2) == pytest.approx(0.1)
        assert policy.delay_for(3) == pytest.approx(0.2)
        assert policy.delay_for(4) == pytest.approx(0.4)

    def test_constant_schedule_without_factor(self):
        policy = RetryPolicy(max_attempts=3, backoff=0.05)
        assert policy.delay_for(2) == pytest.approx(0.05)
        assert policy.delay_for(3) == pytest.approx(0.05)

    def test_jitter_is_bounded_and_seedable(self):
        policy = RetryPolicy(max_attempts=3, backoff=0.1, jitter=0.05)
        rng = random.Random(7)
        delays = [policy.delay_for(2, rng=rng) for _ in range(50)]
        assert all(0.1 <= d <= 0.15 for d in delays)
        assert len(set(delays)) > 1  # it actually jitters
        # Jitter alone (no base backoff) still spaces attempts out.
        jitter_only = RetryPolicy(max_attempts=2, jitter=0.02)
        assert 0.0 <= jitter_only.delay_for(2, rng=rng) <= 0.02

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_backoff_actually_sleeps_between_attempts(self):
        stamps = []

        def flaky(attempt):
            stamps.append(time.perf_counter())
            if attempt < 3:
                raise WorkerCrashError(f"w{attempt}")
            return "ok"

        result, attempts, _, _ = run_with_retry(
            flaky, RetryPolicy(max_attempts=3, backoff=0.05, backoff_factor=2.0)
        )
        assert (result, attempts) == ("ok", 3)
        assert stamps[1] - stamps[0] >= 0.04  # ~0.05s before attempt 2
        assert stamps[2] - stamps[1] >= 0.08  # ~0.10s before attempt 3


class TestServiceFaultPlanParsing:
    def test_from_env_unset_or_none(self):
        assert ServiceFaultPlan.from_env(environ={}) is None
        assert ServiceFaultPlan.from_env(environ={"REPRO_SERVICE_FAULTS": "none"}) is None

    def test_from_env_round_trip(self):
        plan = ServiceFaultPlan.from_env(
            environ={
                "REPRO_SERVICE_FAULTS": '{"kill_replica": "replica-1", '
                '"kill_after": 3, "only_ops": ["query"]}'
            }
        )
        assert plan == ServiceFaultPlan(
            kill_replica="replica-1", kill_after=3, only_ops=("query",)
        )

    def test_from_env_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ServiceFaultPlan fields"):
            ServiceFaultPlan.from_env(
                environ={"REPRO_SERVICE_FAULTS": '{"explode": true}'}
            )

    def test_injector_counts_served_requests(self):
        plan = ServiceFaultPlan(kill_replica="replica-0", kill_after=2)
        injector = plan.injector("replica-0")
        assert injector.on_request("query") is None
        assert injector.on_request("query") is None
        assert injector.on_request("query") == "kill"
        bystander = plan.injector("replica-1")
        for _ in range(5):
            assert bystander.on_request("query") is None

    def test_only_ops_excludes_pings(self):
        plan = ServiceFaultPlan(
            wedge_replica="replica-0", wedge_after=0, only_ops=("query",)
        )
        injector = plan.injector("replica-0")
        assert injector.on_request("ping") is None
        assert injector.on_request("query") == "wedge"

    def test_drop_count_is_transient(self):
        plan = ServiceFaultPlan(drop_replica="replica-0", drop_after=1, drop_count=2)
        injector = plan.injector("replica-0")
        assert injector.on_request("query") is None
        assert injector.on_request("query") == "drop"
        assert injector.on_request("query") == "drop"
        assert injector.on_request("query") is None  # flap over

    def test_delay_returns_seconds(self):
        plan = ServiceFaultPlan(delay_replica="replica-0", delay_seconds=0.25)
        injector = plan.injector("replica-0")
        assert injector.on_request("query") == 0.25
