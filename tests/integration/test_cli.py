"""Tests for the command-line interface."""

import sys

import pytest

from repro.cli import build_parser, main
from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "anc.dl"
    path.write_text(
        """
        goal(Z) <- anc(ann, Z).
        anc(X, Y) <- par(X, Y).
        anc(X, Y) <- par(X, U), anc(U, Y).
        par(ann, bob).  par(bob, cal).  par(cal, dee).
        """
    )
    return str(path)


class TestRun:
    def test_prints_answers(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["bob", "cal", "dee"]

    def test_stats_to_stderr(self, program_file, capsys):
        main(["run", program_file, "--stats"])
        captured = capsys.readouterr()
        assert "messages" in captured.err
        assert "messages" not in captured.out

    def test_query_override(self, program_file, capsys):
        main(["run", program_file, "--query", "anc(bob, Z)"])
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["cal", "dee"]

    def test_sip_choice(self, program_file, capsys):
        main(["run", program_file, "--sip", "all-free"])
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["bob", "cal", "dee"]

    def test_seeded_delivery(self, program_file, capsys):
        main(["run", program_file, "--seed", "9"])
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["bob", "cal", "dee"]

    def test_coalesce_and_package_flags(self, program_file, capsys):
        # Every run is coalesced: --coalesce is refused, --package a no-op.
        with pytest.raises(SystemExit) as info:
            main(["run", program_file, "--coalesce"])
        assert info.value.code == 2
        main(["run", program_file, "--package"])
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["bob", "cal", "dee"]

    def test_package_flag_changes_nothing(self, program_file, capsys):
        # Requests are always packaged; --package is accepted and ignored.
        main(["run", program_file, "--stats"])
        plain = capsys.readouterr()
        main(["run", program_file, "--stats", "--package"])
        assert capsys.readouterr() == plain


@pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="fork start method required"
)
class TestRunSupervised:
    def test_pool_runtime_with_retries(self, program_file, capsys):
        assert main(["run", program_file, "--runtime", "pool",
                     "--workers", "2", "--retries", "2", "--stats"]) == 0
        captured = capsys.readouterr()
        assert sorted(captured.out.strip().splitlines()) == ["bob", "cal", "dee"]
        assert "attempts: 1; degraded: False" in captured.err

    def test_crash_summary_on_recovered_query(self, program_file, capsys, monkeypatch):
        # Inject a first-attempt kill via the environment (the no-code chaos
        # path); the retry recovers and the CLI must say so on stderr even
        # without --stats.
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '{"kill_worker": 0, "kill_after": 2, "only_attempt": 1}',
        )
        assert main(["run", program_file, "--runtime", "pool",
                     "--workers", "2", "--retries", "2"]) == 0
        captured = capsys.readouterr()
        assert sorted(captured.out.strip().splitlines()) == ["bob", "cal", "dee"]
        assert "recovered by retry after 2 attempt(s)" in captured.err
        assert "WorkerCrashError" in captured.err

    def test_degraded_summary_on_fallback(self, program_file, capsys, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", '{"kill_worker": 0, "kill_after": 2}'
        )
        assert main(["run", program_file, "--runtime", "pool", "--workers", "2",
                     "--retries", "2", "--fallback", "inprocess"]) == 0
        captured = capsys.readouterr()
        assert sorted(captured.out.strip().splitlines()) == ["bob", "cal", "dee"]
        assert "degraded to the in-process runtime" in captured.err


class TestGraph:
    def test_prints_rule_goal_graph(self, program_file, capsys):
        assert main(["graph", program_file]) == 0
        out = capsys.readouterr().out
        assert "anc(" in out
        assert "shared node" in out  # the coalesced graph: no cyclic nodes
        assert "cycle from" not in out
        assert "strong component" in out

    def test_dot_output(self, program_file, capsys):
        assert main(["graph", program_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and out.rstrip().endswith("}")

    def test_coalesced_graph(self, program_file, capsys):
        # The graph printed is the one build_rule_goal_graph gives by default.
        assert main(["graph", program_file]) == 0
        with open(program_file) as source:
            graph = build_rule_goal_graph(parse_program(source.read()))
        assert capsys.readouterr().out.startswith(graph.pretty() + "\n")
        with pytest.raises(SystemExit) as info:
            main(["graph", program_file, "--coalesce"])
        assert info.value.code == 2

    def test_planner_cost_reaches_plan_graph(self, program_file, capsys, monkeypatch):
        import repro.cli as cli

        planners = []
        original = cli.plan_graph

        def spy(program, planner="static", *args, **kwargs):
            planners.append(planner)
            return original(program, planner, *args, **kwargs)

        monkeypatch.setattr(cli, "plan_graph", spy)
        assert main(["graph", program_file, "--planner", "cost"]) == 0
        assert planners == ["cost"]
        assert "goal nodes" in capsys.readouterr().out


class TestTrace:
    def test_prints_message_trace(self, program_file, capsys):
        assert main(["trace", program_file, "--limit", "50"]) == 0
        out = capsys.readouterr().out
        assert "relation request" in out
        assert "answers" in out

    def test_no_protocol_flag(self, program_file, capsys):
        main(["trace", program_file, "--no-protocol"])
        out = capsys.readouterr().out
        assert "end request" not in out


class TestAnalyze:
    def test_report_printed(self, program_file, capsys):
        assert main(["analyze", program_file]) == 0
        out = capsys.readouterr().out
        assert "PREDICATES" in out
        assert "linear recursive" in out
        assert "monotone flow: YES" in out

    def test_analyze_with_query_override(self, program_file, capsys):
        main(["analyze", program_file, "--query", "anc(X, dee)"])
        out = capsys.readouterr().out
        assert "anc" in out


class TestBenchSession:
    def test_reports_cache_hits_and_timing(self, program_file, capsys):
        assert main(["bench-session", program_file, "--repeat", "5"]) == 0
        out = capsys.readouterr().out
        assert "hits=4 misses=1" in out
        assert "first query (cache miss)" in out
        assert "caching speedup" in out

    def test_no_compare_skips_uncached_run(self, program_file, capsys):
        assert main(["bench-session", program_file, "--repeat", "3", "--no-compare"]) == 0
        out = capsys.readouterr().out
        assert "uncached" not in out

    def test_query_override(self, program_file, capsys):
        main(["bench-session", program_file, "--repeat", "2", "--no-compare",
              "--query", "anc(bob, Z)"])
        out = capsys.readouterr().out
        assert "anc(bob, Z)" in out
        assert "answers: 2" in out

    def test_missing_query_errors(self, tmp_path, capsys):
        path = tmp_path / "noquery.dl"
        path.write_text("p(X) <- e(X). e(1).")
        assert main(["bench-session", str(path), "--no-compare"]) == 2


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{missing}"],
            ["graph", "{dir}"],
            ["run", "{file}", "--data", "{missing}"],
            ["analyze", "{bad}"],
            ["trace", "{unsafe}"],
            ["run", "{file}", "--query", "anc(ann"],
            ["run", "{file}", "--query", "anc(ann, Z) garbage"],
            ["run", "{file}", "--query", "anc(ann, Z). anc(bob, Z)"],
        ],
        ids=["missing-file", "directory", "missing-data", "parse-error",
             "program-error", "bad-query", "query-trailing-input", "query-two-queries"],
    )
    def test_one_error_line_and_exit_2(self, argv, program_file, tmp_path, capsys):
        (tmp_path / "bad.dl").write_text("p(X) <- .")
        (tmp_path / "unsafe.dl").write_text("p(X) <- q(Y).")
        paths = dict(
            file=program_file,
            missing=str(tmp_path / "missing.dl"),
            dir=str(tmp_path),
            bad=str(tmp_path / "bad.dl"),
            unsafe=str(tmp_path / "unsafe.dl"),
        )
        with pytest.raises(SystemExit) as info:
            main([arg.format(**paths) for arg in argv])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_sip_rejected(self, program_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", program_file, "--sip", "bogus"])

    def test_run_rejects_retired_mp_runtime(self, program_file, capsys):
        # The one-process-per-node runtime is gone, and no flag replaces it.
        for argv in (
            ["run", program_file, "--runtime", "mp"],
            ["serve", program_file, "--eval-runtime", "mp"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert "invalid choice: 'mp'" in capsys.readouterr().err

    def test_cluster_connect_and_listen_are_exclusive(self, program_file, capsys):
        # Dial a manager or announce one, never both: argparse refuses the
        # pair on both subcommands before any cluster work starts.
        both = ["--cluster-connect", "127.0.0.1:1", "--cluster-listen", "127.0.0.1:2"]
        for argv in (
            ["run", program_file, "--runtime", "cluster", *both],
            ["serve", program_file, "--eval-runtime", "cluster", *both],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert "not allowed with argument" in capsys.readouterr().err


class TestOptionRanges:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--materialize-pool", "0"], "--materialize-pool: must be >= 1, got 0"),
            (["serve", "--replicas", "2", "--materialize-pool", "0"],
             "--materialize-pool: must be >= 1, got 0"),
            (["serve", "--cache-size", "-1"], "--cache-size: must be >= 0, got -1"),
            (["serve", "--max-concurrent", "0"], "--max-concurrent: must be >= 1, got 0"),
            (["serve", "--answer-cache-size", "-1"],
             "--answer-cache-size: must be >= 0, got -1"),
            (["bench-session", "--cache-size", "-1"], "--cache-size: must be >= 0, got -1"),
            (["serve", "--cache-size", "many"], "--cache-size: invalid int value: 'many'"),
            (["serve", "--replicas", "0"], "--replicas: must be >= 1, got 0"),
            (["serve", "--warmup-queries", "-1"], "--warmup-queries: must be >= 0, got -1"),
            (["serve", "--max-queue", "-1"], "--max-queue: must be >= 0, got -1"),
            (["serve", "--deadline", "-1"], "--deadline: must be > 0, got -1.0"),
            (["serve", "--data-dir", "D", "--snapshot-every", "0"],
             "--snapshot-every: must be >= 1, got 0"),
            (["serve", "--data-dir", "D", "--fsync-interval", "-1"],
             "--fsync-interval: must be >= 0, got -1.0"),
            (["serve", "--eval-runtime", "pool", "--workers", "0"],
             "--workers: must be >= 1, got 0"),
            (["run", "--runtime", "pool", "--workers", "0"], "--workers: must be >= 1, got 0"),
            (["run", "--runtime", "pool", "--workers", "-3"],
             "--workers: must be >= 1, got -3"),
            (["run", "--runtime", "cluster", "--workers", "0"],
             "--workers: must be >= 1, got 0"),
            (["run", "--runtime", "pool", "--retries", "0"], "--retries: must be >= 1, got 0"),
            (["run", "--runtime", "pool", "--batch-size", "-5"],
             "--batch-size: must be >= 1, got -5"),
            (["run", "--runtime", "pool", "--heartbeat-interval", "0"],
             "--heartbeat-interval: must be > 0, got 0.0"),
            (["run", "--runtime", "pool", "--retry-backoff", "-1"],
             "--retry-backoff: must be >= 0, got -1.0"),
            (["serve", "--deadline", "nan"], "--deadline: must be > 0, got nan"),
            (["run", "--runtime", "pool", "--heartbeat-interval", "nan"],
             "--heartbeat-interval: must be > 0, got nan"),
            (["run", "--runtime", "pool", "--retry-backoff-factor", "nan"],
             "--retry-backoff-factor: must be > 0, got nan"),
            (["trace", "--limit", "-1"], "--limit: must be >= 0, got -1"),
            (["bench-session", "--repeat", "0"], "--repeat: must be >= 1, got 0"),
            (["serve", "--drain-timeout", "-1"], "--drain-timeout: must be >= 0, got -1.0"),
            (["serve", "--port", "70000"], "--port: must be <= 65535, got 70000"),
            (["serve", "--port", "-1"], "--port: must be >= 0, got -1"),
        ],
        ids=["materialize-pool", "replicated-materialize-pool", "cache-size",
             "max-concurrent", "answer-cache-size", "bench-cache-size", "not-an-int",
             "replicas", "warmup-queries", "max-queue", "deadline", "snapshot-every",
             "fsync-interval", "serve-workers", "pool-workers-zero",
             "pool-workers-negative", "cluster-workers", "retries", "batch-size",
             "heartbeat-interval", "retry-backoff", "deadline-nan",
             "heartbeat-interval-nan", "retry-backoff-factor-nan", "trace-limit",
             "bench-repeat", "drain-timeout", "port-too-high", "port-negative"],
    )
    def test_out_of_range_value_is_one_line_and_exit_2(
        self, argv, message, program_file, capsys
    ):
        command, *flags = argv
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, program_file, *flags])
        assert info.value.code == 2
        assert capsys.readouterr().err == f"error: argument {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--reconnect-attempts", "-1"], "--reconnect-attempts: must be >= 0, got -1"),
            (["--reconnect-backoff", "-1"], "--reconnect-backoff: must be >= 0, got -1.0"),
            (["--reconnect-backoff", "nan"], "--reconnect-backoff: must be >= 0, got nan"),
        ],
        ids=["reconnect-attempts", "reconnect-backoff", "reconnect-backoff-nan"],
    )
    def test_worker_out_of_range_value_is_one_line_and_exit_2(self, flags, message, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["worker", "--connect", "127.0.0.1:1", *flags])
        assert info.value.code == 2
        assert capsys.readouterr().err == f"error: argument {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "{file}", "--runtime", "cluster", "--cluster-listen", "127.0.0.1:70000"],
             "--cluster-listen: expected HOST:PORT with a port in 0-65535, got '127.0.0.1:70000'"),
            (["run", "{file}", "--runtime", "cluster", "--cluster-connect", "127.0.0.1:-1"],
             "--cluster-connect: expected HOST:PORT with a port in 0-65535, got '127.0.0.1:-1'"),
            (["serve", "{file}", "--eval-runtime", "cluster", "--cluster-listen", "127.0.0.1:"],
             "--cluster-listen: expected HOST:PORT with a port in 0-65535, got '127.0.0.1:'"),
            (["worker", "--connect", "127.0.0.1:70000"],
             "--connect: expected HOST:PORT with a port in 0-65535, got '127.0.0.1:70000'"),
        ],
        ids=["run-listen", "run-connect", "serve-listen-empty", "worker-connect"],
    )
    def test_bad_cluster_address_is_one_line_and_exit_2(
        self, argv, message, program_file, capsys
    ):
        with pytest.raises(SystemExit) as info:
            main([arg.format(file=program_file) for arg in argv])
        assert info.value.code == 2
        assert capsys.readouterr().err == f"error: argument {message}\n"

    def test_port_and_reconnect_bounds_are_inclusive(self, program_file):
        parse = build_parser().parse_args
        assert parse(["serve", program_file, "--port", "0"]).port == 0
        assert parse(["serve", program_file, "--port", "65535"]).port == 65535
        args = parse(
            ["worker", "--connect", "127.0.0.1:1", "--reconnect-attempts", "0",
             "--reconnect-backoff", "0"]
        )
        assert (args.reconnect_attempts, args.reconnect_backoff) == (0, 0.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--package"],
            ["graph", "--seed", "1"],
            ["analyze", "--coalesce"],
            ["analyze", "--package"],
            ["analyze", "--planner", "cost"],
            ["analyze", "--seed", "1"],
            ["explain", "--planner", "cost"],
            ["explain", "--seed", "1"],
            ["explain", "--sip", "all-free"],
            ["serve", "--query", "anc(ann, Z)"],
            ["serve", "--seed", "1"],
        ],
        ids=lambda argv: "-".join(part.lstrip("-") for part in argv[:2]),
    )
    def test_subcommands_refuse_flags_they_would_ignore(self, argv, program_file, capsys):
        command, *flags = argv
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, program_file, *flags])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_zero_disables_the_caches(self, program_file):
        args = build_parser().parse_args(
            ["serve", program_file, "--cache-size", "0", "--answer-cache-size", "0"]
        )
        assert (args.cache_size, args.answer_cache_size) == (0, 0)

    def test_materialize_needs_the_simulator(self, program_file, capsys, monkeypatch):
        from repro.service import QueryServer

        async def started(self):
            raise AssertionError("the server started")

        monkeypatch.setattr(QueryServer, "start", started)
        for runtime in ("pool", "cluster"):
            argv = ["serve", program_file, "--port", "0", "--materialize",
                    "--eval-runtime", runtime]
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: --materialize needs --eval-runtime simulator (got {runtime})\n"
            )


class TestServeParser:
    def test_serve_defaults(self, program_file):
        args = build_parser().parse_args(["serve", program_file])
        assert args.func.__name__ == "_cmd_serve"
        assert args.host == "127.0.0.1"
        assert args.port == 7464
        assert args.max_concurrent == 4
        assert args.max_queue == 16
        assert args.deadline == 30.0
        assert args.drain_timeout == 10.0
        assert args.eval_runtime == "simulator"
        assert args.cache_size == 64

    def test_serve_flags_parse(self, program_file):
        args = build_parser().parse_args(
            ["serve", program_file, "--port", "0", "--max-concurrent", "8",
             "--max-queue", "0", "--deadline", "5", "--eval-runtime", "pool",
             "--workers", "2", "--cache-size", "16"]
        )
        assert args.port == 0
        assert args.max_concurrent == 8
        assert args.max_queue == 0
        assert args.deadline == 5.0
        assert args.eval_runtime == "pool"
        assert args.workers == 2
        assert args.cache_size == 16

    def test_serve_rejects_unknown_runtime(self, program_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", program_file, "--eval-runtime", "bogus"]
            )
