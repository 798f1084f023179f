"""Command-line interface: evaluate Datalog files with the message framework.

Usage examples::

    repro-datalog run examples/data/ancestor.dl
    repro-datalog run program.dl --query 'p(a, Z)' --sip all-free --stats
    repro-datalog graph program.dl            # print the rule/goal graph
    repro-datalog trace program.dl --limit 40 # show the message conversation
    repro-datalog bench-session program.dl --repeat 200  # serving benchmark
    repro-datalog serve program.dl --port 7464           # concurrent query service

The file format is the Prolog-style syntax of :mod:`repro.core.parser`:
facts, rules (``<-`` or ``:-``), and ``?-`` queries.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.parser import parse_atom, parse_program, query_to_rule
from .core.program import Program
from .core.rulegoal import build_rule_goal_graph
from .core.rules import GOAL_PREDICATE
from .core.sips import all_free_sip, greedy_sip, left_to_right_sip
from .network.engine import MessagePassingEngine, evaluate
from .network.tracing import MessageTrace

__all__ = ["main", "build_parser"]

_SIPS = {
    "greedy": greedy_sip,
    "left-to-right": left_to_right_sip,
    "all-free": all_free_sip,
}


def _load_program(path: str, query: Optional[str], data: Optional[str] = None) -> Program:
    with open(path) as handle:
        program = parse_program(handle.read())
    if data is not None:
        from .relational.csvio import facts_from_directory

        extra = facts_from_directory(data)
        program = Program(program.rules, tuple(program.facts) + tuple(extra))
    if query is not None:
        # A --query replaces any queries in the file.
        from .core.parser import _Parser, _tokenize  # reuse the atom-list parser

        rules = [r for r in program.rules if r.head.predicate != GOAL_PREDICATE]
        parser = _Parser(_tokenize(query.rstrip(". ") + "."))
        atoms = parser.atom_list()
        rules.append(query_to_rule(atoms))
        program = Program(rules, program.facts)
    return program


def _retry_policy(args: argparse.Namespace):
    """The mp/pool retry schedule from the run flags (deterministic default)."""
    from .runtime import RetryPolicy

    return RetryPolicy(
        max_attempts=args.retries,
        backoff=args.retry_backoff,
        backoff_factor=args.retry_backoff_factor,
        jitter=args.retry_jitter,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.file, args.query, args.data)
    if args.runtime == "simulator":
        result = evaluate(
            program,
            sip_factory=_SIPS[args.sip],
            seed=args.seed,
            coalesce=args.coalesce,
            package_requests=args.package,
            planner=args.planner,
        )
        answers = result.answers
    elif args.runtime == "asyncio":
        from .runtime import evaluate_async

        result = evaluate_async(
            program,
            sip_factory=_SIPS[args.sip],
            coalesce=args.coalesce,
            package_requests=args.package,
            planner=args.planner,
        )
        answers = result.answers
    elif args.runtime == "cluster":
        from .cluster import evaluate_cluster

        if args.cluster_connect and args.cluster_listen:
            print(
                "error: --cluster-connect and --cluster-listen are "
                "mutually exclusive",
                file=sys.stderr,
            )
            return 2
        if args.cluster_listen:
            print(
                f"announcing cluster manager on {args.cluster_listen}; "
                f"waiting for workers "
                f"(repro worker --connect {args.cluster_listen})",
                file=sys.stderr,
            )
        result = evaluate_cluster(
            program,
            sip_factory=_SIPS[args.sip],
            workers=args.workers,
            batch_size=args.batch_size,
            coalesce=args.coalesce,
            package_requests=args.package,
            planner=args.planner,
            retry=_retry_policy(args),
            fallback=args.fallback,
            heartbeat_interval=args.heartbeat_interval,
            address=args.cluster_connect,
            listen=args.cluster_listen,
        )
        answers = result.answers
    elif args.runtime == "mp":
        from .runtime import evaluate_multiprocessing

        result = evaluate_multiprocessing(
            program,
            sip_factory=_SIPS[args.sip],
            coalesce=args.coalesce,
            package_requests=args.package,
            planner=args.planner,
            retry=_retry_policy(args),
            fallback=args.fallback,
            heartbeat_interval=args.heartbeat_interval,
        )
        answers = result.answers
    else:  # pool
        from .runtime import evaluate_pool

        result = evaluate_pool(
            program,
            sip_factory=_SIPS[args.sip],
            workers=args.workers,
            batch_size=args.batch_size,
            coalesce=args.coalesce,
            package_requests=args.package,
            planner=args.planner,
            retry=_retry_policy(args),
            fallback=args.fallback,
            heartbeat_interval=args.heartbeat_interval,
        )
        answers = result.answers
    for row in sorted(answers, key=repr):
        print(", ".join(str(v) for v in row) if row else "true")
    if args.runtime in ("mp", "pool", "cluster") and (
        result.attempts > 1 or result.degraded
    ):
        # Crash summary: printed even without --stats, because a recovered
        # or degraded answer is something the caller should know about.
        outcome = (
            "degraded to the in-process runtime"
            if result.degraded
            else "recovered by retry"
        )
        print(
            f"-- {outcome} after {result.attempts} attempt(s)", file=sys.stderr
        )
        for entry in result.failure_log:
            print(f"--   {entry}", file=sys.stderr)
    if args.stats:
        print("--", file=sys.stderr)
        if args.runtime == "simulator":
            print(result.summary(), file=sys.stderr)
        elif args.runtime == "pool":
            print(
                f"workers: {result.workers}; cross-shard messages: "
                f"{result.cross_messages} in {result.cross_batches} batches "
                f"({result.batching_factor:.1f} msgs/batch)",
                file=sys.stderr,
            )
            print(
                f"attempts: {result.attempts}; degraded: {result.degraded}",
                file=sys.stderr,
            )
        elif args.runtime == "cluster":
            print(result.summary(), file=sys.stderr)
        elif args.runtime == "mp":
            print(f"processes: {result.processes}", file=sys.stderr)
            print(
                f"attempts: {result.attempts}; degraded: {result.degraded}",
                file=sys.stderr,
            )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one remote shard worker against a cluster manager."""
    from .cluster import worker_main

    try:
        worker_main(
            args.connect,
            name=args.name,
            reconnect_attempts=args.reconnect_attempts,
            reconnect_backoff=args.reconnect_backoff,
            quiet=args.quiet,
        )
    except KeyboardInterrupt:
        pass
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    program = _load_program(args.file, args.query, args.data)
    graph = build_rule_goal_graph(
        program, sip_factory=_SIPS[args.sip], coalesce=args.coalesce
    )
    if args.dot:
        print(graph.to_dot())
        return 0
    print(graph.pretty())
    print(f"-- {len(graph.goal_nodes)} goal nodes, {len(graph.rule_nodes)} rule nodes")
    for info in graph.strong_components():
        members = ", ".join(graph.node_label(m) for m in sorted(info.members))
        print(f"-- strong component (leader {graph.node_label(info.leader)}): {members}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    program = _load_program(args.file, args.query, args.data)
    trace = MessageTrace(limit=args.limit, include_protocol=not args.no_protocol)
    engine = MessagePassingEngine(
        program,
        sip_factory=_SIPS[args.sip],
        seed=args.seed,
        trace=trace,
        coalesce=args.coalesce,
        package_requests=args.package,
        planner=args.planner,
    )
    result = engine.run()
    print(trace.render(engine.graph))
    print(f"-- {len(result.answers)} answers; {result.total_messages} messages")
    return 0


def _cmd_bench_session(args: argparse.Namespace) -> int:
    """Repeated-query serving benchmark: session caching vs per-query rebuild."""
    import time

    from .session import Session

    program = _load_program(args.file, args.query, args.data)
    query_rules = program.query_rules
    if not query_rules:
        print("no query: pass --query or include a '?-' clause", file=sys.stderr)
        return 2
    atoms = list(query_rules[0].body)
    if len(query_rules) > 1:
        print("multiple queries in file; benchmarking the first", file=sys.stderr)

    def timed(cache_size: int) -> tuple[Session, set, float, float]:
        session = Session(
            program,
            sip_factory=_SIPS[args.sip],
            coalesce=args.coalesce,
            package_requests=args.package,
            planner=args.planner,
            graph_cache_size=cache_size,
        )
        start = time.perf_counter()
        answers = session.query(atoms, seed=args.seed)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(args.repeat - 1):
            session.query(atoms, seed=args.seed)
        warm = time.perf_counter() - start
        return session, answers, cold, warm

    session, answers, cold, warm = timed(args.cache_size)
    repeats = args.repeat - 1
    print(f"query: {', '.join(str(a) for a in atoms)}")
    print(f"answers: {len(answers)}; total queries: {args.repeat}")
    print(f"first query (cache miss): {cold * 1e3:9.3f} ms")
    if repeats > 0:
        warm_avg = warm / repeats
        print(f"repeat query (cached):    {warm_avg * 1e3:9.3f} ms avg over {repeats}")
    print(f"graph cache: {session.cache_stats()}")
    if not args.no_compare and repeats > 0:
        _, _, cold0, warm0 = timed(0)
        warm0_avg = warm0 / repeats
        factor = warm0_avg / warm_avg if warm_avg else float("inf")
        print(f"uncached repeat query:    {warm0_avg * 1e3:9.3f} ms avg over {repeats}")
        print(f"caching speedup on repeats: {factor:.2f}x")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the concurrent query service over one knowledge-base file."""
    import asyncio

    from .service import (
        DurableStore,
        LogLockedError,
        QueryServer,
        ServerConfig,
        SharedSession,
    )

    program = _load_program(args.file, None, args.data)
    session_options = dict(
        sip_factory=_SIPS[args.sip],
        coalesce=args.coalesce,
        package_requests=args.package,
        planner=args.planner,
        graph_cache_size=args.cache_size,
        runtime=args.eval_runtime,
        workers=args.workers,
        cluster_address=args.cluster_connect,
        cluster_listen=args.cluster_listen,
    )
    if args.cluster_connect and args.cluster_listen:
        print(
            "error: --cluster-connect and --cluster-listen are mutually "
            "exclusive",
            file=sys.stderr,
        )
        return 2
    if args.replicas > 1:
        if args.cluster_listen:
            # Each replica is its own Session; N of them cannot all bind
            # the one announce address.  Run an external manager instead.
            print(
                "error: --cluster-listen cannot be combined with --replicas; "
                "run the manager in one process and point the replicas at it "
                "with --cluster-connect",
                file=sys.stderr,
            )
            return 2
        return _serve_replicated(args, program, session_options)
    store = None
    if args.data_dir:
        store = DurableStore(
            args.data_dir,
            fsync_interval=args.fsync_interval,
            snapshot_every=args.snapshot_every,
        )
        # Fail a doubly-served --data-dir at boot, not at the first write.
        try:
            store.acquire_lock()
        except LogLockedError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        session, report = store.restore(program, **session_options)
        shared = SharedSession(
            session=session,
            store=store,
            answer_cache_size=args.answer_cache_size,
            materialize=args.materialize,
            materialize_pool=args.materialize_pool,
        )
        print(
            f"data-dir {args.data_dir}: "
            + (
                f"replayed {report.records_replayed} logged writes on top of "
                f"snapshot (db_version={session.db_version}"
                + (", torn tail dropped" if report.torn_tail_dropped else "")
                + ")"
                if not report.bootstrapped
                else "bootstrapped from the knowledge-base file"
            ),
            flush=True,
        )
    else:
        shared = SharedSession(
            program,
            answer_cache_size=args.answer_cache_size,
            materialize=args.materialize,
            materialize_pool=args.materialize_pool,
            **session_options,
        )
    if args.cluster_listen and args.eval_runtime == "cluster":
        # Bind the announced manager before accepting service traffic so
        # workers can register while the server boots; the first query
        # still waits for at least one registration (session timeout).
        manager_address = shared.session.cluster_listen_address
        print(
            f"cluster manager listening on {manager_address}; "
            f"start workers with: repro worker --connect {manager_address}",
            flush=True,
        )
    server = QueryServer(
        shared,
        ServerConfig(
            host=args.host,
            port=args.port,
            max_concurrent=args.max_concurrent,
            max_queue=args.max_queue,
            default_deadline=args.deadline,
            drain_timeout=args.drain_timeout,
        ),
    )

    async def _main() -> None:
        await server.start()
        server.install_signal_handlers()
        print(
            f"serving {args.file} on {server.host}:{server.port} "
            f"(runtime={args.eval_runtime}, max_concurrent={args.max_concurrent}, "
            f"max_queue={args.max_queue}"
            + (", materialize=on" if args.materialize else "")
            + ")",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    finally:
        if store is not None:
            store.close()
    print("drained and stopped", file=sys.stderr)
    return 0


def _serve_replicated(args: argparse.Namespace, program, session_options: dict) -> int:
    """Run N replica servers behind the failover front door."""
    import asyncio

    from .service.persistence import LogLockedError
    from .service.replication import ReplicaConfig, ReplicaSet, ReplicaSetConfig

    try:
        # The ReplicaSet takes the data dir's writer lock at construction,
        # so a doubly-served --data-dir fails here, cleanly, not mid-boot.
        replica_set = ReplicaSet(
            program,
            data_dir=args.data_dir,  # None = ephemeral tempdir for this run
            config=ReplicaSetConfig(
                replicas=args.replicas,
                host=args.host,
                port=args.port,
                read_timeout=args.deadline,
                drain_timeout=args.drain_timeout,
                warmup_queries=args.warmup_queries,
            ),
            replica_config=ReplicaConfig(
                max_concurrent=args.max_concurrent,
                max_queue=args.max_queue,
                default_deadline=args.deadline,
                answer_cache_size=args.answer_cache_size,
                materialize=args.materialize,
                materialize_pool=args.materialize_pool,
            ),
            fsync_interval=args.fsync_interval,
            snapshot_every=args.snapshot_every,
            session_options=session_options,
        )
    except LogLockedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    async def _main() -> None:
        import signal as signal_module

        await replica_set.start()
        loop = asyncio.get_running_loop()
        for sig in (signal_module.SIGINT, signal_module.SIGTERM):
            try:
                loop.add_signal_handler(sig, replica_set.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        print(
            f"serving {args.file} on {replica_set.host}:{replica_set.port} "
            f"(replicas={args.replicas}, runtime={args.eval_runtime}, "
            f"max_concurrent={args.max_concurrent}, max_queue={args.max_queue}"
            + (", materialize=on" if args.materialize else "")
            + ")",
            flush=True,
        )
        try:
            await replica_set.serve_forever()
        finally:
            await replica_set.shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    print("drained and stopped", file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Print the cost planner's decisions for the query, without running it.

    Builds the rule/goal graph under ``planner="cost"`` (the §4.3 model
    seeded with the observed EDB sizes) and prints the full
    :class:`~repro.core.planner.PlanReport`: every rule instantiation with
    its ranked subgoal orders, per-stage estimates (bound arguments,
    operand/result magnitudes, stage cost), and the chosen plan.
    """
    program = _load_program(args.file, args.query, args.data)
    if not program.query_rules:
        print("no query: pass --query or include a '?-' clause", file=sys.stderr)
        return 2
    engine = MessagePassingEngine(
        program,
        sip_factory=_SIPS[args.sip],
        coalesce=args.coalesce,
        package_requests=args.package,
        planner="cost",
    )
    print(engine.plan_report.render())
    if args.run:
        result = engine.run()
        print()
        print(result.summary())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .core.analysis import analyze

    program = _load_program(args.file, args.query, args.data)
    report = analyze(program, sip_factory=_SIPS[args.sip])
    print(report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-datalog",
        description="Message-passing Datalog query evaluation (Van Gelder, SIGMOD 1986)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="Datalog source file")
        p.add_argument("--query", help="query atoms, e.g. 'p(a, Z)' (overrides ?- in the file)")
        p.add_argument(
            "--sip", choices=sorted(_SIPS), default="greedy", help="information passing strategy"
        )
        p.add_argument("--seed", type=int, default=None, help="randomize message latencies")
        p.add_argument(
            "--data",
            help="directory of <predicate>.csv / .tsv files to load as EDB facts",
        )
        p.add_argument(
            "--coalesce",
            action="store_true",
            help="merge goal nodes with identical binding patterns (single-processor mode)",
        )
        p.add_argument(
            "--package",
            action="store_true",
            help="batch related tuple requests (footnote-2 packaging)",
        )
        p.add_argument(
            "--planner",
            choices=["static", "cost"],
            default="static",
            help="subgoal-order planner: 'static' keeps the structural SIP "
            "order, 'cost' ranks body permutations with the Section 4.3 "
            "model seeded with observed EDB sizes",
        )

    run_p = sub.add_parser("run", help="evaluate the query and print the answers")
    common(run_p)
    run_p.add_argument("--stats", action="store_true", help="print run statistics to stderr")
    run_p.add_argument(
        "--runtime",
        choices=["simulator", "asyncio", "mp", "pool", "cluster"],
        default="simulator",
        help="execution substrate: deterministic simulator (default), asyncio "
        "tasks, one OS process per node (mp), pooled shard workers with "
        "batched channels (pool), or remote shard workers behind a TCP "
        "cluster manager (cluster)",
    )
    run_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool/cluster runtimes: number of shard workers "
        "(pool default: cpu count; cluster default: all registered)",
    )
    run_p.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="pool/cluster runtimes: messages per cross-shard batch before "
        "a forced flush",
    )
    run_p.add_argument(
        "--cluster-connect",
        default=None,
        metavar="HOST:PORT",
        help="cluster runtime: address of a running cluster manager "
        "(default: start a private localhost harness for this query)",
    )
    run_p.add_argument(
        "--cluster-listen",
        default=None,
        metavar="HOST:PORT",
        help="cluster runtime: announce a manager at this address for the "
        "query's duration and wait for remote 'repro worker --connect' "
        "registrations (mutually exclusive with --cluster-connect)",
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="mp/pool runtimes: total attempts on worker crash or timeout "
        "(whole-query re-execution; safe for monotone programs)",
    )
    run_p.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="mp/pool runtimes: base delay before the second attempt "
        "(0 = retry immediately, the deterministic default)",
    )
    run_p.add_argument(
        "--retry-backoff-factor",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="mp/pool runtimes: multiply the backoff by this per further "
        "attempt (2.0 = classic exponential backoff)",
    )
    run_p.add_argument(
        "--retry-jitter",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="mp/pool runtimes: add up to this much uniform random delay to "
        "each backoff (decorrelates retry stampedes; 0 keeps runs "
        "deterministic)",
    )
    run_p.add_argument(
        "--fallback",
        choices=["none", "inprocess"],
        default="none",
        help="mp/pool runtimes: after exhausting retries, answer from the "
        "in-process scheduler instead of raising (result is flagged degraded)",
    )
    run_p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="mp/pool runtimes: arm wedged-worker detection — a worker whose "
        "heartbeat stalls for 2x this interval raises a typed error "
        "(crash detection is always on)",
    )
    run_p.set_defaults(func=_cmd_run)

    graph_p = sub.add_parser("graph", help="print the information-passing rule/goal graph")
    common(graph_p)
    graph_p.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead of text")
    graph_p.set_defaults(func=_cmd_graph)

    trace_p = sub.add_parser("trace", help="evaluate and print the message trace")
    common(trace_p)
    trace_p.add_argument("--limit", type=int, default=200, help="max messages to record")
    trace_p.add_argument("--no-protocol", action="store_true", help="hide protocol messages")
    trace_p.set_defaults(func=_cmd_trace)

    analyze_p = sub.add_parser(
        "analyze", help="static analysis: recursion classes, monotone flow, warnings"
    )
    common(analyze_p)
    analyze_p.set_defaults(func=_cmd_analyze)

    explain_p = sub.add_parser(
        "explain",
        help="show the cost planner's chosen subgoal orders, ranked "
        "alternatives, and per-stage Section 4.3 estimates",
    )
    common(explain_p)
    explain_p.add_argument(
        "--run",
        action="store_true",
        help="also evaluate the query and append the run summary",
    )
    explain_p.set_defaults(func=_cmd_explain)

    serve_p = sub.add_parser(
        "serve",
        help="serve the knowledge base over TCP (NDJSON protocol, "
        "concurrent queries, admission control)",
    )
    common(serve_p)
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port", type=int, default=7464, help="TCP port (0 = ephemeral)"
    )
    serve_p.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="serve through N replica processes behind a failover front "
        "door (health-checked circuit breakers, log-replay resync; "
        "writes fan out log-then-ack); 1 = single classic server",
    )
    serve_p.add_argument(
        "--warmup-queries",
        type=int,
        default=8,
        help="with --replicas: replay up to N recent distinct reads "
        "against a resynced replica (as cache-priming 'warm' ops) "
        "before readmitting it; 0 disables the warm-up",
    )
    serve_p.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        help="evaluation slots: queries running at once",
    )
    serve_p.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="requests allowed to wait for a slot before typed rejection",
    )
    serve_p.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="default per-request deadline (queue wait + evaluation)",
    )
    serve_p.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="grace period for in-flight evaluations at shutdown",
    )
    serve_p.add_argument(
        "--eval-runtime",
        choices=["simulator", "pool", "mp", "cluster"],
        default="simulator",
        help="substrate each evaluation dispatches to (see Session runtime=)",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool/cluster runtimes: shard workers per evaluation",
    )
    serve_p.add_argument(
        "--cluster-connect",
        default=None,
        metavar="HOST:PORT",
        help="with --eval-runtime cluster: address of a running cluster "
        "manager (default: the service starts a private localhost harness "
        "on the first query and keeps it warm)",
    )
    serve_p.add_argument(
        "--cluster-listen",
        default=None,
        metavar="HOST:PORT",
        help="with --eval-runtime cluster: announce the cluster manager at "
        "this address so one process fronts both the query service and the "
        "cluster; remote workers dial in with 'repro worker --connect' "
        "(mutually exclusive with --cluster-connect; not with --replicas)",
    )
    serve_p.add_argument(
        "--cache-size",
        type=int,
        default=64,
        help="graph-cache LRU capacity shared by all clients",
    )
    serve_p.add_argument(
        "--answer-cache-size",
        type=int,
        default=256,
        metavar="ENTRIES",
        help="answer-cache LRU capacity (full answer sets keyed by query "
        "signature + db_version; 0 disables)",
    )
    serve_p.add_argument(
        "--materialize",
        action="store_true",
        help="keep evaluated networks warm and propagate add_facts deltas "
        "semi-naively instead of re-deriving fixpoints (simulator runtime "
        "only; hot answer-cache entries are refreshed across writes, not "
        "invalidated)",
    )
    serve_p.add_argument(
        "--materialize-pool",
        type=int,
        default=32,
        metavar="NETWORKS",
        help="with --materialize: LRU bound on warm networks kept per "
        "distinct query signature",
    )
    serve_p.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable state directory: replay snapshot + fact log on boot, "
        "append every accepted add_facts/add_rules before acknowledging",
    )
    serve_p.add_argument(
        "--fsync-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --data-dir: batch fsyncs at most this often "
        "(0 = fsync every write, strongest durability)",
    )
    serve_p.add_argument(
        "--snapshot-every",
        type=int,
        default=1000,
        metavar="RECORDS",
        help="with --data-dir: compact the log into a fresh snapshot after "
        "this many appended records",
    )
    serve_p.set_defaults(func=_cmd_serve)

    worker_p = sub.add_parser(
        "worker",
        help="run one remote shard worker against a cluster manager "
        "(the other terminal of the docs/usage.md walkthrough)",
    )
    worker_p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="cluster manager address to register with",
    )
    worker_p.add_argument(
        "--name",
        default=None,
        help="stable worker name (reconnects keep it; default: assigned "
        "by the manager)",
    )
    worker_p.add_argument(
        "--reconnect-attempts",
        type=int,
        default=60,
        help="consecutive failed connects tolerated before giving up",
    )
    worker_p.add_argument(
        "--reconnect-backoff",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="sleep between reconnect attempts",
    )
    worker_p.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-connection log lines on stderr",
    )
    worker_p.set_defaults(func=_cmd_worker)

    bench_p = sub.add_parser(
        "bench-session",
        help="repeated-query serving benchmark: session caching vs per-query rebuild",
    )
    common(bench_p)
    bench_p.add_argument(
        "--repeat", type=int, default=100, help="number of identical queries to serve"
    )
    bench_p.add_argument(
        "--cache-size", type=int, default=64, help="graph-cache LRU capacity (0 disables)"
    )
    bench_p.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the uncached (cache-size 0) comparison run",
    )
    bench_p.set_defaults(func=_cmd_bench_session)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-datalog`` script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
