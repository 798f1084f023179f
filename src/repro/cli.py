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
from dataclasses import replace
from typing import Optional, Sequence

from .core.parser import ParseError, parse_program, parse_query, query_to_rule
from .core.program import Program, ProgramError
from .core.rulegoal import plan_graph
from .core.rules import GOAL_PREDICATE
from .core.sips import all_free_sip, greedy_sip, left_to_right_sip
from .network.engine import MessagePassingEngine
from .network.tracing import MessageTrace
from .options import (
    FALLBACKS,
    PLANNERS,
    RUNTIMES,
    EvalOptions,
    RetryPolicy,
    RuntimeOptions,
    parse_address,
    session_keywords,
)

__all__ = ["main", "build_parser"]

_SIPS = {
    "greedy": greedy_sip,
    "left-to-right": left_to_right_sip,
    "all-free": all_free_sip,
}


def _address(text: str) -> str:
    """An argparse ``type=``: a ``HOST:PORT`` with a port in 0-65535."""
    try:
        parse_address(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _bounded(convert, minimum, strict: bool = False, maximum=None):
    """An argparse ``type=``: a ``convert`` value >= ``minimum`` (> if
    ``strict``) and, given a ``maximum``, <= it."""

    def parse(text: str):
        value = convert(text)
        if not (value > minimum if strict else value >= minimum):  # refuses NaN too
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {minimum}, got {value}"
            )
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse names a failed conversion after its type
    return parse


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are one line on stderr and exit status 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _load_program(path: str, query: Optional[str], data: Optional[str] = None) -> Program:
    """The program every subcommand runs: the file, ``--data`` and ``--query``.

    A missing or unreadable input, or a parse/program error in the file
    or the query, prints one ``error:`` line and exits 2.
    """
    try:
        with open(path) as handle:
            program = parse_program(handle.read())
        if data is not None:
            from .relational.csvio import facts_from_directory

            extra = facts_from_directory(data)
            program = Program(program.rules, tuple(program.facts) + tuple(extra))
        if query is not None:
            # A --query replaces any queries in the file.
            rules = [r for r in program.rules if r.head.predicate != GOAL_PREDICATE]
            rules.append(query_to_rule(parse_query(query)))
            program = Program(rules, program.facts)
    except (OSError, ParseError, ProgramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return program


# Shared flags: each declared once, in one of three tables, and composed
# into each subcommand as parent parsers holding only the flags it reads.
def _flag(*flags: str, **keywords) -> tuple:
    """One ``add_argument`` call, kept for later: ``(flags, keywords)``."""
    return flags, keywords


_SHARDED = "pool/cluster runtimes: "

#: The program, the query and the one-run seed.
_PROGRAM_FLAGS = {
    "file": _flag("file", help="Datalog source file"),
    "data": _flag("--data", help="directory of <predicate>.csv / .tsv files to load as EDB facts"),
    "query": _flag("--query", help="query atoms, e.g. 'p(a, Z)' (overrides ?- in the file)"),
    "seed": _flag("--seed", type=int, default=None, help="randomize delivery order, channel FIFO kept"),
}

#: :class:`EvalOptions`: what shapes the graph and the network.
_EVAL_FLAGS = {
    "sip": _flag(
        "--sip", choices=sorted(_SIPS), default="greedy", help="information passing strategy"
    ),
    "package": _flag(
        "--package", action="store_true", help="no effect: requests are packaged (footnote 2)"
    ),
    "planner": _flag(
        "--planner",
        choices=PLANNERS,
        default="static",
        help="subgoal-order planner: 'static' keeps the structural SIP "
        "order, 'cost' ranks body permutations with the Section 4.3 "
        "model seeded with observed EDB sizes",
    ),
}

#: :class:`RuntimeOptions`: where the network runs.  A list is a mutually
#: exclusive group.
_RUNTIME_FLAGS = {
    "runtime": _flag(
        "--runtime",
        choices=RUNTIMES,
        default="simulator",
        help="execution substrate: deterministic simulator (default), "
        "pooled shard workers with batched channels (pool), or remote "
        "shard workers behind a TCP cluster manager (cluster)",
    ),
    "eval-runtime": _flag(
        "--eval-runtime",
        choices=RUNTIMES,
        default="simulator",
        help="substrate each evaluation dispatches to (see Session runtime=)",
    ),
    "workers": _flag(
        "--workers",
        type=_bounded(int, 1),
        default=None,
        help=_SHARDED + "number of shard workers "
        "(pool default: cpu count; cluster default: all registered)",
    ),
    "cluster": [
        _flag(
            "--cluster-connect",
            type=_address,
            default=None,
            metavar="HOST:PORT",
            help="cluster runtime: address of a running cluster manager "
            "(default: start a private localhost harness)",
        ),
        _flag(
            "--cluster-listen",
            type=_address,
            default=None,
            metavar="HOST:PORT",
            help="cluster runtime: announce a cluster manager at this address "
            "and wait for remote 'repro worker --connect' registrations "
            "(serve keeps it up between queries; not with --replicas)",
        ),
    ],
    "batch-size": _flag(
        "--batch-size",
        type=_bounded(int, 1),
        default=64,
        help=_SHARDED + "messages per cross-shard batch before a forced flush",
    ),
    "retries": _flag(
        "--retries",
        type=_bounded(int, 1),
        default=1,
        help=_SHARDED + "total attempts on worker crash or timeout "
        "(whole-query re-execution; safe for monotone programs)",
    ),
    "retry-backoff": _flag(
        "--retry-backoff",
        type=_bounded(float, 0),
        default=0.0,
        metavar="SECONDS",
        help=_SHARDED + "base delay before the second attempt "
        "(0 = retry immediately, the deterministic default)",
    ),
    "retry-backoff-factor": _flag(
        "--retry-backoff-factor",
        type=_bounded(float, 0, strict=True),
        default=1.0,
        metavar="FACTOR",
        help=_SHARDED + "multiply the backoff by this per further "
        "attempt (2.0 = classic exponential backoff)",
    ),
    "retry-jitter": _flag(
        "--retry-jitter",
        type=_bounded(float, 0),
        default=0.0,
        metavar="SECONDS",
        help=_SHARDED + "add up to this much uniform random delay to "
        "each backoff (decorrelates retry stampedes; 0 keeps runs "
        "deterministic)",
    ),
    "fallback": _flag(
        "--fallback",
        choices=FALLBACKS,
        default="none",
        help=_SHARDED + "after exhausting retries, answer from the "
        "in-process simulator instead of raising (result is flagged degraded)",
    ),
    "heartbeat-interval": _flag(
        "--heartbeat-interval",
        type=_bounded(float, 0, strict=True),
        default=None,
        metavar="SECONDS",
        help=_SHARDED + "arm wedged-worker detection — a worker whose "
        "heartbeat stalls for 2x this interval raises a typed error "
        "(crash detection is always on)",
    ),
}


def _parent(table: dict, *names: str) -> argparse.ArgumentParser:
    """A parent parser holding ``names`` (default: all) from one flag table."""
    parent = argparse.ArgumentParser(add_help=False)
    for name in names or table:
        spec = table[name]
        if isinstance(spec, list):  # a mutually exclusive group
            group = parent.add_mutually_exclusive_group()
            for flags, keywords in spec:
                group.add_argument(*flags, **keywords)
        else:
            parent.add_argument(*spec[0], **spec[1])
    return parent


def _eval_options(args: argparse.Namespace) -> EvalOptions:
    """The :class:`EvalOptions` the EvalOptions flags describe (``--package`` is a no-op)."""
    return EvalOptions(sip_factory=_SIPS[args.sip], planner=args.planner)


def _runtime_options(args: argparse.Namespace, runtime: str) -> RuntimeOptions:
    """The :class:`RuntimeOptions` the RuntimeOptions flags describe.

    ``serve`` takes only ``--workers`` and the cluster address; the
    supervision flags keep their defaults there.
    """
    placement = RuntimeOptions(
        runtime=runtime,
        workers=args.workers,
        cluster_address=args.cluster_connect,
        cluster_listen=args.cluster_listen,
    )
    if "retries" not in vars(args):
        return placement
    return replace(
        placement,
        batch_size=args.batch_size,
        retry=RetryPolicy(
            args.retries, args.retry_backoff, args.retry_backoff_factor, args.retry_jitter
        ),
        fallback=args.fallback,
        heartbeat_interval=args.heartbeat_interval,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.file, args.query, args.data)
    options = _eval_options(args)
    runtime = _runtime_options(args, args.runtime)
    if runtime.runtime == "simulator":
        result = MessagePassingEngine(program, seed=args.seed, **vars(options)).run()
    else:
        from .runtime.sharded import evaluate_sharded

        if runtime.cluster_listen:
            print(
                f"announcing cluster manager on {runtime.cluster_listen}; "
                f"waiting for workers "
                f"(repro worker --connect {runtime.cluster_listen})",
                file=sys.stderr,
            )
        result = evaluate_sharded(program, options, runtime)
    for row in sorted(result.answers, key=repr):
        print(", ".join(str(v) for v in row) if row else "true")
    if result.attempts > 1 or result.degraded:
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
        print(result.summary(), file=sys.stderr)
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
    graph = plan_graph(program, args.planner, _SIPS[args.sip])
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
        program, seed=args.seed, trace=trace, **vars(_eval_options(args))
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
    options = _eval_options(args)

    def timed(cache_size: int) -> tuple[Session, set, float, float]:
        session = Session(program, graph_cache_size=cache_size, **vars(options))
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
    """Run the concurrent query service over one knowledge-base file.

    One server transport with one of two backends: a local
    :class:`SharedSession`, or with ``--replicas N`` (N > 1) N replica
    servers behind the failover front door.  Both share this start /
    banner / serve path.
    """
    import asyncio

    from .service import DurableStore, LogLockedError, QueryServer, ServerConfig
    from .service.replication import ReplicaConfig, ReplicaSet, ReplicaSetConfig

    program = _load_program(args.file, None, args.data)
    options = _eval_options(args)
    runtime = _runtime_options(args, args.eval_runtime)
    if args.materialize and args.eval_runtime != "simulator":
        # Only the simulator keeps a network warm; elsewhere the flag
        # would be accepted and silently do nothing.
        print(
            "error: --materialize needs --eval-runtime simulator "
            f"(got {args.eval_runtime})",
            file=sys.stderr,
        )
        return 2
    replicated = args.replicas > 1
    if replicated and args.cluster_listen:
        # Each replica is its own Session; N of them cannot all bind
        # the one announce address.  Run an external manager instead.
        print(
            "error: --cluster-listen cannot be combined with --replicas; "
            "run the manager in one process and point the replicas at it "
            "with --cluster-connect",
            file=sys.stderr,
        )
        return 2
    store = None
    try:
        if replicated:
            # The ReplicaSet takes the data dir's writer lock at
            # construction, so a doubly-served --data-dir fails here.
            server = ReplicaSet(
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
                options=options,
                runtime=runtime,
                graph_cache_size=args.cache_size,
            )
        else:
            if args.data_dir:
                store = DurableStore(
                    args.data_dir,
                    fsync_interval=args.fsync_interval,
                    snapshot_every=args.snapshot_every,
                )
                # Fail a doubly-served --data-dir at boot, not at the first write.
                store.acquire_lock()
            server = QueryServer(
                _shared_session(args, program, options, runtime, store),
                ServerConfig(
                    host=args.host,
                    port=args.port,
                    max_concurrent=args.max_concurrent,
                    max_queue=args.max_queue,
                    default_deadline=args.deadline,
                    drain_timeout=args.drain_timeout,
                ),
            )
    except LogLockedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    async def _main() -> None:
        await server.start()
        server.install_signal_handlers()
        print(
            f"serving {args.file} on {server.host}:{server.port} ("
            + (f"replicas={args.replicas}, " if replicated else "")
            + f"runtime={args.eval_runtime}, max_concurrent={args.max_concurrent}, "
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


def _shared_session(args: argparse.Namespace, program, options, runtime, store):
    """The local backend's session: restored from ``store`` when one is given."""
    from .service import SharedSession
    from .session import Session

    keywords = dict(session_keywords(options, runtime), graph_cache_size=args.cache_size)
    if store is None:
        session = Session(program, **keywords)
    else:
        session, report = store.restore(program, **keywords)
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
    if runtime.cluster_listen and runtime.runtime == "cluster":
        # Bind the announced manager before accepting service traffic so
        # workers can register while the server boots; the first query
        # still waits for at least one registration (session timeout).
        manager_address = session.cluster_listen_address
        print(
            f"cluster manager listening on {manager_address}; "
            f"start workers with: repro worker --connect {manager_address}",
            flush=True,
        )
    return SharedSession(
        session=session,
        store=store,
        answer_cache_size=args.answer_cache_size,
        materialize=args.materialize,
        materialize_pool=args.materialize_pool,
    )


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
    graph = plan_graph(program, "cost")
    print(graph.plan_report.render())
    if args.run:
        engine = MessagePassingEngine(program, graph=graph)
        print()
        print(engine.run().summary())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .core.analysis import analyze

    program = _load_program(args.file, args.query, args.data)
    report = analyze(program, sip_factory=_SIPS[args.sip])
    print(report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing)."""
    parser = _ArgumentParser(
        prog="repro-datalog",
        description="Message-passing Datalog query evaluation (Van Gelder, SIGMOD 1986)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    program = _parent(_PROGRAM_FLAGS, "file", "data", "query")
    seed = _parent(_PROGRAM_FLAGS, "seed")
    evaluation = _parent(_EVAL_FLAGS)
    run_runtime = [name for name in _RUNTIME_FLAGS if name != "eval-runtime"]
    serve_runtime = _parent(_RUNTIME_FLAGS, "eval-runtime", "workers", "cluster")

    run_p = sub.add_parser(
        "run",
        help="evaluate the query and print the answers",
        parents=[program, seed, evaluation, _parent(_RUNTIME_FLAGS, *run_runtime)],
    )
    run_p.add_argument("--stats", action="store_true", help="print run statistics to stderr")
    run_p.set_defaults(func=_cmd_run)

    graph_p = sub.add_parser(
        "graph",
        help="print the information-passing rule/goal graph",
        parents=[program, _parent(_EVAL_FLAGS, "sip", "planner")],
    )
    graph_p.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead of text")
    graph_p.set_defaults(func=_cmd_graph)

    trace_p = sub.add_parser(
        "trace", help="evaluate and print the message trace", parents=[program, seed, evaluation]
    )
    trace_p.add_argument(
        "--limit", type=_bounded(int, 0), default=200, help="max messages to record"
    )
    trace_p.add_argument("--no-protocol", action="store_true", help="hide protocol messages")
    trace_p.set_defaults(func=_cmd_trace)

    analyze_p = sub.add_parser(
        "analyze",
        help="static analysis: recursion classes, monotone flow, warnings",
        parents=[program, _parent(_EVAL_FLAGS, "sip")],
    )
    analyze_p.set_defaults(func=_cmd_analyze)

    explain_p = sub.add_parser(
        "explain",
        help="show the cost planner's chosen subgoal orders, ranked "
        "alternatives, and per-stage Section 4.3 estimates",
        parents=[program, _parent(_EVAL_FLAGS, "package")],
    )
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
        parents=[_parent(_PROGRAM_FLAGS, "file", "data"), evaluation, serve_runtime],
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port",
        type=_bounded(int, 0, maximum=65535),
        default=7464,
        help="TCP port (0 = ephemeral)",
    )
    serve_p.add_argument(
        "--replicas",
        type=_bounded(int, 1),
        default=1,
        help="serve through N replica processes behind a failover front "
        "door (health-checked circuit breakers, log-replay resync; "
        "writes fan out log-then-ack); 1 = single classic server",
    )
    serve_p.add_argument(
        "--warmup-queries",
        type=_bounded(int, 0),
        default=8,
        help="with --replicas: replay up to N recent distinct reads "
        "against a resynced replica (as cache-priming 'warm' ops) "
        "before readmitting it; 0 disables the warm-up",
    )
    serve_p.add_argument(
        "--max-concurrent",
        type=_bounded(int, 1),
        default=4,
        help="evaluation slots: queries running at once",
    )
    serve_p.add_argument(
        "--max-queue",
        type=_bounded(int, 0),
        default=16,
        help="requests allowed to wait for a slot before typed rejection",
    )
    serve_p.add_argument(
        "--deadline",
        type=_bounded(float, 0, strict=True),
        default=30.0,
        metavar="SECONDS",
        help="default per-request deadline (queue wait + evaluation)",
    )
    serve_p.add_argument(
        "--drain-timeout",
        type=_bounded(float, 0),
        default=10.0,
        metavar="SECONDS",
        help="grace period for in-flight evaluations at shutdown",
    )
    serve_p.add_argument(
        "--cache-size",
        type=_bounded(int, 0),
        default=64,
        help="graph-cache LRU capacity in query shapes, shared by all clients",
    )
    serve_p.add_argument(
        "--answer-cache-size",
        type=_bounded(int, 0),
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
        type=_bounded(int, 1),
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
        type=_bounded(float, 0),
        default=0.0,
        metavar="SECONDS",
        help="with --data-dir: batch fsyncs at most this often "
        "(0 = fsync every write, strongest durability)",
    )
    serve_p.add_argument(
        "--snapshot-every",
        type=_bounded(int, 1),
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
        type=_address,
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
        type=_bounded(int, 0),
        default=60,
        help="consecutive failed connects tolerated before giving up",
    )
    worker_p.add_argument(
        "--reconnect-backoff",
        type=_bounded(float, 0),
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
        parents=[program, seed, evaluation],
    )
    bench_p.add_argument(
        "--repeat",
        type=_bounded(int, 1),
        default=100,
        help="number of identical queries to serve",
    )
    bench_p.add_argument(
        "--cache-size",
        type=_bounded(int, 0),
        default=64,
        help="graph-cache LRU capacity in query shapes (0 disables)",
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
