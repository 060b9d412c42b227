"""Command-line front door: EXPLAIN one query or drive a whole batch.

Both subcommands run through :class:`repro.api.PlannerSession` — the same
facade library users get (``explain`` is the default, so the original
invocation style keeps working):

``explain`` — optimize SQL against the TPC-H catalog::

    python -m repro "SELECT ns.n_name, count(*) FROM nation ns \
        JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
    python -m repro --strategy h2 --factor 1.05 --scale-factor 10 "..."
    python -m repro --compare "..."        # every registered strategy

``batch`` — run a workload through the service layer (plan cache +
parallel workers), printing per-batch throughput and cache statistics::

    python -m repro batch --count 100 --relations 6 --unique 25 --repeat 2
    python -m repro batch --sql-file queries.sql --workers 4
    python -m repro batch --mixed-sql --count 50    # EXISTS/IN/outer-join SQL

``serve`` — run the concurrent plan server (JSON over HTTP) until
SIGTERM/SIGINT, then drain gracefully::

    python -m repro serve --port 8080 --workers 4
    curl -X POST localhost:8080/optimize -d '{"sql": "SELECT ..."}'
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List

from repro.api import COST_MODELS, STRATEGIES, OptimizerConfig, PlannerSession
from repro.query.spec import Query

SUBCOMMANDS = ("explain", "batch", "serve")


def _add_strategy_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES.names(),
        default="ea-prune",
        help="plan generator (default: ea-prune)",
    )
    parser.add_argument(
        "--factor", type=float, default=1.03,
        help="H2 eagerness tolerance factor F (default: 1.03)",
    )
    parser.add_argument(
        "--cost-model",
        choices=COST_MODELS.names(),
        default="cout",
        help="cost model pricing the plans (default: cout)",
    )


def _config_from(args: argparse.Namespace, **overrides) -> OptimizerConfig:
    return OptimizerConfig(
        strategy=args.strategy,
        factor=args.factor,
        cost_model=args.cost_model,
        **overrides,
    )


def build_argument_parser() -> argparse.ArgumentParser:
    """The ``explain`` subcommand's parser (also the bare default)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimize a SQL query with eager aggregation "
        "(Eich & Moerkotte, ICDE 2015) against the TPC-H catalog.",
    )
    parser.add_argument("sql", help="the SELECT statement to optimize")
    _add_strategy_options(parser)
    parser.add_argument(
        "--scale-factor", type=float, default=1.0,
        help="TPC-H scale factor for the catalog statistics (default: 1)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="run every registered strategy and print a cost/time comparison",
    )
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Optimize a workload through the plan cache and the "
        "parallel batch driver, reporting throughput and cache hit rates.",
    )
    source = parser.add_argument_group("workload source")
    source.add_argument(
        "--sql-file",
        help="file of SELECT statements (one per line, '#' comments) "
        "optimized against the TPC-H catalog; default is a random workload",
    )
    source.add_argument(
        "--scale-factor", type=float, default=1.0,
        help="TPC-H scale factor for --sql-file statistics (default: 1)",
    )
    source.add_argument(
        "--mixed-sql", action="store_true",
        help="random workload: emit mixed-operator SQL text over the TPC-H "
        "catalog (EXISTS/IN subqueries, RIGHT/FULL joins, NULL predicates) "
        "and run it through the full parser/binder front door",
    )
    source.add_argument(
        "--count", type=int, default=100,
        help="random workload: number of queries per batch (default: 100)",
    )
    source.add_argument(
        "--relations", type=int, default=5,
        help="random workload: relations per query (default: 5)",
    )
    source.add_argument(
        "--unique", type=int, default=None,
        help="random workload: distinct query shapes cycled to --count "
        "(default: all distinct)",
    )
    source.add_argument(
        "--seed", type=int, default=42,
        help="random workload seed (default: 42)",
    )
    _add_strategy_options(parser)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: min(cpu count, 8); 1 = serial)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=512,
        help="plan cache capacity in entries (default: 512)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the plan cache (measures raw batch throughput)",
    )
    parser.add_argument(
        "--repeat", type=int, default=2,
        help="run the same batch this many times — the second run shows "
        "warm-cache behaviour (default: 2)",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve plans over JSON/HTTP: POST /optimize, /batch, "
        "/explain; GET /stats, /healthz.  SIGTERM drains gracefully.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port, 0 for an ephemeral one (default: 8080)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="optimizer worker processes (default: min(cpu count, 8); "
        "0 = optimize in the request thread)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None,
        help="admitted-but-unfinished request bound before 429 "
        "(default: 2*workers + 8)",
    )
    parser.add_argument(
        "--scale-factor", type=float, default=1.0,
        help="TPC-H scale factor for the catalog statistics (default: 1)",
    )
    _add_strategy_options(parser)
    parser.add_argument(
        "--cache-size", type=int, default=512,
        help="plan cache capacity in entries (default: 512)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the plan cache",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-request optimization timeout in seconds (default: 120)",
    )
    parser.add_argument(
        "--grace", type=float, default=10.0,
        help="drain grace period on shutdown in seconds (default: 10)",
    )
    parser.add_argument(
        "--degradation", choices=("heuristic", "error"), default="heuristic",
        help="what a blown --timeout budget returns: a greedy heuristic "
        "plan marked degraded (200) or a 504 (default: heuristic)",
    )
    parser.add_argument(
        "--recost-bound", type=float, default=2.0,
        help="serve a stale cached plan while its re-cost stays within "
        "this factor of a cheap greedy replan; past it the entry is "
        "fully re-optimized (default: 2.0)",
    )
    parser.add_argument(
        "--revalidate-workers", type=int, default=1,
        help="background threads re-costing stale cache entries after "
        "statistics drift (sync tier; the async tier revalidates "
        "per shard) (default: 1)",
    )
    parser.add_argument(
        "--band-width", type=float, default=None,
        help="log10 band width for banded cache keys: statistics "
        "snapshots within the same band share one cache entry "
        "(default: exact snapshots)",
    )
    parser.add_argument(
        "--dataset", default=None,
        help="enable POST /execute against this dataset: 'tpch-sf<scale>' "
        "(generated, e.g. tpch-sf0.01) or a directory of .csv/.parquet "
        "files (default: planning only, /execute answers 409)",
    )
    parser.add_argument(
        "--data-dir", default=None,
        help="directory of .csv/.parquet files to serve /execute against "
        "(shorthand for --dataset <dir>)",
    )
    parser.add_argument(
        "--executor", choices=("interpreter", "columnar"), default="columnar",
        help="default /execute backend when a request names none "
        "(default: columnar)",
    )
    parser.add_argument(
        "--async", dest="use_async", action="store_true",
        help="serve with the async tier: one event loop in front of "
        "sharded worker processes, each owning a private plan-cache "
        "shard (see --shards / --cache-dir)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="[--async] worker shard count (default: one per core, max 4); "
        "--cache-size becomes per-shard capacity",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="[--async] directory for plan-cache shard snapshots: shards "
        "persist on graceful drain and warm-start from it on boot "
        "(default: no persistence)",
    )
    return parser


def run_serve(argv) -> int:
    import logging
    import signal
    import threading

    from repro.server import PlanServer, ServerConfig

    args = build_serve_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    if args.dataset is not None and args.data_dir is not None:
        print("error: --dataset and --data-dir are mutually exclusive", file=sys.stderr)
        return 1
    args.dataset = args.dataset if args.dataset is not None else args.data_dir
    if args.use_async:
        return _run_serve_async(args)
    if args.shards is not None or args.cache_dir is not None:
        print("error: --shards/--cache-dir require --async", file=sys.stderr)
        return 1
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_inflight=args.max_inflight,
            scale_factor=args.scale_factor,
            strategy=args.strategy,
            factor=args.factor,
            cost_model=args.cost_model,
            cache_capacity=None if args.no_cache else args.cache_size,
            request_timeout_seconds=args.timeout,
            drain_grace_seconds=args.grace,
            degradation=args.degradation,
            recost_bound=args.recost_bound,
            revalidate_workers=args.revalidate_workers,
            snapshot_band_width=args.band_width,
            dataset=args.dataset,
            default_executor=args.executor,
        )
        server = PlanServer(config)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGINT, lambda signum, frame: stop.set())

    server.start()
    print(
        f"repro plan server listening on {server.url}  "
        f"(workers={config.effective_workers}, strategy={config.strategy}, "
        f"cache={'off' if config.cache_capacity in (None, 0) else config.cache_capacity})",
        flush=True,
    )
    try:
        stop.wait()
        drained = server.drain()
    finally:
        server.close()
    print(f"shutdown: {'drained cleanly' if drained else 'drain grace expired'}", flush=True)
    return 0 if drained else 1


def _run_serve_async(args) -> int:
    """``repro serve --async``: the event-loop front + worker shards."""
    import asyncio
    import signal

    from repro.asyncserver import (
        AsyncPlanServer,
        AsyncServerConfig,
        tune_gc_for_serving,
    )

    try:
        config = AsyncServerConfig(
            host=args.host,
            port=args.port,
            shards=args.shards,
            cache_dir=args.cache_dir,
            max_inflight=args.max_inflight,
            scale_factor=args.scale_factor,
            strategy=args.strategy,
            factor=args.factor,
            cost_model=args.cost_model,
            cache_capacity=args.cache_size,
            request_timeout_seconds=args.timeout,
            drain_grace_seconds=args.grace,
            degradation=args.degradation,
            recost_bound=args.recost_bound,
            snapshot_band_width=args.band_width,
            dataset=args.dataset,
            default_executor=args.executor,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.no_cache:
        print("error: --no-cache makes no sense with --async (the shard "
              "cache IS the tier); use the sync server", file=sys.stderr)
        return 1

    async def main() -> int:
        server = AsyncPlanServer(config)
        try:
            await server.async_start()
        except (ValueError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        tune_gc_for_serving()  # dedicated process: latency-oriented GC
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        print(
            f"repro plan server listening on {server.url}  "
            f"(async, shards={server.service.supervisor.shards}, "
            f"strategy={config.strategy}, "
            f"cache={config.cache_capacity}/shard"
            f"{', dir=' + config.cache_dir if config.cache_dir else ''})",
            flush=True,
        )
        try:
            await stop.wait()
            drained = await server.async_drain()
        finally:
            await server.async_close()
        saved = server.service.supervisor.persistence["saved"]
        print(
            f"shutdown: {'drained cleanly' if drained else 'drain grace expired'}"
            f" ({saved} cached plans snapshotted)"
            if config.cache_dir
            else f"shutdown: {'drained cleanly' if drained else 'drain grace expired'}",
            flush=True,
        )
        return 0 if drained else 1

    return asyncio.run(main())


def run_explain(argv) -> int:
    args = build_argument_parser().parse_args(argv)
    session = PlannerSession.tpch(
        scale_factor=args.scale_factor,
        config=_config_from(args, cache_capacity=None),
    )
    try:
        statement = session.sql(args.sql)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.compare:
        comparison = statement.optimize_all_strategies()
        print(f"{'strategy':10s} {'Cout':>16s} {'time':>10s}")
        for handle in comparison:
            marker = " *" if handle.strategy == comparison.winner else ""
            print(
                f"{handle.strategy:10s} {handle.cost:16,.0f} "
                f"{handle.result.elapsed_seconds * 1000:8.2f}ms{marker}"
            )
        best = comparison.best
        print(f"winner: {comparison.winner} (cost {best.cost:,.0f})")
    else:
        best = statement.optimize()
        print(
            f"strategy={best.strategy}  Cout={best.cost:,.0f}  "
            f"time={best.result.elapsed_seconds * 1000:.2f}ms  "
            f"ccps={best.result.ccp_count}"
        )
    print()
    print(best.explain())
    return 0


def _load_sql_workload(path: str, session: PlannerSession) -> List[Query]:
    """Parse a one-statement-per-line workload file.

    A line that fails to parse raises a :class:`ValueError` locating it as
    ``<file>:<line>:`` so a typo in a 500-line workload is findable.
    """
    queries = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                queries.append(session.parse(text))
            except ValueError as error:
                raise ValueError(f"{path}:{lineno}: {error}") from error
    return queries


def run_batch_command(argv) -> int:
    from repro.workload import generate_workload

    args = build_batch_parser().parse_args(argv)
    config = _config_from(
        args,
        workers=args.workers,
        cache_capacity=None if args.no_cache else args.cache_size,
    )

    if args.sql_file:
        session = PlannerSession.tpch(scale_factor=args.scale_factor, config=config)
        try:
            queries = _load_sql_workload(args.sql_file, session)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if not queries:
            print("error: no queries in --sql-file", file=sys.stderr)
            return 1
    elif args.mixed_sql:
        from repro.workload import generate_sql_workload

        session = PlannerSession.tpch(scale_factor=args.scale_factor, config=config)
        rng = random.Random(args.seed)
        try:
            statements = generate_sql_workload(args.count, rng, unique=args.unique)
            queries = [session.parse(statement) for statement in statements]
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    else:
        session = PlannerSession(config=config)
        rng = random.Random(args.seed)
        try:
            queries = generate_workload(args.count, args.relations, rng, unique=args.unique)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    cache = session.cache
    print(
        f"workload: {len(queries)} queries, strategy={config.strategy_name}, "
        f"cache={'off' if cache is None else f'{cache.capacity} entries'}"
    )
    for round_number in range(1, max(1, args.repeat) + 1):
        report = session.run_batch(queries)
        # Without a cache, reuse can only come from in-batch dedup — don't
        # call that a cache hit.
        reuse_label = "cache hits" if cache is not None else "deduped"
        failures = f"  failed={report.failed}" if report.failed else ""
        print(
            f"batch {round_number}: {report.total} queries in "
            f"{report.wall_seconds:.3f}s  ({report.queries_per_second:,.1f} q/s)  "
            f"optimized={report.total - report.hits}  "
            f"{reuse_label}={report.hits} ({report.hit_rate:.0%})  "
            f"workers={report.workers}{failures}"
        )
    if cache is not None:
        stats = cache.stats
        print(
            f"cache: {len(cache)}/{cache.capacity} entries  hits={stats.hits}  "
            f"misses={stats.misses}  evictions={stats.evictions}  "
            f"hit_rate={stats.hit_rate:.0%}"
        )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        command, rest = argv[0], argv[1:]
    else:
        command, rest = "explain", argv
    if command == "batch":
        return run_batch_command(rest)
    if command == "serve":
        return run_serve(rest)
    return run_explain(rest)


if __name__ == "__main__":
    sys.exit(main())
