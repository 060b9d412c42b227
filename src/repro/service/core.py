"""`RequestCore` — the serving tiers' one request path, free of any transport.

The sync server (:class:`repro.server.PlanService`) hosts one core per
process, the async tier (:class:`repro.asyncserver.worker.ShardWorker`)
one per worker shard.  The core owns what a request does between a
decoded JSON body and the JSON answer: field validation
(:class:`RequestError`), the config and SQL-parse memos (a warm hit
neither parses nor digests), plan-or-serve (cache probe, in-request
dedupe, one dispatch wave for the misses, store, stale-served count),
``/execute``, ``/batch``, the ``/stats_update`` body → catalog delta
step, and :class:`RequestCounters` behind the ``plans`` / ``executions``
blocks of ``GET /stats`` (with :class:`ServerMetrics`, the per-endpoint
request block both transports record into).

Admission, the process pool, the frame loop, persistence and when
revalidation runs stay with the host, which passes in the function that
plans a wave of cache misses.  No HTTP code is imported here, so shard
workers stay free of the HTTP stack.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
import time
from collections import Counter, OrderedDict, deque
from typing import Callable, Deque, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.api.session import plan_to_dict
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.driver import OptimizationResult
from repro.plans.render import render_plan
from repro.query.spec import Query
from repro.service.batch import WorkerOutcome, _optimize_payload
from repro.service.cache import FRESH, PlanCache
from repro.service.fingerprint import (
    PlanCacheKey,
    cardinality_snapshot,
    query_fingerprint,
    strategy_label,
)
from repro.service.rebind import query_binding, rebind_result
from repro.sql.binder import parse_query
from repro.sql.catalog import StatsDelta

#: rows returned by /execute when the request does not name a limit
#: (an explicit ``"limit": null`` lifts the cap entirely).
DEFAULT_EXECUTE_LIMIT = 1000

#: distinct SQL texts kept parsed per core.
PARSE_MEMO_CAPACITY = 4096

#: distinct override combinations kept resolved per core.
CONFIG_MEMO_CAPACITY = 256

#: execution latency samples kept for the ``executions`` percentiles.
WINDOW = 2048

#: request fields that override the host's optimizer settings.
OVERRIDES = ("strategy", "factor", "cost_model")

_PLAN_COUNTERS = (
    "cache_hits", "cache_misses", "failures", "degraded", "timeouts",
    "stale_served", "recosted", "replanned",
)


def percentile(samples: List[float], q: float) -> Optional[float]:
    """The *q*-quantile (0..1) of *samples* by nearest-rank; None if empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class RequestError(Exception):
    """A request-scoped failure with an HTTP status and a stable code.

    Raised anywhere in a request's path; the transports serialise it as
    ``{"error": {"code": ..., "message": ...}}`` with :attr:`status`.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_body(self) -> dict:
        return {"error": {"code": self.code, "message": self.message}}


# -- routing and field validation (shared with both transports) --------------
#: every endpoint the serving tiers answer → its HTTP method.
ENDPOINTS = {
    "/optimize": "POST",
    "/explain": "POST",
    "/execute": "POST",
    "/batch": "POST",
    "/stats_update": "POST",
    "/stats": "GET",
    "/healthz": "GET",
}


def check_route(method: str, path: str) -> None:
    """404 for an unknown path, 405 for the wrong method."""
    expected = ENDPOINTS.get(path)
    if expected is None:
        raise RequestError(404, "not_found", f"no such endpoint: {path}")
    if method != expected:
        raise RequestError(
            405, "method_not_allowed", f"{path} expects {expected}, got {method}"
        )


def decode_body(raw: bytes) -> dict:
    """A request body's JSON object; 400 ``bad_json`` for anything else."""
    if not raw:
        raise RequestError(400, "bad_json", "POST body required (JSON object)")
    try:
        body = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RequestError(400, "bad_json", f"invalid JSON body: {exc}") from exc
    if not isinstance(body, dict):
        raise RequestError(400, "bad_json", "body must be a JSON object")
    return body


def require_sql(sql) -> str:
    if not isinstance(sql, str) or not sql.strip():
        raise RequestError(400, "bad_request", "'sql' must be a non-empty string")
    return sql


def require_queries(body: dict) -> list:
    queries = body.get("queries")
    if not isinstance(queries, list) or not queries:
        raise RequestError(400, "bad_request", "'queries' must be a non-empty list")
    return queries


def stats_update_fields(body: dict) -> Tuple[str, str, float]:
    """A ``/stats_update`` body → ``(table, field, value)``.

    Exactly one of ``cardinality_factor`` (scale the row count) and
    ``cardinality`` (set it) must be given, as a finite number > 0.
    """
    table = body.get("table")
    if not isinstance(table, str) or not table.strip():
        raise RequestError(400, "bad_request", "'table' must be a non-empty string")
    given = [
        field for field in ("cardinality_factor", "cardinality")
        if body.get(field) is not None
    ]
    if len(given) != 1:
        raise RequestError(
            400,
            "bad_request",
            "provide exactly one of 'cardinality_factor' or 'cardinality'",
        )
    field = given[0]
    try:
        value = float(body[field])
    except (TypeError, ValueError):
        value = math.nan
    if not 0 < value < math.inf:
        raise RequestError(400, "bad_request", f"{field} must be a finite number > 0")
    return table, field, value


def batch_report(items: List[dict], wall_seconds: float) -> dict:
    """The ``/batch`` response around per-item results (index order)."""
    failed = sum(1 for item in items if "error" in item)
    return {
        "total": len(items),
        "succeeded": len(items) - failed,
        "failed": failed,
        "cache_hits": sum(1 for item in items if item.get("cache_hit")),
        "wall_seconds": wall_seconds,
        "items": items,
    }


class ServingConfig:
    """Checks and derived settings both tiers' configs share.

    :class:`~repro.server.ServerConfig` and
    :class:`~repro.asyncserver.AsyncServerConfig` are frozen dataclasses
    that declare the fields; this base validates the common ones and
    derives what a hosted :class:`RequestCore` plans under.
    """

    def _validate_common(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port must be in [0, 65535] (0 = ephemeral), got {self.port}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.scale_factor <= 0:
            raise ValueError(f"scale_factor must be > 0, got {self.scale_factor}")
        if self.request_timeout_seconds <= 0:
            raise ValueError(
                f"request_timeout_seconds must be > 0, got {self.request_timeout_seconds}"
            )
        if self.drain_grace_seconds < 0:
            raise ValueError(
                f"drain_grace_seconds must be >= 0, got {self.drain_grace_seconds}"
            )
        from repro.exec import EXECUTORS

        if self.default_executor not in EXECUTORS:
            raise ValueError(
                f"default_executor must be one of {', '.join(EXECUTORS)}, "
                f"got {self.default_executor!r}"
            )
        if self.dataset is not None:
            from repro.data.provision import validate_dataset_spec

            validate_dataset_spec(self.dataset)
        # The optimizer-facing fields (degradation included) validate here.
        self.optimizer_config()

    def optimizer_config(self) -> OptimizerConfig:
        """The optimizer settings requests plan under (before overrides)."""
        return OptimizerConfig(
            strategy=self.strategy,
            factor=self.factor,
            cost_model=self.cost_model,
            workers=None,  # the server runs its own workers
            cache_capacity=self.cache_capacity,
            degradation=self.degradation,
            snapshot_band_width=self.snapshot_band_width,
            recost_bound=self.recost_bound,
        )

    @property
    def hard_timeout_seconds(self) -> float:
        """How long to wait on a planning worker before declaring it wedged.

        The cooperative deadline inside the worker fires at
        ``request_timeout_seconds``; the grace margin lets a degraded (or
        504) answer travel back first, so the hard timeout only triggers
        for genuinely stuck workers.
        """
        return self.request_timeout_seconds + max(
            2.0, 0.25 * self.request_timeout_seconds
        )


# -- counters ----------------------------------------------------------------
def _plans_block(counts: Counter, by_strategy: Counter) -> dict:
    hits, misses = counts["cache_hits"], counts["cache_misses"]
    block = {"served": hits + misses}
    block.update((name, counts[name]) for name in _PLAN_COUNTERS)
    block["hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    block["by_strategy"] = dict(by_strategy)
    return block


def _executions_block(by_executor: Counter, rows: int, seconds: float) -> dict:
    count = sum(by_executor.values())
    return {
        "count": count,
        "by_executor": dict(by_executor),
        "rows_returned": rows,
        "seconds_total": seconds,
        "mean_ms": seconds / count * 1000.0 if count else None,
    }


class RequestCounters:
    """The ``plans`` and ``executions`` blocks of ``GET /stats``.

    Lock-protected: sync HTTP threads and the revalidator's threads
    record concurrently.  Plan counters are cumulative; execution
    percentiles cover the newest :data:`WINDOW` runs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: Counter = Counter()
        self._by_strategy: Counter = Counter()
        self._executions: Counter = Counter()
        self._execution_rows = 0
        self._execution_seconds = 0.0
        self._execution_latencies: Deque[float] = deque(maxlen=WINDOW)

    def record_plan(self, strategy: str, cache_hit: bool, degraded: bool = False) -> None:
        """One successfully served plan (single request or batch item)."""
        with self._lock:
            self._by_strategy[strategy] += 1
            self._plans["cache_hits" if cache_hit else "cache_misses"] += 1
            if degraded:
                self._plans["degraded"] += 1

    def count(self, counter: str) -> None:
        """Bump one of ``failures`` / ``timeouts`` / ``stale_served`` /
        ``recosted`` / ``replanned``."""
        with self._lock:
            self._plans[counter] += 1

    def record_revalidation(self, outcome: str) -> None:
        """A revalidator event; ``recosted`` and ``replanned`` are counted
        (``dropped`` / ``failed`` show in the cache's own block)."""
        if outcome in ("recosted", "replanned"):
            self.count(outcome)

    def record_execution(self, executor: str, seconds: float, rows: int) -> None:
        """One plan run by ``/execute`` (*seconds* excludes planning)."""
        with self._lock:
            self._executions[executor] += 1
            self._execution_rows += rows
            self._execution_seconds += seconds
            self._execution_latencies.append(seconds * 1000.0)

    def snapshot(self) -> dict:
        """``{"plans": ..., "executions": ...}``, consistent under the lock."""
        with self._lock:
            executions = _executions_block(
                self._executions, self._execution_rows, self._execution_seconds
            )
            window = list(self._execution_latencies)
            for name, q in (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)):
                executions[name] = percentile(window, q)
            return {
                "plans": _plans_block(self._plans, self._by_strategy),
                "executions": executions,
            }

    @staticmethod
    def merge(snapshots: Iterable[dict]) -> dict:
        """Sum several :meth:`snapshot` outputs (the async front's shards).

        Percentiles do not add up, so the merged ``executions`` block
        carries the mean only; each shard's own block keeps them.
        """
        plans: Counter = Counter()
        by_strategy: Counter = Counter()
        by_executor: Counter = Counter()
        rows, seconds = 0, 0.0
        for snapshot in snapshots:
            block = snapshot.get("plans", {})
            plans.update({name: block.get(name, 0) for name in _PLAN_COUNTERS})
            by_strategy.update(block.get("by_strategy", {}))
            block = snapshot.get("executions", {})
            by_executor.update(block.get("by_executor", {}))
            rows += block.get("rows_returned", 0)
            seconds += block.get("seconds_total", 0.0)
        return {
            "plans": _plans_block(plans, by_strategy),
            "executions": _executions_block(by_executor, rows, seconds),
        }


class _EndpointStats:
    __slots__ = ("count", "errors_4xx", "errors_5xx", "rejected", "latencies_ms")

    def __init__(self) -> None:
        self.count = 0
        self.errors_4xx = 0
        self.errors_5xx = 0
        self.rejected = 0
        self.latencies_ms: Deque[float] = deque(maxlen=WINDOW)


class ServerMetrics:
    """The ``uptime_seconds`` and ``requests`` blocks of ``GET /stats``.

    Each transport records every finished exchange — endpoint, status
    class and wall latency — lock-protected.  Counters are cumulative;
    percentiles cover the newest :data:`WINDOW` samples per endpoint.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._endpoints: Dict[str, _EndpointStats] = {}

    def record_request(self, endpoint: str, status: int, elapsed_seconds: float) -> None:
        """One finished HTTP exchange (including rejected/errored ones)."""
        with self._lock:
            stats = self._endpoints.setdefault(endpoint, _EndpointStats())
            stats.count += 1
            if status == 429:
                stats.rejected += 1
            if 400 <= status < 500:
                stats.errors_4xx += 1
            elif status >= 500:
                stats.errors_5xx += 1
            stats.latencies_ms.append(elapsed_seconds * 1000.0)

    def snapshot(self) -> dict:
        """A JSON-ready copy of every counter, consistent under the lock."""
        with self._lock:
            endpoints = {}
            for name, stats in self._endpoints.items():
                window = list(stats.latencies_ms)
                endpoints[name] = {
                    "count": stats.count,
                    "errors_4xx": stats.errors_4xx,
                    "errors_5xx": stats.errors_5xx,
                    "rejected_429": stats.rejected,
                    "p50_ms": percentile(window, 0.50),
                    "p95_ms": percentile(window, 0.95),
                    "p99_ms": percentile(window, 0.99),
                    "mean_ms": sum(window) / len(window) if window else None,
                }
            return {
                "uptime_seconds": time.monotonic() - self._started,
                "requests": endpoints,
            }


# -- the core ----------------------------------------------------------------
class ParsedSql(NamedTuple):
    """One memoised SQL text: the bound query and its key digests."""

    query: Query
    fingerprint: str
    #: the snapshot digest in cache keys (banded when the host bands)
    key_snapshot: str
    #: the exact snapshot digest, which stale detection compares
    exact_snapshot: str


class ResolvedConfig(NamedTuple):
    """One request's optimizer settings plus their cache-key labels."""

    config: OptimizerConfig
    strategy: str
    factor: Optional[float]
    cost_model: str


#: plans a wave of misses: ``([(query, config), ...], deadline_at)`` →
#: one :class:`WorkerOutcome` per payload, in order.
Dispatch = Callable[[List[Tuple[Query, OptimizerConfig]], float], List[WorkerOutcome]]

#: one planned statement: ``(result, error, cache_hit, timed_out)``.
Outcome = Tuple[Optional[OptimizationResult], Optional[str], bool, bool]


def run_in_thread(
    payloads: List[Tuple[Query, OptimizerConfig]], deadline_at: float
) -> List[WorkerOutcome]:
    """Plan every payload in the calling thread — the default dispatch
    (each payload's config already carries the budget)."""
    return [_optimize_payload(payload) for payload in payloads]


class RequestCore:
    """Validation, memos, plan-or-serve, execute and counters for one host.

    *catalog* binds SQL and takes ``/stats_update`` drift; *config* is
    the host's base :class:`OptimizerConfig`; *cache* the plan cache
    (None plans every request).  *request_timeout* is the planning
    budget, counted from the request's arrival.  *dataset* enables
    ``/execute``.  *dispatch* plans cache misses (default: in this
    thread).
    """

    def __init__(
        self,
        catalog,
        config: OptimizerConfig,
        cache: Optional[PlanCache],
        *,
        request_timeout: float,
        dataset=None,
        default_executor: str = "columnar",
        dispatch: Dispatch = run_in_thread,
    ):
        self.catalog = catalog
        self.config = config
        self.cache = cache
        self.request_timeout = request_timeout
        self.dataset = dataset
        self.default_executor = default_executor
        self.dispatch = dispatch
        self.counters = RequestCounters()
        self._configs: Dict[tuple, ResolvedConfig] = {}
        self._memo: "OrderedDict[str, ParsedSql]" = OrderedDict()
        self._memo_lock = threading.Lock()
        #: bumped by every catalog change; a parse that read the catalog
        #: under an older generation is not memoised.
        self._generation = 0
        self._memo_hits = 0
        self._memo_misses = 0
        # Memoised queries embed the statistics they were bound under,
        # so any catalog change (re-registration or drift) flushes them.
        self._unsubscribe = [] if catalog is None else [
            catalog.subscribe(self._flush_memo),
            catalog.subscribe_deltas(self._flush_memo),
        ]

    def close(self) -> None:
        """Detach from the catalog (idempotent)."""
        for unsubscribe in self._unsubscribe:
            unsubscribe()

    # -- memos ---------------------------------------------------------------
    def _flush_memo(self, _change=None) -> None:
        with self._memo_lock:
            self._generation += 1
            self._memo.clear()

    def parse(self, sql) -> ParsedSql:
        """*sql* parsed, bound and digested — from the memo when seen."""
        require_sql(sql)
        with self._memo_lock:
            parsed = self._memo.get(sql)
            if parsed is not None:
                self._memo_hits += 1
                self._memo.move_to_end(sql)
                return parsed
            self._memo_misses += 1
            generation = self._generation
        try:
            query = parse_query(sql, self.catalog)
        except ValueError as exc:
            raise RequestError(400, "parse_error", str(exc)) from exc
        exact = cardinality_snapshot(query)
        band = self.config.snapshot_band_width
        parsed = ParsedSql(
            query,
            query_fingerprint(query),
            exact if band is None else cardinality_snapshot(query, band),
            exact,
        )
        with self._memo_lock:
            if generation == self._generation:
                self._memo[sql] = parsed
                if len(self._memo) > PARSE_MEMO_CAPACITY:
                    self._memo.popitem(last=False)
        return parsed

    def memo_stats(self) -> dict:
        with self._memo_lock:
            return {
                "size": len(self._memo),
                "hits": self._memo_hits,
                "misses": self._memo_misses,
            }

    def resolve(self, body: dict) -> ResolvedConfig:
        """The request's settings: the base config plus its overrides.

        A null override counts as absent.
        """
        values = tuple(body.get(field) for field in OVERRIDES)
        try:
            resolved = self._configs.get(values)
        except TypeError:  # an unhashable value; validated (and rejected) below
            resolved = None
        if resolved is not None:
            return resolved
        overrides = {
            field: value for field, value in zip(OVERRIDES, values) if value is not None
        }
        try:
            config = self.config.with_overrides(**overrides) if overrides else self.config
            strategy, factor = strategy_label(config.resolve_strategy(), config.factor)
        except (TypeError, ValueError) as exc:
            raise RequestError(400, "bad_config", str(exc)) from exc
        resolved = ResolvedConfig(config, strategy, factor, config.cost_model_name)
        if len(self._configs) >= CONFIG_MEMO_CAPACITY:
            self._configs.clear()
        self._configs[values] = resolved
        return resolved

    # -- plan-or-serve -------------------------------------------------------
    @staticmethod
    def key(parsed: ParsedSql, resolved: ResolvedConfig) -> PlanCacheKey:
        """The plan-cache key, from memoised digests — equal to
        :func:`~repro.service.fingerprint.cache_key` on the same inputs."""
        return PlanCacheKey(
            fingerprint=parsed.fingerprint,
            snapshot=parsed.key_snapshot,
            strategy=resolved.strategy,
            factor=resolved.factor,
            cost_model=resolved.cost_model,
        )

    def plan(
        self,
        items: Sequence[Tuple[int, str, ParsedSql]],
        resolved: ResolvedConfig,
        deadline_at: float,
    ) -> Dict[int, Outcome]:
        """Serve or plan ``(index, sql, parsed)`` items → index → outcome.

        Distinct cache misses go to :attr:`dispatch` in one wave, with
        the budget left until *deadline_at* (monotonic) armed as a
        cooperative deadline; in-request duplicates rebind the in-hand
        result.  Stale entries are served as-is and counted.  *sql* is
        stored so revalidation can re-parse it.  Without a cache every
        item runs.
        """
        cache = self.cache
        out: Dict[int, Outcome] = {}
        to_run: List[Tuple[int, str, ParsedSql, PlanCacheKey]] = []
        duplicates: Dict[PlanCacheKey, List[Tuple[int, Query]]] = {}
        for index, sql, parsed in items:
            key = self.key(parsed, resolved)
            if cache is not None:
                found = cache.serve_entry(
                    key, parsed.query, exact_snapshot=parsed.exact_snapshot
                )
                if found is not None:
                    served, state = found
                    if state != FRESH:
                        self.counters.count("stale_served")
                    out[index] = (served, None, True, False)
                    continue
                if key in duplicates:
                    duplicates[key].append((index, parsed.query))
                    continue
                duplicates[key] = []
            to_run.append((index, sql, parsed, key))
        if not to_run:
            return out

        budget = max(0.0, deadline_at - time.monotonic())
        config = resolved.config.with_overrides(deadline_seconds=budget)
        outcomes = self.dispatch(
            [(parsed.query, config) for _, _, parsed, _ in to_run], deadline_at
        )
        for (index, sql, parsed, key), outcome in zip(to_run, outcomes):
            if outcome.ok:
                if cache is not None:
                    # store() refuses deadline-degraded fallback plans.
                    cache.store(
                        key, parsed.query, outcome.result,
                        sql=sql, exact_snapshot=parsed.exact_snapshot,
                    )
                out[index] = (outcome.result, None, False, False)
            else:
                out[index] = (None, outcome.error, False, outcome.deadline)
            for dup_index, dup_query in duplicates.get(key, ()):
                if outcome.ok:
                    # Rebind the in-hand result: a cache round trip could
                    # miss (concurrent eviction or invalidation).
                    shared = rebind_result(
                        outcome.result, query_binding(parsed.query), dup_query
                    ).as_cache_hit()
                    out[dup_index] = (shared, None, True, False)
                else:
                    out[dup_index] = out[index]
        return out

    def _deadline_at(self, arrived: Optional[float]) -> float:
        """When the planning budget of a request that *arrived* (monotonic
        time; None = now) runs out — queue time counts against it."""
        return (time.monotonic() if arrived is None else arrived) + self.request_timeout

    def _plan_one(
        self, body: dict, arrived: Optional[float]
    ) -> Tuple[OptimizationResult, ResolvedConfig, ParsedSql]:
        resolved = self.resolve(body)
        sql = body.get("sql")
        parsed = self.parse(sql)
        result, error, _hit, timed_out = self.plan(
            [(0, sql, parsed)], resolved, self._deadline_at(arrived)
        )[0]
        if error is not None:
            if timed_out:
                # degradation="error": the cooperative deadline fired and
                # the run was abandoned where it ran.
                self.counters.count("timeouts")
                raise RequestError(504, "timeout", error)
            self.counters.count("failures")
            raise RequestError(500, "optimizer_error", error)
        self.counters.record_plan(result.strategy, result.cache_hit, degraded=result.degraded)
        return result, resolved, parsed

    # -- request bodies ------------------------------------------------------
    def optimize_body(self, body: dict, arrived: Optional[float] = None) -> dict:
        """``POST /optimize`` — one SQL statement → its plan as JSON."""
        started = time.perf_counter()
        result, resolved, _parsed = self._plan_one(body, arrived)
        payload = {
            "strategy": result.strategy,
            "cost_model": resolved.cost_model,
            "cost": result.cost,
            "cardinality": result.plan.cardinality,
            "elapsed_seconds": result.elapsed_seconds,
            "server_seconds": time.perf_counter() - started,
            "cache_hit": result.cache_hit,
            "degraded": result.degraded,
            "ccp_count": result.ccp_count,
            "plans_built": result.plans_built,
        }
        if body.get("include_plan", True):
            payload["plan"] = plan_to_dict(result.plan.node)
        return payload

    def explain_body(self, body: dict, arrived: Optional[float] = None) -> dict:
        """``POST /explain`` — optimize and render the plan as text."""
        result, _resolved, _parsed = self._plan_one(body, arrived)
        return {
            "strategy": result.strategy,
            "cost": result.cost,
            "cache_hit": result.cache_hit,
            "degraded": result.degraded,
            "explain": render_plan(result.plan.node),
        }

    def execute_body(self, body: dict, arrived: Optional[float] = None) -> dict:
        """``POST /execute`` — optimize one statement, then run the plan.

        Needs a dataset (409 otherwise).  Takes the /optimize fields plus
        ``executor`` (default: the host's) and ``limit`` (row cap; absent
        means :data:`DEFAULT_EXECUTE_LIMIT`, ``null`` unlimited).  Rows
        come back columnar-style with the pure execution runtime, which
        also feeds ``executions`` in ``GET /stats``.
        """
        if self.dataset is None:
            raise RequestError(
                409,
                "no_dataset",
                "no dataset loaded — start the server with a dataset "
                "(e.g. --dataset tpch-sf0.01) to execute plans",
            )
        from repro.algebra.values import NULL
        from repro.exec import EXECUTORS, run_plan

        executor = body.get("executor", self.default_executor)
        if executor not in EXECUTORS:
            raise RequestError(
                400,
                "bad_executor",
                f"unknown executor {executor!r} (one of: {', '.join(EXECUTORS)})",
            )
        limit = body.get("limit", DEFAULT_EXECUTE_LIMIT)
        if limit is not None and (
            not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
        ):
            raise RequestError(400, "bad_request", "'limit' must be an integer >= 0 or null")
        started = time.perf_counter()
        result, _resolved, parsed = self._plan_one(body, arrived)
        try:
            database = self.dataset.database_for(parsed.query)
        except KeyError as exc:
            raise RequestError(
                404, "unknown_table", f"dataset has no table for {exc.args[0]!r}"
            ) from exc
        run_started = time.perf_counter()
        try:
            relation = run_plan(result.plan.node, database, executor=executor, limit=limit)
        except Exception as exc:  # noqa: BLE001 - per-request isolation
            self.counters.count("failures")
            raise RequestError(
                500, "execution_error", f"{type(exc).__name__}: {exc}"
            ) from exc
        execution_seconds = time.perf_counter() - run_started
        self.counters.record_execution(executor, execution_seconds, len(relation))
        columns = list(relation.attributes)
        return {
            "strategy": result.strategy,
            "cost": result.cost,
            "cache_hit": result.cache_hit,
            "degraded": result.degraded,
            "executor": executor,
            "limit": limit,
            "columns": columns,
            "rows": [
                [None if row[column] is NULL else row[column] for column in columns]
                for row in relation
            ],
            "row_count": len(relation),
            "execution_seconds": execution_seconds,
            "server_seconds": time.perf_counter() - started,
        }

    def batch_body(self, body: dict, arrived: Optional[float] = None) -> dict:
        """``POST /batch`` — many SQL statements, per-item fault isolation.

        A statement that fails to parse or optimize yields an item with
        an ``error`` and a ``stage``; every other statement still gets
        its plan.  Parse errors are client errors and do not count in
        ``plans.failures``.  The items share one planning budget.
        """
        sqls = require_queries(body)
        resolved = self.resolve(body)
        include_plans = bool(body.get("include_plans", False))
        started = time.perf_counter()
        items: List[Optional[dict]] = [None] * len(sqls)
        parsed_items = []
        for index, sql in enumerate(sqls):
            try:
                parsed_items.append((index, sql, self.parse(sql)))
            except RequestError as exc:
                items[index] = {"index": index, "error": exc.message, "stage": "parse"}
        outcomes = self.plan(parsed_items, resolved, self._deadline_at(arrived))
        for index, (result, error, hit, timed_out) in outcomes.items():
            if error is not None:
                self.counters.count("timeouts" if timed_out else "failures")
                items[index] = {"index": index, "error": error, "stage": "optimize"}
                if timed_out:
                    items[index]["timeout"] = True
                continue
            self.counters.record_plan(
                result.strategy, result.cache_hit or hit, degraded=result.degraded
            )
            item = {
                "index": index,
                "strategy": result.strategy,
                "cost": result.cost,
                "cache_hit": result.cache_hit or hit,
                "degraded": result.degraded,
                "elapsed_seconds": result.elapsed_seconds,
            }
            if include_plans:
                item["plan"] = plan_to_dict(result.plan.node)
            items[index] = item
        return batch_report(items, time.perf_counter() - started)

    def stats_update(self, body: dict) -> StatsDelta:
        """``POST /stats_update`` — apply one statistics drift.

        Scales a table's row count (``cardinality_factor``) or sets it
        (``cardinality``); distinct counts scale alongside, clamped to
        the new row count (the usual homogeneity assumption).  The
        catalog emits the delta to its subscribers — this core's parse
        memo flushes; marking cache entries stale and revalidating them
        is the host's business.
        """
        table, field, value = stats_update_fields(body)
        old = self.catalog.lookup(table)
        if old is None:
            raise RequestError(404, "unknown_table", f"unknown table {table!r}")
        if field == "cardinality_factor":
            factor, cardinality = value, old.cardinality * value
        else:
            factor = value / old.cardinality if old.cardinality else 1.0
            cardinality = value
        new_stats = dataclasses.replace(
            old,
            cardinality=cardinality,
            distinct={
                column: min(distinct * factor, cardinality)
                for column, distinct in old.distinct.items()
            },
        )
        return self.catalog.update_stats(table, new_stats)
