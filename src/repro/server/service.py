"""`PlanService` — the plan server's engine, independent of HTTP.

The service owns a :class:`~repro.api.PlannerSession` (catalog + config +
plan cache), a shared :class:`~concurrent.futures.ProcessPoolExecutor`
for CPU-bound optimizer runs, the bounded admission counter behind 429
backpressure, and the metrics that become ``GET /stats``.  The HTTP layer
(:mod:`repro.server.app`) translates requests into these methods and
:class:`RequestError` into JSON error bodies; tests can drive the service
directly without sockets.

Threading model: many HTTP threads park cheaply on ``Future.result()``
while at most ``workers`` processes burn CPU in the DP enumerator; the
plan cache is probed and populated only in this process, so a warm hit
never touches the pool.  Worker runs return
:class:`~repro.service.batch.WorkerOutcome` envelopes, so a poisoned
query surfaces as a per-request (or per-batch-item) error instead of
killing the worker protocol.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Dict, List, Optional, Tuple

from repro.api.session import PlannerSession, plan_to_dict
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.driver import OptimizationResult
from repro.plans.render import render_plan
from repro.query.spec import Query
from repro.server.config import ServerConfig
from repro.server.metrics import ServerMetrics
from repro.service.batch import WorkerOutcome, _optimize_payload
from repro.service.cache import FRESH
from repro.service.fingerprint import cache_key, cardinality_snapshot
from repro.service.rebind import query_binding, rebind_result
from repro.service.revalidate import StaleRevalidator

#: rows returned by /execute when the request does not name a limit
#: (an explicit ``"limit": null`` lifts the cap entirely).
DEFAULT_EXECUTE_LIMIT = 1000


class RequestError(Exception):
    """A request-scoped failure with an HTTP status and a stable code.

    Raised anywhere inside the service; the HTTP layer serialises it as
    ``{"error": {"code": ..., "message": ...}}`` with :attr:`status`.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_body(self) -> dict:
        return {"error": {"code": self.code, "message": self.message}}


class PlanService:
    """Everything behind the HTTP handler: session, pool, admission, stats."""

    def __init__(self, config: ServerConfig, session: Optional[PlannerSession] = None):
        self.config = config
        self.dataset = None
        if config.dataset is not None:
            # Boot-time provisioning: a bad spec fails construction, not
            # the first /execute request.
            from repro.data.provision import dataset_from_spec

            self.dataset = dataset_from_spec(config.dataset)
        self.session = (
            session
            if session is not None
            else PlannerSession.tpch(
                scale_factor=config.scale_factor,
                config=config.optimizer_config(),
                database=self.dataset,
            )
        )
        self.metrics = ServerMetrics()
        self.revalidator: Optional[StaleRevalidator] = None
        if self.session.cache is not None and self.session.catalog is not None:
            # Stats-drift deltas mark entries stale; this pool re-costs or
            # re-plans them off the request path (stale-while-revalidate).
            self.revalidator = self.session.enable_revalidation(
                workers=config.revalidate_workers,
                on_event=self.metrics.record_revalidation,
            )
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._inflight = 0
        self._exchanges = 0
        self._idle = threading.Condition()
        self._draining = threading.Event()

    # -- admission / lifecycle ----------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def inflight(self) -> int:
        with self._idle:
            return self._inflight

    @contextlib.contextmanager
    def admit(self):
        """Hold one admission slot; 503 while draining, 429 when full."""
        with self._idle:
            if self._draining.is_set():
                raise RequestError(
                    503, "draining", "server is draining and no longer accepts work"
                )
            if self._inflight >= self.config.effective_max_inflight:
                raise RequestError(
                    429,
                    "overloaded",
                    f"admission queue full ({self._inflight} requests in flight); "
                    "retry with backoff",
                )
            self._inflight += 1
        try:
            yield
        finally:
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    @contextlib.contextmanager
    def track_exchange(self):
        """Count one whole HTTP exchange, response send included.

        ``admit()`` bounds *optimizing* work and releases its slot the
        moment the handler has a payload — but the response bytes and
        the metrics record land after that.  A drain waiting on the
        admission counter alone can observe idle while the final
        response is still being written, close the socket under it, and
        lose that exchange's metrics record.  ``wait_idle`` therefore
        waits for both counters to reach zero.
        """
        with self._idle:
            self._exchanges += 1
        try:
            yield
        finally:
            with self._idle:
                self._exchanges -= 1
                if self._exchanges == 0 and self._inflight == 0:
                    self._idle.notify_all()

    def begin_drain(self) -> None:
        """Stop admitting new optimization requests (idempotent)."""
        self._draining.set()

    def wait_idle(self, grace: Optional[float] = None) -> bool:
        """Block until no exchange is in flight; False if *grace* expired."""
        deadline = None if grace is None else time.monotonic() + grace
        with self._idle:
            while self._inflight > 0 or self._exchanges > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        return True

    def close(self) -> None:
        """Release the worker pool and detach the session (idempotent)."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        self.session.close()

    # -- dispatch ------------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                # Never fork from a multithreaded daemon: HTTP threads may
                # hold locks (logging, metrics) that a forked child would
                # inherit in a locked state and deadlock on.
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "forkserver" if "forkserver" in methods else "spawn"
                )
                self._executor = ProcessPoolExecutor(
                    max_workers=self.config.effective_workers,
                    mp_context=context,
                )
            return self._executor

    def _reset_pool(self) -> None:
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def _dispatch(
        self,
        payloads: List[Tuple[Query, OptimizerConfig]],
        deadline_at: Optional[float] = None,
    ) -> List[WorkerOutcome]:
        """Run every payload, in the pool or (workers=0) in this thread.

        *deadline_at* (``time.monotonic()`` terms) is when the request's
        planning budget expires — normally request arrival plus
        ``request_timeout_seconds``, so time already burnt on parsing and
        cache probes is charged against it.  The remaining budget is
        armed as a cooperative deadline inside each worker run, which
        either degrades to a heuristic plan or raises
        (``config.degradation``); the pool wait itself uses the *hard*
        timeout (budget + grace) purely as a wedged-worker backstop — a
        healthy worker always answers first.
        """
        if not payloads:
            return []
        if deadline_at is None:
            deadline_at = time.monotonic() + self.config.request_timeout_seconds
        budget = max(0.0, deadline_at - time.monotonic())
        payloads = [
            (query, config.with_overrides(deadline_seconds=budget))
            for query, config in payloads
        ]
        if self.config.effective_workers == 0:
            return [_optimize_payload(payload) for payload in payloads]
        grace = self.config.hard_timeout_seconds - self.config.request_timeout_seconds
        executor = self._pool()
        try:
            futures = [executor.submit(_optimize_payload, p) for p in payloads]
            hard_deadline = deadline_at + grace
            outcomes = []
            for future in futures:
                remaining = max(0.0, hard_deadline - time.monotonic())
                try:
                    outcomes.append(future.result(timeout=remaining))
                except FutureTimeout:
                    for pending in futures:
                        pending.cancel()
                    raise RequestError(
                        504,
                        "timeout",
                        f"worker unresponsive past the {self.config.request_timeout_seconds:g}s "
                        "budget plus grace — request abandoned",
                    ) from None
            return outcomes
        except RequestError:
            raise
        except Exception as exc:  # BrokenProcessPool and friends
            self._reset_pool()
            raise RequestError(
                500, "worker_pool_failure", f"worker pool failed: {exc}"
            ) from exc

    def _optimize_indexed(
        self,
        indexed: List[Tuple[int, Query, Optional[str]]],
        config: OptimizerConfig,
        deadline_at: Optional[float] = None,
    ) -> Dict[int, Tuple[Optional[OptimizationResult], Optional[str], bool, bool]]:
        """Optimize ``(index, query, sql)`` triples → index → (result,
        error, hit, timed_out).

        Probes the session cache once per distinct key, dispatches the
        misses to the pool in one wave, stores successes back, and serves
        in-request duplicates through the cache (which rebinds plans for
        renamed-but-isomorphic spellings).  Cache keys are band-aware
        (``snapshot_band_width``); stale entries are served as-is — the
        background revalidator owns bringing them back to fresh — and
        counted in ``plans.stale_served``.  *sql* rides along into the
        stored entry so revalidation can re-parse under fresh statistics.
        Without a cache every query runs independently.
        """
        cache = self.session.cache
        banded = config.snapshot_band_width is not None
        out: Dict[int, Tuple[Optional[OptimizationResult], Optional[str], bool, bool]] = {}
        to_run: List[Tuple[int, Query, Optional[object], Optional[str], Optional[str]]] = []
        duplicates: Dict[object, List[Tuple[int, Query]]] = {}
        if cache is None:
            to_run = [(index, query, None, sql, None) for index, query, sql in indexed]
        else:
            for index, query, sql in indexed:
                key = cache_key(
                    query, config.strategy, config.factor,
                    cost_model=config.cost_model_name,
                    band_width=config.snapshot_band_width,
                )
                exact = cardinality_snapshot(query) if banded else key.snapshot
                found = cache.serve_entry(key, query, exact_snapshot=exact)
                if found is not None:
                    served, state = found
                    if state != FRESH:
                        self.metrics.record_stale_served()
                    out[index] = (served, None, True, False)
                elif key in duplicates:
                    duplicates[key].append((index, query))
                else:
                    duplicates[key] = []
                    to_run.append((index, query, key, sql, exact))

        outcomes = self._dispatch(
            [(query, config) for _, query, _, _, _ in to_run], deadline_at
        )
        for (index, query, key, sql, exact), outcome in zip(to_run, outcomes):
            if outcome.ok:
                result = outcome.result
                # Degraded fallback plans are never cached (PlanCache.store
                # also refuses them defensively).
                if cache is not None and key is not None and not result.degraded:
                    cache.store(key, query, result, sql=sql, exact_snapshot=exact)
                out[index] = (result, None, False, False)
            else:
                out[index] = (None, outcome.error, False, outcome.deadline)
            for dup_index, dup_query in duplicates.get(key, ()):
                if outcome.ok:
                    # Rebind the in-hand result directly — a cache.serve()
                    # round trip could miss (concurrent eviction or
                    # invalidation) and crash the whole request.
                    shared = rebind_result(
                        outcome.result, query_binding(query), dup_query
                    ).as_cache_hit()
                    out[dup_index] = (shared, None, True, False)
                else:
                    out[dup_index] = (None, outcome.error, False, outcome.deadline)
        return out

    # -- request bodies ------------------------------------------------------
    def _derive_config(self, body: dict) -> OptimizerConfig:
        overrides = {
            field: body[field]
            for field in ("strategy", "factor", "cost_model")
            if field in body
        }
        if not overrides:
            return self.session.config
        try:
            return self.session.config.with_overrides(**overrides)
        except (TypeError, ValueError) as exc:
            raise RequestError(400, "bad_config", str(exc)) from exc

    def _parse(self, sql) -> Query:
        if not isinstance(sql, str) or not sql.strip():
            raise RequestError(400, "bad_request", "'sql' must be a non-empty string")
        try:
            return self.session.parse(sql)
        except ValueError as exc:
            raise RequestError(400, "parse_error", str(exc)) from exc

    def _optimize_one(
        self, sql, config: OptimizerConfig, deadline_at: Optional[float] = None
    ) -> OptimizationResult:
        query = self._parse(sql)
        (result, error, _hit, timed_out) = self._optimize_indexed(
            [(0, query, sql)], config, deadline_at
        )[0]
        if error is not None:
            if timed_out:
                # degradation="error": the cooperative deadline fired inside
                # the worker and the run was abandoned there (no CPU leaks).
                raise RequestError(504, "timeout", error)
            self.metrics.record_failure()
            raise RequestError(500, "optimizer_error", error)
        self.metrics.record_plan(
            result.strategy, result.cache_hit, degraded=result.degraded
        )
        return result

    def optimize_body(self, body: dict) -> dict:
        """``POST /optimize`` — one SQL statement → its plan as JSON."""
        config = self._derive_config(body)
        started = time.perf_counter()
        deadline_at = time.monotonic() + self.config.request_timeout_seconds
        result = self._optimize_one(body.get("sql"), config, deadline_at)
        payload = {
            "strategy": result.strategy,
            "cost_model": config.cost_model_name,
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

    def explain_body(self, body: dict) -> dict:
        """``POST /explain`` — optimize and render the plan as text."""
        config = self._derive_config(body)
        deadline_at = time.monotonic() + self.config.request_timeout_seconds
        result = self._optimize_one(body.get("sql"), config, deadline_at)
        return {
            "strategy": result.strategy,
            "cost": result.cost,
            "cache_hit": result.cache_hit,
            "degraded": result.degraded,
            "explain": render_plan(result.plan.node),
        }

    def _resolve_executor(self, body: dict) -> str:
        from repro.exec import EXECUTORS

        executor = body.get("executor", self.config.default_executor)
        if executor not in EXECUTORS:
            raise RequestError(
                400,
                "bad_executor",
                f"unknown executor {executor!r} (one of: {', '.join(EXECUTORS)})",
            )
        return executor

    def _resolve_limit(self, body: dict) -> Optional[int]:
        """The row limit for one /execute: explicit, or the default cap.

        ``"limit": null`` means unlimited; an absent limit defaults to
        :data:`DEFAULT_EXECUTE_LIMIT` so an unbounded join cannot melt
        the JSON serialiser by accident.
        """
        if "limit" not in body:
            return DEFAULT_EXECUTE_LIMIT
        limit = body["limit"]
        if limit is None:
            return None
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
            raise RequestError(400, "bad_request", "'limit' must be an integer >= 0 or null")
        return limit

    def execute_body(self, body: dict) -> dict:
        """``POST /execute`` — optimize one statement, then run the plan.

        Requires a dataset (``ServerConfig(dataset=...)`` / the
        ``--dataset`` flag) — without one the endpoint answers 409.  The
        body takes the /optimize fields plus ``executor`` (backend
        choice, default the config's) and ``limit`` (row cap; ``null``
        for unlimited, absent for the default cap).  The response
        carries the rows columnar-style (``columns`` + row arrays) with
        the pure execution runtime, which also feeds the ``executions``
        block of ``GET /stats``.
        """
        if self.dataset is None:
            raise RequestError(
                409,
                "no_dataset",
                "no dataset loaded — start the server with a dataset "
                "(e.g. --dataset tpch-sf0.01) to execute plans",
            )
        from repro.algebra.values import NULL
        from repro.exec import run_plan

        executor = self._resolve_executor(body)
        limit = self._resolve_limit(body)
        config = self._derive_config(body)
        started = time.perf_counter()
        deadline_at = time.monotonic() + self.config.request_timeout_seconds
        result = self._optimize_one(body.get("sql"), config, deadline_at)
        query = self._parse(body.get("sql"))
        try:
            database = self.dataset.database_for(query)
        except KeyError as exc:
            raise RequestError(
                404, "unknown_table", f"dataset has no table for {exc.args[0]!r}"
            ) from exc
        run_started = time.perf_counter()
        try:
            relation = run_plan(result.plan.node, database, executor=executor, limit=limit)
        except Exception as exc:  # noqa: BLE001 - per-request isolation
            self.metrics.record_failure()
            raise RequestError(
                500, "execution_error", f"{type(exc).__name__}: {exc}"
            ) from exc
        execution_seconds = time.perf_counter() - run_started
        self.metrics.record_execution(executor, execution_seconds, len(relation))
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

    def batch_body(self, body: dict) -> dict:
        """``POST /batch`` — many SQL statements, per-item fault isolation.

        A statement that fails to parse or optimize yields an item with an
        ``error`` field; every other statement still returns its plan —
        the HTTP twin of :func:`repro.service.optimize_many`'s behaviour.
        """
        sqls = body.get("queries")
        if not isinstance(sqls, list) or not sqls:
            raise RequestError(400, "bad_request", "'queries' must be a non-empty list")
        config = self._derive_config(body)
        include_plans = bool(body.get("include_plans", False))
        started = time.perf_counter()
        deadline_at = time.monotonic() + self.config.request_timeout_seconds

        items: List[Optional[dict]] = [None] * len(sqls)
        indexed: List[Tuple[int, Query, Optional[str]]] = []
        for index, sql in enumerate(sqls):
            try:
                indexed.append((index, self._parse(sql), sql))
            except RequestError as exc:
                self.metrics.record_failure()
                items[index] = {"index": index, "error": exc.message, "stage": "parse"}

        outcomes = self._optimize_indexed(indexed, config, deadline_at)
        for index, (result, error, hit, timed_out) in outcomes.items():
            if error is not None:
                if not timed_out:
                    self.metrics.record_failure()
                item = {"index": index, "error": error, "stage": "optimize"}
                if timed_out:
                    item["timeout"] = True
                items[index] = item
                continue
            self.metrics.record_plan(
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

        succeeded = sum(1 for item in items if item is not None and "error" not in item)
        return {
            "total": len(sqls),
            "succeeded": succeeded,
            "failed": len(sqls) - succeeded,
            "cache_hits": sum(1 for item in items if item is not None and item.get("cache_hit")),
            "wall_seconds": time.perf_counter() - started,
            "items": items,
        }

    def stats_update_body(self, body: dict) -> dict:
        """``POST /stats_update`` — apply a statistics drift to the catalog.

        The control-plane entry point for drift: scale a table's row
        count (``cardinality_factor``, distinct counts scaled alongside
        and clamped to the new cardinality) or set it outright
        (``cardinality``).  Emits the typed delta through the catalog,
        which marks dependent cache entries stale and kicks background
        revalidation; requests keep being served meanwhile.
        """
        table = body.get("table")
        if not isinstance(table, str) or not table.strip():
            raise RequestError(400, "bad_request", "'table' must be a non-empty string")
        old = self.session.catalog.lookup(table)
        if old is None:
            raise RequestError(404, "unknown_table", f"unknown table {table!r}")
        factor = body.get("cardinality_factor")
        absolute = body.get("cardinality")
        if (factor is None) == (absolute is None):
            raise RequestError(
                400,
                "bad_request",
                "provide exactly one of 'cardinality_factor' or 'cardinality'",
            )
        try:
            if factor is not None:
                factor = float(factor)
                if factor <= 0:
                    raise ValueError("cardinality_factor must be > 0")
                new_cardinality = old.cardinality * factor
            else:
                new_cardinality = float(absolute)
                if new_cardinality <= 0:
                    raise ValueError("cardinality must be > 0")
                factor = new_cardinality / old.cardinality if old.cardinality else 1.0
        except (TypeError, ValueError) as exc:
            raise RequestError(400, "bad_request", str(exc)) from exc
        # Distinct counts drift with the table (sub-linearly in reality;
        # linear-with-clamp is the standard homogeneity assumption).
        new_stats = dataclasses.replace(
            old,
            cardinality=new_cardinality,
            distinct={
                column: min(value * factor, new_cardinality)
                for column, value in old.distinct.items()
            },
        )
        delta = self.session.catalog.update_stats(table, new_stats)
        cache = self.session.cache
        payload = dict(delta.payload())
        payload["stale_entries"] = cache.stale_count() if cache is not None else 0
        return payload

    def healthz_body(self) -> Tuple[int, dict]:
        """``GET /healthz`` — 200 while serving, 503 once draining."""
        if self.draining:
            return 503, {"status": "draining", "inflight": self.inflight}
        return 200, {
            "status": "ok",
            "workers": self.config.effective_workers,
            "strategy": self.session.config.strategy_name,
            "inflight": self.inflight,
        }

    def stats_body(self) -> dict:
        """``GET /stats`` — request metrics merged with the plan cache's.

        Carries the same reporting surface as the async tier's
        aggregated stats (``mode`` / ``shards`` / ``persistence``) so
        dashboards can scrape either without branching: the sync tier is
        one unsharded in-process cache with no persistence.
        """
        payload = self.metrics.snapshot()
        payload["mode"] = "sync"
        payload["inflight"] = self.inflight
        payload["draining"] = self.draining
        payload["max_inflight"] = self.config.effective_max_inflight
        payload["workers"] = self.config.effective_workers
        payload["degradation"] = self.config.degradation
        payload["shards"] = 1
        payload["persistence"] = {"loaded": 0, "saved": 0, "rejected": 0}
        cache = self.session.cache
        payload["cache"] = cache.describe() if cache is not None else None
        return payload
