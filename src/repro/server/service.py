"""`PlanService` — the plan server's engine, independent of HTTP.

The service hosts a :class:`~repro.service.core.RequestCore` (request
validation, memos, plan-or-serve, execute, counters) over a
:class:`~repro.api.PlannerSession` (catalog + config + plan cache), and
adds what only the threaded tier needs: a shared
:class:`~concurrent.futures.ProcessPoolExecutor` that plans cache
misses, the bounded admission counter behind 429 backpressure, drain
accounting, the background revalidator, and the ``/healthz`` and
``/stats`` bodies.  The HTTP layer (:mod:`repro.server.app`) translates
requests into these methods and :class:`RequestError` into JSON error
bodies; tests can drive the service directly without sockets.

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
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import List, Optional, Tuple

from repro.api.session import PlannerSession
from repro.optimizer.config import OptimizerConfig
from repro.query.spec import Query
from repro.server.config import ServerConfig
from repro.service.batch import WorkerOutcome, _optimize_payload
from repro.service.core import RequestCore, RequestError, ServerMetrics, run_in_thread
from repro.service.revalidate import StaleRevalidator


class PlanService:
    """Everything behind the HTTP handler: session, pool, admission, stats."""

    def __init__(self, config: ServerConfig, session: Optional[PlannerSession] = None):
        self.config = config
        dataset = None
        if config.dataset is not None:
            # Boot-time provisioning: a bad spec fails construction, not
            # the first /execute request.
            from repro.data.provision import dataset_from_spec

            dataset = dataset_from_spec(config.dataset)
        self.session = (
            session
            if session is not None
            else PlannerSession.tpch(
                scale_factor=config.scale_factor,
                config=config.optimizer_config(),
                database=dataset,
            )
        )
        self.metrics = ServerMetrics()
        self.core = RequestCore(
            self.session.catalog,
            self.session.config,
            self.session.cache,
            request_timeout=config.request_timeout_seconds,
            dataset=dataset,
            default_executor=config.default_executor,
            dispatch=run_in_thread if config.effective_workers == 0 else self._dispatch,
        )
        # POST /optimize, /explain, /execute and /batch are the core's.
        self.optimize_body = self.core.optimize_body
        self.explain_body = self.core.explain_body
        self.execute_body = self.core.execute_body
        self.batch_body = self.core.batch_body
        self.revalidator: Optional[StaleRevalidator] = None
        if self.session.cache is not None and self.session.catalog is not None:
            # Stats-drift deltas mark entries stale; this pool re-costs or
            # re-plans them off the request path (stale-while-revalidate).
            self.revalidator = self.session.enable_revalidation(
                workers=config.revalidate_workers,
                on_event=self.core.counters.record_revalidation,
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
        self._reset_pool()
        self.core.close()
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
        self, payloads: List[Tuple[Query, OptimizerConfig]], deadline_at: float
    ) -> List[WorkerOutcome]:
        """Plan a wave of cache misses in the process pool.

        Each payload's config already carries the request's remaining
        budget as a cooperative deadline, which either degrades to a
        heuristic plan or raises (``config.degradation``) inside the
        worker.  The pool wait uses the *hard* timeout (budget + grace
        past *deadline_at*) purely as a wedged-worker backstop — a
        healthy worker always answers first.
        """
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

    # -- request bodies ------------------------------------------------------
    def stats_update_body(self, body: dict) -> dict:
        """``POST /stats_update`` — apply a statistics drift to the catalog.

        The catalog's delta marks dependent cache entries stale and kicks
        background revalidation; requests keep being served meanwhile.
        """
        delta = self.core.stats_update(body)
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
        """``GET /stats`` — request metrics, the core's counters, the cache's.

        Carries the same reporting surface as the async tier's
        aggregated stats (``mode`` / ``shards`` / ``persistence``) so
        dashboards can scrape either without branching: the sync tier is
        one unsharded in-process cache with no persistence.
        """
        payload = self.metrics.snapshot()
        payload.update(self.core.counters.snapshot())
        payload["parse_memo"] = self.core.memo_stats()
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
