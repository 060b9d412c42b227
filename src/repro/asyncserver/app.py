"""The async serving tier: one event loop in front of sharded workers.

Architecture (see ``docs/architecture.md``)::

    clients ──keep-alive HTTP/1.1──▶ event loop (this module)
                                        │ route: SQL → fingerprint → shard
                                        ├──frames──▶ worker 0 (own PlanCache)
                                        ├──frames──▶ worker 1 (own PlanCache)
                                        └──frames──▶ ...

The front process never optimizes and never touches a plan cache: it
parses HTTP, routes each request by structural fingerprint to the worker
that owns that fingerprint's cache shard, and relays the worker's
ready-made JSON response bytes verbatim.  A bounded route cache
(SQL text → shard) makes the steady-state front cost independent of SQL
parsing; ``/batch`` scatters slices to every involved shard and merges
the per-item results; ``/stats`` aggregates all shards plus the front's
own request metrics.

Endpoints, status codes and error bodies mirror the sync tier
(:mod:`repro.server.app`) so :class:`repro.server.client.ServerClient`
works unchanged against either.
"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import socket
import threading
import time
from collections import Counter, OrderedDict, deque
from typing import Deque, Optional, Tuple

from repro.asyncserver import frames
from repro.asyncserver.config import AsyncServerConfig
from repro.asyncserver.supervisor import (
    WorkerCrashed,
    WorkerSupervisor,
    WorkerUnavailable,
)
from repro.service.core import (
    ENDPOINTS,
    RequestCounters,
    RequestError,
    ServerMetrics,
    batch_report,
    check_route,
    decode_body,
    require_queries,
    require_sql,
    stats_update_fields,
)
from repro.service.fingerprint import query_fingerprint, shard_for_fingerprint
from repro.sql.binder import parse_query
from repro.sql.catalog import Catalog

logger = logging.getLogger("repro.asyncserver")

#: same request-size bound as the sync tier.
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

#: endpoints planned on the shard owning the statement's fingerprint.
PLAN_KINDS = {
    "/optimize": frames.OPTIMIZE,
    "/explain": frames.EXPLAIN,
    "/execute": frames.EXECUTE,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _error_bytes(code: str, message: str) -> bytes:
    return json.dumps({"error": {"code": code, "message": message}}).encode("utf-8")


def _response_bytes(status: int, body: bytes, *, close: bool = False) -> bytes:
    # Backpressure statuses advertise a retry hint that ServerClient's
    # opt-in retry loop honours (mirrors the sync tier).
    retry_after = "Retry-After: 1\r\n" if status in (429, 503) else ""
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{retry_after}"
        f"{'Connection: close' + chr(13) + chr(10) if close else ''}"
        "\r\n"
    )
    return head.encode("latin-1") + body


def tune_gc_for_serving() -> None:
    """Latency-oriented GC posture for a **dedicated** serving process.

    Freezes the boot heap (catalog, caches — immortal anyway) out of the
    collector and makes full collections rare, so a gen-2 pass over
    thousands of plan nodes cannot stall the event loop mid-burst; the
    warm path allocates only small short-lived objects that gen-0
    handles.  Called by the worker processes, the ``serve --async`` CLI
    and the benchmark — NOT by the in-process test facade, which must
    leave its host process's GC alone.
    """
    gc.collect()
    gc.freeze()
    gc.set_threshold(50_000, 50, 100)


class AsyncPlanService:
    """Loop-side state: supervisor, route cache, admission, metrics."""

    def __init__(self, config: AsyncServerConfig):
        self.config = config
        self.supervisor = WorkerSupervisor(config)
        self.catalog = Catalog.from_tpch(scale_factor=config.scale_factor)
        self.metrics = ServerMetrics()
        self.inflight = 0
        self.draining = False
        self._idle: Optional[asyncio.Event] = None
        # SQL text → shard.  Bounded LRU; on a hit the front routes
        # without parsing at all.
        self._routes: "OrderedDict[str, int]" = OrderedDict()
        self._route_hits = 0
        self._route_misses = 0
        self.started = time.monotonic()

    async def start(self) -> None:
        self._idle = asyncio.Event()
        self._idle.set()
        await self.supervisor.start()

    # -- routing -------------------------------------------------------------
    def route(self, sql) -> int:
        """The shard owning *sql*'s structural fingerprint."""
        require_sql(sql)
        routes = self._routes
        shard = routes.get(sql)
        if shard is not None:
            self._route_hits += 1
            routes.move_to_end(sql)
            return shard
        self._route_misses += 1
        try:
            query = parse_query(sql, self.catalog)
        except ValueError as exc:
            raise RequestError(400, "parse_error", str(exc)) from exc
        shard = shard_for_fingerprint(
            query_fingerprint(query), self.supervisor.shards
        )
        routes[sql] = shard
        if len(routes) > self.config.route_cache_capacity:
            routes.popitem(last=False)
        return shard

    # -- admission -----------------------------------------------------------
    def _admit(self) -> None:
        if self.draining:
            raise RequestError(503, "draining", "server is draining; retry elsewhere")
        if self.inflight >= self.config.effective_max_inflight:
            raise RequestError(
                429,
                "overloaded",
                f"too many in-flight requests (limit {self.config.effective_max_inflight})",
            )
        self.inflight += 1
        if self._idle is not None:
            self._idle.clear()

    def _release(self) -> None:
        self.inflight -= 1
        if self.inflight == 0 and self._idle is not None:
            self._idle.set()

    # -- endpoints -----------------------------------------------------------
    async def dispatch(self, method: str, path: str, body: bytes) -> Tuple[int, bytes]:
        started = time.perf_counter()
        try:
            status, payload = await self._route_request(method, path, body)
        except RequestError as error:
            status, payload = error.status, _error_bytes(error.code, error.message)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - the front must not die
            logger.exception("unhandled error on %s %s", method, path)
            status, payload = 500, _error_bytes(
                "internal", f"{type(error).__name__}: {error}"
            )
        endpoint = path if path in ENDPOINTS else "<other>"
        self.metrics.record_request(endpoint, status, time.perf_counter() - started)
        return status, payload

    async def _route_request(self, method, path, body) -> Tuple[int, bytes]:
        check_route(method, path)
        if path in PLAN_KINDS:
            # /execute routes like /optimize: the executing shard is the
            # one whose cache shard owns the plan.
            return await self._plan_request(PLAN_KINDS[path], body)
        if path == "/batch":
            return await self._batch_request(body)
        if path == "/stats":
            return 200, json.dumps(await self.stats_body()).encode("utf-8")
        if path == "/stats_update":
            return await self._stats_update_request(body)
        status, payload = self.healthz_body()
        return status, json.dumps(payload).encode("utf-8")

    async def _plan_request(self, kind: int, body: bytes) -> Tuple[int, bytes]:
        self._admit()
        try:
            payload = decode_body(body)
            shard = self.route(payload.get("sql"))
            try:
                # Hard (budget + grace) timeout: the worker's cooperative
                # deadline fires at the budget and answers first, so this
                # expiring means the worker is wedged — kill it so the
                # supervisor's crash path restarts the shard.
                return await self.supervisor.request(
                    shard, kind, body, timeout=self.config.hard_timeout_seconds
                )
            except asyncio.TimeoutError:
                self.supervisor.worker(shard).reap("request hard-timeout")
                raise RequestError(
                    504,
                    "timeout",
                    f"worker unresponsive past the "
                    f"{self.config.request_timeout_seconds}s budget plus grace"
                    " — request abandoned",
                ) from None
            except WorkerUnavailable as unavailable:
                raise RequestError(
                    503, "shard_unavailable", str(unavailable)
                ) from unavailable
            except WorkerCrashed as crash:
                raise RequestError(500, "worker_pool_failure", str(crash)) from crash
        finally:
            self._release()

    async def _batch_request(self, body: bytes) -> Tuple[int, bytes]:
        self._admit()
        try:
            payload = decode_body(body)
            queries = require_queries(payload)
            started = time.perf_counter()
            front_items = []  # items answered without a worker (parse errors)
            per_shard: dict = {}
            for index, sql in enumerate(queries):
                try:
                    shard = self.route(sql)
                except RequestError as error:
                    front_items.append(
                        {"index": index, "error": error.message, "stage": "parse"}
                    )
                    continue
                per_shard.setdefault(shard, []).append(index)

            passthrough = {
                key: payload[key]
                for key in ("strategy", "factor", "cost_model", "include_plans")
                if key in payload
            }

            async def one_shard(shard: int, indices):
                def failed(error: str, stage: str = "optimize", **extra):
                    return [
                        {"index": index, "error": error, "stage": stage, **extra}
                        for index in indices
                    ]

                # A shard's slice is itself a /batch body; its items come
                # back indexed by slice position.
                request = dict(passthrough, queries=[queries[i] for i in indices])
                try:
                    status, response = await self.supervisor.request(
                        shard,
                        frames.BATCH,
                        json.dumps(request).encode("utf-8"),
                        timeout=self.config.hard_timeout_seconds,
                    )
                except asyncio.TimeoutError:
                    self.supervisor.worker(shard).reap("batch hard-timeout")
                    return failed("worker timeout", timeout=True)
                except WorkerUnavailable as unavailable:
                    return failed(str(unavailable), stage="route")
                except WorkerCrashed:
                    return failed("worker crashed while optimizing")
                body = json.loads(response)
                if status != 200:
                    error = body.get("error", {})
                    if status < 500:
                        # A rejected request (e.g. a bad override) is
                        # rejected by every shard alike: fail it whole.
                        raise RequestError(status, error.get("code"), error.get("message"))
                    return failed(error.get("message", ""))
                items = body["items"]
                for item in items:
                    item["index"] = indices[item["index"]]
                return items

            shard_items = await asyncio.gather(
                *(one_shard(shard, indices) for shard, indices in per_shard.items())
            )
            items = front_items + [item for chunk in shard_items for item in chunk]
            items.sort(key=lambda item: item["index"])
            report = batch_report(items, time.perf_counter() - started)
            return 200, json.dumps(report).encode("utf-8")
        finally:
            self._release()

    async def _stats_update_request(self, body: bytes) -> Tuple[int, bytes]:
        """``POST /stats_update`` — broadcast one statistics drift.

        Every shard owns a private catalog copy, so the delta goes to
        all of them (each marks its own entries stale and revalidates a
        bounded inline batch — an independent per-shard task).  The
        control plane takes no admission slot: drift must land even
        under 429 pressure.  Any shard rejecting the update (unknown
        table, bad body) fails the whole request with that shard's
        error, since a half-applied drift would leave shards planning
        under different statistics.
        """
        payload = decode_body(body)
        stats_update_fields(payload)  # reject a malformed drift before fan-out
        replies = await self.supervisor.broadcast(
            frames.STATS_UPDATE, json.dumps(payload).encode("utf-8")
        )
        shards: list = []
        for reply in replies:
            if reply is None:
                continue
            status, response = reply
            detail = json.loads(response)
            if status != 200:
                error = detail.get("error", {})
                raise RequestError(
                    status,
                    error.get("code", "stats_update_failed"),
                    error.get("message", "shard rejected the statistics update"),
                )
            shards.append(detail)
        if not shards:
            raise RequestError(503, "shard_unavailable", "no shard answered the update")
        merged = {
            key: shards[0].get(key)
            for key in (
                "relation",
                "old_cardinality",
                "new_cardinality",
                "cardinality_ratio",
                "distinct_changed",
            )
        }
        merged["shards"] = len(shards)
        merged["marked_stale"] = sum(s.get("marked_stale", 0) for s in shards)
        merged["stale_entries"] = sum(s.get("stale_entries", 0) for s in shards)
        inline: Counter = Counter()
        for shard in shards:
            inline.update(shard.get("revalidated_inline", {}))
        merged["revalidated_inline"] = dict(inline)
        return 200, json.dumps(merged).encode("utf-8")

    # -- introspection -------------------------------------------------------
    def healthz_body(self) -> Tuple[int, dict]:
        if self.draining:
            return 503, {"status": "draining", "inflight": self.inflight}
        return 200, {
            "status": "ok",
            "mode": "async",
            "shards": self.supervisor.shards,
            "strategy": self.config.strategy,
            "inflight": self.inflight,
        }

    async def stats_body(self) -> dict:
        """``GET /stats`` — front metrics + all shards, merged.

        Per-shard counters come from each worker's single-threaded
        snapshot, so no individual shard's numbers can tear; the merge
        is one pass over already-consistent snapshots.
        """
        replies = await self.supervisor.broadcast(frames.STATS, b"{}")
        details = [
            json.loads(payload)
            for reply in replies
            if reply is not None
            for status, payload in (reply,)
            if status == 200
        ]
        payload = self.metrics.snapshot()
        payload["mode"] = "async"
        payload["inflight"] = self.inflight
        payload["draining"] = self.draining
        payload["max_inflight"] = self.config.effective_max_inflight
        payload["shards"] = self.supervisor.shards
        payload["restarts"] = self.supervisor.total_restarts
        payload["supervision"] = self.supervisor.shard_states()
        payload["degradation"] = self.config.degradation
        payload.update(RequestCounters.merge(details))
        payload["persistence"] = self.supervisor.persistence
        payload["cache"] = _merge_caches(details)
        payload["route_cache"] = {
            "size": len(self._routes),
            "capacity": self.config.route_cache_capacity,
            "hits": self._route_hits,
            "misses": self._route_misses,
        }
        payload["shard_detail"] = details
        return payload

    # -- lifecycle -----------------------------------------------------------
    async def drain(self, grace: Optional[float] = None) -> bool:
        """Refuse new work, wait for in-flight, snapshot shards, stop.

        Idempotent; returns True when every in-flight request finished
        inside the grace period.
        """
        grace = self.config.drain_grace_seconds if grace is None else grace
        self.draining = True
        clean = True
        if self._idle is not None and self.inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=grace)
            except asyncio.TimeoutError:
                clean = False
        await self.supervisor.drain()
        return clean


def _merge_caches(details) -> dict:
    merged: Counter = Counter()
    for detail in details:
        for key, value in (detail.get("cache") or {}).items():
            if isinstance(value, (int, float)):
                merged[key] += value
    if "hits" in merged or "misses" in merged:
        lookups = merged.get("hits", 0) + merged.get("misses", 0)
        merged["hit_rate"] = merged.get("hits", 0) / lookups if lookups else 0.0
    return dict(merged)


class _HttpConnection(asyncio.Protocol):
    """One keep-alive client connection on the front event loop.

    Minimal HTTP/1.1: request line + Content-Length framing, no chunked
    bodies.  Pipelined requests are dispatched **concurrently** (each
    fans out to its shard immediately, so one connection can keep every
    worker busy and the workers see batched frames) while responses are
    written strictly in request order — a per-connection FIFO of
    dispatch tasks that a single writer coroutine drains.
    """

    def __init__(self, service: AsyncPlanService):
        self.service = service
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        self._head: Optional[Tuple[str, str, int, bool]] = None
        self._responses: Deque[Tuple[asyncio.Task, bool]] = deque()
        self._writer: Optional[asyncio.Task] = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover
                pass

    def connection_lost(self, exc) -> None:
        if self._writer is not None:
            self._writer.cancel()
            self._writer = None
        for task, _close in self._responses:
            task.cancel()
        self._responses.clear()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._parse()

    # -- request framing -----------------------------------------------------
    def _parse(self) -> None:
        while True:
            if self._head is None:
                end = self.buffer.find(b"\r\n\r\n")
                if end < 0:
                    if len(self.buffer) > MAX_HEADER_BYTES:
                        self._reject(400, "bad_request", "request head too large")
                    return
                head = bytes(self.buffer[: end])
                del self.buffer[: end + 4]
                try:
                    self._head = self._parse_head(head)
                except RequestError as error:
                    self._reject(error.status, error.code, error.message)
                    return
            method, path, length, close_after = self._head
            if length > MAX_BODY_BYTES:
                self._reject(413, "too_large", f"body exceeds {MAX_BODY_BYTES} bytes")
                return
            if len(self.buffer) < length:
                return
            body = bytes(self.buffer[:length])
            del self.buffer[:length]
            self._head = None
            task = asyncio.ensure_future(self.service.dispatch(method, path, body))
            self._responses.append((task, close_after))
            if self._writer is None:
                self._writer = asyncio.ensure_future(self._write_responses())

    @staticmethod
    def _parse_head(head: bytes) -> Tuple[str, str, int, bool]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise RequestError(400, "bad_request", "undecodable head") from exc
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise RequestError(400, "bad_request", f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        length = 0
        connection = ""
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep:
                continue
            name = name.strip().lower()
            if name == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise RequestError(400, "bad_request", "bad Content-Length") from None
                if length < 0:
                    raise RequestError(400, "bad_request", "bad Content-Length")
            elif name == "connection":
                connection = value.strip().lower()
        close_after = connection == "close" or version == "HTTP/1.0"
        return method, target.split("?", 1)[0], length, close_after

    def _reject(self, status: int, code: str, message: str) -> None:
        """Protocol-level failure: answer and close (resync impossible)."""
        if self.transport is not None and not self.transport.is_closing():
            self.transport.write(
                _response_bytes(status, _error_bytes(code, message), close=True)
            )
            self.transport.close()

    # -- response loop -------------------------------------------------------
    async def _write_responses(self) -> None:
        try:
            while self._responses:
                task, close_after = self._responses.popleft()
                status, payload = await task
                transport = self.transport
                if transport is None or transport.is_closing():
                    return
                transport.write(_response_bytes(status, payload, close=close_after))
                if close_after:
                    transport.close()
                    return
        finally:
            self._writer = None


class AsyncPlanServer:
    """The async daemon: supervisor + event-loop HTTP front.

    Two usage styles:

    * **async** (the CLI): ``await server.async_start()`` inside a
      running loop, later ``await server.async_drain()``.
    * **sync facade** (tests, parity with the sync
      :class:`~repro.server.app.PlanServer`)::

          with AsyncPlanServer(AsyncServerConfig(port=0, shards=2)) as server:
              ...  # server.port, server.url
              server.drain()

      which hosts a private event loop in a background thread.
    """

    def __init__(self, config: Optional[AsyncServerConfig] = None):
        self.config = config if config is not None else AsyncServerConfig()
        self.service = AsyncPlanService(self.config)
        self._server: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._done: Optional[asyncio.Future] = None

    # -- addressing ----------------------------------------------------------
    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- async API -----------------------------------------------------------
    async def async_start(self) -> "AsyncPlanServer":
        await self.service.start()
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _HttpConnection(self.service), self.config.host, self.config.port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "%s",
            json.dumps(
                {
                    "event": "start",
                    "mode": "async",
                    "url": self.url,
                    "shards": self.service.supervisor.shards,
                    "max_inflight": self.config.effective_max_inflight,
                    "cache_dir": self.config.cache_dir,
                }
            ),
        )
        return self

    async def async_drain(self, grace: Optional[float] = None) -> bool:
        """Graceful stop: 503 new work, finish in-flight, snapshot, exit."""
        clean = await self.service.drain(grace)
        await self.async_close()
        logger.info(
            "%s",
            json.dumps(
                {
                    "event": "drain",
                    "clean": clean,
                    "persistence": self.service.supervisor.persistence,
                }
            ),
        )
        return clean

    async def async_close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.supervisor.kill()

    # -- sync facade (background-thread event loop) --------------------------
    def start(self) -> "AsyncPlanServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-async-plan-server", daemon=True
        )
        self._thread.start()
        boot_budget = self.config.worker_boot_seconds + 30.0
        if not self._ready.wait(timeout=boot_budget):
            raise RuntimeError(f"async server failed to boot within {boot_budget}s")
        if self._startup_error is not None:
            self._join()
            raise RuntimeError("async server failed to start") from self._startup_error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()
                self._loop = None

    async def _main(self) -> None:
        self._done = asyncio.get_running_loop().create_future()
        try:
            await self.async_start()
        except BaseException as error:  # noqa: BLE001 - surfaced in start()
            self._startup_error = error
            await self.async_close()
            self._ready.set()
            return
        self._ready.set()
        await self._done

    def _finish(self) -> None:
        if self._done is not None and not self._done.done():
            self._done.set_result(None)

    def _join(self) -> None:
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def drain(self, grace: Optional[float] = None) -> bool:
        """Sync-facade graceful stop (mirrors ``PlanServer.drain``)."""
        loop = self._loop
        if loop is None or self._thread is None:
            return True

        async def _do() -> bool:
            try:
                return await self.async_drain(grace)
            finally:
                self._finish()

        timeout = (grace if grace is not None else self.config.drain_grace_seconds)
        clean = asyncio.run_coroutine_threadsafe(_do(), loop).result(
            timeout=timeout + self.config.request_timeout_seconds + 30.0
        )
        self._join()
        return clean

    def close(self) -> None:
        """Sync-facade immediate stop (idempotent)."""
        loop = self._loop
        if loop is None or self._thread is None:
            return

        async def _do() -> None:
            try:
                await self.async_close()
            finally:
                self._finish()

        asyncio.run_coroutine_threadsafe(_do(), loop).result(timeout=30.0)
        self._join()

    def __enter__(self) -> "AsyncPlanServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
