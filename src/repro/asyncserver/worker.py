"""One worker shard: a process that *owns* its plan-cache shard.

``python -m repro.asyncserver.worker '<json config>'`` — spawned by the
:mod:`~repro.asyncserver.supervisor`, one per shard.  Each worker builds
its own TPC-H catalog and a **private** :class:`~repro.service.cache.PlanCache`;
the shard router guarantees every structural fingerprint always arrives
at the same worker, so there is no cross-process lock anywhere on the
warm path — and, the worker being single-threaded, no lock at all: its
stats snapshots are consistent by construction.

Requests arrive as :mod:`~repro.asyncserver.frames` on stdin; responses
(HTTP status + ready-to-send JSON body) leave on stdout.  The worker
keeps a bounded SQL-text memo (text → parsed query + fingerprint +
snapshot digests), so the steady-state warm hit is: memo lookup → cache
key → ``PlanCache.serve`` → ``json.dumps`` of a small dict.  Cold
misses run :func:`repro.optimizer.optimize` in-process, blocking the
shard — queries racing to the same shard queue behind the miss, which
is the sharding contract (one owner per fingerprint).

Persistence: on boot the worker warm-starts from its snapshot file when
the catalog fingerprint and layout version match (mismatches are
*refused* and counted as ``rejected`` — a stale plan served after a
catalog change is a correctness bug); on the supervisor's ``SNAPSHOT``
command (graceful drain) it writes the shard back to disk atomically.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time
from collections import Counter, OrderedDict
from typing import Dict, Optional, Tuple

from repro import chaos
from repro.api.session import plan_to_dict
from repro.asyncserver import frames
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.deadline import Deadline, PlanningDeadlineExceeded
from repro.optimizer.driver import optimize
from repro.plans.render import render_plan
from repro.query.spec import Query
from repro.service.cache import FRESH, PlanCache, SnapshotError
from repro.service.fingerprint import (
    PlanCacheKey,
    cardinality_snapshot,
    catalog_fingerprint,
    query_fingerprint,
    strategy_label,
)
from repro.service.revalidate import StaleRevalidator
from repro.sql.binder import parse_query
from repro.sql.catalog import Catalog, TableStats

#: bounded memo of parsed SQL text per worker.
PARSE_MEMO_CAPACITY = 4096

#: default /execute row cap (mirrors the sync tier's; an explicit
#: ``"limit": null`` lifts it).  Kept local so the worker does not
#: import the sync HTTP stack.
DEFAULT_EXECUTE_LIMIT = 1000


class _RequestFailure(Exception):
    """A per-request error with an HTTP status and stable code."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def body(self) -> dict:
        return {"error": {"code": self.code, "message": self.message}}


class ShardWorker:
    """The per-process serving state: catalog, cache shard, memos, counters."""

    def __init__(self, config: dict):
        self.shard = int(config["shard"])
        self.shards = int(config["shards"])
        self.cache_dir = config.get("cache_dir")
        self.snapshot_path = config.get("snapshot_path")
        self.base_config = OptimizerConfig(
            strategy=config.get("strategy", "ea-prune"),
            factor=config.get("factor", 1.03),
            cost_model=config.get("cost_model", "cout"),
            cache_capacity=None,  # the shard cache is probed explicitly
            degradation=config.get("degradation", "heuristic"),
            snapshot_band_width=config.get("snapshot_band_width"),
            recost_bound=float(config.get("recost_bound", 2.0)),
        )
        #: per-request planning budget; queue time inside the worker is
        #: charged against it (see :meth:`_deadline`).
        self.request_timeout = float(config.get("request_timeout_seconds", 120.0))
        # Execution tier: every shard provisions its own dataset copy
        # (generation is deterministic, so shards hold identical data).
        self.dataset = None
        self.default_executor = config.get("default_executor", "columnar")
        if config.get("dataset"):
            from repro.data.provision import dataset_from_spec

            self.dataset = dataset_from_spec(config["dataset"])
        self.catalog = Catalog.from_tpch(scale_factor=config.get("scale_factor", 1.0))
        self.catalog_fp = catalog_fingerprint(self.catalog)
        self.cache = PlanCache(capacity=int(config.get("cache_capacity", 512)))
        # Stats drift lands via STATS_UPDATE frames; the revalidator runs
        # inline (drain() only — never kicked, so its thread pool stays
        # empty and the worker stays single-threaded by construction).
        self.revalidate_batch = int(config.get("revalidate_batch", 8))
        self.revalidator = StaleRevalidator(
            self.cache, self.catalog, self.base_config,
            on_event=self._record_revalidation,
        )
        # text → (query, fingerprint, key snapshot, exact snapshot) —
        # parse/bind/digest once per distinct SQL spelling (key snapshot
        # is banded when snapshot_band_width is configured).
        self._parse_memo: "OrderedDict[str, Tuple[Query, str, str, str]]" = OrderedDict()
        self._memo_hits = 0
        self._memo_misses = 0
        # (strategy, factor, cost_model) request overrides → resolved
        # (config, key-strategy name, key factor, cost-model name).
        self._config_memo: Dict[
            Tuple, Tuple[OptimizerConfig, str, Optional[float], str]
        ] = {}
        self.persistence = {"loaded": 0, "saved": 0, "rejected": 0}
        self.persistence_error: Optional[str] = None
        self._started = time.monotonic()
        self._served = 0
        self._failures = 0
        self._degraded = 0
        self._timeouts = 0
        self._stale_served = 0
        self._recosted = 0
        self._replanned = 0
        self._by_strategy: Counter = Counter()
        self._executions: Counter = Counter()
        self._execution_rows = 0
        self._execution_seconds = 0.0

    # -- persistence ---------------------------------------------------------
    def warm_start(self) -> None:
        if not self.snapshot_path or not os.path.exists(self.snapshot_path):
            return
        try:
            self.persistence["loaded"] = self.cache.load_snapshot(
                self.snapshot_path, catalog_fingerprint=self.catalog_fp
            )
        except SnapshotError as error:
            # Refused: cold-start instead of serving stale plans.  The
            # file is left in place for post-mortems.
            self.persistence["rejected"] += 1
            self.persistence_error = f"{error.reason}: {error.message}"
            print(
                f"[shard {self.shard}] snapshot refused ({error.reason}): "
                f"{error.message}",
                file=sys.stderr,
                flush=True,
            )

    def snapshot(self) -> dict:
        if not self.snapshot_path:
            return {"saved": 0, "path": None, "persistence": dict(self.persistence)}
        os.makedirs(os.path.dirname(self.snapshot_path) or ".", exist_ok=True)
        saved = self.cache.save_snapshot(
            self.snapshot_path,
            catalog_fingerprint=self.catalog_fp,
            meta={"shard": self.shard, "shards": self.shards},
        )
        self.persistence["saved"] += saved
        if chaos.enabled():
            # Injected snapshot damage (tests/CI): the next warm start
            # must refuse this file and cold-start.
            fault = chaos.damage_snapshot(self.snapshot_path)
            if fault:
                print(
                    f"[shard {self.shard}] chaos: snapshot {fault}d on disk",
                    file=sys.stderr,
                    flush=True,
                )
        return {
            "saved": saved,
            "path": self.snapshot_path,
            "persistence": dict(self.persistence),
        }

    def _record_revalidation(self, outcome: str) -> None:
        if outcome == "recosted":
            self._recosted += 1
        elif outcome == "replanned":
            self._replanned += 1

    # -- request plumbing ----------------------------------------------------
    def _parse(self, sql) -> Tuple[Query, str, str, str]:
        if not isinstance(sql, str) or not sql.strip():
            raise _RequestFailure(400, "bad_request", "'sql' must be a non-empty string")
        memo = self._parse_memo
        hit = memo.get(sql)
        if hit is not None:
            self._memo_hits += 1
            memo.move_to_end(sql)
            return hit
        self._memo_misses += 1
        try:
            query = parse_query(sql, self.catalog)
        except ValueError as exc:
            raise _RequestFailure(400, "parse_error", str(exc)) from exc
        exact = cardinality_snapshot(query)
        band = self.base_config.snapshot_band_width
        key_snapshot = cardinality_snapshot(query, band) if band is not None else exact
        entry = (query, query_fingerprint(query), key_snapshot, exact)
        memo[sql] = entry
        if len(memo) > PARSE_MEMO_CAPACITY:
            memo.popitem(last=False)
        return entry

    def _resolve_config(
        self, body: dict
    ) -> Tuple[OptimizerConfig, str, Optional[float], str]:
        signature = tuple(
            body.get(field) for field in ("strategy", "factor", "cost_model")
        )
        resolved = self._config_memo.get(signature)
        if resolved is None:
            overrides = {
                field: body[field]
                for field in ("strategy", "factor", "cost_model")
                if body.get(field) is not None
            }
            try:
                config = (
                    self.base_config.with_overrides(**overrides)
                    if overrides
                    else self.base_config
                )
                name, factor = strategy_label(config.resolve_strategy(), config.factor)
            except (TypeError, ValueError) as exc:
                raise _RequestFailure(400, "bad_config", str(exc)) from exc
            resolved = (config, name, factor, config.cost_model_name)
            self._config_memo[signature] = resolved
        return resolved

    def _deadline(self, arrived: Optional[float]) -> Deadline:
        """The planning budget left for a request that arrived at
        *arrived* (``time.monotonic``): the configured request timeout
        minus time already spent queued behind earlier frames in this
        single-threaded worker.  A fully consumed budget still returns a
        Deadline — it fires on the first DP check, so the request
        degrades (or 504s) immediately instead of planning past its
        caller's patience."""
        budget = self.request_timeout
        if arrived is not None:
            budget -= time.monotonic() - arrived
        return Deadline(max(0.0, budget))

    def _plan(self, sql, body: dict, arrived: Optional[float] = None):
        """Serve or compute one plan; returns ``(result, config)``."""
        if chaos.enabled() and isinstance(sql, str):
            chaos.before_request(sql)
        query, fingerprint, snapshot, exact = self._parse(sql)
        config, strategy, factor, cost_model = self._resolve_config(body)
        key = PlanCacheKey(
            fingerprint=fingerprint,
            snapshot=snapshot,
            strategy=strategy,
            factor=factor,
            cost_model=cost_model,
        )
        found = self.cache.serve_entry(key, query, exact_snapshot=exact)
        result = None
        if found is not None:
            result, state = found
            if state != FRESH:
                # Stale-while-revalidate: answered now from the stale
                # entry; the idle-loop revalidator brings it back fresh.
                self._stale_served += 1
        if result is None:
            try:
                # The deadline rides beside the config (not through
                # _resolve_config's memo — budgets are per-request).
                result = optimize(query, config=config, deadline=self._deadline(arrived))
            except PlanningDeadlineExceeded as exc:
                # degradation="error": surface the blown budget as 504.
                self._timeouts += 1
                raise _RequestFailure(504, "timeout", str(exc)) from exc
            except Exception as exc:  # noqa: BLE001 - per-request isolation
                self._failures += 1
                raise _RequestFailure(
                    500, "optimizer_error", f"{type(exc).__name__}: {exc}"
                ) from exc
            if result.degraded:
                # Never cache a degraded fallback plan (PlanCache.store
                # also refuses them defensively).
                self._degraded += 1
            else:
                self.cache.store(key, query, result, sql=sql, exact_snapshot=exact)
        self._served += 1
        self._by_strategy[result.strategy] += 1
        return result, config

    # -- commands ------------------------------------------------------------
    def handle_optimize(self, body: dict, arrived: Optional[float] = None) -> Tuple[int, dict]:
        started = time.perf_counter()
        result, config = self._plan(body.get("sql"), body, arrived)
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
            "shard": self.shard,
        }
        if body.get("include_plan", True):
            payload["plan"] = plan_to_dict(result.plan.node)
        return 200, payload

    def handle_explain(self, body: dict, arrived: Optional[float] = None) -> Tuple[int, dict]:
        result, _config = self._plan(body.get("sql"), body, arrived)
        return 200, {
            "strategy": result.strategy,
            "cost": result.cost,
            "cache_hit": result.cache_hit,
            "degraded": result.degraded,
            "explain": render_plan(result.plan.node),
            "shard": self.shard,
        }

    def handle_execute(self, body: dict, arrived: Optional[float] = None) -> Tuple[int, dict]:
        """``EXECUTE`` — plan (cached or fresh) and run against the shard's
        dataset copy.  Mirrors the sync tier's ``execute_body``: the same
        request fields (``executor`` / ``limit``), the same columnar
        response shape, the same 409 when no dataset is provisioned."""
        if self.dataset is None:
            raise _RequestFailure(
                409,
                "no_dataset",
                "no dataset loaded — start the server with a dataset "
                "(e.g. --dataset tpch-sf0.01) to execute plans",
            )
        from repro.algebra.values import NULL
        from repro.exec import EXECUTORS, run_plan

        executor = body.get("executor", self.default_executor)
        if executor not in EXECUTORS:
            raise _RequestFailure(
                400,
                "bad_executor",
                f"unknown executor {executor!r} (one of: {', '.join(EXECUTORS)})",
            )
        if "limit" not in body:
            limit = DEFAULT_EXECUTE_LIMIT
        else:
            limit = body["limit"]
            if limit is not None and (
                not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
            ):
                raise _RequestFailure(
                    400, "bad_request", "'limit' must be an integer >= 0 or null"
                )
        started = time.perf_counter()
        sql = body.get("sql")
        result, _config = self._plan(sql, body, arrived)
        query, _fingerprint, _snapshot, _exact = self._parse(sql)
        try:
            database = self.dataset.database_for(query)
        except KeyError as exc:
            raise _RequestFailure(
                404, "unknown_table", f"dataset has no table for {exc.args[0]!r}"
            ) from exc
        run_started = time.perf_counter()
        try:
            relation = run_plan(result.plan.node, database, executor=executor, limit=limit)
        except Exception as exc:  # noqa: BLE001 - per-request isolation
            self._failures += 1
            raise _RequestFailure(
                500, "execution_error", f"{type(exc).__name__}: {exc}"
            ) from exc
        execution_seconds = time.perf_counter() - run_started
        self._executions[executor] += 1
        self._execution_rows += len(relation)
        self._execution_seconds += execution_seconds
        columns = list(relation.attributes)
        return 200, {
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
            "shard": self.shard,
        }

    def handle_batch(self, body: dict, arrived: Optional[float] = None) -> Tuple[int, dict]:
        """A shard's slice of one ``/batch``: ``[[index, sql], ...]``.

        All items share the request's arrival time, so the whole slice
        shares one budget — later items in a slice whose earlier items
        ate the budget degrade rather than extend the request.
        """
        include_plans = bool(body.get("include_plans", False))
        items = []
        for index, sql in body.get("queries", ()):
            try:
                result, _config = self._plan(sql, body, arrived)
            except _RequestFailure as failure:
                stage = "parse" if failure.code in ("parse_error", "bad_request") else "optimize"
                item = {"index": index, "error": failure.message, "stage": stage}
                if failure.code == "timeout":
                    item["timeout"] = True
                items.append(item)
                continue
            item = {
                "index": index,
                "strategy": result.strategy,
                "cost": result.cost,
                "cache_hit": result.cache_hit,
                "degraded": result.degraded,
                "elapsed_seconds": result.elapsed_seconds,
            }
            if include_plans:
                item["plan"] = plan_to_dict(result.plan.node)
            items.append(item)
        return 200, {"items": items, "shard": self.shard}

    def handle_stats_update(self, body: dict) -> Tuple[int, dict]:
        """Apply one statistics drift to this shard's private catalog.

        Scales (``cardinality_factor``) or sets (``cardinality``) a
        table's row count, marks dependent cache entries stale, flushes
        the parse memo (its queries and digests embed the old
        statistics) and revalidates a bounded inline batch; the rest of
        the backlog drains in the serve loop's idle gaps while requests
        keep being answered from the stale entries.
        """
        table = body.get("table")
        if not isinstance(table, str) or not table.strip():
            raise _RequestFailure(400, "bad_request", "'table' must be a non-empty string")
        old = self.catalog.lookup(table)
        if old is None:
            raise _RequestFailure(404, "unknown_table", f"unknown table {table!r}")
        factor = body.get("cardinality_factor")
        absolute = body.get("cardinality")
        if (factor is None) == (absolute is None):
            raise _RequestFailure(
                400, "bad_request",
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
            raise _RequestFailure(400, "bad_request", str(exc)) from exc
        new_stats = TableStats(
            name=old.name,
            columns=old.columns,
            cardinality=new_cardinality,
            distinct={
                column: min(value * factor, new_cardinality)
                for column, value in old.distinct.items()
            },
            keys=old.keys,
        )
        delta = self.catalog.update_stats(table, new_stats)
        marked = self.cache.mark_stale(delta.relation)
        self._parse_memo.clear()
        counts = self.revalidator.drain(limit=self.revalidate_batch)
        payload = dict(delta.payload())
        payload.update(
            shard=self.shard,
            marked_stale=marked,
            stale_entries=self.cache.stale_count(),
            revalidated_inline=counts,
        )
        return 200, payload

    def stale_backlog(self) -> bool:
        """Whether idle-loop revalidation has entries left to process."""
        return self.cache.stale_count() > 0

    def revalidate_some(self, limit: int = 1) -> bool:
        """Revalidate up to *limit* stale entries (idle-gap work).

        Returns whether any entry actually left the stale backlog —
        False means everything claimed failed (e.g. replans that
        deadline-degrade) and went back to stale, so the caller must
        stop looping rather than spin on the same entry.
        """
        counts = self.revalidator.drain(limit=limit)
        return counts["recosted"] + counts["replanned"] + counts["dropped"] > 0

    def stats_payload(self) -> dict:
        """One consistent stats snapshot — single-threaded, so no torn
        counters are possible by construction."""
        served = self._served
        hits = self.cache.stats.hits
        misses = self.cache.stats.misses
        return {
            "shard": self.shard,
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started,
            "plans": {
                "served": served,
                "cache_hits": hits,
                "cache_misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "failures": self._failures,
                "degraded": self._degraded,
                "timeouts": self._timeouts,
                "stale_served": self._stale_served,
                "recosted": self._recosted,
                "replanned": self._replanned,
                "by_strategy": dict(self._by_strategy),
            },
            "executions": {
                "count": sum(self._executions.values()),
                "by_executor": dict(self._executions),
                "rows_returned": self._execution_rows,
                "seconds_total": self._execution_seconds,
            },
            "cache": self.cache.describe(),
            "persistence": dict(self.persistence),
            "persistence_error": self.persistence_error,
            "parse_memo": {
                "size": len(self._parse_memo),
                "hits": self._memo_hits,
                "misses": self._memo_misses,
            },
        }

    def hello_payload(self) -> dict:
        return {
            "shard": self.shard,
            "pid": os.getpid(),
            "catalog_fingerprint": self.catalog_fp,
            "cache_size": len(self.cache),
            "persistence": dict(self.persistence),
            "persistence_error": self.persistence_error,
        }


def _dumps(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


#: responses are flushed at least every this-many frames, bounding the
#: head-of-line latency a burst adds (16 warm hits ~ a millisecond)
#: while still amortising the pipe syscall over the batch.
FLUSH_EVERY = 16


def _write_all(out_fd: int, out: bytearray) -> None:
    data = bytes(out)
    out.clear()
    written = 0
    while written < len(data):
        written += os.write(out_fd, data[written:])


def serve(worker: ShardWorker, in_fd: int, out_fd: int) -> None:
    """The blocking frame loop: read a chunk, answer the complete frames
    in it, flushing responses in bounded batches."""
    buffer = bytearray()
    out = bytearray()
    running = True
    while running:
        try:
            chunk = os.read(in_fd, 1 << 16)
        except InterruptedError:  # pragma: no cover - EINTR
            continue
        if not chunk:  # supervisor went away: exit without snapshotting
            break
        buffer += chunk
        # Frames in this chunk share an arrival stamp: planning budgets
        # start when the request reaches the worker's queue, so time
        # spent queued behind earlier frames counts against them.
        arrived = time.monotonic()
        answered = 0
        for request_id, kind, payload in frames.feed(buffer):
            if kind == frames.EXIT:
                out += frames.pack(request_id, 200, _dumps({"ok": True}))
                running = False
                break
            if chaos.should_drop(payload):
                # Injected frame loss: swallow the request, never answer
                # (the front's hard timeout fires and reaps this worker).
                continue
            try:
                if kind == frames.OPTIMIZE:
                    status, body = worker.handle_optimize(json.loads(payload), arrived)
                elif kind == frames.EXPLAIN:
                    status, body = worker.handle_explain(json.loads(payload), arrived)
                elif kind == frames.BATCH:
                    status, body = worker.handle_batch(json.loads(payload), arrived)
                elif kind == frames.EXECUTE:
                    status, body = worker.handle_execute(json.loads(payload), arrived)
                elif kind == frames.STATS:
                    status, body = 200, worker.stats_payload()
                elif kind == frames.STATS_UPDATE:
                    status, body = worker.handle_stats_update(json.loads(payload))
                elif kind == frames.SNAPSHOT:
                    status, body = 200, worker.snapshot()
                else:
                    status, body = 400, {
                        "error": {"code": "bad_command", "message": f"unknown kind {kind}"}
                    }
            except _RequestFailure as failure:
                status, body = failure.status, failure.body()
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                status, body = 400, {
                    "error": {"code": "bad_json", "message": f"invalid JSON body: {error}"}
                }
            except Exception as error:  # noqa: BLE001 - the shard must not die
                status, body = 500, {
                    "error": {
                        "code": "internal",
                        "message": f"{type(error).__name__}: {error}",
                    }
                }
            out += frames.pack(request_id, status, _dumps(body))
            answered += 1
            if answered % FLUSH_EVERY == 0:
                _write_all(out_fd, out)
        if out:
            _write_all(out_fd, out)
        # Idle-gap revalidation: with every received frame answered and
        # flushed, drain the stale backlog one entry at a time, yielding
        # the moment new input arrives — the async tier's "task per
        # shard" revalidator, expressed in this blocking loop.
        while running and worker.stale_backlog():
            ready, _, _ = select.select([in_fd], [], [], 0)
            if ready:
                break
            if not worker.revalidate_some(1):
                break  # backlog is all failures; retry on a later gap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.asyncserver.worker '<json config>'", file=sys.stderr)
        return 2
    config = json.loads(argv[0])

    # The frame channel owns fd 1.  Point fd 1 at stderr so any stray
    # print()/traceback inside the optimizer cannot corrupt the stream.
    out_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    worker = ShardWorker(config)
    worker.warm_start()
    # A worker process exists only to serve its shard: adopt the
    # latency-oriented GC posture (frozen boot heap, rare full passes).
    from repro.asyncserver.app import tune_gc_for_serving

    tune_gc_for_serving()
    hello = frames.pack(0, frames.HELLO, _dumps(worker.hello_payload()))
    os.write(out_fd, hello)
    serve(worker, 0, out_fd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
