"""One worker shard: a process that *owns* its plan-cache shard.

``python -m repro.asyncserver.worker '<json config>'`` — spawned by the
:mod:`~repro.asyncserver.supervisor`, one per shard.  Each worker builds
its own TPC-H catalog and a **private** :class:`~repro.service.cache.PlanCache`;
the shard router guarantees every structural fingerprint always arrives
at the same worker, so there is no cross-process lock anywhere on the
warm path.

Requests arrive as :mod:`~repro.asyncserver.frames` on stdin; responses
(HTTP status + ready-to-send JSON body) leave on stdout.  The request
path itself is the sync tier's: a :class:`~repro.service.core.RequestCore`
(memoised parse → cache key → ``PlanCache.serve_entry`` → JSON).  Cold
misses plan in-process, blocking the shard — queries racing to the same
shard queue behind the miss, which is the sharding contract (one owner
per fingerprint).  What the worker adds is transport: the frame loop,
planning budgets that count time spent queued behind earlier frames,
inline and idle-gap revalidation after a drift, and the ``shard`` field
on every response.

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
from typing import Optional

from repro import chaos
from repro.asyncserver import frames
from repro.asyncserver.config import AsyncServerConfig
from repro.service.cache import PlanCache, SnapshotError
from repro.service.core import RequestCore, RequestError, decode_body
from repro.service.fingerprint import catalog_fingerprint
from repro.service.revalidate import StaleRevalidator
from repro.sql.catalog import Catalog


class ShardWorker:
    """The per-process serving state: catalog, cache shard, request core.

    *config* is :func:`dataclasses.asdict` of the server's
    :class:`AsyncServerConfig` plus ``shard``, ``shards`` (the effective
    count) and ``snapshot_path``.
    """

    def __init__(self, config: dict):
        config = dict(config)
        self.shard = int(config.pop("shard"))
        self.snapshot_path: Optional[str] = config.pop("snapshot_path", None)
        self.config = AsyncServerConfig(**config)
        self.shards = self.config.effective_shards
        # Execution tier: every shard provisions its own dataset copy
        # (generation is deterministic, so shards hold identical data).
        dataset = None
        if self.config.dataset is not None:
            from repro.data.provision import dataset_from_spec

            dataset = dataset_from_spec(self.config.dataset)
        self.catalog = Catalog.from_tpch(scale_factor=self.config.scale_factor)
        self.catalog_fp = catalog_fingerprint(self.catalog)
        self.cache = PlanCache(capacity=self.config.cache_capacity)
        self.core = RequestCore(
            self.catalog,
            self.config.optimizer_config(),
            self.cache,
            request_timeout=self.config.request_timeout_seconds,
            dataset=dataset,
            default_executor=self.config.default_executor,
        )
        # Stats drift lands via STATS_UPDATE frames; the revalidator runs
        # inline (drain() only — never kicked, so its thread pool stays
        # empty and the worker stays single-threaded by construction).
        self.revalidator = StaleRevalidator(
            self.cache, self.catalog, self.core.config,
            on_event=self.core.counters.record_revalidation,
        )
        self.persistence = {"loaded": 0, "saved": 0, "rejected": 0}
        self.persistence_error: Optional[str] = None
        self._started = time.monotonic()

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

    # -- commands ------------------------------------------------------------
    def handle_stats_update(self, body: dict) -> dict:
        """Apply one statistics drift to this shard's private catalog.

        Marks dependent cache entries stale (the catalog delta has
        already flushed the parse memo) and revalidates a bounded inline
        batch; the rest of the backlog drains in the serve loop's idle
        gaps while requests keep being answered from the stale entries.
        """
        delta = self.core.stats_update(body)
        marked = self.cache.mark_stale(delta.relation)
        counts = self.revalidator.drain(limit=self.config.revalidate_batch)
        payload = dict(delta.payload())
        payload.update(
            marked_stale=marked,
            stale_entries=self.cache.stale_count(),
            revalidated_inline=counts,
        )
        return payload

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
        """This shard's counters — single-threaded, so never torn."""
        payload = {
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started,
            "cache": self.cache.describe(),
            "persistence": dict(self.persistence),
            "persistence_error": self.persistence_error,
            "parse_memo": self.core.memo_stats(),
        }
        payload.update(self.core.counters.snapshot())
        return payload

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
    # kind → handler(body, arrived) → 200 response body.  The planning
    # budget runs from *arrived*, when the frame reached this worker, so
    # time spent queued behind earlier frames counts against it.
    handlers = {
        frames.OPTIMIZE: worker.core.optimize_body,
        frames.EXPLAIN: worker.core.explain_body,
        frames.BATCH: worker.core.batch_body,
        frames.EXECUTE: worker.core.execute_body,
        frames.STATS: lambda _body, _arrived: worker.stats_payload(),
        frames.STATS_UPDATE: lambda body, _arrived: worker.handle_stats_update(body),
        frames.SNAPSHOT: lambda _body, _arrived: worker.snapshot(),
    }
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
            handler = handlers.get(kind)
            try:
                if handler is None:
                    raise RequestError(400, "bad_command", f"unknown kind {kind}")
                status, body = 200, handler(decode_body(payload), arrived)
                body["shard"] = worker.shard
            except RequestError as failure:
                status, body = failure.status, failure.to_body()
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
