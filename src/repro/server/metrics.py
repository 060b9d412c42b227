"""Thread-safe request metrics for the plan server.

Every request records its endpoint, status class and wall latency; every
optimized query additionally records its strategy and whether the plan
cache served it.  Latencies are kept in a bounded per-endpoint window
(newest ``WINDOW`` samples) so percentiles reflect recent behaviour
without unbounded memory; counters are cumulative since server start.

``snapshot()`` produces the JSON body of ``GET /stats`` (minus the plan
cache's own ``describe()`` block, which the service merges in).
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Deque, Dict, List, Optional

#: latency samples retained per endpoint for percentile estimates.
WINDOW = 2048


def percentile(samples: List[float], q: float) -> Optional[float]:
    """The *q*-quantile (0..1) of *samples* by nearest-rank; None if empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class _EndpointStats:
    __slots__ = ("count", "errors_4xx", "errors_5xx", "rejected", "latencies_ms")

    def __init__(self) -> None:
        self.count = 0
        self.errors_4xx = 0
        self.errors_5xx = 0
        self.rejected = 0
        self.latencies_ms: Deque[float] = deque(maxlen=WINDOW)


class ServerMetrics:
    """Aggregated per-endpoint and per-plan counters, lock-protected."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._endpoints: Dict[str, _EndpointStats] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._failures = 0
        self._degraded = 0
        self._stale_served = 0
        self._recosted = 0
        self._replanned = 0
        self._by_strategy: Counter = Counter()
        self._executions: Counter = Counter()
        self._execution_rows = 0
        self._execution_seconds = 0.0
        self._execution_latencies: Deque[float] = deque(maxlen=WINDOW)

    # -- recording -----------------------------------------------------------
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

    def record_plan(
        self, strategy: str, cache_hit: bool, degraded: bool = False
    ) -> None:
        """One successfully served plan (single or batch item).

        *degraded* counts plans served as deadline-degraded heuristic
        fallbacks (HTTP 200, ``degraded: true``).
        """
        with self._lock:
            self._by_strategy[strategy] += 1
            if degraded:
                self._degraded += 1
            if cache_hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1

    def record_execution(self, executor: str, seconds: float, rows: int) -> None:
        """One plan executed end-to-end (``POST /execute``).

        *seconds* is the pure execution runtime (plan already in hand),
        kept in its own latency window so ``/stats`` reports per-query
        execution percentiles separately from HTTP request latency.
        """
        with self._lock:
            self._executions[executor] += 1
            self._execution_rows += rows
            self._execution_seconds += seconds
            self._execution_latencies.append(seconds * 1000.0)

    def record_failure(self) -> None:
        """One query whose optimizer run errored (batch item or single)."""
        with self._lock:
            self._failures += 1

    def record_stale_served(self) -> None:
        """One request answered from a stale (not-yet-revalidated) entry."""
        with self._lock:
            self._stale_served += 1

    def record_revalidation(self, outcome: str) -> None:
        """One background revalidation: ``"recosted"`` entries kept their
        shape (plan replayed under fresh statistics, within bound);
        ``"replanned"`` entries went through full re-enumeration.  Other
        outcomes (``"dropped"``/``"failed"``) are not counted here — they
        surface through the cache's own ``describe()`` block."""
        with self._lock:
            if outcome == "recosted":
                self._recosted += 1
            elif outcome == "replanned":
                self._replanned += 1

    # -- reporting -----------------------------------------------------------
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
            served = self._cache_hits + self._cache_misses
            execution_window = list(self._execution_latencies)
            executed = sum(self._executions.values())
            return {
                "uptime_seconds": time.monotonic() - self._started,
                "requests": endpoints,
                "plans": {
                    "served": served,
                    "cache_hits": self._cache_hits,
                    "cache_misses": self._cache_misses,
                    "hit_rate": self._cache_hits / served if served else 0.0,
                    "failures": self._failures,
                    "degraded": self._degraded,
                    "stale_served": self._stale_served,
                    "recosted": self._recosted,
                    "replanned": self._replanned,
                    "by_strategy": dict(self._by_strategy),
                },
                "executions": {
                    "count": executed,
                    "by_executor": dict(self._executions),
                    "rows_returned": self._execution_rows,
                    "seconds_total": self._execution_seconds,
                    "p50_ms": percentile(execution_window, 0.50),
                    "p95_ms": percentile(execution_window, 0.95),
                    "p99_ms": percentile(execution_window, 0.99),
                    "mean_ms": (
                        sum(execution_window) / len(execution_window)
                        if execution_window
                        else None
                    ),
                },
            }
