"""`AsyncServerConfig` — the async serving tier's knobs, validated eagerly.

The async tier replaces thread-per-connection with one asyncio event
loop in front of ``shards`` worker *processes*, each owning a private
:class:`~repro.service.cache.PlanCache` shard — so capacity knobs here
are **per shard** where the sync :class:`~repro.server.ServerConfig`'s
were global.  ``cache_dir`` enables persistence: shards snapshot to
``<cache_dir>/shard-<i>-of-<N>.plancache`` on graceful drain and
warm-start from the same files on boot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.service.core import ServingConfig


def default_shards() -> int:
    """Worker-shard count when unspecified: one per core, capped at 4.

    Unlike the batch pool (CPU-bound misses, more workers help), the
    async tier's warm path is dominated by per-request overhead; extra
    shards past the core count only add context switching.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    return max(1, min(available, 4))


@dataclass(frozen=True)
class AsyncServerConfig(ServingConfig):
    """Immutable async-tier settings.

    ``shards`` — worker processes, each owning one plan-cache shard
    (``None`` auto-sizes via :func:`default_shards`).  ``cache_dir`` —
    directory for shard snapshots; ``None`` disables persistence.
    ``cache_capacity`` — plan-cache entries **per shard**.
    ``max_inflight`` bounds requests admitted to the worker tier across
    all endpoints; excess requests get an immediate 429 (``None``
    derives ``16 * shards + 32`` — the tier is built for open-loop
    traffic, so the bound is deliberately deeper than the sync
    server's).  ``route_cache_capacity`` bounds the front process's
    SQL-text → shard memo.  ``request_timeout_seconds`` is one
    request's planning budget: workers charge queue time against it and
    arm the remainder as a cooperative deadline inside the DP, with
    ``degradation`` picking the outcome of a blown budget — a heuristic
    plan marked ``degraded: true`` (200) or a 504.  The front waits
    :attr:`hard_timeout_seconds` (budget + grace) before declaring the
    worker wedged, answering 504, and killing it for restart.
    ``worker_boot_seconds`` caps waiting for a worker's hello at spawn;
    ``drain_grace_seconds`` is how long a drain waits for in-flight
    requests before snapshotting and exiting anyway.

    Stale-while-revalidate: ``recost_bound`` is how far a re-costed
    stale plan may regress past the cheap-replan reference before full
    re-enumeration, ``revalidate_batch`` bounds inline revalidation per
    ``STATS_UPDATE`` frame (the rest drains in serve-loop idle gaps),
    and ``snapshot_band_width`` (log10 decades, ``None`` = exact)
    enables banded cache keys so nearby statistics share entries.

    ``dataset`` enables ``POST /execute``: a
    :func:`~repro.data.provision.dataset_from_spec` spec (``tpch-sf0.01``
    or a directory) provisioned **per worker shard** at boot —
    generation is deterministic, so every shard holds identical data.
    ``default_executor`` is the backend used when a request names none.

    Crash supervision: restarts back off exponentially
    (``restart_backoff_base_seconds`` doubling per crash up to
    ``restart_backoff_cap_seconds``), and ``breaker_threshold`` crashes
    within ``breaker_window_seconds`` open a per-shard circuit breaker —
    the shard's fingerprints answer 503 for
    ``breaker_cooldown_seconds`` while other shards keep serving, then
    one restart probe closes the breaker if it boots.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    shards: Optional[int] = None
    cache_dir: Optional[str] = None
    max_inflight: Optional[int] = None
    scale_factor: float = 1.0
    strategy: str = "ea-prune"
    factor: float = 1.03
    cost_model: str = "cout"
    cache_capacity: int = 512
    route_cache_capacity: int = 4096
    request_timeout_seconds: float = 120.0
    worker_boot_seconds: float = 60.0
    drain_grace_seconds: float = 10.0
    degradation: str = "heuristic"
    recost_bound: float = 2.0
    revalidate_batch: int = 8
    snapshot_band_width: Optional[float] = None
    restart_backoff_base_seconds: float = 0.5
    restart_backoff_cap_seconds: float = 30.0
    breaker_threshold: int = 5
    breaker_window_seconds: float = 60.0
    breaker_cooldown_seconds: float = 30.0
    dataset: Optional[str] = None
    default_executor: str = "columnar"

    def __post_init__(self) -> None:
        self._validate_common()
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {self.cache_capacity}")
        if self.route_cache_capacity < 1:
            raise ValueError(
                f"route_cache_capacity must be >= 1, got {self.route_cache_capacity}"
            )
        if self.worker_boot_seconds <= 0:
            raise ValueError(
                f"worker_boot_seconds must be > 0, got {self.worker_boot_seconds}"
            )
        if self.revalidate_batch < 1:
            raise ValueError(
                f"revalidate_batch must be >= 1, got {self.revalidate_batch}"
            )
        if self.restart_backoff_base_seconds < 0:
            raise ValueError(
                f"restart_backoff_base_seconds must be >= 0, got {self.restart_backoff_base_seconds}"
            )
        if self.restart_backoff_cap_seconds < self.restart_backoff_base_seconds:
            raise ValueError(
                "restart_backoff_cap_seconds must be >= restart_backoff_base_seconds, "
                f"got {self.restart_backoff_cap_seconds}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, got {self.breaker_threshold}")
        if self.breaker_window_seconds <= 0:
            raise ValueError(
                f"breaker_window_seconds must be > 0, got {self.breaker_window_seconds}"
            )
        if self.breaker_cooldown_seconds < 0:
            raise ValueError(
                f"breaker_cooldown_seconds must be >= 0, got {self.breaker_cooldown_seconds}"
            )

    @property
    def effective_shards(self) -> int:
        return self.shards if self.shards is not None else default_shards()

    @property
    def effective_max_inflight(self) -> int:
        if self.max_inflight is not None:
            return self.max_inflight
        return 16 * self.effective_shards + 32

    def shard_path(self, shard: int) -> Optional[str]:
        """The snapshot file for *shard*, or None when persistence is off.

        The shard count is baked into the filename: re-sharding changes
        the fingerprint → shard mapping, so a ``shard-0-of-2`` file must
        never warm-start shard 0 of a 4-shard server.
        """
        if self.cache_dir is None:
            return None
        shards = self.effective_shards
        return os.path.join(
            self.cache_dir, f"shard-{shard:03d}-of-{shards:03d}.plancache"
        )
