"""`ServerConfig` — the plan server's knobs, validated eagerly.

The same philosophy as :class:`~repro.optimizer.config.OptimizerConfig`:
one frozen value object instead of scattered kwargs, rejected at
construction rather than at first use.  The optimizer-facing fields
(strategy, factor, cost model, cache capacity) derive an
``OptimizerConfig`` via :meth:`ServerConfig.optimizer_config`; the rest
shape the HTTP front end (bind address, worker processes, admission
limit, timeouts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.service.batch import default_workers
from repro.service.core import ServingConfig


@dataclass(frozen=True)
class ServerConfig(ServingConfig):
    """Immutable plan-server settings.

    ``workers`` — optimizer processes behind the HTTP threads.  ``None``
    auto-sizes like the batch driver; ``0`` runs optimization inside the
    request thread (no pool — handy for tests and tiny deployments, but
    CPU-bound requests then serialise on the GIL).  ``max_inflight``
    bounds admitted-but-unfinished requests across *all* endpoints that
    optimize; excess requests are rejected with 429 (``None`` derives
    ``2 * workers + 8``).  ``request_timeout_seconds`` caps one request's
    planning budget: the remaining budget (minus any time already spent
    in the request) is armed as a cooperative deadline inside the worker,
    and ``degradation`` decides what a blown budget returns —
    ``"heuristic"`` a cheap greedy plan marked ``degraded: true`` (HTTP
    200), ``"error"`` an HTTP 504.  A hard wait of
    :attr:`hard_timeout_seconds` (budget + grace) backstops wedged
    workers.  ``drain_grace_seconds`` is how long a SIGTERM drain waits
    for in-flight requests before giving up.

    ``recost_bound`` / ``revalidate_workers`` / ``snapshot_band_width``
    shape the stale-while-revalidate path: how far a re-costed stale
    plan may regress past the cheap-replan reference before full
    re-enumeration, how many background revalidation threads drain the
    stale backlog, and (optionally) the log10 band width for banded
    cache keys so nearby statistics snapshots share entries.

    ``dataset`` enables ``POST /execute``: a
    :func:`~repro.data.provision.dataset_from_spec` spec
    (``tpch-sf0.01`` or a directory of data files) loaded at boot and
    executed against; ``default_executor`` is the backend used when a
    request names none (``"columnar"`` — the serving-oriented one).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: Optional[int] = None
    max_inflight: Optional[int] = None
    scale_factor: float = 1.0
    strategy: str = "ea-prune"
    factor: float = 1.03
    cost_model: str = "cout"
    cache_capacity: Optional[int] = 512
    request_timeout_seconds: float = 120.0
    drain_grace_seconds: float = 10.0
    degradation: str = "heuristic"
    recost_bound: float = 2.0
    revalidate_workers: int = 1
    snapshot_band_width: Optional[float] = None
    dataset: Optional[str] = None
    default_executor: str = "columnar"

    def __post_init__(self) -> None:
        self._validate_common()
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 = in-thread), got {self.workers}")
        if self.revalidate_workers < 1:
            raise ValueError(
                f"revalidate_workers must be >= 1, got {self.revalidate_workers}"
            )

    @property
    def effective_workers(self) -> int:
        """The worker-pool size (0 = optimize in the request thread)."""
        return self.workers if self.workers is not None else default_workers()

    @property
    def effective_max_inflight(self) -> int:
        """The admission bound actually enforced."""
        if self.max_inflight is not None:
            return self.max_inflight
        return 2 * max(1, self.effective_workers) + 8
