"""Cooperative planning deadlines and graceful degradation.

The :class:`~repro.optimizer.deadline.Deadline` is the robustness
tentpole's core primitive: a budget checked cheaply inside the ccp loop
of every engine, raising :class:`PlanningDeadlineExceeded` from inside
the DP so the driver can fall back to an H1 heuristic plan (marked
``degraded``) instead of answering with an error or, worse, burning CPU
past the budget.
"""

import random

import pytest

from repro.optimizer import optimize
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.deadline import (
    DEFAULT_CHECK_EVERY,
    Deadline,
    PlanningDeadlineExceeded,
)
from repro.optimizer.driver import DEGRADED_STRATEGY
from repro.service.cache import PlanCache
from repro.service.fingerprint import query_fingerprint
from repro.workload import generate_query

ENGINES = ("reference", "indexed")


def _query(n=6, seed=7):
    return generate_query(n, random.Random(seed))


class TestDeadlineObject:
    def test_not_expired_with_generous_budget(self):
        deadline = Deadline(3600.0)
        assert not deadline.expired
        assert deadline.remaining() > 3500.0
        deadline.check()  # does not raise

    def test_zero_budget_is_immediately_expired(self):
        deadline = Deadline(0.0)
        assert deadline.expired
        with pytest.raises(PlanningDeadlineExceeded):
            deadline.check()

    def test_first_tick_checks_immediately(self):
        """A blown budget must fire on the *first* ccp, not after
        ``check_every`` of them — otherwise tiny queries never degrade."""
        deadline = Deadline(0.0)
        with pytest.raises(PlanningDeadlineExceeded):
            deadline.tick()

    def test_tick_reads_clock_every_check_every(self):
        reads = []

        def clock():
            reads.append(1)
            return float(len(reads))

        deadline = Deadline(1e9, check_every=8, clock=clock)
        baseline = len(reads)
        boundaries = 0
        for _ in range(33):
            if deadline.tick():
                boundaries += 1
        # first tick + every 8th after it: ticks 1, 9, 17, 25, 33.
        assert boundaries == 5
        assert len(reads) - baseline == boundaries

    def test_expiry_carries_budget_and_elapsed(self):
        now = [0.0]
        deadline = Deadline(5.0, check_every=1, clock=lambda: now[0])
        now[0] = 7.5
        with pytest.raises(PlanningDeadlineExceeded) as exc_info:
            deadline.tick()
        assert exc_info.value.budget_seconds == 5.0
        assert exc_info.value.elapsed_seconds == pytest.approx(7.5)

    def test_default_check_interval(self):
        assert Deadline(1.0).check_every == DEFAULT_CHECK_EVERY

    def test_clamps_bad_check_every(self):
        assert Deadline(1.0, check_every=0).check_every == 1


class TestDegradedFallback:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_budget_degrades_to_heuristic(self, engine):
        query = _query()
        config = OptimizerConfig(deadline_seconds=0.0, engine=engine)
        result = optimize(query, config=config)
        assert result.degraded is True
        assert result.strategy == DEGRADED_STRATEGY
        assert result.cost > 0
        assert result.stats.get("degraded") == 1

    def test_generous_budget_never_degrades(self):
        query = _query()
        config = OptimizerConfig(deadline_seconds=3600.0)
        result = optimize(query, config=config)
        assert result.degraded is False
        assert result.strategy == "ea-prune"

    def test_error_mode_raises_instead(self):
        query = _query()
        config = OptimizerConfig(deadline_seconds=0.0, degradation="error")
        with pytest.raises(PlanningDeadlineExceeded):
            optimize(query, config=config)

    def test_degraded_plan_matches_plain_h1(self):
        """The fallback is the real H1 plan, not some other artifact."""
        query = _query(seed=11)
        degraded = optimize(
            query, config=OptimizerConfig(deadline_seconds=0.0)
        )
        plain = optimize(query, config=OptimizerConfig(strategy="h1"))
        assert degraded.cost == pytest.approx(plain.cost)

    def test_explicit_deadline_argument_wins(self):
        query = _query()
        result = optimize(query, config=OptimizerConfig(), deadline=Deadline(0.0))
        assert result.degraded is True


class TestDegradedNeverCached:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_degraded_results_skip_the_cache(self, engine):
        query = _query(seed=3)
        cache = PlanCache(capacity=8)
        config = OptimizerConfig(deadline_seconds=0.0, engine=engine)
        first = optimize(query, cache=cache, config=config)
        assert first.degraded is True
        second = optimize(query, cache=cache, config=config)
        assert second.cache_hit is False
        assert len(cache) == 0

    def test_cache_store_refuses_degraded_results(self):
        """Defence in depth: even a direct store call must refuse."""
        query = _query(seed=5)
        cache = PlanCache(capacity=8)
        result = optimize(query, config=OptimizerConfig(deadline_seconds=0.0))
        assert result.degraded is True
        cache.store(query_fingerprint(query), query, result)
        assert len(cache) == 0

    def test_healthy_results_still_cached(self):
        query = _query(seed=9)
        cache = PlanCache(capacity=8)
        optimize(query, cache=cache, config=OptimizerConfig())
        repeat = optimize(query, cache=cache, config=OptimizerConfig())
        assert repeat.cache_hit is True


class TestConfigValidation:
    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(deadline_seconds=-1.0)

    def test_unknown_degradation_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(degradation="panic")
