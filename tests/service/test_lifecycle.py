"""Plan-cache entry lifecycle: fresh → stale → revalidating → refreshed.

Unit coverage of the stale-while-revalidate machinery added for
statistics drift: state transitions on the cache itself, the degraded
refresh guard, banded-key migration through the
:class:`StaleRevalidator`, and the v1-snapshot refusal.
"""

import json
import pickle
import time

import pytest

from repro.optimizer import OptimizerConfig, optimize
from repro.service import PlanCache
from repro.service.cache import (
    FRESH,
    REVALIDATING,
    SNAPSHOT_FORMAT,
    STALE,
    SnapshotError,
)
from repro.service.fingerprint import PlanCacheKey, cache_key, cardinality_snapshot
from repro.service.revalidate import StaleRevalidator
from repro.sql import parse_query
from repro.sql.catalog import Catalog, TableStats

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)


def key(tag: str) -> PlanCacheKey:
    return PlanCacheKey(fingerprint=tag, snapshot="snap", strategy="ea-prune")


class Plan:
    """Stand-in result — the lifecycle never inspects it."""

    degraded = False

    def __init__(self, tag):
        self.tag = tag

    def as_cache_hit(self):
        return self


class Degraded(Plan):
    degraded = True


class TestStateTransitions:
    def test_fresh_store_serves_fresh(self):
        cache = PlanCache(capacity=4)
        cache.put(key("q"), Plan("p"))
        assert cache.entry_state(key("q")) == FRESH
        assert cache.stale_count() == 0

    def test_mark_stale_keeps_entry_servable(self):
        cache = PlanCache(capacity=4)
        cache.put(key("q"), Plan("p"), relations=["orders"])
        assert cache.mark_stale("orders") == 1
        assert cache.entry_state(key("q")) == STALE
        assert cache.get(key("q")).tag == "p"  # still serves
        assert cache.stats.stale_hits == 0  # plain get is not lifecycle-aware

    def test_mark_stale_skips_non_fresh(self):
        cache = PlanCache(capacity=4)
        cache.put(key("q"), Plan("p"), relations=["orders"])
        cache.mark_stale("orders")
        assert cache.mark_stale("orders") == 0  # already stale
        cache.claim_stale()
        assert cache.mark_stale("orders") == 0  # claimed, leave alone

    def test_serve_entry_reports_state(self):
        cache = PlanCache(capacity=4)
        cache.put(key("q"), Plan("p"), relations=["orders"])
        _, state = cache.serve_entry(key("q"), query=None)
        assert state == FRESH
        cache.mark_stale("orders")
        _, state = cache.serve_entry(key("q"), query=None)
        assert state == STALE
        assert cache.stats.stale_hits == 1

    def test_exact_snapshot_drift_marks_stale_on_access(self):
        # The banded-key scenario: a drifted-but-nearby snapshot still
        # hits the structural entry; the exact mismatch flips it stale
        # so revalidation gets queued.
        cache = PlanCache(capacity=4)
        cache.put(key("q"), Plan("p"), exact_snapshot="cards-v1")
        _, state = cache.serve_entry(key("q"), query=None, exact_snapshot="cards-v2")
        assert state == STALE
        assert cache.stats.marked_stale == 1
        # Matching snapshot does not.
        cache.put(key("q2"), Plan("p2"), exact_snapshot="cards-v1")
        _, state = cache.serve_entry(key("q2"), query=None, exact_snapshot="cards-v1")
        assert state == FRESH

    def test_claim_transitions_and_bounds(self):
        cache = PlanCache(capacity=8)
        for i in range(3):
            cache.put(key(f"q{i}"), Plan(f"p{i}"), relations=["orders"], sql=f"sql{i}")
        cache.mark_stale("orders")
        claims = cache.claim_stale(limit=2)
        assert len(claims) == 2
        assert all(cache.entry_state(c.key) == REVALIDATING for c in claims)
        assert claims[0].sql == "sql0"
        # The third is still stale and claimable.
        assert len(cache.claim_stale()) == 1

    def test_claim_stale_drains_hottest_first(self):
        # Skewed traffic: q2 is hammered, q0 touched once, q1 never.
        # A bounded claim must hand the revalidator q2 before the rest.
        cache = PlanCache(capacity=8)
        for i in range(3):
            cache.put(key(f"q{i}"), Plan(f"p{i}"), relations=["orders"], sql=f"sql{i}")
        for _ in range(10):
            cache.get(key("q2"))
        cache.get(key("q0"))
        cache.mark_stale("orders")
        (hottest,) = cache.claim_stale(limit=1)
        assert hottest.sql == "sql2"
        remaining = cache.claim_stale()
        assert [claim.sql for claim in remaining] == ["sql0", "sql1"]

    def test_claim_stale_ties_keep_insertion_order(self):
        cache = PlanCache(capacity=8)
        for i in range(3):
            cache.put(key(f"q{i}"), Plan(f"p{i}"), relations=["orders"], sql=f"sql{i}")
        cache.mark_stale("orders")
        claims = cache.claim_stale()
        assert [claim.sql for claim in claims] == ["sql0", "sql1", "sql2"]

    def test_serve_entry_counts_hits_for_claim_priority(self):
        # The lifecycle-aware serving path feeds the same priority.
        cache = PlanCache(capacity=8)
        cache.put(key("cold"), Plan("c"), relations=["orders"], sql="cold")
        cache.put(key("hot"), Plan("h"), relations=["orders"], sql="hot")
        for _ in range(5):
            cache.serve_entry(key("hot"), query=None)
        cache.mark_stale("orders")
        claims = cache.claim_stale()
        assert [claim.sql for claim in claims] == ["hot", "cold"]

    def test_refresh_returns_to_fresh(self):
        cache = PlanCache(capacity=4)
        cache.put(key("q"), Plan("old"), relations=["orders"])
        cache.mark_stale("orders")
        (claim,) = cache.claim_stale()
        assert cache.refresh(claim.key, Plan("new"), exact_snapshot="cards-v2")
        assert cache.entry_state(key("q")) == FRESH
        assert cache.get(key("q")).tag == "new"
        assert cache.stats.refreshed == 1

    def test_refresh_migrates_to_new_key(self):
        # Re-optimization moved the snapshot past its band: the entry
        # must move to the new key, not linger under the old one.
        cache = PlanCache(capacity=4)
        cache.put(key("q"), Plan("old"), relations=["orders"])
        cache.mark_stale("orders")
        (claim,) = cache.claim_stale()
        assert cache.refresh(claim.key, Plan("new"), new_key=key("q-banded"))
        assert key("q") not in cache
        assert cache.get(key("q-banded")).tag == "new"
        assert cache.entry_state(key("q-banded")) == FRESH

    def test_refresh_refuses_degraded_results(self):
        # The degraded-plan cache guard extends to revalidation: a
        # background replan that blew its deadline must NOT overwrite
        # the cached optimal plan — the entry goes back to stale.
        cache = PlanCache(capacity=4)
        cache.put(key("q"), Plan("optimal"), relations=["orders"])
        cache.mark_stale("orders")
        (claim,) = cache.claim_stale()
        assert cache.refresh(claim.key, Degraded("fallback")) is False
        assert cache.entry_state(key("q")) == STALE  # retryable
        assert cache.get(key("q")).tag == "optimal"
        assert cache.stats.refreshed == 0

    def test_refresh_after_eviction_is_a_noop(self):
        cache = PlanCache(capacity=4)
        cache.put(key("q"), Plan("old"), relations=["orders"])
        cache.mark_stale("orders")
        (claim,) = cache.claim_stale()
        cache.drop(key("q"))
        assert cache.refresh(claim.key, Plan("new")) is False
        assert key("q") not in cache

    def test_requeue_returns_claim_to_stale(self):
        cache = PlanCache(capacity=4)
        cache.put(key("q"), Plan("p"), relations=["orders"])
        cache.mark_stale("orders")
        (claim,) = cache.claim_stale()
        cache.requeue(claim.key)
        assert cache.entry_state(key("q")) == STALE

    def test_store_refuses_degraded(self):
        cache = PlanCache(capacity=4)

        class Q:
            relations = ()

        cache.store(key("q"), Q(), Degraded("fallback"))
        assert key("q") not in cache


class TestSnapshotVersionRefusal:
    def test_v1_snapshot_refused_not_crashed(self, tmp_path):
        # PR-era v1 snapshots predate the lifecycle fields; loading one
        # must be a clean version refusal (cold start), never an unpickle
        # crash or a silent misread.
        path = tmp_path / "old.plancache"
        blob = pickle.dumps([(key("q"), Plan("p"), ("orders",), None)])
        header = {
            "format": SNAPSHOT_FORMAT,
            "version": 1,
            "catalog_fingerprint": "cat",
            "entries": 1,
            "checksum": "irrelevant",
            "meta": {},
        }
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        cache = PlanCache(capacity=4)
        with pytest.raises(SnapshotError) as excinfo:
            cache.load_snapshot(path, catalog_fingerprint="cat")
        assert excinfo.value.reason == "version"
        assert len(cache) == 0  # cold start: nothing half-loaded

    def test_round_trip_preserves_lifecycle_state(self, tmp_path):
        cache = PlanCache(capacity=4)
        cache.put(key("f"), Plan("pf"), relations=["orders"], sql="sql-f",
                  exact_snapshot="cards")
        cache.put(key("s"), Plan("ps"), relations=["orders"], sql="sql-s")
        cache.mark_stale("orders")
        cache.claim_stale(limit=1)  # one entry REVALIDATING at save time
        path = tmp_path / "new.plancache"
        cache.save_snapshot(path, catalog_fingerprint="cat")

        restored = PlanCache(capacity=4)
        restored.load_snapshot(path, catalog_fingerprint="cat")
        # REVALIDATING demoted to STALE (the claim died with the process);
        # revalidation context survives.
        states = {restored.entry_state(key(tag)) for tag in ("f", "s")}
        assert states == {STALE}
        (claim, *rest) = restored.claim_stale()
        assert claim.sql in ("sql-f", "sql-s")


def store_plan(cache, catalog, config, sql=SQL):
    """Optimize *sql* and store it the way the servers do."""
    query = parse_query(sql, catalog)
    result = optimize(query, config=config)
    entry_key = cache_key(
        query,
        config.strategy,
        config.factor,
        cost_model=config.cost_model_name,
        band_width=config.snapshot_band_width,
    )
    cache.store(
        entry_key, query, result, sql=sql,
        exact_snapshot=cardinality_snapshot(query),
    )
    return entry_key, result


def drift(catalog, table, factor):
    old = catalog.lookup(table)
    rows = old.cardinality * factor
    catalog.update_stats(
        table,
        TableStats(
            name=old.name,
            columns=old.columns,
            cardinality=rows,
            distinct={c: min(v * factor, rows) for c, v in old.distinct.items()},
            keys=old.keys,
        ),
    )


class TestStaleRevalidator:
    def setup_method(self):
        self.catalog = Catalog.from_tpch()
        self.cache = PlanCache(capacity=16)
        self.config = OptimizerConfig(snapshot_band_width=1.0)

    def revalidator(self, config=None):
        return StaleRevalidator(self.cache, self.catalog, config or self.config)

    def test_unchanged_stats_recost_in_place(self):
        entry_key, cached = store_plan(self.cache, self.catalog, self.config)
        self.cache.mark_stale("supplier")
        counts = self.revalidator().drain()
        assert counts["recosted"] == 1
        assert self.cache.entry_state(entry_key) == FRESH
        served, state = self.cache.serve_entry(
            entry_key, parse_query(SQL, self.catalog)
        )
        assert state == FRESH
        assert served.cost == cached.cost  # bit-for-bit replay

    def post_drift_key(self, sql=SQL):
        return cache_key(
            parse_query(sql, self.catalog),
            self.config.strategy,
            self.config.factor,
            cost_model=self.config.cost_model_name,
            band_width=self.config.snapshot_band_width,
        )

    def test_mild_drift_recosts_without_replanning(self):
        _, cached = store_plan(self.cache, self.catalog, self.config)
        drift(self.catalog, "supplier", 1.5)  # within the recost bound
        self.cache.mark_stale("supplier")
        counts = self.revalidator().drain()
        assert counts["recosted"] == 1
        assert counts["replanned"] == 0
        after = self.post_drift_key()
        assert self.cache.entry_state(after) == FRESH
        served, _ = self.cache.serve_entry(after, parse_query(SQL, self.catalog))
        assert served.cost > cached.cost  # re-costed under the new rows

    def test_band_crossing_drift_migrates_the_key(self):
        entry_key, _ = store_plan(self.cache, self.catalog, self.config)
        drift(self.catalog, "supplier", 100.0)  # two decades: leaves the band
        self.cache.mark_stale("supplier")
        counts = self.revalidator().drain()
        assert counts["recosted"] + counts["replanned"] == 1
        assert entry_key not in self.cache
        expected = cache_key(
            parse_query(SQL, self.catalog),
            self.config.strategy,
            self.config.factor,
            cost_model=self.config.cost_model_name,
            band_width=self.config.snapshot_band_width,
        )
        assert self.cache.entry_state(expected) == FRESH

    def test_heavy_drift_replans(self):
        sql = (
            "SELECT c.c_custkey, sum(l.l_extendedprice) AS revenue "
            "FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey "
            "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
            "GROUP BY c.c_custkey"
        )
        store_plan(self.cache, self.catalog, self.config, sql=sql)
        drift(self.catalog, "lineitem", 16.0)  # past the 2.0 recost bound
        self.cache.mark_stale("lineitem")
        counts = self.revalidator().drain()
        assert counts["replanned"] == 1
        assert self.cache.stale_count() == 0

    def test_entry_without_context_is_dropped(self):
        self.cache.put(key("opaque"), Plan("p"), relations=["supplier"])
        self.cache.mark_stale("supplier")
        counts = self.revalidator().drain()
        assert counts["dropped"] == 1
        assert key("opaque") not in self.cache

    def test_delta_subscription_marks_and_drains(self):
        store_plan(self.cache, self.catalog, self.config)
        revalidator = self.revalidator()
        revalidator.subscribe()
        try:
            drift(self.catalog, "supplier", 1.5)
            # The kick drains in the background and may claim the entry
            # first; drain here too, then wait for whichever drain holds
            # the claim to finish it.
            revalidator.drain()
            deadline = time.monotonic() + 10.0
            while self.cache.stale_count() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert self.cache.entry_state(self.post_drift_key()) == FRESH
            assert self.cache.stats.refreshed == 1
            assert self.cache.stale_count() == 0
        finally:
            revalidator.close()
        # After close, further deltas no longer mark anything stale.
        drift(self.catalog, "supplier", 1.5)
        assert self.cache.stale_count() == 0
