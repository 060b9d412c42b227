"""The request core's parse memo: right keys, never stale statistics.

The memo maps SQL text → bound query + fingerprint + snapshot digests,
so a warm hit builds its plan-cache key without parsing.  That is only
sound if (i) the memoised key is exactly :func:`cache_key`'s, (ii) a
statistics drift is visible to the very next request on both tiers, and
(iii) a parse that raced a drift is never memoised with the old numbers.
"""

import dataclasses
import sys
import threading

import pytest

import repro.service.core as core_module
from repro.api import PlannerSession
from repro.asyncserver.config import AsyncServerConfig
from repro.asyncserver.supervisor import WorkerSupervisor
from repro.asyncserver.worker import ShardWorker
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.registry import COST_MODELS, STRATEGIES
from repro.server import PlanService, ServerConfig
from repro.service.core import RequestCore
from repro.service.fingerprint import cache_key, cardinality_snapshot
from repro.sql.binder import parse_query
from repro.sql.catalog import Catalog

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)
REVENUE = "sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue"
TPCH_SQL = [
    SQL,
    "SELECT n2.n_name, count(*) AS cnt FROM nation n2 "
    "JOIN supplier sup ON n2.n_nationkey = sup.s_nationkey GROUP BY n2.n_name",
    "SELECT count(*) AS cnt FROM region GROUP BY r_name",
    # the paper's Ex
    "SELECT ns.n_name, nc.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey "
    "FULL JOIN nation nc ON ns.n_nationkey = nc.n_nationkey "
    "JOIN customer c ON nc.n_nationkey = c.c_nationkey "
    "GROUP BY ns.n_name, nc.n_name",
    # Q3
    "SELECT l.l_orderkey, o.o_orderdate, o.o_shippriority, " + REVENUE + " "
    "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < 1169 "
    "AND l.l_shipdate > 1169 GROUP BY l.l_orderkey, o.o_orderdate, o.o_shippriority",
    # Q5, the cyclic one
    "SELECT n.n_name, " + REVENUE + " "
    "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
    "JOIN nation n ON s.s_nationkey = n.n_nationkey "
    "JOIN region r ON n.n_regionkey = r.r_regionkey "
    "WHERE c.c_nationkey = s.s_nationkey AND r.r_name = 'ASIA' "
    "AND o.o_orderdate >= 731 AND o.o_orderdate < 1096 GROUP BY n.n_name",
    # EXISTS / NOT EXISTS share a fingerprint prefix but not a key
    "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE EXISTS "
    "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) GROUP BY n.n_name",
    "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE NOT EXISTS "
    "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) GROUP BY n.n_name",
]


def core_over(catalog, **config):
    return RequestCore(catalog, OptimizerConfig(**config), None, request_timeout=60.0)


def drifted_catalog(table, factor):
    """The SF 1 catalog with *table* scaled by *factor*, built by hand."""
    catalog = Catalog.from_tpch(scale_factor=1.0)
    old = catalog.lookup(table)
    cardinality = old.cardinality * factor
    catalog.update_stats(table, dataclasses.replace(
        old,
        cardinality=cardinality,
        distinct={c: min(v * factor, cardinality) for c, v in old.distinct.items()},
    ))
    return catalog


@pytest.mark.parametrize("band", [None, 1.0], ids=["exact", "banded"])
@pytest.mark.parametrize("strategy", STRATEGIES.names())
def test_memoised_key_equals_cache_key(strategy, band):
    catalog = Catalog.from_tpch(scale_factor=1.0)
    core = core_over(catalog, snapshot_band_width=band)
    for cost_model in COST_MODELS.names():
        for factor in (None, 1.0, 1.2):
            resolved = core.resolve(
                {"strategy": strategy, "factor": factor, "cost_model": cost_model}
            )
            config = resolved.config
            for sql in TPCH_SQL:
                parsed = core.parse(sql)
                assert core.parse(sql) is parsed  # served from the memo
                expected = cache_key(
                    parse_query(sql, catalog), config.strategy, config.factor,
                    cost_model=config.cost_model_name, band_width=band,
                )
                assert core.key(parsed, resolved) == expected, sql


class TestDriftReachesTheNextRequest:
    """optimize → /stats_update → optimize prices under the new stats."""

    DRIFT = {"table": "supplier", "cardinality_factor": 4.0}

    def expected_costs(self):
        before = PlannerSession(catalog=Catalog.from_tpch(scale_factor=1.0))
        after = PlannerSession(catalog=drifted_catalog("supplier", 4.0))
        return before.optimize(SQL).cost, after.optimize(SQL).cost

    def test_sync_tier(self):
        service = PlanService(ServerConfig(port=0, workers=0, cache_capacity=64))
        try:
            first = service.optimize_body({"sql": SQL})["cost"]
            service.stats_update_body(dict(self.DRIFT))
            second = service.optimize_body({"sql": SQL})["cost"]
        finally:
            service.close()
        before, after = self.expected_costs()
        assert first == pytest.approx(before, rel=1e-9)
        assert second == pytest.approx(after, rel=1e-9)
        assert after != pytest.approx(before, rel=1e-9)

    def test_async_worker(self):
        supervisor = WorkerSupervisor(AsyncServerConfig(port=0, shards=1, cache_capacity=64))
        worker = ShardWorker(supervisor.worker_config(0))
        first = worker.core.optimize_body({"sql": SQL})["cost"]
        assert worker.handle_stats_update(dict(self.DRIFT))["marked_stale"] == 1
        second = worker.core.optimize_body({"sql": SQL})["cost"]
        before, after = self.expected_costs()
        assert first == pytest.approx(before, rel=1e-9)
        assert second == pytest.approx(after, rel=1e-9)


class TestMemoFlush:
    def test_stats_update_flushes_the_memo(self):
        core = core_over(Catalog.from_tpch(scale_factor=1.0))
        stale = core.parse(SQL)
        core.stats_update({"table": "supplier", "cardinality": 1.0})
        assert core.memo_stats()["size"] == 0
        assert core.parse(SQL).exact_snapshot != stale.exact_snapshot

    def test_reregistering_a_table_flushes_the_memo(self):
        catalog = Catalog.from_tpch(scale_factor=1.0)
        core = core_over(catalog)
        core.parse(SQL)
        catalog.register(catalog.lookup("region"))
        assert core.memo_stats()["size"] == 0

    def test_closed_core_no_longer_listens(self):
        catalog = Catalog.from_tpch(scale_factor=1.0)
        core = core_over(catalog)
        core.parse(SQL)
        core.close()
        catalog.register(catalog.lookup("region"))
        assert core.memo_stats()["size"] == 1

    def test_delta_landing_mid_parse_is_not_memoised(self, monkeypatch):
        """A drift between parse start and memo insert: the parse read
        the old statistics, so its entry must not outlive the drift."""
        core = core_over(Catalog.from_tpch(scale_factor=1.0))
        real_parse = core_module.parse_query

        def parse_then_drift(sql, catalog):
            query = real_parse(sql, catalog)
            core.stats_update({"table": "supplier", "cardinality_factor": 2.0})
            return query

        monkeypatch.setattr(core_module, "parse_query", parse_then_drift)
        raced = core.parse(SQL)
        assert core.memo_stats() == {"size": 0, "hits": 0, "misses": 1}

        monkeypatch.setattr(core_module, "parse_query", real_parse)
        fresh = core.parse(SQL)
        assert fresh.exact_snapshot != raced.exact_snapshot
        assert core.parse(SQL) is fresh
        assert core.memo_stats() == {"size": 1, "hits": 1, "misses": 2}


def test_threads_share_one_core_without_lost_updates():
    """The sync tier's HTTP threads share one core: optimize from more
    threads than cores while drifts land, then check that no count was
    lost and that every memoised parse matches the statistics in force."""
    service = PlanService(ServerConfig(port=0, workers=0, cache_capacity=64))
    statements = TPCH_SQL[:3]
    threads, rounds = 8, 40
    errors = []

    def client(number):
        try:
            for i in range(rounds):
                service.optimize_body({"sql": statements[(number + i) % len(statements)]})
                if number == 0 and i % 4 == 0:
                    factor = 2.0 if i % 8 == 0 else 0.5
                    service.stats_update_body({"table": "supplier", "cardinality_factor": factor})
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=client, args=(n,)) for n in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        stats = service.stats_body()
        assert stats["plans"]["served"] == threads * rounds
        memo = stats["parse_memo"]
        assert memo["hits"] + memo["misses"] == threads * rounds
        catalog = service.session.catalog
        for sql in statements:
            parsed = service.core.parse(sql)
            assert parsed.exact_snapshot == cardinality_snapshot(parse_query(sql, catalog))
    finally:
        service.close()
