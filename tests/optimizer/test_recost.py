"""Recost-by-replay: bit-for-bit reproduction and the stale-serve bound.

The load-bearing invariant of the plan lifecycle: replaying a cached
plan's operator tree through a fresh :class:`PlanBuilder` under an
*unchanged* statistics snapshot must reproduce the cached cost exactly
(``==`` on floats — same arithmetic in the same order), for plans
produced by every engine and strategy.  Anything less and a statistics
refresh with ``cardinality_factor=1.0`` would spuriously re-plan the
whole cache.
"""

import pytest

from repro.optimizer import OptimizerConfig, optimize
from repro.optimizer.recost import (
    RecostError,
    evaluate_stale,
    recost,
    recosted_result,
    refresh_query_stats,
)
from repro.sql import parse_query
from repro.sql.catalog import Catalog, TableStats


SQLS = [
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name",
    "SELECT count(*) AS cnt FROM supplier s, nation n, customer c "
    "WHERE s.s_nationkey = n.n_nationkey AND n.n_nationkey = c.c_nationkey",
    "SELECT c.c_custkey, sum(l.l_extendedprice) AS revenue "
    "FROM customer c "
    "JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "GROUP BY c.c_custkey",
    "SELECT r.r_name, count(*) AS cnt FROM region r "
    "JOIN nation n ON r.r_regionkey = n.n_regionkey "
    "JOIN supplier s ON n.n_nationkey = s.s_nationkey GROUP BY r.r_name",
]
ENGINES = ["indexed", "reference"]
STRATEGIES = ["dphyp", "ea-all", "ea-prune", "h1", "h2"]


def fresh_query(sql: str, catalog=None):
    return parse_query(sql, catalog if catalog is not None else Catalog.from_tpch())


class TestBitForBitReplay:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("sql", SQLS)
    def test_replay_reproduces_cost_across_engines(self, engine, sql):
        query = fresh_query(sql)
        config = OptimizerConfig(engine=engine)
        result = optimize(query, config=config)
        replayed = recost(
            query, result.plan.node, cost_model=config.resolve_cost_model()
        )
        assert replayed.cost == result.cost  # bit-for-bit, not approx
        assert replayed.cardinality == result.plan.cardinality
        assert type(replayed.node) is type(result.plan.node)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("sql", SQLS)
    def test_replay_reproduces_cost_across_strategies(self, strategy, sql):
        query = fresh_query(sql)
        config = OptimizerConfig(strategy=strategy)
        result = optimize(query, config=config)
        replayed = recost(
            query, result.plan.node, cost_model=config.resolve_cost_model()
        )
        assert replayed.cost == result.cost

    def test_foreign_plan_is_a_replay_error(self):
        donor = optimize(fresh_query(SQLS[0]))
        other = fresh_query(SQLS[2])
        with pytest.raises(RecostError):
            recost(other, donor.plan.node)


class TestRefreshQueryStats:
    def drifted_catalog(self, factor: float) -> Catalog:
        catalog = Catalog.from_tpch()
        old = catalog.lookup("supplier")
        catalog.update_stats(
            "supplier",
            TableStats(
                name=old.name,
                columns=old.columns,
                cardinality=old.cardinality * factor,
                distinct={
                    column: min(value * factor, old.cardinality * factor)
                    for column, value in old.distinct.items()
                },
                keys=old.keys,
            ),
        )
        return catalog

    def test_refresh_rereads_cardinalities(self):
        catalog = self.drifted_catalog(4.0)
        stale = fresh_query(SQLS[0])  # parsed against undrifted stats
        refreshed = refresh_query_stats(stale, catalog)
        by_name = {rel.source_table: rel for rel in refreshed.relations}
        assert by_name["supplier"].cardinality == catalog.lookup("supplier").cardinality
        # Untouched relations keep their statistics.
        assert by_name["nation"].cardinality == 25.0

    def test_refresh_changes_the_replayed_cost(self):
        result = optimize(fresh_query(SQLS[0]))
        refreshed = refresh_query_stats(
            fresh_query(SQLS[0]), self.drifted_catalog(4.0)
        )
        replayed = recost(refreshed, result.plan.node)
        assert replayed.cost > result.cost

    def test_missing_table_keeps_old_statistics(self):
        catalog = Catalog()  # knows none of the TPC-H tables
        query = fresh_query(SQLS[0])
        refreshed = refresh_query_stats(query, catalog)
        assert [rel.cardinality for rel in refreshed.relations] == [
            rel.cardinality for rel in query.relations
        ]
        assert [edge.selectivity for edge in refreshed.edges] == [
            edge.selectivity for edge in query.edges
        ]

    def test_refresh_rederives_edge_selectivities(self):
        # Drift regression: a stale hand-built query refreshed against a
        # drifted catalog must converge to the selectivities a full SQL
        # re-bind would derive — not keep the frozen originals.
        catalog = self.drifted_catalog(4.0)
        stale = fresh_query(SQLS[1])
        rebound = fresh_query(SQLS[1], catalog)
        refreshed = refresh_query_stats(stale, catalog)
        assert any(
            old.selectivity != new.selectivity
            for old, new in zip(stale.edges, refreshed.edges)
        ), "drift must move at least one selectivity"
        for new, expected in zip(refreshed.edges, rebound.edges):
            assert new.selectivity == pytest.approx(expected.selectivity)

    def test_refresh_rederives_local_predicate_selectivities(self):
        sql = (
            "SELECT count(*) AS cnt FROM supplier s, nation n "
            "WHERE s.s_nationkey = n.n_nationkey AND s.s_acctbal = 100"
        )
        catalog = self.drifted_catalog(4.0)
        stale = fresh_query(sql)
        rebound = fresh_query(sql, catalog)
        refreshed = refresh_query_stats(stale, catalog)
        assert refreshed.local_predicates.keys() == rebound.local_predicates.keys()
        changed = False
        for vertex, (_, selectivity) in refreshed.local_predicates.items():
            expected = rebound.local_predicates[vertex][1]
            assert selectivity == pytest.approx(expected)
            changed = changed or selectivity != stale.local_predicates[vertex][1]
        assert changed

    def test_refresh_unchanged_stats_is_bit_for_bit(self):
        # The stale-while-revalidate invariant: refreshing under identical
        # statistics must not perturb a single float, so the subsequent
        # replay reproduces the cached cost exactly.
        catalog = Catalog.from_tpch()
        query = fresh_query(SQLS[2], catalog)
        refreshed = refresh_query_stats(query, catalog)
        assert [e.selectivity for e in refreshed.edges] == [
            e.selectivity for e in query.edges
        ]
        result = optimize(query)
        assert recost(refreshed, result.plan.node).cost == result.cost

    def test_drifted_selectivity_changes_replayed_cost(self):
        result = optimize(fresh_query(SQLS[1]))
        refreshed = refresh_query_stats(fresh_query(SQLS[1]), self.drifted_catalog(4.0))
        assert recost(refreshed, result.plan.node).cost != result.cost


class TestEvaluateStale:
    def test_unchanged_stats_serve_within_bound(self):
        query = fresh_query(SQLS[0])
        cached = optimize(query)
        decision = evaluate_stale(query, cached, config=OptimizerConfig())
        assert decision.serve is True
        assert decision.reason == "within_bound"
        assert decision.recost_cost == cached.cost  # the bit-for-bit replay
        assert decision.plan is not None

    def test_heavy_drift_forces_replan(self):
        # A 16x lineitem blow-up makes the cached join order six times
        # worse than the cheap H1 replan — past the default 2.0 bound,
        # so the entry must be queued for full re-optimization.
        cached = optimize(fresh_query(SQLS[2]))
        catalog = Catalog.from_tpch()
        old = catalog.lookup("lineitem")
        catalog.update_stats(
            "lineitem",
            TableStats(
                name=old.name,
                columns=old.columns,
                cardinality=old.cardinality * 16.0,
                distinct={
                    column: min(value * 16.0, old.cardinality * 16.0)
                    for column, value in old.distinct.items()
                },
                keys=old.keys,
            ),
        )
        drifted = fresh_query(SQLS[2], catalog)  # the re-parse path
        decision = evaluate_stale(drifted, cached, config=OptimizerConfig())
        assert decision.serve is False
        assert decision.reason == "over_bound"
        assert decision.recost_cost > decision.bound_factor * decision.bound_cost
        assert decision.bound_cost > 0

    def test_unreplayable_plan_reports_replay_failed(self):
        donor = optimize(fresh_query(SQLS[0]))
        other = fresh_query(SQLS[2])
        decision = evaluate_stale(other, donor, config=OptimizerConfig())
        assert decision.serve is False
        assert decision.reason == "replay_failed"
        assert decision.recost_cost is None


class TestRecostedResult:
    def test_marks_provenance(self):
        query = fresh_query(SQLS[0])
        cached = optimize(query)
        decision = evaluate_stale(query, cached, config=OptimizerConfig())
        refreshed = recosted_result(cached, decision.plan, decision.elapsed_seconds)
        assert refreshed.cost == cached.cost
        assert refreshed.cache_hit is False
        assert refreshed.degraded is False
        assert refreshed.stats["recosted"] == 1
        # The original result is untouched (replace, not mutation).
        assert "recosted" not in cached.stats
