"""Golden-value and engine-equivalence tests for the hot-path refactor.

The indexed engine (iterative enumerator, hypergraph indexes, per-edge
join specs, Pareto buckets) must be observationally identical to the
seed's code path, which survives as ``engine="reference"``:

* identical best-plan cost, ccp count, plans-built count and DP-table
  sizes on the TPC-H workloads, the fixed topologies and random
  generated queries (simple *and* complex-edge shapes),
* golden literal values for the TPC-H queries, pinned so a regression in
  *either* engine (not just a divergence between them) is caught.
"""

import random

import pytest

from repro.optimizer import OptimizerConfig, optimize
from repro.optimizer.strategies import EaPruneStrategy
from repro.tpch.queries import build_ex, build_q3, build_q5, build_q10
from repro.workload import WorkloadConfig, generate_query, topology_query

STRATEGIES = ("dphyp", "ea-prune", "h1", "h2")

TPCH_BUILDERS = {
    "ex": build_ex,
    "q3": build_q3,
    "q5": build_q5,
    "q10": build_q10,
}

#: (query, strategy) → (best cost, ccp count, plans built), measured on the
#: seed implementation.  These are *values*, not tolerances: the optimizer
#: is deterministic and the hot path must not change its output at all.
TPCH_GOLDEN = {
    ("ex", "dphyp"): (60218288.47469728, 10, 7),
    ("ex", "ea-prune"): (149.6511565806907, 10, 48),
    ("ex", "h1"): (166.38510881600084, 10, 16),
    ("ex", "h2"): (166.38510881600084, 10, 16),
    ("q3", "dphyp"): (657073.7495322055, 4, 7),
    ("q3", "ea-prune"): (373657.61567229626, 4, 31),
    ("q3", "h1"): (373657.61567229626, 4, 19),
    ("q3", "h2"): (373657.61567229626, 4, 19),
    ("q5", "dphyp"): (1101803.7812967582, 68, 74),
    ("q5", "ea-prune"): (238439.60164483933, 68, 4018),
    ("q5", "h1"): (592921.7549799087, 68, 278),
    ("q5", "h2"): (592921.7549799087, 68, 278),
    ("q10", "dphyp"): (205534.67790111882, 10, 14),
    ("q10", "ea-prune"): (131728.57461675355, 10, 204),
    ("q10", "h1"): (153131.03391426985, 10, 44),
    ("q10", "h2"): (153131.03391426985, 10, 44),
}


def _fingerprint(result):
    return (result.cost, result.ccp_count, result.plans_built, result.table_sizes)


class TestTpchGolden:
    @pytest.mark.parametrize("query_name,strategy", sorted(TPCH_GOLDEN))
    def test_indexed_engine_matches_golden_values(self, query_name, strategy):
        result = optimize(TPCH_BUILDERS[query_name](), strategy)
        cost, ccp_count, plans_built = TPCH_GOLDEN[(query_name, strategy)]
        assert result.cost == cost
        assert result.ccp_count == ccp_count
        assert result.plans_built == plans_built

    @pytest.mark.parametrize("query_name,strategy", sorted(TPCH_GOLDEN))
    def test_reference_engine_matches_golden_values(self, query_name, strategy):
        """The oracle is pinned to the same literals on its own, so a
        regression shared by both engines cannot hide behind their
        agreement."""
        result = optimize(TPCH_BUILDERS[query_name](), strategy, engine="reference")
        cost, ccp_count, plans_built = TPCH_GOLDEN[(query_name, strategy)]
        assert result.cost == cost
        assert result.ccp_count == ccp_count
        assert result.plans_built == plans_built

    @pytest.mark.parametrize("query_name", sorted(TPCH_BUILDERS))
    def test_engines_identical_on_tpch(self, query_name):
        query = TPCH_BUILDERS[query_name]()
        for strategy in STRATEGIES:
            indexed = optimize(query, strategy)
            reference = optimize(query, strategy, engine="reference")
            assert _fingerprint(indexed) == _fingerprint(reference), strategy


class TestEngineEquivalenceOnRandomWorkloads:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_queries_all_strategies(self, seed):
        rng = random.Random(seed)
        query = generate_query(rng.randint(2, 6), random.Random(seed * 7919))
        for strategy in STRATEGIES + ("ea-all",):
            indexed = optimize(query, strategy)
            reference = optimize(query, strategy, engine="reference")
            assert _fingerprint(indexed) == _fingerprint(reference), (seed, strategy)

    @pytest.mark.parametrize("seed", range(6))
    def test_inner_only_cyclic_friendly_workload(self, seed):
        config = WorkloadConfig(inner_only=True)
        query = generate_query(5, random.Random(seed + 31), config)
        for strategy in STRATEGIES:
            indexed = optimize(query, strategy)
            reference = optimize(query, strategy, engine="reference")
            assert _fingerprint(indexed) == _fingerprint(reference)

    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    def test_pruning_criteria_variants(self, criteria):
        for seed in range(4):
            query = generate_query(5, random.Random(seed + 100))
            indexed = optimize(query, EaPruneStrategy(criteria))
            reference = optimize(
                query, EaPruneStrategy(criteria, ordered=False), engine="reference"
            )
            assert _fingerprint(indexed) == _fingerprint(reference)


class TestEngineEquivalenceOnTopologies:
    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_fixed_topologies(self, topology, n):
        query = topology_query(topology, n)
        for strategy in STRATEGIES:
            indexed = optimize(query, strategy)
            reference = optimize(query, strategy, engine="reference")
            assert _fingerprint(indexed) == _fingerprint(reference), (topology, n, strategy)


class TestHotpathStats:
    def test_stats_populated_on_indexed_runs(self):
        result = optimize(topology_query("chain", 5), "ea-prune")
        assert result.stats["engine_reference"] == 0
        assert result.stats["resolver.resolve_calls"] == result.ccp_count
        assert result.stats["graph.neighborhood_calls"] > 0
        assert result.stats["strategy.prune_inserts"] > 0

    def test_stats_flag_reference_engine(self):
        result = optimize(topology_query("chain", 5), "ea-prune", engine="reference")
        assert result.stats["engine_reference"] == 1
        assert "resolver.resolve_calls" not in result.stats

    def test_stats_survive_cache_hit_copies(self):
        result = optimize(topology_query("chain", 4), "ea-prune")
        hit = result.as_cache_hit()
        assert hit.stats == result.stats
        assert hit.cache_hit and hit.elapsed_seconds == 0.0

    @pytest.mark.parametrize("engine", ["turbo", "vectorized"])
    def test_unknown_engine_rejected(self, engine):
        expected = rf"unknown engine '{engine}' \(use one of: indexed, reference\)"
        with pytest.raises(ValueError, match=expected):
            optimize(topology_query("chain", 4), "ea-prune", engine=engine)

    @pytest.mark.parametrize("engine", ["turbo", "vectorized"])
    def test_unknown_engine_rejected_by_config(self, engine):
        expected = rf"unknown engine '{engine}' \(use one of: indexed, reference\)"
        with pytest.raises(ValueError, match=expected):
            OptimizerConfig(engine=engine)


class TestPreparedQueryResolver:
    def test_resolver_is_cached_per_prepared_query(self):
        from repro.optimizer.driver import prepare

        prepared = prepare(topology_query("chain", 5))
        assert prepared.resolver() is prepared.resolver()

    def test_prepared_reuse_matches_fresh_runs(self):
        from repro.optimizer.driver import prepare

        query = topology_query("cycle", 6)
        prepared = prepare(query)
        for strategy in STRATEGIES:
            reused = optimize(query, strategy, prepared=prepared)
            fresh = optimize(query, strategy)
            assert _fingerprint(reused) == _fingerprint(fresh)
