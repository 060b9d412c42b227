"""Cross-engine differential harness: indexed == reference.

The two driver engines are required to be *observationally identical*
— same best plan (shape and cost), same csg-cmp-pair emission order,
same candidate counts — on every query.  This suite generates seeded
workloads (the four classic topologies, cycle/clique floating closing
edges, and fully random hypergraphs up to n=12) and diffs the engines
pairwise across every strategy and every EA-Prune pruning criteria.

Two tiers: a ~50-case slice that runs in tier-1, and the exhaustive
matrix marked ``slow`` (``--runslow`` / ``-m slow``; see
tests/conftest.py).
"""

import random
import re

import pytest

from repro.optimizer import OptimizerConfig, OptimizerHooks, optimize
from repro.optimizer.strategies import EaPruneStrategy
from repro.plans.render import render_plan
from repro.workload import generate_query, topology_query

ENGINES = ("indexed", "reference")
STRATEGIES = ("dphyp", "ea-prune", "h1", "h2")
CRITERIA = ("full", "cost-card", "cost-only")

_SUFFIX = re.compile(r"#g(\d+)")


def normalize_suffixes(rendered):
    """Rename builder-generated ``#g<n>`` columns by first appearance.

    The concrete counter values depend on how many candidate plans each
    engine's code path built along the way (the reference path builds
    group columns in a different order than the memoised one); the plan
    *shape* — which columns are shared where — is what must agree.
    """
    seen = {}

    def rank(match):
        return "#g" + str(seen.setdefault(match.group(1), len(seen)))

    return _SUFFIX.sub(rank, rendered)


def run_engine(query, strategy, engine, factor=1.03):
    """One optimizer run returning the observational fingerprint.

    The fingerprint is everything the engines promise to agree on: the
    final plan's cost and rendered shape, the ccp emission order (via
    ``on_ccp``), and the candidate/table counts.  Engine-internal
    counters (graph scans, resolver memo hits) legitimately differ and stay
    out.
    """
    ccps = []
    hooks = OptimizerHooks(on_ccp=lambda s1, s2: ccps.append((s1, s2)))
    config = OptimizerConfig(
        strategy=strategy, factor=factor, engine=engine, cache_capacity=None
    )
    result = optimize(query, config=config, hooks=hooks)
    assert ccps, "the on_ccp hook never fired"
    return {
        "cost": result.cost,
        "plan": normalize_suffixes(render_plan(result.plan.node)),
        "ccp_order": tuple(ccps),
        "ccp_count": result.ccp_count,
        "plans_built": result.plans_built,
        "table_sizes": result.table_sizes,
    }


def assert_engines_agree(query, strategy, factor=1.03, context=()):
    baseline = run_engine(query, strategy, ENGINES[0], factor)
    for engine in ENGINES[1:]:
        other = run_engine(query, strategy, engine, factor)
        assert other == baseline, (engine, *context)


def _random_query(seed, max_relations=9):
    rng = random.Random(seed)
    return generate_query(rng.randint(3, max_relations), rng)


class TestTopologySlice:
    """Tier-1: the four topologies at two sizes, every strategy."""

    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_topologies_all_strategies(self, topology, n):
        query = topology_query(topology, n)
        for strategy in STRATEGIES:
            assert_engines_agree(query, strategy, context=(topology, n, strategy))

    @pytest.mark.parametrize("criteria", CRITERIA)
    def test_pruning_criteria_on_topologies(self, criteria):
        for topology in ("cycle", "star"):
            query = topology_query(topology, 5)
            assert_engines_agree(
                query, EaPruneStrategy(criteria), context=(topology, criteria)
            )


class TestRandomSlice:
    """Tier-1: seeded random hypergraphs (mixed operators, floating
    edges via the generator's cross-predicates), every strategy."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_all_strategies(self, seed):
        query = _random_query(seed * 7919 + 11)
        for strategy in STRATEGIES:
            assert_engines_agree(query, strategy, context=(seed, strategy))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_pruning_criteria(self, seed):
        query = _random_query(seed * 104729 + 5)
        for criteria in CRITERIA:
            assert_engines_agree(
                query, EaPruneStrategy(criteria), context=(seed, criteria)
            )

    def test_h2_factor_variants(self):
        query = _random_query(424243)
        for factor in (1.0, 1.05, 1.5):
            assert_engines_agree(query, "h2", factor=factor, context=(factor,))


@pytest.mark.slow
class TestExhaustiveMatrix:
    """The full differential matrix — sizes up to n=12 where the
    strategy's complexity permits, every strategy × criteria."""

    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 10, 12])
    def test_topology_matrix(self, topology, n):
        if topology == "clique" and n > 7:
            pytest.skip("clique DP beyond n=7 is minutes per engine")
        if topology in ("star", "cycle") and n > 10:
            pytest.skip("star/cycle EA-Prune beyond n=10 is minutes per engine")
        query = topology_query(topology, n)
        strategies = list(STRATEGIES)
        if (topology, n) in (("star", 10), ("cycle", 10), ("clique", 7)):
            strategies.remove("ea-prune")  # heuristics scale; full DP does not
        for strategy in strategies:
            assert_engines_agree(query, strategy, context=(topology, n, strategy))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_matrix(self, seed):
        query = _random_query(seed, max_relations=12)
        for strategy in STRATEGIES:
            assert_engines_agree(query, strategy, context=(seed, strategy))
        for criteria in CRITERIA:
            assert_engines_agree(
                query, EaPruneStrategy(criteria), context=(seed, criteria)
            )
