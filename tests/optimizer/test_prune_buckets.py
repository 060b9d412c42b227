"""Adversarial tests for EA-Prune's ordered Pareto buckets.

The indexed engine stores EA-Prune buckets as cost-ordered per-signature
frontiers; the reference engine keeps the seed's pairwise scan.  Both
must keep the same survivors on adversarial inputs: exact cost ties,
equal FD signatures, multi-plan eviction slices.
"""

import dataclasses
import random

import pytest

from repro.optimizer.costmodel import CoutModel
from repro.optimizer.planinfo import PlanBuilder
from repro.optimizer.strategies import EaPruneStrategy
from repro.workload import topology_query


def _base_plans():
    """Real leaves from a 4-relation chain — the raw material the crafted
    cost/cardinality/key variants below derive from."""
    query = topology_query("chain", 4)
    builder = PlanBuilder(query, cost_model=CoutModel())
    return [builder.leaf(v) for v in range(4)]


def _variant(plan, cost, card, keys=None, duplicate_free=None):
    changes = {"cost": float(cost), "cardinality": float(card)}
    if keys is not None:
        changes["keys"] = keys
    if duplicate_free is not None:
        changes["duplicate_free"] = duplicate_free
    return dataclasses.replace(plan, **changes)


def _survivors(strategy_factory, plans):
    """Feed *plans* through a fresh bucket, return surviving (cost, card)
    multiset plus the survivor identity set."""
    strategy = strategy_factory()
    bucket = strategy.new_bucket()
    for plan in plans:
        strategy.insert(bucket, plan)
    if isinstance(bucket, list):
        survivors = list(bucket)
    else:
        survivors = [p for _sig, frontier in bucket.frontiers.items() for p in frontier[2]]
    return sorted((p.cost, p.cardinality) for p in survivors), set(map(id, survivors))


def _assert_ordered_matches_scan(criteria, plans):
    ordered = _survivors(lambda: EaPruneStrategy(criteria, ordered=True), plans)
    scan = _survivors(lambda: EaPruneStrategy(criteria, ordered=False), plans)
    assert ordered == scan, criteria


class TestAdversarialPruneBuckets:
    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    def test_exact_cost_ties(self, criteria):
        base = _base_plans()[0]
        plans = [
            _variant(base, 100.0, 50.0),
            _variant(base, 100.0, 50.0),  # exact duplicate: ties dominate
            _variant(base, 100.0, 40.0),
            _variant(base, 100.0, 60.0),
            _variant(base, 90.0, 50.0),
        ]
        _assert_ordered_matches_scan(criteria, plans)

    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    def test_eviction_slices(self, criteria):
        base = _base_plans()[0]
        # An ascending staircase, then one plan dominating a contiguous
        # slice of it — the ordered bucket must evict exactly that slice.
        plans = [_variant(base, 10.0 + i, 100.0 - i) for i in range(8)]
        plans.append(_variant(base, 12.0, 10.0))  # dominates costs 12..17
        plans.append(_variant(base, 5.0, 200.0))  # incomparable, survives
        _assert_ordered_matches_scan(criteria, plans)

    def test_equal_fd_signatures_across_relations(self):
        # Same keys/equiv/duplicate-free triple on different relations:
        # signatures intern to one entry, so dominance applies across them.
        a, b = _base_plans()[:2]
        shared_keys = (frozenset({"k"}),)
        plans = [
            _variant(a, 10.0, 5.0, keys=shared_keys, duplicate_free=False),
            _variant(b, 10.0, 5.0, keys=shared_keys, duplicate_free=False),
            _variant(a, 8.0, 4.0, keys=shared_keys, duplicate_free=False),
        ]
        _assert_ordered_matches_scan("full", plans)

    def test_incomparable_fd_signatures_coexist(self):
        base = _base_plans()[0]
        keyed = _variant(base, 10.0, 5.0)
        keyless = _variant(base, 5.0, 3.0, keys=(), duplicate_free=False)
        _assert_ordered_matches_scan("full", [keyed, keyless])
        # The keyless plan is cheaper but offers no keys: under "full"
        # neither dominates, so both survive in both implementations.
        survivors, _ = _survivors(
            lambda: EaPruneStrategy("full", ordered=True), [keyed, keyless]
        )
        assert survivors == [(5.0, 3.0), (10.0, 5.0)]

    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_tie_heavy_sequences(self, criteria, seed):
        rng = random.Random(seed * 33 + 7)
        bases = _base_plans()
        key_pool = [None, (), (frozenset({"k"}),)]
        plans = []
        for _ in range(120):
            base = rng.choice(bases)
            # Tiny value pools force frequent exact ties in both axes.
            plans.append(
                _variant(
                    base,
                    rng.choice([10.0, 20.0, 30.0, 40.0]),
                    rng.choice([1.0, 2.0, 3.0]),
                    keys=rng.choice(key_pool),
                    duplicate_free=rng.random() < 0.3,
                )
            )
        _assert_ordered_matches_scan(criteria, plans)
