"""The DP driver: DPhyp enumeration + OpTrees + strategy insertion.

This is the paper's Fig. 5 skeleton with the eager-aggregation extensions:

1. initialise the DP table with access paths,
2. enumerate csg-cmp-pairs of the conflict hypergraph,
3. test operator applicability (conflict rules),
4. build plans — ``OpTrees`` generates up to four grouping placements per
   join (Fig. 8), and the chosen strategy decides what survives,
5. finalise plans for the full relation set (top grouping or Eqv.-42
   elimination) through ``InsertTopLevelPlan``.

Two engines drive the same skeleton (see docs/architecture.md):

* ``engine="indexed"`` (default) — the hot path: iterative enumerator over
  the indexed/memoised hypergraph, per-edge join specs resolved through
  :class:`~repro.optimizer.edgeindex.EdgeResolver`, predicate-metadata
  memos in the :class:`~repro.optimizer.planinfo.PlanBuilder`, and
  cost-ordered EA-Prune buckets,
* ``engine="reference"`` — the seed's code path (recursive enumerator,
  linear edge scans, uncached builder, unordered buckets), kept as the
  executable spec.  Golden tests assert the engines produce identical
  costs, ccp counts and table sizes; :mod:`benchmarks.bench_hotpath`
  times the indexed engine against it.

The engine choice never changes optimizer *output* — it is part of
:class:`~repro.optimizer.config.OptimizerConfig` so tests and benchmarks
can select the oracle, but deliberately *not* part of the plan cache key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import chaos
from repro.algebra.expressions import conjunction
from repro.conflict.detector import AnnotatedEdge, detect
from repro.hypergraph.graph import Hypergraph
from repro.hypergraph.enumerate import enumerate_ccps, enumerate_ccps_reference
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.deadline import Deadline, PlanningDeadlineExceeded
from repro.optimizer.edgeindex import EdgeResolver, JoinSpec
from repro.optimizer.planinfo import PlanBuilder, PlanInfo
from repro.optimizer.registry import ENGINES
from repro.optimizer.strategies import EaPruneStrategy, Strategy, sweep_prune_caches
from repro.query.spec import Query
from repro.rewrites.pushdown import OpKind, pushdown_valid_for

#: Back-compat alias — the resolved-operator record now lives in
#: :mod:`repro.optimizer.edgeindex`.
_JoinSpec = JoinSpec


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run."""

    plan: PlanInfo
    strategy: str
    elapsed_seconds: float
    ccp_count: int
    plans_built: int
    table_sizes: Dict[int, int]
    cache_hit: bool = False
    #: True when this plan is a deadline-degraded heuristic fallback (see
    #: :mod:`repro.optimizer.deadline`) rather than the configured
    #: strategy's answer.  Degraded results are never stored in plan
    #: caches — they are a serve-something answer, not the plan of record.
    degraded: bool = False
    #: Hot-path instrumentation (edge-index scans, memo hits, dominance
    #: checks) for the run that produced the plan.  Keys are additive
    #: counters; absent on cache hits only in the sense that they still
    #: describe the original run.  Populated by :func:`optimize`; empty
    #: for results constructed elsewhere.
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        return self.plan.cost

    def as_cache_hit(self) -> "OptimizationResult":
        """A copy marked as served from a plan cache.

        ``elapsed_seconds`` is zeroed — serving the copy cost a dictionary
        lookup, not the original run's time.  ``ccp_count``, ``plans_built``
        and ``table_sizes`` still describe the run that produced the plan.
        """
        return replace(self, cache_hit=True, elapsed_seconds=0.0)


@dataclass(frozen=True)
class PreparedQuery:
    """The strategy-independent pre-pass: conflict rules + hypergraph.

    Conflict detection (TES/rule computation) and hypergraph construction
    depend only on the query, not on the strategy or statistics snapshot,
    so a caller comparing strategies — or a batch driver re-optimizing the
    same shape after a statistics change — runs them once and hands the
    result to every :func:`optimize` call.
    """

    query: Query
    annotated: Tuple[AnnotatedEdge, ...]
    graph: Hypergraph

    def resolver(self) -> EdgeResolver:
        """A per-edge join-spec resolver for this pre-pass (built lazily
        and cached — resolvers are pure indexes over ``annotated``)."""
        cached = self.__dict__.get("_resolver")
        if cached is None:
            cached = EdgeResolver(self.annotated, self.query)
            object.__setattr__(self, "_resolver", cached)
        return cached


def prepare(query: Query) -> PreparedQuery:
    """Run conflict detection and build the hypergraph for *query*."""
    annotated, graph = detect(query)
    return PreparedQuery(query=query, annotated=tuple(annotated), graph=graph)


@dataclass(frozen=True)
class OptimizerHooks:
    """Optional tracing/metrics callbacks fired by :func:`optimize`.

    * ``on_prepare(prepared)`` — after the driver runs its own pre-pass
      (not fired when a caller supplies *prepared*; the session fires it
      when preparing a statement),
    * ``on_ccp(s1, s2)`` — once per enumerated csg-cmp-pair,
    * ``on_plan(plan)`` — once per candidate :class:`PlanInfo` offered to
      the DP table (access paths, OpTrees variants for inner table
      entries, finalised plans for the full relation set),
    * ``on_result(result)`` — once per returned result, cache hits
      included.  ``result.stats`` carries the hot-path counters, so
      metrics pipelines hang off this hook without touching the DP loops.

    Absent callbacks cost a single attribute read; the DP hot loops stay
    untouched when no hooks are installed.
    """

    on_prepare: Optional[Callable[[PreparedQuery], None]] = None
    on_ccp: Optional[Callable[[int, int], None]] = None
    on_plan: Optional[Callable[[PlanInfo], None]] = None
    on_result: Optional[Callable[["OptimizationResult"], None]] = None


def optimize(
    query: Query,
    strategy: str | Strategy = "ea-prune",
    factor: float = 1.03,
    prepared: Optional[PreparedQuery] = None,
    cache=None,
    *,
    config: Optional[OptimizerConfig] = None,
    hooks: Optional[OptimizerHooks] = None,
    engine: Optional[str] = None,
    deadline: Optional[Deadline] = None,
) -> OptimizationResult:
    """Optimize *query* and return the final plan.

    All optimizer knobs live in *config* (an
    :class:`~repro.optimizer.config.OptimizerConfig`); the *strategy* /
    *factor* positional parameters remain as a shim for the seed's call
    style and are ignored when *config* is given.  *prepared* reuses a
    :func:`prepare` pre-pass (conflict detection + hypergraph) across
    strategies or repeated runs.  *cache* is an optional
    :class:`repro.service.cache.PlanCache`: hits return immediately
    (marked ``cache_hit=True``), misses are stored after optimization.
    *hooks* receive tracing callbacks (see :class:`OptimizerHooks`).
    *engine* selects the hot path (``"indexed"``, the default) or the seed
    code path (``"reference"``); ``None`` defers to ``config.engine``.
    The result is identical whichever engine runs.

    *deadline* arms a cooperative planning budget checked inside the DP
    loop (both engines share it); ``None`` defers to
    ``config.deadline_seconds``, measured from the start of this run.
    Cache hits are served before the budget is consulted.  On a blown
    budget, ``config.degradation`` picks between a heuristic fallback
    plan marked ``degraded=True`` and raising
    :class:`~repro.optimizer.deadline.PlanningDeadlineExceeded`.
    """
    if config is None:
        config = OptimizerConfig(strategy=strategy, factor=factor, cache_capacity=None)
    if engine is None:
        engine = config.engine
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (use one of: {', '.join(ENGINES)})"
        )
    chosen = config.resolve_strategy()
    cost_model = config.resolve_cost_model()

    # The pre-pass identity check runs before any cache probe: a mismatched
    # pre-pass is a caller bug and must raise even when a hit could have
    # been served.
    if prepared is not None and prepared.query is not query:
        raise ValueError("prepared pre-pass belongs to a different query")

    on_result = hooks.on_result if hooks is not None else None

    key = None
    exact_snapshot = None
    if cache is not None:
        from repro.service.fingerprint import cache_key, cardinality_snapshot

        key = cache_key(
            query, chosen, config.factor, cost_model=cost_model.name,
            band_width=config.snapshot_band_width,
        )
        # With banded keys the exact snapshot travels separately: it is
        # what serve_entry compares to detect within-band drift (stale
        # serving) and what the entry remembers for re-costing.  Without
        # banding the key's snapshot IS the exact one — no second digest.
        exact_snapshot = (
            cardinality_snapshot(query)
            if config.snapshot_band_width is not None
            else key.snapshot
        )
        found = cache.serve_entry(key, query, exact_snapshot=exact_snapshot)
        if found is not None:
            served, _state = found
            if on_result is not None:
                on_result(served)
            return served

    start = time.perf_counter()

    if deadline is None and config.deadline_seconds is not None:
        deadline = Deadline(config.deadline_seconds)
    # Injected planning slowness (tests/CI only) is scoped to deadline
    # check points, so the heuristic fallback run — no deadline — is fast.
    chaos_pause = None
    if deadline is not None and chaos.enabled():
        chaos_pause = chaos.planning_delay(rel.name for rel in query.relations)

    if prepared is not None:
        annotated, graph = prepared.annotated, prepared.graph
    else:
        prepared_here = prepare(query)
        annotated, graph = prepared_here.annotated, prepared_here.graph
        if hooks is not None and hooks.on_prepare is not None:
            hooks.on_prepare(prepared_here)
        prepared = prepared_here

    reference = engine == "reference"
    if reference and isinstance(chosen, EaPruneStrategy) and chosen.ordered:
        chosen = EaPruneStrategy(criteria=chosen.criteria, ordered=False)

    # Bound the global FD intern tables between runs (no bucket from this
    # run exists yet, so a reset here can never alias signature ids).
    sweep_prune_caches()

    builder = PlanBuilder(query, cost_model=cost_model, memo=not reference)
    all_mask = query.all_relations_mask

    on_ccp = hooks.on_ccp if hooks is not None else None
    on_plan = hooks.on_plan if hooks is not None else None

    if reference:
        resolver = None
        resolve = partial(_resolve_edge, annotated, query)
        ccps = enumerate_ccps_reference(graph)
    else:
        resolver = prepared.resolver()
        resolve = resolver.resolve
        ccps = enumerate_ccps(graph)

    # Counter snapshots: graph/resolver/strategy objects may be shared
    # across runs (PreparedQuery reuse, strategy instances in configs), so
    # the per-run stats are end-minus-start diffs.
    graph_before = dict(graph.counters)
    resolver_before = dict(resolver.counters) if resolver is not None else {}
    strategy_counters = getattr(chosen, "counters", None)
    strategy_before = dict(strategy_counters) if strategy_counters is not None else {}

    table: Dict[int, List[PlanInfo]] = {}
    for vertex in range(len(query.relations)):
        leaf = builder.leaf(vertex)
        table[1 << vertex] = [leaf]
        if on_plan is not None:
            on_plan(leaf)

    plans_built = len(table)
    ccp_count = 0

    if len(query.relations) == 1:
        top: List[PlanInfo] = []
        finished = builder.finish_top(table[1][0])
        chosen.insert_top(top, finished)
        table[all_mask] = top
        if on_plan is not None:
            on_plan(finished)

    try:
        for s1, s2 in ccps:
            ccp_count += 1
            if deadline is not None and deadline.tick() and chaos_pause is not None:
                time.sleep(chaos_pause)
                deadline.check()
            if on_ccp is not None:
                on_ccp(s1, s2)
            spec = resolve(s1, s2)
            if spec is None:
                continue
            left_set, right_set = (s2, s1) if spec.swap else (s1, s2)
            left_bucket = table.get(left_set, ())
            right_bucket = table.get(right_set, ())
            if not left_bucket or not right_bucket:
                continue
            combined = left_set | right_set
            is_top = combined == all_mask
            bucket = table.get(combined)
            if bucket is None:
                # Top-level entries go through insert_top (single plan, list
                # semantics); inner entries use the strategy's bucket type.
                bucket = table[combined] = [] if is_top else chosen.new_bucket()
            for left_plan in left_bucket:
                for right_plan in right_bucket:
                    for plan in _op_trees(builder, chosen, left_plan, right_plan, spec):
                        plans_built += 1
                        if is_top:
                            # Report the finalised plan — the candidate the DP
                            # table actually considers for the full relation set.
                            plan = builder.finish_top(plan)
                            if on_plan is not None:
                                on_plan(plan)
                            chosen.insert_top(bucket, plan)
                        else:
                            if on_plan is not None:
                                on_plan(plan)
                            chosen.insert(bucket, plan)
    except PlanningDeadlineExceeded:
        if config.degradation != "heuristic":
            raise
        result = _degraded_fallback(
            query, prepared, config, engine, start, ccp_count, plans_built
        )
        if on_result is not None:
            on_result(result)
        return result

    final = table.get(all_mask, [])
    if not final:
        raise RuntimeError("no plan found — query hypergraph not fully connectable")
    best = min(final, key=lambda p: p.cost)
    elapsed = time.perf_counter() - start

    stats: Dict[str, int] = {"engine_reference": 1 if reference else 0}
    for name, value in graph.counters.items():
        delta = value - graph_before.get(name, 0)
        if delta:
            stats[f"graph.{name}"] = delta
    if resolver is not None:
        for name, value in resolver.counters.items():
            delta = value - resolver_before.get(name, 0)
            if delta:
                stats[f"resolver.{name}"] = delta
    if strategy_counters is not None:
        for name, value in strategy_counters.items():
            delta = value - strategy_before.get(name, 0)
            if delta:
                stats[f"strategy.{name}"] = delta

    result = OptimizationResult(
        plan=best,
        strategy=chosen.name,
        elapsed_seconds=elapsed,
        ccp_count=ccp_count,
        plans_built=plans_built,
        table_sizes={mask: len(plans) for mask, plans in table.items()},
        stats=stats,
    )
    if cache is not None and key is not None and not result.degraded:
        cache.store(key, query, result, exact_snapshot=exact_snapshot)
    if on_result is not None:
        on_result(result)
    return result


#: Strategy used for deadline-degraded fallback plans: H1 (Fig. 10), the
#: paper's cheapest greedy — one plan per DP class, no eager variants.
DEGRADED_STRATEGY = "h1"


def _degraded_fallback(
    query: Query,
    prepared: Optional[PreparedQuery],
    config: OptimizerConfig,
    engine: str,
    start: float,
    primary_ccps: int,
    primary_plans: int,
) -> OptimizationResult:
    """Build the serve-something plan after a blown planning deadline.

    Re-runs the same prepared query under :data:`DEGRADED_STRATEGY` with
    no deadline (H1 touches each ccp once with a single plan per class,
    so its runtime is a small fraction of the budget that just expired).
    The returned result carries ``degraded=True``, total elapsed time
    including the abandoned primary run, and stats counters recording
    how far the primary got before the budget fired.
    """
    fallback_config = config.with_overrides(
        strategy=DEGRADED_STRATEGY, deadline_seconds=None
    )
    result = optimize(
        query, prepared=prepared, config=fallback_config, engine=engine
    )
    stats = dict(result.stats)
    stats["degraded"] = 1
    stats["degraded.primary_ccps"] = primary_ccps
    stats["degraded.primary_plans"] = primary_plans
    return replace(
        result,
        degraded=True,
        elapsed_seconds=time.perf_counter() - start,
        stats=stats,
    )


def _resolve_edge(
    annotated: Sequence[AnnotatedEdge], query: Query, s1: int, s2: int
) -> Optional[JoinSpec]:
    """Reference operator resolution: the seed's linear scan over all
    annotated edges (see :meth:`EdgeResolver.resolve` for the hot path).

    Exactly one edge crossing: use its operator (checking applicability in
    both orientations; non-commutative operators fix the orientation).
    Multiple crossing edges: only legal when all of them are inner joins —
    their predicates are conjoined and selectivities multiplied.
    """
    crossing = [
        e
        for e in annotated
        if (_subset(e.l_tes, s1) and _subset(e.r_tes, s2))
        or (_subset(e.l_tes, s2) and _subset(e.r_tes, s1))
    ]
    if not crossing:
        return None

    if len(crossing) == 1:
        edge = crossing[0]
        join_edge = query.edge(edge.edge_id)
        if edge.applicable(s1, s2):
            return JoinSpec(
                edge.op, join_edge.predicate, join_edge.selectivity,
                join_edge.groupjoin_vector, swap=False,
            )
        if edge.applicable(s2, s1):
            return JoinSpec(
                edge.op, join_edge.predicate, join_edge.selectivity,
                join_edge.groupjoin_vector, swap=True,
            )
        return None

    # Several predicates meet at this ccp (cyclic inner-join queries).
    if any(e.op is not OpKind.INNER for e in crossing):
        return None
    predicates = []
    selectivity = 1.0
    for edge in crossing:
        if not (edge.applicable(s1, s2) or edge.applicable(s2, s1)):
            return None
        join_edge = query.edge(edge.edge_id)
        predicates.append(join_edge.predicate)
        selectivity *= join_edge.selectivity
    return JoinSpec(OpKind.INNER, conjunction(predicates), selectivity, None, swap=False)


def _subset(small: int, big: int) -> bool:
    return small & ~big == 0


def _op_trees(
    builder: PlanBuilder,
    strategy: Strategy,
    left: PlanInfo,
    right: PlanInfo,
    spec: JoinSpec,
):
    """``OpTrees`` (Fig. 6): the up-to-four grouping placements of Fig. 8."""
    plain = builder.join(
        left, right, spec.op, spec.predicate, spec.selectivity, spec.groupjoin_vector
    )
    if plain is not None:
        yield plain
    if not strategy.explore_eager:
        return

    grouped_left: Optional[PlanInfo] = None
    grouped_right: Optional[PlanInfo] = None

    # NOTE on NeedsGrouping (Fig. 6, lines 10/15): the paper skips grouped
    # variants whose grouping attributes contain a key.  That test is
    # *plan-dependent* while the grouping-output estimate is not, which
    # makes the skip inconsistent across dominance-equivalent plans and can
    # break EA-Prune's optimality under a statistics-based estimator.  We
    # therefore skip only the genuinely degenerate case (grouping a
    # duplicate-free input whose grouping attributes are a key *and* whose
    # estimated reduction is nil is still generated — pruning or cost will
    # discard it), keeping the DP-class continuation sets consistent.
    if pushdown_valid_for(spec.op, 1):
        g_plus = builder.needed_above(left.rel_set) & left.raw_attrs
        grouped_left = builder.group(left, g_plus)
        if grouped_left is not None:
            plan = builder.join(
                grouped_left, right, spec.op, spec.predicate, spec.selectivity,
                spec.groupjoin_vector,
            )
            if plan is not None:
                yield plan

    if pushdown_valid_for(spec.op, 2):
        g_plus = builder.needed_above(right.rel_set) & right.raw_attrs
        grouped_right = builder.group(right, g_plus)
        if grouped_right is not None:
            plan = builder.join(
                left, grouped_right, spec.op, spec.predicate, spec.selectivity,
                spec.groupjoin_vector,
            )
            if plan is not None:
                yield plan

    if grouped_left is not None and grouped_right is not None:
        plan = builder.join(
            grouped_left, grouped_right, spec.op, spec.predicate, spec.selectivity,
            spec.groupjoin_vector,
        )
        if plan is not None:
            yield plan
