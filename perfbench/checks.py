"""Output checks: every answer the server gave is compared with an oracle.

* ``/optimize`` costs are compared with an in-process
  :class:`repro.api.PlannerSession` over the same SF 0.01 catalog.
* ``/execute`` rows are compared, as a multiset, with what stdlib
  :mod:`sqlite3` returns for the same SQL over the same generated tables.

All of this runs outside the timed region.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import sqlite3
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

SCALE_FACTOR = 0.01
#: costs are sums of float products; isomorphic spellings may add them
#: in another order, so equality is to within this relative tolerance.
COST_REL_TOL = 1e-9


def planner_session(catalog=None):
    from repro.api.session import PlannerSession
    from repro.sql.catalog import Catalog

    if catalog is None:
        catalog = Catalog.from_tpch(scale_factor=SCALE_FACTOR)
    return PlannerSession(catalog=catalog)


def same_cost(served: float, expected: float) -> bool:
    return math.isclose(served, expected, rel_tol=COST_REL_TOL)


def shape_of(statements: Sequence[str]) -> Dict[str, object]:
    """SQL → its plan-cache key: alias spellings of one shape share a key."""
    from repro.service.fingerprint import cache_key

    session = planner_session()
    config = session.config
    return {sql: cache_key(session.parse(sql), config.strategy, config.factor,
                           cost_model=config.cost_model_name)
            for sql in statements}


def _plan_all(task: Tuple[Tuple[Tuple[str, float], ...], Sequence[str]]) -> List:
    """Worker: ``(cost, plan)`` of each SQL, optimized under drift *state*."""
    state, statements = task
    session = planner_session(drifted_catalog(state))
    return [(handle.cost, handle.plan) for handle in map(session.optimize, statements)]


def _map(function, tasks: Sequence, workers: int) -> List:
    """``map`` over *tasks*, in *workers* forked processes when > 1.

    Called once no other thread runs.  Forked, the pool needs no
    resource-tracker process (which would outlive the benchmark), and
    its workers are joined before this returns.
    """
    if workers <= 1 or len(tasks) < 2:
        return [function(task) for task in tasks]
    context = multiprocessing.get_context("fork")
    with context.Pool(min(workers, len(tasks))) as pool:
        results = pool.map(function, tasks)
        pool.close()
        pool.join()
    return results


def _representatives(statements: Sequence[str]) -> Tuple[Dict[str, object], List[str]]:
    shapes = shape_of(dict.fromkeys(statements))
    first: Dict[object, str] = {}
    for sql, key in shapes.items():
        first.setdefault(key, sql)
    return shapes, list(first.values())


def expected_costs(statements: Sequence[str], workers: int = 1) -> Dict[str, float]:
    """SQL → the cost an in-process session plans it at.

    One statement per shape is planned (its alias spellings are served
    the same plan, renamed); with *workers* > 1 the shapes are split
    over that many spawned processes, which only runs outside the timed
    region.
    """
    shapes, representatives = _representatives(statements)
    chunks = [((), representatives[i::workers]) for i in range(max(1, workers))]
    by_shape = {}
    for (_, chunk), plans in zip(chunks, _map(_plan_all, chunks, workers)):
        by_shape.update({shapes[sql]: cost for sql, (cost, _) in zip(chunk, plans)})
    return {sql: by_shape[key] for sql, key in shapes.items()}


# ---------------------------------------------------------------------------
# drift: which costs may a server under statistics drift serve?
# ---------------------------------------------------------------------------

def drifted(stats, factor: float):
    """*stats* scaled by *factor* exactly as ``POST /stats_update`` does."""
    cardinality = stats.cardinality * factor
    return dataclasses.replace(
        stats,
        cardinality=cardinality,
        distinct={column: min(value * factor, cardinality)
                  for column, value in stats.distinct.items()},
    )


def drifted_catalog(state: Tuple[Tuple[str, float], ...]):
    """The SF 0.01 catalog with each ``(table, factor)`` of *state* applied."""
    from repro.sql.catalog import Catalog

    catalog = Catalog.from_tpch(scale_factor=SCALE_FACTOR)
    for table, factor in state:
        catalog.update_stats(table, drifted(catalog.lookup(table), factor))
    return catalog


def drift_states(updates: Iterable[dict]) -> List[Tuple[Tuple[str, float], ...]]:
    """The statistics state after each update, as sorted ``(table, factor)``s."""
    state: Dict[str, float] = {}
    out = []
    for update in updates:
        table = update["table"]
        state[table] = state.get(table, 1.0) * update["cardinality_factor"]
        if state[table] == 1.0:
            del state[table]
        out.append(tuple(sorted(state.items())))
    return out


class DriftOracle:
    """Allowed costs per (statistics state, SQL) under stale-while-revalidate.

    A served plan is either planned under the statistics in force, or a
    plan planned under some earlier state and re-costed (by the
    background revalidator) under the current one.  The drift cycle
    visits few states, so the oracle plans every shape under every
    state and accepts the re-cost of any of those plans under the
    current state (the current state's own optimum among them).
    """

    def __init__(self, statements: Sequence[str], updates: Sequence[dict], workers: int = 1):
        from repro.optimizer.driver import prepare
        from repro.optimizer.recost import RecostError, recost

        self.shapes, representatives = _representatives(statements)
        self.states = list(dict.fromkeys([()] + drift_states(updates)))
        plans = _map(_plan_all, [(state, representatives) for state in self.states], workers)
        cost_model = planner_session().config.resolve_cost_model()
        self._allowed: Dict[Tuple, Dict[object, List[float]]] = {}
        for state in self.states:
            session = planner_session(drifted_catalog(state))
            allowed = self._allowed[state] = {}
            for position, sql in enumerate(representatives):
                query = session.parse(sql)
                prepared = prepare(query)
                costs = allowed[self.shapes[sql]] = []
                for state_plans in plans:
                    try:
                        costs.append(recost(query, state_plans[position][1],
                                            prepared=prepared, cost_model=cost_model).cost)
                    except RecostError:
                        continue

    def allows(self, state: Tuple, sql: str, cost: float) -> bool:
        return any(same_cost(cost, expected)
                   for expected in self._allowed[state][self.shapes[sql]])


# ---------------------------------------------------------------------------
# execution: sqlite3 as an oracle that owes nothing to this codebase
# ---------------------------------------------------------------------------

def sqlite_answers(named: Dict[str, str]) -> Dict[str, List[tuple]]:
    """Run each SQL through sqlite3 over the ``scaled_dataset(0.01)`` tables."""
    from repro.tpch.datagen import scaled_dataset

    dataset = scaled_dataset(SCALE_FACTOR)
    connection = sqlite3.connect(":memory:")
    try:
        for name, table in dataset.tables.items():
            columns = list(table.attributes)
            connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            rows = zip(*(table.column(column) for column in columns))
            placeholders = ", ".join("?" for _ in columns)
            connection.executemany(f"INSERT INTO {name} VALUES ({placeholders})", rows)
        return {name: connection.execute(sql).fetchall() for name, sql in named.items()}
    finally:
        connection.close()


def _canonical(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    return round(float(value), 6)


def canonical_rows(rows: Iterable[Sequence]) -> Counter:
    """Rows as a multiset, every number rounded to 1e-6."""
    return Counter(tuple(_canonical(value) for value in row) for row in rows)


def same_rows(served: Iterable[Sequence], expected: Counter) -> bool:
    return canonical_rows(served) == expected


def check_optimize_body(body: dict, sql: str, costs: Dict[str, float]) -> Optional[str]:
    """None when a ``/optimize`` answer is right, else what is wrong."""
    if "plan" not in body:
        return "answer carries no plan"
    expected = costs[sql]
    if not same_cost(body["cost"], expected):
        return f"cost {body['cost']!r} != in-process {expected!r}"
    return None
