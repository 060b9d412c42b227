"""The benchmark's four traffic mixes, generated from a seed.

Every workload is a fixed-count list of HTTP requests, built before the
server starts; the server only ever sees the SQL text.  A request is a
``(path, body)`` pair sent as ``POST`` with a JSON body.

* ``warm-hit``     — a working set of 20 statement shapes, each spelled
  with two alias sets, cycled over ``/optimize`` (all hits after warm-up).
* ``cold-plan``    — distinct 4-table mixed-operator statements from
  :func:`repro.workload.generate_sql_workload` (every request misses),
  drawn from a pool that is the same for every seed.
* ``execute-tpch`` — the paper's Ex, Q3, Q5 and Q10 over ``/execute``.
* ``drift-mixed``  — the ``warm-hit`` traffic, less its Q5 shapes, with
  a ``/stats_update`` every :data:`DRIFT_EVERY`-th request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: the server's default plan-cache capacity (``repro serve --cache-size``).
CACHE_CAPACITY = 512


@dataclass(frozen=True)
class Workload:
    """How one workload drives the server."""

    name: str
    #: closed-loop connections (one client thread each).
    connections: int
    #: the percentile reported as ``latency_tail_ms``: the highest with at
    #: least ten samples beyond it in one slice at ``--seconds 10``.
    tail_percentile: float
    #: requests per ``--seconds`` second: the fixed request count, sized
    #: so a run of the commit that added it lasts about ``--seconds`` on a
    #: busy 2-vCPU host.
    requests_per_second: float
    #: ``--dataset`` for the server (execution workloads only).
    dataset: Optional[str] = None
    #: lower bound on the request count, whatever ``--seconds`` says.
    min_requests: int = 1
    #: consecutive slices of the timed list; throughput and tail latency
    #: are medians over them.
    slices: int = 1


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "warm-hit",
            connections=1, tail_percentile=99.0, requests_per_second=300.0, slices=3,
        ),
        Workload(
            "cold-plan",
            connections=2, tail_percentile=98.0, requests_per_second=36.0,
            min_requests=CACHE_CAPACITY + 8,
        ),
        Workload(
            "execute-tpch",
            connections=2, tail_percentile=80.0, requests_per_second=5.0,
            dataset="tpch-sf0.01",
        ),
        Workload(
            "drift-mixed",
            connections=1, tail_percentile=99.0, requests_per_second=250.0,
        ),
    )
}

#: one ``/stats_update`` per this many requests on ``drift-mixed``: about a
#: dozen per run, each re-costing ~12 entries in the background.  At one
#: per 25 requests the replans after each update swamp the reads.
DRIFT_EVERY = 200
#: the tables the drift cycles over — all read by the warm-hit mix.
DRIFT_TABLES = ("orders", "customer", "lineitem", "supplier", "nation")
#: ×4 then ×0.25 on the same table: powers of two, so the statistics
#: return bit-exactly to where they started.
DRIFT_FACTORS = (4.0, 0.25)
#: cold-plan statements left out of each run, per statement sent.  5-15
#: of 520 statements plan over 10× slower than the median, so 520 drawn
#: afresh per seed cost 51-63 ms CPU per request; from one pool the seed
#: only picks the one statement in nine left out, and the order.
COLD_LEFT_OUT = 1 / 8


# ---------------------------------------------------------------------------
# SQL templates
# ---------------------------------------------------------------------------

_REVENUE = "sum({l}.l_extendedprice * (1 - {l}.l_discount)) AS revenue"

#: the paper's Ex (the introduction's outerjoin query).
EX_SQL = (
    "SELECT {ns}.n_name, {nc}.n_name, count(*) AS cnt FROM nation {ns} "
    "JOIN supplier {s} ON {ns}.n_nationkey = {s}.s_nationkey "
    "FULL JOIN nation {nc} ON {ns}.n_nationkey = {nc}.n_nationkey "
    "JOIN customer {c} ON {nc}.n_nationkey = {c}.c_nationkey "
    "GROUP BY {ns}.n_name, {nc}.n_name"
)

#: TPC-H Q3 (shipping priority); dates are day offsets from 1992-01-01.
Q3_SQL = (
    "SELECT {l}.l_orderkey, {o}.o_orderdate, {o}.o_shippriority, " + _REVENUE + " "
    "FROM customer {c} JOIN orders {o} ON {c}.c_custkey = {o}.o_custkey "
    "JOIN lineitem {l} ON {o}.o_orderkey = {l}.l_orderkey "
    "WHERE {c}.c_mktsegment = '{segment}' AND {o}.o_orderdate < {day} "
    "AND {l}.l_shipdate > {day} "
    "GROUP BY {l}.l_orderkey, {o}.o_orderdate, {o}.o_shippriority"
)

#: TPC-H Q5 (local supplier volume), the cyclic query.
Q5_SQL = (
    "SELECT {n}.n_name, " + _REVENUE + " "
    "FROM customer {c} JOIN orders {o} ON {c}.c_custkey = {o}.o_custkey "
    "JOIN lineitem {l} ON {o}.o_orderkey = {l}.l_orderkey "
    "JOIN supplier {s} ON {l}.l_suppkey = {s}.s_suppkey "
    "JOIN nation {n} ON {s}.s_nationkey = {n}.n_nationkey "
    "JOIN region {r} ON {n}.n_regionkey = {r}.r_regionkey "
    "WHERE {c}.c_nationkey = {s}.s_nationkey AND {r}.r_name = '{region}' "
    "AND {o}.o_orderdate >= {start} AND {o}.o_orderdate < {end} "
    "GROUP BY {n}.n_name"
)

#: TPC-H Q10 (returned item reporting).
Q10_SQL = (
    "SELECT {c}.c_custkey, {c}.c_name, {c}.c_acctbal, {c}.c_phone, {n}.n_name, "
    "{c}.c_address, {c}.c_comment, " + _REVENUE + " "
    "FROM customer {c} JOIN orders {o} ON {c}.c_custkey = {o}.o_custkey "
    "JOIN lineitem {l} ON {o}.o_orderkey = {l}.l_orderkey "
    "JOIN nation {n} ON {c}.c_nationkey = {n}.n_nationkey "
    "WHERE {o}.o_orderdate >= {start} AND {o}.o_orderdate < {end} "
    "AND {l}.l_returnflag = 'R' "
    "GROUP BY {c}.c_custkey, {c}.c_name, {c}.c_acctbal, {c}.c_phone, {n}.n_name, "
    "{c}.c_address, {c}.c_comment"
)

#: the repeat-mix shapes the older server benchmarks cycle over.
REPEAT_SQL = (
    "SELECT {n}.n_name, count(*) AS cnt FROM nation {n} "
    "JOIN supplier {s} ON {n}.n_nationkey = {s}.s_nationkey GROUP BY {n}.n_name",
    "SELECT {c}.c_custkey, {c}.c_name, " + _REVENUE + " FROM customer {c} "
    "JOIN orders {o} ON {c}.c_custkey = {o}.o_custkey "
    "JOIN lineitem {l} ON {o}.o_orderkey = {l}.l_orderkey "
    "JOIN nation {n} ON {c}.c_nationkey = {n}.n_nationkey "
    "WHERE {o}.o_orderdate >= {start} AND {o}.o_orderdate < {end} "
    "GROUP BY {c}.c_custkey, {c}.c_name",
    "SELECT {s}.s_name, count(*) AS cnt FROM supplier {s} "
    "JOIN nation {n} ON {s}.s_nationkey = {n}.n_nationkey "
    "JOIN customer {c} ON {n}.n_nationkey = {c}.c_nationkey GROUP BY {s}.s_name",
)

#: alias pools per placeholder; a spelling draws one name from each.
_ALIASES = {
    "c": ("c", "cu", "cust", "c1"),
    "o": ("o", "ord", "o1", "od"),
    "l": ("l", "li", "line", "l1"),
    "s": ("s", "su", "sup", "s1"),
    "n": ("n", "na", "nat", "n1"),
    "r": ("r", "re", "reg", "r1"),
    "ns": ("ns", "sn", "nsup"),
    "nc": ("nc", "cn", "ncus"),
}

_SEGMENTS = ("BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE")
_REGIONS = ("ASIA", "AMERICA", "EUROPE")
#: [start, end) day windows: calendar years 1993–1996, quarters of 1993–1994.
_YEARS = ((366, 731), (731, 1096), (1096, 1461), (1461, 1827))
_QUARTERS = ((366, 456), (456, 547), (547, 639), (639, 731), (731, 821), (821, 912))


def _spellings(template: str, rng: random.Random, count: int = 2, **constants) -> List[str]:
    """*count* alias spellings of one statement shape (distinct alias sets)."""
    seen = set()
    out = []
    while len(out) < count:
        aliases = {key: rng.choice(pool) for key, pool in _ALIASES.items()}
        if aliases["ns"] == aliases["nc"]:
            continue
        sql = template.format(**aliases, **constants)
        if sql not in seen:
            seen.add(sql)
            out.append(sql)
    return out


def tpch_sql(rng: random.Random) -> Dict[str, str]:
    """Ex, Q3, Q5 and Q10 with their TPC-H constants, one spelling each."""
    names = ("Ex", "Q3", "Q5", "Q10")
    templates = (
        (EX_SQL, {}),
        (Q3_SQL, {"segment": "BUILDING", "day": 1169}),
        (Q5_SQL, {"region": "ASIA", "start": 731, "end": 1096}),
        (Q10_SQL, {"start": 639, "end": 731}),
    )
    return {
        name: _spellings(template, rng, 1, **constants)[0]
        for name, (template, constants) in zip(names, templates)
    }


def warm_mix(rng: random.Random, with_q5: bool = True) -> List[str]:
    """The warm-hit working set: 20 shapes × 2 spellings = 40 statements.

    The shape count per template is fixed; the seed picks the constants,
    the aliases and the order, so the per-request work is alike across
    seeds while the requests differ.  *with_q5* False leaves out the two
    Q5 shapes, whose replans (~0.6 s each) would otherwise stall the
    drift workload's single connection after every statistics update.
    """
    shapes: List[Tuple[str, dict]] = [(EX_SQL, {})]
    for segment in _SEGMENTS:
        shapes.append((Q3_SQL, {"segment": segment, "day": rng.randrange(1000, 1400)}))
    # Q5 is the costliest to plan (~0.6 s); two shapes keep warm-up short.
    start, end = rng.choice(_YEARS)
    for region in rng.sample(_REGIONS, 2):
        if with_q5:
            shapes.append((Q5_SQL, {"region": region, "start": start, "end": end}))
    for start, end in rng.sample(_QUARTERS, 5):
        shapes.append((Q10_SQL, {"start": start, "end": end}))
    shapes.append((REPEAT_SQL[0], {}))
    shapes.append((REPEAT_SQL[2], {}))
    for start, end in rng.sample(_QUARTERS, 5):
        shapes.append((REPEAT_SQL[1], {"start": start, "end": end}))
    mix = [sql for template, constants in shapes
           for sql in _spellings(template, rng, **constants)]
    rng.shuffle(mix)
    return mix


def cold_statements(rng: random.Random, count: int) -> List[str]:
    """*count* distinct 4-table mixed-operator statements.

    Distinct means distinct plan-cache keys (not merely distinct text),
    so every one of them misses.
    """
    from repro.api.session import PlannerSession
    from repro.service.fingerprint import cache_key
    from repro.workload.generator import SqlWorkloadConfig, generate_sql_workload

    session = PlannerSession.tpch(scale_factor=0.01)
    config = SqlWorkloadConfig(min_tables=4, max_tables=4)

    def key_of(sql: str):
        return cache_key(session.parse(sql), session.config.strategy,
                         session.config.factor, cost_model=session.config.cost_model_name)

    seen = set()
    out: List[str] = []
    while len(out) < count:
        wanted = count - len(out)
        for sql in generate_sql_workload(wanted, rng, config, unique=wanted):
            key = key_of(sql)
            if key not in seen:
                seen.add(key)
                out.append(sql)
    return out[:count]


@dataclass
class Plan:
    """A workload's generated requests."""

    warmup: List[Tuple[str, dict]]
    timed: List[Tuple[str, dict]]
    #: SQL → expected-answer key material for the output checks.
    statements: List[str] = field(default_factory=list)
    #: execute-tpch only: query name → SQL.
    named: Dict[str, str] = field(default_factory=dict)


def _optimize(sql: str) -> Tuple[str, dict]:
    return "/optimize", {"sql": sql, "include_plan": True}


def drift_update(index: int) -> dict:
    """The *index*-th ``/stats_update`` body of the drift cycle."""
    table = DRIFT_TABLES[(index // 2) % len(DRIFT_TABLES)]
    return {"table": table, "cardinality_factor": DRIFT_FACTORS[index % 2]}


def _whole(count: int, cycle: int) -> int:
    """*count* rounded up to whole passes over a *cycle*-long mix, so every
    statement is sent equally often whatever the seed's order."""
    return -(-count // cycle) * cycle


def build(name: str, seed: int, seconds: float) -> Plan:
    """The warm-up and timed request lists of workload *name*."""
    workload = WORKLOADS[name]
    count = max(workload.min_requests, int(round(workload.requests_per_second * seconds)))
    rng = random.Random(f"{name}/{seed}")
    if name in ("warm-hit", "drift-mixed"):
        mix = warm_mix(rng, with_q5=name == "warm-hit")
        timed = [_optimize(mix[i % len(mix)]) for i in range(_whole(count, len(mix)))]
        if name == "drift-mixed":
            updates = 0
            for position in range(DRIFT_EVERY - 1, len(timed), DRIFT_EVERY):
                timed[position] = ("/stats_update", drift_update(updates))
                updates += 1
            if updates % 2:  # end on a ×0.25 so the statistics are back at base
                timed.append(("/stats_update", drift_update(updates)))
        return Plan([_optimize(sql) for sql in mix], timed, statements=mix)
    if name == "cold-plan":
        size = count + 4
        pool = cold_statements(random.Random(f"{name}/pool/{size}"),
                               size + int(size * COLD_LEFT_OUT))
        drawn = rng.sample(pool, size)
        warm, statements = drawn[:4], drawn[4:]
        return Plan([_optimize(sql) for sql in warm],
                    [_optimize(sql) for sql in statements],
                    statements=warm + statements)
    if name == "execute-tpch":
        named = tpch_sql(rng)
        order = list(named)
        rng.shuffle(order)
        execute = [("/execute", {"sql": named[q], "limit": None}) for q in order]
        timed = [execute[i % len(execute)] for i in range(_whole(count, len(execute)))]
        return Plan(list(execute), timed, statements=list(named.values()), named=named)
    raise KeyError(name)
