"""In-process replay of a workload's requests, one span per layer.

The replay calls the same public functions the plan server calls for
each request, in the same order, so the traced run can say how a
request's server time splits into layers without touching the program.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence, Tuple

from spans import Tracer, exec_spans, recost_spans


class Replayer:
    """A plan-server request path rebuilt from the library's parts.

    One :class:`~repro.api.PlannerSession` over the SF 0.01 TPC-H
    catalog supplies the catalog, the optimizer settings and a 512-entry
    plan cache watching the catalog's drift deltas; a
    :class:`~repro.service.revalidate.StaleRevalidator` re-costs stale
    entries, synchronously after each statistics update.
    """

    def __init__(self, tracer: Tracer, dataset_spec: Optional[str] = None):
        from repro.service.revalidate import StaleRevalidator

        from checks import planner_session

        self.tracer = tracer
        self.session = planner_session()
        self.config = self.session.config
        self.revalidator = StaleRevalidator(self.session.cache, self.session.catalog,
                                            self.config)
        #: SQL → cost of the plan the replay served (fresh plans only).
        self.costs: Dict[str, float] = {}
        self.ccp_count = 0
        self.plans_built = 0
        self.dataset = None
        if dataset_spec is not None:
            from repro.data.provision import dataset_from_spec

            with tracer.span("data.provision"):
                self.dataset = dataset_from_spec(dataset_spec)

    def close(self) -> None:
        self.revalidator.close()
        self.session.close()

    def _optimize(self, sql: str):
        from repro.optimizer.driver import optimize, prepare
        from repro.service.fingerprint import cache_key
        from repro.sql.binder import parse_query

        call, config, cache = self.tracer.call, self.config, self.session.cache
        query = call("sql.parse_bind", parse_query, sql, self.session.catalog)
        key = call("service.cache_key", cache_key, query, config.strategy, config.factor,
                   cost_model=config.cost_model_name, band_width=config.snapshot_band_width)
        found = call("service.cache_serve", cache.serve_entry, key, query,
                     exact_snapshot=key.snapshot)
        if found is not None:
            return found[0]
        prepared = call("optimizer.prepare", prepare, query)
        result = call("optimizer.enumerate", optimize, query, prepared=prepared, config=config)
        if self.tracer.enabled:  # counted over the timed list only
            self.ccp_count += result.ccp_count
            self.plans_built += result.plans_built
        self.costs[sql] = result.cost
        call("service.cache_store", cache.store, key, query, result, sql=sql,
             exact_snapshot=key.snapshot)
        return result

    def _execute(self, sql: str) -> None:
        import repro.exec.columnar as columnar
        from repro.algebra.values import NULL
        from repro.exec.physical import lower
        from repro.sql.binder import parse_query

        call = self.tracer.call
        result = self._optimize(sql)
        query = call("sql.parse_bind", parse_query, sql, self.session.catalog)
        database = call("data.database_for", self.dataset.database_for, query)
        physical = call("exec.lower", lower, result.plan.node)
        # Looked up on the module so the operator spans' wrapper applies.
        batch = columnar.execute_physical(physical, database)
        relation = call("exec.to_relation", batch.to_relation)

        def rows_json() -> str:
            columns = list(relation.attributes)
            rows = [[None if row[c] is NULL else row[c] for c in columns] for row in relation]
            return json.dumps({"columns": columns, "rows": rows})

        call("api.rows_json", rows_json)

    def _stats_update(self, body: dict) -> None:
        from checks import drifted

        catalog = self.session.catalog
        new = drifted(catalog.lookup(body["table"]), body["cardinality_factor"])
        self.tracer.call("sql.update_stats", catalog.update_stats, body["table"], new)

    def request(self, index: Optional[int], path: str, body: dict) -> None:
        """Replay one request; *index* None replays it untraced (warm-up)."""
        from repro.api.session import plan_to_dict

        tracer = self.tracer
        tracer.enabled = index is not None
        tracer.request = index
        if path == "/optimize":
            result = self._optimize(body["sql"])
            tracer.call("api.plan_json", lambda: json.dumps(plan_to_dict(result.plan.node)))
        elif path == "/execute":
            self._execute(body["sql"])
        elif path == "/stats_update":
            self._stats_update(body)
            # The server re-costs off the request path; here it runs after
            # the update as a root span of its own.
            tracer.request = None
            with tracer.span("service.revalidate"):
                self.revalidator.drain()
        else:
            raise ValueError(f"cannot replay {path}")
        tracer.request = None
        tracer.enabled = True

    def run(self, warmup: Sequence[Tuple[str, dict]], timed: Sequence[Tuple[str, dict]]) -> None:
        with exec_spans(self.tracer), recost_spans(self.tracer):
            for path, body in warmup:
                self.request(None, path, body)
            for index, (path, body) in enumerate(timed):
                self.request(index, path, body)
