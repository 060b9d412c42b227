"""Cross-tier parity: the sync service and a shard worker answer alike.

The same request bodies go to an in-thread sync
:class:`~repro.server.PlanService` (``workers=0``) and to an in-process
async :class:`~repro.asyncserver.worker.ShardWorker`, driven through its
real frame loop.  Both must answer with the same status, error code and
response keys (the worker's ``shard`` tag aside; timing values are not
compared), including for null overrides, an empty batch, and whether a
batch's parse errors count as ``plans.failures``.
"""

import json
import tempfile

import pytest

from repro.asyncserver import frames
from repro.asyncserver.config import AsyncServerConfig
from repro.asyncserver.supervisor import WorkerSupervisor
from repro.asyncserver.worker import ShardWorker, serve
from repro.server import PlanService, RequestError, ServerConfig

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)
SQL_RENAMED = (
    "SELECT n2.n_name, count(*) AS cnt FROM nation n2 "
    "JOIN supplier sup ON n2.n_nationkey = sup.s_nationkey GROUP BY n2.n_name"
)
SQL_OTHER = "SELECT count(*) AS cnt FROM region GROUP BY r_name"
UNPARSABLE = "SELECT count(*) FROM nowhere GROUP BY x"

#: endpoint → (sync service method, worker frame kind)
ENDPOINTS = {
    "optimize": ("optimize_body", frames.OPTIMIZE),
    "explain": ("explain_body", frames.EXPLAIN),
    "batch": ("batch_body", frames.BATCH),
    "execute": ("execute_body", frames.EXECUTE),
    "stats_update": ("stats_update_body", frames.STATS_UPDATE),
}


def make_tiers(**fields):
    service = PlanService(ServerConfig(port=0, workers=0, **fields))
    supervisor = WorkerSupervisor(AsyncServerConfig(port=0, shards=1, **fields))
    return service, ShardWorker(supervisor.worker_config(0))


def call_sync(service, endpoint, body):
    try:
        return 200, getattr(service, ENDPOINTS[endpoint][0])(dict(body))
    except RequestError as error:
        return error.status, error.to_body()


def call_worker(worker, kind, body):
    """One request frame through the worker's own frame loop."""
    with tempfile.TemporaryFile() as requests, tempfile.TemporaryFile() as responses:
        requests.write(frames.pack(1, kind, json.dumps(body).encode("utf-8")))
        requests.write(frames.pack(2, frames.EXIT, b"{}"))
        requests.seek(0)
        serve(worker, requests.fileno(), responses.fileno())
        responses.seek(0)
        replies = list(frames.feed(bytearray(responses.read())))
    (_request_id, status, payload), _exit = replies
    return status, json.loads(payload)


def shape(reply):
    """What must agree: status, error code, response and item keys."""
    status, body = reply
    keys = sorted(set(body) - {"shard"})
    items = [sorted(item) for item in body.get("items", ())]
    return status, body.get("error", {}).get("code"), keys, items


def failures(service, worker):
    return (
        service.stats_body()["plans"]["failures"],
        call_worker(worker, frames.STATS, {})[1]["plans"]["failures"],
    )


@pytest.fixture(scope="module")
def tiers():
    service, worker = make_tiers(cache_capacity=64)
    yield service, worker
    service.close()


@pytest.fixture(scope="module")
def tiers_with_data():
    service, worker = make_tiers(cache_capacity=64, dataset="tpch-sf0.001")
    yield service, worker
    service.close()


def assert_parity(tiers, endpoint, body):
    service, worker = tiers
    sync = call_sync(service, endpoint, body)
    shard = call_worker(worker, ENDPOINTS[endpoint][1], body)
    assert shape(shard) == shape(sync), (sync, shard)
    return sync


PARITY_CASES = [
    pytest.param("optimize", {"sql": SQL}, id="optimize"),
    pytest.param(
        "optimize", {"sql": SQL, "include_plan": False, "strategy": "dphyp"},
        id="optimize-override",
    ),
    pytest.param("explain", {"sql": SQL_RENAMED}, id="explain"),
    pytest.param("batch", {"queries": [SQL, SQL_RENAMED, SQL_OTHER]}, id="batch"),
    pytest.param(
        "batch", {"queries": [SQL, SQL], "include_plans": True}, id="batch-duplicates"
    ),
    # a null override counts as absent
    pytest.param("optimize", {"sql": SQL, "strategy": None}, id="null-strategy"),
    pytest.param("optimize", {"sql": SQL, "factor": None}, id="null-factor"),
    pytest.param("optimize", {"sql": SQL, "cost_model": None}, id="null-cost-model"),
    pytest.param(
        "batch", {"queries": [SQL], "strategy": None, "factor": None}, id="batch-null"
    ),
    # invalid requests
    pytest.param("optimize", {"sql": SQL, "strategy": "nonsense"}, id="bad-strategy"),
    pytest.param("optimize", {"sql": SQL, "factor": 0.5}, id="bad-factor"),
    pytest.param("optimize", {"sql": ""}, id="empty-sql"),
    pytest.param("optimize", {"sql": UNPARSABLE}, id="unparsable"),
    pytest.param("batch", {"queries": []}, id="empty-batch"),
    pytest.param("batch", {"queries": "SELECT 1"}, id="batch-not-a-list"),
    pytest.param("execute", {"sql": SQL}, id="execute-no-dataset"),
    pytest.param(
        "stats_update",
        {"table": "supplier", "cardinality_factor": 2.0, "cardinality": 5.0},
        id="drift-both-fields",
    ),
    pytest.param("stats_update", {"table": "supplier"}, id="drift-no-field"),
    pytest.param(
        "stats_update", {"table": "supplier", "cardinality_factor": 0}, id="drift-zero"
    ),
    pytest.param(
        "stats_update", {"table": "supplier", "cardinality_factor": -3.0},
        id="drift-negative",
    ),
    pytest.param(
        "stats_update", {"table": "supplier", "cardinality": "many"}, id="drift-not-a-number"
    ),
    pytest.param(
        "stats_update", {"table": "nowhere", "cardinality_factor": 2.0},
        id="drift-unknown-table",
    ),
    pytest.param(
        "stats_update", {"table": None, "cardinality_factor": 2.0}, id="drift-no-table"
    ),
]


@pytest.mark.parametrize("endpoint, body", PARITY_CASES)
def test_same_answer_on_both_tiers(tiers, endpoint, body):
    assert_parity(tiers, endpoint, body)


def test_null_override_plans_under_the_default(tiers):
    status, body = assert_parity(tiers, "optimize", {"sql": SQL, "factor": None})
    assert status == 200
    assert body["strategy"] == "ea-prune"


def test_empty_batch_is_a_bad_request(tiers):
    status, body = assert_parity(tiers, "batch", {"queries": []})
    assert status == 400
    assert body["error"]["code"] == "bad_request"


def test_batch_parse_errors_are_not_failures(tiers):
    service, worker = tiers
    before = failures(service, worker)
    status, body = assert_parity(tiers, "batch", {"queries": [SQL, UNPARSABLE]})
    assert status == 200
    assert body["failed"] == 1
    assert body["items"][1]["stage"] == "parse"
    assert failures(service, worker) == before


def test_both_tiers_report_timeouts(tiers):
    service, worker = tiers
    assert "timeouts" in service.stats_body()["plans"]
    assert "timeouts" in call_worker(worker, frames.STATS, {})[1]["plans"]


EXECUTE_CASES = [
    pytest.param({"sql": SQL, "limit": 3}, id="limit"),
    pytest.param({"sql": SQL, "limit": None, "executor": "interpreter"}, id="unlimited"),
    pytest.param({"sql": SQL, "executor": "gpu"}, id="unknown-executor"),
    pytest.param({"sql": SQL, "limit": -1}, id="negative-limit"),
    pytest.param({"sql": SQL, "limit": True}, id="bool-limit"),
    pytest.param({"sql": SQL, "limit": "5"}, id="string-limit"),
]


@pytest.mark.parametrize("body", EXECUTE_CASES)
def test_execute_parity(tiers_with_data, body):
    assert_parity(tiers_with_data, "execute", body)
