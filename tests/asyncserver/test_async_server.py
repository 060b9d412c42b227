"""End-to-end tests for the async serving tier.

Boots real servers (event-loop front + worker subprocesses) on
ephemeral ports and drives them with the ordinary
:class:`~repro.server.client.ServerClient` — the async tier must be
protocol-compatible with the sync one.  Covers the full paper-serving
loop: optimize/explain/batch/stats/healthz, shard routing, crash
restart, and the drain → snapshot → restart → warm-hit cycle.
"""

import json
import os
import signal
import time

import pytest

from repro.asyncserver import AsyncPlanServer, AsyncServerConfig
from repro.server.client import ServerClient, ServerError

SQL = (
    "SELECT nation.n_name, count(*) AS cnt FROM nation, supplier "
    "WHERE nation.n_nationkey = supplier.s_nationkey GROUP BY nation.n_name"
)
SQL_RENAMED = (
    "SELECT n2.n_name, count(*) AS cnt FROM nation n2 "
    "JOIN supplier sup ON n2.n_nationkey = sup.s_nationkey GROUP BY n2.n_name"
)
SQL_SMALL = "SELECT count(*) FROM region GROUP BY r_name"
BAD_TABLE = "SELECT count(*) FROM nowhere GROUP BY x"


@pytest.fixture(scope="module")
def server():
    config = AsyncServerConfig(port=0, shards=2, cache_capacity=64)
    with AsyncPlanServer(config) as running:
        yield running


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as c:
        yield c


class TestHealthz:
    def test_ok_while_serving(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["mode"] == "async"
        assert body["shards"] == 2
        assert body["_status"] == 200


class TestOptimize:
    def test_round_trip_with_plan_tree(self, client):
        body = client.optimize(SQL)
        assert body["strategy"] == "ea-prune"
        assert body["cost"] > 0
        assert body["plan"]["op"] in ("groupby", "project", "map")
        assert body["shard"] in (0, 1)

    def test_cache_hit_on_repeat(self, client):
        client.optimize(SQL)
        body = client.optimize(SQL)
        assert body["cache_hit"] is True
        assert body["elapsed_seconds"] == 0.0

    def test_renamed_isomorphic_query_hits_across_spellings(self, client):
        """Rename-stable fingerprints route both spellings to the same
        shard, where the owning cache rebinds the plan to the new names."""
        client.optimize(SQL)
        body = client.optimize(SQL_RENAMED, include_plan=True)
        assert body["cache_hit"] is True
        assert "n2" in json.dumps(body["plan"])

    def test_same_sql_always_same_shard(self, client):
        shards = {client.optimize(SQL, include_plan=False)["shard"] for _ in range(6)}
        assert len(shards) == 1

    def test_parse_error_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.optimize(BAD_TABLE)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "parse_error"

    def test_bad_config_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.optimize(SQL, strategy="no-such-strategy")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_config"

    def test_missing_sql_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.optimize("")
        assert excinfo.value.status == 400

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/nope", {"sql": SQL})
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/optimize")
        assert excinfo.value.status == 405


class TestExplain:
    def test_explain_returns_rendered_plan(self, client):
        body = client.explain(SQL)
        assert "⋈" in body["explain"]
        assert body["cost"] > 0


class TestBatch:
    def test_mixed_batch_merges_shard_slices_in_order(self, client):
        body = client.batch([SQL, SQL_SMALL, BAD_TABLE, SQL_RENAMED])
        assert body["total"] == 4
        assert body["succeeded"] == 3
        assert body["failed"] == 1
        assert [item["index"] for item in body["items"]] == [0, 1, 2, 3]
        failed = body["items"][2]
        assert failed["stage"] == "parse"
        assert body["cache_hits"] >= 1  # SQL was cached by earlier tests

    def test_batch_requires_list(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/batch", {"queries": "not-a-list"})
        assert excinfo.value.status == 400


class TestStats:
    def test_aggregated_fields(self, client):
        client.optimize(SQL)
        stats = client.stats()
        assert stats["mode"] == "async"
        assert stats["shards"] == 2
        assert set(stats["persistence"]) == {"loaded", "saved", "rejected"}
        assert stats["plans"]["served"] >= 1
        assert len(stats["shard_detail"]) == 2
        for detail in stats["shard_detail"]:
            assert detail["shard"] in (0, 1)
            assert detail["pid"] > 0
            assert set(detail["persistence"]) == {"loaded", "saved", "rejected"}
        assert stats["route_cache"]["hits"] + stats["route_cache"]["misses"] > 0

    def test_request_metrics_present(self, client):
        client.optimize(SQL)
        stats = client.stats()
        assert stats["requests"]["/optimize"]["count"] >= 1
        assert stats["requests"]["/optimize"]["p50_ms"] is not None


class TestCrashRestart:
    def test_worker_crash_is_survived_and_restarted(self, server, client):
        stats = client.stats()
        victim_shard = client.optimize(SQL, include_plan=False)["shard"]
        victim_pid = next(
            d["pid"] for d in stats["shard_detail"] if d["shard"] == victim_shard
        )
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        body = None
        while time.monotonic() < deadline:
            try:
                body = client.optimize(SQL, include_plan=False)
                break
            except ServerError as error:
                # The crash instant answers 500 worker_pool_failure and
                # the restart-backoff window answers 503
                # shard_unavailable; the supervisor restarts the shard
                # out-of-band either way.
                assert error.code in ("worker_pool_failure", "shard_unavailable")
                time.sleep(0.2)
        assert body is not None, "shard never came back after crash"
        assert body["shard"] == victim_shard
        stats = client.stats()
        assert stats["restarts"] >= 1
        restarted = next(
            d for d in stats["shard_detail"] if d["shard"] == victim_shard
        )
        assert restarted["pid"] != victim_pid


class TestPersistenceLifecycle:
    """The drain → snapshot → restart → warm-hit cycle, plus refusals."""

    def test_drain_snapshot_restart_serves_warm_hit(self, tmp_path):
        cache_dir = str(tmp_path / "shards")
        os.makedirs(cache_dir)
        config = AsyncServerConfig(port=0, shards=2, cache_dir=cache_dir)

        with AsyncPlanServer(config) as first:
            with ServerClient(port=first.port) as c:
                cold = c.optimize(SQL)
                assert cold["cache_hit"] is False
                explain_before = c.explain(SQL)["explain"]
            assert first.drain() is True
        files = sorted(os.listdir(cache_dir))
        assert files == ["shard-000-of-002.plancache", "shard-001-of-002.plancache"]

        with AsyncPlanServer(config) as second:
            with ServerClient(port=second.port) as c:
                stats = c.stats()
                assert stats["persistence"]["loaded"] >= 1
                assert stats["persistence"]["rejected"] == 0
                warm = c.optimize(SQL)
                # first request after restart: served from the snapshot,
                # not re-optimized
                assert warm["cache_hit"] is True
                assert c.explain(SQL)["explain"] == explain_before
            second.drain()

    def test_tampered_snapshot_is_rejected_on_boot(self, tmp_path):
        cache_dir = str(tmp_path / "shards")
        os.makedirs(cache_dir)
        config = AsyncServerConfig(port=0, shards=1, cache_dir=cache_dir)

        with AsyncPlanServer(config) as first:
            with ServerClient(port=first.port) as c:
                c.optimize(SQL)
            first.drain()
        path = os.path.join(cache_dir, "shard-000-of-001.plancache")
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(raw))

        with AsyncPlanServer(config) as second:
            with ServerClient(port=second.port) as c:
                stats = c.stats()
                assert stats["persistence"]["loaded"] == 0
                assert stats["persistence"]["rejected"] == 1
                body = c.optimize(SQL)  # cold start still serves
                assert body["cache_hit"] is False

    def test_resharded_snapshot_files_are_not_reused(self, tmp_path):
        """shard-i-of-N files must not warm-start an M-shard server: the
        fingerprint → shard mapping changed, so entries could land on a
        non-owning shard."""
        cache_dir = str(tmp_path / "shards")
        os.makedirs(cache_dir)

        with AsyncPlanServer(
            AsyncServerConfig(port=0, shards=1, cache_dir=cache_dir)
        ) as first:
            with ServerClient(port=first.port) as c:
                c.optimize(SQL)
            first.drain()

        with AsyncPlanServer(
            AsyncServerConfig(port=0, shards=2, cache_dir=cache_dir)
        ) as second:
            with ServerClient(port=second.port) as c:
                stats = c.stats()
                assert stats["persistence"]["loaded"] == 0
                body = c.optimize(SQL)
                assert body["cache_hit"] is False
            second.drain()
