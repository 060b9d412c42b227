"""Sync-tier reporting parity and drain exchange accounting.

The async tier aggregates per-shard stats; the sync tier must expose the
same reporting surface (``mode`` / ``shards`` / ``persistence``) so a
scraper needs no branching.  And a graceful drain must
cover the *whole* exchange — the admission slot is released when the
handler has its payload, but the response bytes and metrics record land
after that, so waiting on admissions alone can close the socket under
the final response or lose its metrics record.
"""

import threading
import time

import pytest

from repro.server import PlanServer, ServerConfig
from repro.server.client import ServerClient
from repro.server.service import PlanService

SQL = (
    "SELECT nation.n_name, count(*) AS cnt FROM nation, supplier "
    "WHERE nation.n_nationkey = supplier.s_nationkey GROUP BY nation.n_name"
)


class TestStatsParityFields:
    @pytest.fixture(scope="class")
    def server(self):
        with PlanServer(ServerConfig(port=0, workers=0, cache_capacity=16)) as running:
            yield running

    def test_stats_reports_async_parity_surface(self, server):
        with ServerClient(port=server.port) as client:
            client.optimize(SQL)
            stats = client.stats()
        assert stats["mode"] == "sync"
        assert stats["shards"] == 1
        assert stats["persistence"] == {"loaded": 0, "saved": 0, "rejected": 0}


class TestDrainExchangeAccounting:
    def make_service(self) -> PlanService:
        return PlanService(ServerConfig(port=0, workers=0, cache_capacity=4))

    def test_wait_idle_waits_for_exchanges_not_just_admissions(self):
        service = self.make_service()
        entered = threading.Event()
        release = threading.Event()

        def exchange():
            with service.track_exchange():
                # Simulates the post-admit tail of _handle: the admission
                # slot is long gone, the response is still being written.
                entered.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=exchange, daemon=True)
        thread.start()
        assert entered.wait(timeout=5.0)
        assert service.inflight == 0  # no admission slot held...
        assert service.wait_idle(grace=0.05) is False  # ...but not idle
        release.set()
        assert service.wait_idle(grace=5.0) is True
        thread.join(timeout=5.0)
        service.close()

    def test_drain_does_not_cut_off_inflight_response(self):
        """Responses that already left admit() still complete (and are
        metered) before drain() returns."""
        server = PlanServer(ServerConfig(port=0, workers=0, cache_capacity=16))
        server.start()
        results = {}

        def slow_client():
            with ServerClient(port=server.port) as client:
                results["body"] = client.optimize(SQL)

        thread = threading.Thread(target=slow_client, daemon=True)
        thread.start()
        # Let the request get admitted, then drain concurrently.
        time.sleep(0.02)
        clean = server.drain(grace=10.0)
        thread.join(timeout=10.0)
        assert clean is True
        assert results["body"]["cost"] > 0
        # The exchange's metrics record was not lost to the shutdown.
        snapshot = server.service.metrics.snapshot()
        assert snapshot["requests"]["POST /optimize"]["count"] == 1

    def test_exchange_counter_balanced_after_traffic(self):
        server = PlanServer(ServerConfig(port=0, workers=0, cache_capacity=16))
        with server:
            with ServerClient(port=server.port) as client:
                for _ in range(3):
                    client.optimize(SQL)
            assert server.service.wait_idle(grace=1.0) is True
