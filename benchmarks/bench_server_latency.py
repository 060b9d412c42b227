"""Plan-server latency under concurrent closed-loop clients.

Starts a :class:`repro.server.PlanServer` in-process (ephemeral port),
warms the plan cache with one pass over a TPC-H query mix, then drives it
with ``CLIENTS`` closed-loop threads — each owning one keep-alive
:class:`~repro.server.ServerClient` and issuing ``REQUESTS`` back-to-back
``POST /optimize`` calls over the mix, the way dashboards replay the same
parameterised shapes.  Reports per-request p50/p95/p99 latency and
aggregate throughput, and additionally verifies the serving path's fault
isolation: a batch containing one poisoned statement must return plans
for every other statement.

Acceptance targets (asserted):

* >= 4 concurrent clients sustained, every request a 200,
* warm-cache p50 latency under 10 ms,
* the poisoned batch fails only its poisoned item.

Results are written to ``benchmarks/BENCH_server.json`` (schema
``bench-server/v1``), the serving-layer latency baseline future PRs diff
against.

Usage::

    PYTHONPATH=src python benchmarks/bench_server_latency.py            # full run
    PYTHONPATH=src python benchmarks/bench_server_latency.py --smoke    # CI smoke

Environment knobs: ``REPRO_SERVER_CLIENTS`` (default 6),
``REPRO_SERVER_REQUESTS`` per client (default 120).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.server import PlanServer, ServerClient, ServerConfig
from repro.service.core import percentile

SCHEMA = "bench-server/v1"
OUT_PATH = Path(__file__).resolve().parent / "BENCH_server.json"

CLIENTS = int(os.environ.get("REPRO_SERVER_CLIENTS", "6"))
REQUESTS = int(os.environ.get("REPRO_SERVER_REQUESTS", "120"))
P50_TARGET_MS = 10.0
MIN_CLIENTS = 4

#: The TPC-H repeat mix: the same shapes dashboards re-issue.  Spellings
#: differ (aliases) so rebind-on-hit is exercised, not just exact repeats.
QUERY_MIX = [
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name",
    "SELECT n2.n_name, count(*) AS cnt FROM nation n2 "
    "JOIN supplier sup ON n2.n_nationkey = sup.s_nationkey GROUP BY n2.n_name",
    "SELECT c.c_custkey, c.c_name, "
    "sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
    "FROM customer c "
    "JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "JOIN nation n ON c.c_nationkey = n.n_nationkey "
    "WHERE o.o_orderdate >= 639 AND o.o_orderdate < 731 "
    "GROUP BY c.c_custkey, c.c_name",
    "SELECT s.s_name, count(*) AS cnt FROM supplier s "
    "JOIN nation n ON s.s_nationkey = n.n_nationkey "
    "JOIN customer c ON n.n_nationkey = c.c_nationkey GROUP BY s.s_name",
]

POISON_SQL = "SELECT count(*) FROM nowhere GROUP BY x"


class ClosedLoopClient(threading.Thread):
    """One closed-loop load generator: next request only after the last."""

    def __init__(self, port: int, requests: int, barrier: threading.Barrier):
        super().__init__(daemon=True)
        self.port = port
        self.requests = requests
        self.barrier = barrier
        self.latencies_ms: list = []
        self.errors: list = []

    def run(self) -> None:
        with ServerClient(port=self.port, timeout=120.0, retries=3) as client:
            self.barrier.wait()
            for i in range(self.requests):
                sql = QUERY_MIX[i % len(QUERY_MIX)]
                started = time.perf_counter()
                try:
                    client.optimize(sql, include_plan=False)
                except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                    self.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                self.latencies_ms.append((time.perf_counter() - started) * 1000.0)


def run_poisoned_batch(port: int) -> dict:
    """One /batch with a poisoned statement: everything else must plan."""
    statements = [*QUERY_MIX, POISON_SQL, *QUERY_MIX[:2]]
    poison_index = len(QUERY_MIX)
    with ServerClient(port=port, timeout=120.0, retries=3) as client:
        report = client.batch(statements)
    failed = [item["index"] for item in report["items"] if "error" in item]
    return {
        "total": report["total"],
        "succeeded": report["succeeded"],
        "failed_indexes": failed,
        "expected_failed_indexes": [poison_index],
        "isolated": failed == [poison_index]
        and report["succeeded"] == len(statements) - 1,
    }


def measure(clients: int, requests: int, workers: int) -> dict:
    config = ServerConfig(
        port=0,
        workers=workers,
        cache_capacity=512,
        max_inflight=clients * 2 + 8,
    )
    with PlanServer(config) as server:
        # Warm pass: every shape in the mix lands in the plan cache.
        with ServerClient(port=server.port, timeout=300.0, retries=3) as warm:
            for sql in QUERY_MIX:
                warm.optimize(sql, include_plan=False)

        barrier = threading.Barrier(clients)
        threads = [ClosedLoopClient(server.port, requests, barrier) for _ in range(clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started

        poisoned = run_poisoned_batch(server.port)

        with ServerClient(port=server.port) as probe:
            stats = probe.stats()

    latencies = sorted(
        sample for thread in threads for sample in thread.latencies_ms
    )
    errors = [error for thread in threads for error in thread.errors]
    completed = len(latencies)
    return {
        "clients": clients,
        "requests_per_client": requests,
        "workers": workers,
        "completed": completed,
        "errors": errors[:10],
        "error_count": len(errors),
        "wall_seconds": wall,
        "qps": completed / wall if wall > 0 else float("inf"),
        "p50_ms": percentile(latencies, 0.50),
        "p95_ms": percentile(latencies, 0.95),
        "p99_ms": percentile(latencies, 0.99),
        "max_ms": latencies[-1] if latencies else None,
        "cache_hit_rate": stats["plans"]["hit_rate"],
        "poisoned_batch": poisoned,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (4 clients x 25 requests)",
    )
    parser.add_argument(
        "--out", default=str(OUT_PATH),
        help=f"output JSON path (default: {OUT_PATH})",
    )
    args = parser.parse_args(argv)

    clients = 4 if args.smoke else max(MIN_CLIENTS, CLIENTS)
    requests = 25 if args.smoke else REQUESTS
    workers = 2

    print(
        f"bench_server_latency: {clients} closed-loop clients x {requests} "
        f"requests over {len(QUERY_MIX)} TPC-H shapes (workers={workers})"
    )
    run = measure(clients, requests, workers)
    print(
        f"  completed={run['completed']}  qps={run['qps']:,.0f}  "
        f"p50={run['p50_ms']:.2f}ms  p95={run['p95_ms']:.2f}ms  "
        f"p99={run['p99_ms']:.2f}ms  hit_rate={run['cache_hit_rate']:.0%}"
    )
    print(
        f"  poisoned batch: {run['poisoned_batch']['succeeded']}/"
        f"{run['poisoned_batch']['total']} planned, failed indexes "
        f"{run['poisoned_batch']['failed_indexes']} "
        f"(isolated={run['poisoned_batch']['isolated']})"
    )

    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "p50_target_ms": P50_TARGET_MS,
        "run": run,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {args.out}")

    failures = []
    if run["error_count"]:
        failures.append(f"{run['error_count']} request errors: {run['errors'][:3]}")
    if run["clients"] < MIN_CLIENTS:
        failures.append(f"only {run['clients']} clients (need >= {MIN_CLIENTS})")
    if run["p50_ms"] is None or run["p50_ms"] >= P50_TARGET_MS:
        failures.append(f"warm-cache p50 {run['p50_ms']}ms (target < {P50_TARGET_MS}ms)")
    if not run["poisoned_batch"]["isolated"]:
        failures.append(f"poisoned batch not isolated: {run['poisoned_batch']}")
    if failures:
        for failure in failures:
            print(f"  FAIL: {failure}")
        return 1
    print("  ok: all acceptance targets met")
    return 0


def test_server_latency_smoke():
    """Pytest entry point: a small run must meet every acceptance target."""
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        assert main(["--smoke", "--out", tmp.name]) == 0


if __name__ == "__main__":
    sys.exit(main())
