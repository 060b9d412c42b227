"""Hot-path perf harness: indexed vs reference engines.

Times :func:`repro.optimizer.optimize` on the four classic join topologies
(:mod:`repro.workload.topologies`) per strategy and engine, and writes the
results to a JSON file — the repository's perf-trajectory artifact that
future perf PRs diff against.

Engines (see docs/architecture.md):

* ``indexed`` — the hot path: iterative enumerator, per-vertex hypergraph
  indexes + memos, precomputed per-edge join specs, Pareto-bucket
  EA-Prune.
* ``reference`` — the seed code path (recursive enumerator, linear edge
  scans, uncached builder, unordered pairwise-scan buckets).  Both
  engines share a few module-level pure-function memos, so recorded
  speedups *understate* the gap to the true pre-refactor seed.

The harness asserts, per case, that both engines produce the same plan
cost / ccp count / plans built, and (in full mode) that the committed
reference→indexed EA-Prune speedup targets hold.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py                  # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick          # CI smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick \\
        --baseline benchmarks/BENCH_hotpath.json                       # regression gate

The baseline gate compares matching (topology, n, strategy, engine)
cases and fails (exit 1) when any case slower than ``--max-regression``
(default 2.0×) is found; cases under 50 ms in the baseline are ignored
as noise.  The JSON is rewritten after every case, so partial results
survive interruption.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.optimizer import optimize
from repro.optimizer.planinfo import clear_memo_caches
from repro.optimizer.strategies import reset_prune_caches
from repro.workload import topology_query

SCHEMA = "bench-hotpath/v3"

#: Engine lists per case.  ``IR`` rows are the headline comparisons;
#: ``INDEXED`` rows are sizes where the reference engine would take tens
#: of minutes (clique-8 EA-Prune) or adds nothing (scale rows).
IR = ("indexed", "reference")
INDEXED = ("indexed",)

#: (topology, strategy, sizes, engines).  Ordered so the headline
#: EA-Prune measurements land first, the cheap breadth next, and the
#: slowest rows (clique-8, the scale rows) last — the JSON is written
#: incrementally, so an interrupted run still leaves a usable artifact.
FULL_CASES = [
    ("chain", "ea-prune", [8, 10], IR),
    ("cycle", "ea-prune", [8, 10], IR),
    ("star", "ea-prune", [8, 10], IR),
    ("clique", "ea-prune", [6, 7], IR),
    ("chain", "dphyp", [8, 10, 12, 14], IR),
    ("cycle", "dphyp", [8, 10, 12, 14], IR),
    ("star", "dphyp", [8, 10, 12, 14], IR),
    ("clique", "dphyp", [8, 10], IR),
    ("chain", "h1", [8, 10, 12, 14], IR),
    ("star", "h1", [8, 10, 12, 14], IR),
    ("chain", "h2", [8, 10, 12], IR),
    ("star", "h2", [8, 10, 12], IR),
    ("chain", "ea-all", [6], IR),
    ("star", "ea-all", [6], IR),
    ("clique", "dphyp", [12], INDEXED),
    ("star", "h1", [16, 18], INDEXED),
    ("clique", "ea-prune", [8], INDEXED),
]

QUICK_CASES = [
    ("chain", "ea-prune", [8], IR),
    ("star", "ea-prune", [8], IR),
    ("cycle", "ea-prune", [8], IR),
    ("clique", "ea-prune", [6], IR),
    ("chain", "dphyp", [8], INDEXED),
    ("cycle", "dphyp", [8], INDEXED),
    ("star", "dphyp", [8], INDEXED),
    ("clique", "dphyp", [8], INDEXED),
]

#: (topology, n, strategy) → minimum required reference/indexed speedup,
#: asserted on full runs (the committed perf target of the hot-path
#: refactor).  n=10 is the largest size where the reference engine
#: finishes in minutes; the measured ratio there is ~3.0× and keeps
#: growing with n (chain-12 measured 7.1×), so 2.5 leaves noise margin
#: without understating the trend.
FULL_SPEEDUP_TARGETS = {
    ("chain", 10, "ea-prune"): 2.5,
    ("star", 10, "ea-prune"): 2.5,
}

#: Per-measurement repetitions: re-run short cases and keep the minimum.
FAST_CASE_SECONDS = 5.0
FAST_CASE_REPEAT = 3


def _reset_global_caches() -> None:
    """Start every measurement cold: drop all cross-run memo state."""
    reset_prune_caches()
    clear_memo_caches()


def _measure(topology: str, n: int, strategy: str, engine: str) -> dict:
    """Time one (topology, n, strategy, engine) case; min over repeats."""
    best = None
    result = None
    repeats = 1
    for attempt in range(FAST_CASE_REPEAT):
        query = topology_query(topology, n)
        _reset_global_caches()
        started = time.perf_counter()
        result = optimize(query, strategy, engine=engine)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        if elapsed >= FAST_CASE_SECONDS:
            break
        repeats = attempt + 1
    return {
        "topology": topology,
        "n": n,
        "strategy": strategy,
        "engine": engine,
        "seconds": best,
        "repeats": repeats,
        "cost": result.cost,
        "ccp_count": result.ccp_count,
        "plans_built": result.plans_built,
        "max_bucket": max(result.table_sizes.values()),
    }


def _write(out_path: Path, payload: dict) -> None:
    """Atomic rewrite so a killed run never leaves a truncated artifact."""
    tmp = out_path.with_suffix(out_path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, out_path)


def _compute_speedups(cases: list) -> list:
    """Pair up cases measured under both engines; speedup = reference/indexed."""
    by_key = {}
    for case in cases:
        by_key[(case["topology"], case["n"], case["strategy"], case["engine"])] = case
    speedups = []
    for (topology, n, strategy, engine), case in sorted(
        by_key.items(), key=lambda item: (item[0][0], item[0][1], item[0][2])
    ):
        if engine != "indexed":
            continue
        slow = by_key.get((topology, n, strategy, "reference"))
        if slow is None:
            continue
        speedups.append(
            {
                "topology": topology,
                "n": n,
                "strategy": strategy,
                "indexed_seconds": case["seconds"],
                "reference_seconds": slow["seconds"],
                "speedup": slow["seconds"] / case["seconds"],
            }
        )
    return speedups


def run(cases, out_path: Path, mode: str) -> dict:
    payload = {
        "schema": SCHEMA,
        "mode": mode,
        "python": platform.python_version(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "generated_unix": int(time.time()),
        "cases": [],
        "speedups": [],
    }
    mismatches = []
    for topology, strategy, sizes, engines in cases:
        for n in sizes:
            measured = {}
            for engine in engines:
                case = _measure(topology, n, strategy, engine)
                measured[engine] = case
                payload["cases"].append(case)
                payload["speedups"] = _compute_speedups(payload["cases"])
                _write(out_path, payload)
                print(
                    f"{engine:10s} {topology:6s} n={n:2d} {strategy:8s}: "
                    f"{case['seconds']:9.3f}s  plans={case['plans_built']}",
                    flush=True,
                )
            indexed = measured.get("indexed")
            for engine, case in measured.items():
                if engine == "indexed" or indexed is None:
                    continue
                same = (
                    indexed["cost"] == case["cost"]
                    and indexed["ccp_count"] == case["ccp_count"]
                    and indexed["plans_built"] == case["plans_built"]
                )
                if not same:
                    mismatches.append((topology, n, strategy, engine))
    if mismatches:
        print(f"ENGINE MISMATCH (cost/ccp/plans differ): {mismatches}", file=sys.stderr)
        raise SystemExit(2)
    return payload


def check_speedup_targets(speedups: list, targets: dict, label: str) -> bool:
    ok = True
    by_key = {(s["topology"], s["n"], s["strategy"]): s["speedup"] for s in speedups}
    for key, minimum in targets.items():
        speedup = by_key.get(key)
        if speedup is None:
            print(f"{label} target {key}: NOT MEASURED", file=sys.stderr)
            ok = False
        elif speedup < minimum:
            print(
                f"{label} target {key}: {speedup:.2f}x < required {minimum:.1f}x",
                file=sys.stderr,
            )
            ok = False
        else:
            print(f"{label} target {key}: {speedup:.2f}x (>= {minimum:.1f}x) OK")
    return ok


def check_baseline(payload: dict, baseline_path: Path, max_regression: float) -> bool:
    """Compare indexed timings against a committed baseline artifact."""
    if not baseline_path.exists():
        print(
            f"baseline {baseline_path} not found — regenerate it with a full "
            f"run: PYTHONPATH=src python benchmarks/bench_hotpath.py "
            f"--out {baseline_path}",
            file=sys.stderr,
        )
        return False
    baseline = json.loads(baseline_path.read_text())
    baseline_by_key = {
        (c["topology"], c["n"], c["strategy"], c["engine"]): c
        for c in baseline.get("cases", [])
    }
    ok = True
    compared = 0
    for case in payload["cases"]:
        if case["engine"] != "indexed":
            continue
        key = (case["topology"], case["n"], case["strategy"], case["engine"])
        base = baseline_by_key.get(key)
        if base is None or base["seconds"] < 0.05:
            continue  # absent or too small to compare reliably
        compared += 1
        ratio = case["seconds"] / base["seconds"]
        marker = "REGRESSION" if ratio > max_regression else "ok"
        print(
            f"baseline {key}: {base['seconds']:.3f}s -> {case['seconds']:.3f}s "
            f"({ratio:.2f}x) {marker}"
        )
        if ratio > max_regression:
            ok = False
    if compared == 0:
        print("baseline: no comparable cases (all below the 50 ms noise floor)")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke case list")
    parser.add_argument("--out", default="BENCH_hotpath.json", help="output JSON path")
    parser.add_argument(
        "--baseline", default=None,
        help="committed artifact to diff against (fails on regression)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="maximum tolerated slowdown vs the baseline (default 2.0x)",
    )
    parser.add_argument(
        "--no-speedup-check", action="store_true",
        help="skip the full-run EA-Prune speedup assertions",
    )
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    cases = QUICK_CASES if args.quick else FULL_CASES
    out_path = Path(args.out)
    payload = run(cases, out_path, mode)

    failed = False
    if mode == "full" and not args.no_speedup_check:
        if not check_speedup_targets(
            payload["speedups"], FULL_SPEEDUP_TARGETS, "speedup"
        ):
            failed = True
    if args.baseline:
        if not check_baseline(payload, Path(args.baseline), args.max_regression):
            failed = True

    for speedup in payload["speedups"]:
        print(
            f"speedup {speedup['topology']:6s} n={speedup['n']:2d} "
            f"{speedup['strategy']:8s}: {speedup['speedup']:6.2f}x "
            f"({speedup['reference_seconds']:.3f}s -> {speedup['indexed_seconds']:.3f}s)"
        )
    print(f"wrote {out_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
