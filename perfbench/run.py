#!/usr/bin/env python3
"""The plan-server benchmark: four traffic mixes, end to end and by layer.

Starts ``python -m repro serve --port 0 --scale-factor 0.01`` (plus
``--dataset tpch-sf0.01`` for execution) the way an operator does,
drives it over HTTP with closed-loop clients, checks every answer
against an oracle, and prints one JSON object as the last line::

    python3 perfbench/run.py --workload warm-hit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10   # every workload,
                                                                    # untraced and traced

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics, names the layer
with the most self time and writes its spans to
``.perfbench_out/trace-<workload>-<seed>.json``.  Server logs go to the
same directory.  The exit code is 1 when any output check failed and 2
when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: processes the output checks may use once the server has stopped.
CHECK_WORKERS = 2

#: the layer the issue predicted to hold the most self time per workload.
PREDICTED_LARGEST = {
    "warm-hit": "server.transport",
    "cold-plan": "optimizer.enumerate",
    "execute-tpch": "exec.<op>",
}

#: replay layers reported as mean self time per request that ran them.
REPLAY_LAYERS = (
    "sql.parse_bind", "service.cache_key", "service.cache_serve", "service.cache_store",
    "api.plan_json", "optimizer.prepare", "optimizer.enumerate", "sql.update_stats",
    "exec.lower", "exec.to_relation", "api.rows_json", "data.database_for",
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="warm-hit, cold-plan, execute-tpch, drift-mixed or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; sets the fixed request count of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nearest_rank(sorted_values: List[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Run:
    """One invocation: set up, measure, check, and (traced) attribute."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        from workloads import WORKLOADS, build

        self.name, self.seed, self.trace = name, seed, trace
        self.workload = WORKLOADS[name]
        self.plan = build(name, seed, seconds)
        self.timed = [(path, json.dumps(body).encode()) for path, body in self.plan.timed]
        self.warmup = [(path, json.dumps(body).encode()) for path, body in self.plan.warmup]
        size = len(self.timed) // self.workload.slices
        #: list indices where the slices of the timed phase start.
        self.slice_starts = [i * size for i in range(self.workload.slices)]
        self.setup_s: List[float] = []
        self.setup_cpu_s: List[float] = []
        self.drains: List[bool] = []
        self.bodies: Dict[int, dict] = {}
        self.failures: Dict[int, str] = {}

    # -- measuring -----------------------------------------------------------
    def _warm_up(self, port: int) -> None:
        from harness import BenchError, Connection

        connection = Connection(port)
        try:
            for path, body in self.warmup:
                status, payload = connection.post(path, body)
                if status != 200:
                    raise BenchError(f"warm-up {path} answered {status}: {payload[:300]!r}")
        finally:
            connection.close()

    def measure(self) -> None:
        from harness import Server, closed_loop, get_json

        repeats = 1 if self.trace else SETUP_REPEATS
        for attempt in range(repeats):
            log = OUT / f"server-{self.name}-{self.seed}-{attempt}.log"
            server = Server(ROOT, log, self.workload.dataset)
            try:
                self._warm_up(server.port)
                self.setup_s.append(time.perf_counter() - server.spawned_at)
                self.setup_cpu_s.append(server.cpu_seconds())
                if attempt < repeats - 1:
                    continue
                self.stats_before = get_json(server.port, "/stats")
                self.phase = closed_loop(server.port, self.timed, self.workload.connections,
                                         sample=server.cpu_seconds, marks=self.slice_starts)
                self.outcomes = self.phase.outcomes
                self.stats_after = get_json(server.port, "/stats")
                self.peak_rss_mb = server.peak_rss_mb()
            finally:
                self.drains.append(server.stop())

    # -- checking ------------------------------------------------------------
    def check(self, expected_costs: Optional[Dict[str, float]] = None) -> None:
        """Mark every failed request; *expected_costs* may come from the replay."""
        import checks

        for outcome in self.outcomes:
            if outcome.error is not None:
                self.failures[outcome.index] = outcome.error
            elif outcome.status != 200:
                self.failures[outcome.index] = f"HTTP {outcome.status}"
            else:
                self.bodies[outcome.index] = json.loads(outcome.body)
        sent = {outcome.index for outcome in self.outcomes}
        for index in range(len(self.timed)):
            if index not in sent:
                self.failures[index] = "never sent"

        if self.name == "execute-tpch":
            answers = checks.sqlite_answers(self.plan.named)
            expected = {self.plan.named[q]: checks.canonical_rows(rows)
                        for q, rows in answers.items()}
            for index, body in self.bodies.items():
                sql = self.plan.timed[index][1]["sql"]
                if not checks.same_rows(body["rows"], expected[sql]):
                    self.failures[index] = "rows differ from sqlite3"
            return
        if self.name == "drift-mixed":
            updates = [body for path, body in self.plan.timed if path == "/stats_update"]
            oracle = checks.DriftOracle(self.plan.statements, updates, CHECK_WORKERS)
            base = checks.drifted_catalog(())
            states, state = iter(checks.drift_states(updates)), ()
            for index, (path, request) in enumerate(self.plan.timed):
                body = self.bodies.get(index)
                if path == "/stats_update":
                    state = next(states)
                    table = request["table"]
                    expected = base.lookup(table).cardinality * dict(state).get(table, 1.0)
                    if body is not None and body["new_cardinality"] != expected:
                        self.failures[index] = (f"{table} cardinality "
                                                f"{body['new_cardinality']!r} != {expected!r}")
                    continue
                if body is not None and not oracle.allows(state, request["sql"], body["cost"]):
                    self.failures[index] = (f"cost {body['cost']!r} is no plan's cost "
                                            "under the statistics in force")
            return
        if expected_costs is None:
            expected_costs = checks.expected_costs(self.plan.statements, CHECK_WORKERS)
        for index, body in self.bodies.items():
            problem = checks.check_optimize_body(
                body, self.plan.timed[index][1]["sql"], expected_costs)
            if problem is not None:
                self.failures[index] = problem

    # -- reporting -----------------------------------------------------------
    def slices(self) -> List[Tuple[int, int]]:
        """``(first, end)`` list indices of each slice of the timed phase."""
        bounds = self.slice_starts + [len(self.timed)]
        return list(zip(bounds, bounds[1:]))

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """The gated metrics: server CPU time and memory.

        Wall-clock time on a shared host swings with the neighbours'
        load (a fixed CPU loop here took 90-350 ms wall for 86-124 ms of
        CPU), so the gated times are CPU time of the server's process
        group: set-up (median of the set-ups) and CPU per request (median
        over the slices of the timed phase).  :meth:`wall_clock` has the
        throughput and latency a client saw.
        """
        marks = self.phase.marks
        per_request = [(marks[end] - marks[first]) / (end - first)
                       for first, end in self.slices()]
        return {
            "setup_s": (statistics.median(self.setup_cpu_s), "s"),
            "cpu_ms_per_request": (1000.0 * statistics.median(per_request), "ms"),
            "server_peak_rss_mb": (self.peak_rss_mb, "MiB"),
        }

    def wall_clock(self) -> Dict[str, Tuple[float, str]]:
        """What the client saw: throughput and tail are medians over slices."""
        by_index = {o.index: o for o in self.outcomes}
        rates, tails = [], []
        for first, end in self.slices():
            chunk = [by_index[i] for i in range(first, end) if i in by_index]
            ok = [o for o in chunk if o.index not in self.failures]
            reads = sorted(o.latency_ms for o in ok if o.path != "/stats_update")
            wall = max(o.finished for o in chunk) - min(o.started for o in chunk)
            rates.append(len(ok) / wall)
            if reads:
                tails.append(nearest_rank(reads, self.workload.tail_percentile))
        reads = [o.latency_ms for o in self.outcomes
                 if o.index not in self.failures and o.path != "/stats_update"]
        return {
            "setup_wall_s": (statistics.median(self.setup_s), "s"),
            "throughput_rps": (statistics.median(rates), "1/s"),
            "latency_p50_ms": (statistics.median(reads) if reads else math.nan, "ms"),
            f"latency_p{self.workload.tail_percentile:g}_ms": (
                statistics.median(tails) if tails else math.nan, "ms"),
            "failed_ratio": (len(self.failures) / len(self.timed), "ratio"),
        }

    def summary_lines(self) -> List[str]:
        reads = sum(1 for path, _ in self.timed if path != "/stats_update")
        return [
            f"workload {self.name}: {len(self.timed)} requests over "
            f"{self.workload.connections} connection(s), closed loop, "
            f"tail = p{self.workload.tail_percentile:g}, median of "
            f"{self.workload.slices} slice(s) of {reads // self.workload.slices} reads",
            f"failed {len(self.failures)} / attempted {len(self.timed)} "
            f"(failed_ratio {len(self.failures) / len(self.timed):.4f}); "
            f"server drains clean: {all(self.drains)} ({len(self.drains)} stops)",
        ]


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def cache_deltas(before: dict, after: dict) -> Dict[str, float]:
    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return float(b - a)

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    return {
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.cache_evictions": delta("cache", "evictions"),
        "service.stale_served": delta("plans", "stale_served"),
        "service.recosted": delta("plans", "recosted"),
        "service.replanned": delta("plans", "replanned"),
    }


def per_layer(run: Run) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Replay the run's requests in process; per-layer metrics and a report."""
    import spans as sp
    from replay import Replayer

    replay_tracer = sp.Tracer()
    replayer = Replayer(replay_tracer, run.workload.dataset)
    try:
        replayer.run(run.plan.warmup, run.plan.timed)
    finally:
        replayer.close()
    if run.name == "cold-plan":
        run.check(expected_costs=replayer.costs)
    else:
        run.check()

    # One tree per served read: client span, derived server spans, replay.
    by_request: Dict[int, List] = defaultdict(list)
    for span in replay_tracer.spans:
        if span.request is not None:
            by_request[span.request].append(span)
    tree = sp.Tracer()
    roots, transport, dispatch, exec_overhead, writes = [], [], [], [], []
    for outcome in run.outcomes:
        body = run.bodies.get(outcome.index)
        if body is None or outcome.index in run.failures:
            continue
        if outcome.path == "/stats_update":
            writes.append(outcome.latency_ms)
            continue
        server_s = body["server_seconds"]
        request = tree.add("request", outcome.started, outcome.finished, None, outcome.index)
        offset = max(0.0, request.duration - server_s) / 2.0
        server = tree.add("server", request.start + offset, request.start + offset + server_s,
                          request.id, outcome.index)
        runs = {}
        if outcome.path == "/optimize" and not body["cache_hit"]:
            runs["server.optimize_run"] = body["elapsed_seconds"]
            dispatch.append(server_s - body["elapsed_seconds"])
        if outcome.path == "/execute":
            runs["server.execute_run"] = body["execution_seconds"]
            exec_overhead.append(server_s - body["execution_seconds"])
        sp.graft(tree, server, by_request.get(outcome.index, ()), runs)
        roots.append(request.id)
        transport.append(request.duration - server_s)
    totals = sp.layer_totals(tree.spans, roots)

    def mean_ms(values) -> float:
        return 1000.0 * sum(values) / len(values) if values else 0.0

    means = sp.per_request_means(
        replay_tracer.spans,
        REPLAY_LAYERS + tuple(f"exec.{op}" for op in sp.EXEC_OPS.values()))
    recosts = [s.duration for s in replay_tracer.spans if s.name == "optimizer.recost"]
    provision = [s.duration for s in replay_tracer.spans if s.name == "data.provision"]
    values: Dict[str, float] = {
        "server.transport_ms": mean_ms(transport),
        "server.stats_update_ms": statistics.median(writes) if writes else 0.0,
        "service.dispatch_ms": mean_ms(dispatch),
        "service.execute_overhead_ms": mean_ms(exec_overhead),
        "unattributed_ms": 1000.0 * totals.get("unattributed", 0.0) / max(1, len(roots)),
        "optimizer.recost_ms": mean_ms(recosts),
        "optimizer.ccp_count": float(replayer.ccp_count),
        "optimizer.plans_built": float(replayer.plans_built),
        "data.provision_s": provision[0] if provision else 0.0,
        **cache_deltas(run.stats_before, run.stats_after),
    }
    for name in REPLAY_LAYERS:
        values[f"{name}_ms"] = 1000.0 * means.get(name, (0.0, 0))[0]
    for op in sp.EXEC_OPS.values():
        values[f"exec.{op}.self_ms"] = 1000.0 * means.get(f"exec.{op}", (0.0, 0))[0]
        values[f"exec.{op}.rows_out"] = float(sum(
            s.rows or 0 for s in replay_tracer.spans
            if s.name == f"exec.{op}" and s.request is not None))
    layers = json.loads((HERE / "layers.json").read_text())
    if set(values) != set(layers):
        raise RuntimeError(f"per-layer metrics and layers.json differ: "
                           f"{sorted(set(values) ^ set(layers))}")
    metrics = {name: (values[name], layers[name]["unit"]) for name in layers}

    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{run.name}-{run.seed}.json"
    with open(trace_path, "w") as out:
        json.dump({"replay": [s.__dict__ for s in replay_tracer.spans],
                   "requests": [s.__dict__ for s in tree.spans]}, out)

    report = [f"spans written to {trace_path.relative_to(ROOT)}"]
    whole = sum(totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda item: -item[1])
    for layer, seconds in ranked[:6]:
        report.append(f"  self time {layer:<24} {1000.0 * seconds / max(1, len(roots)):9.3f} "
                      f"ms/request  {100.0 * seconds / whole:5.1f}%")
    largest = ranked[0][0] if ranked else "none"
    predicted = PREDICTED_LARGEST.get(run.name)
    if predicted is None:
        verdict = "no prediction was made"
    elif predicted == "exec.<op>":
        verdict = "prediction held" if largest.startswith("exec.") and largest not in (
            "exec.lower", "exec.to_relation") else "prediction WRONG"
    else:
        verdict = "prediction held" if largest == predicted else "prediction WRONG"
    report.append(f"largest self-time layer on {run.name}: {largest} "
                  f"(predicted {predicted or '-'}: {verdict})")
    return metrics, report


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_once(name: str, seed: int, seconds: float,
             trace: bool) -> Tuple[dict, List[str], Dict[str, Tuple[float, str]]]:
    """One run: the result object, report lines, and every end-to-end figure."""
    run = Run(name, seed, seconds, trace)
    run.measure()
    lines: List[str] = []
    if trace:
        metrics, lines = per_layer(run)
    else:
        run.check()
        metrics = run.end_to_end()
    measured = {**run.end_to_end(), **run.wall_clock()}
    result = {
        "correct": not run.failures,
        "attempted": len(run.timed),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    lines = run.summary_lines() + lines
    lines.append(("traced" if trace else "untraced") + " run end to end: " + ", ".join(
        f"{key} {value:.4g} {unit}" for key, (value, unit) in measured.items()))
    for index, problem in sorted(run.failures.items())[:5]:
        lines.append(f"  failed request {index}: {problem}")
    return result, lines, measured


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, and one table of end-to-end figures.

    The traced column is the same figure from the traced run; the gap
    between the two is the tracing overhead, never a result.
    """
    from workloads import WORKLOADS

    all_correct = True
    table = [f"{'workload':<13} {'metric':<22} {'untraced':>12} {'traced':>12} unit"]
    for name in WORKLOADS:
        measured = {}
        for trace in (False, True):
            result, lines, measured[trace] = run_once(name, seed, seconds, trace)
            print("\n".join(lines), flush=True)
            all_correct &= result["correct"]
        for metric, (value, unit) in measured[False].items():
            traced = measured[True].get(metric, (math.nan, unit))[0]
            table.append(f"{name:<13} {metric:<22} {value:12.4f} {traced:12.4f} {unit}")
    print("\n".join(["", "end-to-end figures:"] + table))
    print(json.dumps({"correct": all_correct}))
    return 0 if all_correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: the plan server's sources are missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds like an exception, so every server started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from harness import become_subreaper, reap_children
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    become_subreaper()
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result, lines, _ = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        # Every process started, and every one those left behind, has ended.
        reap_children()
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
