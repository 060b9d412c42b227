"""The traced run: spans around each layer, self times, per-layer metrics.

Spans are recorded from the benchmark's own code, never from inside the
program.  Each span has a name, start, end, parent span and request id
(the request's index in the workload's list) and stays in memory until
the run writes them out.  Three sources feed them:

* the client: one ``request`` span per request, send to last byte;
* the response: a ``server`` child of ``server_seconds``, holding
  ``server.optimize_run`` (``elapsed_seconds``, on plan-cache misses)
  and ``server.execute_run`` (``execution_seconds``);
* an in-process replay of the same requests, in order, through the
  public functions the server calls — one span per layer, named
  ``<module>.<layer>``.  Replay spans are re-based into the request's
  ``server`` span so one tree per request shows where its time went.

A span's self time is its duration minus the part its children cover.
Self time of ``request`` is the transport (``server.transport``); self
time of ``server`` and of the two ``*_run`` spans is ``unattributed``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: physical operator class → layer name suffix.
EXEC_OPS = {
    "PhysScan": "scan", "PhysFilter": "filter", "PhysProject": "project",
    "PhysMap": "map", "PhysHashJoin": "hash_join", "PhysNLJoin": "nl_join",
    "PhysGroupAgg": "group_agg", "PhysSort": "sort", "PhysLimit": "limit",
}
#: replay layers that the server runs inside a derived ``*_run`` span.
RUN_GROUPS = {
    "optimizer.prepare": "server.optimize_run",
    "optimizer.enumerate": "server.optimize_run",
    "exec.lower": "server.execute_run",
    "exec.to_relation": "server.execute_run",
    **{f"exec.{op}": "server.execute_run" for op in EXEC_OPS.values()},
}
UNATTRIBUTED = ("server", "server.optimize_run", "server.execute_run")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    #: rows produced (exec operators only).
    rows: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder with a stack for nesting."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.request: Optional[int] = None
        self.enabled = True

    def add(self, name: str, start: float, end: float, parent: Optional[int],
            request: Optional[int], rows: Optional[int] = None) -> Span:
        span = Span(len(self.spans), name, start, end, parent, request, rows)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        span = self.add(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.request)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def call(self, name: str, function: Callable, *args, **kwargs):
        with self.span(name):
            return function(*args, **kwargs)


# ---------------------------------------------------------------------------
# wrappers around module functions, installed only for the replay
# ---------------------------------------------------------------------------

@contextmanager
def wrapped(module, attribute: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Temporarily replace ``module.attribute`` with ``make(original)``."""
    original = getattr(module, attribute)
    setattr(module, attribute, make(original))
    try:
        yield
    finally:
        setattr(module, attribute, original)


def exec_spans(tracer: Tracer):
    """Span every ``execute_physical`` call, so each operator gets one.

    The columnar executor calls the module-level ``execute_physical`` for
    each child, so wrapping it times every subtree once; an operator's
    self time is its subtree minus its children's.
    """
    import repro.exec.columnar as columnar

    def make(original):
        def traced(op, database):
            with tracer.span(f"exec.{EXEC_OPS.get(type(op).__name__, 'other')}") as span:
                batch = original(op, database)
            if span is not None:
                span.rows = batch.length
            return batch
        return traced

    return wrapped(columnar, "execute_physical", make)


def recost_spans(tracer: Tracer):
    """Span every ``evaluate_stale`` the revalidator makes."""
    import repro.optimizer.recost as recost

    return wrapped(recost, "evaluate_stale",
                   lambda original: lambda *a, **k: tracer.call("optimizer.recost",
                                                                 original, *a, **k))


# ---------------------------------------------------------------------------
# trees and self time
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """span id → duration minus the union of its children (clipped)."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = max(0.0, span.duration - covered)
    return out


def graft(tracer: Tracer, server: Span, replay: Sequence[Span],
          runs: Dict[str, float]) -> None:
    """Re-base one request's replay spans into its derived ``server`` span.

    Top-level replay spans are laid out back to back from the server
    span's start.  The layers the server runs inside ``optimize_run`` /
    ``execute_run`` go inside that derived span (of the duration in
    *runs*), stretched to fill it: with two connections the server runs
    two requests on one interpreter lock, so a run takes longer there
    than alone in the replay, and the wait is shared out in proportion
    to each layer's replay time.  Nested replay spans keep their
    (scaled) offsets.
    """
    ids = {span.id for span in replay}
    kids: Dict[int, List[Span]] = defaultdict(list)
    for span in replay:
        if span.parent in ids:
            kids[span.parent].append(span)
    tops = [span for span in replay if span.parent not in ids]
    replayed: Dict[str, float] = defaultdict(float)
    for span in tops:
        group = RUN_GROUPS.get(span.name)
        if group in runs:
            replayed[group] += span.duration

    def copy(span: Span, start: float, parent: int, scale: float) -> None:
        new = tracer.add(span.name, start, start + span.duration * scale, parent,
                         server.request, span.rows)
        for kid in kids.get(span.id, ()):
            copy(kid, start + (kid.start - span.start) * scale, new.id, scale)

    cursor = server.start
    placed: Dict[str, Span] = {}
    group_cursor: Dict[str, float] = {}
    for span in tops:
        group = RUN_GROUPS.get(span.name)
        if group in runs:
            if group not in placed:
                placed[group] = tracer.add(group, cursor, cursor + runs[group], server.id,
                                           server.request)
                group_cursor[group] = cursor
                cursor = placed[group].end
            scale = runs[group] / replayed[group] if replayed[group] > 0 else 1.0
            copy(span, group_cursor[group], placed[group].id, scale)
            group_cursor[group] += span.duration * scale
        else:
            copy(span, cursor, server.id, 1.0)
            cursor += span.duration


def layer_totals(spans: Sequence[Span], roots: Sequence[int]) -> Dict[str, float]:
    """Self time per layer name (seconds), summed over the trees of *roots*."""
    by_id = {span.id: span for span in spans}
    in_tree = set(roots)
    for span in spans:  # spans are appended after their parents
        if span.parent in in_tree:
            in_tree.add(span.id)
    selfs = self_times([by_id[i] for i in sorted(in_tree)])
    totals: Dict[str, float] = defaultdict(float)
    for span_id, seconds in selfs.items():
        name = by_id[span_id].name
        if name == "request":
            name = "server.transport"
        elif name in UNATTRIBUTED:
            name = "unattributed"
        totals[name] += seconds
    return dict(totals)


def per_request_means(spans: Sequence[Span], names: Sequence[str]) -> Dict[str, Tuple[float, int]]:
    """Per layer: mean self time per request that ran it, and that count."""
    selfs = self_times(spans)
    sums: Dict[Tuple[str, int], float] = defaultdict(float)
    for span in spans:
        if span.request is not None and span.name in names:
            sums[(span.name, span.request)] += selfs[span.id]
    out: Dict[str, List[float]] = defaultdict(list)
    for (name, _), seconds in sums.items():
        out[name].append(seconds)
    return {name: (sum(values) / len(values), len(values)) for name, values in out.items()}
