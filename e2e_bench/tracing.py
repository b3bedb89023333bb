"""Outside-in tracing: spans recorded around calls into each layer.

The benchmark never edits the program to trace it.  :class:`Tracing`
replaces the layers' public entry points with thin wrappers for the length
of a ``with`` block and restores the originals on exit.  Each wrapper
records one :class:`Span` (name, start, end, parent span, request id and a
few attributes) into an in-memory list; :func:`layer_metrics` turns the
list into per-layer self times and counts once the run is over, and
:meth:`SpanRecorder.dump` writes it out.

Spans nest per thread.  A request that crosses threads (a ``Server``
admits it on the caller's thread and a worker executes it) is joined by
the snapshot the server takes at admission: the ``submit`` wrapper marks
its thread, the ``snapshot`` wrapper files the new snapshot under the
submit's request id, and the worker's ``Session.execute`` finds it there.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro.session.session as session_module
import repro.stratum.executor as executor_module
from repro import Session, TemporalDatabase
from repro.dbms.engine import ConventionalDBMS, SnapshotDBMS
from repro.server import Server
from repro.stratum.executor import StratumExecutor

#: Span name -> layer.  ``bench.request`` spans are the benchmark's own
#: client-side view of one request and belong to no layer.
LAYER_OF_SPAN = {
    "tsql.parse": "tsql",
    "tsql.translate": "tsql",
    "session.execute": "session",
    "session.bind": "session",
    "search.optimize": "search",
    "stratum.execute": "stratum",
    "stratum.rdupT": "stratum",
    "stratum.coalT": "stratum",
    "stratum.diffT": "stratum",
    "stratum.unionT": "stratum",
    "dbms.execute": "dbms",
    "dbms.optimize": "dbms",
    "server.submit": "server",
    "server.submit_append": "server",
    "server.append": "server",
}

TEMPORAL_SPANS = {
    "temporal_duplicate_elimination_fast": "stratum.rdupT",
    "coalesce_fast": "stratum.coalT",
    "temporal_difference_fast": "stratum.diffT",
    "temporal_union_fast": "stratum.unionT",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._request_ids = itertools.count(1)
        #: id(snapshot) -> (snapshot, request id) between admission and the
        #: worker picking the request up; the snapshot is held so its id
        #: cannot be reused meanwhile.
        self._pending: Dict[int, tuple] = {}

    def new_request(self) -> int:
        return next(self._request_ids)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[int] = None, **attrs) -> int:
        """Start a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = self.spans[parent].request if parent is not None else self.new_request()
        span = Span(name, time.perf_counter(), parent=parent, request=request, attrs=attrs)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    # -- cross-thread correlation -------------------------------------------------

    def file_snapshot(self, snapshot) -> None:
        request = getattr(self._local, "admitting", None)
        if request is not None:
            with self._lock:
                self._pending[id(snapshot)] = (snapshot, request)

    def claim_snapshot(self, snapshot) -> Optional[int]:
        if snapshot is None:
            return None
        with self._lock:
            entry = self._pending.pop(id(snapshot), None)
        return None if entry is None else entry[1]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request,
                }
                if span.attrs:
                    record["attrs"] = {k: v for k, v in span.attrs.items() if _jsonable(v)}
                handle.write(json.dumps(record) + "\n")


def _jsonable(value) -> bool:
    return isinstance(value, (str, int, float, bool, type(None)))


class Tracing:
    """Patch the layer entry points for the length of a ``with`` block."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[tuple] = []

    def __enter__(self) -> "Tracing":
        rec = self.recorder
        self._patch(session_module, "parse_statement", _plain(rec, "tsql.parse"))
        self._patch(session_module, "translate", _plain(rec, "tsql.translate"))
        self._patch(session_module, "bind_parameters", _plain(rec, "session.bind"))
        self._patch(Session, "execute", _session_execute(rec))
        self._patch(TemporalDatabase, "optimize_plan", _optimize_plan(rec))
        self._patch(StratumExecutor, "execute", _stratum_execute(rec))
        for function, name in TEMPORAL_SPANS.items():
            self._patch(executor_module, function, _temporal(rec, name))
        for engine in (ConventionalDBMS, SnapshotDBMS):
            self._patch(engine, "execute", _plain(rec, "dbms.execute"))
            self._patch(engine, "optimize", _plain(rec, "dbms.optimize"))
        self._patch(TemporalDatabase, "append", _plain(rec, "server.append"))
        self._patch(TemporalDatabase, "snapshot", _snapshot(rec))
        self._patch(Server, "submit", _submit(rec, "server.submit"))
        self._patch(Server, "submit_append", _submit(rec, "server.submit_append"))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def _patch(self, owner, attribute: str, make: Callable) -> None:
        original = owner.__dict__[attribute]
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))


def _plain(rec: SpanRecorder, name: str):
    def make(original):
        def wrapper(*args, **kwargs):
            index = rec.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                rec.close(index)

        return wrapper

    return make


def _temporal(rec: SpanRecorder, name: str):
    def make(original):
        def wrapper(*relations):
            index = rec.open(name, rows_in=sum(len(r) for r in relations))
            try:
                return original(*relations)
            finally:
                rec.close(index)

        return wrapper

    return make


def _session_execute(rec: SpanRecorder):
    def make(original):
        def wrapper(self, statement, params=(), snapshot=None, token=None, guard=None):
            index = rec.open(
                "session.execute",
                request=rec.claim_snapshot(snapshot),
                statement=statement,
            )
            try:
                result = original(self, statement, params, snapshot, token, guard)
                rec.spans[index].attrs.update(cache_hit=result.cache_hit, epoch=result.epoch)
                return result
            finally:
                rec.close(index)

        return wrapper

    return make


def _optimize_plan(rec: SpanRecorder):
    def make(original):
        def wrapper(self, initial_plan, query_spec, snapshot=None):
            parent = rec.current_span()
            epoch = snapshot.epoch if snapshot is not None else self.statistics_epoch()
            statement = parent.attrs.get("statement") if parent is not None else None
            index = rec.open("search.optimize", key=f"{epoch}|{statement}")
            try:
                outcome = original(self, initial_plan, query_spec, snapshot)
                search = outcome.search
                if search is not None:
                    rec.spans[index].attrs.update(
                        memo_tasks=search.statistics.applications_attempted,
                        memo_expressions=search.statistics.expressions,
                    )
                rec.spans[index].attrs["plans_considered"] = outcome.plans_considered
                return outcome
            finally:
                rec.close(index)

        return wrapper

    return make


def _stratum_execute(rec: SpanRecorder):
    def make(original):
        def wrapper(self, plan):
            index = rec.open("stratum.execute")
            try:
                return original(self, plan)
            finally:
                rec.spans[index].attrs["transferred_tuples"] = self.report.transferred_tuples
                rec.close(index)

        return wrapper

    return make


def _snapshot(rec: SpanRecorder):
    def make(original):
        def wrapper(self):
            snapshot = original(self)
            rec.file_snapshot(snapshot)
            return snapshot

        return wrapper

    return make


def _submit(rec: SpanRecorder, name: str):
    def make(original):
        def wrapper(self, *args, **kwargs):
            request = rec.new_request()
            index = rec.open(name, request=request)
            rec._local.admitting = request
            try:
                future = original(self, *args, **kwargs)
                rec.spans[index].attrs["server_request_id"] = future.request_id
                return future
            finally:
                rec._local.admitting = None
                rec.close(index)

        return wrapper

    return make


# -- aggregation ------------------------------------------------------------------------


def _self_times(spans: List[Span]) -> List[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - covered[i] for i, span in enumerate(spans)]


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between order statistics."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: List[Span], reads: List[dict]) -> Dict[str, float]:
    """Per-layer self times and counts, per traced read unless noted.

    ``reads`` lists the traced reads the workload answered, each
    ``{"request": id, "latency": seconds}`` plus, over TCP, ``"wire":
    seconds``; ``request`` matches the spans of that read.
    """
    selfs = _self_times(spans)
    reads_n = max(len(reads), 1)
    read_ids = {read["request"] for read in reads}
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    by_request: Dict[int, float] = {}
    optimize: List[Span] = []
    submit_end: Dict[int, float] = {}
    execute_start: Dict[int, float] = {}
    hits = 0
    rows_in = 0
    transferred = 0
    for index, span in enumerate(spans):
        layer = LAYER_OF_SPAN.get(span.name)
        if layer is None:
            continue
        if span.name == "server.append":
            totals["append"] = totals.get("append", 0.0) + span.duration
            counts["append"] = counts.get("append", 0) + 1
            continue
        if span.request not in read_ids:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + selfs[index]
        counts[span.name] = counts.get(span.name, 0) + 1
        by_request[span.request] = by_request.get(span.request, 0.0) + selfs[index]
        if span.name == "search.optimize":
            optimize.append(span)
        elif span.name == "session.execute":
            hits += bool(span.attrs.get("cache_hit"))
            execute_start[span.request] = span.start
        elif span.name == "server.submit":
            submit_end[span.request] = span.end
        elif span.name == "stratum.execute":
            transferred += span.attrs.get("transferred_tuples", 0)
            totals["stratum.inclusive"] = totals.get("stratum.inclusive", 0.0) + span.duration
        elif span.name in TEMPORAL_SPANS.values():
            rows_in += span.attrs.get("rows_in", 0)

    def per_read(name: str) -> float:
        return totals.get(name, 0.0) * 1000.0 / reads_n

    waits = sorted(
        (execute_start[r] - submit_end[r]) * 1000.0 for r in submit_end if r in execute_start
    )
    optimize_calls = len(optimize)
    keys = {span.attrs.get("key") for span in optimize}

    def per_optimize(attribute: str) -> float:
        if not optimize_calls:
            return 0.0
        return sum(span.attrs.get(attribute, 0) for span in optimize) / optimize_calls

    covered = sum(by_request.get(read["request"], 0.0) + read.get("wire", 0.0) for read in reads)
    latency = sum(read["latency"] for read in reads)
    appends = counts.get("append", 0)
    return {
        "tsql.parse_ms": per_read("tsql.parse"),
        "tsql.translate_ms": per_read("tsql.translate"),
        "session.lookup_ms": per_read("session.execute"),
        "session.bind_ms": per_read("session.bind"),
        "session.plan_cache_hit_ratio": hits / reads_n,
        "search.optimize_ms": (
            sum(span.duration for span in optimize) * 1000.0 / optimize_calls
            if optimize_calls
            else 0.0
        ),
        "search.memo_tasks": per_optimize("memo_tasks"),
        "search.plans_considered": per_optimize("plans_considered"),
        "search.memo_expressions": per_optimize("memo_expressions"),
        "search.optimize_per_epoch": optimize_calls / len(keys) if keys else 0.0,
        "stratum.execute_ms": per_read("stratum.inclusive"),
        "stratum.rdupT_ms": per_read("stratum.rdupT"),
        "stratum.coalT_ms": per_read("stratum.coalT"),
        "stratum.diffT_ms": per_read("stratum.diffT"),
        "stratum.unionT_ms": per_read("stratum.unionT"),
        "stratum.self_ms": per_read("stratum.execute"),
        "stratum.transferred_tuples": transferred / reads_n,
        "stratum.temporal_rows_in": rows_in / reads_n,
        "dbms.fragment_optimize_ms": per_read("dbms.optimize"),
        "dbms.execute_ms": per_read("dbms.execute"),
        "dbms.calls": counts.get("dbms.execute", 0) / reads_n,
        "server.admit_ms": (
            totals.get("server.submit", 0.0) * 1000.0 / counts["server.submit"]
            if counts.get("server.submit")
            else 0.0
        ),
        "server.queue_wait_p50_ms": percentile(waits, 50),
        "server.queue_wait_p95_ms": percentile(waits, 95),
        "server.append_ms": totals.get("append", 0.0) * 1000.0 / appends if appends else 0.0,
        "tcp.wire_ms": sum(read.get("wire", 0.0) for read in reads) * 1000.0 / reads_n,
        "trace.coverage": covered / latency if latency else 0.0,
    }
