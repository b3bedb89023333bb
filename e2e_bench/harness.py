"""The four workloads: set-up, timed load, answer checks and the append probe.

Every workload drives the public API with default options, as a user gets
it: ``repro.connect()``, ``Session``, ``Server`` and ``TCPFrontend`` /
``TCPClient``.  The reads are the ``concurrent-mix`` statements of
``repro.workloads.queries`` (PAPER_SQL, CHAINED_SQL and POINT_SQL in equal
shares); the data is ``scaled_paper_workload(scale, seed)``.

A run of one workload:

1. sets up (generates and registers the data, starts any server, warms
   up) several times and keeps the last set-up, so ``setup_s`` is a
   median;
2. runs the load for the given seconds.  Closed loops stop only at the end
   of a whole rotation of the mix, so every shape keeps its exact share;
3. reads the process's high-water RSS;
4. checks every answer (see :mod:`checks`);
5. checks that no update was lost.

Appends: ``serve-rw`` times its scheduled appends.  The closed loops have
none, so an :class:`AppendProbe` times appends into a private copy of the
data, spread over the timed run between rotations of the mix.
"""

from __future__ import annotations

import concurrent.futures
import functools
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import Session
from repro.core.exceptions import ReproError
from repro.server import Server, ServerOverloadedError, TCPClient, TCPFrontend
from repro.workloads import scaled_paper_workload
from repro.workloads.queries import (
    MIX_DEPARTMENTS,
    POINT_SQL,
    concurrent_mix_append_batch,
    concurrent_mix_operations,
)

from checks import AnswerChecker, check_appends, load_database, reference_answer
from tracing import SpanRecorder, Tracing, layer_metrics, percentile

perf = time.perf_counter

#: Length of one full rotation of the mix: three shapes times four
#: point-read departments.
MIX_CYCLE = 12


@dataclass
class Measurement:
    """What one timed phase of a workload produced."""

    read_latencies: List[float] = field(default_factory=list)
    append_latencies: List[float] = field(default_factory=list)
    reads_attempted: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    rss_mb: float = 0.0
    late: List[float] = field(default_factory=list)
    #: Per traced read: ``{"request", "latency"}`` plus ``"wire"`` over TCP,
    #: or ``"server_request_id"`` until it is resolved to a span request.
    traced_reads: List[dict] = field(default_factory=list)
    peak_active_workers: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return len(self.read_latencies) / self.wall if self.wall else 0.0


def peak_rss_mb() -> float:
    """High-water RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_data(scale: int, seed: int):
    employee, project = scaled_paper_workload(scale, seed)
    return load_database(employee, project), employee, project


def _rows_of_reply(reply: dict) -> List[tuple]:
    return [tuple(row) for row in reply["rows"]]


class Workload:
    """Base of the four workloads; ``spec`` is its entry in ``config.json``."""

    #: True when the load itself appends; otherwise an :class:`AppendProbe` runs.
    schedules_appends = False

    def __init__(self, spec: dict, seed: int, probe: dict) -> None:
        self.spec = spec
        self.seed = seed
        self.scale = spec["scale"]
        #: ``AppendProbe`` arguments: ``{"bursts": ..., "burst": ...}``.
        self.probe = probe
        self.database = None

    # The subclass hooks.
    def setup(self) -> None:
        raise NotImplementedError

    def load(self, seconds: float, checker: AnswerChecker, recorder, probe) -> Measurement:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def reference_for(self, key):
        statement, params = key
        return reference_answer(self.database, statement, params)

    # The shared skeleton.
    def cycle(self) -> List[tuple]:
        """One rotation of the read mix, offset by the seed."""
        return concurrent_mix_operations(MIX_CYCLE, client=self.seed)

    def warm(self, execute: Callable) -> None:
        """Run each distinct read once, so its plan is cached."""
        seen = set()
        for _, statement, params in self.cycle():
            if (statement, params) not in seen:
                seen.add((statement, params))
                execute(statement, params)



class AppendProbe:
    """Timed ``TemporalDatabase.append`` calls for the workloads whose load has none.

    The appends go to a private copy of the workload's data: appending to
    the served database would move its epoch and empty the plan cache the
    reads depend on.  :meth:`catch_up` is called between rotations of the
    mix, outside the timed reads.  It appends in bursts of ``burst``, one
    burst each time another ``1 / bursts`` of the run has elapsed, so the
    appends spread over the same stretch of time as the reads.  The first
    append of a burst runs with caches the reads have just flushed, so a
    burst's median is the steady cost of an append; and the number of
    appends, so the table's growth, is the same in every run.
    """

    def __init__(self, employee, project, seed: int, bursts: int, burst: int) -> None:
        self.database = load_database(employee, project)
        self.initial_rows = len(employee)
        self.initial_epoch = self.database.statistics_epoch()
        self.seed = seed
        self.bursts = bursts
        self.burst = burst
        self.latencies: List[float] = []
        self.epochs: List[int] = []
        self.rows = 0

    def catch_up(self, elapsed_share: float) -> None:
        due = min(self.bursts, int(self.bursts * elapsed_share)) * self.burst
        while len(self.epochs) < due:
            rows = concurrent_mix_append_batch(self.seed * 1000 + len(self.epochs))
            started = perf()
            _, epoch = self.database.append("EMPLOYEE", rows)
            self.latencies.append(perf() - started)
            self.epochs.append(epoch)
            self.rows += len(rows)

    def finish(self, measurement: Measurement) -> None:
        """Do any appends left, record them, and check that none was lost."""
        self.catch_up(1.0)
        measurement.attempted += len(self.epochs)
        measurement.append_latencies += self.latencies
        final = len(self.database.table("EMPLOYEE"))
        measurement.errors += check_appends(
            self.initial_rows, final, self.rows, self.initial_epoch, self.epochs
        )


class SessionLoop(Workload):
    """Closed loop, one client, through ``Session`` objects."""

    def setup(self) -> None:
        self.database, self.employee, self.project = _load_data(self.scale, self.seed)

    def sessions(self) -> List[Session]:
        raise NotImplementedError

    def load(self, seconds: float, checker: AnswerChecker, recorder, probe) -> Measurement:
        measurement = Measurement()
        cycle = self.cycle()
        start = perf()
        while True:
            sessions = self.sessions()  # built outside the timed intervals
            for (_, statement, params), session in zip(cycle, sessions):
                measurement.attempted += 1
                measurement.reads_attempted += 1
                request = None if recorder is None else recorder.open("bench.request")
                started = perf()
                try:
                    result = session.execute(statement, params)
                except ReproError:
                    measurement.failed += 1
                    continue
                finally:
                    elapsed = perf() - started
                    if request is not None:
                        recorder.close(request)
                measurement.wall += elapsed
                measurement.read_latencies.append(elapsed)
                if request is not None:
                    measurement.traced_reads.append(
                        {"request": recorder.spans[request].request, "latency": elapsed}
                    )
                checker.observe_relation((statement, params), result.relation)
            elapsed_share = (perf() - start) / seconds
            probe.catch_up(elapsed_share)
            if elapsed_share >= 1.0:
                return measurement


class WarmMix(SessionLoop):
    """One ``Session`` whose plan cache is warm: every timed read is a hit."""

    def setup(self) -> None:
        super().setup()
        self.session = Session(self.database)
        self.warm(self.session.execute)

    def sessions(self) -> List[Session]:
        return [self.session] * MIX_CYCLE


class ColdPlan(SessionLoop):
    """A new ``Session`` (own empty plan cache) per read: every read optimizes."""

    def setup(self) -> None:
        super().setup()
        self.warm(lambda statement, params: Session(self.database).execute(statement, params))

    def sessions(self) -> List[Session]:
        return [Session(self.database) for _ in range(MIX_CYCLE)]


class ServeRW(Workload):
    """Open loop into ``Server(max_concurrency=2)``: reads and appends on a schedule."""

    schedules_appends = True

    def setup(self) -> None:
        self.database, self.employee, self.project = _load_data(self.scale, self.seed)
        self.initial_epoch = self.database.statistics_epoch()
        self.server = Server(self.database, max_concurrency=self.spec["max_concurrency"])
        self.server.start()
        self.warm(lambda statement, params: self.server.query(statement, params))
        self.appends_by_epoch: Dict[int, tuple] = {}
        self.replayed: Dict[int, object] = {}

    def teardown(self) -> None:
        self.server.close()

    def load(self, seconds: float, checker: AnswerChecker, recorder, probe) -> Measurement:
        measurement = Measurement()
        rate = self.spec["rate_ops_per_s"]
        operations = concurrent_mix_operations(
            max(1, round(rate * seconds)),
            client=self.seed,
            append_every=self.spec["append_every"],
        )
        done: Dict[int, float] = {}
        submitted = []
        start = perf() + 0.005
        for index, (kind, target, params) in enumerate(operations):
            due = start + index / rate
            delay = due - perf()
            if delay > 0:
                time.sleep(delay)
            measurement.late.append(perf() - due)
            measurement.attempted += 1
            measurement.reads_attempted += kind == "query"
            try:
                if kind == "query":
                    future = self.server.submit(target, params)
                else:
                    future = self.server.submit_append(target, params)
            except ServerOverloadedError:
                measurement.failed += 1
                continue
            future.add_done_callback(functools.partial(_stamp, done, index))
            submitted.append((index, due, kind, target, params, future))
        concurrent.futures.wait([entry[-1] for entry in submitted], timeout=120)
        measurement.wall = max(done.values(), default=start) - start
        measurement.peak_active_workers = self.server.stats().peak_active_workers
        appended = 0
        epochs = []
        for index, due, kind, target, params, future in submitted:
            response = future.result(timeout=0)
            if not response.ok:
                measurement.failed += 1
                continue
            latency = done[index] - due
            if kind == "append":
                measurement.append_latencies.append(latency)
                epochs.append(response.epoch)
                appended += response.rows_inserted
                self.appends_by_epoch[response.epoch] = params
                continue
            measurement.read_latencies.append(latency)
            if recorder is not None:
                measurement.traced_reads.append(
                    {"server_request_id": response.request_id, "latency": latency}
                )
            checker.observe_relation((target, params, response.epoch), response.relation)
        final = len(self.database.table("EMPLOYEE"))
        measurement.errors += check_appends(
            len(self.employee), final, appended, self.initial_epoch, epochs
        )
        return measurement

    def reference_for(self, key):
        statement, params, epoch = key
        if epoch not in self.replayed:
            appends = [self.appends_by_epoch[e] for e in sorted(self.appends_by_epoch) if e <= epoch]
            self.replayed[epoch] = load_database(self.employee, self.project, appends)
        return reference_answer(self.replayed[epoch], statement, params)


def _stamp(done: Dict[int, float], index: int, _future) -> None:
    done[index] = perf()


class PointServe(Workload):
    """Closed loop over TCP: point reads from two clients into ``Server(2)``."""

    def setup(self) -> None:
        self.database, self.employee, self.project = _load_data(self.scale, self.seed)
        self.server = Server(self.database, max_concurrency=self.spec["max_concurrency"])
        self.server.start()
        self.frontend = TCPFrontend(self.server).start()
        host, port = self.frontend.address
        self.clients = [TCPClient(host, port) for _ in range(self.spec["clients"])]
        for department in MIX_DEPARTMENTS:
            reply = self.clients[0].query(POINT_SQL, (department,))
            if reply["status"] != "ok":
                raise RuntimeError(f"warm-up read failed: {reply}")

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.frontend.close()
        self.server.close()

    def load(self, seconds: float, checker: AnswerChecker, recorder, probe) -> Measurement:
        """Run the clients in one-second segments, probing appends in between.

        Each segment starts both clients together and ends when both have
        finished the rotation running at the segment's deadline; the wall
        time is the sum of the segments.
        """
        total = Measurement()
        segments = max(1, round(seconds))
        for segment in range(segments):
            self._segment(seconds / segments, checker, recorder, total)
            probe.catch_up((segment + 1) / segments)
        total.peak_active_workers = self.server.stats().peak_active_workers
        return total

    def _segment(self, seconds: float, checker, recorder, total: Measurement) -> None:
        measurements = [Measurement() for _ in self.clients]
        barrier = threading.Barrier(len(self.clients) + 1)
        timing: Dict[str, float] = {}
        ends: List[float] = [0.0] * len(self.clients)

        def client_loop(number: int) -> None:
            client = self.clients[number]
            measurement = measurements[number]
            rotation = [
                (MIX_DEPARTMENTS[(self.seed + 2 * number + step) % len(MIX_DEPARTMENTS)],)
                for step in range(len(MIX_DEPARTMENTS))
            ]
            barrier.wait()
            deadline = timing["deadline"]
            while True:
                for params in rotation:
                    measurement.attempted += 1
                    measurement.reads_attempted += 1
                    started = perf()
                    reply = client.query(POINT_SQL, params)
                    elapsed = perf() - started
                    if reply["status"] != "ok":
                        measurement.failed += 1
                        continue
                    measurement.read_latencies.append(elapsed)
                    if recorder is not None:
                        measurement.traced_reads.append(
                            {
                                "server_request_id": reply["request_id"],
                                "latency": elapsed,
                                "wire": elapsed - reply["latency_seconds"],
                            }
                        )
                    checker.observe((POINT_SQL, params), reply["columns"], _rows_of_reply(reply))
                if perf() >= deadline:
                    ends[number] = perf()
                    return

        threads = [
            threading.Thread(target=client_loop, args=(number,), name=f"bench-client-{number}")
            for number in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        start = perf()
        timing["deadline"] = start + seconds
        barrier.wait()
        for thread in threads:
            thread.join(timeout=120)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client thread did not finish")
        total.wall += max(ends) - start
        for measurement in measurements:
            total.read_latencies += measurement.read_latencies
            total.traced_reads += measurement.traced_reads
            total.attempted += measurement.attempted
            total.reads_attempted += measurement.reads_attempted
            total.failed += measurement.failed


WORKLOADS = {
    "warm-mix": WarmMix,
    "cold-plan": ColdPlan,
    "serve-rw": ServeRW,
    "point-serve": PointServe,
}


# -- one run ------------------------------------------------------------------------


def _phase(
    workload: Workload,
    seconds: float,
    references: dict,
    recorder: Optional[SpanRecorder],
) -> Measurement:
    """Timed load, RSS and answer checks on a set-up workload.

    ``references`` caches reference answers by key across the phases of a
    run; both phases load the same data, so a key's reference is the same.
    """

    def reference_for(key):
        if key not in references:
            references[key] = workload.reference_for(key)
        return references[key]

    checker = AnswerChecker()
    probe = None
    if not workload.schedules_appends:
        probe = AppendProbe(
            workload.employee, workload.project, workload.seed, **workload.probe
        )
    if recorder is None:
        measurement = workload.load(seconds, checker, None, probe)
    else:
        with Tracing(recorder):
            measurement = workload.load(seconds, checker, recorder, probe)
    measurement.rss_mb = peak_rss_mb()
    if probe is not None:
        probe.finish(measurement)
    checker.verify(reference_for)
    measurement.errors += checker.errors
    return measurement


@dataclass
class RunOutcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str]
    recorder: Optional[SpanRecorder] = None


def end_to_end_metrics(measurement: Measurement, setup_times: List[float], limit_ms: float):
    reads = measurement.read_latencies
    within = sum(1 for latency in reads if latency * 1000.0 <= limit_ms)
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_qps": measurement.throughput,
        "latency_p50_ms": percentile(reads, 50) * 1000.0,
        "latency_p95_ms": percentile(reads, 95) * 1000.0,
        "append_p50_ms": percentile(measurement.append_latencies, 50) * 1000.0,
        "slo_met_share": within / max(measurement.reads_attempted, 1),
        "success_rate": 1.0 - measurement.failed / max(measurement.attempted, 1),
        "peak_rss_mb": measurement.rss_mb,
    }


def validity_problems(workload: Workload, measurement: Measurement) -> List[str]:
    """Failed answer or lost-update checks, and an open loop that fell behind."""
    problems = list(measurement.errors)
    bound = workload.spec.get("late_bound_ms")
    if bound is not None and percentile(measurement.late, 95) * 1000.0 > bound:
        problems.append(
            f"run invalid: generator p95 lateness "
            f"{percentile(measurement.late, 95) * 1000.0:.1f} ms exceeds {bound} ms"
        )
    return problems


def run(name: str, config: dict, seed: int, seconds: float, trace: bool) -> RunOutcome:
    """One run of workload ``name``: end-to-end metrics, or per-layer with ``trace``."""
    spec = config["workloads"][name]
    factory = functools.partial(WORKLOADS[name], spec, seed, config["append_probe"])
    references: dict = {}
    if not trace:
        setup_times = []
        for attempt in range(spec["setup_repeats"]):
            workload = factory()
            started = perf()
            workload.setup()
            setup_times.append(perf() - started)
            if attempt + 1 < spec["setup_repeats"]:
                workload.teardown()
        try:
            measurement = _phase(workload, seconds, references, None)
        finally:
            workload.teardown()
        problems = validity_problems(workload, measurement)
        return RunOutcome(
            correct=not problems,
            attempted=measurement.attempted,
            failed=measurement.failed,
            metrics=end_to_end_metrics(measurement, setup_times, spec["latency_limit_ms"]),
            problems=problems,
        )
    # Traced: an untraced phase for the overhead base, then the traced phase,
    # each half the run, so a traced run takes about as long as an untraced one.
    phases = []
    recorder = SpanRecorder()
    for phase_recorder in (None, recorder):
        workload = factory()
        workload.setup()
        try:
            phases.append((workload, _phase(workload, seconds / 2, references, phase_recorder)))
        finally:
            workload.teardown()
    (_, untraced), (workload, traced) = phases
    _resolve_server_requests(recorder, traced.traced_reads)
    metrics = layer_metrics(recorder.spans, traced.traced_reads)
    metrics["trace.overhead_ratio"] = (
        traced.throughput / untraced.throughput if untraced.throughput else 0.0
    )
    metrics["generator.late_p95_ms"] = percentile(traced.late, 95) * 1000.0
    metrics["server.peak_active_workers"] = float(traced.peak_active_workers)
    problems = validity_problems(workload, untraced) + validity_problems(workload, traced)
    return RunOutcome(
        correct=not problems,
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
        metrics=metrics,
        problems=problems,
        recorder=recorder,
    )


def _resolve_server_requests(recorder: SpanRecorder, reads: List[dict]) -> None:
    """Map server-assigned request ids to the trace's request ids."""
    by_server_id = {
        span.attrs["server_request_id"]: span.request
        for span in recorder.spans
        if span.name == "server.submit" and "server_request_id" in span.attrs
    }
    for read in reads:
        if "server_request_id" in read:
            read["request"] = by_server_id.get(read.pop("server_request_id"), -1)

