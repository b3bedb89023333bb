"""Perf-F — what fault tolerance costs when nothing is failing.

The robustness layer threads a cancellation token and a resource guard
through every executor pull loop, and plants fault-injection points on the
hottest paths (parse, memo search, bind, both engines' tuple loops, catalog
append, the worker loop).  The design requirement mirrors observability's:
the **quiet** configuration — faults disarmed, cancellation enabled — pays
one branch per site (``FAULTS.active``, ``control.tick``) and nothing else.

* **cancellation-enabled serving** — the shared ``concurrent-mix`` workload
  driven through a :class:`~repro.server.server.Server` with
  ``cancellation=False`` (the exact pre-robustness serving path) and with
  the default ``cancellation=True``.  The enabled configuration must stay
  within ``FT_BENCH_TOLERANCE`` (default 5%) of the disabled CPU cost of
  one pass of the mix.  The configurations are measured request by request
  in ``FT_BENCH_REPEATS`` interleaved rounds (see
  :func:`benchmarks.conftest.interleaved_request_cpu`): CPU time of
  interleaved single requests, unlike min-of-N wall clock of a threaded
  run, has a noise floor (about ±2% between two identical configurations)
  well below the tolerance;
* **guarded serving is bounded too** — generous per-request row/byte
  budgets (never tripped here) ride the same check sites, so they get the
  same budget: charging a quantum every check interval must not leave the
  cheap path.

``FT_BENCH_SCALE`` scales the stored relations, ``FT_BENCH_OPS`` the
per-client operation count.  The measurements land in ``FT_BENCH_JSON``
(default ``.benchmarks/out/fault_tolerance_overhead.json``), archived by CI
like the other benchmark artifacts.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro import ExecutionOptions
from repro.faults import FAULTS
from repro.server import Server
from repro.workloads import concurrent_mix_operations

from .conftest import banner, bench_json_path, interleaved_request_cpu, make_scaled_database

SCALE = int(os.environ.get("FT_BENCH_SCALE", "8"))
OPS = int(os.environ.get("FT_BENCH_OPS", "16"))
REPEATS = int(os.environ.get("FT_BENCH_REPEATS", "5"))
TOLERANCE = float(os.environ.get("FT_BENCH_TOLERANCE", "0.05"))
JSON_PATH = bench_json_path("FT_BENCH_JSON", "fault_tolerance_overhead.json")

MAX_CONCURRENCY = 4
CLIENTS = 4

#: Noise floor: differences below this many seconds are jitter, not
#: overhead, whatever the ratio says.
ABSOLUTE_SLACK_SECONDS = 0.010

RESULTS: dict = {
    "scale": SCALE,
    "ops_per_client": OPS,
    "repeats": REPEATS,
    "clients": CLIENTS,
    "max_concurrency": MAX_CONCURRENCY,
}


def _drive_mix(server: Server) -> float:
    """The concurrent-mix read workload from CLIENTS threads; wall seconds."""
    errors: list = []
    barrier = threading.Barrier(CLIENTS + 1)

    def client(index: int) -> None:
        operations = concurrent_mix_operations(OPS, client=index)
        barrier.wait()
        for _, statement, params in operations:
            response = server.query(statement, params=params)
            if not response.ok:  # pragma: no cover - failure path
                errors.append(response.error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    assert not errors, errors[:3]
    return wall


def _measure(configs: list) -> list:
    """CPU seconds of one pass of the mix per server configuration.

    One server per configuration, warmed by one concurrent pass (plan cache
    full, pool settled), so the measurement is the serving path — exactly
    where the cancellation checkpoints and fault gates sit.  The pass is
    then measured request by request, interleaved across the
    configurations, for REPEATS rounds.
    """
    operations = [
        operation
        for index in range(CLIENTS)
        for operation in concurrent_mix_operations(OPS, client=index)
    ]
    servers = {
        config: Server(
            make_scaled_database(SCALE),
            max_concurrency=MAX_CONCURRENCY,
            queue_limit=None,
            options=options,
        )
        for config, options in configs
    }
    try:
        for server in servers.values():
            server.start()
            _drive_mix(server)  # warmup: fill the plan cache, settle the pool
        costs = interleaved_request_cpu(servers, operations, REPEATS)
        for config, server in servers.items():
            stats = server.stats()
            assert stats.failed == 0 and stats.rejected == 0
            assert stats.timed_out == 0 and stats.cancelled == 0
            assert stats.worker_crashes == 0
            assert stats.completed == len(operations) * (REPEATS + 1), config
    finally:
        for server in servers.values():
            server.close()
    return [
        {
            "config": config,
            "cpu_seconds": sum(costs[config]),
            "cpu_seconds_per_request": costs[config],
        }
        for config in servers
    ]


def test_perf_quiet_fault_tolerance_is_free():
    """cancellation=False vs. the default: the quiet path costs ≤5%."""
    print(banner(f"Perf-F — fault-tolerance overhead, scale {SCALE}, {OPS} ops/client"))
    assert not FAULTS.active, "benchmark requires disarmed fault registry"
    baseline, cancellable, guarded = _measure(
        [
            ("baseline", ExecutionOptions(cancellation=False)),
            ("cancellation", ExecutionOptions()),
            (
                "guarded",
                ExecutionOptions(
                    max_rows_per_request=50_000_000,
                    max_bytes_per_request=50_000_000_000,
                ),
            ),
        ]
    )

    base = baseline["cpu_seconds"]
    for entry in (baseline, cancellable, guarded):
        entry["overhead"] = entry["cpu_seconds"] / base - 1.0
        RESULTS[entry["config"]] = entry
        print(
            f"{entry['config']:>12}  cpu={entry['cpu_seconds'] * 1e3:8.2f}ms  "
            f"overhead={entry['overhead']:+7.1%}"
        )

    budget = base * (1.0 + TOLERANCE) + ABSOLUTE_SLACK_SECONDS
    assert cancellable["cpu_seconds"] <= budget, (
        f"cancellation-enabled serving cost {cancellable['overhead']:+.1%} "
        f"(> {TOLERANCE:.0%} + {ABSOLUTE_SLACK_SECONDS * 1e3:.0f}ms slack) — "
        "deadline checkpoints must stay one branch per check interval"
    )
    assert guarded["cpu_seconds"] <= budget, (
        f"guarded serving cost {guarded['overhead']:+.1%} "
        f"(> {TOLERANCE:.0%} + {ABSOLUTE_SLACK_SECONDS * 1e3:.0f}ms slack) — "
        "resource accounting must stay on the check-interval quantum"
    )


def test_perf_cancellation_still_works_at_benchmark_scale():
    """The measured configuration is the real thing: a deadline still bites."""
    database = make_scaled_database(SCALE)
    with Server(database, max_concurrency=MAX_CONCURRENCY) as server:
        with FAULTS.armed("dbms.scan", kind="latency", latency=5.0, times=4):
            started = time.perf_counter()
            response = server.query(
                "SELECT EmpName FROM EMPLOYEE ORDER BY EmpName", timeout=0.1
            )
            wall = time.perf_counter() - started
    assert response.status == "timed_out" and response.code == "TIMED_OUT"
    assert wall < 2.0, f"deadline took {wall:.2f}s to bite"
    RESULTS["deadline_bite_seconds"] = wall


def test_write_benchmark_json():
    """Flush the measurements (runs after the benchmarks within this module)."""
    JSON_PATH.parent.mkdir(parents=True, exist_ok=True)
    JSON_PATH.write_text(json.dumps(RESULTS, indent=2, sort_keys=True))
    print(banner(f"Perf-F — results written to {JSON_PATH}"))
    assert "baseline" in RESULTS and "cancellation" in RESULTS
