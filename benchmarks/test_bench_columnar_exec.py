"""Perf-C — columnar batch execution vs. the tuple-at-a-time pipeline.

PR 4's pipelined physical operators removed the *algorithmic* overhead of
reference evaluation (hash/interval joins, compiled predicates); after it,
per-tuple Python interpretation dominates the stratum's hot loops.  The
columnar engine (``repro.stratum.columnar``) executes the same operators
over ``ColumnBatch`` chunks instead — one kernel call per chunk, trusted
tuple construction only at pipeline boundaries.

This benchmark runs the same join-heavy workload as Perf-P — a temporal
equi-join over the scaled EMPLOYEE/PROJECT relations with a residual
filter, projected and sorted — through the stratum executor in batch mode
and in tuple mode, asserts the outputs are *identical tuple sequences*
at every swept batch size (the list-compatibility contract is chunking-
independent), and requires batch mode to be at least 3× faster.

``COLUMNAR_BENCH_SCALE`` (default 200: 1 000 EMPLOYEE and 1 600 PROJECT
tuples) shrinks the workload for smoke runs; ``COLUMNAR_BENCH_MIN_SPEEDUP``
(default 3.0) relaxes the floor on constrained machines.  Measurements are
written as JSON (``COLUMNAR_BENCH_JSON``, default
``.benchmarks/out/columnar_exec.json``) so CI archives the run next to the
physical-exec artifact.
"""

import json
import os
import time

from repro.core.expressions import (
    And,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
)
from repro.core.operations import BaseRelation, Projection, Sort, TemporalJoin
from repro.core.order_spec import OrderSpec
from repro import ExecutionOptions, TemporalDatabase
from repro.stratum.columnar import DEFAULT_BATCH_SIZE
from repro.stratum.executor import StratumExecutor
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, scaled_paper_workload

from .conftest import banner, bench_json_path

SCALE = int(os.environ.get("COLUMNAR_BENCH_SCALE", "200"))
MIN_SPEEDUP = float(os.environ.get("COLUMNAR_BENCH_MIN_SPEEDUP", "3.0"))
JSON_PATH = bench_json_path("COLUMNAR_BENCH_JSON", "columnar_exec.json")

#: Every chunking the differential sweep must survive: degenerate,
#: boundary-straddling, mid-size, and the measured default.
SWEPT_BATCH_SIZES = (1, 2, 7, 64, DEFAULT_BATCH_SIZE)

#: Shared between the tests of this module and flushed to JSON at the end.
RESULTS: dict = {"scale": SCALE, "default_batch_size": DEFAULT_BATCH_SIZE}


def make_database() -> TemporalDatabase:
    employees, projects = scaled_paper_workload(SCALE)
    database = TemporalDatabase(options=ExecutionOptions(optimize_queries=False))
    database.register("EMPLOYEE", employees)
    database.register("PROJECT", projects)
    RESULTS["employee_tuples"] = len(employees)
    RESULTS["project_tuples"] = len(projects)
    return database


def join_heavy_plan():
    """EMPLOYEE ⋈T PROJECT on EmpName with a residual, projected and sorted."""
    predicate = And(
        Comparison(
            ComparisonOperator.EQ, AttributeRef("1.EmpName"), AttributeRef("2.EmpName")
        ),
        Comparison(ComparisonOperator.NE, AttributeRef("Dept"), Literal("Legal")),
    )
    join = TemporalJoin(
        predicate,
        BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA),
        BaseRelation("PROJECT", PROJECT_SCHEMA),
    )
    projected = Projection(["1.EmpName", "Dept", "Prj", "T1", "T2"], join)
    return Sort(OrderSpec.ascending("1.EmpName"), projected)


def execute(database, plan, batch_size, rounds=3):
    """Best-of-``rounds`` wall-clock and the result of one execution."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        executor = StratumExecutor(database.dbms, batch_size=batch_size)
        started = time.perf_counter()
        result = executor.execute(plan)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_perf_columnar_execution_speedup(benchmark):
    database = make_database()
    plan = join_heavy_plan()

    def run_both():
        batch_seconds, batch_result = execute(database, plan, DEFAULT_BATCH_SIZE)
        tuple_seconds, tuple_result = execute(database, plan, None)
        return batch_seconds, batch_result, tuple_seconds, tuple_result

    batch_seconds, batch_result, tuple_seconds, tuple_result = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    # List-compatibility: the identical tuple sequence, not just a multiset.
    assert list(batch_result.tuples) == list(tuple_result.tuples)
    speedup = tuple_seconds / batch_seconds
    RESULTS.update(
        {
            "result_rows": len(batch_result),
            "batch_seconds": batch_seconds,
            "tuple_seconds": tuple_seconds,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
        }
    )
    print(banner(f"Perf-C — columnar vs. tuple-at-a-time execution (scale {SCALE})"))
    print(
        f"workload: EMPLOYEE={RESULTS['employee_tuples']} tuples, "
        f"PROJECT={RESULTS['project_tuples']} tuples, result rows={len(batch_result)}"
    )
    print(
        f"batch({DEFAULT_BATCH_SIZE})={batch_seconds:.4f}s "
        f"tuple-at-a-time={tuple_seconds:.4f}s speedup={speedup:.2f}x"
    )
    assert len(batch_result) > 0
    assert speedup >= MIN_SPEEDUP, (
        f"columnar execution must be >={MIN_SPEEDUP}x faster than the "
        f"tuple-at-a-time pipeline, got {speedup:.2f}x"
    )


def test_differential_sweep_at_every_batch_size():
    """Chunking independence on the measured workload itself."""
    database = make_database()
    plan = join_heavy_plan()
    _, reference = execute(database, plan, None, rounds=1)
    expected = list(reference.tuples)
    sweep: dict = {}
    for batch_size in SWEPT_BATCH_SIZES:
        _, result = execute(database, plan, batch_size, rounds=1)
        identical = list(result.tuples) == expected
        sweep[str(batch_size)] = {"rows": len(result), "identical": identical}
        assert identical, f"batch_size={batch_size} diverged from the reference"
    RESULTS["differential_sweep"] = sweep
    print(banner("Perf-C — differential sweep"))
    print(f"batch sizes {SWEPT_BATCH_SIZES}: all identical to tuple mode")


def test_write_benchmark_json():
    """Flush the measurements (runs after the benchmarks within this module)."""
    JSON_PATH.parent.mkdir(parents=True, exist_ok=True)
    JSON_PATH.write_text(json.dumps(RESULTS, indent=2, sort_keys=True))
    print(banner(f"Perf-C — results written to {JSON_PATH}"))
    assert "speedup" in RESULTS
    assert "differential_sweep" in RESULTS
