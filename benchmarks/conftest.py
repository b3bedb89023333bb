"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see
EXPERIMENTS.md for the index) and — where the paper's "result" is a worked
example rather than a measurement — asserts that the regenerated content
matches the paper before timing the code path that produces it.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ExecutionOptions
from repro.stratum import TemporalDatabase, TemporalQueryOptimizer
from repro.workloads import (
    PAPER_SQL,
    employee_relation,
    project_relation,
    scaled_paper_workload,
)

#: Where benchmarks write their JSON results unless told otherwise.  The
#: directory is gitignored, so running the suite leaves the tree clean; the
#: committed ``.benchmarks/*.json`` references change only when a result is
#: written there on purpose (set the benchmark's environment variable).
BENCH_OUTPUT_DIR = Path(__file__).resolve().parent.parent / ".benchmarks" / "out"


def bench_json_path(env_var: str, filename: str) -> Path:
    """The JSON result path: ``$env_var`` if set, else ``BENCH_OUTPUT_DIR/filename``."""
    return Path(os.environ.get(env_var) or BENCH_OUTPUT_DIR / filename)


#: The motivating query of the paper, in the front end's dialect (the
#: canonical text lives with the ``concurrent-mix`` workload definitions).
PAPER_STATEMENT = PAPER_SQL


def make_paper_database(optimize_queries: bool = True, max_plans: int = 2000) -> TemporalDatabase:
    """A TemporalDatabase loaded with the Figure 1 relations."""
    database = TemporalDatabase(
        optimizer=TemporalQueryOptimizer(max_plans=max_plans),
        options=ExecutionOptions(optimize_queries=optimize_queries),
    )
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return database


def make_scaled_database(scale: int, optimize_queries: bool = True, max_plans: int = 500) -> TemporalDatabase:
    """A TemporalDatabase loaded with a scaled EMPLOYEE/PROJECT workload."""
    employees, projects = scaled_paper_workload(scale)
    database = TemporalDatabase(
        optimizer=TemporalQueryOptimizer(max_plans=max_plans),
        options=ExecutionOptions(optimize_queries=optimize_queries),
    )
    database.register("EMPLOYEE", employees)
    database.register("PROJECT", projects)
    return database


@pytest.fixture
def paper_db():
    return make_paper_database()


@pytest.fixture
def paper_statement():
    return PAPER_STATEMENT


def banner(title: str) -> str:
    line = "=" * len(title)
    return f"\n{line}\n{title}\n{line}"


def interleaved_request_cpu(
    servers: Mapping[str, object],
    operations: Sequence[tuple],
    rounds: int,
) -> Dict[str, List[float]]:
    """Per-request CPU seconds of each started server, measured interleaved.

    ``servers`` maps a configuration name to a started
    :class:`~repro.server.server.Server`; ``operations`` are
    ``concurrent_mix_operations`` triples.  Each request runs on every
    server back to back, one request in flight at a time, and the server
    order flips on alternate rounds (ABAB, then BABA), so drift in the
    machine's speed hits every configuration alike.  A request's cost is
    the process CPU time (``time.process_time``) from submit to response:
    with one request in flight that is the worker's execution plus the
    hand-off, without the scheduler and lock waits that make wall-clock
    comparisons of a threaded server noisy.  Returns, per configuration,
    each request's minimum over the rounds (shedding one-off pauses such as
    garbage collection), in ``operations`` order.
    """
    names = list(servers)
    best = {name: [float("inf")] * len(operations) for name in names}
    for round_index in range(rounds):
        order = names if round_index % 2 == 0 else names[::-1]
        for position, (_, statement, params) in enumerate(operations):
            for name in order:
                started = time.process_time()
                response = servers[name].query(statement, params=params)
                cost = time.process_time() - started
                assert response.ok, response.error
                best[name][position] = min(best[name][position], cost)
    return best
