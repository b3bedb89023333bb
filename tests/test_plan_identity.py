"""Plan identity: the optimizer's choices are pinned in a committed fixture.

For every statement of :mod:`repro.workloads.queries` — the concurrent-mix
reads (T-SQL through a cold :class:`~repro.session.session.Session`, every
parameter set) and the algebra registry :data:`WORKLOAD_QUERIES` (through
:meth:`~repro.stratum.layer.TemporalDatabase.optimize_plan`) — at scale 8
and scale 200 of :func:`~repro.workloads.scaled_paper_workload`, with
statistics on and off, the fixture records the chosen plan, its cost, the
memo counters that describe *what* the search explored (plans considered,
expressions, groups, merges, sweeps, rule firings) and the plans the DBMS
chose for the fragments the stratum ships to it.  The session reads also
record a digest of their answer.

Counters describing *how much work* the search did to get there
(``applications_attempted``, skipped tasks) are deliberately absent: making
exploration cheaper must not move anything recorded here.

Regenerate (only when a plan change is intended) with::

    PYTHONPATH=src python tests/test_plan_identity.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, List

import pytest

import repro
from repro import Session
from repro.core.operations import Operation, TransferToStratum
from repro.workloads import scaled_paper_workload
from repro.workloads.queries import CONCURRENT_MIX_READS, WORKLOAD_QUERIES

FIXTURE = Path(__file__).resolve().parent / "data" / "plan_identity.json"
SCALES = (8, 200)
SEED = 1


def _database(scale: int, use_statistics: bool):
    database = repro.connect(repro.ExecutionOptions(use_statistics=use_statistics))
    employee, project = scaled_paper_workload(scale, SEED)
    database.register("EMPLOYEE", employee)
    database.register("PROJECT", project)
    return database


def _fragment_plans(database, plan: Operation) -> List[str]:
    """The DBMS's own plan for every fragment below a ``TS``, in pre-order."""
    return [
        database.dbms.optimize(node.child).pretty()
        for _, node in plan.locations()
        if isinstance(node, TransferToStratum)
    ]


def _record(database, optimization, executed_plan: Operation) -> Dict[str, object]:
    statistics = optimization.search.statistics
    return {
        "plan": optimization.chosen_plan.pretty(),
        "cost": optimization.chosen_cost.total,
        "plans_considered": statistics.plans_considered,
        "expressions": statistics.expressions,
        "groups": statistics.groups,
        "merges": statistics.merges,
        "sweeps": statistics.sweeps,
        "applications_succeeded": statistics.applications_succeeded,
        "rule_usage": dict(sorted(statistics.rule_usage.items())),
        "rules_applied": list(optimization.search.rules_applied),
        "fragments": _fragment_plans(database, executed_plan),
    }


def _answer_digest(relation) -> str:
    rows = repr([row.values() for row in relation])
    return hashlib.sha256(rows.encode("utf-8")).hexdigest()


def observe() -> Dict[str, Dict[str, object]]:
    """Every case's record, keyed ``scale/statistics/kind/name``."""
    cases: Dict[str, Dict[str, object]] = {}
    for scale in SCALES:
        for use_statistics in (False, True):
            database = _database(scale, use_statistics)
            prefix = f"scale{scale}/stats-{'on' if use_statistics else 'off'}"
            for read in CONCURRENT_MIX_READS:
                for params in read.params:
                    result = Session(database).execute(read.statement, params)
                    record = _record(database, result.optimization, result.plan)
                    record["rows"] = len(result.relation)
                    record["answer_sha256"] = _answer_digest(result.relation)
                    label = ",".join(str(value) for value in params)
                    cases[f"{prefix}/sql/{read.name}({label})"] = record
            for entry in WORKLOAD_QUERIES:
                plan, spec = entry.build()
                optimization = database.optimize_plan(plan, spec)
                cases[f"{prefix}/registry/{entry.name}"] = _record(
                    database, optimization, optimization.chosen_plan
                )
    return cases


@pytest.fixture(scope="module")
def observed() -> Dict[str, Dict[str, object]]:
    return observe()


@functools.lru_cache(maxsize=None)
def _expected() -> Dict[str, Dict[str, object]]:
    # A missing fixture collects no per-case tests; the coverage test fails.
    if not FIXTURE.exists():
        return {}
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(observed):
    assert sorted(observed) == sorted(_expected())


@pytest.mark.parametrize("case", sorted(_expected()))
def test_plan_identity(observed, case):
    expected = _expected()[case]
    actual = observed[case]
    assert math.isclose(actual["cost"], expected["cost"], rel_tol=1e-12), case
    assert {key: value for key, value in actual.items() if key != "cost"} == {
        key: value for key, value in expected.items() if key != "cost"
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_plan_identity.py --write")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
