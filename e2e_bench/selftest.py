"""Self-tests of the benchmark: metric names and units, and the answer checks.

Run from the root of a checkout::

    python3 -m pytest -q e2e_bench/selftest.py

The file name keeps these tests out of the repository's default test run;
they start servers and run every workload, at a tiny scale.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import run  # noqa: E402
from checks import AnswerChecker, reference_answer  # noqa: E402
from repro import Relation, Session  # noqa: E402
from repro.workloads.queries import PAPER_SQL  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
CONFIG = json.loads((HERE / "config.json").read_text(encoding="utf-8"))


def tiny_config(scale: int = 3) -> dict:
    config = copy.deepcopy(CONFIG)
    config["append_probe"] = {"bursts": 2, "burst": 2}
    for spec in config["workloads"].values():
        spec["scale"] = scale
        spec["setup_repeats"] = 1
    config["workloads"]["serve-rw"]["rate_ops_per_s"] = 20
    return config


def run_main(capsys, workload: str, trace: int, config: dict) -> dict:
    argv = ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, config=config) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CONFIG["workloads"]))
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload, trace):
    result = run_main(capsys, workload, trace, tiny_config())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        for name in ("throughput_qps", "latency_p50_ms", "latency_p95_ms", "append_p50_ms",
                     "setup_s", "peak_rss_mb", "success_rate", "slo_met_share"):
            assert result["metrics"][name]["value"] > 0, name


def _reversed(relation: Relation) -> Relation:
    return Relation(relation.schema, tuple(reversed(relation.tuples)))


def test_checker_rejects_a_reversed_paper_answer():
    config = tiny_config(scale=4)
    workload = harness.WarmMix(config["workloads"]["warm-mix"], 5, config["append_probe"])
    workload.setup()
    reference, _ = reference_answer(workload.database, PAPER_SQL, ())
    assert len({t["EmpName"] for t in reference.tuples}) >= 2
    served = workload.session.execute(PAPER_SQL).relation

    def reference_for(key):
        return reference_answer(workload.database, *key)

    good = AnswerChecker()
    good.observe_relation((PAPER_SQL, ()), served)
    good.observe_relation((PAPER_SQL, ()), served)
    good.verify(reference_for)
    assert good.errors == []

    bad = AnswerChecker()
    bad.observe_relation((PAPER_SQL, ()), _reversed(served))
    bad.verify(reference_for)
    assert bad.errors and "not acceptable" in bad.errors[0]

    drifting = AnswerChecker()
    drifting.observe_relation((PAPER_SQL, ()), served)
    drifting.observe_relation((PAPER_SQL, ()), _reversed(served))
    assert drifting.errors and "differs from the first" in drifting.errors[0]


def test_planted_wrong_answer_fails_the_run(capsys, monkeypatch):
    execute = Session.execute

    def reversing_execute(self, statement, *args, **kwargs):
        result = execute(self, statement, *args, **kwargs)
        if statement == PAPER_SQL:
            result = dataclasses.replace(result, relation=_reversed(result.relation))
        return result

    monkeypatch.setattr(Session, "execute", reversing_execute)
    result = run_main(capsys, "warm-mix", 0, tiny_config(scale=4))
    assert result["correct"] is False
