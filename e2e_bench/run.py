#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout::

    python3 e2e_bench/run.py --workload serve-rw --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced, half the time
each, prints the per-layer metrics and writes the spans to
``e2e_bench/out/``.  Either way
every answer is checked, and the last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The workloads, the seeds and the metric definitions are in
``e2e_bench/config.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    config = json.loads((HERE / "config.json").read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_specs(trace: bool) -> list:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return benchmark["per_layer" if trace else "end_to_end"]


def main(argv=None, config=None) -> int:
    """Run one workload; ``config`` replaces ``config.json`` (the self-tests shrink it)."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import harness

    if config is None:
        config = json.loads((HERE / "config.json").read_text(encoding="utf-8"))
    outcome = harness.run(args.workload, config, args.seed, args.seconds, bool(args.trace))
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {}
    for spec in metric_specs(bool(args.trace)):
        value = outcome.metrics[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload:12s} {spec['name']:30s} {value:14.4f} {spec['unit']}")
    if outcome.recorder is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        outcome.recorder.dump(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
