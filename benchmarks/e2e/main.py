"""``python -m benchmarks.e2e``: run the workloads, print metrics, check outputs.

    python -m benchmarks.e2e [--workload NAME] [--seed N] [--seconds S]
        [--trace [0|1]] [--out FILE]

Each workload runs in its own fresh child process(es), one at a time.
Without ``--trace`` (or with ``--trace 0``) every end-to-end metric is
printed by name with its unit; ``--trace 1`` runs the separate traced
pass and prints the per-layer metrics instead. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit status is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

from .checks import Checks
from .measure import (
    E2E_METRICS,
    LAYER_METRICS,
    REPORTED_LAYERS,
    SVC_UNITS,
    engine_metrics,
    service_metrics,
)
from .procs import ROOT, Child
from .workloads import ENGINE, WORKLOADS, Workload, engine_rounds

SETUP_RUNS = 3
# Every child must finish inside this budget from the start of a
# workload, well within the 180 s a benchmark invocation may take.
WORKLOAD_BUDGET_S = 170.0


def _run_children(
    workload: Workload, seed: int, rounds: int, trace: bool, deadline: float
) -> tuple[list[float], dict, Checks]:
    """Set-up times of fresh engine children and the timed child's result.

    The last child is the timed one; the others stop after round 0.
    A traced pass runs one child only.
    """
    args = ["--workload", workload.name, "--seed", str(seed), "--rounds", str(rounds)]
    runs = 1 if trace else SETUP_RUNS
    checks = Checks()
    setup_s, first_records, result = [], [], {}
    for i in range(runs):
        timed = i == runs - 1
        extra = (["--trace"] if trace else []) + ([] if timed else ["--setup-only"])
        child = Child("engine_child", args + extra, deadline - perf_counter())
        try:
            setup = child.expect("setup")
            setup_s.append(perf_counter() - child.started)
            first_records.append(setup["record"])
            if timed:
                result = child.expect("result")
            child.finish()
        finally:
            child.kill()
    checks.check(
        len(set(first_records)) == 1,
        "round 0 record differs between fresh processes",
    )
    checks.merge(result["checks"])
    return setup_s, result, checks


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One workload: metrics, checks, every sample and the environment."""
    deadline = perf_counter() + WORKLOAD_BUDGET_S
    if workload.kind == ENGINE:
        rounds = engine_rounds(workload, seconds)
        setup_s, result, checks = _run_children(workload, seed, rounds, trace, deadline)
        samples = {"setup_s": setup_s, "round_s": result["round_s"]}
        detail = {"rounds": rounds, "records_sha256": result["records_sha256"]}
        if trace:
            detail["coverage"] = result["coverage"]
        else:
            metrics = engine_metrics(setup_s, result)
    else:
        args = ["--seed", str(seed), "--seconds", str(seconds)]
        child = Child("service_load", args + (["--trace"] if trace else []),
                      deadline - perf_counter())
        try:
            result = child.expect("result")
            child.finish()
        finally:
            child.kill()
        checks = Checks()
        checks.merge(result["checks"])
        samples = {
            "setup_s": result["setup_s"],
            "request_ms": result["request_ms"],
            "study_ms": result["study_ms"],
        }
        detail = dict(result["svc"])
        if not trace:
            metrics = service_metrics(result)
    if trace:
        layers = result["layers"]
        metrics = {name: layers[name] for name in REPORTED_LAYERS}
        detail.update({k: v for k, v in layers.items() if k not in metrics})
        units = {name: LAYER_METRICS[name][0] for name in metrics}
    else:
        units = {name: unit for name, (unit, _) in E2E_METRICS.items()}
    return {
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "detail": detail,
        "checks": checks.to_dict(),
        "samples": samples,
        "env": result["env"],
    }


def _unit(name: str) -> str:
    if name in LAYER_METRICS:
        return LAYER_METRICS[name][0]
    return SVC_UNITS.get(name, "")


def _print_workload(name: str, out: dict) -> None:
    for metric, entry in out["metrics"].items():
        print(f"{name:22s} {metric:28s} {entry['value']:14.4f} {entry['unit']}")
    for key, value in out["detail"].items():
        if isinstance(value, float):
            print(f"{name:22s} {key:28s} {value:14.4f} {_unit(key)}  (detail)")
    for failure in out["checks"]["failures"]:
        print(f"{name:22s} FAILED: {failure}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the study scenarios and the service.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement window of each workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced per-layer pass")
    parser.add_argument("--out", type=Path, help="write the full results as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    loadavg_start = list(os.getloadavg())
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        _print_workload(name, results[name])

    attempted = sum(r["checks"]["attempted"] for r in results.values())
    failed = sum(len(r["checks"]["failures"]) for r in results.values())
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "loadavg_start": loadavg_start,
                    "workloads": results,
                },
                indent=1,
            )
            + "\n",
            encoding="utf-8",
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1
