"""Engine workload child: one study in a fresh process, timed per round.

    python -m benchmarks.e2e.engine_child --workload NAME --seed N --rounds R
        [--setup-only] [--trace]

Reports ``setup`` as soon as round 0's record exists (imports, data,
build and the lazy executor/evaluator set-up of round 0 are all behind
it), then, unless ``--setup-only``, times rounds 1..R-1 one by one,
checks the records and reports ``result``.
"""

from __future__ import annotations

import argparse
from time import perf_counter

from .checks import Checks, check_records, pinned_digest, records_digest
from .procs import environment, peak_rss_mb, report
from .workloads import WORKLOADS, study_payload

# Share of a traced round's wall time that run_round + observe must
# cover for the per-layer numbers to account for the round.
MIN_COVERAGE = 0.95


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="engine_child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.core.study import Study, StudyConfig

    config = StudyConfig.from_dict(
        study_payload(WORKLOADS[args.workload], args.seed, args.rounds)
    )
    tracer = None
    if args.trace:
        from .tracer import LayerTracer

        tracer = LayerTracer(args.seed).install()
    with Study(config) as study:
        rounds = study.iter_rounds()
        report("setup", {"record": next(rounds).to_json()})
        if args.setup_only:
            return 0
        if tracer is not None:
            tracer.reset()
        round_s = []
        for _ in range(args.rounds - 1):
            began = perf_counter()
            next(rounds)
            round_s.append(perf_counter() - began)
        result = study.result()

    lines = [record.to_json() for record in result.rounds]
    checks = Checks()
    check_records(
        checks,
        lines,
        args.rounds,
        pinned_digest(args.workload, args.seed, args.rounds),
        result.metadata["fallback_counts"],
    )
    out = {
        "round_s": round_s,
        "records_sha256": records_digest(lines),
        "peak_rss_mb": peak_rss_mb(),
        "env": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        covered = sum(
            r["run_round_s"] + r["observe_s"]
            for r, wall in zip(tracer.rounds, round_s)
            if r["traced"]
        )
        walls = sum(wall for r, wall in zip(tracer.rounds, round_s) if r["traced"])
        out["coverage"] = covered / walls
        checks.check(
            out["coverage"] >= MIN_COVERAGE,
            f"run_round + observe cover {out['coverage']:.1%} of traced "
            f"round wall time (< {MIN_COVERAGE:.0%})",
        )
    out["checks"] = checks.to_dict()
    report("result", out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
