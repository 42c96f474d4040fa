"""Compare two sets of benchmark results, one row per (workload, metric).

    python -m benchmarks.e2e.compare --base A1.json A2.json ... --new B1.json ...

Each file is the ``--out`` JSON of one ``python -m benchmarks.e2e`` run
(one workload or all). For each (workload, metric), the i-th run of it
on the ``--base`` side is paired with the i-th on the ``--new`` side, so
pass the runs in the order they were made. A row shows each
set's median and quartiles (``statistics.quantiles(values, n=4)``),
how many pairs the new side won (ties count for neither) and a verdict
against the bounds of ``BENCHMARK.json``:

* ``improved``: the new side won at least 9/10 of the pairs and the
  medians differ, in its favour, by more than the base quartile
  distance;
* ``regressed``: the new median is worse than the base median by more
  than the metric's bound;
* ``unresolved``: either set's quartile distance, as a share of its
  median, is wider than the bound, and not every new run beats every
  base run;
* ``unchanged``: otherwise.

Per-layer metrics have no bound or direction; their rows show the
medians and quartiles only.
Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from .procs import ROOT


def load_runs(paths: list[Path]) -> tuple[dict[tuple[str, str], list[float]], dict]:
    """(workload, metric) -> values in file order, and -> unit."""
    values: dict[tuple[str, str], list[float]] = {}
    units: dict[tuple[str, str], str] = {}
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        for workload, result in data["workloads"].items():
            for name, entry in result["metrics"].items():
                values.setdefault((workload, name), []).append(entry["value"])
                units[(workload, name)] = entry["unit"]
    return values, units


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[int, str]:
    """(pairs the new side won, verdict) for one end-to-end metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    pairs = min(len(base), len(new))
    b_med, b_q1, b_q3 = spread(base)
    n_med, n_q1, n_q3 = spread(new)
    if wins * 10 >= 9 * pairs and sign * (n_med - b_med) > b_q3 - b_q1:
        return wins, "improved"
    if -sign * (n_med - b_med) > bound * abs(b_med):
        return wins, "regressed"
    wider = max((b_q3 - b_q1) / abs(b_med), (n_q3 - n_q1) / abs(n_med)) > bound
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if wider and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare")
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    (base_runs, units), (new_runs, _) = load_runs(args.base), load_runs(args.new)
    keys = [
        k for k in base_runs
        if len(base_runs[k]) >= 2 and len(new_runs.get(k, ())) >= 2
    ]
    if not keys:
        parser.error("need at least two runs of a workload on each side")
    print(
        f"{'workload':22s} {'metric':28s} {'unit':6s} "
        f"{'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s} "
        f"{'wins':>6s}  verdict"
    )
    regressed = False
    for workload, name in keys:
        unit = units[(workload, name)]
        base, new = base_runs[(workload, name)], new_runs[(workload, name)]
        metric = e2e.get(name)
        wins, result = "-", "-"
        if metric is not None:
            won, result = verdict(base, new, metric["better"], metric["bound"])
            wins = f"{won}/{min(len(base), len(new))}"
        regressed |= result == "regressed"
        cells = []
        for values in (base, new):
            median, q1, q3 = spread(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        print(
            f"{workload:22s} {name:28s} {unit:6s} {cells[0]:>32s} {cells[1]:>32s} "
            f"{wins:>6s}  {result}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
