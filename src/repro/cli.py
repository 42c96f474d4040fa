"""Command-line interface.

Six subcommands::

    python -m repro.cli study --dataset purchase100 --protocol samo \
        --nodes 8 --rounds 5 --dynamic --out run.json
    python -m repro.cli study --resume run.ckpt --out run.json
    python -m repro.cli study --telemetry --trace-out spans.jsonl
    python -m repro.cli campaign --dataset purchase100 --scale tiny \
        --grid seed=0,1,2 --grid protocol=samo,base_gossip \
        --out-dir runs/ --jobs 0
    python -m repro.cli report runs/*.json --telemetry
    python -m repro.cli report --trace spans.jsonl
    python -m repro.cli serve --port 8000
    python -m repro.cli figure --id 3 --scale tiny
    python -m repro.cli tables

``study`` runs one experiment as a streaming session (rows print as
rounds complete) and optionally writes JSON/CSV; ``--checkpoint``
snapshots the session every round and ``--resume`` continues a
checkpointed run bit-identically; ``--telemetry``/``--trace-out``
record spans and engine metrics (``docs/observability.md``).
``campaign`` sweeps a grid of configs over a process pool with
per-study result files (re-running with the same ``--out-dir``
resumes). ``report`` inspects saved results and span dumps offline.
``serve`` runs the long-lived HTTP/SSE service (``docs/service.md``).
``figure`` regenerates one paper figure's data series; ``tables``
prints Tables 1 and 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import Field, fields

import numpy as np


# The --scale preset sets these fields: their ``study`` flags default
# to the preset's value (None), and --dataset to the dataset it scales.
_PRESET_DEFAULTS = {
    "dataset": "purchase100", "n_nodes": None, "view_size": None, "rounds": None,
}


def _study_knobs() -> list[tuple[str, Field]]:
    """``(dest, field)`` of every StudyConfig field with a ``study`` flag."""
    from repro.core.config import StudyConfig

    return [
        (f.metadata["flag"].removeprefix("--").replace("-", "_"), f)
        for f in fields(StudyConfig)
        if "flag" in f.metadata
    ]


def _add_study_parser(sub: argparse._SubParsersAction) -> None:
    from repro.core.config import SCALAR_TYPES
    from repro.experiments.configs import SCALES

    p = sub.add_parser("study", help="run one gossip-learning MIA study")
    p.add_argument("--scale", default="tiny", choices=list(SCALES))
    # One flag per field with flag metadata: its type, default, choices
    # and help all come from the field table.
    for _, f in _study_knobs():
        kind = SCALAR_TYPES.get(f.name, (str,))[0]
        options = {
            "default": _PRESET_DEFAULTS.get(f.name, f.default),
            "help": f.metadata.get("help"),
        }
        if kind is bool:
            options["action"] = "store_true"
        elif kind is not str:
            options["type"] = kind
        if "choices" in f.metadata:
            options["choices"] = list(f.metadata["choices"])
        p.add_argument(f.metadata["flag"], **options)
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="snapshot the session here after every round "
                        "(resumable with --resume)")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="continue a checkpointed study (its stored "
                        "config wins; other config flags are ignored)")
    p.add_argument("--out", default=None, help="write RunResult JSON here")
    p.add_argument("--csv", default=None, help="write per-round CSV here")
    p.add_argument("--telemetry", action="store_true",
                   help="record tracing spans + engine metrics during the "
                        "run; prints a phase summary and annotates --out "
                        "JSON with metadata['telemetry']")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the finished spans as JSONL here "
                        "(implies --telemetry; inspect with "
                        "'repro report --trace PATH')")


def _print_round(r) -> None:
    print(
        f"{r.round_index:>5} {r.global_test_accuracy:>9.3f} "
        f"{r.mia_accuracy:>8.3f} {r.mia_tpr_at_1_fpr:>7.3f} "
        f"{r.generalization_error:>8.3f}"
    )


def _run_study(args: argparse.Namespace) -> int:
    from repro.experiments import result_to_csv, save_result
    from repro.telemetry import Telemetry

    telemetry = None
    if args.telemetry or args.trace_out:
        telemetry = Telemetry(enabled=True)
        telemetry.tracer.set_trace_id(f"cli-study-seed{args.seed}")
    try:
        study = _make_study(args, telemetry)
    except ValueError as exc:
        # A bad flag value or a stored config this build no longer
        # loads: a usage error, like the argparse ones.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'round':>5} {'test_acc':>9} {'mia_acc':>8} {'tpr@1%':>7} "
          f"{'gen_err':>8}")
    with study:
        for r in study.records:  # rounds completed before a --resume
            _print_round(r)
        for r in study.iter_rounds():
            _print_round(r)
            if args.checkpoint:
                study.checkpoint(args.checkpoint)
        result = study.result()
    if telemetry is not None:
        _print_phase_summary(telemetry)
        if args.trace_out:
            count = telemetry.tracer.dump_jsonl(args.trace_out)
            print(f"wrote {args.trace_out} ({count} spans)")
    if args.out:
        print(f"wrote {save_result(result, args.out)}")
    if args.csv:
        print(f"wrote {result_to_csv(result, args.csv)}")
    return 0


def _make_study(args: argparse.Namespace, telemetry):
    """The study ``repro study`` runs: resumed, or built from flags."""
    from repro.core.study import Study
    from repro.experiments import scaled_config

    if args.resume:
        return Study.resume(args.resume, telemetry=telemetry)
    # Every flag that holds a value overrides its field of the preset.
    overrides = {
        f.name: getattr(args, dest)
        for dest, f in _study_knobs()
        if getattr(args, dest) is not None
    }
    dataset = overrides.pop("dataset")
    return Study(
        scaled_config(dataset, args.scale, name=f"cli-{dataset}", **overrides),
        telemetry=telemetry,
    )


def _print_phase_summary(telemetry) -> None:
    """Per-phase totals from the run's engine-phase histogram."""
    family = telemetry.registry.snapshot().get("repro_engine_phase_ms")
    if family is None:
        return
    print("phase totals:")
    for series in family["series"]:
        phase = series["labels"].get("phase", "?")
        print(f"  {phase:<10} {series['sum']:>10.1f} ms "
              f"over {series['count']} rounds")


def _parse_axis_value(text: str):
    """CLI sweep literal -> python value (int, float, bool, None, str)."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _add_campaign_parser(sub: argparse._SubParsersAction) -> None:
    from repro.data.datasets import DATASET_BUILDERS
    from repro.experiments.configs import SCALES

    p = sub.add_parser(
        "campaign",
        help="sweep a grid of studies over a process pool",
    )
    p.add_argument("--dataset", default=_PRESET_DEFAULTS["dataset"],
                   choices=list(DATASET_BUILDERS))
    p.add_argument("--scale", default="tiny", choices=list(SCALES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None,
                   help="base name for the campaign's configs "
                        "(default: campaign-<dataset>)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one base-config knob (repeatable), "
                        "e.g. --set rounds=2")
    p.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2,...",
                   help="sweep one knob over comma-separated values "
                        "(repeatable; axes combine as a cartesian grid)")
    p.add_argument("--jobs", type=int, default=0,
                   help="studies in flight at once; 0 = auto "
                        "(CPUs divided by per-study worker demand)")
    p.add_argument("--out-dir", default=None,
                   help="write per-study RunResult JSON here; re-running "
                        "with the same directory resumes the campaign")
    p.add_argument("--summary", default=None, metavar="CSV",
                   help="write the one-row-per-study summary table here")


def _run_campaign(args: argparse.Namespace) -> int:
    from repro.experiments import (
        Campaign,
        results_to_summary_csv,
        scaled_config,
    )

    if not args.grid:
        print("campaign needs at least one --grid axis", file=sys.stderr)
        return 2
    overrides = {"seed": args.seed, "name": args.name or f"campaign-{args.dataset}"}
    for item in args.set:
        key, _, value = item.partition("=")
        if not _:
            print(f"bad --set {item!r} (expected KEY=VALUE)", file=sys.stderr)
            return 2
        overrides[key] = _parse_axis_value(value)
    axes: dict = {}
    for item in args.grid:
        key, _, values = item.partition("=")
        if not _ or not values:
            print(f"bad --grid {item!r} (expected KEY=V1,V2,...)", file=sys.stderr)
            return 2
        axes[key] = [_parse_axis_value(v) for v in values.split(",")]
    try:
        if args.jobs < 0:
            raise ValueError(f"--jobs must be >= 0, got {args.jobs}")
        base = scaled_config(args.dataset, args.scale, **overrides)
        campaign = Campaign.from_grid(base, out_dir=args.out_dir, **axes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"campaign: {len(campaign.configs)} studies")
    results = campaign.run(jobs=args.jobs or None)

    print(f"{'study':<44} {'rounds':>6} {'max_test':>9} {'max_mia':>8} "
          f"{'tpr@1%':>7}")
    for name, result in results.items():
        print(
            f"{name:<44} {len(result.rounds):>6} "
            f"{result.max_test_accuracy:>9.3f} "
            f"{result.max_mia_accuracy:>8.3f} {result.max_mia_tpr:>7.3f}"
        )
    if args.out_dir:
        print(f"per-study results under {args.out_dir}")
    if args.summary:
        print(f"wrote {results_to_summary_csv(results, args.summary)}")
    return 0


def _add_report_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "report",
        help="inspect saved RunResult JSON files and telemetry dumps",
    )
    p.add_argument("results", nargs="*", metavar="RESULT.json",
                   help="RunResult files written by 'repro study --out' "
                        "or a campaign --out-dir")
    p.add_argument("--telemetry", action="store_true",
                   help="also print each result's telemetry metadata "
                        "(per-round wall-clock, span counts)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="pretty-print a span tree from a --trace-out "
                        "JSONL dump")


def _run_report(args: argparse.Namespace) -> int:
    if not args.results and not args.trace:
        print("report needs result files and/or --trace FILE",
              file=sys.stderr)
        return 2
    try:
        _report(args)
    except (OSError, ValueError) as exc:
        # A missing or malformed input file: a usage error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _report(args: argparse.Namespace) -> None:
    from repro.experiments import load_result

    for path in args.results:
        result = load_result(path)
        print(
            f"{result.config_name}: {len(result.rounds)} rounds, "
            f"max_test={result.max_test_accuracy:.3f}, "
            f"max_mia={result.max_mia_accuracy:.3f}"
        )
        if args.telemetry:
            meta = result.metadata or {}
            tel = meta.get("telemetry")
            if tel is None:
                print("  (no telemetry metadata; run with --telemetry)")
                continue
            round_ms = tel.get("round_ms", [])
            if round_ms:
                print(
                    f"  rounds: {len(round_ms)}, "
                    f"total {sum(round_ms):.1f} ms, "
                    f"mean {sum(round_ms) / len(round_ms):.1f} ms, "
                    f"max {max(round_ms):.1f} ms"
                )
            print(
                f"  spans: {tel.get('spans_recorded', 0)} recorded, "
                f"{tel.get('spans_dropped', 0)} dropped"
            )
    if args.trace:
        _print_span_tree(_load_spans(args.trace))


def _load_spans(path: str) -> list[dict]:
    """The span records of a ``--trace-out`` JSONL dump."""
    import json

    spans = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            if not (isinstance(span, dict) and {"span_id", "name"} <= set(span)):
                raise ValueError(f"{path}:{number}: not a span record")
            spans.append(span)
    return spans


def _print_span_tree(spans: list[dict]) -> None:
    """Indented tree of a JSONL span dump, children under parents."""
    children: dict[str, list[dict]] = {}
    known = {span["span_id"] for span in spans}
    roots = []
    for span in spans:
        parent = span.get("parent_id") or ""
        if parent in known:
            children.setdefault(parent, []).append(span)
        else:
            # Orphans (parent fell out of the bounded buffer) print as
            # roots rather than vanishing.
            roots.append(span)

    def emit(span: dict, depth: int) -> None:
        attrs = span.get("attributes") or {}
        extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        line = (
            f"{'  ' * depth}{span['name']} "
            f"{span.get('duration_ms', 0.0):.3f}ms"
        )
        if extra:
            line += f" [{extra}]"
        print(line)
        for child in sorted(
            children.get(span["span_id"], []),
            key=lambda s: s.get("start_ms", 0.0),
        ):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda s: s.get("start_ms", 0.0)):
        emit(root, 0)


def _add_serve_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="run the HTTP/SSE study service (see docs/service.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--job-workers", type=int, default=2,
                   help="study worker threads draining the job queue")
    p.add_argument("--rate-capacity", type=int, default=50,
                   help="token-bucket burst capacity")
    p.add_argument("--rate-refill", type=float, default=25.0,
                   help="token-bucket refill rate (tokens/second)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="where cancelled studies checkpoint for resume "
                        "(default: under --state-dir if given, else a "
                        "private temporary directory)")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="durable job state (journal + snapshot + "
                        "checkpoints); the service recovers submitted "
                        "studies from here after a restart")


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    return serve(
        host=args.host,
        port=args.port,
        job_workers=args.job_workers,
        rate_capacity=args.rate_capacity,
        rate_refill=args.rate_refill,
        checkpoint_dir=args.checkpoint_dir,
        state_dir=args.state_dir,
    )


def _collect_series(obj, prefix="", out=None, key="mia_accuracy"):
    """Find every array named ``key`` in a nested figure result."""
    if out is None:
        out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == key and isinstance(v, np.ndarray):
                out[prefix.rstrip(".") or key] = v
            else:
                _collect_series(v, f"{prefix}{k}.", out, key)
    return out


def _plot_figure(figure_id: int, out: dict) -> None:
    from repro.experiments.plots import ascii_chart

    if figure_id == 10:
        curves = {
            name: curve["mean"] for name, curve in out["curves"].items()
        }
        print(ascii_chart(curves, logy=True))
        return
    key = "max_canary_tpr" if figure_id == 4 else "mia_accuracy"
    series = _collect_series(out, key=key)
    if series:
        print(ascii_chart(dict(list(series.items())[:8])))
    else:
        print("(nothing chartable for this figure)")


def _run_figure(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    fn = getattr(figures, f"figure{args.id}", None)
    if fn is None:
        print(f"no generator for figure {args.id}", file=sys.stderr)
        return 2
    if args.id == 10:
        # Figure 10 always runs at the paper's n=150; the scale knob
        # controls repetition count and horizon.
        grid = {
            "tiny": dict(iterations=40, runs=5),
            "small": dict(iterations=80, runs=15),
            "paper": dict(iterations=125, runs=50),
        }[args.scale]
        out = fn(**grid)
    else:
        out = fn(scale=args.scale)

    def summarize(obj, prefix=""):
        if isinstance(obj, dict):
            for key, value in obj.items():
                summarize(value, f"{prefix}{key}.")
        elif isinstance(obj, np.ndarray):
            flat = np.asarray(obj, dtype=np.float64).ravel()
            print(f"{prefix[:-1]}: "
                  + " ".join(f"{v:.4g}" for v in flat[:12])
                  + (" ..." if flat.size > 12 else ""))
        elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
            for i, row in enumerate(obj):
                print(f"{prefix[:-1]}[{i}]: {row}")
        else:
            print(f"{prefix[:-1]}: {obj}")

    summarize(out)
    if args.plot:
        print()
        _plot_figure(args.id, out)
    return 0


def _run_tables(_: argparse.Namespace) -> int:
    from repro.experiments.tables import render_rows, table1, table2

    print("Table 1 — dataset characteristics")
    print(render_rows(table1()))
    print("\nTable 2 — training configuration")
    print(render_rows(table2()))
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.configs import SCALES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Exposing the Vulnerability of "
        "Decentralized Learning to MIA Through the Lens of Graph Mixing'",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_study_parser(sub)
    _add_campaign_parser(sub)
    _add_report_parser(sub)
    _add_serve_parser(sub)
    fig = sub.add_parser("figure", help="regenerate one paper figure's data")
    fig.add_argument("--id", type=int, required=True, choices=range(2, 11))
    fig.add_argument("--scale", default="tiny", choices=list(SCALES))
    fig.add_argument("--plot", action="store_true",
                     help="render an ASCII chart of the main series")
    sub.add_parser("tables", help="print Tables 1 and 2")

    args = parser.parse_args(argv)
    if args.command == "study":
        return _run_study(args)
    if args.command == "campaign":
        return _run_campaign(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "figure":
        return _run_figure(args)
    return _run_tables(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
