"""``repro serve`` as the service workload runs it.

    python -m benchmarks.e2e.serve_child --report FILE [--trace-seed N]
        serve ARGS...

Runs ``repro.cli.main(["serve", ARGS...])`` unchanged. After the server
shuts down (SIGINT), writes FILE: the process's peak resident set size
and, with ``--trace-seed``, the per-layer metrics of the study rounds
the server ran (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from .procs import peak_rss_mb


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "serve" not in argv:
        raise SystemExit("usage: serve_child --report FILE [--trace-seed N] serve ARGS...")
    split = argv.index("serve")
    parser = argparse.ArgumentParser(prog="serve_child")
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--trace-seed", type=int, default=None)
    args = parser.parse_args(argv[:split])
    serve_argv = argv[split:]

    from repro.cli import main as repro_main

    # SIGINT is how the load generator stops the server; a shell that
    # started the benchmark in the background may have left it ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    tracer = None
    if args.trace_seed is not None:
        from .tracer import LayerTracer

        tracer = LayerTracer(args.trace_seed).install()
    code = repro_main(serve_argv)
    out: dict = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
    tmp = args.report.with_name(args.report.name + ".tmp")
    tmp.write_text(json.dumps(out), encoding="utf-8")
    os.replace(tmp, args.report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
