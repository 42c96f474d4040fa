"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper. The
experiment scale defaults to ``tiny`` (seconds per benchmark) and can
be raised with the ``REPRO_BENCH_SCALE`` environment variable
(``tiny`` / ``small`` / ``paper``).

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark prints the regenerated rows/series and asserts the
qualitative *shape* of the paper's result — who wins, in which
direction — not absolute numbers. README.md lists what each benchmark
checks; ROADMAP.md item 4 says which claims resolve at which scale.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

# BENCH_engine.json layout version. Version 2: top-level
# ``schema_version`` stamp, sections merged incrementally by whichever
# benchmark modules ran (engine throughput, campaign throughput).
BENCH_SCHEMA_VERSION = 2

_REPO = Path(__file__).resolve().parent.parent
_BENCH_PATH = _REPO / "BENCH_engine.json"

# Gates time the tests' reference implementations against the code
# they replaced (e.g. the per-node observer loop, ``reference_observer``),
# so they import from tests/ as the test modules do.
sys.path.insert(0, str(_REPO / "tests"))


def src_loc(root: Path = _REPO / "src") -> int:
    """Lines of Python under ``root`` — what
    ``find src -name '*.py' | xargs cat | wc -l`` prints."""
    return sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))


def update_bench_json(sections: dict, path: Path | None = None) -> None:
    """Merge measured sections into BENCH_engine.json.

    Merging (instead of overwriting) lets each benchmark module own its
    sections and still produce one machine-readable file whether `make
    bench`, `make bench-smoke` or a single module ran.

    The write is atomic (tmp + rename, like the checkpoint files), so a
    crash mid-write never truncates the file, and a corrupt or
    truncated existing file is treated as empty rather than aborting
    the merge.
    """
    from repro.gossip.shard import usable_cpus

    target = _BENCH_PATH if path is None else Path(path)
    data: dict = {}
    if target.exists():
        try:
            loaded = json.loads(target.read_text())
        except ValueError:
            loaded = {}
        if isinstance(loaded, dict):
            data = loaded
    data.pop("schema", None)  # pre-versioning key from schema 1
    data.update(sections)
    data["schema_version"] = BENCH_SCHEMA_VERSION
    data["unit"] = "ms"
    data["cpus"] = usable_cpus()
    # Code size rides the perf trajectory: a PR that deletes code shows
    # it here next to the timings it kept.
    data["src_loc"] = src_loc()
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, target)


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "tiny")
    if scale not in {"tiny", "small", "paper"}:
        raise ValueError(f"bad REPRO_BENCH_SCALE {scale!r}")
    return scale


@pytest.fixture
def scale() -> str:
    return bench_scale()


def print_series(title: str, series, fmt: str = "{:.3f}") -> None:
    """Print a labeled numeric series on one line."""
    values = " ".join(fmt.format(v) for v in series)
    print(f"{title}: {values}")


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Experiments are too slow for statistical repetition; one timed
    round still records wall-clock in the benchmark table.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
