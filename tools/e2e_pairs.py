#!/usr/bin/env python
"""Alternating base/change pairs of one end-to-end benchmark workload.

Checks out a base git ref next to the working tree, runs one workload
of ``benchmarks/e2e`` once on each side per pair (the side that runs
first alternates from pair to pair, so a drift of the host lands on
both sides), then prints ``python -m benchmarks.e2e.compare`` over the
two sets of runs and exits with its status.

Usage::

    python tools/e2e_pairs.py --base REF --workload NAME [--seed S]
        [--seconds N] [--pairs 10] [--out-dir DIR] [--dry-run]

The base side is a ``git worktree add --detach`` checkout of REF in a
temporary directory, removed when the tool exits, whatever happened.
Pair i writes ``DIR/base-ii.json`` and ``DIR/new-ii.json``; without
``--out-dir`` DIR is a new temporary directory, kept and printed at the
end. ``--dry-run`` prints the command sequence and runs nothing.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_RUN = str(Path("benchmarks") / "e2e" / "run.py")

# argv, working directory, environment overrides.
Command = tuple[list[str], Path, dict[str, str]]


def pair_order(pairs: int) -> list[tuple[int, str]]:
    """(pair index, side) in run order: the base side runs first in
    even pairs, the change in odd ones."""
    order: list[tuple[int, str]] = []
    for i in range(pairs):
        sides = ("base", "new") if i % 2 == 0 else ("new", "base")
        order.extend((i, side) for side in sides)
    return order


def run_file(out_dir: Path, side: str, pair: int) -> Path:
    return out_dir / f"{side}-{pair:02d}.json"


def plan(
    base_ref: str,
    base_dir: Path,
    new_dir: Path,
    out_dir: Path,
    workload: str,
    seed: int,
    seconds: float,
    pairs: int,
) -> list[Command]:
    """The whole sequence: add the base worktree, every benchmark run
    (each importing the program of its own checkout), the comparison,
    and remove the worktree."""
    commands: list[Command] = [(
        ["git", "worktree", "add", "--detach", str(base_dir), base_ref],
        new_dir, {},
    )]
    for pair, side in pair_order(pairs):
        root = base_dir if side == "base" else new_dir
        argv = [
            sys.executable, _RUN,
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", f"{seconds:g}",
            "--out", str(run_file(out_dir, side, pair)),
        ]
        commands.append((argv, root, {"PYTHONPATH": str(root / "src")}))
    compare = [sys.executable, "-m", "benchmarks.e2e.compare", "--base"]
    compare += [str(run_file(out_dir, "base", i)) for i in range(pairs)]
    compare += ["--new"]
    compare += [str(run_file(out_dir, "new", i)) for i in range(pairs)]
    commands.append((compare, new_dir, {"PYTHONPATH": str(new_dir / "src")}))
    commands.append((
        ["git", "worktree", "remove", "--force", str(base_dir)], new_dir, {}
    ))
    return commands


def render(command: Command) -> str:
    argv, cwd, env = command
    assigns = "".join(f"{k}={shlex.quote(v)} " for k, v in env.items())
    return f"(cd {shlex.quote(str(cwd))} && {assigns}{shlex.join(argv)})"


def _run(command: Command, echo: bool = True) -> int:
    argv, cwd, env = command
    if echo:
        print(render(command), flush=True)
    return subprocess.run(argv, cwd=cwd, env={**os.environ, **env}).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/e2e_pairs.py",
        description="Alternating base/change pairs of one e2e workload.",
    )
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out-dir", type=Path, help="where the run JSONs go")
    parser.add_argument(
        "--dry-run", action="store_true", help="print the commands only"
    )
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (compare needs two runs a side)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    def commands(tmp: Path, out_dir: Path) -> list[Command]:
        return plan(
            args.base, tmp / "base", _REPO, out_dir.resolve(), args.workload,
            args.seed, args.seconds, args.pairs,
        )

    if args.dry_run:
        tmp = Path(tempfile.gettempdir()) / "e2e-pairs-XXXXXX"
        for command in commands(tmp, args.out_dir or tmp / "runs"):
            print(render(command))
        return 0
    out_dir = args.out_dir or Path(tempfile.mkdtemp(prefix="e2e-pairs-runs-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="e2e-pairs-") as tmp:
        add, *runs, compare, remove = commands(Path(tmp), out_dir)
        if _run(add) != 0:
            return 2
        try:
            for run in runs:
                status = _run(run)
                if status != 0:
                    print(f"benchmark run failed with status {status}")
                    return status
            status = _run(compare)
            print(f"run files: {out_dir}")
            return status
        finally:
            # No echo: a closed stdout must not keep the worktree.
            _run(remove, echo=False)


if __name__ == "__main__":
    sys.exit(main())
