#!/usr/bin/env python
"""Compare the working-tree BENCH_engine.json with the committed one.

Prints old, new and new/old for every numeric leaf. An entry that
records a median and an IQR (``<name>median_ms`` beside
``<name>iqr_ms``) is flagged when the two medians differ by more than
the larger of the two IQRs, i.e. when the move is outside the noise
either side measured. It only reports: the exit status is 0 whatever
moved, and a missing or unreadable side is a note, not an error.

Usage:
    python tools/bench_diff.py              # BENCH_engine.json vs HEAD's
    python tools/bench_diff.py OLD NEW      # two BENCH files
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_BENCH = "BENCH_engine.json"


def numeric_leaves(data: dict, prefix: str = "") -> dict[str, float]:
    """Every int/float leaf of a nested dict, keyed by its dotted path."""
    out: dict[str, float] = {}
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(numeric_leaves(value, path + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[path] = float(value)
    return out


def moved_beyond_iqr(old: dict, new: dict) -> list[str]:
    """Dotted paths of medians that moved by more than the larger IQR."""
    leaves_old, leaves_new = numeric_leaves(old), numeric_leaves(new)
    flagged = []
    for path, median_old in leaves_old.items():
        name = path.rsplit(".", 1)[-1]
        if "median" not in name or path not in leaves_new:
            continue
        iqr_path = path[: len(path) - len(name)] + name.replace("median", "iqr")
        if iqr_path not in leaves_old or iqr_path not in leaves_new:
            continue
        band = max(leaves_old[iqr_path], leaves_new[iqr_path])
        if abs(leaves_new[path] - median_old) > band:
            flagged.append(path)
    return flagged


def report(old: dict, new: dict) -> list[str]:
    """One line per numeric leaf (old, new, new/old) and a flag column."""
    leaves_old, leaves_new = numeric_leaves(old), numeric_leaves(new)
    flagged = set(moved_beyond_iqr(old, new))
    lines = [f"{'entry':<58} {'old':>12} {'new':>12} {'new/old':>8}"]
    for path in sorted(leaves_old.keys() | leaves_new.keys()):
        a, b = leaves_old.get(path), leaves_new.get(path)
        ratio = f"{b / a:.3f}" if a and b is not None else "-"
        cells = [f"{v:.3f}" if v is not None else "-" for v in (a, b)]
        flag = "  <- moved beyond IQR" if path in flagged else ""
        lines.append(
            f"{path:<58} {cells[0]:>12} {cells[1]:>12} {ratio:>8}{flag}"
        )
    lines.append(f"{len(flagged)} median(s) moved beyond the larger IQR")
    return lines


def _load_head() -> dict | None:
    try:
        text = subprocess.run(
            ["git", "show", f"HEAD:{_BENCH}"],
            cwd=_REPO,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return _parse(text)


def _parse(text: str) -> dict | None:
    try:
        data = json.loads(text)
    except ValueError:
        return None
    return data if isinstance(data, dict) else None


def _read(path: Path) -> dict | None:
    try:
        return _parse(path.read_text())
    except OSError:
        return None


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        old, new = (_read(Path(p)) for p in argv)
    else:
        old, new = _load_head(), _read(_REPO / _BENCH)
    if old is None or new is None:
        print("bench_diff: nothing to compare (a side is missing or not JSON)")
        return 0
    print("\n".join(report(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
