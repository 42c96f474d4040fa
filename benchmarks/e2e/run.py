"""Script entry point: ``python3 benchmarks/e2e/run.py ARGS`` from the repo root.

Same as ``python -m benchmarks.e2e ARGS``; see ``main.py``.
"""

import sys
from pathlib import Path

# Run as a script, this directory is sys.path[0]; import the package
# from the repository root instead, so module names cannot shadow others.
_ROOT = Path(__file__).resolve().parents[2]
sys.path[0] = str(_ROOT)

from benchmarks.e2e.main import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
