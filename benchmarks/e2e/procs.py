"""Child processes of the benchmark and the environment they run in.

Children talk to the parent over stdout in lines of the form
``E2E <kind> <json>``; anything else they print is passed through to
the parent's stderr.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
# Removed from every child's environment so that both commits of a
# comparison run with the program's own BLAS/OpenMP threading.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_PREFIX = "E2E "


class ChildFailed(RuntimeError):
    """A child exited, crashed or timed out before reporting."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def report(kind: str, payload: dict) -> None:
    """Child side: send one report line to the parent."""
    print(f"{_PREFIX}{kind} {json.dumps(payload)}", flush=True)


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Child:
    """One ``python -m benchmarks.e2e.<module>`` child, stopped at a deadline.

    At the deadline the child gets SIGTERM (the service child then stops
    its server before exiting) and, ten seconds later, SIGKILL.
    """

    def __init__(self, module: str, args: list[str], timeout_s: float) -> None:
        self.module = module
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", f"benchmarks.e2e.{module}", *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        self._timer = threading.Timer(timeout_s, self._expire)
        self._timer.daemon = True
        self._timer.start()

    def _expire(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()

    def expect(self, kind: str) -> dict:
        """Read until the child reports ``kind``; returns its payload."""
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.startswith(_PREFIX):
                got, _, body = line[len(_PREFIX):].rstrip("\n").partition(" ")
                if got == kind:
                    return json.loads(body)
            sys.stderr.write(line)
        self.finish(check=False)
        raise ChildFailed(
            f"{self.module} exited with {self.proc.returncode} before "
            f"reporting {kind!r}"
        )

    def finish(self, check: bool = True) -> None:
        """Wait for exit (idempotent); with ``check``, a non-zero status raises."""
        stdout = self.proc.stdout
        assert stdout is not None
        if not stdout.closed:
            for line in stdout:
                sys.stderr.write(line)
            stdout.close()
        self.proc.wait()
        self._timer.cancel()
        if check and self.proc.returncode != 0:
            raise ChildFailed(f"{self.module} exited with {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.finish(check=False)


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    """What the numbers depend on besides the code: recorded per result."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": _git_sha(),
        "loadavg": list(os.getloadavg()),
    }
