"""The CPU count a process may use.

One process runs a study: the sharded executor that lived here, its
shared-memory arena and its observer protocol were removed, because
they lost to the serial executor end to end on every engine workload
at their default BLAS threading. What is left is :func:`usable_cpus`.
The module keeps its name because the campaign runner, the CPU-gated
tests and the benchmark harness import it from here, and the
end-to-end tracer imports the module itself.
"""

from __future__ import annotations

import os

__all__ = ["usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform exposes one (``taskset`` and container CPU sets shrink it
    below ``os.cpu_count()``), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
