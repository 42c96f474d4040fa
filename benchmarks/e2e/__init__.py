"""End-to-end benchmark of the paper's study scenarios and the service.

``python -m benchmarks.e2e`` runs every workload in ``workloads.py``,
each in its own fresh child process, prints every end-to-end metric by
name with its unit, checks that the outputs are correct, and exits
non-zero on any failed check. ``--trace 1`` runs a separate traced pass
that reports per-layer numbers instead. See ``README.md``.
"""
