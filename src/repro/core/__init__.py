"""High-level study API — the paper's primary contribution.

:class:`~repro.core.study.Study` wires datasets, partitioning,
topology, protocol, training and the omniscient MIA observer into one
reproducible *session* — build, stream rounds, checkpoint/resume —
returning per-round records of every Section 3.2 metric.
:func:`~repro.core.study.run_study` is the one-call wrapper;
:mod:`repro.core.config` holds :class:`~repro.core.config.StudyConfig`
and :func:`~repro.core.config.config_hash`.
"""

from repro.core.attacker import OmniscientObserver
from repro.core.config import StudyConfig, config_hash
from repro.core.study import Study, run_study

__all__ = [
    "OmniscientObserver",
    "config_hash",
    "Study",
    "StudyConfig",
    "run_study",
]
