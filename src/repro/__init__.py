"""repro — reproduction of "Exposing the Vulnerability of Decentralized
Learning to Membership Inference Attacks Through the Lens of Graph
Mixing" (Touat et al., MIDDLEWARE 2025).

Public entry points:

* :func:`repro.core.run_study` / :class:`repro.core.StudyConfig` —
  run a full gossip-learning + MIA study in one call.
* :class:`repro.core.Study` — the session API: build once, stream
  rounds, checkpoint/resume, clean up via context manager.
* :func:`repro.core.config_hash` — the canonical identity of a
  ``StudyConfig``; ``to_dict`` groups its fields into data, model,
  topology, execution and privacy sections.
* :class:`repro.experiments.Campaign` — sweep builders + parallel
  execution over many studies.
* :mod:`repro.graph.mixing` — the Section 4 spectral analysis.
* :mod:`repro.experiments` — per-figure/table regeneration.
"""

from repro.core import Study, StudyConfig, run_study

__version__ = "1.1.0"

__all__ = [
    "Study",
    "StudyConfig",
    "run_study",
    "__version__",
]
