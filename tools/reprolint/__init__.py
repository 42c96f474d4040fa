"""reprolint — the repo's invariant checker.

Every rule here is a postmortem made permanent: the determinism
contract the executor-equivalence suites assert dynamically (PRs 3-6),
the service-layer race sweep of PR 8, the close discipline of
executors, simulators and service objects (PR 4), and PR 9's
telemetry-travels-by-reference purity
rule. ``make lint`` runs it over the whole tree; a new violation of
any of these invariants fails CI before it can ship.

Stdlib-only (``ast`` + ``argparse``); see ``docs/static-analysis.md``
for the rule catalog and suppression syntax.
"""

from tools.reprolint.core import (
    Finding,
    ModuleContext,
    Project,
    Rule,
    all_rules,
    analyze_source,
)
from tools.reprolint.driver import main

__all__ = [
    "Finding",
    "ModuleContext",
    "Project",
    "Rule",
    "all_rules",
    "analyze_source",
    "main",
]

__version__ = "1.0"
