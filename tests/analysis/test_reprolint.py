"""Tests for ``tools.reprolint`` — the repo's invariant checker.

The fixture corpus under ``tests/analysis/fixtures/`` holds a ``bad``
tree (every rule violated at least once, under the package paths the
rules scope to) and a ``clean`` twin (the same shapes written inside
the contracts). The driver is pointed at those trees via ``--root``,
which also exercises the path-scoping logic itself.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tools.reprolint import analyze_source
from tools.reprolint.core import all_rules
from tools.reprolint.driver import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_lint(args, capsys):
    """Run the CLI entry point, returning (exit_code, stdout lines)."""
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, [line for line in out.splitlines() if line]


def finding_pairs(lines):
    """Parse ``path:line rule message`` output into (path, rule) pairs."""
    pairs = []
    for line in lines:
        if line.startswith("reprolint:"):
            continue
        location, rule, _ = line.split(" ", 2)
        pairs.append((location.rsplit(":", 1)[0], rule))
    return pairs


def write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TestFixtureCorpus:
    def test_bad_tree_fires_every_rule_family(self, capsys):
        code, lines = run_lint(
            ["src", "--root", FIXTURES / "bad", "--no-baseline"], capsys
        )
        assert code == 1
        pairs = finding_pairs(lines)
        fired = {rule for _, rule in pairs}
        assert fired == {
            "det-wall-clock",
            "det-perf-counter",
            "det-random",
            "det-unseeded-rng",
            "det-set-iter",
            "det-hash-seed",
            "lock-order-cycle",
            "lock-blocking-call",
            "lifecycle-unmanaged",
            "purity-mutable-default",
            "purity-config-field",
            "purity-telemetry-field",
            "purity-config-import",
            "purity-oracle-import",
        }
        # Findings land in the files that stage them — scoping routes
        # each family to its package.
        by_file = {}
        for path, rule in pairs:
            by_file.setdefault(path, set()).add(rule)
        assert by_file["src/repro/gossip/timing.py"] == {
            "det-wall-clock",
            "det-perf-counter",
            "det-random",
            "det-unseeded-rng",
            "det-set-iter",
            "det-hash-seed",
        }
        assert by_file["src/repro/service/locks.py"] == {
            "lock-order-cycle",
            "lock-blocking-call",
        }
        assert by_file["src/repro/core/lifecycle.py"] == {"lifecycle-unmanaged"}
        assert by_file["src/repro/core/config.py"] == {"purity-config-import"}

    def test_bad_tree_finding_counts(self, capsys):
        """Each staged violation is reported exactly once."""
        _, lines = run_lint(
            ["src", "--root", FIXTURES / "bad", "--no-baseline"], capsys
        )
        pairs = finding_pairs(lines)
        counts = {}
        for _, rule in pairs:
            counts[rule] = counts.get(rule, 0) + 1
        assert counts["det-wall-clock"] == 2  # time.time + datetime.now
        assert counts["det-set-iter"] == 2  # for-loop + comprehension
        assert counts["lock-order-cycle"] == 1  # one cycle, reported once
        assert counts["lock-blocking-call"] == 4  # open/dump/record/callback
        assert counts["lifecycle-unmanaged"] == 2  # direct + subclass
        assert counts["purity-mutable-default"] == 2  # list + dict literal
        assert counts["purity-oracle-import"] == 2  # oracle + tests package

    def test_clean_tree_is_quiet(self, capsys):
        code, lines = run_lint(
            ["src", "--root", FIXTURES / "clean", "--no-baseline"], capsys
        )
        assert code == 0
        assert lines == [f"reprolint: clean (5 files)"]

    def test_scoped_rules_stay_quiet_outside_their_packages(
        self, tmp_path, capsys
    ):
        """The same violating sources produce nothing when they live
        outside the packages their rules scope to."""
        timing = (FIXTURES / "bad/src/repro/gossip/timing.py").read_text()
        locks = (FIXTURES / "bad/src/repro/service/locks.py").read_text()
        # experiments/ is not a deterministic package; gossip/ is not a
        # lock package.
        write(tmp_path, "src/repro/experiments/timing.py", timing)
        write(tmp_path, "src/repro/gossip/locks.py", locks)
        code, lines = run_lint(
            ["src", "--root", tmp_path, "--no-baseline"], capsys
        )
        assert code == 0
        assert finding_pairs(lines) == []


class TestSuppressions:
    PATH = "src/repro/gossip/mod.py"
    VIOLATION = "import time\n\ndef stamp():\n    return time.time(){comment}\n"

    def test_wellformed_suppression_silences_the_finding(self):
        source = self.VIOLATION.format(
            comment="  # reprolint: allow[det-wall-clock] -- cache TTL wants wall time"
        )
        assert analyze_source(source, self.PATH) == []

    def test_suppression_without_reason_is_itself_a_finding(self):
        source = self.VIOLATION.format(
            comment="  # reprolint: allow[det-wall-clock]"
        )
        rules = {f.rule for f in analyze_source(source, self.PATH)}
        # The malformed directive is flagged AND the original finding
        # survives — an unjustified suppression buys nothing.
        assert rules == {"bad-suppression", "det-wall-clock"}

    def test_suppression_for_a_different_rule_does_not_silence(self):
        source = self.VIOLATION.format(
            comment="  # reprolint: allow[det-random] -- wrong rule"
        )
        rules = {f.rule for f in analyze_source(source, self.PATH)}
        assert "det-wall-clock" in rules

    def test_unclosed_directive_is_flagged(self):
        source = self.VIOLATION.format(
            comment="  # reprolint: allow[det-wall-clock -- missing bracket"
        )
        rules = {f.rule for f in analyze_source(source, self.PATH)}
        assert "bad-suppression" in rules

    def test_one_comment_may_allow_several_rules(self):
        source = (
            "import time, uuid\n\ndef stamp():\n"
            "    return time.time(), uuid.uuid4()"
            "  # reprolint: allow[det-wall-clock, det-hash-seed] -- demo of both\n"
        )
        assert analyze_source(source, self.PATH) == []

    def test_prose_mentioning_the_tool_is_not_a_directive(self):
        source = "# reprolint: the checker described in docs/static-analysis.md\nX = 1\n"
        assert analyze_source(source, self.PATH) == []


class TestBaseline:
    VIOLATING = "import time\n\n\ndef stamp():\n    return time.time()\n"

    def seed_tree(self, root: Path) -> Path:
        return write(root, "src/repro/gossip/clock.py", self.VIOLATING)

    def test_write_baseline_then_clean_run(self, tmp_path, capsys):
        self.seed_tree(tmp_path)
        code, lines = run_lint(
            ["src", "--root", tmp_path, "--baseline", "bl.json",
             "--write-baseline"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "bl.json").exists()
        assert "wrote 1 finding(s)" in lines[0]
        code, lines = run_lint(
            ["src", "--root", tmp_path, "--baseline", "bl.json"], capsys
        )
        assert code == 0
        assert finding_pairs(lines) == []

    def test_new_violation_not_covered_by_baseline(self, tmp_path, capsys):
        path = self.seed_tree(tmp_path)
        run_lint(
            ["src", "--root", tmp_path, "--baseline", "bl.json",
             "--write-baseline"],
            capsys,
        )
        # A second identical call on a new line exceeds the baselined
        # count budget: exactly one finding resurfaces.
        path.write_text(
            self.VIOLATING + "\n\ndef stamp_again():\n    return time.time()\n"
        )
        code, lines = run_lint(
            ["src", "--root", tmp_path, "--baseline", "bl.json"], capsys
        )
        assert code == 1
        assert finding_pairs(lines) == [
            ("src/repro/gossip/clock.py", "det-wall-clock")
        ]

    def test_no_baseline_flag_reports_baselined_findings(self, tmp_path, capsys):
        self.seed_tree(tmp_path)
        run_lint(
            ["src", "--root", tmp_path, "--baseline", "bl.json",
             "--write-baseline"],
            capsys,
        )
        code, lines = run_lint(
            ["src", "--root", tmp_path, "--baseline", "bl.json",
             "--no-baseline"],
            capsys,
        )
        assert code == 1
        assert finding_pairs(lines) == [
            ("src/repro/gossip/clock.py", "det-wall-clock")
        ]

    def test_missing_baseline_file_means_empty_budget(self, tmp_path, capsys):
        self.seed_tree(tmp_path)
        code, lines = run_lint(
            ["src", "--root", tmp_path, "--baseline", "absent.json"], capsys
        )
        assert code == 1
        assert len(finding_pairs(lines)) == 1


class TestDriverContract:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write(tmp_path, "src/repro/gossip/ok.py", "X = 1\n")
        code, _ = run_lint(["src", "--root", tmp_path, "--no-baseline"], capsys)
        assert code == 0

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        write(tmp_path, "src/repro/gossip/ok.py", "X = 1\n")
        code, _ = run_lint(
            ["src", "--root", tmp_path, "--no-baseline",
             "--select", "not-a-rule"],
            capsys,
        )
        assert code == 2

    def test_exit_two_on_missing_target(self, tmp_path, capsys):
        code, _ = run_lint(
            ["nonexistent", "--root", tmp_path, "--no-baseline"], capsys
        )
        assert code == 2

    def test_syntax_error_is_a_parse_error_finding(self, tmp_path, capsys):
        write(tmp_path, "src/repro/gossip/broken.py", "def broken(:\n")
        code, lines = run_lint(
            ["src", "--root", tmp_path, "--no-baseline"], capsys
        )
        assert code == 1
        assert finding_pairs(lines) == [
            ("src/repro/gossip/broken.py", "parse-error")
        ]

    def test_select_restricts_to_named_rules(self, capsys):
        code, lines = run_lint(
            ["src", "--root", FIXTURES / "bad", "--no-baseline",
             "--select", "det-wall-clock"],
            capsys,
        )
        assert code == 1
        assert {rule for _, rule in finding_pairs(lines)} == {"det-wall-clock"}

    def test_list_rules_prints_the_catalog(self, capsys):
        code, lines = run_lint(["--list-rules"], capsys)
        assert code == 0
        listed = {line.split()[0] for line in lines}
        assert listed == {rule.name for rule in all_rules()}

    def test_rule_names_are_unique(self):
        names = [rule.name for rule in all_rules()]
        assert len(names) == len(set(names))

    def test_exclude_skips_a_subtree(self, tmp_path, capsys):
        write(
            tmp_path,
            "src/repro/gossip/clock.py",
            "import time\nT = time.time()\n",
        )
        code, _ = run_lint(
            ["src", "--root", tmp_path, "--no-baseline",
             "--exclude", "src/repro/gossip"],
            capsys,
        )
        assert code == 0


class TestRealTree:
    def test_repo_is_clean_under_all_rules(self, capsys):
        """The acceptance criterion: zero unsuppressed findings over
        every tree `make lint` checks."""
        code, lines = run_lint(
            ["src", "tests", "benchmarks", "examples", "tools",
             "--root", REPO_ROOT],
            capsys,
        )
        assert code == 0, "\n".join(lines)
