"""Regression tests for the benchmark harness helpers.

``benchmarks/conftest.py`` is not an importable package module, so it
is loaded by file path.  The target under test is
``update_bench_json``: its merge-writes must be atomic (tmp + rename)
and must tolerate a corrupt or truncated ``BENCH_engine.json`` left
behind by an interrupted earlier run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestUpdateBenchJson:
    def test_fresh_file_is_stamped_and_merged(self, bench, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        bench.update_bench_json({"engine": {"tiny": 1.5}}, path=path)
        data = json.loads(path.read_text())
        assert data["engine"] == {"tiny": 1.5}
        assert data["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert data["unit"] == "ms"

    def test_src_loc_stamped_next_to_cpus(self, bench, tmp_path):
        from repro.gossip.shard import usable_cpus

        path = tmp_path / "BENCH_engine.json"
        bench.update_bench_json({"engine": {"tiny": 1.5}}, path=path)
        data = json.loads(path.read_text())
        # The CPUs the benchmarks could use, not the machine's count.
        assert data["cpus"] == usable_cpus()
        assert data["src_loc"] == bench.src_loc() > 0

    def test_src_loc_counts_python_lines_only(self, bench, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
        (tmp_path / "pkg" / "b.py").write_text("z = 3\n")
        (tmp_path / "pkg" / "notes.md").write_text("one\ntwo\nthree\n")
        assert bench.src_loc(tmp_path) == 3

    def test_merge_preserves_other_sections(self, bench, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        bench.update_bench_json({"engine": {"tiny": 1.5}}, path=path)
        bench.update_bench_json({"campaign": {"tiny": 9.0}}, path=path)
        data = json.loads(path.read_text())
        assert data["engine"] == {"tiny": 1.5}
        assert data["campaign"] == {"tiny": 9.0}

    @pytest.mark.parametrize(
        "garbage",
        [
            "{not json at all",
            '{"engine": {"tiny": 1.5',  # truncated mid-write
            "",
            "[1, 2, 3]\n",  # valid JSON, wrong shape
            '"a bare string"\n',
        ],
        ids=["garbage", "truncated", "empty", "list", "string"],
    )
    def test_corrupt_existing_file_is_treated_as_empty(
        self, bench, tmp_path, garbage
    ):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(garbage)
        bench.update_bench_json({"engine": {"tiny": 2.0}}, path=path)
        data = json.loads(path.read_text())
        assert data["engine"] == {"tiny": 2.0}
        assert data["schema_version"] == bench.BENCH_SCHEMA_VERSION

    def test_crash_mid_merge_leaves_original_intact(self, bench, tmp_path):
        """A failure while producing the new contents must not clobber
        the existing file: the write goes to a tmp file first."""
        path = tmp_path / "BENCH_engine.json"
        bench.update_bench_json({"engine": {"tiny": 1.5}}, path=path)
        original = path.read_bytes()
        with pytest.raises(TypeError):
            bench.update_bench_json({"bad": object()}, path=path)
        assert path.read_bytes() == original

    def test_no_tmp_file_left_behind(self, bench, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        bench.update_bench_json({"engine": {"tiny": 1.5}}, path=path)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != path.name]
        assert leftovers == []


class TestBenchDiff:
    """``tools/bench_diff.py`` reports every numeric leaf and flags a
    median that moved beyond the larger of the two recorded IQRs."""

    OLD = {
        "schema_version": 2,
        "observe_round": {"n128": {"median_ms": 280.0, "iqr_ms": 10.0, "reps": 5}},
        "samo_wake": {"n128": {"median_ms": 500.0, "iqr_ms": 60.0}},
        "paper_mlp_training": {
            "n8": {"one_row_median_ms": 50.0, "one_row_iqr_ms": 2.0}
        },
        "gone": {"n4": {"ms": 3.0}},
        "label": "text is not a leaf",
    }
    NEW = {
        "schema_version": 2,
        "observe_round": {"n128": {"median_ms": 240.0, "iqr_ms": 12.0, "reps": 5}},
        "samo_wake": {"n128": {"median_ms": 450.0, "iqr_ms": 30.0}},
        "paper_mlp_training": {
            "n8": {"one_row_median_ms": 53.0, "one_row_iqr_ms": 1.0}
        },
        "added": {"n4": {"ms": 2.0}},
    }

    def test_flags_medians_beyond_the_larger_iqr(self):
        from tools.bench_diff import moved_beyond_iqr

        # 40 > 12 and 3 > 2 move; 50 < 60 is within samo_wake's noise.
        assert sorted(moved_beyond_iqr(self.OLD, self.NEW)) == [
            "observe_round.n128.median_ms",
            "paper_mlp_training.n8.one_row_median_ms",
        ]

    def test_reports_old_new_and_ratio_for_every_numeric_leaf(self):
        from tools.bench_diff import report

        lines = report(self.OLD, self.NEW)
        rows = {line.split()[0]: line.split()[1:] for line in lines[1:-1]}
        assert rows["observe_round.n128.median_ms"] == [
            "280.000", "240.000", "0.857", "<-", "moved", "beyond", "IQR",
        ]
        assert rows["samo_wake.n128.median_ms"] == ["500.000", "450.000", "0.900"]
        assert rows["gone.n4.ms"] == ["3.000", "-", "-"]
        assert rows["added.n4.ms"] == ["-", "2.000", "-"]
        assert "label" not in rows
        assert lines[-1] == "2 median(s) moved beyond the larger IQR"

    def test_only_reports(self, tmp_path, capsys):
        from tools.bench_diff import main

        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(self.OLD))
        new.write_text(json.dumps(self.NEW))
        assert main([str(old), str(new)]) == 0
        assert "moved beyond IQR" in capsys.readouterr().out
        assert main([str(old), str(tmp_path / "missing.json")]) == 0
        assert "nothing to compare" in capsys.readouterr().out
