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
