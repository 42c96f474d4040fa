"""Tests for result persistence (JSON/CSV round-trips)."""

import numpy as np
import pytest

from repro.core.study import run_study
from repro.experiments import (
    load_result,
    result_to_csv,
    results_to_summary_csv,
    save_result,
    scaled_config,
)


@pytest.fixture(scope="module")
def result():
    return run_study(
        scaled_config("purchase100", "tiny", rounds=2, name="io-test")
    )


class TestJSONRoundtrip:
    def test_save_and_load(self, result, tmp_path):
        path = save_result(result, tmp_path / "run.json")
        loaded = load_result(path)
        assert loaded.config_name == result.config_name
        assert len(loaded.rounds) == len(result.rounds)
        np.testing.assert_allclose(
            loaded.series("mia_accuracy"), result.series("mia_accuracy")
        )
        assert loaded.metadata == result.metadata

    def test_save_is_atomic_no_temp_left_behind(self, result, tmp_path):
        path = save_result(result, tmp_path / "run.json")
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_result(bad)

    def test_summary_survives_roundtrip(self, result, tmp_path):
        path = save_result(result, tmp_path / "run.json")
        assert load_result(path).summary() == result.summary()


class TestCSV:
    def test_per_round_csv(self, result, tmp_path):
        path = result_to_csv(result, tmp_path / "rounds.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(result.rounds)
        assert lines[0].startswith("round_index,global_test_accuracy")

    def test_summary_csv(self, result, tmp_path):
        path = results_to_summary_csv({"a": result}, tmp_path / "summary.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "max_test_accuracy" in lines[0]

    def test_summary_csv_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            results_to_summary_csv({}, tmp_path / "empty.csv")
