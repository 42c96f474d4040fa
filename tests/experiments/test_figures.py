"""Tests for figure data generators (structure + basic sanity).

Full qualitative-shape comparisons against the paper run in
``benchmarks/``; here each generator is exercised at tiny scale on a
reduced grid to verify structure, determinism and invariants.
"""

import numpy as np
import pytest

from repro.experiments import figures


class TestTradeoffSeries:
    def test_keys_and_lengths(self):
        from repro.core.study import run_study
        from repro.experiments import scaled_config

        result = run_study(
            scaled_config("purchase100", "tiny", rounds=2, name="ts")
        )
        series = figures.tradeoff_series(result)
        assert set(series) == {
            "test_accuracy",
            "mia_accuracy",
            "mia_tpr_at_1_fpr",
            "generalization_error",
        }
        assert all(len(v) == 2 for v in series.values())


class TestFigure2:
    def test_structure(self):
        out = figures.figure2(scale="tiny", datasets=("purchase100",))
        assert out["view_size"] == 5
        series = out["datasets"]["purchase100"]
        assert set(series) == {"base_gossip", "samo"}
        for proto in series.values():
            assert np.all(proto["mia_accuracy"] >= 0)


class TestFigure3:
    def test_structure(self):
        out = figures.figure3(scale="tiny", datasets=("purchase100",))
        series = out["datasets"]["purchase100"]
        assert set(series) == {"static", "dynamic"}


class TestFigure4:
    def test_structure_and_ranges(self):
        out = figures.figure4(
            scale="tiny", datasets=("purchase100",), n_runs=2
        )
        per_setting = out["datasets"]["purchase100"]
        for setting in ("static", "dynamic"):
            entry = per_setting[setting]
            assert entry["runs"].shape[0] == 2
            assert np.all(entry["max_canary_tpr"] >= entry["mean_canary_tpr"] - 1e-12)
            assert np.all(entry["max_canary_tpr"] <= 1.0)

    def test_canaries_are_memorized(self):
        """The canary attack should find strong signal at some round."""
        out = figures.figure4(
            scale="tiny", datasets=("purchase100",), n_runs=1
        )
        static = out["datasets"]["purchase100"]["static"]["max_canary_tpr"]
        assert static.max() > 0.2


class TestFigure5:
    def test_structure(self):
        out = figures.figure5(scale="tiny", view_sizes=(2, 5))
        for setting in ("static", "dynamic"):
            rows = out["settings"][setting]
            assert [r["view_size"] for r in rows] == [2, 5]
            for row in rows:
                assert 0 <= row["max_mia_accuracy"] <= 1
                assert row["models_sent_per_node"] > 0

    def test_larger_view_costs_more_messages(self):
        out = figures.figure5(scale="tiny", view_sizes=(2, 5))
        rows = out["settings"]["static"]
        assert rows[1]["models_sent_per_node"] > rows[0]["models_sent_per_node"]

    def test_default_view_sizes_respect_node_count(self):
        out = figures.figure5(scale="tiny")
        assert all(k < 8 for k in out["view_sizes"])


class TestFigure6:
    def test_structure(self):
        out = figures.figure6(scale="tiny", betas=(None, 0.1))
        assert set(out["series"]) == {
            "iid-static",
            "iid-dynamic",
            "beta=0.1-static",
            "beta=0.1-dynamic",
        }


class TestFigure7:
    def test_structure(self):
        out = figures.figure7(scale="tiny", datasets=("purchase100",))
        entry = out["datasets"]["purchase100"]["static"]
        assert len(entry["generalization_error"]) == len(entry["mia_accuracy"])


class TestFigure8:
    def test_structure(self):
        out = figures.figure8(scale="tiny")
        for setting in ("static", "dynamic"):
            entry = out["settings"][setting]
            assert len(entry["rounds"]) == len(entry["mia_accuracy"])


class TestFigure9:
    def test_structure(self):
        out = figures.figure9(scale="tiny", epsilons=(50.0, None))
        assert len(out["rows"]) == 4  # 2 budgets x 2 settings
        for row in out["rows"]:
            assert row["setting"] in ("static", "dynamic")
            if row["epsilon"] is None:
                assert row["noise_multiplier"] == 0.0
            else:
                assert row["noise_multiplier"] > 0

    def test_dp_reduces_utility(self):
        out = figures.figure9(scale="tiny", epsilons=(5.0, None))
        by_key = {
            (r["epsilon"], r["setting"]): r for r in out["rows"]
        }
        assert (
            by_key[(5.0, "static")]["max_test_accuracy"]
            <= by_key[(None, "static")]["max_test_accuracy"] + 0.05
        )


class TestFigure10:
    def test_structure(self):
        out = figures.figure10(n=30, view_sizes=(2, 5), iterations=10, runs=3)
        assert set(out["curves"]) == {
            "static-2reg",
            "dynamic-2reg",
            "static-5reg",
            "dynamic-5reg",
        }
        for curve in out["curves"].values():
            assert curve["mean"].shape == (10,)

    def test_dynamic_decays_faster(self):
        out = figures.figure10(n=30, view_sizes=(2,), iterations=20, runs=3)
        static = out["curves"]["static-2reg"]["mean"][-1]
        dynamic = out["curves"]["dynamic-2reg"]["mean"][-1]
        assert dynamic < static
