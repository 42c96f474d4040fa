"""Tests for the Campaign API (sweeps, parallelism, resume)."""

import json
import os

import numpy as np
import pytest

from repro import StudyConfig
from repro.core.study import run_study
from repro.experiments import Campaign, load_result
from repro.gossip.shard import usable_cpus


def tiny_config(**overrides):
    base = dict(
        name="camp",
        dataset="purchase100",
        n_train=600,
        n_test=150,
        num_features=64,
        n_nodes=6,
        view_size=2,
        protocol="samo",
        rounds=2,
        train_per_node=24,
        test_per_node=12,
        mlp_hidden=(32, 16),
        local_epochs=1,
        batch_size=12,
        max_attack_samples=32,
        max_global_test=64,
        seed=1,
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestSweepBuilders:
    def test_from_grid_cartesian_product(self):
        campaign = Campaign.from_grid(
            tiny_config(), seed=[0, 1], protocol=["samo", "base_gossip"]
        )
        assert len(campaign.configs) == 4
        names = [c.name for c in campaign.configs]
        assert names[0] == "camp-seed=0-protocol=samo"
        assert len(set(names)) == 4
        assert {(c.seed, c.protocol) for c in campaign.configs} == {
            (0, "samo"),
            (0, "base_gossip"),
            (1, "samo"),
            (1, "base_gossip"),
        }

    def test_from_zip_elementwise(self):
        campaign = Campaign.from_zip(
            tiny_config(), seed=[0, 1], view_size=[2, 3]
        )
        assert [(c.seed, c.view_size) for c in campaign.configs] == [
            (0, 2),
            (1, 3),
        ]

    def test_from_zip_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Campaign.from_zip(tiny_config(), seed=[0, 1], view_size=[2])

    def test_unknown_axis_rejected_with_valid_fields(self):
        with pytest.raises(ValueError, match="n_nodes"):
            Campaign.from_grid(tiny_config(), nodes=[4, 8])

    def test_group_axis_sweeps_group_dicts(self):
        campaign = Campaign.from_grid(
            tiny_config(),
            privacy=[{}, {"dp_epsilon": 10.0}],
        )
        assert [c.dp_epsilon for c in campaign.configs] == [None, 10.0]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Campaign([tiny_config(), tiny_config()])

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Campaign([])


class TestExecution:
    def test_serial_run_matches_run_study_bitwise(self):
        configs = [tiny_config(name=f"c{i}", seed=i) for i in range(2)]
        serial = {config.name: run_study(config) for config in configs}
        campaign = Campaign(configs).run(jobs=1)
        assert list(serial) == list(campaign) == ["c0", "c1"]
        for name in serial:
            np.testing.assert_array_equal(
                serial[name].series("mia_accuracy"),
                campaign[name].series("mia_accuracy"),
            )

    def test_parallel_jobs_bit_identical_to_serial(self):
        configs = [tiny_config(name=f"p{i}", seed=i) for i in range(2)]
        serial = Campaign(configs).run(jobs=1)
        parallel = Campaign(configs).run(jobs=2)
        for name in serial:
            np.testing.assert_array_equal(
                serial[name].series("mia_accuracy"),
                parallel[name].series("mia_accuracy"),
            )
            np.testing.assert_array_equal(
                serial[name].series("global_test_accuracy"),
                parallel[name].series("global_test_accuracy"),
            )
            assert serial[name].metadata == parallel[name].metadata

    def test_default_jobs_respects_per_study_demand(self):
        serial = Campaign([tiny_config(name=f"s{i}") for i in range(3)])
        assert 1 <= serial.default_jobs() <= 3
        # A sharded study occupies n_shards processes; the campaign must
        # not stack campaign-level jobs on top of them.
        sharded = Campaign(
            [
                tiny_config(name=f"sh{i}", executor="sharded", n_shards=4)
                for i in range(3)
            ]
        )
        assert sharded.default_jobs() <= max(1, usable_cpus() // 4)

    @pytest.mark.parametrize(
        "n_shards", [0, 16], ids=["automatic", "clamped-to-rows"]
    )
    def test_default_jobs_agrees_with_built_executor(self, n_shards):
        """The campaign sizes its pool with the same shard-count rule
        the sharded executor uses to start its workers."""
        from repro.core.study import Study
        from repro.experiments.runner import _study_process_demand

        configs = [
            tiny_config(
                name=f"sh{i}", n_nodes=4, executor="sharded",
                n_shards=n_shards,
            )
            for i in range(3)
        ]
        with Study(configs[0]) as study:
            shards = study.simulator.executor().n_shards
        assert _study_process_demand(configs[0]) == shards
        assert Campaign(configs).default_jobs() == max(
            1, min(len(configs), usable_cpus() // shards)
        )

    def test_one_usable_cpu_means_one_job_and_one_shard(self, monkeypatch):
        """A process pinned to one CPU of a larger machine (``taskset``,
        a container CPU set) sizes its pool and its automatic shard
        count from the CPUs it may use, not from ``os.cpu_count()``."""
        from repro.gossip.shard import auto_shard_count

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert usable_cpus() == 1
        assert auto_shard_count(0, 64) == 1
        configs = [tiny_config(name=f"u{i}") for i in range(3)]
        assert Campaign(configs).default_jobs() == 1


class TestResume:
    def test_results_persisted_and_loaded(self, tmp_path):
        configs = [tiny_config(name=f"r{i}", seed=i) for i in range(2)]
        campaign = Campaign(configs, out_dir=tmp_path)
        results = campaign.run(jobs=1)
        for config in configs:
            path = campaign.result_path(config.name)
            assert path.exists()
            np.testing.assert_array_equal(
                load_result(path).series("mia_accuracy"),
                results[config.name].series("mia_accuracy"),
            )

    def test_rerun_loads_from_disk_instead_of_recomputing(self, tmp_path):
        configs = [tiny_config(name=f"d{i}", seed=i) for i in range(2)]
        campaign = Campaign(configs, out_dir=tmp_path)
        campaign.run(jobs=1)
        # Poison one persisted result; a re-run must surface the
        # poisoned value (proof it loaded instead of recomputing).
        path = campaign.result_path("d0")
        path.write_text(
            path.read_text().replace('"config_name": "d0"', '"config_name": "poison"')
        )
        rerun = Campaign(configs, out_dir=tmp_path).run(jobs=1)
        assert rerun["d0"].config_name == "poison"
        assert rerun["d1"].config_name == "d1"

    def test_resume_with_changed_base_config_rejected(self, tmp_path):
        """Names encode only sweep axes; the manifest must catch a
        changed base config instead of serving stale results."""
        Campaign([tiny_config(name="x")], out_dir=tmp_path).run(jobs=1)
        changed = [tiny_config(name="x", rounds=3)]
        with pytest.raises(ValueError, match="different"):
            Campaign(changed, out_dir=tmp_path).run(jobs=1)

    def test_resume_accepts_manifest_in_older_spelling(self, tmp_path):
        """A manifest written while the dict engine and the process pool
        existed spells each entry's execution section with ``engine``
        and ``n_workers``. Entries compare by ``config_hash``, so the
        directory still resumes (from disk, not by recomputing)."""
        configs = [tiny_config(name="old")]
        campaign = Campaign(configs, out_dir=tmp_path)
        campaign.run(jobs=1)
        manifest = json.loads(campaign.manifest_path.read_text())
        manifest["old"]["execution"].update(engine="flat", n_workers=0)
        campaign.manifest_path.write_text(json.dumps(manifest))
        path = campaign.result_path("old")
        mtime = path.stat().st_mtime_ns
        rerun = Campaign(configs, out_dir=tmp_path).run(jobs=1)
        assert rerun["old"].config_name == "old"
        assert path.stat().st_mtime_ns == mtime

    def test_resume_rejects_manifest_entry_that_no_longer_loads(self, tmp_path):
        """A stored per-node-observer config (``eval_batch: -1``) is not
        the row-batch config of the same name: its results must not be
        served under it."""
        configs = [tiny_config(name="gone")]
        campaign = Campaign(configs, out_dir=tmp_path)
        campaign.run(jobs=1)
        manifest = json.loads(campaign.manifest_path.read_text())
        manifest["gone"]["execution"]["eval_batch"] = -1
        campaign.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="different"):
            Campaign(configs, out_dir=tmp_path).run(jobs=1)

    def test_corrupt_result_file_is_recomputed(self, tmp_path):
        configs = [tiny_config(name="k")]
        campaign = Campaign(configs, out_dir=tmp_path)
        campaign.run(jobs=1)
        campaign.result_path("k").write_text("{truncated")
        rerun = Campaign(configs, out_dir=tmp_path).run(jobs=1)
        assert rerun["k"].config_name == "k"
        assert load_result(campaign.result_path("k")).config_name == "k"

    def test_failed_study_does_not_discard_finished_siblings(self, tmp_path):
        """One crashing study must still let every other study finish
        AND persist (they are the resume set); the failure propagates
        afterwards."""
        configs = [
            tiny_config(name="ok0", seed=0),
            # Infeasible DP budget: raises inside run_study's build.
            tiny_config(name="doomed", dp_epsilon=1e-9),
            tiny_config(name="ok1", seed=1),
        ]
        campaign = Campaign(configs, out_dir=tmp_path)
        with pytest.raises(ValueError, match="epsilon"):
            campaign.run(jobs=2)
        assert campaign.result_path("ok0").exists()
        assert campaign.result_path("ok1").exists()
        assert not campaign.result_path("doomed").exists()
        # The resume only has the doomed study left; fixing it (fresh
        # dir aside, here we just drop it) reuses the persisted pair.
        survivors = Campaign(configs[::2], out_dir=tmp_path).run(jobs=1)
        assert set(survivors) == {"ok0", "ok1"}

    def test_partial_directory_runs_only_missing(self, tmp_path):
        configs = [tiny_config(name=f"m{i}", seed=i) for i in range(2)]
        campaign = Campaign(configs, out_dir=tmp_path)
        campaign.run(jobs=1)
        campaign.result_path("m1").unlink()
        rerun = Campaign(configs, out_dir=tmp_path).run(jobs=1)
        assert set(rerun) == {"m0", "m1"}
        assert campaign.result_path("m1").exists()  # recomputed + saved


class TestCampaignTiming:
    """Regression: campaign queue-wait/wall histograms must be fed from
    the monotonic clock, not ``time.time()``. A backwards wall-clock
    step (NTP slew, manual adjustment) used to record negative queue
    waits and garbage wall times."""

    @staticmethod
    def _install_clocks(monkeypatch):
        """Monotonic fake perf_counter (+1 s per call) next to a
        wall clock that steps BACKWARDS 100 s per read. If the runner
        ever regresses to ``time.time()``, the recorded durations go
        negative and the exact-value asserts below fail."""
        import time as time_module

        from repro.experiments import runner

        mono = {"now": 100.0}

        def fake_perf_counter():
            mono["now"] += 1.0
            return mono["now"]

        wall = {"now": 1e9}

        def fake_wall_clock():
            wall["now"] -= 100.0
            return wall["now"]

        monkeypatch.setattr(runner, "perf_counter", fake_perf_counter)
        monkeypatch.setattr(time_module, "time", fake_wall_clock)
        return runner

    def test_serial_histograms_record_monotonic_durations(self, monkeypatch):
        from repro.metrics.records import RunResult
        from repro.telemetry import Telemetry

        runner = self._install_clocks(monkeypatch)
        monkeypatch.setattr(
            runner, "run_study", lambda config: RunResult(config_name=config.name)
        )
        tel = Telemetry()
        configs = [tiny_config(name=f"t{i}") for i in range(2)]
        Campaign(configs, telemetry=tel).run(jobs=1)

        queue = tel.registry.get("repro_campaign_queue_wait_ms")
        wall = tel.registry.get("repro_campaign_study_wall_ms")
        # Clock trace: submit=101; t0 starts=102, ends=103; t1
        # starts=104, ends=105 — so queue waits are 1 s and 3 s and
        # each study's wall time is exactly 1 s.
        assert queue.count(study="t0") == 1
        assert queue.sum(study="t0") == pytest.approx(1_000.0)
        assert queue.sum(study="t1") == pytest.approx(3_000.0)
        assert wall.sum(study="t0") == pytest.approx(1_000.0)
        assert wall.sum(study="t1") == pytest.approx(1_000.0)

    def test_run_study_timed_wrapper_is_wall_clock_immune(self, monkeypatch):
        from repro.metrics.records import RunResult

        runner = self._install_clocks(monkeypatch)
        monkeypatch.setattr(
            runner, "run_study", lambda config: RunResult(config_name=config.name)
        )
        submitted = runner.perf_counter()  # 101
        result, wait_s, wall_s = runner._run_study_timed(
            tiny_config(name="w"), submitted
        )
        assert result.config_name == "w"
        assert wait_s == pytest.approx(1.0)  # started at 102
        assert wall_s == pytest.approx(1.0)  # finished at 103
        assert wait_s >= 0.0 and wall_s >= 0.0
