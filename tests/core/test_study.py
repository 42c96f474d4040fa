"""Tests for the high-level study API."""

from dataclasses import fields

import numpy as np
import pytest

from repro import Study, StudyConfig, run_study
from repro.gossip import SimulatorConfig, TrainerConfig


def tiny_config(**overrides):
    base = dict(
        name="test",
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
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestStudyConfig:
    def test_architecture_derived_from_dataset(self):
        assert StudyConfig(dataset="cifar10").architecture == "cnn"
        assert StudyConfig(dataset="cifar100").architecture == "resnet8"
        assert StudyConfig(dataset="fashion_mnist").architecture == "cnn"
        assert StudyConfig(dataset="purchase100").architecture == "mlp"

    def test_unknown_dataset_raises(self):
        with pytest.raises(ValueError):
            StudyConfig(dataset="imagenet").architecture

    def test_with_overrides(self):
        cfg = tiny_config().with_overrides(rounds=7, dynamic=True)
        assert cfg.rounds == 7
        assert cfg.dynamic
        assert cfg.dataset == "purchase100"  # untouched


class TestLowerConfigs:
    """Study fills SimulatorConfig and TrainerConfig from the fields they
    share with StudyConfig, by name: a rename on either side fails here
    instead of falling back to the lower config's default."""

    # A value for every shared field that differs from both the lower
    # config's default and StudyConfig's.
    DISTINCT = dict(
        n_nodes=8, view_size=3, dynamic=True, sampler="fresh",
        ticks_per_round=50, drop_prob=0.1, failure_prob=0.05,
        delay_ticks=1, delay_jitter=2, executor="batched", train_batch=3,
        arena_dtype="float32",
        learning_rate=0.05, momentum=0.5, weight_decay=1e-3,
        local_epochs=2, batch_size=8, label_smoothing=0.1, lr_decay=0.9,
        seed=5,
    )

    @staticmethod
    def copied(lower, cls, config) -> set[str]:
        """The fields of ``lower`` that hold ``config``'s value and not
        the ``cls`` default."""
        default = cls()
        return {
            f.name
            for f in fields(cls)
            if getattr(lower, f.name) == getattr(config, f.name, None)
            and getattr(lower, f.name) != getattr(default, f.name)
        }

    def test_study_copies_every_shared_field_by_name(self):
        config = tiny_config(**self.DISTINCT)
        with Study(config) as study:
            simulator = study.simulator.config
            trainer = study.protocol.trainer.config
        assert self.copied(simulator, SimulatorConfig, config) == {
            f.name for f in fields(SimulatorConfig)
        } - {"wake_mu", "wake_sigma", "seed"}
        assert simulator.seed == config.seed + 3
        assert self.copied(trainer, TrainerConfig, config) == {
            f.name for f in fields(TrainerConfig)
        } - {"dp"}
        assert trainer.dp is None

    def test_shared_simulator_defaults_equal_the_study_defaults(self):
        """docs/configuration.md: StudyConfig embeds every SimulatorConfig
        field with the same name and default."""
        study, simulator = StudyConfig(), SimulatorConfig()
        shared = {f.name for f in fields(SimulatorConfig)} - {
            "wake_mu", "wake_sigma"
        }
        for name in shared:
            assert getattr(simulator, name) == getattr(study, name), name


class TestRunStudy:
    def test_produces_one_record_per_round(self):
        result = run_study(tiny_config(rounds=3))
        assert len(result.rounds) == 3
        assert [r.round_index for r in result.rounds] == [0, 1, 2]

    def test_metrics_in_valid_ranges(self):
        result = run_study(tiny_config())
        for record in result.rounds:
            assert 0.0 <= record.global_test_accuracy <= 1.0
            assert 0.0 <= record.mia_accuracy <= 1.0
            assert 0.0 <= record.mia_tpr_at_1_fpr <= 1.0
            assert -1.0 <= record.generalization_error <= 1.0
            assert record.messages_sent > 0

    def test_metadata_recorded(self):
        result = run_study(tiny_config(dynamic=True))
        assert result.metadata["dynamic"] is True
        assert result.metadata["dataset"] == "purchase100"
        assert result.metadata["protocol"] == "samo"

    def test_metadata_records_execution_knobs(self):
        """Block sizing is part of the run's provenance: the metadata
        dict carries it alongside the executor, and no removed knob."""
        result = run_study(tiny_config(executor="batched", train_batch=2))
        assert result.metadata["executor"] == "batched"
        assert result.metadata["train_batch"] == 2
        assert not {
            "engine", "n_workers", "n_shards", "shard_partition",
            "dropout_mode",
        } & set(result.metadata)

    @pytest.mark.parametrize("executor", ["serial", "batched"])
    def test_metadata_keeps_empty_fallback_counts(self, executor):
        """Every row trains on the blocked kernel, so the provenance
        key that used to tally per-row fallbacks is always empty."""
        result = run_study(tiny_config(executor=executor))
        assert result.metadata["fallback_counts"] == {}

    def test_dropout_study_matches_across_executors(self):
        """Dropout batches with bit-identical metrics vs serial."""
        serial = run_study(tiny_config(seed=3, dropout=0.25))
        assert serial.metadata["dropout"] == 0.25
        other = run_study(tiny_config(seed=3, dropout=0.25, executor="batched"))
        assert other.metadata["fallback_counts"] == {}
        for s_round, o_round in zip(serial.rounds, other.rounds):
            assert s_round.global_test_accuracy == o_round.global_test_accuracy
            assert s_round.mia_accuracy == o_round.mia_accuracy

    def test_dp_study_matches_across_executors(self):
        """DP-SGD on the batched executor gives bit-identical metrics
        vs the serial run."""
        serial = run_study(tiny_config(seed=3, dp_epsilon=25.0))
        batched = run_study(
            tiny_config(seed=3, dp_epsilon=25.0, executor="batched")
        )
        assert batched.metadata["fallback_counts"] == {}
        for s_round, b_round in zip(serial.rounds, batched.rounds):
            assert s_round.global_test_accuracy == b_round.global_test_accuracy
            assert s_round.mia_accuracy == b_round.mia_accuracy

    def test_deterministic_given_seed(self):
        a = run_study(tiny_config(seed=5))
        b = run_study(tiny_config(seed=5))
        np.testing.assert_allclose(
            a.series("mia_accuracy"), b.series("mia_accuracy")
        )
        np.testing.assert_allclose(
            a.series("global_test_accuracy"), b.series("global_test_accuracy")
        )

    def test_base_gossip_protocol_runs(self):
        result = run_study(tiny_config(protocol="base_gossip"))
        assert len(result.rounds) == 2

    def test_image_dataset_runs(self):
        result = run_study(
            tiny_config(
                dataset="cifar10",
                image_size=8,
                model_width=4,
                n_train=400,
                train_per_node=16,
                test_per_node=8,
            )
        )
        assert len(result.rounds) == 2

    def test_noniid_runs(self):
        result = run_study(tiny_config(beta=0.2))
        assert result.metadata["beta"] == 0.2

    def test_mia_beats_chance_once_overfit(self):
        """Core phenomenon: after a few rounds the MPE attack exceeds
        0.5 accuracy on node models."""
        result = run_study(tiny_config(rounds=3, local_epochs=3))
        assert result.max_mia_accuracy > 0.55


class TestStudySession:
    def test_streaming_bit_identical_to_run_study(self):
        config = tiny_config(rounds=3, seed=4)
        reference = run_study(config)
        with Study(config) as study:
            streamed = list(study.iter_rounds())
            result = study.result()
        assert len(streamed) == 3
        for attr in ("mia_accuracy", "global_test_accuracy", "model_spread"):
            np.testing.assert_array_equal(
                reference.series(attr), result.series(attr)
            )
        assert reference.metadata == result.metadata

    def test_build_is_lazy_and_idempotent(self):
        study = Study(tiny_config())
        assert not hasattr(study, "simulator")  # nothing built yet
        study.build()
        simulator = study.simulator
        study.build()
        assert study.simulator is simulator
        study.close()

    def test_iter_rounds_yields_records_as_produced(self):
        with Study(tiny_config(rounds=3)) as study:
            rounds = study.iter_rounds()
            first = next(rounds)
            assert first.round_index == 0
            assert study.rounds_completed == 1
            assert len(study.result().rounds) == 1  # partial result

    def test_early_stop_on_predicate(self):
        with Study(tiny_config(rounds=3)) as study:
            for record in study.iter_rounds():
                if record.round_index == 1:
                    break  # abandon the generator mid-run
            result = study.result()
        assert [r.round_index for r in result.rounds] == [0, 1]

    def test_break_on_final_record_still_finalizes(self):
        """End-of-run bookkeeping must not depend on the caller
        advancing the generator past the last yield: with long message
        delays, leftover in-flight traffic must be tallied even when
        the consumer breaks on the final record."""
        config = tiny_config(rounds=2, delay_ticks=150)
        reference = run_study(config)
        assert reference.metadata["messages_undelivered"] > 0  # test setup
        with Study(config) as study:
            for record in study.iter_rounds():
                if record.round_index == config.rounds - 1:
                    break
            result = study.result()
        assert result.metadata == reference.metadata

    def test_iter_rounds_in_chunks(self):
        config = tiny_config(rounds=3)
        reference = run_study(config)
        with Study(config) as study:
            assert len(list(study.iter_rounds(rounds=2))) == 2
            assert len(list(study.iter_rounds())) == 1  # the remainder
            result = study.result()
        np.testing.assert_array_equal(
            reference.series("mia_accuracy"), result.series("mia_accuracy")
        )
        assert reference.metadata == result.metadata

    def test_iter_rounds_rejects_negative(self):
        with Study(tiny_config()) as study:
            with pytest.raises(ValueError):
                list(study.iter_rounds(rounds=-1))

    def test_close_is_idempotent_and_safe_unbuilt(self):
        study = Study(tiny_config())
        study.close()  # never built: must not raise
        study.build()
        study.close()
        study.close()

    def test_run_closes_the_session(self):
        config = tiny_config(executor="batched")
        study = Study(config)  # reprolint: allow[lifecycle-unmanaged] -- run() closes the session; that teardown is what this test asserts
        result = study.run()
        assert len(result.rounds) == config.rounds
        # After run(), the executor is torn down.
        assert study.simulator._executor is None

    def test_build_failure_releases_simulator_resources(self, monkeypatch):
        """A construction step failing after the simulator exists must
        close it, because close() is gated on the build having
        completed."""
        import repro.core.study as study_module
        from repro.gossip.engine import FlatGossipSimulator

        def boom(*args, **kwargs):
            raise RuntimeError("observer boom")

        closed = []
        close = FlatGossipSimulator.close
        monkeypatch.setattr(study_module, "OmniscientObserver", boom)
        monkeypatch.setattr(
            FlatGossipSimulator, "close",
            lambda sim: closed.append(sim) or close(sim),
        )
        study = Study(tiny_config())  # reprolint: allow[lifecycle-unmanaged] -- the failing build() must clean up by itself; that is the regression under test
        with pytest.raises(RuntimeError, match="observer boom"):
            study.build()
        assert closed == [study.simulator]
        assert study.simulator._executor is None

    def test_build_returns_the_built_session(self):
        study = Study(tiny_config()).build()
        assert hasattr(study, "simulator")
        study.close()


class TestCanaryStudy:
    def test_canary_tpr_recorded(self):
        result = run_study(tiny_config(n_canaries=12))
        for record in result.rounds:
            assert record.canary_tpr_at_1_fpr is not None
            assert 0.0 <= record.canary_tpr_at_1_fpr <= 1.0

    def test_canaries_get_memorized(self):
        """With enough local epochs, canary TPR should be substantial
        ('just how powerful this attack is' — Section 3.5)."""
        result = run_study(
            tiny_config(rounds=4, local_epochs=4, n_canaries=12)
        )
        series = result.series("canary_tpr_at_1_fpr")
        assert np.nanmax(series) > 0.3


class TestDPStudy:
    def test_dp_run_records_epsilon(self):
        result = run_study(tiny_config(dp_epsilon=50.0, local_epochs=1))
        assert result.metadata["noise_multiplier"] > 0
        finals = [r.epsilon for r in result.rounds]
        assert all(e is not None and e >= 0 for e in finals)

    def test_spent_epsilon_does_not_exceed_target(self):
        """The per-node update cap makes the budget a hard guarantee."""
        result = run_study(tiny_config(dp_epsilon=25.0))
        assert result.rounds[-1].epsilon <= 25.0 * 1.001

    def test_budget_holds_for_base_gossip_too(self):
        """Base Gossip trains on receptions; the cap still binds."""
        result = run_study(
            tiny_config(dp_epsilon=25.0, protocol="base_gossip", rounds=3)
        )
        assert result.rounds[-1].epsilon <= 25.0 * 1.001

    def test_epsilon_grows_over_rounds(self):
        result = run_study(tiny_config(dp_epsilon=50.0, rounds=3))
        eps = [r.epsilon for r in result.rounds]
        assert eps[0] <= eps[-1]

    def test_tighter_budget_means_more_noise(self):
        tight = Study(tiny_config(dp_epsilon=5.0)).build()
        loose = Study(tiny_config(dp_epsilon=50.0)).build()
        try:
            assert (
                tight.protocol.trainer.config.dp.noise_multiplier
                > loose.protocol.trainer.config.dp.noise_multiplier
            )
        finally:
            tight.close()
            loose.close()


class TestLatencyStudy:
    def test_delayed_network_runs(self):
        result = run_study(tiny_config(delay_ticks=10, delay_jitter=5))
        assert len(result.rounds) == 2
        assert result.rounds[-1].messages_sent > 0

    def test_latency_does_not_break_determinism(self):
        import numpy as np

        a = run_study(tiny_config(delay_ticks=7, seed=21))
        b = run_study(tiny_config(delay_ticks=7, seed=21))
        np.testing.assert_allclose(
            a.series("mia_accuracy"), b.series("mia_accuracy")
        )


class TestCancelHook:
    """The thread-safe cancel hook the service layer drives."""

    def test_cancel_stops_at_next_round_boundary(self):
        with Study(tiny_config(rounds=4)) as study:
            rounds = study.iter_rounds()
            next(rounds)
            study.request_cancel()
            remaining = list(rounds)
        assert remaining == []
        assert study.rounds_completed == 1
        assert study.cancel_requested
        # The partial run is still a valid result.
        assert len(study.result().rounds) == 1

    def test_cancel_before_start_yields_nothing(self):
        with Study(tiny_config()) as study:
            study.request_cancel()
            assert list(study.iter_rounds()) == []
            assert study.rounds_completed == 0

    def test_cancel_from_another_thread(self):
        import threading

        started = threading.Event()
        with Study(tiny_config(rounds=4)) as study:
            def cancel_soon():
                started.wait(30)
                study.request_cancel()
            thread = threading.Thread(target=cancel_soon)
            thread.start()
            seen = 0
            for _ in study.iter_rounds():
                seen += 1
                started.set()
            thread.join()
        # The cancel lands at some boundary before the horizon's end...
        assert 1 <= seen <= 4
        # ...and a cancelled session never finalizes early-stop state,
        # so clear_cancel + iter_rounds resumes to the horizon.
        study2 = Study(tiny_config(rounds=4))
        with study2:
            rows = study2.iter_rounds()
            next(rows)
            study2.request_cancel()
            assert list(rows) == []
            study2.clear_cancel()
            assert not study2.cancel_requested
            total = 1 + len(list(study2.iter_rounds()))
        assert total == 4

    def test_cancelled_study_checkpoint_resumes_bit_identical(self, tmp_path):
        config = tiny_config(rounds=3)
        expected = run_study(config)

        with Study(config) as study:
            rounds = study.iter_rounds()
            next(rounds)
            study.request_cancel()
            assert list(rounds) == []
            path = study.checkpoint(tmp_path / "cancelled.ckpt")

        resumed = Study.resume(path)
        with resumed:
            for _ in resumed.iter_rounds():
                pass
            result = resumed.result()
        assert result.to_json() == expected.to_json()
