"""Tests for the grouped configuration layer (repro.core.config)."""

import json

import pytest

from repro import StudyConfig
from repro.core.config import (
    FLAT_TO_GROUP,
    GROUPS,
    DataConfig,
    ExecutionConfig,
    ModelConfig,
    PrivacyConfig,
    TopologyConfig,
    group_field_names,
)


class TestDecomposition:
    def test_every_flat_field_belongs_to_exactly_one_group(self):
        flat = {
            name
            for name in StudyConfig.__dataclass_fields__
            if name not in ("name", "seed")
        }
        grouped = set(FLAT_TO_GROUP)
        assert flat == grouped
        counts = {}
        for cls in GROUPS.values():
            for field_name in group_field_names(cls):
                counts[field_name] = counts.get(field_name, 0) + 1
        assert all(count == 1 for count in counts.values())

    def test_group_defaults_match_flat_defaults(self):
        cfg = StudyConfig()
        for group_name, cls in GROUPS.items():
            group = cls()
            for field_name in group_field_names(cls):
                assert getattr(group, field_name) == getattr(cfg, field_name)

    def test_group_properties_reflect_flat_values(self):
        cfg = StudyConfig(n_nodes=32, dp_epsilon=5.0, dataset="purchase100")
        assert cfg.topology.n_nodes == 32
        assert cfg.privacy.dp_epsilon == 5.0
        assert cfg.data.dataset == "purchase100"
        assert isinstance(cfg.model, ModelConfig)
        assert isinstance(cfg.execution, ExecutionConfig)

    def test_from_groups_equals_flat_construction(self):
        grouped = StudyConfig.from_groups(
            name="x",
            seed=3,
            data=DataConfig(dataset="purchase100", num_features=64),
            topology=TopologyConfig(n_nodes=8, rounds=2),
            privacy=PrivacyConfig(dp_epsilon=10.0),
        )
        flat = StudyConfig(
            name="x",
            seed=3,
            dataset="purchase100",
            num_features=64,
            n_nodes=8,
            rounds=2,
            dp_epsilon=10.0,
        )
        assert grouped == flat

    def test_from_groups_rejects_wrong_group_type(self):
        with pytest.raises(ValueError, match="DataConfig"):
            StudyConfig.from_groups(data=ModelConfig())


class TestSerialization:
    def test_to_dict_is_grouped_and_json_ready(self):
        cfg = StudyConfig(name="s", n_nodes=8, mlp_hidden=(32, 16))
        payload = cfg.to_dict()
        assert set(payload) == {"name", "seed", *GROUPS}
        assert payload["topology"]["n_nodes"] == 8
        assert payload["model"]["mlp_hidden"] == [32, 16]  # JSON-able
        json.dumps(payload)  # must not raise

    def test_json_round_trip(self):
        cfg = StudyConfig(
            name="rt",
            dataset="purchase100",
            mlp_hidden=(32, 16),
            beta=0.3,
            dp_epsilon=25.0,
            executor="sharded",
            n_shards=2,
            seed=9,
        )
        restored = StudyConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert restored == cfg
        assert restored.mlp_hidden == (32, 16)  # tuple restored

    def test_from_dict_accepts_flat_keys(self):
        cfg = StudyConfig.from_dict({"name": "f", "n_nodes": 8, "rounds": 3})
        assert cfg == StudyConfig(name="f", n_nodes=8, rounds=3)

    def test_from_dict_rejects_unknown_keys_listing_valid(self):
        with pytest.raises(ValueError, match="n_nodes"):
            StudyConfig.from_dict({"nodes": 8})
        with pytest.raises(ValueError, match="dataset"):
            DataConfig.from_dict({"datset": "cifar10"})

    def test_group_round_trip(self):
        group = TopologyConfig(n_nodes=12, dynamic=True, drop_prob=0.1)
        assert TopologyConfig.from_dict(group.to_dict()) == group


class TestOverrides:
    def test_flat_override_unknown_key_lists_valid_fields(self):
        cfg = StudyConfig()
        with pytest.raises(ValueError) as excinfo:
            cfg.with_overrides(nodes=8)
        message = str(excinfo.value)
        assert "nodes" in message
        assert "n_nodes" in message  # the valid spelling is suggested

    def test_group_override_with_instance_replaces_group(self):
        cfg = StudyConfig(dp_epsilon=50.0, dp_clip_norm=2.0)
        out = cfg.with_overrides(privacy=PrivacyConfig(dp_epsilon=5.0))
        assert out.dp_epsilon == 5.0
        assert out.dp_clip_norm == 1.0  # instance replaces the whole group

    def test_group_override_with_dict_merges(self):
        cfg = StudyConfig(dp_epsilon=50.0, dp_clip_norm=2.0)
        out = cfg.with_overrides(privacy={"dp_epsilon": 5.0})
        assert out.dp_epsilon == 5.0
        assert out.dp_clip_norm == 2.0  # dict merges into the group

    def test_group_override_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="dp_epsilon"):
            StudyConfig().with_overrides(privacy={"epsilon": 5.0})

    def test_group_with_overrides_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="n_nodes"):
            TopologyConfig().with_overrides(node_count=8)

    def test_mixed_flat_and_group_overrides(self):
        out = StudyConfig().with_overrides(
            rounds=7, execution=ExecutionConfig(executor="batched")
        )
        assert out.rounds == 7
        assert out.executor == "batched"


class TestValidation:
    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (DataConfig, dict(n_train=0)),
            (DataConfig, dict(beta=-1.0)),
            (ModelConfig, dict(learning_rate=0.0)),
            (ModelConfig, dict(lr_decay=0.0)),
            (ModelConfig, dict(batch_size=0)),
            (TopologyConfig, dict(n_nodes=1)),
            (TopologyConfig, dict(view_size=0)),
            (TopologyConfig, dict(drop_prob=1.0)),
            (TopologyConfig, dict(delay_ticks=-1)),
            (ExecutionConfig, dict(executor="process")),
            (ExecutionConfig, dict(executor="thread")),
            (ExecutionConfig, dict(arena_dtype="float16")),
            (ExecutionConfig, dict(train_batch=-2)),
            (PrivacyConfig, dict(dp_epsilon=-1.0)),
            (PrivacyConfig, dict(dp_delta=0.0)),
            (PrivacyConfig, dict(n_canaries=-1)),
        ],
    )
    def test_group_rejects_bad_values(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    def test_flat_construction_runs_group_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(executor="thread")
        with pytest.raises(ValueError):
            StudyConfig(n_nodes=1)

    def test_mlp_hidden_list_normalized_to_tuple(self):
        assert StudyConfig(mlp_hidden=[64, 32]).mlp_hidden == (64, 32)
        assert ModelConfig(mlp_hidden=[64, 32]).mlp_hidden == (64, 32)


class TestPreRemovalExecutionKeys:
    """Configs stored while the dict engine and the process-pool
    executor existed (service journals, checkpoints, manifests) carry
    ``engine`` and ``n_workers``; they keep loading and hashing."""

    def _old_grouped(self, **execution) -> dict:
        payload = StudyConfig(n_nodes=8, seed=3).to_dict()
        # What to_dict wrote before the removal: both keys, defaults.
        payload["execution"] = dict(
            payload["execution"], engine="flat", n_workers=0
        )
        payload["execution"].update(execution)
        return payload

    def test_old_grouped_payload_hashes_like_new_spelling(self):
        from repro.core.config import config_hash

        new = StudyConfig(n_nodes=8, seed=3)
        old = self._old_grouped(n_workers=4)
        assert StudyConfig.from_dict(old) == new
        assert config_hash(old) == config_hash(new.to_dict())
        assert config_hash(old) == new.config_hash()

    def test_old_flat_payload_loads(self):
        old = dict(n_nodes=8, seed=3, engine="flat", n_workers=2)
        assert StudyConfig.from_dict(old) == StudyConfig(n_nodes=8, seed=3)

    def test_process_executor_loads_as_serial(self):
        grouped = StudyConfig.from_dict(self._old_grouped(executor="process"))
        flat = StudyConfig.from_dict(dict(executor="process", n_workers=2))
        assert grouped.executor == flat.executor == "serial"
        assert ExecutionConfig.from_dict(
            {"executor": "process", "n_workers": 2}
        ) == ExecutionConfig()

    def test_dict_engine_rejected_as_removed(self):
        for payload in (
            self._old_grouped(engine="dict"),
            dict(n_nodes=8, engine="dict"),
        ):
            with pytest.raises(ValueError, match="engine 'dict' was removed"):
                StudyConfig.from_dict(payload)
        with pytest.raises(ValueError, match="was removed"):
            ExecutionConfig.from_dict({"engine": "dict"})

    def test_removed_knobs_are_not_constructor_fields(self):
        with pytest.raises(TypeError):
            StudyConfig(engine="flat")
        with pytest.raises(ValueError, match="unknown"):
            StudyConfig().with_overrides(n_workers=2)
        with pytest.raises(ValueError):
            StudyConfig(executor="process")
