"""Tests for the study configuration (repro.core.config)."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro import StudyConfig
from repro.core.config import config_hash
from repro.data.datasets import DATASET_BUILDERS

GROUPS = ("data", "model", "topology", "execution", "privacy")
DOCS = Path(__file__).resolve().parents[2] / "docs" / "configuration.md"


def groups_from_metadata() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for f in fields(StudyConfig):
        if "group" in f.metadata:
            out.setdefault(f.metadata["group"], []).append(f.name)
    return out


class TestGroups:
    def test_every_field_but_name_and_seed_has_one_group(self):
        grouped = groups_from_metadata()
        assert tuple(grouped) == GROUPS
        names = [name for group in grouped.values() for name in group]
        assert len(names) == len(set(names))
        assert set(names) | {"name", "seed"} == {
            f.name for f in fields(StudyConfig)
        }

    def test_to_dict_sections_follow_the_metadata(self):
        payload = StudyConfig().to_dict()
        assert list(payload) == ["name", "seed", *GROUPS]
        for group, names in groups_from_metadata().items():
            assert list(payload[group]) == names

    def test_docs_group_table_matches_the_metadata(self):
        """docs/configuration.md lists each group's fields; the table
        must say what the field metadata says."""
        rows = re.findall(
            r"^\| `(\w+)` \| ((?:`\w+`(?:, )?)+) \|$",
            DOCS.read_text(),
            flags=re.MULTILINE,
        )
        table = {
            group: re.findall(r"`(\w+)`", cells)
            for group, cells in rows
            if group in GROUPS
        }
        assert table == groups_from_metadata()

    def test_docs_field_tables_sit_under_their_group(self):
        """Each StudyConfig field table in docs/configuration.md sits
        under a heading naming its group."""
        doc = DOCS.read_text().split("## StudyConfig", 1)[1]
        doc = doc.split("\n## ", 1)[0]
        sections = re.findall(
            r"^### [^\n]*\(`(\w+)`\)\n(.*?)(?=^### |\Z)",
            doc,
            flags=re.MULTILINE | re.DOTALL,
        )
        assert [group for group, _ in sections] == [
            "data", "model", "topology", "privacy", "execution"
        ]
        group_of = {
            name: group
            for group, names in groups_from_metadata().items()
            for name in names
        }
        for group, body in sections:
            rows = re.findall(r"^\| ((?:`\w+`(?:, )?)+) \|", body, re.MULTILINE)
            assert rows, group
            for cell in rows:
                for name in re.findall(r"`(\w+)`", cell):
                    assert group_of[name] == group, (name, group)

    def test_docs_study_flag_table_matches_the_parser(self):
        """docs/configuration.md's ``study`` flag table lists every flag
        of the parser and maps each config flag to the field the parser
        fills from it (rows without field names map to none)."""
        import argparse

        from repro.cli import _add_study_parser, _study_knobs

        doc = DOCS.read_text().split("### `study`", 1)[1].split("\n### ", 1)[0]
        table = {}
        for flags_cell, maps_to in re.findall(
            r"^\| ((?:`--[\w-]+`(?:, )?)+) \| ([^|]*) \|", doc, re.MULTILINE
        ):
            flags = re.findall(r"`(--[\w-]+)`", flags_cell)
            names = re.findall(r"`(\w+)`", maps_to) or [None] * len(flags)
            assert len(names) == len(flags), flags_cell
            table.update(zip(flags, names))
        sub = argparse.ArgumentParser().add_subparsers()
        _add_study_parser(sub)
        parser_flags = {
            flag
            for action in sub.choices["study"]._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        assert set(table) == parser_flags
        assert {flag: name for flag, name in table.items() if name} == {
            f.metadata["flag"]: f.name for _, f in _study_knobs()
        }

    def test_dataset_tables_cover_the_dataset_registry(self):
        for dataset in DATASET_BUILDERS:
            config = StudyConfig(dataset=dataset)
            assert config.architecture in ("cnn", "resnet8", "mlp")
            assert config.num_classes in (10, 100)
            assert config.in_channels in (1, 3)


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

    def test_from_dict_accepts_grouped_and_mixed_sections(self):
        flat = StudyConfig(name="x", seed=3, dataset="purchase100", n_nodes=8,
                           rounds=2, dp_epsilon=10.0)
        grouped = StudyConfig.from_dict(
            {
                "name": "x",
                "seed": 3,
                "data": {"dataset": "purchase100"},
                "topology": {"n_nodes": 8, "rounds": 2},
                "privacy": {"dp_epsilon": 10.0},
            }
        )
        mixed = StudyConfig.from_dict(
            {
                "name": "x",
                "seed": 3,
                "dataset": "purchase100",
                "topology": {"n_nodes": 8, "rounds": 2},
                "dp_epsilon": 10.0,
            }
        )
        assert grouped == mixed == flat

    def test_a_section_stands_for_its_whole_group(self):
        """Omitted fields of a section take their defaults — also over
        flat keys of that group that come before the section."""
        cfg = StudyConfig.from_dict(
            {"rounds": 7, "topology": {"n_nodes": 8}, "dp_epsilon": 5.0}
        )
        assert (cfg.n_nodes, cfg.rounds, cfg.dp_epsilon) == (8, 10, 5.0)
        later = StudyConfig.from_dict({"topology": {"n_nodes": 8}, "rounds": 7})
        assert (later.n_nodes, later.rounds) == (8, 7)

    def test_from_dict_rejects_unknown_keys_listing_valid(self):
        with pytest.raises(ValueError, match="n_nodes"):
            StudyConfig.from_dict({"nodes": 8})
        with pytest.raises(ValueError, match="unknown data field.*dataset"):
            StudyConfig.from_dict({"data": {"datset": "cifar10"}})
        # A field in the wrong section is unknown there.
        with pytest.raises(ValueError, match="unknown model field"):
            StudyConfig.from_dict({"model": {"n_nodes": 8}})

    @pytest.mark.parametrize("payload", [[1, 2], "x", 3, None])
    def test_from_dict_needs_a_mapping(self, payload):
        with pytest.raises(ValueError, match="needs a mapping"):
            StudyConfig.from_dict(payload)

    def test_a_section_needs_a_mapping(self):
        with pytest.raises(ValueError, match="privacy section needs a mapping"):
            StudyConfig.from_dict({"privacy": 10.0})


class TestConfigHash:
    @pytest.mark.parametrize("payload", [[1, 2], "x", 3, None])
    def test_rejects_non_mappings_with_value_error(self, payload):
        with pytest.raises(ValueError, match="StudyConfig or a mapping"):
            config_hash(payload)

    def test_config_and_its_dict_hash_alike(self):
        cfg = StudyConfig(n_nodes=8, dp_epsilon=4.0)
        assert config_hash(cfg) == config_hash(cfg.to_dict()) == cfg.config_hash()


class TestOverrides:
    def test_flat_override_unknown_key_lists_valid_fields(self):
        cfg = StudyConfig()
        with pytest.raises(ValueError) as excinfo:
            cfg.with_overrides(nodes=8)
        message = str(excinfo.value)
        assert "nodes" in message
        assert "n_nodes" in message  # the valid spelling is suggested

    def test_group_override_with_dict_merges(self):
        cfg = StudyConfig(dp_epsilon=50.0, dp_clip_norm=2.0)
        out = cfg.with_overrides(privacy={"dp_epsilon": 5.0})
        assert out.dp_epsilon == 5.0
        assert out.dp_clip_norm == 2.0  # dict merges into the group

    def test_group_override_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="dp_epsilon"):
            StudyConfig().with_overrides(privacy={"epsilon": 5.0})
        with pytest.raises(ValueError, match="unknown topology field"):
            StudyConfig().with_overrides(topology={"dp_epsilon": 5.0})

    def test_group_override_needs_a_dict(self):
        with pytest.raises(ValueError, match="needs a mapping"):
            StudyConfig().with_overrides(privacy=5.0)

    def test_mixed_flat_and_group_overrides(self):
        out = StudyConfig().with_overrides(
            rounds=7, execution={"executor": "batched"}
        )
        assert out.rounds == 7
        assert out.executor == "batched"

    def test_overrides_are_validated(self):
        with pytest.raises(ValueError, match="rounds"):
            StudyConfig().with_overrides(topology={"rounds": 0})


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_train=0),
            dict(beta=-1.0),
            dict(learning_rate=0.0),
            dict(lr_decay=0.0),
            dict(batch_size=0),
            dict(n_nodes=1),
            dict(view_size=0),
            dict(drop_prob=1.0),
            dict(delay_ticks=-1),
            dict(executor="process"),
            dict(executor="thread"),
            dict(arena_dtype="float16"),
            dict(train_batch=-1),
            dict(eval_batch=-2),
            dict(dropout_mode="bogus"),
            dict(dp_epsilon=-1.0),
            dict(dp_delta=0.0),
            dict(n_canaries=-1),
            dict(eval_batch=-1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            StudyConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(dataset="mnist"), "unknown dataset 'mnist'"),
            (dict(protocol="foo"), "unknown protocol 'foo'"),
            (dict(sampler="foo"), "unknown sampler 'foo'"),
            (dict(mlp_hidden=(0,)), "mlp_hidden"),
            (dict(mlp_hidden=5), "mlp_hidden"),
            (dict(mlp_hidden=(32, 1.5)), "mlp_hidden"),
            (dict(train_per_node=-5), "train_per_node"),
            (dict(train_per_node=0), "train_per_node"),
            (dict(test_per_node=-1), "test_per_node"),
            (dict(dropout_mode="legacy"), "removed with the workspace trainer"),
            # Negative momentum used to fail at the first local update;
            # the others ran to completion on NaN models.
            (dict(momentum=-0.5), "momentum must be finite and >= 0"),
            (dict(momentum=float("nan")), "momentum"),
            (dict(learning_rate=float("nan")), "learning_rate must be finite"),
            (dict(learning_rate=float("inf")), "learning_rate"),
            (dict(weight_decay=-1.0), "weight_decay must be finite and >= 0"),
            (dict(weight_decay=float("inf")), "weight_decay"),
            # A NaN or infinite epsilon calibrated to sigma ~0.1, the
            # floor of the search: a study labelled DP with no noise.
            (dict(dp_epsilon=float("nan")), "dp_epsilon must be finite"),
            (dict(dp_epsilon=float("inf")), "dp_epsilon"),
            (dict(dp_clip_norm=float("nan")), "dp_clip_norm must be finite"),
            (dict(dp_clip_norm=float("inf")), "dp_clip_norm"),
            # Declared types: a bool or a non-integral number in an int
            # field, a non-bool in a bool field, a bool in a float field.
            (dict(n_nodes=4.0), "n_nodes must be an int, got 4.0"),
            (dict(batch_size=8.0), "batch_size must be an int"),
            (dict(rounds=1.5), "rounds must be an int"),
            (dict(rounds=True), "rounds must be an int"),
            (dict(train_per_node=2.5), r"train_per_node must be an int \(or None\)"),
            (dict(n_nodes="8"), "n_nodes must be an int"),
            (dict(dynamic=1), "dynamic must be a bool, got 1"),
            (dict(keep_node_records="yes"), "keep_node_records must be a bool"),
            (dict(dropout=True), "dropout must be a float, got True"),
            (dict(beta=False), r"beta must be a float \(or None\)"),
            (dict(dp_epsilon="8"), "dp_epsilon must be a float"),
            (dict(seed=-1), "seed must be non-negative, got -1"),
            (dict(mlp_hidden=(True, 4)), "mlp_hidden"),
            # Every sampler starts from a view_size-regular graph, so
            # n_nodes * view_size must be even (the message names both).
            (dict(n_nodes=7, view_size=3, sampler="static"), "n_nodes=7, view_size=3"),
            (dict(n_nodes=7, view_size=3, sampler="peerswap"), "n_nodes=7, view_size=3"),
            (dict(n_nodes=7, view_size=3, sampler="fresh"), "n_nodes=7, view_size=3"),
        ],
    )
    def test_rejects_names_and_sizes_that_fail_at_build(self, kwargs, message):
        """These values used to construct and then fail (or silently
        misbehave) only when the study was built."""
        with pytest.raises(ValueError, match=message):
            StudyConfig(**kwargs)

    def test_registry_names_are_accepted(self):
        for sampler in (None, "static", "peerswap", "fresh"):
            StudyConfig(sampler=sampler)
        for protocol in ("samo", "base_gossip", "base_gossip_partial"):
            StudyConfig(protocol=protocol)
        StudyConfig(train_per_node=None, test_per_node=None, mlp_hidden=())

    def test_mlp_hidden_list_normalized_to_tuple(self):
        assert StudyConfig(mlp_hidden=[64, 32]).mlp_hidden == (64, 32)

    def test_declared_types_accept_what_they_declare(self):
        """An int in a float field, None in an optional one, and any
        value in a str field that its name check allows."""
        config = StudyConfig(
            learning_rate=1, dropout=0, beta=None, dp_epsilon=8,
            train_per_node=None, name=7, dynamic=True,
        )
        assert (config.learning_rate, config.name) == (1, 7)


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
        nested = StudyConfig.from_dict(
            {"execution": {"executor": "process", "n_workers": 2}}
        )
        assert grouped.executor == flat.executor == nested.executor == "serial"
        assert nested == StudyConfig()

    def test_dict_engine_rejected_as_removed(self):
        for payload in (
            self._old_grouped(engine="dict"),
            dict(n_nodes=8, engine="dict"),
            {"execution": {"engine": "dict"}},
        ):
            with pytest.raises(ValueError, match="engine 'dict' was removed"):
                StudyConfig.from_dict(payload)

    def test_removed_knobs_are_not_constructor_fields(self):
        with pytest.raises(TypeError):
            StudyConfig(engine="flat")
        with pytest.raises(ValueError, match="unknown"):
            StudyConfig().with_overrides(n_workers=2)
        with pytest.raises(ValueError, match="unknown execution field"):
            StudyConfig().with_overrides(execution={"engine": "flat"})
        with pytest.raises(ValueError):
            StudyConfig(executor="process")
