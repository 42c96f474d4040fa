"""Telemetry must be invisible to the computation.

The one hard rule of the subsystem: enabling tracing + metrics may
never change a result — no RNG draw, no arena mutation, no config
identity. These tests pin bit-identical round records with telemetry
on vs off across the serial and batched executors (float64),
while also asserting that the instrumented run actually recorded
something (a no-op "instrumentation" would pass vacuously).
"""

from __future__ import annotations

import pytest

from repro.core.study import StudyConfig, run_study
from repro.telemetry import Telemetry


def _tiny_config(**overrides) -> StudyConfig:
    base = dict(
        name="telemetry-determinism",
        dataset="purchase100",
        n_train=160,
        n_test=64,
        num_features=24,
        mlp_hidden=(16,),
        n_nodes=4,
        train_per_node=12,
        test_per_node=6,
        rounds=2,
        ticks_per_round=40,
        arena_dtype="float64",
        seed=7,
    )
    base.update(overrides)
    return StudyConfig(**base)


def _round_jsons(result) -> list[str]:
    return [record.to_json() for record in result.rounds]


@pytest.mark.parametrize(
    "executor_overrides",
    [
        {"executor": "serial"},
        {"executor": "batched"},
    ],
    ids=["serial", "batched"],
)
def test_round_records_bit_identical_with_telemetry_on(executor_overrides):
    config = _tiny_config(**executor_overrides)
    plain = run_study(config)
    telemetry = Telemetry(enabled=True)
    instrumented = run_study(config, telemetry=telemetry)
    assert _round_jsons(plain) == _round_jsons(instrumented)
    # The instrumented run must have actually recorded: phase
    # histograms with one sample per round per phase, and spans.
    phase = telemetry.registry.get("repro_engine_phase_ms")
    assert phase is not None
    for phase_name in ("deliver", "wake", "train", "observe"):
        assert phase.count(phase=phase_name) == config.rounds
    assert {s.name for s in telemetry.tracer.spans()} >= {
        "study.round",
        "observer.observe",
    }


def test_telemetry_never_changes_config_identity():
    # Telemetry travels by reference, not through the config: the
    # canonical hash (dedup/cache identity) cannot see it.
    config = _tiny_config()
    before = config.config_hash()
    run_study(config, telemetry=Telemetry(enabled=True))
    assert config.config_hash() == before


def test_annotation_only_difference_is_metadata():
    config = _tiny_config(executor="batched")
    plain = run_study(config)
    annotated = run_study(config, telemetry=Telemetry(enabled=True))
    silent = run_study(
        config, telemetry=Telemetry(enabled=True, annotate_results=False)
    )
    # annotate_results=False: byte-identical to an uninstrumented run.
    assert silent.to_json() == plain.to_json()
    # annotate_results=True: same rounds, telemetry only in metadata.
    assert _round_jsons(annotated) == _round_jsons(plain)
    assert "telemetry" in annotated.metadata
    assert "telemetry" not in plain.metadata
    assert len(annotated.metadata["telemetry"]["round_ms"]) == config.rounds
