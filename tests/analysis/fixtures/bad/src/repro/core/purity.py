"""Purity violations: mutable defaults, non-JSON config fields,
telemetry objects riding inside configs and task payloads, imports of
the test suite."""

from dataclasses import dataclass
from typing import Callable

import reference_trainer  # purity-oracle-import: a test oracle
from repro.telemetry import Telemetry
from tests.reference_nn import SGD  # purity-oracle-import: the tests package


@dataclass
class SweepConfig:
    name: str
    rounds: int
    on_round: Callable  # purity-config-field: not JSON-round-trippable


@dataclass
class ShardTask:
    node_id: int
    tel: Telemetry  # purity-telemetry-field: telemetry in a payload


@dataclass
class ProbeConfig:
    label: str
    tracer: "Tracer"  # purity-telemetry-field (string annotation)


def accumulate(value, acc=[]):  # purity-mutable-default
    acc.append(value)
    return acc


def tag(value, seen={}):  # purity-mutable-default
    seen[value] = True
    return seen
