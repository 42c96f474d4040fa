"""Malformed and invalid ``POST /studies`` bodies answer 400, create no
job, and never escape the pipeline as an exception (a transport 500).

The requests go through ``StudyService.handle``, the whole middleware
pipeline, so an error the application does not map to 400 would show
up here as a 500.
"""

from __future__ import annotations

import json

import pytest

from repro.service.middleware import Request

from tests.service.conftest import tiny_study_payload


def post_study(service, body: bytes):
    return service.handle(Request(method="POST", path="/studies", body=body))


def assert_rejected(service, response, field: str | None = None) -> None:
    assert response.status == 400, response.body
    if field is not None:
        assert field in json.loads(response.body)["error"]
    assert service.manager.jobs() == []


@pytest.mark.parametrize("body", [b"[1,2]", b'"x"', b"3", b"null"])
def test_json_body_that_is_not_an_object_is_400(service, body):
    assert_rejected(service, post_study(service, body), "mapping")


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(n_nodes="8"), None),
        (dict(rounds=[2]), None),
        (dict(topology={"rounds": "2"}), None),
        (dict(mlp_hidden={"a": 1}), "mlp_hidden"),
        # These used to queue a job: 4.0 and 8.0 then failed it with a
        # TypeError, seed -1 failed it in the data generator, rounds
        # 1.5 ran 2 rounds, and dynamic 1 ran under another config_hash
        # than dynamic true.
        (dict(n_nodes=4.0), "n_nodes"),
        (dict(batch_size=8.0), "batch_size"),
        (dict(seed=-1), "seed"),
        (dict(rounds=1.5), "rounds"),
        (dict(dynamic=1), "dynamic"),
        (dict(dropout=True), "dropout"),
    ],
)
def test_wrongly_typed_field_is_400(service, overrides, field):
    body = json.dumps(tiny_study_payload(**overrides)).encode()
    assert_rejected(service, post_study(service, body), field)


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(dataset="mnist"), "dataset"),
        (dict(protocol="foo"), "protocol"),
        (dict(sampler="foo"), "sampler"),
        (dict(mlp_hidden=[0]), "mlp_hidden"),
        (dict(mlp_hidden=5), "mlp_hidden"),
        (dict(train_per_node=-5), "train_per_node"),
        (dict(momentum=-1), "momentum"),
        # json.dumps writes NaN and the service's json.loads reads it.
        (dict(dp_epsilon=float("nan")), "dp_epsilon"),
        # No sampler can draw a 3-regular graph on 7 nodes.
        (dict(n_nodes=7, view_size=3, sampler="static"), "view_size"),
        (dict(n_nodes=7, view_size=3, sampler="peerswap"), "n_nodes"),
        (dict(n_nodes=7, view_size=3, sampler="fresh"), "view_size"),
    ],
)
def test_names_and_sizes_that_fail_at_build_are_400(service, overrides, field):
    """These configs used to be accepted and queued as a job that then
    failed while building the study (negative momentum: at its first
    local update, mid-study)."""
    body = json.dumps(tiny_study_payload(**overrides)).encode()
    assert_rejected(service, post_study(service, body), field)
