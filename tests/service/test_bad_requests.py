"""Malformed and invalid ``POST /studies`` bodies answer 400, create no
job, and never escape the pipeline as an exception (a transport 500).

The requests go through ``StudyService.handle``, the whole middleware
pipeline: the response cache computes its key before the application
sees the body, so it must bypass on exactly the errors the application
maps to 400.
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
    assert len(service.cache) == 0


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
    ],
)
def test_names_and_sizes_that_fail_at_build_are_400(service, overrides, field):
    """These configs used to be accepted and queued as a job that then
    failed while building the study (negative momentum: at its first
    local update, mid-study)."""
    body = json.dumps(tiny_study_payload(**overrides)).encode()
    assert_rejected(service, post_study(service, body), field)
