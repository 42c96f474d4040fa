"""Bit-identity contracts of the service layer.

The service is a *view* over the deterministic session layer, so its
outputs must be byte-equal to local computation: the SSE frame
sequence equals ``run_study(...).records`` serialized frame-for-frame
(serial and batched executors, float64), a cache hit replays the miss
byte for byte without a simulator build, and cancel -> resume-from-
checkpoint converges to the same result as an uninterrupted run.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.study import StudyConfig, run_study

from tests.service.conftest import tiny_study_payload


class TestStreamBitIdentity:
    @pytest.mark.parametrize("executor", ["serial", "batched"])
    def test_sse_frames_equal_local_records(
        self, executor, make_service, make_client
    ):
        """Frame-for-frame: what a client streams over the socket is
        exactly what a local run_study produces (float64 arenas)."""
        payload = tiny_study_payload(executor=executor, rounds=3)
        expected = [
            r.to_json() for r in run_study(StudyConfig.from_dict(payload)).rounds
        ]

        service = make_service()
        client = make_client(service)
        _, _, body = client.submit(payload)
        job = service.manager.get(body["id"])
        assert job.wait(120) == "done"
        events = client.stream_events(f"/studies/{body['id']}/stream")
        frames = [e.data for e in events if e.event == "round"]
        assert frames == expected
        # SSE ids are the round indices, in order.
        ids = [int(e.id) for e in events if e.event == "round"]
        assert ids == list(range(len(expected)))

    def test_result_endpoint_equals_local_run_json(
        self, make_service, make_client
    ):
        payload = tiny_study_payload(rounds=3)
        expected = run_study(StudyConfig.from_dict(payload)).to_json()
        service = make_service()
        client = make_client(service)
        _, _, body = client.submit(payload)
        assert service.manager.get(body["id"]).wait(120) == "done"
        _, _, result = client.get(f"/studies/{body['id']}/result")
        assert result.decode("utf-8") == expected


class TestCacheBitIdentity:
    def test_cache_hit_is_byte_identical_with_zero_builds(
        self, make_service, make_client
    ):
        service = make_service()
        client = make_client(service)
        payload = tiny_study_payload()
        status, miss_headers, miss_body = client.request(
            "POST", "/studies", body=json.dumps(payload).encode()
        )
        assert status == 200
        assert miss_headers["X-Cache"] == "miss"
        job_id = json.loads(miss_body)["id"]
        assert service.manager.get(job_id).wait(120) == "done"
        builds = service.manager.builds_performed
        assert builds == 1

        # Same config, different dict ordering and grouped spelling:
        # all three hit the same cache entry, byte for byte, with zero
        # additional simulator builds.
        spellings = [
            payload,
            dict(reversed(list(payload.items()))),
            StudyConfig.from_dict(payload).to_dict(),
        ]
        for spelling in spellings:
            status, headers, body = client.request(
                "POST", "/studies", body=json.dumps(spelling).encode()
            )
            assert status == 200
            assert headers["X-Cache"] == "hit"
            assert body == miss_body
        assert service.manager.builds_performed == builds

        # And the streamed/stored outputs are shared too: one result,
        # one frame buffer, replayable by any number of subscribers.
        first = client.get(f"/studies/{job_id}/result")[2]
        second = client.get(f"/studies/{job_id}/result")[2]
        assert first == second


    def test_pre_shard_removal_payload_shares_the_serial_identity(
        self, service
    ):
        """A float64 payload with the removed sharded-executor keys
        loads as its serial equivalent: POSTing the serial spelling
        after it is a hit with the same bytes and no second build."""
        from repro.service.middleware import Request

        def post(payload):
            return service.handle(
                Request(
                    method="POST", path="/studies",
                    body=json.dumps(payload).encode(),
                )
            )

        legacy = tiny_study_payload(
            executor="sharded", n_shards=2, shard_partition="balanced",
            dropout_mode="stream",
        )
        miss = post(legacy)
        assert (miss.status, miss.headers["X-Cache"]) == (200, "miss")
        job = service.manager.get(json.loads(miss.body)["id"])
        assert job.wait(120) == "done"
        hit = post(tiny_study_payload())
        assert (hit.status, hit.headers["X-Cache"]) == (200, "hit")
        assert hit.body == miss.body
        assert service.manager.builds_performed == 1


class TestCancelResumeBitIdentity:
    @pytest.mark.parametrize("executor", ["serial", "batched"])
    def test_cancel_resume_matches_uninterrupted_run(
        self, executor, make_service, make_client
    ):
        """Cancel after round 0, resume from the checkpoint: the final
        result must equal an uninterrupted run bit for bit (the PR 5
        checkpoint gates, exercised end-to-end through HTTP)."""
        payload = tiny_study_payload(executor=executor, rounds=3, seed=7)
        uninterrupted = run_study(StudyConfig.from_dict(payload))
        expected_frames = [r.to_json() for r in uninterrupted.rounds]
        expected_result = uninterrupted.to_json()

        first_round = threading.Event()
        release = threading.Event()

        def hook(job, record):
            if record.round_index == 0:
                first_round.set()
                assert release.wait(60)

        service = make_service(round_hook=hook)
        client = make_client(service)
        _, _, body = client.submit(payload)
        job_id = body["id"]
        assert first_round.wait(60)
        assert client.post_json(f"/studies/{job_id}/cancel")[0] == 202
        release.set()
        job = service.manager.get(job_id)
        assert job.wait(60) == "cancelled"
        assert len(job.frames) == 1  # stopped at the round boundary
        assert job.checkpoint_path is not None

        assert client.post_json(f"/studies/{job_id}/resume")[0] == 202
        assert job.wait(120) == "done"
        # Frames: the single pre-cancel frame plus the resumed rounds,
        # identical to the uninterrupted sequence.
        frames = client.round_frames(job_id)
        assert frames == expected_frames
        _, _, result = client.get(f"/studies/{job_id}/result")
        assert result.decode("utf-8") == expected_result
        # Cancel+resume costs exactly one extra build (the resume).
        assert service.manager.builds_performed == 2

    def test_resubmitting_a_cancelled_study_returns_it_unbuilt(
        self, make_service, make_client
    ):
        """A cancelled job still owns its config: resubmitting the
        payload answers the original submission bytes as a hit with no
        build, and the job then resumes to the uninterrupted result."""
        payload = tiny_study_payload(rounds=3, seed=9)
        expected_result = run_study(StudyConfig.from_dict(payload)).to_json()

        first_round = threading.Event()
        release = threading.Event()

        def hook(job, record):
            if record.round_index == 0:
                first_round.set()
                assert release.wait(60)

        service = make_service(round_hook=hook)
        client = make_client(service)
        body = json.dumps(payload).encode()
        status, headers, miss_body = client.request("POST", "/studies", body=body)
        assert (status, headers["X-Cache"]) == (200, "miss")
        job_id = json.loads(miss_body)["id"]
        assert first_round.wait(60)
        assert client.post_json(f"/studies/{job_id}/cancel")[0] == 202
        release.set()
        job = service.manager.get(job_id)
        assert job.wait(60) == "cancelled"
        builds = service.manager.builds_performed

        status, headers, resubmitted = client.request(
            "POST", "/studies", body=body
        )
        assert status == 200
        assert headers["X-Cache"] == "hit"
        assert resubmitted == miss_body
        assert service.manager.builds_performed == builds

        assert client.post_json(f"/studies/{job_id}/resume")[0] == 202
        assert job.wait(120) == "done"
        _, _, result = client.get(f"/studies/{job_id}/result")
        assert result.decode("utf-8") == expected_result
