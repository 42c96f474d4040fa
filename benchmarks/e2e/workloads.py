"""The benchmark's workloads: three study scenarios and one service mix.

Engine workloads are ``StudyConfig`` payloads that set scenario fields
only. Every execution field (``engine``, ``executor``, ``n_workers``,
``n_shards``, ``train_batch``, ``eval_batch``, ``arena_dtype``) stays at
its default, so a change to those defaults is measured, not bypassed.
The config ``seed`` is the benchmark's ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ENGINE = "engine"
SERVICE = "service"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    why: str
    payload: dict = field(default_factory=dict)
    # Seconds per round measured on the reference box (2 CPUs); sizes
    # the fixed round count of an engine run (see engine_rounds).
    round_s: float = 0.0


_WORKLOADS = (
    Workload(
        "samo-static-64",
        ENGINE,
        "Paper baseline: SAMO on a static 64-node graph. Observe and local "
        "training each take ~40% of a round, so observer and training "
        "kernels show here.",
        dict(dataset="purchase100", n_nodes=64, protocol="samo", view_size=2),
        round_s=1.0,
    ),
    Workload(
        "base-peerswap-dp-16",
        ENGINE,
        "Control: DP-SGD is ~90% of a Base Gossip round on a PeerSwap graph, "
        "so observer changes must not move it. Covers per-reception merges "
        "and sigma calibration.",
        dict(
            dataset="purchase100",
            n_nodes=16,
            protocol="base_gossip",
            sampler="peerswap",
            view_size=2,
            dp_epsilon=8.0,
            local_epochs=1,
        ),
        round_s=1.9,
    ),
    Workload(
        "samo-peerswap-v8-128",
        ENGINE,
        "The mixing layer: 128 nodes, view 8, PeerSwap. Averaging, 1.6 MB "
        "message copies and buffered inboxes dominate, so aggregation, "
        "messaging and memory changes show.",
        dict(
            dataset="purchase100",
            n_nodes=128,
            protocol="samo",
            sampler="peerswap",
            view_size=8,
            local_epochs=1,
            train_per_node=16,
            test_per_node=16,
            max_global_test=128,
            max_attack_samples=16,
        ),
        round_s=1.55,
    ),
    Workload(
        "service-durable-mix",
        SERVICE,
        "Durable HTTP/SSE service, 2 closed-loop clients submitting fresh, "
        "cache-hit and cancel-resume studies. HTTP, jobs, journal and "
        "checkpoints dominate, not kernels.",
        dict(
            dataset="purchase100",
            n_nodes=8,
            rounds=4,
            n_train=600,
            n_test=150,
            num_features=64,
            mlp_hidden=[32, 16],
            train_per_node=24,
            test_per_node=12,
            local_epochs=1,
            batch_size=12,
            max_attack_samples=32,
            max_global_test=64,
        ),
    ),
)

WORKLOADS: dict[str, Workload] = {w.name: w for w in _WORKLOADS}

# -- service traffic mix ------------------------------------------------

# Closed loop: each client sends its next request only after the
# previous one completed. At most one thread (and one connection) per
# CPU of the reference box.
SERVICE_CLIENTS = 2
# One block per client loop iteration group: 5 fresh studies, 4
# cache-hit repeats of earlier ones, 1 cancel -> resume.
SERVICE_BLOCK = (
    "fresh", "hit", "fresh", "hit", "fresh",
    "hit", "fresh", "hit", "fresh", "cancel",
)
# Long enough that a cancel sent after the first round lands mid-run.
CANCEL_ROUNDS = 24
# Distinct config seeds per kind; studies also differ by name, so each
# submission is a cache miss while the untimed reruns that verify every
# served result stay few.
FRESH_SEEDS = 3
CANCEL_SEEDS = 2
# The default rate limit (25 req/s) would make the benchmark measure a
# policy constant (429s) rather than the service.
SERVER_ARGS = (
    "--job-workers", "1",
    "--rate-capacity", "100000",
    "--rate-refill", "100000",
)


def engine_rounds(workload: Workload, seconds: float) -> int:
    """Study horizon for a run that measures about ``seconds``.

    Round 0 counts as set-up; the timed rounds are as many as the
    reference-box round cost fits in the window. The count depends on
    ``seconds`` only, never on the measured speed, so one ``--seconds``
    always runs the same rounds and the records digest stays fixed.
    """
    return 1 + max(2, round(seconds / workload.round_s))


def study_payload(workload: Workload, seed: int, rounds: int | None = None) -> dict:
    """The ``StudyConfig`` payload of one run of ``workload``."""
    payload = dict(workload.payload, seed=seed, name=workload.name)
    if rounds is not None:
        payload["rounds"] = rounds
    return payload


def service_payload(seed: int, kind: str, client: int, index: int) -> dict:
    """One study submitted by the service mix (``kind`` fresh or cancel)."""
    base = WORKLOADS["service-durable-mix"]
    if kind == "cancel":
        return dict(
            base.payload,
            rounds=CANCEL_ROUNDS,
            seed=seed * 1000 + 100 + index % CANCEL_SEEDS,
            name=f"e2e-c{client}-cancel-{index}",
        )
    return dict(
        base.payload,
        seed=seed * 1000 + index % FRESH_SEEDS,
        name=f"e2e-c{client}-fresh-{index}",
    )
