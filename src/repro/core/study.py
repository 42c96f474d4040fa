"""Session API for a full MIA-vulnerability study.

A :class:`~repro.core.config.StudyConfig` (defined in
:mod:`repro.core.config`, re-exported here) describes one run.

:class:`Study` is the session object with an explicit lifecycle:

* :meth:`Study.build` constructs the pipeline (data, model, simulator,
  observer) without running anything;
* :meth:`Study.iter_rounds` is a generator yielding one
  :class:`~repro.metrics.records.RoundRecord` per completed round, so
  callers can stream metrics, early-stop on a predicate, or inject
  faults mid-run;
* :meth:`Study.checkpoint` / :meth:`Study.resume` serialize the full
  mutable run state (arena rows, node RNG streams, in-flight messages,
  sampler views, observer state) so an interrupted run continues
  bit-identically in float64;
* the context-manager protocol guarantees executor cleanup
  (:meth:`Study.close`).

:func:`run_study` stays the one-call wrapper and is bit-identical to
the pre-session API.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Iterator

import numpy as np

from repro.core.attacker import OmniscientObserver
from repro.core.config import StudyConfig
from repro.data.canary import make_canaries, inject_canaries
from repro.data.datasets import make_dataset
from repro.data.partition import make_node_splits
from repro.gossip.engine import FlatGossipSimulator
from repro.gossip.protocols import make_protocol
from repro.gossip.trainer import BatchedTrainer
from repro.metrics.records import RoundRecord, RunResult
from repro.nn.models import build_model
from repro.nn.serialize import get_state
from repro.privacy.accountant import RDPAccountant, calibrate_sigma
from repro.privacy.dp import DPSGDConfig
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["StudyConfig", "Study", "run_study"]

# On-disk checkpoint format tag (bump on incompatible layout changes).
CHECKPOINT_FORMAT = "repro-study-checkpoint"
CHECKPOINT_VERSION = 1


class Study:
    """One experiment as a long-lived, introspectable session.

    Lifecycle::

        with Study(config) as study:        # __enter__ calls build()
            for record in study.iter_rounds():
                ...                          # stream, early-stop, inject
                study.checkpoint("run.ckpt") # optional, any boundary
            result = study.result()

    ``run()`` collapses the whole lifecycle into one call and is
    bit-identical to the historical ``run_study`` behavior. A study
    interrupted at round k can be serialized with :meth:`checkpoint`
    and continued by :meth:`resume`; the resumed run reproduces the
    uninterrupted ``RunResult`` bit for bit on float64 arenas.
    """

    def __init__(
        self, config: StudyConfig, telemetry: Telemetry | None = None
    ):
        self.config = config
        # Telemetry travels by reference, never through the config: it
        # must not change config_hash, cache identity, or any RNG draw.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = self.telemetry if self.telemetry.enabled else None
        self._round_ms: list[float] = []
        if self._tel is not None:
            self._round_hist = self.telemetry.registry.histogram(
                "repro_study_round_ms",
                "Wall-clock of one full study round (simulate + observe)",
            ).child()
        self._built = False
        self._finalized = False
        self._rounds_done = 0
        # Set from any thread (the service layer's HTTP handlers);
        # honored by iter_rounds at the next round boundary, which is
        # also the checkpoint granularity — a cancelled study can
        # always be checkpointed and resumed bit-identically.
        self._cancel = threading.Event()

    # -- lifecycle ------------------------------------------------------

    def build(self) -> "Study":
        """Construct the pipeline (idempotent); returns self."""
        if self._built:
            return self
        self._build()
        self._built = True
        return self

    def __enter__(self) -> "Study":
        return self.build()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the simulator's executor (idempotent)."""
        if self._built:
            self.simulator.close()

    @property
    def rounds_completed(self) -> int:
        """Rounds observed so far (also the next round index)."""
        return self._rounds_done

    # -- cancellation ---------------------------------------------------

    def request_cancel(self) -> None:
        """Ask a running :meth:`iter_rounds` loop to stop (thread-safe).

        Takes effect at the next round boundary: the generator returns
        instead of starting another round. The study stays open —
        callers can still :meth:`checkpoint`, read :meth:`result` for
        the partial run, and must :meth:`close` as usual.
        """
        self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        """Whether :meth:`request_cancel` has been called."""
        return self._cancel.is_set()

    def clear_cancel(self) -> None:
        """Re-arm the session after a cancelled :meth:`iter_rounds`."""
        self._cancel.clear()

    # -- construction ---------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        # Data ---------------------------------------------------------
        dataset_kwargs = {}
        if cfg.architecture != "mlp":
            dataset_kwargs["image_size"] = cfg.image_size
        else:
            dataset_kwargs["num_features"] = cfg.num_features
        self.base_train, self.global_test = make_dataset(
            cfg.dataset, cfg.n_train, cfg.n_test, seed=cfg.seed, **dataset_kwargs
        )
        data_rng = np.random.default_rng(cfg.seed + 1)
        self.splits = make_node_splits(
            self.base_train,
            cfg.n_nodes,
            train_per_node=cfg.train_per_node,
            test_per_node=cfg.test_per_node,
            beta=cfg.beta,
            seed=cfg.seed + 2,
        )
        self.canaries = None
        if cfg.n_canaries > 0:
            self.canaries = make_canaries(
                self.base_train, cfg.n_canaries, cfg.n_nodes, data_rng
            )
            self.splits = inject_canaries(self.splits, self.canaries)
        # Model ---------------------------------------------------------
        self.model = build_model(
            cfg.architecture,
            in_channels=cfg.in_channels,
            image_size=cfg.image_size,
            in_features=cfg.num_features,
            num_classes=cfg.num_classes,
            width=cfg.model_width,
            hidden=cfg.mlp_hidden,
            seed=cfg.seed,
            dropout=cfg.dropout,
        )
        self.initial_state = get_state(self.model)
        # Protocol / simulator -------------------------------------------
        trainer = BatchedTrainer(self.model, cfg.trainer_config())
        self.protocol = make_protocol(cfg.protocol, trainer)
        self.simulator = FlatGossipSimulator(
            cfg.simulator_config(),
            self.protocol,
            self.splits,
            self.initial_state,
            telemetry=self.telemetry,
        )
        # From here on a live simulator exists; a failing construction
        # step must not leak it — close() won't run because _built is
        # never set.
        try:
            # DP: calibrated against the exact wake schedule, enforced
            # with a per-node update cap so the budget is a hard
            # guarantee.
            self._dp_q = 0.0
            self._sigma = 0.0
            if cfg.dp_epsilon is not None:
                self._install_dp()
            self.observer = OmniscientObserver(
                self.model,
                self.global_test,
                canaries=self.canaries,
                canary_base=self.base_train if self.canaries else None,
                max_global_test=cfg.max_global_test,
                max_attack_samples=cfg.max_attack_samples,
                seed=cfg.seed + 4,
                keep_node_records=cfg.keep_node_records,
                eval_batch=cfg.eval_batch,
                telemetry=self.telemetry,
            )
            if cfg.dp_epsilon is not None:
                self.observer.set_epsilon_fn(self._epsilon_at_round)
        except BaseException:
            self.simulator.close()
            raise

    # -- DP plumbing ----------------------------------------------------

    def _steps_per_update(self) -> int:
        """DP-SGD steps in one local update of the largest node."""
        cfg = self.config
        sizes = [max(1, s.train.indices.size) for s in self.splits]
        return max(
            cfg.local_epochs * math.ceil(n / cfg.batch_size) for n in sizes
        )

    def _install_dp(self) -> None:
        """Calibrate sigma against the planned run and cap updates.

        The wake schedule is already fixed, so the maximum number of
        wake-ups per node over the horizon is exact; the per-node
        update cap makes it an upper bound on local updates for both
        protocols (Base Gossip trains on receptions, which the cap also
        covers), turning the calibrated budget into a hard guarantee.
        """
        cfg = self.config
        assert cfg.dp_epsilon is not None
        horizon = cfg.rounds * cfg.ticks_per_round
        max_wakes = max(
            self.simulator.schedule.count_wakes(i, horizon)
            for i in range(cfg.n_nodes)
        )
        planned_updates = max(1, max_wakes)
        local_n = max(1, min(s.train.indices.size for s in self.splits))
        q = min(1.0, cfg.batch_size / local_n)
        total_steps = planned_updates * self._steps_per_update()
        sigma = calibrate_sigma(cfg.dp_epsilon, cfg.dp_delta, q, total_steps)
        dp_config = DPSGDConfig(
            clip_norm=cfg.dp_clip_norm,
            noise_multiplier=sigma,
            target_epsilon=cfg.dp_epsilon,
            target_delta=cfg.dp_delta,
        )
        trainer = self.protocol.trainer
        # Through the simulator so the swap revalidates and reaches the
        # live executor (it trains with the protocol's trainer).
        self.simulator.set_trainer_config(replace(trainer.config, dp=dp_config))
        self.protocol.max_updates_per_node = planned_updates
        self._dp_q = q
        self._sigma = sigma

    def _epsilon_at_round(self, round_index: int) -> float:
        """Epsilon spent by the busiest node up to ``round_index``."""
        updates = max(n.updates_performed for n in self.simulator.nodes)
        accountant = RDPAccountant()
        accountant.step(self._dp_q, self._sigma, updates * self._steps_per_update())
        return accountant.get_epsilon(self.config.dp_delta)

    # -- execution --------------------------------------------------------

    def iter_rounds(self, rounds: int | None = None) -> Iterator[RoundRecord]:
        """Stream the remaining rounds, one :class:`RoundRecord` each.

        ``rounds`` bounds how many *additional* rounds to run (capped
        at the config horizon); None runs to the horizon. The generator
        can be abandoned at any boundary (early stopping) — call
        :meth:`result` for the partial run and :meth:`close` to release
        resources. End-of-run bookkeeping (final message flush and the
        ``messages_undelivered`` tally) happens exactly once, when the
        configured horizon is reached.
        """
        self.build()
        target = self.config.rounds
        if rounds is not None:
            if rounds < 0:
                raise ValueError("rounds must be non-negative")
            target = min(target, self._rounds_done + rounds)
        tel = self._tel
        try:
            while self._rounds_done < target:
                if self._cancel.is_set():
                    # Cancelled between rounds: stop without the
                    # end-of-run finalization — the horizon was not
                    # reached, and a resume must replay the remaining
                    # rounds bit-identically.
                    if tel is not None:
                        tel.tracer.event(
                            "study.cancelled", round=self._rounds_done
                        )
                    return
                round_index = self._rounds_done
                if tel is None:
                    self.simulator.run_round()
                    self.observer(round_index, self.simulator)
                else:
                    with tel.tracer.span("study.round", round=round_index):
                        start = perf_counter()
                        self.simulator.run_round()
                        self.observer(round_index, self.simulator)
                        elapsed = (perf_counter() - start) * 1000.0
                    self._round_ms.append(elapsed)
                    self._round_hist.observe(elapsed)
                self._rounds_done += 1
                # Finalize BEFORE the last yield: a caller that breaks
                # on the final record (a predicate satisfied at the
                # horizon) must still get the end-of-run flush and tally.
                self._maybe_finish()
                yield self.observer.records[-1]
        except GeneratorExit:
            # The caller abandoned the generator mid-run — the
            # early-stopping pattern. Mark it so traces show where and
            # why a run ended short of the horizon.
            if tel is not None and self._rounds_done < self.config.rounds:
                tel.tracer.event("study.early_stop", round=self._rounds_done)
            raise
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._rounds_done >= self.config.rounds and not self._finalized:
            self.simulator.finish()
            self._finalized = True

    def run(self) -> RunResult:
        """Run to the horizon and clean up (the one-call API)."""
        try:
            for _ in self.iter_rounds():
                pass
            return self.result()
        finally:
            self.close()

    @property
    def records(self) -> list[RoundRecord]:
        """Records observed so far (live view of the observer's list)."""
        self.build()
        return self.observer.records

    def result(self) -> RunResult:
        """The run so far as a :class:`RunResult` (partial runs included).

        When the study runs with live telemetry *and*
        ``annotate_results`` is on, ``metadata["telemetry"]`` carries
        the per-round wall-clock series and a metrics snapshot for
        offline inspection (``repro report --telemetry``). The service
        keeps annotation off: result bytes must stay identical to a
        plain ``run_study`` of the same config.
        """
        self.build()
        result = RunResult(
            config_name=self.config.name,
            rounds=list(self.observer.records),
            metadata={
                "dataset": self.config.dataset,
                "protocol": self.config.protocol,
                "dynamic": self.config.dynamic,
                "sampler": self.simulator.config.sampler_name,
                "view_size": self.config.view_size,
                "beta": self.config.beta,
                "dp_epsilon": self.config.dp_epsilon,
                "noise_multiplier": self._sigma,
                "n_nodes": self.config.n_nodes,
                "executor": self.config.executor,
                "train_batch": self.config.train_batch,
                "eval_batch": self.config.eval_batch,
                "dropout": self.config.dropout,
                "messages_dropped": self.simulator.messages_dropped,
                "wakes_skipped": self.simulator.wakes_skipped,
                "messages_undelivered": self.simulator.messages_undelivered,
                "fallback_counts": self.simulator.fallback_counts(),
            },
        )
        if self.telemetry.annotate_results:
            tracer = self.telemetry.tracer
            result.metadata["telemetry"] = {
                "round_ms": [round(ms, 3) for ms in self._round_ms],
                "spans_recorded": len(tracer.spans()),
                "spans_dropped": tracer.dropped,
                "metrics": self.telemetry.registry.snapshot(),
            }
        return result

    # -- checkpoint / resume ----------------------------------------------

    def checkpoint(self, path: str | Path) -> Path:
        """Serialize config + full mutable run state to ``path``.

        Call at a round boundary (between :meth:`iter_rounds` yields).
        The file carries the arena/node model states, every RNG stream
        (simulator, per-node, observer), sampler views, in-flight and
        pending messages, per-node counters (which also drive the DP
        accountant) and the observer's records — everything needed for
        :meth:`resume` to continue bit-identically in float64.
        """
        self.build()
        path = Path(path)
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "rounds_done": self._rounds_done,
            "finalized": self._finalized,
            "simulator": self.simulator.capture_state(),
            "observer": self.observer.capture_state(),
        }
        # Write-then-rename: a crash mid-dump (the exact scenario
        # checkpoints exist for) must not destroy the previous good
        # checkpoint at this path.
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as handle:
            pickle.dump(payload, handle)
        os.replace(tmp, path)
        return path

    @classmethod
    def resume(
        cls, path: str | Path, telemetry: Telemetry | None = None
    ) -> "Study":
        """Rebuild a session from a :meth:`checkpoint` file.

        The pipeline is reconstructed deterministically from the stored
        config, then every piece of mutable state is restored, so
        ``iter_rounds`` continues exactly where the checkpointed study
        stopped.
        """
        path = Path(path)
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        if (
            not isinstance(payload, dict)
            or payload.get("format") != CHECKPOINT_FORMAT
        ):
            raise ValueError(f"{path} is not a study checkpoint")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {payload.get('version')!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        study = cls(
            StudyConfig.from_dict(payload["config"]), telemetry=telemetry
        )
        study.build()
        try:
            study.simulator.restore_state(payload["simulator"])
            study.observer.restore_state(payload["observer"])
            study._rounds_done = payload["rounds_done"]
            study._finalized = payload["finalized"]
        except BaseException:
            # A malformed state dict must not leak the freshly built
            # simulator — the caller never gets a Study to close.
            study.close()
            raise
        return study


def run_study(
    config: StudyConfig, telemetry: Telemetry | None = None
) -> RunResult:
    """Convenience wrapper: build, run and clean up in one call."""
    return Study(config, telemetry=telemetry).run()
