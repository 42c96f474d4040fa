"""Per-layer tracer: times calls into each layer from the benchmark side.

Nothing under ``src/`` is instrumented. :class:`LayerTracer` replaces
class attributes, and the module globals a layer calls through (for
example ``repro.core.attacker.mia_reports_batched`` or
``repro.gossip.trainer.clip_block``), with timing wrappers, and puts
the originals back on :meth:`LayerTracer.uninstall`.

Three wrappers stay installed for the whole run and time every build
and round: ``Study._build``, ``FlatGossipSimulator.run_round`` and
``OmniscientObserver.__call__``. The layer wrappers are switched on for
one round of each consecutive pair, picked by a seeded coin, and off
for the other. Per-layer numbers therefore come from traced rounds,
and the traced rounds' wall time against the untraced rounds' is the
tracing overhead. The coin keeps round 0 of short service studies,
which carries lazy set-up, from always landing on the same side.

The tallies take no lock: every wrapped call runs on the one thread
that runs the study (the engine child's main thread, or the service's
single job worker).
"""

from __future__ import annotations

import functools
import random
import statistics
from time import perf_counter

from repro.core import attacker
from repro.core.attacker import OmniscientObserver
from repro.core.study import Study
# shard is imported so its executor subclass is wrapped too.
from repro.gossip import engine, shard, trainer  # noqa: F401
from repro.gossip.engine import Executor, FlatGossipSimulator, StateArena
from repro.graph.peer_sampling import PeerSampler
from repro.metrics.evaluation import BatchedEvaluator
from repro.privacy.accountant import RDPAccountant


def _subclasses_defining(base: type, attr: str) -> list[type]:
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        if attr in cls.__dict__:
            found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


def _layer_targets() -> list[tuple[str, object, str]]:
    """(tally key, owner, attribute) of every toggled layer wrapper."""
    targets = [
        ("agg.mean_vectors", engine, "mean_vectors"),
        ("agg.merge_row", StateArena, "merge_row"),
        ("dp.clip", trainer, "clip_block"),
        ("dp.clip", trainer, "clip_per_sample"),
        ("dp.noise", trainer, "noisy_gradient"),
        ("dp.noise", trainer, "noisy_gradient_block"),
        ("accountant", RDPAccountant, "step"),
        ("accountant", RDPAccountant, "get_epsilon"),
        ("eval.accuracy_rows", BatchedEvaluator, "accuracy_rows"),
        ("eval.attack_obs", BatchedEvaluator, "attack_observations"),
        ("mia.reports", attacker, "mia_reports_batched"),
    ]
    targets += [
        ("sampler.on_wake", cls, "on_wake")
        for cls in _subclasses_defining(PeerSampler, "on_wake")
    ]
    return targets


class LayerTracer:
    """Installs the wrappers and turns their tallies into layer metrics."""

    def __init__(self, seed: int) -> None:
        self._coin = random.Random(seed)
        self._lead = True
        self._active = False
        # key -> [calls, seconds]
        self.stats: dict[str, list] = {}
        # One dict per round: traced flag, run_round and observe seconds,
        # messages sent and the arena row size in bytes.
        self.rounds: list[dict] = []
        self.builds_s: list[float] = []
        self.tasks = 0
        self.fallback_rows = 0
        self._saved: list[tuple[object, str, object]] = []
        # (owner, attribute, original, wrapper) of each toggled wrapper.
        self._layer: list[tuple[object, str, object, object]] = []

    # -- install / toggle -----------------------------------------------

    def install(self) -> "LayerTracer":
        permanent = [
            (Study, "_build", self._wrap_build),
            (FlatGossipSimulator, "run_round", self._wrap_round),
            (OmniscientObserver, "__call__", self._wrap_observe),
        ]
        for owner, attr, make in permanent:
            original = self._original(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        for key, owner, attr in _layer_targets():
            original = self._original(owner, attr)
            self._layer.append((owner, attr, original, self._timed(key, original)))
        for cls in _subclasses_defining(Executor, "train_batch"):
            original = self._original(cls, "train_batch")
            self._layer.append(
                (cls, "train_batch", original, self._wrap_train(original))
            )
        return self

    def uninstall(self) -> None:
        self._set_active(False)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._layer.clear()

    def reset(self) -> None:
        """Forget the rounds recorded so far (e.g. the set-up round 0).

        Build times are kept: a build happens once, before any round.
        """
        self.stats.clear()
        self.rounds.clear()
        self.tasks = 0
        self.fallback_rows = 0

    @staticmethod
    def _original(owner, attr: str):
        # Class attributes come from the owner's own __dict__ so the
        # restore puts back exactly what was there.
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def _set_active(self, active: bool) -> None:
        if active == self._active:
            return
        for owner, attr, original, wrapped in self._layer:
            setattr(owner, attr, wrapped if active else original)
        self._active = active

    # -- wrappers ---------------------------------------------------------

    def _tally(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0])

    def _timed(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally = self._tally(key)
                tally[0] += 1
                tally[1] += perf_counter() - start

        return wrapper

    def _wrap_train(self, fn):
        @functools.wraps(fn)
        def train_batch(executor, tasks):
            before = sum(executor.fallback_counts.values())
            start = perf_counter()
            try:
                return fn(executor, tasks)
            finally:
                tally = self._tally("train.batch")
                tally[0] += 1
                tally[1] += perf_counter() - start
                self.tasks += len(tasks)
                self.fallback_rows += sum(executor.fallback_counts.values()) - before

        return train_batch

    def _wrap_build(self, fn):
        @functools.wraps(fn)
        def _build(study):
            # Builds run calibration code (the accountant, for DP) that
            # must not count toward per-round layer time.
            was_active = self._active
            self._set_active(False)
            start = perf_counter()
            try:
                return fn(study)
            finally:
                self.builds_s.append(perf_counter() - start)
                self._set_active(was_active)

        return _build

    def _wrap_round(self, fn):
        @functools.wraps(fn)
        def run_round(simulator):
            index = len(self.rounds)
            if index % 2 == 0:
                self._lead = self._coin.random() < 0.5
            traced = (index % 2 == 0) == self._lead
            self._set_active(traced)
            sent = simulator.messages_sent
            start = perf_counter()
            try:
                return fn(simulator)
            finally:
                self.rounds.append(
                    {
                        "traced": traced,
                        "run_round_s": perf_counter() - start,
                        "observe_s": 0.0,
                        "messages": simulator.messages_sent - sent,
                        "row_bytes": simulator.arena.dim
                        * simulator.arena.dtype.itemsize,
                    }
                )

        return run_round

    def _wrap_observe(self, fn):
        @functools.wraps(fn)
        def __call__(observer, round_index, simulator):
            start = perf_counter()
            try:
                return fn(observer, round_index, simulator)
            finally:
                if self.rounds:
                    self.rounds[-1]["observe_s"] += perf_counter() - start

        return __call__

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics (``measure.LAYER_METRICS``), means per traced round."""
        traced = [r for r in self.rounds if r["traced"]]
        untraced = [r for r in self.rounds if not r["traced"]]
        if not traced or not untraced:
            raise ValueError("need at least one traced and one untraced round")
        n = len(traced)

        def ms(key: str) -> float:
            return self.stats.get(key, [0, 0.0])[1] * 1000.0 / n

        def calls(key: str) -> int:
            return self.stats.get(key, [0, 0.0])[0]

        def wall(rounds: list[dict]) -> float:
            return statistics.median(r["run_round_s"] + r["observe_s"] for r in rounds)

        round_ms = sum(r["run_round_s"] for r in traced) * 1000.0 / n
        observe_ms = sum(r["observe_s"] for r in traced) * 1000.0 / n
        agg_ms = ms("agg.mean_vectors") + ms("agg.merge_row")
        train_calls = calls("train.batch")
        messages = statistics.fmean(r["messages"] for r in self.rounds)
        out = {
            "study.build_ms": statistics.fmean(self.builds_s) * 1000.0
            if self.builds_s
            else 0.0,
            "engine.round_ms": round_ms,
            "engine.tick_self_ms": round_ms
            - ms("train.batch")
            - agg_ms
            - ms("sampler.on_wake"),
            "engine.messages_per_round": messages,
            "engine.message_mb_per_round": statistics.fmean(
                r["messages"] * r["row_bytes"] for r in self.rounds
            )
            / 1e6,
            "agg.ms": agg_ms,
            "agg.mean_vectors_ms": ms("agg.mean_vectors"),
            "agg.merge_row_ms": ms("agg.merge_row"),
            "agg.calls_per_round": (calls("agg.mean_vectors") + calls("agg.merge_row"))
            / n,
            "train.batch_ms": ms("train.batch"),
            "train.calls_per_round": train_calls / n,
            "train.tasks_per_round": self.tasks / n,
            "train.rows_per_call": self.tasks / train_calls if train_calls else 0.0,
            "train.fast_path_frac": 1.0 - self.fallback_rows / self.tasks
            if self.tasks
            else 1.0,
            "dp.clip_ms": ms("dp.clip"),
            "dp.noise_ms": ms("dp.noise"),
            "accountant.ms": ms("accountant"),
            "sampler.on_wake_ms": ms("sampler.on_wake"),
            "observe.ms": observe_ms,
            "observe.self_ms": observe_ms
            - ms("eval.accuracy_rows")
            - ms("eval.attack_obs")
            - ms("mia.reports")
            - ms("accountant"),
            "eval.accuracy_rows_ms": ms("eval.accuracy_rows"),
            "eval.attack_obs_ms": ms("eval.attack_obs"),
            "mia.reports_ms": ms("mia.reports"),
            "trace.overhead_pct": (wall(traced) / wall(untraced) - 1.0) * 100.0,
        }
        return out
