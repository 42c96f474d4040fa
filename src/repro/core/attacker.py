"""The omniscient observer of Section 2.6.

"At regular time intervals [the attacker] recovers the current models
of all nodes and performs A_MPE on each one of them, targeting each
data sample of each node."

The observer snapshots every node model at each round boundary, runs
the MPE attack per node (members = the node's local training set,
non-members = its local test set), and aggregates Section 3.2 metrics
into a :class:`~repro.metrics.records.RoundRecord`. When a canary set
is present it additionally runs the targeted canary attack of RQ3.

Observation runs on the **row-batch path**: node models are read as
one ``(n_nodes, dim)`` matrix (``simulator.state_matrix()``, the live
arena, zero-copy) and scored in blocked numpy ops by a
:class:`~repro.metrics.evaluation.BatchedEvaluator`, in the matrix
dtype. It consumes the observer RNG in the order of a per-node loop
that reloads each state into the workspace model; that loop is the
test suite's oracle (``tests/reference_observer.py``), and agrees with
the row-batch path up to float-associativity tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.data.canary import CanarySet
from repro.data.datasets import Dataset
from repro.gossip.engine import FlatGossipSimulator
from repro.metrics.evaluation import (
    ROW_BLOCK_BYTES,
    BatchedEvaluator,
    ModelEvaluation,
)
from repro.metrics.records import RoundRecord
from repro.nn.flat import StateLayout
from repro.nn.layers import Module
from repro.privacy.mia import build_attack_data, mia_reports_batched, tpr_at_fpr
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["OmniscientObserver"]


@dataclass
class _AttackPlan:
    """One node's pre-drawn observation inputs.

    Drawn node by node in the exact RNG order of the per-node loop
    (train subsample, test subsample, then the balancing draws that
    ``build_attack_data`` would make), so the row-batch path and that
    reference loop see identical attack sets.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    balance_train: np.ndarray | None
    balance_test: np.ndarray | None


class OmniscientObserver:
    """Evaluates every node's model after each communication round.

    ``eval_batch`` bounds how many node models are scored per blocked
    kernel: 0 sizes the row blocks by the code, so that a block's
    activations stay in cache (see
    :class:`~repro.metrics.evaluation.BatchedEvaluator`). Results are
    identical for every value.
    """

    def __init__(
        self,
        model: Module,
        global_test: Dataset,
        canaries: CanarySet | None = None,
        canary_base: Dataset | None = None,
        max_global_test: int = 512,
        max_attack_samples: int = 256,
        seed: int = 0,
        keep_node_records: bool = False,
        eval_batch: int = 0,
        telemetry: Telemetry | None = None,
    ):
        if canaries is not None and canary_base is None:
            raise ValueError("canary evaluation needs the base training split")
        if eval_batch < 0:
            raise ValueError("eval_batch must be >= 0")
        self.model = model
        self.canaries = canaries
        self.canary_base = canary_base
        self.rng = np.random.default_rng(seed)
        self.max_attack_samples = max_attack_samples
        self.eval_batch = eval_batch
        self.records: list[RoundRecord] = []
        # Optional per-node evaluations (round -> list[ModelEvaluation]),
        # for studying vulnerability vs graph position or data share.
        self.keep_node_records = keep_node_records
        self.node_records: list[list[ModelEvaluation]] = []
        # Fixed global-test subsample: the same for every node and
        # round, so series are comparable across time.
        n = len(global_test)
        take = min(max_global_test, n)
        idx = self.rng.choice(n, size=take, replace=False)
        self.x_global = global_test.x[idx]
        self.y_global = global_test.y[idx]
        self._epsilon_fn = None
        self._layout: StateLayout | None = None
        self._evaluator: BatchedEvaluator | None = None
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = self.telemetry if self.telemetry.enabled else None
        if self._tel is not None:
            self._observe_ms = self.telemetry.registry.histogram(
                "repro_engine_phase_ms",
                "Per-round wall-clock of each round-loop phase",
                labels=("phase",),
            ).child(phase="observe")

    def set_epsilon_fn(self, fn) -> None:
        """Register a callable round_index -> epsilon for DP runs."""
        self._epsilon_fn = fn

    def capture_state(self) -> dict:
        """Mutable observation state for checkpoint/resume: the RNG
        stream (the attack-subsample draws consume it every round) and
        the records accumulated so far. The fixed global-test subsample
        is construction state and rebuilds deterministically."""
        return {
            "rng": self.rng.bit_generator.state,
            "records": list(self.records),
            "node_records": [list(evals) for evals in self.node_records],
        }

    def restore_state(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]
        self.records = list(state["records"])
        self.node_records = [list(evals) for evals in state["node_records"]]

    # -- per-round hook (signature matches FlatGossipSimulator.run) ----

    def __call__(self, round_index: int, simulator: FlatGossipSimulator) -> None:
        tel = self._tel
        if tel is None:
            self._observe(round_index, simulator)
            return
        with tel.tracer.span("observer.observe", round=round_index):
            start = perf_counter()
            self._observe(round_index, simulator)
            self._observe_ms.observe((perf_counter() - start) * 1000.0)

    def _observe(self, round_index: int, simulator: FlatGossipSimulator) -> None:
        # One state-matrix read serves evaluation, canary attack and
        # spread.
        params = simulator.state_matrix(self._get_layout())
        evaluations = self._evaluate_all(simulator, params)
        if self.keep_node_records:
            self.node_records.append(evaluations)
        canary_tpr = (
            self._canary_attack(simulator, params) if self.canaries else None
        )
        epsilon = self._epsilon_fn(round_index) if self._epsilon_fn else None
        self.records.append(
            RoundRecord.from_evaluations(
                round_index=round_index,
                evaluations=evaluations,
                messages_sent=simulator.messages_sent,
                canary_tpr_at_1_fpr=canary_tpr,
                epsilon=epsilon,
                model_spread=self._model_spread(simulator, params),
            )
        )

    def _model_spread(
        self, simulator: FlatGossipSimulator, params: np.ndarray | None = None
    ) -> float:
        """Mean L2 distance of node models to the average model — the
        consensus distance of Section 4 measured on real training.
        Reads the state matrix (the arena, under the flat engine)
        instead of flattening one dict state per node. Rows are centred
        a block at a time in one reused scratch, squared and summed in
        place: exactly what ``np.linalg.norm(axis=1)`` computes for real
        input. A block holds as many rows as fit ``ROW_BLOCK_BYTES``
        (at least one; one paper-MLP row), so the scratch stays in
        cache, and each row's sum is the same in any block."""
        if params is None:
            params = simulator.state_matrix(self._get_layout())
        center = params.mean(axis=0)
        n = params.shape[0]
        norms = np.empty(n, dtype=center.dtype)
        step = max(1, min(n, ROW_BLOCK_BYTES // max(1, center.nbytes)))
        scratch = np.empty((step, params.shape[1]), dtype=center.dtype)
        for start in range(0, n, step):
            block = scratch[: min(n - start, step)]
            np.subtract(params[start : start + step], center, out=block)
            np.multiply(block, block, out=block)
            np.add.reduce(block, axis=1, out=norms[start : start + step])
        return float(np.sqrt(norms, out=norms).mean())

    # -- internals ------------------------------------------------------

    def _get_layout(self) -> StateLayout:
        if self._layout is None:
            self._layout = StateLayout.from_model(self.model)
        return self._layout

    def _get_evaluator(self) -> BatchedEvaluator:
        if self._evaluator is None:
            self._evaluator = BatchedEvaluator(
                self.model,
                layout=self._get_layout(),
                eval_batch=self.eval_batch,
            )
        return self._evaluator

    def _subsample_idx(self, n: int) -> np.ndarray | None:
        """Attack-set subsample of a split of ``n`` samples: None (the
        whole split) within ``max_attack_samples``, else one draw of
        that many indices without replacement."""
        if n <= self.max_attack_samples:
            return None
        return self.rng.choice(n, size=self.max_attack_samples, replace=False)

    def _draw_plan(self, node) -> _AttackPlan:
        """Pre-draw one node's attack inputs (RNG-order compatible)."""
        tr_idx = self._subsample_idx(node.train_x.shape[0])
        te_idx = self._subsample_idx(node.test_x.shape[0])
        if tr_idx is None:
            x_tr, y_tr = node.train_x, node.train_y
        else:
            x_tr, y_tr = node.train_x[tr_idx], node.train_y[tr_idx]
        if te_idx is None:
            x_te, y_te = node.test_x, node.test_y
        else:
            x_te, y_te = node.test_x[te_idx], node.test_y[te_idx]
        m = min(x_tr.shape[0], x_te.shape[0])
        if m == 0:
            raise ValueError("need at least one member and one non-member score")
        balance_tr = (
            self.rng.choice(x_tr.shape[0], size=m, replace=False)
            if x_tr.shape[0] > m
            else None
        )
        balance_te = (
            self.rng.choice(x_te.shape[0], size=m, replace=False)
            if x_te.shape[0] > m
            else None
        )
        return _AttackPlan(x_tr, y_tr, x_te, y_te, balance_tr, balance_te)

    def _evaluate_all(
        self, simulator: FlatGossipSimulator, params: np.ndarray
    ) -> list[ModelEvaluation]:
        """Score every node's arena row in blocked ops (no reloads)."""
        evaluator = self._get_evaluator()
        plans = [self._draw_plan(node) for node in simulator.nodes]
        global_acc = evaluator.accuracy_rows(params, self.x_global, self.y_global)
        # Train and test attack sets of all nodes in ONE row-batch call
        # (each node's row appears twice via the rows indirection); each
        # set kind scores the arena rows as one slice, never a gather.
        obs = evaluator.attack_observations(
            params,
            [p.x_train for p in plans] + [p.x_test for p in plans],
            [p.y_train for p in plans] + [p.y_test for p in plans],
            rows=list(range(len(plans))) * 2,
        )
        train_obs, test_obs = obs[: len(plans)], obs[len(plans) :]
        # Balance the raw scores, then batch the MIA reports.
        members: list[np.ndarray] = []
        nonmembers: list[np.ndarray] = []
        groups: dict[int, list[int]] = {}
        for node_id, plan in enumerate(plans):
            member_scores = train_obs[node_id][0]
            nonmember_scores = test_obs[node_id][0]
            if plan.balance_train is not None:
                member_scores = member_scores[plan.balance_train]
            if plan.balance_test is not None:
                nonmember_scores = nonmember_scores[plan.balance_test]
            members.append(member_scores)
            nonmembers.append(nonmember_scores)
            groups.setdefault(member_scores.size, []).append(node_id)
        # One vectorized report sweep per balanced-size group (usually
        # one group: every node subsamples to the same cap).
        reports = [None] * len(plans)
        for node_ids in groups.values():
            for node_id, report in zip(
                node_ids,
                mia_reports_batched(
                    np.stack([members[i] for i in node_ids]),
                    np.stack([nonmembers[i] for i in node_ids]),
                ),
            ):
                reports[node_id] = report
        return [
            ModelEvaluation(
                node_id=node_id,
                global_test_accuracy=float(global_acc[node_id]),
                local_train_accuracy=train_obs[node_id][1],
                local_test_accuracy=test_obs[node_id][1],
                mia_accuracy=report.accuracy,
                mia_tpr_at_1_fpr=report.tpr_at_1_fpr,
                mia_auc=report.auc,
            )
            for node_id, report in enumerate(reports)
        ]

    def _canary_attack(
        self, simulator: FlatGossipSimulator, params: np.ndarray
    ) -> float:
        """Targeted entropy attack on the known canary set (RQ3).

        Member canaries are scored against the model of the node that
        trained on them; held-out canaries against the model of their
        assigned node. Scores are pooled into one ROC. All (node,
        canary-set) pairs are scored as one row-batch over the state
        matrix.
        """
        assert self.canaries is not None and self.canary_base is not None
        rows: list[int] = []
        xs: list[np.ndarray] = []
        ys: list[np.ndarray] = []
        buckets: list[int] = []  # 0 = member, 1 = holdout
        for node_id in range(simulator.config.n_nodes):
            for bucket, indices in enumerate(
                (
                    self.canaries.members_for_node(node_id),
                    self.canaries.holdouts_for_node(node_id),
                )
            ):
                if indices.size == 0:
                    continue
                rows.append(node_id)
                xs.append(self.canary_base.x[indices])
                ys.append(self.canary_base.y[indices])
                buckets.append(bucket)
        if not rows:
            return 0.0
        observations = self._get_evaluator().attack_observations(
            params, xs, ys, rows=rows
        )
        member_scores = [o[0] for o, b in zip(observations, buckets) if b == 0]
        holdout_scores = [o[0] for o, b in zip(observations, buckets) if b == 1]
        return self._pool_canary_scores(member_scores, holdout_scores)

    @staticmethod
    def _pool_canary_scores(
        member_scores: list[np.ndarray], holdout_scores: list[np.ndarray]
    ) -> float:
        if not member_scores or not holdout_scores:
            return 0.0
        data = build_attack_data(
            np.concatenate(member_scores),
            np.concatenate(holdout_scores),
            balance=False,
        )
        return tpr_at_fpr(data, 0.01)
