"""The workspace-loop trainer: the test suite's bit-identity oracle.

``src/`` trains every local update (Equation 2) with one kernel,
:meth:`repro.gossip.trainer.BatchedTrainer.train_block`, over ``(B,
dim)`` blocks of arena rows. This module keeps the independent
implementation it replaced: load one node's state into a shared
workspace model, train it through the per-layer passes of
``reference_nn`` (DP-SGD as one microbatch per sample), and pack the
state back. Tests check the blocked kernel against it bit for bit on
float64 arenas.

* :class:`LocalTrainer` — the per-row loop;
* :class:`ReferenceExecutor` — an :class:`~repro.gossip.engine.Executor`
  that trains every task on that loop;
* :func:`use_reference` — makes a simulator train on it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.partition import NodeSplit
from repro.gossip.engine import (
    Executor,
    FlatGossipSimulator,
    SplitArrays,
    UpdateTask,
    as_split_arrays,
)
from reference_nn import CrossEntropyLoss, SGD, reference, set_state, unpack
from repro.gossip.trainer import BatchedTrainer, TrainerConfig
from repro.nn.layers import Module, mask_stream_rng, stream_dropout_layers
from repro.nn.serialize import State, get_state
from repro.privacy.dp import clip_per_sample, noisy_gradient


class LocalTrainer:
    """Runs local SGD epochs on a shared workspace model.

    ``model`` gets its per-layer passes in place (see
    :func:`reference_nn.reference`).
    """

    def __init__(self, model: Module, config: TrainerConfig):
        self.model = reference(model)
        self.config = config
        self._stream_layers = stream_dropout_layers(model)

    def train(
        self,
        state: State,
        x: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
        node_id: int = 0,
        session: int = 0,
    ) -> State:
        """Train ``state`` for ``local_epochs`` epochs on (x, y).

        Returns the updated state; the input dict is not mutated.
        Momentum is fresh per call, the learning rate is
        ``learning_rate * lr_decay ** session``, and ``node_id`` keys
        the dropout mask streams.
        """
        if x.shape[0] == 0:
            return dict(state)
        config = self.config
        loss = CrossEntropyLoss(label_smoothing=config.label_smoothing)
        set_state(self.model, state)
        self.model.train()
        # Train in the state's dtype: a float32 row stays float32.
        dtype = self.model.parameters()[0].data.dtype
        if x.dtype != dtype:
            x = x.astype(dtype)
        optimizer = SGD(
            self.model.parameters(),
            lr=config.learning_rate * (config.lr_decay**session),
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        n = x.shape[0]
        step_idx = 0
        for _ in range(config.local_epochs):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                batch = order[start : start + config.batch_size]
                for li, layer in enumerate(self._stream_layers):
                    layer.set_mask_rng(
                        mask_stream_rng(
                            layer.stream_seed, node_id, session, step_idx, li
                        )
                    )
                if config.dp is None:
                    self._sgd_step(optimizer, loss, x[batch], y[batch])
                else:
                    self._dp_sgd_step(optimizer, loss, x[batch], y[batch], rng)
                step_idx += 1
        return get_state(self.model)

    def _sgd_step(
        self, optimizer: SGD, loss: CrossEntropyLoss, xb: np.ndarray, yb: np.ndarray
    ) -> None:
        optimizer.zero_grad()
        loss.forward(self.model.forward(xb), yb)
        self.model.backward(loss.backward())
        optimizer.step()

    def _dp_sgd_step(
        self,
        optimizer: SGD,
        loss: CrossEntropyLoss,
        xb: np.ndarray,
        yb: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """DP-SGD: per-sample clipped gradients, summed, noised, averaged.

        Each sample runs as its own microbatch.
        """
        dp = self.config.dp
        params = self.model.parameters()
        summed: list[np.ndarray] | None = None
        for i in range(xb.shape[0]):
            optimizer.zero_grad()
            loss.forward(self.model.forward(xb[i : i + 1]), yb[i : i + 1])
            self.model.backward(loss.backward())
            clipped, _ = clip_per_sample(
                [p.grad.copy() for p in params], dp.clip_norm
            )
            if summed is None:
                summed = clipped
            else:
                summed = [acc + g for acc, g in zip(summed, clipped)]
        averaged = noisy_gradient(summed, xb.shape[0], dp, rng)
        optimizer.zero_grad()
        for param, grad in zip(params, averaged):
            param.accumulate(grad)
        optimizer.step()


class ReferenceExecutor(Executor):
    """Trains every task, one by one, on the workspace loop.

    The loop uses the blocked trainer's model as its workspace and
    follows that trainer's config, so a config swap through the
    simulator (DP installation) reaches it.
    """

    name = "reference"

    def __init__(
        self,
        trainer: BatchedTrainer,
        splits: Sequence[NodeSplit] | SplitArrays,
    ):
        super().__init__()
        self.trainer = trainer
        self.loop = LocalTrainer(trainer.model, trainer.config)
        self.splits = as_split_arrays(splits)

    def train_batch(
        self, tasks: list[UpdateTask]
    ) -> list[tuple[np.ndarray, np.random.Generator]]:
        layout = self.trainer.layout
        self.loop.config = self.trainer.config
        for task in tasks:
            x, y = self.splits[task.node_id]
            state = self.loop.train(
                unpack(layout, task.vector), x, y, task.rng,
                node_id=task.node_id, session=task.session,
            )
            layout.pack(state, out=task.vector)
        return [(task.vector, task.rng) for task in tasks]


def use_reference(sim: FlatGossipSimulator) -> ReferenceExecutor:
    """Make ``sim`` train every local update on the workspace loop."""
    if sim._executor is not None:
        sim._executor.close()
    sim._executor = ReferenceExecutor(
        sim.protocol.trainer, [node.split for node in sim.nodes]
    )
    return sim._executor
