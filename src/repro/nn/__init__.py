"""Numpy deep-learning substrate.

This subpackage replaces PyTorch (used by the paper) in two parts:

* **layer specs** (:mod:`repro.nn.layers`) — the architecture and the
  Kaiming-initialized parameters of the three model families from
  Table 2 of the paper (light CNN, ResNet-8, 4-layer MLP);
* **the blocked kernel** (:mod:`repro.nn.batched`, :mod:`repro.nn.loss`,
  :mod:`repro.nn.optim`) — forward, backward, cross-entropy and SGD
  with momentum and weight decay over ``(B, dim)`` blocks of flat
  parameter vectors laid out by :class:`~repro.nn.flat.StateLayout`.

Every model runs on the kernel. Per-layer passes over the same specs
are the test suite's float64 oracle (``tests/reference_nn.py``).
"""

from repro.nn.tensor import Parameter
from repro.nn.layers import (
    Module,
    Dense,
    ReLU,
    Conv2d,
    MaxPool2d,
    GlobalAvgPool2d,
    BatchNorm2d,
    Flatten,
    Dropout,
    Sequential,
    Residual,
    Identity,
)
from repro.nn.loss import batched_cross_entropy_grad
from repro.nn.optim import BatchedSGD
from repro.nn.models import build_cnn, build_resnet8, build_mlp, build_model
from repro.nn.batched import (
    BatchedModel,
    batched_forward,
    parameter_column_runs,
    supports_batched_forward,
)
from repro.nn.flat import StateLayout
from repro.nn.serialize import get_state, num_parameters

__all__ = [
    "Parameter",
    "Module",
    "Dense",
    "ReLU",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "BatchNorm2d",
    "Flatten",
    "Dropout",
    "Sequential",
    "Residual",
    "Identity",
    "batched_cross_entropy_grad",
    "BatchedSGD",
    "build_cnn",
    "build_resnet8",
    "build_mlp",
    "build_model",
    "BatchedModel",
    "batched_forward",
    "parameter_column_runs",
    "supports_batched_forward",
    "StateLayout",
    "get_state",
    "num_parameters",
]
