"""Numpy deep-learning substrate.

This subpackage replaces PyTorch (used by the paper) with a from-scratch
layer framework: explicit forward/backward passes, SGD with momentum and
weight decay, Kaiming initialization, and the three model families from
Table 2 of the paper (light CNN, ResNet-8, 4-layer MLP).
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
from repro.nn.loss import CrossEntropyLoss, batched_cross_entropy_grad
from repro.nn.optim import SGD, BatchedSGD
from repro.nn.models import build_cnn, build_resnet8, build_mlp, build_model
from repro.nn.batched import (
    BatchedModel,
    batched_forward,
    parameter_column_runs,
    supports_batched_forward,
)
from repro.nn.flat import StateLayout
from repro.nn.serialize import (
    get_state,
    set_state,
    state_to_vector,
    vector_to_state,
    average_states,
    num_parameters,
)

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
    "CrossEntropyLoss",
    "batched_cross_entropy_grad",
    "SGD",
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
    "set_state",
    "state_to_vector",
    "vector_to_state",
    "average_states",
    "num_parameters",
]
