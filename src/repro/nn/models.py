"""Model families from Table 2 of the paper.

* a light CNN (used for CIFAR-10 and FashionMNIST, ~124k parameters at
  paper scale),
* ResNet-8 (CIFAR-100, ~1.2M parameters at paper scale),
* a 4-layer fully connected MLP following Nasr et al. (Purchase100).

Widths are configurable so the same architectures run at a CPU-friendly
scale; parameter counts quoted in the paper are reached with the
default ``width`` values and paper-size inputs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    MaxPool2d,
    Module,
    ReLU,
    Residual,
    Sequential,
)

__all__ = ["build_cnn", "build_resnet8", "build_mlp", "build_model"]


def build_cnn(
    in_channels: int = 3,
    image_size: int = 32,
    num_classes: int = 10,
    width: int = 16,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """Light CNN: two conv/pool stages followed by two dense layers.

    With ``in_channels=3, image_size=32, width=16`` this is close to the
    124k-parameter CNN of Table 2.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if image_size % 4:
        raise ValueError("image_size must be divisible by 4 (two 2x2 pools)")
    feat = (image_size // 4) ** 2 * (2 * width)
    return Sequential(
        Conv2d(in_channels, width, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(width, 2 * width, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Dense(feat, 4 * width, rng=rng),
        ReLU(),
        Dense(4 * width, num_classes, rng=rng),
    )


def _res_block(
    in_channels: int,
    out_channels: int,
    stride: int,
    rng: np.random.Generator,
) -> Residual:
    """Two 3x3 convolutions with batch norm; 1x1 shortcut on reshaping."""
    body = Sequential(
        Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng),
        BatchNorm2d(out_channels),
        ReLU(),
        Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng),
        BatchNorm2d(out_channels),
    )
    if stride != 1 or in_channels != out_channels:
        shortcut: Module = Sequential(
            Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
            BatchNorm2d(out_channels),
        )
    else:
        shortcut = Identity()
    return Residual(body, shortcut)


def build_resnet8(
    in_channels: int = 3,
    num_classes: int = 100,
    width: int = 16,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """ResNet-8: stem conv + three residual blocks + linear head.

    8 weighted layers: 1 stem + 3 blocks x 2 convs + 1 dense.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    w1, w2, w3 = width, 2 * width, 4 * width
    return Sequential(
        Conv2d(in_channels, w1, 3, stride=1, padding=1, bias=False, rng=rng),
        BatchNorm2d(w1),
        ReLU(),
        _res_block(w1, w1, stride=1, rng=rng),
        _res_block(w1, w2, stride=2, rng=rng),
        _res_block(w2, w3, stride=2, rng=rng),
        GlobalAvgPool2d(),
        Dense(w3, num_classes, rng=rng),
    )


def build_mlp(
    in_features: int = 600,
    num_classes: int = 100,
    hidden: tuple[int, ...] = (1024, 512, 256),
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    stream_seed: int = 0,
) -> Sequential:
    """4-layer fully connected network following Nasr et al. [58].

    Defaults reproduce the ~1.3M-parameter Purchase100 MLP of Table 2.
    Dropout layers draw counter-based mask streams (batchable and
    reproducible per ``(node, session, step)``).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    layers: list[Module] = []
    prev = in_features
    for size in hidden:
        layers.append(Dense(prev, size, rng=rng))
        layers.append(ReLU())
        if dropout > 0:
            layers.append(Dropout(dropout, stream_seed=stream_seed))
        prev = size
    layers.append(Dense(prev, num_classes, rng=rng))
    return Sequential(*layers)


def build_model(
    architecture: str,
    *,
    in_channels: int = 3,
    image_size: int = 32,
    in_features: int = 600,
    num_classes: int = 10,
    width: int = 16,
    hidden: tuple[int, ...] = (1024, 512, 256),
    seed: int = 0,
    dropout: float = 0.0,
) -> Sequential:
    """Factory keyed by architecture name (``cnn``/``resnet8``/``mlp``).

    Used by experiment configs so runs are fully described by plain
    data. All nodes calling this with the same ``seed`` obtain the same
    initial model, matching the paper's shared-initialization setup.
    ``dropout`` currently applies to the MLP only (the paper's conv
    models use BatchNorm, not dropout); mask streams are seeded from
    ``seed`` so the same config always draws the same masks.
    """
    rng = np.random.default_rng(seed)
    if architecture == "cnn":
        if dropout > 0:
            raise ValueError("dropout is only supported for the mlp")
        return build_cnn(in_channels, image_size, num_classes, width, rng)
    if architecture == "resnet8":
        if dropout > 0:
            raise ValueError("dropout is only supported for the mlp")
        return build_resnet8(in_channels, num_classes, width, rng)
    if architecture == "mlp":
        return build_mlp(
            in_features,
            num_classes,
            hidden,
            dropout=dropout,
            rng=rng,
            stream_seed=seed,
        )
    raise ValueError(f"unknown architecture {architecture!r}")
