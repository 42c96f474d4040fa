"""Tests for the Table 2 model families."""

import numpy as np
import pytest

from reference_nn import CrossEntropyLoss, SGD, reference
from repro.nn import (
    build_cnn,
    build_mlp,
    build_model,
    build_resnet8,
    num_parameters,
)


class TestBuilders:
    def test_cnn_output_shape(self, rng):
        model = reference(build_cnn(3, 16, 10, width=4, rng=rng))
        out = model.forward(rng.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 10)

    def test_cnn_paper_scale_parameter_count(self):
        """Paper quotes ~124k parameters for the CIFAR-10 CNN."""
        model = build_cnn(3, 32, 10, width=16)
        assert 100_000 < num_parameters(model) < 160_000

    def test_cnn_rejects_indivisible_image(self):
        with pytest.raises(ValueError):
            build_cnn(3, 10, 10)

    def test_resnet8_output_shape(self, rng):
        model = reference(build_resnet8(3, 100, width=4, rng=rng))
        out = model.forward(rng.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 100)

    def test_resnet8_paper_scale_parameter_count(self):
        """Paper quotes ~1.2M parameters for ResNet-8 at width 64."""
        model = build_resnet8(3, 100, width=64)
        assert 1_000_000 < num_parameters(model) < 1_600_000

    def test_resnet8_has_8_weighted_layers(self):
        from repro.nn.layers import Conv2d, Dense

        model = build_resnet8(3, 10, width=4)
        convs = [
            m
            for m in model.modules()
            if isinstance(m, Conv2d) and m.kernel_size == 3
        ]
        dense = [m for m in model.modules() if isinstance(m, Dense)]
        assert len(convs) == 7  # stem + 3 blocks x 2
        assert len(dense) == 1

    def test_mlp_output_shape(self, rng):
        model = reference(build_mlp(64, 100, hidden=(32, 16), rng=rng))
        assert model.forward(rng.normal(size=(3, 64))).shape == (3, 100)

    def test_mlp_paper_scale_parameter_count(self):
        """Paper quotes ~1.3M parameters for the Purchase100 MLP."""
        model = build_mlp(600, 100, hidden=(1024, 512, 256))
        assert 1_200_000 < num_parameters(model) < 1_400_000

    def test_mlp_is_4_layers(self):
        from repro.nn.layers import Dense

        model = build_mlp(10, 5, hidden=(8, 8, 8))
        assert len([m for m in model.modules() if isinstance(m, Dense)]) == 4


class TestFactory:
    def test_same_seed_same_weights(self):
        a = build_model("mlp", in_features=16, num_classes=4, hidden=(8,), seed=3)
        b = build_model("mlp", in_features=16, num_classes=4, hidden=(8,), seed=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = build_model("mlp", in_features=16, num_classes=4, hidden=(8,), seed=3)
        b = build_model("mlp", in_features=16, num_classes=4, hidden=(8,), seed=4)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            build_model("transformer")

    @pytest.mark.parametrize("arch", ["cnn", "resnet8", "mlp"])
    def test_all_architectures_instantiable(self, arch):
        model = build_model(
            arch,
            in_channels=1,
            image_size=8,
            in_features=32,
            num_classes=5,
            width=4,
            hidden=(16,),
        )
        assert num_parameters(model) > 0


class TestTrainability:
    def test_mlp_overfits_tiny_dataset(self, rng):
        """The whole point of the repro: models must memorize small data."""
        model = reference(build_mlp(20, 4, hidden=(32, 32), rng=rng))
        x = rng.normal(size=(16, 20))
        y = rng.integers(0, 4, size=16)
        loss_fn = CrossEntropyLoss()
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        first = None
        for _ in range(150):
            opt.zero_grad()
            loss = loss_fn(model.forward(x), y)
            first = first if first is not None else loss
            model.backward(loss_fn.backward())
            opt.step()
        final = loss_fn(model.forward(x), y)
        assert final < 0.1 < first

    def test_cnn_learns_separable_classes(self, rng):
        model = reference(build_cnn(1, 8, 2, width=4, rng=rng))
        n = 32
        x = rng.normal(size=(n, 1, 8, 8)) * 0.1
        y = np.array([i % 2 for i in range(n)])
        x[y == 1] += 1.0  # class 1 is brighter
        loss_fn = CrossEntropyLoss()
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        for _ in range(60):
            opt.zero_grad()
            loss_fn(model.forward(x), y)
            model.backward(loss_fn.backward())
            opt.step()
        acc = (model.forward(x).argmax(axis=1) == y).mean()
        assert acc > 0.9
