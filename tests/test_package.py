"""Package-surface tests: the documented public API must import and
expose what README/DESIGN promise."""

import importlib

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_one_call_api(self):
        from repro import Study, StudyConfig, run_study

        assert callable(run_study)
        assert StudyConfig().dataset  # has defaults
        assert Study is not None


class TestSubpackageSurface:
    @pytest.mark.parametrize(
        "module,symbols",
        [
            ("repro.nn", ["Dense", "Conv2d", "BatchedSGD", "build_resnet8",
                          "BatchedModel", "StateLayout"]),
            ("repro.data", ["make_dataset", "make_node_splits",
                            "make_canaries"]),
            ("repro.graph", ["PeerSwapSampler", "FreshGraphSampler",
                             "lambda2", "simulate_lambda2_decay",
                             "mixing_time", "ramanujan_lambda2"]),
            ("repro.gossip", ["BaseGossipProtocol", "SAMOProtocol",
                              "PartialMergeGossipProtocol",
                              "FlatGossipSimulator"]),
            ("repro.privacy", ["mpe_scores", "mia_accuracy", "tpr_at_fpr",
                               "RDPAccountant", "calibrate_sigma",
                               "ShadowModelAttack", "compare_attacks"]),
            ("repro.metrics", ["BatchedEvaluator", "RoundRecord",
                               "RunResult"]),
            ("repro.experiments", ["scaled_config", "Campaign",
                                   "save_result", "figures", "tables"]),
        ],
    )
    def test_documented_symbols_exist(self, module, symbols):
        mod = importlib.import_module(module)
        for symbol in symbols:
            assert hasattr(mod, symbol), f"{module}.{symbol} missing"

    @pytest.mark.parametrize(
        "module,symbols",
        [
            ("repro.nn", ["SGD", "CrossEntropyLoss", "set_state",
                          "average_states", "state_to_vector",
                          "vector_to_state"]),
            ("repro.metrics", ["predict_proba", "accuracy",
                               "generalization_error"]),
        ],
    )
    def test_per_layer_path_is_not_exported(self, module, symbols):
        """The per-layer passes and dict-State helpers live in the test
        oracle (``tests/reference_nn.py``), not in the package."""
        mod = importlib.import_module(module)
        for symbol in symbols:
            assert not hasattr(mod, symbol), f"{module}.{symbol} exported"
            assert symbol not in getattr(mod, "__all__", [])

    def test_src_defines_no_per_layer_pass(self):
        """Layers are specs: no layer class defines a forward or
        backward, and the dict-State layer is gone from the engine."""
        from dataclasses import fields

        from repro.gossip.engine import FlatGossipSimulator, StateArena
        from repro.gossip.node import GossipNode
        from repro.metrics import evaluation
        from repro.nn import flat, layers, optim, serialize, tensor

        for name in dir(layers):
            cls = getattr(layers, name)
            if isinstance(cls, type) and issubclass(cls, layers.Module):
                assert not hasattr(cls, "forward"), name
                assert not hasattr(cls, "backward"), name
        assert not hasattr(tensor.Parameter, "grad")
        assert not hasattr(optim, "SGD")
        for name in ("predict_proba", "accuracy", "generalization_error"):
            assert not hasattr(evaluation, name)
        for name in ("set_state", "average_states", "state_to_vector",
                     "vector_to_state", "normalize_weights"):
            assert not hasattr(serialize, name)
        assert not hasattr(StateArena, "state_view")
        assert not hasattr(flat.StateLayout, "unpack")
        assert not hasattr(FlatGossipSimulator, "states")
        assert "state" not in {field.name for field in fields(GossipNode)}
        assert not hasattr(GossipNode, "snapshot")

    def test_all_exports_resolve(self):
        """Every name in each subpackage's __all__ must exist."""
        for name in (
            "repro", "repro.nn", "repro.data", "repro.graph",
            "repro.gossip", "repro.privacy", "repro.metrics",
            "repro.experiments",
        ):
            mod = importlib.import_module(name)
            for symbol in getattr(mod, "__all__", []):
                assert hasattr(mod, symbol), f"{name}.{symbol} in __all__ but missing"
