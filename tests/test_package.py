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
            ("repro.nn", ["Dense", "Conv2d", "SGD", "build_resnet8",
                          "average_states"]),
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
