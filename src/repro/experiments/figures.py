"""Data-series generators for every figure in the paper.

Each ``figureN`` function runs the experiment grid behind the paper's
figure N and returns plain dict/array structures (no plotting — the
benchmark harness prints the series, and they are easy to plot from
any notebook). Figures accept a ``scale`` preset so the full grid runs
in seconds ("tiny"), minutes ("small") or at paper scale ("paper").
"""

from __future__ import annotations

import numpy as np

from repro.core.study import run_study
from repro.experiments.configs import scaled_config
from repro.graph.mixing import simulate_lambda2_decay
from repro.metrics.records import RunResult

__all__ = [
    "tradeoff_series",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "ALL_DATASETS",
]

ALL_DATASETS = ("cifar10", "cifar100", "fashion_mnist", "purchase100")


def tradeoff_series(result: RunResult) -> dict[str, np.ndarray]:
    """The (test accuracy, MIA accuracy, MIA TPR) trade-off series that
    Figures 2, 3 and 6 plot, one point per round."""
    return {
        "test_accuracy": result.series("global_test_accuracy"),
        "mia_accuracy": result.series("mia_accuracy"),
        "mia_tpr_at_1_fpr": result.series("mia_tpr_at_1_fpr"),
        "generalization_error": (
            result.series("local_train_accuracy")
            - result.series("local_test_accuracy")
        ),
    }


def figure2(
    scale: str = "tiny",
    datasets: tuple[str, ...] = ALL_DATASETS,
    view_size: int = 5,
    seed: int = 0,
) -> dict:
    """RQ1 — SAMO vs Base Gossip on a static 5-regular graph.

    Returns ``{dataset: {protocol: series}}`` with the trade-off series
    of each run.
    """
    out: dict = {"view_size": view_size, "datasets": {}}
    for dataset in datasets:
        per_protocol = {}
        for protocol in ("base_gossip", "samo"):
            config = scaled_config(
                dataset,
                scale,
                name=f"fig2-{dataset}-{protocol}",
                protocol=protocol,
                view_size=view_size,
                dynamic=False,
                seed=seed,
            )
            per_protocol[protocol] = tradeoff_series(run_study(config))
        out["datasets"][dataset] = per_protocol
    return out


def figure3(
    scale: str = "tiny",
    datasets: tuple[str, ...] = ALL_DATASETS,
    view_size: int = 2,
    seed: int = 0,
) -> dict:
    """RQ2 — static vs dynamic topology on a sparse 2-regular graph."""
    out: dict = {"view_size": view_size, "datasets": {}}
    for dataset in datasets:
        per_setting = {}
        for setting, dynamic in (("static", False), ("dynamic", True)):
            config = scaled_config(
                dataset,
                scale,
                name=f"fig3-{dataset}-{setting}",
                protocol="samo",
                view_size=view_size,
                dynamic=dynamic,
                seed=seed,
            )
            per_setting[setting] = tradeoff_series(run_study(config))
        out["datasets"][dataset] = per_setting
    return out


def figure4(
    scale: str = "tiny",
    datasets: tuple[str, ...] = ALL_DATASETS,
    view_size: int = 2,
    n_runs: int = 2,
    seed: int = 0,
) -> dict:
    """RQ3 — canary-based worst-case auditing, static vs dynamic.

    Returns, per dataset and setting, the per-round *maximum* canary
    TPR@1%FPR across ``n_runs`` runs with distinct canary sets (the
    paper uses 10 runs).
    """
    from repro.experiments.configs import SCALES

    n_canaries = SCALES[scale].figure4_canaries
    out: dict = {"view_size": view_size, "n_runs": n_runs, "datasets": {}}
    for dataset in datasets:
        per_setting: dict = {}
        for setting, dynamic in (("static", False), ("dynamic", True)):
            runs = []
            for run_id in range(n_runs):
                config = scaled_config(
                    dataset,
                    scale,
                    name=f"fig4-{dataset}-{setting}-r{run_id}",
                    protocol="samo",
                    view_size=view_size,
                    dynamic=dynamic,
                    n_canaries=n_canaries,
                    seed=seed + 1000 * run_id,
                )
                result = run_study(config)
                runs.append(result.series("canary_tpr_at_1_fpr"))
            stacked = np.vstack(runs)
            per_setting[setting] = {
                "max_canary_tpr": stacked.max(axis=0),
                "mean_canary_tpr": stacked.mean(axis=0),
                "runs": stacked,
            }
        out["datasets"][dataset] = per_setting
    return out


def figure5(
    scale: str = "tiny",
    dataset: str = "cifar10",
    view_sizes: tuple[int, ...] | None = None,
    seed: int = 0,
) -> dict:
    """RQ4 — impact of the view size, static vs dynamic, SAMO.

    Per (view size, setting): maximum average MIA accuracy and
    TPR@1%FPR, the accompanying maximum test accuracy, and the
    communication cost in models sent per node.
    """
    from repro.experiments.configs import SCALES

    if view_sizes is None:
        n_nodes = SCALES[scale].n_nodes
        view_sizes = tuple(k for k in (2, 5, 10, 25) if k < n_nodes)
    out: dict = {"dataset": dataset, "view_sizes": view_sizes, "settings": {}}
    for setting, dynamic in (("static", False), ("dynamic", True)):
        rows = []
        for k in view_sizes:
            config = scaled_config(
                dataset,
                scale,
                name=f"fig5-{dataset}-{setting}-k{k}",
                protocol="samo",
                view_size=k,
                dynamic=dynamic,
                seed=seed,
            )
            result = run_study(config)
            rows.append(
                {
                    "view_size": k,
                    "max_mia_accuracy": result.max_mia_accuracy,
                    "max_mia_tpr_at_1_fpr": result.max_mia_tpr,
                    "max_test_accuracy": result.max_test_accuracy,
                    "models_sent_per_node": result.total_messages
                    / config.n_nodes,
                }
            )
        out["settings"][setting] = rows
    return out


def figure6(
    scale: str = "tiny",
    dataset: str = "purchase100",
    betas: tuple[float | None, ...] = (None, 0.5, 0.1),
    view_size: int = 2,
    seed: int = 0,
) -> dict:
    """RQ5 — non-i.i.d. data (Dirichlet beta), static vs dynamic."""
    out: dict = {"dataset": dataset, "view_size": view_size, "series": {}}
    for beta in betas:
        label = "iid" if beta is None else f"beta={beta}"
        for setting, dynamic in (("static", False), ("dynamic", True)):
            config = scaled_config(
                dataset,
                scale,
                name=f"fig6-{label}-{setting}",
                protocol="samo",
                view_size=view_size,
                dynamic=dynamic,
                beta=beta,
                seed=seed,
            )
            out["series"][f"{label}-{setting}"] = tradeoff_series(
                run_study(config)
            )
    return out


def figure7(
    scale: str = "tiny",
    datasets: tuple[str, ...] = ALL_DATASETS,
    view_size: int = 2,
    seed: int = 0,
) -> dict:
    """RQ6 — MIA vulnerability vs generalization error scatter."""
    out: dict = {"view_size": view_size, "datasets": {}}
    for dataset in datasets:
        per_setting = {}
        for setting, dynamic in (("static", False), ("dynamic", True)):
            config = scaled_config(
                dataset,
                scale,
                name=f"fig7-{dataset}-{setting}",
                protocol="samo",
                view_size=view_size,
                dynamic=dynamic,
                seed=seed,
            )
            series = tradeoff_series(run_study(config))
            per_setting[setting] = {
                "generalization_error": series["generalization_error"],
                "mia_accuracy": series["mia_accuracy"],
            }
        out["datasets"][dataset] = per_setting
    return out


def figure8(
    scale: str = "tiny",
    dataset: str = "purchase100",
    view_size: int = 2,
    seed: int = 0,
) -> dict:
    """RQ6 — MIA accuracy and generalization error over rounds."""
    out: dict = {"dataset": dataset, "view_size": view_size, "settings": {}}
    for setting, dynamic in (("static", False), ("dynamic", True)):
        config = scaled_config(
            dataset,
            scale,
            name=f"fig8-{setting}",
            protocol="samo",
            view_size=view_size,
            dynamic=dynamic,
            seed=seed,
        )
        result = run_study(config)
        out["settings"][setting] = {
            "rounds": np.arange(len(result.rounds)),
            "mia_accuracy": result.series("mia_accuracy"),
            "generalization_error": (
                result.series("local_train_accuracy")
                - result.series("local_test_accuracy")
            ),
        }
    return out


def figure9(
    scale: str = "tiny",
    dataset: str = "purchase100",
    epsilons: tuple[float | None, ...] = (50.0, 25.0, 15.0, 10.0, None),
    view_size: int = 2,
    seed: int = 0,
) -> dict:
    """RQ7 — DP-SGD budgets (epsilon) x static/dynamic, SAMO.

    ``None`` in ``epsilons`` runs the non-DP baseline the paper quotes
    above each DP panel.
    """
    out: dict = {"dataset": dataset, "view_size": view_size, "rows": []}
    for epsilon in epsilons:
        for setting, dynamic in (("static", False), ("dynamic", True)):
            label = "non-dp" if epsilon is None else f"eps={epsilon:g}"
            config = scaled_config(
                dataset,
                scale,
                name=f"fig9-{label}-{setting}",
                protocol="samo",
                view_size=view_size,
                dynamic=dynamic,
                dp_epsilon=epsilon,
                seed=seed,
            )
            result = run_study(config)
            out["rows"].append(
                {
                    "epsilon": epsilon,
                    "setting": setting,
                    "max_mia_accuracy": result.max_mia_accuracy,
                    "max_mia_tpr_at_1_fpr": result.max_mia_tpr,
                    "max_test_accuracy": result.max_test_accuracy,
                    "noise_multiplier": result.metadata["noise_multiplier"],
                }
            )
    return out


def figure10(
    n: int = 150,
    view_sizes: tuple[int, ...] = (2, 5, 10, 25),
    iterations: int = 125,
    runs: int = 50,
    seed: int = 0,
) -> dict:
    """Section 4 — lambda2(W*) decay for static vs dynamic k-regular
    graphs. Runs at the paper's full n=150 by default (it is cheap)."""
    rng = np.random.default_rng(seed)
    out: dict = {"n": n, "iterations": iterations, "runs": runs, "curves": {}}
    for k in view_sizes:
        for setting, dynamic in (("static", False), ("dynamic", True)):
            decay = simulate_lambda2_decay(
                n, k, iterations, dynamic=dynamic, runs=runs, rng=rng
            )
            out["curves"][f"{setting}-{k}reg"] = {
                "mean": decay.mean,
                "std": decay.std,
            }
    return out
