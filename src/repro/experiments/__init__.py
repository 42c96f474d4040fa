"""Experiment configurations and figure/table regeneration.

Each ``figureN`` function reproduces the data series behind the paper's
corresponding figure; each ``tableN`` function renders the paper's
tables. All accept a ``scale`` preset ("tiny", "small", "paper") so
the same code runs in seconds on CPU or at full paper scale.
"""

from repro.experiments.configs import (
    SCALES,
    scaled_config,
    paper_table2_config,
    table2_rows,
    dataset_model_summary,
)
from repro.experiments.runner import Campaign
from repro.experiments.io import (
    save_result,
    load_result,
    result_to_csv,
    results_to_summary_csv,
)
from repro.experiments import figures, tables

__all__ = [
    "SCALES",
    "scaled_config",
    "paper_table2_config",
    "table2_rows",
    "dataset_model_summary",
    "Campaign",
    "save_result",
    "load_result",
    "result_to_csv",
    "results_to_summary_csv",
    "figures",
    "tables",
]
