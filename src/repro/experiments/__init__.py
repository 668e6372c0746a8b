"""Reproduction harness for every table and figure of the paper."""

from repro.experiments.cache import ResultCache, fetch_or_run_many
from repro.experiments.catalog import (EXPERIMENTS, PAPER_TABLE3,
                                       PAPER_TABLE4, PAPER_TABLE5,
                                       experiment, experiment_specs)
from repro.experiments.parallel import map_calls, run_experiments
from repro.experiments.runner import (PAPER_SWEEP, ExperimentResult,
                                      ExperimentSpec, SweepPoint,
                                      solve_sweep_models)
from repro.experiments.export import (experiment_to_csv,
                                      paper_reference_to_csv)
from repro.experiments.report import (render_figure_series,
                                      render_per_type_table,
                                      render_summary_table)
from repro.experiments.sensitivity import (SensitivityResult,
                                           SweepRequest, elasticity,
                                           run_sweeps, sweep_basic_cost,
                                           sweep_protocol_field,
                                           sweep_site_field)
from repro.experiments.validate import (AgreementStats, compare_series,
                                        model_vs_paper, model_vs_sim)

__all__ = [
    "EXPERIMENTS", "experiment", "experiment_specs",
    "PAPER_TABLE3", "PAPER_TABLE4", "PAPER_TABLE5", "PAPER_SWEEP",
    "ExperimentSpec", "ExperimentResult", "SweepPoint",
    "run_experiments", "solve_sweep_models", "map_calls",
    "ResultCache", "fetch_or_run_many",
    "render_summary_table", "render_per_type_table",
    "render_figure_series",
    "SensitivityResult", "SweepRequest", "sweep_site_field",
    "sweep_protocol_field", "sweep_basic_cost", "run_sweeps",
    "elasticity",
    "experiment_to_csv", "paper_reference_to_csv",
    "AgreementStats", "compare_series", "model_vs_sim",
    "model_vs_paper",
]
