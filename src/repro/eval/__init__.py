"""Experiment harness: metrics, timing, estimator adapters, runner, reports.

This is the subsystem that turns the reproduction into numbers: one
:class:`~repro.eval.runner.ExperimentConfig` drives
dataset → workload → exact labels → fit estimators → accuracy/latency/
storage, and :mod:`~repro.eval.reporting` writes the ``BENCH_<name>.json``
files future PRs are judged against. The ``python -m repro`` CLI is a thin
wrapper over this package.
"""

from repro.eval.adapters import (
    Estimator,
    NeuroSketchEstimator,
    UniformAnswerEstimator,
    build_estimator,
    estimator_names,
    register_estimator,
    resolve_estimator_name,
)
from repro.eval.metrics import (
    error_summary,
    mae,
    median_relative_error,
    normalized_mae,
    relative_error,
    rmse,
    uniform_answer_error,
)
from repro.eval.reporting import (
    bench_path,
    format_comparison_table,
    format_result_table,
    load_bench_json,
    write_bench_json,
)
from repro.eval.runner import (
    EstimatorResult,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.eval.timing import LatencyStats, time_batch, time_per_query, timed

__all__ = [
    "Estimator",
    "NeuroSketchEstimator",
    "UniformAnswerEstimator",
    "build_estimator",
    "register_estimator",
    "resolve_estimator_name",
    "estimator_names",
    "mae",
    "rmse",
    "normalized_mae",
    "relative_error",
    "median_relative_error",
    "uniform_answer_error",
    "error_summary",
    "LatencyStats",
    "timed",
    "time_per_query",
    "time_batch",
    "ExperimentConfig",
    "ExperimentResult",
    "EstimatorResult",
    "run_experiment",
    "bench_path",
    "write_bench_json",
    "load_bench_json",
    "format_result_table",
    "format_comparison_table",
]
