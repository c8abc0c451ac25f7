"""Smoke tests for the end-to-end experiment runner and BENCH reporting."""

import numpy as np
import pytest

from repro.eval.adapters import build_estimator, resolve_estimator_name
from repro.eval.reporting import format_result_table, load_bench_json, write_bench_json
from repro.eval.runner import ExperimentConfig, run_experiment
from repro.eval.timing import LatencyStats, time_per_query


@pytest.fixture(scope="module")
def tiny_result():
    config = ExperimentConfig(
        dataset="synthetic",
        estimators=("neurosketch", "exact", "uniform"),
        fast=True,
        n_rows=800,
        n_train=200,
        n_test=60,
        n_timing_queries=10,
        timing_warmup=2,
        timing_repeats=1,
        seed=0,
    )
    return run_experiment(config)


def test_runner_produces_result_per_estimator(tiny_result):
    assert [e.name for e in tiny_result.estimators] == ["neurosketch", "exact", "uniform"]
    for est in tiny_result.estimators:
        assert est.supported
        assert est.build_s is not None and est.build_s >= 0.0
        assert est.num_bytes is not None and est.num_bytes > 0
        assert est.latency is not None and est.latency.median_s > 0.0
        assert np.isfinite(est.errors["normalized_mae"])


def test_exact_estimator_has_zero_error(tiny_result):
    assert tiny_result.estimator("exact").errors["normalized_mae"] == pytest.approx(0.0)


def test_neurosketch_beats_uniform_baseline(tiny_result):
    ns = tiny_result.estimator("neurosketch").errors["normalized_mae"]
    assert ns < tiny_result.uniform_normalized_mae


def test_uniform_estimator_matches_reference_metric(tiny_result):
    est = tiny_result.estimator("uniform").errors["normalized_mae"]
    assert est == pytest.approx(tiny_result.uniform_normalized_mae)


def test_fast_profile_clamps_budget():
    fast = ExperimentConfig(epochs=500, n_train=50_000, tree_height=9).fast_profile()
    assert fast.epochs <= 5
    assert fast.n_train <= 400
    assert fast.tree_height <= 1
    assert fast.fast


def test_config_rejects_unknowns():
    with pytest.raises(KeyError):
        ExperimentConfig(dataset="nope")
    with pytest.raises(KeyError):
        ExperimentConfig(estimators=("martians",))
    with pytest.raises(KeyError):
        ExperimentConfig(aggregate="BOGUS")
    with pytest.raises(ValueError):
        ExperimentConfig(estimators=())
    with pytest.raises(ValueError):
        ExperimentConfig(n_rows=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_rows=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(tree_height=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(sample_frac=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(epochs=0)


def test_estimator_aliases_resolve():
    assert resolve_estimator_name("NS") == "neurosketch"
    assert resolve_estimator_name("tree_agg") == "tree-agg"
    assert resolve_estimator_name("mean") == "uniform"


def test_config_dedupes_estimator_aliases():
    config = ExperimentConfig(estimators=("ns", "neurosketch", "uniform", "mean"))
    assert config.estimators == ("neurosketch", "uniform")


def test_rtree_estimator_is_exact_on_full_data(tiny_result):
    # TREE-AGG with a 100% sample answers through the R-tree without error.
    ds_config = ExperimentConfig(dataset="synthetic", n_rows=300)
    from repro.data import load_dataset
    from repro.queries import QueryFunction, WorkloadGenerator

    ds = load_dataset(ds_config.dataset, n=300, seed=0)
    qf = QueryFunction.axis_range(ds, aggregate="AVG")
    Q = WorkloadGenerator(qf, seed=1).sample(25)
    est = build_estimator("rtree", seed=0).fit(qf, Q, qf(Q))
    np.testing.assert_allclose(est.predict(Q), qf(Q), rtol=1e-9, atol=1e-9)


def test_bench_json_round_trip(tiny_result, tmp_path):
    path = write_bench_json(tiny_result, "unit", tmp_path)
    assert path.name == "BENCH_unit.json"
    payload = load_bench_json(path)
    assert payload["dataset"]["name"] == "G5"
    names = [e["name"] for e in payload["estimators"]]
    assert names == ["neurosketch", "exact", "uniform"]
    ns = payload["estimators"][0]
    assert {"normalized_mae", "rmse", "relative_error"} <= set(ns["errors"])
    assert {"median_s", "p95_s"} <= set(ns["latency"])
    assert ns["num_bytes"] > 0
    assert ns["build_s"] >= 0.0


def test_result_table_renders(tiny_result):
    table = format_result_table(tiny_result)
    assert "neurosketch" in table
    assert "norm MAE" in table
    assert "uniform-answer baseline" in table
    assert "vs obj" in table


def test_runner_records_compiled_speedups(tiny_result):
    """Compiled serving is the default; the BENCH entry must carry both the
    object-path batch time and the derived speedups."""
    batch = tiny_result.estimator("neurosketch").batch
    for key in (
        "object_batch_s",
        "object_per_query_total_s",
        "speedup_vs_object_batch",
        "speedup_vs_object_per_query",
    ):
        assert key in batch and np.isfinite(batch[key]) and batch[key] > 0.0
    # Baselines have no compiled path, so no speedup fields.
    assert "speedup_vs_object_batch" not in tiny_result.estimator("exact").batch


def test_runner_records_dtype_tier_fields(tiny_result):
    """The compiled block carries the served tier, its win over the padded
    reference schedule, both tiers' batch times and the float32 deviation."""
    batch = tiny_result.estimator("neurosketch").batch
    assert batch["dtype"] == "float32"  # the serving default
    for key in ("padded_batch_s", "speedup_vs_padded", "f64_batch_s", "f32_batch_s"):
        assert key in batch and np.isfinite(batch[key]) and batch[key] > 0.0
    assert 0.0 <= batch["f32_vs_f64_max_rel_diff"] <= 1e-5
    assert "dtype" not in tiny_result.estimator("exact").batch


def test_config_rejects_unknown_infer_dtype():
    with pytest.raises(ValueError, match="infer_dtype"):
        ExperimentConfig(infer_dtype="float16")


def test_float64_tier_config_serves_the_reference_tier():
    config = ExperimentConfig(
        dataset="synthetic",
        estimators=("neurosketch",),
        fast=True,
        n_rows=400,
        n_train=120,
        n_test=40,
        n_timing_queries=5,
        timing_warmup=1,
        timing_repeats=1,
        infer_dtype="float64",
        seed=0,
    )
    result = run_experiment(config)
    batch = result.estimator("neurosketch").batch
    assert batch["dtype"] == "float64"
    # The served tier is the reference tier, so the compiled predictions
    # the errors were scored on match the object path to parity tolerance.
    est = result.fitted["neurosketch"]
    Q = np.random.default_rng(0).uniform(size=(16, result.query_dim))
    np.testing.assert_allclose(
        est.predict(Q), est.predict_object(Q), rtol=1e-12, atol=1e-12
    )


def test_bench_records_environment_provenance(tiny_result, tmp_path):
    from repro.eval.timing import environment_provenance

    payload = load_bench_json(write_bench_json(tiny_result, "envcheck", tmp_path))
    env = payload["config"]["environment"]
    assert env == environment_provenance()
    for key in ("numpy_version", "blas", "cpu_count", "platform", "python_version"):
        assert key in env
    assert env["numpy_version"] == np.__version__
    assert payload["config"]["infer_dtype"] == "float32"


def test_no_compile_config_restores_object_path():
    config = ExperimentConfig(
        dataset="synthetic",
        estimators=("neurosketch",),
        fast=True,
        n_rows=400,
        n_train=120,
        n_test=40,
        n_timing_queries=5,
        timing_warmup=1,
        timing_repeats=1,
        compile=False,
        seed=0,
    )
    result = run_experiment(config)
    batch = result.estimator("neurosketch").batch
    assert "speedup_vs_object_batch" not in batch
    assert result.config.compile is False


def test_compiled_and_object_estimators_agree():
    """The estimator-level compiled flag changes dispatch, not answers."""
    from repro.data import load_dataset
    from repro.queries import QueryFunction, WorkloadGenerator

    ds = load_dataset("synthetic", n=400, seed=0)
    qf = QueryFunction.axis_range(ds, aggregate="AVG")
    Q = WorkloadGenerator(qf, seed=1).sample(40)
    y = qf(Q)
    kwargs = dict(tree_height=2, n_partitions=None, depth=2, width_first=8,
                  width_rest=8, epochs=1, seed=0)
    fast = build_estimator("neurosketch", compile=True, **kwargs).fit(qf, Q, y)
    slow = build_estimator("neurosketch", compile=False, **kwargs).fit(qf, Q, y)
    np.testing.assert_allclose(fast.predict(Q), slow.predict(Q), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fast.predict_object(Q), slow.predict(Q), rtol=0, atol=0)
    assert fast.predict_one(Q[0]) == pytest.approx(slow.predict_one(Q[0]), rel=1e-12)
    assert fast.predict_one_object(Q[1]) == slow.predict_one(Q[1])


def test_latency_stats_from_samples():
    stats = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0])
    assert stats.median_s == pytest.approx(2.5)
    assert stats.min_s == 1.0 and stats.max_s == 4.0
    assert stats.n_queries == 4


def test_time_per_query_counts_each_query():
    calls = []

    def answer_one(q):
        calls.append(1)
        return 0.0

    Q = np.zeros((5, 2))
    stats = time_per_query(answer_one, Q, warmup=3, repeats=2)
    assert stats.n_queries == 5
    assert len(calls) == 3 + 5 * 2


def test_service_block_recorded_for_neurosketch(tiny_result):
    svc = tiny_result.estimator("neurosketch").service
    assert svc is not None
    # With the cache disabled the service path is bitwise-identical.
    assert svc["parity_max_abs_diff"] == 0.0
    assert svc["microbatch_s"] > 0.0 and svc["raw_batch_s"] > 0.0
    assert svc["microbatch_vs_batch"] > 0.0
    # A cache hit skips predict entirely. The tiny fixture's engine answers
    # in ~the same microseconds as a dict lookup, so comparing raw means is
    # a coin flip under scheduler noise — assert the deterministic part
    # (every timed ask after warming was a hit) and that the hit latency
    # stays in the same ballpark as the uncached ask.
    n_timing = tiny_result.config.n_timing_queries
    assert svc["cache"]["hits"] >= n_timing
    assert svc["cached_hit_median_s"] <= svc["uncached_ask_mean_s"] * 10 + 1e-3
    # Baselines are not served through the sketch service.
    assert tiny_result.estimator("exact").service is None
    assert tiny_result.estimator("uniform").service is None


def test_service_block_serializes_into_bench_json(tiny_result, tmp_path):
    path = write_bench_json(tiny_result, "svc", tmp_path)
    payload = load_bench_json(path)
    ns = next(e for e in payload["estimators"] if e["name"] == "neurosketch")
    assert ns["service"]["parity_max_abs_diff"] == 0.0
    uniform = next(e for e in payload["estimators"] if e["name"] == "uniform")
    assert uniform["service"] is None


def test_runner_records_build_backend_comparison(tiny_result):
    """The build block must carry both backends' construction times, the
    stacked speedup, and both accuracies (they must agree within noise)."""
    build = tiny_result.estimator("neurosketch").build
    assert build is not None
    assert build["backend"] == "stacked"
    assert build["stacked_build_s"] > 0.0 and build["sequential_build_s"] > 0.0
    assert np.isfinite(build["speedup_vs_sequential"])
    assert build["speedup_vs_sequential"] == pytest.approx(
        build["sequential_build_s"] / build["stacked_build_s"]
    )
    # Same seeds => the two backends train the same models.
    assert build["stacked_normalized_mae"] == pytest.approx(
        build["sequential_normalized_mae"], rel=1e-6
    )
    # Estimators without a training backend have no build block.
    assert tiny_result.estimator("exact").build is None
    assert tiny_result.estimator("uniform").build is None


def test_build_block_records_label_stage(tiny_result, tmp_path):
    """Exact labelling of the train/test queries is timed as a build stage
    and survives serialization into the BENCH file."""
    build = tiny_result.estimator("neurosketch").build
    assert build["label_s"] > 0.0
    payload = load_bench_json(write_bench_json(tiny_result, "labels", tmp_path))
    ns = next(e for e in payload["estimators"] if e["name"] == "neurosketch")
    assert ns["build"]["label_s"] == build["label_s"]


def test_build_block_serializes_into_bench_json(tiny_result, tmp_path):
    path = write_bench_json(tiny_result, "build", tmp_path)
    payload = load_bench_json(path)
    ns = next(e for e in payload["estimators"] if e["name"] == "neurosketch")
    assert "speedup_vs_sequential" in ns["build"]
    assert payload["config"]["train_backend"] == "stacked"
    for knob in ("patience", "optimizer", "min_delta", "batch_size"):
        assert knob in payload["config"]


def test_sequential_backend_records_build_block_too():
    config = ExperimentConfig(
        dataset="synthetic",
        estimators=("neurosketch",),
        fast=True,
        n_rows=400,
        n_train=80,
        n_test=30,
        n_timing_queries=5,
        timing_warmup=1,
        timing_repeats=1,
        train_backend="sequential",
        seed=0,
    )
    result = run_experiment(config)
    build = result.estimator("neurosketch").build
    assert build["backend"] == "sequential"
    assert build["stacked_build_s"] > 0.0 and build["sequential_build_s"] > 0.0
    assert np.isfinite(build["speedup_vs_sequential"])


def test_config_rejects_bad_training_knobs():
    with pytest.raises(ValueError):
        ExperimentConfig(train_backend="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(optimizer="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(patience=0)
    with pytest.raises(ValueError):
        ExperimentConfig(min_delta=-1.0)


def test_service_block_skipped_without_compile_or_service():
    config = ExperimentConfig(
        dataset="synthetic",
        estimators=("neurosketch",),
        fast=True,
        n_rows=400,
        n_train=60,
        n_test=20,
        n_timing_queries=5,
        timing_warmup=1,
        timing_repeats=1,
        service=False,
    )
    result = run_experiment(config)
    assert result.estimator("neurosketch").service is None
    assert "neurosketch" in result.fitted


# ---------------------------------------------------------------------------
# BENCH `stream` block: incremental maintenance vs. full rebuild
# ---------------------------------------------------------------------------


def test_stream_block_meets_the_maintenance_acceptance_bars(tiny_result):
    """Incremental retraining of a localized append must touch <= 25% of the
    leaves and beat a full rebuild by at least 2x, at matching accuracy."""
    block = tiny_result.stream
    assert block is not None
    assert block["leaves"] == 2 ** block["tree_height"]
    assert 0 < block["dirty_leaves"] <= block["leaves"] // 4
    assert block["dirty_fraction"] <= 0.25
    assert block["retrained_leaves"] == block["dirty_leaves"]
    assert block["speedup_vs_rebuild"] >= 2.0
    assert block["speedup_vs_rebuild"] == pytest.approx(
        block["full_rebuild_s"] / block["incremental_retrain_s"]
    )
    # Freezing the clean slots must not cost accuracy beyond noise.
    assert np.isfinite(block["post_update_nmae"])
    assert block["post_update_nmae"] <= block["rebuild_nmae"] * 1.25 + 1e-3
    assert block["appended_rows"] > 0 and block["deleted_rows"] > 0
    assert block["epoch"] >= 1 and block["data_version"] >= 2


def test_stream_block_serializes_into_bench_json(tiny_result, tmp_path):
    payload = load_bench_json(write_bench_json(tiny_result, "stream", tmp_path))
    assert payload["stream"]["speedup_vs_rebuild"] >= 2.0
    assert payload["stream"]["dirty_fraction"] <= 0.25


def test_stream_block_skipped_without_neurosketch():
    config = ExperimentConfig(
        dataset="synthetic",
        estimators=("exact", "uniform"),
        fast=True,
        n_rows=400,
        n_train=60,
        n_test=20,
        n_timing_queries=5,
        timing_warmup=1,
        timing_repeats=1,
    )
    assert run_experiment(config).stream is None


# ------------------------------------------------------ parallel shard build


@pytest.fixture(scope="module")
def parallel_result():
    config = ExperimentConfig(
        dataset="synthetic",
        estimators=("neurosketch",),
        fast=True,
        n_rows=800,
        n_train=200,
        n_test=60,
        n_timing_queries=10,
        timing_warmup=2,
        timing_repeats=1,
        seed=0,
        build_workers=2,
        service=False,
        stream_bench=False,
    )
    return run_experiment(config)


def test_parallel_build_block_recorded(parallel_result):
    build = parallel_result.estimator("neurosketch").build
    par = build["parallel"]
    assert par["build_workers"] == 2
    assert par["shards"] == 2
    assert par["effective_workers"] >= 1
    assert par["parallel_build_s"] > 0.0 and par["single_build_s"] > 0.0
    assert par["speedup_vs_single"] == pytest.approx(
        par["single_build_s"] / par["parallel_build_s"]
    )
    # Per-path accuracy must agree within noise (different seed streams).
    assert abs(par["parallel_normalized_mae"] - par["single_normalized_mae"]) < 0.1
    # The backend contrast stays apples-to-apples: its stacked time is the
    # single-process build, not the sharded one.
    assert build["stacked_build_s"] == par["single_build_s"]
    assert set(par["timings_s"]) == {"plan", "shards", "merge", "retrain", "assemble"}


def test_parallel_block_serializes_into_bench_json(parallel_result, tmp_path):
    write_bench_json(parallel_result, "par", tmp_path)
    payload = load_bench_json(tmp_path / "BENCH_par.json")
    par = payload["estimators"][0]["build"]["parallel"]
    assert par["speedup_vs_single"] > 0.0
    assert payload["config"]["build_workers"] == 2


def test_parallel_and_source_knob_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(build_workers=0)
    with pytest.raises(ValueError):
        ExperimentConfig(build_shards=1)
    with pytest.raises(ValueError):
        ExperimentConfig(data_source="download")
    # Valid shapes construct fine.
    assert ExperimentConfig(build_workers=4).build_shards is None
    assert ExperimentConfig(build_shards=2).build_workers == 1
