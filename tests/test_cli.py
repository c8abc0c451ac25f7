"""CLI tests: the ``python -m repro`` surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_run_writes_bench_file(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "neurosketch,exact,uniform",
            "--fast",
            "--n-rows", "600",
            "--n-train", "150",
            "--n-test", "40",
            "--quiet",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    bench = tmp_path / "BENCH_synthetic.json"
    assert bench.exists()
    payload = json.loads(bench.read_text())
    assert payload["config"]["fast"] is True
    names = [e["name"] for e in payload["estimators"]]
    assert names == ["neurosketch", "exact", "uniform"]
    out = capsys.readouterr().out
    assert "norm MAE" in out


def test_dataset_aliases_share_one_bench_trajectory(tmp_path):
    # synthetic/gmm/G5 are the same dataset; a spelling change must not fork
    # the BENCH file future PRs diff against.
    rc = main(
        [
            "run",
            "--dataset", "gmm",
            "--estimators", "uniform",
            "--fast",
            "--n-rows", "400",
            "--n-train", "60",
            "--n-test", "20",
            "--quiet",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "BENCH_synthetic.json").exists()


def test_run_no_compile_escape_hatch(tmp_path):
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "neurosketch",
            "--fast",
            "--no-compile",
            "--n-rows", "400",
            "--n-train", "60",
            "--n-test", "20",
            "--quiet",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "BENCH_synthetic.json").read_text())
    assert payload["config"]["compile"] is False
    ns = payload["estimators"][0]
    assert "speedup_vs_object_batch" not in ns["batch"]


def test_run_default_records_compiled_speedup(tmp_path):
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "neurosketch",
            "--fast",
            "--n-rows", "400",
            "--n-train", "60",
            "--n-test", "20",
            "--quiet",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "BENCH_synthetic.json").read_text())
    assert payload["config"]["compile"] is True
    ns = payload["estimators"][0]
    assert ns["batch"]["speedup_vs_object_per_query"] > 0.0


def test_run_train_backend_and_knobs_land_in_bench(tmp_path):
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "neurosketch",
            "--fast",
            "--train-backend", "sequential",
            "--train-batch-size", "64",
            "--patience", "4",
            "--min-delta", "1e-5",
            "--optimizer", "adam",
            "--n-rows", "400",
            "--n-train", "60",
            "--n-test", "20",
            "--quiet",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "BENCH_synthetic.json").read_text())
    config = payload["config"]
    assert config["train_backend"] == "sequential"
    assert config["batch_size"] <= 64  # --fast may clamp further
    assert config["patience"] == 4
    assert config["min_delta"] == 1e-5
    assert config["optimizer"] == "adam"
    build = payload["estimators"][0]["build"]
    assert build["backend"] == "sequential"
    assert "speedup_vs_sequential" in build
    assert build["stacked_build_s"] > 0.0 and build["sequential_build_s"] > 0.0


def test_run_infer_dtype_lands_in_bench(tmp_path):
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "neurosketch",
            "--fast",
            "--infer-dtype", "float64",
            "--n-rows", "400",
            "--n-train", "60",
            "--n-test", "20",
            "--quiet",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "BENCH_synthetic.json").read_text())
    assert payload["config"]["infer_dtype"] == "float64"
    batch = payload["estimators"][0]["batch"]
    assert batch["dtype"] == "float64"
    assert batch["speedup_vs_padded"] > 0.0
    assert 0.0 <= batch["f32_vs_f64_max_rel_diff"] <= 1e-5
    assert "environment" in payload["config"]


def test_run_no_bench_skips_file(tmp_path):
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "uniform",
            "--fast",
            "--n-rows", "400",
            "--n-train", "60",
            "--n-test", "20",
            "--quiet",
            "--no-bench",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_compare_renders_table(tmp_path, capsys):
    for name in ("a", "b"):
        main(
            [
                "run",
                "--dataset", "synthetic",
                "--estimators", "uniform",
                "--fast",
                "--n-rows", "400",
                "--n-train", "60",
                "--n-test", "20",
                "--quiet",
                "--name", name,
                "--out-dir", str(tmp_path),
            ]
        )
    capsys.readouterr()
    rc = main(
        ["compare", str(tmp_path / "BENCH_a.json"), str(tmp_path / "BENCH_b.json")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "a nMAE" in out and "b nMAE" in out
    assert "uniform" in out


def test_list_datasets_shows_aliases(capsys):
    assert main(["list-datasets"]) == 0
    out = capsys.readouterr().out
    assert "G5" in out and "synthetic" in out
    assert "PM" in out and "pm25" in out


def test_unknown_dataset_exits_with_clean_error(capsys):
    rc = main(["run", "--dataset", "nope", "--fast", "--quiet", "--no-bench"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown dataset" in err and "synthetic" in err
    assert "Traceback" not in err


def test_unknown_estimator_exits_with_clean_error(capsys):
    rc = main(["run", "--estimators", "neurosketh", "--fast", "--quiet", "--no-bench"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown estimator" in err and "neurosketch" in err


def test_unknown_aggregate_exits_with_clean_error(capsys):
    rc = main(["run", "--aggregate", "BOGUS", "--fast", "--quiet", "--no-bench"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown aggregate" in err
    assert "Traceback" not in err


def test_compare_missing_file_exits_with_clean_error(capsys):
    rc = main(["compare", "/tmp/definitely-not-a-bench.json"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_compare_malformed_bench_exits_with_clean_error(tmp_path, capsys):
    bad = tmp_path / "BENCH_bad.json"
    # A supported estimator entry with no 'errors' key.
    bad.write_text(json.dumps({"estimators": [{"name": "x", "supported": True}]}))
    rc = main(["compare", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "schema" in err and "Traceback" not in err


GOLDEN_SKETCH = str(
    __import__("pathlib").Path(__file__).resolve().parent / "data" / "golden_sketch.json.gz"
)


def test_query_one_shot_against_saved_sketch(capsys):
    import numpy as np

    from repro.serve import load_sketch

    q = np.array([[0.1, 0.2, 0.3, 0.4]])
    # The CLI serves the float32 tier by default; --infer-dtype float64
    # restores the bit-parity reference tier. Each must match a library
    # load of the same tier exactly.
    rc = main(["query", "--sketch", GOLDEN_SKETCH, "0.1,0.2,0.3,0.4"])
    assert rc == 0
    answer = float(capsys.readouterr().out.strip())
    assert answer == float(load_sketch(GOLDEN_SKETCH, dtype="float32").predict(q)[0])

    rc = main(["query", "--sketch", GOLDEN_SKETCH, "--infer-dtype", "float64",
               "0.1,0.2,0.3,0.4"])
    assert rc == 0
    answer64 = float(capsys.readouterr().out.strip())
    assert answer64 == float(load_sketch(GOLDEN_SKETCH).predict(q)[0])
    assert answer == pytest.approx(answer64, rel=1e-5)


def test_query_rejects_non_numeric_vector(capsys):
    rc = main(["query", "--sketch", GOLDEN_SKETCH, "a,b"])
    assert rc == 2
    assert "must be numbers" in capsys.readouterr().err


def test_query_missing_sketch_exits_with_clean_error(capsys):
    rc = main(["query", "--sketch", "/tmp/definitely-not-a-sketch.json.gz", "0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


def test_serve_round_trips_json_lines(capsys, monkeypatch):
    import io

    lines = [
        json.dumps({"id": 0, "q": [0.1, 0.2, 0.3, 0.4]}),
        json.dumps([0.5, 0.6, 0.7, 0.8]),
        json.dumps({"id": 2, "q": [0.1, 0.2, 0.3, 0.4]}),  # repeat -> cache hit
        "this is not json",
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    rc = main(["serve", "--sketch", GOLDEN_SKETCH])
    assert rc == 0
    out = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(out) == 4
    assert out[0]["id"] == 0 and out[0]["cached"] is False
    assert out[2]["id"] == 2 and out[2]["cached"] is True
    assert out[2]["answer"] == out[0]["answer"]
    assert "error" in out[3]
    # Serve answers match the one-shot query path exactly.
    capsys.readouterr()
    assert main(["query", "--sketch", GOLDEN_SKETCH, "0.5", "0.6", "0.7", "0.8"]) == 0
    assert float(capsys.readouterr().out.strip()) == out[1]["answer"]


def test_serve_stdio_speaks_versioned_protocol_frames(capsys, monkeypatch):
    import io

    lines = [
        json.dumps({"v": 1, "op": "query", "id": "a", "q": [0.1, 0.2, 0.3, 0.4]}),
        json.dumps({"v": 1, "op": "batch", "id": "b",
                    "q": [[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]]}),
        json.dumps({"v": 1, "op": "stats", "id": "c"}),
        json.dumps({"v": 99, "op": "query", "q": [0.1, 0.2, 0.3, 0.4]}),
        json.dumps({"v": 1, "op": "query", "id": "d", "sketch": "nope",
                    "q": [0.1, 0.2, 0.3, 0.4]}),
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    rc = main(["serve", "--sketch", GOLDEN_SKETCH])
    assert rc == 0
    out = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(out) == 5
    assert out[0]["ok"] is True and out[0]["id"] == "a" and out[0]["v"] == 1
    assert out[1]["ok"] is True and out[1]["answers"][0] == out[0]["answer"]
    assert out[2]["ok"] is True and out[2]["stats"]["sketch"] == "default"
    assert out[3]["ok"] is False and out[3]["code"] == "unsupported-version"
    assert out[4]["ok"] is False and out[4]["code"] == "unknown-sketch"


def test_serve_no_cache_never_reports_cached(capsys, monkeypatch):
    import io

    line = json.dumps([0.1, 0.2, 0.3, 0.4])
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n" + line + "\n"))
    rc = main(["serve", "--sketch", GOLDEN_SKETCH, "--no-cache"])
    assert rc == 0
    out = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert [o["cached"] for o in out] == [False, False]
    assert out[0]["answer"] == out[1]["answer"]


def test_run_save_sketch_writes_servable_artifact(tmp_path):
    sketch_path = tmp_path / "fast-sketch.json.gz"
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "neurosketch",
            "--fast",
            "--n-rows", "400",
            "--n-train", "60",
            "--n-test", "20",
            "--quiet",
            "--no-bench",
            "--save-sketch", str(sketch_path),
        ]
    )
    assert rc == 0
    assert sketch_path.exists()
    from repro.serve import load_sketch

    sketch = load_sketch(str(sketch_path))
    import numpy as np

    answers = sketch.predict(np.full((3, sketch.input_dim), 0.5))
    assert answers.shape == (3,) and np.all(np.isfinite(answers))


def test_run_save_sketch_requires_neurosketch(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "uniform",
            "--fast",
            "--n-rows", "400",
            "--n-train", "60",
            "--n-test", "20",
            "--quiet",
            "--no-bench",
            "--save-sketch", str(tmp_path / "nope.json.gz"),
        ]
    )
    assert rc == 2
    assert "neurosketch" in capsys.readouterr().err


def test_serve_bad_knobs_exit_with_clean_error(capsys):
    rc = main(["serve", "--sketch", GOLDEN_SKETCH, "--cache-resolution", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "resolution" in err and "Traceback" not in err
    rc = main(["serve", "--sketch", GOLDEN_SKETCH, "--max-batch", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "max_batch_size" in err and "Traceback" not in err


def test_serve_processes_flag_validation(capsys):
    # `repro serve` is one process and takes no sharding flags: argparse
    # rejects them as a usage error.
    for extra in (["--processes", "2"], ["--no-shared-weights"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--sketch", GOLDEN_SKETCH, "--listen", "127.0.0.1:0", *extra])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and extra[0] in err


def test_truncated_sketch_exits_with_clean_error(tmp_path, capsys):
    import pathlib

    bad = tmp_path / "bad.json.gz"
    bad.write_bytes(pathlib.Path(GOLDEN_SKETCH).read_bytes()[:100])
    rc = main(["query", "--sketch", str(bad), "0.1,0.2,0.3,0.4"])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    rc = main(["serve", "--sketch", str(bad)])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


def test_serve_nan_query_yields_error_line_not_invalid_json(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"q": [null, null, null, null]}\n'))
    rc = main(["serve", "--sketch", GOLDEN_SKETCH])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])  # strict-parsable, so not bare NaN
    assert "error" in payload


def test_ingest_offline_rewrites_bundle_and_round_trips(tmp_path, capsys):
    from test_stream import small_sketch

    from repro.stream import load_stream_sketch

    bundle = str(tmp_path / "bundle.npz")
    small_sketch().save_npz(bundle)
    out = str(tmp_path / "mutated.npz")
    rc = main(
        [
            "ingest",
            "--sketch", bundle,
            "--out", out,
            "--row", "5.0,50.0",
            "--row", "5.1,51.0",
            "--delete-lo", "0.0,0.0",
            "--delete-hi", "2.0,20.0",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out.strip())
    assert summary["op"] == "append+delete"
    assert summary["appended"] == 2 and summary["deleted"] > 0
    assert summary["swapped"] and summary["epoch"] >= 1
    assert f"wrote {out}" in captured.err
    # The original bundle is untouched; the output carries the mutation.
    assert load_stream_sketch(bundle).epoch == 0
    mutated = load_stream_sketch(out)
    assert mutated.epoch == summary["epoch"]
    assert mutated.data_version == summary["data_version"]


def test_ingest_validates_its_flag_combinations(tmp_path, capsys):
    assert main(["ingest", "--row", "1.0"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["ingest", "--sketch", "x.npz", "--connect", "y:1", "--row", "1"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["ingest", "--sketch", "x.npz", "--delete-lo", "0.0"]) == 2
    assert "come together" in capsys.readouterr().err
    assert main(["ingest", "--sketch", "x.npz"]) == 2
    assert "nothing to ingest" in capsys.readouterr().err
    assert main(["ingest", "--connect", "y:1", "--out", "z.npz", "--row", "1"]) == 2
    assert "--out only applies" in capsys.readouterr().err
    # A non-bundle artifact is an operator error, not a traceback.
    plain = tmp_path / "plain.npz"
    import numpy as np

    np.savez(plain, x=np.arange(3))
    assert main(["ingest", "--sketch", str(plain), "--row", "1.0,2.0"]) == 2
    assert "not a stream-sketch bundle" in capsys.readouterr().err


def test_run_save_stream_flag_validation(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "uniform",
            "--fast",
            "--save-stream", str(tmp_path / "s.npz"),
        ]
    )
    assert rc == 2
    assert "neurosketch" in capsys.readouterr().err
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "neurosketch",
            "--fast",
            "--no-stream-bench",
            "--save-stream", str(tmp_path / "s.npz"),
        ]
    )
    assert rc == 2
    assert "--no-stream-bench" in capsys.readouterr().err


def test_run_build_workers_lands_in_bench(tmp_path):
    rc = main(
        [
            "run",
            "--dataset", "synthetic",
            "--estimators", "neurosketch",
            "--fast",
            "--build-workers", "2",
            "--n-rows", "400",
            "--n-train", "60",
            "--n-test", "20",
            "--no-stream-bench",
            "--quiet",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "BENCH_synthetic.json").read_text())
    assert payload["config"]["build_workers"] == 2
    par = payload["estimators"][0]["build"]["parallel"]
    assert par["shards"] == 2
    assert par["parallel_build_s"] > 0.0
    assert "speedup_vs_single" in par


def test_serve_max_batch_accepts_auto():
    parser = build_parser()
    args = parser.parse_args(["serve", "--sketch", "x.npz", "--max-batch", "auto"])
    assert args.max_batch == "auto"
    args = parser.parse_args(["serve", "--sketch", "x.npz", "--max-batch", "32"])
    assert args.max_batch == 32
    with pytest.raises(SystemExit):
        parser.parse_args(["serve", "--sketch", "x.npz", "--max-batch", "turbo"])


def test_importing_the_cli_loads_no_experiment_stack():
    """``repro serve`` boots through ``repro.cli``: building the parser and
    parsing a serve command line must not import the eval runner, the
    baselines or the data registry (each boot without bytecode caching
    compiles every module it imports). The serving modules a boot then
    imports run in one process and must not pull in ``multiprocessing``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, repro.cli\n"
        "repro.cli.build_parser().parse_args(['serve', '--sketch', 'x.npz'])\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.eval', 'repro.baselines', 'repro.data'))))\n"
        "import repro.serve, repro.core.compiled, repro.stream.sketch\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["[]", "[]"]


def test_run_help_lists_the_estimator_registry(capsys):
    from repro.api import estimator_names

    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"comma-separated subset of {', '.join(estimator_names())}" in help_text
