"""Result reporting: machine-readable BENCH JSON and a human text table.

``BENCH_<name>.json`` is the repo's benchmark trajectory format: one file
per experiment name, overwritten by each run, diffed across PRs to judge
speed/accuracy regressions. The text table is what the CLI prints.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.eval.runner import ExperimentResult


def bench_path(name: str, out_dir: str | Path = ".") -> Path:
    """Canonical path of the benchmark file for an experiment name."""
    safe = "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name)
    return Path(out_dir) / f"BENCH_{safe}.json"


def write_bench_json(result: ExperimentResult, name: str, out_dir: str | Path = ".") -> Path:
    """Write ``BENCH_<name>.json`` and return its path."""
    path = bench_path(name, out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench_json(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _fmt_bytes(n: int | None) -> str:
    if n is None:
        return "-"
    if n >= 2**20:
        return f"{n / 2**20:.2f}MB"
    if n >= 2**10:
        return f"{n / 2**10:.1f}KB"
    return f"{n}B"


def _fmt_seconds(s: float | None) -> str:
    if s is None:
        return "-"
    if s < 1e-3:
        return f"{s * 1e6:.1f}us"
    if s < 1.0:
        return f"{s * 1e3:.2f}ms"
    return f"{s:.2f}s"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def _fmt_speedup(batch: dict) -> str:
    """Compiled-vs-object speedup cell (``-`` when no object baseline ran)."""
    speedup = batch.get("speedup_vs_object_per_query")
    return f"{speedup:.1f}x" if speedup is not None else "-"


def format_result_table(result: ExperimentResult) -> str:
    """Fixed-width summary table for one experiment."""
    headers = [
        "estimator",
        "norm MAE",
        "rel err",
        "RMSE",
        "med lat",
        "p95 lat",
        "batch q/s",
        "vs obj",
        "build",
        "bytes",
    ]
    rows: list[list[str]] = []
    for est in result.estimators:
        if not est.supported:
            rows.append([est.name, "unsupported"] + ["-"] * (len(headers) - 2))
            continue
        qps = est.batch.get("queries_per_s")
        rows.append(
            [
                est.name,
                f"{est.errors['normalized_mae']:.4f}",
                f"{est.errors['relative_error']:.4f}",
                f"{est.errors['rmse']:.4g}",
                _fmt_seconds(est.latency.median_s if est.latency else None),
                _fmt_seconds(est.latency.p95_s if est.latency else None),
                f"{qps:,.0f}" if qps is not None else "-",
                _fmt_speedup(est.batch),
                _fmt_seconds(est.build_s),
                _fmt_bytes(est.num_bytes),
            ]
        )
    header = (
        f"dataset={result.dataset_name} n={result.dataset_n} dim={result.dataset_dim} "
        f"agg={result.config.aggregate} query_dim={result.query_dim} "
        f"train/test={result.n_train}/{result.n_test} seed={result.config.seed}\n"
        f"uniform-answer baseline normalized MAE: {result.uniform_normalized_mae:.4f}\n"
    )
    footer = ""
    for est in result.estimators:
        line = _fmt_parallel_line(est)
        if line:
            footer += f"\n{est.name} {line}"
    return header + _table(headers, rows) + footer


def _fmt_parallel_line(est) -> str | None:
    """One-line sharded-build summary (None without a parallel block)."""
    par = (est.build or {}).get("parallel")
    if not par:
        return None
    speedup = f"{par['speedup_vs_single']:.2f}x"
    if par.get("container_limited"):
        # Workers outnumber cores: the processes time-slice one another,
        # so a sub-1x number is the container's budget, not a regression.
        speedup += (
            f"; container-limited, {par['cpu_count']} cpu(s) for "
            f"{par['build_workers']} workers"
        )
    return (
        f"parallel build: {par['shards']} shards on {par['effective_workers']} "
        f"worker(s) ({par['mode']}) -> "
        f"{_fmt_seconds(par['parallel_build_s'])} vs "
        f"{_fmt_seconds(par['single_build_s'])} single-process "
        f"({speedup}), "
        f"nMAE {par['parallel_normalized_mae']:.4f} vs "
        f"{par['single_normalized_mae']:.4f}, "
        f"{par['boundary_merged_leaves']} boundary-merged leaves"
    )


def format_comparison_table(benches: dict[str, dict]) -> str:
    """Side-by-side normalized MAE / median latency across BENCH files.

    ``benches`` maps a label (e.g. the file stem) to a loaded BENCH dict.
    """
    labels = list(benches)
    est_names: list[str] = []
    for payload in benches.values():
        for est in payload.get("estimators", []):
            if est["name"] not in est_names:
                est_names.append(est["name"])

    headers = ["estimator"] + [f"{label} nMAE" for label in labels] + [
        f"{label} med lat" for label in labels
    ]
    rows: list[list[str]] = []
    for name in est_names:
        row = [name]
        by_label = {}
        for label in labels:
            match = next(
                (e for e in benches[label].get("estimators", []) if e["name"] == name),
                None,
            )
            by_label[label] = match
        for label in labels:
            est = by_label[label]
            if est is None or not est.get("supported", False):
                row.append("-")
            else:
                row.append(f"{est['errors']['normalized_mae']:.4f}")
        for label in labels:
            est = by_label[label]
            if est is None or not est.get("supported", False) or not est.get("latency"):
                row.append("-")
            else:
                row.append(_fmt_seconds(est["latency"]["median_s"]))
        rows.append(row)
    return _table(headers, rows)
