"""Smoke test of the benchmark at ~1k rows per workload.

Run with ``python3 -m pytest perfbench/smoke_check.py`` from the repository
root. It runs every workload, every output check and the traced runs, and
takes under a minute; the file is not named ``test_*.py`` so the program's
own test suite does not pick it up.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every metric the benchmark defines, with its unit.
METRICS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "fail_ratio": "ratio",
    "cli.self_s": "s", "cli.tune_s": "s", "cli.sweep_s": "s", "cli.corruption_s": "s",
    "cli.explain_s": "s", "pipeline.run_s": "s", "pipeline.write_s": "s",
    "pipeline.artifact_bytes": "bytes", "pipeline.explain_s": "s",
    "pipeline.explain_execute_calls": "count", "pool.load_s": "s", "pool.rows_per_s": "rows/s",
    "pool.rss_growth_mb": "MB", "pool.rss_per_input_byte": "ratio", "signals.build_s": "s",
    "signals.knn_s": "s", "signals.knn_cpu_per_wall": "cores", "signals.knn_pairs": "count",
    "signals.knn_pairs_per_s": "pairs/s", "signals.centroid_s": "s", "signals.ingest_s": "s",
    "standardize.s": "s", "standardize.fallbacks": "count", "market.s": "s",
    "market.topic_prices_calls": "count", "selection.select_s": "s", "selection.calls": "count",
    "selection.score_rho_calls": "count", "selection.admit_ratio": "ratio", "tune.tune_s": "s",
    "tune.reward_s": "s", "tune.reward_calls": "count", "verify.sweep_s": "s",
    "verify.sweep_self_s": "s", "verify.corruption_s": "s", "verify.points": "count",
    "other_s": "s",
}
WORKLOADS = ("select-knn", "select-ingested", "session")


def test_smoke_run_prints_every_metric_with_its_unit() -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    for name, unit in METRICS.items():
        # one table row per workload: name, value, unit, sample count
        row = re.compile(rf"^\s+{re.escape(name)}\s+-?[\d.]+\s+{re.escape(unit)}\s+\d+", re.M)
        assert len(row.findall(proc.stdout)) == len(WORKLOADS), name

    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert declared == {k: v for k, v in METRICS.items() if k != "fail_ratio"}
    for workload in WORKLOADS:
        got = {name: m["unit"] for name, m in summary["metrics"][workload].items()}
        assert got == declared


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
