from __future__ import annotations

import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import market_select
from market_select import cli, pipeline
from market_select import pool as pool_module
from market_select.cli import main
from market_select.errors import ConfigError
from market_select.pipeline import RunConfig, execute, explain, format_float, run_pipeline

from conftest import write_pool_jsonl

GOLDEN_POOL = Path(__file__).resolve().parent / "golden" / "pool.jsonl"
UNKNOWN_KEY_WARNING = "line 10: ignoring unknown keys ['note']"


@pytest.fixture
def pool_file(tmp_path):
    rng = np.random.default_rng(101)
    rows = []
    for i in range(24):
        rows.append(
            {
                "id": f"ex{i:03d}",
                "topic": "alpha" if i % 2 == 0 else "beta",
                "tokens": int(rng.integers(2, 30)),
                "label": f"l{i % 4}",
                "embedding": [float(x) for x in rng.normal(size=4)],
                "signals": {"nll": float(rng.normal())},
            }
        )
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, rows)
    return path


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_select_end_to_end(pool_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll,rarity:k=3,div_cent",
            "--budget-tokens",
            "120",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["tokens_used"] <= 120
    assert report["config"]["budget_tokens"] == 120
    assert report["config"]["gamma"] == 1.6
    assert report["config"]["standardize"] == "robust"
    assert set(report["config"]["weights"]) == {"nll", "rarity", "div_cent"}
    assert report["per_topic"].keys() == {"alpha", "beta"}
    selected = (out / "selected.txt").read_text().splitlines()
    assert selected == report["selected"]

    prices = [json.loads(line) for line in (out / "prices.jsonl").read_text().splitlines()]
    assert len(prices) == 24
    assert set(prices[0]) == {"id", "topic", "q", "p"}
    assert sum(row["p"] for row in prices) == pytest.approx(1.0, abs=1e-6)
    captured = capsys.readouterr()
    assert "report" in captured.out


def test_select_everything_with_big_budget(pool_file, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll",
            "--budget-tokens",
            "100000",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert len(report["selected"]) == 24
    assert report["skipped_for_budget"] == 0


def test_config_file_with_flag_override(pool_file, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "pool": str(pool_file),
                "signals": "nll",
                "budget_tokens": 50,
                "gamma": 1.0,
            }
        )
    )
    out = tmp_path / "run"
    code = main(
        [
            "select",
            "--config",
            str(cfg_path),
            "--gamma",
            "2.0",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["config"]["gamma"] == 2.0  # flag wins
    assert report["config"]["budget_tokens"] == 50  # file survives


def test_missing_pool_is_exit_2(tmp_path, capsys):
    code = main(
        [
            "select",
            "--pool",
            str(tmp_path / "ghost.jsonl"),
            "--signals",
            "nll",
            "--budget-tokens",
            "10",
            "--out-dir",
            str(tmp_path / "run"),
        ]
    )
    assert code == 2
    assert "ghost.jsonl" in capsys.readouterr().err


def test_invariant_violation_is_exit_1(pool_file, tmp_path, capsys):
    # all-zero weights violate the domain invariant
    code = main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll",
            "--weights",
            "nll=0",
            "--budget-tokens",
            "10",
            "--out-dir",
            str(tmp_path / "run"),
        ]
    )
    assert code == 1
    assert "weight" in capsys.readouterr().err


def test_failed_run_leaves_no_partial_outputs(pool_file, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "absent_signal",
            "--budget-tokens",
            "10",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.usefixtures("cold_cache")
def test_threads_do_not_change_bytes(pool_file, tmp_path):
    out1 = tmp_path / "run1"
    out8 = tmp_path / "run8"
    for out, threads in ((out1, "1"), (out8, "8")):
        code = main(
            [
                "select",
                "--pool",
                str(pool_file),
                "--signals",
                "nll,rarity:k=3",
                "--budget-tokens",
                "150",
                "--threads",
                threads,
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
    for name in ("report.json", "prices.jsonl", "selected.txt"):
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes()


@pytest.mark.usefixtures("cold_cache")
def test_repeated_runs_are_byte_identical(pool_file, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        main(
            [
                "select",
                "--pool",
                str(pool_file),
                "--signals",
                "nll,div:k=3",
                "--budget-tokens",
                "200",
                "--out-dir",
                str(out),
            ]
        )
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()


def test_balanced_mode_cli(pool_file, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll",
            "--budget-tokens",
            "300",
            "--mode",
            "balanced",
            "--label-floor",
            "2",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert all(v >= 2 for v in report["per_label"].values())
    assert report["diagnostics"]["resolved_label_floor"] == 2


def test_retention_rate_alias(pool_file, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll",
            "--retention-rate",
            "0.25",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert len(report["selected"]) == 6  # 25% of 24
    assert report["config"]["max_examples"] == 6


def test_preset_diverse(pool_file, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll,div:k=3",
            "--preset",
            "diverse",
            "--budget-tokens",
            "100",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["config"]["gamma"] == 1.2
    assert report["config"]["weights"]["div"] == 2.0


def test_weights_diverse_flag_equals_the_config_value(pool_file, tmp_path):
    argv = ["select", "--pool", str(pool_file), "--signals", "nll,div:k=3",
            "--budget-tokens", "100"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"weights": "diverse"}), encoding="utf-8")
    assert main(argv + ["--weights", "diverse", "--out-dir", str(tmp_path / "flag")]) == 0
    assert main(argv + ["--config", str(cfg_path), "--out-dir", str(tmp_path / "file")]) == 0
    for name in ("report.json", "prices.jsonl", "selected.txt"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()
    assert read_json(tmp_path / "flag" / "report.json")["config"]["weights"]["div"] == 2.0


@pytest.mark.parametrize(
    "content, problem",
    [(b"{'nll': 1}", "is not valid JSON"), (b"\xff{}", "is not valid UTF-8")],
    ids=["json", "utf8"],
)
@pytest.mark.parametrize("flag", ["--weights", "--alpha", "--beta-per-topic", "--config"])
def test_a_settings_file_that_cannot_be_read_is_named(
    pool_file, tmp_path, capsys, flag, content, problem
):
    bad = tmp_path / "map.json"
    bad.write_bytes(content)
    out = tmp_path / "run"
    value = "@" + str(bad) if flag == "--weights" else str(bad)
    code = main(["select", "--pool", str(pool_file), "--signals", "nll", "--budget-tokens", "60",
                 flag, value, "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad} {problem}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json", "pool.jsonl"]


def test_signals_command(pool_file, tmp_path):
    out = tmp_path / "signals.jsonl"
    code = main(
        [
            "signals",
            "--pool",
            str(pool_file),
            "--signals",
            "nll,rarity:k=3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 24
    assert set(rows[0]) == {"id", "topic", "signals", "standardized"}
    assert set(rows[0]["signals"]) == {"nll", "rarity"}
    for row in rows:
        for value in row["standardized"].values():
            assert abs(value) <= 2.5


def test_price_command(pool_file, tmp_path):
    out = tmp_path / "prices.jsonl"
    code = main(
        ["price", "--pool", str(pool_file), "--signals", "nll", "--out", str(out)]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(r["p"] for r in rows) == pytest.approx(1.0, abs=1e-6)


def test_tune_command_roundtrip(pool_file, tmp_path):
    feedback = tmp_path / "dev.jsonl"
    rng = np.random.default_rng(7)
    with feedback.open("w") as fh:
        for i in range(24):
            fh.write(json.dumps({"id": f"ex{i:03d}", "utility": float(rng.normal())}) + "\n")
    weights_out = tmp_path / "weights.json"
    code = main(
        [
            "tune",
            "--pool",
            str(pool_file),
            "--signals",
            "nll,rarity:k=3",
            "--dev-feedback",
            str(feedback),
            "--rounds",
            "5",
            "--out",
            str(weights_out),
        ]
    )
    assert code == 0
    payload = read_json(weights_out)
    assert set(payload["weights"]) == {"nll", "rarity"}
    assert sum(payload["weights"].values()) == pytest.approx(1.0, abs=1e-6)
    assert len(payload["trajectory"]) == 5
    assert payload["seed"] == 0

    # the emitted file feeds straight back into select
    out = tmp_path / "run"
    code = main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll,rarity:k=3",
            "--weights",
            f"@{weights_out}",
            "--budget-tokens",
            "100",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["config"]["weights"] == payload["weights"]


def test_simulate_recovery_command(tmp_path):
    out = tmp_path / "recovery.csv"
    code = main(
        [
            "simulate",
            "recovery",
            "--n",
            "200",
            "--k-grid",
            "10,20",
            "--sigma-grid",
            "0,0.5",
            "--trials",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) == {"sigma", "k", "mean_ratio", "empirical_epsilon"}
    sigma0 = [r for r in rows if float(r["sigma"]) == 0.0]
    assert all(float(r["mean_ratio"]) == 1.0 for r in sigma0)


def test_simulate_corruption_command(pool_file, tmp_path):
    out = tmp_path / "corruption.csv"
    code = main(
        [
            "simulate",
            "corruption",
            "--pool",
            str(pool_file),
            "--signals",
            "nll,rarity:k=3",
            "--target-signal",
            "nll",
            "--eps-grid",
            "0,0.5,1.0",
            "--beta-grid",
            "2.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[0]["price_l1_change"]) == 0.0
    changes = [float(r["price_l1_change"]) for r in rows]
    assert changes == sorted(changes)


def test_sweep_command(pool_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--pool",
            str(pool_file),
            "--signals",
            "nll",
            "--budget-tokens",
            "100",
            "--beta-grid",
            "0.5,2.0",
            "--gamma-grid",
            "0,1.6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    default = [
        r for r in rows if float(r["beta"]) == 2.0 and float(r["gamma"]) == 1.6
    ]
    assert float(default[0]["jaccard_vs_default"]) == 1.0
    json.loads(rows[0]["topic_price_mass"])  # embedded JSON column parses


def test_explain_selected_and_skipped(pool_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll",
            "--budget-tokens",
            "60",
            "--out-dir",
            str(out),
        ]
    )
    report = read_json(out / "report.json")
    chosen = report["selected"][0]
    code = main(["explain", "--run-dir", str(out), chosen])
    assert code == 0
    text = capsys.readouterr().out
    assert "selected (rank 1" in text
    assert "cumulative tokens" in text

    all_ids = {f"ex{i:03d}" for i in range(24)}
    skipped = sorted(all_ids - set(report["selected"]))
    if skipped:
        code = main(["explain", "--run-dir", str(out), skipped[0]])
        assert code == 0
        text = capsys.readouterr().out
        assert "passed over" in text
        assert "remaining budget" in text


def test_explain_unknown_id(pool_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll",
            "--budget-tokens",
            "60",
            "--out-dir",
            str(out),
        ]
    )
    code = main(["explain", "--run-dir", str(out), "nope"])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_explain_requires_artifacts(tmp_path, capsys):
    code = main(["explain", "--run-dir", str(tmp_path), "x"])
    assert code == 2


def test_per_topic_files_and_rank_robust(pool_file, tmp_path):
    beta_file = tmp_path / "beta.json"
    beta_file.write_text(json.dumps({"alpha": 1.0, "beta": 4.0}))
    alpha_file = tmp_path / "alpha.json"
    alpha_file.write_text(json.dumps({"alpha": 0.8, "beta": 0.2}))
    out = tmp_path / "run"
    code = main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll",
            "--standardize",
            "rank+robust",
            "--beta-per-topic",
            str(beta_file),
            "--alpha",
            str(alpha_file),
            "--budget-tokens",
            "200",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["config"]["standardize"] == "rank_then_robust"
    assert report["config"]["beta"] == {"alpha": 1.0, "beta": 4.0}
    assert report["config"]["alpha"] == {"alpha": 0.8, "beta": 0.2}
    prices = [json.loads(line) for line in (out / "prices.jsonl").read_text().splitlines()]
    alpha_mass = sum(r["p"] for r in prices if r["topic"] == "alpha")
    assert alpha_mass == pytest.approx(0.8, abs=1e-6)


def test_alpha_file_not_covering_topics_is_exit_2(pool_file, tmp_path, capsys):
    alpha_file = tmp_path / "alpha.json"
    alpha_file.write_text(json.dumps({"alpha": 1.0}))
    code = main(
        [
            "select",
            "--pool",
            str(pool_file),
            "--signals",
            "nll",
            "--alpha",
            str(alpha_file),
            "--budget-tokens",
            "50",
            "--out-dir",
            str(tmp_path / "run"),
        ]
    )
    assert code == 2
    assert "beta" in capsys.readouterr().err  # the uncovered topic is named


ARTIFACTS = ("report.json", "prices.jsonl", "selected.txt")


def record_workers(monkeypatch) -> list[int]:
    """The worker count of each pool load that pipeline.prepare makes."""
    seen: list[int] = []
    real = pipeline.load_pool

    def load_pool(path, workers=1):
        seen.append(workers)
        return real(path, workers)

    monkeypatch.setattr(pipeline, "load_pool", load_pool)
    return seen


def _select_artifacts(pool_file, out, *flags):
    assert main(["select", "--pool", str(pool_file), "--signals", "rarity:k=3",
                 "--budget-tokens", "100", *flags, "--out-dir", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


@pytest.mark.usefixtures("cold_cache")
def test_env_var_threads(pool_file, tmp_path, monkeypatch):
    workers = record_workers(monkeypatch)
    monkeypatch.setenv("MARKET_SELECT_THREADS", "4")
    four = _select_artifacts(pool_file, tmp_path / "four")
    one = _select_artifacts(pool_file, tmp_path / "one", "--threads", "1")
    assert workers == [4, 1]
    assert four == one


@pytest.mark.usefixtures("cold_cache")
def test_without_flag_or_variable_every_usable_cpu_works(pool_file, tmp_path, monkeypatch,
                                                         forks):
    # a range floor of one byte: every parse worker past the first forks
    monkeypatch.setattr(pool_module, "RANGE_FLOOR", 1)
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 3)
    monkeypatch.delenv("MARKET_SELECT_THREADS", raising=False)
    workers = record_workers(monkeypatch)
    one = _select_artifacts(pool_file, tmp_path / "one", "--threads", "1")
    assert workers == [1] and forks == []
    default = _select_artifacts(pool_file, tmp_path / "default")
    assert workers == [1, 3]
    assert len(forks) == 2
    assert default == one


@pytest.mark.usefixtures("cold_cache")
def test_explain_takes_the_thread_count_of_the_other_commands(pool_file, tmp_path, monkeypatch,
                                                              capsys):
    run = tmp_path / "run"
    _select_artifacts(pool_file, run, "--threads", "1")
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 3)
    monkeypatch.delenv("MARKET_SELECT_THREADS", raising=False)
    workers = record_workers(monkeypatch)
    outputs = []
    for env in (None, "2", "1"):
        if env is not None:
            monkeypatch.setenv("MARKET_SELECT_THREADS", env)
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(run), "ex004"]) == 0
        outputs.append(capsys.readouterr().out)
    assert workers == [3, 2, 1]
    assert outputs[0] == outputs[1] == outputs[2]
    monkeypatch.setenv("MARKET_SELECT_THREADS", "0")
    assert main(["explain", "--run-dir", str(run), "ex004"]) == 2
    assert capsys.readouterr().err == "error: MARKET_SELECT_THREADS must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "env, argv, message",
    [
        ("0", [], "MARKET_SELECT_THREADS must be >= 1, got 0"),
        ("-3", [], "MARKET_SELECT_THREADS must be >= 1, got -3"),
        ("two", [], "MARKET_SELECT_THREADS must be an integer, got 'two'"),
        (None, ["--threads", "0"], "--threads must be >= 1, got 0"),
        ("0", ["--threads", "-1"], "--threads must be >= 1, got -1"),
    ],
    ids=["env-zero", "env-negative", "env-word", "flag-zero", "flag-wins"],
)
def test_a_bad_thread_count_is_exit_2(pool_file, tmp_path, capsys, monkeypatch, env, argv, message):
    if env is not None:
        monkeypatch.setenv("MARKET_SELECT_THREADS", env)
    else:
        monkeypatch.delenv("MARKET_SELECT_THREADS", raising=False)
    out = tmp_path / "run"
    code = main(["select", "--pool", str(pool_file), "--signals", "nll", "--budget-tokens", "60",
                 *argv, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_coverage_that_is_not_finite_is_exit_1(tmp_path, capsys):
    # squares of coordinates near 1e200 overflow: the variance ratio is
    # inf / inf and the covering radius inf
    pool = tmp_path / "pool.jsonl"
    write_pool_jsonl(pool, [
        {"id": f"e{i}", "topic": "t", "tokens": 3,
         "embedding": [1e200 * (i % 3 - 1), 2e200 * (i % 2)], "signals": {"nll": 0.1 * i}}
        for i in range(8)
    ])
    out = tmp_path / "run"
    code = main(["select", "--pool", str(pool), "--signals", "nll", "--budget-tokens", "9",
                 "--coverage", "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: coverage is not finite:") and err.count("\n") == 1
    assert not out.exists()
    assert list(tmp_path.rglob("*.tmp")) == []


def test_shuffled_pool_lines_give_the_same_artifacts(tmp_path, monkeypatch):
    # The pool is sorted by id when it is read, so the order of its lines
    # must not reach an artifact. Unknown keys are dropped: their warnings
    # follow line order. Each run reads "pool.jsonl" in its own working
    # directory, so the echoed pool path is the same.
    lines = (Path(__file__).resolve().parent / "golden" / "pool.jsonl").read_text(encoding="utf-8")
    rows = [json.loads(line) for line in lines.splitlines() if line.strip()]
    for row in rows:
        row.pop("note", None)
    shuffled = [rows[i] for i in np.random.default_rng(11).permutation(len(rows))]
    assert shuffled != rows
    names = ("report.json", "prices.jsonl", "selected.txt")
    outputs = []
    for name, order in (("file", rows), ("shuffled", shuffled)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        write_pool_jsonl("pool.jsonl", order)
        code = main(["select", "--pool", "pool.jsonl", "--signals", "nll,s1,rarity:k=3,div_cent",
                     "--budget-tokens", "400", "--coverage", "--out-dir", "run"])
        assert code == 0
        outputs.append([(Path("run") / n).read_bytes() for n in names])
    assert outputs[0] == outputs[1]


def test_run_config_round_trip_through_echo(pool_file, tmp_path):
    cfg = RunConfig(
        pool=str(pool_file),
        signals=["nll"],
        budget_tokens=100,
    )
    result = run_pipeline(cfg, out_dir=tmp_path / "run")
    echo = read_json(tmp_path / "run" / "report.json")["config"]
    echo.pop("max_examples")
    rebuilt = RunConfig.from_dict(echo)
    second = execute(rebuilt)
    assert np.array_equal(second.selection.selected, result.selection.selected)


def _hex(value):
    """``value`` with each float as its float.hex text, to compare bits."""
    if isinstance(value, dict):
        return {key: _hex(v) for key, v in value.items()}
    return value.hex() if isinstance(value, float) else value


# configs whose floats 9 significant digits cannot hold: weights of 1/3,
# a 15-digit gamma, nine topic budgets of 0.10000000049 and a tenth at the
# rest, and a 17-digit per-topic liquidity
ECHO_CASES = {
    "thirds": ["--signals", "nll,s1,div_cent"],
    "gamma": ["--signals", "nll,s1", "--gamma", "1.23456789012345"],
    "alpha": ["--signals", "nll", "--alpha", "ALPHA"],
    "beta": ["--signals", "nll", "--beta-per-topic", "BETA"],
}


@pytest.mark.parametrize("case", sorted(ECHO_CASES))
def test_report_json_echoes_a_config_that_rebuilds_the_run_bit_for_bit(tmp_path, capsys,
                                                                        monkeypatch, case):
    rng = np.random.default_rng(17)
    topics = [f"t{k}" for k in range(10)]
    write_pool_jsonl(tmp_path / "pool.jsonl", [
        {"id": f"e{i:02d}", "topic": topics[i % 10], "tokens": int(rng.integers(1, 20)),
         "embedding": rng.normal(size=2).tolist(),
         "signals": {"nll": float(rng.normal()), "s1": float(rng.normal())}}
        for i in range(40)])
    alpha = {t: 0.10000000049 for t in topics[:9]}
    alpha["t9"] = 1.0 - sum(alpha.values())
    (tmp_path / "alpha.json").write_text(json.dumps(alpha), encoding="utf-8")
    beta = {t: 1.2345678901234567 + k for k, t in enumerate(topics)}
    (tmp_path / "beta.json").write_text(json.dumps(beta), encoding="utf-8")
    files = {"ALPHA": str(tmp_path / "alpha.json"), "BETA": str(tmp_path / "beta.json")}
    runs = []  # (config, result) of the run

    def run_and_keep(cfg, **kwargs):
        runs.append((cfg, run_pipeline(cfg, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(cli, "run_pipeline", run_and_keep)
    run = tmp_path / "run"
    assert main(["select", "--pool", str(tmp_path / "pool.jsonl"), "--budget-tokens", "150",
                 "--out-dir", str(run), *(files.get(a, a) for a in ECHO_CASES[case])]) == 0
    echo = json.loads((run / "report.json").read_bytes())["config"]
    echo.pop("max_examples")
    rebuilt = RunConfig.from_dict(echo)

    def bits(cfg: RunConfig) -> dict:
        return _hex({"weights": cfg.resolved_weights.w, "gamma": cfg.gamma, "tau": cfg.tau,
                     "beta": cfg.beta, "alpha": cfg.alpha})

    (cfg, result), = runs
    assert bits(rebuilt) == bits(cfg)
    # the weights come back sorted by name, and the shares are summed in
    # the columns' order all the same
    again = execute(rebuilt)
    for got, want in ((again.state.shares, result.state.shares),
                      (again.state.prices, result.state.prices),
                      (again.selection.rho, result.selection.rho)):
        assert got.tobytes() == want.tobytes()
    rid = (run / "selected.txt").read_text(encoding="utf-8").split("\n")[0]
    capsys.readouterr()
    assert main(["explain", "--run-dir", str(run), rid]) == 0
    assert capsys.readouterr().out.startswith(f"id: {rid}\n")


def test_explain_api_consistency(pool_file, tmp_path):
    out = tmp_path / "run"
    result = run_pipeline(
        RunConfig(pool=str(pool_file), signals=["nll"], budget_tokens=80),
        out_dir=out,
    )
    report = read_json(out / "report.json")
    info = explain(out, report["selected"][0])
    assert info["selected"] is True
    assert info["rank"] == 1
    assert "nll" in info["raw_signals"]
    # the run's own values, not a recomputation's within a tolerance
    idx = result.pool.index_of(info["id"])
    assert (info["share"], info["price"], info["score"]) == (
        result.state.shares[idx], result.state.prices[idx], result.selection.rho[idx])


def test_pipeline_matches_manual_module_composition(tmp_path):
    # a toy pool with an ample budget: the full pipeline must agree with
    # composing the stages by hand
    rows = [
        {"id": "a", "topic": "x", "tokens": 4, "embedding": [0.0, 0.0], "signals": {"nll": 1.0}},
        {"id": "b", "topic": "x", "tokens": 9, "embedding": [2.0, 0.0], "signals": {"nll": 2.0}},
        {"id": "c", "topic": "x", "tokens": 2, "embedding": [1.0, 3.0], "signals": {"nll": 5.0}},
        {"id": "d", "topic": "y", "tokens": 7, "embedding": [0.5, 0.5], "signals": {"nll": 3.0}},
        {"id": "e", "topic": "y", "tokens": 5, "embedding": [4.0, 1.0], "signals": {"nll": 0.5}},
        {"id": "f", "topic": "y", "tokens": 3, "embedding": [2.0, 2.0], "signals": {"nll": 1.5}},
    ]
    pool_path = tmp_path / "pool.jsonl"
    write_pool_jsonl(pool_path, rows)
    cfg = RunConfig(
        pool=str(pool_path),
        signals=["nll", "div_cent"],
        budget_tokens=1000,
        gamma=1.6,
    )
    result = execute(cfg)

    from market_select.market import MarketConfig, Weights, price_pool
    from market_select.pool import load_pool
    from market_select.selection import SelectionConfig, greedy_select
    from market_select.signals import build_signal_table
    from market_select.standardize import StandardizeConfig, standardize_table

    pool = load_pool(pool_path)
    table = build_signal_table(pool, ["nll", "div_cent"])
    std = standardize_table(table, pool, StandardizeConfig())
    state = price_pool(pool, std, Weights.equal(["nll", "div_cent"]), MarketConfig())
    manual = greedy_select(state, pool, SelectionConfig(budget_tokens=1000, gamma=1.6))

    assert result.selection.to_dict(result.pool) == manual.to_dict(pool)
    assert len(result.selection.selected) == 6  # everything fits
    assert np.allclose(result.state.prices, state.prices, atol=0)
    assert result.selection.tokens_used == 30


def test_unknown_config_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mystery"):
        RunConfig.from_dict(
            {"pool": "p", "signals": ["nll"], "budget_tokens": 1, "mystery": 2}
        )


def test_simulate_recovery_grid_k_below_default(tmp_path):
    # n below the config's default k; only the grid's k counts
    out = tmp_path / "recovery.csv"
    code = main(
        ["simulate", "recovery", "--n", "20", "--k-grid", "5", "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == [5]


def test_simulate_recovery_names_the_grid_k_out_of_range(tmp_path, capsys):
    out = tmp_path / "recovery.csv"
    code = main(
        ["simulate", "recovery", "--n", "20", "--k-grid", "5,30", "--trials", "2", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "k=30, n=20" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_recovery_refuses_noise_beyond_the_float_range(tmp_path):
    # sigma * N(0, 1) overflows to +-inf; the signal table refuses it
    # without numpy's overflow warning
    argv = ["simulate", "recovery", "--n", "200", "--k-grid", "20", "--trials", "5",
            "--sigma-grid", "1e308", "--out", "recovery.csv"]
    src = str(Path(market_select.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "market_select.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: signal column 's0' has non-finite values\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--gamma", "nan"], None),
        (["--tau", "inf"], None),
        (["--beta", "inf"], None),
        (["--retention-rate", "nan"], None),
        ([], {"gamma": float("nan")}),
        ([], {"alpha": {"alpha": float("nan"), "beta": 0.5}}),
        ([], {"beta": {"alpha": 2.0, "beta": float("inf")}}),
    ],
)
def test_select_rejects_non_finite_config(pool_file, tmp_path, capsys, flags, config):
    out = tmp_path / "run"
    argv = ["select", "--pool", str(pool_file), "--signals", "nll", "--out-dir", str(out)]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")  # writes NaN/Infinity tokens
        argv += ["--config", str(cfg_path)]
    if "--retention-rate" not in flags:
        argv += ["--budget-tokens", "50"]
    code = main(argv + flags)
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    assert list(tmp_path.rglob("*.tmp")) == []


def _python_last_line(code: str, **env_vars: str | None) -> str:
    """Run ``code`` in a fresh interpreter that imports this package and
    return the last line it prints. ``env_vars`` set (a string) or unset
    (None) variables of its environment."""
    src = str(Path(market_select.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_importing_the_cli_does_not_load_scipy():
    code = "import sys, market_select.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python_last_line(code) == "[]"


# The package's public names, written out by the submodule that defines
# each, so a change to the lazy table in __init__ shows here.
EXPORTS = {
    "errors": ["ConfigError", "MarketSelectError", "ValidationError"],
    "market": ["MarketConfig", "MarketState", "Weights", "aggregate_shares", "price_pool"],
    "pipeline": ["RunConfig", "execute", "explain", "run_pipeline"],
    "pool": ["Pool", "load_pool", "topic_sizes", "write_pool"],
    "selection": ["SelectionConfig", "SelectionReport", "balance_score", "balanced_select",
                  "coverage_report", "greedy_select", "score_rho"],
    "signals": ["DiversityParams", "KnnParams", "SignalTable", "build_signal_table",
                "diversity_centroid", "diversity_combined", "rarity_knn"],
    "standardize": ["StandardizeConfig", "StandardizedTable", "standardize_table"],
    "tune": ["DevFeedback", "TuneConfig", "eg_update", "signal_reward", "tune_weights"],
    "verify": ["CorruptionSweepConfig", "RecoverySimConfig", "recovery_grid",
               "simulate_recovery", "sweep_corruption", "sweep_hyperparams"],
}

# Prints what OPENBLAS_THREAD_TIMEOUT reads when numpy is first imported.
SPY_ON_NUMPY = (
    "import os, sys\n"
    "class Spy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy':\n"
    "            print('numpy sees', os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
    "sys.meta_path.insert(0, Spy())\n"
)


@pytest.mark.parametrize("preset, seen", [(None, "4"), ("7", "7")])
def test_the_cli_sets_the_blas_thread_timeout_before_numpy_loads(preset, seen):
    code = SPY_ON_NUMPY + "import market_select.cli"
    assert _python_last_line(code, OPENBLAS_THREAD_TIMEOUT=preset) == f"numpy sees {seen}"


def test_importing_the_package_loads_no_submodule_and_sets_nothing():
    code = ("import os, sys, market_select\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'market_select')),"
            " os.environ.get('OPENBLAS_THREAD_TIMEOUT'))")
    assert _python_last_line(code, OPENBLAS_THREAD_TIMEOUT=None) == "['market_select'] None"
    code = ("import sys\nfrom market_select import signals\n"
            "print(signals is sys.modules['market_select.signals'])")
    assert _python_last_line(code) == "True"


def test_the_package_exports_each_submodules_own_objects():
    assert market_select.__all__ == [name for names in EXPORTS.values() for name in names]
    assert set(market_select.__all__) <= set(dir(market_select))
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"market_select.{module}")
        for name in names:
            assert getattr(market_select, name) is getattr(submodule, name)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        market_select.nope


def test_the_readme_library_imports_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^from market_select import \(.*?^\)$", readme, re.M | re.S).group(0)
    names: dict[str, object] = {}
    exec(block, names)
    assert names["run_pipeline"] is pipeline.run_pipeline


def test_tune_and_rank_standardization_do_not_load_scipy_stats(tmp_path):
    golden = Path(__file__).resolve().parent / "golden"
    signals = ["--pool", str(golden / "pool.jsonl"), "--signals", "nll,s1,rarity:k=3,div_cent"]
    runs = [
        ["tune", *signals, "--dev-feedback", str(golden / "dev.jsonl"), "--rounds", "5",
         "--out", str(tmp_path / "weights.json")],
        ["signals", *signals, "--standardize", "rank+robust",
         "--out", str(tmp_path / "signals.jsonl")],
    ]
    code = (
        "import json, sys, warnings\n"
        "from market_select.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        f"assert [main(argv) for argv in json.loads({json.dumps(runs)!r})] == [0, 0]\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    assert _python_last_line(code) == "[]"


def test_commands_run_with_scipy_blocked(pool_file, tmp_path):
    # Both topics have 12 rows, at most k + 7 for the default k = 10, so
    # every rarity row takes the exhaustive tier of the kNN.
    dev = tmp_path / "dev.jsonl"
    write_pool_jsonl(dev, [{"id": f"ex{i:03d}", "utility": (i * 7 % 5) / 4} for i in range(0, 24, 2)])

    def argvs(out: Path) -> list[list[str]]:
        select = ["select", "--pool", str(pool_file), "--signals", "nll,rarity,div_cent",
                  "--budget-tokens", "200"]
        return [
            [*select, "--out-dir", str(out / "plain")],
            [*select, "--coverage", "--out-dir", str(out / "coverage")],
            ["signals", "--pool", str(pool_file), "--signals", "nll,rarity",
             "--standardize", "rank+robust", "--out", str(out / "signals.jsonl")],
            ["tune", "--pool", str(pool_file), "--signals", "nll,rarity", "--dev-feedback",
             str(dev), "--rounds", "5", "--out", str(out / "weights.json")],
        ]

    code = (
        "import json, sys, warnings\n"
        "sys.modules['scipy'] = None\n"
        "from market_select.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        f"print([main(argv) for argv in json.loads({json.dumps(argvs(tmp_path / 'blocked'))!r})])\n"
    )
    assert _python_last_line(code) == "[0, 0, 0, 0]"
    assert [main(argv) for argv in argvs(tmp_path / "open")] == [0, 0, 0, 0]
    blocked = sorted(p.relative_to(tmp_path / "blocked") for p in (tmp_path / "blocked").rglob("*"))
    assert blocked == sorted(p.relative_to(tmp_path / "open") for p in (tmp_path / "open").rglob("*"))
    assert len(blocked) == 10
    for rel in blocked:
        if (tmp_path / "blocked" / rel).is_file():
            assert (tmp_path / "blocked" / rel).read_bytes() == (tmp_path / "open" / rel).read_bytes()
    coverage = json.loads((tmp_path / "blocked" / "coverage" / "report.json").read_text())
    assert coverage["diagnostics"]["coverage"]["covering_radius"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_format_float_equals_the_round_trip(seed):
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(-330.0, 308.0, 50_000)
    values = np.concatenate([
        magnitudes * rng.choice([-1.0, 1.0], magnitudes.size),
        rng.uniform(1e9, 1e16, 5_000),  # %g and repr choose different exponent forms
        rng.uniform(-1.0, 1.0, 5_000) * 2.0**-1022,  # subnormals
        np.round(rng.uniform(-1e6, 1e6, 5_000)),  # integral values
        [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e9, 999999999.5, 1e16, 1e17, 1e-5, 1e-4,
         123456789.0, 1.7976931348623157e308],
    ]).tolist()
    assert [format_float(x) for x in values] == [repr(float("%.9g" % x)) for x in values]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sweep", "--pool", "POOL", "--signals", "nll", "--budget-tokens", "60",
                      "--gamma-grid", "nan"], id="sweep-gamma-nan"),
        pytest.param(["sweep", "--pool", "POOL", "--signals", "nll", "--budget-tokens", "60",
                      "--gamma-grid", "inf"], id="sweep-gamma-inf"),
        pytest.param(["simulate", "corruption", "--pool", "POOL", "--signals", "nll",
                      "--target-signal", "nll", "--beta-grid", "inf"], id="corruption-beta-inf"),
        pytest.param(["simulate", "corruption", "--pool", "POOL", "--signals", "nll",
                      "--target-signal", "nll", "--tau", "inf"], id="corruption-tau-inf"),
        pytest.param(["simulate", "recovery", "--n", "20", "--k-grid", "5", "--trials", "2",
                      "--sigma-grid", "inf"], id="recovery-sigma-inf"),
        pytest.param(["simulate", "recovery", "--n", "20", "--k-grid", "5", "--trials", "2",
                      "--sigma-grid", "0.5,nan"], id="recovery-sigma-nan"),
        pytest.param(["tune", "--pool", "POOL", "--signals", "nll", "--dev-feedback", "DEV",
                      "--eta", "inf"], id="tune-eta-inf"),
        pytest.param(["price", "--pool", "POOL", "--signals", "nll", "--beta", "inf"],
                     id="price-beta-inf"),
        pytest.param(["price", "--pool", "POOL", "--signals", "nll", "--beta-per-topic",
                      "INF_MAP"], id="price-topic-beta-inf"),
        pytest.param(["price", "--pool", "POOL", "--signals", "nll", "--alpha", "NAN_MAP"],
                     id="price-topic-alpha-nan"),
    ],
)
def test_non_finite_flags_are_exit_2(pool_file, tmp_path, capsys, argv):
    dev = tmp_path / "dev.jsonl"
    dev.write_text("".join(
        json.dumps({"id": f"ex{i:03d}", "utility": float(i % 5)}) + "\n" for i in range(24)
    ))
    subs = {"POOL": str(pool_file), "DEV": str(dev)}
    for name, bad in (("INF_MAP", float("inf")), ("NAN_MAP", float("nan"))):
        path = tmp_path / f"{name.lower()}.json"
        # writes an Infinity or NaN token, which the JSON reader accepts
        path.write_text(json.dumps({"alpha": 0.5, "beta": bad}), encoding="utf-8")
        subs[name] = str(path)
    out = tmp_path / "out"
    code = main([subs.get(a, a) for a in argv] + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err
    assert not out.exists()
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["price", "--signals", "nll"],
        ["signals", "--signals", "nll"],
        ["tune", "--signals", "nll", "--dev-feedback", "DEV"],
        ["sweep", "--signals", "nll", "--budget-tokens", "60"],
        ["simulate", "corruption", "--signals", "nll", "--target-signal", "nll"],
    ],
)
def test_output_path_that_is_a_directory_is_exit_2(pool_file, tmp_path, capsys, argv):
    dev = tmp_path / "dev.jsonl"
    dev.write_text("".join(
        json.dumps({"id": f"ex{i:03d}", "utility": float(i % 5)}) + "\n" for i in range(24)
    ))
    target = tmp_path / "taken"
    target.mkdir()
    argv = [str(dev) if a == "DEV" else a for a in argv]
    code = main(argv + ["--pool", str(pool_file), "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.rglob("*.tmp")) == []
    assert target.is_dir() and not any(target.iterdir())


def test_select_with_an_artifact_path_taken_by_a_directory_writes_nothing(
    pool_file, tmp_path, capsys
):
    out = tmp_path / "run"
    (out / "prices.jsonl").mkdir(parents=True)
    code = main(["select", "--pool", str(pool_file), "--signals", "nll",
                 "--budget-tokens", "60", "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(p.name for p in out.iterdir()) == ["prices.jsonl"]
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize(
    "utility, expected",
    [('"abc"', 2), ('"1.5"', 2), ('"nan"', 2), ("true", 2), ("null", 2), ("[1.0]", 2),
     ("NaN", 1), ("Infinity", 1), ("-Infinity", 1), ("1e999", 1),
     pytest.param("1" + "0" * 400, 1, id="int-beyond-float")],
)
def test_tune_rejects_a_bad_utility(pool_file, tmp_path, capsys, utility, expected):
    dev = tmp_path / "dev.jsonl"
    dev.write_text(
        '{"id": "ex000", "utility": 0.5}\n' + '{"id": "ex001", "utility": %s}\n' % utility
    )
    out = tmp_path / "weights.json"
    code = main(["tune", "--pool", str(pool_file), "--signals", "nll",
                 "--dev-feedback", str(dev), "--out", str(out)])
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith(f"error: dev feedback file {dev} line 2: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, what", [("select", "pool"), ("tune", "dev feedback")], ids=["pool", "dev-feedback"]
)
def test_a_pool_or_dev_feedback_file_that_is_not_utf8_is_exit_2(
    pool_file, tmp_path, capsys, command, what
):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"id": "ex000", "topic": "alpha", "tokens": 3}\n\xff\n')
    out = tmp_path / "out"
    if command == "select":
        argv = ["select", "--pool", str(bad), "--budget-tokens", "60", "--out-dir", str(out)]
    else:
        argv = ["tune", "--pool", str(pool_file), "--dev-feedback", str(bad), "--out", str(out)]
    code = main(argv + ["--signals", "nll"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {what} file {bad} is not valid UTF-8: invalid start byte\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty-file", "blank-lines"])
@pytest.mark.parametrize("argv", [
    ["select", "--budget-tokens", "60", "--out-dir", "OUT"],
    ["signals", "--out", "OUT"],
    ["price", "--out", "OUT"],
    ["tune", "--dev-feedback", "DEV", "--out", "OUT"],
    ["sweep", "--budget-tokens", "60", "--out", "OUT"],
    ["simulate", "corruption", "--target-signal", "nll", "--out", "OUT"],
    ["explain", "--run-dir", "RUN", "ex000"],
], ids=lambda argv: argv[1] if argv[0] == "simulate" else argv[0])
def test_a_pool_without_examples_is_refused_by_every_pool_command(pool_file, tmp_path, capsys,
                                                                   argv, text):
    empty = tmp_path / "empty.jsonl"
    empty.write_text(text, encoding="utf-8")
    run, out = tmp_path / "run", tmp_path / "out"
    assert main(["select", "--pool", str(pool_file), "--signals", "nll", "--budget-tokens", "60",
                 "--out-dir", str(run)]) == 0
    capsys.readouterr()
    subs = {"OUT": str(out), "RUN": str(run), "DEV": str(GOLDEN_POOL.parent / "dev.jsonl")}
    argv = [subs.get(a, a) for a in argv] + ["--pool", str(empty)]
    if argv[0] != "explain":
        argv += ["--signals", "nll"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: pool file {empty} holds no examples\n")
    assert not out.exists()


INGESTED = ["--pool", str(GOLDEN_POOL), "--signals", "nll,s1"]


@pytest.mark.parametrize(
    "argv, beta",
    [
        (["select", *INGESTED, "--beta", "1e-320", "--budget-tokens", "400"], 1e-320),
        (["select", *INGESTED, "--beta", "1e308", "--budget-tokens", "400"], 1e308),
        (["sweep", *INGESTED, "--budget-tokens", "300", "--beta-grid", "1e-320"], 1e-320),
        (["simulate", "corruption", *INGESTED, "--target-signal", "nll",
          "--beta-grid", "1e-320"], 1e-320),
        (["price", *INGESTED, "--beta", "1e-320"], 1e-320),
    ],
    ids=["select-tiny", "select-huge", "sweep", "corruption", "price"],
)
def test_a_liquidity_the_float_range_cannot_price_is_exit_1(tmp_path, capsys, argv, beta):
    out = tmp_path / "out"
    argv = argv + (["--out-dir", str(out)] if argv[0] == "select" else ["--out", str(out)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    # select records the pool's warning in its report; the others print it first
    warning = "" if argv[0] == "select" else re.escape(f"warning: {UNKNOWN_KEY_WARNING}\n")
    assert re.fullmatch(rf"{warning}error: liquidity {re.escape(repr(beta))} cannot price "
                        r"topic '[^']+': its prices or the market cost leave the float range\n",
                        err), err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()
    assert list(tmp_path.rglob("*.tmp")) == []


def test_a_subnormal_scale_prints_nothing_on_stderr_and_writes_finite_values(tmp_path):
    # the IQR is subnormal, so the extreme values' quotients overflow before they clip
    values = [0, 5e-324, 1e-323, 1.5e-323, 2e-323, 3e-323, 1e300, -1e300]
    pool = tmp_path / "pool.jsonl"
    write_pool_jsonl(pool, [{"id": f"e{i}", "topic": "t", "tokens": 3, "signals": {"nll": v}}
                            for i, v in enumerate(values)])
    out = tmp_path / "run"
    src = str(Path(market_select.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "market_select.cli", "select", "--pool", str(pool),
         "--signals", "nll", "--budget-tokens", "20", "--out-dir", str(out)],
        capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")

    def finite(text):
        value = float(text)
        assert math.isfinite(value), text
        return value

    rows = [json.loads(line, parse_float=finite, parse_constant=finite)
            for line in (out / "prices.jsonl").read_text().splitlines()]
    assert sorted(row["q"] for row in rows)[::7] == [-2.5, 2.5]  # clipped to +-tau
    json.loads((out / "report.json").read_text(), parse_float=finite, parse_constant=finite)


@pytest.mark.parametrize(
    "command, field, value, message",
    [
        ("select", "id", "a\ud800", "'id' is not UTF-8 text (a lone surrogate)"),
        ("select", "id", "a\nb", "'id' must not hold '\\n' or '\\r'"),
        ("select", "id", "a\rb", "'id' must not hold '\\n' or '\\r'"),
        ("signals", "topic", "t\udfff", "'topic' is not UTF-8 text (a lone surrogate)"),
        ("select", "label", "l\udc80", "'label' is not UTF-8 text (a lone surrogate)"),
    ],
    ids=["id-surrogate", "id-newline", "id-return", "topic-surrogate", "label-surrogate"],
)
def test_a_pool_text_utf8_cannot_encode_or_an_id_with_a_line_break_is_exit_2(
    pool_file, tmp_path, capsys, command, field, value, message
):
    lines = pool_file.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[4])
    row[field] = value
    lines[4] = json.dumps(row)  # a lone surrogate as a JSON escape
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--pool", str(bad), "--signals", "nll"]
    argv += ["--budget-tokens", "60", "--out-dir", str(out)] if command == "select" else [
        "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: line 5: {message}\n"
    assert not out.exists()
    assert list(tmp_path.rglob("*.tmp")) == []


def test_a_pool_path_utf8_cannot_encode_is_exit_2_and_writes_nothing(pool_file, tmp_path, capsys):
    # a file name byte that is not UTF-8 decodes to a lone surrogate, which
    # the report echoes as the config's pool
    odd = Path(os.fsdecode(bytes(tmp_path) + b"/pool-\xff.jsonl"))
    odd.write_bytes(pool_file.read_bytes())
    out = tmp_path / "out"
    code = main(["select", "--pool", str(odd), "--signals", "nll", "--budget-tokens", "60",
                 "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out / 'report.json'}: its text is not valid UTF-8 "
        "(surrogates not allowed)\n"
    )
    assert not out.exists()
    assert list(tmp_path.rglob("*.tmp")) == []


def test_invalid_json_in_dev_feedback_or_prices_names_the_file_and_line(
    pool_file, tmp_path, capsys
):
    dev = tmp_path / "dev.jsonl"
    dev.write_text('{"id": "ex000", "utility": 0.5}\n\n{"id": \n', encoding="utf-8")
    out = tmp_path / "weights.json"
    assert main(["tune", "--pool", str(pool_file), "--signals", "nll",
                 "--dev-feedback", str(dev), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: dev feedback file {dev} line 3: invalid JSON (Expecting value)\n"
    )
    run = tmp_path / "run"
    assert main(["select", "--pool", str(pool_file), "--signals", "nll",
                 "--budget-tokens", "60", "--out-dir", str(run)]) == 0
    rid = read_json(run / "report.json")["selected"][0]
    prices = run / "prices.jsonl"
    prices.write_text("\n{oops}\n" + prices.read_text(encoding="utf-8"), encoding="utf-8")
    capsys.readouterr()
    # explain does not parse prices.jsonl: it compares the bytes it would write
    assert main(["explain", "--run-dir", str(run), rid]) == 1
    assert capsys.readouterr().err == (
        f"error: {prices} differs from the run that {run / 'report.json'} describes "
        "(stale or torn files, or a changed pool); run select again\n"
    )


@pytest.mark.parametrize(
    "config",
    [
        {"budget_tokens": "50"},
        {"budget_tokens": True},
        {"budget_tokens": 50, "label_floor": [1]},
        {"budget_tokens": 50, "label_floor": 2.5},
        {"budget_tokens": 50, "seed": "x"},
    ],
)
def test_select_rejects_non_integer_counts(pool_file, tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    code = main(["select", "--pool", str(pool_file), "--signals", "nll",
                 "--config", str(cfg_path), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "integer" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("signals", 5),
        ("signals", [1]),
        ("pool", 5),
        ("alpha", 5),
        ("weights", 5),
        ("beta", [1]),
        ("tau", True),
        ("retention_rate", True),
    ],
)
def test_select_rejects_wrong_typed_config(pool_file, tmp_path, capsys, key, value):
    # pool and signals come from the file here, since flags override it
    config = {"pool": str(pool_file), "signals": "nll", "budget_tokens": 50, key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    code = main(["select", "--config", str(cfg_path), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def test_select_without_a_budget_is_exit_2(pool_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"gamma": 1.0}), encoding="utf-8")
    out = tmp_path / "run"
    code = main(["select", "--pool", str(pool_file), "--signals", "nll",
                 "--config", str(cfg_path), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget_tokens or retention_rate" in err
    assert not out.exists()


def test_run_config_resolves_its_weights_at_construction(tmp_path):
    ghost = str(tmp_path / "ghost.jsonl")
    assert RunConfig(pool=ghost, signals="nll,s1").resolved_weights.w == {"nll": 0.5, "s1": 0.5}
    cfg = RunConfig(pool=ghost, signals="nll,div", weights="diverse")
    assert cfg.resolved_weights.w == {"nll": 1.0, "div": 2.0}
    # the resolved weights are no field: the echo and a stored config keep the setting
    assert asdict(cfg)["weights"] == "diverse" and "resolved_weights" not in asdict(cfg)
    assert replace(cfg, weights={"div": 3.0}).resolved_weights.w == {"div": 3.0}


def test_run_config_without_a_budget_fails_in_execute_before_the_pool_is_read(tmp_path):
    cfg = RunConfig(pool=str(tmp_path / "ghost.jsonl"), signals=["nll"])
    with pytest.raises(ConfigError, match="budget_tokens or retention_rate"):
        execute(cfg)


@pytest.mark.parametrize(
    "argv, config, code, message",
    [
        (["--beta", "0"], None, 2, "beta must be positive, got 0.0"),
        (["--gamma", "-1"], None, 2, "gamma must be >= 0, got -1.0"),
        (["--tau", "0"], None, 2, "tau must be positive, got 0.0"),
        (["--budget-tokens", "0"], None, 2, "budget_tokens must be >= 1, got 0"),
        (["--mode", "balanced", "--label-floor", "-3"], None, 2,
         "label_floor must be >= 0, got -3"),
        ([], {"mode": "bogus"}, 2, "mode must be one of ('greedy', 'balanced'), got 'bogus'"),
        (["--signals", "rarity:k=0"], None, 2, "k must be >= 1, got 0"),
        (["--signals", "div:alpha_cent=-1"], None, 2,
         "diversity combination weights must be nonnegative"),
        (["--alpha", "NEG_ALPHA"], None, 2, "alpha for topic 'alpha' must be >= 0, got -0.5"),
        (["--weights", "diverse"], None, 2, "weights preset 'diverse' requires the 'div' signal"),
        (["--preset", "diverse"], None, 2, "weights preset 'diverse' requires the 'div' signal"),
        ([], {"weights": "diverse"}, 2, "weights preset 'diverse' requires the 'div' signal"),
        (["--weights", "nll=nan"], None, 1, "weight for 'nll' must be finite and >= 0, got nan"),
        (["--weights", "nll=-1"], None, 1, "weight for 'nll' must be finite and >= 0, got -1.0"),
        (["--weights", "nll=0"], None, 1, "at least one weight must be positive"),
        (["--weights", "foo=1"], None, 1,
         "weight refers to unknown signal column 'foo'; available: ['nll']"),
        (["--weights", "FOO_WEIGHTS"], None, 1,
         "weight refers to unknown signal column 'foo'; available: ['nll']"),
    ],
    ids=["beta", "gamma", "tau", "budget", "label-floor", "mode", "rarity-k", "div-alpha",
         "alpha-file", "weights-diverse", "preset-diverse", "config-diverse", "weight-nan",
         "weight-negative", "weights-all-zero", "weight-unknown", "weights-file-unknown"],
)
def test_select_rejects_a_bad_setting_before_reading_the_pool(
    tmp_path, capsys, argv, config, code, message
):
    neg_alpha = tmp_path / "alpha.json"
    neg_alpha.write_text(json.dumps({"alpha": -0.5, "beta": 1.5}), encoding="utf-8")
    foo_weights = tmp_path / "weights.json"
    foo_weights.write_text(json.dumps({"weights": {"nll": 1, "foo": 2}}), encoding="utf-8")
    subs = {"NEG_ALPHA": str(neg_alpha), "FOO_WEIGHTS": f"@{foo_weights}"}
    argv = [subs.get(a, a) for a in argv]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(cfg_path)]
    out = tmp_path / "run"
    # the flags given later win, so a spec in argv replaces the default signals
    assert main(["select", "--pool", str(tmp_path / "ghost.jsonl"), "--signals", "nll",
                 "--budget-tokens", "60", *argv, "--out-dir", str(out)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, argv, code, message",
    [
        ("price", ["--beta", "-1"], 2, "beta must be positive, got -1.0"),
        ("tune", ["--dev-feedback", "dev.jsonl", "--eta", "0"], 2,
         "eta must be positive, got 0.0"),
        ("sweep", ["--budget-tokens", "60", "--gamma-grid", "abc"], 2,
         "--gamma-grid expects comma-separated numbers, got 'abc'"),
        ("sweep", ["--budget-tokens", "60", "--gamma-grid", "1.6,-1"], 2,
         "gamma must be >= 0, got -1.0"),
        ("simulate corruption", ["--target-signal", "nll", "--eps-grid", "2"], 2,
         "epsilon must be in [0, 1], got 2.0"),
        ("simulate corruption", ["--target-signal", "nll", "--beta-grid", "2,0"], 2,
         "beta must be positive, got 0.0"),
        ("price", ["--weights", "nll=-2"], 1, "weight for 'nll' must be finite and >= 0, got -2.0"),
        ("sweep", ["--budget-tokens", "60", "--weights", "foo=1"], 1,
         "weight refers to unknown signal column 'foo'; available: ['nll']"),
        ("simulate corruption", ["--target-signal", "foo"], 1,
         "target signal 'foo' not in table; available: ['nll']"),
        ("simulate corruption",
         ["--signals", "nll,s1", "--weights", "nll=1", "--target-signal", "s1"], 1,
         "target signal 's1' carries no weight"),
    ],
    ids=["price", "tune", "sweep", "sweep-gamma-value", "corruption", "corruption-beta-value",
         "price-weight", "sweep-weight", "corruption-target", "corruption-target-unweighted"],
)
def test_pool_commands_reject_a_bad_setting_before_reading_the_pool(
    tmp_path, capsys, command, argv, code, message
):
    out = tmp_path / "out"
    # the flags given later win, so a spec in argv replaces the default signals
    assert main([*command.split(), "--pool", str(tmp_path / "ghost.jsonl"), "--signals", "nll",
                 "--out", str(out), *argv]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_token_sums_past_int64_are_exact(tmp_path, capsys):
    pool = tmp_path / "pool.jsonl"
    write_pool_jsonl(pool, [
        {"id": "a", "topic": "t", "tokens": 2**62, "signals": {"nll": 1.0}},
        {"id": "b", "topic": "t", "tokens": 2**62, "signals": {"nll": 0.5}},
    ])
    run = tmp_path / "run"
    assert main(["select", "--pool", str(pool), "--signals", "nll", "--retention-rate", "1",
                 "--out-dir", str(run)]) == 0
    report = read_json(run / "report.json")
    assert report["config"]["budget_tokens"] == 2**63
    assert report["tokens_used"] == 2**63
    assert report["per_topic"]["t"]["tokens"] == 2**63
    assert sorted(report["selected"]) == ["a", "b"]
    second = report["selected"][1]
    capsys.readouterr()
    assert main(["explain", "--run-dir", str(run), second]) == 0
    assert f"cumulative tokens after admission: {2**63}" in capsys.readouterr().out
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--pool", str(pool), "--signals", "nll", "--budget-tokens",
                 str(2**63), "--out", str(sweep)]) == 0
    with sweep.open(newline="") as fh:
        assert [row["tokens_used"] for row in csv.DictReader(fh)] == [str(2**63)]


# a prices.jsonl that is not UTF-8 is refused as one that differs (test_pipeline)
@pytest.mark.parametrize("name, what", [("report.json", "report")])
def test_explain_on_a_run_file_that_is_not_utf8_is_exit_2(pool_file, tmp_path, capsys, name,
                                                           what):
    run = tmp_path / "run"
    assert main(["select", "--pool", str(pool_file), "--signals", "nll",
                 "--budget-tokens", "60", "--out-dir", str(run)]) == 0
    rid = read_json(run / "report.json")["selected"][0]
    with (run / name).open("ab") as fh:
        fh.write(b"\xff")
    capsys.readouterr()
    assert main(["explain", "--run-dir", str(run), rid]) == 2
    assert capsys.readouterr().err == (
        f"error: {what} file {run / name} is not valid UTF-8: invalid start byte\n"
    )


def _corrupt_report(run: Path, text: str) -> str:
    (run / "report.json").write_text(text, encoding="utf-8")
    return "report.json"


def _corrupt_prices(run: Path, rid: str, p: object) -> str:
    path = run / "prices.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    lines = [json.dumps(row if row["id"] != rid else {**row, "p": p}) for row in rows]
    if p is None:
        lines.insert(0, "[1]")
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return "prices.jsonl"


def _corrupt_config(run: Path, **changes: object) -> str:
    report = read_json(run / "report.json")
    report["config"].update(changes)
    (run / "report.json").write_text(json.dumps(report), encoding="utf-8")
    return "report.json"


# a malformed report is a configuration error (2); a prices.jsonl that is
# not the run's, malformed or not, is refused as one that differs (1)
@pytest.mark.parametrize(
    "corrupt, code",
    [
        pytest.param(lambda run, rid: _corrupt_report(run, '{"x": 1}'), 2, id="report-no-config"),
        pytest.param(lambda run, rid: _corrupt_report(run, "[1]"), 2, id="report-not-object"),
        pytest.param(lambda run, rid: _corrupt_config(run, mystery=1), 2,
                     id="config-unknown-key"),
        pytest.param(lambda run, rid: _corrupt_config(run, tau="x"), 2, id="config-tau-string"),
        pytest.param(lambda run, rid: _corrupt_prices(run, rid, None), 1,
                     id="prices-line-not-object"),
        pytest.param(lambda run, rid: _corrupt_prices(run, rid, "0.5"), 1, id="prices-p-string"),
    ],
)
def test_explain_rejects_a_malformed_run(pool_file, tmp_path, capsys, corrupt, code):
    run = tmp_path / "run"
    assert main(["select", "--pool", str(pool_file), "--signals", "nll",
                 "--budget-tokens", "60", "--out-dir", str(run)]) == 0
    rid = read_json(run / "report.json")["selected"][0]
    name = corrupt(run, rid)
    capsys.readouterr()
    assert main(["explain", "--run-dir", str(run), rid]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and name in err and err.count("\n") == 1


# every command that reads a pool, its outputs under OUT
POOL_COMMANDS = [
    pytest.param(["signals", "--out", "OUT"], id="signals"),
    pytest.param(["price", "--out", "OUT"], id="price"),
    pytest.param(["tune", "--dev-feedback", "DEV", "--rounds", "2", "--out", "OUT"], id="tune"),
    pytest.param(["sweep", "--budget-tokens", "300", "--out", "OUT"], id="sweep"),
    pytest.param(["simulate", "corruption", "--target-signal", "nll", "--out", "OUT"],
                 id="corruption"),
    pytest.param(["select", "--budget-tokens", "400", "--out-dir", "OUT"], id="select"),
]
# the golden pool's warning texts over nll,s1,rarity:k=3
RARITY_WARNINGS = [UNKNOWN_KEY_WARNING,
                   "topic 'gamma' has 3 examples; clamping k from 3 to 2",
                   "topic 'solo' has a single example; rarity set to 0"]


def pool_command(argv: list[str], out: Path, pool: Path, signals: str) -> list[str]:
    subs = {"OUT": str(out), "DEV": str(GOLDEN_POOL.parent / "dev.jsonl")}
    return [subs.get(a, a) for a in argv] + ["--pool", str(pool), "--signals", signals]


def run_cli_process(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    """The CLI in a child process, under the test's PYTHONWARNINGS or none."""
    src = str(Path(market_select.__file__).resolve().parents[1])
    child_env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    child_env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-m", "market_select.cli", *argv],
                          capture_output=True, text=True, env={**child_env, **env})


@pytest.mark.parametrize("argv", POOL_COMMANDS)
def test_pool_warnings_are_printed_once_or_recorded_by_select(tmp_path, argv):
    proc = run_cli_process(pool_command(argv, tmp_path / "out", GOLDEN_POOL, "nll,s1"))
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "select":
        assert proc.stderr == ""
        report = read_json(tmp_path / "out" / "report.json")
        assert report["diagnostics"]["warnings"] == [UNKNOWN_KEY_WARNING]
    else:
        assert proc.stderr == f"warning: {UNKNOWN_KEY_WARNING}\n"


@pytest.mark.parametrize("argv", POOL_COMMANDS)
def test_warnings_turned_into_errors_change_no_exit_code_line_or_byte(tmp_path, argv):
    # the package's warning texts are no Python warnings, so PYTHONWARNINGS=error
    # moves no exit code, stderr line or byte; the second run is a cache hit
    runs = {}
    for setting in ("", "error"):
        out = tmp_path / (setting or "default")
        proc = run_cli_process(pool_command(argv, out / "out", GOLDEN_POOL, "nll,s1,rarity:k=3"),
                               **({"PYTHONWARNINGS": setting} if setting else {}))
        assert proc.returncode == 0, proc.stderr
        if argv[0] == "select":
            assert proc.stderr == ""
            report = read_json(out / "out" / "report.json")
            assert report["diagnostics"]["warnings"] == RARITY_WARNINGS
        else:
            assert proc.stderr == "".join(f"warning: {text}\n" for text in RARITY_WARNINGS)
        files = {f.relative_to(out): f.read_bytes() for f in out.rglob("*") if f.is_file()}
        runs[setting] = (proc.stdout.replace(str(out), "DIR"), files)
    assert runs["error"] == runs[""]


@pytest.mark.parametrize("argv", POOL_COMMANDS)
def test_a_refused_pool_prints_its_error_alone(tmp_path, argv):
    # line 10 holds an unknown key; the error comes on a later line
    pool = tmp_path / "pool.jsonl"
    data = GOLDEN_POOL.read_bytes()
    pool.write_bytes(data + b'{"id": "late", "topic": "t", "tokens": 0}\n')
    line = data.count(b"\n") + 1
    proc = run_cli_process(pool_command(argv, tmp_path / "out", pool, "nll,s1"))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: line {line}: 'tokens' must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", POOL_COMMANDS[:-1])
def test_the_warning_lines_are_the_same_cold_warm_and_at_any_thread_count(
        tmp_path, tmp_path_factory, capsys, monkeypatch, argv):
    monkeypatch.setattr(pool_module, "RANGE_FLOOR", 1)  # two ranges at --threads 2
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 2)
    expected = "".join(f"warning: {text}\n" for text in RARITY_WARNINGS)
    for order in (("1", "2"), ("2", "1")):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        for threads in order:  # cold, then warm
            command = pool_command(argv, tmp_path / "out", GOLDEN_POOL, "nll,s1,rarity:k=3")
            assert main([*command, "--threads", threads]) == 0
            assert capsys.readouterr().err == expected, (order, threads)
