"""Byte-for-byte regression test of the CLI outputs on a fixed pool.

``tests/golden/pool.jsonl`` holds 40 labelled rows with 3-d embeddings and
two ingested signals. It is written out of id order and has a blank line,
an unknown key, an integer signal value, an id with a quote, a non-ASCII
topic, a three-row topic (k clamp), a one-row topic (singleton fallback),
a topic whose ``s1`` is constant, and ties in tokens, signals and
embeddings. Every command in COMMANDS and EXPLAINS runs on it, except
``simulate recovery``, which draws its own rows, and each output file and
each ``explain`` stdout must equal the file of the same name under
``tests/golden/expected/``.

The expected files are a record of the program's output, not a
specification; rewrite them only for a change that is meant to alter the
output: ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import market_select
from market_select.cli import main
from market_select.pool import Pool, write_pool

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
SIGNALS_ALL = ["--pool", "pool.jsonl", "--signals", "nll,s1,rarity:k=3,div_cent"]
SIGNALS_INGESTED = ["--pool", "pool.jsonl", "--signals", "nll,s1"]

# (name, argv, files written); a file is stored as "<name>.<basename>"
COMMANDS: list[tuple[str, list[str], list[str]]] = [
    ("greedy",
     ["select", *SIGNALS_ALL, "--budget-tokens", "400", "--out-dir", "greedy"],
     ["greedy/report.json", "greedy/prices.jsonl", "greedy/selected.txt"]),
    ("coverage",
     ["select", *SIGNALS_ALL, "--budget-tokens", "400", "--coverage", "--out-dir", "coverage"],
     ["coverage/report.json"]),
    ("balanced",
     ["select", *SIGNALS_INGESTED, "--mode", "balanced", "--budget-tokens", "400",
      "--out-dir", "balanced"],
     ["balanced/report.json", "balanced/prices.jsonl", "balanced/selected.txt"]),
    ("capped",
     ["select", "--pool", "pool.jsonl", "--signals", "nll,div:k=2", "--mode", "balanced",
      "--label-floor", "3", "--retention-rate", "0.25", "--budget-tokens", "200",
      "--gamma", "0.8", "--out-dir", "capped"],
     ["capped/report.json", "capped/prices.jsonl", "capped/selected.txt"]),
    ("tight",
     ["select", "--pool", "pool.jsonl", "--signals", "nll,div:k=2", "--mode", "balanced",
      "--label-floor", "4", "--retention-rate", "0.3", "--budget-tokens", "150",
      "--gamma", "0.8", "--out-dir", "tight"],
     ["tight/report.json", "tight/prices.jsonl", "tight/selected.txt"]),
    # weights of 1/3, which report.json echoes exactly and explain reads back
    ("thirds",
     ["select", "--pool", "pool.jsonl", "--signals", "nll,s1,div_cent", "--budget-tokens", "400",
      "--out-dir", "thirds"],
     ["thirds/report.json", "thirds/prices.jsonl", "thirds/selected.txt"]),
    ("price", ["price", *SIGNALS_INGESTED, "--beta", "0.7", "--out", "price.jsonl"],
     ["price.jsonl"]),
    ("signals", ["signals", *SIGNALS_ALL, "--standardize", "rank+robust",
                 "--out", "signals.jsonl"], ["signals.jsonl"]),
    ("tune", ["tune", *SIGNALS_ALL, "--dev-feedback", "dev.jsonl", "--rounds", "5",
              "--out", "weights.json"], ["weights.json"]),
    ("sweep", ["sweep", *SIGNALS_INGESTED, "--budget-tokens", "300",
               "--beta-grid", "0.5,2", "--gamma-grid", "0,1.6", "--out", "sweep.csv"],
     ["sweep.csv"]),
    ("corruption", ["simulate", "corruption", *SIGNALS_INGESTED, "--target-signal", "nll",
                    "--eps-grid", "0,0.5", "--beta-grid", "0.5,2",
                    "--out", "corruption.csv"], ["corruption.csv"]),
    ("recovery", ["simulate", "recovery", "--n", "200", "--sigma-grid", "0,0.5,2",
                  "--k-grid", "1,20,200", "--family", "logistic", "--trials", "5",
                  "--seed", "0", "--out", "recovery.csv"], ["recovery.csv"]),
]

# (run directory, example id): ids selected, passed over and never reached
EXPLAINS: list[tuple[str, str]] = [
    ("greedy", "g029"), ("greedy", 'g0"33'),
    ("balanced", "g014"), ("balanced", "g002"), ("balanced", "g000"),
    ("capped", "g020"), ("capped", "g027"),
    ("tight", "g029"), ("tight", "g022"),
    ("thirds", "g017"),
]


def _explain_name(run: str, rid: str) -> str:
    safe = rid.replace('"', "q")
    return f"explain.{run}.{safe}.txt"


def run_golden(workdir: Path) -> dict[str, bytes]:
    """Run every golden command in ``workdir``; output name -> bytes."""
    for name in ("pool.jsonl", "dev.jsonl"):
        shutil.copyfile(GOLDEN / name, workdir / name)
    outputs: dict[str, bytes] = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, files in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, name
            for rel in files:
                outputs[f"{name}.{Path(rel).name}"] = (workdir / rel).read_bytes()
        for run, rid in EXPLAINS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["explain", "--run-dir", run, rid]) == 0, (run, rid)
            outputs[_explain_name(run, rid)] = buf.getvalue().encode("utf-8")
    finally:
        os.chdir(cwd)
    return outputs


def test_outputs_match_golden_bytes(tmp_path):
    outputs = run_golden(tmp_path)
    assert sorted(outputs) == sorted(p.name for p in EXPECTED.iterdir())
    for name, data in outputs.items():
        assert data == (EXPECTED / name).read_bytes(), name


# NumPy picks a SIMD kernel per CPU at run time; where its baseline is
# X86_V2, NPY_ENABLE_CPU_FEATURES=X86_V2 turns every later target off
X86_V2_BASELINE = "X86_V2" in getattr(np.__config__, "CONFIG", {}).get(
    "SIMD Extensions", {}).get("baseline", [])


@pytest.mark.skipif(not X86_V2_BASELINE, reason="NumPy's baseline is not X86_V2")
def test_outputs_match_golden_bytes_with_only_the_x86_v2_kernels(tmp_path):
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from test_golden import run_golden\n"
        "out = Path(sys.argv[1])\n"
        "(out / 'run').mkdir()\n"
        "for name, data in run_golden(out / 'run').items():\n"
        "    (out / name).write_bytes(data)\n"
    )
    src = str(Path(market_select.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_ENABLE_CPU_FEATURES": "X86_V2"}
    env["PYTHONPATH"] = os.pathsep.join([src, str(Path(__file__).resolve().parent),
                                         os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir() if p.is_file())
    assert written == sorted(p.name for p in EXPECTED.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (EXPECTED / name).read_bytes(), name


# Runs a greedy and a balanced select of the pool argv[1] into argv[2]/greedy
# and argv[2]/balanced, and checks the scan order of its default prices
# against the stable sort, under whatever sort kernel NumPy picked
GENERATED_RUNS = """
import sys
import numpy as np
from market_select.cli import main
from market_select.market import price_pool
from market_select.pipeline import RunConfig, prepare
from market_select.selection import scan_order
pool = ["--pool", sys.argv[1], "--signals", "nll,coarse,tails"]
for mode, budget in (("greedy", "400000"), ("balanced", "150000")):
    out = f"{sys.argv[2]}/{mode}"
    assert main(["select", *pool, "--mode", mode, "--budget-tokens", budget, "--out-dir", out]) == 0
cfg = RunConfig(pool=sys.argv[1], signals="nll,coarse,tails")
pool, _, std = prepare(cfg)
rho, order = scan_order(price_pool(pool, std, cfg.resolved_weights, cfg.market_config), pool, 1.6)
assert np.array_equal(order, np.argsort(-rho, kind="stable"))
"""


@pytest.mark.skipif(not X86_V2_BASELINE, reason="NumPy's baseline is not X86_V2")
@pytest.mark.parametrize("signals", ["continuous", "rounded"])
def test_a_generated_pool_selects_the_same_bytes_with_only_the_x86_v2_kernels(tmp_path, signals):
    n = 20_000
    rng = np.random.default_rng(41)
    tokens = rng.choice([8, 16, 32, 64, 100], n)
    nll, coarse, tails = rng.normal(size=n), rng.integers(0, 4, n), rng.standard_cauchy(n)
    if signals == "rounded":  # thousands of rho ties, which the scan takes by id
        nll, tails = np.round(nll, 1), np.round(tails, 1)
    write_pool(Pool.from_rows(
        {"id": f"x{i:06d}", "topic": f"t{i % 37 % 11}", "tokens": int(tokens[i]),
         "label": f"l{coarse[i] + i % 3}",
         "signals": {"nll": float(nll[i]), "coarse": float(coarse[i]), "tails": float(tails[i])}}
        for i in range(n)), tmp_path / "pool.jsonl")
    src = str(Path(market_select.__file__).resolve().parents[1])
    runs = {}
    for name, features in (("default", None), ("x86_v2", "X86_V2")):
        # each run parses the pool itself, in a cache of its own
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / f"cache-{name}")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if features:
            env["NPY_ENABLE_CPU_FEATURES"] = features
        proc = subprocess.run([sys.executable, "-c", GENERATED_RUNS, str(tmp_path / "pool.jsonl"),
                               str(tmp_path / name)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs[name] = {f"{mode}/{file}": (tmp_path / name / mode / file).read_bytes()
                      for mode in ("greedy", "balanced")
                      for file in ("report.json", "prices.jsonl", "selected.txt")}
    for mode in ("greedy", "balanced"):
        assert 1_000 < len(json.loads(runs["default"][f"{mode}/report.json"])["selected"]) < n
        assert runs["x86_v2"][f"{mode}/prices.jsonl"] == runs["default"][f"{mode}/prices.jsonl"]
    if signals == "rounded" and runs["x86_v2"] != runs["default"]:
        # Raw prices differ by an ulp between the two kernels' exp, which
        # the 9-digit prices.jsonl hides but the scan does not: rows of
        # different topics whose rho ties under one kernel and differs by
        # an ulp under the other swap places (ROADMAP item 11).
        pytest.xfail("the scan order follows ulp-level price differences between SIMD kernels")
    assert runs["x86_v2"] == runs["default"]


def test_warnings_from_outside_the_package_reach_stderr_not_the_report(tmp_path):
    # A stage that raises a ResourceWarning and a DeprecationWarning, the
    # second attributed to the package's own line as numpy's would be:
    # report.json keeps only the pool's unknown-key warning, and both
    # foreign warnings are printed.
    shutil.copyfile(GOLDEN / "pool.jsonl", tmp_path / "pool.jsonl")
    name, argv, files = COMMANDS[0]
    code = (
        "import sys, warnings\n"
        "from market_select import pipeline\n"
        "from market_select.cli import main\n"
        "real = pipeline.standardize_table\n"
        "def noisy(*args, **kwargs):\n"
        "    warnings.warn('unclosed file <stand-in>', ResourceWarning)\n"
        "    warnings.warn('a deprecated call', DeprecationWarning, stacklevel=2)\n"
        "    return real(*args, **kwargs)\n"
        "pipeline.standardize_table = noisy\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(market_select.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for rel in files:
        assert (tmp_path / rel).read_bytes() == (EXPECTED / f"{name}.{Path(rel).name}").read_bytes()
    assert "ResourceWarning: unclosed file <stand-in>" in proc.stderr
    assert "DeprecationWarning: a deprecated call" in proc.stderr
    assert "unknown keys" not in proc.stderr


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        produced = run_golden(Path(tmp))
    if EXPECTED.exists():
        shutil.rmtree(EXPECTED)
    EXPECTED.mkdir()
    for out_name, out_bytes in produced.items():
        (EXPECTED / out_name).write_bytes(out_bytes)
    print(f"wrote {len(produced)} files to {EXPECTED}", file=sys.stderr)
