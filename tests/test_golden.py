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
import os
import shutil
import subprocess
import sys
from pathlib import Path

import market_select
from market_select.cli import main

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
