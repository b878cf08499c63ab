"""The paper's own invariances, checked byte for byte through ``select`` on
the golden pool.

Topic-wise standardization makes every method scale-free, so a signal or
every embedding times a power of two (exact in floating point) changes no
artifact. ``rank+robust`` sees only the order of a signal, so a strictly
increasing map of one changes none either. And prices are separable by
topic: a zero-budget topic's rows can be dropped without moving any other
row's price.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from market_select.cli import main

from conftest import write_pool_jsonl

GOLDEN_POOL = Path(__file__).resolve().parent / "golden" / "pool.jsonl"
FLAGS = ["--signals", "nll,s1,rarity:k=3,div_cent", "--budget-tokens", "400"]
ARTIFACTS = ("prices.jsonl", "selected.txt", "report.json")
METHODS = ("robust", "zscore", "rank+robust")


def golden_rows() -> list[dict]:
    lines = GOLDEN_POOL.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def select(directory: Path, rows: list[dict], *flags: str) -> dict[str, bytes]:
    """The three artifacts of ``select`` over ``rows``, written to
    ``directory/pool.jsonl`` and named by a relative path, so that every
    report echoes the same pool."""
    directory.mkdir()
    write_pool_jsonl(directory / "pool.jsonl", rows)
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()):
        mp.chdir(directory)
        assert main(["select", "--pool", "pool.jsonl", *FLAGS, *flags, "--out-dir", "run"]) == 0
    return {name: (directory / "run" / name).read_bytes() for name in ARTIFACTS}


def scale_nll(row: dict, f) -> dict:
    return {**row, "signals": {**row["signals"], "nll": f(row["signals"]["nll"])}}


def test_scaling_a_signal_or_the_embeddings_or_ranking_a_signal_changes_no_artifact(tmp_path):
    rows = golden_rows()
    nll = [row["signals"]["nll"] for row in rows]
    assert len({math.exp(v) for v in nll}) == len(set(nll))  # exp merges no two values
    variants = {
        method: [
            ("nll-times-4", [scale_nll(row, lambda v: v * 4) for row in rows]),
            ("embeddings-times-2",
             [{**row, "embedding": [2 * x for x in row["embedding"]]} for row in rows]),
        ]
        for method in METHODS
    }
    variants["rank+robust"].append(("exp-nll", [scale_nll(row, math.exp) for row in rows]))
    for method, changed in variants.items():
        base = select(tmp_path / f"{method}-base", rows, "--standardize", method)
        for name, new_rows in changed:
            got = select(tmp_path / f"{method}-{name}", new_rows, "--standardize", method)
            assert got == base, (method, name)


def test_dropping_a_zero_budget_topic_moves_no_other_price(tmp_path):
    rows = golden_rows()
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"alpha": 0.5, "béta": 0.3, "gamma": 0.2, "solo": 0.0}),
                     encoding="utf-8")
    full = select(tmp_path / "full", rows, "--alpha", str(alpha))
    dropped = select(tmp_path / "dropped", [row for row in rows if row["topic"] != "solo"],
                     "--alpha", str(alpha))
    prices = [json.loads(line) for line in full["prices.jsonl"].decode().splitlines()]
    kept = [line for line, row in zip(full["prices.jsonl"].splitlines(keepends=True), prices)
            if row["topic"] != "solo"]
    assert [row["p"] for row in prices if row["topic"] == "solo"] == [0.0]
    assert b"".join(kept) == dropped["prices.jsonl"]
    report = json.loads(full["report.json"])
    assert report["diagnostics"]["market_cost"] == json.loads(
        dropped["report.json"])["diagnostics"]["market_cost"]
