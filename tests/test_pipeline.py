"""The price writer's template, the report's spliced id list, a zero-budget
topic through the whole run, the atomic writer's cleanup and explain's
stale-dump warning."""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stdout
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np
import pytest

from market_select import pipeline
from market_select.cli import main
from market_select.market import MarketState
from market_select.pipeline import (
    RunConfig,
    format_float,
    format_price_rows,
    dump_json,
    plain_g_text,
    round_floats,
    run_pipeline,
    write_atomic,
)
from market_select.pool import Pool

from conftest import write_pool_jsonl

GOLDEN = Path(__file__).resolve().parent / "golden"

EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 2.0, 7.0, -12.0, 0.5, 0.99, 0.9999999995, 0.99999999949, 1.0000000004,
    3.0000000001, 12345678.5, 99999999.99, 1e8, -1e8, 123456789.0, 999999999.5, 1e9, 1e9 + 0.5,
    1e16, 1e16 + 2, 1e17, 1e300, 1.7976931348623157e308, 1e-5, 1.5e-5, 9.999999995e-5, 1e-4,
    1e-99, 1.0000001e-99, 1.1e-99, 9.99999999e-100, 9.999999995e-100, 1e-100, 2.2250738585072014e-308,
    1e-310, 5e-324, -5e-324, 123456.9999999996, 4.99999999e-7,
]


def edge_set() -> np.ndarray:
    rng = np.random.default_rng(77)
    magnitudes = 10.0 ** rng.uniform(-320.0, 300.0, 20_000)
    near_integers = rng.integers(-1000, 1000, 2_000) + rng.uniform(-1e-7, 1e-7, 2_000)
    values = [EDGE_VALUES, magnitudes * rng.choice([-1.0, 1.0], magnitudes.size), near_integers]
    for edge in (1e-99, 1e8, 1e9, 1e16):  # both sides of each boundary, a few ulps apart
        values.append(edge * (1.0 + np.arange(-8, 9) * 2.0**-52))
    return np.concatenate(values)


def test_plain_g_text_flags_every_value_whose_g_text_is_not_format_float():
    values = edge_set()
    plain = plain_g_text(values)
    for x, ok in zip(values.tolist(), plain.tolist()):
        if ok:
            assert "%.9g" % x == format_float(x), x
    # prices and shares away from integers, as a run has them, are not flagged
    rng = np.random.default_rng(78)
    typical = np.concatenate([rng.uniform(1e-9, 0.98, 5_000), rng.uniform(-4.0, 4.0, 5_000)])
    assert plain_g_text(typical[np.abs(typical - np.rint(typical)) > 1e-6]).all()


def reference_rows(ids, topic_names, codes, shares, prices) -> str:
    """prices.jsonl written row by row through format_float."""
    return "".join(
        f'{{"id": {encode_basestring(rid)}, "p": {format_float(p)}, '
        f'"q": {format_float(q)}, "topic": {encode_basestring(topic_names[t])}}}\n'
        for rid, t, q, p in zip(ids, codes.tolist(), shares.tolist(), prices.tolist())
    )


@pytest.mark.parametrize("slice_rows", [1, 7, 4096])
def test_price_rows_equal_the_row_by_row_text(monkeypatch, slice_rows):
    monkeypatch.setattr(pipeline, "PRICE_SLICE", slice_rows)
    rng = np.random.default_rng(5)
    values = edge_set()
    n = values.size
    ids = [f'e{i:05d}"\\é\u2028' if i % 97 == 0 else f"e{i:05d}" for i in range(n)]
    pool = Pool.from_rows({"id": rid, "topic": ["a", 'b"é'][i % 2], "tokens": 1}
                          for i, rid in enumerate(ids))
    shares = rng.permutation(values)
    # plain slices, slices with one flagged value and slices of flagged values
    prices = np.where(rng.random(n) < 0.7, rng.random(n) * 1e-3, values)
    state = MarketState(shares=shares, prices=prices, cost=0.0)
    text = format_price_rows(pool, state)
    assert text == reference_rows(pool.ids, pool.topic_names, pool.topic_codes, shares, prices)
    assert [json.loads(line)["p"] for line in text.split("\n")[:-1]] == [
        float(format_float(p)) for p in prices.tolist()]


ODD_IDS = ['q"uote', "back\\slash", "ctl\x00\x1f\x7f\n\r\t\b\f", "line\u2028sep\u2029",
           "ünïcødé €", "😀", "", "selected"]


@pytest.mark.parametrize("ids", [[], ["a"], ODD_IDS], ids=["empty", "one", "odd"])
def test_dump_json_splices_the_selected_ids_with_the_bytes_of_json_dumps(ids):
    report = {"config": {"pool": "p.jsonl", "selected": ["nested"], "tau": 0.1 + 0.2},
              "diagnostics": {"z": [1.5, None, True]}, "per_topic": {}, "selected": ids,
              "tokens_used": 7}
    for obj in (report, {"selected": ids}, {**report, "zz": "after"}):
        assert dump_json(obj) == json.dumps(
            round_floats(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def run_golden_select(tmp_path: Path, budget: int, alpha: dict[str, float]) -> Path:
    shutil.copyfile(GOLDEN / "pool.jsonl", tmp_path / "pool.jsonl")
    (tmp_path / "alpha.json").write_text(json.dumps(alpha), encoding="utf-8")
    cfg = RunConfig(pool=str(tmp_path / "pool.jsonl"), signals="nll,s1",
                    alpha=str(tmp_path / "alpha.json"), budget_tokens=budget)
    run_pipeline(cfg, tmp_path / "run")
    return tmp_path / "run"


def test_a_zero_budget_topic_fills_leftover_budget_last(tmp_path):
    alpha = {"alpha": 0.5, "béta": 0.4, "gamma": 0.1, "solo": 0.0}
    run = run_golden_select(tmp_path, 100_000, alpha)
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    assert report["per_topic"]["solo"] == {"count": 1, "price_mass": 0.0, "tokens": 44}
    # its example scores 0, so it comes after every priced example
    assert (run / "selected.txt").read_text(encoding="utf-8").splitlines()[-1] == "g039"
    assert len(report["selected"]) == 40
    rows = (run / "prices.jsonl").read_text(encoding="utf-8").splitlines()
    assert '{"id": "g039", "p": 0.0, "q": 0.0, "topic": "solo"}' in rows
    # the cost of a zero-budget topic is 0: the total is that of the others
    priced = RunConfig(pool=str(tmp_path / "pool.jsonl"), signals="nll,s1",
                       alpha=dict(alpha, solo=1e-300, gamma=0.1 - 1e-300), budget_tokens=1)
    assert report["diagnostics"]["market_cost"] == pytest.approx(
        pipeline.execute(priced).report["diagnostics"]["market_cost"], rel=1e-9)

    # a budget the priced examples use up leaves it out
    tight = run_golden_select(tmp_path, 400, alpha)
    assert "g039" not in (tight / "selected.txt").read_text(encoding="utf-8").split()


@pytest.mark.parametrize("budget", [1, 9, 100])
def test_selected_txt_holds_the_report_ids_one_per_line(tmp_path, budget):
    # the row checker refuses an id with a line break, so those two go
    ids = [rid.replace("\n", "").replace("\r", "") for rid in ODD_IDS[:6]]
    rows = [{"id": rid, "topic": "t", "tokens": 2 + i, "signals": {"nll": i / 7}}
            for i, rid in enumerate(ids)]
    write_pool_jsonl(tmp_path / "pool.jsonl", rows)
    cfg = RunConfig(pool=str(tmp_path / "pool.jsonl"), signals="nll", budget_tokens=budget)
    run_pipeline(cfg, tmp_path / "run")
    ids = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))["selected"]
    assert bool(ids) == (budget > 1)  # no example fits in one token
    assert (tmp_path / "run" / "selected.txt").read_bytes() == "".join(
        rid + "\n" for rid in ids).encode("utf-8")


def test_a_failed_write_removes_every_temporary_and_keeps_every_target(tmp_path, monkeypatch):
    first, second = tmp_path / "a.txt", tmp_path / "sub" / "b.txt"
    first.write_text("old", encoding="utf-8")
    real_write_bytes = Path.write_bytes

    def write_bytes(self, data):
        if self.name == "b.txt.tmp":
            real_write_bytes(self, data[:2])  # a partial temporary
            raise OSError(28, "No space left on device")
        return real_write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", write_bytes)
    with pytest.raises(OSError, match="No space left"):
        write_atomic([(first, "new"), (second, "new")])
    assert first.read_text(encoding="utf-8") == "old"
    assert not second.exists()
    assert list(tmp_path.rglob("*.tmp")) == []


def test_explain_warns_when_the_stored_prices_are_stale(tmp_path):
    shutil.copyfile(GOLDEN / "pool.jsonl", tmp_path / "pool.jsonl")
    run = tmp_path / "run"
    argv = ["select", "--pool", str(tmp_path / "pool.jsonl"), "--signals", "nll,s1",
            "--budget-tokens", "400", "--out-dir", str(run)]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    warning = "warning: stored price dump disagrees with recomputation; artifacts may be stale"

    def explain_out() -> list[str]:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["explain", "--run-dir", str(run), "g005"]) == 0
        return out.getvalue().splitlines()

    assert warning not in explain_out()
    prices = run / "prices.jsonl"
    rows = [json.loads(line) for line in prices.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        if row["id"] == "g005":
            row["p"] *= 1.01
    prices.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    lines = explain_out()
    assert lines[-1] == warning
