"""The artifact writers against their row-by-row references, a zero-budget
topic through the whole run, the atomic writer's cleanup and rename order,
and explain's check that it reproduces the run's files."""

from __future__ import annotations

import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np
import pytest

import market_select
from market_select import pipeline
from market_select import pool as pool_module
from market_select.cli import main
from market_select.market import MarketState
from market_select.pipeline import (
    PAD,
    RunConfig,
    dump_json,
    float_rows,
    format_float,
    format_price_rows,
    format_signal_rows,
    plain_g_text,
    round_floats,
    run_pipeline,
    splice_selected,
    write_atomic,
)
from market_select.pool import Pool
from market_select.signals import SignalTable
from market_select.standardize import StandardizedTable

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


def near_ties() -> np.ndarray:
    """Values whose 10th significant digit is a 5 followed by zeros, exactly
    in binary (x.25 and x.75 of 8-digit x, x.125 of 7-digit x) and within
    1e-7 of such a tie in the 9-digit mantissa, over many exponents."""
    rng = np.random.default_rng(79)
    exact = np.concatenate([rng.integers(10**7, 10**8, 500) + rng.choice([0.25, 0.75], 500),
                            rng.integers(10**6, 10**7, 500) + 0.125])
    near = ((rng.integers(10**8, 10**9, 3_000) + 0.5 + rng.uniform(-1e-7, 1e-7, 3_000))
            * 10.0 ** rng.integers(-30, -1, 3_000))
    ulps = [np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)]
    return np.concatenate([exact, *ulps, near, -near])


def writer_values() -> np.ndarray:
    subnormals = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072e-308])
    return np.concatenate([edge_set(), near_ties(), subnormals])


def test_float_rows_are_format_float_for_every_value():
    values = writer_values()
    text = float_rows(values)
    assert text.shape == (values.size, pipeline.FLOAT_WIDTH)
    for x, row in zip(values.tolist(), text):
        assert row[row != PAD].tobytes().decode("ascii") == format_float(x), x


def reference_rows(ids, topic_names, codes, shares, prices) -> str:
    """prices.jsonl written row by row through format_float."""
    return "".join(
        f'{{"id": {encode_basestring(rid)}, "p": {format_float(p)}, '
        f'"q": {format_float(q)}, "topic": {encode_basestring(topic_names[t])}}}\n'
        for rid, t, q, p in zip(ids, codes.tolist(), shares.tolist(), prices.tolist())
    )


# ids the row checker accepts: no line break, no lone surrogate
ODD_IDS = ['q"uote', "back\\slash", "ctl\x00\x1f\x7f\t\b\f", "line\u2028sep\u2029",
           "ünïcødé €", "😀", "", "selected", '"', "\\", "\x00", "\x01\x1e", "é" * 5_000]
ODD_TOPICS = ["a", 'b"é', "back\\slash", "\x1f", "\u2028", "T" * 3_000]


def odd_pool(n: int) -> Pool:
    """n rows whose ids and topics include every ODD_IDS and ODD_TOPICS text,
    each odd topic on a few rows."""
    ids = [f"e{i:05d}" for i in range(n)]
    for k, odd in enumerate(ODD_IDS):
        ids[k * (n // len(ODD_IDS))] = odd
    topics = [ODD_TOPICS[i % len(ODD_TOPICS)] if i % 97 < 2 else "ab"[i % 2] for i in range(n)]
    return Pool.from_rows({"id": rid, "topic": topic, "tokens": 1}
                          for rid, topic in zip(ids, topics))


def signal_reference(pool: Pool, table: SignalTable, std: StandardizedTable) -> str:
    """The signals dump written row by row: json.dumps of each row's rounded
    floats, with sorted keys."""
    return "".join(json.dumps(round_floats({
        "id": rid, "topic": pool.topic_names[t],
        "signals": {name: col[i] for name, col in table.columns.items()},
        "standardized": {name: col[i] for name, col in std.columns.items()},
    }), sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"
        for i, (rid, t) in enumerate(zip(pool.ids, pool.topic_codes.tolist())))


# signal names with non-ASCII word characters, dots and dashes, out of sorted order
SIGNAL_NAMES = ["zé.b", "a.b", "aΩ_1", "a-b"]


@pytest.mark.parametrize("shape, slice_bytes", [
    pytest.param(shape, slice_bytes, id=str(slice_bytes) if shape == "prices" else
                 f"{shape}-{slice_bytes}")
    for shape in ("prices", "signals") for slice_bytes in (1, 7, 4096)])
def test_price_rows_equal_the_row_by_row_text(monkeypatch, shape, slice_bytes):
    monkeypatch.setattr(pool_module, "SLICE_BYTES", slice_bytes)
    rng = np.random.default_rng(5)
    values = writer_values()
    if slice_bytes < 100:  # a slice of one row each: every 20th value
        values = values[::20]
    pool = odd_pool(values.size)

    def column() -> np.ndarray:
        # runs of certified values, runs with one other value and runs of others
        return np.where(rng.random(values.size) < 0.7, rng.random(values.size) * 1e-3,
                        rng.permutation(values))

    if shape == "signals":
        table = SignalTable({name: column() for name in SIGNAL_NAMES})
        std = StandardizedTable({name: column() for name in SIGNAL_NAMES[::-1]})
        data = b"".join(format_signal_rows(pool, table, std))
        assert data == signal_reference(pool, table, std).encode("utf-8")
        return
    shares = rng.permutation(values)
    prices = column()
    state = MarketState(shares=shares, prices=prices, cost=0.0)
    data = b"".join(format_price_rows(pool, state))
    assert data == reference_rows(pool.ids, pool.topic_names, pool.topic_codes, shares,
                                  prices).encode("utf-8")
    assert [json.loads(line)["p"] for line in data.decode("utf-8").split("\n")[:-1]] == [
        float(format_float(p)) for p in prices.tolist()]


def report_of(ids: list[str]) -> dict:
    return {"config": {"pool": "p.jsonl", "selected": ["nested"], "tau": 0.1 + 0.2},
            "diagnostics": {"z": [1.5, None, True]}, "per_topic": {}, "selected": ids,
            "tokens_used": 7}


@pytest.mark.parametrize("count", [0, 1, len(ODD_IDS)], ids=["empty", "one", "odd"])
def test_the_report_splices_the_selected_ids_with_the_bytes_of_json_dumps(count):
    pool = odd_pool(len(ODD_IDS))
    selected = np.random.default_rng(count).permutation(pool.n)[:count]
    ids = [pool.ids[i] for i in selected.tolist()]
    for obj in (report_of(ids), {"selected": ids}, {**report_of(ids), "zz": "after"}):
        text = dump_json({**obj, "selected": []}).encode("utf-8")
        assert splice_selected(text, pool, selected) == (json.dumps(
            obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def test_id_lines_hold_the_ids_of_the_rows_in_their_order(monkeypatch):
    monkeypatch.setattr(pool_module, "SLICE_BYTES", 64)
    pool = odd_pool(300)
    for rows in (np.arange(pool.n), np.random.default_rng(3).permutation(pool.n)[:101],
                 np.zeros(0, dtype=np.intp)):
        ids = [pool.ids[i] for i in rows.tolist()]
        assert pool.id_lines(rows) == "".join(rid + "\n" for rid in ids).encode("utf-8")


def odd_run(tmp_path: Path, name: str, threads: int = 1) -> tuple[pipeline.PipelineResult, dict]:
    rng = np.random.default_rng(11)
    pool = odd_pool(2_000)
    rows = [{"id": rid, "topic": pool.topic_names[t], "tokens": int(rng.integers(1, 40)),
             "signals": {"nll": float(rng.normal())}}
            for rid, t in zip(pool.ids, pool.topic_codes.tolist())]
    if not (tmp_path / "pool.jsonl").exists():
        write_pool_jsonl(tmp_path / "pool.jsonl", rows[::-1])
    cfg = RunConfig(pool=str(tmp_path / "pool.jsonl"), signals="nll", budget_tokens=20_000)
    result = run_pipeline(cfg, tmp_path / name, threads=threads)
    return result, {f: (tmp_path / name / f).read_bytes()
                    for f in ("report.json", "prices.jsonl", "selected.txt")}


def test_a_run_writes_each_artifact_as_its_reference_on_a_miss_and_a_hit(tmp_path, pool_cache):
    miss, written = odd_run(tmp_path, "miss")
    assert len(list(pool_cache.glob("*.npz"))) == 1
    hit, again = odd_run(tmp_path, "hit", threads=2)
    assert again == written
    assert hit.pool.ids == miss.pool.ids == sorted(miss.pool.ids)
    pool, selection = hit.pool, hit.selection
    ids = [pool.ids[i] for i in selection.selected.tolist()]
    assert 0 < len(ids) < pool.n and set(ODD_IDS) <= set(pool.ids)
    # the in-memory report holds no id list; report.json gets the ids spliced in
    assert "selected" not in hit.report and selection.to_dict(pool)["selected"] == ids
    assert written["selected.txt"] == ("\n".join(ids) + "\n").encode("utf-8")
    # every float rounded but the config echo's
    report = {**round_floats(hit.report), "config": hit.report["config"], "selected": ids}
    assert written["report.json"] == (json.dumps(report, sort_keys=True, indent=2,
                                                 ensure_ascii=False) + "\n").encode()
    assert written["prices.jsonl"] == reference_rows(
        pool.ids, pool.topic_names, pool.topic_codes, hit.state.shares,
        hit.state.prices).encode("utf-8")


def test_a_config_of_numpy_scalars_is_echoed_as_python_numbers(tmp_path):
    shutil.copyfile(GOLDEN / "pool.jsonl", tmp_path / "pool.jsonl")
    cfg = RunConfig(pool=str(tmp_path / "pool.jsonl"), signals="nll,s1",
                    budget_tokens=np.int64(400), seed=np.int64(3), gamma=np.float32(1.5))
    run_pipeline(cfg, tmp_path / "run")
    echo = json.loads((tmp_path / "run" / "report.json").read_bytes())["config"]
    assert (echo["budget_tokens"], echo["seed"], echo["gamma"]) == (400, 3, 1.5)
    assert pipeline.explain(tmp_path / "run", "g005")["id"] == "g005"


def test_a_one_megabyte_id_among_short_ones_writes_in_bounded_memory():
    n = 10_000
    rows = [{"id": f"e{i:05d}", "topic": "t", "tokens": 1} for i in range(n)]
    rows[n // 2]["id"] = "e" + "x" * (1 << 20)
    pool = Pool.from_rows(rows)
    rng = np.random.default_rng(2)
    state = MarketState(shares=rng.normal(size=n), prices=rng.random(n) / n, cost=0.0)
    everything = np.arange(n)
    tracemalloc.start()
    try:
        prices = b"".join(format_price_rows(pool, state))
        selected = pool.id_lines(everything)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 << 20
    assert prices == reference_rows(pool.ids, pool.topic_names, pool.topic_codes,
                                    state.shares, state.prices).encode("utf-8")
    assert selected == ("\n".join(pool.ids) + "\n").encode("utf-8")


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
    rows = [{"id": rid, "topic": "t", "tokens": 2 + i, "signals": {"nll": i / 7}}
            for i, rid in enumerate(ODD_IDS[:6])]
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
        write_atomic([(first, b"new"), (second, b"new")])
    assert first.read_text(encoding="utf-8") == "old"
    assert not second.exists()
    assert list(tmp_path.rglob("*.tmp")) == []


# Runs the CLI with argv[3:], killing itself with SIGKILL at the
# (argv[2] + 1)-th unlink or rename of a file in the directory argv[1]
KILL_AT_STEP = """
import os, pathlib, signal, sys
from market_select.cli import main
run, steps = pathlib.Path(sys.argv[1]), int(sys.argv[2])
def counted(fn):
    def step(*args, **kwargs):
        global steps
        if pathlib.Path(args[-1]).parent == run:  # unlink(path) and replace(tmp, path)
            if steps == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            steps -= 1
        return fn(*args, **kwargs)
    return step
os.replace = counted(os.replace)
pathlib.Path.unlink = counted(pathlib.Path.unlink)
sys.exit(main(sys.argv[3:]))
"""
RUN_FILES = ("report.json", "prices.jsonl", "selected.txt")


@pytest.mark.parametrize("step", [0, 1, 2, 3])
def test_a_select_killed_at_any_rename_leaves_the_old_run_or_no_report(tmp_path, step):
    shutil.copyfile(GOLDEN / "pool.jsonl", tmp_path / "pool.jsonl")
    run = tmp_path / "run"
    argv = ["select", "--pool", str(tmp_path / "pool.jsonl"), "--signals", "nll,s1"]

    def select(out: Path, budget: str) -> dict[str, bytes]:
        with redirect_stdout(io.StringIO()):
            assert main([*argv, "--budget-tokens", budget, "--out-dir", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in RUN_FILES}

    old, new = select(run, "200"), select(tmp_path / "new", "400")
    src = str(Path(market_select.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # step 0 is the old report's removal, steps 1-3 the renames of prices.jsonl,
    # selected.txt and report.json
    proc = subprocess.run([sys.executable, "-c", KILL_AT_STEP, str(run), str(step), *argv,
                           "--budget-tokens", "400", "--out-dir", str(run)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    if step == 0:
        assert {name: (run / name).read_bytes() for name in RUN_FILES} == old
    else:
        assert not (run / "report.json").exists()
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(["explain", "--run-dir", str(run), "g005"]) == 2
        assert err.getvalue().startswith(f"error: no report.json in {run}")
    assert list(run.glob("*.tmp"))  # the kill left its temporaries
    assert select(run, "400") == new
    assert list(run.glob("*.tmp")) == []


def golden_select(tmp_path: Path, out: str, budget: str = "400", *extra: str) -> Path:
    """A select into tmp_path/out of the golden pool, copied to tmp_path,
    over three signals: weights of 1/3, which 9 digits cannot hold, and a
    kNN column, which the cache keeps."""
    pool = tmp_path / "pool.jsonl"
    if not pool.exists():
        shutil.copyfile(GOLDEN / "pool.jsonl", pool)
    with redirect_stdout(io.StringIO()):
        assert main(["select", "--pool", str(pool), "--signals", "nll,s1,rarity:k=3",
                     "--budget-tokens", budget, "--out-dir", str(tmp_path / out), *extra]) == 0
    return tmp_path / out


def explain_g005(run: Path, *extra: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["explain", "--run-dir", str(run), *extra, "g005"])
    return code, out.getvalue(), err.getvalue()


def _edit_price(run: Path) -> str:
    path = run / "prices.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith(b'{"id": "g005", '))
    edited = json.loads(lines[row])
    edited["p"] *= 1.01
    lines[row] = json.dumps(edited).encode("utf-8") + b"\n"
    path.write_bytes(b"".join(lines))
    return "prices.jsonl"


def _tear(run: Path) -> str:
    other = golden_select(run.parent, "other", "200")
    assert (other / "selected.txt").read_bytes() != (run / "selected.txt").read_bytes()
    shutil.copyfile(other / "selected.txt", run / "selected.txt")
    return "selected.txt"


def _edit_pool_signal(run: Path) -> str:
    pool = run.parent / "pool.jsonl"
    lines = pool.read_text(encoding="utf-8").split("\n")
    assert lines[0].startswith('{"id": "g005", ') and '"nll": 0.784894,' in lines[0]
    lines[0] = lines[0].replace('"nll": 0.784894,', '"nll": 1.784894,')
    pool.write_text("\n".join(lines), encoding="utf-8")
    return "prices.jsonl"


def _append_non_utf8(run: Path) -> str:
    with (run / "prices.jsonl").open("ab") as fh:
        fh.write(b"\xff")
    return "prices.jsonl"


def _append_line(run: Path) -> str:
    path = run / "prices.jsonl"
    data = path.read_bytes()
    path.write_bytes(data + data.splitlines(keepends=True)[-1])
    return "prices.jsonl"


def _cut_byte(run: Path) -> str:
    path = run / "prices.jsonl"
    path.write_bytes(path.read_bytes()[:-1])
    return "prices.jsonl"


@pytest.mark.parametrize("edit", [_edit_price, _tear, _edit_pool_signal, _append_non_utf8,
                                  _append_line, _cut_byte],
                         ids=["price", "torn", "pool-signal", "prices-not-utf8",
                              "prices-extra-line", "prices-one-byte-short"])
def test_explain_refuses_a_run_whose_files_it_does_not_reproduce(tmp_path, monkeypatch, edit):
    monkeypatch.setattr(pool_module, "SLICE_BYTES", 256)  # prices.jsonl in several slices
    run = golden_select(tmp_path, "run")
    assert explain_g005(run)[0] == 0
    name = edit(run)
    code, out, err = explain_g005(run)
    assert (code, out) == (1, "")
    assert err == (f"error: {run / name} differs from the run that {run / 'report.json'} "
                   "describes (stale or torn files, or a changed pool); run select again\n")


@pytest.mark.parametrize("name", RUN_FILES)
def test_explain_refuses_a_run_without_one_of_its_files(tmp_path, name):
    run = golden_select(tmp_path, "run")
    (run / name).unlink()
    assert explain_g005(run) == (2, "", f"error: no {name} in {run}\n")


@pytest.mark.parametrize("case", ["moved-pool", "threads-1", "threads-2", "cold-cache",
                                  "warm-cache"])
def test_explain_accepts_the_run_it_reproduces(tmp_path, monkeypatch, pool_cache, case):
    threads = {"threads-1": "1", "threads-2": "2"}.get(case)
    run = golden_select(tmp_path, "run", "400", *(["--threads", threads] if threads else []))
    if threads:  # explain takes the other count, from the variable
        monkeypatch.setenv("MARKET_SELECT_THREADS", "2" if threads == "1" else "1")
    code, want, err = explain_g005(run)
    assert (code, err) == (0, "") and want.startswith("id: g005\n")
    extra: list[str] = []
    if case == "moved-pool":
        moved = tmp_path / "elsewhere" / "moved.jsonl"
        moved.parent.mkdir()
        (tmp_path / "pool.jsonl").rename(moved)
        extra = ["--pool", str(moved)]
    elif case == "cold-cache":
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))
    assert explain_g005(run, *extra) == (0, want, "")
    if case == "cold-cache":  # the pool and its kNN column were computed again
        assert len(list((tmp_path / "cold" / "market-select" / "pools").iterdir())) == 2
    else:  # select's entries served every load
        assert len(list(pool_cache.iterdir())) == 2
