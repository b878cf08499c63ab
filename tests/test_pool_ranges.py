"""``load_pool`` over several byte ranges: the caller parses the first, forked
workers the others, and one merge settles what spans ranges. The result,
its warning texts and the error must not depend on the number of workers.

The range floor is patched down to a byte and the usable CPUs up to three,
so that even a small file is parsed in up to three ranges."""

from __future__ import annotations

import math
import os
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from market_select import pool as pool_module
from market_select.cli import main
from market_select.errors import MarketSelectError, ValidationError
from market_select.pool import Pool, load_pool

from conftest import write_pool_jsonl
from test_pool import _outcome, assert_same_columns

GOLDEN_POOL = Path(__file__).resolve().parent / "golden" / "pool.jsonl"


@pytest.fixture
def many_ranges(monkeypatch):
    monkeypatch.setattr(pool_module, "RANGE_FLOOR", 1)
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 3)


def _load(path, workers):
    return _outcome(lambda: load_pool(path, workers))


def assert_same_outcome(a, b):
    (pool_a, error_a, warnings_a), (pool_b, error_b, warnings_b) = a, b
    assert warnings_a == warnings_b
    assert (type(error_a), str(error_a)) == (type(error_b), str(error_b))
    if pool_a is not None:
        assert_same_columns(pool_a, pool_b)


FAULTS = ["bad-json", "not-object", "tokens", "signal", "unknown", "duplicate", "ragged",
          "duplicate+ragged", "not-utf8", "id-surrogate", "id-line-break", "topic-surrogate"]


@st.composite
def pool_files(draw):
    """Pool file bytes with up to three faulty rows (a duplicate id may
    repeat an earlier or a later row, in its range or another; one row's
    embedding may change dimension), rows from some point on in another
    dimension, unknown keys, blank lines (one may be long enough to span
    text-mode read chunks) and mixed line ends."""
    n = draw(st.integers(0, 14))
    ids = [f"r{i}" for i in draw(st.permutations(range(n)))]
    faults = draw(st.dictionaries(st.integers(0, max(n - 1, 0)), st.sampled_from(FAULTS),
                                  max_size=3 if n else 0))
    dim = draw(st.integers(1, 3))
    switch = draw(st.one_of(st.none(), st.integers(0, n)))  # first row in dimension dim + 1
    lines = []
    for i, rid in enumerate(ids):
        fault = faults.get(i, "")
        if fault == "bad-json":
            line = '{"id": '
        elif fault == "not-object":
            line = "[1, 2]"
        elif fault == "not-utf8":
            line = '{"id": "\xff"}'
        else:
            if "duplicate" in fault:
                rid = ids[draw(st.integers(0, n - 1))]
            suffix = {"id-surrogate": "\\ud800", "id-line-break": "\\n"}.get(fault, "")
            topic = "t\\udfff" if fault == "topic-surrogate" else "t"
            fields = [f'"id": "{rid}{suffix}"', f'"topic": "{topic}"']
            fields.append(f'"tokens": {0 if fault == "tokens" else draw(st.integers(1, 9))}')
            if "ragged" in fault or draw(st.booleans()):
                size = dim + ("ragged" in fault) + (switch is not None and i >= switch)
                fields.append(f'"embedding": {[0.5] * size}')
            if fault == "signal":
                fields.append('"signals": {"s": "x"}')
            elif draw(st.booleans()):
                fields.append(f'"signals": {{"s": {draw(st.integers(-3, 3))}}}')
            if fault == "unknown" or draw(st.integers(0, 9)) == 0:
                fields.append('"note": 1')
            line = "{" + ", ".join(fields) + "}"
        lines.append(line)
        lines.extend(draw(st.lists(st.sampled_from(["", " ", "\t", " " * 9000]), max_size=2)))
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    return text.encode("utf-8").replace("\xff".encode("utf-8"), b"\xff")


@pytest.mark.usefixtures("cold_cache")
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=pool_files())
def test_any_worker_count_gives_the_same_load(tmp_path, many_ranges, data):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(data)
    one = _load(path, 1)
    for workers in (2, 3):
        assert_same_outcome(one, _load(path, workers))


def test_ranges_end_on_newlines_and_cover_the_file(tmp_path, many_ranges):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(b'{"id": "a"}\r\n\n{"id": "b"}\r{"id": "c"}\n' * 4 + b'{"id": "d"}')
    ranges = pool_module._ranges(path, 3)
    assert len(ranges) == 3
    assert [start for start, _ in ranges[1:]] == [end for _, end in ranges[:-1]]
    assert ranges[0][0] == 0 and ranges[-1][1] == path.stat().st_size
    data = path.read_bytes()
    assert all(data[end - 1:end] == b"\n" for _, end in ranges[:-1])


@pytest.mark.parametrize("cpus, workers, expected", [(1, 8, 1), (2, 8, 2), (3, 8, 3), (3, 2, 2)])
def test_ranges_never_outnumber_the_usable_cpus(tmp_path, monkeypatch, cpus, workers, expected):
    monkeypatch.setattr(pool_module, "RANGE_FLOOR", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    path = tmp_path / "pool.jsonl"
    path.write_text('{"id": "a"}\n' * 40)
    assert len(pool_module._ranges(path, workers)) == expected


def test_a_file_below_the_floor_is_one_range(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    path = tmp_path / "pool.jsonl"
    path.write_bytes(b"\n" * (2 * pool_module.RANGE_FLOOR - 1))
    assert len(pool_module._ranges(path, 3)) == 1
    path.write_bytes(b"\n" * (2 * pool_module.RANGE_FLOOR))
    assert len(pool_module._ranges(path, 3)) == 2


@pytest.mark.usefixtures("cold_cache")
def test_no_worker_outlives_a_load(tmp_path, monkeypatch, many_ranges, forks):
    good = tmp_path / "good.jsonl"
    good.write_bytes(GOLDEN_POOL.read_bytes())
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "topic": "t", "tokens": 0}\n' + GOLDEN_POOL.read_text("utf-8"))
    load_pool(good, 3)
    with pytest.raises(MarketSelectError, match="line 1"):
        load_pool(bad, 3)
    # the caller's own range fails while the workers still run
    parent, real_parse = os.getpid(), pool_module._parse_range

    def parse(path, start, end):
        if start == 0 and os.getpid() == parent:
            raise RuntimeError("interrupted")
        return real_parse(path, start, end)

    monkeypatch.setattr(pool_module, "_parse_range", parse)
    with pytest.raises(RuntimeError, match="interrupted"):
        load_pool(good, 3)
    assert len(forks) == 6
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _killed_worker(monkeypatch):
    parent, real_parse = os.getpid(), pool_module._parse_range

    def parse(path, start, end):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_parse(path, start, end)

    monkeypatch.setattr(pool_module, "_parse_range", parse)


def _failed_fork(monkeypatch):
    def fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.usefixtures("cold_cache")
@pytest.mark.parametrize("failure", [
    pytest.param(_killed_worker, id="worker-dies"),
    pytest.param(_failed_fork, id="fork-fails"),
    pytest.param(lambda mp: mp.delattr(os, "fork", raising=False), id="no-fork"),
])
def test_a_range_without_a_worker_is_parsed_in_process(tmp_path, monkeypatch, many_ranges,
                                                       failure):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(GOLDEN_POOL.read_bytes())
    expected = _load(path, 1)
    failure(monkeypatch)
    got = _load(path, 3)
    assert_same_outcome(expected, got)
    assert got[0].n == 40 and got[2] == ["line 10: ignoring unknown keys ['note']"]


def _select(tmp_path, threads, name):
    out = tmp_path / name
    argv = ["select", "--pool", str(GOLDEN_POOL), "--signals", "nll,s1,rarity:k=3,div_cent",
            "--budget-tokens", "400", "--threads", str(threads), "--out-dir", str(out)]
    assert main(argv) == 0
    return {f: (out / f).read_bytes() for f in ("report.json", "prices.jsonl", "selected.txt")}


@pytest.fixture
def two_ranges(monkeypatch):
    monkeypatch.setattr(pool_module, "RANGE_FLOOR", 1)
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 2)


@pytest.mark.usefixtures("cold_cache")
def test_select_threads_2_parses_in_ranges_with_the_same_bytes(tmp_path, two_ranges, forks):
    one = _select(tmp_path, 1, "one")
    assert forks == []
    two = _select(tmp_path, 2, "two")
    assert len(forks) == 1
    assert two == one
    assert b"line 10: ignoring unknown keys" in two["report.json"]


@pytest.mark.usefixtures("cold_cache")
def test_a_warning_from_starting_a_worker_stays_out_of_the_report(tmp_path, monkeypatch,
                                                                  two_ranges, forks):
    fork = os.fork

    def warning_fork():  # as Python 3.12+ does in a process with threads
        warnings.warn("this process is multi-threaded, fork() may deadlock", DeprecationWarning)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    one = _select(tmp_path, 1, "one")
    two = _select(tmp_path, 2, "two")
    assert len(forks) == 1
    assert two == one


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_file_that_is_not_utf8_is_refused_whatever_else_it_holds(tmp_path, many_ranges,
                                                                    workers):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(b'{"id": "a", "topic": "t", "tokens": 0}\n' + b" " * 20_000 + b"\n"
                     + GOLDEN_POOL.read_bytes() + b'{"id": "\xff"}\n')
    with pytest.raises(MarketSelectError, match="is not valid UTF-8: invalid start byte"):
        load_pool(path, workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_duplicate_id_comes_before_a_ragged_embedding_on_its_row(tmp_path, many_ranges,
                                                                   workers):
    rows = [
        {"id": "a", "topic": "t", "tokens": 1, "embedding": [0.5, 0.5]},
        {"id": "b", "topic": "t", "tokens": 1, "embedding": [0.5, 0.5]},
        {"id": "a", "topic": "t", "tokens": 1, "embedding": [0.5, 0.5, 0.5]},
    ]
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, rows)
    with pytest.raises(ValidationError) as err:
        load_pool(path, workers)
    assert str(err.value) == "line 3: duplicate id 'a' (first seen on line 1)"


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("ids", [
    [f"r{i:02d}" for i in range(12)],  # ascending in every range and across them
    [f"r{i:02d}" for i in (6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5)],  # ascending per half
    [f"r{i:02d}" for i in reversed(range(12))],
])
def test_ids_in_any_order_across_ranges_give_the_id_sorted_pool(tmp_path, many_ranges,
                                                                  workers, ids):
    rows = [{"id": rid, "topic": f"t{i % 2}", "tokens": i + 1, "signals": {"s": i / 3}}
            for i, rid in enumerate(ids)]
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, rows)
    pool = load_pool(path, workers)
    by_id = sorted(rows, key=lambda row: row["id"])
    assert pool.ids == [row["id"] for row in by_id]
    assert pool.token_lengths.tolist() == [row["tokens"] for row in by_id]
    assert pool.signals["s"].tolist() == [row["signals"]["s"] for row in by_id]
    write_pool_jsonl(path, rows + [rows[3]])
    with pytest.raises(ValidationError) as err:
        load_pool(path, workers)
    assert str(err.value) == f"line 13: duplicate id {ids[3]!r} (first seen on line 4)"


NON_FINITE = "embedding has non-finite values"
EMBEDDING_FAULTS = {
    "nan": ([0.5, math.nan], NON_FINITE),
    "infinity": ([math.inf, 0.5], NON_FINITE),
    "huge-int": ([10**400, -10**400], NON_FINITE),  # integers that sum to 0
    "ragged": ([0.5, 0.5, 0.5], "embedding dimension 3 does not match dimension 2 from line 1"),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("at", [4, 5, 9])  # the second, first and second of a block
@pytest.mark.parametrize("fault", list(EMBEDDING_FAULTS))
def test_embeddings_convert_in_blocks_and_a_bad_one_ends_the_load(tmp_path, many_ranges,
                                                                   monkeypatch, workers, at,
                                                                   fault):
    monkeypatch.setattr(pool_module, "EMB_BLOCK", 4)  # two 2-d embeddings per block
    rows = [{"id": f"r{i:02d}", "topic": f"t{i % 2}", "tokens": 1 + i} for i in range(12)]
    for i in (0, 1, 2, 4, 5, 6, 7, 9, 10, 11):
        rows[i]["embedding"] = [i / 4, 1e308 if i % 2 else -1e308]
    path = tmp_path / "pool.jsonl"
    bad, message = EMBEDDING_FAULTS[fault]
    rows[at]["embedding"] = bad
    write_pool_jsonl(path, rows)
    with pytest.raises(ValidationError) as err:
        load_pool(path, workers)
    assert str(err.value) == f"line {at + 1}: {message}"
    with pytest.raises(ValidationError) as err:
        Pool.from_rows(rows)
    assert str(err.value) == f"row {at + 1}: {message}".replace("from line", "from row")

    rows[at]["embedding"] = [1e308, 1e308]  # finite, though its sum is not
    write_pool_jsonl(path, rows)
    expected = np.array([row.get("embedding", [math.nan] * 2) for row in rows])
    for pool in (load_pool(path, workers), Pool.from_rows(rows)):
        assert np.array_equal(pool.embeddings, expected, equal_nan=True)
