"""The kNN rarity column in the pool cache: a pool loaded from a file keeps
its rarity column in a one-array entry named by the pool's bytes, the
source of ``signals.py``, the numpy version and k, so a later command on
the same bytes skips the kNN and writes the same bytes; a damaged entry,
a pool built in code and a file changed while it loaded all compute the
column as without the cache."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from market_select import cache as cache_module
from market_select import pool as pool_module
from market_select import signals
from market_select.cli import main
from market_select.pool import Pool, load_pool
from market_select.signals import ExactNeighborIndex, KnnParams, rarity_knn

from conftest import write_pool_jsonl
from test_pool_cache import ARTIFACTS, cli_env

K = 5


def column_entries(cache: Path) -> list[Path]:
    return sorted(cache.glob(f"*{cache_module.COLUMN}")) if cache.is_dir() else []


@pytest.fixture
def pool_file(tmp_path) -> Path:
    """600 rows in a topic wide enough for several work items, a topic of
    3 rows (k is clamped) and one of a single row (rarity 0)."""
    rng = np.random.default_rng(24)
    rows = [{"id": f"r{i:03d}", "topic": "wide" if i < 600 else "small" if i < 603 else "solo",
             "tokens": int(rng.integers(1, 40)), "embedding": rng.normal(size=6).tolist(),
             "signals": {"nll": float(rng.normal())}} for i in range(604)]
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, rows)
    return path


@pytest.fixture
def knn_items(monkeypatch) -> list[int]:
    """The row count of every kNN work item run, and a -1 for every index
    built, while the test runs."""
    seen: list[int] = []
    real_item = ExactNeighborIndex.chunk_mean_knn_distance
    real_init = ExactNeighborIndex.__init__

    def item(self, start, stop, k):
        seen.append(stop - start)
        return real_item(self, start, stop, k)

    def init(self, *args, **kwargs):
        seen.append(-1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ExactNeighborIndex, "chunk_mean_knn_distance", item)
    monkeypatch.setattr(ExactNeighborIndex, "__init__", init)
    return seen


def select(pool_file: Path, out: Path, threads: int) -> dict[str, bytes]:
    argv = ["select", "--pool", str(pool_file), "--signals", f"nll,rarity:k={K},div_cent",
            "--budget-tokens", "3000", "--threads", str(threads), "--out-dir", str(out)]
    assert main(argv) == 0
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def rarity(path: Path, k: int = K) -> np.ndarray:
    return rarity_knn(load_pool(path), KnnParams(k=k))


@pytest.mark.parametrize("miss_threads, hit_threads", [(2, 1), (1, 2)])
def test_a_second_select_runs_no_knn_and_writes_the_same_bytes(
        tmp_path, monkeypatch, pool_cache, pool_file, knn_items, miss_threads, hit_threads):
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 2)
    first = select(pool_file, tmp_path / "miss", miss_threads)
    assert knn_items.count(-1) == 2 and sum(n for n in knn_items if n > 0) == 603
    assert len(column_entries(pool_cache)) == 1
    knn_items.clear()
    second = select(pool_file, tmp_path / "hit", hit_threads)
    assert knn_items == []
    assert second == first
    assert len(column_entries(pool_cache)) == 1


def test_a_hit_gives_the_same_clamp_and_singleton_warnings(tmp_path, pool_cache, pool_file,
                                                           knn_items):
    first = select(pool_file, tmp_path / "miss", 1)
    knn_items.clear()
    second = select(pool_file, tmp_path / "hit", 1)
    assert knn_items == []
    texts = [report.split(b'"warnings": ', 1)[1].split(b"]", 1)[0]
             for report in (first["report.json"], second["report.json"])]
    assert texts[0] == texts[1]
    assert b"topic 'small' has 3 examples; clamping k from 5 to 2" in texts[0]
    assert b"topic 'solo' has a single example; rarity set to 0" in texts[0]


def test_a_hit_prints_and_writes_what_a_miss_does(tmp_path, pool_cache, pool_file):
    runs = []
    for name in ("miss", "hit"):
        proc = subprocess.run(
            [sys.executable, "-m", "market_select.cli", "signals", "--pool", str(pool_file),
             "--signals", f"nll,rarity:k={K}", "--threads", "2",
             "--out", str(tmp_path / "signals.jsonl")],
            capture_output=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, proc.stderr, (tmp_path / "signals.jsonl").read_bytes()))
        assert len(column_entries(pool_cache)) == 1
    assert runs[1] == runs[0]
    assert b"clamping k from 5 to 2" in runs[0][1]


def test_explain_after_select_runs_no_knn_and_prints_the_same_bytes(
        tmp_path, monkeypatch, capsys, pool_cache, pool_file, knn_items):
    run = tmp_path / "run"
    select(pool_file, run, 1)
    knn_items.clear()
    capsys.readouterr()
    assert main(["explain", "--run-dir", str(run), "r007"]) == 0
    hit = capsys.readouterr()
    assert knn_items == []
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
    assert main(["explain", "--run-dir", str(run), "r007"]) == 0
    miss = capsys.readouterr()
    assert knn_items.count(-1) == 2
    assert (hit.out, hit.err) == (miss.out, miss.err)


def _truncated(entry: Path) -> None:
    entry.write_bytes(entry.read_bytes()[:-17])


def _column(entry: Path) -> tuple[str, np.ndarray]:
    """The name and the array of an entry's one member."""
    with np.load(entry) as npz:
        (name,) = npz.files
        return name, npz[name]


def _resaved(change):
    def damage(entry: Path) -> None:
        name, column = _column(entry)
        with open(entry, "wb") as fh:
            np.savez(fh, **{name: change(column)})
    return damage


def _set_row(value):
    def change(column):
        column[3] = value
        return column
    return change


def _huge_shape(entry: Path) -> None:
    name, column = _column(entry)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (1 << 50,)})
    with zipfile.ZipFile(entry, "w") as archive:  # a valid archive: only the header lies
        archive.writestr(f"{name}.npy", header.getvalue() + column.tobytes())


def _flipped_data_byte(entry: Path) -> None:
    """One byte flipped inside row 123's float; every value stays finite and >= 0."""
    _, column = _column(entry)
    blob = entry.read_bytes()
    at = blob.index(column.tobytes()) + 123 * 8
    value = bytearray(blob[at:at + 8])
    value[5] ^= 0x01
    flipped = np.frombuffer(bytes(value), dtype=np.float64)[0]
    assert np.isfinite(flipped) and flipped >= 0 and flipped != column[123]
    entry.write_bytes(blob[:at] + bytes(value) + blob[at + 8:])


DAMAGE = {
    "truncated": _truncated,
    "huge-shape": _huge_shape,
    "empty": lambda entry: entry.write_bytes(b""),
    "garbage": lambda entry: entry.write_bytes(b"not a column\n" * 40),
    "wrong-dtype": _resaved(lambda column: column.astype(np.float32)),
    "wrong-length": _resaved(lambda column: column[:-1]),
    "two-dimensional": _resaved(lambda column: column.reshape(4, -1)),
    "nan": _resaved(_set_row(np.nan)),
    "negative": _resaved(_set_row(-1.0)),
    "infinite": _resaved(_set_row(np.inf)),
    "flipped-data-byte": _flipped_data_byte,
}


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_a_damaged_entry_misses_and_is_rewritten(pool_cache, pool_file, knn_items, damage):
    want = rarity(pool_file)
    (entry,) = column_entries(pool_cache)
    good = entry.read_bytes()
    DAMAGE[damage](entry)
    assert entry.read_bytes() != good
    knn_items.clear()
    got = rarity(pool_file)
    assert knn_items.count(-1) == 2
    assert np.array_equal(got, want)
    assert column_entries(pool_cache) == [entry] and entry.read_bytes() == good
    knn_items.clear()
    assert np.array_equal(rarity(pool_file), want) and knn_items == []


def _other_bytes(path: Path) -> None:
    data = path.read_bytes()
    at = data.index(b'"tokens": ') + len(b'"tokens": ')
    path.write_bytes(data[:at] + (b"9" if data[at:at + 1] != b"9" else b"8") + data[at + 1:])


def _other_source(monkeypatch, tmp_path: Path) -> None:
    source = tmp_path / "signals.py"
    source.write_bytes(Path(signals.__file__).read_bytes() + b"\n# another kNN\n")
    monkeypatch.setattr(signals, "__file__", str(source))


@pytest.mark.parametrize("change", ["k", "pool-bytes", "signals-source", "numpy-version"])
def test_each_input_of_the_column_changes_its_key(tmp_path, monkeypatch, pool_cache, pool_file,
                                                  knn_items, change):
    rarity(pool_file)
    k = K
    if change == "k":
        k = K + 1
    elif change == "pool-bytes":
        _other_bytes(pool_file)
    elif change == "signals-source":
        _other_source(monkeypatch, tmp_path)
    else:
        monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
    knn_items.clear()
    rarity(pool_file, k)
    assert knn_items.count(-1) == 2
    assert len(column_entries(pool_cache)) == 2


def test_a_pool_built_in_code_never_reads_or_writes_an_entry(monkeypatch, pool_cache, pool_file,
                                                             knn_items):
    rarity(pool_file)  # an entry for the same rows, loaded from the file
    calls = []
    monkeypatch.setattr(cache_module, "read", lambda *a: calls.append(a))
    monkeypatch.setattr(cache_module, "write", lambda *a: calls.append(a))
    rows = [json.loads(line) for line in pool_file.read_text().splitlines()]
    pool = Pool.from_rows(rows)
    assert pool.key is None
    knn_items.clear()
    rarity_knn(pool, KnnParams(k=K))
    assert knn_items.count(-1) == 2
    assert calls == []
    assert len(column_entries(pool_cache)) == 1


def test_a_file_changed_while_it_loads_never_reads_or_writes_an_entry(monkeypatch, pool_cache,
                                                                      pool_file, knn_items):
    real_parse = pool_module._parse_range

    def parse(p, start, end):
        columns = real_parse(p, start, end)
        stat = os.stat(p)
        os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        return columns

    monkeypatch.setattr(pool_module, "_parse_range", parse)
    reads = []
    real_read = cache_module.read

    def read(entry, decode):  # counts the column lookups, not the pool's own
        if entry.suffix == cache_module.COLUMN:
            reads.append(entry)
        return real_read(entry, decode)

    monkeypatch.setattr(cache_module, "read", read)
    changed = rarity(pool_file)
    assert knn_items.count(-1) == 2 and reads == []
    assert column_entries(pool_cache) == []
    monkeypatch.setattr(pool_module, "_parse_range", real_parse)
    assert np.array_equal(rarity(pool_file), changed)
    assert len(reads) == 1 and len(column_entries(pool_cache)) == 1


def test_a_pool_of_singletons_stores_nothing(tmp_path, pool_cache, knn_items):
    path = tmp_path / "solo.jsonl"
    write_pool_jsonl(path, [{"id": f"s{i}", "topic": f"t{i}", "tokens": 1,
                             "embedding": [float(i), 1.0]} for i in range(3)])
    assert np.array_equal(rarity(path), np.zeros(3))
    assert knn_items == [] and column_entries(pool_cache) == []


def test_the_cold_cache_fixture_covers_the_rarity_entries(cold_cache, pool_file, knn_items):
    want = rarity(pool_file)
    knn_items.clear()
    assert np.array_equal(rarity(pool_file), want)
    assert knn_items.count(-1) == 2


def test_an_unreadable_kNN_source_computes_and_stores_nothing(tmp_path, monkeypatch, pool_cache,
                                                              pool_file, knn_items):
    want = rarity(pool_file)
    (entry,) = column_entries(pool_cache)
    entry.unlink()
    monkeypatch.setattr(signals, "__file__", str(tmp_path / "missing.py"))
    knn_items.clear()
    assert np.array_equal(rarity(pool_file), want)
    assert knn_items.count(-1) == 2 and column_entries(pool_cache) == []


def test_a_column_larger_than_the_cap_is_not_written(monkeypatch, pool_cache, pool_file):
    monkeypatch.setattr(cache_module, "CACHE_CAP", 604 * 8 - 1)
    rarity(pool_file)
    assert column_entries(pool_cache) == [] and list(pool_cache.glob("*.tmp")) == []


def test_a_flipped_data_byte_gives_the_artifacts_of_a_cold_run(tmp_path, pool_cache, pool_file,
                                                               knn_items):
    cold = select(pool_file, tmp_path / "cold", 1)
    (entry,) = column_entries(pool_cache)
    good = entry.read_bytes()
    _flipped_data_byte(entry)
    knn_items.clear()
    assert select(pool_file, tmp_path / "damaged", 1) == cold
    assert knn_items.count(-1) == 2
    assert column_entries(pool_cache) == [entry] and entry.read_bytes() == good
