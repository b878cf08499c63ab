"""The pool cache behind ``load_pool``: a later load of the same bytes by the
same checker rebuilds the pool from a cached ``.npz`` entry, with the same
columns, the same warnings and the same artifacts as a parse, and every
way the cache can fail (a damaged entry, an unusable directory, a file
changed mid-load, the size cap) gives the parse's result."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import market_select
from market_select import cache as cache_module
from market_select import pipeline
from market_select import pool as pool_module
from market_select.cli import main
from market_select.pool import fork_map, load_pool

from conftest import write_pool_jsonl
from test_pool import assert_same_columns

GOLDEN_POOL = Path(__file__).resolve().parent / "golden" / "pool.jsonl"
ARTIFACTS = ("report.json", "prices.jsonl", "selected.txt")


def entries(cache: Path) -> list[Path]:
    return sorted(cache.glob("*.npz")) if cache.is_dir() else []


@pytest.fixture
def no_parse(monkeypatch):
    """Makes any parse of a pool range fail: what loads now came from the cache."""
    def parse(path, start, end):
        raise AssertionError("the pool was parsed")

    def arm():
        monkeypatch.setattr(pool_module, "_parse_range", parse)

    return arm


def load(path, workers=1):
    """The pool and its warning texts."""
    pool = load_pool(path, workers)
    return pool, pool.warnings


def cli_env() -> dict[str, str]:
    """The environment of a CLI subprocess that imports this tree's package."""
    src = str(Path(market_select.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _select(out: Path, threads: int = 2, pool: Path = GOLDEN_POOL) -> dict[str, bytes]:
    argv = ["select", "--pool", str(pool), "--signals", "nll,s1,rarity:k=3,div_cent",
            "--budget-tokens", "400", "--threads", str(threads), "--out-dir", str(out)]
    assert main(argv) == 0
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def test_a_second_select_reads_the_cache_and_writes_the_same_bytes(tmp_path, monkeypatch,
                                                                   pool_cache, forks, no_parse):
    # two ranges, so that a parse of the golden pool would fork a worker
    monkeypatch.setattr(pool_module, "RANGE_FLOOR", 1)
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 2)
    first = _select(tmp_path / "first")
    assert len(forks) == 1 and len(entries(pool_cache)) == 1
    no_parse()
    second = _select(tmp_path / "second")
    assert len(forks) == 1
    assert second == first
    assert b"line 10: ignoring unknown keys ['note']" in second["report.json"]


def test_a_hit_gives_the_warning_texts_of_the_parse(tmp_path, pool_cache, no_parse):
    parsed, parse_warnings = load(GOLDEN_POOL)
    no_parse()
    cached, hit_warnings = load(GOLDEN_POOL)
    assert_same_columns(cached, parsed)
    assert hit_warnings == parse_warnings == ["line 10: ignoring unknown keys ['note']"]


def test_a_hit_prints_the_same_warning_on_stderr(tmp_path, pool_cache):
    runs = []
    for name in ("miss", "hit"):
        proc = subprocess.run(
            [sys.executable, "-m", "market_select.cli", "sweep", "--pool", str(GOLDEN_POOL),
             "--signals", "nll,s1", "--budget-tokens", "400",
             "--out", str(tmp_path / "sweep.csv")],
            capture_output=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, proc.stderr, (tmp_path / "sweep.csv").read_bytes()))
        assert len(entries(pool_cache)) == 1
    assert runs[1] == runs[0]
    assert runs[0][1] == b"warning: line 10: ignoring unknown keys ['note']\n"


def test_a_pool_one_byte_apart_misses(tmp_path, pool_cache):
    path = tmp_path / "pool.jsonl"
    data = GOLDEN_POOL.read_bytes()
    path.write_bytes(data)
    before, _ = load(path)
    at = data.index(b'"tokens": ') + len(b'"tokens": ')
    path.write_bytes(data[:at] + (b"9" if data[at:at + 1] != b"9" else b"8") + data[at + 1:])
    after, _ = load(path)
    assert len(entries(pool_cache)) == 2
    assert not np.array_equal(after.token_lengths, before.token_lengths)
    path.write_bytes(data)
    assert_same_columns(load(path)[0], before)


def _wrong_dtype(entry: Path) -> None:
    with np.load(entry) as npz:
        arrays = dict(npz)
    arrays["topic_codes"] = arrays["topic_codes"].astype(np.int32)
    with open(entry, "wb") as fh:
        np.savez(fh, **arrays)


def _one_id_short(entry: Path) -> None:
    with np.load(entry) as npz:
        arrays = dict(npz)
    blob = arrays["ids"].tobytes()
    arrays["ids"] = np.frombuffer(blob[:blob.rindex(b"\n")], dtype=np.uint8)
    with open(entry, "wb") as fh:
        np.savez(fh, **arrays)


def _ids_not_utf8(entry: Path) -> None:
    with np.load(entry) as npz:
        arrays = dict(npz)
    arrays["ids"] = arrays["ids"].copy()
    arrays["ids"][0] = 0xFF
    with open(entry, "wb") as fh:
        np.savez(fh, **arrays)


def _topic_code_out_of_range(entry: Path) -> None:
    with np.load(entry) as npz:
        arrays = dict(npz)
    arrays["topic_codes"][0] = len(json.loads(arrays["header"].tobytes())["topics"])
    with open(entry, "wb") as fh:
        np.savez(fh, **arrays)


DAMAGE = {
    "garbage": lambda entry: entry.write_bytes(b"not a cache entry\n" * 50),
    "empty": lambda entry: entry.write_bytes(b""),
    "truncated-start": lambda entry: entry.write_bytes(entry.read_bytes()[:100]),
    "truncated-end": lambda entry: entry.write_bytes(entry.read_bytes()[:-10]),
    "flipped-byte": lambda entry: entry.write_bytes(
        (lambda b: b[:2000] + bytes([b[2000] ^ 0xFF]) + b[2001:])(entry.read_bytes())),
    "wrong-dtype": _wrong_dtype,
    "one-id-short": _one_id_short,
    "ids-not-utf8": _ids_not_utf8,
    "topic-code-out-of-range": _topic_code_out_of_range,
}


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_a_damaged_entry_misses_and_is_rewritten(tmp_path, pool_cache, damage):
    parsed, parse_warnings = load(GOLDEN_POOL)
    (entry,) = entries(pool_cache)
    good = entry.read_bytes()
    DAMAGE[damage](entry)
    assert entry.read_bytes() != good
    reparsed, warnings_again = load(GOLDEN_POOL)
    assert_same_columns(reparsed, parsed)
    assert warnings_again == parse_warnings
    assert entries(pool_cache) == [entry] and entry.read_bytes() == good


def test_a_damaged_entry_gives_no_traceback_to_the_cli(tmp_path, pool_cache):
    first = _select(tmp_path / "first", threads=1)
    (entry,) = entries(pool_cache)
    entry.write_bytes(entry.read_bytes()[:-10])
    out = tmp_path / "second"
    proc = subprocess.run(
        [sys.executable, "-m", "market_select.cli", "select", "--pool", str(GOLDEN_POOL),
         "--signals", "nll,s1,rarity:k=3,div_cent", "--budget-tokens", "400", "--threads", "1",
         "--out-dir", str(out)],
        capture_output=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    assert {name: (out / name).read_bytes() for name in ARTIFACTS} == first


def test_an_entry_whose_header_lacks_a_field_is_a_miss_for_the_cli(tmp_path, pool_cache):
    first = _select(tmp_path / "first", threads=1)
    (entry,) = entries(pool_cache)
    good = entry.read_bytes()
    with np.load(entry) as npz:
        arrays = dict(npz)
    header = json.loads(arrays["header"].tobytes())
    del header["warnings"]
    arrays["header"] = np.frombuffer(json.dumps(header).encode("ascii"), dtype=np.uint8)
    with open(entry, "wb") as fh:  # a well-formed archive, every CRC32 valid
        np.savez(fh, **arrays)
    out = tmp_path / "second"
    proc = subprocess.run(
        [sys.executable, "-m", "market_select.cli", "select", "--pool", str(GOLDEN_POOL),
         "--signals", "nll,s1,rarity:k=3,div_cent", "--budget-tokens", "400", "--threads", "1",
         "--out-dir", str(out)],
        capture_output=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    assert {name: (out / name).read_bytes() for name in ARTIFACTS} == first
    assert entries(pool_cache) == [entry] and entry.read_bytes() == good


def test_a_cache_home_that_is_a_file_changes_nothing(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("x")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    first = _select(tmp_path / "first")
    second = _select(tmp_path / "second")
    assert second == first
    assert blocker.read_text() == "x"
    assert list(tmp_path.rglob("*.tmp")) == []


def test_without_a_home_directory_a_load_parses(tmp_path, monkeypatch):
    monkeypatch.delenv("XDG_CACHE_HOME")

    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(Path, "home", no_home)
    parsed, parse_warnings = load(GOLDEN_POOL)
    assert (parsed.n, parse_warnings) == (40, ["line 10: ignoring unknown keys ['note']"])
    assert load(GOLDEN_POOL)[1] == parse_warnings
    assert_same_columns(load(GOLDEN_POOL)[0], parsed)


@pytest.mark.parametrize("base", ["", "relative/cache"])
def test_an_unset_or_relative_cache_home_means_the_home_cache(tmp_path, monkeypatch, base):
    monkeypatch.setenv("XDG_CACHE_HOME", base)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(Path, "home", lambda: tmp_path / "home")
    load(GOLDEN_POOL)
    cache = tmp_path / "home" / ".cache" / "market-select" / "pools"
    assert len(entries(cache)) == 1
    assert cache.stat().st_mode & 0o777 == 0o700
    assert not (tmp_path / "relative").exists()


def test_a_pool_that_fails_its_checks_fails_alike_every_time_and_is_not_cached(
        tmp_path, pool_cache, capsys):
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, [{"id": "a", "topic": "t", "tokens": 1, "note": 1},
                            {"id": "a", "topic": "t", "tokens": 2}])
    argv = ["select", "--pool", str(path), "--signals", "nll", "--budget-tokens", "3",
            "--out-dir", str(tmp_path / "run")]
    runs = []
    for _ in range(2):
        code = main(argv)
        runs.append((code, capsys.readouterr().err))
    assert runs[0] == runs[1] == (1, "error: line 2: duplicate id 'a' (first seen on line 1)\n")
    assert not pool_cache.exists() or list(pool_cache.iterdir()) == []


def test_a_file_changed_while_it_loads_is_not_cached(tmp_path, monkeypatch, pool_cache):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(GOLDEN_POOL.read_bytes())
    real_parse = pool_module._parse_range

    def parse(p, start, end):
        columns = real_parse(p, start, end)
        stat = os.stat(p)
        os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        return columns

    monkeypatch.setattr(pool_module, "_parse_range", parse)
    load(path)
    assert entries(pool_cache) == []
    monkeypatch.setattr(pool_module, "_parse_range", real_parse)
    load(path)
    assert len(entries(pool_cache)) == 1


def indexes(cache: Path) -> list[Path]:
    return sorted(cache.glob(f"*{cache_module.INDEX}")) if cache.is_dir() else []


@pytest.fixture
def settled(monkeypatch):
    """Every file counts as settled: a load indexes its identity at once."""
    monkeypatch.setattr(pool_module, "SETTLE_NS", 0)


def _past_ctime(path: Path) -> None:
    """Wait until a file made now gets a later ctime than ``path`` has, so that
    a write to ``path`` from here on changes its ctime, whatever the file
    system's timestamp granularity."""
    probe = path.with_name(path.name + ".probe")
    while True:
        probe.unlink(missing_ok=True)
        probe.touch()
        if probe.stat().st_ctime_ns > path.stat().st_ctime_ns:
            break
        time.sleep(0.001)
    probe.unlink()


def _rewrite_same_size(path: Path) -> None:
    """Other bytes of the same size in ``path``, in place, with its mtime put back."""
    st = os.stat(path)
    data = path.read_bytes()
    at = data.index(b'"tokens": ') + len(b'"tokens": ')
    with open(path, "r+b") as fh:
        fh.seek(at)
        fh.write(b"9" if data[at:at + 1] != b"9" else b"8")
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(path).st_size == st.st_size and os.stat(path).st_mtime_ns == st.st_mtime_ns


def test_a_same_size_rewrite_with_its_mtime_put_back_while_it_loads_is_not_cached(
        tmp_path, monkeypatch, pool_cache, settled):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(GOLDEN_POOL.read_bytes())
    real_parse = pool_module._parse_range

    def parse(p, start, end):
        _rewrite_same_size(p)
        return real_parse(p, start, end)

    _past_ctime(path)
    monkeypatch.setattr(pool_module, "_parse_range", parse)
    pool, _ = load(path)
    assert pool.key is None
    assert entries(pool_cache) == [] and indexes(pool_cache) == []


def test_a_load_by_the_index_reads_no_pool_byte(tmp_path, monkeypatch, pool_cache, settled,
                                                 no_parse):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(GOLDEN_POOL.read_bytes())
    parsed, parse_warnings = load(path)
    assert len(entries(pool_cache)) == 1 and len(indexes(pool_cache)) == 1
    hashed: list[tuple] = []
    real_entry = cache_module.entry

    def entry(suffix, *parts):
        hashed.append(parts)
        return real_entry(suffix, *parts)

    monkeypatch.setattr(cache_module, "entry", entry)
    no_parse()
    indexed, index_warnings = load(path)
    assert hashed and not any(part == path for parts in hashed for part in parts)
    assert_same_columns(indexed, parsed)
    assert indexed.key == parsed.key is not None
    assert index_warnings == parse_warnings
    assert len(entries(pool_cache)) == 1 and len(indexes(pool_cache)) == 1


def test_a_same_size_rewrite_with_its_mtime_put_back_misses_the_index(tmp_path, pool_cache,
                                                                      settled):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(GOLDEN_POOL.read_bytes())
    before, _ = load(path)
    _past_ctime(path)
    _rewrite_same_size(path)
    after, _ = load(path)
    assert not np.array_equal(after.token_lengths, before.token_lengths)
    assert after.key not in (None, before.key)
    assert len(entries(pool_cache)) == 2 and len(indexes(pool_cache)) == 2


def test_a_file_younger_than_the_settle_margin_writes_no_index(tmp_path, monkeypatch,
                                                               pool_cache):
    monkeypatch.setattr(pool_module, "SETTLE_NS", 3600 * 10**9)
    path = tmp_path / "pool.jsonl"
    path.write_bytes(GOLDEN_POOL.read_bytes())
    keys = [load(path)[0].key for _ in range(2)]  # a store, then a hit
    assert keys[0] == keys[1] is not None
    assert len(entries(pool_cache)) == 1 and indexes(pool_cache) == []


def _name_another_entry(index: Path) -> None:
    cache_module.link(index, index.with_name("ab" * 32 + cache_module.POOL))


def _rewrite_digest(index: Path, name: str, dtype: type, size: int = 32) -> None:
    """The index's own digest bytes, stored under ``name`` as ``size`` items of ``dtype``."""
    with np.load(index) as npz:
        digest = npz["digest"].tobytes()
    cache_module.write(index, {name: np.frombuffer(digest[:size], dtype=dtype)})


INDEX_DAMAGE = {
    "garbage": lambda index: index.write_bytes(b"not an index\n" * 20),
    "truncated": lambda index: index.write_bytes(index.read_bytes()[:-10]),
    "short-digest": lambda index: _rewrite_digest(index, "digest", np.uint8, 31),
    "wrong-dtype": lambda index: _rewrite_digest(index, "digest", np.int8),
    "another-member": lambda index: _rewrite_digest(index, "name", np.uint8),
    "a-missing-entry": _name_another_entry,
}


@pytest.mark.parametrize("damage", list(INDEX_DAMAGE))
def test_a_damaged_index_takes_the_full_hash_path_and_is_rewritten(tmp_path, pool_cache,
                                                                   settled, damage):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(GOLDEN_POOL.read_bytes())
    parsed, _ = load(path)
    (index,) = indexes(pool_cache)
    good = index.read_bytes()
    INDEX_DAMAGE[damage](index)
    assert index.read_bytes() != good
    again, _ = load(path)
    assert_same_columns(again, parsed)
    assert again.key == parsed.key
    assert indexes(pool_cache) == [index] and index.read_bytes() == good
    assert len(entries(pool_cache)) == 1


def test_a_file_touched_while_it_is_hashed_gets_no_index(tmp_path, monkeypatch, pool_cache,
                                                         settled):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(GOLDEN_POOL.read_bytes())
    parsed, _ = load(path)
    for index in indexes(pool_cache):
        index.unlink()
    real_entry = cache_module.entry

    def entry(suffix, *parts):
        named = real_entry(suffix, *parts)
        if path in parts:  # the same bytes, under a new mtime and ctime
            st = path.stat()
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        return named

    _past_ctime(path)
    monkeypatch.setattr(cache_module, "entry", entry)
    hit, _ = load(path)
    assert_same_columns(hit, parsed)
    assert hit.key == parsed.key  # a hit on the bytes that were hashed
    assert indexes(pool_cache) == []


def test_an_index_whose_entry_was_evicted_takes_the_full_hash_path(tmp_path, pool_cache,
                                                                   settled):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(GOLDEN_POOL.read_bytes())
    parsed, parse_warnings = load(path)
    (entry,) = entries(pool_cache)
    entry.unlink()
    reparsed, warnings_again = load(path)
    assert_same_columns(reparsed, parsed)
    assert (reparsed.key, warnings_again) == (parsed.key, parse_warnings)
    assert entries(pool_cache) == [entry] and len(indexes(pool_cache)) == 1


def test_a_select_writes_the_same_bytes_on_a_miss_a_content_hit_and_an_index_hit(
        tmp_path, monkeypatch, pool_cache, settled, no_parse):
    path = tmp_path / "pool.jsonl"
    path.write_bytes(GOLDEN_POOL.read_bytes())
    keys: list[str | None] = []  # the key of the pool each select loaded
    hashed: list[bool] = []  # whether each cache.entry call hashed the pool file
    real_build, real_entry = pipeline.build_signal_table, cache_module.entry

    def build_signal_table(pool, *args, **kwargs):
        keys.append(pool.key)
        return real_build(pool, *args, **kwargs)

    def entry(suffix, *parts):
        hashed.append(path in parts)
        return real_entry(suffix, *parts)

    monkeypatch.setattr(pipeline, "build_signal_table", build_signal_table)
    monkeypatch.setattr(cache_module, "entry", entry)
    miss = _select(tmp_path / "miss", pool=path)
    no_parse()
    for index in indexes(pool_cache):
        index.unlink()
    hashed.clear()
    content_hit = _select(tmp_path / "content-hit", pool=path)
    assert any(hashed) and len(indexes(pool_cache)) == 1
    hashed.clear()
    index_hit = _select(tmp_path / "index-hit", pool=path)
    assert hashed and not any(hashed)
    assert miss == content_hit == index_hit
    assert b"line 10: ignoring unknown keys ['note']" in miss["report.json"]
    assert keys[0] == keys[1] == keys[2] is not None


def _pool_file(directory: Path, name: str, rows: int) -> Path:
    path = directory / f"{name}.jsonl"
    write_pool_jsonl(path, [{"id": f"{name}{i:03d}", "topic": "t", "tokens": 1 + i,
                             "signals": {"s": i / 7}} for i in range(rows)])
    return path


def test_the_cap_removes_the_oldest_entries_and_a_hit_counts_as_new(tmp_path, monkeypatch,
                                                                    pool_cache):
    pools = [_pool_file(tmp_path, name, 50) for name in "abcd"]
    made: list[Path] = []
    for path in pools[:3]:
        load(path)
        (new,) = set(entries(pool_cache)) - set(made)
        made.append(new)
    now = time.time_ns()
    for age, entry in zip((30, 20, 10), made):  # seconds since a, b and c were written
        os.utime(entry, ns=(now - age * 10**9,) * 2)
    size = max(entry.stat().st_size for entry in made)
    monkeypatch.setattr(cache_module, "CACHE_CAP", 3 * size + size // 2)  # room for three
    load(pools[0])  # a hit: a's entry becomes the newest
    assert made[0].stat().st_mtime_ns > made[2].stat().st_mtime_ns
    load(pools[3])  # a fourth entry: the oldest, now b's, goes
    left = entries(pool_cache)
    assert len(left) == 3 and made[1] not in left and {made[0], made[2]} <= set(left)


def test_an_entry_larger_than_the_cap_is_not_written(tmp_path, monkeypatch, pool_cache):
    load(_pool_file(tmp_path, "small", 2))
    (small,) = entries(pool_cache)
    monkeypatch.setattr(cache_module, "CACHE_CAP", 2 * small.stat().st_size)
    pool, _ = load(_pool_file(tmp_path, "big", 200))
    assert pool.n == 200
    assert entries(pool_cache) == [small]  # nor did it push out the entry that fits
    assert list(pool_cache.glob("*.tmp")) == []


@pytest.mark.parametrize("lines", [
    pytest.param([], id="empty-file"),
    pytest.param(["", "  "], id="blank-lines"),
])
def test_an_empty_pool_round_trips(tmp_path, pool_cache, no_parse, lines):
    path = tmp_path / "pool.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    parsed, _ = load(path)
    assert parsed.n == 0 and len(entries(pool_cache)) == 1
    no_parse()
    cached, _ = load(path)
    assert_same_columns(cached, parsed)
    assert cached.n == 0 and cached.topics == {}


def test_ids_that_other_line_splitters_break_round_trip(tmp_path, pool_cache, no_parse):
    ids = ["a\u2028b", "c\x85", "\u2028", "\x85\u2029", "d e\x0b\x0c\x1c\x1d\x1e"]
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, [{"id": rid, "topic": "té", "tokens": 1 + i,
                             "embedding": [i, -i], "label": f"l{i % 2}"}
                            for i, rid in enumerate(ids)])
    parsed, _ = load(path)
    assert sorted(parsed.ids) == sorted(ids)
    no_parse()
    cached, _ = load(path)
    assert cached.ids == parsed.ids
    assert_same_columns(cached, parsed)


def test_the_cache_key_covers_the_checker_source(tmp_path, monkeypatch, pool_cache):
    load(GOLDEN_POOL)
    source = tmp_path / "pool.py"
    source.write_bytes(Path(pool_module.__file__).read_bytes() + b"\n# another checker\n")
    monkeypatch.setattr(pool_module, "__file__", str(source))
    load(GOLDEN_POOL)
    assert len(entries(pool_cache)) == 2


def test_a_worker_result_larger_than_the_pipe_comes_back_whole(forks):
    def task(i):
        return b"x" * (4 << 20) if i == 1 else b"caller"  # far past a pipe's buffer

    assert fork_map(task, [(0,), (1,)]) == [b"caller", b"x" * (4 << 20)]
    assert len(forks) == 1
