"""The cache module on its own: processes that share one cache directory
under eviction, and what importing the CLI loads."""

from __future__ import annotations

import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from market_select import cache as cache_module
from market_select import pool as pool_module
from market_select.pool import load_pool
from market_select.signals import KnnParams, rarity_knn

from conftest import write_pool_jsonl
from test_cli import _python_last_line
from test_pool import assert_same_columns

K = 3
ROUNDS = 12
GOLDEN_POOL = Path(__file__).resolve().parent / "golden" / "pool.jsonl"
# modules that a select with every signal cached runs nothing of
UNUSED = ("market_select.tune", "market_select.verify", "concurrent.futures", "csv",
          "numpy.ma")


def _pool_files(directory, count: int) -> list:
    rng = np.random.default_rng(27)
    paths = []
    for p in range(count):
        path = directory / f"pool{p}.jsonl"
        write_pool_jsonl(path, [{"id": f"p{p}r{i:02d}", "topic": f"t{i % 2}", "tokens": 1 + i,
                                 "embedding": rng.normal(size=3).tolist(),
                                 "signals": {"s": float(rng.normal())}} for i in range(40)])
        paths.append(path)
    return paths


def _load_and_check(paths, want, order: int) -> None:
    """ROUNDS loads of every pool and its rarity column, the pools in a
    rotated order; each must equal what a parse and a kNN give."""
    for r in range(ROUNDS):
        for i in np.roll(np.arange(len(paths)), order + r):
            pool = load_pool(paths[i])
            assert_same_columns(pool, want[i][0])
            assert np.array_equal(rarity_knn(pool, KnnParams(k=K)), want[i][1])


def test_four_processes_share_one_directory_under_eviction(tmp_path, monkeypatch, pool_cache):
    monkeypatch.setattr(pool_module, "SETTLE_NS", 0)  # every load indexes its file
    paths = _pool_files(tmp_path, 3)
    pools = [load_pool(path) for path in paths]
    want = [(pool, rarity_knn(pool, KnnParams(k=K))) for pool in pools]
    sizes = sorted(entry.stat().st_size for entry in pool_cache.iterdir())
    assert len(sizes) == 9  # three pool entries, three column entries and three indexes
    assert len(list(pool_cache.glob(f"*{cache_module.INDEX}"))) == 3
    for entry in pool_cache.iterdir():
        entry.unlink()
    # room for two pool entries at most: nearly every store evicts, and an
    # index can outlive the entry it names
    monkeypatch.setattr(cache_module, "CACHE_CAP", 2 * sizes[-1] + sizes[0])

    pids = []
    try:
        for order in range(4):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _load_and_check(paths, want, order)
                    code = 0
                except BaseException:
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(code)
            pids.append(pid)
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    assert codes == [0, 0, 0, 0]
    left = list(pool_cache.iterdir())
    assert 0 < len(left) < 9 and list(pool_cache.glob("*.tmp")) == []
    for i, path in enumerate(paths):  # whatever the processes left still reads back right
        assert_same_columns(load_pool(path), want[i][0])


def test_importing_the_cli_loads_the_cache_module_and_no_hashlib():
    code = ("import sys, market_select.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'market_select'),"
            " 'hashlib' in sys.modules)")
    modules = ["market_select", "market_select.cache", "market_select.cli",
               "market_select.errors", "market_select.market", "market_select.pipeline",
               "market_select.pool", "market_select.selection", "market_select.signals",
               "market_select.standardize"]
    assert _python_last_line(code) == f"{modules} False"


def test_a_warm_select_loads_no_module_it_does_not_run(tmp_path, pool_cache):
    argv = ["select", "--pool", str(GOLDEN_POOL), "--signals", "nll,s1,rarity:k=3,div_cent",
            "--budget-tokens", "400", "--threads", "2", "--out-dir", str(tmp_path / "run")]
    code = ("import sys\n"
            "from market_select.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"print(sorted(m for m in {UNUSED!r} if m in sys.modules))")
    _python_last_line(code)  # the first select computes and stores the rarity column
    assert any(pool_cache.glob(f"*{cache_module.COLUMN}"))
    assert _python_last_line(code) == "[]"


def test_a_store_removes_temporaries_older_than_an_hour_and_keeps_the_rest(tmp_path, pool_cache):
    load_pool(_pool_files(tmp_path, 1)[0])  # one pool entry
    (entry,) = list(pool_cache.iterdir())
    now = time.time()
    temporaries = {}
    for name, age in (("killed", 2 * 3600), ("older", 3600 + 60), ("writing", 60),
                      ("younger", 3600 - 60)):
        path = temporaries[name] = pool_cache / f"tmp{name}.tmp"
        path.write_bytes(b"partial")
        os.utime(path, (now - age, now - age))
    column = pool_cache / f"x{cache_module.COLUMN}"
    cache_module.write(column, {"column": np.zeros(3)})  # a store scans the directory
    assert sorted(p.name for p in pool_cache.iterdir()) == sorted(
        [entry.name, column.name, temporaries["writing"].name, temporaries["younger"].name])
