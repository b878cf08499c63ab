from __future__ import annotations

import json
import os

import numpy as np
import pytest

from market_select import pool as pool_module
from market_select.pool import Pool


def make_record(
    rid: str,
    topic: str = "t",
    tokens: int = 1,
    label: str | None = None,
    embedding=None,
    signals: dict[str, float] | None = None,
) -> dict:
    """One pool row, as a pool file line holds it."""
    row: dict = {"id": rid, "topic": topic, "tokens": tokens}
    if label is not None:
        row["label"] = label
    if embedding is not None:
        row["embedding"] = np.asarray(embedding, dtype=np.float64).tolist()
    if signals:
        row["signals"] = {name: float(value) for name, value in signals.items()}
    return row


def make_pool(*rows: dict) -> Pool:
    return Pool.from_rows(rows)


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Every process a test forks or spawns is reaped by the time it ends."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process outlived the test" + (f" (pid {pid})" if pid else ""))


@pytest.fixture(autouse=True)
def pool_cache(tmp_path_factory, monkeypatch):
    """An empty pool cache of the test's own; CLI subprocesses inherit it,
    so no test reads or writes the user's cache."""
    cache = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache / "market-select" / "pools"


@pytest.fixture
def cold_cache(monkeypatch, tmp_path_factory):
    """Every pool load and every cached-column lookup in the test gets a
    fresh, empty cache directory, so a second load of the same bytes still
    parses (and forks) as the first, and computes the kNN rarity again."""
    monkeypatch.setattr(pool_module, "_cache_dir", lambda: tmp_path_factory.mktemp("cold"))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked while the test runs."""
    pids: list[int] = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def tiny_pool() -> Pool:
    return make_pool(
        make_record("a", topic="x", tokens=3, signals={"nll": 1.0}),
        make_record("b", topic="x", tokens=5, signals={"nll": 2.0}),
        make_record("c", topic="y", tokens=2, signals={"nll": 3.0}),
    )


def write_pool_jsonl(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def random_pool(
    rng: np.random.Generator,
    n: int,
    n_topics: int = 3,
    dim: int | None = None,
    with_labels: bool = False,
    n_labels: int = 4,
    max_tokens: int = 50,
    signal_names: tuple[str, ...] = ("s1",),
) -> Pool:
    rows = []
    width = len(str(n))
    for i in range(n):
        # the rng draws come in this order: embedding, topic, tokens, label, signals
        row: dict = {"id": f"e{i:0{width}d}"}
        if dim is not None:
            row["embedding"] = rng.normal(size=dim).tolist()
        row["topic"] = f"t{rng.integers(n_topics)}"
        row["tokens"] = int(rng.integers(1, max_tokens + 1))
        if with_labels:
            row["label"] = f"l{rng.integers(n_labels)}"
        row["signals"] = {name: float(rng.normal()) for name in signal_names}
        rows.append(row)
    return Pool.from_rows(rows)
