from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from market_select.errors import ConfigError
from market_select.standardize import (
    StandardizeConfig,
    average_ranks,
    rank_normalize,
    standardize_column,
    standardize_table,
    standardize_values,
)
from market_select.signals import SignalTable

from conftest import make_pool, make_record, random_pool


def one_topic_pool(n: int):
    return make_pool(*[make_record(f"e{i}") for i in range(n)])


def test_zscore_small_example():
    pool = one_topic_pool(3)
    col, stats = standardize_column(
        np.array([1.0, 2.0, 3.0]), pool, StandardizeConfig(method="zscore")
    )
    # population sigma of (1,2,3) is sqrt(2/3)
    expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0)
    assert np.allclose(col, expected, atol=1e-9)
    assert np.allclose(col, [-1.22474487, 0.0, 1.22474487], atol=1e-6)
    assert stats["t"].scale_source == "sigma"


def test_constant_column_falls_back_to_zeros():
    pool = one_topic_pool(4)
    for method in ("zscore", "robust"):
        col, stats = standardize_column(
            np.full(4, 7.0), pool, StandardizeConfig(method=method)
        )
        assert np.array_equal(col, np.zeros(4))
        assert stats["t"].scale_source == "zeros"


def test_robust_outlier_clips_to_tau():
    pool = one_topic_pool(5)
    raw = np.array([0.0, 0.0, 0.0, 0.0, 100.0])
    col, stats = standardize_column(
        raw, pool, StandardizeConfig(method="robust", tau=2.5)
    )
    # IQR of this column is 0, so the scale falls back to sigma (=40);
    # the outlier lands exactly at (100 - 0) / 40 = 2.5 = tau
    assert stats["t"].scale_source == "fallback_sigma"
    assert col[4] == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(col[:4], 0.0)
    assert np.max(np.abs(col)) <= 2.5


def test_robust_heavy_tail_clipped():
    pool = one_topic_pool(9)
    raw = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1e6])
    col, _ = standardize_column(raw, pool, StandardizeConfig(method="robust", tau=2.5))
    assert col[-1] == 2.5


def test_rank_normalize_simple():
    pool = one_topic_pool(3)
    out = rank_normalize(np.array([10.0, 20.0, 30.0]), pool)
    assert np.allclose(out, [0.0, 0.5, 1.0])


def test_rank_normalize_ties_average():
    pool = one_topic_pool(2)
    out = rank_normalize(np.array([5.0, 5.0]), pool)
    assert np.allclose(out, [0.5, 0.5])


def test_rank_normalize_idempotent_on_uniform_ranks():
    pool = one_topic_pool(6)
    raw = np.array([3.0, -1.0, 7.0, 4.0, 0.0, 9.0])
    once = rank_normalize(raw, pool)
    twice = rank_normalize(once, pool)
    assert np.allclose(once, twice)


def test_average_ranks_equal_scipy_rankdata():
    from scipy.stats import rankdata  # the reference implementation

    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 17, 100, 1000, 5000):
        cases = [
            rng.normal(size=n),
            rng.integers(0, 4, size=n).astype(float),  # heavy ties
            np.round(rng.normal(size=n), 1),
            rng.choice([-0.0, 0.0, 1.5], size=n),  # signed zeros tie
            np.full(n, 2.0),
        ]
        for values in cases:
            assert np.array_equal(average_ranks(values), rankdata(values, method="average"))


def test_rank_normalize_singleton_topic():
    pool = make_pool(make_record("a"))
    assert rank_normalize(np.array([42.0]), pool)[0] == 0.5


def test_singleton_topic_standardizes_to_zero():
    pool = make_pool(make_record("a", topic="x"), make_record("b", topic="y"))
    for method in ("zscore", "robust", "rank_then_robust"):
        col, stats = standardize_column(
            np.array([5.0, -3.0]), pool, StandardizeConfig(method=method)
        )
        assert np.array_equal(col, np.zeros(2))
        assert stats["x"].scale_source == "singleton"


def test_per_topic_independence():
    pool = make_pool(
        make_record("a", topic="x"),
        make_record("b", topic="x"),
        make_record("c", topic="y"),
        make_record("d", topic="y"),
    )
    raw = np.array([0.0, 10.0, 100.0, 110.0])
    col, _ = standardize_column(raw, pool, StandardizeConfig(method="zscore"))
    # both topics have the same internal spread, so identical z-scores
    assert np.allclose(col[:2], col[2:])


@pytest.mark.parametrize("method", ["zscore", "robust", "rank_then_robust"])
def test_monotone_within_topic(method):
    rng = np.random.default_rng(9)
    pool = random_pool(rng, 60, n_topics=3)
    raw = rng.standard_cauchy(60)  # heavy-tailed on purpose
    col, _ = standardize_column(raw, pool, StandardizeConfig(method=method))
    for idx in pool.topics.values():
        order = np.argsort(raw[idx], kind="stable")
        diffs = np.diff(col[idx][order])
        assert np.all(diffs >= -1e-12)


@given(
    data=st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    method=st.sampled_from(["zscore", "robust", "rank_then_robust"]),
    tau=st.floats(min_value=0.5, max_value=5.0),
)
@settings(max_examples=200, deadline=None)
def test_bounded_by_tau(data, method, tau):
    values, _ = standardize_values(np.array(data), method, tau)
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) <= tau + 1e-12


def test_zscore_shift_scale_invariance():
    rng = np.random.default_rng(21)
    pool = random_pool(rng, 50, n_topics=4)
    raw = rng.normal(size=50)
    base, _ = standardize_column(raw, pool, StandardizeConfig(method="zscore"))
    moved, _ = standardize_column(
        3.7 * raw + 11.0, pool, StandardizeConfig(method="zscore")
    )
    assert np.allclose(base, moved, atol=1e-9)


def test_clipping_idempotent():
    rng = np.random.default_rng(33)
    values = rng.standard_cauchy(500)
    tau = 2.5
    once = np.clip(values, -tau, tau)
    assert np.array_equal(np.clip(once, -tau, tau), once)


def test_standardize_table_covers_all_columns(tiny_pool):
    table = SignalTable(columns={"nll": np.array([1.0, 2.0, 3.0])})
    std = standardize_table(table, tiny_pool)
    assert set(std.columns) == {"nll"}
    assert set(std.stats["nll"]) == {"x", "y"}
    assert std.tau == 2.5


def test_config_validation():
    with pytest.raises(ConfigError):
        StandardizeConfig(method="mystery")
    with pytest.raises(ConfigError):
        StandardizeConfig(tau=0.0)
    with pytest.raises(ConfigError, match="finite"):
        StandardizeConfig(tau=float("inf"))
