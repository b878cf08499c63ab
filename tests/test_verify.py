from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from market_select import verify
from market_select.errors import ConfigError, ValidationError
from market_select.market import Weights
from market_select.standardize import StandardizedTable
from market_select.verify import (
    CorruptionSweepConfig,
    RecoverySimConfig,
    recovery_grid,
    simulate_recovery,
    sweep_corruption,
    sweep_hyperparams,
)

from conftest import random_pool
from recovery_flat import flat_recovery_ratios
from recovery_oracle import expected_shortfall


def test_recovery_noiseless_is_exact():
    for family in ("linear", "logistic"):
        result = simulate_recovery(
            RecoverySimConfig(
                n=300, m=3, sigma=0.0, k=30, monotone_family=family, trials=5, seed=1
            )
        )
        assert result.mean_ratio == 1.0
        assert result.empirical_epsilon == 0.0
        assert all(r == 1.0 for r in result.ratios)


def test_recovery_drowned_signal_matches_random_baseline():
    # sigma far above the signal scale: selection is effectively a random
    # draw; compare against a permutation oracle
    n, k = 1000, 100
    cfg = RecoverySimConfig(n=n, m=3, sigma=10.0, k=k, trials=20, seed=2)
    result = simulate_recovery(cfg)

    rng = np.random.default_rng(123)
    baseline_ratios = []
    for _ in range(200):
        utilities = rng.uniform(size=n)
        picked = rng.permutation(n)[:k]
        best = np.sort(utilities)[-k:]
        baseline_ratios.append(utilities[picked].sum() / best.sum())
    baseline = float(np.mean(baseline_ratios))
    assert abs(result.mean_ratio - baseline) <= 0.05


def test_recovery_ratio_bounds_and_determinism():
    cfg = RecoverySimConfig(n=200, m=2, sigma=0.7, k=20, trials=10, seed=5)
    first = simulate_recovery(cfg)
    second = simulate_recovery(cfg)
    assert first.ratios == second.ratios
    assert all(0.0 <= r <= 1.0 for r in first.ratios)


def test_recovery_epsilon_decreases_with_k_in_tail_regime():
    # the expected shortfall is hump-shaped in K: it climbs while the
    # reference top-K keeps tightening, peaks near K ~ 10-15% of n at
    # sigma=0.5, and then falls to 0 at K = n (tests/recovery_oracle.py
    # computes the curve by quadrature); the decreasing trend holds from
    # the peak onward, so the grid starts there
    cfg = RecoverySimConfig(n=1000, m=3, sigma=0.5, k=100, trials=30, seed=7)
    results = recovery_grid(cfg, sigmas=[0.5], ks=[200, 400, 600, 800, 950])
    eps = [r.empirical_epsilon for r in results]
    violations = sum(1 for a, b in zip(eps, eps[1:]) if b > a)
    assert violations <= 1


def top_k_uniform_sum(n: int, k: int) -> float:
    """E[sum of the top k of n uniforms] = sum_{i=n-k+1}^{n} i / (n + 1)."""
    return sum(i / (n + 1) for i in range(n - k + 1, n + 1))


def test_recovery_oracle_noiseless_limit_is_exact():
    ks = [10, 50, 200]
    previous = np.full(len(ks), np.inf)
    for sigma in (1e-2, 1e-3, 1e-4):
        eps = expected_shortfall(n=2000, ks=ks, sigma=sigma)
        assert np.all(eps >= -1e-12)
        assert np.all(eps < previous)
        previous = eps
    assert np.all(previous < 1e-6)


def test_recovery_oracle_drowned_signal_is_random_draw():
    n, ks = 2000, [10, 50, 200]
    # with the signal drowned, the top K by price is a random K-subset,
    # whose expected utility sum is K / 2
    baseline = np.array([1.0 - (k / 2) / top_k_uniform_sum(n, k) for k in ks])
    gaps = [
        np.abs(expected_shortfall(n=n, ks=ks, sigma=sigma) - baseline)
        for sigma in (1e2, 1e3, 1e4)
    ]
    assert np.all(gaps[1] < gaps[0]) and np.all(gaps[2] < gaps[1])
    assert np.all(gaps[2] < 1e-4)


def test_recovery_epsilon_increases_with_sigma():
    cfg = RecoverySimConfig(n=500, m=3, sigma=0.5, k=50, trials=30, seed=8)
    results = recovery_grid(cfg, sigmas=[0.0, 0.25, 0.5, 1.0, 2.0], ks=[50])
    eps = [r.empirical_epsilon for r in results]
    violations = sum(1 for a, b in zip(eps, eps[1:]) if b < a - 1e-12)
    assert violations <= 1


def test_recovery_config_validation():
    with pytest.raises(ConfigError):
        RecoverySimConfig(n=10, k=11)
    with pytest.raises(ConfigError):
        RecoverySimConfig(n=10, k=1, sigma=-1.0)
    with pytest.raises(ConfigError):
        RecoverySimConfig(n=10, k=1, monotone_family="cubic")
    with pytest.raises(ConfigError):
        RecoverySimConfig(n=10, k=1, trials=0)
    # with tau <= 0 every standardized value would clip to one constant
    for tau in (0.0, -1.0):
        with pytest.raises(ConfigError, match="tau must be positive"):
            RecoverySimConfig(n=200, k=20, trials=3, seed=1, tau=tau)


@pytest.mark.parametrize(
    "n, m, family, beta, ks",
    [
        (9000, 3, "linear", 2.0, [1, 10, 1285, 8193, 9000]),
        (9000, 5, "logistic", 0.05, [1, 8500, 9000]),
        (37, 1, "logistic", 2.0, [1, 5, 37]),
    ],
)
def test_recovery_matches_the_flat_market_reference(n, m, family, beta, ks):
    # one topic of unit-length rows makes the shipped stages the flat
    # market's top-k, ties and utility sums included
    cfg = RecoverySimConfig(n=n, m=m, k=ks[0], monotone_family=family, trials=2, seed=3,
                            beta=beta)
    results = recovery_grid(cfg, sigmas=[0.0, 0.5, 2.0], ks=ks)
    assert [(r.sigma, r.k) for r in results] == [(s, k) for s in (0.0, 0.5, 2.0) for k in ks]
    for result in results:
        point = replace(cfg, sigma=result.sigma, k=result.k)
        assert result.ratios == flat_recovery_ratios(point)
    assert simulate_recovery(point).ratios == results[-1].ratios


def test_recovery_refuses_a_liquidity_the_market_cannot_price():
    cfg = RecoverySimConfig(n=200, k=20, trials=3, seed=1, beta=1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="liquidity 1e-320 cannot price"):
            simulate_recovery(cfg)


def test_recovery_refuses_noise_beyond_the_float_range():
    cfg = RecoverySimConfig(n=200, k=20, trials=5, sigma=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite values"):
            simulate_recovery(cfg)


def clipped_table(rng, pool, names=("s1", "s2"), tau=2.5) -> StandardizedTable:
    columns = {
        name: np.clip(rng.normal(size=pool.n), -tau, tau) for name in names
    }
    return StandardizedTable(columns=columns, tau=tau)


def test_corruption_zero_epsilon_no_influence():
    rng = np.random.default_rng(20)
    pool = random_pool(rng, 50, n_topics=1)
    table = clipped_table(rng, pool)
    weights = Weights({"s1": 0.5, "s2": 0.5})
    rows = sweep_corruption(
        pool,
        table,
        weights,
        CorruptionSweepConfig(epsilons=[0.0], target_signal="s1", tau=2.5, betas=[2.0]),
    )
    assert rows[0]["price_l1_change"] == 0.0
    assert rows[0]["share_linf_change"] == 0.0
    assert rows[0]["share_linf_bound"] == 0.0


def test_corruption_monotone_in_epsilon_and_bounded():
    rng = np.random.default_rng(21)
    pool = random_pool(rng, 80, n_topics=1)
    table = clipped_table(rng, pool)
    weights = Weights({"s1": 0.6, "s2": 0.4})
    eps_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = sweep_corruption(
        pool,
        table,
        weights,
        CorruptionSweepConfig(epsilons=eps_grid, target_signal="s1", tau=2.5, betas=[0.5, 2.0, 5.0]),
    )
    by_beta: dict[float, list[dict]] = {}
    for row in rows:
        by_beta.setdefault(row["beta"], []).append(row)
    for beta_rows in by_beta.values():
        influences = [r["price_l1_change"] for r in beta_rows]
        assert influences == sorted(influences)
        for row in beta_rows:
            bound = row["share_linf_bound"]
            assert row["share_linf_change"] <= bound * (1 + 1e-12) + 1e-15
            assert bound == pytest.approx(2.0 * 2.5 * row["epsilon"] * 0.6)


def test_corruption_bound_tight_at_clip_boundary():
    # a column pinned at +/- tau makes the adversarial blend span 2*tau
    pool = random_pool(np.random.default_rng(22), 10, n_topics=1)
    z = np.array([2.5, -2.5] * 5)
    table = StandardizedTable(columns={"s1": z}, tau=2.5)
    weights = Weights({"s1": 1.0})
    rows = sweep_corruption(
        pool,
        table,
        weights,
        CorruptionSweepConfig(epsilons=[1.0], target_signal="s1", tau=2.5, betas=[2.0]),
    )
    assert rows[0]["share_linf_change"] == pytest.approx(5.0, rel=1e-12)
    assert rows[0]["share_linf_bound"] == pytest.approx(5.0, rel=1e-12)


def test_corruption_rejects_unclipped_or_unknown_column():
    rng = np.random.default_rng(23)
    pool = random_pool(rng, 10, n_topics=1)
    wild = StandardizedTable(columns={"s1": np.full(10, 99.0)}, tau=2.5)
    with pytest.raises(ValidationError, match="clip"):
        sweep_corruption(
            pool,
            wild,
            Weights({"s1": 1.0}),
            CorruptionSweepConfig(epsilons=[0.5], target_signal="s1"),
        )
    table = clipped_table(rng, pool)
    with pytest.raises(ValidationError, match="ghost"):
        sweep_corruption(
            pool,
            table,
            Weights({"s1": 1.0}),
            CorruptionSweepConfig(epsilons=[0.5], target_signal="ghost"),
        )


def test_corruption_config_validation():
    with pytest.raises(ConfigError):
        CorruptionSweepConfig(epsilons=[], target_signal="s")
    with pytest.raises(ConfigError):
        CorruptionSweepConfig(epsilons=[1.5], target_signal="s")


def test_sweep_default_point_jaccard_one():
    rng = np.random.default_rng(24)
    pool = random_pool(rng, 40, n_topics=2, max_tokens=20)
    table = clipped_table(rng, pool)
    weights = Weights({"s1": 0.5, "s2": 0.5})
    rows = sweep_hyperparams(
        pool, table, weights, budget_tokens=100, beta_grid=[2.0], gamma_grid=[1.6]
    )
    assert len(rows) == 1
    assert rows[0]["jaccard_vs_default"] == 1.0
    assert rows[0]["tokens_used"] <= 100
    assert set(rows[0]["topic_price_mass"]) == set(pool.topics)


@pytest.mark.parametrize("betas, gammas, pricings, selections", [
    ([0.5, 1.0, 2.0, 5.0], [1.4, 1.6, 1.8], 4, 12),  # holds both defaults
    ([0.5, 2.0], [1.4, 1.8], 2, 5),  # holds the default liquidity only
    ([0.5, 1.0], [1.6], 3, 3),  # holds the default gamma only
])
def test_sweep_prices_and_selects_the_defaults_once(monkeypatch, betas, gammas, pricings,
                                                     selections):
    rng = np.random.default_rng(24)
    pool = random_pool(rng, 40, n_topics=2, max_tokens=20)
    table = clipped_table(rng, pool)
    calls = {"price_pool": 0, "greedy_select": 0}
    for name in calls:
        def counted(*args, _fn=getattr(verify, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verify, name, counted)
    rows = sweep_hyperparams(pool, table, Weights({"s1": 0.5, "s2": 0.5}), budget_tokens=100,
                             beta_grid=betas, gamma_grid=gammas)
    assert [(row["beta"], row["gamma"]) for row in rows] == [(b, g) for b in betas for g in gammas]
    assert calls == {"price_pool": pricings, "greedy_select": selections}


def test_sweep_gamma_zero_is_raw_price_ranking():
    rng = np.random.default_rng(25)
    pool = random_pool(rng, 30, n_topics=2, max_tokens=10)
    table = clipped_table(rng, pool)
    weights = Weights({"s1": 1.0})
    rows = sweep_hyperparams(
        pool, table, weights, budget_tokens=10_000, beta_grid=[2.0], gamma_grid=[0.0]
    )
    # with an unconstrained budget everything is selected either way
    assert rows[0]["n_selected"] == pool.n

    from market_select.market import MarketConfig, aggregate_shares, topic_prices
    from market_select.selection import SelectionConfig, greedy_select
    from market_select.market import MarketState, topic_cost

    q = aggregate_shares(table, weights)
    cfg = MarketConfig(beta=2.0)
    p = topic_prices(q, pool, cfg)
    cost, _ = topic_cost(q, pool, cfg)
    state = MarketState(shares=q, prices=p, cost=cost)
    tight = 40
    raw_rank = greedy_select(state, pool, SelectionConfig(budget_tokens=tight, gamma=0.0))
    rows_tight = sweep_hyperparams(
        pool, table, weights, budget_tokens=tight, beta_grid=[2.0], gamma_grid=[0.0]
    )
    assert rows_tight[0]["n_selected"] == len(raw_rank.selected)


def test_sweep_high_beta_overlap_reported():
    rng = np.random.default_rng(26)
    pool = random_pool(rng, 50, n_topics=2, max_tokens=20)
    table = clipped_table(rng, pool)
    weights = Weights({"s1": 0.7, "s2": 0.3})
    rows = sweep_hyperparams(
        pool, table, weights, budget_tokens=150, beta_grid=[2.0, 1e6], gamma_grid=[1.6]
    )
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row["jaccard_vs_default"] <= 1.0
        assert row["median_tokens"] >= 0.0


def test_sweep_empty_grid_rejected():
    rng = np.random.default_rng(27)
    pool = random_pool(rng, 10, n_topics=1)
    table = clipped_table(rng, pool)
    with pytest.raises(ConfigError):
        sweep_hyperparams(
            pool, table, Weights({"s1": 1.0}), budget_tokens=10, beta_grid=[], gamma_grid=[1.0]
        )
