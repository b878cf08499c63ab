from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from market_select import market as market_module
from market_select.errors import ConfigError, ValidationError
from market_select.market import (
    MarketConfig,
    Weights,
    aggregate_shares,
    lmsr_cost,
    lmsr_prices,
    price_pool,
    topic_cost,
    topic_prices,
)
from market_select.standardize import StandardizedTable

from conftest import make_pool, make_record, random_pool


def fd_gradient(q: np.ndarray, beta: float, step: float = 1e-5) -> np.ndarray:
    """Central-difference oracle for the cost gradient."""
    grad = np.empty_like(q)
    for i in range(q.size):
        hi = q.copy()
        lo = q.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (lmsr_cost(hi, beta) - lmsr_cost(lo, beta)) / (2.0 * step)
    return grad


def table_of(**columns) -> StandardizedTable:
    return StandardizedTable(columns={k: np.asarray(v, dtype=float) for k, v in columns.items()})


def test_aggregate_single_signal_identity():
    table = table_of(a=[1.0, -2.0, 0.5])
    q = aggregate_shares(table, Weights({"a": 1.0}))
    assert np.array_equal(q, table.columns["a"])


def test_aggregate_convex_combination_of_equal_columns():
    table = table_of(a=[1.0, 2.0], b=[1.0, 2.0])
    q = aggregate_shares(table, Weights({"a": 0.5, "b": 0.5}))
    assert np.allclose(q, [1.0, 2.0])


def test_aggregate_arithmetic():
    table = table_of(a=[1.0, -1.0], b=[2.0, 0.0])
    q = aggregate_shares(table, Weights({"a": 1.0, "b": 2.0}))
    assert np.allclose(q, [5.0, -1.0])


def test_aggregate_ignores_unweighted_columns():
    table = table_of(a=[1.0, 2.0], junk=[100.0, 100.0])
    q = aggregate_shares(table, Weights({"a": 1.0}))
    assert np.allclose(q, [1.0, 2.0])


def test_aggregate_adds_the_columns_in_their_order_whatever_the_weights_order():
    rng = np.random.default_rng(3)
    table = table_of(**{name: rng.normal(size=1_000) for name in ("z", "b", "unused", "a")})
    weights = {"z": 1 / 3, "b": 1 / 3, "a": 1 / 3}
    want = (weights["z"] * table.columns["z"] + weights["b"] * table.columns["b"]
            + weights["a"] * table.columns["a"])
    for order in (["z", "b", "a"], ["a", "b", "z"], ["b", "a", "z"]):
        got = aggregate_shares(table, Weights({name: weights[name] for name in order}))
        assert got.tobytes() == want.tobytes()


def test_aggregate_unknown_weight_name():
    table = table_of(a=[1.0])
    with pytest.raises(ValidationError, match="'ghost'"):
        aggregate_shares(table, Weights({"ghost": 1.0}))


def test_weights_invariants():
    with pytest.raises(ValidationError):
        Weights({})
    with pytest.raises(ValidationError):
        Weights({"a": -0.1})
    with pytest.raises(ValidationError):
        Weights({"a": 0.0, "b": 0.0})


def test_cost_closed_forms():
    assert lmsr_cost(np.zeros(2), 1.0) == pytest.approx(np.log(2.0), abs=1e-12)
    for beta in (0.5, 2.0, 7.0):
        n = 6
        c = 3.3
        assert lmsr_cost(np.full(n, c), beta) == pytest.approx(
            c + beta * np.log(n), abs=1e-9
        )
        assert lmsr_cost(np.array([0.0, beta * np.log(2.0)]), beta) == pytest.approx(
            beta * np.log(3.0), abs=1e-9
        )


def test_prices_closed_forms():
    assert np.allclose(lmsr_prices(np.zeros(3), 5.0), 1.0 / 3.0)
    for beta in (0.5, 2.0):
        p = lmsr_prices(np.array([0.0, beta * np.log(2.0)]), beta)
        assert np.allclose(p, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_prices_match_fd_gradient():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        q = rng.uniform(-10, 10, size=n)
        beta = float(rng.uniform(1.0, 5.0))
        p = lmsr_prices(q, beta)
        fd = fd_gradient(q, beta)
        rel = np.max(np.abs(fd - p)) / np.max(np.abs(p))
        assert rel <= 1e-6


def test_translation_invariance():
    rng = np.random.default_rng(8)
    q = rng.uniform(-5, 5, size=20)
    beta = 2.0
    c = 4.25
    assert np.allclose(lmsr_prices(q + c, beta), lmsr_prices(q, beta), atol=1e-12)
    assert lmsr_cost(q + c, beta) - lmsr_cost(q, beta) == pytest.approx(c, abs=1e-9)


def test_low_beta_concentrates_on_argmax():
    rng = np.random.default_rng(10)
    q = rng.uniform(-10, 10, size=30)
    q[7] = 11.0  # unique max
    p = lmsr_prices(q, 1e-3)
    assert p[7] >= 0.999
    assert np.isfinite(p).all()


def test_high_beta_flattens_to_uniform():
    rng = np.random.default_rng(11)
    pool = random_pool(rng, 40, n_topics=3)
    q = rng.uniform(-10, 10, size=40)
    cfg = MarketConfig(beta=1e6, topic_budgets="proportional")
    p = topic_prices(q, pool, cfg)
    alphas = cfg.alphas(pool)
    for topic, idx in pool.topics.items():
        uniform = alphas[topic] / idx.size
        assert np.max(np.abs(p[idx] - uniform)) <= 1e-4


def test_cost_convexity_spot_check():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        q1 = rng.uniform(-10, 10, size=n)
        q2 = rng.uniform(-10, 10, size=n)
        lam = float(rng.uniform())
        beta = float(rng.uniform(0.5, 5.0))
        mid = lmsr_cost(lam * q1 + (1 - lam) * q2, beta)
        assert mid <= lam * lmsr_cost(q1, beta) + (1 - lam) * lmsr_cost(q2, beta) + 1e-9


def test_monotone_in_own_share():
    rng = np.random.default_rng(13)
    pool = random_pool(rng, 12, n_topics=2)
    q = rng.normal(size=12)
    cfg = MarketConfig(beta=2.0)
    p = topic_prices(q, pool, cfg)
    bumped = q.copy()
    bumped[4] += 0.5
    p2 = topic_prices(bumped, pool, cfg)
    topic_of_4 = pool.topic_names[pool.topic_codes[4]]
    same_topic = pool.topics[topic_of_4]
    assert p2[4] > p[4]
    others = [i for i in same_topic if i != 4]
    assert np.all(p2[others] <= p[others])
    for topic, idx in pool.topics.items():
        if topic != topic_of_4:
            assert np.allclose(p2[idx], p[idx])


def test_gibbs_variational_property():
    rng = np.random.default_rng(14)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        q = rng.uniform(-3, 3, size=n)
        beta = float(rng.uniform(0.5, 4.0))
        scaled = q / beta
        p_star = lmsr_prices(q, beta)

        def free_energy(p):
            nz = p > 0
            return float(np.dot(p, scaled) - np.sum(p[nz] * np.log(p[nz])))

        best = free_energy(p_star)
        for _ in range(1000):
            candidate = rng.dirichlet(np.ones(n))
            assert free_energy(candidate) <= best + 1e-9


def test_topic_prices_symmetric_case():
    pool = make_pool(
        make_record("a", topic="x"),
        make_record("b", topic="x"),
        make_record("c", topic="y"),
        make_record("d", topic="y"),
    )
    p = topic_prices(np.zeros(4), pool, MarketConfig(beta=1.0))
    assert np.allclose(p, 0.25)


def test_topic_prices_weighted_example():
    pool = make_pool(
        make_record("a", topic="t1"),
        make_record("b", topic="t2"),
        make_record("c", topic="t2"),
    )
    cfg = MarketConfig(beta=1.0, topic_budgets={"t1": 0.3, "t2": 0.7})
    p = topic_prices(np.zeros(3), pool, cfg)
    assert np.allclose(p, [0.3, 0.35, 0.35], atol=1e-12)


def test_topic_prices_single_topic_reduces_to_flat():
    rng = np.random.default_rng(15)
    pool = make_pool(*[make_record(f"e{i}") for i in range(10)])
    q = rng.normal(size=10)
    flat = lmsr_prices(q, 2.0)
    viaTopics = topic_prices(q, pool, MarketConfig(beta=2.0, topic_budgets={"t": 1.0}))
    assert np.allclose(flat, viaTopics, atol=1e-15)


def test_topic_mass_conservation_random():
    rng = np.random.default_rng(16)
    for _ in range(20):
        pool = random_pool(rng, int(rng.integers(5, 60)), n_topics=int(rng.integers(1, 6)))
        topics = list(pool.topics)
        raw = rng.uniform(0.1, 1.0, size=len(topics))
        alphas = {t: float(a) for t, a in zip(topics, raw / raw.sum())}
        betas = {t: float(rng.uniform(0.5, 5.0)) for t in topics}
        cfg = MarketConfig(beta=betas, topic_budgets=alphas)
        q = rng.uniform(-10, 10, size=pool.n)
        p = topic_prices(q, pool, cfg)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        for t, idx in pool.topics.items():
            assert p[idx].sum() == pytest.approx(alphas[t], abs=1e-9)


def test_zero_alpha_topic_gets_zero_price():
    pool = make_pool(
        make_record("a", topic="x"),
        make_record("b", topic="y"),
        make_record("c", topic="y"),
    )
    cfg = MarketConfig(beta=1.0, topic_budgets={"x": 0.0, "y": 1.0})
    p = topic_prices(np.ones(3), pool, cfg)
    assert p[0] == 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_topic_config_errors():
    pool = make_pool(make_record("a", topic="x"), make_record("b", topic="y"))
    with pytest.raises(ConfigError, match="'y'"):
        topic_prices(np.zeros(2), pool, MarketConfig(topic_budgets={"x": 1.0}))
    with pytest.raises(ConfigError, match="sum to 1"):
        topic_prices(
            np.zeros(2), pool, MarketConfig(topic_budgets={"x": 0.6, "y": 0.6})
        )
    with pytest.raises(ConfigError):
        MarketConfig(beta=0.0)
    with pytest.raises(ConfigError):
        MarketConfig(topic_budgets={"x": -0.2, "y": 1.2})
    with pytest.raises(ConfigError, match="beta must be a number, got 'x'"):
        MarketConfig(beta="x")
    with pytest.raises(ConfigError, match=r"alpha must be a name or a JSON object, got \[1\]"):
        MarketConfig(topic_budgets=[1])


def test_price_pool_composes(tiny_pool):
    table = StandardizedTable(columns={"nll": np.array([0.5, -0.5, 0.0])})
    weights = Weights({"nll": 1.0})
    cfg = MarketConfig(beta=2.0)
    state = price_pool(tiny_pool, table, weights, cfg)
    q = aggregate_shares(table, weights)
    assert np.array_equal(state.shares, q)
    assert np.array_equal(state.prices, topic_prices(q, tiny_pool, cfg))
    cost, per_topic = topic_cost(q, tiny_pool, cfg)
    assert state.cost == pytest.approx(cost)
    assert set(per_topic) == {"x", "y"}
    assert sum(per_topic.values()) == pytest.approx(cost)


def test_price_pool_uniform_signals_give_uniform_topic_prices(tiny_pool):
    table = StandardizedTable(columns={"nll": np.zeros(3)})
    state = price_pool(tiny_pool, table, Weights({"nll": 1.0}), MarketConfig())
    # within-topic uniformity under proportional budgets
    assert np.allclose(state.prices, [1.0 / 3.0] * 3)


def test_extreme_shares_stay_finite():
    q = np.array([1e4, -1e4, 0.0])
    p = lmsr_prices(q, 1e-3)
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0)
    assert np.isfinite(lmsr_cost(q, 1e-3))


def test_the_topic_views_keep_the_arithmetic_of_one_softmax_and_lse_per_topic():
    pool = random_pool(np.random.default_rng(3), 40, n_topics=4)
    q = np.random.default_rng(4).normal(size=pool.n)
    cfg = MarketConfig(beta={f"t{i}": 0.3 + i for i in range(4)},
                       topic_budgets={"t0": 0.1, "t1": 0.0, "t2": 0.6, "t3": 0.3})
    p = np.zeros(pool.n)
    per_topic = {}
    for topic, idx in pool.topics.items():
        alpha, beta = cfg.alphas(pool)[topic], cfg.beta_for(topic)
        scaled = q[idx] / beta
        m = scaled.max()
        e = np.exp(scaled - m)
        s = e.sum()
        if alpha:
            p[idx] = alpha * (e / s)
        per_topic[topic] = alpha * beta * (m + np.log(s)) if alpha else 0.0
    assert np.array_equal(topic_prices(q, pool, cfg), p)
    assert topic_cost(q, pool, cfg) == (sum(per_topic.values()), per_topic)
    table = table_of(a=q)
    state = price_pool(pool, table, Weights({"a": 1.0}), cfg)
    assert np.array_equal(state.prices, p) and state.cost == sum(per_topic.values())


def test_price_pool_runs_the_kernel_once_per_priced_topic(monkeypatch):
    pool = random_pool(np.random.default_rng(5), 30, n_topics=3)
    calls = []
    kernel = market_module._lmsr

    def counted(q, beta):
        calls.append(beta)
        return kernel(q, beta)

    monkeypatch.setattr(market_module, "_lmsr", counted)
    # the zero-budget topic has no liquidity: it is skipped before beta is looked up
    cfg = MarketConfig(beta={"t0": 1.0, "t2": 3.0},
                       topic_budgets={"t0": 0.25, "t1": 0.0, "t2": 0.75})
    state = price_pool(pool, table_of(a=np.linspace(-1, 1, pool.n)), Weights({"a": 1.0}), cfg)
    assert sorted(calls) == [1.0, 3.0]
    assert not state.prices[pool.topics["t1"]].any()


@pytest.mark.parametrize("beta", [5e-324, 1e-320, 1e308])
def test_a_liquidity_the_float_range_cannot_price_is_refused(beta):
    # at 1e308 each topic's cost is finite (alpha * beta * log 8 < 1.8e308)
    # and only their total is not
    pool = make_pool(*[make_record(f"{t}{i}", topic=t) for t in "xy" for i in range(8)])
    q = np.linspace(-1.0, 1.0, pool.n)
    cfg = MarketConfig(beta=beta)
    table = table_of(a=q)
    message = rf"^liquidity {re.escape(repr(beta))} cannot price topic '[xy]': its prices"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for price in (lambda: topic_prices(q, pool, cfg), lambda: topic_cost(q, pool, cfg),
                      lambda: price_pool(pool, table, Weights({"a": 1.0}), cfg)):
            with pytest.raises(ValidationError, match=message):
                price()


def test_a_tiny_liquidity_that_still_prices_gives_the_limit_without_a_warning():
    pool = make_pool(make_record("a", topic="t"), make_record("b", topic="t"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # -1 / 1e-320 overflows to -inf, whose price is an exact 0
        p = topic_prices(np.array([0.0, -1.0]), pool, MarketConfig(beta=1e-320))
        assert topic_cost(np.array([0.0, -1.0]), pool, MarketConfig(beta=1e-320)) == (
            0.0, {"t": 0.0})
    assert p.tolist() == [1.0, 0.0]


BETAS = [1e-3, 0.5, 2.0, 1e6]


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", [1, 2, 37, 5000])
def test_the_flat_market_is_price_pool_on_one_topic(n, beta):
    # the flat functions are the shipped market's one-topic case, bit for bit
    pool = make_pool(*[make_record(f"e{i:04d}") for i in range(n)])
    q = np.random.default_rng(n).normal(scale=3.0, size=n)
    state = price_pool(pool, table_of(a=q), Weights({"a": 1.0}), MarketConfig(beta=beta))
    assert state.prices.tobytes() == lmsr_prices(q, beta).tobytes()
    assert state.cost == lmsr_cost(q, beta)


@pytest.mark.parametrize("beta", BETAS)
def test_the_topic_views_are_price_pool(beta):
    pool = random_pool(np.random.default_rng(8), 500, n_topics=5)
    assert len(pool.topics) == 5
    q = np.random.default_rng(9).normal(scale=3.0, size=pool.n)
    cfg = MarketConfig(beta=beta)
    state = price_pool(pool, table_of(a=q), Weights({"a": 1.0}), cfg)
    assert topic_prices(q, pool, cfg).tobytes() == state.prices.tobytes()
    assert topic_cost(q, pool, cfg)[0] == state.cost
