from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from market_select import tune as tune_module
from market_select.errors import ConfigError, ValidationError
from market_select.market import Weights
from market_select.standardize import StandardizedTable
from market_select.tune import (
    DevFeedback,
    TuneConfig,
    eg_update,
    load_dev_feedback,
    signal_reward,
    tune_weights,
)

from conftest import make_pool, make_record


def pool_with_ids(n: int):
    return make_pool(*[make_record(f"e{i:04d}") for i in range(n)])


def test_eg_update_equal_rewards_is_identity():
    w = Weights({"a": 0.3, "b": 0.7})
    updated = eg_update(w, {"a": 0.5, "b": 0.5}, eta=0.4)
    assert updated.w["a"] == pytest.approx(0.3, abs=1e-12)
    assert updated.w["b"] == pytest.approx(0.7, abs=1e-12)


def test_eg_update_closed_form():
    w = Weights({"a": 0.5, "b": 0.5})
    updated = eg_update(w, {"a": 1.0, "b": 0.0}, eta=math.log(2.0))
    assert updated.w["a"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert updated.w["b"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_eg_update_large_eta_concentrates():
    w = Weights({"a": 0.5, "b": 0.5})
    updated = eg_update(w, {"a": 1.0, "b": 0.0}, eta=50.0)
    assert updated.w["a"] > 0.999999
    assert updated.w["a"] + updated.w["b"] == pytest.approx(1.0, abs=1e-12)


def test_eg_update_reward_shift_invariant():
    w = Weights({"a": 0.25, "b": 0.75})
    base = eg_update(w, {"a": 0.2, "b": 0.9}, eta=0.7)
    shifted = eg_update(w, {"a": 0.2 + 5.0, "b": 0.9 + 5.0}, eta=0.7)
    for name in w.names:
        assert shifted.w[name] == pytest.approx(base.w[name], abs=1e-12)


def test_eg_update_stays_on_simplex():
    rng = np.random.default_rng(0)
    w = Weights.equal(["a", "b", "c"])
    for _ in range(200):
        rewards = {name: float(rng.uniform()) for name in w.names}
        w = eg_update(w, rewards, eta=0.1)
        assert sum(w.w.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in w.w.values())


def test_eg_update_missing_reward():
    with pytest.raises(ValidationError, match="'b'"):
        eg_update(Weights({"a": 0.5, "b": 0.5}), {"a": 1.0}, eta=0.1)


def std_table(pool, **columns) -> StandardizedTable:
    return StandardizedTable(
        columns={k: np.asarray(v, dtype=float) for k, v in columns.items()}
    )


def test_signal_reward_perfect_and_negated():
    n = 50
    pool = pool_with_ids(n)
    rng = np.random.default_rng(1)
    utility = rng.normal(size=n)
    feedback = DevFeedback({pool.ids[i]: float(utility[i]) for i in range(n)})
    table = std_table(pool, aligned=utility, negated=-utility)
    rewards = signal_reward(table, feedback, pool)
    assert rewards["aligned"] == pytest.approx(1.0)
    assert rewards["negated"] == pytest.approx(0.0)


def test_signal_reward_independent_noise_near_half():
    n = 1000
    pool = pool_with_ids(n)
    rng = np.random.default_rng(2)
    utility = rng.normal(size=n)
    noise = rng.normal(size=n)
    feedback = DevFeedback({pool.ids[i]: float(utility[i]) for i in range(n)})
    rewards = signal_reward(std_table(pool, noise=noise), feedback, pool)
    assert abs(rewards["noise"] - 0.5) <= 0.05


def test_signal_reward_requires_three_ids():
    pool = pool_with_ids(5)
    feedback = DevFeedback({"e0000": 1.0, "e0001": 2.0})
    with pytest.raises(ValidationError, match="at least 3"):
        signal_reward(std_table(pool, s=np.zeros(5)), feedback, pool)


def test_signal_reward_constant_column_neutral():
    pool = pool_with_ids(10)
    feedback = DevFeedback({rid: float(i) for i, rid in enumerate(pool.ids)})
    rewards = signal_reward(std_table(pool, flat=np.zeros(10)), feedback, pool)
    assert rewards["flat"] == 0.5


def test_signal_reward_equals_scipy_spearman():
    from scipy.stats import spearmanr  # the reference implementation

    rng = np.random.default_rng(11)
    for n in (3, 4, 7, 50, 500, 5000):
        pool = pool_with_ids(n)
        utility = np.round(rng.normal(size=n), 1)  # tied utilities
        feedback = DevFeedback({pool.ids[i]: float(utility[i]) for i in range(n)})
        columns = {
            "continuous": rng.normal(size=n),
            "heavy_ties": rng.integers(0, 3, size=n).astype(float),
            "aligned": utility + rng.integers(0, 2, size=n),
            "signed_zeros": rng.choice([-0.0, 0.0, 1.0], size=n),
            "constant": np.full(n, 1.5),
        }
        rewards = signal_reward(std_table(pool, **columns), feedback, pool)
        for name, col in columns.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy warns on a constant input
                rho = spearmanr(col, utility).statistic
            expected = (float(rho) + 1.0) / 2.0 if np.isfinite(rho) else 0.5
            assert rewards[name] == expected, (n, name)
        assert rewards["constant"] == 0.5


def test_signal_reward_constant_utilities_neutral():
    pool = pool_with_ids(10)
    feedback = DevFeedback({rid: 3.0 for rid in pool.ids})
    rewards = signal_reward(std_table(pool, ramp=np.arange(10.0)), feedback, pool)
    assert rewards == {"ramp": 0.5}


def test_tune_zero_rounds_returns_equal():
    pool = pool_with_ids(10)
    feedback = DevFeedback({rid: float(i) for i, rid in enumerate(pool.ids)})
    table = std_table(pool, a=np.arange(10.0), b=np.arange(10.0)[::-1])
    result = tune_weights(table, feedback, pool, TuneConfig(rounds=0))
    assert result.weights.w == {"a": 0.5, "b": 0.5}
    assert result.trajectory == []


def test_tune_aligned_signal_dominates():
    n = 400
    pool = pool_with_ids(n)
    rng = np.random.default_rng(3)
    utility = rng.normal(size=n)
    feedback = DevFeedback({pool.ids[i]: float(utility[i]) for i in range(n)})
    table = std_table(
        pool,
        aligned=utility,
        noise1=rng.normal(size=n),
        noise2=rng.normal(size=n),
    )
    result = tune_weights(table, feedback, pool, TuneConfig(eta=0.1, rounds=50))
    w = result.weights.w
    assert w["aligned"] > w["noise1"]
    assert w["aligned"] > w["noise2"]
    assert w["aligned"] > 0.6
    assert len(result.trajectory) == 50
    for entry in result.trajectory:
        assert sum(entry["weights"].values()) == pytest.approx(1.0, abs=1e-12)


def test_tune_all_noise_stays_near_uniform():
    n = 1000
    pool = pool_with_ids(n)
    rng = np.random.default_rng(4)
    utility = rng.normal(size=n)
    feedback = DevFeedback({pool.ids[i]: float(utility[i]) for i in range(n)})
    table = std_table(
        pool, **{f"noise{j}": rng.normal(size=n) for j in range(3)}
    )
    result = tune_weights(table, feedback, pool, TuneConfig(eta=0.1, rounds=50))
    for value in result.weights.w.values():
        assert abs(value - 1.0 / 3.0) <= 0.15


def test_tune_permutation_equivariance():
    n = 200
    pool = pool_with_ids(n)
    rng = np.random.default_rng(5)
    utility = rng.normal(size=n)
    cols = {"a": utility + rng.normal(size=n), "b": rng.normal(size=n)}
    feedback = DevFeedback({pool.ids[i]: float(utility[i]) for i in range(n)})
    forward = tune_weights(std_table(pool, **cols), feedback, pool, TuneConfig(rounds=10))
    swapped = tune_weights(
        std_table(pool, b=cols["b"], a=cols["a"]), feedback, pool, TuneConfig(rounds=10)
    )
    assert forward.weights.w["a"] == pytest.approx(swapped.weights.w["a"], abs=1e-12)
    assert forward.weights.w["b"] == pytest.approx(swapped.weights.w["b"], abs=1e-12)


def test_tune_computes_the_rewards_once_per_run(monkeypatch):
    pool = pool_with_ids(5)
    feedback = DevFeedback({rid: 0.0 for rid in pool.ids})
    table = std_table(pool, a=np.zeros(5), b=np.zeros(5))
    calls = []

    def reward(t, f, p):
        calls.append((t, f, p))
        return {"a": 1.0, "b": 0.0}

    monkeypatch.setattr(tune_module, "signal_reward", reward)
    result = tune_weights(table, feedback, pool, TuneConfig(eta=1.0, rounds=5))
    assert result.weights.w["a"] > result.weights.w["b"]
    # the rewards depend only on unchanging inputs: one call serves every round
    assert calls == [(table, feedback, pool)]
    assert [entry["rewards"] for entry in result.trajectory] == [{"a": 1.0, "b": 0.0}] * 5


def test_load_dev_feedback(tmp_path):
    path = tmp_path / "dev.jsonl"
    path.write_text('{"id": "x", "utility": 0.25}\n{"id": "y", "utility": -1.0}\n')
    fb = load_dev_feedback(path)
    assert fb.utilities == {"x": 0.25, "y": -1.0}
    with pytest.raises(ConfigError):
        load_dev_feedback(tmp_path / "absent.jsonl")
    bad = tmp_path / "bad.jsonl"
    for text, kind, error in [
        ('{"id": "x"}\n', ConfigError, "expected keys 'id' and 'utility'"),
        ('\n[1]\n', ConfigError, "expected keys 'id' and 'utility'"),
        ('{"id": "x", "utility": "1"}\n', ConfigError, "'utility' must be a number, got '1'"),
        *[('{"id": "x", "utility": %s}\n' % utility, ValidationError, "utility is not finite")
          for utility in ("NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400)],
    ]:
        bad.write_text(text)
        with pytest.raises(kind) as err:
            load_dev_feedback(bad)
        lineno = 2 if text.startswith("\n") else 1
        assert str(err.value) == f"dev feedback file {bad} line {lineno}: {error}"
    bad.write_text('{"id": "x", "utility": 1}\n[\n')
    with pytest.raises(ConfigError, match=f"^dev feedback file {bad} line 2: invalid JSON"):
        load_dev_feedback(bad)


def test_config_validation():
    with pytest.raises(ConfigError):
        TuneConfig(eta=0.0)
    with pytest.raises(ConfigError):
        TuneConfig(rounds=-1)
    with pytest.raises(ConfigError, match="finite"):
        TuneConfig(eta=float("inf"))
    with pytest.raises(ValidationError):
        DevFeedback({"x": float("inf")})
