"""Empirical checks of the selector's statistical behavior.

Three harnesses:

* simulate_recovery: how much of the best achievable utility a top-K
  price selection captures when signals are noisy monotone functions of
  a hidden utility;
* sweep_corruption: how far prices move when one signal column is
  adversarially blended toward its clipping bound;
* sweep_hyperparams: how the selected set drifts across a liquidity /
  length-bias grid, measured by Jaccard overlap with the default
  configuration.

Trials use generators derived from (seed, trial index), so results are
independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Collection

import numpy as np

from .errors import ConfigError, ValidationError, require_finite
from .market import DEFAULT_BETA, MarketConfig, MarketState, Weights, lmsr_prices, price_pool
from .pool import Pool, token_sum
from .selection import DEFAULT_GAMMA, SelectionConfig, greedy_select
from .standardize import DEFAULT_TAU, StandardizeConfig, StandardizedTable, standardize_values

MONOTONE_FAMILIES = ("linear", "logistic")


@dataclass
class RecoverySimConfig:
    n: int
    m: int = 3
    sigma: float = 0.5
    k: int = 50
    monotone_family: str = "linear"
    trials: int = 50
    seed: int = 0
    beta: float = DEFAULT_BETA
    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        require_finite("sigma", self.sigma)
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.monotone_family not in MONOTONE_FAMILIES:
            raise ConfigError(
                f"monotone_family must be one of {MONOTONE_FAMILIES}, "
                f"got {self.monotone_family!r}"
            )


@dataclass
class RecoveryResult:
    sigma: float
    k: int
    mean_ratio: float
    empirical_epsilon: float
    ratios: list[float] = field(default_factory=list)


def _top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values; ties broken by ascending index."""
    order = np.lexsort((np.arange(values.size), -values))
    return order[:k]


def simulate_recovery(cfg: RecoverySimConfig) -> RecoveryResult:
    """Measure recovered utility against the best possible top-k subset.

    Per trial: hidden utilities are uniform on [0, 1]; each signal is a
    random increasing function of utility plus Gaussian noise of scale
    sigma. Signals are standardized (robust, clipped), averaged with
    equal weights, priced with a flat softmax market, and the k
    highest-priced examples are taken. The ratio compares their true
    utility sum to that of the true top-k.

    The expected shortfall 1 - ratio is not monotone in k. At fixed n and
    sigma it rises while the reference top-k tightens, peaks near
    k ~ 10-15% of n at sigma=0.5 (earlier for smaller sigma, later for
    larger), and then falls to 0 at k = n. tests/recovery_oracle.py
    computes this curve by quadrature for the "linear" family.
    """
    ratios: list[float] = []
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, trial])
        utilities = rng.uniform(size=cfg.n)
        q = np.zeros(cfg.n, dtype=np.float64)
        for _ in range(cfg.m):
            if cfg.monotone_family == "linear":
                slope = rng.uniform(0.5, 1.5)
                intercept = rng.uniform(-1.0, 1.0)
                signal = slope * utilities + intercept
            else:
                steepness = rng.uniform(2.0, 10.0)
                signal = 1.0 / (1.0 + np.exp(-steepness * (utilities - 0.5)))
            signal = signal + cfg.sigma * rng.normal(size=cfg.n)
            standardized, _ = standardize_values(signal, "robust", cfg.tau)
            q += standardized / cfg.m
        prices = lmsr_prices(q, cfg.beta)
        chosen = _top_k(prices, cfg.k)
        best = _top_k(utilities, cfg.k)
        ratios.append(float(utilities[chosen].sum() / utilities[best].sum()))
    mean_ratio = float(np.mean(ratios))
    return RecoveryResult(
        sigma=cfg.sigma,
        k=cfg.k,
        mean_ratio=mean_ratio,
        empirical_epsilon=1.0 - mean_ratio,
        ratios=ratios,
    )


def recovery_grid(
    cfg: RecoverySimConfig, sigmas: list[float], ks: list[int]
) -> list[RecoveryResult]:
    """simulate_recovery over the (sigma, k) grid, sharing the seed
    derivation so grid points reuse common random draws."""
    if not sigmas or not ks:
        raise ConfigError("sigma and k grids must be nonempty")
    # every grid point is validated (each k against n) before any runs
    points = [replace(cfg, sigma=sigma, k=k) for sigma in sigmas for k in ks]
    return [simulate_recovery(point) for point in points]


@dataclass
class CorruptionSweepConfig:
    epsilons: list[float]
    target_signal: str
    tau: float = DEFAULT_TAU
    betas: list[float] = field(default_factory=lambda: [DEFAULT_BETA])

    def __post_init__(self) -> None:
        if not self.epsilons:
            raise ConfigError("epsilon grid must be nonempty")
        for eps in self.epsilons:
            if not 0.0 <= eps <= 1.0:
                raise ConfigError(f"epsilon must be in [0, 1], got {eps}")
        if not self.betas:
            raise ConfigError("beta grid must be nonempty")
        # the market's and the standardization's own checks of beta and tau
        for beta in self.betas:
            MarketConfig(beta=beta)
        StandardizeConfig(tau=self.tau)


def check_target_signal(target: str, columns: Collection[str], weights: Weights) -> None:
    """The corrupted signal must be a signal column with a weight."""
    if target not in columns:
        raise ValidationError(
            f"target signal {target!r} not in table; available: {sorted(columns)}"
        )
    if target not in weights.w:
        raise ValidationError(f"target signal {target!r} carries no weight")


def sweep_corruption(
    pool: Pool,
    table: StandardizedTable,
    weights: Weights,
    cfg: CorruptionSweepConfig,
) -> list[dict[str, float]]:
    """Blend the target column toward the worst in-bounds direction and
    reprice for every (epsilon, beta) pair.

    The corrupted column is (1 - eps) * z + eps * eta with
    eta = -tau * sign(z), the most adversarial choice allowed by the
    clipping bound. Each row records the L1 price movement, the max-norm
    share movement, and its algebraic bound 2 * tau * eps * w.
    """
    check_target_signal(cfg.target_signal, table.columns, weights)
    z = table.columns[cfg.target_signal]
    if np.max(np.abs(z)) > cfg.tau:
        raise ValidationError(
            f"column {cfg.target_signal!r} exceeds the clip radius {cfg.tau}"
        )
    w_star = weights.w[cfg.target_signal]
    eta = -cfg.tau * np.sign(z)

    rows: list[dict[str, float]] = []
    for beta in cfg.betas:
        market = MarketConfig(beta=beta)
        base = price_pool(pool, table, weights, market)
        for eps in cfg.epsilons:
            corrupted = dict(table.columns)
            corrupted[cfg.target_signal] = (1.0 - eps) * z + eps * eta
            new_table = StandardizedTable(columns=corrupted, tau=table.tau)
            new = price_pool(pool, new_table, weights, market)
            rows.append(
                {
                    "epsilon": float(eps),
                    "beta": float(beta),
                    "price_l1_change": float(np.abs(new.prices - base.prices).sum()),
                    "share_linf_change": float(np.abs(new.shares - base.shares).max()),
                    "share_linf_bound": float(2.0 * cfg.tau * eps * w_star),
                }
            )
    return rows


def sweep_hyperparams(
    pool: Pool,
    table: StandardizedTable,
    weights: Weights,
    budget_tokens: int,
    beta_grid: list[float],
    gamma_grid: list[float],
) -> list[dict[str, object]]:
    """Grid the liquidity and length-bias knobs and compare each selected
    set against the default configuration's set (DEFAULT_BETA,
    DEFAULT_GAMMA) by Jaccard overlap."""
    if not beta_grid or not gamma_grid:
        raise ConfigError("beta and gamma grids must be nonempty")

    def _select(beta: float, gamma: float) -> tuple[MarketState, list[str]]:
        state = price_pool(pool, table, weights, MarketConfig(beta=beta))
        report = greedy_select(
            state, pool, SelectionConfig(budget_tokens=budget_tokens, gamma=gamma)
        )
        return state, report.selected

    default_set = set(_select(DEFAULT_BETA, DEFAULT_GAMMA)[1])
    rows: list[dict[str, object]] = []
    for beta, gamma in product(beta_grid, gamma_grid):
        state, ordered = _select(beta, gamma)
        chosen = set(ordered)
        union = default_set | chosen
        jaccard = 1.0 if not union else len(default_set & chosen) / len(union)
        idx = [pool.index_of(rid) for rid in ordered]
        lengths = pool.token_lengths[idx]
        # summed one at a time in score order: np.sum would pair the terms
        # differently and change the last bits of the written masses
        mass = [0.0] * len(pool.topic_names)
        for code, price in zip(pool.topic_codes[idx].tolist(), state.prices[idx].tolist()):
            mass[code] += price
        topic_mass = dict(zip(pool.topic_names, mass))
        rows.append(
            {
                "beta": float(beta),
                "gamma": float(gamma),
                "jaccard_vs_default": float(jaccard),
                "n_selected": len(ordered),
                "tokens_used": token_sum(lengths),
                "median_tokens": float(np.median(lengths)) if lengths.size else 0.0,
                "topic_price_mass": topic_mass,
            }
        )
    return rows
