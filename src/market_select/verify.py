"""Empirical checks of the selector's statistical behavior.

Three harnesses:

* simulate_recovery: how much of the best achievable utility the shipped
  stages capture, on one topic, when signals are noisy monotone
  functions of a hidden utility;
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
from typing import Collection

import numpy as np

from .errors import ConfigError, ValidationError, require_finite
from .market import DEFAULT_BETA, MarketConfig, MarketState, Weights, price_pool
from .pool import Pool, token_sum
from .selection import DEFAULT_GAMMA, SelectionConfig, greedy_pass, scan_order
from .signals import SignalTable
from .standardize import DEFAULT_TAU, StandardizeConfig, StandardizedTable, standardize_table

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
        StandardizeConfig(tau=self.tau)  # the stages' own checks of tau and beta
        MarketConfig(beta=self.beta)


@dataclass
class RecoveryResult:
    sigma: float
    k: int
    mean_ratio: float
    empirical_epsilon: float
    ratios: list[float] = field(default_factory=list)


def simulate_recovery(cfg: RecoverySimConfig) -> RecoveryResult:
    """Measure recovered utility against the best possible top-k subset.

    Per trial: hidden utilities are uniform on [0, 1]; each signal is a
    random increasing function of utility plus Gaussian noise of scale
    sigma. On one topic of unit-length rows, the stages ``select`` ships
    (robust standardization clipped to tau, equal weights, the market at
    liquidity beta, the price-per-token scan with k tokens) take the k
    highest-priced examples. The ratio compares their true utility sum to
    that of the true top-k.

    The expected shortfall 1 - ratio is not monotone in k. At fixed n and
    sigma it rises while the reference top-k tightens, peaks near
    k ~ 10-15% of n at sigma=0.5 (earlier for smaller sigma, later for
    larger), and then falls to 0 at k = n. tests/recovery_oracle.py
    computes this curve by quadrature for the "linear" family.
    """
    return recovery_grid(cfg, [cfg.sigma], [cfg.k])[0]


def recovery_grid(
    cfg: RecoverySimConfig, sigmas: list[float], ks: list[int]
) -> list[RecoveryResult]:
    """simulate_recovery over the (sigma, k) grid, sigma-major. Each trial
    draws once, each (sigma, trial) is standardized, priced and put in scan
    order once, and every k takes one greedy pass over that order."""
    if not sigmas or not ks:
        raise ConfigError("sigma and k grids must be nonempty")
    # every grid point is validated (each k against n) before any runs
    points = [replace(cfg, sigma=sigma, k=k) for sigma in sigmas for k in ks]
    # ids sort in index order, so the scan breaks price ties by ascending index
    width = len(str(cfg.n - 1))
    pool = Pool.from_rows({"id": f"{i:0{width}d}", "topic": "recovery", "tokens": 1}
                          for i in range(cfg.n))
    weights = Weights.equal([f"s{j}" for j in range(cfg.m)])
    ratios: list[list[float]] = [[] for _ in points]
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, trial])
        utilities = rng.uniform(size=cfg.n)
        draws = {}  # signal name -> (noiseless signal, standard normal noise)
        for name in weights.names:
            if cfg.monotone_family == "linear":
                signal = rng.uniform(0.5, 1.5) * utilities + rng.uniform(-1.0, 1.0)
            else:
                signal = 1.0 / (1.0 + np.exp(-rng.uniform(2.0, 10.0) * (utilities - 0.5)))
            draws[name] = signal, rng.normal(size=cfg.n)
        best = -np.sort(-utilities)  # descending
        for s, sigma in enumerate(sigmas):
            # noise beyond the float range overflows to +-inf, which validate() refuses
            with np.errstate(over="ignore"):
                table = SignalTable({name: x + sigma * z for name, (x, z) in draws.items()})
            table.validate()
            std = standardize_table(table, pool, StandardizeConfig("robust", cfg.tau))
            state = price_pool(pool, std, weights, MarketConfig(beta=cfg.beta))
            order = scan_order(state, pool, DEFAULT_GAMMA)[1]
            for j, k in enumerate(ks):
                chosen = greedy_pass(pool, order, k)[0]
                ratios[s * len(ks) + j].append(float(utilities[chosen].sum() / best[:k].sum()))
    means = [float(np.mean(r)) for r in ratios]
    return [RecoveryResult(p.sigma, p.k, m, 1.0 - m, r) for p, m, r in zip(points, means, ratios)]


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
    for gamma in gamma_grid:  # the selection's own checks, before anything is priced
        SelectionConfig(budget_tokens, gamma=gamma)

    def _select(state: MarketState, gamma: float) -> np.ndarray:
        return greedy_pass(pool, scan_order(state, pool, gamma)[1], budget_tokens)[0]

    def _price(beta: float) -> MarketState:
        return price_pool(pool, table, weights, MarketConfig(beta=beta))

    # the grid's point at the defaults reuses their prices and selection
    default_state = _price(DEFAULT_BETA)
    default = _select(default_state, DEFAULT_GAMMA)
    in_default = np.zeros(pool.n, dtype=bool)
    in_default[default] = True
    rows: list[dict[str, object]] = []
    for beta in beta_grid:
        at_default = beta == DEFAULT_BETA
        state = default_state if at_default else _price(beta)
        for gamma in gamma_grid:
            idx = default if at_default and gamma == DEFAULT_GAMMA else _select(state, gamma)
            common = int(np.count_nonzero(in_default[idx]))
            union = default.size + idx.size - common
            lengths = pool.token_lengths[idx]
            # bincount adds the weights one at a time, in score order, as a
            # Python loop would, so the masses are bit-identical to that
            # loop's; np.sum would pair the terms differently
            mass = np.bincount(pool.topic_codes[idx], weights=state.prices[idx],
                               minlength=len(pool.topic_names))
            rows.append(
                {
                    "beta": float(beta),
                    "gamma": float(gamma),
                    "jaccard_vs_default": common / union if union else 1.0,
                    "n_selected": idx.size,
                    "tokens_used": token_sum(lengths),
                    "median_tokens": float(np.median(lengths)) if lengths.size else 0.0,
                    "topic_price_mass": dict(zip(pool.topic_names, mass.tolist())),
                }
            )
    return rows
