"""Cost-function market pricing over the example pool.

Shares are weighted sums of standardized signals. There is one market:
it prices each topic's shares with a log-sum-exp cost and its softmax
gradient, and scales each topic's price mass to its budget alpha_t, so
the global price vector stays a probability distribution while examples
compete only within their own topic. On a one-topic pool it is the flat
LMSR market; ``lmsr_cost`` and ``lmsr_prices`` are that case.

Each topic's prices and cost share one max-subtracted exp, so
liquidities as extreme as 1e-3 or 1e6 stay finite. A liquidity whose
prices or cost would leave the float range anyway (below about 1e-308,
or near 1e308) is refused with a ValidationError naming it and the topic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Mapping

import numpy as np

from .errors import ConfigError, ValidationError, require_finite
from .pool import Pool
from .standardize import StandardizedTable

ALPHA_SUM_TOL = 1e-9
DEFAULT_BETA = 2.0


@dataclass
class Weights:
    """Nonnegative per-signal weights; at least one must be positive."""

    w: dict[str, float]

    def __post_init__(self) -> None:
        if not self.w:
            raise ValidationError("weights must not be empty")
        for name, value in self.w.items():
            if not np.isfinite(value) or value < 0:
                raise ValidationError(
                    f"weight for {name!r} must be finite and >= 0, got {value}"
                )
        if not any(v > 0 for v in self.w.values()):
            raise ValidationError("at least one weight must be positive")

    @property
    def names(self) -> list[str]:
        return list(self.w)

    def require_columns(self, columns: Collection[str]) -> None:
        """Every weighted name must be one of the signal columns."""
        for name in self.w:
            if name not in columns:
                raise ValidationError(
                    f"weight refers to unknown signal column {name!r}; "
                    f"available: {sorted(columns)}"
                )

    @staticmethod
    def equal(names: list[str]) -> "Weights":
        if not names:
            raise ValidationError("cannot build equal weights over zero signals")
        return Weights({name: 1.0 / len(names) for name in names})


@dataclass
class MarketConfig:
    """Liquidity and topic-budget settings.

    beta is either one global liquidity or a per-topic map; topic_budgets
    is a map summing to 1 or the directive "proportional" (budget
    proportional to topic size, preserving pool composition).
    """

    beta: float | Mapping[str, float] = DEFAULT_BETA
    topic_budgets: str | Mapping[str, float] = "proportional"

    def __post_init__(self) -> None:
        betas = self.beta.items() if isinstance(self.beta, Mapping) else [(None, self.beta)]
        for topic, b in betas:
            name = "beta" if topic is None else f"beta for topic {topic!r}"
            require_finite(name, b)
            if not b > 0:
                raise ConfigError(f"{name} must be positive, got {b}")
        if isinstance(self.topic_budgets, Mapping):
            for topic, a in self.topic_budgets.items():
                require_finite(f"alpha for topic {topic!r}", a)
                if a < 0:
                    raise ConfigError(f"alpha for topic {topic!r} must be >= 0, got {a}")
        elif not isinstance(self.topic_budgets, str):
            raise ConfigError(f"alpha must be a name or a JSON object, got {self.topic_budgets!r}")
        elif self.topic_budgets != "proportional":
            raise ConfigError(
                f"topic_budgets must be a map or 'proportional', got {self.topic_budgets!r}"
            )

    def beta_for(self, topic: str) -> float:
        if not isinstance(self.beta, Mapping):
            return float(self.beta)
        if topic not in self.beta:
            raise ConfigError(f"no liquidity configured for topic {topic!r}")
        return float(self.beta[topic])

    def alphas(self, pool: Pool) -> dict[str, float]:
        """Resolved topic budgets covering every pool topic, summing to 1."""
        if self.topic_budgets == "proportional":
            return {t: idx.size / pool.n for t, idx in pool.topics.items()}
        alphas = {}
        for topic in pool.topics:
            if topic not in self.topic_budgets:
                raise ConfigError(f"no topic budget configured for topic {topic!r}")
            alphas[topic] = float(self.topic_budgets[topic])
        total = sum(alphas.values())
        if abs(total - 1.0) > ALPHA_SUM_TOL:
            raise ConfigError(f"topic budgets over pool topics must sum to 1, got {total!r}")
        return alphas


@dataclass
class MarketState:
    """Priced market: shares q, prices p (a distribution), and total cost."""

    shares: np.ndarray
    prices: np.ndarray
    cost: float


def aggregate_shares(table: StandardizedTable, weights: Weights) -> np.ndarray:
    """q_i = sum_m w_m * standardized signal m at i.

    Every weighted name must exist as a table column; columns without a
    weight are simply not traded.
    """
    weights.require_columns(table.columns)
    q = np.zeros(table.n, dtype=np.float64)
    for name, w in weights.w.items():
        q += w * table.columns[name]
    return q


def _lmsr(q: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """softmax(q / beta) and LSE(q / beta), from one exp of q / beta less its max."""
    scaled = q / beta
    m = scaled.max()
    e = np.exp(scaled - m)
    s = e.sum()
    return e / s, float(m + np.log(s))


def _price_topics(q: np.ndarray, pool: Pool, cfg: MarketConfig) -> tuple[np.ndarray, float, dict]:
    """Prices, total cost and per-topic costs in one pass over the topics.
    A topic's prices are finite exactly when its LSE is, so a total cost
    that is not finite is the one sign of a liquidity out of range."""
    q = _check_shares(q, expected=pool.n)
    alphas = cfg.alphas(pool)
    p = np.zeros(pool.n, dtype=np.float64)
    costs: dict[str, float] = {}
    with np.errstate(all="ignore"):  # a result out of range is refused below
        for topic, idx in pool.topics.items():
            alpha = alphas[topic]
            if alpha == 0.0:
                costs[topic] = 0.0
                continue
            beta = cfg.beta_for(topic)
            prices, lse = _lmsr(q[idx], beta)
            p[idx] = alpha * prices
            costs[topic] = alpha * beta * lse
    total = sum(costs.values())
    if not math.isfinite(total):
        # the first topic whose cost is not finite, else the largest cost
        topic = max(costs, key=lambda t: math.inf if math.isnan(costs[t]) else abs(costs[t]))
        raise ValidationError(f"liquidity {cfg.beta_for(topic)!r} cannot price topic {topic!r}: "
                              "its prices or the market cost leave the float range")
    return p, total, costs


def price_pool(
    pool: Pool, table: StandardizedTable, weights: Weights, cfg: MarketConfig | None = None
) -> MarketState:
    """Aggregate shares, then price the topic-separable market."""
    cfg = cfg or MarketConfig()
    if table.n != pool.n:
        raise ValidationError(f"table has {table.n} rows but pool has {pool.n} records")
    q = aggregate_shares(table, weights)
    p, cost, _ = _price_topics(q, pool, cfg)
    return MarketState(shares=q, prices=p, cost=cost)


# The package calls none of the four functions below. lmsr_cost and
# lmsr_prices are the market's one-topic case (price_pool on one topic
# gives the same prices and cost, bit for bit), and topic_prices and
# topic_cost are views over _price_topics. They stay because the
# benchmark's tracer (perfbench/tracing.py) looks them up by name.
def lmsr_cost(q: np.ndarray, beta: float) -> float:
    """beta * log(sum_j exp(q_j / beta)), computed via max subtraction."""
    q = _check_shares(q)
    if not beta > 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    return beta * _lmsr(q, beta)[1]


def lmsr_prices(q: np.ndarray, beta: float) -> np.ndarray:
    """softmax(q / beta): the gradient of lmsr_cost; sums to 1."""
    q = _check_shares(q)
    if not beta > 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    return _lmsr(q, beta)[0]


def topic_prices(q: np.ndarray, pool: Pool, cfg: MarketConfig) -> np.ndarray:
    """Per-topic softmax scaled by the topic budget.

    Each topic's price mass equals its alpha_t exactly; a zero-budget
    topic gets exactly zero price everywhere. Its examples then score 0,
    so the selection scan reaches them after every priced example: they
    fill leftover budget last.
    """
    return _price_topics(q, pool, cfg)[0]


def topic_cost(q: np.ndarray, pool: Pool, cfg: MarketConfig) -> tuple[float, dict[str, float]]:
    """Total and per-topic cost: sum_t alpha_t * beta_t * LSE(q_t / beta_t)."""
    _, total, costs = _price_topics(q, pool, cfg)
    return total, costs


def _check_shares(q: np.ndarray, expected: int | None = None) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValidationError("share vector must be 1-D and non-empty")
    if expected is not None and q.size != expected:
        raise ValidationError(f"share vector has length {q.size}, expected {expected}")
    if not np.all(np.isfinite(q)):
        raise ValidationError("share vector contains non-finite values")
    return q
