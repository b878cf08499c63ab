"""Reference for verify.recovery_grid: the recovery simulation on the flat
market, one grid point at a time.

Per trial, the draws are those of ``verify.recovery_grid``. Each signal
column is standardized with ``standardize_values`` (robust, clipped to
tau), the m columns are averaged, and ``lmsr_prices`` prices the mean. The
k highest prices and the k highest utilities are taken by lexsort, ties
by ascending index, and the ratio compares the chosen utility sum to the
best one. ``recovery_grid`` runs the shipped stages on one topic of
unit-length rows instead, and must give the same ratios bit for bit.
"""

from __future__ import annotations

import numpy as np

from market_select.market import lmsr_prices
from market_select.standardize import standardize_values
from market_select.verify import RecoverySimConfig


def top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values; ties broken by ascending index."""
    order = np.lexsort((np.arange(values.size), -values))
    return order[:k]


def flat_recovery_ratios(cfg: RecoverySimConfig) -> list[float]:
    """One ratio per trial at the grid point (cfg.sigma, cfg.k)."""
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
        chosen = top_k(lmsr_prices(q, cfg.beta), cfg.k)
        best = top_k(utilities, cfg.k)
        ratios.append(float(utilities[chosen].sum() / utilities[best].sum()))
    return ratios
