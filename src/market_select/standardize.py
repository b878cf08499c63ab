"""Within-topic normalization of raw signals.

Three methods: plain z-score (mean / population std), robust
(median / interquartile range), and rank_then_robust (rank-to-[0,1]
first, then robust). Every standardized value is clipped to [-tau, tau]
so that no single signal can dominate share aggregation.

Degenerate scales fall back along the chain IQR -> sigma -> all-zeros,
skipping whichever statistic was the degenerate primary; the fallback is
recorded in the per-topic stats. Constant columns therefore come out as
zeros (neutral in aggregation) rather than blowing up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError, require_finite
from .pool import Pool
from .signals import SignalTable

METHODS = ("zscore", "robust", "rank_then_robust")
DEFAULT_TAU = 2.5


@dataclass
class StandardizeConfig:
    method: str = "robust"
    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown standardization method {self.method!r}; choose from {METHODS}"
            )
        require_finite("tau", self.tau)
        if not self.tau > 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")


@dataclass
class TopicStats:
    """Location/scale actually applied to one (signal, topic) group."""

    location: float
    scale: float
    scale_source: str  # "sigma" | "iqr" | "fallback_sigma" | "fallback_iqr" | "zeros" | "singleton"


@dataclass
class StandardizedTable:
    """Standardized signal columns plus the per-topic stats that produced them."""

    columns: dict[str, np.ndarray]
    stats: dict[str, dict[str, TopicStats]] = field(default_factory=dict)
    tau: float = DEFAULT_TAU

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0


def _order_statistics(values: np.ndarray) -> tuple[np.float64, float]:
    """The median and the interquartile range of a group of at least two
    values, from one ``np.partition`` at the order statistics they read:
    np.median's (the mean of the middle one or two) and np.quantile's at
    0.25 and 0.75 (numpy's linear interpolation), bit for bit."""
    n = values.size
    ranks = []
    for q in (0.25, 0.75):  # np.quantile's virtual index: its floor and weight
        h = (n - 1) * q
        ranks.append((math.floor(h), h - math.floor(h)))
    kth = {(n - 1) // 2, n // 2, *(r for r, _ in ranks), *(r + 1 for r, _ in ranks)}
    part = np.partition(values, sorted(kth))
    q25, q75 = (_lerp(part[r], part[r + 1], t) for r, t in ranks)
    return part[(n - 1) // 2:n // 2 + 1].mean(), float(q75 - q25)


def _lerp(a: np.float64, b: np.float64, t: float) -> np.float64:
    """numpy's quantile interpolation between neighbours a <= b at weight t."""
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def standardize_values(
    values: np.ndarray, method: str, tau: float
) -> tuple[np.ndarray, TopicStats]:
    """Standardize one within-topic group and clip to [-tau, tau].

    A scale is computed only when it is used: the fallback's only when the
    method's own is 0.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 1:
        return np.zeros(1), TopicStats(float(values[0]), 0.0, "singleton")

    if method == "rank_then_robust":
        values = rank_normalize_values(values)
        method = "robust"

    if method == "zscore":
        location = float(values.mean())
        candidates = [("sigma", lambda: float(values.std())),
                      ("iqr", lambda: _order_statistics(values)[1])]
    elif method == "robust":
        median, iqr = _order_statistics(values)
        location = float(median)
        candidates = [("iqr", lambda: iqr), ("sigma", lambda: float(values.std()))]
    else:
        raise ConfigError(f"unknown standardization method {method!r}")

    for rank, (source, scale_of) in enumerate(candidates):
        scale = scale_of()
        if scale > 0:
            # a subnormal scale can overflow the quotient to +-inf, which clips to +-tau
            with np.errstate(over="ignore"):
                z = np.clip((values - location) / scale, -tau, tau)
            return z, TopicStats(location, scale, source if rank == 0 else f"fallback_{source}")
    return np.zeros(n), TopicStats(location, 0.0, "zeros")


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array of finite values; tied values share the
    mean of their ranks.

    Each rank is an exact half-integer, so the result equals
    scipy's ``rankdata(values, method="average")`` bit for bit.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(starts, values.size))
    ranks = np.empty(values.size, dtype=np.float64)
    # a run of ties covering 0-based sorted positions s .. s+c-1 gets
    # the mean of the ranks s+1 .. s+c
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks


def rank_normalize_values(values: np.ndarray) -> np.ndarray:
    """Map one group to [0, 1] by rank: (rank - 1) / (n - 1) with
    average_ranks, so ties share their average rank; a one-element group
    maps to 0.5."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 1:
        return np.full(1, 0.5)
    return (average_ranks(values) - 1.0) / (n - 1.0)


def rank_normalize(raw: np.ndarray, pool: Pool) -> np.ndarray:
    """Within-topic rank-to-[0,1] map; single-element topics map to 0.5."""
    raw = _check_length(raw, pool)
    out = np.empty(pool.n, dtype=np.float64)
    for idx in pool.topics.values():
        out[idx] = rank_normalize_values(raw[idx])
    return out


def standardize_column(
    raw: np.ndarray, pool: Pool, cfg: StandardizeConfig | None = None
) -> tuple[np.ndarray, dict[str, TopicStats]]:
    """Apply cfg.method per topic and clip; returns the column and the
    per-topic stats (including any degenerate-scale fallbacks)."""
    cfg = cfg or StandardizeConfig()
    raw = _check_length(raw, pool)
    out = np.empty(pool.n, dtype=np.float64)
    stats: dict[str, TopicStats] = {}
    for topic, idx in pool.topics.items():
        out[idx], stats[topic] = standardize_values(raw[idx], cfg.method, cfg.tau)
    return out, stats


def standardize_table(
    table: SignalTable, pool: Pool, cfg: StandardizeConfig | None = None
) -> StandardizedTable:
    """Standardize every column of a signal table."""
    cfg = cfg or StandardizeConfig()
    columns: dict[str, np.ndarray] = {}
    stats: dict[str, dict[str, TopicStats]] = {}
    for name, raw in table.columns.items():
        columns[name], stats[name] = standardize_column(raw, pool, cfg)
    return StandardizedTable(columns=columns, stats=stats, tau=cfg.tau)


def _check_length(raw: np.ndarray, pool: Pool) -> np.ndarray:
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (pool.n,):
        raise ValidationError(
            f"signal column has shape {raw.shape}, expected ({pool.n},)"
        )
    return raw
