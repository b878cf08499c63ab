"""Online tuning of signal weights against development-set feedback.

Each signal earns a reward in [0, 1] from how well its standardized
values rank-correlate with observed per-example utilities; weights then
take a multiplicative (exponentiated-gradient) step and renormalize onto
the simplex. Repeated rounds concentrate mass on the best-aligned
signals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from .errors import ConfigError, ValidationError, require_finite
from .market import Weights
from .pool import Pool, decode_json_line
from .standardize import StandardizedTable, average_ranks

MIN_COVERED_IDS = 3


@dataclass
class TuneConfig:
    eta: float = 0.1
    rounds: int = 50

    def __post_init__(self) -> None:
        require_finite("eta", self.eta)
        if not self.eta > 0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")


@dataclass
class DevFeedback:
    """Observed utility proxy per example id (e.g. negative dev loss)."""

    utilities: dict[str, float]

    def __post_init__(self) -> None:
        for rid, value in self.utilities.items():
            if not math.isfinite(value):
                raise ValidationError(f"utility for {rid!r} is not finite")


def read_json_lines(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(line number, JSON value) for each non-blank line of a dev feedback file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"dev feedback file not found: {path}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    value = decode_json_line(line)
                except json.JSONDecodeError as exc:
                    raise ConfigError(
                        f"dev feedback file {path} line {lineno}: invalid JSON ({exc.msg})"
                    ) from None
                yield lineno, value
    except UnicodeDecodeError as exc:
        raise ConfigError(f"dev feedback file {path} is not valid UTF-8: {exc.reason}") from None


def load_dev_feedback(path: str | Path) -> DevFeedback:
    """Read JSONL of {"id": ..., "utility": ...} rows."""
    def where(lineno: int) -> str:  # built only for an error
        return f"dev feedback file {Path(path)} line {lineno}"

    utilities: dict[str, float] = {}
    for lineno, obj in read_json_lines(path):
        if not isinstance(obj, dict) or "id" not in obj or "utility" not in obj:
            raise ConfigError(f"{where(lineno)}: expected keys 'id' and 'utility'")
        utility = obj["utility"]
        if type(utility) is not float and type(utility) is not int:
            raise ConfigError(f"{where(lineno)}: 'utility' must be a number, got {utility!r}")
        try:
            value = float(utility)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):  # NaN and Infinity are JSON to json.loads
            raise ValidationError(f"{where(lineno)}: utility is not finite")
        utilities[str(obj["id"])] = value
    return DevFeedback(utilities=utilities)


def eg_update(weights: Weights, rewards: Mapping[str, float], eta: float) -> Weights:
    """One multiplicative step w'_m = w_m * exp(eta * r_m) / Z; sums to 1.

    Adding a constant to every reward leaves the result unchanged (the
    common factor cancels in the normalizer).
    """
    if not eta > 0:
        raise ConfigError(f"eta must be positive, got {eta}")
    missing = [name for name in weights.names if name not in rewards]
    if missing:
        raise ValidationError(f"rewards missing for signals: {missing}")
    # subtract the max reward before exponentiating: same result, no overflow
    top = max(rewards[name] for name in weights.names)
    raw = {
        name: weights.w[name] * math.exp(eta * (rewards[name] - top))
        for name in weights.names
    }
    z = sum(raw.values())
    if z <= 0:
        raise ValidationError("all weights vanished in the update")
    return Weights({name: v / z for name, v in raw.items()})


def signal_reward(
    table: StandardizedTable, feedback: DevFeedback, pool: Pool
) -> dict[str, float]:
    """Per-signal reward in [0, 1]: (rho + 1) / 2, with rho the Spearman
    correlation between the standardized column and dev utility over the
    covered ids.

    A constant column, or constant utilities, has no defined correlation
    and gets the neutral reward 0.5. Otherwise rho is the Pearson
    correlation of the two average_ranks vectors, computed by the same
    np.corrcoef call that scipy's spearmanr makes, so rewards equal
    spearmanr's bit for bit.
    """
    utilities = feedback.utilities
    covered = [(i, utilities[rid]) for i, rid in enumerate(pool.ids) if rid in utilities]
    if len(covered) < MIN_COVERED_IDS:
        raise ValidationError(
            f"need at least {MIN_COVERED_IDS} covered ids, got {len(covered)}"
        )
    idx = np.array([i for i, _ in covered], dtype=np.intp)
    utils = np.array([u for _, u in covered], dtype=np.float64)
    constant_utils = bool((utils[0] == utils).all())
    util_ranks = average_ranks(utils)
    rewards: dict[str, float] = {}
    for name, col in table.columns.items():
        values = col[idx]
        if constant_utils or (values[0] == values).all():
            rewards[name] = 0.5
            continue
        # spearmanr passes corrcoef its ranks as a Fortran-ordered (n, 2)
        # array, which corrcoef transposes to these two contiguous rows;
        # the same layout keeps every sum in the same order
        corr = np.corrcoef(np.vstack((average_ranks(values), util_ranks)))[1, 0]
        rewards[name] = (float(corr) + 1.0) / 2.0
    return rewards


@dataclass
class TuneResult:
    weights: Weights
    trajectory: list[dict[str, object]] = field(default_factory=list)


def tune_weights(
    table: StandardizedTable,
    feedback: DevFeedback,
    pool: Pool,
    cfg: TuneConfig | None = None,
) -> TuneResult:
    """Run cfg.rounds exponentiated-gradient updates from equal weights.

    The rewards (signal_reward) depend only on the table, the feedback
    and the pool, none of which a round changes, so they are computed
    once per run, before the first round, and every round reuses them.

    Returns the final weights and the per-round trajectory (weights after
    each update and the rewards it used). rounds=0 returns the equal
    start without computing rewards.
    """
    cfg = cfg or TuneConfig()
    weights = Weights.equal(list(table.columns))
    trajectory: list[dict[str, object]] = []
    if cfg.rounds == 0:
        return TuneResult(weights=weights, trajectory=trajectory)
    rewards = signal_reward(table, feedback, pool)
    for round_idx in range(cfg.rounds):
        weights = eg_update(weights, rewards, cfg.eta)
        trajectory.append(
            {
                "round": round_idx + 1,
                "weights": dict(weights.w),
                "rewards": dict(rewards),
            }
        )
    return TuneResult(weights=weights, trajectory=trajectory)
