"""End-to-end wiring: signals -> standardize -> shares -> prices ->
token-aware selection, plus artifact output and per-example explanation.

A run is fully described by its RunConfig; the written report embeds the
resolved config, so identical configs reproduce byte-identical artifacts
regardless of thread count. Output files are written to temporaries and
renamed into place only on success.
"""

from __future__ import annotations

import errno
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError, ValidationError, require_finite
from .market import MarketConfig, MarketState, Weights, price_pool
from .pool import Pool, load_pool
from .selection import (
    SelectionConfig,
    SelectionReport,
    balanced_select,
    coverage_report,
    example_events,
    greedy_select,
)
from .signals import SignalTable, build_signal_table
from .standardize import StandardizeConfig, StandardizedTable, standardize_table

REPORT_FILE = "report.json"
PRICES_FILE = "prices.jsonl"
SELECTED_FILE = "selected.txt"

CONFIG_KEYS = {
    "pool",
    "signals",
    "standardize",
    "tau",
    "beta",
    "alpha",
    "weights",
    "budget_tokens",
    "retention_rate",
    "gamma",
    "mode",
    "label_floor",
    "seed",
}


@dataclass
class RunConfig:
    """Semantic configuration of one selection run.

    Execution details (thread count, output directory) deliberately live
    outside, so they can vary without changing results or the report.
    """

    pool: str
    signals: list[str]
    standardize: str = "robust"
    tau: float = 2.5
    beta: float | dict[str, float] = 2.0
    alpha: str | dict[str, float] = "proportional"
    weights: str | dict[str, float] = "equal"
    budget_tokens: int | None = None
    retention_rate: float | None = None
    gamma: float = 1.6
    mode: str = "greedy"
    label_floor: int | str | None = "auto"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.signals:
            raise ConfigError("at least one signal must be configured")
        if self.budget_tokens is None and self.retention_rate is None:
            raise ConfigError("either budget_tokens or retention_rate is required")
        if self.budget_tokens is not None:
            _require_int("budget_tokens", self.budget_tokens)
        if self.label_floor not in (None, "auto"):
            _require_int("label_floor", self.label_floor, "an integer or 'auto'")
        _require_int("seed", self.seed)
        require_finite("tau", self.tau)
        require_finite("gamma", self.gamma)
        if self.retention_rate is not None:
            require_finite("retention_rate", self.retention_rate)
        if isinstance(self.beta, dict):
            for topic, b in self.beta.items():
                require_finite(f"beta for topic {topic!r}", b)
        else:
            require_finite("beta", self.beta)
        if isinstance(self.alpha, dict):
            for topic, a in self.alpha.items():
                require_finite(f"alpha for topic {topic!r}", a)
        if self.retention_rate is not None and not 0.0 <= self.retention_rate <= 1.0:
            raise ConfigError(
                f"retention_rate must be in [0, 1], got {self.retention_rate}"
            )

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RunConfig":
        unknown = set(data) - CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "pool" not in data:
            raise ConfigError("config is missing 'pool'")
        if "signals" not in data:
            raise ConfigError("config is missing 'signals'")
        signals = data["signals"]
        if isinstance(signals, str):
            signals = [s.strip() for s in signals.split(",") if s.strip()]
        kwargs = {k: v for k, v in data.items() if k in CONFIG_KEYS}
        kwargs["signals"] = signals
        for key in ("weights", "alpha", "beta"):
            if isinstance(kwargs.get(key), dict):
                kwargs[key] = float_map(kwargs[key], f"config {key}")
        return RunConfig(**kwargs)


def _require_int(name: str, value: Any, expected: str = "an integer") -> None:
    """Reject a non-integer count (bool included) before it reaches a
    comparison that would raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be {expected}, got {value!r}")


def float_map(data: object, where: str) -> dict[str, float]:
    """A JSON object of name -> number as a dict of floats; ``where``
    names the source in the error message."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must hold a JSON object of name -> number")
    out: dict[str, float] = {}
    for key, value in data.items():
        try:
            out[str(key)] = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: value for {key!r} must be a number") from None
    return out


@dataclass
class PipelineResult:
    config_echo: dict[str, Any]
    pool: Pool
    table: SignalTable
    std: StandardizedTable
    weights: Weights
    state: MarketState
    rho: np.ndarray
    selection: SelectionReport
    report: dict[str, Any] = field(default_factory=dict)


def resolve_weights(spec: str | dict[str, float], columns: list[str]) -> Weights:
    if isinstance(spec, dict):
        return Weights({str(k): float(v) for k, v in spec.items()})
    if spec == "equal":
        return Weights.equal(columns)
    if spec == "diverse":
        # diversity-leaning preset: double weight on the combined
        # diversity column, unit weight elsewhere
        if "div" not in columns:
            raise ConfigError("weights preset 'diverse' requires the 'div' signal")
        return Weights({name: (2.0 if name == "div" else 1.0) for name in columns})
    raise ConfigError(f"unknown weights spec {spec!r}")


def execute(cfg: RunConfig, threads: int = 1) -> PipelineResult:
    """Run the full pipeline in memory and assemble the report dict."""
    captured: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pool = load_pool(cfg.pool)
        table = build_signal_table(pool, list(cfg.signals), threads=threads)
        std_cfg = StandardizeConfig(method=cfg.standardize, tau=cfg.tau)
        std = standardize_table(table, pool, std_cfg)
        weights = resolve_weights(cfg.weights, list(table.columns))
        market_cfg = MarketConfig(beta=cfg.beta, topic_budgets=cfg.alpha)
        state = price_pool(pool, std, weights, market_cfg)

        budget = cfg.budget_tokens
        if budget is None:
            budget = int(pool.token_lengths.sum())
        max_examples = None
        if cfg.retention_rate is not None:
            max_examples = int(round(cfg.retention_rate * pool.n))

        floor = None if cfg.label_floor in ("auto", None) else int(cfg.label_floor)
        sel_cfg = SelectionConfig(
            budget_tokens=budget,
            gamma=cfg.gamma,
            mode=cfg.mode,
            label_floor=floor,
            max_examples=max_examples,
        )
        select = balanced_select if cfg.mode == "balanced" else greedy_select
        selection = select(state, pool, sel_cfg)
        captured = [str(w.message) for w in caught]

    fallbacks = [
        f"{signal}/{topic}: scale source {st.scale_source}"
        for signal, topics in std.stats.items()
        for topic, st in topics.items()
        if st.scale_source not in ("sigma", "iqr")
    ]
    echo: dict[str, Any] = {
        "pool": str(cfg.pool),
        "signals": list(cfg.signals),
        "standardize": cfg.standardize,
        "tau": cfg.tau,
        "beta": cfg.beta,
        "alpha": cfg.alpha,
        "weights": dict(weights.w),
        "budget_tokens": budget,
        "retention_rate": cfg.retention_rate,
        "max_examples": max_examples,
        "gamma": cfg.gamma,
        "mode": cfg.mode,
        "label_floor": cfg.label_floor,
        "seed": cfg.seed,
    }
    diagnostics: dict[str, Any] = {
        "n_records": pool.n,
        "warnings": captured,
        "standardization_fallbacks": fallbacks,
        "market_cost": state.cost,
    }
    diagnostics.update(selection.diagnostics)
    report = {
        "config": echo,
        "selected": selection.selected,
        "tokens_used": selection.tokens_used,
        "per_topic": selection.per_topic,
        "per_label": selection.per_label,
        "balance_score": selection.balance_score,
        "skipped_for_budget": selection.skipped_for_budget,
        "diagnostics": diagnostics,
    }
    return PipelineResult(
        config_echo=echo,
        pool=pool,
        table=table,
        std=std,
        weights=weights,
        state=state,
        rho=selection.rho,
        selection=selection,
        report=report,
    )


def run_pipeline(
    cfg: RunConfig,
    out_dir: str | Path,
    threads: int = 1,
    with_coverage: bool = False,
) -> PipelineResult:
    """Execute and write report.json, prices.jsonl, and selected.txt.

    All computation happens before any file is touched; outputs go to
    temporaries first and are renamed in, so a failing run leaves no
    partial artifacts behind.
    """
    result = execute(cfg, threads=threads)
    if with_coverage:
        cov = coverage_report(result.selection.selected, result.pool)
        result.report["diagnostics"]["coverage"] = {
            "variance_ratio": cov.variance_ratio,
            "covering_radius": cov.covering_radius,
        }

    out_dir = Path(out_dir)
    write_atomic([
        (out_dir / REPORT_FILE, dump_json(result.report)),
        (out_dir / PRICES_FILE, format_price_rows(result.pool, result.state)),
        (out_dir / SELECTED_FILE, "".join(rid + "\n" for rid in result.selection.selected)),
    ])
    return result


def write_atomic(files: list[tuple[Path, str]]) -> None:
    """Write each (path, text) pair, creating parent directories.

    Every text goes to ``<path>.tmp`` first; the temporaries are renamed
    into place only once all of them are written, and on any failure
    every temporary is removed. A target that is a directory is refused
    before anything is written.
    """
    for path, _ in files:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", str(path))
    staged: list[tuple[Path, Path]] = []
    try:
        for path, text in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(path.suffix + ".tmp")
            staged.append((tmp, path))
            tmp.write_text(text, encoding="utf-8", newline="")
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def format_price_rows(pool: Pool, state: MarketState) -> str:
    """prices.jsonl text: one {"id", "p", "q", "topic"} object per example,
    in id order, byte-identical to dump_json_line of each row."""
    shares, prices = state.shares, state.prices
    if not (np.isfinite(shares).all() and np.isfinite(prices).all()):
        raise ValidationError("shares and prices must be finite")
    topics = [encode_basestring(t) for t in pool.topic_names]
    return "".join([
        f'{{"id": {encode_basestring(rid)}, "p": {float("%.9g" % p)!r}, '
        f'"q": {float("%.9g" % q)!r}, "topic": {topics[t]}}}\n'
        for rid, t, q, p in zip(pool.ids, pool.topic_codes.tolist(), shares.tolist(),
                                prices.tolist())
    ])


def explain(
    run_dir: str | Path, example_id: str, pool_path: str | Path | None = None
) -> dict[str, Any]:
    """Break one example's run down: raw and standardized signals, share,
    price, score, and what happened to it during the selection scan.

    Recomputes the (deterministic) pipeline from the config embedded in
    the run's report and cross-checks against the stored price dump.
    """
    run_dir = Path(run_dir)
    report_path = run_dir / REPORT_FILE
    prices_path = run_dir / PRICES_FILE
    if not report_path.exists():
        raise ConfigError(f"no {REPORT_FILE} in {run_dir}")
    if not prices_path.exists():
        raise ConfigError(f"no {PRICES_FILE} in {run_dir}")
    stored = json.loads(report_path.read_text(encoding="utf-8"))
    cfg_data = dict(stored["config"])
    cfg_data.pop("max_examples", None)
    if pool_path is not None:
        cfg_data["pool"] = str(pool_path)
    cfg = RunConfig.from_dict(cfg_data)
    result = execute(cfg, threads=1)
    pool = result.pool
    idx = pool.index_of(example_id)
    rec = pool.record(example_id)

    dumped = None
    with prices_path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("id") == example_id:
                dumped = row
                break
    consistent = dumped is not None and (
        math.isclose(dumped["q"], result.state.shares[idx], rel_tol=1e-6, abs_tol=1e-9)
        and math.isclose(dumped["p"], result.state.prices[idx], rel_tol=1e-6, abs_tol=1e-9)
    )

    events = example_events(result.selection, pool, idx)
    for ev in events:
        ev["budget_remaining"] = result.report["config"]["budget_tokens"] - ev.pop("tokens_before")
    selected_ids = result.selection.selected
    rank = selected_ids.index(example_id) + 1 if example_id in selected_ids else None

    return {
        "id": rec.id,
        "topic": rec.topic,
        "tokens": int(rec.token_length),
        "label": rec.label,
        "raw_signals": {name: float(col[idx]) for name, col in result.table.columns.items()},
        "standardized": {name: float(col[idx]) for name, col in result.std.columns.items()},
        "share": float(result.state.shares[idx]),
        "price": float(result.state.prices[idx]),
        "score": float(result.rho[idx]),
        "selected": rank is not None,
        "rank": rank,
        "scan_events": events,
        "price_dump_consistent": bool(consistent),
    }


def fmt_float(x: float) -> float:
    """Round to 9 significant digits (the serialization contract)."""
    return float(f"{x:.9g}")


def round_floats(obj: Any) -> Any:
    """Recursively coerce numpy scalars and round floats for output."""
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dump_json(obj: Any) -> str:
    return json.dumps(
        round_floats(obj), sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False
    ) + "\n"


def dump_json_line(obj: Any) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"
