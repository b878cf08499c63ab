"""End-to-end wiring: signals -> standardize -> shares -> prices ->
token-aware selection, plus artifact output and per-example explanation.

One shared stage owns the chain and its defaults: ``prepare`` loads the
pool, builds the signals and standardizes them. ``execute`` (behind
``select``) and every other pool command of the CLI go through it, and
price with the weights that RunConfig resolved before the pool was read.

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
from dataclasses import asdict, dataclass, field, fields, replace
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import ConfigError, require_finite
from .market import DEFAULT_BETA, MarketConfig, MarketState, Weights, price_pool
from .pool import Pool, decode_json_line, load_pool, token_sum
from .selection import (
    DEFAULT_GAMMA,
    SelectionConfig,
    SelectionReport,
    balanced_select,
    coverage_report,
    example_events,
    greedy_select,
)
from .signals import SignalTable, build_signal_table, parse_signal_specs, split_signal_specs
from .standardize import DEFAULT_TAU, StandardizeConfig, StandardizedTable, standardize_table

REPORT_FILE = "report.json"
PRICES_FILE = "prices.jsonl"
SELECTED_FILE = "selected.txt"

STANDARDIZE_ALIASES = {"zscore": "zscore", "robust": "robust", "rank+robust": "rank_then_robust"}


@dataclass
class RunConfig:
    """Semantic configuration of one selection run.

    Execution details (thread count, output directory) deliberately live
    outside, so they can vary without changing results or the report.

    Construction is the one place where a run's settings become values
    and are checked, so a bad setting fails before the pool is read. The
    spec strings are parsed first: ``signals`` as a comma-separated
    string (by ``split_signal_specs``); ``weights`` as 'equal',
    'diverse', 'name=w,...', '@file' or an object; an ``alpha`` other
    than 'proportional' as a file; a ``label_floor`` string; and the
    ``standardize`` aliases. Then the stage configs are built from the
    fields, and their own checks run: ``specs`` (the parsed signal
    specs), ``resolved_weights`` (over the spec names, which are the
    signal table's columns), ``std_config``, ``market_config`` and
    ``selection_config``. A run without ``budget_tokens`` gets its
    budget from the pool in ``execute``.
    """

    pool: str
    signals: list[str]
    standardize: str = "robust"
    tau: float = DEFAULT_TAU
    beta: float | dict[str, float] = DEFAULT_BETA
    alpha: str | dict[str, float] = "proportional"
    weights: str | dict[str, float] = "equal"
    budget_tokens: int | None = None
    retention_rate: float | None = None
    gamma: float = DEFAULT_GAMMA
    mode: str = "greedy"
    label_floor: int | str | None = "auto"
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.pool, (str, os.PathLike)):
            raise ConfigError(f"pool must be a path string, got {self.pool!r}")
        if isinstance(self.signals, str):
            self.signals = split_signal_specs(self.signals)
        if not isinstance(self.signals, (list, tuple)) or not all(
            isinstance(s, str) for s in self.signals
        ):
            raise ConfigError(
                f"signals must be a comma-separated string or a list of strings, "
                f"got {self.signals!r}"
            )
        if not self.signals:
            raise ConfigError("at least one signal must be configured")
        method = str(self.standardize)
        self.standardize = STANDARDIZE_ALIASES.get(method, method)
        if self.standardize not in STANDARDIZE_ALIASES.values():
            raise ConfigError(
                f"--standardize must be one of {sorted(STANDARDIZE_ALIASES)}, got {method!r}"
            )
        if isinstance(self.label_floor, str) and self.label_floor != "auto":
            try:
                self.label_floor = int(self.label_floor)
            except ValueError:
                raise ConfigError(
                    f"label_floor must be an integer or 'auto', got {self.label_floor!r}"
                ) from None
        self.weights = parse_weights(self.weights)
        if isinstance(self.alpha, str) and self.alpha != "proportional":
            self.alpha = read_float_map(self.alpha, "topic budget")
        elif isinstance(self.alpha, dict):
            self.alpha = float_map(self.alpha, "config alpha")
        if isinstance(self.beta, dict):
            self.beta = float_map(self.beta, "config beta")

        if self.budget_tokens is not None:
            _require_int("budget_tokens", self.budget_tokens)
        if self.label_floor not in (None, "auto"):
            _require_int("label_floor", self.label_floor, "an integer or 'auto'")
        _require_int("seed", self.seed)
        if self.retention_rate is not None:
            require_finite("retention_rate", self.retention_rate)
            if not 0.0 <= self.retention_rate <= 1.0:
                raise ConfigError(
                    f"retention_rate must be in [0, 1], got {self.retention_rate}"
                )
        self.specs = parse_signal_specs(self.signals)
        self.resolved_weights = resolve_weights(self.weights, [spec.name for spec in self.specs])
        self.std_config = StandardizeConfig(method=self.standardize, tau=self.tau)
        self.market_config = MarketConfig(beta=self.beta, topic_budgets=self.alpha)
        # a budget that comes from the pool stands in as 1 until execute
        # knows it, so that gamma, mode and label_floor are checked now
        self.selection_config = SelectionConfig(
            budget_tokens=1 if self.budget_tokens is None else self.budget_tokens,
            gamma=self.gamma,
            mode=self.mode,
            label_floor=None if self.label_floor in ("auto", None) else int(self.label_floor),
        )

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RunConfig":
        unknown = set(data) - CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("pool", "signals"):
            if key not in data:
                raise ConfigError(f"config is missing {key!r}")
        return RunConfig(**data)


CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _require_int(name: str, value: Any, expected: str = "an integer") -> None:
    """Reject a non-integer count (bool included) before it reaches a
    comparison that would raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be {expected}, got {value!r}")


def parse_weights(spec: object) -> str | dict[str, float]:
    """A weights setting as a preset name ('equal' or 'diverse') or a map:
    an object, 'name=w,name=w' pairs, or '@file.json' (a map or
    {"weights": map}, as ``tune`` writes it)."""
    if isinstance(spec, dict):
        return float_map(spec, "config weights")
    if not isinstance(spec, str):
        raise ConfigError(f"weights must be a name or a JSON object, got {spec!r}")
    if spec in ("equal", "diverse"):
        return spec
    if spec.startswith("@"):
        data = read_json_file(spec[1:], "weights")
        if isinstance(data, dict) and isinstance(data.get("weights"), dict):
            data = data["weights"]
        return float_map(data, f"weights file {Path(spec[1:])}")
    out: dict[str, float] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ConfigError(
                f"--weights expects 'equal', '@file', or name=value pairs; got {part!r}"
            )
        name, value = part.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"weight for {name.strip()!r} must be a number") from None
    return out


def read_json_file(path: str | Path, what: str) -> Any:
    """The JSON value in a settings file; ``what`` names the file's role
    in the error messages."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid UTF-8: {exc.reason}") from None


def read_json_lines(path: str | Path, what: str) -> Iterator[tuple[int, Any]]:
    """(line number, JSON value) for each non-blank line of a JSON Lines
    file; ``what`` names the file's role in the error messages."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    value = decode_json_line(line)
                except json.JSONDecodeError as exc:
                    raise ConfigError(
                        f"{what} file {path} line {lineno}: invalid JSON ({exc.msg})"
                    ) from None
                yield lineno, value
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid UTF-8: {exc.reason}") from None


def read_float_map(path: str | Path, what: str) -> dict[str, float]:
    """A settings file holding a JSON object of name -> number."""
    return float_map(read_json_file(path, what), f"{what} file {Path(path)}")


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
    pool: Pool
    table: SignalTable
    std: StandardizedTable
    state: MarketState
    selection: SelectionReport
    report: dict[str, Any] = field(default_factory=dict)


def resolve_weights(spec: str | dict[str, float], columns: list[str]) -> Weights:
    """The Weights of a parsed weights setting over the signal columns;
    every weighted name must be one of them."""
    if spec == "equal":
        weights = Weights.equal(columns)
    elif spec == "diverse":
        # diversity-leaning preset: double weight on the combined
        # diversity column, unit weight elsewhere
        if "div" not in columns:
            raise ConfigError("weights preset 'diverse' requires the 'div' signal")
        weights = Weights({name: (2.0 if name == "div" else 1.0) for name in columns})
    else:  # a name -> weight map from parse_weights
        weights = Weights(dict(spec))
    weights.require_columns(columns)
    return weights


def prepare(
    cfg: RunConfig, threads: int = 1
) -> tuple[Pool, SignalTable, StandardizedTable]:
    """Load the pool, build the configured signals and standardize them
    within topics; ``threads`` caps the workers of the pool parse and of
    the kNN."""
    pool = load_pool(cfg.pool, threads)
    table = build_signal_table(pool, cfg.specs, threads=threads)
    std = standardize_table(table, pool, cfg.std_config)
    return pool, table, std


def execute(cfg: RunConfig, threads: int = 1) -> PipelineResult:
    """Run the full pipeline in memory and assemble the report dict."""
    if cfg.budget_tokens is None and cfg.retention_rate is None:
        raise ConfigError("either budget_tokens or retention_rate is required")
    captured: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pool, table, std = prepare(cfg, threads)
        state = price_pool(pool, std, cfg.resolved_weights, cfg.market_config)

        budget = cfg.budget_tokens
        if budget is None:
            budget = token_sum(pool.token_lengths)
        max_examples = None
        if cfg.retention_rate is not None:
            max_examples = int(round(cfg.retention_rate * pool.n))

        sel_cfg = replace(cfg.selection_config, budget_tokens=budget, max_examples=max_examples)
        select = balanced_select if sel_cfg.mode == "balanced" else greedy_select
        selection = select(state, pool, sel_cfg)
        captured = [str(w.message) for w in caught]

    fallbacks = [
        f"{signal}/{topic}: scale source {st.scale_source}"
        for signal, topics in std.stats.items()
        for topic, st in topics.items()
        if st.scale_source not in ("sigma", "iqr")
    ]
    echo: dict[str, Any] = {
        **asdict(cfg),
        "pool": str(cfg.pool),
        "signals": list(cfg.signals),
        "weights": dict(cfg.resolved_weights.w),
        "budget_tokens": budget,
        "max_examples": max_examples,
    }
    diagnostics: dict[str, Any] = {
        "n_records": pool.n,
        "warnings": captured,
        "standardization_fallbacks": fallbacks,
        "market_cost": state.cost,
    }
    diagnostics.update(selection.diagnostics)
    report = {"config": echo, **selection.to_dict(pool), "diagnostics": diagnostics}
    return PipelineResult(
        pool=pool,
        table=table,
        std=std,
        state=state,
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
    ids = result.report["selected"]
    write_atomic([
        (out_dir / REPORT_FILE, dump_json(result.report)),
        (out_dir / PRICES_FILE, format_price_rows(result.pool, result.state)),
        (out_dir / SELECTED_FILE, "\n".join(ids) + "\n" if ids else ""),
    ])
    return result


def write_atomic(files: list[tuple[Path, str]]) -> None:
    """Write each (path, text) pair as UTF-8, creating parent directories.

    Every text goes to ``<path>.tmp`` first; the temporaries are renamed
    into place only once all of them are written, and on any failure
    every temporary is removed. A target that is a directory, or a text
    that UTF-8 cannot encode (a lone surrogate), is refused before
    anything is written.
    """
    encoded: list[tuple[Path, bytes]] = []
    for path, text in files:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", str(path))
        try:
            encoded.append((path, text.encode("utf-8")))
        except UnicodeEncodeError as exc:
            raise ConfigError(f"cannot write {path}: its text is not valid UTF-8 "
                              f"({exc.reason})") from None
    staged: list[tuple[Path, Path]] = []
    try:
        for path, data in encoded:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(path.suffix + ".tmp")
            staged.append((tmp, path))
            tmp.write_bytes(data)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


PRICE_ROW = '{"id": %s, "p": %.9g, "q": %.9g, "topic": %s}\n'
PRICE_SLICE = 4096  # rows formatted by one % call


def format_price_rows(pool: Pool, state: MarketState) -> str:
    """prices.jsonl text: one {"id", "p", "q", "topic"} object per example,
    in id order, byte-identical to dump_json_line of each row.

    A slice of rows is formatted by one ``%`` call on PRICE_ROW repeated,
    whose ``%.9g`` is format_float's text for every value that
    ``plain_g_text`` admits; a slice with any other value is formatted
    row by row through format_float."""
    shares, prices = state.shares, state.prices
    plain = plain_g_text(shares) & plain_g_text(prices)
    topics = [encode_basestring(t) for t in pool.topic_names]
    chunks = []
    for start in range(0, pool.n, PRICE_SLICE):
        end = min(start + PRICE_SLICE, pool.n)
        fields = [None] * (4 * (end - start))
        fields[0::4] = map(encode_basestring, pool.ids[start:end])
        fields[1::4] = prices[start:end].tolist()
        fields[2::4] = shares[start:end].tolist()
        fields[3::4] = map(topics.__getitem__, pool.topic_codes[start:end].tolist())
        if plain[start:end].all():
            chunks.append(PRICE_ROW * (end - start) % tuple(fields))
        else:
            chunks += [
                f'{{"id": {rid}, "p": {format_float(p)}, "q": {format_float(q)}, '
                f'"topic": {topic}}}\n'
                for rid, p, q, topic in zip(fields[0::4], fields[1::4], fields[2::4], fields[3::4])
            ]
    return "".join(chunks)


def plain_g_text(x: np.ndarray) -> np.ndarray:
    """Where ``"%.9g" % x`` is certainly format_float(x)'s text.

    ``%.9g`` differs from it in three ranges: an exponent from 1e9 on
    (format_float writes repr's), a three-digit exponent below 1e-99,
    zero included, and a value that rounds to an integer, where "%.9g"
    drops the ".0". Each is flagged with a margin: |x| >= 1e8,
    |x| < 1.1e-99, and |x| >= 0.99 within |x| * 1e-8 of an integer (9
    significant digits round x to an integer only within half a unit of
    the 9th digit, at most |x| * 5e-9).
    """
    a = np.abs(x)
    near_integer = (a >= 0.99) & (np.abs(x - np.rint(x)) <= a * 1e-8)
    return ~((a >= 1e8) | (a < 1.1e-99) | near_integer)


def explain(
    run_dir: str | Path,
    example_id: str,
    pool_path: str | Path | None = None,
    threads: int = 1,
) -> dict[str, Any]:
    """Break one example's run down: raw and standardized signals, share,
    price, score, and what happened to it during the selection scan.

    Recomputes the (deterministic) pipeline from the config embedded in
    the run's report, with ``threads`` as in ``execute``, and
    cross-checks against the stored price dump.
    """
    run_dir = Path(run_dir)
    report_path = run_dir / REPORT_FILE
    prices_path = run_dir / PRICES_FILE
    if not report_path.exists():
        raise ConfigError(f"no {REPORT_FILE} in {run_dir}")
    if not prices_path.exists():
        raise ConfigError(f"no {PRICES_FILE} in {run_dir}")
    stored = read_json_file(report_path, "report")
    if not isinstance(stored, dict) or not isinstance(stored.get("config"), dict):
        raise ConfigError(f"{report_path} holds no run config")
    cfg_data = dict(stored["config"])
    cfg_data.pop("max_examples", None)
    if pool_path is not None:
        cfg_data["pool"] = str(pool_path)
    try:
        cfg = RunConfig.from_dict(cfg_data)
    except ConfigError as exc:
        raise ConfigError(f"{report_path}: {exc}") from None
    result = execute(cfg, threads=threads)
    pool = result.pool
    idx = pool.index_of(example_id)
    label = int(pool.label_codes[idx])

    dumped = None
    for lineno, row in read_json_lines(prices_path, "prices"):
        where = f"{prices_path} line {lineno}"
        if not isinstance(row, dict):
            raise ConfigError(f"{where}: expected a JSON object")
        if row.get("id") == example_id:
            if not all(type(row.get(key)) in (int, float) for key in ("p", "q")):
                raise ConfigError(f"{where}: 'p' and 'q' must be numbers")
            dumped = row
            break
    consistent = dumped is not None and (
        math.isclose(dumped["q"], result.state.shares[idx], rel_tol=1e-6, abs_tol=1e-9)
        and math.isclose(dumped["p"], result.state.prices[idx], rel_tol=1e-6, abs_tol=1e-9)
    )

    events = example_events(result.selection, pool, idx)
    for ev in events:
        ev["budget_remaining"] = result.report["config"]["budget_tokens"] - ev.pop("tokens_before")
    hits = np.flatnonzero(result.selection.selected == idx)
    rank = int(hits[0]) + 1 if hits.size else None

    return {
        "id": example_id,
        "topic": pool.topic_names[pool.topic_codes[idx]],
        "tokens": int(pool.token_lengths[idx]),
        "label": None if label < 0 else pool.label_names[label],
        "raw_signals": {name: float(col[idx]) for name, col in result.table.columns.items()},
        "standardized": {name: float(col[idx]) for name, col in result.std.columns.items()},
        "share": float(result.state.shares[idx]),
        "price": float(result.state.prices[idx]),
        "score": float(result.selection.rho[idx]),
        "selected": rank is not None,
        "rank": rank,
        "scan_events": events,
        "price_dump_consistent": bool(consistent),
    }


def fmt_float(x: float) -> float:
    """Round to 9 significant digits (the serialization contract)."""
    return float(f"{x:.9g}")


def format_float(x: float) -> str:
    """The JSON text of fmt_float(x), repr(float("%.9g" % x)), without the
    round trip where the "%.9g" string is already that text."""
    s = "%.9g" % x
    if "e" in s:
        # %g takes an exponent from 1e9 on, repr only from 1e16; and a
        # three-digit exponent marks the range of the subnormals, whose
        # shortest repr can have fewer than 9 digits
        return repr(float(s)) if "e+" in s or len(s) - s.index("e") > 4 else s
    return s if "." in s else s + ".0"


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
    """``obj`` as indented JSON text, floats rounded by fmt_float.

    A top-level ``selected`` list of ids (the report's, one string per
    selected example) skips round_floats and json's pure-Python indent
    encoder: it is encoded in one join and spliced into the text of the
    rest, with the same bytes.
    """
    ids = obj.get("selected") if isinstance(obj, dict) else None
    if not isinstance(ids, list) or not ids:
        return json.dumps(
            round_floats(obj), sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False
        ) + "\n"
    # JSON strings hold no raw newline, so this text at indent 2 is the
    # top-level key: found once, wherever sort_keys puts it
    text = dump_json({**obj, "selected": []})
    items = ",\n    ".join(map(encode_basestring, ids))
    return text.replace('\n  "selected": []', '\n  "selected": [\n    ' + items + "\n  ]", 1)


def dump_json_line(obj: Any) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"
