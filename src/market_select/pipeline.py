"""End-to-end wiring: signals -> standardize -> shares -> prices ->
token-aware selection, plus artifact output and per-example explanation.

One shared stage owns the chain and its defaults: ``prepare`` loads the
pool, builds the signals and standardizes them. ``execute`` (behind
``select``) and every other pool command of the CLI go through it, and
price with the weights that RunConfig resolved before the pool was read.

A run is fully described by its RunConfig; the written report embeds the
resolved config exactly, and identical configs reproduce byte-identical
artifacts regardless of thread count. report.json is dump_json's text with the
selected ids spliced in (splice_selected), selected.txt holds
Pool.id_lines, and prices.jsonl and the ``signals`` dump are the slices
of format_rows, by way of format_price_rows and format_signal_rows.
write_atomic renames every file into place only once all are written,
report.json last.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import ConfigError, ValidationError, require_finite
from .market import DEFAULT_BETA, MarketConfig, MarketState, Weights, price_pool
from .pool import (
    NEWLINE,
    PAD,
    Pool,
    Texts,
    join_rows,
    load_pool,
    padded_slices,
    token_sum,
)
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
    the kNN. A pool without examples is refused."""
    pool = load_pool(cfg.pool, threads)
    if not pool.n:
        raise ValidationError(f"pool file {Path(cfg.pool)} holds no examples")
    table = build_signal_table(pool, cfg.specs, threads=threads)
    std = standardize_table(table, pool, cfg.std_config)
    return pool, table, std


def execute(cfg: RunConfig, threads: int = 1) -> PipelineResult:
    """Run the full pipeline in memory and assemble the report dict: what
    report.json holds but the selected ids, which are the pool rows
    ``selection.selected`` (run_pipeline writes them). The report's
    ``diagnostics.warnings`` are the pool's and then the signal table's."""
    if cfg.budget_tokens is None and cfg.retention_rate is None:
        raise ConfigError("either budget_tokens or retention_rate is required")
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
        "warnings": [*pool.warnings, *table.warnings],
        "standardization_fallbacks": fallbacks,
        "market_cost": state.cost,
    }
    diagnostics.update(selection.diagnostics)
    report = {"config": echo, **selection.summary(), "diagnostics": diagnostics}
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
    temporaries first and are renamed in, report.json last, so a failing
    or killed run leaves the old run, or no report.json, never a report
    beside another run's selection.
    """
    result = execute(cfg, threads=threads)
    if with_coverage:
        cov = coverage_report(result.selection.selected, result.pool)
        result.report["diagnostics"]["coverage"] = {
            "variance_ratio": cov.variance_ratio,
            "covering_radius": cov.covering_radius,
        }

    out_dir = Path(out_dir)
    pool, selected = result.pool, result.selection.selected
    # the config echo keeps its floats exact, so that explain rebuilds the run from it
    rounded = {**round_floats(result.report), "config": result.report["config"], "selected": []}
    report = encode_text(out_dir / REPORT_FILE, dump_json(rounded))
    write_atomic([
        (out_dir / REPORT_FILE, splice_selected(report, pool, selected)),
        (out_dir / PRICES_FILE, b"".join(format_price_rows(pool, result.state))),
        (out_dir / SELECTED_FILE, pool.id_lines(selected)),
    ])
    return result


def encode_text(path: Path, text: str) -> bytes:
    """``text`` as UTF-8 for the file at ``path``; a text that UTF-8 cannot
    encode (a lone surrogate) is refused."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"cannot write {path}: its text is not valid UTF-8 "
                          f"({exc.reason})") from None


def write_atomic(files: list[tuple[Path, bytes]]) -> None:
    """Write each (path, data) pair, creating parent directories.

    Every file goes to ``<path>.tmp`` first; the temporaries are renamed
    into place only once all of them are written, and on any failure
    every temporary is removed. A target that is a directory is refused
    before anything is written.

    Of several files, the first marks the set: its old copy is removed
    before any rename, and it is renamed last. A process killed part way
    leaves the old set, or a set without its first file, never a first
    file beside files of another set (report.json, which ``explain``
    needs, is run_pipeline's first).
    """
    for path, _ in files:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", str(path))
    staged: list[tuple[Path, Path]] = []
    try:
        for path, data in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(path.suffix + ".tmp")
            staged.append((tmp, path))
            tmp.write_bytes(data)
        first, *rest = staged
        if rest:
            first[1].unlink(missing_ok=True)
        for tmp, path in [*rest, first]:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def splice_selected(report: bytes, pool: Pool, selected: np.ndarray) -> bytes:
    """report.json's bytes: ``report``, the encoded dump_json of a report whose
    "selected" list is empty, with the ids of the pool rows ``selected`` put
    in that list, one JSON string per line, as dump_json writes a list."""
    if not selected.size:
        return report
    # JSON strings hold no raw newline, so this text at indent 2 is the
    # top-level key: found once, wherever sort_keys puts it
    head, tail = report.split(b'\n  "selected": []', 1)
    ids = json_id_texts(pool)
    items = b"".join(join_rows([b'    "', ids.rows(selected[s]), b'",\n'])
                     for s in padded_slices(ids.lengths[selected] + 8))
    # the last item ends in '"\n', not '",\n'
    return b"".join([head, b'\n  "selected": [\n', memoryview(items)[:-2], b"\n  ]", tail])


def json_id_texts(pool: Pool) -> Texts:
    """Each id's JSON string, encode_basestring's text, without its quotes.

    An id that JSON writes as it is keeps its bytes in ``pool.id_text``. An
    id that it escapes (one holding a '"', a '\\' or a byte below 0x20)
    goes through encode_basestring, one at a time.
    """
    text, texts = pool.id_text, pool.id_texts
    escaped = (text < 0x20) & (text != NEWLINE) | (text == ord('"')) | (text == ord("\\"))
    # the rows of the escaped bytes, ascending as the bytes are, each kept once
    rows = np.searchsorted(texts.starts, np.flatnonzero(escaped), side="right") - 1
    rows = rows[np.diff(rows, prepend=-1) != 0]
    if not rows.size:
        return texts
    bodies = [encode_basestring(pool.id_of(i))[1:-1].encode("utf-8") for i in rows.tolist()]
    starts, lengths = texts.starts.copy(), texts.lengths.copy()
    lengths[rows] = [len(b) for b in bodies]
    starts[rows] = text.size + np.cumsum(lengths[rows]) - lengths[rows]
    data = np.concatenate([text, np.frombuffer(b"".join(bodies), dtype=np.uint8)])
    return Texts(data, starts, lengths)


def format_rows(pool: Pool, middle: list[bytes | np.ndarray]) -> Iterator[np.ndarray]:
    """One {"id": ..., <middle>, "topic": ...} object per example, in id
    order, as json.dumps writes it with sorted keys and the floats of
    format_float. ``middle`` holds fixed texts and float64 columns.

    The rows are built and yielded a slice at a time, as uint8 arrays, each
    part as a matrix of padded rows: the ids' JSON text (json_id_texts),
    the fixed texts, the texts of each column (float_rows) and the topics'
    JSON text, joined by join_rows. A writer joins the slices; ``explain``
    compares them with a file one at a time.
    """
    ids = json_id_texts(pool)
    tails = Texts.of([f', "topic": {encode_basestring(t)}}}\n'.encode("utf-8")
                      for t in pool.topic_names])
    codes = pool.topic_codes
    fixed = sum(len(part) if isinstance(part, bytes) else FLOAT_WIDTH for part in middle)
    for s in padded_slices(ids.lengths + tails.lengths[codes] + 11 + fixed):
        yield join_rows([b'{"id": "', ids.rows(s), b'", ', *(
            part if isinstance(part, bytes) else float_rows(part[s]) for part in middle),
            tails.rows(codes[s])])


def format_price_rows(pool: Pool, state: MarketState) -> Iterator[np.ndarray]:
    """prices.jsonl and the ``price`` dump: {"id", "p", "q", "topic"} rows."""
    return format_rows(pool, [b'"p": ', state.prices, b', "q": ', state.shares])


def format_signal_rows(
    pool: Pool, table: SignalTable, std: StandardizedTable
) -> Iterator[np.ndarray]:
    """The ``signals`` dump: {"id", "signals", "standardized", "topic"} rows,
    with the raw and the standardized values each keyed by column name."""
    middle: list[bytes | np.ndarray] = []
    for key, columns in (("signals", table.columns), ("standardized", std.columns)):
        sep = f'{"}, " if middle else ""}"{key}": {{'
        for name in sorted(columns):
            middle += [f"{sep}{encode_basestring(name)}: ".encode("utf-8"), columns[name]]
            sep = ", "
    return format_rows(pool, [*middle, b"}"])


# 10^k for k = 0..108, each the float nearest it (an int converts rounded)
_POW10 = np.array([float(10**k) for k in range(109)])
# The columns of a value's text: the whole part, right-aligned with a
# place for the sign before it; a point; the digits after the point,
# left-aligned; and the "e-" and two digits of an exponent. PAD takes the
# place of every column that a value's text does not keep.
_WHOLE, _POINT, _FRACTION, _EXPONENT = slice(1, 9), 9, slice(10, 22), slice(22, 26)
FLOAT_WIDTH = 26
_TEMPLATE = np.frombuffer(bytes([PAD]) + b"0" * 8 + b"." + b"0" * 12 + b"e-00", dtype=np.uint8)
# the four digits of each number below 10^4, as one 4-byte item, and the
# number of its trailing zeros (4 for 0)
_QUADS = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(
    np.uint8).view("V4")[:, 0]
_TRAILING_ZEROS = (np.arange(10**4)[:, None] % [10, 100, 1000, 10**4] == 0).sum(axis=1)
_PAIRS = _QUADS.view(np.uint8).reshape(-1, 4)[:100, 2:].copy().view("V2")[:, 0]  # "00".."99"


def _float_pads() -> np.ndarray:
    """``pads[form * 9 + last]``: the bytes to OR into the columns of a
    certified value, 0 in each column that its text keeps and PAD in the
    others, by its form and the position of its last nonzero digit. Forms 0-11 are the fixed notation of
    decimal exponents -4..7, form 12 the exponent notation of exponents
    -99..-5: the forms of "%.9g", whose trailing zeros go, with
    format_float's ".0" after a whole number. The sign is not in it."""
    kept = np.zeros((13, 9, FLOAT_WIDTH), dtype=bool)
    for form in range(13):
        e = form - 4
        for last in range(9):
            cols = kept[form, last]
            if form == 12:
                whole, fraction = 1, last
            elif e >= 0:
                whole, fraction = e + 1, max(last, e + 1) - e
            else:  # 1 + last digits after -e - 1 zeros
                whole, fraction = 1, last - e
            cols[_WHOLE.stop - whole:_WHOLE.stop] = True
            cols[_POINT] = fraction > 0
            cols[_FRACTION.start:_FRACTION.start + fraction] = True
            cols[_EXPONENT] = form == 12
    return np.where(kept, 0, PAD).astype(np.uint8).reshape(-1, FLOAT_WIDTH)


_PADS = _float_pads()


def float_rows(x: np.ndarray) -> np.ndarray:
    """format_float(v) for each value v of ``x``, as the rows of a uint8
    matrix, each filled up with PAD.

    A value is written from a 9-digit integer mantissa m and a decimal
    exponent e, where v * 10^(8 - e) rounds to m, once it is certified:
    ``plain_g_text`` admits it, and that product, computed to within
    3e-7, lies more than 1e-6 from a rounding tie, so m is the mantissa of
    "%.9g" % v. Any other value goes through format_float itself (as in
    Grisu3, a fast path that hands on what it cannot vouch for). The text
    of a certified value has at most one run of PAD inside it, before an
    exponent, so that join_rows copies few runs.
    """
    ok = plain_g_text(x) & np.isfinite(x)
    a = np.where(ok, np.abs(x), 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    scaled = a * _POW10[8 - e]
    e += (scaled >= 1e9).view(np.int8)
    e -= (scaled < 1e8).view(np.int8)
    scaled = a * _POW10[8 - e]
    # 10^k and the product are each rounded once: a relative error of at
    # most 2^-52, under 2.3e-7 below 1e9
    ok &= (scaled >= 1e8) & (scaled < 1e9) & (np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6)
    m = np.rint(scaled).astype(np.int64)
    carry = m == 10**9  # 999999999.5 and up round to 1e9: m = 1e8, one exponent up
    m[carry] = 10**8
    e += carry
    ok &= e <= 7

    # The whole part is m's first e + 1 digits, or 0 below 1; the fraction
    # holds the rest of m's digits, after -e - 1 zeros below 1. The
    # exponent form's digits split as those of exponent 0.
    fixed = (e >= -4) & (e <= 7)
    ef = np.where(fixed, e, 0)
    split = _POW10[8 - np.maximum(ef, -1)]
    # exact in float64: m < 10^9 and the fraction < 10^12 are integers, and
    # a quotient's rounding cannot reach the next integer
    whole = np.floor(m / split)
    fraction = (m - whole * split) * _POW10[4 + ef]
    text = np.empty((x.size, FLOAT_WIDTH), dtype=np.uint8)
    text[:] = _TEMPLATE
    # the exponent's digits, kept only for exponents -99..-5
    text[:, -2:].view(_PAIRS.dtype)[:, 0] = _PAIRS[np.minimum(np.abs(e), 99)]
    for part, cols in ((whole, _WHOLE), (fraction, _FRACTION)):
        quads = text[:, cols].view(_QUADS.dtype)
        for k in range(quads.shape[1] - 1, -1, -1):
            part, quad = _divmod_10k(part)
            quads[:, k] = _QUADS[quad]
    high, low = _divmod_10k(m.astype(np.float64))
    middle = _divmod_10k(high)[1]  # high's quotient is d0, never 0
    zeros = np.where(low > 0, _TRAILING_ZEROS[low], 4 + _TRAILING_ZEROS[middle])
    form = np.where(e < -4, 12, np.clip(e + 4, 0, 11))
    text |= np.take(_PADS, form * 9 + 8 - zeros, axis=0)
    negative = np.flatnonzero(np.signbit(x))
    text[negative, _WHOLE.stop - 2 - np.maximum(ef[negative], 0)] = ord("-")

    for row in np.flatnonzero(~ok).tolist():
        # at most 24 bytes: repr's longest text, or "%.9g"'s 15 and ".0"
        value = format_float(float(x[row])).encode("ascii")
        text[row, :len(value)] = np.frombuffer(value, dtype=np.uint8)
        text[row, len(value):] = PAD
    return text


def _divmod_10k(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """divmod(x, 10^4) for integers x < 2^53 held as floats: the quotient
    as a float, the remainder as an index. Exact, as a quotient's rounding
    cannot reach the next integer."""
    high = np.floor(x / 1e4)
    return high, (x - high * 1e4).astype(np.intp)


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

    Recomputes the (deterministic) pipeline from the exact config echo of
    the run's report, from ``pool_path`` in place of its pool if given,
    with ``threads`` as in ``execute``. That is the run, so unless it
    writes the bytes of the run's prices.jsonl and selected.txt, the run
    (stale or torn, or its pool changed since) is refused. The file is
    compared a slice of format_rows at a time, so neither is held whole.
    """
    run_dir = Path(run_dir)
    report_path = run_dir / REPORT_FILE
    for name in (REPORT_FILE, PRICES_FILE, SELECTED_FILE):
        if not (run_dir / name).exists():
            raise ConfigError(f"no {name} in {run_dir}")
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
    for name, slices in ((PRICES_FILE, format_price_rows(pool, result.state)),
                         (SELECTED_FILE, [pool.id_lines(result.selection.selected)])):
        with open(run_dir / name, "rb") as stored:
            if not all(stored.read(len(part)) == bytes(part) for part in slices) or stored.read(1):
                raise ValidationError(f"{run_dir / name} differs from the run that {report_path} "
                                      "describes (stale or torn files, or a changed pool); "
                                      "run select again")
    idx = pool.index_of(example_id)
    label = int(pool.label_codes[idx])

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
    """``obj`` as indented JSON text, a float as its repr (round_floats
    rounds them first) and a NumPy scalar as its Python value."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False,
                      default=np.generic.item) + "\n"
