"""Example pool: data model, JSONL ingestion, and validation.

A pool is an immutable, id-sorted set of examples partitioned into
topics. It is stored as columns: ids, topic codes, token lengths, label
codes, one float64 embedding matrix and one float64 array per ingested
signal. Everything downstream (signals, pricing, selection) reads the
columns; nothing mutates them after load. ``Pool.records`` and
``Pool.record()`` give per-example ``ExampleRecord`` views for callers
that want objects.

Pool file format: UTF-8 JSONL, one object per line with keys
``id`` (string), ``topic`` (string), ``tokens`` (positive int), and
optional ``label`` (string), ``embedding`` (list of numbers),
``signals`` (object name -> number). Unknown keys are ignored with a
warning.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError

KNOWN_KEYS = {"id", "topic", "tokens", "label", "embedding", "signals"}


@dataclass
class ExampleRecord:
    """One pool item. Treated as immutable after pool construction."""

    id: str
    topic: str
    token_length: int
    label: str | None = None
    embedding: np.ndarray | None = None
    raw_signals: dict[str, float] = field(default_factory=dict)


class Pool:
    """Validated, id-sorted examples stored as columns, with a topic index.

    Row i is the example with the i-th smallest id, in every column:

    * ``ids``: list of str;
    * ``topic_codes``: index into ``topic_names`` (sorted);
    * ``token_lengths``: int64;
    * ``label_codes``: index into ``label_names`` (sorted), -1 for no label;
    * ``embeddings``: n x d float64 matrix with NaN rows for examples
      without one, or None when no example has one;
    * ``signals``: ingested signal name -> float64 array, NaN where an
      example lacks that signal.

    ``topics`` maps each topic, in sorted order, to its ascending row
    indices. All downstream tie-breaks rely on ascending-id order.
    ``records`` and ``record()`` build ExampleRecord views on demand.
    """

    def __init__(self, records: list[ExampleRecord]):
        records = sorted(records, key=lambda r: r.id)
        _validate_records(records)
        columns = _Columns()
        for r in records:
            columns.add(r.id, r.topic, r.token_length, r.label, r.embedding, r.raw_signals)
        self._set_columns(**columns.finish())

    @classmethod
    def from_columns(cls, **columns) -> "Pool":
        """A pool over already sorted, already validated columns, given by
        the keyword names of _set_columns."""
        pool = cls.__new__(cls)
        pool._set_columns(**columns)
        return pool

    def _set_columns(
        self,
        ids: list[str],
        topic_codes: np.ndarray,
        token_lengths: np.ndarray,
        label_codes: np.ndarray,
        topic_names: list[str],
        label_names: list[str],
        embeddings: np.ndarray | None,
        signals: dict[str, np.ndarray],
    ) -> None:
        self.ids = ids
        self.topic_codes = topic_codes
        self.token_lengths = token_lengths
        self.label_codes = label_codes
        self.topic_names = topic_names
        self.label_names = label_names
        self.embeddings = embeddings
        self.signals = signals
        for column in (topic_codes, token_lengths, label_codes, embeddings, *signals.values()):
            if column is not None:
                column.flags.writeable = False
        # topic -> ascending-id index array; topics iterate in sorted order
        by_topic = np.argsort(topic_codes, kind="stable")
        bounds = np.cumsum(np.bincount(topic_codes, minlength=len(topic_names)))[:-1]
        self.topics: dict[str, np.ndarray] = dict(zip(topic_names, np.split(by_topic, bounds)))
        unlabelled = np.flatnonzero(label_codes < 0)
        self.has_labels = unlabelled.size == 0
        # first id without a label, for error messages
        self.first_unlabelled = None if self.has_labels else ids[unlabelled[0]]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def _pos(self) -> dict[str, int]:
        return {rid: i for i, rid in enumerate(self.ids)}

    def index_of(self, example_id: str) -> int:
        try:
            return self._pos[example_id]
        except KeyError:
            raise ValidationError(f"unknown example id {example_id!r}") from None

    def record(self, example_id: str) -> ExampleRecord:
        return self._record_at(self.index_of(example_id))

    @cached_property
    def records(self) -> list[ExampleRecord]:
        """Per-example views in id order (embeddings are rows of the matrix)."""
        return [self._record_at(i) for i in range(self.n)]

    def _record_at(self, i: int) -> ExampleRecord:
        emb = self.embeddings
        label = int(self.label_codes[i])
        return ExampleRecord(
            id=self.ids[i],
            topic=self.topic_names[self.topic_codes[i]],
            token_length=int(self.token_lengths[i]),
            label=None if label < 0 else self.label_names[label],
            embedding=None if emb is None or np.isnan(emb[i, 0]) else emb[i],
            raw_signals={
                name: float(col[i]) for name, col in self.signals.items()
                if not math.isnan(col[i])
            },
        )

    def labels(self) -> list[str]:
        """Sorted distinct labels; requires every record to carry one."""
        if not self.has_labels:
            raise ValidationError(f"record {self.first_unlabelled!r} has no label")
        return list(self.label_names)

    def embedding_matrix(self) -> np.ndarray:
        """N x d matrix of embeddings; fails if any record lacks one.

        Missing embeddings are permitted at load time and only rejected
        here, when a geometric signal actually needs them.
        """
        emb = self.embeddings
        missing = np.arange(self.n) if emb is None else np.flatnonzero(np.isnan(emb[:, 0]))
        if missing.size:
            raise ValidationError(f"record {self.ids[missing[0]]!r} has no embedding")
        return emb if emb is not None else np.empty((0, 0))


def _validate_records(records: list[ExampleRecord]) -> None:
    """Checks for records built in code, in id order (load_pool checks
    each line as it parses it)."""
    seen: set[str] = set()
    dim: int | None = None
    for r in records:
        if r.id in seen:
            raise ValidationError(f"duplicate id {r.id!r} in pool")
        seen.add(r.id)
        if r.token_length < 1:
            raise ValidationError(
                f"record {r.id!r}: token_length must be >= 1, got {r.token_length}"
            )
        if r.embedding is not None:
            if r.embedding.ndim != 1 or r.embedding.size < 1:
                raise ValidationError(
                    f"record {r.id!r}: embedding must be a non-empty 1-D vector"
                )
            if dim is None:
                dim = r.embedding.size
            elif r.embedding.size != dim:
                raise ValidationError(
                    f"record {r.id!r}: embedding dimension {r.embedding.size} "
                    f"does not match earlier dimension {dim}"
                )
            if not np.all(np.isfinite(r.embedding)):
                raise ValidationError(
                    f"record {r.id!r}: embedding contains non-finite values"
                )
        for name, value in r.raw_signals.items():
            if not math.isfinite(value):
                raise ValidationError(
                    f"record {r.id!r}: signal {name!r} is not finite"
                )


class _Columns:
    """Pool rows gathered in any order and finished as id-sorted columns.

    Topic and label codes are numbered in first-seen order as rows come
    in and renumbered to sorted-name order by finish(). Rows are already
    checked; the caller does that.
    """

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.topics: dict[str, int] = {}
        self.topic_codes: list[int] = []
        self.tokens: list[int] = []
        self.labels: dict[str, int] = {}
        self.label_codes: list[int] = []
        self.signals: dict[str, list[float]] = {}
        self.emb_rows: list[int] = []  # row indices that carry an embedding
        self.emb_list: list[np.ndarray] = []

    def add(
        self,
        rid: str,
        topic: str,
        tokens: int,
        label: str | None,
        embedding: np.ndarray | None,
        signals: dict[str, float],
    ) -> None:
        j = len(self.ids)
        self.ids.append(rid)
        self.topic_codes.append(self.topics.setdefault(topic, len(self.topics)))
        self.tokens.append(tokens)
        labels = self.labels
        self.label_codes.append(-1 if label is None else labels.setdefault(label, len(labels)))
        if embedding is not None:
            self.emb_rows.append(j)
            self.emb_list.append(embedding)
        for name, value in signals.items():
            col = self.signals.get(name)
            if col is None:
                col = self.signals[name] = []
            if len(col) < j:
                col.extend([math.nan] * (j - len(col)))
            col.append(value)

    def finish(self) -> dict[str, object]:
        """The keyword arguments of Pool._set_columns, rows in id order."""
        ids, n = self.ids, len(self.ids)
        embeddings = None
        if self.emb_rows:
            stacked = np.stack(self.emb_list).astype(np.float64, copy=False)
            self.emb_list.clear()
            if len(self.emb_rows) == n:
                embeddings = stacked
            else:
                embeddings = np.full((n, stacked.shape[1]), np.nan)
                embeddings[self.emb_rows] = stacked
            del stacked
        signals = {}
        for name, col in self.signals.items():
            col.extend([math.nan] * (n - len(col)))
            signals[name] = np.array(col, dtype=np.float64)
        self.signals.clear()

        order = sorted(range(n), key=ids.__getitem__)
        perm = None
        if any(i != k for k, i in enumerate(order)):
            perm = np.array(order, dtype=np.intp)
            ids = [ids[i] for i in order]

        def rows(column: np.ndarray) -> np.ndarray:
            return column if perm is None else column[perm]

        def sorted_codes(codes: list[int], first_seen: dict[str, int]) -> np.ndarray:
            rank = {name: r for r, name in enumerate(sorted(first_seen))}
            remap = np.array([rank[name] for name in first_seen] + [-1], dtype=np.intp)
            return rows(remap[np.array(codes, dtype=np.intp)])  # -1 stays -1

        return dict(
            ids=ids,
            topic_codes=sorted_codes(self.topic_codes, self.topics),
            token_lengths=rows(np.array(self.tokens, dtype=np.int64)),
            label_codes=sorted_codes(self.label_codes, self.labels),
            topic_names=sorted(self.topics),
            label_names=sorted(self.labels),
            embeddings=None if embeddings is None else rows(embeddings),
            signals={name: rows(col) for name, col in signals.items()},
        )


def topic_sizes(pool: Pool) -> dict[str, int]:
    """Number of examples per topic; counts sum to len(pool)."""
    return {t: int(idx.size) for t, idx in pool.topics.items()}


def _embedding_row(raw: object, lineno: int) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"line {lineno}: 'embedding' must be a non-empty array")
    try:
        row = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"line {lineno}: 'embedding' must contain only numbers") from None
    if row.ndim != 1:
        raise ConfigError(f"line {lineno}: 'embedding' must be a flat array")
    if not np.all(np.isfinite(row)):
        raise ValidationError(f"line {lineno}: embedding has non-finite values")
    return row


def load_pool(path: str | Path) -> Pool:
    """Load and validate a JSONL pool file straight into columns.

    Each line is parsed once and checked once. Per-line problems are
    reported with the offending line number; duplicate ids and ragged
    embedding dimensions name the lines involved.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"pool file not found: {path}")
    columns = _Columns()
    first_line: dict[str, int] = {}
    dim_seen: tuple[int, int] | None = None  # (dimension, first lineno)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            if type(obj) is not dict:
                raise ConfigError(f"line {lineno}: expected a JSON object")
            if not KNOWN_KEYS.issuperset(obj):
                warnings.warn(
                    f"line {lineno}: ignoring unknown keys {sorted(set(obj) - KNOWN_KEYS)}",
                    stacklevel=2,
                )
            try:
                rid = obj["id"]
                topic = obj["topic"]
                tokens = obj["tokens"]
            except KeyError as exc:
                raise ConfigError(f"line {lineno}: missing required key {exc}") from None
            if type(rid) is not str:
                raise ConfigError(f"line {lineno}: 'id' must be a string")
            if type(topic) is not str:
                raise ConfigError(f"line {lineno}: 'topic' must be a string")
            if type(tokens) is not int:
                raise ConfigError(f"line {lineno}: 'tokens' must be an integer")
            if tokens < 1:
                raise ValidationError(f"line {lineno}: 'tokens' must be >= 1, got {tokens}")
            label = obj.get("label")
            if label is not None and type(label) is not str:
                raise ConfigError(f"line {lineno}: 'label' must be a string")
            raw_emb = obj.get("embedding")
            row = None if raw_emb is None else _embedding_row(raw_emb, lineno)

            raw_sig = obj.get("signals")
            if raw_sig is None:
                raw_sig = {}
            elif type(raw_sig) is not dict:
                raise ConfigError(f"line {lineno}: 'signals' must be an object")
            for name, value in raw_sig.items():
                kind = type(value)
                if kind is not float and kind is not int:
                    raise ConfigError(f"line {lineno}: signal {name!r} must be a number")
                if not math.isfinite(value):
                    raise ValidationError(f"line {lineno}: signal {name!r} is not finite")

            if rid in first_line:
                raise ValidationError(
                    f"line {lineno}: duplicate id {rid!r} "
                    f"(first seen on line {first_line[rid]})"
                )
            first_line[rid] = lineno
            if row is not None:
                if dim_seen is None:
                    dim_seen = (row.size, lineno)
                elif row.size != dim_seen[0]:
                    raise ValidationError(
                        f"line {lineno}: embedding dimension {row.size} "
                        f"does not match dimension {dim_seen[0]} from line {dim_seen[1]}"
                    )
            columns.add(rid, topic, tokens, label, row, raw_sig)
    del first_line
    return Pool.from_columns(**columns.finish())


def write_pool(pool: Pool, path: str | Path) -> None:
    """Write a pool back to JSONL; load_pool(write_pool(p)) == p."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for r in pool.records:
            obj: dict[str, object] = {
                "id": r.id,
                "topic": r.topic,
                "tokens": int(r.token_length),
            }
            if r.label is not None:
                obj["label"] = r.label
            if r.embedding is not None:
                obj["embedding"] = [float(x) for x in r.embedding]
            if r.raw_signals:
                obj["signals"] = {k: float(v) for k, v in r.raw_signals.items()}
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
