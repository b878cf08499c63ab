"""Example pool: rows, their one checker, and the column store.

A pool is an immutable, id-sorted set of examples partitioned into
topics. It is stored as columns: ids, topic codes, token lengths, label
codes, one float64 embedding matrix and one float64 array per ingested
signal. Everything downstream (signals, pricing, selection) reads the
columns; nothing mutates them after load.

A pool is built from rows. A row is a JSON object with keys ``id``
(string), ``topic`` (string), ``tokens`` (positive int), and optional
``label`` (string), ``embedding`` (list of numbers), ``signals``
(object name -> number). Unknown keys are ignored with a warning.
``load_pool`` reads the rows from a UTF-8 JSONL file, one per line;
``Pool.from_rows`` takes them from code. Both check each row with the
same checker, so both accept and reject the same rows with the same
messages, numbered by ``line`` or by ``row``.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Iterable
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError

KNOWN_KEYS = {"id", "topic", "tokens", "label", "embedding", "signals"}
MAX_TOKENS = 2**63 - 1  # token lengths are stored as int64


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

    The constructor takes columns that are already sorted and checked;
    build a pool with ``load_pool`` or ``Pool.from_rows``.
    """

    def __init__(
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

    @classmethod
    def from_rows(cls, rows: Iterable[object]) -> "Pool":
        """A pool from rows given in code, each the JSON object a pool
        file line holds. Rows are checked as ``load_pool`` checks lines,
        with the same errors and warnings, numbered ``row 1``, ``row 2``..."""
        columns = _Columns("row")
        for n, row in enumerate(rows, start=1):
            columns.add(row, n)
        return cls(**columns.finish())

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


class _Columns:
    """Pool rows checked one at a time and finished as id-sorted columns.

    ``add`` is the one row checker, for file lines and rows from code
    alike. Its messages start with ``<unit> <n>:``, where ``unit`` is
    "line" or "row" and ``n`` is the number the caller gives the row.
    Topic and label codes are numbered in first-seen order as rows come
    in and renumbered to sorted-name order by finish().
    """

    def __init__(self, unit: str) -> None:
        self.unit = unit
        self.first_seen: dict[str, int] = {}  # id -> number of its row
        self.dim_seen: tuple[int, int] | None = None  # (dimension, number of its first row)
        self.ids: list[str] = []
        self.topics: dict[str, int] = {}
        self.topic_codes: list[int] = []
        self.tokens: list[int] = []
        self.labels: dict[str, int] = {}
        self.label_codes: list[int] = []
        self.signals: dict[str, list[float]] = {}
        self.emb_rows: list[int] = []  # row indices that carry an embedding
        self.emb_list: list[np.ndarray] = []

    def add(self, obj: object, n: int) -> None:
        """Check row ``n`` and append it to the columns."""
        if type(obj) is not dict:
            raise ConfigError(f"{self.unit} {n}: expected a JSON object")
        if not KNOWN_KEYS.issuperset(obj):
            warnings.warn(
                f"{self.unit} {n}: ignoring unknown keys {sorted(set(obj) - KNOWN_KEYS)}",
                stacklevel=3,
            )
        try:
            rid = obj["id"]
            topic = obj["topic"]
            tokens = obj["tokens"]
        except KeyError as exc:
            raise ConfigError(f"{self.unit} {n}: missing required key {exc}") from None
        if type(rid) is not str:
            raise ConfigError(f"{self.unit} {n}: 'id' must be a string")
        if type(topic) is not str:
            raise ConfigError(f"{self.unit} {n}: 'topic' must be a string")
        if type(tokens) is not int:
            raise ConfigError(f"{self.unit} {n}: 'tokens' must be an integer")
        if tokens < 1:
            raise ValidationError(f"{self.unit} {n}: 'tokens' must be >= 1, got {tokens}")
        if tokens > MAX_TOKENS:
            raise ValidationError(f"{self.unit} {n}: 'tokens' must be < 2**63, got {tokens}")
        label = obj.get("label")
        if label is not None and type(label) is not str:
            raise ConfigError(f"{self.unit} {n}: 'label' must be a string")
        raw_emb = obj.get("embedding")
        embedding = None if raw_emb is None else self._embedding(raw_emb, n)

        raw_sig = obj.get("signals")
        if raw_sig is None:
            raw_sig = {}
        elif type(raw_sig) is not dict:
            raise ConfigError(f"{self.unit} {n}: 'signals' must be an object")
        for name, value in raw_sig.items():
            kind = type(value)
            if kind is not float and kind is not int:
                raise ConfigError(f"{self.unit} {n}: signal {name!r} must be a number")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise ValidationError(f"{self.unit} {n}: signal {name!r} is not finite")

        first = self.first_seen.setdefault(rid, n)
        if first != n:
            raise ValidationError(
                f"{self.unit} {n}: duplicate id {rid!r} "
                f"(first seen on {self.unit} {first})"
            )
        if embedding is not None:
            if self.dim_seen is None:
                self.dim_seen = (embedding.size, n)
            elif embedding.size != self.dim_seen[0]:
                raise ValidationError(
                    f"{self.unit} {n}: embedding dimension {embedding.size} does not "
                    f"match dimension {self.dim_seen[0]} from {self.unit} {self.dim_seen[1]}"
                )

        j = len(self.ids)
        self.ids.append(rid)
        self.topic_codes.append(self.topics.setdefault(topic, len(self.topics)))
        self.tokens.append(tokens)
        labels = self.labels
        self.label_codes.append(-1 if label is None else labels.setdefault(label, len(labels)))
        if embedding is not None:
            self.emb_rows.append(j)
            self.emb_list.append(embedding)
        for name, value in raw_sig.items():
            col = self.signals.get(name)
            if col is None:
                col = self.signals[name] = []
            if len(col) < j:
                col.extend([math.nan] * (j - len(col)))
            col.append(value)

    def _embedding(self, raw: object, n: int) -> np.ndarray:
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{self.unit} {n}: 'embedding' must be a non-empty array")
        try:
            row = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{self.unit} {n}: 'embedding' must contain only numbers"
            ) from None
        except OverflowError:  # an integer beyond the float range
            raise ValidationError(f"{self.unit} {n}: embedding has non-finite values") from None
        if row.ndim != 1:
            raise ConfigError(f"{self.unit} {n}: 'embedding' must be a flat array")
        if not np.all(np.isfinite(row)):
            raise ValidationError(f"{self.unit} {n}: embedding has non-finite values")
        return row

    def finish(self) -> dict[str, object]:
        """The keyword arguments of Pool(), rows in id order."""
        # the duplicate check is over; free its index before the arrays are built
        self.first_seen.clear()
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


def load_pool(path: str | Path) -> Pool:
    """Load and check a JSONL pool file straight into columns.

    Each line is parsed once and checked once, by the row checker that
    ``Pool.from_rows`` uses too. Errors name the offending line;
    duplicate ids and ragged embedding dimensions name both lines
    involved.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"pool file not found: {path}")
    columns = _Columns("line")
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"line {lineno}: invalid JSON ({exc.msg})") from None
                columns.add(obj, lineno)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"pool file {path} is not valid UTF-8: {exc.reason}") from None
    return Pool(**columns.finish())


def write_pool(pool: Pool, path: str | Path) -> None:
    """Write a pool back to JSONL; load_pool(write_pool(p)) == p."""
    emb = pool.embeddings
    with Path(path).open("w", encoding="utf-8") as fh:
        for i, rid in enumerate(pool.ids):
            obj: dict[str, object] = {
                "id": rid,
                "topic": pool.topic_names[pool.topic_codes[i]],
                "tokens": int(pool.token_lengths[i]),
            }
            label = pool.label_codes[i]
            if label >= 0:
                obj["label"] = pool.label_names[label]
            if emb is not None and not np.isnan(emb[i, 0]):
                obj["embedding"] = emb[i].tolist()
            signals = {
                name: float(col[i]) for name, col in pool.signals.items()
                if not math.isnan(col[i])
            }
            if signals:
                obj["signals"] = signals
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
