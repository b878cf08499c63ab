"""Example pool: rows, their one checker, and the column store.

A pool is an immutable, id-sorted set of examples partitioned into
topics. It is stored as columns: ids, topic codes, token lengths, label
codes, one float64 embedding matrix and one float64 array per ingested
signal. Everything downstream (signals, pricing, selection) reads the
columns; nothing mutates them after load.

A pool is built from rows. A row is a JSON object with keys ``id``
(string), ``topic`` (string), ``tokens`` (positive int), and optional
``label`` (string), ``embedding`` (list of numbers), ``signals``
(object name -> number). Unknown keys are ignored (``Pool.warnings``
names them). An id, topic or label must encode as UTF-8, and an id
holds no line break.
``load_pool`` reads the rows from a UTF-8 JSONL file, one per line;
``Pool.from_rows`` takes them from code. Both check each row with the
same checker, so both accept and reject the same rows with the same
messages, numbered by ``line`` or by ``row``.

``load_pool`` can split a large file into newline-aligned byte ranges
and parse them on several cores: the caller parses the first range and
forked workers the others, each handing back columns. Rows are checked
one range at a time, and one merge settles in line order what spans
rows and ranges (duplicate ids, the embedding dimension, which error
comes first, the warnings). A code row list is a single range. So the
result does not depend on the number of workers.

``load_pool`` keeps every pool that passes its checks in the cache (see
``cache``). A pool loaded from a file carries its entry's name
(``Pool.key``), so that a column derived from the pool alone, such as
the kNN rarity, is cached under a name that the pool's bytes are part of.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import operator
import os
import pickle
import signal
import stat
import time
import warnings
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from typing import TypeVar

import numpy as np

from . import cache
from .errors import ConfigError, MarketSelectError, ValidationError

KNOWN_KEYS = {"id", "topic", "tokens", "label", "embedding", "signals"}
MAX_TOKENS = 2**63 - 1  # token lengths are stored as int64


class Pool:
    """Validated, id-sorted examples stored as columns, with a topic index.

    Row i is the example with the i-th smallest id, in every column:

    * ``id_text``: the UTF-8 ids joined by "\\n", as uint8; ``ids``, the
      list of str, is built from it on first use;
    * ``topic_codes``: index into ``topic_names`` (sorted);
    * ``token_lengths``: int64;
    * ``label_codes``: index into ``label_names`` (sorted), -1 for no label;
    * ``embeddings``: n x d float64 matrix with NaN rows for examples
      without one, or None when no example has one;
    * ``signals``: ingested signal name -> float64 array, NaN where an
      example lacks that signal.

    ``topics`` maps each topic, in sorted order, to its ascending row
    indices. All downstream tie-breaks rely on ascending-id order.

    ``key`` is the name of the cache entry of the bytes the pool was loaded
    from (see ``load_pool``), or None: for a pool built in code, or one
    whose file may have changed while it loaded.

    ``warnings`` holds, in row order, ``line 10: ignoring unknown keys
    ['note']`` for each row with unknown keys (``row 10`` from code).

    The constructor takes columns that are already sorted and checked;
    build a pool with ``load_pool`` or ``Pool.from_rows``.
    """

    def __init__(
        self,
        id_text: np.ndarray,
        topic_codes: np.ndarray,
        token_lengths: np.ndarray,
        label_codes: np.ndarray,
        topic_names: list[str],
        label_names: list[str],
        embeddings: np.ndarray | None,
        signals: dict[str, np.ndarray],
        key: str | None = None,
        warnings: Sequence[str] = (),
    ) -> None:
        self.key = key
        self.warnings = list(warnings)
        self.id_text = id_text
        self.n = len(topic_codes)
        self.topic_codes = topic_codes
        self.token_lengths = token_lengths
        self.label_codes = label_codes
        self.topic_names = topic_names
        self.label_names = label_names
        self.embeddings = embeddings
        self.signals = signals
        for column in (id_text, topic_codes, token_lengths, label_codes, embeddings,
                       *signals.values()):
            if column is not None:
                column.flags.writeable = False
        # topic -> ascending-id index array; topics iterate in sorted order.
        # Codes of the narrowest type sort by radix, in the same order.
        by_topic = np.argsort(topic_codes.astype(np.min_scalar_type(len(topic_names))),
                              kind="stable")
        bounds = np.cumsum(np.bincount(topic_codes, minlength=len(topic_names)))[:-1]
        self.topics: dict[str, np.ndarray] = dict(zip(topic_names, np.split(by_topic, bounds)))
        self.has_labels = bool((label_codes >= 0).all())

    @classmethod
    def from_rows(cls, rows: Iterable[object]) -> "Pool":
        """A pool from rows given in code, each the JSON object a pool
        file line holds. Rows are checked as ``load_pool`` checks lines,
        with the same errors and warning texts, numbered ``row 1``, ``row 2``..."""
        columns = _Columns("row")
        for n, row in enumerate(rows, start=1):
            if not columns.add(row, n):
                break
        return cls(**_merge([columns.seal()]))

    def __len__(self) -> int:
        return self.n

    @cached_property
    def ids(self) -> list[str]:
        """The ids as str, for lookups by id; "".split("\\n") is one empty id."""
        return self.id_text.tobytes().decode("utf-8").split("\n") if self.n else []

    @cached_property
    def id_texts(self) -> Texts:
        """The ids as UTF-8 byte strings, one per row."""
        starts = np.flatnonzero(self.id_text == NEWLINE) + 1
        ends = np.append(starts - 1, self.id_text.size)
        starts = np.insert(starts, 0, 0)
        return Texts(self.id_text, starts[:self.n], (ends - starts)[:self.n])

    def id_of(self, row: int) -> str:
        texts = self.id_texts
        start = int(texts.starts[row])
        return texts.data[start:start + int(texts.lengths[row])].tobytes().decode("utf-8")

    def id_lines(self, rows: np.ndarray) -> bytes:
        """The UTF-8 ids of ``rows``, in that order, each followed by "\\n"."""
        texts = self.id_texts
        return b"".join(join_rows([texts.rows(rows[s]), b"\n"])
                        for s in padded_slices(texts.lengths[rows] + 1))

    @property
    def first_unlabelled(self) -> str | None:
        """The first id without a label, for error messages."""
        return None if self.has_labels else self.id_of(np.argmax(self.label_codes < 0))

    def index_of(self, example_id: str) -> int:
        """The row of ``example_id``, found by bisecting the sorted ids."""
        row = bisect.bisect_left(self.ids, example_id)
        if row == self.n or self.ids[row] != example_id:
            raise ValidationError(f"unknown example id {example_id!r}")
        return row

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
            raise ValidationError(f"record {self.id_of(missing[0])!r} has no embedding")
        return emb if emb is not None else np.empty((0, 0))


NEWLINE = ord("\n")
PAD = 0xFF  # a byte that UTF-8 text never holds
SLICE_BYTES = 1 << 20  # bytes of padded rows that one join_rows call takes


class Texts:
    """Byte strings in one buffer: string i is ``data[starts[i]:starts[i] +
    lengths[i]]``. The buffer ends in PAD bytes as many as the longest
    string holds, so that ``rows`` can read each string as a window of the
    longest one's width."""

    def __init__(self, data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
        longest = int(lengths.max()) if lengths.size else 0
        self.data = np.concatenate([data, np.full(longest, PAD, dtype=np.uint8)])
        self.starts, self.lengths = starts, lengths

    @classmethod
    def of(cls, strings: list[bytes]) -> "Texts":
        lengths = np.array([len(b) for b in strings], dtype=np.intp)
        data = np.frombuffer(b"".join(strings), dtype=np.uint8)
        return cls(data, np.cumsum(lengths) - lengths, lengths)

    def rows(self, index: np.ndarray | slice) -> np.ndarray:
        """The strings at ``index`` as the rows of a uint8 matrix as wide as
        the longest of them, each filled up with PAD."""
        starts, lengths = self.starts[index], self.lengths[index]
        width = int(lengths.max()) if lengths.size else 0
        if not width:
            return np.empty((lengths.size, 0), dtype=np.uint8)
        # each window of the buffer as one item, so that a gather copies items
        windows = np.lib.stride_tricks.sliding_window_view(self.data, width)
        block = windows.view(f"V{width}")[starts, 0].view(np.uint8).reshape(-1, width)
        if lengths.min() < width:  # PAD is 0xFF: OR it into the bytes past each end
            block |= np.negative((np.arange(width) >= lengths[:, None]).view(np.uint8))
        return block


def padded_slices(widths: np.ndarray) -> Iterator[slice]:
    """Consecutive slices that cover range(len(widths)), each of one row or
    of rows that, padded to the widest, hold at most SLICE_BYTES bytes."""
    start, n = 0, widths.size
    while start < n:
        end = min(n, start + max(1, SLICE_BYTES // max(1, int(widths[start]))))
        while end - start > 1 and (end - start) * int(widths[start:end].max()) > SLICE_BYTES:
            end = start + (end - start) // 2
        yield slice(start, end)
        start = end


def join_rows(parts: list[bytes | np.ndarray]) -> np.ndarray:
    """The bytes of each row's parts in turn, rows in order, with every PAD
    byte left out. A part is a uint8 matrix with a row per row, or bytes
    that every row holds; at least one part is a matrix."""
    rows = next(len(part) for part in parts if isinstance(part, np.ndarray))
    lines = np.concatenate([
        part if isinstance(part, np.ndarray)
        else np.broadcast_to(np.frombuffer(part, dtype=np.uint8), (rows, len(part)))
        for part in parts], axis=1)
    return lines[lines != PAD]


def _encodes(text: str) -> bool:
    """Whether UTF-8 encodes ``text``: it holds no lone surrogate, which a
    JSON escape such as \\ud800 can give a decoded string."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class _Columns:
    """The checked rows of one range of a pool, as columns.

    ``add`` is the one row checker, for file lines and rows from code
    alike. It checks everything that concerns the row alone; what spans
    rows (duplicate ids, one embedding dimension) and the numbering of
    the messages are left to ``_merge``, which sees every range. Rows
    are numbered within the range; a message starts with
    ``<unit> <n>:``, where ``unit`` is "line" or "row".

    ``add`` records instead of raising: the unknown keys of a row in
    ``warnings``, and the first rejected row in ``stop``, which ends the
    range. A row whose embedding dimension differs from the range's
    first one is kept (its id may still be a duplicate, which comes
    first) as ``ragged`` and ends the range too. ``seal`` then turns the
    row lists into arrays: the form a worker hands back. Topic and label
    codes index ``topics`` and ``labels``, whose names are in first-seen
    order.
    """

    def __init__(self, unit: str) -> None:
        self.unit = unit
        self.lines = array("q")  # number of each row within the range
        self.line_count = 0  # lines the range holds, blank ones included
        self.ids: list[str] = []
        self.topics: dict[str, int] = {}
        self.topic_codes: list[int] | np.ndarray = []
        self.tokens: list[int] | np.ndarray = []
        self.labels: dict[str, int] = {}
        self.label_codes: list[int] | np.ndarray = []
        self.signals: dict[str, list[float] | np.ndarray] = {}
        self.emb_rows: list[int] | np.ndarray = []  # rows that carry an embedding
        self.emb_dim = 0  # the dimension of the range's first embedding
        self.emb_list: list[list[float]] = []  # embeddings not yet in emb_blocks
        self.emb_blocks: list[np.ndarray] = []
        self.emb: np.ndarray | None = None  # emb_blocks joined by seal()
        self.ragged: tuple[int, int] | None = None  # (row, its embedding dimension)
        self.warnings: list[tuple[int, list[str]]] = []  # (n, unknown keys)
        self.stop: tuple[int, type[MarketSelectError], str] | None = None  # (n, class, message)
        self.bad_utf8: str | None = None  # the decoder's reason, when the range is not UTF-8

    def add(self, obj: object, n: int) -> bool:
        """Check row ``n`` and append it to the columns. False when the
        row ends the range: it was rejected, or it is ragged."""
        if type(obj) is not dict:
            return self.reject(n, ConfigError, "expected a JSON object")
        if not KNOWN_KEYS.issuperset(obj):
            self.warnings.append((n, sorted(set(obj) - KNOWN_KEYS)))
        try:
            rid = obj["id"]
            topic = obj["topic"]
            tokens = obj["tokens"]
        except KeyError as exc:
            return self.reject(n, ConfigError, f"missing required key {exc}")
        if type(rid) is not str:
            return self.reject(n, ConfigError, "'id' must be a string")
        # a line break and a lone surrogate are both unprintable
        if not rid.isprintable():
            if "\n" in rid or "\r" in rid:  # selected.txt holds one id per line
                return self.reject(n, ConfigError, "'id' must not hold '\\n' or '\\r'")
            if not _encodes(rid):
                return self.reject(n, ConfigError, "'id' is not UTF-8 text (a lone surrogate)")
        if type(topic) is not str:
            return self.reject(n, ConfigError, "'topic' must be a string")
        topic_code = self.topics.get(topic)
        if topic_code is None and not _encodes(topic):
            return self.reject(n, ConfigError, "'topic' is not UTF-8 text (a lone surrogate)")
        if type(tokens) is not int:
            return self.reject(n, ConfigError, "'tokens' must be an integer")
        if tokens < 1:
            return self.reject(n, ValidationError, f"'tokens' must be >= 1, got {tokens}")
        if tokens > MAX_TOKENS:
            return self.reject(n, ValidationError, f"'tokens' must be < 2**63, got {tokens}")
        label = obj.get("label")
        label_code = -1
        if label is not None:
            if type(label) is not str:
                return self.reject(n, ConfigError, "'label' must be a string")
            label_code = self.labels.get(label)
            if label_code is None and not _encodes(label):
                return self.reject(n, ConfigError, "'label' is not UTF-8 text (a lone surrogate)")

        embedding = obj.get("embedding")
        if embedding is not None:
            if not isinstance(embedding, list) or not embedding:
                return self.reject(n, ConfigError, "'embedding' must be a non-empty array")
            if not _NUMBER_TYPES.issuperset(map(type, embedding)):
                return self.reject(n, ConfigError, "'embedding' must contain only numbers")
            # From a float start, sum converts every integer to a float, so
            # the sum is finite only if every value is; the values of a sum
            # that overflows are checked one by one.
            try:
                finite = math.isfinite(sum(embedding, 0.0)) or bool(
                    np.isfinite(np.array(embedding, dtype=np.float64)).all())
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                return self.reject(n, ValidationError, "embedding has non-finite values")

        raw_sig = obj.get("signals")
        if raw_sig is None:
            raw_sig = {}
        elif type(raw_sig) is not dict:
            return self.reject(n, ConfigError, "'signals' must be an object")
        for name, value in raw_sig.items():
            kind = type(value)
            if kind is not float and kind is not int:
                return self.reject(n, ConfigError, f"signal {name!r} must be a number")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                return self.reject(n, ValidationError, f"signal {name!r} is not finite")

        j = len(self.ids)
        self.lines.append(n)
        self.ids.append(rid)
        if topic_code is None:
            topic_code = self.topics[topic] = len(self.topics)
        self.topic_codes.append(topic_code)
        self.tokens.append(tokens)
        if label_code is None:
            label_code = self.labels[label] = len(self.labels)
        self.label_codes.append(label_code)
        if embedding is not None:
            if self.emb_rows and len(embedding) != self.emb_dim:
                self.ragged = (j, len(embedding))
                return False
            self.emb_dim = len(embedding)
            self.emb_rows.append(j)
            self.emb_list.append(embedding)
            if len(self.emb_list) * self.emb_dim >= EMB_BLOCK:
                self.convert_embeddings()
        for name, value in raw_sig.items():
            col = self.signals.get(name)
            if col is None:
                col = self.signals[name] = []
            if len(col) < j:
                col.extend([math.nan] * (j - len(col)))
            col.append(value)
        return True

    def convert_embeddings(self) -> None:
        """Move the pending embeddings into one float64 block."""
        self.emb_blocks.append(np.array(self.emb_list, dtype=np.float64))
        self.emb_list = []

    def reject(self, n: int, kind: type[MarketSelectError], message: str) -> bool:
        """Record row ``n`` as the one that ends the range."""
        self.stop = (n, kind, message)
        return False

    def seal(self) -> "_Columns":
        """Turn the row lists into arrays, rows in range order."""
        k = len(self.ids)
        self.lines = np.frombuffer(self.lines, dtype=np.int64)
        self.topic_codes = np.array(self.topic_codes, dtype=np.intp)
        self.label_codes = np.array(self.label_codes, dtype=np.intp)
        self.tokens = np.array(self.tokens, dtype=np.int64)
        for name, col in self.signals.items():
            col.extend([math.nan] * (k - len(col)))
            self.signals[name] = np.array(col, dtype=np.float64)
        if self.emb_list:
            self.convert_embeddings()
        if self.emb_blocks:
            self.emb = np.concatenate(self.emb_blocks)
            self.emb_blocks = []
        self.emb_rows = np.array(self.emb_rows, dtype=np.intp)
        return self


_NUMBER_TYPES = frozenset((float, int))
# Embedding values that one np.array call converts; bounds the Python
# lists a range holds while it is parsed (about 2 MB of them).
EMB_BLOCK = 1 << 16


def _merge(parts: list[_Columns]) -> dict[str, object]:
    """The keyword arguments of Pool(): the rows of every range, in id
    order, and their warning texts, once the checks that span rows or
    ranges have passed.

    The ranges are walked in line order, with each range's numbers
    shifted by the lines of the ranges before it. The first error in
    line order wins: a rejected row, a duplicate id, or an embedding
    whose dimension differs from the first embedding's (a row's
    duplicate id comes before its dimension), and it is raised alone.
    """
    unit = parts[0].unit
    offsets: list[int] = []
    counts: list[int] = []  # rows of each range that come before the error
    dim: tuple[int, int] | None = None  # (dimension, number of its first row)
    error: tuple[int, type[MarketSelectError], str] | None = None
    offset = 0
    for part in parts:
        offsets.append(offset)
        cut = part.ragged
        if part.emb is not None:
            first, size = int(part.emb_rows[0]), part.emb.shape[1]
            if dim is None:
                dim = (size, offset + int(part.lines[first]))
            elif size != dim[0]:
                cut = (first, size)
        if cut is not None:
            row, size = cut
            counts.append(row + 1)
            error = (
                offset + int(part.lines[row]), ValidationError,
                f"embedding dimension {size} does not match dimension {dim[0]} "
                f"from {unit} {dim[1]}",
            )
            break
        counts.append(len(part.ids))
        if part.stop is not None:
            n, kind, message = part.stop
            error = (offset + n, kind, message)
            break
        offset += part.line_count
    parts = parts[: len(counts)]

    ids = list(chain.from_iterable(part.ids[:k] for part, k in zip(parts, counts)))
    # ids that strictly ascend hold no duplicate and are already in id
    # order; the check runs in C, well under the cost of the set and sort
    ascending = all(map(operator.lt, ids, islice(ids, 1, None)))
    if not ascending and len(set(ids)) < len(ids):
        first_seen: dict[str, int] = {}
        lines = np.concatenate([p.lines[:k] + o for p, k, o in zip(parts, counts, offsets)])
        for rid, n in zip(ids, lines.tolist()):
            first = first_seen.setdefault(rid, n)
            if first != n:
                message = f"duplicate id {rid!r} (first seen on {unit} {first})"
                error = (n, ValidationError, message)
                break

    if error is not None:
        n, kind, message = error
        raise kind(f"{unit} {n}: {message}")

    n = len(ids)
    perm = None
    if not ascending:
        order = sorted(range(n), key=ids.__getitem__)
        if any(i != k for k, i in enumerate(order)):
            perm = np.array(order, dtype=np.intp)
            ids = [ids[i] for i in order]

    def rows(column: np.ndarray) -> np.ndarray:
        return column if perm is None else column[perm]

    def sorted_codes(
        first_seen: list[dict[str, int]], codes: list[np.ndarray]
    ) -> tuple[list[str], np.ndarray]:
        """Each range's codes renumbered to the sorted names of all ranges."""
        names = sorted(set().union(*first_seen))
        rank = {name: r for r, name in enumerate(names)}
        remaps = [np.array([rank[name] for name in seen] + [-1], dtype=np.intp)
                  for seen in first_seen]
        # -1 (no label) maps to the remap's last entry, -1
        return names, rows(np.concatenate([remap[c] for remap, c in zip(remaps, codes)]))

    topic_names, topic_codes = sorted_codes([p.topics for p in parts],
                                            [p.topic_codes for p in parts])
    label_names, label_codes = sorted_codes([p.labels for p in parts],
                                            [p.label_codes for p in parts])
    signals = {
        name: rows(np.concatenate([p.signals.get(name, np.full(len(p.ids), np.nan))
                                   for p in parts]))
        for name in dict.fromkeys(name for p in parts for name in p.signals)
    }

    embeddings = None
    bases = np.cumsum([0] + counts[:-1])
    blocks = [(p.emb_rows + base, p.emb) for p, base in zip(parts, bases) if p.emb is not None]
    if len(blocks) == 1 and len(blocks[0][0]) == n:
        embeddings = rows(blocks[0][1])
    elif blocks:
        # each block goes straight to its rows' places in id order
        place = np.arange(n) if perm is None else np.argsort(perm)
        embeddings = np.full((n, dim[0]), np.nan)
        for dest, block in blocks:
            embeddings[place[dest]] = block

    return dict(
        id_text=np.frombuffer("\n".join(ids).encode("utf-8"), dtype=np.uint8),
        topic_codes=topic_codes,
        token_lengths=rows(np.concatenate([p.tokens for p in parts])),
        label_codes=label_codes,
        topic_names=topic_names,
        label_names=label_names,
        embeddings=embeddings,
        signals=signals,
        warnings=[f"{unit} {o + n}: ignoring unknown keys {keys}"
                  for part, o in zip(parts, offsets) for n, keys in part.warnings],
    )


def topic_sizes(pool: Pool) -> dict[str, int]:
    """Number of examples per topic; counts sum to len(pool)."""
    return {t: int(idx.size) for t, idx in pool.topics.items()}


def token_sum(lengths: np.ndarray) -> int:
    """The exact sum of token lengths; an int64 sum could wrap."""
    return sum(lengths.tolist())


# Bytes a range must hold, at least, to get a worker of its own. Forking
# a worker takes 2-5 ms on a 2-vCPU VM, but there two ranges parsed at
# once each ran up to 1.9x slower than one alone, so a split pays only
# on larger files. Loading pools of 160-byte rows with 2 workers against
# 1 (medians of 8): 2.4 MB 0.185 -> 0.188 s, 4.8 MB 0.36 -> 0.28 s,
# 9.6 MB 0.71 -> 0.41 s, 32 MB 2.33 -> 1.37 s. Below 8 MiB a split saves
# at most about 0.1 s and costs CPU time, so such a file is one range.
RANGE_FLOOR = 4 << 20
# Nanoseconds by which a file's ctime must precede a load for the load to
# index the file's identity: past any timestamp granularity (FAT's is 2 s).
SETTLE_NS = 2 * 10**9


def load_pool(path: str | Path, workers: int = 1) -> Pool:
    """Load and check a JSONL pool file straight into columns.

    The file is split into at most ``workers`` ranges that end on a
    newline, at most one per usable CPU and one per ``RANGE_FLOOR``
    bytes. ``fork_map`` parses them: the calling process the first range,
    a forked worker each other range, or the caller a range whose worker
    cannot start or dies. Within a range the lines are read
    as text-mode files read them: universal newlines, blank lines
    skipped. Every row goes through the row checker that
    ``Pool.from_rows`` uses too, and ``_merge`` settles, in line order,
    what spans rows and ranges; so the pool, its warning texts and the
    error do not depend on ``workers``. A refused file raises its error
    alone, whatever warning texts its earlier lines would give.

    Errors name the offending line; duplicate ids and ragged embedding
    dimensions name both lines involved. A file that is not valid UTF-8
    is refused as such, whatever other errors it holds.

    A regular file is first looked up in the cache under the name of
    this module's source and its bytes (``cache.entry``). On a hit the
    columns and the warning texts come from the entry; a missing, damaged or
    wrong entry is a miss, which parses the file as above and stores a
    pool that passes its checks, unless the file's ``_identity`` changed
    meanwhile. The cache never changes a result.

    Before the bytes are hashed, the file's ``_identity`` is looked up in
    an index entry that names the bytes' entry, so a file already seen is
    not read at all. An index is written after a hit or a store, when the
    identity did not change meanwhile and the file's ctime was at least
    ``SETTLE_NS`` older than the load. A write sets the file's ctime,
    which no process can set back, so a later write changes the identity;
    the margin leaves no write in the same timestamp tick as the ctime
    the identity holds (git's rule for a "racily clean" file).

    The pool's ``key`` is that name, a hex sha256, on a hit or on a miss
    whose file kept its identity; otherwise it is None, so a column cached
    under the key always belongs to the bytes the pool holds.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"pool file not found: {path}")
    now = time.time_ns()
    identity = _identity(path)
    index = None if identity is None else cache.entry(
        cache.INDEX, Path(__file__), repr(identity).encode())
    entry = None if index is None else cache.follow(index, cache.POOL)
    hit = None if entry is None else cache.read(entry, _decode)
    if hit is not None:
        index = None  # it named this entry already
    elif index is not None:
        entry = cache.entry(cache.POOL, Path(__file__), path)
        hit = None if entry is None else cache.read(entry, _decode)
    columns = hit
    if hit is None:
        parts = fork_map(_parse_range, [(path, *r) for r in _ranges(path, workers)])
        for part in parts:
            if part.bad_utf8 is not None:
                raise ConfigError(f"pool file {path} is not valid UTF-8: {part.bad_utf8}")
        columns = _merge(parts)
    if index is not None and entry is not None:  # the bytes were hashed
        unchanged = _identity(path) == identity
        if hit is None:
            if unchanged:
                _write_entry(entry, columns)
            else:
                entry = None
        if unchanged and identity[-1] <= now - SETTLE_NS:
            cache.link(index, entry)
    return Pool(**columns, key=None if entry is None else entry.stem)


def _identity(path: Path) -> tuple[int, ...] | None:
    """The (device, inode, size, mtime, ctime) of the regular file at ``path``;
    None for another kind of file, or when it cannot be read."""
    try:
        st = path.stat()
    except OSError:
        return None
    if not stat.S_ISREG(st.st_mode):
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


# a pool entry's arrays that are Pool() arguments as they are, and their dtypes
_CODES = {"topic_codes": np.intp, "token_lengths": np.int64, "label_codes": np.intp}


def _decode(arrays: dict[str, np.ndarray]) -> dict[str, object]:
    """The keyword arguments of Pool() of a pool's cache entry, its warning
    texts among them; raises on a field missing or of the wrong type, dtype, length or range."""
    header = json.loads(arrays["header"].tobytes())
    topics, labels, names, texts = (header[field]
                                    for field in ("topics", "labels", "signals", "warnings"))
    if not all(type(v) is list and all(type(s) is str for s in v)
               for v in (topics, labels, names, texts)):
        raise TypeError("a header field is not a list of strings")
    n = len(arrays["topic_codes"])
    id_text, emb = arrays["ids"], arrays.get("embeddings")
    expected = {name: (dtype, (n,)) for name, dtype in _CODES.items()}
    expected["ids"] = (np.uint8, (id_text.size,))
    expected["signals"] = (np.float64, (len(names), n))
    if emb is not None:  # n rows of any one width
        expected["embeddings"] = (np.float64, (n, emb.shape[1] if emb.ndim == 2 else -1))
    topic_codes, label_codes = arrays["topic_codes"], arrays["label_codes"]
    if any(arrays[name].dtype != dtype or arrays[name].shape != shape
           for name, (dtype, shape) in expected.items()) or n and not (
            0 <= topic_codes.min() <= topic_codes.max() < len(topics)
            and -1 <= label_codes.min() <= label_codes.max() < len(labels)):
        raise ValueError("not a pool entry")
    # n ids are joined by n - 1 newlines, and none by none
    if np.count_nonzero(id_text == NEWLINE) != max(n - 1, 0):
        raise ValueError("not the pool's number of ids")
    str(id_text, "utf-8")  # raises unless the ids are UTF-8 text
    return dict(id_text=id_text, topic_names=topics, label_names=labels, embeddings=emb,
                signals=dict(zip(names, arrays["signals"])), warnings=texts,
                **{name: arrays[name] for name in _CODES})


def _write_entry(entry: Path, columns: dict[str, object]) -> None:
    """Cache a pool file's checked columns and warning texts in ``entry``."""
    signals, emb = columns["signals"], columns["embeddings"]
    header = {"topics": columns["topic_names"], "labels": columns["label_names"],
              "signals": list(signals), "warnings": columns["warnings"]}
    arrays = {name: columns[name] for name in _CODES}
    arrays["header"] = np.frombuffer(json.dumps(header).encode("ascii"), dtype=np.uint8)
    arrays["signals"] = np.array([*signals.values()], np.float64).reshape(
        len(signals), len(columns["topic_codes"]))
    arrays["ids"] = columns["id_text"]
    if emb is not None:
        arrays["embeddings"] = emb
    cache.write(entry, arrays)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _ranges(path: Path, workers: int) -> list[tuple[int, int]]:
    """Byte ranges [start, end) that cover the file, each but the last
    ending just after a newline."""
    size = path.stat().st_size
    count = max(1, min(workers, _usable_cpus(), size // RANGE_FLOOR))
    bounds = [0]
    with path.open("rb") as fh:
        for k in range(1, count):
            pos = max(size * k // count, bounds[-1])
            fh.seek(pos)
            while chunk := fh.read(1 << 16):
                newline = chunk.find(b"\n")
                if newline >= 0:
                    pos += newline + 1
                    break
                pos += len(chunk)
            bounds.append(pos)
    bounds.append(size)
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b] or [(0, size)]


T = TypeVar("T")


def fork_map(task: Callable[..., T], args: Sequence[tuple]) -> list[T]:
    """``[task(*a) for a in args]``, the tasks run side by side.

    The calling process runs the first task; each other task runs in a
    forked worker, which pipes back its pickled result, read once the
    caller's own task is done. A task whose worker cannot start or does
    not exit cleanly, or every task where there is no ``fork``, runs in
    the calling process instead, so the results do not depend on how many
    workers ran. A worker sees the caller's memory as it was at the fork,
    so the arguments are not copied. No worker outlives this.
    """
    workers: list[_Worker | None] = []
    try:
        # extend() appends one worker at a time, so a failure midway
        # still leaves the ones started to the cleanup below
        workers.extend(_start_worker(task, a) for a in args[1:])
        results = [task(*a) for a in args[:1]]
        for i, a in enumerate(args[1:]):
            worker, workers[i] = workers[i], None  # collect() reaps it, whatever happens
            data = None if worker is None else worker.collect()
            results.append(pickle.loads(data) if data is not None else task(*a))
    finally:
        for worker in workers:  # still running only if this raised
            if worker is not None:
                worker.kill()
    return results


def _start_worker(task: Callable[..., object], args: tuple) -> _Worker | None:
    """Fork a worker that runs ``task(*args)`` and pipes back its pickled
    result, or None when no worker can start."""
    if not hasattr(os, "fork"):
        return None
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork() in a process with threads (BLAS
            # has some); a worker runs no threads of its own, so the
            # warning is moot
            warnings.simplefilter("ignore")
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = pickle.dumps(task(*args), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as out:
                out.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return _Worker(pid, open(read_fd, "rb"))


class _Worker:
    """A forked worker and the read end of its pipe."""

    def __init__(self, pid: int, pipe: io.BufferedReader) -> None:
        self.pid = pid
        self.pipe = pipe

    def collect(self) -> bytes | None:
        """The worker's pickled result, or None when it did not finish
        cleanly. The worker is reaped in any case."""
        try:
            data = self.pipe.read()
        except OSError:
            data = None
        except BaseException:  # an interrupt
            self.kill()
            raise
        return data if self._reap() == 0 else None

    def kill(self) -> None:
        """Kill the worker and reap it."""
        os.kill(self.pid, signal.SIGKILL)
        self._reap()

    def _reap(self) -> int:
        """Close the pipe and wait for the worker; its exit code."""
        self.pipe.close()
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


class _Span(io.RawIOBase):
    """Bytes [start, end) of an open binary file, as a raw stream."""

    def __init__(self, fh: io.FileIO, start: int, end: int) -> None:
        fh.seek(start)
        self.fh = fh
        self.left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: memoryview) -> int:
        got = self.fh.readinto(memoryview(buffer)[: self.left])
        self.left -= got
        return got


_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def decode_json_line(line: str) -> object:
    """``json.loads(line)``: the same value, or the same JSONDecodeError.

    A line that starts with its JSON value and ends in JSON whitespace
    (the form every writer of a JSON Lines file gives it) is decoded by
    one ``raw_decode`` call, which skips ``json.loads``'s own checks and
    whitespace scans. Every other line (leading whitespace, a BOM,
    trailing data, invalid JSON) goes to ``json.loads`` itself, so each
    value and each error is exactly what it gives.
    """
    try:
        value, end = _raw_decode(line)
    except json.JSONDecodeError:
        return json.loads(line)
    if end == len(line) or not line[end:].strip(_JSON_SPACE):
        return value
    return json.loads(line)


def _parse_range(path: Path, start: int, end: int) -> _Columns:
    """Parse and check the lines in bytes [start, end) of a pool file."""
    columns = _Columns("line")
    with path.open("rb", buffering=0) as fh:
        text = io.TextIOWrapper(io.BufferedReader(_Span(fh, start, end), 1 << 16),
                                encoding="utf-8")
        try:
            n = 0
            for n, line in enumerate(text, start=1):
                if line.isspace():
                    continue
                try:
                    obj = decode_json_line(line)
                except json.JSONDecodeError as exc:
                    columns.reject(n, ConfigError, f"invalid JSON ({exc.msg})")
                    break
                if not columns.add(obj, n):
                    break
            columns.line_count = n
            for _ in text:  # a range that stopped early must still be UTF-8
                pass
        except UnicodeDecodeError as exc:
            columns.bad_utf8 = exc.reason
    return columns.seal()


def write_pool(pool: Pool, path: str | Path) -> None:
    """Write a pool back to JSONL, atomically; load_pool(write_pool(p)) == p."""
    from .pipeline import encode_text, write_atomic  # pipeline imports this module

    emb = pool.embeddings
    lines = []
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
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    path = Path(path)
    write_atomic([(path, encode_text(path, "".join(lines)))])
