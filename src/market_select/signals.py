"""Geometric utility signals computed from embeddings, plus pass-through
of ingested per-example signals.

Three geometric signals are provided:

* rarity: mean Euclidean distance to the k nearest same-topic neighbors
  (anti-density; large values mark unusual examples),
* div_cent: distance to the topic centroid,
* div: weighted combination of the two.

Rarity and centroid distance are computed within topics so that topic
identity is not confounded with distributional coverage.
"""

from __future__ import annotations

import ctypes
import functools
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, ValidationError
from . import cache, pool as pool_module
from .pool import Pool

DEFAULT_K = 10
_CHUNK_ROWS = 256
# m: GEMM candidates kept per row beyond the k needed, so the certificate
# has a margin between the k-th and the nearest non-candidate
_EXTRA_CANDIDATES = 6
# float64 elements in one piece of exact_sq_distances' differences (512 KiB)
_DIFF_BUFFER = 1 << 16
# The candidate tournament (nearest_columns): columns per group, the most
# levels of group minima, and the fewest groups per level, in units of the
# c + 1 groups a level keeps. An index pads its rows to a multiple of
# _GROUP ** _LEVELS, so every level of a padded block divides.
_GROUP = 8
_LEVELS = 2
_MIN_GROUPS = 4


@dataclass
class SignalTable:
    """Column store of raw per-example signal values.

    Every column has one value per pool record (ascending-id order) and
    all values are finite. ``warnings`` holds the texts of the topics too
    small for a rarity column's k (see ``rarity_warnings``).
    """

    columns: dict[str, np.ndarray]
    warnings: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def validate(self) -> None:
        n = self.n
        for name, col in self.columns.items():
            if len(col) != n:
                raise ValidationError(
                    f"signal column {name!r} has length {len(col)}, expected {n}"
                )
            if not np.all(np.isfinite(col)):
                raise ValidationError(f"signal column {name!r} has non-finite values")


@dataclass
class KnnParams:
    k: int = DEFAULT_K

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


@dataclass
class DiversityParams:
    alpha_cent: float = 0.5
    alpha_knn: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha_cent < 0 or self.alpha_knn < 0:
            raise ConfigError("diversity combination weights must be nonnegative")
        if self.alpha_cent + self.alpha_knn <= 0:
            raise ConfigError("at least one diversity combination weight must be positive")


class ExactNeighborIndex:
    """Exact brute-force nearest neighbors over one point set.

    The index keeps one float64, coordinate-major (d x n) copy of the
    points, and processes rows in chunks of ``chunk_rows``. The points are
    mean-centred and scaled by 2^-e, where e is the binary exponent of the
    largest centred norm, so the largest norm lies in [1/2, 1); scaling by
    a power of two is exact and keeps the float32 copies of the rows
    clear of overflow. For each chunk, one float32 BLAS matrix product
    gives approximate squared distances |a|^2 + |b|^2 - 2 a.b (the
    brute-force formulation of FAISS, Johnson, Douze & Jegou 2017).
    nearest_columns finds each row's k + _EXTRA_CANDIDATES smallest
    entries, the candidates, and the next one, the threshold, by a
    tournament of group minima that partitions a small slice of the block
    (a block too narrow for it is partitioned whole); the rows are padded
    once per dtype with zero rows of +inf squared norm, so every level of
    the tournament divides. exact_sq_distances re-ranks the candidates.
    A work item holds one block of chunk_rows x padded n in the product's
    dtype, and the group minima, an eighth of it. A row is accepted only
    when rounding_bound (u = 2^-24 for the float32 product, in the scaled
    units) proves that no non-candidate can be nearer than its k-th
    re-ranked neighbor, or when that neighbor is exactly 0 away, since
    no distance is smaller. Rows that fail get a second, float64 product
    (u = 2^-53), whose much smaller bound certifies most of what float32
    cannot: sets with a point far outside the rest, or clusters of
    near-duplicates. The float64 rows are made on the first such row, and
    once most rows of a chunk fail in float32, later chunks skip it
    (``float32_first``). The last tier, exact_sq_distances to every
    point, takes the rows that fail both and every row of a set of at
    most k + _EXTRA_CANDIDATES + 1 points, which has no non-candidates.
    Every tier averages the k nearest distances in ascending order, so the
    result does not depend on the tier and matches an exhaustive oracle.
    """

    def __init__(self, points: np.ndarray, chunk_rows: int = _CHUNK_ROWS):
        points = np.ascontiguousarray(points, dtype=np.float64)
        self.coords = np.ascontiguousarray(points.T)
        self.chunk_rows = chunk_rows
        self.mean = points.mean(axis=0)
        centred = points - self.mean
        norms = np.sqrt(np.einsum("ij,ij->i", centred, centred))
        # 2^-exponent scales the largest norm into [1/2, 1); frexp(0) gives
        # 0, so a set of identical points is left unscaled
        self.exponent = int(np.frexp(norms.max(initial=0.0))[1])
        self._scaled = {np.float32: self._padded(centred, np.float32)}
        self.norms = np.ldexp(norms, -self.exponent)
        self.float32_first = True

    def chunk_mean_knn_distance(self, start: int, stop: int, k: int) -> np.ndarray:
        """Each of rows start:stop's (one work item) mean distance to its
        k nearest other points, added in ascending order."""
        n = self._check_k(k)
        todo = np.arange(start, stop)
        out = np.empty(todo.size)
        tiers = (np.float32, np.float64) if self.float32_first else (np.float64,)
        for dtype in tiers if n > k + _EXTRA_CANDIDATES + 1 else ():
            mean, certified = self._gemm_mean(todo, k, dtype)
            if dtype is np.float32 and 2 * np.count_nonzero(certified) < todo.size:
                # most rows need the float64 product anyway, so it costs
                # less to go straight to it in later chunks
                self.float32_first = False
            out[todo[certified] - start] = mean[certified]
            todo = todo[~certified]
            if not todo.size:
                return out
        out[todo - start] = self._exhaustive_mean(todo, k)
        return out

    def _gemm_mean(self, rows: np.ndarray, k: int, dtype: type) -> tuple[np.ndarray, np.ndarray]:
        """Mean k-nearest distance of each row from candidates of a matrix
        product in ``dtype``, and whether the rounding bounds certify it."""
        scaled, sq_norms = self._scaled_rows(dtype)
        c = k + _EXTRA_CANDIDATES
        i = np.arange(rows.size)
        # -2 a.b + |b|^2; scaling by -2 is exact, and |a|^2 is constant per
        # row, so it is added only to the threshold below
        block = (-2.0 * scaled[rows]) @ scaled.T
        block += sq_norms
        block[i, rows] = np.inf
        candidates, threshold = nearest_columns(block, c)
        threshold = threshold + sq_norms[rows].astype(np.float64)
        del block

        sq = exact_sq_distances(self.coords[:, rows].T, self.coords, candidates)
        sq.sort(axis=1)
        err, widen, floor = rounding_bound(len(self.coords), dtype, self.norms[rows] + self.norms.max())
        # the test is in scaled units (squared distances times 2^-2e); a
        # k-th distance that overflows when rescaled becomes inf and fails
        kth = sq[:, k - 1] * (1.0 + widen) + floor
        # a k-th distance of 0 needs no bound: no distance is smaller
        certified = (np.ldexp(kth, -2 * self.exponent) < threshold - err) | (sq[:, k - 1] == 0)
        return np.sqrt(sq[:, :k]).mean(axis=1), certified

    def _exhaustive_mean(self, rows: np.ndarray, k: int) -> np.ndarray:
        sq = exact_sq_distances(self.coords[:, rows].T, self.coords)
        # exclude self only (the diagonal); duplicates legitimately
        # contribute zero distances
        sq[np.arange(rows.size), rows] = np.inf
        nearest = np.sort(np.partition(sq, k - 1, axis=1)[:, :k], axis=1)
        return np.sqrt(nearest).mean(axis=1)

    def _check_k(self, k: int) -> int:
        n = self.coords.shape[1]
        if not 1 <= k < n:
            raise ValidationError(f"need 1 <= k < n, got k={k}, n={n}")
        return n

    def _scaled_rows(self, dtype: type) -> tuple[np.ndarray, np.ndarray]:
        """The padded scaled centred rows in ``dtype`` and their squared
        norms; the float64 ones are made on first use. Threads that race
        here compute the same arrays, so the first to store them wins."""
        if dtype not in self._scaled:
            centred = np.subtract(self.coords.T, self.mean, order="C")
            self._scaled.setdefault(dtype, self._padded(centred, dtype))
        return self._scaled[dtype]

    def _padded(self, centred: np.ndarray, dtype: type) -> tuple[np.ndarray, np.ndarray]:
        """``centred`` scaled by 2^-exponent (in place) and cast to ``dtype``,
        with zero rows appended up to a multiple of _GROUP ** _LEVELS, and
        the squared norms, +inf on the appended rows: their product
        columns come out as 0 + inf, never a candidate."""
        n, d = centred.shape
        step = _GROUP**_LEVELS
        rows = np.zeros((-(-n // step) * step, d), dtype=dtype)
        rows[:n] = np.ldexp(centred, -self.exponent, out=centred)
        sq_norms = np.full(len(rows), np.inf, dtype=dtype)
        sq_norms[:n] = np.einsum("ij,ij->i", rows[:n], rows[:n])
        return rows, sq_norms


def nearest_columns(block: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """For each row of ``block`` (m x w, w > c): the columns of its c
    smallest entries, in no order, and its (c+1)-th smallest entry.

    A tournament replaces a partition of every entry. Column j belongs to
    group j mod (w / _GROUP), so one ``min`` over a (m, _GROUP, w / _GROUP)
    view gives every group's minimum. The c + 1 groups with the smallest
    minima hold the row's c + 1 smallest entries: an entry outside them is
    at least its group's minimum, hence at least the largest chosen
    minimum, which is itself at least the row's (c+1)-th smallest entry.
    So gathering those groups' (c + 1) _GROUP columns and partitioning
    them gives the same (c+1)-th value and the same values for the c
    candidates; only ties may pick other columns of equal value. While a
    row of minima is wide enough, its c + 1 smallest are found the same
    way, from the minima of its own groups, up to _LEVELS levels. A level
    needs a width that _GROUP divides and at least _MIN_GROUPS (c + 1)
    groups, so a narrow block is partitioned whole.
    """
    rows = np.arange(len(block))
    minima = [block]
    while (len(minima) <= _LEVELS and minima[-1].shape[1] % _GROUP == 0
           and minima[-1].shape[1] >= _GROUP * _MIN_GROUPS * (c + 1)):
        minima.append(minima[-1].reshape(len(block), _GROUP, -1).min(axis=1))
    top = minima.pop()  # the block itself when it is too narrow for a level
    kept = _smallest(top, np.arange(top.shape[1]), c)
    for level in reversed(minima):
        groups = level.shape[1] // _GROUP
        ids = (kept[:, :, None] + groups * np.arange(_GROUP)).reshape(len(block), -1)
        kept = _smallest(np.take(level, ids + rows[:, None] * level.shape[1]), ids, c)
    return kept[:, :c], block[rows, kept[:, c]]


def _smallest(values: np.ndarray, ids: np.ndarray, c: int) -> np.ndarray:
    """Per row, the ``ids`` (m x w, or one row for all) of the c + 1
    smallest ``values`` (m x w), the (c+1)-th smallest last."""
    order = np.argpartition(values, c, axis=1)[:, : c + 1]
    return np.take_along_axis(np.broadcast_to(ids, values.shape), order, axis=1)


def rounding_bound(d: int, dtype: type, norm_sum: np.ndarray) -> tuple[np.ndarray, float, float]:
    """For a search in d dimensions: the error of a ``dtype`` matrix-product
    squared distance between centred rows whose norms add up to
    ``norm_sum``, and the relative widening and absolute floor of an
    exact_sq_distances value.

    A product value of centred rows a, b is within (d + 4) u (|a| + |b|)^2
    of the true squared distance, with u the unit roundoff of dtype:
    d + 2 for the dot products and the two additions, 2 for the float64
    centring; a float32 product adds 2 for the cast. Underflow adds at
    most about 6 d times dtype's smallest subnormal. An exact sum of d
    squares is within a relative (d + 2) 2^-53 and, below the float64
    normal range, an absolute d 2^-1074. All are doubled (the underflow
    floor rounded up further) to cover second-order terms and the bounds'
    own rounding.
    """
    info = np.finfo(dtype)
    terms = d + (6 if dtype is np.float32 else 4)
    err = terms * float(info.eps) * norm_sum**2 + 16.0 * d * float(info.smallest_subnormal)
    return err, 2.0 * (d + 2) * 2.0**-53, 2.0 * d * 2.0**-1074


def exact_sq_distances(
    queries: np.ndarray, coords: np.ndarray, candidates: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances from each row of ``queries`` (m x d)
    either to every column of the coordinate-major points ``coords``
    (d x n), giving m x n, or to the columns that its row of
    ``candidates`` (m x c) names, giving m x c.

    The squared differences are added one coordinate at a time, in an
    explicit loop: scipy's cdist sums in that order, so the square roots
    equal its distances bit for bit, and a duplicate is exactly 0 away.
    The work goes in pieces of rows and coordinates holding at most
    _DIFF_BUFFER differences (but at least one row and one coordinate):
    many points take one coordinate per piece, a chunk's few candidates
    many, so that each coordinate costs few numpy calls.
    """
    width = coords.shape[1] if candidates is None else candidates.shape[1]
    out = np.zeros((len(queries), width))
    step = max(1, min(len(queries), _DIFF_BUFFER // width))
    group = max(1, _DIFF_BUFFER // (step * width))
    for start in range(0, len(queries), step):
        rows = slice(start, start + step)
        sq, q = out[rows], queries[rows].T[:, :, None]
        for j in range(0, len(coords), group):
            block = coords[j : j + group]
            block = block[:, None, :] if candidates is None else block.take(candidates[rows], axis=1)
            diff = np.subtract(block, q[j : j + group], order="C")
            diff *= diff
            for plane in diff:
                sq += plane
    return out


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get/set thread-count functions of numpy's bundled OpenBLAS,
    loaded on first use, or None when the library or a symbol is missing."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    return get_threads, set_threads


# The BLAS thread count is process-wide: callers that cap it take turns,
# so that each one restores the count it found.
_BLAS_CAP_LOCK = threading.Lock()


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Cap OpenBLAS at one thread inside the block and restore the old
    count on exit; without the library, BLAS is left alone."""
    api = _openblas_threads()
    if api is None:
        yield
        return
    get_threads, set_threads = api
    with _BLAS_CAP_LOCK:
        before = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(before)


def rarity_knn(
    pool: Pool, params: KnnParams | None = None, threads: int = 1
) -> np.ndarray:
    """Mean distance to the k nearest same-topic neighbors, self excluded.

    Each topic gets an ExactNeighborIndex, so every distance averaged is
    the square root of an exact_sq_distances value, equal to scipy's. k is
    clamped to (topic size - 1) for topics too small to supply k
    neighbors; a singleton topic gets rarity 0 because it has no neighbors
    at all (``rarity_warnings`` gives the texts that report both). The
    work is split into row-chunk items across all topics, which up to
    ``threads`` workers share, at most one per usable CPU and one per
    item; results are placed by position, so output is identical for any
    thread count. While more than one worker runs,
    numpy's bundled OpenBLAS is capped at one thread, so each worker's
    matrix products run on its own core instead of starting more BLAS
    threads; the old count is restored afterwards. A single worker
    leaves BLAS its own threads. The count belongs to the whole process:
    other threads using BLAS meanwhile are capped too, and concurrent
    calls with ``threads > 1`` run one at a time.

    The column depends only on the pool's bytes, this module's source, the
    numpy version and k, so a pool loaded from a file (one with a ``key``)
    keeps it in a cache entry named by those inputs (see ``cache``): before
    any index is built, an entry of one finite
    value >= 0 per row is returned as it is, and a computed column is stored
    only when a work item ran. The column is exact and the same for any
    thread count, so a hit returns the bits a computation would.
    """
    params = params or KnnParams()
    emb = _require_embeddings(pool, "rarity")
    topics = [idx for idx in pool.topics.values() if idx.size > 1]

    entry = None if pool.key is None else cache.entry(
        cache.COLUMN, pool.key.encode(), Path(__file__), np.__version__.encode(),
        str(params.k).encode())
    if entry is not None:
        cached = cache.read(entry, functools.partial(_rarity_column, n=pool.n))
        if cached is not None:
            return cached

    positions: list[np.ndarray] = []
    work: list[tuple[ExactNeighborIndex, int, int, int]] = []
    for idx in topics:
        index = ExactNeighborIndex(emb[idx])
        k_eff = min(params.k, idx.size - 1)
        for start in range(0, idx.size, index.chunk_rows):
            stop = min(start + index.chunk_rows, idx.size)
            positions.append(idx[start:stop])
            work.append((index, start, stop, k_eff))

    def _run(item: tuple[ExactNeighborIndex, int, int, int]) -> np.ndarray:
        index, start, stop, k_eff = item
        return index.chunk_mean_knn_distance(start, stop, k_eff)

    workers = min(threads, pool_module._usable_cpus(), len(work))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a run with threads loads it

        with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run, work))
    else:
        results = [_run(item) for item in work]
    out = np.zeros(pool.n, dtype=np.float64)
    for pos, res in zip(positions, results):
        out[pos] = res
    if entry is not None and work:
        cache.write(entry, {"rarity": out})
    return out


def rarity_warnings(pool: Pool, k: int) -> Iterator[str]:
    """The texts of the topics that ``rarity_knn`` gives rarity 0 (a single
    example) or a clamped k (fewer than k + 1 examples), in sorted-topic order."""
    for topic, idx in pool.topics.items():
        if idx.size == 1:
            yield f"topic {topic!r} has a single example; rarity set to 0"
        elif idx.size - 1 < k:
            yield f"topic {topic!r} has {idx.size} examples; clamping k from {k} to {idx.size - 1}"


def _rarity_column(arrays: dict[str, np.ndarray], n: int) -> np.ndarray:
    """A rarity entry's column; raises unless it is n finite float64 >= 0."""
    column = arrays["rarity"]
    if not (column.dtype == np.float64 and column.shape == (n,)
            and np.isfinite(column).all() and (column >= 0).all()):
        raise ValueError("not a rarity column")
    return column


def diversity_centroid(pool: Pool) -> np.ndarray:
    """Euclidean distance from each embedding to its topic mean."""
    emb = _require_embeddings(pool, "div_cent")
    out = np.empty(pool.n, dtype=np.float64)
    for idx in pool.topics.values():
        # np.linalg.norm(rows - mean, axis=1)'s steps, in place on the gathered copy
        rows = emb[idx]
        rows -= rows.mean(axis=0)
        rows *= rows
        out[idx] = np.sqrt(rows.sum(axis=1))
    return out


def diversity_combined(
    cent: np.ndarray, rare: np.ndarray, params: DiversityParams | None = None
) -> np.ndarray:
    """Elementwise alpha_cent * cent + alpha_knn * rare."""
    params = params or DiversityParams()
    cent = np.asarray(cent, dtype=np.float64)
    rare = np.asarray(rare, dtype=np.float64)
    if cent.shape != rare.shape:
        raise ValidationError(
            f"column length mismatch: {cent.shape} vs {rare.shape}"
        )
    return params.alpha_cent * cent + params.alpha_knn * rare


def _require_embeddings(pool: Pool, signal: str) -> np.ndarray:
    try:
        return pool.embedding_matrix()
    except ValidationError as exc:
        raise ValidationError(f"signal {signal!r} requires embeddings: {exc}") from None


@dataclass
class SignalSpec:
    """Parsed form of one CLI signal spec string.

    Accepted forms: an ingested name such as ``nll``, ``rarity[:k=<int>]``,
    ``div_cent``, and ``div[:alpha_cent=<f>,alpha_knn=<f>[,k=<int>]]``.
    A spec runs the checks of the KnnParams and DiversityParams it will
    be computed with, so a bad k or alpha fails when it is parsed.
    """

    name: str
    kind: str  # "ingested" | "rarity" | "div_cent" | "div"
    k: int = DEFAULT_K
    alpha_cent: float = 0.5
    alpha_knn: float = 0.5

    def __post_init__(self) -> None:
        KnnParams(k=self.k)
        if self.kind == "div":
            DiversityParams(alpha_cent=self.alpha_cent, alpha_knn=self.alpha_knn)


_SPEC_RE = re.compile(r"^(?P<name>[A-Za-z_][\w.-]*)(?::(?P<args>.*))?$")


def parse_signal_spec(text: str) -> SignalSpec:
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ConfigError(f"malformed signal spec {text!r}")
    name = m.group("name")
    args: dict[str, str] = {}
    if m.group("args"):
        for part in m.group("args").split(","):
            if "=" not in part:
                raise ConfigError(f"malformed signal spec argument {part!r} in {text!r}")
            key, value = part.split("=", 1)
            args[key.strip()] = value.strip()

    def _int(key: str, default: int) -> int:
        try:
            return int(args.pop(key, default))
        except ValueError:
            raise ConfigError(f"signal spec {text!r}: {key} must be an integer") from None

    def _float(key: str, default: float) -> float:
        try:
            return float(args.pop(key, default))
        except ValueError:
            raise ConfigError(f"signal spec {text!r}: {key} must be a number") from None

    if name == "rarity":
        spec = SignalSpec(name="rarity", kind="rarity", k=_int("k", DEFAULT_K))
    elif name == "div_cent":
        spec = SignalSpec(name="div_cent", kind="div_cent")
    elif name == "div":
        spec = SignalSpec(
            name="div",
            kind="div",
            alpha_cent=_float("alpha_cent", 0.5),
            alpha_knn=_float("alpha_knn", 0.5),
            k=_int("k", DEFAULT_K),
        )
    else:
        spec = SignalSpec(name=name, kind="ingested")
    if args:
        raise ConfigError(
            f"signal spec {text!r}: unknown arguments {sorted(args)}"
        )
    return spec


def split_signal_specs(text: str) -> list[str]:
    """The spec texts of a comma-separated list such as
    ``nll,div:k=2,alpha_cent=0.5``.

    A piece of the form ``key=value`` with no ``:`` continues the
    arguments of the spec before it (a signal name holds no ``=``, so it
    cannot start a spec); such a piece with no spec before it is an
    error. Blank pieces are dropped and each piece is stripped.
    """
    specs: list[str] = []
    for piece in (p.strip() for p in text.split(",")):
        if not piece:
            continue
        if "=" in piece and ":" not in piece:
            if not specs:
                raise ConfigError(f"signal spec argument {piece!r} in {text!r} follows no signal")
            specs[-1] += "," + piece
        else:
            specs.append(piece)
    return specs


def parse_signal_specs(requested: list[str | SignalSpec]) -> list[SignalSpec]:
    """Parse each requested spec (a SignalSpec is kept as it is) and
    reject an empty request or one that names a signal twice."""
    specs = [s if isinstance(s, SignalSpec) else parse_signal_spec(s) for s in requested]
    if not specs:
        raise ConfigError("at least one signal must be requested")
    names = [s.name for s in specs]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ConfigError(f"duplicate signal names requested: {sorted(dupes)}")
    return specs


def build_signal_table(
    pool: Pool, requested: list[str | SignalSpec], threads: int = 1
) -> SignalTable:
    """Assemble one column per requested signal.

    Ingested signals must be present on every record; geometric signals
    need embeddings on every record. Rarity columns shared between
    ``rarity`` and ``div`` specs with the same k are computed once; the
    table's ``warnings`` are the ``rarity_warnings`` of each k in turn.
    """
    specs = parse_signal_specs(requested)
    rarity_cache: dict[int, np.ndarray] = {}
    centroid_cache: np.ndarray | None = None

    def _rarity(k: int) -> np.ndarray:
        if k not in rarity_cache:
            rarity_cache[k] = rarity_knn(pool, KnnParams(k=k), threads=threads)
        return rarity_cache[k]

    def _centroid() -> np.ndarray:
        nonlocal centroid_cache
        if centroid_cache is None:
            centroid_cache = diversity_centroid(pool)
        return centroid_cache

    columns: dict[str, np.ndarray] = {}
    for spec in specs:
        if spec.kind == "ingested":
            values = pool.signals.get(spec.name, np.full(pool.n, np.nan))
            missing = np.flatnonzero(np.isnan(values))
            if missing.size:
                raise ValidationError(
                    f"ingested signal {spec.name!r} missing on record {pool.id_of(missing[0])!r}"
                )
            columns[spec.name] = values.copy()
        elif spec.kind == "rarity":
            columns[spec.name] = _rarity(spec.k)
        elif spec.kind == "div_cent":
            columns[spec.name] = _centroid()
        elif spec.kind == "div":
            params = DiversityParams(alpha_cent=spec.alpha_cent, alpha_knn=spec.alpha_knn)
            columns[spec.name] = diversity_combined(_centroid(), _rarity(spec.k), params)
        else:  # pragma: no cover - parse_signal_spec restricts kinds
            raise ConfigError(f"unknown signal kind {spec.kind!r}")

    table = SignalTable(columns, [text for k in rarity_cache for text in rarity_warnings(pool, k)])
    table.validate()
    return table
