from __future__ import annotations

import concurrent.futures
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from market_select import pool as pool_module
from market_select import signals
from market_select.errors import ConfigError, ValidationError
from market_select.pipeline import RunConfig
from market_select.signals import (
    DiversityParams,
    ExactNeighborIndex,
    KnnParams,
    build_signal_table,
    diversity_centroid,
    diversity_combined,
    exact_sq_distances,
    nearest_columns,
    parse_signal_spec,
    rarity_knn,
)
from scipy.spatial.distance import cdist as scipy_cdist

from conftest import make_pool, make_record, random_pool


def brute_force_rarity(pool, k: int) -> np.ndarray:
    """Exhaustive pairwise oracle: per-topic sorted distance means."""
    emb = pool.embedding_matrix()
    out = np.zeros(pool.n)
    for idx in pool.topics.values():
        for i in idx:
            dists = sorted(
                float(np.linalg.norm(emb[i] - emb[j])) for j in idx if j != i
            )
            k_eff = min(k, len(dists))
            out[i] = sum(dists[:k_eff]) / k_eff if dists else 0.0
    return out


def scipy_rarity(pool, k: int) -> np.ndarray:
    """Per-topic mean of the k smallest scipy cdist distances in
    ascending order, self excluded: the kNN's float64 reference."""
    emb = pool.embedding_matrix()
    out = np.zeros(pool.n)
    for idx in pool.topics.values():
        dist = scipy_cdist(emb[idx], emb[idx])
        np.fill_diagonal(dist, np.inf)
        out[idx] = np.sort(dist, axis=1)[:, :k].mean(axis=1)
    return out


def embedded_pool(points, topic="t", topics=None):
    points = np.asarray(points, dtype=float)
    records = []
    for i, p in enumerate(points):
        t = topic if topics is None else topics[i]
        # zero-padded ids: the pool's sorted-id order is the input order
        records.append(make_record(f"e{i:05d}", topic=t, embedding=p))
    return make_pool(*records)


def test_rarity_collinear_points_k1():
    pool = embedded_pool([[0.0], [1.0], [2.0]])
    rare = rarity_knn(pool, KnnParams(k=1))
    assert np.allclose(rare, [1.0, 1.0, 1.0])


def test_rarity_spread_points_k2():
    # means of the two distances from each point of {0, 1, 10}
    pool = embedded_pool([[0.0], [1.0], [10.0]])
    rare = rarity_knn(pool, KnnParams(k=2))
    assert np.allclose(rare, [5.5, 5.0, 9.5])


def test_rarity_duplicates_are_zero():
    pool = embedded_pool([[3.0], [3.0], [3.0]])
    rare = rarity_knn(pool, KnnParams(k=2))
    assert np.allclose(rare, [0.0, 0.0, 0.0])


def test_rarity_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for trial in range(5):
        pool = random_pool(rng, n=int(rng.integers(20, 80)), n_topics=3, dim=4)
        k = int(rng.integers(1, 6))
        got = rarity_knn(pool, KnnParams(k=k))
        want = brute_force_rarity(pool, k)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_rarity_is_per_topic():
    # same coordinates, two topics: neighbors never cross topics
    pool = embedded_pool([[0.0], [1.0], [0.0], [1.0]], topics=["a", "a", "b", "b"])
    rare = rarity_knn(pool, KnnParams(k=1))
    assert np.allclose(rare, [1.0, 1.0, 1.0, 1.0])


def test_rarity_clamps_k_with_warning():
    pool = embedded_pool([[0.0], [2.0]])
    with pytest.warns(UserWarning, match="clamping"):
        rare = rarity_knn(pool, KnnParams(k=10))
    assert np.allclose(rare, [2.0, 2.0])


def test_rarity_singleton_topic_warns_and_zeroes():
    pool = embedded_pool([[0.0], [1.0], [5.0]], topics=["a", "a", "b"])
    with pytest.warns(UserWarning, match="single example"):
        rare = rarity_knn(pool, KnnParams(k=1))
    assert rare[2] == 0.0


def test_rarity_requires_embeddings():
    pool = make_pool(make_record("a"), make_record("b"))
    with pytest.raises(ValidationError, match="rarity"):
        rarity_knn(pool, KnnParams(k=1))


def test_rarity_threads_match_serial():
    # Zipf-skewed topic sizes: the head topic spans several row chunks
    rng = np.random.default_rng(3)
    weights = 1.0 / np.arange(1, 6)
    codes = rng.choice(5, size=1200, p=weights / weights.sum())
    points = rng.normal(size=(1200, 8)) + 3.0 * rng.normal(size=(5, 8))[codes]
    pool = embedded_pool(points, topics=[f"t{c}" for c in codes])
    assert max(np.bincount(codes)) > 2 * signals._CHUNK_ROWS
    serial = rarity_knn(pool, KnnParams(k=5), threads=1)
    for threads in (2, 8):
        assert np.array_equal(serial, rarity_knn(pool, KnnParams(k=5), threads=threads))


def test_rarity_starts_at_most_one_thread_per_usable_cpu(monkeypatch):
    rng = np.random.default_rng(8)
    pool = topic_pool(rng, [700, 300], 4)
    want = rarity_knn(pool, KnnParams(k=5), threads=1)
    started: list[int] = []
    real = concurrent.futures.ThreadPoolExecutor

    def recording(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    # rarity_knn imports the executor where it starts threads
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 2)
    assert np.array_equal(rarity_knn(pool, KnnParams(k=5), threads=8), want)
    assert started == [2]
    # one usable CPU, or one work item, starts no thread at all
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 1)
    assert np.array_equal(rarity_knn(pool, KnnParams(k=5), threads=8), want)
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 2)
    small = topic_pool(rng, [40], 4)
    assert np.array_equal(rarity_knn(small, KnnParams(k=5), threads=8),
                          rarity_knn(small, KnnParams(k=5), threads=1))
    assert started == [2]


def test_rarity_workers_run_one_blas_thread_and_restore_the_count(monkeypatch):
    api = signals._openblas_threads()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get_threads, _ = api
    before = get_threads()
    rng = np.random.default_rng(4)
    pool = topic_pool(rng, [300, 200], 6)
    want = rarity_knn(pool, KnnParams(k=5), threads=1)
    real = ExactNeighborIndex.chunk_mean_knn_distance
    seen: list[int] = []

    def recording(self, start, stop, k):
        seen.append(get_threads())
        return real(self, start, stop, k)

    monkeypatch.setattr(ExactNeighborIndex, "chunk_mean_knn_distance", recording)
    assert np.array_equal(rarity_knn(pool, KnnParams(k=5), threads=2), want)
    assert seen and set(seen) == {1}
    assert get_threads() == before

    def failing(self, start, stop, k):
        if start:
            raise RuntimeError("work item failed")
        return real(self, start, stop, k)

    monkeypatch.setattr(ExactNeighborIndex, "chunk_mean_knn_distance", failing)
    with pytest.raises(RuntimeError, match="work item failed"):
        rarity_knn(pool, KnnParams(k=5), threads=2)
    assert get_threads() == before


def test_concurrent_rarity_calls_restore_the_blas_thread_count():
    api = signals._openblas_threads()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get_threads, _ = api
    before = get_threads()
    rng = np.random.default_rng(6)
    pool = topic_pool(rng, [600, 100], 4)
    want = rarity_knn(pool, KnnParams(k=5), threads=1)
    results: list[np.ndarray] = []

    def call() -> None:
        for _ in range(3):
            results.append(rarity_knn(pool, KnnParams(k=5), threads=2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call) for _ in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(results) == 18 and all(np.array_equal(r, want) for r in results)
    assert get_threads() == before


def test_rarity_without_openblas_symbols_leaves_blas_alone(monkeypatch):
    rng = np.random.default_rng(5)
    pool = topic_pool(rng, [300, 40], 6)
    want = rarity_knn(pool, KnnParams(k=5), threads=1)
    signals._openblas_threads.cache_clear()
    try:
        # a library without the thread-count symbols
        monkeypatch.setattr(signals.ctypes, "CDLL", lambda path: object())
        assert signals._openblas_threads() is None
        assert np.array_equal(rarity_knn(pool, KnnParams(k=5), threads=2), want)
    finally:
        monkeypatch.undo()
        signals._openblas_threads.cache_clear()


def count_exhaustive_rows(monkeypatch) -> list[int]:
    """Wrap ExactNeighborIndex._exhaustive_mean, recording each call's
    row count: the rows of the exhaustive last tier."""
    rows: list[int] = []
    real = ExactNeighborIndex._exhaustive_mean

    def counted(self, todo, k):
        rows.append(todo.size)
        return real(self, todo, k)

    monkeypatch.setattr(ExactNeighborIndex, "_exhaustive_mean", counted)
    return rows


def record_exhaustive_rows(monkeypatch) -> list[tuple[int, np.ndarray]]:
    """Wrap ExactNeighborIndex._exhaustive_mean, recording for each call
    its index's size and the rows (within that index) it was given."""
    calls: list[tuple[int, np.ndarray]] = []
    real = ExactNeighborIndex._exhaustive_mean

    def recorded(self, todo, k):
        calls.append((self.coords.shape[1], todo.copy()))
        return real(self, todo, k)

    monkeypatch.setattr(ExactNeighborIndex, "_exhaustive_mean", recorded)
    return calls


def topic_pool(rng, sizes, dim, offsets=None):
    """Pool with topics of the given sizes; row i of topic t is shifted by offsets[t][i]."""
    points, topics = [], []
    for t, size in enumerate(sizes):
        block = rng.normal(size=(size, dim)) + 2.0 * rng.normal(size=dim)
        if offsets is not None:
            block = block + offsets[t][:, None]
        points.append(block)
        topics += [f"t{t}"] * size
    return embedded_pool(np.vstack(points), topics=topics)


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 64, 384])
def test_rarity_certified_gemm_path_matches_oracle(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    k = 4
    sizes = [k + signals._EXTRA_CANDIDATES + 2, 25, 40]
    pool = topic_pool(rng, sizes, dim)
    exhaustive_rows = count_exhaustive_rows(monkeypatch)
    got = rarity_knn(pool, KnnParams(k=k))
    assert exhaustive_rows == []  # every row certified on the GEMM path
    assert np.max(np.abs(got - brute_force_rarity(pool, k))) <= 1e-9


def chunked_mean(index: ExactNeighborIndex, k: int) -> np.ndarray:
    """Every row's mean k-nearest distance, one work item per row chunk."""
    n = index.coords.shape[1]
    return np.concatenate([
        index.chunk_mean_knn_distance(start, min(start + index.chunk_rows, n), k)
        for start in range(0, n, index.chunk_rows)
    ])


def test_neighbor_index_chunks_match_oracle():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(60, 3))
    pool = embedded_pool(points)
    want = brute_force_rarity(pool, 3)
    for chunk_rows in (1, 7, 60):
        got = chunked_mean(ExactNeighborIndex(points, chunk_rows=chunk_rows), 3)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_rarity_identical_cluster_is_exactly_zero():
    rng = np.random.default_rng(9)
    k = 3
    size = k + signals._EXTRA_CANDIDATES + 3
    points = np.vstack([np.tile([1.5, -2.25, 3.0], (size, 1)), rng.normal(size=(15, 3))])
    rare = rarity_knn(embedded_pool(points), KnnParams(k=k))
    assert np.all(rare[:size] == 0.0)
    assert np.all(rare[size:] > 0.0)


def test_rarity_identical_topic_is_exactly_zero():
    # The topic centres to exact zeros, so its largest centred norm is 0
    # and the power-of-two scaling must leave it alone.
    rng = np.random.default_rng(9)
    k = 3
    size = k + signals._EXTRA_CANDIDATES + 3
    points = np.vstack([np.tile([1.5, -2.25, 3.0], (size, 1)), rng.normal(size=(15, 3))])
    topics = ["same"] * size + ["other"] * 15
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        rare = rarity_knn(embedded_pool(points, topics=topics), KnnParams(k=k))
    assert np.all(rare[:size] == 0.0)
    assert np.all(rare[size:] > 0.0)


@pytest.mark.parametrize("scale", [1e-30, 1e30])
def test_rarity_extreme_scales_match_oracle(scale, monkeypatch):
    # Squared coordinates near 1e-60 or 1e60 lie outside float32's range;
    # the power-of-two scaling brings them back, so every row still
    # certifies on the float32 path.
    rng = np.random.default_rng(12)
    k = 4
    pool = topic_pool(rng, [k + signals._EXTRA_CANDIDATES + 2, 30, 45], 8)
    points = pool.embedding_matrix() * scale
    pool = embedded_pool(points, topics=[pool.topic_names[c] for c in pool.topic_codes])
    exhaustive_rows = count_exhaustive_rows(monkeypatch)
    got = rarity_knn(pool, KnnParams(k=k))
    assert exhaustive_rows == []
    assert np.max(np.abs(got - brute_force_rarity(pool, k))) <= 1e-9 * scale


@pytest.mark.parametrize("dim", [1, 2, 5, 64, 384])
def test_exact_sq_distances_equal_scipy(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    xa = rng.normal(size=(40, dim)) * 10.0 ** rng.integers(-3, 4, size=(40, 1))
    xa[5:9] = xa[0]  # duplicate rows
    xb = np.vstack([xa[::3], rng.normal(size=(17, dim))])
    coords = np.ascontiguousarray(xb.T)
    candidates = rng.integers(0, len(xb), size=(40, 9))
    candidates[:9, 0] = 0  # xb[0] is xa[0], so rows 0 and 5-8 see a duplicate
    want = scipy_cdist(xa, xb)
    assert np.all(want[[0, 5, 6, 7, 8], 0] == 0.0)

    def check() -> None:
        assert np.array_equal(np.sqrt(exact_sq_distances(xa, coords)), want)
        gathered = exact_sq_distances(xa, coords, candidates)
        assert np.array_equal(np.sqrt(gathered), np.take_along_axis(want, candidates, axis=1))
        # one row against one point
        assert np.array_equal(np.sqrt(exact_sq_distances(xa[1:2], coords[:, 3:4])), want[1:2, 3:4])

    check()
    # pieces of one row and one coordinate; of 3 rows (the last one
    # partial) and one coordinate; of every row and 3 coordinates (the
    # last group partial unless 3 divides dim)
    for buffer in (1, 3 * len(xb), 3 * len(xa) * len(xb)):
        monkeypatch.setattr(signals, "_DIFF_BUFFER", buffer)
        check()


def count_gemm_rows(monkeypatch) -> dict[str, list[int]]:
    """Wrap ExactNeighborIndex._gemm_mean, recording per dtype name the
    rows it was given and the rows it certified."""
    seen: dict[str, list[int]] = {}
    real = ExactNeighborIndex._gemm_mean

    def counted(self, rows, k, dtype):
        mean, certified = real(self, rows, k, dtype)
        tally = seen.setdefault(np.dtype(dtype).name, [0, 0])
        tally[0] += rows.size
        tally[1] += int(np.count_nonzero(certified))
        return mean, certified

    monkeypatch.setattr(ExactNeighborIndex, "_gemm_mean", counted)
    return seen


def gaussian_points(rng, dim, size):
    return rng.normal(size=(size, dim)) + 2.0


def near_tie_points(rng, dim, size):
    """Row 0 sees every other row at a radius 1 + j 1e-11: float32 cannot order them."""
    directions = rng.normal(size=(size - 1, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = 1.0 + 1e-11 * rng.permutation(size - 1)
    return np.vstack([np.zeros(dim), directions * radii[:, None]])


def test_rarity_near_ties_below_float32_precision_certify_in_float64(monkeypatch):
    # Row 0 sees 40 points at radii 1 + j 1e-11: float32 products cannot
    # order them, so its candidates are arbitrary and only the certificate
    # (u = 2^-24) keeps the row off the float32 path. The float64 product
    # orders them, so the row certifies there and never reaches the exhaustive
    # tier.
    rng = np.random.default_rng(13)
    k = 4
    points = near_tie_points(rng, 8, 41)
    gemm_rows = count_gemm_rows(monkeypatch)
    exhaustive_rows = count_exhaustive_rows(monkeypatch)
    got = rarity_knn(embedded_pool(points), KnnParams(k=k))
    float32_rows, float32_certified = gemm_rows["float32"]
    assert float32_rows == len(points) and float32_certified < float32_rows
    assert gemm_rows["float64"] == [float32_rows - float32_certified] * 2
    assert exhaustive_rows == []
    dist = scipy_cdist(points, points)
    np.fill_diagonal(dist, np.inf)
    assert np.array_equal(got, np.sort(dist, axis=1)[:, :k].mean(axis=1))


def far_outlier_points(rng, dim, size=300):
    """A Gaussian cloud with one point at 300x the typical centred norm."""
    points = gaussian_points(rng, dim, size)
    points[0] = 2.0 + 300.0 * (points[0] - 2.0)
    return points


def near_duplicate_points(rng, dim):
    """Clusters of k + 8 rows spread over 1e-3 of the set's norm."""
    centres = rng.normal(size=(20, dim))
    return np.repeat(centres, 4 + 8, axis=0) + 1e-3 * rng.normal(size=(240, dim))


@pytest.mark.parametrize("make_points", [far_outlier_points, near_duplicate_points])
@pytest.mark.parametrize("dim", [64, 384])
def test_rarity_float64_candidates_certify_what_float32_cannot(make_points, dim, monkeypatch):
    # With u = 2^-24 the float32 bound is wider than the gap between the
    # k-th and the nearest non-candidate: next to a far outlier, because
    # the bound scales with the largest norm, and inside a tight cluster.
    # The float64 product certifies these rows, so none reaches the
    # exhaustive tier.
    rng = np.random.default_rng(dim)
    k = 4
    points = make_points(rng, dim)
    gemm_rows = count_gemm_rows(monkeypatch)
    exhaustive_rows = count_exhaustive_rows(monkeypatch)
    index = ExactNeighborIndex(points, chunk_rows=32)
    got = chunked_mean(index, k)
    assert exhaustive_rows == []
    assert gemm_rows["float64"][1] == gemm_rows["float64"][0] > 0
    # the first chunk that mostly failed in float32 was the last to try it
    assert not index.float32_first
    assert gemm_rows["float32"][0] < len(points)
    assert np.max(np.abs(got - brute_force_rarity(embedded_pool(points), k))) <= 1e-9


def tournament_width(c: int, levels: int) -> int:
    """The narrowest block width on which nearest_columns plays ``levels`` levels."""
    return signals._GROUP**levels * signals._MIN_GROUPS * (c + 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    c=st.integers(1, 20),
    levels=st.integers(0, 2),
    shift=st.sampled_from([0, -1, 1, -signals._GROUP, signals._GROUP, 3, signals._GROUP**2]),
    rows=st.integers(1, 4),
    distinct=st.sampled_from([1, 2, 3, 40, 10**6]),
    inf_share=st.sampled_from([0.0, 0.05, 0.97]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_columns_match_a_full_partition(dtype, c, levels, shift, rows, distinct,
                                                inf_share, seed):
    # Widths at each level's cut and a little either side of it, many of
    # them not a multiple of _GROUP; heavy ties, so that many groups share
    # their minimum; +inf entries, as the self column and the padding give;
    # signed zeros, negative values and a row of one value when distinct is 1.
    width = max(c + 1, tournament_width(c, levels) + shift if levels else c + 1 + abs(shift))
    rng = np.random.default_rng(seed)
    block = (rng.integers(-distinct // 2, distinct - distinct // 2, size=(rows, width))
             * 0.375).astype(dtype)
    block[rng.random(block.shape) < 0.05] = -0.0
    block[rng.random(block.shape) < inf_share] = np.inf
    candidates, threshold = nearest_columns(block, c)
    want = np.partition(block, c, axis=1)
    assert candidates.shape == (rows, c) and threshold.dtype == dtype
    assert np.array_equal(threshold, want[:, c])
    for row, cols, smallest in zip(block, candidates, want[:, :c]):
        assert len(set(cols.tolist())) == c and 0 <= cols.min() and cols.max() < width
        assert np.array_equal(np.sort(row[cols]), np.sort(smallest))


def count_tournament_levels(monkeypatch) -> list[int]:
    """Wrap signals._smallest, recording the width of each set of values
    it chooses from: a block too narrow for a level is one set of its own
    width, and each level of the tournament adds sets of other widths."""
    widths: list[int] = []
    real = signals._smallest

    def counted(values, ids, c):
        widths.append(values.shape[1])
        return real(values, ids, c)

    monkeypatch.setattr(signals, "_smallest", counted)
    return widths


def identical_cluster_points(rng, dim, size):
    """A Gaussian cloud whose first 40 rows are one point."""
    points = gaussian_points(rng, dim, size)
    points[:40] = points[0]
    return points


@pytest.mark.parametrize("make_topic, size", [
    (gaussian_points, 3000), (identical_cluster_points, 1500),
    (near_tie_points, 1500), (far_outlier_points, 1500),
])
def test_rarity_on_topics_wide_enough_for_the_tournament(make_topic, size, monkeypatch):
    # The padded block of a 1,500-row topic plays one tournament level at
    # k = 4 and a 3,000-row one two; the small second topic is partitioned
    # whole. Every column must equal the exhaustive cdist reference.
    rng = np.random.default_rng(size)
    k = 4
    c = k + signals._EXTRA_CANDIDATES
    points = np.vstack([make_topic(rng, 8, size), gaussian_points(rng, 8, 60)])
    pool = embedded_pool(points, topics=["wide"] * size + ["narrow"] * 60)
    widths = count_tournament_levels(monkeypatch)
    gemm_rows = count_gemm_rows(monkeypatch)
    exhaustive = record_exhaustive_rows(monkeypatch)
    got = rarity_knn(pool, KnnParams(k=k), threads=1)
    assert np.array_equal(got, rarity_knn(pool, KnnParams(k=k), threads=2))
    assert np.max(np.abs(got - scipy_rarity(pool, k))) <= 1e-9
    if make_topic is not identical_cluster_points:
        assert exhaustive == []
    else:
        # a cluster row's k-th distance is exactly 0, which certifies it;
        # a row whose nearest point is the cluster sees more than c + 1
        # equal distances, which no GEMM certifies
        assert not any(n == size and np.any(rows < 40) for n, rows in exhaustive)
    # the last level of every tournament chooses from (c + 1) groups
    assert widths.count((c + 1) * signals._GROUP) >= 2 * -(-size // signals._CHUNK_ROWS)
    padded = -(-size // signals._GROUP**signals._LEVELS) * signals._GROUP**signals._LEVELS
    levels = 2 if padded >= tournament_width(c, 2) else 1
    assert padded // signals._GROUP**levels in widths  # the top level's minima
    if make_topic is identical_cluster_points:
        assert np.all(got[:40] == 0.0) and np.all(got[40:] > 0.0)
    if make_topic in (near_tie_points, far_outlier_points):
        # rows float32 cannot certify are decided by the float64 product
        float64_rows, float64_certified = gemm_rows["float64"]
        assert float64_rows == float64_certified > 0


@pytest.mark.parametrize("shifted_share, falls_back", [(1.0, False), (0.5, True)])
def test_rarity_far_translation(shifted_share, falls_back, monkeypatch):
    # A translation of the whole topic cancels in the centring, so the
    # certificate holds. Translating half of it puts both halves ~5e8 from
    # the topic mean; the GEMM error bound then dwarfs every gap and all
    # rows must fall back to the exhaustive tier.
    rng = np.random.default_rng(10)
    sizes = [40, 30]
    offsets = [np.where(np.arange(n) < shifted_share * n, 1e9, 0.0) for n in sizes]
    pool = topic_pool(rng, sizes, 4, offsets)
    exhaustive_rows = count_exhaustive_rows(monkeypatch)
    got = rarity_knn(pool, KnnParams(k=3))
    assert sum(exhaustive_rows) == (pool.n if falls_back else 0)
    assert np.max(np.abs(got - brute_force_rarity(pool, 3))) <= 1e-9
    if falls_back:
        assert np.array_equal(got, scipy_rarity(pool, 3))


def test_centroid_identical_embeddings_zero():
    pool = embedded_pool([[2.0, 2.0]] * 4)
    assert np.allclose(diversity_centroid(pool), 0.0)


def test_centroid_one_dimensional():
    pool = embedded_pool([[0.0], [2.0]])
    assert np.allclose(diversity_centroid(pool), [1.0, 1.0])


def test_centroid_two_dimensional():
    # centroid of (0,0), (2,0), (1,3) is (1,1)
    pool = embedded_pool([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    got = diversity_centroid(pool)
    assert np.allclose(got, [np.sqrt(2.0), np.sqrt(2.0), 2.0])


@pytest.mark.parametrize("dim, scale", [(1, 1.0), (3, 1.0), (16, 1.0), (4, 1e150), (1, 1e150)])
def test_centroid_equals_the_norm_of_the_centred_rows_bit_for_bit(dim, scale):
    # singleton topics, a two-row topic and larger ones, each checked
    # against np.linalg.norm of its centred rows
    rng = np.random.default_rng(dim)
    sizes = [1, 1, 2, 7, 60]
    pool = make_pool(*(make_record(f"e{t}-{i:02d}", topic=f"t{t}",
                                   embedding=scale * (1.0 + rng.normal(size=dim)))
                       for t, size in enumerate(sizes) for i in range(size)))
    emb = pool.embedding_matrix()
    want = np.empty(pool.n)
    for idx in pool.topics.values():
        want[idx] = np.linalg.norm(emb[idx] - emb[idx].mean(axis=0), axis=1)
    assert np.isfinite(want).all()
    assert np.array_equal(diversity_centroid(pool), want)
    assert np.array_equal(pool.embedding_matrix(), emb)


def test_combined_identity_cases():
    cent = np.array([1.0, 2.0])
    rare = np.array([3.0, 4.0])
    assert np.array_equal(
        diversity_combined(cent, rare, DiversityParams(1.0, 0.0)), cent
    )
    assert np.array_equal(
        diversity_combined(cent, rare, DiversityParams(0.0, 1.0)), rare
    )
    assert np.allclose(
        diversity_combined(cent, rare, DiversityParams(0.5, 0.5)), [2.0, 3.0]
    )


def test_combined_is_linear_in_inputs():
    rng = np.random.default_rng(0)
    cent, rare, extra = rng.normal(size=(3, 30))
    params = DiversityParams(0.7, 0.3)
    lhs = diversity_combined(cent + 2.0 * extra, rare, params)
    rhs = diversity_combined(cent, rare, params) + 2.0 * diversity_combined(
        extra, np.zeros(30), params
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_combined_length_mismatch():
    with pytest.raises(ValidationError, match="mismatch"):
        diversity_combined(np.zeros(2), np.zeros(3))


def test_translation_invariance_of_geometry():
    rng = np.random.default_rng(5)
    pool = random_pool(rng, 50, n_topics=2, dim=6)
    shifted = make_pool(
        *[
            make_record(
                rid,
                topic=pool.topic_names[pool.topic_codes[i]],
                tokens=int(pool.token_lengths[i]),
                embedding=pool.embeddings[i] + 13.25,
            )
            for i, rid in enumerate(pool.ids)
        ]
    )
    assert np.allclose(
        rarity_knn(pool, KnnParams(k=4)), rarity_knn(shifted, KnnParams(k=4)), atol=1e-9
    )
    assert np.allclose(
        diversity_centroid(pool), diversity_centroid(shifted), atol=1e-9
    )


def test_scale_equivariance_of_geometry():
    rng = np.random.default_rng(6)
    pool = random_pool(rng, 40, n_topics=2, dim=5)
    c = 3.5
    scaled = make_pool(
        *[
            make_record(
                rid,
                topic=pool.topic_names[pool.topic_codes[i]],
                tokens=int(pool.token_lengths[i]),
                embedding=c * pool.embeddings[i],
            )
            for i, rid in enumerate(pool.ids)
        ]
    )
    assert np.allclose(
        rarity_knn(scaled, KnnParams(k=3)), c * rarity_knn(pool, KnnParams(k=3))
    )
    assert np.allclose(diversity_centroid(scaled), c * diversity_centroid(pool))


def test_parse_signal_specs():
    assert parse_signal_spec("nll").kind == "ingested"
    spec = parse_signal_spec("rarity:k=7")
    assert spec.kind == "rarity" and spec.k == 7
    assert parse_signal_spec("div_cent").kind == "div_cent"
    spec = parse_signal_spec("div:alpha_cent=0.8,alpha_knn=0.2,k=3")
    assert (spec.alpha_cent, spec.alpha_knn, spec.k) == (0.8, 0.2, 3)
    with pytest.raises(ConfigError):
        parse_signal_spec("rarity:k=oops")
    with pytest.raises(ConfigError):
        parse_signal_spec("div:bogus=1")


@pytest.mark.parametrize("text, specs", [
    ("nll,s1", ["nll", "s1"]),
    (" nll , rarity:k=3 ,, div_cent ", ["nll", "rarity:k=3", "div_cent"]),
    ("nll,div:k=2,alpha_cent=0.5", ["nll", "div:k=2,alpha_cent=0.5"]),
    ("div:alpha_cent=0.25, alpha_knn=0.75 ,k=2,nll", ["div:alpha_cent=0.25,alpha_knn=0.75,k=2", "nll"]),
    ("rarity,k=3", ["rarity,k=3"]),  # arguments follow a ':'; parse_signal_spec refuses it
    ("", []),
])
def test_split_signal_specs_joins_the_arguments_of_a_spec(text, specs):
    assert signals.split_signal_specs(text) == specs


def test_a_multi_argument_div_spec_reaches_the_run_config():
    cfg = RunConfig(pool="ghost.jsonl", signals="nll,div:k=2,alpha_cent=0.5,alpha_knn=0.5")
    assert cfg.signals == ["nll", "div:k=2,alpha_cent=0.5,alpha_knn=0.5"]
    assert [(s.name, s.k, s.alpha_cent) for s in cfg.specs] == [("nll", 10, 0.5), ("div", 2, 0.5)]
    with pytest.raises(ConfigError) as err:
        RunConfig(pool="ghost.jsonl", signals="k=2,nll")
    assert str(err.value) == "signal spec argument 'k=2' in 'k=2,nll' follows no signal"
    with pytest.raises(ConfigError, match=r"^malformed signal spec 'rarity,k=3'$"):
        RunConfig(pool="ghost.jsonl", signals="nll,rarity,k=3")


def test_build_table_ingested_only(tiny_pool):
    table = build_signal_table(tiny_pool, ["nll"])
    assert list(table.columns) == ["nll"]
    assert np.allclose(table.columns["nll"], [1.0, 2.0, 3.0])


def test_build_table_missing_ingested_signal(tiny_pool):
    with pytest.raises(ValidationError, match="'missing'"):
        build_signal_table(tiny_pool, ["missing"])
    partial = make_pool(
        make_record("a", signals={"nll": 1.0}), make_record("b"), make_record("c")
    )
    with pytest.raises(ValidationError, match="'nll' missing on record 'b'"):
        build_signal_table(partial, ["nll"])


def test_build_table_geometric_without_embeddings(tiny_pool):
    with pytest.raises(ValidationError, match="rarity"):
        build_signal_table(tiny_pool, ["nll", "rarity"])


def test_build_table_composes_geometric_oracles():
    rng = np.random.default_rng(11)
    pool = random_pool(rng, 30, n_topics=2, dim=3)
    table = build_signal_table(pool, ["rarity:k=3", "div:k=3"])
    rare = brute_force_rarity(pool, 3)
    cent = diversity_centroid(pool)
    assert np.max(np.abs(table.columns["rarity"] - rare)) <= 1e-9
    assert np.allclose(table.columns["div"], 0.5 * cent + 0.5 * rare)


def test_build_table_rejects_duplicates(tiny_pool):
    with pytest.raises(ConfigError, match="duplicate"):
        build_signal_table(tiny_pool, ["nll", "nll"])


def test_knn_params_validation():
    with pytest.raises(ConfigError):
        KnnParams(k=0)
    with pytest.raises(ConfigError):
        DiversityParams(0.0, 0.0)
