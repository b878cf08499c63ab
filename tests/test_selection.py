from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist as scipy_cdist

from market_select import selection
from market_select.errors import ConfigError, ValidationError
from market_select.market import MarketConfig, MarketState, Weights, price_pool
from market_select.selection import (
    SelectionConfig,
    balance_score,
    balanced_select,
    coverage_report,
    covering_radius,
    example_events,
    greedy_select,
    scan_order,
    score_rho,
)
from market_select.pool import token_sum
from market_select.standardize import DEFAULT_TAU, StandardizedTable

from conftest import make_pool, make_record, random_pool


def state_with_prices(prices) -> MarketState:
    p = np.asarray(prices, dtype=float)
    return MarketState(shares=np.zeros_like(p), prices=p, cost=0.0)


def ids_of(report, pool) -> list[str]:
    """The selected ids, in report order."""
    return [pool.ids[i] for i in report.selected]


def test_rho_gamma_zero_is_raw_price(tiny_pool):
    state = state_with_prices([0.2, 0.5, 0.3])
    rho = score_rho(state, tiny_pool, gamma=0.0)
    assert np.array_equal(rho, state.prices)


def test_rho_price_per_token():
    pool = make_pool(make_record("a", tokens=10), make_record("b", tokens=100))
    state = state_with_prices([0.5, 0.5])
    rho = score_rho(state, pool, gamma=1.0)
    assert np.allclose(rho, [0.05, 0.005])


def test_rho_equal_lengths_preserve_price_order():
    pool = make_pool(*[make_record(f"e{i}", tokens=7) for i in range(5)])
    prices = np.array([0.1, 0.3, 0.05, 0.35, 0.2])
    for gamma in (0.0, 1.0, 1.6, 3.0):
        rho = score_rho(state_with_prices(prices), pool, gamma)
        assert np.array_equal(np.argsort(-rho), np.argsort(-prices))


def test_greedy_hand_trace():
    # score order a > b > c with lengths (50, 60, 10) and budget 70:
    # a fits (50), b would overflow (110) and is skipped, c fits (60)
    pool = make_pool(
        make_record("a", tokens=50),
        make_record("b", tokens=60),
        make_record("c", tokens=10),
    )
    state = state_with_prices([0.5, 0.3, 0.2])
    report = greedy_select(state, pool, SelectionConfig(budget_tokens=70, gamma=0.0))
    assert ids_of(report, pool) == ["a", "c"]
    assert report.tokens_used == 60
    assert report.skipped_for_budget == 1


def test_greedy_everything_fits():
    pool = make_pool(
        make_record("a", tokens=5),
        make_record("b", tokens=6),
        make_record("c", tokens=7),
    )
    state = state_with_prices([0.2, 0.5, 0.3])
    report = greedy_select(state, pool, SelectionConfig(budget_tokens=100, gamma=0.0))
    assert ids_of(report, pool) == ["b", "c", "a"]  # descending score
    assert report.tokens_used == 18
    assert report.skipped_for_budget == 0


def test_greedy_budget_below_min_length():
    pool = make_pool(make_record("a", tokens=2), make_record("b", tokens=3))
    state = state_with_prices([0.6, 0.4])
    report = greedy_select(state, pool, SelectionConfig(budget_tokens=1, gamma=0.0))
    assert ids_of(report, pool) == []
    assert report.tokens_used == 0
    assert report.skipped_for_budget == 2
    assert report.balance_score is None


def test_greedy_tie_breaks_ascending_id():
    pool = make_pool(
        make_record("z", tokens=1),
        make_record("a", tokens=1),
        make_record("m", tokens=1),
    )
    state = state_with_prices([1.0 / 3] * 3)
    report = greedy_select(state, pool, SelectionConfig(budget_tokens=2, gamma=0.0))
    assert ids_of(report, pool) == ["a", "m"]


def test_budget_safety_randomized():
    rng = np.random.default_rng(77)
    for _ in range(100):
        pool = random_pool(rng, int(rng.integers(2, 40)), n_topics=3, max_tokens=30)
        prices = rng.dirichlet(np.ones(pool.n))
        budget = int(rng.integers(1, 200))
        gamma = float(rng.uniform(0, 2.5))
        report = greedy_select(
            state_with_prices(prices), pool, SelectionConfig(budget_tokens=budget, gamma=gamma)
        )
        assert report.tokens_used <= budget
        assert report.tokens_used == sum(int(pool.token_lengths[i]) for i in report.selected)
        assert len(set(report.selected.tolist())) == len(report.selected)


def test_greedy_dominance():
    # no unselected example that still fits may outscore every selected one
    rng = np.random.default_rng(78)
    for _ in range(50):
        pool = random_pool(rng, 25, n_topics=2, max_tokens=20)
        prices = rng.dirichlet(np.ones(pool.n))
        budget = int(rng.integers(5, 120))
        state = state_with_prices(prices)
        cfg = SelectionConfig(budget_tokens=budget, gamma=1.0)
        report = greedy_select(state, pool, cfg)
        rho = score_rho(state, pool, cfg.gamma)
        chosen = set(report.selected.tolist())
        if not chosen:
            continue
        min_selected_rho = min(rho[i] for i in chosen)
        leftover = budget - report.tokens_used
        for i in range(pool.n):
            if i not in chosen and pool.token_lengths[i] <= leftover:
                assert rho[i] <= min_selected_rho + 1e-15


def test_gamma_monotone_length_preference():
    pool = make_pool(make_record("long", tokens=100), make_record("shrt", tokens=10))
    state = state_with_prices([0.5, 0.5])
    previous_ratio = None
    for gamma in (0.0, 0.5, 1.0, 2.0):
        rho = score_rho(state, pool, gamma)
        # at equal price the longer example never outranks the shorter one
        assert rho[1] >= rho[0]
        ratio = rho[1] / rho[0]  # short over long, grows with gamma
        if previous_ratio is not None:
            assert ratio >= previous_ratio - 1e-15
        previous_ratio = ratio
        if gamma > 0:
            assert rho[1] > rho[0]


def test_determinism_same_inputs():
    rng = np.random.default_rng(79)
    pool = random_pool(rng, 30, n_topics=3, max_tokens=15)
    prices = rng.dirichlet(np.ones(pool.n))
    cfg = SelectionConfig(budget_tokens=60, gamma=1.6)
    r1 = greedy_select(state_with_prices(prices), pool, cfg)
    r2 = greedy_select(state_with_prices(prices.copy()), pool, cfg)
    assert r1.to_dict(pool) == r2.to_dict(pool)


def labeled_pool(rng, n=40, n_labels=4, tokens=10):
    records = []
    for i in range(n):
        records.append(
            make_record(
                f"e{i:03d}",
                topic="t",
                tokens=tokens,
                label=f"l{i % n_labels}",
            )
        )
    return make_pool(*records)


def test_balanced_floors_satisfied():
    rng = np.random.default_rng(80)
    pool = labeled_pool(rng, n=40, n_labels=2)
    prices = rng.dirichlet(np.ones(pool.n))
    cfg = SelectionConfig(budget_tokens=1000, gamma=0.0, mode="balanced", label_floor=1)
    report = balanced_select(state_with_prices(prices), pool, cfg)
    assert all(count >= 1 for count in report.per_label.values())


def test_balanced_floor_zero_reduces_to_greedy():
    rng = np.random.default_rng(81)
    for _ in range(10):
        pool = labeled_pool(rng, n=30, n_labels=3, tokens=int(rng.integers(1, 9)))
        prices = rng.dirichlet(np.ones(pool.n))
        budget = int(rng.integers(10, 150))
        state = state_with_prices(prices)
        balanced = balanced_select(
            state, pool, SelectionConfig(budget_tokens=budget, mode="balanced", label_floor=0)
        )
        greedy = greedy_select(state, pool, SelectionConfig(budget_tokens=budget))
        assert balanced.to_dict(pool) == greedy.to_dict(pool)


def test_balanced_perfect_balance_with_equal_floors():
    rng = np.random.default_rng(82)
    pool = labeled_pool(rng, n=80, n_labels=4, tokens=10)
    prices = rng.dirichlet(np.ones(pool.n))
    # target 40 selections; floors of 10 fill the budget exactly
    cfg = SelectionConfig(budget_tokens=400, gamma=0.0, mode="balanced", label_floor=10)
    report = balanced_select(state_with_prices(prices), pool, cfg)
    assert report.balance_score == 0.0
    assert all(count == 10 for count in report.per_label.values())
    assert report.tokens_used == 400


def test_balanced_requires_labels(tiny_pool):
    state = state_with_prices([0.4, 0.3, 0.3])
    with pytest.raises(ValidationError, match="label"):
        balanced_select(
            state, tiny_pool, SelectionConfig(budget_tokens=10, mode="balanced", label_floor=1)
        )


def test_balanced_auto_floor_recorded():
    rng = np.random.default_rng(83)
    pool = labeled_pool(rng, n=40, n_labels=4)
    prices = rng.dirichlet(np.ones(pool.n))
    cfg = SelectionConfig(budget_tokens=200, gamma=0.0, mode="balanced", label_floor=None)
    report = balanced_select(state_with_prices(prices), pool, cfg)
    # greedy would pick 20 examples; auto floor is ceil(0.5 * 20 / 4)
    assert report.diagnostics["resolved_label_floor"] == 3


def test_balance_score_arithmetic():
    rng = np.random.default_rng(84)
    pool = labeled_pool(rng, n=100, n_labels=4, tokens=1)

    def report_for(indices):
        from market_select.selection import SelectionReport

        return SelectionReport(
            selected=np.array(indices, dtype=np.intp),
            tokens_used=len(indices),
            per_topic={},
            per_label=None,
            balance_score=None,
            skipped_for_budget=0,
        )

    # the ids e000, e001, ... ascend, so example i has pool index i
    uniform = list(range(8))  # labels cycle 0..3 evenly
    assert balance_score(report_for(uniform), pool) == pytest.approx(0.0)

    single_label = list(range(0, 40, 4))  # all label l0
    assert balance_score(report_for(single_label), pool) == pytest.approx(0.75)

    # counts (30, 25, 25, 20) over 100 selected; fewer than 30 l0 examples
    # exist in 100, so the pool is bigger
    pool_big = labeled_pool(rng, n=160, n_labels=4, tokens=1)
    mixed = (
        list(range(0, 160, 4))[:30]
        + list(range(1, 160, 4))[:25]
        + list(range(2, 160, 4))[:25]
        + list(range(3, 160, 4))[:20]
    )
    assert balance_score(report_for(mixed), pool_big) == pytest.approx(0.05)


def test_selection_config_validation():
    with pytest.raises(ConfigError):
        SelectionConfig(budget_tokens=0)
    with pytest.raises(ConfigError):
        SelectionConfig(budget_tokens=1, gamma=-0.5)
    with pytest.raises(ConfigError):
        SelectionConfig(budget_tokens=1, mode="mystery")
    cfg = SelectionConfig(budget_tokens=1, mode="price_per_token")
    assert cfg.mode == "greedy"


def test_max_examples_stop_condition():
    pool = make_pool(*[make_record(f"e{i}", tokens=1) for i in range(10)])
    prices = np.linspace(1.0, 0.1, 10)
    prices /= prices.sum()
    cfg = SelectionConfig(budget_tokens=100, gamma=0.0, max_examples=3)
    report = greedy_select(state_with_prices(prices), pool, cfg)
    assert len(report.selected) == 3
    assert ids_of(report, pool) == ["e0", "e1", "e2"]


def test_coverage_full_selection():
    rng = np.random.default_rng(85)
    pool = random_pool(rng, 20, n_topics=2, dim=3)
    metrics = coverage_report(np.arange(pool.n), pool)
    assert metrics.variance_ratio == pytest.approx(1.0)
    assert metrics.covering_radius == 0.0


def test_coverage_single_point():
    pool = make_pool(
        make_record("a", embedding=[0.0]), make_record("b", embedding=[10.0])
    )
    metrics = coverage_report(np.array([0]), pool)  # "a"
    assert metrics.covering_radius == pytest.approx(10.0)
    assert metrics.variance_ratio == 0.0


def test_coverage_radius_matches_brute_force():
    rng = np.random.default_rng(86)
    pool = random_pool(rng, 60, n_topics=2, dim=4)
    sel_idx = rng.choice(60, size=9, replace=False)
    metrics = coverage_report(sel_idx, pool)
    emb = pool.embedding_matrix()
    oracle = max(
        min(float(np.linalg.norm(emb[i] - emb[j])) for j in sel_idx)
        for i in range(pool.n)
    )
    assert metrics.covering_radius == pytest.approx(oracle, abs=1e-12)


def exhaustive_radius(points, centres):
    return float(scipy_cdist(points, centres).min(axis=1).max())


def count_recheck_rows(monkeypatch) -> list[int]:
    """Wrap selection.exact_sq_distances, recording each call's row count:
    the rows that covering_radius re-checks."""
    rows: list[int] = []
    real = selection.exact_sq_distances

    def counted(queries, coords):
        rows.append(len(queries))
        return real(queries, coords)

    monkeypatch.setattr(selection, "exact_sq_distances", counted)
    return rows


def tied_far_points(rng, dim):
    """Many rows at nearly the same distance from the one centre, so the
    certificate must keep them all."""
    directions = rng.normal(size=(300, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = directions * (1.0 + 1e-13 * rng.permutation(300))[:, None]
    return np.vstack([points, np.zeros(dim)]), np.zeros((1, dim))


def translated_clusters(rng, dim):
    """Clusters 1e9 from the origin, with duplicates and centres drawn
    from the points."""
    points = 1e9 + rng.normal(size=(400, dim)) * 10.0 ** rng.integers(-3, 2, size=(400, 1))
    points[10:20] = points[0]
    return points, points[rng.choice(400, size=37, replace=False)]


def offset_spheres(rng, dim):
    """Two centres 2e6 apart, each with 150 rows at radii 1 + j 1e-7: the
    product's error (about 1e-3 in squared units) hides the radius order,
    which only the exact re-check can see."""
    directions = rng.normal(size=(300, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    centres = np.zeros((2, dim))
    centres[:, 0] = [1e6, -1e6]
    points = centres[np.arange(300) % 2] + directions * (1.0 + 1e-7 * rng.permutation(300))[:, None]
    return points, centres


def spread_points(rng, dim):
    points = rng.normal(size=(700, dim))
    return points, points[rng.choice(700, size=90, replace=False)] + 1e-3


def one_row_one_centre(rng, dim):
    return rng.normal(size=(1, dim)), rng.normal(size=(1, dim))


def tiny_spheres(rng, dim):
    """Seven rows around one centre at radii 1e-150 (1 + j 1e-12): squared
    distances near 1e-300, where few bits are left above the subnormals."""
    centre = rng.normal(size=(1, dim)) * 1e-150
    directions = rng.normal(size=(7, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return centre + directions * 1e-150 * (1.0 + 1e-12 * rng.permutation(7))[:, None], centre


@pytest.mark.parametrize(
    "make_points",
    [tied_far_points, translated_clusters, offset_spheres, spread_points, one_row_one_centre, tiny_spheres],
)
@pytest.mark.parametrize("dim", [1, 3, 64, 384])
def test_covering_radius_equals_exhaustive_cdist(make_points, dim, monkeypatch):
    rng = np.random.default_rng(dim)
    points, centres = make_points(rng, dim)
    want = exhaustive_radius(points, centres)
    rows = count_recheck_rows(monkeypatch)
    assert covering_radius(points, centres, chunk=64) == want
    if make_points is spread_points:
        assert 0 < sum(rows) < len(points) // 10  # only near-farthest rows are re-checked


def test_covering_radius_overflow_keeps_every_row(monkeypatch):
    # Two clusters at +-1e154: nearest distances are small, but squared
    # centred norms overflow, so the bounds are NaN and the exact
    # re-check decides every row.
    rng = np.random.default_rng(87)
    points = np.vstack([1e154 + rng.normal(size=(20, 4)), -1e154 + rng.normal(size=(20, 4))])
    points = points * np.array([1.0, 1.0, 1.0, 1e-154])
    centres = points[[0, 1, 20, 21]]
    with np.errstate(over="ignore", invalid="ignore"):
        want = exhaustive_radius(points, centres)
        rows = count_recheck_rows(monkeypatch)
        got = covering_radius(points, centres, chunk=16)
    assert np.isfinite(want) and got == want
    assert sum(rows) == len(points)


def test_covering_radius_of_one_row_and_one_centre_equals_scipy():
    rng = np.random.default_rng(0)
    row, centre = rng.normal(size=(1, 64)), rng.normal(size=(1, 64))
    assert covering_radius(row, centre) == scipy_cdist(row, centre)[0, 0] == 11.648850890856677


def test_coverage_errors():
    pool = make_pool(make_record("a", embedding=[0.0]))
    with pytest.raises(ValidationError, match="empty"):
        coverage_report(np.arange(0), pool)
    no_emb = make_pool(make_record("a"))
    with pytest.raises(ValidationError, match="embedding"):
        coverage_report(np.array([0]), no_emb)


def test_selection_through_real_pricing(tiny_pool):
    table = StandardizedTable(columns={"nll": np.array([1.0, -1.0, 0.0])})
    state = price_pool(tiny_pool, table, Weights({"nll": 1.0}), MarketConfig(beta=2.0))
    report = greedy_select(state, tiny_pool, SelectionConfig(budget_tokens=8, gamma=1.6))
    assert report.tokens_used <= 8
    assert report.per_topic.keys() == {"x", "y"}
    mass = sum(t["price_mass"] for t in report.per_topic.values())
    assert 0.0 <= mass <= 1.0 + 1e-12


def reference_selection(state, pool, cfg):
    """The selection rule written out one visit at a time, as a check on
    the array-based scan: returns the admitted indices, the tokens used,
    the budget skips and, per index, the (phase, action, position,
    tokens before) of every visit."""
    rho = score_rho(state, pool, cfg.gamma)
    order = sorted(range(pool.n), key=lambda i: (-rho[i], pool.ids[i]))
    lengths = [int(x) for x in pool.token_lengths]
    cap = cfg.max_examples if cfg.max_examples is not None else pool.n + 1
    chosen: list[int] = []
    events: dict[int, list[tuple]] = {}
    tokens = 0

    def visit(phase, candidates, enough, record=True):
        nonlocal tokens
        for position, i in enumerate(candidates, start=1):
            if enough():
                return
            fits = tokens + lengths[i] <= cfg.budget_tokens
            if record:
                events.setdefault(i, []).append(
                    (phase, "admit" if fits else "reject", position, tokens))
            if fits:
                chosen.append(i)
                tokens += lengths[i]

    if cfg.mode == "greedy":
        visit("scan", order, lambda: len(chosen) >= cap)
        rejected = {i for i, evs in events.items() if evs[-1][1] == "reject"}
        return chosen, tokens, len(rejected), events
    labels = pool.labels()
    floor = cfg.label_floor
    if floor is None:
        visit("auto", order, lambda: len(chosen) >= cap, record=False)
        floor = -(-len(chosen) // (2 * len(labels)))
        chosen.clear()
        tokens = 0
    for code, label in enumerate(labels):  # labels() lists label_names, so code is the index
        start = len(chosen)
        members = [i for i in order if pool.label_codes[i] == code]
        visit(f"floor:{label}", members,
              lambda: len(chosen) - start >= floor or len(chosen) >= cap)
    taken = set(chosen)
    visit("fill", [i for i in order if i not in taken], lambda: len(chosen) >= cap)
    skipped = {i for i in events if i not in set(chosen)}
    return chosen, tokens, len(skipped), events


def test_scan_matches_visit_by_visit_reference():
    rng = np.random.default_rng(2718)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        pool = random_pool(rng, n, n_topics=3, with_labels=True, n_labels=3,
                           max_tokens=int(rng.integers(1, 30)))
        prices = rng.dirichlet(np.ones(n))
        if trial % 3 == 0:  # exact ties in rho
            prices = np.round(prices, 1)
        total = int(pool.token_lengths.sum())
        cfg = SelectionConfig(
            budget_tokens=int(rng.integers(1, total + 2)),
            gamma=float(rng.choice([0.0, 1.6])),
            mode=str(rng.choice(["greedy", "balanced"])),
            label_floor=None if trial % 2 else int(rng.integers(0, 6)),
            max_examples=None if trial % 4 < 2 else int(rng.integers(0, n + 1)),
        )
        state = state_with_prices(prices)
        select = balanced_select if cfg.mode == "balanced" else greedy_select
        report = select(state, pool, cfg)
        chosen, tokens, skipped, events = reference_selection(state, pool, cfg)
        rho = score_rho(state, pool, cfg.gamma)
        assert ids_of(report, pool) == [
            pool.ids[i] for i in sorted(chosen, key=lambda i: (-rho[i], pool.ids[i]))
        ]
        assert report.tokens_used == tokens <= cfg.budget_tokens
        assert report.skipped_for_budget == skipped
        for i in range(n):
            got = [(e["phase"], e["action"], e["position"], e["tokens_before"])
                   for e in example_events(report, pool, i)]
            assert got == events.get(i, []), (trial, i)
            for e in example_events(report, pool, i):
                if e["action"] == "admit":
                    assert e["tokens_after"] == e["tokens_before"] + pool.token_lengths[i]


def reference_pass(lengths, budget, tokens, candidates, limit):
    """One scan pass, visit by visit: the admitted indices, the number of
    candidates visited and the tokens after the pass."""
    cap = len(candidates) if limit is None else limit
    picked = []
    for position, i in enumerate(candidates):
        if len(picked) >= cap:
            return picked, position, tokens
        if tokens + lengths[i] <= budget:
            picked.append(i)
            tokens += lengths[i]
    return picked, len(candidates), tokens


def pass_lengths(rng, kind, n):
    if kind == "small":
        return rng.integers(1, 20, n)
    if kind == "near 2**62":
        return 2**62 - rng.integers(0, 5, n)
    if kind == "wide":  # half of them 1 token, the rest up to a million
        return np.where(rng.random(n) < 0.5, 1, rng.integers(1, 10**6, n))
    if kind == "unit":  # every length 1, as in a recovery simulation
        return np.ones(n, dtype=np.int64)
    # each rejection is followed by a 1-token admission: the room shrinks by one per pair
    return np.array([[1, 400 - j] for j in range((n + 1) // 2)], dtype=np.int64).ravel()[:n]


@pytest.mark.parametrize("blocks", [(1, 1), (2, 8), (1024, 4096)])
@pytest.mark.parametrize("kind", ["small", "near 2**62", "wide", "unit", "alternating"])
def test_block_scan_matches_a_visit_by_visit_pass(monkeypatch, blocks, kind):
    monkeypatch.setattr(selection, "FIRST_BLOCK", blocks[0])
    monkeypatch.setattr(selection, "LAST_BLOCK", blocks[1])
    rng = np.random.default_rng([11, len(kind)])
    for trial in range(40):
        n = int(rng.integers(0, 300))
        lengths = pass_lengths(rng, kind, n).astype(np.int64)
        pool = make_pool(*[make_record(f"e{i:03d}", tokens=int(t)) for i, t in enumerate(lengths)])
        lengths = lengths.tolist()
        total = sum(lengths)
        budget = int(rng.choice([1, 399, max(1, total // 3), max(1, total // 10), total,
                                 2**63 - 1, 2**63, 2**64 + 7]))
        scan = selection._Scanner(pool, budget)
        tokens = 0
        for phase in range(3):  # passes share the scanner's token count
            candidates = rng.permutation(n)[: int(rng.integers(0, n + 1))] if n else np.arange(0)
            limit = [None, 0, 1, 3, n // 2][int(rng.integers(5))]
            picked, visited = scan.run(f"p{phase}", candidates, limit)
            want, want_visited, tokens = reference_pass(
                lengths, budget, tokens, candidates.tolist(), limit)
            assert picked.tolist() == want and visited == want_visited, (trial, phase)
            assert scan.tokens == tokens <= budget
            record = scan.phases[-1]
            assert record.visited.tolist() == candidates[:visited].tolist()
            assert record.visited[record.admitted].tolist() == want


# values that tie in a real scan: zeros of both signs, rho 0 from an
# l**gamma that overflows, prices that clipped shares make common to many
# rows, and the extremes of the float range
TIES = [0.0, -0.0, 0.25, 1.0 / 3.0, 5e-324, 1e-300, 1.0, np.inf, -np.inf]


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(st.lists(st.one_of(st.sampled_from(TIES), st.floats(allow_nan=False)), max_size=300))
def test_the_scan_order_is_the_stable_descending_argsort(values):
    x = np.array(values, dtype=np.float64)
    assert np.array_equal(selection._descending(x), np.argsort(-x, kind="stable"))


@pytest.mark.parametrize("kind", ["distinct", "all equal", "few values", "ties and zeros"])
def test_the_scan_order_of_a_large_array_is_the_stable_descending_argsort(kind):
    rng = np.random.default_rng([31, len(kind)])
    n = 200_003
    x = {"distinct": rng.random(n), "all equal": np.full(n, 0.5),
         "few values": rng.integers(0, 7, n) / 7.0,
         "ties and zeros": rng.choice([0.0, -0.0, 1e-300, 0.25, 2.0], n)}[kind]
    assert np.array_equal(selection._descending(x), np.argsort(-x, kind="stable"))


def test_scan_order_on_clipped_shares_and_overflowing_lengths():
    rng = np.random.default_rng(32)
    pool = random_pool(rng, 3_000, n_topics=3, max_tokens=10**6)
    # every standardized value at the clip bound: prices tie within a topic
    z = np.where(rng.random(pool.n) < 0.5, DEFAULT_TAU, -DEFAULT_TAU)
    state = price_pool(pool, StandardizedTable({"s1": z}), Weights({"s1": 1.0}), MarketConfig())
    for gamma in (0.0, 1.6, 60.0):  # l**60 overflows to inf from l = 138 on: rho 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow warns of nothing
            rho, order = scan_order(state, pool, gamma)
        assert np.array_equal(rho, score_rho(state, pool, gamma))
        assert np.array_equal(order, np.argsort(-rho, kind="stable"))
    assert np.count_nonzero(rho == 0.0) > pool.n // 2


def loop_per_topic(pool, prices, selected) -> dict:
    """_build_report's per-topic totals, one topic at a time."""
    in_set = np.zeros(pool.n, dtype=bool)
    in_set[selected] = True
    return {topic: {"count": int(in_set[idx].sum()),
                    "tokens": token_sum(pool.token_lengths[idx][in_set[idx]]),
                    "price_mass": float(prices[idx][in_set[idx]].sum())}
            for topic, idx in pool.topics.items()}


@pytest.mark.parametrize("n, n_topics", [(1, 1), (7, 7), (40, 3), (600, 300), (5_000, 4)])
def test_per_topic_totals_equal_the_per_topic_loop(n, n_topics):
    rng = np.random.default_rng([33, n])
    pool = random_pool(rng, n, n_topics=n_topics, max_tokens=10**6)
    # prices over many magnitudes, so that another order of addition shows
    prices = rng.lognormal(0.0, 8.0, n)
    state = state_with_prices(prices)
    rho, order = scan_order(state, pool, 1.6)
    for selected in (order[:0], order[:1], rng.permutation(n)[: n // 3], order):
        report = selection._build_report(selected, 0, 0, state, pool, rho, order, [])
        want = loop_per_topic(pool, prices, selected)
        assert report.per_topic == want
        for topic, totals in want.items():  # the masses' bits, -0.0 included
            assert report.per_topic[topic]["price_mass"].hex() == totals["price_mass"].hex()
