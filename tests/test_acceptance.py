"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line (run with -s to see them on success)."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import market_select

from market_select.market import (
    MarketConfig,
    MarketState,
    Weights,
    lmsr_cost,
    lmsr_prices,
    topic_prices,
)
from market_select.pipeline import dump_json
from market_select.pool import Pool
from market_select.selection import (
    SelectionConfig,
    balanced_select,
    greedy_select,
)
from market_select.signals import KnnParams, build_signal_table, rarity_knn
from market_select.standardize import (
    StandardizeConfig,
    StandardizedTable,
    standardize_table,
)
from market_select.verify import (
    CorruptionSweepConfig,
    RecoverySimConfig,
    recovery_grid,
    simulate_recovery,
    sweep_corruption,
)

from conftest import make_pool, make_record, random_pool, write_pool_jsonl
from recovery_oracle import expected_shortfall


def check(num: int, description: str, passed: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {num} failed: {description}"


def test_criterion_01_gradient_identity():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        q = rng.uniform(-10.0, 10.0, size=n)
        beta = float(rng.uniform(1.0, 5.0))
        p = lmsr_prices(q, beta)
        step = 1e-5
        fd = np.empty(n)
        for i in range(n):
            hi, lo = q.copy(), q.copy()
            hi[i] += step
            lo[i] -= step
            fd[i] = (lmsr_cost(hi, beta) - lmsr_cost(lo, beta)) / (2 * step)
        worst = max(worst, float(np.max(np.abs(fd - p)) / np.max(np.abs(p))))
    elapsed = time.perf_counter() - start
    check(
        1,
        f"prices match central-difference gradients (worst rel err {worst:.2e}, "
        f"{elapsed:.1f}s)",
        worst <= 1e-6 and elapsed < 5.0,
    )


def test_criterion_02_price_normalization_and_topic_mass():
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(100):
        pool = random_pool(rng, int(rng.integers(3, 60)), n_topics=int(rng.integers(1, 7)))
        topics = list(pool.topics)
        raw = rng.uniform(0.05, 1.0, size=len(topics))
        alphas = {t: float(a) for t, a in zip(topics, raw / raw.sum())}
        betas = {t: float(rng.uniform(0.5, 5.0)) for t in topics}
        q = rng.uniform(-10, 10, size=pool.n)
        p = topic_prices(q, pool, MarketConfig(beta=betas, topic_budgets=alphas))
        ok &= abs(p.sum() - 1.0) <= 1e-9
        for t, idx in pool.topics.items():
            ok &= abs(p[idx].sum() - alphas[t]) <= 1e-9
    check(2, "prices sum to 1 and every topic carries exactly its budget", ok)


def test_criterion_03_temperature_limits():
    rng = np.random.default_rng(1003)
    q = rng.uniform(-10, 10, size=40)
    q[13] = np.max(q) + 0.5  # unique argmax
    concentrated = lmsr_prices(q, 1e-3)
    sharp_ok = concentrated[13] >= 0.999

    flat_ok = True
    for _ in range(10):
        pool = random_pool(rng, int(rng.integers(4, 50)), n_topics=3)
        cfg = MarketConfig(beta=1e6, topic_budgets="proportional")
        p = topic_prices(rng.uniform(-10, 10, size=pool.n), pool, cfg)
        alphas = cfg.alphas(pool)
        for t, idx in pool.topics.items():
            flat_ok &= float(np.max(np.abs(p[idx] - alphas[t] / idx.size))) <= 1e-4
    check(
        3,
        "beta 1e-3 concentrates >= 0.999 on the argmax; beta 1e6 is uniform to 1e-4",
        sharp_ok and flat_ok,
    )


def test_criterion_04_max_entropy_oracle():
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 9))
        q = rng.uniform(-5, 5, size=n)
        beta = float(rng.uniform(0.5, 4.0))
        scaled = q / beta
        p_star = lmsr_prices(q, beta)

        def free_energy(p):
            nz = p > 0
            return float(np.dot(p, scaled) - np.sum(p[nz] * np.log(p[nz])))

        best = free_energy(p_star)
        for _ in range(1000):
            ok &= free_energy(rng.dirichlet(np.ones(n))) <= best + 1e-9
    check(4, "softmax prices maximize share-payoff plus entropy on the simplex", ok)


def test_criterion_05_knn_rarity_oracle():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 17))
        pool = random_pool(rng, n, n_topics=int(rng.integers(1, 4)), dim=d)
        k = int(rng.integers(1, 8))
        got = rarity_knn(pool, KnnParams(k=k))
        emb = pool.embedding_matrix()
        want = np.zeros(n)
        for idx in pool.topics.values():
            for i in idx:
                dists = sorted(
                    float(np.linalg.norm(emb[i] - emb[j])) for j in idx if j != i
                )
                k_eff = min(k, len(dists))
                want[i] = sum(dists[:k_eff]) / k_eff if dists else 0.0
        worst = max(worst, float(np.max(np.abs(got - want))))
    check(5, f"rarity matches the exhaustive pairwise oracle (max dev {worst:.1e})", worst <= 1e-9)


def test_criterion_06_greedy_trace_and_budget_safety():
    pool = make_pool(
        make_record("a", tokens=50),
        make_record("b", tokens=60),
        make_record("c", tokens=10),
    )
    state = MarketState(shares=np.zeros(3), prices=np.array([0.5, 0.3, 0.2]), cost=0.0)
    report = greedy_select(state, pool, SelectionConfig(budget_tokens=70, gamma=0.0))
    trace_ok = [pool.ids[i] for i in report.selected] == ["a", "c"] and report.tokens_used == 60

    rng = np.random.default_rng(1006)
    budget_ok = True
    for _ in range(200):
        pool = random_pool(rng, int(rng.integers(2, 50)), n_topics=3, max_tokens=40)
        prices = rng.dirichlet(np.ones(pool.n))
        budget = int(rng.integers(1, 300))
        cfg = SelectionConfig(budget_tokens=budget, gamma=float(rng.uniform(0, 2.5)))
        rep = greedy_select(
            MarketState(shares=np.zeros(pool.n), prices=prices, cost=0.0), pool, cfg
        )
        budget_ok &= rep.tokens_used <= budget
    check(
        6,
        "hand-traceable scan picks {a, c} and 200 random runs never exceed the budget",
        trace_ok and budget_ok,
    )


def test_criterion_07_recovery_simulation():
    # The expected shortfall of this model is hump-shaped in K (it peaks
    # near K ~ 10-15% of n at sigma=0.5), so over K in {10, 50, 200} it rises.
    # The check is that the simulation follows the model's curve, as the
    # quadrature oracle computes it; the oracle runs outside the timed span.
    ks = [10, 50, 200]
    trials = 50
    oracle = expected_shortfall(n=2000, ks=ks, sigma=0.5, m=3)

    start = time.perf_counter()
    exact = simulate_recovery(
        RecoverySimConfig(n=2000, m=3, sigma=0.0, k=100, trials=5, seed=2024)
    )
    exact_ok = exact.mean_ratio == 1.0

    cfg = RecoverySimConfig(n=2000, m=3, sigma=0.5, k=10, trials=trials, seed=2024)
    curve = recovery_grid(cfg, sigmas=[0.5], ks=ks)
    elapsed = time.perf_counter() - start

    eps = np.array([r.empirical_epsilon for r in curve])
    # every K reuses the same trial draws, so the per-trial shortfalls pair
    # up across K and the steps get paired standard errors
    shortfall = np.array([1.0 - np.asarray(r.ratios) for r in curve])
    level_se = shortfall.std(axis=1, ddof=1) / np.sqrt(trials)
    steps = np.diff(shortfall, axis=0)
    step_se = steps.std(axis=1, ddof=1) / np.sqrt(trials)
    level_ok = np.all(np.abs(eps - oracle) <= 4.0 * level_se)
    step_ok = np.all(np.abs(steps.mean(axis=1) - np.diff(oracle)) <= 3.0 * step_se)
    check(
        7,
        f"noiseless recovery is exact and epsilon follows the model's curve "
        f"(eps={['%.4f' % e for e in eps]}, "
        f"oracle={['%.4f' % e for e in oracle]}, {elapsed:.1f}s)",
        exact_ok and level_ok and step_ok and elapsed < 60.0,
    )


def test_criterion_08_corruption_sweep():
    rng = np.random.default_rng(1008)
    pool = random_pool(rng, 100, n_topics=1)
    tau = 2.5
    columns = {
        "s1": np.clip(rng.normal(size=100), -tau, tau),
        "s2": np.clip(rng.normal(size=100), -tau, tau),
    }
    table = StandardizedTable(columns=columns, tau=tau)
    weights = Weights({"s1": 0.6, "s2": 0.4})
    rows = sweep_corruption(
        pool,
        table,
        weights,
        CorruptionSweepConfig(
            epsilons=[0.0, 0.25, 0.5, 0.75, 1.0],
            target_signal="s1",
            tau=tau,
            betas=[0.5, 2.0, 5.0],
        ),
    )
    zero_ok = all(
        r["price_l1_change"] == 0.0 for r in rows if r["epsilon"] == 0.0
    )
    monotone_ok = True
    by_beta: dict[float, list] = {}
    for row in rows:
        by_beta.setdefault(row["beta"], []).append(row)
    for beta_rows in by_beta.values():
        seq = [r["price_l1_change"] for r in beta_rows]
        monotone_ok &= seq == sorted(seq)
    bound_ok = all(
        r["share_linf_change"] <= r["share_linf_bound"] * (1 + 1e-12) + 1e-15
        for r in rows
    )
    check(
        8,
        "zero corruption moves nothing; influence grows with epsilon; "
        "share shift obeys 2*tau*eps*w",
        zero_ok and monotone_ok and bound_ok,
    )


def test_criterion_09_balanced_selection():
    rng = np.random.default_rng(1009)
    records = []
    for i in range(80):  # 20 per label, ample supply
        records.append(
            make_record(f"e{i:03d}", topic="t", tokens=10, label=f"l{i % 4}")
        )
    pool = make_pool(*records)
    prices = rng.dirichlet(np.ones(80))
    state = MarketState(shares=np.zeros(80), prices=prices, cost=0.0)
    target_k = 40
    floor = -(-target_k // 4)  # ceil(K/4)
    balanced = balanced_select(
        state,
        pool,
        SelectionConfig(budget_tokens=target_k * 10, gamma=0.0, mode="balanced", label_floor=floor),
    )
    perfect_ok = balanced.balance_score == 0.0 and len(balanced.selected) == target_k

    floor0 = balanced_select(
        state,
        pool,
        SelectionConfig(budget_tokens=250, gamma=0.0, mode="balanced", label_floor=0),
    )
    greedy = greedy_select(state, pool, SelectionConfig(budget_tokens=250, gamma=0.0))
    identical_ok = dump_json(floor0.to_dict(pool)) == dump_json(greedy.to_dict(pool))
    check(
        9,
        "ceil(K/4) floors yield balance score 0.000; floor 0 is bit-identical to greedy",
        perfect_ok and identical_ok,
    )


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(1010)
    rows = []
    for i in range(40):
        rows.append(
            {
                "id": f"ex{i:03d}",
                "topic": f"t{i % 3}",
                "tokens": int(rng.integers(2, 40)),
                "embedding": [float(x) for x in rng.normal(size=6)],
                "signals": {"nll": float(rng.normal())},
            }
        )
    pool_path = tmp_path / "pool.jsonl"
    write_pool_jsonl(pool_path, rows)
    # the child imports the package from the same tree as this test
    src = str(Path(market_select.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    outputs = []
    for threads in ("1", "8"):
        out_dir = tmp_path / f"run_t{threads}"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "market_select.cli",
                "select",
                "--pool",
                str(pool_path),
                "--signals",
                "nll,rarity:k=5,div_cent",
                "--budget-tokens",
                "300",
                "--threads",
                threads,
                "--out-dir",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
            # a cache of its own: each run computes the kNN rather than reading the other's
            env={**env, "XDG_CACHE_HOME": str(tmp_path / f"cache_t{threads}")},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            tuple((out_dir / name).read_bytes() for name in ("report.json", "prices.jsonl", "selected.txt"))
        )
    check(10, "CLI runs with --threads 1 and --threads 8 emit byte-identical artifacts", outputs[0] == outputs[1])


def test_criterion_11_pipeline_overhead():
    rng = np.random.default_rng(1011)
    n, dim, n_topics = 10_000, 384, 8
    base = rng.normal(size=(n_topics, dim))
    rows = []
    for i in range(n):
        topic = i % n_topics
        emb = base[topic] + rng.normal(size=dim)
        rows.append(
            {
                "id": f"e{i:05d}",
                "topic": f"t{topic}",
                "tokens": int(rng.integers(10, 400)),
                "embedding": emb.tolist(),
                "signals": {"nll": float(rng.normal())},
            }
        )
    pool = Pool.from_rows(rows)

    start = time.perf_counter()
    table = build_signal_table(pool, ["nll", "rarity:k=10", "div_cent"])
    std = standardize_table(table, pool, StandardizeConfig())
    from market_select.market import price_pool

    state = price_pool(pool, std, Weights.equal(list(table.columns)), MarketConfig())
    report = greedy_select(
        state, pool, SelectionConfig(budget_tokens=200_000, gamma=1.6)
    )
    elapsed = time.perf_counter() - start
    check(
        11,
        f"signals + pricing + selection on 10k x 384-d pool took {elapsed:.1f}s",
        elapsed < 60.0 and report.tokens_used <= 200_000 and len(report.selected) > 0,
    )
