"""The benchmark's layer tracer names functions of ``market_select`` by
string; a refactor that renames or removes one would silently drop its
span. perfbench/tracing.py is loaded here read-only, without installing
the tracer."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_every_counter_is_traced():
    tracing = _load_tracing()
    traced = set()
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"market_select.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"market_select.{module}.{name}"
            traced.add(f"{module}.{name}")
    assert set(tracing.COUNTERS) <= traced


def test_every_counter_reads_integer_counts_from_a_real_return_value():
    from market_select.market import price_pool
    from market_select.pipeline import RunConfig, prepare
    from market_select.pool import load_pool
    from market_select.selection import SelectionConfig, balanced_select, greedy_select
    from market_select.standardize import StandardizeConfig, standardize_table
    from market_select.verify import CorruptionSweepConfig, sweep_corruption

    tracing = _load_tracing()
    golden = Path(__file__).resolve().parent / "golden" / "pool.jsonl"
    cfg = RunConfig(pool=str(golden), signals="nll,s1", budget_tokens=400)
    pool, table, std = prepare(cfg)
    state = price_pool(pool, std, cfg.resolved_weights, cfg.market_config)
    corruption = CorruptionSweepConfig(epsilons=[0.0, 0.5], target_signal="nll", betas=[0.5, 2.0])
    greedy = greedy_select(state, pool, SelectionConfig(budget_tokens=400))
    results = {
        "pool.load_pool": load_pool(golden),
        "standardize.standardize_table": standardize_table(table, pool, StandardizeConfig()),
        "selection.greedy_select": greedy,
        "selection.balanced_select": balanced_select(
            state, pool, SelectionConfig(budget_tokens=400, mode="balanced")),
        "verify.sweep_corruption": sweep_corruption(pool, std, cfg.resolved_weights, corruption),
    }
    assert set(results) == set(tracing.COUNTERS)
    counts = {name: tracing.COUNTERS[name](result) for name, result in results.items()}
    for name, count in counts.items():
        assert count and all(type(v) is int for v in count.values()), (name, count)
    assert counts["pool.load_pool"] == {"rows": 40}
    assert counts["verify.sweep_corruption"] == {"rows": 4}
    assert counts["selection.greedy_select"] == {
        "selected": greedy.selected.size, "skipped": greedy.skipped_for_budget}
    assert 0 < greedy.selected.size < 40
