"""In-memory spans around the layer functions of ``market_select``, and the
per-layer metrics derived from them.

The program itself is not changed: ``install`` replaces each traced function
with a wrapper in every ``market_select`` module namespace that binds it (so
``pool.load_pool`` and ``pipeline.load_pool`` are both traced). A span records
its name, start, end and parent, plus process CPU time and the RSS high-water
mark at both ends. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# The functions traced, by module. These are the public functions of each
# module, fixed by name so a metric keeps its meaning on later commits.
# Left out on purpose: the per-row serialization helpers of ``pipeline``
# (fmt_float, round_floats, dump_json, dump_json_line), which run once per
# artifact row and would cost more to trace than they do to run, and the CLI
# plumbing (build_parser, round_weights, entrypoint) that ``cli.self_s`` is
# defined to include.
TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "pipeline": ("run_pipeline", "execute", "explain", "resolve_weights"),
    "pool": ("load_pool", "topic_sizes", "write_pool"),
    "signals": ("build_signal_table", "rarity_knn", "diversity_centroid",
                "diversity_combined", "parse_signal_spec"),
    "standardize": ("standardize_table", "standardize_column", "standardize_values",
                    "rank_normalize", "rank_normalize_values"),
    "market": ("price_pool", "topic_prices", "topic_cost", "aggregate_shares",
               "lmsr_cost", "lmsr_prices"),
    "selection": ("greedy_select", "balanced_select", "score_rho", "coverage_report",
                  "balance_score"),
    "tune": ("tune_weights", "signal_reward", "eg_update", "load_dev_feedback"),
    "verify": ("sweep_hyperparams", "sweep_corruption", "simulate_recovery", "recovery_grid"),
}


def _fallbacks(result: Any) -> dict[str, int]:
    return {"fallbacks": sum(
        1 for topics in result.stats.values() for st in topics.values()
        if st.scale_source not in ("sigma", "iqr"))}


def _selection(result: Any) -> dict[str, int]:
    return {"selected": len(result.selected), "skipped": int(result.skipped_for_budget)}


# Counts taken from a traced function's return value, outside its span.
COUNTERS: dict[str, Callable[[Any], dict[str, int]]] = {
    "pool.load_pool": lambda pool: {"rows": pool.n},
    "standardize.standardize_table": _fallbacks,
    "selection.greedy_select": _selection,
    "selection.balanced_select": _selection,
    "verify.sweep_corruption": lambda rows: {"rows": len(rows)},
}


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # Linux reports KiB


class Tracer:
    """Collects spans from wrapped functions; one per traced process."""

    def __init__(self, keep: tuple[str, ...] = ()) -> None:
        self.spans: list[dict[str, Any]] = []
        self.keep = keep
        self.results: dict[str, Any] = {}  # last return value of each span name in ``keep``
        self._local = threading.local()
        self._ids = itertools.count()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            span = {"id": span_id, "name": name, "parent": stack[-1] if stack else None,
                    "rss0": _maxrss_bytes(), "cpu0": time.process_time_ns(),
                    "start": time.perf_counter_ns()}
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                span["cpu1"] = time.process_time_ns()
                span["rss1"] = _maxrss_bytes()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span["counts"] = counter(result)
            if name in self.keep:
                self.results[name] = result
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every module namespace binding it."""
        import importlib

        for module in TRACED:
            importlib.import_module(f"market_select.{module}")
        wrapped: dict[int, Callable[..., Any]] = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"market_select.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                wrapped[id(original)] = self.wrap(f"{module}.{fname}", original)
        for modname, mod in list(sys.modules.items()):
            if modname != "market_select" and not modname.startswith("market_select."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


# ------------------------------------------------------------ analysis


@dataclass
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str


PER_LAYER = [
    LayerMetric("cli.self_s", "s", "lower", "wall_s on session"),
    LayerMetric("cli.tune_s", "s", "lower", "wall_s on session"),
    LayerMetric("cli.sweep_s", "s", "lower", "wall_s on session"),
    LayerMetric("cli.corruption_s", "s", "lower", "wall_s on session"),
    LayerMetric("cli.explain_s", "s", "lower", "wall_s on session"),
    LayerMetric("pipeline.run_s", "s", "lower", "wall_s on select-knn and select-ingested"),
    LayerMetric("pipeline.write_s", "s", "lower", "wall_s on select-ingested"),
    LayerMetric("pipeline.artifact_bytes", "bytes", "lower", "must not change"),
    LayerMetric("pipeline.explain_s", "s", "lower", "wall_s on session"),
    LayerMetric("pipeline.explain_execute_calls", "count", "lower", "wall_s on session"),
    LayerMetric("pool.load_s", "s", "lower", "wall_s on select-ingested, select-knn, session"),
    LayerMetric("pool.rows_per_s", "rows/s", "higher", "wall_s on select-ingested"),
    LayerMetric("pool.rss_growth_mb", "MB", "lower", "peak_rss_mb on select-ingested, select-knn"),
    LayerMetric("pool.rss_per_input_byte", "ratio", "lower", "peak_rss_mb on select-ingested"),
    LayerMetric("signals.build_s", "s", "lower", "wall_s on select-knn"),
    LayerMetric("signals.knn_s", "s", "lower", "wall_s, cpu_s on select-knn; 0 elsewhere"),
    LayerMetric("signals.knn_cpu_per_wall", "cores", "higher", "wall_s on select-knn"),
    LayerMetric("signals.knn_pairs", "count", "higher", "base for signals.knn_pairs_per_s"),
    LayerMetric("signals.knn_pairs_per_s", "pairs/s", "higher", "wall_s on select-knn"),
    LayerMetric("signals.centroid_s", "s", "lower", "wall_s on select-knn (small)"),
    LayerMetric("signals.ingest_s", "s", "lower", "wall_s on select-ingested"),
    LayerMetric("standardize.s", "s", "lower", "none measurable; regression guard"),
    LayerMetric("standardize.fallbacks", "count", "lower", "must not change"),
    LayerMetric("market.s", "s", "lower", "wall_s on session"),
    LayerMetric("market.topic_prices_calls", "count", "lower", "wall_s on session"),
    LayerMetric("selection.select_s", "s", "lower", "wall_s on select-ingested and session"),
    LayerMetric("selection.calls", "count", "lower", "base for selection.select_s"),
    LayerMetric("selection.score_rho_calls", "count", "lower", "wall_s on select-ingested"),
    LayerMetric("selection.admit_ratio", "ratio", "higher", "must not change"),
    LayerMetric("tune.tune_s", "s", "lower", "wall_s on session"),
    LayerMetric("tune.reward_s", "s", "lower", "wall_s on session"),
    LayerMetric("tune.reward_calls", "count", "lower", "wall_s on session"),
    LayerMetric("verify.sweep_s", "s", "lower", "wall_s on session"),
    LayerMetric("verify.sweep_self_s", "s", "lower", "wall_s on session"),
    LayerMetric("verify.corruption_s", "s", "lower", "wall_s on session"),
    LayerMetric("verify.points", "count", "higher", "base for verify.*_s"),
    LayerMetric("other_s", "s", "lower", "none; unattributed time"),
]

SELECTORS = ("selection.greedy_select", "selection.balanced_select")


@dataclass
class SpanTree:
    """Spans of one traced job, merged across its command processes."""

    spans: list[dict[str, Any]]
    by_id: dict[tuple[int, int], dict[str, Any]] = field(default_factory=dict)
    children: dict[tuple[int, int], list[dict[str, Any]]] = field(default_factory=dict)

    @staticmethod
    def load(files: list[Path]) -> "SpanTree":
        spans = []
        for cmd, path in enumerate(files):
            for span in json.loads(path.read_text(encoding="utf-8")):
                span["cmd"] = cmd
                spans.append(span)
        tree = SpanTree(spans, by_id={(s["cmd"], s["id"]): s for s in spans})
        for span in spans:
            if span["parent"] is not None:
                tree.children.setdefault((span["cmd"], span["parent"]), []).append(span)
        return tree

    @staticmethod
    def dur(span: dict[str, Any]) -> float:
        return (span["end"] - span["start"]) / 1e9

    def self_time(self, span: dict[str, Any]) -> float:
        kids = self.children.get((span["cmd"], span["id"]), [])
        return self.dur(span) - sum(self.dur(k) for k in kids)

    def ancestors(self, span: dict[str, Any]) -> list[str]:
        names = []
        parent = span["parent"]
        while parent is not None:
            p = self.by_id[(span["cmd"], parent)]
            names.append(p["name"])
            parent = p["parent"]
        return names

    def named(self, *names: str) -> list[dict[str, Any]]:
        return [s for s in self.spans if s["name"] in names]

    def total(self, *names: str) -> float:
        """Summed duration of the outermost spans among ``names``."""
        return sum(self.dur(s) for s in self.named(*names)
                   if not set(self.ancestors(s)) & set(names))

    def self_total(self, *names: str) -> float:
        return sum(self.self_time(s) for s in self.named(*names))

    def count(self, *names: str) -> int:
        return len(self.named(*names))

    def counted(self, name: str, key: str) -> int:
        return sum(s.get("counts", {}).get(key, 0) for s in self.named(name))

    def self_by_name(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self time), for the accounting table."""
        out: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            calls, total = out.get(s["name"], (0, 0.0))
            out[s["name"]] = (calls + 1, total + self.self_time(s))
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tree: SpanTree, job_wall: float, command_walls: dict[str, list[float]],
    knn_topic_sizes: list[int], pool_bytes: int, artifact_bytes: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced job (see PER_LAYER for units).

    ``command_walls`` holds untraced per-command wall times by command name;
    ``knn_topic_sizes`` are the topic sizes a rarity_knn call runs over.
    """
    knn_spans = tree.named("signals.rarity_knn")
    knn_s = tree.total("signals.rarity_knn")
    knn_cpu = sum((s["cpu1"] - s["cpu0"]) / 1e9 for s in knn_spans)
    knn_pairs = len(knn_spans) * sum(n * (n - 1) for n in knn_topic_sizes)
    load_s = tree.total("pool.load_pool")
    rss_growth = max((s["rss1"] - s["rss0"] for s in tree.named("pool.load_pool")), default=0)
    selected = sum(tree.counted(name, "selected") for name in SELECTORS)
    skipped = sum(tree.counted(name, "skipped") for name in SELECTORS)
    in_sweep = [s for s in tree.named(*SELECTORS)
                if "verify.sweep_hyperparams" in tree.ancestors(s)]
    explain_execs = [s for s in tree.named("pipeline.execute")
                     if "pipeline.explain" in tree.ancestors(s)]
    market = ("market.price_pool", "market.topic_prices", "market.topic_cost",
               "market.aggregate_shares")

    def median_wall(name: str) -> float:
        walls = command_walls.get(name, [])
        return statistics.median(walls) if walls else 0.0

    return {
        "cli.self_s": tree.self_total("cli.main"),
        "cli.tune_s": median_wall("tune"),
        "cli.sweep_s": median_wall("sweep"),
        "cli.corruption_s": median_wall("corruption"),
        "cli.explain_s": median_wall("explain"),
        "pipeline.run_s": tree.total("pipeline.run_pipeline"),
        "pipeline.write_s": tree.self_total("pipeline.run_pipeline"),
        "pipeline.artifact_bytes": artifact_bytes,
        "pipeline.explain_s": tree.total("pipeline.explain"),
        "pipeline.explain_execute_calls": len(explain_execs),
        "pool.load_s": load_s,
        "pool.rows_per_s": _ratio(tree.counted("pool.load_pool", "rows"), load_s),
        "pool.rss_growth_mb": rss_growth / 2**20,
        "pool.rss_per_input_byte": _ratio(rss_growth, pool_bytes),
        "signals.build_s": tree.total("signals.build_signal_table"),
        "signals.knn_s": knn_s,
        "signals.knn_cpu_per_wall": _ratio(knn_cpu, knn_s),
        "signals.knn_pairs": knn_pairs,
        "signals.knn_pairs_per_s": _ratio(knn_pairs, knn_s),
        "signals.centroid_s": tree.total("signals.diversity_centroid"),
        "signals.ingest_s": tree.self_total("signals.build_signal_table"),
        "standardize.s": tree.total("standardize.standardize_table"),
        "standardize.fallbacks": tree.counted("standardize.standardize_table", "fallbacks"),
        "market.s": tree.total(*market),
        "market.topic_prices_calls": tree.count("market.topic_prices"),
        "selection.select_s": tree.total(*SELECTORS),
        "selection.calls": tree.count(*SELECTORS),
        "selection.score_rho_calls": tree.count("selection.score_rho"),
        "selection.admit_ratio": _ratio(selected, selected + skipped),
        "tune.tune_s": tree.total("tune.tune_weights"),
        "tune.reward_s": tree.total("tune.signal_reward"),
        "tune.reward_calls": tree.count("tune.signal_reward"),
        "verify.sweep_s": tree.total("verify.sweep_hyperparams"),
        "verify.sweep_self_s": tree.self_total("verify.sweep_hyperparams"),
        "verify.corruption_s": tree.total("verify.sweep_corruption"),
        "verify.points": len(in_sweep) + tree.counted("verify.sweep_corruption", "rows"),
        "other_s": job_wall - sum(tree.self_time(s) for s in tree.spans),
    }
