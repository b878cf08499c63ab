"""Budget-aware training-data subset selection.

Heterogeneous per-example utility signals are standardized within
topics, aggregated into shares, priced by a softmax (log-sum-exp cost)
market, and selected greedily by price-per-token under a token budget.

The public names below resolve on first use (PEP 562), so that
``import market_select`` loads neither a submodule nor numpy: the CLI,
which runs after this file, sets BLAS's environment before numpy loads.
"""

from importlib import import_module

_EXPORTS: dict[str, tuple[str, ...]] = {
    "errors": ("ConfigError", "MarketSelectError", "ValidationError"),
    "market": ("MarketConfig", "MarketState", "Weights", "aggregate_shares", "lmsr_cost",
               "lmsr_prices", "price_pool", "topic_prices"),
    "pipeline": ("RunConfig", "execute", "explain", "run_pipeline"),
    "pool": ("Pool", "load_pool", "topic_sizes", "write_pool"),
    "selection": ("SelectionConfig", "SelectionReport", "balance_score", "balanced_select",
                  "coverage_report", "greedy_select", "score_rho"),
    "signals": ("DiversityParams", "KnnParams", "SignalTable", "build_signal_table",
                "diversity_centroid", "diversity_combined", "rarity_knn"),
    "standardize": ("StandardizeConfig", "StandardizedTable", "rank_normalize",
                    "standardize_column", "standardize_table"),
    "tune": ("DevFeedback", "TuneConfig", "eg_update", "signal_reward", "tune_weights"),
    "verify": ("CorruptionSweepConfig", "RecoverySimConfig", "recovery_grid",
               "simulate_recovery", "sweep_corruption", "sweep_hyperparams"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        # also how ``from market_select import signals`` falls through to
        # importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
