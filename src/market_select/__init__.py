"""Budget-aware training-data subset selection.

Heterogeneous per-example utility signals are standardized within
topics, aggregated into shares, priced by a softmax (log-sum-exp cost)
market, and selected greedily by price-per-token under a token budget.
"""

from .errors import ConfigError, MarketSelectError, ValidationError
from .market import (
    MarketConfig,
    MarketState,
    Weights,
    aggregate_shares,
    lmsr_cost,
    lmsr_prices,
    price_pool,
    topic_prices,
)
from .pipeline import RunConfig, execute, explain, run_pipeline
from .pool import Pool, load_pool, topic_sizes, write_pool
from .selection import (
    SelectionConfig,
    SelectionReport,
    balance_score,
    balanced_select,
    coverage_report,
    greedy_select,
    score_rho,
)
from .signals import (
    DiversityParams,
    KnnParams,
    SignalTable,
    build_signal_table,
    diversity_centroid,
    diversity_combined,
    rarity_knn,
)
from .standardize import (
    StandardizeConfig,
    StandardizedTable,
    rank_normalize,
    standardize_column,
    standardize_table,
)
from .tune import DevFeedback, TuneConfig, eg_update, signal_reward, tune_weights
from .verify import (
    CorruptionSweepConfig,
    RecoverySimConfig,
    recovery_grid,
    simulate_recovery,
    sweep_corruption,
    sweep_hyperparams,
)

__version__ = "0.1.0"
