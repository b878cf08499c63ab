"""Token-budgeted greedy selection driven by price-per-token scores.

Examples are ranked by rho = p / l^gamma and scanned in descending
order; each example whose token length still fits is admitted
(skip-and-continue, so a long misfit does not block later short items).
The balanced variant first guarantees per-label minimum counts, then
fills the rest of the budget by global score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError, require_finite
from .market import MarketState
from .pool import Pool

DEFAULT_GAMMA = 1.6
MODES = ("greedy", "balanced")


@dataclass
class SelectionConfig:
    """Budget and ranking knobs.

    label_floor None means "auto" in balanced mode: half the per-label
    share of the count an unconstrained greedy run would pick.
    max_examples, when set, additionally stops the scan after that many
    admissions (used by the retention-rate alias).
    """

    budget_tokens: int
    gamma: float = DEFAULT_GAMMA
    mode: str = "greedy"
    label_floor: int | None = None
    max_examples: int | None = None

    def __post_init__(self) -> None:
        if self.budget_tokens < 1:
            raise ConfigError(f"budget_tokens must be >= 1, got {self.budget_tokens}")
        require_finite("gamma", self.gamma)
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.mode == "price_per_token":  # accepted alias
            self.mode = "greedy"
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.label_floor is not None and self.label_floor < 0:
            raise ConfigError(f"label_floor must be >= 0, got {self.label_floor}")
        if self.max_examples is not None and self.max_examples < 0:
            raise ConfigError(f"max_examples must be >= 0, got {self.max_examples}")


@dataclass
class ScanPhase:
    """One pass of a selection scan.

    ``visited`` holds the pool indices the pass looked at, in visit order,
    and ``admitted`` flags the ones it took; ``tokens_before`` is the
    token count when the pass began. Positions and running token counts
    for explain are derived from these arrays (see example_events).
    """

    name: str  # "scan", "floor:<label>" or "fill"
    visited: np.ndarray
    admitted: np.ndarray
    tokens_before: int


@dataclass
class SelectionReport:
    """Outcome of one selection run.

    selected is ordered by descending score (ties by ascending id);
    per_topic maps topic -> {count, tokens, price_mass}; balance_score
    is None when the pool is unlabeled or nothing was selected. rho is
    the score per pool index that ordered the scan, and phases records
    the scan passes in the order they ran.
    """

    selected: list[str]
    tokens_used: int
    per_topic: dict[str, dict[str, float]]
    per_label: dict[str, int] | None
    balance_score: float | None
    skipped_for_budget: int
    diagnostics: dict[str, object] = field(default_factory=dict)
    # not part of the serialized report
    rho: np.ndarray | None = field(default=None, repr=False)
    phases: list[ScanPhase] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict[str, object]:
        """Serializable outcome; excludes diagnostics, rho and the scan phases,
        so a balanced run with floor 0 serializes identically to greedy."""
        return {
            "selected": list(self.selected),
            "tokens_used": self.tokens_used,
            "per_topic": self.per_topic,
            "per_label": self.per_label,
            "balance_score": self.balance_score,
            "skipped_for_budget": self.skipped_for_budget,
        }


def score_rho(state: MarketState, pool: Pool, gamma: float) -> np.ndarray:
    """rho_i = p_i / l_i^gamma; gamma 0 ranks by raw price."""
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    lengths = pool.token_lengths.astype(np.float64)
    # l >= 1, so log is safe and l^gamma cannot underflow to zero
    return state.prices / np.exp(gamma * np.log(lengths))


def _scan_order(rho: np.ndarray) -> np.ndarray:
    """Indices in descending rho, ties broken by ascending index (= id)."""
    return np.argsort(-rho, kind="stable")


def greedy_select(state: MarketState, pool: Pool, cfg: SelectionConfig) -> SelectionReport:
    """One pass over the descending-score order, admitting what fits."""
    rho = score_rho(state, pool, cfg.gamma)
    order = _scan_order(rho)
    scan = _Scanner(pool, cfg.budget_tokens)
    picked, visited = scan.run("scan", order, cfg.max_examples)
    return _build_report(
        picked, scan.tokens, visited - len(picked), state, pool, rho, order, scan.phases
    )


def balanced_select(state: MarketState, pool: Pool, cfg: SelectionConfig) -> SelectionReport:
    """Per-label floors first, then global fill; never exceeds the budget.

    With floor 0 this degenerates to exactly greedy_select.
    """
    if not pool.has_labels:
        raise ValidationError(
            "balanced selection requires labels on every record; "
            f"{pool.first_unlabelled!r} has none"
        )
    rho = score_rho(state, pool, cfg.gamma)
    order = _scan_order(rho)
    floor = cfg.label_floor
    labels = pool.labels()
    if floor is None:
        # auto: half the per-label share of an unconstrained greedy pick
        greedy_picked, _ = _Scanner(pool, cfg.budget_tokens).run("auto", order, cfg.max_examples)
        floor = math.ceil(0.5 * len(greedy_picked) / len(labels))

    cap = cfg.max_examples
    scan = _Scanner(pool, cfg.budget_tokens)
    chosen: list[int] = []
    # phase 1: top-scored examples per label until each floor is met
    order_labels = pool.label_codes[order]
    for code, label in enumerate(labels):
        limit = floor if cap is None else min(floor, cap - len(chosen))
        chosen += scan.run(f"floor:{label}", order[order_labels == code], limit)[0]

    # phase 2: fill remaining capacity by global score
    in_set = np.zeros(pool.n, dtype=bool)
    in_set[chosen] = True
    limit = None if cap is None else cap - len(chosen)
    chosen += scan.run("fill", order[~in_set[order]], limit)[0]

    in_set[chosen] = True
    considered = np.zeros(pool.n, dtype=bool)
    for phase in scan.phases:
        considered[phase.visited] = True
    skipped = int(np.count_nonzero(considered & ~in_set))
    report = _build_report(chosen, scan.tokens, skipped, state, pool, rho, order, scan.phases)
    report.diagnostics["resolved_label_floor"] = floor
    return report


class _Scanner:
    """Runs scan passes against one token budget, keeping the running
    token count and a ScanPhase per pass."""

    def __init__(self, pool: Pool, budget: int):
        self.lengths = pool.token_lengths.tolist()
        self.budget = budget
        # once less than the shortest example's length is left, nothing fits
        self.shortest = min(self.lengths, default=1)
        self.tokens = 0
        self.phases: list[ScanPhase] = []
        self.n = pool.n

    def run(self, name: str, candidates: np.ndarray, limit: int | None) -> tuple[list[int], int]:
        """Visit candidates in order, admitting each that still fits.

        The pass stops before its next visit once it has admitted
        ``limit`` examples. Returns the admitted indices and the number
        of candidates visited.
        """
        lengths, budget, shortest = self.lengths, self.budget, self.shortest
        tokens = start = self.tokens
        cap = len(candidates) if limit is None else limit
        picked: list[int] = []
        visited = len(candidates)
        for position, i in enumerate(candidates.tolist()):
            if len(picked) >= cap:
                visited = position
                break
            length = lengths[i]
            if tokens + length <= budget:
                picked.append(i)
                tokens += length
                if budget - tokens < shortest and len(picked) < cap:
                    break  # every later candidate is visited and rejected
        self.tokens = tokens
        taken = np.zeros(self.n, dtype=bool)
        taken[picked] = True
        seen = candidates[:visited]
        self.phases.append(ScanPhase(name, seen, taken[seen], start))
        return picked, visited


def example_events(report: SelectionReport, pool: Pool, index: int) -> list[dict[str, object]]:
    """What the scan passes did with one example, in the order they ran.

    Each event gives the action, the 1-based position among the pass's
    visits, the tokens used before the visit, the pass name and, for an
    admission, the tokens used after it.
    """
    events: list[dict[str, object]] = []
    for phase in report.phases:
        hits = np.flatnonzero(phase.visited == index)
        if not hits.size:
            continue
        position = int(hits[0])
        earlier = phase.visited[:position][phase.admitted[:position]]
        before = phase.tokens_before + int(pool.token_lengths[earlier].sum())
        event: dict[str, object] = {
            "action": "admit" if phase.admitted[position] else "reject",
            "position": position + 1,
            "tokens_before": before,
            "phase": phase.name,
        }
        if phase.admitted[position]:
            event["tokens_after"] = before + int(pool.token_lengths[index])
        events.append(event)
    return events


def _build_report(
    selected_idx: list[int],
    tokens: int,
    skipped: int,
    state: MarketState,
    pool: Pool,
    rho: np.ndarray,
    order: np.ndarray,
    phases: list[ScanPhase],
) -> SelectionReport:
    in_set = np.zeros(pool.n, dtype=bool)
    in_set[selected_idx] = True
    ordered = order[in_set[order]]

    per_topic: dict[str, dict[str, float]] = {}
    for topic, idx in pool.topics.items():
        mask = in_set[idx]
        per_topic[topic] = {
            "count": int(mask.sum()),
            "tokens": int(pool.token_lengths[idx][mask].sum()),
            "price_mass": float(state.prices[idx][mask].sum()),
        }

    per_label: dict[str, int] | None = None
    score: float | None = None
    if pool.has_labels:
        per_label = _label_counts(pool, selected_idx)
        if selected_idx:
            score = _balance_from_counts(per_label, len(selected_idx))

    return SelectionReport(
        selected=[pool.ids[i] for i in ordered.tolist()],
        tokens_used=tokens,
        per_topic=per_topic,
        per_label=per_label,
        balance_score=score,
        skipped_for_budget=skipped,
        rho=rho,
        phases=phases,
    )


def _label_counts(pool: Pool, indices: list[int]) -> dict[str, int]:
    labels = pool.labels()
    counts = np.bincount(pool.label_codes[indices], minlength=len(labels))
    return {label: int(c) for label, c in zip(labels, counts)}


def _balance_from_counts(counts: dict[str, int], total: int) -> float:
    n_labels = len(counts)
    return 0.5 * sum(abs(c / total - 1.0 / n_labels) for c in counts.values())


def balance_score(report: SelectionReport, pool: Pool) -> float:
    """Half the L1 distance between selected label frequencies and uniform.

    0 means perfectly balanced; 1 - 1/L means everything came from one of
    L labels.
    """
    pool.labels()  # fails on an unlabeled pool
    if not report.selected:
        raise ValidationError("balance score is undefined for an empty selection")
    indices = [pool.index_of(rid) for rid in report.selected]
    return _balance_from_counts(_label_counts(pool, indices), len(report.selected))


@dataclass
class CoverageMetrics:
    """Geometric coverage of the selection in embedding space."""

    variance_ratio: float
    covering_radius: float


def coverage_report(selected_ids: list[str], pool: Pool) -> CoverageMetrics:
    """Trace-of-covariance ratio selected/pool, and the covering radius
    (largest distance from any pool point to its nearest selected point)."""
    from scipy.spatial.distance import cdist  # on first use, as only --coverage needs it

    if not selected_ids:
        raise ValidationError("coverage is undefined for an empty selection")
    emb = pool.embedding_matrix()
    sel_idx = np.array([pool.index_of(rid) for rid in selected_ids], dtype=np.intp)

    def _trace_var(points: np.ndarray) -> float:
        return float(points.var(axis=0).sum())  # population variance per dim

    pool_var = _trace_var(emb)
    sel_var = _trace_var(emb[sel_idx])
    ratio = 1.0 if pool_var == 0.0 else sel_var / pool_var

    sel_points = emb[sel_idx]
    radius = 0.0
    chunk = 1024
    for start in range(0, pool.n, chunk):
        dists = cdist(emb[start : start + chunk], sel_points)
        radius = max(radius, float(dists.min(axis=1).max()))
    return CoverageMetrics(variance_ratio=ratio, covering_radius=radius)
