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
from .pool import Pool, token_sum
from .signals import exact_sq_distances, rounding_bound

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

    selected holds the pool indices of the selected examples (intp), in
    descending score, ties by ascending id; to_dict turns them into ids.
    per_topic maps topic -> {count, tokens, price_mass}; balance_score
    is None when the pool is unlabeled or nothing was selected. rho is
    the score per pool index that ordered the scan, and phases records
    the scan passes in the order they ran.
    """

    selected: np.ndarray
    tokens_used: int
    per_topic: dict[str, dict[str, float]]
    per_label: dict[str, int] | None
    balance_score: float | None
    skipped_for_budget: int
    diagnostics: dict[str, object] = field(default_factory=dict)
    # not part of the serialized report
    rho: np.ndarray | None = field(default=None, repr=False)
    phases: list[ScanPhase] = field(default_factory=list, repr=False)

    def to_dict(self, pool: Pool) -> dict[str, object]:
        """Serializable outcome, with the selected ids of ``pool`` in report
        order; excludes diagnostics, rho and the scan phases, so a balanced
        run with floor 0 serializes identically to greedy."""
        ids = pool.id_lines(self.selected).decode("utf-8").split("\n")[:-1]
        return {"selected": ids, **self.summary()}

    def summary(self) -> dict[str, object]:
        """to_dict less the selected ids."""
        return {
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
    # l >= 1, so log is safe and l^gamma cannot underflow to zero; where it
    # overflows to inf, rho is 0 and the scan takes those rows last, by id
    with np.errstate(over="ignore"):
        return state.prices / np.exp(gamma * np.log(lengths))


def scan_order(state: MarketState, pool: Pool, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """rho (score_rho) and the pool indices in descending rho, ties broken
    by ascending index (= id): the order every scan pass over these prices
    takes."""
    rho = score_rho(state, pool, gamma)
    return rho, _descending(rho)


def _descending(x: np.ndarray) -> np.ndarray:
    """The indices of ``x`` (no NaN) in descending value, equal values in
    ascending index, as ``np.argsort(-x, kind="stable")``.

    NumPy's default sort (a SIMD quicksort where the CPU has one) orders
    the keys but leaves equal ones in no fixed order. Where keys tie, the
    order is sorted once more as the distinct integers run * n + index,
    run counting the distinct keys before, so the result does not depend
    on which sort kernel ran.
    """
    keys = -x
    order = np.argsort(keys)
    ranked = keys[order]
    new = ranked[1:] != ranked[:-1]  # -0.0 == 0.0: a tie, as in the stable sort
    if not new.all():
        run = np.concatenate(([0], np.cumsum(new)))
        order = np.sort(run * x.size + order) % x.size
    return order


def greedy_pass(
    pool: Pool, order: np.ndarray, budget: int, limit: int | None = None
) -> tuple[np.ndarray, _Scanner]:
    """One greedy pass over ``order`` under ``budget`` tokens, admitting
    each candidate that still fits, up to ``limit`` admissions: the pool
    indices admitted, in visit order, and the scanner that ran the pass
    (its token count and its one ScanPhase)."""
    scan = _Scanner(pool, budget)
    return scan.run("scan", order, limit)[0], scan


def greedy_select(state: MarketState, pool: Pool, cfg: SelectionConfig) -> SelectionReport:
    """One pass over the descending-score order, admitting what fits."""
    rho, order = scan_order(state, pool, cfg.gamma)
    picked, scan = greedy_pass(pool, order, cfg.budget_tokens, cfg.max_examples)
    skipped = scan.phases[0].visited.size - picked.size
    return _build_report(picked, scan.tokens, skipped, state, pool, rho, order, scan.phases)


def balanced_select(state: MarketState, pool: Pool, cfg: SelectionConfig) -> SelectionReport:
    """Per-label floors first, then global fill; never exceeds the budget.

    With floor 0 this degenerates to exactly greedy_select.
    """
    if not pool.has_labels:
        raise ValidationError(
            "balanced selection requires labels on every record; "
            f"{pool.first_unlabelled!r} has none"
        )
    rho, order = scan_order(state, pool, cfg.gamma)
    floor = cfg.label_floor
    labels = pool.labels()
    if floor is None:
        # auto: half the per-label share of an unconstrained greedy pick
        greedy_picked = greedy_pass(pool, order, cfg.budget_tokens, cfg.max_examples)[0]
        floor = math.ceil(0.5 * len(greedy_picked) / len(labels))

    cap = cfg.max_examples
    scan = _Scanner(pool, cfg.budget_tokens)
    chosen = [order[:0]]  # the admitted indices of each pass
    count = 0
    # phase 1: top-scored examples per label until each floor is met
    order_labels = pool.label_codes[order]
    for code, label in enumerate(labels):
        limit = floor if cap is None else min(floor, cap - count)
        chosen.append(scan.run(f"floor:{label}", order[order_labels == code], limit)[0])
        count += chosen[-1].size

    # phase 2: fill remaining capacity by global score
    in_set = np.zeros(pool.n, dtype=bool)
    in_set[np.concatenate(chosen)] = True
    limit = None if cap is None else cap - count
    chosen.append(scan.run("fill", order[~in_set[order]], limit)[0])

    picked = np.concatenate(chosen)
    in_set[picked] = True
    considered = np.zeros(pool.n, dtype=bool)
    for phase in scan.phases:
        considered[phase.visited] = True
    skipped = int(np.count_nonzero(considered & ~in_set))
    report = _build_report(picked, scan.tokens, skipped, state, pool, rho, order, scan.phases)
    report.diagnostics["resolved_label_floor"] = floor
    return report


INT64_MAX = 2**63 - 1
# The scan takes candidates in blocks: the first FIRST_BLOCK wide, each
# block after one that rejected nothing twice as wide, up to LAST_BLOCK
FIRST_BLOCK = 1024
LAST_BLOCK = 4096


class _Scanner:
    """Runs scan passes against one token budget, keeping the running
    token count and a ScanPhase per pass."""

    def __init__(self, pool: Pool, budget: int):
        self.lengths = pool.token_lengths
        self.budget = budget
        # once less than the shortest example's length is left, nothing fits
        self.shortest = int(self.lengths.min()) if pool.n else 1
        self.tokens = 0
        self.phases: list[ScanPhase] = []
        self.n = pool.n

    def run(self, name: str, candidates: np.ndarray, limit: int | None) -> tuple[np.ndarray, int]:
        """Visit candidates in order, admitting each that still fits.

        The pass stops before its next visit once it has admitted
        ``limit`` examples. Returns the admitted indices and the number
        of candidates visited.

        The visits go a block of candidates at a time, and admit what
        one-by-one visits would. The room left (budget less tokens) at
        the start of a block decides which candidates fit on their own;
        the others can only be rejected, since the room only shrinks.
        The prefix of those that fit whose running sum stays within the
        room is admitted at once. If one that fits on its own then no
        longer fits, it is rejected, and the rest of the block's fitting
        candidates are visited one by one, so a pass never does much
        more interpreter work than a plain loop would.

        The token count stays a Python int. The room is clamped to the
        pass's token bound (candidates times the longest of them), which
        no admitted prefix exceeds, and a block is at most
        ``INT64_MAX // room`` wide, so no int64 block sum can wrap.
        """
        lengths = self.lengths[candidates]
        budget, shortest = self.budget, self.shortest
        tokens = start = self.tokens
        n = len(candidates)
        cap = n if limit is None else limit
        bound = min(n * int(lengths.max()) if n else 0, INT64_MAX)
        picked: list[np.ndarray] = []
        count = pos = 0
        width = FIRST_BLOCK
        while pos < n and count < cap:
            room = budget - tokens
            if room < shortest:
                pos = n  # every later candidate is visited and rejected
                break
            room = min(room, bound)
            stop = min(n, pos + width, pos + INT64_MAX // room)
            block = lengths[pos:stop]
            fits = np.flatnonzero(block <= room)
            sums = np.cumsum(block[fits])
            # the first candidate that fits on its own is admitted, if any
            take = min(int(np.searchsorted(sums, room, side="right")), cap - count)
            admit = fits[:take]
            if take:
                tokens += int(sums[take - 1])
            if take < fits.size:  # fits[take] is rejected, or the limit is reached
                more = []
                rest = fits[take + 1 :]
                for j, length in zip(rest.tolist(), block[rest].tolist()):
                    if count + take + len(more) >= cap or budget - tokens < shortest:
                        break
                    if tokens + length <= budget:
                        more.append(j)
                        tokens += length
                if more:
                    admit = np.concatenate([admit, more])
                width = FIRST_BLOCK
            else:
                width = min(2 * width, LAST_BLOCK)
            if admit.size:
                picked.append(admit + pos)
                count += admit.size
            # a pass that reaches its limit visits nothing after that admission
            pos = pos + int(admit[-1]) + 1 if count >= cap else stop
        self.tokens = tokens
        admitted = candidates[np.concatenate(picked)] if picked else candidates[:0]
        taken = np.zeros(self.n, dtype=bool)
        taken[admitted] = True
        seen = candidates[:pos]
        self.phases.append(ScanPhase(name, seen, taken[seen], start))
        return admitted, pos


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
        before = phase.tokens_before + token_sum(pool.token_lengths[earlier])
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
    selected_idx: np.ndarray,
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

    # the selected rows grouped by topic, each topic's in ascending index
    # (the sort of codes of the narrowest type is a stable radix sort), so
    # a segment's price sum adds the same values in the same order as a
    # sum over the topic's own rows
    rows = np.flatnonzero(in_set)
    codes = pool.topic_codes[rows]
    rows = rows[np.argsort(codes.astype(np.min_scalar_type(len(pool.topic_names))),
                           kind="stable")]
    ends = np.cumsum(np.bincount(codes, minlength=len(pool.topic_names))).tolist()
    per_topic: dict[str, dict[str, float]] = {}
    for topic, start, end in zip(pool.topic_names, [0, *ends], ends):
        segment = rows[start:end]
        per_topic[topic] = {
            "count": end - start,
            "tokens": token_sum(pool.token_lengths[segment]),
            "price_mass": float(state.prices[segment].sum()),
        }

    per_label: dict[str, int] | None = None
    score: float | None = None
    if pool.has_labels:
        per_label = _label_counts(pool, selected_idx)
        if selected_idx.size:
            score = _balance_from_counts(per_label, selected_idx.size)

    return SelectionReport(
        selected=ordered,
        tokens_used=tokens,
        per_topic=per_topic,
        per_label=per_label,
        balance_score=score,
        skipped_for_budget=skipped,
        rho=rho,
        phases=phases,
    )


def _label_counts(pool: Pool, indices: np.ndarray) -> dict[str, int]:
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
    if not report.selected.size:
        raise ValidationError("balance score is undefined for an empty selection")
    return _balance_from_counts(_label_counts(pool, report.selected), report.selected.size)


@dataclass
class CoverageMetrics:
    """Geometric coverage of the selection in embedding space."""

    variance_ratio: float
    covering_radius: float


def coverage_report(selected: np.ndarray, pool: Pool) -> CoverageMetrics:
    """Trace-of-covariance ratio selected/pool, and the covering radius
    (largest distance from any pool point to its nearest selected point),
    for the selected pool indices; a figure that is not finite, from
    coordinates too large to square, is a ValidationError."""
    if not len(selected):
        raise ValidationError("coverage is undefined for an empty selection")
    emb = pool.embedding_matrix()
    selected = emb[selected]
    with np.errstate(over="ignore", invalid="ignore"):
        # traces of the population covariances
        pool_var, sel_var = float(emb.var(axis=0).sum()), float(selected.var(axis=0).sum())
        ratio = 1.0 if pool_var == 0.0 else sel_var / pool_var
        radius = covering_radius(emb, selected)
    if not (math.isfinite(ratio) and math.isfinite(radius)):
        raise ValidationError(f"coverage is not finite: variance ratio {ratio}, covering radius {radius}")
    return CoverageMetrics(variance_ratio=ratio, covering_radius=radius)


def covering_radius(points: np.ndarray, centres: np.ndarray, chunk: int = 256) -> float:
    """Largest distance from a row of points to its nearest centre, equal
    to the maximum over rows of scipy's cdist(points, centres).min(axis=1).

    A float64 matrix product over rows centred on the mean of points gives
    each row's nearest squared distance m to within the error e of
    signals.rounding_bound, the kNN's bound. A row whose upper bound m + e
    (widened by the exact re-computation's own error) is below some row's
    lower bound m - e cannot be the farthest one, so only the remaining
    rows are re-checked through signals.exact_sq_distances. NaN bounds,
    from overflow, keep a row.
    """
    mean = points.mean(axis=0)
    a, b = points - mean, centres - mean
    a_sq, b_sq = np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b)
    nearest = np.empty(len(points))
    for start in range(0, len(points), chunk):
        block = (-2.0 * a[start : start + chunk]) @ b.T
        block += b_sq
        nearest[start : start + chunk] = block.min(axis=1)
    nearest += a_sq
    err, widen, floor = rounding_bound(
        points.shape[1], np.float64, np.sqrt(a_sq) + np.sqrt(b_sq.max())
    )
    upper = (nearest + err) * (1.0 + widen) + floor
    lower = (nearest - err) * (1.0 - widen) - floor
    rows = np.flatnonzero(~(upper < lower.max()))
    coords = np.ascontiguousarray(centres.T)
    radius_sq = 0.0
    for start in range(0, rows.size, chunk):
        sq = exact_sq_distances(points[rows[start : start + chunk]], coords)
        radius_sq = max(radius_sq, float(sq.min(axis=1).max()))
    return math.sqrt(radius_sq)
