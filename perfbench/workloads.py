"""Seeded inputs, jobs and output checks for the three benchmark workloads.

Every input is generated from the benchmark's ``--seed``: the same seed and
scale give byte-identical pool files. Pools are written under the run's work
directory, never into the repository. Tokens are uniform in [10, 400), topic
probabilities follow Zipf(s=1), ingested signals are N(0, 1), and an
embedding is its topic's N(0, I) centre plus N(0, I) noise.

A job is a list of CLI commands run one after another, each in a fresh
process. ``check_outputs`` verifies a finished job's outputs, and
``artifact_files`` names the files whose bytes must not change between jobs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("select-knn", "select-ingested", "session")

# Per-workload generation parameters. "smoke" keeps every workload near
# 1k rows so the whole benchmark, checks and traced runs included, finishes
# in well under a minute.
SCALES: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "select-knn": {"rows": 30_000, "topics": 8, "dim": 64, "labels": 0},
        "select-ingested": {"rows": 200_000, "topics": 64, "dim": 0, "labels": 4},
        "session": {"rows": 30_000, "topics": 16, "dim": 0, "labels": 4},
    },
    "smoke": {
        "select-knn": {"rows": 1_000, "topics": 8, "dim": 16, "labels": 0},
        "select-ingested": {"rows": 1_200, "topics": 64, "dim": 0, "labels": 4},
        "session": {"rows": 1_000, "topics": 16, "dim": 0, "labels": 4},
    },
}

SIGNALS = {
    "select-knn": ("nll",),
    "select-ingested": ("nll", "s1", "s2"),
    "session": ("nll", "s1", "s2"),
}

BUDGET_SHARE = {"select-knn": 0.20, "select-ingested": 0.30, "session": 0.10}  # of pool tokens
TOKEN_LOW, TOKEN_HIGH = 10, 400
KNN_K = 10
SWEEP_BETAS = "0.5,1,2,5"
SWEEP_GAMMAS = "1.4,1.6,1.8"
CORRUPTION_EPS = "0,0.25,0.5,1"
CORRUPTION_BETAS = "0.5,2,5"
TUNE_ROUNDS = 50
PRICE_MASS_TOL = 1e-6


@dataclass
class Pool:
    """A generated pool: the file and the columns it was written from."""

    path: Path
    ids: list[str]
    topic_codes: np.ndarray
    topic_names: list[str]
    tokens: np.ndarray
    signals: dict[str, np.ndarray]
    embeddings: np.ndarray | None
    sha256: str = ""
    bytes: int = 0

    @property
    def rows(self) -> int:
        return len(self.ids)

    def topic_sizes(self) -> dict[str, int]:
        counts = np.bincount(self.topic_codes, minlength=len(self.topic_names))
        return {name: int(c) for name, c in zip(self.topic_names, counts)}

    def tokens_share(self, share: float) -> int:
        return int(share * int(self.tokens.sum()))


def zipf_probabilities(topics: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, topics + 1)
    return weights / weights.sum()


def generate_pool(
    path: Path, rng: np.random.Generator, rows: int, topics: int, dim: int,
    labels: int, signals: tuple[str, ...],
) -> Pool:
    """Write a JSONL pool and return its columns.

    Floats are written with ``repr``, which round-trips exactly, so the
    returned arrays equal what ``load_pool`` reads back.
    """
    ids = [f"ex{i:07d}" for i in range(rows)]  # zero-padded: file order is id order
    topic_names = [f"t{t:02d}" for t in range(topics)]
    codes = rng.choice(topics, size=rows, p=zipf_probabilities(topics))
    tokens = rng.integers(TOKEN_LOW, TOKEN_HIGH, size=rows)
    label_codes = rng.integers(0, labels, size=rows) if labels else None
    columns = {name: rng.standard_normal(rows) for name in signals}
    embeddings = None
    if dim:
        centres = rng.standard_normal((topics, dim))
        embeddings = centres[codes] + rng.standard_normal((rows, dim))

    sig_lists = {name: col.tolist() for name, col in columns.items()}
    emb_rows = embeddings.tolist() if embeddings is not None else None
    lines = []
    for i in range(rows):
        obj: dict[str, object] = {"id": ids[i], "topic": topic_names[codes[i]], "tokens": int(tokens[i])}
        if label_codes is not None:
            obj["label"] = f"l{label_codes[i]}"
        if emb_rows is not None:
            obj["embedding"] = emb_rows[i]
        obj["signals"] = {name: vals[i] for name, vals in sig_lists.items()}
        lines.append(json.dumps(obj))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return Pool(
        path=path, ids=ids, topic_codes=codes, topic_names=topic_names,
        tokens=tokens, signals=columns, embeddings=embeddings,
        sha256=hashlib.sha256(data).hexdigest(), bytes=len(data),
    )


@dataclass
class Command:
    """One CLI invocation of a job; ``name`` labels its per-command timing."""

    name: str
    argv: list[str]


@dataclass
class Workload:
    """Inputs of one workload and how to build and check its jobs.

    Paths handed to the CLI are relative to the checkout root, so the
    artifacts (the report echoes the pool path) do not depend on where the
    checkout lives.
    """

    name: str
    pool: Pool
    budget: int
    params: dict[str, object]
    run_dir: Path | None = None  # session: the select run that explain reads
    explain_ids: dict[str, str] = field(default_factory=dict)
    dev_path: Path | None = None

    def commands(self, job_dir: Path) -> list[Command]:
        pool = str(self.pool.path)
        if self.name == "select-knn":
            return [Command("select", [
                "select", "--pool", pool, "--signals", f"nll,rarity:k={KNN_K},div_cent",
                "--budget-tokens", str(self.budget), "--threads", "2",
                "--out-dir", str(job_dir / "run"),
            ])]
        if self.name == "select-ingested":
            return [Command("select", balanced_select_argv(self.pool, self.budget, job_dir / "run"))]
        signals = ["--pool", pool, "--signals", "nll,s1,s2"]
        return [
            Command("tune", ["tune", *signals, "--dev-feedback", str(self.dev_path),
                             "--rounds", str(TUNE_ROUNDS), "--out", str(job_dir / "weights.json")]),
            Command("sweep", ["sweep", *signals, "--budget-tokens", str(self.budget),
                              "--beta-grid", SWEEP_BETAS, "--gamma-grid", SWEEP_GAMMAS,
                              "--out", str(job_dir / "sweep.csv")]),
            Command("corruption", ["simulate", "corruption", *signals, "--target-signal", "nll",
                                   "--eps-grid", CORRUPTION_EPS, "--beta-grid", CORRUPTION_BETAS,
                                   "--out", str(job_dir / "corruption.csv")]),
            *[Command("explain", ["explain", "--run-dir", str(self.run_dir), rid])
              for rid in self.explain_ids.values()],
        ]

    def select_run_dir(self, job_dir: Path) -> Path:
        """Directory holding report.json, prices.jsonl and selected.txt."""
        return self.run_dir if self.name == "session" else job_dir / "run"


def stdout_name(index: int, cmd: Command) -> str:
    """File a job's command writes its standard output to."""
    return f"{index}-{cmd.name}.out"


def balanced_select_argv(pool: Pool, budget: int, out_dir: Path) -> list[str]:
    return ["select", "--pool", str(pool.path), "--signals", "nll,s1,s2",
            "--mode", "balanced", "--label-floor", "auto",
            "--budget-tokens", str(budget), "--out-dir", str(out_dir)]


def prepare(name: str, work: Path, seed: int, scale: str) -> Workload:
    """Generate the pool (and session's dev feedback) for one workload.

    The session's select run dir is made by the caller, through the CLI.
    """
    shape = SCALES[scale][name]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    pool = generate_pool(work / "pool.jsonl", rng, signals=SIGNALS[name], **shape)
    params: dict[str, object] = {"scale": scale, **shape, "signals": list(SIGNALS[name]),
                                 "tokens": [TOKEN_LOW, TOKEN_HIGH], "topic_probs": "zipf(s=1)",
                                 "budget_share": BUDGET_SHARE[name]}
    wl = Workload(name=name, pool=pool, budget=pool.tokens_share(BUDGET_SHARE[name]), params=params)
    if name == "session":
        wl.dev_path = work / "dev.jsonl"
        noise = rng.standard_normal(pool.rows)
        with wl.dev_path.open("w", encoding="utf-8") as fh:
            for i in range(0, pool.rows, 10):
                utility = pool.signals["nll"][i] + noise[i]
                fh.write(json.dumps({"id": pool.ids[i], "utility": utility}) + "\n")
        wl.run_dir = work / "session-run"
        params.update(dev_every=10, tune_rounds=TUNE_ROUNDS, sweep_betas=SWEEP_BETAS,
                      sweep_gammas=SWEEP_GAMMAS, corruption_eps=CORRUPTION_EPS,
                      corruption_betas=CORRUPTION_BETAS)
    return wl


def pick_explain_ids(wl: Workload, seed: int) -> None:
    """Choose one selected and one passed-over id from the session's run dir."""
    selected = (wl.run_dir / "selected.txt").read_text(encoding="utf-8").split()
    chosen = set(selected)
    passed = [rid for rid in wl.pool.ids if rid not in chosen]
    rng = np.random.default_rng([seed, 99])
    wl.explain_ids = {
        "selected": selected[int(rng.integers(len(selected)))],
        "passed": passed[int(rng.integers(len(passed)))],
    }


# ---------------------------------------------------------------- checks


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token}")


def _loads(text: str) -> object:
    return json.loads(text, parse_constant=_reject_constant)


def _finite(value: float, where: str, errors: list[str]) -> None:
    if not math.isfinite(value):
        errors.append(f"{where}: non-finite number {value}")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_select_run(wl: Workload, run_dir: Path) -> list[str]:
    """Budget, id and price-mass checks on a select run directory."""
    errors: list[str] = []
    try:
        report = _loads((run_dir / "report.json").read_text(encoding="utf-8"))
        selected = (run_dir / "selected.txt").read_text(encoding="utf-8").split("\n")
        prices = [_loads(line) for line in
                  (run_dir / "prices.jsonl").read_text(encoding="utf-8").splitlines()]
    except (OSError, ValueError) as exc:
        return [f"{run_dir}: unreadable artifact ({exc})"]
    if selected and selected[-1] == "":
        selected.pop()
    pos = {rid: i for i, rid in enumerate(wl.pool.ids)}
    if selected != report["selected"]:
        errors.append("selected.txt differs from report.selected")
    if len(set(selected)) != len(selected):
        errors.append("selected.txt has duplicate ids")
    unknown = [rid for rid in selected if rid not in pos]
    if unknown:
        errors.append(f"selected.txt has unknown ids, e.g. {unknown[0]!r}")
    else:
        summed = int(sum(int(wl.pool.tokens[pos[rid]]) for rid in selected))
        if report["tokens_used"] != summed:
            errors.append(f"tokens_used {report['tokens_used']} != summed tokens {summed}")
    if report["tokens_used"] > wl.budget:
        errors.append(f"tokens_used {report['tokens_used']} exceeds budget {wl.budget}")
    if len(prices) != wl.pool.rows:
        errors.append(f"prices.jsonl has {len(prices)} rows, pool has {wl.pool.rows}")
    mass = dict.fromkeys(wl.pool.topic_names, 0.0)
    for row in prices:
        _finite(row["p"], "prices.jsonl p", errors)
        _finite(row["q"], "prices.jsonl q", errors)
        mass[row["topic"]] += row["p"]
    for topic, n_t in wl.pool.topic_sizes().items():
        if abs(mass[topic] - n_t / wl.pool.rows) > PRICE_MASS_TOL:
            errors.append(f"topic {topic} price mass {mass[topic]!r} != {n_t}/{wl.pool.rows}")
    return errors[:20]


def _read_csv(path: Path, errors: list[str]) -> list[dict[str, float]]:
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            parsed = {}
            for key, text in row.items():
                if text.startswith("{"):
                    for v in _loads(text).values():
                        _finite(v, f"{path.name} {key}", errors)
                    continue
                parsed[key] = float(text)
                _finite(parsed[key], f"{path.name} {key}", errors)
            rows.append(parsed)
    return rows


def check_session_outputs(wl: Workload, job_dir: Path) -> list[str]:
    """Tuned weights, sweep and corruption CSVs, and explain output."""
    errors: list[str] = []
    try:
        tuned = _loads((job_dir / "weights.json").read_text(encoding="utf-8"))
        total = sum(tuned["weights"].values())
        if abs(total - 1.0) > 1e-6:
            errors.append(f"tuned weights sum to {total!r}")
        sweep = _read_csv(job_dir / "sweep.csv", errors)
        corruption = _read_csv(job_dir / "corruption.csv", errors)
        explained = [path.read_text(encoding="utf-8")
                     for name, path in artifact_files(wl, job_dir).items() if "explain" in name]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{job_dir}: unreadable session artifact ({exc})"]
    if len(sweep) != 12:
        errors.append(f"sweep.csv has {len(sweep)} rows, expected 12")
    for row in sweep:
        if row["tokens_used"] > wl.budget:
            errors.append(f"sweep row tokens {row['tokens_used']} exceed budget {wl.budget}")
        if not 0.0 <= row["jaccard_vs_default"] <= 1.0:
            errors.append(f"sweep jaccard {row['jaccard_vs_default']} outside [0, 1]")
    if len(corruption) != 12:
        errors.append(f"corruption.csv has {len(corruption)} rows, expected 12")
    for row in corruption:
        if row["share_linf_change"] > row["share_linf_bound"] + 1e-9:
            errors.append(f"corruption row {row} breaks share_linf_bound")
    for (kind, rid), out in zip(wl.explain_ids.items(), explained):
        if "warning:" in out:
            errors.append(f"explain {rid} printed a stale-dump warning")
        want = "status: selected" if kind == "selected" else "status: not selected"
        if f"id: {rid}\n" not in out or want not in out:
            errors.append(f"explain {rid} output lacks 'id: {rid}' or '{want}'")
    return errors


def check_outputs(wl: Workload, job_dir: Path) -> list[str]:
    if wl.name == "session":
        return check_session_outputs(wl, job_dir)
    return check_select_run(wl, job_dir / "run")


def artifact_files(wl: Workload, job_dir: Path) -> dict[str, Path]:
    """Result files whose bytes must be identical across jobs and commits."""
    if wl.name == "session":
        files = {name: job_dir / name for name in ("weights.json", "sweep.csv", "corruption.csv")}
        for i, cmd in enumerate(wl.commands(job_dir)):
            if cmd.name == "explain":
                files[stdout_name(i, cmd)] = job_dir / stdout_name(i, cmd)
        return files
    run = job_dir / "run"
    return {name: run / name for name in ("report.json", "prices.jsonl", "selected.txt")}
