"""Benchmark of the market-select CLI on three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload select-knn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload, traced
    python3 perfbench/run.py --workload all --smoke --seconds 2     # ~1k rows, under a minute

Load model: a closed loop with one client. Each job is a fixed list of CLI
commands; each command runs as ``python -m market_select.cli ...`` in a fresh
process, and the next command starts only after the previous one exits.
Nothing else runs concurrently. Jobs start until ``--seconds`` have passed
(so the last job may end after that, and at least one job always runs).

End-to-end metrics come from these untraced jobs:

* ``wall_s``: median job wall time, spawn of its first command to exit of its last;
* ``cpu_s``: median user+sys CPU of a job's processes, from ``os.wait4``;
* ``peak_rss_mb``: median over jobs of the largest ``ru_maxrss`` of a job's processes;
* ``setup_s``: median time for a fresh interpreter to ``import market_select.cli``,
  the set-up every command pays before it touches the pool (one import before
  each job, and at least three);
* ``fail_ratio``: failed jobs / attempted jobs (printed; it also sets ``correct``).

With ``--trace 1`` one more job runs traced: each of its commands runs in a
fresh process of ``traced_cli.py``, which wraps the layer functions of every
``market_select`` module with in-memory spans. Per-layer metrics come from
that job. Every job's outputs are checked (see ``workloads.py``), and the
sha256 of every artifact must be equal across all jobs of a run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any check fails, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads as W
from tracing import PER_LAYER, SpanTree, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative to ROOT, the working directory of every command
HARD_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_IMPORTS = 3  # minimum counted imports per run
ORACLE_ROWS = 256
ORACLE_TOL = 1e-9
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "MARKET_SELECT_THREADS")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    maxrss_mb: float


def spawn(argv: list[str], out: Path, err: Path, deadline: float) -> Proc:
    """Run one process to completion; kill it if it outlives ``deadline``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    with out.open("wb") as out_fh, err.open("wb") as err_fh:
        proc = subprocess.Popen(argv, env=env, stdout=out_fh, stderr=err_fh)
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


@dataclass
class Job:
    wall: float = 0.0
    cpu: float = 0.0
    peak_rss_mb: float = 0.0
    command_walls: list[tuple[str, float]] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def cli_prefix() -> list[str]:
    return [sys.executable, "-m", "market_select.cli"]


def traced_prefix(job_dir: Path, index: int) -> list[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), str(job_dir / f"{index}.spans.json"),
            str(job_dir / f"{index}.rarity.npy"), "--"]


def run_job(wl: W.Workload, job_dir: Path, deadline: float, traced: bool) -> Job:
    job_dir.mkdir(parents=True)
    job = Job()
    start = time.perf_counter()
    for i, cmd in enumerate(wl.commands(job_dir)):
        prefix = traced_prefix(job_dir, i) if traced else cli_prefix()
        err = job_dir / f"{i}-{cmd.name}.err"
        proc = spawn(prefix + cmd.argv, job_dir / W.stdout_name(i, cmd), err, deadline)
        job.cpu += proc.cpu
        job.peak_rss_mb = max(job.peak_rss_mb, proc.maxrss_mb)
        job.command_walls.append((cmd.name, proc.wall))
        if proc.code != 0:
            tail = err.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            job.errors.append(f"{cmd.name} exited {proc.code}: {' '.join(tail)}")
            break
    job.wall = time.perf_counter() - start
    return job


class Checker:
    """Output checks; content checks run once per distinct set of artifact bytes."""

    def __init__(self, wl: W.Workload):
        self.wl = wl
        self.reference: dict[str, str] | None = None
        self.by_hashes: dict[tuple[tuple[str, str], ...], list[str]] = {}

    def check(self, job: Job, job_dir: Path) -> None:
        if job.errors:
            return
        leftovers = [p for d in (job_dir, self.wl.run_dir) if d is not None for p in d.rglob("*.tmp")]
        if leftovers:
            job.errors.append(f"leftover temporary file {leftovers[0]}")
        try:
            job.hashes = {name: W.sha256_file(path)
                          for name, path in W.artifact_files(self.wl, job_dir).items()}
        except OSError as exc:
            job.errors.append(f"missing artifact: {exc}")
            return
        key = tuple(sorted(job.hashes.items()))
        if key not in self.by_hashes:
            self.by_hashes[key] = W.check_outputs(self.wl, job_dir)
        job.errors.extend(self.by_hashes[key])
        if self.reference is None:
            self.reference = job.hashes
        for name, digest in job.hashes.items():
            if digest != self.reference[name]:
                job.errors.append(f"{name} differs from the first job's bytes")


def knn_oracle(wl: W.Workload, rarity_path: Path, seed: int) -> tuple[float, list[str]]:
    """Compare sampled rarity values with an exhaustive direct-difference oracle."""
    if not rarity_path.exists():
        return float("nan"), ["traced select wrote no rarity column"]
    rarity = np.load(rarity_path)
    emb, codes = wl.pool.embeddings, wl.pool.topic_codes
    rows = np.random.default_rng([seed, 7]).choice(wl.pool.rows, size=min(ORACLE_ROWS, wl.pool.rows),
                                                   replace=False)
    worst = 0.0
    for i in rows:
        members = np.flatnonzero(codes == codes[i])
        others = members[members != i]
        diff = emb[others] - emb[i]
        dist = np.sqrt((diff * diff).sum(axis=1))
        k = min(W.KNN_K, others.size)
        expected = np.sort(dist)[:k].mean() if k else 0.0
        worst = max(worst, abs(float(rarity[i]) - float(expected)))
    errors = [] if worst <= ORACLE_TOL else [f"kNN oracle mismatch {worst:.3g} > {ORACLE_TOL}"]
    return worst, errors


def percentile_note(values: list[float]) -> str:
    """Highest percentile with ten samples beyond it, once there are 20 samples."""
    if len(values) < 20:
        return ""
    q = int(100 * (1 - 10 / len(values)))
    return f"p{q}={np.percentile(values, q, method='lower'):.6g}"


def environment() -> dict[str, object]:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}, "git_commit": commit,
    }


@dataclass
class Result:
    name: str
    e2e: dict[str, float] = field(default_factory=dict)
    e2e_samples: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    layer_samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> Result:
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    res = Result(name)
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _run(res, work, seed, seconds, trace, scale, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    if res.attempted == 0:  # set-up failed before any job ran
        res.attempted = res.failed = 1
    return res


def _run(res: Result, work: Path, seed: int, seconds: float, trace: bool, scale: str,
         deadline: float) -> None:
    wl = W.prepare(res.name, work, seed, scale)
    print(f"inputs: {json.dumps({'seed': seed, 'params': wl.params, 'pool': {'sha256': wl.pool.sha256, 'bytes': wl.pool.bytes, 'topic_sizes': wl.pool.topic_sizes()}})}")
    if wl.name == "session":
        proc = spawn(cli_prefix() + W.balanced_select_argv(wl.pool, wl.budget, wl.run_dir),
                     work / "session-run.out", work / "session-run.err", deadline)
        if proc.code != 0:
            res.errors.append(f"session set-up select exited {proc.code}")
            return
        res.errors.extend(W.check_select_run(wl, wl.run_dir))
        if res.errors:
            return
        W.pick_explain_ids(wl, seed)

    # set-up: a fresh interpreter importing the CLI. The first import fills
    # the bytecode cache and is not counted; the counted ones are spread
    # between the jobs, because this machine's speed shifts every few seconds
    # and imports taken back to back would all see the same state.
    def import_cli() -> float | None:
        proc = spawn([sys.executable, "-c", "import market_select.cli"], work / "import.out",
                     work / "import.err", deadline)
        if proc.code != 0:
            res.errors.append(f"import market_select.cli exited {proc.code}")
            return None
        return proc.wall

    if import_cli() is None:
        return
    setup: list[float] = []
    checker = Checker(wl)
    jobs: list[Job] = []
    loop_start = time.perf_counter()
    while True:
        wall = import_cli()
        if wall is None:
            return
        setup.append(wall)
        job_dir = work / f"job{len(jobs)}"
        job = run_job(wl, job_dir, deadline, traced=False)
        checker.check(job, job_dir)
        shutil.rmtree(job_dir)
        jobs.append(job)
        typical = statistics.median(j.wall for j in jobs)
        reserve = typical * (1.5 if trace else 0.0) + 2.0  # room for the traced job
        now = time.perf_counter()
        if now - loop_start >= seconds or now + typical + reserve > deadline:
            break
    while len(setup) < SETUP_IMPORTS:
        wall = import_cli()
        if wall is None:
            return
        setup.append(wall)

    res.attempted = len(jobs)
    res.failed = sum(1 for j in jobs if j.errors)
    for j in jobs:
        res.errors.extend(j.errors)
    res.e2e_samples = {
        "wall_s": [j.wall for j in jobs],
        "cpu_s": [j.cpu for j in jobs],
        "peak_rss_mb": [j.peak_rss_mb for j in jobs],
        "setup_s": setup,
    }
    res.e2e = {k: statistics.median(v) for k, v in res.e2e_samples.items()}
    print(f"artifacts (sha256; every job must match): {json.dumps(checker.reference)}")
    if trace:
        _traced(res, wl, work, seed, jobs, checker, deadline)


def _traced(res: Result, wl: W.Workload, work: Path, seed: int, jobs: list[Job],
            checker: Checker, deadline: float) -> None:
    job_dir = work / "traced"
    job = run_job(wl, job_dir, deadline, traced=True)
    checker.check(job, job_dir)
    res.attempted += 1
    if job.errors:
        res.failed += 1
        res.errors.extend(job.errors)
        return
    if wl.name == "select-knn":
        worst, errors = knn_oracle(wl, job_dir / "0.rarity.npy", seed)
        res.errors.extend(errors)
        print(f"knn oracle: {min(ORACLE_ROWS, wl.pool.rows)} sampled rows, max |rarity - oracle| = {worst:.3g}")
    command_walls: dict[str, list[float]] = {}
    for j in jobs:
        for cmd, wall in j.command_walls:
            command_walls.setdefault(cmd, []).append(wall)
    n_cmds = len(wl.commands(job_dir))
    tree = SpanTree.load([job_dir / f"{i}.spans.json" for i in range(n_cmds)])
    run_dir = wl.select_run_dir(job_dir)
    artifact_bytes = sum((run_dir / f).stat().st_size
                         for f in ("report.json", "prices.jsonl", "selected.txt"))
    res.layers = layer_metrics(tree, job.wall, command_walls,
                               list(wl.pool.topic_sizes().values()), wl.pool.bytes, artifact_bytes)
    res.layer_samples = {f"cli.{cmd}_s": len(walls) for cmd, walls in command_walls.items()}
    print(f"tracing overhead: traced job {job.wall:.4f} s - untraced median wall_s "
          f"{res.e2e['wall_s']:.4f} s = {job.wall - res.e2e['wall_s']:+.4f} s")
    print("self-time accounting (traced job; the self times plus other_s sum to its wall time):")
    rows = sorted(tree.self_by_name().items(), key=lambda kv: -kv[1][1])
    for span_name, (calls, self_s) in rows:
        print(f"  {span_name:34s} {self_s:10.4f} s  calls={calls}")
    print(f"  {'other_s':34s} {res.layers['other_s']:10.4f} s")
    print(f"  {'traced wall':34s} {job.wall:10.4f} s")
    shutil.rmtree(job_dir)


def report(res: Result, trace: bool) -> None:
    print("end-to-end (closed loop, 1 client, untraced):")
    print(f"  {'metric':14s} {'value':>14s} {'unit':6s} {'samples':>7s}")
    for name, unit in END_TO_END.items():
        samples = res.e2e_samples.get(name, [])
        if samples:
            print(f"  {name:14s} {res.e2e[name]:14.6f} {unit:6s} {len(samples):7d} "
                  f"{percentile_note(samples)}")
    jobs = max(res.attempted, 1)
    print(f"  {'fail_ratio':14s} {res.failed / jobs:14.6f} {'ratio':6s} {res.attempted:7d} "
          f"({res.failed} of {res.attempted} jobs failed)")
    if trace and res.layers:
        print("per-layer (one traced job):")
        print(f"  {'metric':32s} {'value':>16s} {'unit':8s} {'samples':>7s}  moves")
        for m in PER_LAYER:
            n = res.layer_samples.get(m.name, 1)
            print(f"  {m.name:32s} {res.layers[m.name]:16.6f} {m.unit:8s} {n:7d}  {m.moves}")
    for err in res.errors[:20]:
        print(f"CHECK FAILED: {err}")


def metrics_json(res: Result, trace: bool) -> dict[str, dict[str, object]]:
    if trace:
        return {m.name: {"value": res.layers.get(m.name, 0.0), "unit": m.unit} for m in PER_LAYER}
    return {name: {"value": res.e2e.get(name, 0.0), "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (~1k rows)")
    args = parser.parse_args(argv)
    if not (SRC / "market_select" / "cli.py").is_file():
        print(f"error: program under test not found at {SRC / 'market_select'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    scale = "smoke" if args.smoke else "full"
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = args.trace == 1 or args.workload == "all"
    print(f"environment: {json.dumps(environment())}")
    results = []
    for name in names:
        print(f"== workload {name}: seed={args.seed} seconds={args.seconds} trace={int(trace)} "
              f"scale={scale}")
        res = run_workload(name, args.seed, args.seconds, trace, scale)
        report(res, trace)
        results.append(res)
    summary = {
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
    }
    if args.workload == "all":
        summary["metrics"] = {r.name: {**metrics_json(r, False), **metrics_json(r, True)}
                              for r in results}
    else:
        summary["metrics"] = metrics_json(results[0], trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
