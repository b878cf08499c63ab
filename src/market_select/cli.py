"""Command-line front end.

Subcommands: select (full pipeline), signals, price, tune, simulate
(recovery | corruption), sweep, and explain. Exit codes: 0 success,
1 data/invariant violation, 2 I/O or configuration error.

`select` reads an optional flat JSON config file whose keys mirror the
flags; explicit flags win over the file. Every command that reads a pool
builds one RunConfig from its flags, which parses and checks every
setting, and builds its other configs, before pipeline.prepare reads the
pool; so the shared flags mean the same everywhere, and a bad setting
fails before a bad pool. `select` records the warning texts of the pool
and its signals in its report; the other commands but `explain` print each
as a `warning:` line on stderr. Python's filters rule any other warning.
MARKET_SELECT_THREADS serves as a fallback for --threads, and the number
of usable CPUs as the default of both.
OPENBLAS_THREAD_TIMEOUT defaults to 4 in a CLI process (see below).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

# numpy's OpenBLAS spins each idle helper thread for 2**28 cycles (about
# 0.1 s of CPU per process) before it sleeps, and no command keeps BLAS
# busy between calls; at 4, the smallest exponent OpenBLAS takes, they
# sleep at once and the thread count is unchanged. numpy reads the
# variable when it loads, so it is set before the imports below load
# numpy; a value the user set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from . import pool as pool_module
from .errors import ConfigError, MarketSelectError
from .pipeline import (
    CONFIG_KEYS,
    PRICES_FILE,
    REPORT_FILE,
    SELECTED_FILE,
    RunConfig,
    dump_json,
    encode_text,
    explain,
    fmt_float,
    format_price_rows,
    format_signal_rows,
    prepare,
    read_float_map,
    read_json_file,
    round_floats,
    run_pipeline,
    write_atomic,
)
from .market import DEFAULT_BETA, price_pool
from .pool import Pool
from .selection import DEFAULT_GAMMA
from .signals import SignalTable
from .standardize import DEFAULT_TAU, StandardizedTable

PRESETS: dict[str, dict[str, Any]] = {
    # diversity-leaning variant: longer-form diverse picks
    "diverse": {"weights": "diverse", "gamma": 1.2},
}


def _parse_grid(text: str, flag: str, kind: type = float) -> list:
    """Comma-separated values of ``kind`` (float or int), at least one."""
    try:
        values = [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{flag} expects comma-separated {noun}, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return values


def _add_signal_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pool", help="path to the pool JSONL file")
    p.add_argument(
        "--signals",
        help="comma-separated signal specs: an ingested name (e.g. nll), "
        "rarity[:k=INT], div_cent, div[:alpha_cent=F,alpha_knn=F[,k=INT]]",
    )
    p.add_argument(
        "--standardize",
        help="normalization method: zscore, robust, or rank+robust (default robust)",
    )
    p.add_argument(
        "--tau", type=float, help=f"clipping radius after standardization (default {DEFAULT_TAU})"
    )
    p.add_argument(
        "--threads", type=int,
        help="worker cap (default: MARKET_SELECT_THREADS, else the number of usable CPUs) for "
             "the pool parse (one range of at least 4 MiB per worker) and for the kNN's "
             "row-chunk work items, where OpenBLAS then runs one thread per worker; at most one "
             "worker per usable CPU; results are byte-identical for any value",
    )


def _add_market_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, help=f"global liquidity (default {DEFAULT_BETA})")
    p.add_argument("--beta-per-topic", help="JSON file of topic -> liquidity")
    p.add_argument("--alpha", help="'proportional' or JSON file of topic -> budget share")
    p.add_argument("--weights", help="'equal', 'diverse', name=w pairs, or @weights.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="market-select",
        description="Budget-aware data subset selection via market-style price aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="run the full selection pipeline")
    _add_signal_args(p_select)
    p_select.add_argument("--config", help="JSON config file; flags override its keys")
    p_select.add_argument("--out-dir", required=True, help="directory for report.json, prices.jsonl, selected.txt")
    _add_market_args(p_select)
    p_select.add_argument("--budget-tokens", type=int, help="token budget for the selection")
    p_select.add_argument(
        "--retention-rate",
        type=float,
        help="select this fraction of examples instead of a token budget",
    )
    p_select.add_argument(
        "--gamma", type=float, help=f"length-bias exponent (default {DEFAULT_GAMMA})"
    )
    p_select.add_argument("--mode", choices=["greedy", "balanced"], help="selection mode")
    p_select.add_argument("--label-floor", help="integer per-label minimum or 'auto' (balanced mode)")
    p_select.add_argument("--preset", choices=sorted(PRESETS), help="named configuration preset")
    p_select.add_argument("--coverage", action="store_true", help="add embedding-coverage metrics to the report")
    p_select.add_argument("--seed", type=int, help="seed echoed into the report (selection itself is deterministic)")
    p_select.set_defaults(func=_cmd_select)

    p_signals = sub.add_parser("signals", help="compute raw and standardized signal columns")
    _add_signal_args(p_signals)
    p_signals.add_argument("--out", required=True, help="output JSONL path")
    p_signals.set_defaults(func=_cmd_signals)

    p_price = sub.add_parser("price", help="price the pool without selecting")
    _add_signal_args(p_price)
    _add_market_args(p_price)
    p_price.add_argument("--out", required=True, help="output JSONL path ({id, topic, q, p} per line)")
    p_price.set_defaults(func=_cmd_price)

    p_tune = sub.add_parser("tune", help="tune signal weights against dev feedback")
    _add_signal_args(p_tune)
    p_tune.add_argument("--dev-feedback", required=True, help="JSONL of {id, utility}")
    p_tune.add_argument("--eta", type=float, default=0.1, help="learning rate (default 0.1)")
    p_tune.add_argument("--rounds", type=int, default=50, help="update rounds (default 50)")
    p_tune.add_argument("--seed", type=int, default=0, help="recorded in the output for provenance")
    p_tune.add_argument("--out", required=True, help="output weights JSON (usable via --weights @file)")
    p_tune.set_defaults(func=_cmd_tune)

    p_sim = sub.add_parser("simulate", help="run verification simulations")
    sim_sub = p_sim.add_subparsers(dest="kind", required=True)

    p_rec = sim_sub.add_parser(
        "recovery",
        help="utility-recovery simulation",
        description="CSV columns: sigma, k, mean_ratio, empirical_epsilon "
        "(one row per grid point; ratio compares selected true utility "
        "to the best possible top-k subset).",
    )
    p_rec.add_argument("--n", type=int, required=True, help="pool size per trial")
    p_rec.add_argument("--m", type=int, default=3, help="number of signals (default 3)")
    p_rec.add_argument("--sigma-grid", default="0.5", help="comma-separated noise scales")
    p_rec.add_argument("--k-grid", required=True, help="comma-separated budgets")
    p_rec.add_argument("--family", choices=["linear", "logistic"], default="linear")
    p_rec.add_argument("--trials", type=int, default=50)
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--out", required=True, help="output CSV path")
    p_rec.set_defaults(func=_cmd_simulate_recovery)

    p_cor = sim_sub.add_parser(
        "corruption",
        help="single-signal corruption influence sweep",
        description="CSV columns: epsilon, beta, price_l1_change, "
        "share_linf_change, share_linf_bound (bound = 2*tau*eps*w).",
    )
    _add_signal_args(p_cor)
    p_cor.add_argument("--weights", default="equal")
    p_cor.add_argument("--target-signal", required=True, help="signal column to corrupt")
    p_cor.add_argument("--eps-grid", default="0,0.25,0.5,0.75,1.0")
    p_cor.add_argument("--beta-grid", default=str(DEFAULT_BETA))
    p_cor.add_argument("--out", required=True, help="output CSV path")
    p_cor.set_defaults(func=_cmd_simulate_corruption)

    p_sweep = sub.add_parser(
        "sweep",
        help="liquidity / length-bias sensitivity sweep",
        description="CSV columns: beta, gamma, jaccard_vs_default, n_selected, "
        "tokens_used, median_tokens, topic_price_mass (JSON object). The "
        f"reference set uses beta={DEFAULT_BETA:g}, gamma={DEFAULT_GAMMA:g}.",
    )
    _add_signal_args(p_sweep)
    p_sweep.add_argument("--weights", default="equal")
    p_sweep.add_argument("--budget-tokens", type=int, required=True)
    p_sweep.add_argument("--beta-grid", default=str(DEFAULT_BETA))
    p_sweep.add_argument("--gamma-grid", default=str(DEFAULT_GAMMA))
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_explain = sub.add_parser("explain", help="break down one example from a prior run")
    p_explain.add_argument("--run-dir", required=True, help="directory written by `select`")
    p_explain.add_argument("--pool", help="override the pool path stored in the run config")
    p_explain.add_argument("id", help="example id to explain")
    p_explain.set_defaults(func=_cmd_explain)

    return parser


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of any pool command: the --config file, then the
    preset, then the flags. A flag the subcommand does not define counts
    as not given, and so does an empty --standardize, --alpha or --weights."""
    flags = vars(args)
    data: dict[str, Any] = {}
    if flags.get("config"):
        loaded = read_json_file(args.config, "config")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {Path(args.config)} must hold a JSON object")
        data.update(loaded)
    if flags.get("preset"):
        data.update(PRESETS[args.preset])
    for key in CONFIG_KEYS:
        value = flags.get(key)
        if value is not None and (value or key not in ("standardize", "alpha", "weights")):
            data[key] = value
    if flags.get("beta_per_topic"):
        data["beta"] = read_float_map(args.beta_per_topic, "per-topic liquidity")
    for key in ("pool", "signals"):
        if data.get(key) is None:
            hint = " (flag or config file)" if "config" in flags else ""
            raise ConfigError(f"--{key} is required{hint}")
    return RunConfig.from_dict(data)


def _threads_of(args: argparse.Namespace) -> int:
    """--threads, else MARKET_SELECT_THREADS, else the number of usable
    CPUs: an integer >= 1. A subcommand without --threads (explain)
    follows the variable."""
    flag = vars(args).get("threads")
    if flag is not None:
        name, value = "--threads", flag
    elif "MARKET_SELECT_THREADS" in os.environ:
        name, value = "MARKET_SELECT_THREADS", os.environ["MARKET_SELECT_THREADS"]
    else:
        return pool_module._usable_cpus()
    try:
        threads = int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if threads < 1:
        raise ConfigError(f"{name} must be >= 1, got {threads}")
    return threads


def _prepare(
    cfg: RunConfig, args: argparse.Namespace
) -> tuple[Pool, SignalTable, StandardizedTable]:
    """pipeline.prepare at the command's thread count, with each warning
    text of the pool and of the signal table printed as a ``warning:``
    line on stderr (``select`` records them in its report instead)."""
    pool, table, std = prepare(cfg, _threads_of(args))
    for text in [*pool.warnings, *table.warnings]:
        print(f"warning: {text}", file=sys.stderr)
    return pool, table, std


def _write_csv(path: str, fieldnames: list[str], rows: list[dict[str, Any]]) -> None:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        formatted = {}
        for key in fieldnames:
            value = row[key]
            if isinstance(value, float):
                formatted[key] = f"{value:.9g}"
            elif isinstance(value, dict):
                formatted[key] = json.dumps(
                    {k: fmt_float(v) if isinstance(v, float) else v for k, v in value.items()},
                    sort_keys=True,
                )
            else:
                formatted[key] = value
        writer.writerow(formatted)
    path = Path(path)
    write_atomic([(path, encode_text(path, buf.getvalue()))])


def _cmd_select(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    result = run_pipeline(
        cfg, out_dir=args.out_dir, threads=_threads_of(args), with_coverage=args.coverage
    )
    sel = result.selection
    print(
        f"selected {len(sel.selected)} examples, {sel.tokens_used} tokens "
        f"(budget {result.report['config']['budget_tokens']}), "
        f"skipped {sel.skipped_for_budget}"
    )
    print(f"report: {Path(args.out_dir) / REPORT_FILE}")
    print(f"prices: {Path(args.out_dir) / PRICES_FILE}")
    print(f"selected ids: {Path(args.out_dir) / SELECTED_FILE}")
    return 0


def _cmd_signals(args: argparse.Namespace) -> int:
    pool, table, std = _prepare(_build_run_config(args), args)
    out = Path(args.out)
    write_atomic([(out, b"".join(format_signal_rows(pool, table, std)))])
    print(f"wrote {pool.n} rows to {out}")
    return 0


def _cmd_price(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    pool, _, std = _prepare(cfg, args)
    state = price_pool(pool, std, cfg.resolved_weights, cfg.market_config)
    out = Path(args.out)
    write_atomic([(out, b"".join(format_price_rows(pool, state)))])
    print(f"wrote prices for {pool.n} examples to {out}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .tune import TuneConfig, load_dev_feedback, tune_weights

    cfg = _build_run_config(args)
    tune_cfg = TuneConfig(eta=args.eta, rounds=args.rounds)
    pool, _, std = _prepare(cfg, args)
    feedback = load_dev_feedback(args.dev_feedback)
    result = tune_weights(std, feedback, pool, tune_cfg)
    out = Path(args.out)
    payload = {
        "weights": result.weights.w,
        "eta": args.eta,
        "rounds": args.rounds,
        "seed": args.seed,
        "trajectory": result.trajectory,
    }
    write_atomic([(out, encode_text(out, dump_json(round_floats(payload))))])
    rounded = {name: fmt_float(value) for name, value in result.weights.w.items()}
    print(f"tuned weights over {args.rounds} rounds: {json.dumps(rounded)}")
    print(f"wrote {out}")
    return 0


def _cmd_simulate_recovery(args: argparse.Namespace) -> int:
    from .verify import RecoverySimConfig, recovery_grid

    sigmas = _parse_grid(args.sigma_grid, "--sigma-grid")
    ks = _parse_grid(args.k_grid, "--k-grid", int)
    # the grid supplies sigma and k; the base config takes its first point
    # so that no unused default is validated against n
    cfg = RecoverySimConfig(
        n=args.n,
        m=args.m,
        sigma=sigmas[0],
        k=ks[0],
        monotone_family=args.family,
        trials=args.trials,
        seed=args.seed,
    )
    results = recovery_grid(cfg, sigmas=sigmas, ks=ks)
    rows = [vars(r) for r in results]
    _write_csv(args.out, ["sigma", "k", "mean_ratio", "empirical_epsilon"], rows)
    print(f"wrote {len(rows)} grid points to {args.out}")
    return 0


def _cmd_simulate_corruption(args: argparse.Namespace) -> int:
    from .verify import CorruptionSweepConfig, check_target_signal, sweep_corruption

    cfg = _build_run_config(args)
    sweep_cfg = CorruptionSweepConfig(
        epsilons=_parse_grid(args.eps_grid, "--eps-grid"),
        target_signal=args.target_signal,
        tau=cfg.tau,
        betas=_parse_grid(args.beta_grid, "--beta-grid"),
    )
    check_target_signal(args.target_signal, [spec.name for spec in cfg.specs],
                        cfg.resolved_weights)
    pool, _, std = _prepare(cfg, args)
    rows = sweep_corruption(pool, std, cfg.resolved_weights, sweep_cfg)
    _write_csv(
        args.out,
        ["epsilon", "beta", "price_l1_change", "share_linf_change", "share_linf_bound"],
        rows,
    )
    print(f"wrote {len(rows)} sweep points to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .verify import sweep_hyperparams

    cfg = _build_run_config(args)
    betas = _parse_grid(args.beta_grid, "--beta-grid")
    gammas = _parse_grid(args.gamma_grid, "--gamma-grid")
    # every grid value passes the run settings' own checks before the pool is read
    for beta in betas:
        replace(cfg, beta=beta)
    for gamma in gammas:
        replace(cfg, gamma=gamma)
    pool, _, std = _prepare(cfg, args)
    rows = sweep_hyperparams(pool, std, cfg.resolved_weights, budget_tokens=cfg.budget_tokens,
                             beta_grid=betas, gamma_grid=gammas)
    _write_csv(
        args.out,
        [
            "beta",
            "gamma",
            "jaccard_vs_default",
            "n_selected",
            "tokens_used",
            "median_tokens",
            "topic_price_mass",
        ],
        rows,
    )
    print(f"wrote {len(rows)} grid points to {args.out}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    info = explain(args.run_dir, args.id, pool_path=args.pool, threads=_threads_of(args))
    print(f"id: {info['id']}")
    print(f"topic: {info['topic']}")
    print(f"tokens: {info['tokens']}")
    if info["label"] is not None:
        print(f"label: {info['label']}")
    for name, value in info["raw_signals"].items():
        print(f"raw {name}: {fmt_float(value)}")
    for name, value in info["standardized"].items():
        print(f"standardized {name}: {fmt_float(value)}")
    print(f"share q: {fmt_float(info['share'])}")
    print(f"price p: {fmt_float(info['price'])}")
    print(f"score rho: {fmt_float(info['score'])}")
    if info["selected"]:
        print(f"status: selected (rank {info['rank']} of the report order)")
    else:
        print("status: not selected")
    for ev in info["scan_events"]:
        if ev["action"] == "admit":
            print(
                f"  admitted in phase {ev['phase']} at scan position {ev['position']}; "
                f"cumulative tokens after admission: {ev['tokens_after']}"
            )
        else:
            print(
                f"  passed over in phase {ev['phase']} at scan position {ev['position']}; "
                f"remaining budget was {ev['budget_remaining']} tokens"
            )
    if not info["scan_events"]:
        print("  never reached by the scan (selection cap hit earlier)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MarketSelectError as exc:  # ValidationError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    code = main()
    # The interpreter's exit runs garbage collections over every object
    # still alive, though the ending process frees its memory anyway;
    # gc.freeze() moves them all where those collections do not look.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
