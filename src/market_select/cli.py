"""Command-line front end.

Subcommands: select (full pipeline), signals, price, tune, simulate
(recovery | corruption), sweep, and explain. Exit codes: 0 success,
1 data/invariant violation, 2 I/O or configuration error.

`select` reads an optional flat JSON config file whose keys mirror the
flags; explicit flags win over the file. MARKET_SELECT_THREADS serves as
a fallback for --threads.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Any, Sequence

from .errors import ConfigError, MarketSelectError, ValidationError
from .market import MarketConfig, Weights, price_pool
from .pipeline import (
    PRICES_FILE,
    REPORT_FILE,
    SELECTED_FILE,
    RunConfig,
    dump_json,
    dump_json_line,
    explain,
    float_map,
    fmt_float,
    format_price_rows,
    resolve_weights,
    run_pipeline,
    write_atomic,
)
from .pool import load_pool
from .signals import build_signal_table
from .standardize import StandardizeConfig, standardize_table
from .tune import TuneConfig, load_dev_feedback, tune_weights
from .verify import (
    CorruptionSweepConfig,
    RecoverySimConfig,
    recovery_grid,
    sweep_corruption,
    sweep_hyperparams,
)

STANDARDIZE_CHOICES = {"zscore": "zscore", "robust": "robust", "rank+robust": "rank_then_robust"}

PRESETS: dict[str, dict[str, Any]] = {
    # diversity-leaning variant: longer-form diverse picks
    "diverse": {"weights": "diverse", "gamma": 1.2},
}


def _default_threads() -> int:
    env = os.environ.get("MARKET_SELECT_THREADS")
    if env is None:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigError(f"MARKET_SELECT_THREADS must be an integer, got {env!r}") from None


def _parse_float_grid(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return values


def _parse_int_grid(text: str, flag: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return values


def _parse_weights_arg(text: str) -> str | dict[str, float]:
    """'equal', 'name=w,name=w', or '@file.json' (map or {"weights": map})."""
    if text == "equal":
        return "equal"
    if text.startswith("@"):
        path = Path(text[1:])
        if not path.exists():
            raise ConfigError(f"weights file not found: {path}")
        data = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(data, dict) and isinstance(data.get("weights"), dict):
            data = data["weights"]
        return float_map(data, f"weights file {path}")
    out: dict[str, float] = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(
                f"--weights expects 'equal', '@file', or name=value pairs; got {part!r}"
            )
        name, value = part.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"weight for {name.strip()!r} must be a number") from None
    return out


def _parse_alpha_arg(text: str) -> str | dict[str, float]:
    if text == "proportional":
        return "proportional"
    path = Path(text)
    if not path.exists():
        raise ConfigError(f"topic budget file not found: {path}")
    return float_map(
        json.loads(path.read_text(encoding="utf-8")), f"topic budget file {path}"
    )


def _load_json_map(path_text: str, what: str) -> dict[str, float]:
    path = Path(path_text)
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    return float_map(
        json.loads(path.read_text(encoding="utf-8")), f"{what} file {path}"
    )


def _standardize_method(value: str) -> str:
    if value in STANDARDIZE_CHOICES:
        return STANDARDIZE_CHOICES[value]
    if value in STANDARDIZE_CHOICES.values():
        return value
    raise ConfigError(
        f"--standardize must be one of {sorted(STANDARDIZE_CHOICES)}, got {value!r}"
    )


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
    p.add_argument("--tau", type=float, help="clipping radius after standardization (default 2.5)")


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
    p_select.add_argument("--beta", type=float, help="global liquidity (default 2.0)")
    p_select.add_argument("--beta-per-topic", help="JSON file of topic -> liquidity")
    p_select.add_argument("--alpha", help="'proportional' or JSON file of topic -> budget share")
    p_select.add_argument("--weights", help="'equal', name=w pairs, or @weights.json")
    p_select.add_argument("--budget-tokens", type=int, help="token budget for the selection")
    p_select.add_argument(
        "--retention-rate",
        type=float,
        help="select this fraction of examples instead of a token budget",
    )
    p_select.add_argument("--gamma", type=float, help="length-bias exponent (default 1.6)")
    p_select.add_argument("--mode", choices=["greedy", "balanced"], help="selection mode")
    p_select.add_argument("--label-floor", help="integer per-label minimum or 'auto' (balanced mode)")
    p_select.add_argument("--preset", choices=sorted(PRESETS), help="named configuration preset")
    p_select.add_argument("--coverage", action="store_true", help="add embedding-coverage metrics to the report")
    p_select.add_argument("--seed", type=int, help="seed echoed into the report (selection itself is deterministic)")
    p_select.add_argument("--threads", type=int, help="worker cap for row-chunk work items (results identical for any value)")

    p_signals = sub.add_parser("signals", help="compute raw and standardized signal columns")
    _add_signal_args(p_signals)
    p_signals.add_argument("--out", required=True, help="output JSONL path")
    p_signals.add_argument("--threads", type=int)

    p_price = sub.add_parser("price", help="price the pool without selecting")
    _add_signal_args(p_price)
    p_price.add_argument("--beta", type=float)
    p_price.add_argument("--beta-per-topic")
    p_price.add_argument("--alpha")
    p_price.add_argument("--weights")
    p_price.add_argument("--out", required=True, help="output JSONL path ({id, topic, q, p} per line)")
    p_price.add_argument("--threads", type=int)

    p_tune = sub.add_parser("tune", help="tune signal weights against dev feedback")
    _add_signal_args(p_tune)
    p_tune.add_argument("--dev-feedback", required=True, help="JSONL of {id, utility}")
    p_tune.add_argument("--eta", type=float, default=0.1, help="learning rate (default 0.1)")
    p_tune.add_argument("--rounds", type=int, default=50, help="update rounds (default 50)")
    p_tune.add_argument("--seed", type=int, default=0, help="recorded in the output for provenance")
    p_tune.add_argument("--out", required=True, help="output weights JSON (usable via --weights @file)")
    p_tune.add_argument("--threads", type=int)

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
    p_cor.add_argument("--beta-grid", default="2.0")
    p_cor.add_argument("--out", required=True, help="output CSV path")
    p_cor.add_argument("--threads", type=int)

    p_sweep = sub.add_parser(
        "sweep",
        help="liquidity / length-bias sensitivity sweep",
        description="CSV columns: beta, gamma, jaccard_vs_default, n_selected, "
        "tokens_used, median_tokens, topic_price_mass (JSON object). The "
        "reference set uses beta=2, gamma=1.6.",
    )
    _add_signal_args(p_sweep)
    p_sweep.add_argument("--weights", default="equal")
    p_sweep.add_argument("--budget-tokens", type=int, required=True)
    p_sweep.add_argument("--beta-grid", default="2.0")
    p_sweep.add_argument("--gamma-grid", default="1.6")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--threads", type=int)

    p_explain = sub.add_parser("explain", help="break down one example from a prior run")
    p_explain.add_argument("--run-dir", required=True, help="directory written by `select`")
    p_explain.add_argument("--pool", help="override the pool path stored in the run config")
    p_explain.add_argument("id", help="example id to explain")

    return parser


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    data: dict[str, Any] = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        data.update(loaded)
    if args.preset:
        data.update(PRESETS[args.preset])

    overrides: dict[str, Any] = {
        "pool": args.pool,
        "signals": args.signals,
        "standardize": _standardize_method(args.standardize) if args.standardize else None,
        "tau": args.tau,
        "beta": args.beta,
        "alpha": _parse_alpha_arg(args.alpha) if args.alpha else None,
        "weights": _parse_weights_arg(args.weights) if args.weights else None,
        "budget_tokens": args.budget_tokens,
        "retention_rate": args.retention_rate,
        "gamma": args.gamma,
        "mode": args.mode,
        "label_floor": args.label_floor,
        "seed": args.seed,
    }
    if args.beta_per_topic:
        overrides["beta"] = _load_json_map(args.beta_per_topic, "per-topic liquidity")
    data.update({k: v for k, v in overrides.items() if v is not None})

    if "standardize" in data:
        data["standardize"] = _standardize_method(str(data["standardize"]))
    if isinstance(data.get("label_floor"), str) and data["label_floor"] != "auto":
        try:
            data["label_floor"] = int(data["label_floor"])
        except ValueError:
            raise ConfigError(
                f"label_floor must be an integer or 'auto', got {data['label_floor']!r}"
            ) from None
    if isinstance(data.get("weights"), str) and data["weights"] not in ("equal", "diverse"):
        data["weights"] = _parse_weights_arg(data["weights"])
    if isinstance(data.get("alpha"), str) and data["alpha"] != "proportional":
        data["alpha"] = _parse_alpha_arg(data["alpha"])
    if data.get("pool") is None:
        raise ConfigError("--pool is required (flag or config file)")
    if data.get("signals") is None:
        raise ConfigError("--signals is required (flag or config file)")
    return RunConfig.from_dict(data)


def _threads_of(args: argparse.Namespace) -> int:
    value = getattr(args, "threads", None)
    if value is None:
        return _default_threads()
    if value < 1:
        raise ConfigError(f"--threads must be >= 1, got {value}")
    return value


def _write_csv(path: str, fieldnames: list[str], rows: list[dict[str, Any]]) -> None:
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
    write_atomic([(Path(path), buf.getvalue())])


def _prepare_tables(args: argparse.Namespace):
    if not args.pool:
        raise ConfigError("--pool is required")
    if not args.signals:
        raise ConfigError("--signals is required")
    pool = load_pool(args.pool)
    threads = _threads_of(args)
    table = build_signal_table(
        pool, [s.strip() for s in args.signals.split(",") if s.strip()], threads=threads
    )
    method = _standardize_method(args.standardize) if args.standardize else "robust"
    tau = args.tau if args.tau is not None else 2.5
    std = standardize_table(pool=pool, table=table, cfg=StandardizeConfig(method=method, tau=tau))
    return pool, table, std


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
    pool, table, std = _prepare_tables(args)
    out = Path(args.out)
    write_atomic([(out, "".join(
        dump_json_line(
            {
                "id": rid,
                "topic": pool.topic_names[pool.topic_codes[i]],
                "signals": {name: float(col[i]) for name, col in table.columns.items()},
                "standardized": {name: float(col[i]) for name, col in std.columns.items()},
            }
        )
        for i, rid in enumerate(pool.ids)
    ))])
    print(f"wrote {pool.n} rows to {out}")
    return 0


def _cmd_price(args: argparse.Namespace) -> int:
    pool, table, std = _prepare_tables(args)
    weights = resolve_weights(
        _parse_weights_arg(args.weights) if args.weights else "equal", list(table.columns)
    )
    beta: float | dict[str, float] = args.beta if args.beta is not None else 2.0
    if args.beta_per_topic:
        beta = _load_json_map(args.beta_per_topic, "per-topic liquidity")
    alpha = _parse_alpha_arg(args.alpha) if args.alpha else "proportional"
    state = price_pool(pool, std, weights, MarketConfig(beta=beta, topic_budgets=alpha))
    out = Path(args.out)
    write_atomic([(out, format_price_rows(pool, state))])
    print(f"wrote prices for {pool.n} examples to {out}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    pool, table, std = _prepare_tables(args)
    feedback = load_dev_feedback(args.dev_feedback)
    result = tune_weights(std, feedback, pool, TuneConfig(eta=args.eta, rounds=args.rounds))
    out = Path(args.out)
    payload = {
        "weights": result.weights.w,
        "eta": args.eta,
        "rounds": args.rounds,
        "seed": args.seed,
        "trajectory": result.trajectory,
    }
    write_atomic([(out, dump_json(payload))])
    print(f"tuned weights over {args.rounds} rounds: {json.dumps(round_weights(result.weights))}")
    print(f"wrote {out}")
    return 0


def round_weights(weights: Weights) -> dict[str, float]:
    return {name: fmt_float(value) for name, value in weights.w.items()}


def _cmd_simulate_recovery(args: argparse.Namespace) -> int:
    sigmas = _parse_float_grid(args.sigma_grid, "--sigma-grid")
    ks = _parse_int_grid(args.k_grid, "--k-grid")
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
    rows = [
        {
            "sigma": r.sigma,
            "k": r.k,
            "mean_ratio": r.mean_ratio,
            "empirical_epsilon": r.empirical_epsilon,
        }
        for r in results
    ]
    _write_csv(args.out, ["sigma", "k", "mean_ratio", "empirical_epsilon"], rows)
    print(f"wrote {len(rows)} grid points to {args.out}")
    return 0


def _cmd_simulate_corruption(args: argparse.Namespace) -> int:
    pool, table, std = _prepare_tables(args)
    weights = resolve_weights(_parse_weights_arg(args.weights), list(table.columns))
    tau = args.tau if args.tau is not None else 2.5
    cfg = CorruptionSweepConfig(
        epsilons=_parse_float_grid(args.eps_grid, "--eps-grid"),
        target_signal=args.target_signal,
        tau=tau,
        betas=_parse_float_grid(args.beta_grid, "--beta-grid"),
    )
    rows = sweep_corruption(pool, std, weights, cfg)
    _write_csv(
        args.out,
        ["epsilon", "beta", "price_l1_change", "share_linf_change", "share_linf_bound"],
        rows,
    )
    print(f"wrote {len(rows)} sweep points to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    pool, table, std = _prepare_tables(args)
    weights = resolve_weights(_parse_weights_arg(args.weights), list(table.columns))
    rows = sweep_hyperparams(
        pool,
        std,
        weights,
        budget_tokens=args.budget_tokens,
        beta_grid=_parse_float_grid(args.beta_grid, "--beta-grid"),
        gamma_grid=_parse_float_grid(args.gamma_grid, "--gamma-grid"),
    )
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
    info = explain(args.run_dir, args.id, pool_path=args.pool)
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
    if not info["price_dump_consistent"]:
        print("warning: stored price dump disagrees with recomputation; artifacts may be stale")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "select": _cmd_select,
        "signals": _cmd_signals,
        "price": _cmd_price,
        "tune": _cmd_tune,
        "sweep": _cmd_sweep,
        "explain": _cmd_explain,
    }
    try:
        if args.command == "simulate":
            if args.kind == "recovery":
                return _cmd_simulate_recovery(args)
            return _cmd_simulate_corruption(args)
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MarketSelectError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
