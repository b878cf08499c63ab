"""Generated inputs through ``cli.main``: the exit-code contract and the
relations that must hold byte for byte.

Every run exits 0, 1 or 2; a non-zero exit prints an ``error:`` line; no
exception escapes ``main``; no artifact or printed line holds a NaN or an
infinity; and no ``*.tmp`` file is left behind. On pools without unknown
keys, ``select`` writes the same three artifacts for ``--threads`` 1, 2
and 3 (with every range parsed by its own worker) and after a
``write_pool`` round trip of the loaded pool.

The examples are derandomized and bounded, so the test is reproducible
and its run time fixed.
"""

from __future__ import annotations

import io
import json
import math
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from market_select import pool as pool_module
from market_select.cli import main
from market_select.errors import ConfigError
from market_select.pipeline import CONFIG_KEYS
from market_select.pool import load_pool, write_pool
from market_select.signals import split_signal_specs

ARTIFACTS = ("report.json", "prices.jsonl", "selected.txt")
# a non-finite number as JSON, CSV or Python prints it; the generated ids,
# topics and signal names never spell these words
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

FUZZ = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

FINITE = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
NON_FINITE_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf])
IDS = st.text(alphabet='abcé "\\\u2028', min_size=1, max_size=3)
TOPICS = st.sampled_from(["x", "y", "zé", 'q"\\'])
LABELS = st.sampled_from(["l0", "l1"])
# a lone surrogate, which UTF-8 cannot encode, and ids with a line break
TEXT_FLAWS = st.sampled_from(
    [("id", "a\ud800"), ("id", "a\nb"), ("id", "\r"), ("topic", "x\udfff")])


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``main``'s exit code, stdout and stderr; ``main`` may not raise."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code: int, out: str, err: str, outputs: list[Path], root: Path) -> None:
    assert code in (0, 1, 2), (code, err)
    if code:
        assert any(line.startswith("error: ") for line in err.splitlines()), err
    else:
        assert not NON_FINITE.search(out), out
        for path in outputs:
            for file in [path] if path.is_file() else path.rglob("*"):
                if file.is_file():
                    text = file.read_text(encoding="utf-8")
                    assert not NON_FINITE.search(text), (file, text)
    assert list(root.rglob("*.tmp")) == []


# ---- pools -------------------------------------------------------------------

def rarely(good: st.SearchStrategy, bad: st.SearchStrategy) -> st.SearchStrategy:
    """``good`` about seven times in eight, else ``bad``."""
    return st.sampled_from([good] * 7 + [bad]).flatmap(lambda strategy: strategy)


SELDOM = rarely(st.just(False), st.just(True))


@st.composite
def clean_rows(draw, max_rows: int = 10) -> list[dict]:
    """Rows that load: unique ids, one embedding width, finite numbers,
    no unknown key."""
    dim = draw(st.sampled_from([None, 1, 2, 3]))
    labelled = draw(st.booleans())
    ids = draw(st.lists(IDS, min_size=1, max_size=max_rows, unique=True))
    rows = []
    for rid in ids:
        row: dict = {"id": rid, "topic": draw(TOPICS), "tokens": draw(st.integers(1, 40))}
        if labelled:
            row["label"] = draw(LABELS)
        if dim is not None:
            row["embedding"] = draw(st.lists(FINITE, min_size=dim, max_size=dim))
        row["signals"] = {"nll": draw(FINITE), "s1": draw(FINITE)}
        rows.append(row)
    return rows


@st.composite
def pool_line(draw, row: dict) -> str:
    """One pool line: the row, maybe broken in one place."""
    row = dict(row)
    flaw = draw(rarely(st.none(), st.sampled_from(
        ["json", "not-object", "tokens", "id", "text", "embedding", "signal", "unknown", "blank"]
    )))
    if flaw == "json":
        return draw(st.sampled_from(['{"id": ', "{'id': 1}", "nul", '{"id": "a"} x']))
    if flaw == "not-object":
        return json.dumps(draw(st.sampled_from([[1], "row", 3, None])))
    if flaw == "blank":
        return "  \n" + json.dumps(row)
    if flaw == "text":  # JSON escapes: a lone surrogate has no UTF-8 text to write
        key, value = draw(TEXT_FLAWS)
        return json.dumps({**row, key: value})
    if flaw == "tokens":
        row["tokens"] = draw(st.sampled_from([0, -2, 2.5, "7", None, True, 10**30]))
    elif flaw == "id":
        row["id"] = draw(st.sampled_from([7, None, ["a"], ""]))
    elif flaw == "embedding":
        row["embedding"] = draw(st.one_of(
            st.lists(FINITE, min_size=0, max_size=4),
            st.lists(st.one_of(FINITE, NON_FINITE_FLOAT), min_size=1, max_size=3),
            st.sampled_from(["v", [True], [[1.0]], ["1"]]),
        ))
    elif flaw == "signal":
        row["signals"] = draw(st.sampled_from(
            [{"nll": math.nan}, {"nll": math.inf}, {"nll": "1"}, {"nll": None}, [1], {},
             {"s1": 1.0}]
        ))
    elif flaw == "unknown":
        row["note"] = "x"
    return json.dumps(row, ensure_ascii=draw(st.booleans()))


@st.composite
def pool_file(draw) -> tuple[str, bool]:
    """A pool file's text, and whether its rows carry embeddings."""
    rows = draw(clean_rows())
    if draw(SELDOM):  # a duplicate id
        rows.append(dict(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        lines = [json.dumps(row) for row in rows]
    else:
        lines = [draw(pool_line(row)) for row in rows]
    return "".join(line + "\n" for line in lines), "embedding" in rows[0]


# ---- settings ----------------------------------------------------------------

# finite liquidities at either end of the float range, which the market
# refuses when its prices or cost leave the range
EXTREME_BETAS = ["5e-324", "1e-320", "1e308"]


def float_flag(flag: str, good: st.SearchStrategy) -> st.SearchStrategy:
    """``--flag=value``, so that argparse takes "-inf" as a value."""
    bad = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e400"])
    return rarely(good.map(repr), bad).map(lambda value: f"{flag}={value}")


INGESTED = ["nll", "nll,s1", "s1"]
GEOMETRIC = ["rarity:k=2", "nll,rarity:k=1,div_cent", "div", "div:alpha_cent=0.25",
             "s1,div_cent", "div,nll", "nll,div:k=2,alpha_cent=0.5",
             "div:alpha_knn=0.75, k=1,s1"]
BAD_SIGNALS = st.sampled_from(["rarity:k=0", "bogus", "nll,nll", ",", "rarity:k=x",
                               "div:alpha_knn=nan", "foo", "div_cent", "k=2,nll",
                               "div:k=2,alpha_cent=x"])
BAD_WEIGHTS = st.sampled_from(["diverse", "nll=nan", "nll=-1", "nll=0", "foo=1", "nll=x", "nll",
                               "", "nll=1,s1=inf", "div=1,nll=0.5"])
MAP_FILE = rarely(
    st.dictionaries(st.sampled_from(["nll", "s1", "x", "y", "zé"]), st.floats(0.1, 3),
                    min_size=1, max_size=3),
    st.one_of(
        st.dictionaries(st.sampled_from(["nll", "s1", "x", "foo"]),
                        st.one_of(FINITE, NON_FINITE_FLOAT, st.just("1")), max_size=3),
        st.sampled_from([[1], "map", 3, {"weights": {"nll": -1}}]),
    ),
)
JSON_VALUES = st.one_of(
    st.integers(-3, 300), FINITE, NON_FINITE_FLOAT, st.booleans(), st.none(),
    st.sampled_from(["zscore", "robust", "balanced", "greedy", "auto", "nll", "x", "equal"]),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(TOPICS, FINITE, max_size=2),
)
CONFIG = rarely(
    st.fixed_dictionaries({}, optional={
        "budget_tokens": st.integers(1, 200), "gamma": st.floats(0, 2), "seed": st.integers(0, 9),
        "mode": st.sampled_from(["greedy", "balanced"]), "tau": st.floats(0.5, 4),
        "standardize": st.sampled_from(["zscore", "robust", "rank+robust"]),
    }),
    st.dictionaries(st.sampled_from(sorted(CONFIG_KEYS - {"pool"}) + ["bogus"]), JSON_VALUES,
                    min_size=1, max_size=3)
    | st.sampled_from(["{", "[1]", "NaN", '{"gamma": Infinity}']),  # written as they are
)
DEV_ROW = rarely(
    st.fixed_dictionaries({"id": IDS, "utility": FINITE}),
    st.one_of(
        st.fixed_dictionaries({"id": IDS, "utility": NON_FINITE_FLOAT}),
        st.sampled_from(['{"id": "a"}', '{"id": "a", "utility": "1"}', "[", "3", ""]),
    ),
)
BAD_GRID = st.sampled_from(["abc", "", "nan", "inf", "-1", "1e400", "2,0"])
GRID = rarely(st.sampled_from(["1,2", "0.5", "0.5,1,3", "2"]), BAD_GRID)
EPS_GRID = rarely(st.sampled_from(["0,0.5,1", "0.25", "1"]), BAD_GRID)
BETA_GRID = rarely(GRID, st.sampled_from(EXTREME_BETAS + ["2,1e-320"]))


def spec_names(signals: str) -> list[str]:
    """The names a --signals value requests, or ["nll"] when it requests none."""
    try:
        return [spec.split(":")[0] for spec in split_signal_specs(signals)] or ["nll"]
    except ConfigError:
        return ["nll"]


@st.composite
def command(draw, root: Path, embedded: bool) -> tuple[list[str], list[Path]]:
    """A CLI command over ``root/pool.jsonl``, and the outputs it may write."""

    def write(name: str, value: object) -> str:
        path = root / name
        text = value if isinstance(value, str) else json.dumps(value)
        path.write_text(text, encoding="utf-8")
        return str(path)

    kind = draw(st.sampled_from(["select", "select", "select", "signals", "price", "tune",
                                 "sweep", "corruption"]))
    pool = draw(rarely(st.just("pool.jsonl"), st.just("ghost.jsonl")))
    signals = draw(rarely(st.sampled_from(INGESTED + GEOMETRIC * embedded), BAD_SIGNALS))
    argv = ["--pool", str(root / pool), "--signals", signals,
            "--threads", str(draw(st.integers(1, 3)))]
    if kind in ("select", "price", "sweep", "corruption"):
        names = spec_names(signals)
        weight_map = st.dictionaries(st.sampled_from(names), st.floats(0.1, 3), min_size=1)
        weights = draw(rarely(
            st.sampled_from([None, "equal", "@W"])
            | weight_map.map(lambda w: ",".join(f"{k}={v!r}" for k, v in w.items())),
            BAD_WEIGHTS,
        ))
        if weights == "@W":
            payload = rarely(weight_map | st.fixed_dictionaries({"weights": weight_map}), MAP_FILE)
            weights = "@" + write("weights.json", draw(payload))
        if weights is not None:
            argv += ["--weights", weights]
    if draw(st.booleans()):
        argv += ["--standardize", draw(rarely(
            st.sampled_from(["zscore", "robust", "rank+robust"]), st.sampled_from(["bogus", ""])
        ))]
    if draw(st.booleans()):
        argv += [draw(float_flag("--tau", st.floats(0.5, 5)))]
    if kind in ("select", "price"):
        if draw(st.booleans()):
            beta = rarely(st.floats(0.1, 5), st.sampled_from(EXTREME_BETAS).map(float))
            argv += [draw(float_flag("--beta", beta))]
        if draw(st.booleans()):
            alpha = draw(st.sampled_from(["proportional", "@A", ""]))
            argv += ["--alpha", write("alpha.json", draw(MAP_FILE)) if alpha == "@A" else alpha]
        if draw(st.booleans()):
            argv += ["--beta-per-topic", write("beta.json", draw(MAP_FILE))]

    out_dir = root / "out"
    if draw(SELDOM):  # an output that is a directory
        (out_dir / "prices.jsonl").mkdir(parents=True)
        (out_dir / "out.csv").mkdir()
    if kind == "select":
        argv = ["select", *argv]
        budget = draw(st.sampled_from(["tokens", "rate", "both", "config"]))
        if budget in ("tokens", "both"):
            argv += ["--budget-tokens", str(draw(rarely(st.integers(1, 200), st.just(0))))]
        if budget in ("rate", "both"):
            argv += [draw(float_flag("--retention-rate", st.floats(0, 1)))]
        if budget == "config" or draw(SELDOM):
            argv += ["--config", write("config.json", draw(CONFIG))]
        if draw(st.booleans()):
            argv += ["--mode", draw(st.sampled_from(["greedy", "balanced"]))]
        if draw(st.booleans()):
            argv += ["--label-floor", draw(rarely(st.sampled_from(["auto", "0", "1"]),
                                                  st.sampled_from(["-1", "x"])))]
        if draw(st.booleans()):
            argv += [draw(float_flag("--gamma", st.floats(0, 2)))]
        if draw(SELDOM):
            argv += ["--preset", "diverse"]
        if draw(st.booleans()):
            argv += ["--coverage"]
        return argv + ["--out-dir", str(out_dir)], [out_dir]
    out = out_dir / ("out.csv" if kind in ("sweep", "corruption") else "out.jsonl")
    argv += ["--out", str(out)]
    if kind in ("signals", "price"):
        return [kind, *argv], [out]
    if kind == "tune":
        dev = "".join(
            (row if isinstance(row, str) else json.dumps(row)) + "\n"
            for row in draw(st.lists(DEV_ROW, max_size=6))
        )
        return ["tune", *argv, "--dev-feedback", write("dev.jsonl", dev),
                draw(float_flag("--eta", st.floats(0.01, 1))),
                "--rounds", str(draw(rarely(st.integers(0, 3), st.just(-1))))], [out]
    if kind == "sweep":
        return ["sweep", *argv, "--budget-tokens", str(draw(rarely(st.integers(1, 200),
                                                                   st.just(0)))),
                "--beta-grid", draw(BETA_GRID), "--gamma-grid", draw(GRID)], [out]
    target = draw(rarely(st.sampled_from(spec_names(signals)), st.just("foo")))
    return ["simulate", "corruption", *argv, "--target-signal", target,
            "--eps-grid", draw(EPS_GRID), "--beta-grid", draw(BETA_GRID)], [out]


@settings(FUZZ, max_examples=400)
@given(data=st.data())
def test_every_generated_command_meets_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp)
        mp.setenv("MARKET_SELECT_THREADS", "1")
        text, embedded = data.draw(pool_file(), label="pool")
        (root / "pool.jsonl").write_text(text, encoding="utf-8")
        argv, outputs = data.draw(command(root, embedded), label="argv")
        code, out, err = run_cli(argv)
        assert_contract(code, out, err, outputs, root)
        if argv[0] == "select" and code == 0:
            selected = json.loads((root / "out" / "report.json").read_text("utf-8"))["selected"]
            rid = data.draw(st.sampled_from(selected + ["zz"]), label="explain id")
            code, out, err = run_cli(["explain", "--run-dir", str(root / "out"), rid])
            assert_contract(code, out, err, [], root)


@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_odd_texts_and_liquidities_at_the_ends_of_the_float_range_meet_the_contract(data):
    """Commands valid but for one pool line's text or the liquidity."""
    rows = data.draw(clean_rows(), label="rows")
    lines = [json.dumps(row) for row in rows]
    flawed = data.draw(st.booleans(), label="text flaw")
    if flawed:
        i = data.draw(st.integers(0, len(rows) - 1), label="flawed row")
        key, value = data.draw(TEXT_FLAWS, label="flaw")
        lines[i] = json.dumps({**rows[i], key: value})
    beta = data.draw(st.sampled_from(EXTREME_BETAS + ["2"]), label="beta")
    kind = data.draw(st.sampled_from(["select", "price", "signals", "sweep", "corruption"]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "pool.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        out = root / "out"
        argv = ["--pool", str(root / "pool.jsonl"), "--signals", "nll,s1", "--threads", "1"]
        if kind == "select":
            argv = ["select", *argv, "--beta", beta, "--budget-tokens", "40", "--out-dir", str(out)]
        elif kind == "price":
            argv = ["price", *argv, "--beta", beta, "--out", str(out)]
        elif kind == "signals":
            argv = ["signals", *argv, "--out", str(out)]
        elif kind == "sweep":
            argv = ["sweep", *argv, "--budget-tokens", "40", "--beta-grid", beta,
                    "--out", str(out)]
        else:
            argv = ["simulate", "corruption", *argv, "--target-signal", "nll",
                    "--beta-grid", beta, "--out", str(out)]
        code, stdout, err = run_cli(argv)
        assert_contract(code, stdout, err, [out], root)
        assert (code == 2) if flawed else (code in (0, 1)), err
        if code:
            assert not out.exists()


# ---- metamorphic relations ---------------------------------------------------

@st.composite
def select_flags(draw, rows: list[dict]) -> list[str]:
    """Flags of a select run that the pool of ``rows`` can satisfy."""
    names = ["nll", "s1"]
    if "embedding" in rows[0]:
        names += draw(st.sampled_from([[], ["rarity:k=2"], ["div_cent"], ["div:k=1"],
                                       ["div:k=1,alpha_cent=0.25"]]))
    signals = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    flags = ["--signals", ",".join(signals),
             "--budget-tokens", str(draw(st.integers(1, 200))),
             "--gamma", repr(draw(st.floats(0, 2))),
             "--standardize", draw(st.sampled_from(["zscore", "robust", "rank+robust"]))]
    if "label" in rows[0] and draw(st.booleans()):
        flags += ["--mode", "balanced"]
    if "embedding" in rows[0] and draw(st.booleans()):
        flags += ["--coverage"]
    return flags


def select_in(directory: Path, flags: list[str], threads: int) -> tuple[int, str, list[bytes]]:
    """select over ``directory/pool.jsonl`` by a relative path, so the
    echoed pool path is the same in every directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        code, _, err = run_cli(["select", "--pool", "pool.jsonl", *flags,
                                "--threads", str(threads), "--out-dir", "run"])
    if code:
        return code, err, []
    return code, err, [(directory / "run" / name).read_bytes() for name in ARTIFACTS]


@pytest.mark.usefixtures("cold_cache")
@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_select_artifacts_hold_across_threads_and_a_write_pool_round_trip(data):
    rows = data.draw(clean_rows(max_rows=12), label="rows")
    flags = data.draw(select_flags(rows), label="flags")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp)
        # a range floor of one byte: up to three ranges, each past the
        # first parsed by a forked worker
        mp.setattr(pool_module, "RANGE_FLOOR", 1)
        mp.setattr(pool_module, "_usable_cpus", lambda: 3)
        for name in ("file", "round-trip"):
            (root / name).mkdir()
        (root / "file" / "pool.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
        write_pool(load_pool(root / "file" / "pool.jsonl"), root / "round-trip" / "pool.jsonl")
        runs = [select_in(root / "file", flags, threads) for threads in (1, 2, 3)]
        runs.append(select_in(root / "round-trip", flags, 1))
        assert runs[0][0] in (0, 1), runs[0]
        assert all(run == runs[0] for run in runs[1:])


@st.composite
def div_spec(draw) -> str:
    """A div spec with two or three arguments, in any order."""
    args = draw(st.lists(st.sampled_from(["alpha_cent=0.25", "alpha_knn=0.75", "k=2"]),
                         min_size=2, max_size=3, unique=True))
    return "div:" + ",".join(args)


@settings(FUZZ, max_examples=30)
@given(data=st.data())
def test_a_multi_argument_div_spec_runs_from_the_flag_and_from_a_config_string(data):
    rows = data.draw(clean_rows().filter(lambda rows: "embedding" in rows[0]), label="rows")
    specs = data.draw(st.permutations(["nll", data.draw(div_spec(), label="div")]))
    signals = ", ".join(specs) if data.draw(st.booleans()) else ",".join(specs)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "pool.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows),
                                         encoding="utf-8")
        argv = ["select", "--budget-tokens", "50", "--threads", "1", "--out-dir", str(root / "out")]
        if data.draw(st.sampled_from(["flag", "config"])) == "flag":
            argv += ["--pool", str(root / "pool.jsonl"), "--signals", signals]
        else:
            config = {"pool": str(root / "pool.jsonl"), "signals": signals}
            (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(root / "config.json")]
        code, out, err = run_cli(argv)
        assert code == 0, err
        report = json.loads((root / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["signals"] == specs
