from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from market_select.errors import ConfigError, MarketSelectError, ValidationError
from market_select.pool import Pool, decode_json_line, load_pool, topic_sizes, write_pool

from conftest import make_pool, make_record, write_pool_jsonl

GOLDEN_POOL = Path(__file__).resolve().parent / "golden" / "pool.jsonl"


def assert_same_columns(a: Pool, b: Pool) -> None:
    assert a.ids == b.ids
    assert a.topic_names == b.topic_names and a.label_names == b.label_names
    for name in ("topic_codes", "token_lengths", "label_codes"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
        assert getattr(a, name).dtype == getattr(b, name).dtype
    assert (a.embeddings is None) == (b.embeddings is None)
    if a.embeddings is not None:
        assert np.array_equal(a.embeddings, b.embeddings, equal_nan=True)
    assert a.signals.keys() == b.signals.keys()
    for name in a.signals:
        assert np.array_equal(a.signals[name], b.signals[name], equal_nan=True)


def test_load_pool_counts_topics(tmp_path):
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(
        path,
        [
            {"id": "r1", "topic": "a", "tokens": 5},
            {"id": "r2", "topic": "a", "tokens": 7},
            {"id": "r3", "topic": "b", "tokens": 2},
        ],
    )
    pool = load_pool(path)
    assert pool.n == 3
    assert topic_sizes(pool) == {"a": 2, "b": 1}


def test_load_pool_duplicate_id_names_offender(tmp_path):
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(
        path,
        [
            {"id": "x", "topic": "a", "tokens": 1},
            {"id": "x", "topic": "b", "tokens": 2},
        ],
    )
    with pytest.raises(ValidationError, match=r"'x'") as err:
        load_pool(path)
    assert "line 2" in str(err.value)


def test_load_pool_ragged_embeddings_rejected(tmp_path):
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(
        path,
        [
            {"id": "a", "topic": "t", "tokens": 1, "embedding": [0.0, 1.0, 2.0, 3.0]},
            {"id": "b", "topic": "t", "tokens": 1, "embedding": [0.0, 1.0, 2.0]},
        ],
    )
    with pytest.raises(ValidationError, match="dimension") as err:
        load_pool(path)
    assert "line 2" in str(err.value)


def test_load_pool_nonpositive_tokens_rejected(tmp_path):
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, [{"id": "a", "topic": "t", "tokens": 0}])
    with pytest.raises(ValidationError, match="line 1"):
        load_pool(path)


def test_load_pool_nonfinite_signal_rejected(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text('{"id": "a", "topic": "t", "tokens": 1, "signals": {"nll": NaN}}\n')
    with pytest.raises(ValidationError, match="nll"):
        load_pool(path)


def test_load_pool_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_pool(path)


def test_load_pool_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="nowhere.jsonl"):
        load_pool(tmp_path / "nowhere.jsonl")


def test_load_pool_warns_on_unknown_keys(tmp_path):
    path = tmp_path / "pool.jsonl"
    rows = [{"id": "b", "topic": "t", "tokens": 1, "mystery": 3, "aside": 0},
            {"id": "a", "topic": "t", "tokens": 1, "note": 1}]
    write_pool_jsonl(path, rows)
    pool = load_pool(path)
    assert pool.n == 2
    assert pool.warnings == ["line 1: ignoring unknown keys ['aside', 'mystery']",
                             "line 2: ignoring unknown keys ['note']"]
    assert Pool.from_rows(rows).warnings == [w.replace("line", "row") for w in pool.warnings]


def test_records_sorted_by_id_and_topic_partition(tmp_path):
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(
        path,
        [
            {"id": "z", "topic": "b", "tokens": 1},
            {"id": "a", "topic": "a", "tokens": 2},
            {"id": "m", "topic": "b", "tokens": 3},
        ],
    )
    pool = load_pool(path)
    assert pool.ids == ["a", "m", "z"]
    total = sum(idx.size for idx in pool.topics.values())
    assert total == pool.n
    for topic, idx in pool.topics.items():
        assert all(pool.topic_names[pool.topic_codes[i]] == topic for i in idx)


def test_partial_signals_and_embeddings_land_on_their_rows(tmp_path):
    # fields that first appear on a later line, and lines out of id order
    rows = [
        {"id": "d", "topic": "t", "tokens": 1},
        {"id": "b", "topic": "t", "tokens": 2, "signals": {"y": 2.0}},
        {"id": "c", "topic": "u", "tokens": 3, "embedding": [1.0, 2.0], "signals": {"x": 3.0}},
        {"id": "a", "topic": "u", "tokens": 4, "signals": {"x": 4.0, "y": 5}},
    ]
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, rows)
    by_id = {r["id"]: r for r in rows}
    for pool in (load_pool(path), Pool.from_rows(rows)):
        assert pool.ids == ["a", "b", "c", "d"]
        for i, rid in enumerate(pool.ids):
            row = by_id[rid]
            assert pool.token_lengths[i] == row["tokens"]
            present = {
                name: col[i] for name, col in pool.signals.items() if not np.isnan(col[i])
            }
            assert present == row.get("signals", {})
            if "embedding" in row:
                assert pool.embeddings[i].tolist() == row["embedding"]
            else:
                assert np.isnan(pool.embeddings[i]).all()


def test_round_trip(tmp_path):
    pool = make_pool(
        make_record("a", topic="x", tokens=3, label="pos", embedding=[0.1, -0.2], signals={"nll": 1.5}),
        make_record("b", topic="y", tokens=9, embedding=[0.31415926535, 2.718281828]),
    )
    out = tmp_path / "out.jsonl"
    write_pool(pool, out)
    assert_same_columns(load_pool(out), pool)


def test_write_pool_of_the_golden_pool_keeps_its_bytes(tmp_path):
    pool = load_pool(GOLDEN_POOL)
    out = tmp_path / "pool.jsonl"
    write_pool(pool, out)
    # the sha256 of the bytes that the row-by-row writer gave before write_pool was atomic
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "579fbb5297d9ca8768843960de414abdbf7397da2f92ffb0044645f96497d750"
    )


def test_write_pool_failing_on_a_row_leaves_the_old_file(tmp_path, monkeypatch):
    pool = make_pool(make_record("a"), make_record("b"), make_record("c"))
    out = tmp_path / "pool.jsonl"
    out.write_text("old\n", encoding="utf-8")
    real = json.dumps
    calls: list[object] = []

    def failing(obj, **kwargs):
        calls.append(obj)
        if len(calls) == 2:
            raise RuntimeError("row failed")
        return real(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", failing)
    with pytest.raises(RuntimeError, match="row failed"):
        write_pool(pool, out)
    assert out.read_text(encoding="utf-8") == "old\n"
    assert list(tmp_path.iterdir()) == [out]


def test_write_pool_refuses_a_directory_target(tmp_path):
    target = tmp_path / "pool.jsonl"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        write_pool(make_pool(make_record("a")), target)
    assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


def test_topic_sizes_sum_to_n():
    rng = np.random.default_rng(7)
    from conftest import random_pool

    pool = random_pool(rng, 40, n_topics=5)
    sizes = topic_sizes(pool)
    assert sum(sizes.values()) == 40


def test_topic_sizes_empty_pool():
    pool = Pool.from_rows([])
    assert topic_sizes(pool) == {}


def test_topic_sizes_single_topic():
    pool = make_pool(*[make_record(f"r{i}", topic="only") for i in range(5)])
    assert topic_sizes(pool) == {"only": 5}


def test_programmatic_duplicate_id_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        make_pool(make_record("a"), make_record("a"))


def test_embedding_matrix_requires_all_embeddings():
    pool = make_pool(make_record("a", embedding=[1.0]), make_record("b"))
    with pytest.raises(ValidationError, match="'b'"):
        pool.embedding_matrix()


def test_unknown_id_lookup():
    pool = make_pool(make_record("a"))
    with pytest.raises(ValidationError, match="'zz'"):
        pool.index_of("zz")


@pytest.mark.parametrize(
    "rows",
    [
        [{"id": "a", "topic": "t", "tokens": 2.5}],
        [{"id": "a", "topic": "t", "tokens": True}],
        [{"id": "a", "topic": "t", "tokens": 0}],
        [{"id": "a", "topic": "t", "tokens": 2**63}],
        [{"id": "a", "topic": 7, "tokens": 1}],
        [{"id": "a", "topic": "t", "tokens": 1, "label": 3}],
        [{"id": "a", "topic": "t", "tokens": 1, "signals": {"nll": "2.0"}}],
        [{"id": "a", "topic": "t", "tokens": 1, "signals": {"nll": 10**400}}],
        [{"id": "a", "topic": "t", "tokens": 1, "embedding": [0.5, float("nan")]}],
        [{"id": "a", "topic": "t", "tokens": 1, "embedding": [10**400]}],
        [{"id": "b", "topic": "t", "tokens": 1}, {"id": "a", "topic": "t", "tokens": 1},
         {"id": "b", "topic": "u", "tokens": 2}],
        # a lone surrogate, written to the file as a JSON escape
        [{"id": "a", "topic": "t", "tokens": 1}, {"id": "b\ud800", "topic": "t", "tokens": 1}],
        [{"id": "a\nb", "topic": "t", "tokens": 1}],
        [{"id": "a\r", "topic": "t", "tokens": 1}],
        [{"id": "a", "topic": "t", "tokens": 1}, {"id": "b", "topic": "\udc00", "tokens": 1}],
        [{"id": "a", "topic": "t", "tokens": 1, "label": "p"},
         {"id": "b", "topic": "t", "tokens": 1, "label": "p\udfff"}],
    ],
    ids=["tokens-float", "tokens-bool", "tokens-zero", "tokens-int64-overflow",
         "topic-int", "label-int", "signal-string", "signal-huge-int", "embedding-nan",
         "embedding-huge-int", "duplicate-id", "id-surrogate", "id-newline", "id-return",
         "topic-surrogate", "label-surrogate"],
)
def test_from_rows_rejects_what_load_pool_rejects(tmp_path, rows):
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, rows)
    with pytest.raises(MarketSelectError) as from_file:
        load_pool(path)
    with pytest.raises(MarketSelectError) as from_rows:
        Pool.from_rows(rows)
    assert type(from_rows.value) is type(from_file.value)
    assert str(from_rows.value).startswith("row ")
    assert str(from_rows.value) == str(from_file.value).replace("line ", "row ")


@pytest.mark.parametrize(
    "values", [["1.5", True], [True, 1.0], [1.0, None], [[1.0, 2.0]]],
    ids=["numeric-string", "bool", "null", "nested"],
)
def test_embedding_values_must_be_numbers(tmp_path, values):
    rows = [{"id": "a", "topic": "t", "tokens": 3, "embedding": values}]
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, rows)
    with pytest.raises(ConfigError, match=r"^line 1: 'embedding' must contain only numbers$"):
        load_pool(path)
    with pytest.raises(ConfigError, match=r"^row 1: 'embedding' must contain only numbers$"):
        Pool.from_rows(rows)


# hypothesis favours the first choice of a one_of or sampled_from, so the
# choices that make a row invalid come first
ODD_VALUES = st.one_of(
    st.just(10**400),
    st.floats(),
    st.text(max_size=2),
    st.lists(st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers()),
    st.integers(-2, 3),
    st.booleans(),
    st.none(),
)
BAD_VALUES = {
    "signals": st.dictionaries(st.sampled_from(["s1", "s2"]), ODD_VALUES, min_size=1, max_size=2),
    "embedding": st.lists(st.one_of(ODD_VALUES, st.floats()), min_size=1, max_size=4),
    "tokens": st.one_of(st.integers(-2, 0), st.just(2**63)),
}


@st.composite
def pool_rows(draw):
    """Row lists in shuffled id order, valid or with one field of one row
    made wrong: a value of the wrong type or range, a missing or unknown
    key, a duplicate id, an embedding of another dimension or a row that
    is not an object."""
    ids = draw(st.permutations(["a", "b", "c", "d", "e", "f"]))[: draw(st.integers(0, 6))]
    dim = draw(st.integers(1, 3))
    rows = []
    for rid in ids:
        row = {
            "id": rid,
            "topic": draw(st.sampled_from(["x", "y"])),
            "tokens": draw(st.integers(1, 10**6)),
        }
        if draw(st.booleans()):
            row["label"] = draw(st.sampled_from(["p", "q"]))
        if draw(st.booleans()):
            row["embedding"] = draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim))
        if draw(st.booleans()):
            row["signals"] = draw(st.dictionaries(
                st.sampled_from(["s1", "s2"]),
                st.one_of(st.floats(-1e3, 1e3), st.integers(-5, 5)),
            ))
        rows.append(row)
    fault = draw(st.sampled_from(
        ["value", "missing", "unknown", "duplicate", "ragged", "not-object", None]))
    if rows and fault:
        i = draw(st.integers(0, len(rows) - 1))
        key = draw(st.sampled_from(["signals", "embedding", "tokens", "topic", "id", "label"]))
        if fault == "value":
            rows[i][key] = draw(st.one_of(BAD_VALUES.get(key, st.nothing()), ODD_VALUES))
        elif fault == "missing":
            rows[i].pop(key, None)
        elif fault == "unknown":
            rows[i]["note"] = draw(ODD_VALUES)
        elif fault == "duplicate":
            rows[i]["id"] = rows[draw(st.integers(0, len(rows) - 1))]["id"]
        elif fault == "ragged":
            rows[i]["embedding"] = [0.5] * (dim + 1)
        else:
            rows[i] = draw(ODD_VALUES)
    return rows


def _outcome(build):
    """(pool, None, its warning texts) or (None, error, [])."""
    try:
        pool = build()
    except MarketSelectError as exc:
        return None, exc, []
    return pool, None, pool.warnings


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=pool_rows())
def test_load_pool_and_from_rows_agree(tmp_path, rows):
    path = tmp_path / "pool.jsonl"
    write_pool_jsonl(path, rows)
    file_pool, file_error, file_warnings = _outcome(lambda: load_pool(path))
    rows_pool, rows_error, rows_warnings = _outcome(lambda: Pool.from_rows(rows))
    assert rows_warnings == [w.replace("line ", "row ") for w in file_warnings]
    if file_error is None:
        assert rows_error is None
        assert_same_columns(rows_pool, file_pool)
    else:
        assert type(rows_error) is type(file_error)
        assert str(rows_error) == str(file_error).replace("line ", "row ")


DECODER_LINES = [
    '{"id": "a", "tokens": 2}\n',
    '{"id": "a"}',  # no line end
    ' {"id": "a"}\n',  # leading whitespace
    '\t{"id": "a"}\n',
    '\ufeff{"id": "a"}\n',  # a BOM
    '{"id": "a"} x\n',  # trailing data
    '{"id": "a"}{"id": "b"}\n',  # two values
    "1 2\n",
    "NaN\n",
    "-Infinity\n",
    "1\n",
    "1e400\n",
    '"s" \t\r\n',
    '{"id": "a"}\x0c\n',  # a form feed is not JSON whitespace
    '{"id": "a"}\u00a0\n',  # nor is a no-break space
    '{"id": ',
    "[1,\n",
    "nul\n",
    "\n",
    "",
    "-\n",
]


def _decoded(decode, line):
    """The value as JSON text (NaN included), or the error's type, text and position."""
    try:
        return "value", json.dumps(decode(line))
    except json.JSONDecodeError as exc:
        return "error", exc.msg, exc.pos, str(exc)


@pytest.mark.parametrize("line", DECODER_LINES)
def test_decode_json_line_is_json_loads(line):
    assert _decoded(decode_json_line, line) == _decoded(json.loads, line)


def test_a_pool_line_decodes_as_json_loads_decodes_it(tmp_path):
    rows = [make_record("a", tokens=2), make_record("b", tokens=3)]
    path = tmp_path / "pool.jsonl"
    path.write_text(" " + json.dumps(rows[0]) + "\r\n" + json.dumps(rows[1]) + " \t\n",
                    encoding="utf-8")
    assert_same_columns(load_pool(path), make_pool(*rows))
    for text, reason in [
        ("\ufeff" + json.dumps(rows[0]), "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (json.dumps(rows[0]) + json.dumps(rows[1]), "Extra data"),
        (json.dumps(rows[0]) + "\x0c", "Extra data"),
    ]:
        path.write_text(json.dumps(rows[1]) + "\n" + text + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_pool(path)
        assert str(err.value) == f"line 2: invalid JSON ({reason})"


def _rows(ids):
    return [make_record(rid, topic=f"t{i % 3}", tokens=i + 1, label=f"l{i % 2}",
                        embedding=[i, -i], signals={"nll": i / 7}) for i, rid in enumerate(ids)]


@pytest.mark.parametrize("ids", [
    [f"e{i:02d}" for i in range(30)],  # ascending
    [f"e{i:02d}" for i in reversed(range(30))],
    [f"e{i:02d}" for i in (3, 1, 2, 0, 4)],
    ["a", "b", "d", "c"],  # ascending but for the last pair
    ["b", "é", "a", "Z"],  # code-point order, not locale order
])
def test_rows_in_any_id_order_give_the_id_sorted_pool(ids):
    rows = _rows(ids)
    pool = Pool.from_rows(rows)
    by_id = sorted(rows, key=lambda row: row["id"])
    assert pool.ids == [row["id"] for row in by_id]
    assert pool.token_lengths.tolist() == [row["tokens"] for row in by_id]
    assert [pool.topic_names[c] for c in pool.topic_codes] == [row["topic"] for row in by_id]
    assert [pool.label_names[c] for c in pool.label_codes] == [row["label"] for row in by_id]
    assert pool.embeddings.tolist() == [row["embedding"] for row in by_id]
    assert pool.signals["nll"].tolist() == [row["signals"]["nll"] for row in by_id]


@pytest.mark.parametrize("ids, error", [
    (["a", "b", "b", "c"], "row 3: duplicate id 'b' (first seen on row 2)"),  # ascending, not strictly
    (["c", "a", "b", "a", "c"], "row 4: duplicate id 'a' (first seen on row 2)"),
    (["a", "a"], "row 2: duplicate id 'a' (first seen on row 1)"),
])
def test_the_first_duplicate_id_in_row_order_is_the_error(ids, error):
    with pytest.raises(ValidationError) as err:
        Pool.from_rows(_rows(ids))
    assert str(err.value) == error
