from __future__ import annotations

import numpy as np
import pytest

from market_select.errors import ConfigError, ValidationError
from market_select.pool import Pool, load_pool, topic_sizes, write_pool

from conftest import make_pool, make_record, write_pool_jsonl


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
    write_pool_jsonl(path, [{"id": "a", "topic": "t", "tokens": 1, "mystery": 3}])
    with pytest.warns(UserWarning, match="mystery"):
        pool = load_pool(path)
    assert pool.n == 1


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
        assert all(pool.records[i].topic == topic for i in idx)


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
    records = [
        make_record(r["id"], topic=r["topic"], tokens=r["tokens"],
                    embedding=r.get("embedding"), signals=r.get("signals", {}))
        for r in rows
    ]
    for pool in (load_pool(path), Pool(records)):
        assert pool.ids == ["a", "b", "c", "d"]
        by_id = {r["id"]: r for r in rows}
        for rec in pool.records:
            row = by_id[rec.id]
            assert rec.token_length == row["tokens"]
            assert rec.raw_signals == row.get("signals", {})
            if "embedding" in row:
                assert rec.embedding.tolist() == row["embedding"]
            else:
                assert rec.embedding is None


def test_round_trip(tmp_path):
    pool = make_pool(
        make_record("a", topic="x", tokens=3, label="pos", embedding=[0.1, -0.2], signals={"nll": 1.5}),
        make_record("b", topic="y", tokens=9, embedding=[0.31415926535, 2.718281828]),
    )
    out = tmp_path / "out.jsonl"
    write_pool(pool, out)
    loaded = load_pool(out)
    assert loaded.ids == pool.ids
    for orig, back in zip(pool.records, loaded.records):
        assert back.topic == orig.topic
        assert back.token_length == orig.token_length
        assert back.label == orig.label
        if orig.embedding is None:
            assert back.embedding is None
        else:
            assert np.allclose(back.embedding, orig.embedding, atol=1e-12, rtol=0)
        assert back.raw_signals.keys() == orig.raw_signals.keys()
        for key in orig.raw_signals:
            assert abs(back.raw_signals[key] - orig.raw_signals[key]) <= 1e-12


def test_topic_sizes_sum_to_n():
    rng = np.random.default_rng(7)
    from conftest import random_pool

    pool = random_pool(rng, 40, n_topics=5)
    sizes = topic_sizes(pool)
    assert sum(sizes.values()) == 40


def test_topic_sizes_empty_pool():
    pool = Pool([])
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
        pool.record("zz")
