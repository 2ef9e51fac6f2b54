"""Every query whose per-key step runs on the neardup hash exchange,
with the exchange forced to many partitions.  The test tables are so
small that each exchange otherwise runs at P = 1 and never splits, so
neither the oracle parity test nor the sweep reaches the split path.
Queries with a DuckDB oracle must still match it; the others must match
their own one-partition output.  Shuffled fallbacks are forced by
shrinking their envelopes to 0."""

import pytest

from pyspider_ray import neardup
from pyspider_ray import training_queries as tq
from test_oracle_parity import assert_same, run_oracle, to_pandas

# module attributes that send a query down its exchange fallback
FORCE = {
    "decontaminate": {"_DECON_MAX_BENCH": 0},
    "curate_corpus": {"_DECON_MAX_BENCH": 0},
    "line_dedup": {"_LINE_DEDUP_MAX_DISTINCT": 0},
    "substring_dedup": {"_SUBSTR_MAX_DISTINCT": 0},
    "lm_bigram_score": {"_LM_MAX_TRAIN": 0},
}

WITH_ORACLE = [
    "topn_per_group", "anti_join", "semi_join", "asof_join",
    "session_windows", "dedup_exact", "dedup_counts", "curate_corpus",
    "near_dup_collapse", "dedup_keep_best", "sample_per_source",
    "source_token_stats", "source_len_quantiles", "decontaminate",
    "dup_window_coverage", "line_dedup", "lm_bigram_score",
    "substring_dedup", "dedup_incremental", "epoch_shuffle",
    "doc_top_terms", "tfidf_search", "embedding_knn"]

WITHOUT_ORACLE = ["image_phash_collapse", "seq_packing",
                  "image_caption_gate", "image_aspect_buckets",
                  "image_exact_dedup"]


@pytest.fixture(scope="module")
def entries():
    import __ray_entry__ as entry
    return entry.queries(), entry.oracle_sql()


def _force(name, monkeypatch):
    for attr, value in FORCE.get(name, {}).items():
        monkeypatch.setattr(tq, attr, value)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", WITH_ORACLE)
def test_many_partitions_match_oracle(name, entries, sf_dir, monkeypatch,
                                      exchange_partitions):
    queries, oracles = entries
    _force(name, monkeypatch)
    ours = to_pandas(queries[name](sf_dir))
    assert max(exchange_partitions) > 1, exchange_partitions
    assert_same(name, ours, run_oracle(oracles[name], sf_dir))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", WITHOUT_ORACLE)
def test_many_partitions_match_one(name, entries, sf_dir, monkeypatch,
                                   exchange_partitions):
    queries, _ = entries
    many = to_pandas(queries[name](sf_dir))
    assert max(exchange_partitions) > 1, exchange_partitions
    exchange_partitions.clear()
    monkeypatch.setattr(neardup, "_PARTITION_BYTES", 1 << 40)
    one = to_pandas(queries[name](sf_dir))
    assert set(exchange_partitions) == {1}
    assert len(one) > 0
    assert_same(name, many, one)
