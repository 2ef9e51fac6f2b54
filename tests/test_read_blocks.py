"""``_io.read_table`` sizes a read by the selected columns' bytes with
the exchange's rule (one block per ``neardup._PARTITION_BYTES``,
clamped to [1, ``_MAX_PARTITIONS``]): a small table is one block, so
the read and the map after it run as one fused task."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pyspider_ray import _io

pytestmark = pytest.mark.usefixtures("ray_session")


def test_small_table_is_one_fused_read_map(sf_dir):
    ds = (_io.read_table(sf_dir, "events", ["event_id", "ts"])
          .map_batches(lambda b: b, batch_format="pyarrow").materialize())
    assert ds.num_blocks() == 1
    assert "ReadParquetFooter->MapBatches(<lambda>)" in ds.stats()


def test_blocks_follow_selected_column_bytes(tmp_path):
    # 2.5 M int64 values: ~20 MB of plain pages in the selected column,
    # and as much again in a column the read does not select
    rng = np.random.default_rng(0)
    n = 2_500_000
    pq.write_table(pa.table({"a": rng.integers(0, 2**62, n),
                             "b": rng.integers(0, 2**62, n)}),
                   tmp_path / "t.parquet", use_dictionary=False,
                   compression="none")
    meta = pq.read_metadata(tmp_path / "t.parquet")
    a_bytes = sum(meta.row_group(i).column(0).total_uncompressed_size
                  for i in range(meta.num_row_groups))
    assert 16 << 20 < a_bytes <= 24 << 20
    ds = _io.read_table(str(tmp_path), "t", ["a"]).materialize()
    assert ds.num_blocks() == 3
    assert ds.count() == n


def test_exchange_partitions_split_reads(sf_dir, exchange_partitions):
    ds = _io.read_table(sf_dir, "events", ["event_id"]).materialize()
    assert ds.num_blocks() > 1
    assert ds.count() == 1000
