"""Driver-style correctness sweep: run every `queries()` entry and,
where an `oracle_sql()` entry exists, compare against DuckDB on the
same parquet tables — sorted-column values AND dtypes, the same
comparison shape the grading driver applies.

Usage: python sweep.py [sf_dir] [query ...]   (default /root/testdata/sf0.01,
all queries).  Owns its Ray session (the library never calls ray.init).
Prints one line per query, ending with its result's order-independent
md5 over row values and dtypes (two sweep logs diff to the queries
whose output changed), and a final tally; exit 1 on any mismatch.
"""

from __future__ import annotations

import os
import sys
import time


def _norm(df):
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _md5(df) -> str:
    """Order-independent md5 of a result's row values and dtypes: the
    sorted per-row hashes of its columns in name order, then the
    dtypes.  Object values hash by their ``repr``."""
    import hashlib

    import numpy as np
    import pandas as pd
    df = df.reindex(sorted(df.columns), axis=1)
    vals = pd.DataFrame({c: df[c].map(repr) if df[c].dtype == object
                         else df[c] for c in df.columns})
    rows = (pd.util.hash_pandas_object(vals, index=False).to_numpy()
            if len(df.columns) else np.zeros(len(df), np.uint64))
    h = hashlib.md5(np.sort(rows).tobytes())
    h.update(repr([(c, str(t)) for c, t in df.dtypes.items()]).encode())
    return h.hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "16")),
                 include_dashboard=False, logging_level="ERROR")
    import __ray_entry__ as entry
    qs, oracles = entry.queries(), entry.oracle_sql()

    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents", "embeddings"):
        p = f"{sf_dir}/{t}.parquet"
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    import pandas as pd
    n_green = n_rows_only = n_fail = 0
    oracle_s = rows_only_s = 0.0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            res = fn(sf_dir)
            df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
        except Exception as exc:                       # noqa: BLE001
            print(f"FAIL  {name}: {exc}")
            n_fail += 1
            continue
        dt = time.perf_counter() - t0
        md5 = _md5(df)
        if name not in oracles:
            n_rows_only += 1
            rows_only_s += dt
            print(f"rows  {name}: {len(df)} rows ({dt:.1f}s) md5={md5}")
            continue
        oracle_s += dt
        odf = con.sql(oracles[name]).df()
        a, b = _norm(df), _norm(odf)
        try:
            pd.testing.assert_frame_equal(a, b, check_dtype=True)
            n_green += 1
            print(f"GREEN {name}: {len(df)} rows ({dt:.1f}s) md5={md5}")
        except AssertionError as exc:
            n_fail += 1
            print(f"FAIL  {name}: {str(exc).splitlines()[0]} "
                  f"(ray {len(df)} rows vs oracle {len(odf)}) md5={md5}")
    print(f"== {n_green} green, {n_rows_only} rows-only, {n_fail} failed; "
          f"query seconds: {oracle_s:.1f} oracle-checked, "
          f"{rows_only_s:.1f} rows-only")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
