"""The one hash exchange behind every public exchange of
pyspider_ray.neardup: the partition count is sized by input bytes, so
results must not depend on it (forced many-partition runs equal the
one-partition run and a pandas reference), every exchange returns
its declared schema when an input is empty, and no module of the
package groups rows any other way.

Reduce fns are defined INSIDE the tests: module-level functions in a
test file pickle by reference and Ray workers can't import it."""

import collections

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pyspider_ray import neardup


def _ds(df, n_blocks=5):
    import ray.data as rd
    per = -(-len(df) // n_blocks)
    return rd.from_arrow([pa.Table.from_pandas(df.iloc[i:i + per],
                                               preserve_index=False)
                          for i in range(0, len(df), per)])


def _norm(df):
    df = df.reindex(sorted(df.columns), axis=1).fillna(-1)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


_RNG = np.random.RandomState(5)
KV = pd.DataFrame({"k": _RNG.randint(0, 60, 600).astype(np.int64),
                   "v": _RNG.randint(-10**12, 10**12, 600)
                   .astype(np.int64)})
RIGHT = pd.DataFrame({"r": _RNG.randint(0, 45, 200).astype(np.int64),
                      "w": _RNG.randint(0, 9, 200).astype(np.int64),
                      "f": _RNG.rand(200)})
SIGS = pd.DataFrame({"doc_id": np.arange(100, dtype=np.int64),
                     "sig": np.arange(100, dtype=np.int64) * 7})
PAIRS = pd.DataFrame({"doc_a": _RNG.randint(0, 120, 150).astype(np.int64),
                      "doc_b": _RNG.randint(0, 100, 150).astype(np.int64)})
SOURCES = np.array([f"src-{i}.example" for i in range(40)], dtype=object)
KV_STR = pd.DataFrame({"source": _RNG.choice(SOURCES, 600),
                       "v": _RNG.randint(0, 10**6, 600).astype(np.int64)})


def _triples(n_docs=90, n_bands=4, queries=False):
    rng = np.random.RandomState(11)
    rows = []
    for d in range(n_docs):
        for band in range(n_bands):
            key = ((d // 3) * 10 + band if d % 2 == 0
                   else int(rng.randint(0, 300)))
            rows.append((band, key, d, int(d % 4 == 0)))
    df = pd.DataFrame(rows, columns=["band", "key", "doc_id", "is_q"])
    df = df.astype(np.int64)
    return df if queries else df.drop(columns=["is_q"])


def _bucket_pairs(df, bipartite):
    buckets = collections.defaultdict(list)
    for r in df.itertuples():
        buckets[(r.band, r.key)].append(r)
    out = set()
    for mem in buckets.values():
        for a in mem:
            for b in mem:
                if a.doc_id == b.doc_id:
                    continue
                if bipartite and a.is_q and not b.is_q:
                    out.add((a.doc_id, b.doc_id))
                elif not bipartite:
                    out.add((min(a.doc_id, b.doc_id),
                             max(a.doc_id, b.doc_id)))
    return pd.DataFrame(sorted(out), columns=["doc_a", "doc_b"],
                        dtype=np.int64)


def _case(name):
    """(Dataset-producing callable, pandas reference) per exchange."""
    if name in ("partition_apply", "group_apply"):
        schema = pa.schema([("k", pa.int64()), ("s", pa.int64()),
                            ("n", pa.int64())])

        def sums(t):
            import pandas as pd
            g = (pd.DataFrame({"k": t["k"].to_numpy(),
                               "v": t["v"].to_numpy()})
                 .groupby("k")["v"].agg(["sum", "size"]).reset_index())
            return pa.table({"k": pa.array(g["k"].to_numpy(np.int64)),
                             "s": pa.array(g["sum"].to_numpy(np.int64)),
                             "n": pa.array(g["size"].to_numpy(np.int64))})

        fn = getattr(neardup, name)
        ref = (KV.groupby("k")["v"].agg(["sum", "size"]).reset_index()
               .rename(columns={"sum": "s", "size": "n"}))
        return (lambda: fn(_ds(KV), "k", sums, schema)), ref
    if name == "group_apply_string_key":
        # several split tasks (one per input block) each hash the key:
        # a per-process salted hash would scatter a source over
        # partitions and emit it twice
        schema = pa.schema([("source", pa.string()), ("s", pa.int64()),
                            ("n", pa.int64())])

        def total(g):
            return pa.table({"source": g["source"].slice(0, 1),
                             "s": pa.array([int(g["v"].to_numpy().sum())],
                                           pa.int64()),
                             "n": pa.array([len(g)], pa.int64())})

        ref = (KV_STR.groupby("source")["v"].agg(["sum", "size"])
               .reset_index().rename(columns={"sum": "s", "size": "n"}))
        return ((lambda: neardup.group_apply(_ds(KV_STR), "source", total,
                                             schema)), ref)
    if name == "min_by_key":
        return ((lambda: neardup.min_by_key(_ds(KV), "k", "v")),
                KV.groupby("k", as_index=False)["v"].min())
    if name.startswith("hash_join_"):
        how = name[len("hash_join_"):]
        run = (lambda: neardup.hash_join(_ds(KV), _ds(RIGHT), "k", "r",
                                         how=how))
        if how in ("semi", "anti"):
            hit = KV["k"].isin(RIGHT["r"])
            return run, KV[~hit] if how == "anti" else KV[hit]
        return run, KV.merge(RIGHT, how=how, left_on="k",
                             right_on="r").drop(columns=["r"])
    if name == "attach_column":
        return ((lambda: neardup.attach_column(
            _ds(PAIRS), _ds(SIGS), "sig", "doc_a", "sig_a")),
            PAIRS.merge(SIGS.rename(columns={"doc_id": "doc_a",
                                             "sig": "sig_a"})))
    if name == "join_signatures":
        ref = (PAIRS.merge(SIGS.rename(columns={"doc_id": "doc_a",
                                                "sig": "sig_a"}))
               .merge(SIGS.rename(columns={"doc_id": "doc_b",
                                           "sig": "sig_b"})))
        return ((lambda: neardup.join_signatures(_ds(PAIRS), _ds(SIGS),
                                                 "sig")), ref)
    if name == "candidate_pairs":
        tri = _triples()
        return ((lambda: neardup.candidate_pairs(_ds(tri))),
                _bucket_pairs(tri, bipartite=False))
    assert name == "bipartite_candidate_pairs"
    tri = _triples(queries=True)
    return ((lambda: neardup.bipartite_candidate_pairs(_ds(tri))),
            _bucket_pairs(tri, bipartite=True))


EXCHANGES = ["partition_apply", "group_apply", "group_apply_string_key",
             "min_by_key",
             "hash_join_inner", "hash_join_left", "hash_join_semi",
             "hash_join_anti", "attach_column", "join_signatures",
             "candidate_pairs", "bipartite_candidate_pairs"]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", EXCHANGES)
def test_many_partitions_equal_one_and_pandas(name, monkeypatch,
                                              exchange_partitions):
    make, ref = _case(name)
    many = _norm(make().to_pandas())
    assert min(exchange_partitions) >= 4, exchange_partitions
    exchange_partitions.clear()
    monkeypatch.setattr(neardup, "_PARTITION_BYTES", 1 << 40)
    one = _norm(make().to_pandas())
    assert set(exchange_partitions) == {1}
    assert len(one) > 0
    pd.testing.assert_frame_equal(many, one)
    pd.testing.assert_frame_equal(many, _norm(ref), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_exchange_tasks_run_tuned(exchange_partitions):
    """Exchange reduce tasks run with the allocator tuning, which only
    the package import applies: the task of every non-empty partition
    reads ``_malloc._done`` as True."""
    def tuned(t):
        from pyspider_ray import _malloc
        return pa.table({"tuned": [_malloc._done]})

    out = neardup.partition_apply(_ds(KV), "k", tuned,
                                  pa.schema([("tuned", pa.bool_())]))
    flags = out.to_pandas()["tuned"].tolist()
    assert min(exchange_partitions) > 1 and len(flags) > 1
    assert all(flags)


def test_partition_count_follows_bytes(monkeypatch):
    """P = ceil(bytes / _PARTITION_BYTES) clamped to [1, 64], no split
    task at P = 1, and at least P map groups (checked without Ray:
    the block lists and the split task are stand-ins)."""
    sizes, calls = {}, []

    class FakeDs:
        pass

    class FakeSplit:
        def options(self, num_returns):
            return self

        def remote(self, part_of, P, *group):
            calls.append(group)
            return tuple(f"{len(calls) - 1}/{p}" for p in range(P))

    def blocks(ds):
        return [f"b{i}" for i in range(len(sizes[ds]))], sizes[ds]

    monkeypatch.setattr(neardup, "_blocks", blocks)
    monkeypatch.setattr(neardup, "_nd_split", FakeSplit())
    monkeypatch.setattr(neardup, "_PARTITION_BYTES", 100)
    a, b = FakeDs(), FakeDs()
    sizes[a], sizes[b] = [40, 50], [5]
    assert neardup._partitioned((a, None), (b, None)) == \
        [[["b0", "b1"], ["b0"]]]
    sizes[a] = []
    assert neardup._partitioned((a, None)) == [[[]]]
    assert not calls
    sizes[a] = [150, 150]
    assert neardup._partitioned((a, None)) == [[["0/0", "1/0"]],
                                               [["0/1", "1/1"]],
                                               [["0/2", "1/2"]]]
    calls.clear()
    sizes[a] = [10 ** 7] * 100
    parts = neardup._partitioned((a, None))
    assert len(parts) == 64
    assert len(calls) == 64 and all(len(p[0]) == 64 for p in parts)


def test_string_key_partition_is_process_independent():
    """The string routing hash is fixed-key SipHash, not the salted
    built-in hash(): two interpreters with different hash seeds route
    every key to the same partition."""
    import json
    import os
    import subprocess
    import sys
    code = ("import pyarrow as pa; from pyspider_ray import neardup; "
            f"t = pa.table({{'s': {list(SOURCES)!r}}}); "
            "print(neardup._key_part('s', t, 7).tolist())")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outs = {subprocess.run([sys.executable, "-c", code], cwd=root,
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": seed}
                           ).stdout for seed in ("1", "2")}
    assert len(outs) == 1
    assert len(set(json.loads(outs.pop()))) > 1


def test_one_shuffle_mechanism():
    """Every per-key step of the package runs on the neardup hash
    exchange: no Ray Data sort-based ``.map_groups(`` call, no
    ``ray.data.aggregate`` import (every aggregate is
    ``neardup.combine``; Arrow's ``Table.group_by().aggregate`` is not
    a shuffle and stays allowed) and no ``n_buckets`` knob on the
    query modules."""
    import ast
    import pathlib

    import pyspider_ray
    found = []
    for path in sorted(pathlib.Path(pyspider_ray.__file__).parent
                       .rglob("*.py")):
        query_module = path.name in ("queries.py", "training_queries.py")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and \
                    node.attr == "map_groups":
                found.append(f"{path.name}:{node.lineno} .map_groups")
            elif query_module and isinstance(node, ast.arg) and \
                    node.arg == "n_buckets":
                found.append(f"{path.name}:{node.lineno} n_buckets")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                mod = getattr(node, "module", None)
                names = ([mod] + [f"{mod}.{a.name}" for a in node.names]
                         if mod else [a.name for a in node.names])
                if any(n == "ray.data.aggregate" or
                       n.startswith("ray.data.aggregate.") for n in names):
                    found.append(f"{path.name}:{node.lineno} "
                                 f"ray.data.aggregate")
    assert not found, found


def _empty(**cols):
    import ray.data as rd
    return rd.from_arrow(pa.table({c: pa.array([], t)
                                   for c, t in cols.items()}))


def _names_types(ds):
    s = ds.schema()
    return dict(zip(s.names, s.types))


@pytest.mark.usefixtures("ray_session")
class TestEmptyInputsKeepSchema:
    def test_attach_column_empty_pairs(self):
        pairs = _empty(doc_a=pa.int64(), doc_b=pa.int64(),
                       label_a=pa.int64())
        out = neardup.attach_column(pairs, _ds(SIGS), "sig", "doc_b",
                                    "label_b")
        assert out.count() == 0
        assert _names_types(out) == {"doc_a": pa.int64(),
                                     "doc_b": pa.int64(),
                                     "label_a": pa.int64(),
                                     "label_b": pa.int64()}

    def test_attach_column_empty_sigs(self):
        sigs = _empty(doc_id=pa.int64(), sig=pa.float64())
        out = neardup.attach_column(_ds(PAIRS), sigs, "sig", "doc_a",
                                    "sig_a")
        assert out.count() == 0
        assert _names_types(out) == {"doc_a": pa.int64(),
                                     "doc_b": pa.int64(),
                                     "sig_a": pa.float64()}

    def test_join_signatures_zero_candidate_pairs(self):
        pairs = neardup.candidate_pairs(
            _empty(band=pa.int64(), key=pa.int64(), doc_id=pa.int64()))
        assert _names_types(pairs) == {"doc_a": pa.int64(),
                                       "doc_b": pa.int64()}
        sigs = pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64),
                             "simhash": np.arange(4, dtype=np.int64)})
        out = neardup.join_signatures(pairs, _ds(sigs), "simhash")
        assert out.count() == 0
        assert list(out.schema().names) == ["doc_a", "doc_b",
                                            "simhash_a", "simhash_b"]

    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_hash_join_empty_either_side(self, how):
        left = _empty(k=pa.int64(), x=pa.string())
        right = _empty(r=pa.int64(), y=pa.float64())
        full_l = _ds(pd.DataFrame({"k": [1, 2], "x": ["a", "b"]}))
        full_r = _ds(pd.DataFrame({"r": [1], "y": [0.5]}))
        declared = ({"k": pa.int64(), "x": pa.string()}
                    if how in ("semi", "anti") else
                    {"k": pa.int64(), "x": pa.string(), "y": pa.float64()})
        for l_ds, r_ds in ((left, full_r), (full_l, right), (left, right)):
            out = neardup.hash_join(l_ds, r_ds, "k", "r", how=how)
            assert _names_types(out) == declared
        out = neardup.hash_join(left, full_r, "k", "r", how=how)
        assert out.count() == 0

    def test_partition_apply_and_min_by_key(self):
        schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])
        kv = _empty(k=pa.int64(), v=pa.int64())
        out = neardup.partition_apply(kv, "k", lambda t: t, schema)
        assert out.count() == 0
        assert _names_types(out) == {"k": pa.int64(), "n": pa.int64()}
        out = neardup.min_by_key(kv, "k", "v")
        assert out.count() == 0
        assert _names_types(out) == {"k": pa.int64(), "v": pa.int64()}

    def test_candidate_pairs(self):
        for fn, cols in ((neardup.candidate_pairs, {}),
                         (neardup.bipartite_candidate_pairs,
                          {"is_q": pa.int8()})):
            out = fn(_empty(band=pa.int64(), key=pa.int64(),
                            doc_id=pa.int64(), **cols))
            assert out.count() == 0
            assert _names_types(out) == {"doc_a": pa.int64(),
                                         "doc_b": pa.int64()}


def test_exchange_microbench(benchmark, ray_session):
    """partition_apply over 800 event rows + candidate_pairs over 100
    band rows (the query_exchange benchmark's inputs at 1/50 size),
    results checked so a speed-up cannot come from changing them."""
    rng = np.random.RandomState(3)
    events = pd.DataFrame({
        "user_id": rng.randint(0, 10, 800).astype(np.int64),
        "value": rng.randint(0, 1000, 800).astype(np.int64)})
    tri = _triples(n_docs=25)
    schema = pa.schema([("user_id", pa.int64()), ("total", pa.int64())])

    def totals(t):
        import pandas as pd
        g = (pd.DataFrame({"u": t["user_id"].to_numpy(),
                           "v": t["value"].to_numpy()})
             .groupby("u")["v"].sum())
        return pa.table({"user_id": pa.array(g.index.to_numpy(np.int64)),
                         "total": pa.array(g.to_numpy(np.int64))})

    def both():
        a = neardup.partition_apply(_ds(events), "user_id", totals,
                                    schema).to_pandas()
        b = neardup.candidate_pairs(_ds(tri)).to_pandas()
        return a, b

    got_totals, got_pairs = benchmark.pedantic(both, rounds=3,
                                               iterations=1)
    exp = (events.groupby("user_id", as_index=False)["value"].sum()
           .rename(columns={"value": "total"}))
    pd.testing.assert_frame_equal(_norm(got_totals), _norm(exp))
    pd.testing.assert_frame_equal(
        _norm(got_pairs), _norm(_bucket_pairs(tri, bipartite=False)))
