"""Large-scale training-data operators over the documents/embeddings
tables: dedup (exact, set-fingerprint, MinHash+LSH Jaccard, SimHash),
similarity search (brute-force cosine top-k, IVF, k-means), text
analysis (token counts incl. BPE-ish, stopwords, language-ID, quality,
winnowing fingerprints), and multimodal stages (image decode/pHash,
audio features, video frame-sampling) over synthetic payloads.

SQL-expressible ops carry DuckDB oracles (integer outputs only — no
float hash hazards); approximate/iterative ops (IVF, k-means,
multimodal) are rows-only checks.  The near-dup family runs on the
distributed machinery in ``pyspider_ray.neardup``: per-batch
signatures → hash-exchange pair expansion → partitioned distinct →
co-partitioned signature attach → vectorized verification.  Every
per-key step of the module (dedup, per-source stats, shuffled
fallbacks) rides the same exchange; nothing here sorts to group.
No stage materializes or broadcasts the corpus in one process; small
sides (centroids, query matrices, elected winner sets) ride one
object-store ref into plain map tasks (``_io.broadcast_get``) or the
task args by design.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .functions.buffers import binary_array
from .functions.synthweb import mix64

STOPWORDS = ("the", "a", "of", "to", "and", "in", "is")
_MINHASH_PERMS = 126
_LSH_ROWS = 6                      # 21 bands x 6 rows: at tau=0.9 the
# per-pair miss probability is (1 - 0.9^6)^21 ~ 1.3e-7 — effectively
# exact — while low-J pairs collide far less than with r=4 bands,
# shrinking the candidate set several-fold on similarity-dense corpora
_JACCARD_TAU_NUM, _JACCARD_TAU_DEN = 9, 10   # tau = 0.9, integer compare


from ._io import broadcast_get as _broadcast_get
from ._io import rd as _rd
from ._io import read_table as _read
from .neardup import combine


_WORD_HASH_CACHE: dict[str, int] = {}


def _word_hashes(words: list[str]) -> np.ndarray:
    """Stable 64-bit word hashes (md5-low64, process-independent).
    Per-worker memoization: natural-language vocabulary is tiny next to
    token count (Zipf), so the md5 runs once per distinct word per
    worker, not once per occurrence.  Bounded flush keeps a pathological
    vocabulary from growing the heap."""
    cache = _WORD_HASH_CACHE
    if len(cache) > 2_000_000:
        cache.clear()
    out = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        h = cache.get(w)
        if h is None:
            h = int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "big")
            cache[w] = h
        out[i] = h
    return out


_SEEDS = mix64(np.arange(_MINHASH_PERMS, dtype=np.uint64), 0xBEEF)


def minhash_signature(words: set[str]) -> np.ndarray:
    wh = _word_hashes(sorted(words))
    if not len(wh):
        return np.zeros(_MINHASH_PERMS, dtype=np.uint64)
    return mix64(wh[:, None], _SEEDS[None, :]).min(axis=0)


# ---------------------------------------------------------------------------
# text analysis
# ---------------------------------------------------------------------------

def q_token_count(sf_dir):
    """Token counting (whitespace tokenizer), vectorized via pandas str."""
    import pandas as pd
    def counts(b: pd.DataFrame) -> pd.DataFrame:
        n = b["text"].str.strip().str.split(r"\s+").str.len()
        return pd.DataFrame({"doc_id": b["doc_id"],
                             "n_tokens": n.astype("int64")})
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(counts, batch_format="pandas"))


def _stopword_counts(texts: "pd.Series") -> np.ndarray:
    """Vectorized exact-token stopword membership count: explode the
    whitespace-split tokens, one hash-table isin over the exploded
    column, bincount back by row — no Python per token.  Exact-token
    semantics (NOT regex word-boundary: 'the,' is not a stopword),
    matching the DuckDB list_filter oracle."""
    words = texts.str.strip().str.split(r"\s+")
    ex = words.explode()
    hits = ex.isin(STOPWORDS).to_numpy()
    # explode emits >=1 entry per row (''.split keeps ['']), so every
    # original row index appears; bincount over positional row ids
    row = np.repeat(np.arange(len(texts)),
                    words.str.len().to_numpy().astype(np.int64))
    return np.bincount(row, weights=hits,
                       minlength=len(texts)).astype(np.int64)


def q_stopword_count(sf_dir):
    import pandas as pd
    def counts(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": b["doc_id"],
                             "n_stop": _stopword_counts(b["text"])})
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(counts, batch_format="pandas"))


def q_quality_score(sf_dir):
    """Quality scoring heuristics — the cheap filters a 100 TB text
    pipeline runs before anything expensive.  All outputs are INTEGER
    counts plus an integer-arithmetic keep flag so the DuckDB oracle
    hashes exactly (no float round-trip hazards): keep = stopwords*10 <
    tokens*9 AND alpha_chars*2 > chars."""
    import pandas as pd

    def score(b: pd.DataFrame) -> pd.DataFrame:
        texts = b["text"].str.strip()
        n_tok = texts.str.split(r"\s+").str.len().astype("int64")
        n_stop = pd.Series(_stopword_counts(b["text"]), index=b.index)
        n_chars = texts.str.len().astype("int64")
        n_alpha = texts.str.count(r"[A-Za-z]").astype("int64")
        keep = ((n_stop * 10 < n_tok * 9) &
                (n_alpha * 2 > n_chars)).astype("int64")
        return pd.DataFrame({
            "doc_id": b["doc_id"], "n_chars_obs": n_chars,
            "n_tokens": n_tok, "n_stop": n_stop, "n_alpha": n_alpha,
            "keep": keep})
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(score, batch_format="pandas"))


_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "is"},
    "es": {"el", "la", "de", "que", "los"},
    "de": {"der", "die", "und", "das", "ist"},
    "fr": {"le", "la", "et", "les", "des"},
}


def q_lang_id(sf_dir):
    """Language-ID by stopword-marker voting: distinct-word hits per
    language marker set, max vote wins, alphabetically-first language
    wins ties, zero hits → 'unk'.  Deterministic and SQL-expressible,
    so fully oracle-checked.

    Vectorized like ``_stopword_counts``, in Arrow kernels: split and
    flatten the tokens once, map each to its marker index, mark the
    distinct (row, marker) hits in a 0/1 matrix and count each
    language's markers with one matrix product — no Python per
    document."""
    langs = sorted(_LANG_MARKERS)
    markers = sorted(set().union(*_LANG_MARKERS.values()))
    member = np.array([[w in _LANG_MARKERS[l] for l in langs]
                       for w in markers], dtype=np.int64)

    def lid(b: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(b["text"].combine_chunks())
        code = pc.index_in(pc.list_flatten(toks),
                           value_set=pa.array(markers)).to_numpy(
                               zero_copy_only=False)
        row = pc.list_parent_indices(toks).to_numpy()
        hit = ~np.isnan(code)
        present = np.zeros((len(b), len(markers)), dtype=np.int64)
        present[row[hit], code[hit].astype(np.int64)] = 1
        votes = present @ member
        preds = np.where(votes.max(axis=1) > 0,
                         np.array(langs, dtype=object)[votes.argmax(axis=1)],
                         "unk")
        return pa.table({"doc_id": b["doc_id"],
                         "pred_lang": pa.array(preds, pa.string())})
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(lid, batch_format="pyarrow"))


def _normalize_text(col):
    """NFC -> lower -> collapse whitespace runs -> trim, all Arrow C++
    kernels (shared by text_normalize and the curation gate)."""
    s = pc.utf8_normalize(col, form="NFC")
    s = pc.utf8_lower(s)
    s = pc.replace_substring_regex(s, pattern=r"\s+", replacement=" ")
    return pc.utf8_trim_whitespace(s)


# PII-scrub pattern: denylist terms + email + IPv4, one alternation so
# the whole scrub is ONE RE2 pass per batch.  Both Arrow and DuckDB
# compile RE2, so the oracle hashes the redacted text bit-exactly.
_PII_PATTERN = (r"\b(customer|value)\b"
                r"|[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
                r"|\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b")


def q_pii_scrub(sf_dir):
    """PII / denylist scrubbing (the C4 bad-words + Dolma PII stage):
    replace every match of a combined RE2 alternation (denylist terms,
    emails, IPv4s) with a redaction token and count redactions per doc.
    Zero-copy Arrow in/out; the regex runs in Arrow's C++ RE2 kernels
    (`replace_substring_regex` / `count_substring_regex`) — no Python
    per row, no pandas conversion.  Reference analogue: pyspider lets
    handlers rewrite fetched text in on_page; this is that rewrite as a
    vectorized corpus stage."""
    def scrub(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"],
            "clean_text": pc.replace_substring_regex(
                b["text"], pattern=_PII_PATTERN, replacement="<PII>"),
            "n_redactions": pc.cast(
                pc.count_substring_regex(b["text"], pattern=_PII_PATTERN),
                pa.int64()),
        })
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(scrub, batch_format="pyarrow"))


def q_text_normalize(sf_dir):
    """Canonical pre-dedup text normalization (the CCNet/Dolma step
    that runs before ANY hashing): unicode NFC -> lowercase ->
    collapse whitespace runs -> trim.  All four are Arrow C++ kernels
    over the string column (utf8_normalize / utf8_lower /
    replace_substring_regex / utf8_trim_whitespace) — zero-copy, no
    Python per row.  Output includes the normalized length so the
    oracle hash pins both content and accounting."""
    def norm(b: pa.Table) -> pa.Table:
        s = _normalize_text(b["text"])
        return pa.table({
            "doc_id": b["doc_id"],
            "norm_text": s,
            "n_chars_norm": pc.cast(pc.utf8_length(s), pa.int64()),
        })
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(norm, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# dedup
# ---------------------------------------------------------------------------

def _md5_halves(texts) -> tuple[np.ndarray, np.ndarray]:
    """Signed int64 (high, low) halves of each string's md5-128 digest
    (big-endian) — the exact-content identity of the dedup queries;
    md5 collisions are treated as impossible."""
    d = np.frombuffer(b"".join(hashlib.md5(t.encode()).digest()
                               for t in texts), dtype=">i8")
    return d[0::2].astype(np.int64), d[1::2].astype(np.int64)


def _first_wins_by_digest(ds, text_col: str):
    """Exact-dedup first-wins keyed on the md5-128 digest of
    ``text_col`` instead of the text itself: the hash exchange routes
    on the digest's int64 high half (text rides as payload, never as a
    key), and within a partition one lexsort keeps the min-doc_id row
    per 128-bit digest."""
    from .neardup import _arrow_schema, partition_apply

    def digest(b: pa.Table) -> pa.Table:
        h1, h2 = _md5_halves(b[text_col].to_pylist())
        return (b.append_column("_h1", pa.array(h1))
                .append_column("_h2", pa.array(h2)))

    def first_wins(g: pa.Table) -> pa.Table:
        h1 = g["_h1"].to_numpy()
        h2 = g["_h2"].to_numpy()
        ids = g["doc_id"].to_numpy()
        order = np.lexsort((ids, h2, h1))
        k1, k2 = h1[order], h2[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
        return g.take(pa.array(order[first])).drop_columns(["_h1", "_h2"])

    ds = ds.map_batches(digest, batch_format="pyarrow").materialize()
    schema = pa.schema(list(_arrow_schema(ds))[:-2])    # minus _h1, _h2
    return partition_apply(ds, "_h1", first_wins, schema)


def q_dedup_exact(sf_dir):
    """Exact dedup, first-wins: hash-partition by the md5-128 content
    digest (text rides as payload, never as the exchange key), keep
    min doc_id per distinct content."""
    return _first_wins_by_digest(
        _read(sf_dir, "documents", ["doc_id", "text"]), "text")


def q_dedup_counts(sf_dir):
    """Corpus dedup accounting: total rows + exact distinct-content
    count.  Distinct runs distributed — 128-bit content digests, one
    hash exchange on the digest, one np.unique per partition, the
    partial counts summed on the driver (never `ds.unique()`, which
    materializes the distinct VALUES driver-side)."""
    from .neardup import partition_apply

    ds = _read(sf_dir, "documents", ["text"])
    total = ds.count()

    def digest(b: pa.Table) -> pa.Table:
        h1, h2 = _md5_halves(b["text"].to_pylist())
        return pa.table({"h1": pa.array(h1), "h2": pa.array(h2)})

    def count_unique(g: pa.Table) -> pa.Table:
        arr = np.stack([g["h1"].to_numpy(), g["h2"].to_numpy()], axis=1)
        return pa.table({"n": pa.array(
            [len(np.unique(arr, axis=0))], pa.int64())})

    parts = partition_apply(ds.map_batches(digest, batch_format="pyarrow"),
                            "h1", count_unique,
                            pa.schema([("n", pa.int64())])).take_all()
    distinct = sum(p["n"] for p in parts)
    return pa.table({"total": pa.array([total], pa.int64()),
                     "distinct_texts": pa.array([distinct], pa.int64())})


def q_wordset_dup_groups(sf_dir):
    """Near-dup at J=1.0: identical distinct-word sets, grouped by a
    canonical set fingerprint."""
    def fp(b: pa.Table) -> pa.Table:
        import pandas as pd
        # vectorized canonical set key: explode tokens, dedup (row,
        # word) pairs, codepoint-sort, join back per row — the only
        # per-row Python left is the md5 call itself
        texts = pd.Series(b["text"].to_pylist())
        ex = texts.str.split().explode().dropna()   # [] rows -> no pairs
        pairs = (pd.DataFrame({"i": ex.index, "w": ex})
                 .drop_duplicates()
                 .sort_values(["i", "w"], kind="stable"))
        keys = pairs.groupby("i", sort=True)["w"].agg(" ".join) \
            .reindex(range(len(texts)), fill_value="")
        fps = [hashlib.md5(k.encode()).hexdigest() for k in keys]
        return pa.table({"rep": b["doc_id"],
                         "set_fp": pa.array(fps, pa.string())})
    return combine(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(fp, batch_format="pyarrow"), ["set_fp"],
        {"rep": "min", "n": "count"},
        pa.schema([("set_fp", pa.string()), ("rep", pa.int64()),
                   ("n", pa.int64())]))


def _SignatureStage(b: pa.Table) -> pa.Table:
    """MinHash signatures + LSH band keys per document (stateless —
    runs in the task pool, no actor spin-up)."""
    doc_ids, bands, keys = [], [], []
    for doc_id, text in zip(b["doc_id"].to_pylist(),
                            b["text"].to_pylist()):
        sig = minhash_signature(set(text.split()))
        view = sig.reshape(-1, _LSH_ROWS)
        for band_idx in range(view.shape[0]):
            h = hashlib.md5(view[band_idx].tobytes()).digest()
            doc_ids.append(doc_id)
            bands.append(band_idx)
            keys.append(int.from_bytes(h[:8], "big", signed=True))
    return pa.table({"doc_id": pa.array(doc_ids, pa.int64()),
                     "band": pa.array(bands, pa.int32()),
                     "key": pa.array(keys, pa.int64())})


def _word_lists(b: pa.Table) -> pa.Table:
    """Per doc: sorted distinct word-hash set packed as a binary blob
    (uint64 little-endian) — the tokenize-once representation every
    downstream jaccard stage reuses.  Binary because Acero hash joins
    can't carry list<> payload columns."""
    words = [np.sort(_word_hashes(sorted(set(t.split())))).tobytes()
             for t in b["text"].to_pylist()]
    return pa.table({"doc_id": b["doc_id"],
                     "words": pa.array(words, pa.binary())})


_BAND_KEY_CACHE: dict[bytes, list[int]] = {}


def _minhash_bands_from_words(b: pa.Table) -> pa.Table:
    """(doc_id, words) → LSH (band, key) triples; signatures derive
    from the precomputed word hashes (no re-tokenization).  Band keys
    memoize per distinct word-SET blob — on similarity-dense corpora
    (the whole point of dedup) identical sets recur constantly and the
    signature is a pure function of the set."""
    n_bands = _MINHASH_PERMS // _LSH_ROWS
    cache = _BAND_KEY_CACHE
    if len(cache) > 500_000:
        cache.clear()
    doc_ids, bands, keys = [], [], []
    band_range = list(range(n_bands))
    for doc_id, blob in zip(b["doc_id"].to_pylist(),
                            b["words"].to_pylist()):
        ks = cache.get(blob)
        if ks is None:
            wh = np.frombuffer(blob, dtype=np.uint64)
            if len(wh):
                sig = mix64(wh[:, None], _SEEDS[None, :]).min(axis=0)
            else:
                sig = np.zeros(_MINHASH_PERMS, dtype=np.uint64)
            view = sig.reshape(-1, _LSH_ROWS)
            ks = [int.from_bytes(
                hashlib.md5(view[i].tobytes()).digest()[:8],
                "big", signed=True) for i in band_range]
            cache[blob] = ks
        doc_ids.extend([doc_id] * n_bands)
        bands.extend(band_range)
        keys.extend(ks)
    return pa.table({"doc_id": pa.array(doc_ids, pa.int64()),
                     "band": pa.array(bands, pa.int32()),
                     "key": pa.array(keys, pa.int64())})


def _jaccard_verify_vec(b: pa.Table) -> pa.Table:
    """Exact Jaccard over a joined candidate batch carrying both
    word-hash lists — fully vectorized: flatten both sides tagged with
    the pair index, lexsort, count adjacent (pair, word) duplicates
    (each side holds distinct words, so a count of 2 == one common
    word)."""
    n = len(b)
    if n == 0:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64())})
    def flat_blobs(col):
        """Zero-copy flatten of a binary column of uint64 blobs."""
        a = col.combine_chunks()
        off = np.frombuffer(a.buffers()[1], dtype=np.int32)[
            a.offset:a.offset + len(a) + 1]
        data = np.frombuffer(a.buffers()[2], dtype=np.uint8)
        flat = data[off[0]:off[-1]].view(np.uint64)
        return flat, (np.diff(off) // 8).astype(np.int64)

    fa, la = flat_blobs(b["words_a"])
    fb, lb = flat_blobs(b["words_b"])
    idx = np.concatenate([np.repeat(np.arange(n), la),
                          np.repeat(np.arange(n), lb)])
    w = np.concatenate([fa, fb])
    order = np.lexsort((w, idx))
    idx, w = idx[order], w[order]
    dup = (idx[1:] == idx[:-1]) & (w[1:] == w[:-1])
    inter = np.bincount(idx[1:][dup], minlength=n)
    union = la + lb - inter
    keep = inter * _JACCARD_TAU_DEN >= _JACCARD_TAU_NUM * union
    return pa.table({"doc_a": b["doc_a"].filter(pa.array(keep)),
                     "doc_b": b["doc_b"].filter(pa.array(keep))})


def _probe_small_vocab(words_ds, cap: int = 64):
    """Streaming probe for a tiny global vocabulary: union per-batch
    distinct word hashes, ABORT as soon as the union exceeds ``cap``
    (driver memory stays O(cap + one batch) even on a 10^9-doc
    corpus).  Returns the sorted hash list or None."""
    seen: set[int] = set()
    for b in words_ds.iter_batches(batch_format="pyarrow",
                                   batch_size=4096):
        for blob in b["words"].to_pylist():
            seen.update(np.frombuffer(blob, dtype=np.uint64).tolist())
            if len(seen) > cap:
                return None
    return sorted(seen)


def _jaccard_verify_mask(b: pa.Table) -> pa.Table:
    """Exact Jaccard via bitset popcount (vocab <= 64 fast path)."""
    if not len(b):
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64())})
    ma = b["mask_a"].to_numpy().astype(np.uint64)
    mb = b["mask_b"].to_numpy().astype(np.uint64)

    def popcnt(x):
        return np.unpackbits(x.view(np.uint8).reshape(len(x), 8),
                             axis=1).sum(axis=1).astype(np.int64)
    inter = popcnt(ma & mb)
    union = popcnt(ma | mb)
    keep = pa.array(inter * _JACCARD_TAU_DEN >= _JACCARD_TAU_NUM * union)
    return pa.table({"doc_a": b["doc_a"].filter(keep),
                     "doc_b": b["doc_b"].filter(keep)})


_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)],
                  dtype=np.uint8)


def _popcnt64_mat(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array of any shape via a 16-bit
    lookup table (numpy 1.26 has no bitwise_count)."""
    v = x.reshape(-1).view(np.uint16).reshape(-1, 4)
    return _POP16[v].sum(axis=1, dtype=np.int64).reshape(x.shape)


# Gates for the exact mask-class fast path: the driver-side CSR pull is
# 16 B/doc and the broadcast class table is 8 B/class — both bounded
# here; beyond them the LSH path handles the corpus.
_MASK_CLASS_MAX_DOCS = 50_000_000
_MASK_CLASS_MAX_CLASSES = 1 << 16


def _mask_csr_stream(values_ds, col="mask"):
    """Stream (doc_id, <col>) into a class CSR: sorted distinct
    values, member offsets, member doc_ids.  Aborts (returns None) if
    the doc or class gate trips — and the gates are checked in a
    RETENTION-FREE first pass (a capped distinct set + row counter),
    so an open-vocabulary corpus that is going to trip never pulls its
    rows to the driver at all; only a corpus that passes pays the pull
    in the second pass.  Driver memory stays bounded either way."""
    values_ds = values_ds.materialize()   # two passes, compute once
    distinct: set = set()
    n = 0
    for b in values_ds.iter_batches(batch_format="pyarrow",
                                    batch_size=65536):
        n += len(b)
        if n > _MASK_CLASS_MAX_DOCS:
            return None
        distinct.update(np.unique(b[col].to_numpy()).tolist())
        if len(distinct) > _MASK_CLASS_MAX_CLASSES:
            return None
    ids_l, ms_l, n = [], [], 0
    for b in values_ds.iter_batches(batch_format="pyarrow",
                                    batch_size=65536):
        ids_l.append(b["doc_id"].to_numpy().astype(np.int64))
        ms_l.append(b[col].to_numpy().astype(np.int64)
                    .view(np.uint64))
        n += len(ids_l[-1])
        if n > _MASK_CLASS_MAX_DOCS:
            return None
    if not n:
        return None
    ids = np.concatenate(ids_l)
    ms = np.concatenate(ms_l)
    order = np.lexsort((ids, ms))
    ids, ms = ids[order], ms[order]
    uniq, starts = np.unique(ms, return_index=True)
    if len(uniq) > _MASK_CLASS_MAX_CLASSES:
        return None
    offs = np.append(starts, len(ms)).astype(np.int64)
    return uniq, offs, ids


_CLASS_INNER = 8192  # inner-axis chunk bounding the B x C compare matrix


def _class_pair_expand(b: pa.Table, csr, mode="jaccard",
                       max_dist=6) -> pa.Table:
    """Map task over class indices: popcount-compares its block of
    class values against the full broadcast class table ``csr`` (an
    object-store ref), then expands qualifying class pairs into member
    doc pairs from the CSR.  ``mode`` picks the metric: "jaccard"
    (bitset tau test) or "hamming" (popcount of xor <= ``max_dist``)."""
    masks, offs, mem = _broadcast_get(csr)
    idx = b["id"].to_numpy().astype(np.int64)
    ci_l, cj_l = [], []
    m_blk = masks[idx]
    for lo in range(0, len(masks), _CLASS_INNER):
        sl = masks[lo:lo + _CLASS_INNER]
        if mode == "hamming":
            ok = _popcnt64_mat(m_blk[:, None] ^ sl[None, :]) <= max_dist
        else:
            inter = _popcnt64_mat(m_blk[:, None] & sl[None, :])
            union = _popcnt64_mat(m_blk[:, None] | sl[None, :])
            ok = inter * _JACCARD_TAU_DEN >= _JACCARD_TAU_NUM * union
        # upper triangle INCLUDING the diagonal: each unordered
        # class pair is emitted by exactly one block row, and the
        # (i,i) diagonal carries the intra-class (jaccard 1.0) pairs
        ok &= idx[:, None] <= (lo + np.arange(len(sl)))[None, :]
        bi, bj = np.nonzero(ok)
        ci_l.append(idx[bi])
        cj_l.append(lo + bj)
    ci = np.concatenate(ci_l) if ci_l else np.empty(0, np.int64)
    cj = np.concatenate(cj_l) if cj_l else np.empty(0, np.int64)
    # vectorized cross-product expansion: class pair k contributes
    # na[k]*nb[k] member pairs; build flat row->(k, a-slot, b-slot)
    # index arrays with repeat/cumsum, no per-pair Python loop
    na = offs[ci + 1] - offs[ci]
    nb = offs[cj + 1] - offs[cj]
    sizes = na * nb
    total = int(sizes.sum())
    if not total:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64())})
    k = np.repeat(np.arange(len(ci)), sizes)
    starts = np.cumsum(sizes) - sizes
    within = np.arange(total) - starts[k]
    a_slot = within // nb[k]
    b_slot = within - a_slot * nb[k]
    da = mem[offs[ci][k] + a_slot]
    db = mem[offs[cj][k] + b_slot]
    keep = np.where(ci[k] == cj[k], da < db, np.True_)
    da, db = da[keep], db[keep]
    return pa.table({"doc_a": pa.array(np.minimum(da, db)),
                     "doc_b": pa.array(np.maximum(da, db))})


def _mask_class_near_dup(values_ds, col="mask", mode="jaccard",
                         max_dist=6):
    """Exact class-dedup near-dup: dedup docs into equal-value classes
    (wordset bitmask / simhash fingerprint), then popcount-join the
    tiny class table block-wise and expand survivors back to member
    pairs.  NO LSH, NO shuffle, NO pair dedup: each doc belongs to
    exactly one class, so every emitted pair is unique by construction.
    Returns None when the CSR gates trip (caller falls back to the
    banding machinery)."""
    csr = _mask_csr_stream(values_ds, col=col)
    if csr is None:
        return None
    uniq, offs, members = csr
    c = len(uniq)
    ref = ray.put((uniq, offs, members))
    return (ray.data.range(c, override_num_blocks=max(1, min(64, c // 64)))
            .map_batches(_class_pair_expand, batch_format="pyarrow",
                         batch_size=256,
                         fn_kwargs={"csr": ref, "mode": mode,
                                    "max_dist": max_dist}))


def q_jaccard_near_dup(sf_dir):
    """Near-dup pairs at tau=0.9 on word sets, two adaptive exact paths:

    1. Small-vocab fast path: a streaming probe (early-abort, O(64)
       driver memory) detects a <=64-word global vocabulary; each doc
       becomes one uint64 bitset, docs dedup into wordset CLASSES, and
       a block-wise popcount compare of the tiny class table replaces
       BOTH LSH candidate generation and verification — exact by
       construction, zero shuffles (``_mask_class_near_dup``).  Gated
       by `_MASK_CLASS_MAX_DOCS`/`_MASK_CLASS_MAX_CLASSES`.

    2. General path (real corpora): MinHash+LSH (21 bands x 6 rows:
       per-pair miss probability ~1.3e-7 at tau, so the verified output
       equals the exact pair set) through pyspider_ray.neardup —
       tokenize-once word lists feed banding and verification; pair
       expansion is a hash exchange on (band, key); dedup one on
       the packed key; verification joins candidates back to the
       word-list table on doc_a then doc_b (co-partitioned hash joins)
       and popcounts intersections vectorized.  No corpus broadcast,
       no driver materialization."""
    from .neardup import candidate_pairs, join_signatures
    words = (_read(sf_dir, "documents", ["doc_id", "text"])
             .map_batches(_word_lists, batch_format="pyarrow")
             .materialize())
    vocab = _probe_small_vocab(words)
    if vocab is not None:
        bit_of = {w: i for i, w in enumerate(vocab)}

        def to_mask(b: pa.Table) -> pa.Table:
            masks = []
            for blob in b["words"].to_pylist():
                m = 0
                for w in np.frombuffer(blob, dtype=np.uint64).tolist():
                    m |= 1 << bit_of[w]
                masks.append(m - (1 << 64) if m >= (1 << 63) else m)
            return pa.table({"doc_id": b["doc_id"],
                             "mask": pa.array(masks, pa.int64())})

        masks = words.map_batches(to_mask, batch_format="pyarrow")
        out = _mask_class_near_dup(masks)
        if out is not None:
            return out
    sigs = words.map_batches(_minhash_bands_from_words,
                             batch_format="pyarrow")
    # the exchanges chain on object refs: each takes the last one's
    # reduce outputs as they are, and the verify map runs one task per
    # partition on them
    pairs = candidate_pairs(sigs)
    joined = join_signatures(pairs, words, "words")
    return joined.map_batches(_jaccard_verify_vec, batch_format="pyarrow",
                              batch_size=65536)


_SHINGLE_N = 3


def _shingle_lists(b: pa.Table) -> pa.Table:
    """Per doc: sorted distinct word-3-gram hash set as a binary blob —
    the n-gram analog of _word_lists.  Docs with fewer than N words
    have no shingles and emit NO row (no content → no dedup; matches
    the oracle, where shingle-less docs never join)."""
    ids, blobs = [], []
    for doc_id, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
        ws = t.split()
        if len(ws) < _SHINGLE_N:
            continue
        sh = {" ".join(ws[i:i + _SHINGLE_N])
              for i in range(len(ws) - _SHINGLE_N + 1)}
        blobs.append(np.sort(_word_hashes(sorted(sh))).tobytes())
        ids.append(doc_id)
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "words": pa.array(blobs, pa.binary())})


def q_ngram_jaccard_near_dup(sf_dir):
    """Word-3-gram (shingle) Jaccard near-dup, tau=0.9 — order-aware
    dedup (shingles catch shuffled-word docs the word-SET metric calls
    identical).  Same distributed machinery as q_jaccard_near_dup:
    MinHash over shingle hashes → 21x6 banding (miss prob ~1.3e-7 at
    tau, effectively exact) → hash-exchange candidate pairs →
    co-partitioned signature attach → vectorized exact-Jaccard verify
    over the shingle blobs."""
    from .neardup import candidate_pairs, join_signatures
    shingles = (_read(sf_dir, "documents", ["doc_id", "text"])
                .map_batches(_shingle_lists, batch_format="pyarrow")
                .materialize())
    sigs = shingles.map_batches(_minhash_bands_from_words,
                                batch_format="pyarrow")
    pairs = candidate_pairs(sigs)
    joined = join_signatures(pairs, shingles, "words")
    return joined.map_batches(_jaccard_verify_vec, batch_format="pyarrow",
                              batch_size=65536)


def _sim64(b: pa.Table) -> pa.Table:
    """SimHash-64 per doc: per-bit vote over distinct-word md5 hashes."""
    out = []
    for text in b["text"].to_pylist():
        wh = _word_hashes(sorted(set(text.split())))
        if not len(wh):
            out.append(0)
            continue
        bits = ((wh[:, None] >> np.arange(64, dtype=np.uint64)) &
                np.uint64(1)).astype(np.int64)
        vote = (2 * bits - 1).sum(axis=0)
        val = int(np.bitwise_or.reduce(
            (np.uint64(1) << np.arange(64, dtype=np.uint64))[vote > 0],
            initial=np.uint64(0)))
        out.append(val - (1 << 64) if val >= (1 << 63) else val)
    return pa.table({"doc_id": b["doc_id"],
                     "simhash": pa.array(out, pa.int64())})


def _simhash_bands(b: pa.Table) -> pa.Table:
    """Multi-index fan-out: C(8,2)=28 composite 16-bit keys per doc —
    a pair at Hamming distance <= 6 dirties <= 6 of the 8 byte-bands,
    so >= 2 stay clean and one composite key matches (zero misses)."""
    from .neardup import hamming_band_keys
    vals = b["simhash"].to_numpy().astype(np.uint64)
    ids = b["doc_id"].to_numpy()
    band_idx, keys = hamming_band_keys(vals, n_bands=8, composite=2)
    n, c = band_idx.shape
    return pa.table({
        "band": pa.array(band_idx.ravel()),
        "key": pa.array(keys.ravel()),
        "doc_id": pa.array(np.repeat(ids, c).astype(np.int64))})


def _hamming_filter(maxdist: int):
    def f(b: pa.Table) -> pa.Table:
        a = b["simhash_a"].to_numpy().astype(np.uint64)
        c = b["simhash_b"].to_numpy().astype(np.uint64)
        x = a ^ c
        d = np.unpackbits(x.view(np.uint8).reshape(len(x), 8),
                          axis=1).sum(axis=1) if len(x) else np.empty(0)
        keep = pa.array(d <= maxdist) if len(x) else pa.array([], pa.bool_())
        return b.select(["doc_a", "doc_b"]).filter(keep)
    return f


def q_simhash_near_dup(sf_dir):
    """SimHash-64 near-dup pairs at Hamming distance <= 6, fully
    distributed: signature stage → multi-index composite banding
    (guaranteed-recall, see _simhash_bands) → sort-shuffle pair
    expansion → distinct → verify by joining signatures back on
    doc_a/doc_b and popcounting xor.  Exact vs the DuckDB
    bit_count(xor) oracle because the banding has zero misses at
    d <= 6."""
    from .neardup import candidate_pairs, join_signatures
    sigs = (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(_sim64, batch_format="pyarrow")
            .materialize())
    # class fast path: a fingerprint IS one int64, so similarity-dense
    # corpora dedup into few classes and a block-wise xor-popcount of
    # the class table replaces banding+exchange+verify (exact; same
    # gates and fallback as the jaccard fast path)
    fast = _mask_class_near_dup(sigs, col="simhash", mode="hamming",
                                max_dist=6)
    if fast is not None:
        return fast
    triples = sigs.map_batches(_simhash_bands, batch_format="pyarrow")
    pairs = candidate_pairs(triples)
    joined = join_signatures(pairs, sigs, "simhash")
    return joined.map_batches(_hamming_filter(6), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# similarity search
# ---------------------------------------------------------------------------

_N_QUERIES = 20
_TOP_K = 5


def _embedding_matrix(b: pa.Table) -> np.ndarray:
    """Zero-copy-ish list<float> -> (n, dim) float64 via Arrow flatten
    (no per-row to_pylist)."""
    return _list_matrix(b["embedding"])


def _smallest_vec_rows(sf_dir: str, n: int):
    """First-n-by-vec_id sample WITHOUT a global sort (the old
    ``ds.sort("vec_id").limit(n)`` was an all-to-all shuffle to pick a
    sample): a streaming scan of ONLY the id column finds the n
    smallest ids, then a pushdown-filtered read (row-group stats
    pruning) fetches just those rows.  Returns (ids ascending,
    (n, dim) unnormalized embedding matrix)."""
    import pyarrow.dataset as pads
    dset = pads.dataset(f"{sf_dir}/embeddings.parquet")
    smallest = np.empty(0, dtype=np.int64)
    for batch in dset.to_batches(columns=["vec_id"]):
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        cand = np.concatenate([smallest, ids])
        k = min(n, len(cand))
        smallest = np.partition(cand, k - 1)[:k]
    q_ids = np.sort(smallest)[: min(n, len(smallest))]
    t = dset.to_table(columns=["vec_id", "embedding"],
                      filter=pads.field("vec_id") <= int(q_ids[-1]))
    order = np.argsort(t["vec_id"].to_numpy(zero_copy_only=False))
    order = order[: len(q_ids)]
    return q_ids, _embedding_matrix(t)[order]


def _load_query_matrix(sf_dir: str, n_queries: int):
    """Tiny query matrix built ONCE on the driver from a pruned read —
    never materializes the embedding column of the corpus (at
    10^9x64-d the old whole-table-per-actor read was ~500 GB each)."""
    q_ids, Q = _smallest_vec_rows(sf_dir, n_queries)
    Q = Q.copy()
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    return q_ids, Q


def _cosine_partial_topk(b: pa.Table, query) -> pa.Table:
    """Brute-force cosine: the (tiny, driver-built) query matrix rides
    one object-store ref; each DB batch emits its local top-k per query
    (partial), merged by the adaptive combine after — the scale
    pattern for 10^9-row ANN baselines."""
    q_ids, Q = _broadcast_get(query)
    E = _embedding_matrix(b)
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    vec_ids = b["vec_id"].to_numpy(zero_copy_only=False)
    S = Q @ E.T                           # (n_q, batch)
    qs, ns, sims = [], [], []
    k = min(_TOP_K + 1, S.shape[1])
    for qi in range(S.shape[0]):
        idx = np.argpartition(-S[qi], k - 1)[:k]
        for j in idx:
            if vec_ids[j] == q_ids[qi]:
                continue              # exclude self-match
            qs.append(int(q_ids[qi]))
            ns.append(int(vec_ids[j]))
            sims.append(float(S[qi, j]))
    return pa.table({"query_id": pa.array(qs, pa.int64()),
                     "neighbor_id": pa.array(ns, pa.int64()),
                     "sim": pa.array(sims, pa.float64())})


def _final_topk_merge(partials):
    """Final top-k combine over per-batch partial rows
    (query_id, neighbor_id, sim): one vectorized pandas sort+groupby
    per partition of a hash exchange on query_id — a single task while
    the partial table is small (it is bounded by
    O(n_blocks x queries x k)), split by query past that."""
    from .neardup import partition_apply

    def topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["sim", "neighbor_id"],
                                       ascending=[False, True],
                                       kind="stable")
        out = df.groupby("query_id", sort=True).head(_TOP_K).copy()
        out["rank"] = out.groupby("query_id").cumcount() + 1
        out = out.sort_values(["query_id", "rank"])
        return pa.table({
            "query_id": pa.array(out["query_id"].to_numpy(np.int64)),
            "rank": pa.array(out["rank"].to_numpy(np.int64)),
            "neighbor_id": pa.array(
                out["neighbor_id"].to_numpy(np.int64))})

    schema = pa.schema([("query_id", pa.int64()), ("rank", pa.int64()),
                        ("neighbor_id", pa.int64())])
    return partition_apply(partials, "query_id", topk, schema)


def q_embedding_knn(sf_dir):
    """ANN baseline: brute-force cosine top-5 for the first 20 vectors.
    Partial top-k per batch (tasks — no actor pool to spin up for a
    one-pass matmul; the tiny query matrix rides one object-store ref),
    adaptive final combine."""
    q_ids, Q = _load_query_matrix(sf_dir, _N_QUERIES)
    query = ray.put((np.asarray(q_ids), np.asarray(Q, dtype=np.float64)))
    partials = (_read(sf_dir, "embeddings", ["vec_id", "embedding"])
                .map_batches(_cosine_partial_topk, batch_format="pyarrow",
                             fn_kwargs={"query": query}))
    return _final_topk_merge(partials)


_NEARDUP_SHARDS = 4
_NEARDUP_TAU = 0.3
_SHARD_CACHE: dict = {}


def _load_index_shard(sf_dir: str, shard: int, n_shards: int):
    """1/B shard of the normalized embedding index, cached per worker
    PROCESS (Ray task workers are reused, so the load amortizes like
    an actor __init__ without reserving an actor pool — a union of B
    actor pools deadlocks on small CPU counts)."""
    key = (sf_dir, shard, n_shards)
    hit = _SHARD_CACHE.get(key)
    if hit is not None:
        return hit
    import pyarrow.dataset as pads
    t = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"],
        filter=pc.equal(pc.bit_wise_and(pads.field("vec_id"),
                                        n_shards - 1), shard))
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    E = _embedding_matrix(t)
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    _SHARD_CACHE.clear()   # one shard per worker heap
    _SHARD_CACHE[key] = (ids, E)
    return ids, E


def _near_dup_shard(b: pa.Table, sf_dir: str, shard: int,
                    n_shards: int) -> pa.Table:
    """Embedding near-dup, block-matrix form: this branch scores the
    streaming dataset against ONE 1/B index shard (vec_id % B ==
    shard); the union of the B branches covers all pairs exactly once
    (pair (a,b), a<b is emitted by the branch owning b).  Per-worker
    memory is O(N/B); total work is the same O(N^2) the exact answer
    requires, distributed instead of broadcast-whole-corpus."""
    sids, E_idx = _load_index_shard(sf_dir, shard, n_shards)
    ids = b["vec_id"].to_numpy(zero_copy_only=False)
    E = _embedding_matrix(b)
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    S = E @ E_idx.T
    ii, jj = np.where(S >= _NEARDUP_TAU)
    a, c = ids[ii], sids[jj]
    keep = c > a
    return pa.table({"vec_a": pa.array(a[keep].astype(np.int64)),
                     "vec_b": pa.array(c[keep].astype(np.int64))})


def q_embedding_near_dup(sf_dir):
    """Exact cosine near-dup (tau=0.3) as a union of B sharded-index
    branches — see _near_dup_shard for the partitioning contract."""
    assert _NEARDUP_SHARDS & (_NEARDUP_SHARDS - 1) == 0
    branches = []
    for s in range(_NEARDUP_SHARDS):
        branches.append(
            _read(sf_dir, "embeddings", ["vec_id", "embedding"])
            .map_batches(functools.partial(_near_dup_shard,
                                           sf_dir=sf_dir, shard=s,
                                           n_shards=_NEARDUP_SHARDS),
                         batch_format="pyarrow"))
    out = branches[0]
    for b in branches[1:]:
        out = out.union(b)
    return out


def _lloyd_centroids(X: np.ndarray, k: int, iters: int = 10) -> np.ndarray:
    """Deterministic k-means on a sample: first-k init, Lloyd updates."""
    C = X[:k].copy()
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for c in range(k):
            m = assign == c
            if m.any():
                v = X[m].mean(axis=0)
                C[c] = v / max(np.linalg.norm(v), 1e-12)
    return C


def _ivf_assign(b: pa.Table, centroids) -> pa.Table:
    """Stage 2 of IVF: assign every vector to its nearest learned
    centroid (centroids ride in the task args — a few KB, not the
    corpus)."""
    C = np.asarray(centroids, dtype=np.float64)
    E = _embedding_matrix(b)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    cell = np.argmax(En @ C.T, axis=1).astype(np.int64)
    return b.append_column("cell", pa.array(cell))


def _ivf_probe(b: pa.Table, queries, probes) -> pa.Table:
    """Stage 3: per batch, score only the queries probing this row's
    cell; emit partial top-k per query (merged by a grouped stage)."""
    q_ids = np.array([q["vec_id"] for q in queries])
    Q = np.array([q["embedding"] for q in queries], dtype=np.float64)
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    by_cell = {c: np.asarray(qidx, dtype=np.int64)
               for c, qidx in probes.items()}
    cells = b["cell"].to_numpy()
    ids = b["vec_id"].to_numpy(zero_copy_only=False)
    E = _embedding_matrix(b)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    qs, ns, sims = [], [], []
    for c in np.unique(cells):
        q_rows = by_cell.get(int(c))
        if q_rows is None or not len(q_rows):
            continue
        m = cells == c
        sub_ids = ids[m]
        S = Q[q_rows] @ En[m].T            # (nq_probing, n_cell_rows)
        k = min(_TOP_K + 1, S.shape[1])
        for r, qi in enumerate(q_rows):
            idx = np.argpartition(-S[r], k - 1)[:k]
            for j in idx:
                if sub_ids[j] == q_ids[qi]:
                    continue
                qs.append(int(q_ids[qi]))
                ns.append(int(sub_ids[j]))
                sims.append(float(S[r, j]))
    return pa.table({"query_id": pa.array(qs, pa.int64()),
                     "neighbor_id": pa.array(ns, pa.int64()),
                     "sim": pa.array(sims, pa.float64())})


def q_ann_ivf(sf_dir):
    """IVF ANN as a two-stage Ray pipeline (rows-only: approximate by
    construction): (1) learn k-means centroids from a small
    deterministic sample (driver-side Lloyd on <=256 rows — the
    standard IVF train-on-sample step); (2) distributed cell
    assignment via map_batches with broadcast centroids; (3) queries
    probe their 3 nearest cells; scoring runs distributed over the
    assigned dataset with per-batch partial top-k, merged by a final
    tiny groupby."""
    import pandas as pd
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    s_ids, X = _smallest_vec_rows(sf_dir, 256)   # no global sort
    X = X.copy()
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    C = _lloyd_centroids(X, k=8)
    queries = [{"vec_id": int(s_ids[i]), "embedding": X[i].tolist()}
               for i in range(min(_N_QUERIES, len(s_ids)))]
    probes: dict[int, list[int]] = {}
    for qi, q in enumerate(queries):
        v = np.asarray(q["embedding"], dtype=np.float64)
        v /= max(np.linalg.norm(v), 1e-12)
        for c in np.argsort(-(C @ v))[:3]:
            probes.setdefault(int(c), []).append(qi)

    partials = (ds
                .map_batches(functools.partial(_ivf_assign,
                                               centroids=C.tolist()),
                             batch_format="pyarrow")
                .map_batches(functools.partial(
                    _ivf_probe, queries=queries,
                    probes=probes), batch_format="pyarrow"))
    return _final_topk_merge(partials)


_LSH_TABLES = 8
_LSH_BITS = 6       # 2^6 buckets/table at test scale; grows with corpus


def _lsh_planes(d: int) -> np.ndarray:
    """Deterministic random hyperplanes, (tables, bits, d)."""
    rng = np.random.default_rng(0x15A4)
    return rng.standard_normal((_LSH_TABLES, _LSH_BITS, d))


def _lsh_sigs(En: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Packed sign-bit signatures, (tables, n) int64.  Bits derive
    from the planes' shape (never the module constant: the planes are
    built on the driver and shipped to workers, whose module state is
    their own)."""
    weights = (np.int64(1) << np.arange(planes.shape[1], dtype=np.int64))
    sigs = np.empty((planes.shape[0], En.shape[0]), dtype=np.int64)
    for t in range(planes.shape[0]):
        sigs[t] = ((En @ planes[t].T) > 0) @ weights
    return sigs


def _lsh_probe(b: pa.Table, q_ids, Q, planes) -> pa.Table:
    """One streaming pass: per batch, a cheap sign-bit matmul yields
    each row's signature per table; a row is a candidate for a query
    iff they collide in ANY table; exact cosine runs only on
    candidates, emitting partial top-k per query (merged by a tiny
    grouped stage).  No shuffle, no corpus materialization — the
    broadcast state is (queries + hyperplanes), a few KB."""
    ids = b["vec_id"].to_numpy(zero_copy_only=False)
    E = _embedding_matrix(b)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    planes = np.asarray(planes, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    q_ids = np.asarray(q_ids)
    bsigs = _lsh_sigs(En, planes)              # (T, n)
    qsigs = _lsh_sigs(Q, planes)               # (T, nq)
    cand = np.zeros((Q.shape[0], En.shape[0]), dtype=bool)
    for t in range(planes.shape[0]):
        cand |= qsigs[t][:, None] == bsigs[t][None, :]
    qs, ns, sims = [], [], []
    for qi in range(Q.shape[0]):
        m = cand[qi]
        if not m.any():
            continue
        sub_ids = ids[m]
        S = En[m] @ Q[qi]
        k = min(_TOP_K + 1, S.shape[0])
        idx = np.argpartition(-S, k - 1)[:k] if k < S.shape[0] \
            else np.arange(S.shape[0])
        for j in idx:
            if sub_ids[j] == q_ids[qi]:
                continue
            qs.append(int(q_ids[qi]))
            ns.append(int(sub_ids[j]))
            sims.append(float(S[j]))
    return pa.table({"query_id": pa.array(qs, pa.int64()),
                     "neighbor_id": pa.array(ns, pa.int64()),
                     "sim": pa.array(sims, pa.float64())})


def q_ann_lsh(sf_dir):
    """LSH-bucketed ANN (rows-only: approximate by construction):
    random-hyperplane signatures (OR over _LSH_TABLES tables of
    _LSH_BITS sign bits) gate which rows get exact cosine scoring —
    the classic Charikar/SimHash bucketing applied to ANN search.
    Scale contract: single streaming scan; per-batch extra cost is one
    (batch x bits) matmul per table; candidate fraction ~= T/2^bits of
    the corpus, tuned by _LSH_BITS.  For many queries (>~10^3) the
    bucketed-shuffle form (group rows by signature, join query buckets
    — the neardup.py machinery) beats this broadcast-probe form."""
    q_ids, Q = _load_query_matrix(sf_dir, _N_QUERIES)
    planes = _lsh_planes(Q.shape[1])
    partials = (_read(sf_dir, "embeddings", ["vec_id", "embedding"])
                .map_batches(functools.partial(_lsh_probe, q_ids=q_ids,
                                               Q=Q, planes=planes),
                             batch_format="pyarrow"))
    return _final_topk_merge(partials)


def _lsh_band_rows(b: pa.Table, q_ids, planes) -> pa.Table:
    """Signature fan-out for the bucketed LSH exchange: T (band, key,
    doc_id, is_q=0) rows per corpus row — one sign-bit matmul per
    table, raw embeddings (normalization can't change a sign) — plus a
    duplicate is_q=1 row set for rows whose id is a query (a query is
    also a corpus member: it must remain findable as OTHER queries'
    neighbor, exactly like the broadcast form)."""
    schema = pa.schema([("band", pa.int64()), ("key", pa.int64()),
                        ("doc_id", pa.int64()), ("is_q", pa.int8())])
    if not len(b):
        return schema.empty_table()
    ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    planes = np.asarray(planes, dtype=np.float64)
    sigs = _lsh_sigs(_embedding_matrix(b), planes)        # (T, n)
    T, n = sigs.shape
    parts = [pa.table({
        "band": np.repeat(np.arange(T, dtype=np.int64), n),
        "key": sigs.ravel(),
        "doc_id": np.tile(ids, T),
        "is_q": np.zeros(T * n, dtype=np.int8)}, schema=schema)]
    qmask = np.isin(ids, np.asarray(q_ids))
    if qmask.any():
        qn = int(qmask.sum())
        parts.append(pa.table({
            "band": np.repeat(np.arange(T, dtype=np.int64), qn),
            "key": sigs[:, qmask].ravel(),
            "doc_id": np.tile(ids[qmask], T),
            "is_q": np.ones(T * qn, dtype=np.int8)}, schema=schema))
    return pa.concat_tables(parts)


def _list_matrix(col) -> np.ndarray:
    """One shared Arrow list-column -> (n, dim) float64 conversion
    (combine_chunks -> flatten -> reshape; no per-row to_pylist)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.astype(np.float64, copy=False).reshape(len(arr), -1)


def _bipartite_cosine(b: pa.Table) -> pa.Table:
    """Exact cosine over joined candidate rows (doc_a=query,
    doc_b=corpus, embedding_a, embedding_b) → (query_id, neighbor_id,
    sim) — one vectorized normalize + row-dot per batch."""
    if not len(b):
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "neighbor_id": pa.array([], pa.int64()),
                         "sim": pa.array([], pa.float64())})
    A = _list_matrix(b["embedding_a"])
    B = _list_matrix(b["embedding_b"])
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    B /= np.linalg.norm(B, axis=1, keepdims=True)
    return pa.table({"query_id": b["doc_a"], "neighbor_id": b["doc_b"],
                     "sim": np.einsum("ij,ij->i", A, B)})


def q_ann_lsh_bucketed(sf_dir):
    """Bucketed-shuffle LSH ANN — the many-queries (>~10^3) scale path
    q_ann_lsh's docstring promises: corpus and query signature rows
    meet in co-located (table, signature) buckets through the neardup
    hash exchange; each bucket emits its query x corpus cross product
    (deduped across tables by the pair exchange); embeddings re-join
    the candidate table via the partitioned hash join
    (neardup.join_signatures — never a broadcast corpus); exact cosine
    + adaptive top-k combine.  The collision criterion (ANY-table
    signature match, same planes) is identical to q_ann_lsh's
    broadcast-probe form, so both produce the SAME top-k — pinned by
    TestAnnLshBucketed.  Driver-held state: the tiny query-id list.
    Rows-only entry: approximate by construction, like ann_lsh."""
    from . import neardup as nd
    q_ids, Q = _load_query_matrix(sf_dir, _N_QUERIES)
    planes = _lsh_planes(Q.shape[1])
    sig_ds = (_read(sf_dir, "embeddings", ["vec_id", "embedding"])
              .map_batches(functools.partial(_lsh_band_rows, q_ids=q_ids,
                                             planes=planes),
                           batch_format="pyarrow"))
    pairs = nd.bipartite_candidate_pairs(sig_ds)
    emb = (_read(sf_dir, "embeddings", ["vec_id", "embedding"])
           .map_batches(lambda t: t.rename_columns(["doc_id", "embedding"]),
                        batch_format="pyarrow"))
    joined = nd.join_signatures(pairs, emb, "embedding")
    scored = joined.map_batches(_bipartite_cosine, batch_format="pyarrow")
    return _final_topk_merge(scored)


# ---------------------------------------------------------------------------
# multimodal plumbing (synthetic pages; no image libs in this container)
# ---------------------------------------------------------------------------

def _decode_resize(b: pa.Table) -> pa.Table:
    """Image decode + 8x8 thumbnail features — the schema/batch
    plumbing is real; the codec is the stand-in codec
    (pyspider_ray.functions.imaging; real JPEG decode is stubbed there)."""
    from .functions.imaging import _block_mean_8x8, decode_image
    means, ws, hs = [], [], []
    for data in b["bytes"].to_pylist():
        px = decode_image(data)
        hs.append(px.shape[0])
        ws.append(px.shape[1])
        gray = px.astype(np.float64).mean(axis=2)
        means.append(int(round(float(_block_mean_8x8(gray).mean()))))
    return pa.table({"image_id": b["image_id"],
                     "w_obs": pa.array(ws, pa.int32()),
                     "h_obs": pa.array(hs, pa.int32()),
                     "fmt": b["fmt"],
                     "thumb_mean": pa.array(means, pa.int64())})


def _resize_encode(b: pa.Table, out_h: int = 64,
                   out_w: int = 64) -> pa.Table:
    """Image resize stage: decode → bilinear 64x64 → re-encode — the
    thumbnailing shape of a multimodal training pipeline (small batches
    because payloads are wide).  The resize kernel is REAL vectorized
    numpy (functions/imaging.py::resize_bilinear); only the exotic
    codecs are stubbed."""
    from .functions.imaging import decode_image, encode_image
    from .functions.imaging import resize_bilinear
    outs, ws, hs, means = [], [], [], []
    for data, fmt in zip(b["bytes"].to_pylist(), b["fmt"].to_pylist()):
        px = decode_image(data)
        hs.append(px.shape[0])
        ws.append(px.shape[1])
        small = resize_bilinear(px, out_h, out_w)
        means.append(int(round(float(small.mean()))))
        outs.append(encode_image(small, fmt))
    return pa.table({"image_id": b["image_id"],
                     "w_in": pa.array(ws, pa.int32()),
                     "h_in": pa.array(hs, pa.int32()),
                     "resized_mean": pa.array(means, pa.int64()),
                     "resized_bytes": binary_array(outs)})


def q_image_resize(sf_dir):
    """Multimodal resize/thumbnail pipeline over 200 synthetic pages
    (rows-only; deterministic from the seed): decode tasks → real
    bilinear 64x64 → re-encode, emitting the thumbnail payload
    plus its observed stats."""
    from .functions.synthweb import page_payload
    rows = [page_payload(i) for i in range(200)]
    table = pa.table({
        "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
        "bytes": binary_array([r["bytes"] for r in rows]),
        "fmt": pa.array([r["fmt"] for r in rows], pa.string()),
    })
    return (_rd().from_arrow(table)
            .map_batches(_resize_encode, batch_format="pyarrow",
                         batch_size=32)
            .select_columns(["image_id", "w_in", "h_in",
                             "resized_mean"]))


def q_image_decode(sf_dir):
    """Multimodal decode/feature pipeline over 200 synthetic pages
    (rows-only; deterministic from the seed)."""
    from .functions.synthweb import page_payload
    rows = [page_payload(i) for i in range(200)]
    table = pa.table({
        "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
        "bytes": binary_array([r["bytes"] for r in rows]),
        "fmt": pa.array([r["fmt"] for r in rows], pa.string()),
    })
    return (_rd().from_arrow(table)
            .map_batches(_decode_resize, batch_format="pyarrow",
                         batch_size=64))


def _phash_bands(b: pa.Table) -> pa.Table:
    """pHash multi-index fan-out: 12 bands (4x6 + 8x5 bits), composite
    pairs → C(12,2)=66 keys; d <= 10 dirties <= 10 bands so >= 2 stay
    clean — zero-miss banding at the verify threshold."""
    from .neardup import hamming_band_keys
    vals = b["simhash"].to_numpy().astype(np.uint64)
    ids = b["doc_id"].to_numpy()
    band_idx, keys = hamming_band_keys(vals, n_bands=12, composite=2)
    n, c = band_idx.shape
    return pa.table({
        "band": pa.array(band_idx.ravel()),
        "key": pa.array(keys.ravel()),
        "doc_id": pa.array(np.repeat(ids, c).astype(np.int64))})


def _fp64_pair_table(sigs, maxdist: int = 10):
    """Shared verified-pair tail for every 64-bit perceptual-signature
    family (image pHash / audio HK / video temporal): 12-band composite
    multi-index (zero misses at d <= 10) → hash-shuffle pair expansion
    → distinct → signature join → popcount verify."""
    from .neardup import candidate_pairs, join_signatures
    triples = sigs.map_batches(_phash_bands, batch_format="pyarrow")
    pairs = candidate_pairs(triples)
    joined = join_signatures(pairs, sigs, "simhash")
    return joined.map_batches(_hamming_filter(maxdist),
                              batch_format="pyarrow")


def _image_phash_name(d: int) -> str:
    return f"img-{d >> 1:012d}" + (":lossy" if d & 1 else "")


def _image_phash_pairs():
    """Verified pHash Hamming<=10 pair table over the synthetic page
    corpus + its lossy re-encodes, packed int ids (url_id*2 + lossy) —
    shared by q_image_phash_near_dup (labels the pairs) and
    q_image_phash_collapse (components + survivor filter)."""
    from .functions.imaging import fjpg_decode, fjpg_encode, phash64
    from .functions.synthweb import page_pixels

    def hashes(b: pa.Table) -> pa.Table:
        out = []
        for did in b["doc_id"].to_pylist():
            url_id, lossy = did >> 1, did & 1
            px = page_pixels(url_id)
            if lossy:
                px = fjpg_decode(fjpg_encode(px))
            v = phash64(px) & ((1 << 64) - 1)
            out.append(v - (1 << 64) if v >= (1 << 63) else v)
        return pa.table({"doc_id": b["doc_id"],
                         "simhash": pa.array(out, pa.int64())})

    doc_ids = [(i << 1) | v for i in range(100) for v in (0, 1)]
    base = _rd().from_arrow(pa.table({
        "doc_id": pa.array(doc_ids, pa.int64())})).repartition(4)
    sigs = base.map_batches(hashes, batch_format="pyarrow",
                            batch_size=50).materialize()
    return _fp64_pair_table(sigs, maxdist=10)


def q_image_phash_near_dup(sf_dir):
    """Image near-dup by perceptual-hash Hamming distance <= 10 over
    the synthetic page corpus + its lossy re-encodes (rows-only —
    DuckDB can't decode images): the image-payload analogue of SimHash
    dedup, running the SAME distributed banding pipeline
    (pyspider_ray.neardup): pHash tasks → 12-band composite
    multi-index (zero misses at d<=10) → sort-shuffle pair expansion →
    distinct → signature join → popcount verify.  Integer doc ids pack
    (url_id*2 + lossy) so the pair machinery's 32-bit packing applies;
    labels rehydrate at the end."""
    def label(b: pa.Table) -> pa.Table:
        return pa.table({
            "image_a": pa.array([_image_phash_name(d) for d in
                                 b["doc_a"].to_pylist()], pa.string()),
            "image_b": pa.array([_image_phash_name(d) for d in
                                 b["doc_b"].to_pylist()], pa.string())})

    return _image_phash_pairs().map_batches(label,
                                            batch_format="pyarrow")


def q_image_phash_collapse(sf_dir):
    """Image-corpus dedup end-to-end: pHash pair graph → connected
    components (the shared min-label engine) → keep one image per
    visual cluster (min packed id: the clean original beats its lossy
    re-encode) → losers drop through the co-partitioned membership
    filter.  The image analogue of near_dup_collapse — what a
    multimodal training pipeline runs before captioning (rows-only;
    pinned by pytest: every lossy twin of a clean original must
    collapse onto it)."""
    from .queries import _membership_filter
    comp = _components_from_pairs(_image_phash_pairs())

    def losers(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy().astype(np.int64)
        lab = b["component"].to_numpy().astype(np.int64)
        return pa.table({"drop_id": pa.array(ids[ids != lab])})

    universe = _rd().from_arrow(pa.table({
        "doc_id": pa.array([(i << 1) | v for i in range(100)
                            for v in (0, 1)], pa.int64())}))
    survivors = _membership_filter(
        universe, "doc_id",
        comp.map_batches(losers, batch_format="pyarrow"), "drop_id",
        negate=True)
    return survivors.map_batches(
        lambda b: pa.table({"image_id": pa.array(
            [_image_phash_name(d) for d in b["doc_id"].to_pylist()],
            pa.string())}),
        batch_format="pyarrow")


def _audio_feature_stage(b: pa.Table) -> pa.Table:
    """Audio decode + feature extraction: each batch decodes clips and
    emits the integer feature columns a filtering pipeline thresholds
    on.  The codec is the FAUD stand-in (functions/media.py) — swap
    soundfile/ffmpeg in here for real audio."""
    from .functions.media import audio_decode, audio_features
    rows = []
    for data in b["bytes"].to_pylist():
        sr, samples = audio_decode(data)
        rows.append(audio_features(samples, sr))
    cols = {"clip_id": b["clip_id"]}
    for k in ("n_samples", "sr", "rms_milli", "zero_crossings",
              "peak_milli", "n_frames", "frame_rms_mean_milli"):
        cols[k] = pa.array([r[k] for r in rows], pa.int64())
    return pa.table(cols)


def q_audio_features(sf_dir):
    """Multimodal audio pipeline (rows-only; deterministic from seeds):
    binary clips → decode tasks → integer feature columns."""
    from .functions.media import synth_audio
    clips = pa.table({
        "clip_id": pa.array([f"aud-{i:06d}" for i in range(100)],
                            pa.string()),
        "bytes": binary_array([synth_audio(i) for i in range(100)])})
    return (_rd().from_arrow(clips)
            .map_batches(_audio_feature_stage, batch_format="pyarrow",
                         batch_size=32))


def _audio_fp_stage(b: pa.Table) -> pa.Table:
    """Decode → 64-bit Haitsma-Kalker fingerprint; emits the signature
    column the banding exchange consumes."""
    from .functions.media import audio_decode, audio_fingerprint64
    out = []
    for data in b["bytes"].to_pylist():
        _, samples = audio_decode(data)
        v = audio_fingerprint64(samples)
        out.append(v - (1 << 64) if v >= (1 << 63) else v)
    return pa.table({"doc_id": b["doc_id"],
                     "simhash": pa.array(out, pa.int64())})


def _audio_fp_name(d: int) -> str:
    return f"aud-{d >> 1:06d}" + (":alt" if d & 1 else "")


def _media_clip_count() -> int:
    """Clip-corpus size for the audio/video near-dup legs — 100 by
    default; the 10x scale rehearsal (bench.py --scale-op) raises it
    via GRAFT_MEDIA_CLIPS so the fingerprint exchange can be measured
    at 10x clips with the same every-third-has-a-twin structure
    (planted pairs scale exactly linearly)."""
    return int(os.environ.get("GRAFT_MEDIA_CLIPS", "100"))


def q_audio_fp_near_dup(sf_dir):
    """Audio near-dup by Haitsma-Kalker fingerprint Hamming <= 10
    (rows-only — DuckDB can't FFT): the audio analogue of pHash dedup
    on the SAME distributed machinery — binary clips → decode +
    fingerprint tasks → 12-band composite multi-index (zero misses
    at d <= 10) → hash-shuffle pair expansion → distinct → signature
    join → popcount verify.  Corpus: 100 synthetic clips; every third
    also ships a perturbed re-master (0.8x gain + 1% noise) that the
    fingerprint must pair with its original — and nothing else
    (measured margin: twin distance <= 7, distinct clips >= 15).
    Packed ids (clip*2 + alt) keep the pair machinery's narrow path."""
    from .functions.media import (audio_decode, audio_encode,
                                  perturb_audio, synth_audio)

    def clips(b: pa.Table) -> pa.Table:
        payload = []
        for did in b["doc_id"].to_pylist():
            clip_id, alt = did >> 1, did & 1
            data = synth_audio(clip_id)
            if alt:
                sr, samples = audio_decode(data)
                data = audio_encode(perturb_audio(samples, clip_id), sr)
            payload.append(data)
        return pa.table({"doc_id": b["doc_id"],
                         "bytes": pa.array(payload, pa.binary())})

    doc_ids = [d for i in range(_media_clip_count())
               for d in ([i << 1, (i << 1) | 1] if i % 3 == 0
                         else [i << 1])]
    base = _rd().from_arrow(pa.table({
        "doc_id": pa.array(doc_ids, pa.int64())})).repartition(4)
    sigs = (base.map_batches(clips, batch_format="pyarrow",
                             batch_size=32)
            .map_batches(_audio_fp_stage, batch_format="pyarrow",
                         batch_size=32).materialize())

    def label(b: pa.Table) -> pa.Table:
        return pa.table({
            "clip_a": pa.array([_audio_fp_name(d) for d in
                                b["doc_a"].to_pylist()], pa.string()),
            "clip_b": pa.array([_audio_fp_name(d) for d in
                                b["doc_b"].to_pylist()], pa.string())})

    return _fp64_pair_table(sigs, maxdist=10).map_batches(
        label, batch_format="pyarrow")


def _video_fp_stage(b: pa.Table) -> pa.Table:
    """Decode → 64-bit temporal-spatial fingerprint."""
    from .functions.media import video_decode, video_fingerprint64
    out = []
    for data in b["bytes"].to_pylist():
        v = video_fingerprint64(video_decode(data))
        out.append(v - (1 << 64) if v >= (1 << 63) else v)
    return pa.table({"doc_id": b["doc_id"],
                     "simhash": pa.array(out, pa.int64())})


def _video_fp_name(d: int) -> str:
    return f"vid-{d >> 1:06d}" + (":alt" if d & 1 else "")


def q_video_fp_near_dup(sf_dir):
    """Video near-dup by temporal-spatial fingerprint Hamming <= 10
    (rows-only — DuckDB can't decode video): completes the multimodal
    near-dup triple (image pHash / audio HK / video) on the SAME
    distributed machinery via `_fp64_pair_table`.  Corpus: 100
    synthetic clips; every third also ships a re-encoded twin
    (+8 brightness, ±3 per-pixel noise) that must pair with its
    original — and nothing else (measured margin: twin distance <= 3,
    distinct clips >= 18).  Raw frames are the wide payload, so the
    decode stage runs small batches and only the (doc_id, int64
    signature) pair enters the exchange."""
    from .functions.media import (perturb_video, synth_video,
                                  video_decode, video_encode)

    def clips(b: pa.Table) -> pa.Table:
        payload = []
        for did in b["doc_id"].to_pylist():
            clip_id, alt = did >> 1, did & 1
            data = synth_video(clip_id)
            if alt:
                data = video_encode(
                    perturb_video(video_decode(data), clip_id))
            payload.append(data)
        return pa.table({"doc_id": b["doc_id"],
                         "bytes": pa.array(payload, pa.binary())})

    doc_ids = [d for i in range(_media_clip_count())
               for d in ([i << 1, (i << 1) | 1] if i % 3 == 0
                         else [i << 1])]
    base = _rd().from_arrow(pa.table({
        "doc_id": pa.array(doc_ids, pa.int64())})).repartition(4)
    sigs = (base.map_batches(clips, batch_format="pyarrow",
                             batch_size=16)
            .map_batches(_video_fp_stage, batch_format="pyarrow",
                         batch_size=16).materialize())

    def label(b: pa.Table) -> pa.Table:
        return pa.table({
            "clip_a": pa.array([_video_fp_name(d) for d in
                                b["doc_a"].to_pylist()], pa.string()),
            "clip_b": pa.array([_video_fp_name(d) for d in
                                b["doc_b"].to_pylist()], pa.string())})

    return _fp64_pair_table(sigs, maxdist=10).map_batches(
        label, batch_format="pyarrow")


def _frame_sample_stage(b: pa.Table, every: int = 4) -> pa.Table:
    """Video decode + frame sampling (every 4th frame) +
    per-sampled-frame mean/phash-style stats — the standard pre-filter
    before per-frame model inference.  Small batches: raw frames are
    the wide payload (batch_size sized so a batch per task fits the
    worker heap)."""
    from .functions.media import sample_frames, video_decode
    clip_ids, frame_idx, means = [], [], []
    for cid, data in zip(b["clip_id"].to_pylist(), b["bytes"].to_pylist()):
        frames = video_decode(data)
        sampled = sample_frames(frames, every)
        for j, fr in zip(range(0, len(frames), every), sampled):
            clip_ids.append(cid)
            frame_idx.append(j)
            means.append(int(round(float(fr.mean()))))
    return pa.table({"clip_id": pa.array(clip_ids, pa.string()),
                     "frame_idx": pa.array(frame_idx, pa.int64()),
                     "mean_px": pa.array(means, pa.int64())})


def q_video_frame_sample(sf_dir):
    """Multimodal video pipeline (rows-only): binary clips →
    decode tasks → every-4th-frame sample → per-frame stats."""
    from .functions.media import synth_video
    clips = pa.table({
        "clip_id": pa.array([f"vid-{i:06d}" for i in range(50)],
                            pa.string()),
        "bytes": binary_array([synth_video(i) for i in range(50)])})
    return (_rd().from_arrow(clips)
            .map_batches(_frame_sample_stage, batch_format="pyarrow",
                         batch_size=8))


_BPE_RE = re.compile(r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+")


def q_token_count_bpe(sf_dir):
    """BPE-ish tokenizer count (GPT-2-style coarse split: letter runs,
    digit runs, punctuation runs, each with optional leading space) —
    compiled once, vectorized per batch; oracle uses the same RE2/
    Python-compatible pattern."""
    def counts(b: pa.Table) -> pa.Table:
        n = [len(_BPE_RE.findall(t)) for t in b["text"].to_pylist()]
        return pa.table({"doc_id": b["doc_id"],
                         "n_bpe_tokens": pa.array(n, pa.int64())})
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(counts, batch_format="pyarrow"))


def q_winnow_fingerprint(sf_dir):
    """Winnowing document fingerprint: Rabin-style rolling hash over
    word 4-grams, then the minimum hash per sliding window of 5 — the
    classic local-fingerprint scheme for plagiarism/near-dup detection
    (Schleimer et al., SIGMOD'03).  Emits per-doc fingerprint count +
    xor-fold digest (order-independent).  ORACLE-CHECKED bit-exactly:
    the DuckDB side replays the identical uint64 polynomial in HUGEINT
    with one mod-2^64 fold (mod distributes over the +/* chain, so one
    fold equals numpy's per-op wraparound) and the same window-min /
    distinct / bit_xor pipeline via window functions."""
    B = np.uint64(1_000_003)

    def fp(b: pa.Table) -> pa.Table:
        n_fp, digest = [], []
        for text in b["text"].to_pylist():
            wh = _word_hashes(text.split())   # positional, not set
            if len(wh) < 4:
                n_fp.append(0)
                digest.append(0)
                continue
            # rolling 4-gram hash, vectorized over positions
            g = (wh[:-3] * B**np.uint64(3) + wh[1:-2] * B**np.uint64(2)
                 + wh[2:-1] * B + wh[3:])
            if len(g) >= 5:
                w = np.lib.stride_tricks.sliding_window_view(g, 5)
                sel = np.unique(w.min(axis=1))
            else:
                sel = np.asarray([g.min()], dtype=np.uint64)
            n_fp.append(int(len(sel)))
            d = int(np.bitwise_xor.reduce(sel))
            digest.append(d - (1 << 64) if d >= (1 << 63) else d)
        return pa.table({"doc_id": b["doc_id"],
                         "n_fingerprints": pa.array(n_fp, pa.int64()),
                         "digest": pa.array(digest, pa.int64())})
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(fp, batch_format="pyarrow"))


def _kmeans_centroids(sf_dir, ds, k: int, iters: int) -> np.ndarray:
    """Map-reduce Lloyd training shared by q_kmeans_embeddings and
    q_semdedup: each batch computes PARTIAL per-cluster (sum, count)
    against broadcast centroids; the driver combines the tiny partials
    and updates.  Per iteration the corpus streams once; nothing but
    (k x dim) matrices ever sits on the driver.  Deterministic init:
    first k vectors by vec_id (pruned pushdown scan, no shuffle)."""
    _, C = _smallest_vec_rows(sf_dir, k)
    C = C.copy()
    C /= np.linalg.norm(C, axis=1, keepdims=True)

    def partials(b: pa.Table, centroids) -> pa.Table:
        Cm = np.asarray(centroids, dtype=np.float64)
        E = _embedding_matrix(b)
        En = E / np.linalg.norm(E, axis=1, keepdims=True)
        assign = np.argmax(En @ Cm.T, axis=1)
        sums = np.zeros_like(Cm)
        np.add.at(sums, assign, En)
        counts = np.bincount(assign, minlength=len(Cm))
        return pa.table({
            "cluster": pa.array(np.arange(len(Cm), dtype=np.int64)),
            "vec_sum": pa.array(sums.tolist(),
                                pa.list_(pa.float64())),
            "n": pa.array(counts.astype(np.int64))})

    for _ in range(iters):
        parts = ds.map_batches(
            functools.partial(partials, centroids=C.tolist()),
            batch_format="pyarrow").take_all()
        sums = np.zeros_like(C)
        counts = np.zeros(k, dtype=np.int64)
        for p in parts:
            sums[p["cluster"]] += np.asarray(p["vec_sum"])
            counts[p["cluster"]] += p["n"]
        for c in range(k):
            if counts[c]:
                v = sums[c] / counts[c]
                C[c] = v / max(np.linalg.norm(v), 1e-12)
    return C


def q_kmeans_embeddings(sf_dir):
    """Distributed k-means over the embedding column (rows-only: an
    iterative algorithm with no SQL equivalent) — training in
    `_kmeans_centroids`, then one streaming assignment pass."""
    K, ITERS = 8, 5
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C = _kmeans_centroids(sf_dir, ds, K, ITERS)

    def assign_final(b: pa.Table, centroids) -> pa.Table:
        Cm = np.asarray(centroids, dtype=np.float64)
        E = _embedding_matrix(b)
        En = E / np.linalg.norm(E, axis=1, keepdims=True)
        return pa.table({
            "vec_id": b["vec_id"],
            "cluster": pa.array(np.argmax(En @ Cm.T, axis=1)
                                .astype(np.int64))})

    return ds.map_batches(functools.partial(assign_final,
                                            centroids=C.tolist()),
                          batch_format="pyarrow")


_SEMDEDUP_K = 8
_SEMDEDUP_TAU = 0.3   # the same cosine near-dup threshold
#                       embedding_near_dup uses on this synthetic
#                       geometry (the paper's 0.95 is calibrated to
#                       real text encoders, where near-dups live in a
#                       much tighter cone)


def _semdedup_group(g: pa.Table, centroids, tau) -> pa.Table:
    """SemDeDup's within-cluster greedy pass: members ordered by
    ASCENDING cosine similarity to their centroid (the paper keeps the
    point farthest from the centroid out of each duplicate set; ties
    break on vec_id), each member survives iff its max similarity to
    an already-kept member is <= tau.  O(m^2) vector ops against one
    (m x dim) matrix — the k-means partition is what keeps m small."""
    Cm = np.asarray(centroids, dtype=np.float64)
    ids = g["vec_id"].to_numpy()
    cluster = int(g["cluster"][0].as_py())
    E = _embedding_matrix(g)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    cen_sim = En @ Cm[cluster]
    order = np.lexsort((ids, cen_sim))
    kept = np.zeros((0, En.shape[1]))
    keep = np.zeros(len(ids), dtype=np.int64)
    for i in order:
        if not len(kept) or (kept @ En[i]).max() <= tau:
            keep[i] = 1
            kept = np.vstack([kept, En[i]])
    return pa.table({"vec_id": pa.array(ids),
                     "cluster": pa.array(
                         np.full(len(ids), cluster, dtype=np.int64)),
                     "keep": pa.array(keep)})


def q_semdedup(sf_dir):
    """SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning
    at web-scale through semantic deduplication"): k-means cluster the
    embedding space, then dedup ONLY within clusters — pairs in
    different clusters are never compared, which is what makes
    semantic dedup tractable at corpus scale.  Rows-only (iterative +
    float geometry; pinned by a pure-numpy mirror in pytest).

    Scale shape: Lloyd training streams the corpus k-means-style
    (driver holds k x dim); assignment is one map_batches against
    broadcast centroids; the ONLY shuffle co-partitions vectors by
    cluster id, and each group runs the paper's greedy
    farthest-from-centroid-first pass against an (m x dim) slab.
    Skewed clusters bound m — at real scale k scales with N (the
    paper uses k ~ sqrt(N)) so groups stay near-constant."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C = _kmeans_centroids(sf_dir, ds, _SEMDEDUP_K, 5)

    def assign(b: pa.Table, centroids) -> pa.Table:
        Cm = np.asarray(centroids, dtype=np.float64)
        E = _embedding_matrix(b)
        En = E / np.linalg.norm(E, axis=1, keepdims=True)
        return b.append_column(
            "cluster", pa.array(np.argmax(En @ Cm.T, axis=1)
                                .astype(np.int64)))

    from .neardup import group_apply
    assigned = ds.map_batches(functools.partial(assign,
                                                centroids=C.tolist()),
                              batch_format="pyarrow")
    # sort-free hash exchange with a declared schema: k clusters is
    # far below Ray's sort partition count, and sort-based map_groups
    # emits schema-less empty blocks for the surplus partitions
    return group_apply(
        assigned, "cluster",
        functools.partial(_semdedup_group, centroids=C.tolist(),
                          tau=_SEMDEDUP_TAU),
        pa.schema([("vec_id", pa.int64()), ("cluster", pa.int64()),
                   ("keep", pa.int64())]))


def q_crawl_order(sf_dir):
    """Frontier emission order on a 200-id synthetic web (rows-only;
    the ordering contract itself is pinned by the pytest suite)."""
    import shutil
    from .pipelines import CrawlConfig, CrawlPipeline
    out = "/tmp/pyspider_ray_q_crawl"
    shutil.rmtree(out, ignore_errors=True)
    pipe = CrawlPipeline(CrawlConfig(total=200, n_seeds=8, n_shards=4,
                                     use_ray=False, out_dir=out,
                                     loop_limit=100))
    pipe.seed()
    pipe.run(max_rounds=100)
    order = pipe.emitted_order()
    return pa.table({"seq": pa.array(range(len(order)), pa.int64()),
                     "taskid": pa.array(order, pa.string())})


# ---------------------------------------------------------------------------
# dedup clustering / keep-best / corpus vocabulary
# ---------------------------------------------------------------------------

def q_near_dup_components(sf_dir):
    """Connected components over the MinHash-Jaccard near-dup pair
    graph — the canonical "collapse each duplicate CLUSTER to one
    representative" operator (pairs alone under-merge: A~B and B~C
    must land in one cluster even when A~C misses the tau cut).

    Distributed min-label propagation over the verified pair table:
    labels start as each node's own id; every round attaches both
    endpoints' labels onto the edges (partitioned hash joins —
    ``neardup.attach_column``), fans out (node, neighbor_label)
    candidates, and reduces per node with the manual groupby-min
    exchange (``neardup.min_by_key``).  Labels are monotone
    non-increasing, so the global int64 label sum is a convergence
    certificate computed as a streaming aggregate — no driver-side
    label table at any point.  Rounds scale with component DIAMETER
    (near-dup clusters are shallow; a web-scale corpus with adversarial
    chain components would swap this loop for large-star/small-star
    [Kiveris et al., "Connected Components in MapReduce and Beyond"],
    same exchange machinery).

    Output: (doc_id, component) for every doc in the pair graph,
    component = min doc_id reachable.  Oracle: DuckDB recursive CTE.
    """
    return _components_from_pairs(q_jaccard_near_dup(sf_dir))


def _components_from_pairs(pair_ds):
    """Min-label propagation over any (doc_a, doc_b) int64 pair table
    — the components engine behind near_dup_components (Jaccard graph)
    and image_phash_collapse (pHash Hamming graph)."""
    from .neardup import attach_column, min_by_key
    pairs = pair_ds.materialize()
    _empty = pa.table({"doc_id": pa.array([], pa.int64()),
                       "component": pa.array([], pa.int64())})
    if pairs.count() == 0:                 # no near-dups: empty graph
        return _rd().from_arrow(_empty)

    def _both_endpoints(b: pa.Table) -> pa.Table:
        ids = np.concatenate([b["doc_a"].to_numpy(),
                              b["doc_b"].to_numpy()]).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids),
                         "label": pa.array(ids)})

    labels = min_by_key(
        pairs.map_batches(_both_endpoints, batch_format="pyarrow"),
        "doc_id", "label")

    def _propose(b: pa.Table) -> pa.Table:
        """Edge fan-out: each endpoint proposes its label to the other
        (plus keeps its own) — min over proposals is the new label."""
        a = b["doc_a"].to_numpy().astype(np.int64)
        c = b["doc_b"].to_numpy().astype(np.int64)
        la = b["label_a"].to_numpy().astype(np.int64)
        lb = b["label_b"].to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": pa.array(np.concatenate([a, a, c, c])),
            "label": pa.array(np.concatenate([la, lb, lb, la]))})

    def _label_sum(lds) -> int:
        return sum(r["s"] for r in lds.map_batches(
            lambda t: pa.table({"s": pa.array(
                [int(t["label"].to_numpy().sum())], pa.int64())}),
            batch_format="pyarrow").take_all())

    prev = _label_sum(labels)
    for _ in range(64):                    # diameter cap, loud on trip
        e = attach_column(pairs, labels, "label", "doc_a", "label_a")
        e = attach_column(e, labels, "label", "doc_b", "label_b")
        labels = min_by_key(
            e.map_batches(_propose, batch_format="pyarrow"),
            "doc_id", "label")
        cur = _label_sum(labels)
        if cur == prev:
            break
        prev = cur
    else:
        raise RuntimeError("components: no convergence in 64 rounds "
                           "(component diameter > 64 — switch to "
                           "large-star/small-star)")
    return labels.map_batches(
        lambda t: t.rename_columns(["doc_id", "component"]),
        batch_format="pyarrow")


def q_near_dup_collapse(sf_dir):
    """End-to-end corpus dedup: MinHash-Jaccard pairs → connected
    components → keep ONE representative per cluster (the min doc_id,
    i.e. the component label) → anti-join the losers out of the
    corpus.  Returns the surviving doc_ids — the actual "write the
    deduplicated corpus" operator a training pipeline runs.

    Composition, all existing machinery: the component table marks
    losers (member != label) with one vectorized compare, and the
    corpus drops them through the two-sided hash-exchange
    membership filter — per-task state stays O(partition); the loser
    set is never broadcast or driver-materialized."""
    from .queries import _membership_filter
    comp = q_near_dup_components(sf_dir)

    def losers(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy().astype(np.int64)
        lab = b["component"].to_numpy().astype(np.int64)
        return pa.table({"drop_id": pa.array(ids[ids != lab])})

    return _membership_filter(
        _read(sf_dir, "documents", ["doc_id"]), "doc_id",
        comp.map_batches(losers, batch_format="pyarrow"), "drop_id",
        negate=True)


def q_dedup_keep_best(sf_dir):
    """Keep-best dedup: per word-SET duplicate group, keep the single
    best row (longest text, ties to the smallest doc_id) — the
    quality-aware variant of first-wins dedup a training corpus
    actually wants.

    Combiner pattern: each batch reduces to its local best-per-group
    first (one lexsort, no Python per-group loop), so the groupby that
    follows moves one row per (batch, group) — on a dup-heavy corpus
    orders of magnitude less than the input — and the same lexsort
    runs once more per partition of the hash exchange on ``set_fp``,
    where every group is whole."""
    def best(fps: np.ndarray, b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy().astype(np.int64)
        nch = b["n_chars"].to_numpy().astype(np.int64)
        order = np.lexsort((ids, -nch, fps))
        first = np.ones(len(order), dtype=bool)
        f = fps[order]
        first[1:] = f[1:] != f[:-1]
        keep = order[first]
        return pa.table({"set_fp": pa.array(fps[keep]),
                         "doc_id": pa.array(ids[keep]),
                         "n_chars": pa.array(nch[keep])})

    def best_local(b: pa.Table) -> pa.Table:
        return best(np.array([hashlib.md5(" ".join(sorted(set(t.split())))
                                          .encode()).hexdigest()
                              for t in b["text"].to_pylist()]), b)

    def best_global(t: pa.Table) -> pa.Table:
        return best(t["set_fp"].to_numpy(zero_copy_only=False), t)

    from .neardup import partition_apply
    return partition_apply(
        _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
        .map_batches(best_local, batch_format="pyarrow"),
        "set_fp", best_global,
        pa.schema([("set_fp", pa.string()), ("doc_id", pa.int64()),
                   ("n_chars", pa.int64())]))


def _word_counts(docs):
    """(word, n) whitespace-token counts over a Dataset's ``text``
    column: per-batch ``value_counts``, summed per word by the
    ``combine`` aggregate."""
    import pandas as pd

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        vc = (b["text"].str.strip().str.split(r"\s+")
              .explode().value_counts())
        return pd.DataFrame({"word": vc.index.astype(str),
                             "n": vc.values.astype("int64")})

    return combine(docs.map_batches(counts, batch_format="pandas"),
                   ["word"], {"n": "sum"},
                   pa.schema([("word", pa.string()), ("n", pa.int64())]))


def q_vocab_topk(sf_dir):
    """Corpus vocabulary top-k: the 100 most frequent words by TOTAL
    occurrence count (the stats pass behind tokenizer training /
    stopword induction).  Combiner pattern: per-batch value_counts
    shrinks each batch to its distinct words (Zipf: vocabulary ≪
    tokens), the groupby-sum moves only those partials, and the final
    sort ranks the already-tiny vocabulary table."""
    return (_word_counts(_read(sf_dir, "documents", ["text"]))
            .sort(["n", "word"], descending=[True, False])
            .limit(100))


# ---------------------------------------------------------------------------
# BPE tokenizer training (Sennrich et al. 2016)
# ---------------------------------------------------------------------------

_BPE_MERGES = 8
_BPE_MAX_VOCAB = 1_000_000    # driver-loop envelope on distinct words


def _bpe_word_syms(word: str) -> list[str]:
    return list(word) + ["</w>"]


def _bpe_merges_driver(freq: dict[str, int], k: int) -> list[tuple]:
    """Textbook BPE merge learning over the word-frequency table:
    k rounds of (count adjacent symbol pairs weighted by word
    frequency, merge the heaviest — ties to the lexicographically
    smallest (left, right) pair).  O(vocab) per round, corpus never
    touched again."""
    vocab = [( _bpe_word_syms(w), n) for w, n in freq.items()]
    out = []
    for rank in range(k):
        pc: dict[tuple, int] = {}
        for syms, n in vocab:
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pc[p] = pc.get(p, 0) + n
        if not pc:
            break
        (left, right), weight = min(
            pc.items(), key=lambda kv: (-kv[1], kv[0]))
        out.append((rank, left, right, weight))
        merged = left + right
        for syms, _ in vocab:
            i = 0
            while i < len(syms) - 1:
                if syms[i] == left and syms[i + 1] == right:
                    syms[i:i + 2] = [merged]
                else:
                    i += 1
    return out


def _bpe_merges_distributed(freq_ds, k: int) -> list[tuple]:
    """Fallback past the vocab envelope: the frequency table stays a
    Dataset of (syms: list<string>, n).  Each round, per-batch pair
    Counters (weighted by n) feed one vocabulary-sized groupby-sum;
    the global argmax is a sort + limit(1) on the tiny pair table
    (ties via the NUL-joined pair key, whose string order equals the
    (left, right) tuple order since NUL sorts below every symbol
    char); the winning merge broadcasts into a rewrite pass and the
    table re-materializes for the next round.  The corpus itself is
    read exactly once, before round 0."""
    def pair_counts(b: pa.Table) -> pa.Table:
        pc: dict[str, int] = {}
        for syms, n in zip(b["syms"].to_pylist(), b["n"].to_numpy()):
            for i in range(len(syms) - 1):
                p = syms[i] + "\x00" + syms[i + 1]
                pc[p] = pc.get(p, 0) + int(n)
        return pa.table({"pair": pa.array(list(pc.keys()), pa.string()),
                         "w": pa.array(list(pc.values()), pa.int64())})

    def apply_merge(b: pa.Table, left, right) -> pa.Table:
        merged = left + right
        rows = []
        for syms in b["syms"].to_pylist():
            i = 0
            while i < len(syms) - 1:
                if syms[i] == left and syms[i + 1] == right:
                    syms[i:i + 2] = [merged]
                else:
                    i += 1
            rows.append(syms)
        return pa.table({"syms": pa.array(rows,
                                          pa.list_(pa.string())),
                         "n": b["n"]})

    out = []
    ds = freq_ds
    for rank in range(k):
        top = (combine(ds.map_batches(pair_counts, batch_format="pyarrow"),
                       ["pair"], {"w": "sum"},
                       pa.schema([("pair", pa.string()), ("w", pa.int64())]))
               .sort(["w", "pair"], descending=[True, False])
               .limit(1).take_all())
        if not top:
            break
        left, right = top[0]["pair"].split("\x00")
        out.append((rank, left, right, int(top[0]["w"])))
        ds = ds.map_batches(
            functools.partial(apply_merge, left=left, right=right),
            batch_format="pyarrow").materialize()
    return out


def _bpe_train_merges(sf_dir) -> list[tuple]:
    """Shared trainer behind q_bpe_train / q_bpe_encode: one
    corpus-sized word-frequency groupby-sum, then the merge loop over
    the vocabulary-sized table (driver under `_BPE_MAX_VOCAB`, the
    distributed rewrite rounds past it)."""
    # vocab-sized and materialized: count() and the path taken both
    # read it, never recompute
    freq_ds = _word_counts(_read(sf_dir, "documents", ["text"]))

    if freq_ds.count() <= _BPE_MAX_VOCAB:
        freq = {r["word"]: int(r["n"])
                for b in freq_ds.iter_batches(batch_format="pandas",
                                              batch_size=None)
                for r in b.to_dict("records")}
        return _bpe_merges_driver(freq, _BPE_MERGES)

    def to_syms(b: pa.Table) -> pa.Table:
        return pa.table({
            "syms": pa.array([_bpe_word_syms(w)
                              for w in b["word"].to_pylist()],
                             pa.list_(pa.string())),
            "n": b["n"]})
    return _bpe_merges_distributed(
        freq_ds.map_batches(to_syms, batch_format="pyarrow"),
        _BPE_MERGES)


def _bpe_apply_merges(word: str, merges: list[tuple]) -> list[str]:
    """Encode one word with a learned merge table: replay the merges
    in rank order with the trainer's exact rewrite rule (exhaustive
    left-to-right with re-examination at the merge site), so
    encode(word) equals the symbol state the training vocab would hold
    after those merges."""
    syms = _bpe_word_syms(word)
    for _rank, left, right, *_ in merges:
        i = 0
        while i < len(syms) - 1:
            if syms[i] == left and syms[i + 1] == right:
                syms[i:i + 2] = [left + right]
            else:
                i += 1
    return syms


def _bpe_encode(b: "pd.DataFrame", model) -> "pd.DataFrame":
    """Encode stage: ``model`` is one object-store ref to the merge
    table (tiny, k rows) and an empty word->token-count dict.  Both are
    fetched once per worker process, so the dict fills across every
    batch the process encodes: the per-batch cost is one encode per
    DISTINCT word (Zipf: the cache hit rate approaches 1 fast),
    everything else vectorized pandas."""
    import pandas as pd
    merges, cache = _broadcast_get(model)
    words = b["text"].str.strip().str.split(r"\s+")
    ex = words.explode()
    lut = {}
    for w in pd.unique(ex.dropna()):
        n = cache.get(w)
        if n is None:
            n = cache[w] = len(_bpe_apply_merges(w, merges))
        lut[w] = n
    per_tok = ex.map(lut).fillna(0).astype("int64")
    row = np.repeat(np.arange(len(b)),
                    words.str.len().to_numpy().astype(np.int64))
    n_bpe = np.bincount(row, weights=per_tok.to_numpy(),
                        minlength=len(b)).astype(np.int64)
    # initial symbols per word = chars + </w>; merges applied =
    # initial - final (each merge removes exactly one symbol)
    per_init = (ex.str.len().fillna(0) + 1).to_numpy()
    n_init = np.bincount(row, weights=per_init,
                         minlength=len(b)).astype(np.int64)
    return pd.DataFrame({
        "doc_id": b["doc_id"],
        "n_tokens_bpe": n_bpe,
        "n_merges_applied": n_init - n_bpe})


def q_bpe_encode(sf_dir):
    """BPE tokenization apply — the encode pass every training
    pipeline actually runs after `bpe_train`: learn the merge table
    once (vocabulary-sized work), broadcast it, and stream the corpus
    through encode tasks emitting per-doc BPE token
    counts.  Rows-only (the token stream depends on the learned
    merges; pinned by pytest: distributed == an independent
    sequential encoder over the same corpus, plus the exact
    symbol-conservation invariant n_tokens_bpe = initial_symbols -
    n_merges_applied).

    Scale shape: training is q_bpe_train's one groupby-sum; encode is
    ONE streaming map_batches pass with per-process distinct-word
    caching — no shuffle, merges ride one object-store ref fetched
    once per worker process."""
    merges = [tuple(m) for m in _bpe_train_merges(sf_dir)]
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(_bpe_encode, batch_format="pandas",
                         fn_kwargs={"model": ray.put((merges, {}))}))


def q_bpe_token_counts(sf_dir):
    """Corpus BPE token frequencies — the vocabulary histogram the
    tokenizer ships with (subword-nmt's get_vocab over the ENCODED
    corpus).  Rows-only (merge-table dependent; pinned by pytest
    against a sequential mirror + sum(n) == sum(n_tokens_bpe)).

    Scale shape: per-batch token Counters over the word-frequency
    TABLE (vocabulary-sized, not corpus-sized — each distinct word is
    encoded once, weighted by its count), one vocabulary-sized
    groupby-sum."""
    merges = _bpe_train_merges(sf_dir)

    def encode_words(b: pa.Table) -> pa.Table:
        toks: dict[str, int] = {}
        for w, n in zip(b["word"].to_pylist(), b["n"].to_numpy()):
            for t in _bpe_apply_merges(w, merges):
                toks[t] = toks.get(t, 0) + int(n)
        return pa.table({"token": pa.array(list(toks), pa.string()),
                         "n": pa.array(list(toks.values()), pa.int64())})

    return combine(
        _word_counts(_read(sf_dir, "documents", ["text"]))
        .map_batches(encode_words, batch_format="pyarrow"),
        ["token"], {"n": "sum"},
        pa.schema([("token", pa.string()), ("n", pa.int64())]))


def q_bpe_train(sf_dir):
    """Distributed BPE tokenizer training (Sennrich et al. 2016,
    "Neural Machine Translation of Rare Words with Subword Units"):
    learn the first 8 merges of a byte-pair-encoding vocabulary over
    the corpus.  Rows-only (iterative argmax; pinned by pytest: the
    distributed fallback must equal the driver loop exactly, plus a
    hand-traced corpus).

    Scale shape: the ONLY corpus-sized work is the word-frequency
    combiner + groupby-sum (the vocab_topk pattern — Zipf keeps the
    output vocabulary-sized).  Under `_BPE_MAX_VOCAB` the merge loop
    runs driver-side over the tiny frequency table (the textbook
    algorithm); past it, each round is one vocabulary-sized
    groupby-sum + sort/limit(1) + broadcast rewrite, the corpus never
    re-read.  Output: (rank, left, right, weight), identical on both
    paths."""
    merges = _bpe_train_merges(sf_dir)
    return pa.table({
        "rank": pa.array([m[0] for m in merges], pa.int64()),
        "left": pa.array([m[1] for m in merges], pa.string()),
        "right": pa.array([m[2] for m in merges], pa.string()),
        "weight": pa.array([m[3] for m in merges], pa.int64())})


def q_doc_top_terms(sf_dir):
    """Per-document top-3 terms by term frequency (ties to the
    alphabetically-first word) with the GLOBAL document frequency
    attached — the stats kernel under TF-IDF scoring / keyword
    extraction.

    Scale shape: term frequency and the top-3 cut are BATCH-LOCAL (a
    doc lives wholly in its batch; selection orders by tf alone), so
    the expensive side never shuffles.  Document frequency is a
    combiner-pattern aggregate over per-batch distinct (word, doc)
    pairs, vocabulary-sized output (Zipf: ≪ corpus), summed per word
    by the hash exchange with a declared schema.  The df attach is a
    partitioned hash join on the md5-64 word key through
    ``neardup.attach_column`` — the same word keying the jaccard
    machinery uses; no broadcast, no driver materialization."""
    from .neardup import attach_column

    def top3(b: pa.Table) -> pa.Table:
        ids, words, tfs, whs = [], [], [], []
        for doc_id, t in zip(b["doc_id"].to_pylist(),
                             b["text"].to_pylist()):
            ws, cs = np.unique(np.array(t.split()), return_counts=True)
            order = np.lexsort((ws, -cs))[:3]
            for i in order:
                ids.append(doc_id)
                words.append(str(ws[i]))
                tfs.append(int(cs[i]))
        whs = _word_hashes(words).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "word": pa.array(words, pa.string()),
                         "tf": pa.array(tfs, pa.int64()),
                         "doc_a": pa.array(whs)})

    def df_partial(b: pa.Table) -> pa.Table:
        whs, cnt = [], []
        for t in b["text"].to_pylist():
            whs.append(_word_hashes(sorted(set(t.split()))))
        if whs:
            u, c = np.unique(np.concatenate(whs), return_counts=True)
            whs, cnt = u.astype(np.int64), c.astype(np.int64)
        return pa.table({"doc_id": pa.array(whs, pa.int64()),
                         "df": pa.array(cnt, pa.int64())})

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).materialize()
    dfs = combine(
        docs.map_batches(df_partial, batch_format="pyarrow"), ["doc_id"],
        {"df": "sum"},
        pa.schema([("doc_id", pa.int64()), ("df", pa.int64())]))
    top = docs.map_batches(top3, batch_format="pyarrow")
    out = attach_column(top, dfs, "df", "doc_a", "df")
    return out.map_batches(
        lambda t: t.select(["doc_id", "word", "tf", "df"]),
        batch_format="pyarrow")


def q_sample_per_source(sf_dir):
    """Deterministic stratified subsample: per source, keep the 10
    docs that sort first by md5(doc_id) — salted-hash reservoir
    sampling, the standard per-domain rebalancing op for a training
    mix.  Combiner pattern: each batch keeps its LOCAL top-10 per
    source first, so the groupby moves ≤ 10 rows per (batch, source)
    instead of the corpus."""
    def local_top(b: pa.Table) -> pa.Table:
        src = np.array(b["source"].to_pylist())
        ids = b["doc_id"].to_numpy().astype(np.int64)
        keys = np.array([hashlib.md5(str(i).encode()).hexdigest()
                         for i in ids])
        order = np.lexsort((ids, keys, src))
        src_s, ids_s, keys_s = src[order], ids[order], keys[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = src_s[1:] != src_s[:-1]
        rank = np.arange(len(order)) - \
            np.maximum.accumulate(np.where(new, np.arange(len(order)), 0))
        keep = rank < 10
        return pa.table({"source": pa.array(src_s[keep]),
                         "doc_id": pa.array(ids_s[keep]),
                         "md5k": pa.array(keys_s[keep])})

    def final_top(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy().astype(np.int64)
        keys = np.array(g["md5k"].to_pylist())
        keep = np.lexsort((ids, keys))[:10]
        return g.take(pa.array(np.sort(keep))).select(["source", "doc_id"])

    from .neardup import group_apply
    return group_apply(
        _read(sf_dir, "documents", ["doc_id", "source"])
        .map_batches(local_top, batch_format="pyarrow"),
        "source", final_top,
        pa.schema([("source", pa.string()), ("doc_id", pa.int64())]))


def q_source_token_stats(sf_dir):
    """Per-source corpus accounting: doc count, total whitespace
    tokens, distinct languages — the mix table a data curator reads
    before weighting sources.  Per-batch partial aggregation keyed on
    (source, lang) shrinks each batch to its distinct key pairs; the
    groupby then moves partials only."""
    def partial(b: pa.Table) -> pa.Table:
        src = np.array(b["source"].to_pylist())
        lang = np.array(b["lang"].to_pylist())
        ntok = np.array([len(t.split()) for t in b["text"].to_pylist()],
                        dtype=np.int64)
        key = np.char.add(np.char.add(src, "\x00"), lang)
        u, inv = np.unique(key, return_inverse=True)
        docs = np.bincount(inv)
        toks = np.bincount(inv, weights=ntok).astype(np.int64)
        first = np.full(len(u), -1, dtype=np.int64)
        first[inv[::-1]] = np.arange(len(key) - 1, -1, -1)
        return pa.table({"source": pa.array(src[first]),
                         "lang": pa.array(lang[first]),
                         "docs": pa.array(docs.astype(np.int64)),
                         "toks": pa.array(toks)})

    def final(g: pa.Table) -> pa.Table:
        return pa.table({
            "source": g["source"].slice(0, 1),
            "n_docs": pa.array([int(g["docs"].to_numpy().sum())],
                               pa.int64()),
            "n_tokens": pa.array([int(g["toks"].to_numpy().sum())],
                                 pa.int64()),
            "n_langs": pa.array([len(set(g["lang"].to_pylist()))],
                                pa.int64())})

    from .neardup import group_apply
    return group_apply(
        _read(sf_dir, "documents", ["text", "source", "lang"])
        .map_batches(partial, batch_format="pyarrow"),
        "source", final,
        pa.schema([("source", pa.string()), ("n_docs", pa.int64()),
                   ("n_tokens", pa.int64()), ("n_langs", pa.int64())]))


_DECON_N = 13      # GPT-3-style decontamination n-gram width
_DECON_MOD = 50    # doc_id % mod == 0 marks the in-corpus "eval set"


_GRAM_P = np.uint64(0x9E3779B97F4A7C15)


def _gram_hashes_of_words(ws: list[str], n: int) -> np.ndarray:
    """SORTED DISTINCT word-n-gram hashes of one tokenized doc: the
    per-WORD md5-64 hashes (memoized vocab cache — gram strings never
    enter the cache, they are near-unique and would thrash it) combine
    positionally with an odd-multiplier polynomial mod 2^64, one
    vectorized pass per window offset.  Shared by decontamination
    (n=13) and dup-window coverage (n=20); both sides of each query
    hash through this same function, so membership is exact."""
    if len(ws) < n:
        return np.empty(0, dtype=np.uint64)
    h = _word_hashes(ws)
    m = len(h) - n + 1
    acc = np.zeros(m, dtype=np.uint64)
    for k in range(n):
        acc = acc * _GRAM_P + h[k:k + m]
    return np.unique(acc)


def _gram_hashes(text: str) -> np.ndarray:
    """Distinct word-13-gram hashes of one document (uint64, sorted).
    Docs shorter than N words have none."""
    return _gram_hashes_of_words(text.split(), _DECON_N)


_DECON_MAX_BENCH = 5_000_000   # broadcast envelope: 8 B/hash => 40 MB


def _collect_bench_grams(docs):
    """Driver-side union of the eval holdout's distinct gram hashes
    (sorted int64), collected through a distributed per-batch distinct
    so only already-deduped hash arrays stream back.  Returns ``None``
    the moment the running total exceeds the broadcast envelope — the
    caller must switch to the co-partitioned shuffle path."""
    def eval_grams(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        keep = ids % _DECON_MOD == 0
        hs = [_gram_hashes(t) for t, k in
              zip(b["text"].to_pylist(), keep) if k]
        u = (np.unique(np.concatenate(hs)) if hs
             else np.empty(0, dtype=np.uint64))
        return pa.table({"g": pa.array(u.view(np.int64))})

    parts, total = [], 0
    for b in (docs.map_batches(eval_grams, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow", batch_size=None)):
        parts.append(b["g"].to_numpy())
        total += len(parts[-1])
        if total > _DECON_MAX_BENCH:
            return None
    return (np.unique(np.concatenate(parts)) if parts
            else np.empty(0, dtype=np.int64))


def _decontaminate_shuffled(docs):
    """Distributed decontamination for when the eval gram set outgrows
    the broadcast envelope: corpus and eval gram hashes co-partition
    through ONE hash exchange (eval rows tagged doc_id=-1), each
    partition emits, with one vectorized np.isin, the corpus rows of
    every gram an eval row also has, and a per-doc count folds the
    hits — shuffled volume O(grams), driver holds nothing."""
    def tagged(b: pa.Table) -> pa.Table:
        hs, ids = [], []
        for doc_id, t in zip(b["doc_id"].to_numpy(),
                             b["text"].to_pylist()):
            g = _gram_hashes(t)
            if not len(g):
                continue
            hs.append(g.view(np.int64))
            tag = -1 if doc_id % _DECON_MOD == 0 else int(doc_id)
            ids.append(np.full(len(g), tag, dtype=np.int64))
        if not hs:
            return pa.table({"h": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        return pa.table({"h": pa.array(np.concatenate(hs)),
                         "doc_id": pa.array(np.concatenate(ids))})

    def hits(t: pa.Table) -> pa.Table:
        # every non-holdout occurrence of a gram the holdout also has
        h, ids = t["h"].to_numpy(), t["doc_id"].to_numpy()
        return pa.table({"doc_id": pa.array(
            ids[np.isin(h, h[ids == -1]) & (ids != -1)])})

    from .neardup import partition_apply
    return combine(partition_apply(docs.map_batches(tagged,
                                                    batch_format="pyarrow"),
                                   "h", hits,
                                   pa.schema([("doc_id", pa.int64())])),
                   ["doc_id"], {"n_hits": "count"},
                   pa.schema([("doc_id", pa.int64()),
                              ("n_hits", pa.int64())]))


def _count_contaminated(b: pa.Table, bench) -> pa.Table:
    """Probe pass of ``q_decontaminate``: ``bench`` is a ref to the
    sorted (np.unique output) benchmark gram hashes; one searchsorted
    per non-holdout doc counts its overlapping grams."""
    bench = _broadcast_get(bench)
    ids_out, hits = [], []
    nb = len(bench)
    for doc_id, t in zip(b["doc_id"].to_numpy(), b["text"].to_pylist()):
        if doc_id % _DECON_MOD == 0 or not nb:
            continue
        h = _gram_hashes(t).view(np.int64)
        idx = np.searchsorted(bench, h)
        idx[idx == nb] = 0
        n = int((bench[idx] == h).sum())
        if n:
            ids_out.append(int(doc_id))
            hits.append(n)
    return pa.table({"doc_id": pa.array(ids_out, pa.int64()),
                     "n_hits": pa.array(hits, pa.int64())})


def q_decontaminate(sf_dir):
    """Benchmark decontamination: flag corpus docs sharing any word
    13-gram with the eval set (docs with doc_id % 50 == 0 stand in for
    a held-out benchmark), reporting the count of distinct overlapping
    grams — the GPT-3/PaLM-style train/test-leak filter.

    Scale shape, two paths: a REAL benchmark is small, so its distinct
    gram hashes are collected through a distributed per-batch distinct
    + driver union and broadcast once via ray.put; the corpus pass is
    then one streaming map_batches doing a searchsorted membership
    test per doc (the bench array is sorted; no per-doc re-sort).  If
    the eval side outgrows `_DECON_MAX_BENCH` (here it is a fixed 2%
    of the corpus, so it CAN), the union loop aborts early and the
    query switches to `_decontaminate_shuffled` — same answer through
    one hash co-partition, no driver set at all."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bench = _collect_bench_grams(docs)
    if bench is None:
        return _decontaminate_shuffled(docs)
    return docs.map_batches(_count_contaminated, batch_format="pyarrow",
                            fn_kwargs={"bench": ray.put(bench)})


# ---------------------------------------------------------------------------
# corpus curation — the flagship composition a 100 TB text pipeline runs
# ---------------------------------------------------------------------------

# Both gates are ONE RE2 alternation each, generated from the same
# constants as the SQL oracle so the two sides can never drift.
_CURATE_STOP_RE = r"\b(" + "|".join(STOPWORDS) + r")\b"
_CURATE_LANG_RE = (r"\b("
                   + "|".join(sorted(set().union(*_LANG_MARKERS.values())))
                   + r")\b")
_CURATE_COLS = ("doc_id", "source", "norm_text", "n_tokens")


def _curate_gate(b: pa.Table) -> pa.Table:
    """normalize + holdout drop + quality gate + language gate in one
    zero-copy Arrow pass: utf8 kernels for normalization, one RE2
    count per predicate, numpy for the integer keep rule.  No Python
    per row anywhere."""
    s = _normalize_text(b["text"])
    ids = b["doc_id"].to_numpy()
    n_tok = pc.add(pc.count_substring(s, " "), 1).to_numpy()
    n_stop = pc.count_substring_regex(s, pattern=_CURATE_STOP_RE).to_numpy()
    n_chars = pc.utf8_length(s).to_numpy()
    n_alpha = pc.count_substring_regex(s, pattern="[a-z]").to_numpy()
    marker = pc.match_substring_regex(s, pattern=_CURATE_LANG_RE) \
        .to_numpy(zero_copy_only=False)
    keep = ((ids % _DECON_MOD != 0)
            & (n_stop * 10 < n_tok * 9)
            & (n_alpha * 2 > n_chars)
            & marker)
    return pa.table({
        "doc_id": b["doc_id"],
        "source": b["source"],
        "norm_text": s,
        "n_tokens": pa.array(n_tok.astype(np.int64)),
    }).filter(pa.array(keep))


def _drop_contaminated(b: pa.Table, bench) -> pa.Table:
    """Streaming contamination filter: ``bench`` is a ref to the sorted
    bench-gram array (fetched once per worker process); one
    searchsorted per doc."""
    bench = _broadcast_get(bench)
    nb = len(bench)
    if not nb:
        return b
    keep = np.ones(len(b), dtype=bool)
    for i, t in enumerate(b["norm_text"].to_pylist()):
        h = _gram_hashes(t).view(np.int64)
        if len(h):
            idx = np.searchsorted(bench, h)
            idx[idx == nb] = 0
            if (bench[idx] == h).any():
                keep[i] = False
    return b.filter(pa.array(keep))


def q_curate_corpus(sf_dir):
    """Flagship curation composition — the stages a real training-data
    job chains over 100 TB, as ONE streaming Dataset pipeline:

      normalize (NFC/lower/collapse/trim)
      -> holdout drop (doc_id % 50 == 0 is the stand-in benchmark)
      -> quality gate (stopword ratio + alpha ratio, integer rule)
      -> language gate (any stopword-marker hit)
      -> decontaminate (no shared word-13-gram with the holdout)
      -> exact dedup on normalized text, first doc_id wins

    Every gate is vectorized Arrow (see _curate_gate).  Contamination
    is defined on NORMALIZED text on every path (matching the oracle):
    the holdout stream is normalized once and gram-hashed; while its
    distinct gram set fits `_DECON_MAX_BENCH` the survivors are probed
    against the broadcast sorted array, else the holdout rows union
    the survivors' (already normalized) text through the
    co-partitioned `_decontaminate_shuffled` exchange — gate REJECTS
    never enter that shuffle — and the contaminated ids are dropped
    via the payload-carrying anti-join.  Both paths implemented,
    neither materializes the corpus on the driver.  The only
    all-to-all is the final dedup groupby, which moves already
    heavily-filtered survivors.  Fully SQL-expressible, so the whole
    composition is oracle-hash-checked end to end."""
    from .queries import _membership_filter

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    survivors = docs.map_batches(_curate_gate, batch_format="pyarrow")

    def norm_holdout(b: pa.Table) -> pa.Table:
        keep = b["doc_id"].to_numpy() % _DECON_MOD == 0
        t = pa.table({"doc_id": b["doc_id"],
                      "text": _normalize_text(b["text"])})
        return t.filter(pa.array(keep))

    holdout = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(norm_holdout, batch_format="pyarrow")

    bench = _collect_bench_grams(holdout)
    if bench is not None:
        clean = survivors.map_batches(
            _drop_contaminated, batch_format="pyarrow",
            fn_kwargs={"bench": ray.put(bench)})
    else:
        def surv_text(b: pa.Table) -> pa.Table:
            return pa.table({"doc_id": b["doc_id"],
                             "text": b["norm_text"]})
        gram_input = holdout.union(
            survivors.map_batches(surv_text, batch_format="pyarrow"))
        contaminated = _decontaminate_shuffled(gram_input)
        clean = _membership_filter(survivors, "doc_id", contaminated,
                                   "doc_id", negate=True)

    return _first_wins_by_digest(clean, "norm_text")


def _curate_oracle() -> str:
    """Generated from the same regex constants as _curate_gate."""
    return rf"""
    WITH base AS (
        SELECT doc_id, source,
               trim(regexp_replace(lower(nfc_normalize(text)),
                                   '\s+', ' ', 'g')) AS norm_text
        FROM documents),
    tok AS (SELECT doc_id, regexp_split_to_array(norm_text, ' ') AS ws
            FROM base),
    grams AS (SELECT doc_id, array_to_string(ws[i:i+{_DECON_N - 1}], ' ')
                  AS g
              FROM tok, UNNEST(range(1, len(ws) - {_DECON_N - 2}))
                  AS t(i)),
    bench AS (SELECT DISTINCT g FROM grams
              WHERE doc_id % {_DECON_MOD} = 0),
    contaminated AS (SELECT DISTINCT doc_id FROM grams
                     WHERE doc_id % {_DECON_MOD} != 0
                       AND g IN (SELECT g FROM bench)),
    feat AS (SELECT doc_id, source, norm_text,
                    length(norm_text)
                        - length(replace(norm_text, ' ', '')) + 1 AS n_tok,
                    len(regexp_extract_all(norm_text,
                        '{_CURATE_STOP_RE}')) AS n_stop,
                    length(norm_text) AS n_chars,
                    len(regexp_extract_all(norm_text, '[a-z]')) AS n_alpha,
                    regexp_matches(norm_text,
                        '{_CURATE_LANG_RE}') AS has_marker
             FROM base),
    kept AS (SELECT f.* FROM feat f
             WHERE f.doc_id % {_DECON_MOD} != 0
               AND f.n_stop * 10 < f.n_tok * 9
               AND f.n_alpha * 2 > f.n_chars
               AND f.has_marker
               AND f.doc_id NOT IN (SELECT doc_id FROM contaminated))
    SELECT min(doc_id) AS doc_id, arg_min(source, doc_id) AS source,
           norm_text, min(n_tok) AS n_tokens
    FROM kept GROUP BY norm_text
    """


def q_token_len_hist(sf_dir):
    """Token-length histogram (bucket width 10): the length-
    distribution pass behind sequence-length curricula and packing
    efficiency estimates.  Per-batch count partials (one tiny
    (bucket, n) table per batch) feed a buckets-bounded aggregate —
    the shuffled volume is O(distinct buckets), not O(docs)."""
    def bucket(b: pa.Table) -> pa.Table:
        n = np.array([len(t.split()) for t in b["text"].to_pylist()],
                     dtype=np.int64)
        return pa.table({"bucket": pa.array(n // 10 * 10)})

    return combine(_read(sf_dir, "documents", ["text"])
                   .map_batches(bucket, batch_format="pyarrow"),
                   ["bucket"], {"n_docs": "count"},
                   pa.schema([("bucket", pa.int64()),
                              ("n_docs", pa.int64())]))


def q_gopher_repetition(sf_dir):
    """Gopher-style repetition quality signals (Rae et al. 2021 §A1.1):
    per doc, total/distinct word counts and the occurrence count of the
    most frequent word 2-gram, plus an integer keep flag (distinct
    fraction >= 0.3 AND top-2-gram fraction <= 0.2).  Integer outputs
    only so the value hash is exact against the SQL oracle.

    Scale shape: a single streaming map_batches — per doc the words are
    hashed through the memoized vocab cache, 2-grams combine adjacent
    hashes arithmetically, and np.unique gives both distinct counts;
    no shuffle, no driver materialization."""
    def signals(b: pa.Table) -> pa.Table:
        nw, nd, top, n2 = [], [], [], []
        for t in b["text"].to_pylist():
            ws = t.split()
            h = _word_hashes(ws)
            nw.append(len(ws))
            nd.append(len(np.unique(h)))
            if len(h) >= 2:
                g = h[:-1] * np.uint64(0x9E3779B97F4A7C15) + h[1:]
                _, c = np.unique(g, return_counts=True)
                top.append(int(c.max()))
                n2.append(len(g))
            else:
                top.append(0)
                n2.append(0)
        nw = np.array(nw, dtype=np.int64)
        nd = np.array(nd, dtype=np.int64)
        top = np.array(top, dtype=np.int64)
        n2 = np.array(n2, dtype=np.int64)
        keep = ((nd * 10 >= nw * 3)
                & ((n2 == 0) | (top * 5 <= n2))).astype(np.int64)
        return pa.table({"doc_id": b["doc_id"],
                         "n_words": pa.array(nw),
                         "n_distinct": pa.array(nd),
                         "top2_count": pa.array(top),
                         "n_2grams": pa.array(n2),
                         "keep": pa.array(keep)})

    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(signals, batch_format="pyarrow"))


_QUANTILES = ((25, 100), (50, 100), (75, 100), (95, 100))


def q_source_len_quantiles(sf_dir):
    """Exact per-source length quantiles (p25/p50/p75/p95 of n_chars)
    WITHOUT a distributed sort: per-batch (source, n_chars) value
    counts collapse the corpus into a value-domain histogram (the
    shuffled volume is O(distinct values x sources), independent of row
    count), then one tiny per-source cumsum reads the quantiles off the
    histogram.  Quantile definition: smallest v with
    count(x <= v) * den >= num * n — matched exactly by the oracle's
    integer-arithmetic window form."""
    def quantiles(g: pa.Table) -> pa.Table:
        v = g["n_chars"].to_numpy()
        c = g["c"].to_numpy()
        o = np.argsort(v)
        v, c = v[o], c[o]
        cum = np.cumsum(c)
        n = int(cum[-1])
        out = {"source": pa.array([g["source"][0].as_py()])}
        for num, den in _QUANTILES:
            idx = int(np.searchsorted(cum * den, num * n))
            out[f"p{num}"] = pa.array([int(v[idx])], pa.int64())
        return pa.table(out)

    from .neardup import group_apply
    schema = pa.schema([("source", pa.string())] +
                       [(f"p{num}", pa.int64()) for num, _ in _QUANTILES])
    hist = combine(_read(sf_dir, "documents", ["source", "n_chars"]),
                   ["source", "n_chars"], {"c": "count"},
                   pa.schema([("source", pa.string()),
                              ("n_chars", pa.int64()), ("c", pa.int64())]))
    return group_apply(hist, "source", quantiles, schema)


_PACK_BUDGET = 512   # tokens per packed training sequence


def pack_greedy(tokens: np.ndarray, budget: int) -> np.ndarray:
    """Greedy sequential first-fit packing: walk docs in order,
    starting a new bin when the next doc would overflow ``budget`` —
    but an EMPTY bin always admits the next doc, so an oversized doc
    lands alone and zero-token docs never force a bin break (exactly
    the sequential `if cur > 0 and cur + t > budget` rule).  Returns
    the bin id per doc.  O(bins log n) via searchsorted on the running
    cumsum — no per-doc Python loop."""
    n = len(tokens)
    cum = np.cumsum(tokens.astype(np.int64))
    bins = np.empty(n, dtype=np.int64)
    s = 0
    b = 0
    while s < n:
        base = cum[s - 1] if s else 0
        j = int(np.searchsorted(cum, base + budget, side="right"))
        # bin empty so far (only zero-token docs, or nothing fit):
        # cur == 0 admits one more doc regardless of its size
        if j < n and (cum[j - 1] if j else 0) == base:
            j += 1
        bins[s:j] = b
        s, b = j, b + 1
    return bins


def q_seq_packing(sf_dir):
    """Sequence packing for training-batch construction: pack docs
    (doc_id order) into fixed token budgets, one packing stream per
    source, and report per-bin occupancy — the packing-efficiency
    pass run before tokenized-corpus serialization.

    Scale shape: packing is sequential WITHIN a partition by design
    (real pipelines pack per shard); here the partition key is
    ``source``, so one groupby co-locates each stream and a vectorized
    searchsorted walk assigns bins.  no_oracle (greedy packing is
    order-dependent, not SQL-expressible) — pinned by a pytest parity
    test against a reference implementation."""
    def pack(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy()
        o = np.argsort(ids)
        toks = np.array([len(t.split()) for t in g["text"].to_pylist()],
                        dtype=np.int64)[o]
        bins = pack_greedy(toks, _PACK_BUDGET)
        u, start = np.unique(bins, return_index=True)
        n_docs = np.diff(np.append(start, len(bins)))
        sums = np.add.reduceat(toks, start)
        src = g["source"][0].as_py()
        return pa.table({"source": pa.array([src] * len(u)),
                         "bin_id": pa.array(u, pa.int64()),
                         "n_docs": pa.array(n_docs.astype(np.int64)),
                         "n_tokens": pa.array(sums.astype(np.int64))})

    from .neardup import group_apply
    return group_apply(
        _read(sf_dir, "documents", ["doc_id", "source", "text"]),
        "source", pack,
        pa.schema([("source", pa.string()), ("bin_id", pa.int64()),
                   ("n_docs", pa.int64()), ("n_tokens", pa.int64())]))


_WINDOW_N = 20     # exact-substring window width (Lee et al. use 50
#                    BPE tokens; 20 words keeps the synthetic docs,
#                    11-87 words long, in range)


def q_dup_window_coverage(sf_dir):
    """Exact-substring duplication coverage (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"): per
    doc, how many of its distinct word-20-gram windows also occur in
    at least one OTHER doc (windows are distinct-per-doc before
    counting) — the metric behind substring-level dedup decisions.

    Scale shape: one flat_map emits (window-hash, doc_id) pairs
    (distinct per doc — a combiner), ONE hash exchange on the window
    hash brings identical windows together, and each partition flags
    every row whose hash occurs more than once there (one vectorized
    np.unique, no per-window call); a groupby folds back to per-doc
    integers.  The
    shuffled volume is O(windows), never the text; no driver
    materialization; hot windows are bounded by the group size cap the
    exchange already enforces elsewhere."""
    def grams(b: pa.Table) -> pa.Table:
        hs, ids = [], []
        for doc_id, t in zip(b["doc_id"].to_numpy(),
                             b["text"].to_pylist()):
            h = _gram_hashes_of_words(t.split(), _WINDOW_N).view(np.int64)
            if not len(h):
                continue
            hs.append(h)
            ids.append(np.full(len(h), doc_id, dtype=np.int64))
        if not hs:
            return pa.table({"h": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        return pa.table({"h": pa.array(np.concatenate(hs)),
                         "doc_id": pa.array(np.concatenate(ids))})

    def flag(t: pa.Table) -> pa.Table:
        # a window is duplicated when its hash occurs more than once
        _, inv, cnt = np.unique(t["h"].to_numpy(), return_inverse=True,
                                return_counts=True)
        return pa.table({"doc_id": t["doc_id"],
                         "n_dup_windows": pa.array(
                             (cnt[inv] > 1).astype(np.int64))})

    from .neardup import partition_apply
    flags = pa.schema([("doc_id", pa.int64()),
                       ("n_dup_windows", pa.int64())])
    return combine(
        partition_apply(_read(sf_dir, "documents", ["doc_id", "text"])
                        .map_batches(grams, batch_format="pyarrow"),
                        "h", flag, flags),
        ["doc_id"], {"n_windows": "count", "n_dup_windows": "sum"},
        pa.schema([("doc_id", pa.int64()), ("n_windows", pa.int64()),
                   ("n_dup_windows", pa.int64())]))


# ---------------------------------------------------------------------------
# image+caption pair filtering (LAION/DataComp)
# ---------------------------------------------------------------------------

def _img_rows_env(default: int) -> int:
    """Image-table corpus size, overridable for 10x scale rehearsals
    (bench.py --scale-op; the GRAFT_MEDIA_CLIPS pattern)."""
    v = os.environ.get("GRAFT_IMG_ROWS")
    return int(v) if v else default


_IMG_GATE_N = 600
_IMG_MIN_SIDE = 64
_IMG_ASPECT_MAX = 2          # max(w,h) <= 2 * min(w,h), integer compare
_IMG_MIN_CAPTION_TOKENS = 5


def _image_caption_rows(n: int | None = None) -> list[dict]:
    if n is None:
        n = _img_rows_env(_IMG_GATE_N)
    return _image_caption_rows_n(n)


def _image_caption_rows_n(n: int) -> list[dict]:
    """Deterministic image+caption table in the BASELINE input-hint
    shape (image_id, bytes, w, h, fmt, caption, phash).  Every id with
    i % 7 == 3 is re-crawled under a second image_id with the SAME
    pixels (the exact-duplicate-image case); captions are corrupted
    deterministically (empty at i % 13 == 0, truncated to 3 tokens at
    i % 17 == 0) so the caption gate has real work."""
    from .functions.synthweb import page_payload
    rows = []
    for i in range(n):
        r = page_payload(i)
        if i % 13 == 0:
            r["caption"] = ""
        elif i % 17 == 0:
            r["caption"] = " ".join(r["caption"].split()[:3])
        rows.append(r)
        if i % 7 == 3:
            dup = dict(r)
            dup["image_id"] = r["image_id"] + "-b"
            rows.append(dup)
    return rows


def q_image_caption_gate(sf_dir):
    """LAION/DataComp-style image-text pair filtering (Schuhmann et
    al. 2021 filter on image size + caption length before CLIP
    scoring) over the input-hint table shape — rows-only (the image
    table is synthetic; DuckDB holds no view of it; pinned by pytest
    against an independent driver-side mirror).

    One vectorized Arrow/numpy pass computes the metadata gates
    (min-side >= 64 px, aspect ratio <= 2:1 as an integer compare,
    caption >= 5 whitespace tokens) and PRUNES the payload bytes;
    survivors then dedup exact-duplicate IMAGES by phash — the
    re-crawl case: identical pixels fetched under two URLs — through
    one groupby keeping the smallest image_id.  Only ~40 B/row of
    metadata rides the exchange, never the image bytes.  Reason
    bitmask: 1 too small, 2 extreme aspect, 4 caption too short,
    8 duplicate image."""
    rows = _image_caption_rows()
    t = pa.table({
        "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
        "bytes": binary_array([r["bytes"] for r in rows]),
        "w": pa.array([r["w"] for r in rows], pa.int32()),
        "h": pa.array([r["h"] for r in rows], pa.int32()),
        "fmt": pa.array([r["fmt"] for r in rows], pa.string()),
        "caption": pa.array([r["caption"] for r in rows], pa.string()),
        "phash": pa.array([r["phash"] for r in rows], pa.int64()),
    })

    def gate(b: pa.Table) -> pa.Table:
        w = b["w"].to_numpy().astype(np.int64)
        h = b["h"].to_numpy().astype(np.int64)
        cap = b["caption"]
        trimmed = pc.utf8_trim_whitespace(cap)
        # count whitespace RUNS, not spaces: "a  b" is 2 tokens
        nruns = pc.count_substring_regex(trimmed, r"\s+").to_numpy()
        empty = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
        ntok = np.where(empty, 0, nruns + 1).astype(np.int64)
        lo = np.minimum(w, h)
        hi = np.maximum(w, h)
        reason = ((lo < _IMG_MIN_SIDE) * 1
                  + (hi > _IMG_ASPECT_MAX * lo) * 2
                  + (ntok < _IMG_MIN_CAPTION_TOKENS) * 4).astype(np.int64)
        return pa.table({"image_id": b["image_id"],
                         "w": pa.array(w),
                         "h": pa.array(h),
                         "n_caption_tokens": pa.array(ntok),
                         "phash": b["phash"],
                         "reason": pa.array(reason)})

    def dedup_group(g: pa.Table) -> pa.Table:
        reason = g["reason"].to_numpy().copy()
        ids = np.asarray(g["image_id"].to_pylist(), dtype=object)
        ok = reason == 0
        if ok.sum() > 1:
            order = np.argsort(ids[ok])
            reason[np.where(ok)[0][order[1:]]] |= 8
        keep = (reason == 0).astype(np.int64)
        return pa.table({"image_id": pa.array(list(ids), pa.string()),
                         "w": g["w"],
                         "h": g["h"],
                         "n_caption_tokens": g["n_caption_tokens"],
                         "keep": pa.array(keep),
                         "reason": pa.array(reason)})

    from .neardup import group_apply
    return group_apply(
        _rd().from_arrow(t).map_batches(gate, batch_format="pyarrow"),
        "phash", dedup_group,
        pa.schema([("image_id", pa.string()), ("w", pa.int64()),
                   ("h", pa.int64()), ("n_caption_tokens", pa.int64()),
                   ("keep", pa.int64()), ("reason", pa.int64())]))


# ---------------------------------------------------------------------------
# count-based LM quality scoring (CCNet)
# ---------------------------------------------------------------------------

_LM_MAX_TRAIN = 5_000_000    # broadcast envelope for the trained counts


def _doc_bigram_counts(ws: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for i in range(len(ws) - 1):
        g = ws[i] + " " + ws[i + 1]
        out[g] = out.get(g, 0) + 1
    return out


def _collect_lm_counts(docs):
    """Distributed bigram-LM training over the holdout split (doc_id %
    50 == 0 — the same split decontaminate treats as the held-out
    benchmark): per-batch Counter combiner, driver fold.  Returns
    ``{bigram: count}`` or ``None`` past the broadcast envelope."""
    def batch_counts(b: pa.Table) -> pa.Table:
        agg: dict[str, int] = {}
        for doc_id, t in zip(b["doc_id"].to_numpy(),
                             b["text"].to_pylist()):
            if doc_id % _DECON_MOD != 0:
                continue
            for g, k in _doc_bigram_counts(t.split()).items():
                agg[g] = agg.get(g, 0) + k
        return pa.table({"g": pa.array(list(agg.keys()), pa.string()),
                         "k": pa.array(list(agg.values()), pa.int64())})

    model: dict[str, int] = {}
    for b in (docs.map_batches(batch_counts, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow", batch_size=None)):
        for g, k in zip(b["g"].to_pylist(), b["k"].to_numpy()):
            model[g] = model.get(g, 0) + int(k)
            if len(model) > _LM_MAX_TRAIN:
                return None
    return model


def _lm_score(b: pa.Table, model) -> pa.Table:
    """Broadcast scorer: ``model`` is a ref to the trained count table,
    fetched once per worker process; each non-holdout doc folds its
    bigram positions into (n_bigrams, mass, n_oov) locally — zero
    shuffle."""
    model = _broadcast_get(model)
    ids, nb, mass, oov = [], [], [], []
    for doc_id, t in zip(b["doc_id"].to_numpy(), b["text"].to_pylist()):
        if doc_id % _DECON_MOD == 0:
            continue
        ws = t.split()
        if len(ws) < 2:
            continue
        n = m = v = 0
        for g, k in _doc_bigram_counts(ws).items():
            c = model.get(g, 0)
            n += k
            m += k * c
            if not c:
                v += k
        ids.append(int(doc_id))
        nb.append(n)
        mass.append(m)
        oov.append(v)
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "n_bigrams": pa.array(nb, pa.int64()),
                     "mass": pa.array(mass, pa.int64()),
                     "n_oov": pa.array(oov, pa.int64())})


def _lm_score_shuffled(docs):
    """Exact fallback past the envelope: train rows (doc_id = -1,
    weight = count) and per-doc scoring rows (weight = in-doc
    occurrences) co-partition by bigram hash through ONE exchange;
    each partition resolves train mass per distinct bigram STRING
    (one factorize, no per-bigram call) and re-emits per-doc partial
    sums; a doc_id groupby folds the
    integers.  Shuffled volume O(distinct bigrams per doc), never the
    text."""
    def tagged(b: pa.Table) -> pa.Table:
        gs, hs, ids, ks = [], [], [], []
        for doc_id, t in zip(b["doc_id"].to_numpy(),
                             b["text"].to_pylist()):
            ws = t.split()
            counts = _doc_bigram_counts(ws)
            if not counts:
                continue
            tag = -1 if doc_id % _DECON_MOD == 0 else int(doc_id)
            for g, k in counts.items():
                gs.append(g)
                ids.append(tag)
                ks.append(k)
        # bigram strings are near-unique — hash them UNCACHED so they
        # never thrash the memoized word-vocab cache
        h = np.empty(len(gs), dtype=np.uint64)
        for i, s in enumerate(gs):
            h[i] = int.from_bytes(hashlib.md5(s.encode()).digest()[:8],
                                  "big")
        h = h.view(np.int64)
        return pa.table({"h": pa.array(h),
                         "g": pa.array(gs, pa.string()),
                         "doc_id": pa.array(ids, pa.int64()),
                         "k": pa.array(ks, pa.int64())})

    def score(t: pa.Table) -> pa.Table:
        # per bigram STRING (exact, never the hash) its training count,
        # then one row per scored occurrence
        import pandas as pd
        codes = pd.factorize(t["g"].to_numpy(zero_copy_only=False))[0]
        d, k = t["doc_id"].to_numpy(), t["k"].to_numpy()
        train = np.zeros(codes.max(initial=-1) + 1, np.int64)
        np.add.at(train, codes[d == -1], k[d == -1])
        sel = d != -1
        kk, tc = k[sel], train[codes[sel]]
        return pa.table({"doc_id": pa.array(d[sel]),
                         "n_bigrams": pa.array(kk),
                         "mass": pa.array(kk * tc),
                         "n_oov": pa.array(np.where(tc == 0, kk, 0))})

    from .neardup import partition_apply
    schema = pa.schema([("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
                        ("mass", pa.int64()), ("n_oov", pa.int64())])
    return combine(partition_apply(docs.map_batches(tagged,
                                                    batch_format="pyarrow"),
                                   "h", score, schema),
                   ["doc_id"], dict.fromkeys(schema.names[1:], "sum"),
                   schema)


def q_lm_bigram_score(sf_dir):
    """CCNet-style count-LM quality scoring (Wenzek et al. 2020 score
    documents with an LM trained on trusted text): train word-bigram
    counts on the holdout split (doc_id % 50 == 0) and score every
    other doc.  Output is the LM's INTEGER sufficient statistics —
    n_bigrams (positions), mass (sum over positions of the trained
    count of that bigram), n_oov (positions unseen in training) — from
    which a perplexity-style gate is a deterministic driver-side
    formula; the integers hash bit-exactly across engines where float
    log-probs cannot.  Docs shorter than two words emit no row.

    Scale shape, two paths: the trained count table broadcasts via
    ray.put inside `_LM_MAX_TRAIN` (scoring is then a zero-shuffle
    streaming pass); past the envelope an exact co-partitioned
    exchange by bigram hash resolves train mass per distinct bigram
    string and folds per-doc partials through one groupby."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    model = _collect_lm_counts(docs)
    if model is None:
        return _lm_score_shuffled(docs)
    return docs.map_batches(_lm_score, batch_format="pyarrow",
                            fn_kwargs={"model": ray.put(model)})


# ---------------------------------------------------------------------------
# line-level exact dedup (C4)
# ---------------------------------------------------------------------------

_LINE_N = 16    # words per "line": the corpus carries no newlines, so
#                 lines are the disjoint 16-word windows of the token
#                 stream incl. the final partial one — exactly the
#                 slices the SQL oracle takes
_LINE_DEDUP_MAX_DISTINCT = 2_000_000   # broadcast-election envelope


def _doc_line_strings(ws: list[str]) -> list[str]:
    return [" ".join(ws[k:k + _LINE_N])
            for k in range(0, len(ws), _LINE_N)]


def _line_hashes(ws: list[str]) -> np.ndarray:
    """One 64-bit shuffle hash per disjoint line (positional polynomial
    over the memoized word hashes, zero-padded tail — vectorized, no
    per-line md5).  Routing/group key ONLY: every consumer re-compares
    the line STRINGS, so a collision costs work, never correctness."""
    wh = _word_hashes(ws)
    pad = (-len(wh)) % _LINE_N
    if pad:
        wh = np.concatenate([wh, np.zeros(pad, np.uint64)])
    m = wh.reshape(-1, _LINE_N)
    acc = np.zeros(len(m), dtype=np.uint64)
    for k in range(_LINE_N):
        acc = acc * _GRAM_P + m[:, k]
    return acc


def _collect_dup_line_winners(docs):
    """Driver-side duplicate-line election.  Per batch a combiner keeps
    ONE candidate per distinct line — its minimum (doc_id, line_no)
    occurrence plus an occurrence count — so what streams back is
    distinct-lines-per-batch, never occurrences.  The driver folds the
    partials and returns ``{line: (win_doc, win_no)}`` for lines seen
    more than once corpus-wide, or ``None`` the moment the distinct
    stream exceeds the envelope (caller switches to the shuffled
    path)."""
    def batch_firsts(b: pa.Table) -> pa.Table:
        best: dict[str, list] = {}
        for doc_id, t in zip(b["doc_id"].to_numpy(),
                             b["text"].to_pylist()):
            ws = t.split()
            if not ws:
                continue
            for no, ln in enumerate(_doc_line_strings(ws)):
                cur = best.get(ln)
                if cur is None:
                    best[ln] = [int(doc_id), no, 1]
                else:
                    if (int(doc_id), no) < (cur[0], cur[1]):
                        cur[0], cur[1] = int(doc_id), no
                    cur[2] += 1
        return pa.table({
            "line": pa.array(list(best.keys()), pa.string()),
            "doc": pa.array([v[0] for v in best.values()], pa.int64()),
            "no": pa.array([v[1] for v in best.values()], pa.int64()),
            "cnt": pa.array([v[2] for v in best.values()], pa.int64())})

    best: dict[str, list] = {}
    for b in (docs.map_batches(batch_firsts, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow", batch_size=None)):
        for ln, d, n, c in zip(b["line"].to_pylist(), b["doc"].to_numpy(),
                               b["no"].to_numpy(), b["cnt"].to_numpy()):
            cur = best.get(ln)
            if cur is None:
                best[ln] = [int(d), int(n), int(c)]
                if len(best) > _LINE_DEDUP_MAX_DISTINCT:
                    return None
            else:
                if (int(d), int(n)) < (cur[0], cur[1]):
                    cur[0], cur[1] = int(d), int(n)
                cur[2] += int(c)
    return {ln: (v[0], v[1]) for ln, v in best.items() if v[2] > 1}


def _line_dedup_apply(b: pa.Table, winners) -> pa.Table:
    """Second pass of the broadcast path: ``winners`` is a ref to the
    winner dict, fetched once per worker process; each doc re-derives
    its lines locally and keeps a line iff it is not a corpus-wide
    duplicate or this occurrence IS the elected first one.  The
    document never leaves its block — zero text shuffle."""
    win = _broadcast_get(winners)
    ids, texts, n_l, n_k = [], [], [], []
    for doc_id, t in zip(b["doc_id"].to_numpy(), b["text"].to_pylist()):
        ws = t.split()
        if not ws:
            continue
        lines = _doc_line_strings(ws)
        kept = [ln for no, ln in enumerate(lines)
                if win.get(ln) is None or win[ln] == (int(doc_id), no)]
        ids.append(int(doc_id))
        texts.append(" ".join(kept))
        n_l.append(len(lines))
        n_k.append(len(kept))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "clean_text": pa.array(texts, pa.string()),
                     "n_lines": pa.array(n_l, pa.int64()),
                     "n_lines_kept": pa.array(n_k, pa.int64())})


def _line_dedup_shuffled(docs):
    """Exact fallback for when the distinct-line space outgrows the
    broadcast envelope: occurrences co-partition by line hash (the
    routing key is a fixed-width int64; the text rides as payload),
    each partition elects first-wins per distinct STRING with one
    vectorized lexsort, and a second exchange folds flagged lines back
    into documents by doc_id.  Two O(corpus) exchanges, nothing on the
    driver."""
    def explode(b: pa.Table) -> pa.Table:
        ids, nos, hs, lns = [], [], [], []
        for doc_id, t in zip(b["doc_id"].to_numpy(),
                             b["text"].to_pylist()):
            ws = t.split()
            if not ws:
                continue
            lines = _doc_line_strings(ws)
            ids.append(np.full(len(lines), doc_id, dtype=np.int64))
            nos.append(np.arange(len(lines), dtype=np.int64))
            hs.append(_line_hashes(ws).view(np.int64))
            lns.extend(lines)
        if not ids:
            return pa.table({"h": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             "line_no": pa.array([], pa.int64()),
                             "line": pa.array([], pa.string())})
        return pa.table({"h": pa.array(np.concatenate(hs)),
                         "doc_id": pa.array(np.concatenate(ids)),
                         "line_no": pa.array(np.concatenate(nos)),
                         "line": pa.array(lns, pa.string())})

    def flag(t: pa.Table) -> pa.Table:
        import pandas as pd
        line = pd.factorize(t["line"].to_numpy(zero_copy_only=False))[0]
        d = t["doc_id"].to_numpy()
        n = t["line_no"].to_numpy()
        order = np.lexsort((n, d, line))
        sl = line[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sl[1:] != sl[:-1]
        keep = np.zeros(len(order), dtype=np.int64)
        keep[order[first]] = 1
        return pa.table({"doc_id": t["doc_id"],
                         "line_no": t["line_no"],
                         "line": t["line"],
                         "keep": pa.array(keep)})

    def rebuild(g: pa.Table) -> pa.Table:
        n = g["line_no"].to_numpy()
        keep = g["keep"].to_numpy().astype(bool)
        line = g["line"].to_pylist()
        order = np.argsort(n)
        kept = [line[i] for i in order if keep[i]]
        return pa.table({
            "doc_id": pa.array([int(g["doc_id"][0].as_py())], pa.int64()),
            "clean_text": pa.array([" ".join(kept)], pa.string()),
            "n_lines": pa.array([len(n)], pa.int64()),
            "n_lines_kept": pa.array([int(keep.sum())], pa.int64())})

    from .neardup import group_apply, partition_apply
    flagged = partition_apply(
        docs.map_batches(explode, batch_format="pyarrow"), "h", flag,
        pa.schema([("doc_id", pa.int64()), ("line_no", pa.int64()),
                   ("line", pa.string()), ("keep", pa.int64())]))
    return group_apply(
        flagged, "doc_id", rebuild,
        pa.schema([("doc_id", pa.int64()), ("clean_text", pa.string()),
                   ("n_lines", pa.int64()), ("n_lines_kept", pa.int64())]))


def q_line_dedup(sf_dir):
    """C4-style cross-corpus exact line dedup (Raffel et al. 2020: any
    line occurring more than once in the corpus is kept only at its
    first occurrence): lines are disjoint 16-word windows of the token
    stream (the corpus has no newlines), first = minimum (doc_id,
    line_no) — duplicates WITHIN a doc drop too.  Docs that tokenize
    empty emit no row; a doc whose every line loses emits clean_text
    ''.

    Scale shape, two paths (the decontaminate pattern): duplicate-line
    winners are elected through a per-batch distinct combiner + driver
    fold and broadcast once via ray.put — the rewrite pass then never
    moves a document (zero text shuffle).  When the distinct-line space
    outgrows the envelope the query switches to an exact two-exchange
    form: co-partition occurrences by line hash (first-wins per
    distinct string via one lexsort per group), then fold back by
    doc_id."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    winners = _collect_dup_line_winners(docs)
    if winners is None:
        return _line_dedup_shuffled(docs)
    return docs.map_batches(_line_dedup_apply, batch_format="pyarrow",
                            fn_kwargs={"winners": ray.put(winners)})


ORACLES: dict[str, str] = {
    "token_count": r"""
        SELECT doc_id,
               len(regexp_split_to_array(trim(text), '\s+')) AS n_tokens
        FROM documents
    """,
    "stopword_count": r"""
        SELECT doc_id,
               len(list_filter(regexp_split_to_array(trim(text), '\s+'),
                   x -> x IN ('the','a','of','to','and','in','is'))) AS n_stop
        FROM documents
    """,
    "pii_scrub": r"""
        SELECT doc_id,
               regexp_replace(text,
                   '\b(customer|value)\b'
                   || '|[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'
                   || '|\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                   '<PII>', 'g') AS clean_text,
               len(regexp_extract_all(text,
                   '\b(customer|value)\b'
                   || '|[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'
                   || '|\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'
                   )) AS n_redactions
        FROM documents
    """,
    "text_normalize": r"""
        SELECT doc_id,
               trim(regexp_replace(lower(nfc_normalize(text)),
                                   '\s+', ' ', 'g')) AS norm_text,
               length(trim(regexp_replace(lower(nfc_normalize(text)),
                                          '\s+', ' ', 'g'))) AS n_chars_norm
        FROM documents
    """,
    "dedup_exact": """
        SELECT text, min(doc_id) AS doc_id FROM documents GROUP BY text
    """,
    "dedup_counts": """
        SELECT count(*) AS total, count(DISTINCT text) AS distinct_texts
        FROM documents
    """,
    "wordset_dup_groups": r"""
        SELECT md5(array_to_string(list_sort(list_distinct(
                   regexp_split_to_array(trim(text), '\s+'))), ' ')) AS set_fp,
               min(doc_id) AS rep, count(*) AS n
        FROM documents GROUP BY 1
    """,
    "jaccard_near_dup": r"""
        WITH w AS (
            SELECT DISTINCT doc_id,
                   unnest(regexp_split_to_array(trim(text), '\s+')) AS word
            FROM documents),
        sizes AS (SELECT doc_id, count(*) AS sz FROM w GROUP BY doc_id),
        inter AS (
            SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
            FROM w a JOIN w b ON a.word = b.word AND a.doc_id < b.doc_id
            GROUP BY 1, 2)
        SELECT da AS doc_a, db AS doc_b
        FROM inter
        JOIN sizes sa ON sa.doc_id = da
        JOIN sizes sb ON sb.doc_id = db
        WHERE i * 10 >= 9 * (sa.sz + sb.sz - i)
    """,
    "ngram_jaccard_near_dup": r"""
        WITH wl AS (
            SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
            FROM documents
            WHERE len(regexp_split_to_array(trim(text), '\s+')) >= 3),
        g AS (
            SELECT DISTINCT doc_id,
                   ws[i] || ' ' || ws[i + 1] || ' ' || ws[i + 2] AS shingle
            FROM wl, unnest(generate_series(1, len(ws) - 2)) AS t(i)),
        sizes AS (SELECT doc_id, count(*) AS sz FROM g GROUP BY doc_id),
        inter AS (
            SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
            FROM g a JOIN g b ON a.shingle = b.shingle
                             AND a.doc_id < b.doc_id
            GROUP BY 1, 2)
        SELECT da AS doc_a, db AS doc_b
        FROM inter
        JOIN sizes sa ON sa.doc_id = da
        JOIN sizes sb ON sb.doc_id = db
        WHERE i * 10 >= 9 * (sa.sz + sb.sz - i)
    """,
    "quality_score": r"""
        WITH s AS (
            SELECT doc_id, trim(text) AS t,
                   regexp_split_to_array(trim(text), '\s+') AS ws
            FROM documents)
        SELECT doc_id,
               len(t) AS n_chars_obs,
               len(ws) AS n_tokens,
               len(list_filter(ws, x -> x IN
                   ('the','a','of','to','and','in','is'))) AS n_stop,
               len(regexp_extract_all(t, '[A-Za-z]')) AS n_alpha,
               CAST(CASE WHEN len(list_filter(ws, x -> x IN
                        ('the','a','of','to','and','in','is'))) * 10
                        < len(ws) * 9
                     AND len(regexp_extract_all(t, '[A-Za-z]')) * 2
                        > len(t)
                    THEN 1 ELSE 0 END AS BIGINT) AS keep
        FROM s
    """,
    "lang_id": None,   # generated below from _LANG_MARKERS
    "token_count_bpe": r"""
        SELECT doc_id,
               len(regexp_extract_all(text,
                   ' ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+'))
                   AS n_bpe_tokens
        FROM documents
    """,
    "simhash_near_dup": r"""
        WITH w AS (SELECT DISTINCT doc_id,
                          unnest(regexp_split_to_array(trim(text), '\s+'))
                              AS word
                   FROM documents),
        h AS (SELECT doc_id,
                     ('0x' || substr(md5(word), 1, 16))::UBIGINT AS wh
              FROM w),
        bitv AS (SELECT doc_id, i,
                        sum(CASE WHEN (wh >> i) & 1 = 1
                            THEN 1 ELSE -1 END) AS vote
                 FROM h CROSS JOIN range(64) t(i) GROUP BY 1, 2),
        sh AS (SELECT doc_id,
                      sum(CASE WHEN vote > 0
                          THEN (1::UBIGINT << i::INTEGER)
                          ELSE 0 END)::UBIGINT AS simhash
               FROM bitv GROUP BY doc_id)
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
        FROM sh a JOIN sh b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.simhash, b.simhash)) <= 6
    """,
    "embedding_knn": """
        WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                   FROM embeddings ORDER BY vec_id LIMIT 20)
        SELECT query_id,
               row_number() OVER (
                   PARTITION BY query_id
                   ORDER BY list_cosine_similarity(
                       qe::DOUBLE[], e.embedding::DOUBLE[]) DESC,
                       e.vec_id) AS rank,
               e.vec_id AS neighbor_id
        FROM q, embeddings e
        WHERE e.vec_id <> query_id
        QUALIFY rank <= 5
    """,
    "embedding_near_dup": """
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
        FROM embeddings a, embeddings b
        WHERE a.vec_id < b.vec_id
          AND list_cosine_similarity(a.embedding::DOUBLE[],
                                     b.embedding::DOUBLE[]) >= 0.3
    """,
}

def _lang_id_oracle() -> str:
    """Generated from _LANG_MARKERS so the marker sets can never drift
    between the Ray pipeline and the SQL oracle."""
    values = ", ".join(f"('{lang}', '{w}')"
                       for lang in sorted(_LANG_MARKERS)
                       for w in sorted(_LANG_MARKERS[lang]))
    return rf"""
        WITH w AS (SELECT DISTINCT doc_id,
                          unnest(regexp_split_to_array(trim(text), '\s+'))
                              AS word
                   FROM documents),
        m(lang, word) AS (VALUES {values}),
        hits AS (SELECT w.doc_id, m.lang, count(*) AS c
                 FROM w JOIN m ON w.word = m.word GROUP BY 1, 2),
        best AS (SELECT doc_id, lang,
                        row_number() OVER (PARTITION BY doc_id
                            ORDER BY c DESC, lang) AS rn
                 FROM hits)
        SELECT d.doc_id, coalesce(b.lang, 'unk') AS pred_lang
        FROM documents d
        LEFT JOIN best b ON b.doc_id = d.doc_id AND b.rn = 1
    """


ORACLES["lang_id"] = _lang_id_oracle()
ORACLES["curate_corpus"] = _curate_oracle()

# components oracle derives from the SAME jaccard pair SQL (no drift):
# recursive reachability over the undirected pair graph, min reachable
# id per node == the label-propagation fixpoint.
ORACLES["near_dup_components"] = f"""
    WITH RECURSIVE pairs AS ({ORACLES["jaccard_near_dup"]}),
    edges AS (SELECT doc_a AS u, doc_b AS v FROM pairs
              UNION SELECT doc_b, doc_a FROM pairs),
    reach(doc_id, r) AS (
        SELECT u, u FROM (SELECT DISTINCT u FROM edges) t
        UNION
        SELECT e.u, reach.r FROM edges e JOIN reach ON reach.doc_id = e.v)
    SELECT doc_id, min(r) AS component FROM reach GROUP BY doc_id
"""

ORACLES["near_dup_collapse"] = f"""
    WITH RECURSIVE pairs AS ({ORACLES["jaccard_near_dup"]}),
    edges AS (SELECT doc_a AS u, doc_b AS v FROM pairs
              UNION SELECT doc_b, doc_a FROM pairs),
    reach(doc_id, r) AS (
        SELECT u, u FROM (SELECT DISTINCT u FROM edges) t
        UNION
        SELECT e.u, reach.r FROM edges e JOIN reach ON reach.doc_id = e.v),
    comp AS (SELECT doc_id, min(r) AS component FROM reach GROUP BY doc_id)
    SELECT doc_id FROM documents
    WHERE doc_id NOT IN
        (SELECT doc_id FROM comp WHERE doc_id != component)
"""

ORACLES["dedup_keep_best"] = r"""
    WITH f AS (SELECT doc_id, n_chars,
        md5(array_to_string(list_sort(list_distinct(
            regexp_split_to_array(trim(text), '\s+'))), ' ')) AS set_fp
        FROM documents)
    SELECT set_fp, doc_id, n_chars FROM f
    QUALIFY row_number() OVER (PARTITION BY set_fp
                               ORDER BY n_chars DESC, doc_id) = 1
"""

ORACLES["vocab_topk"] = r"""
    SELECT word, count(*) AS n FROM (
        SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS word
        FROM documents) t
    GROUP BY word ORDER BY n DESC, word LIMIT 100
"""

ORACLES["doc_top_terms"] = r"""
    WITH tokens AS (
        SELECT doc_id,
               unnest(regexp_split_to_array(trim(text), '\s+')) AS word
        FROM documents),
    tf AS (SELECT doc_id, word, count(*) AS tf FROM tokens GROUP BY 1, 2),
    df AS (SELECT word, count(DISTINCT doc_id) AS df FROM tokens GROUP BY 1)
    SELECT doc_id, word, tf, df FROM (
        SELECT tf.doc_id, tf.word, tf.tf, df.df,
               row_number() OVER (PARTITION BY tf.doc_id
                                  ORDER BY tf.tf DESC, tf.word) AS rn
        FROM tf JOIN df USING (word)) t
    WHERE rn <= 3
"""

ORACLES["sample_per_source"] = """
    SELECT source, doc_id FROM (
        SELECT source, doc_id,
               row_number() OVER (PARTITION BY source
                   ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
        FROM documents) t
    WHERE rn <= 10
"""

ORACLES["source_token_stats"] = r"""
    SELECT source, count(*) AS n_docs,
           CAST(sum(len(regexp_split_to_array(trim(text), '\s+')))
                AS BIGINT) AS n_tokens,
           count(DISTINCT lang) AS n_langs
    FROM documents GROUP BY source
"""

ORACLES["decontaminate"] = r"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
        FROM documents),
    grams AS (
        SELECT doc_id, array_to_string(ws[i:i+12], ' ') AS g
        FROM toks, UNNEST(range(1, len(ws) - 11)) AS t(i)),
    bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 50 = 0)
    SELECT doc_id, count(DISTINCT g) AS n_hits
    FROM grams
    WHERE doc_id % 50 != 0 AND g IN (SELECT g FROM bench)
    GROUP BY doc_id
"""

ORACLES["token_len_hist"] = r"""
    SELECT len(regexp_split_to_array(trim(text), '\s+')) // 10 * 10
               AS bucket,
           count(*) AS n_docs
    FROM documents GROUP BY 1
"""

ORACLES["dup_window_coverage"] = r"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
        FROM documents),
    grams AS (
        SELECT DISTINCT doc_id, array_to_string(ws[i:i+19], ' ') AS g
        FROM toks, UNNEST(range(1, len(ws) - 18)) AS t(i)
        WHERE len(ws) >= 20),
    flagged AS (
        SELECT doc_id,
               CASE WHEN count(*) OVER (PARTITION BY g) > 1
                    THEN 1 ELSE 0 END AS dup
        FROM grams)
    SELECT doc_id, count(*) AS n_windows,
           CAST(sum(dup) AS BIGINT) AS n_dup_windows
    FROM flagged GROUP BY doc_id
"""

ORACLES["winnow_fingerprint"] = r"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
        FROM documents),
    grams AS (
        SELECT doc_id, CAST(i AS BIGINT) AS pos, len(ws) - 3 AS n_grams,
               CAST(((((('0x'||substr(md5(ws[i]),1,16))::UBIGINT::HUGEINT
                         * 1000003
                       + ('0x'||substr(md5(ws[i+1]),1,16))::UBIGINT)
                         * 1000003
                       + ('0x'||substr(md5(ws[i+2]),1,16))::UBIGINT)
                         * 1000003
                       + ('0x'||substr(md5(ws[i+3]),1,16))::UBIGINT)
                      % 18446744073709551616) AS UBIGINT) AS g
        FROM toks, UNNEST(range(1, len(ws) - 2)) AS t(i)
        WHERE len(ws) >= 4),
    windowed AS (
        SELECT doc_id, pos, n_grams,
               min(g) OVER (PARTITION BY doc_id ORDER BY pos
                            ROWS BETWEEN CURRENT ROW AND 4 FOLLOWING)
                   AS w5,
               min(g) OVER (PARTITION BY doc_id) AS wall
        FROM grams),
    sel AS (
        SELECT DISTINCT doc_id,
               CASE WHEN n_grams >= 5 THEN w5 ELSE wall END AS wmin
        FROM windowed
        WHERE n_grams < 5 OR pos <= n_grams - 4),
    agg AS (
        SELECT doc_id, count(*) AS n_fingerprints,
               bit_xor(wmin) AS dig
        FROM sel GROUP BY doc_id)
    SELECT d.doc_id,
           coalesce(a.n_fingerprints, 0) AS n_fingerprints,
           CAST(coalesce(CASE WHEN a.dig >= 9223372036854775808::UBIGINT
                              THEN a.dig::HUGEINT - 18446744073709551616
                              ELSE a.dig::HUGEINT END, 0) AS BIGINT)
               AS digest
    FROM documents d LEFT JOIN agg a USING (doc_id)
"""

ORACLES["lm_bigram_score"] = r"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
        FROM documents WHERE trim(text) <> ''),
    grams AS (
        SELECT doc_id, ws[i] || ' ' || ws[i+1] AS g
        FROM toks, UNNEST(range(1, len(ws))) AS t(i)),
    train AS (
        SELECT g, count(*) AS c FROM grams
        WHERE doc_id % 50 = 0 GROUP BY g),
    score AS (
        SELECT doc_id, g FROM grams WHERE doc_id % 50 <> 0)
    SELECT doc_id, count(*) AS n_bigrams,
           CAST(coalesce(sum(c), 0) AS BIGINT) AS mass,
           CAST(sum(CASE WHEN c IS NULL THEN 1 ELSE 0 END) AS BIGINT)
               AS n_oov
    FROM score LEFT JOIN train USING (g)
    GROUP BY doc_id
"""

ORACLES["line_dedup"] = r"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
        FROM documents WHERE trim(text) <> ''),
    lines AS (
        SELECT doc_id, CAST(i AS BIGINT) AS line_no,
               array_to_string(ws[i*16+1 : i*16+16], ' ') AS line
        FROM toks, UNNEST(range(0, CAST(ceil(len(ws)/16.0) AS BIGINT)))
             AS t(i)),
    ranked AS (
        SELECT doc_id, line_no, line,
               row_number() OVER (PARTITION BY line
                                  ORDER BY doc_id, line_no) AS rk
        FROM lines)
    SELECT doc_id,
           coalesce(string_agg(CASE WHEN rk = 1 THEN line END, ' '
                               ORDER BY line_no), '') AS clean_text,
           count(*) AS n_lines,
           CAST(sum(CASE WHEN rk = 1 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_lines_kept
    FROM ranked GROUP BY doc_id
"""

ORACLES["gopher_repetition"] = r"""
    WITH base AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
        FROM documents),
    counts AS (
        SELECT doc_id, len(ws) AS n_words,
               len(list_distinct(ws)) AS n_distinct, ws FROM base),
    grams AS (
        SELECT doc_id, ws[i] || ' ' || ws[i+1] AS g
        FROM counts, UNNEST(range(1, len(ws))) AS t(i)),
    top AS (
        SELECT doc_id, max(c) AS top2_count FROM (
            SELECT doc_id, g, count(*) AS c FROM grams
            GROUP BY doc_id, g) GROUP BY doc_id)
    SELECT c.doc_id, n_words, n_distinct,
           COALESCE(top2_count, 0) AS top2_count,
           CASE WHEN n_words >= 2 THEN n_words - 1 ELSE 0 END AS n_2grams,
           CAST(CASE WHEN n_distinct * 10 >= n_words * 3
                      AND (n_words < 2
                           OR COALESCE(top2_count, 0) * 5 <= n_words - 1)
                     THEN 1 ELSE 0 END AS BIGINT) AS keep
    FROM counts c LEFT JOIN top USING (doc_id)
"""

ORACLES["source_len_quantiles"] = r"""
    WITH c AS (
        SELECT source, n_chars, count(*) AS c
        FROM documents GROUP BY 1, 2),
    w AS (
        SELECT source, n_chars,
               sum(c) OVER (PARTITION BY source ORDER BY n_chars) AS cum,
               sum(c) OVER (PARTITION BY source) AS n
        FROM c)
    SELECT source,
           min(CASE WHEN cum * 100 >= 25 * n THEN n_chars END) AS p25,
           min(CASE WHEN cum * 100 >= 50 * n THEN n_chars END) AS p50,
           min(CASE WHEN cum * 100 >= 75 * n THEN n_chars END) AS p75,
           min(CASE WHEN cum * 100 >= 95 * n THEN n_chars END) AS p95
    FROM w GROUP BY source
"""

# ---------------------------------------------------------------------------
# DSIR importance resampling (hashed n-gram features)
# ---------------------------------------------------------------------------

_DSIR_B = 4096                 # hashed feature buckets (fixed model size)
_DSIR_BUCKET_CACHE: dict[str, int] = {}


def _dsir_buckets(words: list[str]) -> np.ndarray:
    """Hashed unigram+bigram feature buckets (Xie et al. 2023 §2.1: the
    featurization is a bag of hashed n-grams).  Bucket = high-32 md5 of
    the gram mod ``_DSIR_B`` — chosen because DuckDB replays it
    bit-exactly (``('0x' || substr(md5(g),1,8))::BIGINT % B``), so the
    oracle shares the hash function instead of approximating it.
    Memoized per distinct gram per worker (Zipf: grams repeat)."""
    cache = _DSIR_BUCKET_CACHE
    if len(cache) > 2_000_000:
        cache.clear()
    grams = words + [f"{a} {b}" for a, b in zip(words, words[1:])]
    out = np.empty(len(grams), dtype=np.int64)
    for i, g in enumerate(grams):
        v = cache.get(g)
        if v is None:
            v = int.from_bytes(hashlib.md5(g.encode()).digest()[:4],
                               "big") % _DSIR_B
            cache[g] = v
        out[i] = v
    return out


def _dsir_score(b: pa.Table, model) -> pa.Table:
    """Scoring pass: ``model`` is ONE ref to the two fixed-size count
    vectors and their totals, fetched once per worker process; per doc
    the masses are two vectorized gathers over the bucket array."""
    tvec, rvec, tt, rt = _broadcast_get(model)
    ids, n_g, tm, rm, sel = [], [], [], [], []
    for doc_id, t in zip(b["doc_id"].to_numpy(), b["text"].to_pylist()):
        if doc_id % 50 == 0:
            continue
        ws = t.split()
        if not ws:
            continue
        bx = _dsir_buckets(ws)
        t_mass = int(tvec[bx].sum())
        r_mass = int(rvec[bx].sum())
        ids.append(int(doc_id))
        n_g.append(len(bx))
        tm.append(t_mass)
        rm.append(r_mass)
        sel.append(t_mass * rt > r_mass * tt)
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "n_grams": pa.array(n_g, pa.int64()),
                     "target_mass": pa.array(tm, pa.int64()),
                     "raw_mass": pa.array(rm, pa.int64()),
                     "selected": pa.array(sel, pa.bool_())})


def q_dsir_select(sf_dir):
    """DSIR data selection (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): featurize every doc
    as a bag of hashed unigram+bigram buckets, fit target (holdout
    split, doc_id % 50 == 0) and raw bucket-count distributions, and
    gate each raw doc on its importance evidence.  Output is the
    INTEGER sufficient statistics — n_grams plus target_mass/raw_mass,
    the sums over the doc's gram positions of the trained bucket
    counts — and ``selected``, the cross-multiplied mass-ratio gate
    ``target_mass * Σraw > raw_mass * Σtarget`` (does the target
    distribution put above-average mass on this doc's buckets?): the
    integer-exact surrogate of the paper's float log-ratio sum, chosen
    so results hash bit-exactly across engines.

    Scale shape: the model is TWO fixed ``_DSIR_B``-length count
    vectors regardless of corpus size — the entire point of hashed
    features — so there is no broadcast envelope to fall back from:
    pass 1 is a per-batch dense-vector combiner folded on the driver
    (O(B) rows per batch ever cross, never grams), pass 2 a
    zero-shuffle streaming scoring pass."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def partials(b: pa.Table) -> pa.Table:
        tvec = np.zeros(_DSIR_B, dtype=np.int64)
        rvec = np.zeros(_DSIR_B, dtype=np.int64)
        for doc_id, t in zip(b["doc_id"].to_numpy(),
                             b["text"].to_pylist()):
            ws = t.split()
            if not ws:
                continue
            np.add.at(tvec if doc_id % 50 == 0 else rvec,
                      _dsir_buckets(ws), 1)
        nz = np.flatnonzero(tvec | rvec)
        return pa.table({"b": pa.array(nz, pa.int64()),
                         "tc": pa.array(tvec[nz], pa.int64()),
                         "rc": pa.array(rvec[nz], pa.int64())})

    tvec = np.zeros(_DSIR_B, dtype=np.int64)
    rvec = np.zeros(_DSIR_B, dtype=np.int64)
    for part in (docs.map_batches(partials, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=None)):
        bx = part["b"].to_numpy()
        tvec[bx] += part["tc"].to_numpy()
        rvec[bx] += part["rc"].to_numpy()
    model = ray.put((tvec, rvec, int(tvec.sum()), int(rvec.sum())))
    return docs.map_batches(_dsir_score, batch_format="pyarrow",
                            fn_kwargs={"model": model})


ORACLES["dsir_select"] = rf"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
        FROM documents WHERE trim(text) <> ''),
    grams AS (
        SELECT doc_id, ws[i] AS g
        FROM toks, UNNEST(range(1, len(ws) + 1)) AS t(i)
        UNION ALL
        SELECT doc_id, ws[i] || ' ' || ws[i+1] AS g
        FROM toks, UNNEST(range(1, len(ws))) AS t(i)),
    bux AS (
        SELECT doc_id,
               ('0x' || substr(md5(g), 1, 8))::BIGINT % {_DSIR_B} AS b
        FROM grams),
    tvec AS (SELECT b, count(*) AS tc FROM bux
             WHERE doc_id % 50 = 0 GROUP BY b),
    rvec AS (SELECT b, count(*) AS rc FROM bux
             WHERE doc_id % 50 <> 0 GROUP BY b),
    tot AS (SELECT (SELECT coalesce(sum(tc), 0) FROM tvec) AS tt,
                   (SELECT coalesce(sum(rc), 0) FROM rvec) AS rt),
    doc AS (
        SELECT doc_id, count(*) AS n_grams,
               CAST(coalesce(sum(tc), 0) AS BIGINT) AS target_mass,
               CAST(coalesce(sum(rc), 0) AS BIGINT) AS raw_mass
        FROM bux LEFT JOIN tvec USING (b) LEFT JOIN rvec USING (b)
        WHERE doc_id % 50 <> 0
        GROUP BY doc_id)
    SELECT doc_id, n_grams, target_mass, raw_mass,
           (CAST(target_mass AS HUGEINT) * rt
              > CAST(raw_mass AS HUGEINT) * tt) AS selected
    FROM doc, tot
"""


# ---------------------------------------------------------------------------
# exact-substring dedup rewrite (Lee et al. 2022 ExactSubstr)
# ---------------------------------------------------------------------------

_SUBSTR_N = 20                       # window width, tokens (= _WINDOW_N)
_SUBSTR_MAX_DISTINCT = 2_000_000     # broadcast-election envelope


def _substr_digests(ws: list[str]) -> list[bytes]:
    """md5-128 digest per overlapping `_SUBSTR_N`-token window — the
    content IDENTITY (same exactness contract as dedup_counts), so the
    oracle's string comparison and this digest comparison agree w.h.p.
    A rolling polynomial would do for ROUTING, but identity must not
    depend on a 64-bit hash."""
    return [hashlib.md5(" ".join(ws[i:i + _SUBSTR_N]).encode()).digest()
            for i in range(len(ws) - _SUBSTR_N + 1)]


def _covered_mask(n: int, starts: np.ndarray) -> np.ndarray:
    """Token-coverage mask from duplicated-window start positions:
    classic diff-array, one cumsum."""
    d = np.zeros(n + 1, dtype=np.int64)
    np.add.at(d, starts, 1)
    np.add.at(d, np.minimum(starts + _SUBSTR_N, n), -1)
    return np.cumsum(d[:-1]) > 0


def _substr_rebuild_row(doc_id: int, ws: list[str],
                        starts: np.ndarray) -> tuple:
    cov = _covered_mask(len(ws), starts)
    kept = [w for w, c in zip(ws, cov) if not c]
    return (doc_id, " ".join(kept), len(ws), len(kept))


def _collect_dup_windows(docs):
    """Driver-side duplicated-window election: per batch a combiner
    keeps digest → occurrence count (saturating at 2 — only ">= 2"
    matters), so what streams back is distinct-windows-per-batch.
    Returns the frozenset of duplicated digests, or None past the
    envelope (caller switches to the exchange path)."""
    def batch_counts(b: pa.Table) -> pa.Table:
        cnt: dict[bytes, int] = {}
        for t in b["text"].to_pylist():
            ws = t.split()
            for d in _substr_digests(ws):
                c = cnt.get(d, 0)
                if c < 2:
                    cnt[d] = c + 1
        return pa.table({
            "d": pa.array(list(cnt.keys()), pa.binary()),
            "c": pa.array(list(cnt.values()), pa.int64())})

    cnt: dict[bytes, int] = {}
    for b in (docs.map_batches(batch_counts, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow", batch_size=None)):
        for d, c in zip(b["d"].to_pylist(), b["c"].to_numpy()):
            cur = cnt.get(d, 0)
            if cur < 2:
                cnt[d] = min(cur + int(c), 2)
                if len(cnt) > _SUBSTR_MAX_DISTINCT:
                    return None
    return frozenset(d for d, c in cnt.items() if c >= 2)


def _substr_rewrite(b: pa.Table, dup) -> pa.Table:
    """Broadcast-path rewrite: ``dup`` is a ref to the duplicated-digest
    set, fetched once per worker process; each doc re-derives its
    windows locally and drops every token covered by a duplicated
    window — zero text shuffle."""
    dup = _broadcast_get(dup)
    rows = []
    for doc_id, t in zip(b["doc_id"].to_numpy(), b["text"].to_pylist()):
        ws = t.split()
        if not ws:
            continue
        starts = np.fromiter(
            (i for i, d in enumerate(_substr_digests(ws)) if d in dup),
            dtype=np.int64)
        rows.append(_substr_rebuild_row(int(doc_id), ws, starts))
    return _substr_table(rows)


_SUBSTR_SCHEMA = pa.schema([("doc_id", pa.int64()),
                            ("clean_text", pa.string()),
                            ("n_tokens", pa.int64()),
                            ("n_tokens_kept", pa.int64())])


def _substr_table(rows: list[tuple]) -> pa.Table:
    cols = list(zip(*rows)) or [()] * len(_SUBSTR_SCHEMA)
    return pa.table([pa.array(c, f.type)
                     for c, f in zip(cols, _SUBSTR_SCHEMA)],
                    schema=_SUBSTR_SCHEMA)


def _substr_dedup_shuffled(docs):
    """Exact fallback past the election envelope: occurrence rows
    (h=digest-high64 routing key, full digest, doc, pos) co-partition
    by h; each partition flags digests occurring >= 2 times (exact
    128-bit compare, one factorize) and emits ONLY the duplicated
    (doc, pos) pairs; the
    flagged positions then meet the document payloads in a two-sided
    exchange on doc_id, and each partition rebuilds its docs locally.
    Two O(occurrences) exchanges, text moves once, nothing on the
    driver."""
    from .neardup import _apply, _key_part, partition_apply

    def explode(b: pa.Table) -> pa.Table:
        hs, ds, ids, ps = [], [], [], []
        for doc_id, t in zip(b["doc_id"].to_numpy(),
                             b["text"].to_pylist()):
            for i, d in enumerate(_substr_digests(t.split())):
                hs.append(int.from_bytes(d[:8], "big", signed=True))
                ds.append(d)
                ids.append(int(doc_id))
                ps.append(i)
        return pa.table({"h": pa.array(hs, pa.int64()),
                         "d": pa.array(ds, pa.binary()),
                         "doc_id": pa.array(ids, pa.int64()),
                         "pos": pa.array(ps, pa.int64())})

    def flag(t: pa.Table) -> pa.Table:
        import pandas as pd
        codes = pd.factorize(t["d"].to_numpy(zero_copy_only=False))[0]
        dup = np.bincount(codes)[codes] >= 2
        return pa.table({
            "doc_id": pa.array(t["doc_id"].to_numpy()[dup]),
            "pos": pa.array(t["pos"].to_numpy()[dup])})

    def rebuild(texts: pa.Table, dups) -> pa.Table:
        d_ids = pos = np.empty(0, np.int64)
        if dups is not None:
            d_ids, pos = dups["doc_id"].to_numpy(), dups["pos"].to_numpy()
            order = np.lexsort((pos, d_ids))
            d_ids, pos = d_ids[order], pos[order]
        ids = texts["doc_id"].to_numpy()
        lo = np.searchsorted(d_ids, ids, side="left")
        hi = np.searchsorted(d_ids, ids, side="right")
        rows = []
        for i, t, a, b in zip(ids, texts["text"].to_pylist(), lo, hi):
            ws = t.split()
            if ws:
                rows.append(_substr_rebuild_row(int(i), ws, pos[a:b]))
        return _substr_table(rows)

    dup_pos = partition_apply(
        docs.map_batches(explode, batch_format="pyarrow"), "h", flag,
        pa.schema([("doc_id", pa.int64()), ("pos", pa.int64())]))
    return _apply(rebuild, _SUBSTR_SCHEMA,
                  (docs, functools.partial(_key_part, "doc_id")),
                  (dup_pos, functools.partial(_key_part, "doc_id")))


def q_substring_dedup(sf_dir):
    """Exact-substring dedup rewrite (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better", ExactSubstr): any
    overlapping `_SUBSTR_N`-token window whose exact content occurs
    more than once corpus-wide (across docs or within one) marks all
    the tokens it covers, and EVERY occurrence is removed (the
    released tool's behavior; first-wins retention is the line_dedup
    variant).  Docs shorter than the window keep their text whole;
    docs that tokenize empty emit no row.

    Scale shape, two paths (the line_dedup pattern): duplicated-window
    digests elected via a per-batch saturating combiner + driver fold,
    broadcast once by ray.put — the rewrite pass never moves a
    document; past `_SUBSTR_MAX_DISTINCT` an exact two-exchange form
    (co-partition occurrences by digest, flag count >= 2 per 128-bit
    identity, co-partition flagged positions with the doc payloads by
    doc_id)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    dup = _collect_dup_windows(docs)
    if dup is None:
        return _substr_dedup_shuffled(docs)
    return docs.map_batches(_substr_rewrite, batch_format="pyarrow",
                            fn_kwargs={"dup": ray.put(dup)})


ORACLES["substring_dedup"] = r"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
        FROM documents WHERE trim(text) <> ''),
    wins AS (
        SELECT doc_id, CAST(i AS BIGINT) AS pos,
               array_to_string(ws[i+1 : i+20], ' ') AS w
        FROM toks, UNNEST(range(0, len(ws) - 19)) AS t(i)),
    dup AS (
        SELECT doc_id, pos FROM (
            SELECT doc_id, pos, count(*) OVER (PARTITION BY w) AS c
            FROM wins) WHERE c > 1),
    tok AS (
        SELECT doc_id, CAST(i AS BIGINT) AS ord, ws[i+1] AS tok,
               len(ws) AS n_tokens
        FROM toks, UNNEST(range(0, len(ws))) AS t(i)),
    cov AS (
        SELECT DISTINCT t.doc_id, t.ord
        FROM tok t JOIN dup d
          ON d.doc_id = t.doc_id
         AND t.ord BETWEEN d.pos AND d.pos + 19)
    SELECT t.doc_id,
           coalesce(string_agg(CASE WHEN c.ord IS NULL THEN t.tok END,
                               ' ' ORDER BY t.ord), '') AS clean_text,
           any_value(t.n_tokens) AS n_tokens,
           CAST(sum(CASE WHEN c.ord IS NULL THEN 1 ELSE 0 END)
                AS BIGINT) AS n_tokens_kept
    FROM tok t LEFT JOIN cov c
      ON c.doc_id = t.doc_id AND c.ord = t.ord
    GROUP BY t.doc_id
"""


# ---------------------------------------------------------------------------
# Count-Min sketch word frequencies
# ---------------------------------------------------------------------------

_CMS_DEPTH, _CMS_WIDTH = 4, 1024
_CMS_BUCKET_CACHE: dict[str, np.ndarray] = {}


def _cms_buckets(word: str) -> np.ndarray:
    """One bucket per sketch row: md5-high32 of ``f"{r}:{word}"`` mod
    width — the hash DuckDB replays bit-exactly (same trick as
    `_dsir_buckets`).  Memoized per distinct word per worker."""
    cache = _CMS_BUCKET_CACHE
    v = cache.get(word)
    if v is None:
        if len(cache) > 1_000_000:
            cache.clear()
        v = np.array([int.from_bytes(
            hashlib.md5(f"{r}:{word}".encode()).digest()[:4],
            "big") % _CMS_WIDTH for r in range(_CMS_DEPTH)],
            dtype=np.int64)
        cache[word] = v
    return v


def q_cms_word_counts(sf_dir):
    """Count-Min sketch word frequencies (Cormode & Muthukrishnan
    2005): a depth-4 x width-1024 integer counter array summarizes
    every word occurrence in the corpus; a probe word's estimate is
    the min over rows of its counters — never an undercount, and with
    integer counters + the shared md5 row hashes the WHOLE sketch and
    every estimate replay bit-exactly in DuckDB.  Output: estimated
    occurrence count for each stopword probe.  The scale story is the
    sketch's: per-batch partial sketches (32 KB, fixed regardless of
    corpus size) sum on the driver — the mergeable-counter analogue of
    `hll_distinct`, for when exact `vocab_topk` would shuffle the full
    vocabulary."""
    docs = _read(sf_dir, "documents", ["text"])

    def partial(b: pa.Table) -> pa.Table:
        sk = np.zeros((_CMS_DEPTH, _CMS_WIDTH), dtype=np.int64)
        counts: dict[str, int] = {}
        for t in b["text"].to_pylist():
            for w in t.split():
                counts[w] = counts.get(w, 0) + 1
        for w, c in counts.items():
            sk[np.arange(_CMS_DEPTH), _cms_buckets(w)] += c
        return pa.table({"sk": pa.array([sk.tobytes()], pa.binary())})

    sk = np.zeros((_CMS_DEPTH, _CMS_WIDTH), dtype=np.int64)
    for part in (docs.map_batches(partial, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=None)):
        for blob in part["sk"].to_pylist():
            sk += np.frombuffer(blob, dtype=np.int64).reshape(
                _CMS_DEPTH, _CMS_WIDTH)
    words = sorted(STOPWORDS)
    ests = [int(sk[np.arange(_CMS_DEPTH), _cms_buckets(w)].min())
            for w in words]
    return pa.table({"word": pa.array(words, pa.string()),
                     "est_count": pa.array(ests, pa.int64())})


ORACLES["cms_word_counts"] = r"""
    WITH words AS (
        SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS w
        FROM documents WHERE trim(text) <> ''),
    occ AS (SELECT w, count(*) AS c FROM words GROUP BY w),
    cnt AS (
        SELECT r,
               ('0x' || substr(md5(r::VARCHAR || ':' || w), 1, 8))
                   ::BIGINT % 1024 AS b,
               sum(c) AS v
        FROM occ, UNNEST([0, 1, 2, 3]) AS t(r)
        GROUP BY 1, 2),
    probes AS (
        SELECT unnest(['the','a','of','to','and','in','is']) AS word),
    pb AS (
        SELECT word, r,
               ('0x' || substr(md5(r::VARCHAR || ':' || word), 1, 8))
                   ::BIGINT % 1024 AS b
        FROM probes, UNNEST([0, 1, 2, 3]) AS t(r))
    SELECT word, CAST(min(coalesce(v, 0)) AS BIGINT) AS est_count
    FROM pb LEFT JOIN cnt USING (r, b)
    GROUP BY word
"""


# ---------------------------------------------------------------------------
# incremental dedup (new batch vs historical corpus)
# ---------------------------------------------------------------------------

_INCR_BUCKETS = 32


def q_dedup_incremental(sf_dir):
    """Incremental corpus refresh: dedup a NEW document batch
    (doc_id % 5 == 0) against the HISTORICAL corpus (the rest) plus
    itself, exact-by-content, first-wins within the batch — the op a
    recurring crawl runs before appending to the training corpus.

    Scale shape: content digests co-partition by hash bucket; inside
    each bucket group a cuckoo filter built from the history keys
    (state/cuckoo.py — the URL-seen machinery reused for content
    identity) prefilters the new side: a miss PROVES never-seen (no
    false negatives), so only the ~5% cuckoo-maybe docs pay the exact
    128-bit digest confirmation (np.isin on the sorted history pairs).
    At production scale the per-bucket filters and digest tables are
    the PERSISTED artifact of the previous run (exactly how the crawl
    frontier checkpoints its shards) and a refresh streams only the
    new batch; the one-time history build is inlined here so the
    query is self-contained.  Identity = md5-128, the same exactness
    contract as `dedup_counts`."""
    from .state.cuckoo import CuckooFilter

    def digest(b: pa.Table) -> pa.Table:
        h1, h2 = _md5_halves(b["text"].to_pylist())
        return pa.table({
            "doc_id": b["doc_id"],
            "h1": pa.array(h1),
            "h2": pa.array(h2),
            "bucket": pa.array(h1 % _INCR_BUCKETS)})

    def refresh(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy()
        h1 = g["h1"].to_numpy()
        h2 = g["h2"].to_numpy()
        is_new = ids % 5 == 0
        keys = h1.view(np.uint64)
        hist_k, new_k = keys[~is_new], keys[is_new]
        cf = CuckooFilter(max(len(hist_k), 16))
        cf.add_many(hist_k)
        pairs = np.rec.fromarrays([h1, h2], names="a,b")
        hist_p, new_p = pairs[~is_new], pairs[is_new]
        maybe = cf.contains_many(new_k) if len(new_k) else \
            np.zeros(0, dtype=bool)
        dup = np.zeros(len(new_k), dtype=bool)
        if maybe.any() and len(hist_p):
            dup[maybe] = np.isin(new_p[maybe], hist_p)
        new_ids = ids[is_new][~dup]
        new_pp = new_p[~dup]
        # first-wins within the batch: min doc_id per content
        o = np.lexsort((new_ids, new_pp["b"], new_pp["a"]))
        new_ids, new_pp = new_ids[o], new_pp[o]
        first = np.ones(len(new_ids), dtype=bool)
        if len(new_ids) > 1:
            first[1:] = (np.diff(new_pp["a"]) != 0) \
                | (np.diff(new_pp["b"]) != 0)
        keep_h = [(int(a).to_bytes(8, "big", signed=True)
                   + int(b2).to_bytes(8, "big", signed=True)).hex()
                  for a, b2 in zip(new_pp["a"][first],
                                   new_pp["b"][first])]
        return pa.table({
            "doc_id": pa.array(new_ids[first].astype(np.int64)),
            "content_hash": pa.array(keep_h, pa.string())})

    from .neardup import group_apply
    return group_apply(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(digest, batch_format="pyarrow"),
        "bucket", refresh,
        pa.schema([("doc_id", pa.int64()), ("content_hash", pa.string())]))


ORACLES["dedup_incremental"] = r"""
    WITH hist AS (
        SELECT text FROM documents WHERE doc_id % 5 <> 0),
    new AS (
        SELECT doc_id, text FROM documents WHERE doc_id % 5 = 0)
    SELECT min(doc_id) AS doc_id, md5(text) AS content_hash
    FROM new
    WHERE text NOT IN (SELECT text FROM hist)
    GROUP BY text
"""


def q_dedup_incremental_artifact(sf_dir):
    """The PERSISTED-artifact path of dedup_incremental
    (pipelines/dedup_store end to end): build the per-bucket
    cuckoo/digest artifact from the HISTORY split (doc_id % 5 != 0),
    then refresh the NEW split against it — history text is never
    re-read during the refresh.  Same oracle as dedup_incremental:
    the inlined and persisted paths must agree bit-for-bit."""
    import shutil
    import tempfile

    from .pipelines import dedup_store

    art = tempfile.mkdtemp(prefix="pyspider_ray_dedup_art_")
    try:
        def hist(b: pa.Table) -> pa.Table:
            return b.filter(pa.array(b["doc_id"].to_numpy() % 5 != 0))

        def new(b: pa.Table) -> pa.Table:
            return b.filter(pa.array(b["doc_id"].to_numpy() % 5 == 0))

        dedup_store.build(
            _read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(hist, batch_format="pyarrow"), art)
        survivors, _m = dedup_store.refresh(
            _read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(new, batch_format="pyarrow"),
            art, update=False)
        # refresh materialized the exchange output; the lazy column
        # drop reads object-store blocks, never the artifact dir
        return survivors.materialize()
    finally:
        shutil.rmtree(art, ignore_errors=True)


ORACLES["dedup_incremental_artifact"] = ORACLES["dedup_incremental"]


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch
# ---------------------------------------------------------------------------

_HLL_M_BITS = 6                        # 64 registers (±13% std error)
_HLL_ALPHA_NUM, _HLL_ALPHA_DEN = 709, 1000    # alpha_64 as a rational


def _hll_row_registers(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-ROW (register, rho) for the shared HLL arithmetic:
    h = md5-high64(text), register = top m bits, rho = leading zeros
    of the remaining bits + 1 — THE one implementation both sketch
    queries (and both SQL oracle replays) must stay bit-exact with."""
    w_bits = 64 - _HLL_M_BITS
    h = np.array([int.from_bytes(
        hashlib.md5(t.encode()).digest()[:8], "big")
        for t in texts], dtype=np.uint64)
    reg = (h >> np.uint64(w_bits)).astype(np.int64)
    w = h & np.uint64((1 << w_bits) - 1)
    bl = np.zeros(len(w), dtype=np.int64)     # vectorized bit length
    v = w.copy()
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(s))
        bl[big] += s
        v[big] >>= np.uint64(s)
    bl[w > 0] += 1
    rho = (w_bits + 1) - bl                    # w == 0 → w_bits + 1
    return reg, rho


def _hll_estimate(rhos_present) -> tuple[int, int]:
    """(estimate, v_zero) from the non-empty registers' max-rho values
    — exact Python ints on the common 2^(w_bits+1) denominator."""
    m = 1 << _HLL_M_BITS
    w_bits = 64 - _HLL_M_BITS
    v_zero = m - len(rhos_present)
    s_scaled = (v_zero << (w_bits + 1)) \
        + sum(1 << (w_bits + 1 - int(r)) for r in rhos_present)
    est = (_HLL_ALPHA_NUM * m * m * (1 << (w_bits + 1))) \
        // (_HLL_ALPHA_DEN * s_scaled)
    return est, v_zero


def q_hll_distinct(sf_dir):
    """HyperLogLog distinct-text estimate (Flajolet et al. 2007) with
    ALL arithmetic integer-rational, so the sketch — registers AND the
    final estimate — hashes bit-exactly against a DuckDB replay: the
    scale path for `dedup_counts`' exact distinct when 100 TB makes an
    exact count a full shuffle.  h = md5-high64(text); register = top
    6 bits; rho = leading zeros of the remaining 58 bits + 1; the
    harmonic sum rides a common denominator 2^59 (``s_scaled``) and
    the alpha bias constant a rational 709/1000, so the raw estimate
    is one HUGEINT floor-division both engines compute identically.

    Output rows: one (register, value=rho) per non-empty register,
    plus sentinel rows register=-1 (the estimate) and -2 (count of
    empty registers, what a consumer needs for the linear-counting
    small-range correction — deliberately NOT applied here: it needs
    a float log, which would break cross-engine hashing).

    Scale shape: per-batch partial registers (<= 64 rows per batch
    cross the wire, regardless of row count), driver fold of a
    64-byte state — the textbook mergeable sketch."""
    docs = _read(sf_dir, "documents", ["text"])
    m = 1 << _HLL_M_BITS

    def partial(b: pa.Table) -> pa.Table:
        reg, rho = _hll_row_registers(b["text"].to_pylist())
        best = np.zeros(m, dtype=np.int64)
        np.maximum.at(best, reg, rho)
        nz = np.flatnonzero(best)
        return pa.table({"register": pa.array(nz, pa.int64()),
                         "rho": pa.array(best[nz], pa.int64())})

    best = np.zeros(m, dtype=np.int64)
    for part in (docs.map_batches(partial, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=None)):
        np.maximum.at(best, part["register"].to_numpy(),
                      part["rho"].to_numpy())
    nz = np.flatnonzero(best)
    est, v_zero = _hll_estimate(best[nz])
    return pa.table({
        "register": pa.array(list(nz) + [-1, -2], pa.int64()),
        "value": pa.array([int(r) for r in best[nz]] + [est, v_zero],
                          pa.int64())})


ORACLES["hll_distinct"] = r"""
    WITH h AS (
        SELECT ('0x' || substr(md5(text), 1, 16))::UBIGINT AS h
        FROM documents),
    reg AS (
        SELECT CAST(h >> 58 AS BIGINT) AS register,
               max(59 - CASE
                       WHEN (h & ((1::UBIGINT << 58) - 1)) = 0 THEN 0
                       ELSE length(bin(h & ((1::UBIGINT << 58) - 1)))
                   END) AS rho
        FROM h GROUP BY 1),
    s AS (
        SELECT (SELECT count(*) FROM reg) AS n_present,
               (SELECT coalesce(sum((1::UBIGINT << (59 - rho))::HUGEINT),
                                0::HUGEINT) FROM reg) AS s_present),
    est AS (
        SELECT (709::HUGEINT * 64 * 64 * (1::UBIGINT << 59)::HUGEINT)
               // (1000::HUGEINT *
                   ((64 - n_present)::HUGEINT
                    * (1::UBIGINT << 59)::HUGEINT + s_present)) AS e,
               64 - n_present AS vz
        FROM s)
    SELECT register, rho AS value FROM reg
    UNION ALL SELECT -1, CAST(e AS BIGINT) FROM est
    UNION ALL SELECT -2, CAST(vz AS BIGINT) FROM est
"""


# ---------------------------------------------------------------------------
# FineWeb composed pre-filter, hash split, aspect-ratio bucketing
# ---------------------------------------------------------------------------

_FW_MIN_TOKENS = 20          # Gopher's 50..100k word window rescaled to
_FW_MAX_TOKENS = 90          # this corpus's 10..99-token synthetic docs


def q_fineweb_filter(sf_dir):
    """FineWeb-style composed quality gate (Penedo et al. 2024 §3.1 run
    language-ID, quality heuristics and Gopher repetition as one
    sequential filter chain): the four cheap gates evaluated in ONE
    streaming pass per doc, emitting an integer reason bitmask
    (1 quality, 2 language != en, 4 repetition, 8 token-length window)
    — the composed pre-filter a training pipeline runs before anything
    expensive, sharing a single tokenization across gates instead of
    four scans of the corpus.

    Every signal is the SAME integer expression as its standalone
    oracle-green query (quality_score / lang_id / gopher_repetition),
    so the composition stays hash-exact; the oracle below is generated
    from the same constants.

    Scale shape: zero shuffle — one map_batches with the vectorized
    stopword/alpha kernels and the memoized word-hash cache; at 100 TB
    this is the hot gate, and it reads each byte exactly once."""
    import pandas as pd

    def gates(b: pd.DataFrame) -> pd.DataFrame:
        texts = b["text"]
        trimmed = texts.str.strip()
        # quality_score's exact integer predicate
        n_tok = trimmed.str.split(r"\s+").str.len().astype("int64")
        n_stop = pd.Series(_stopword_counts(texts), index=b.index)
        n_chars = trimmed.str.len().astype("int64")
        n_alpha = trimmed.str.count(r"[A-Za-z]").astype("int64")
        q_ok = (n_stop * 10 < n_tok * 9) & (n_alpha * 2 > n_chars)
        # lang_id's marker vote + gopher_repetition's signals share the
        # python-split token list (one pass over the words per doc)
        l_ok, g_ok = [], []
        for t in texts:
            ws = t.split()
            wset = set(ws)
            best = max(sorted(_LANG_MARKERS),
                       key=lambda l: (len(wset & _LANG_MARKERS[l]), ))
            l_ok.append(bool(wset & _LANG_MARKERS[best]) and best == "en")
            h = _word_hashes(ws)
            nd = len(np.unique(h))
            if len(h) >= 2:
                g = h[:-1] * np.uint64(0x9E3779B97F4A7C15) + h[1:]
                _, c = np.unique(g, return_counts=True)
                top, n2 = int(c.max()), len(g)
            else:
                top, n2 = 0, 0
            g_ok.append(nd * 10 >= len(ws) * 3
                        and (n2 == 0 or top * 5 <= n2))
        reason = ((~q_ok.to_numpy()) * 1
                  + (~np.array(l_ok)) * 2
                  + (~np.array(g_ok)) * 4
                  + ((n_tok < _FW_MIN_TOKENS)
                     | (n_tok > _FW_MAX_TOKENS)).to_numpy() * 8
                  ).astype(np.int64)
        return pd.DataFrame({
            "doc_id": b["doc_id"], "n_tokens": n_tok,
            "reason": reason,
            "keep": (reason == 0).astype("int64")})

    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(gates, batch_format="pandas"))


def _fineweb_oracle() -> str:
    """Generated from STOPWORDS / _LANG_MARKERS / the window constants
    so the four gate expressions can never drift from the Ray pass."""
    stop = ", ".join(f"'{w}'" for w in STOPWORDS)
    markers = ", ".join(f"('{lang}', '{w}')"
                        for lang in sorted(_LANG_MARKERS)
                        for w in sorted(_LANG_MARKERS[lang]))
    return rf"""
        WITH s AS (
            SELECT doc_id, trim(text) AS t,
                   regexp_split_to_array(trim(text), '\s+') AS ws
            FROM documents),
        q AS (
            SELECT doc_id, len(ws) AS n_tokens,
                   CASE WHEN len(list_filter(ws, x -> x IN ({stop}))) * 10
                             < len(ws) * 9
                         AND len(regexp_extract_all(t, '[A-Za-z]')) * 2
                             > len(t)
                        THEN 0 ELSE 1 END AS q_bit
            FROM s),
        w AS (SELECT DISTINCT doc_id, unnest(ws) AS word FROM s),
        m(lang, word) AS (VALUES {markers}),
        hits AS (SELECT w.doc_id, m.lang, count(*) AS c
                 FROM w JOIN m ON w.word = m.word GROUP BY 1, 2),
        best AS (SELECT doc_id, lang,
                        row_number() OVER (PARTITION BY doc_id
                            ORDER BY c DESC, lang) AS rn
                 FROM hits),
        lng AS (SELECT s.doc_id,
                       CASE WHEN coalesce(b.lang, 'unk') = 'en'
                            THEN 0 ELSE 2 END AS l_bit
                FROM s LEFT JOIN best b
                     ON b.doc_id = s.doc_id AND b.rn = 1),
        counts AS (SELECT doc_id, len(ws) AS n_words,
                          len(list_distinct(ws)) AS n_distinct, ws
                   FROM s),
        grams AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] AS g
                  FROM counts, UNNEST(range(1, len(ws))) AS t(i)),
        top AS (SELECT doc_id, max(c) AS top2_count FROM (
                    SELECT doc_id, g, count(*) AS c FROM grams
                    GROUP BY doc_id, g) GROUP BY doc_id),
        rep AS (SELECT c.doc_id,
                       CASE WHEN n_distinct * 10 >= n_words * 3
                             AND (n_words < 2
                                  OR coalesce(top2_count, 0) * 5
                                     <= n_words - 1)
                            THEN 0 ELSE 4 END AS g_bit
                FROM counts c LEFT JOIN top USING (doc_id))
        SELECT q.doc_id, q.n_tokens,
               CAST(q.q_bit + lng.l_bit + rep.g_bit
                 + CASE WHEN q.n_tokens BETWEEN {_FW_MIN_TOKENS}
                                            AND {_FW_MAX_TOKENS}
                        THEN 0 ELSE 8 END AS BIGINT) AS reason,
               CAST(CASE WHEN q.q_bit + lng.l_bit + rep.g_bit = 0
                          AND q.n_tokens BETWEEN {_FW_MIN_TOKENS}
                                             AND {_FW_MAX_TOKENS}
                         THEN 1 ELSE 0 END AS BIGINT) AS keep
        FROM q JOIN lng ON lng.doc_id = q.doc_id
               JOIN rep ON rep.doc_id = q.doc_id
    """


ORACLES["fineweb_filter"] = _fineweb_oracle()


_SPLIT_BUCKETS = 100          # 98/1/1 train/valid/test


def q_dataset_split(sf_dir):
    """Deterministic content-keyed train/valid/test split: bucket =
    md5-high32 of the document TEXT mod 100 (buckets 0-97 train, 98
    valid, 99 test).  Keying on content, not doc_id, means a
    re-crawled byte-identical duplicate always lands in the same split
    — the split can never leak a duplicate across the train/eval
    boundary, which is the property that matters at 100 TB.

    Scale shape: one streaming pass, zero shuffle; the md5 is the
    repo's shared digest convention (md5-high-hex -> BIGINT) that
    DuckDB replays bit-exactly, and it runs once per doc — the same
    per-row cost every dedup pass here already pays."""
    def assign(b: pa.Table) -> pa.Table:
        buckets = np.array(
            [int(hashlib.md5(t.encode()).hexdigest()[:8], 16)
             % _SPLIT_BUCKETS
             for t in b["text"].to_pylist()], dtype=np.int64)
        split = np.where(buckets >= _SPLIT_BUCKETS - 1, 2,
                         np.where(buckets >= _SPLIT_BUCKETS - 2, 1, 0)
                         ).astype(np.int64)
        return pa.table({"doc_id": b["doc_id"],
                         "bucket": pa.array(buckets),
                         "split": pa.array(split)})
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(assign, batch_format="pyarrow"))


ORACLES["dataset_split"] = rf"""
    SELECT doc_id,
           ('0x' || substr(md5(text), 1, 8))::BIGINT
               % {_SPLIT_BUCKETS} AS bucket,
           CAST(CASE WHEN ('0x' || substr(md5(text), 1, 8))::BIGINT
                     % {_SPLIT_BUCKETS} >= {_SPLIT_BUCKETS - 1} THEN 2
                WHEN ('0x' || substr(md5(text), 1, 8))::BIGINT
                     % {_SPLIT_BUCKETS} >= {_SPLIT_BUCKETS - 2} THEN 1
                ELSE 0 END AS BIGINT) AS split
    FROM documents
"""


_IMGQ_N = 300
_IMGQ_DARK_MAX = 180     # sum-of-3-channels luma means (0..765):
_IMGQ_BRIGHT_MIN = 570   # < 60/channel too dark, > 190/channel too
_IMGQ_SPREAD_MIN = 60    # bright, luma range < 60 too flat


def _image_quality_rows(n: int | None = None) -> list[dict]:
    """Deterministic image corpus with planted degenerate exposures:
    every id with i % 11 == 5 is crushed toward black, i % 13 == 7
    toward white, i % 17 == 9 flattened to its mean color — the
    near-black / blown-out / solid-color junk a web image crawl is
    full of (LAION's brightness/uniformity prefilters)."""
    if n is None:
        n = _img_rows_env(_IMGQ_N)
    from .functions.imaging import decode_image, encode_image
    from .functions.synthweb import page_payload
    rows = []
    for i in range(n):
        r = page_payload(i)
        px = decode_image(r["bytes"])
        if i % 11 == 5:
            px = px // 4
        elif i % 13 == 7:
            px = 255 - (255 - px) // 4
        elif i % 17 == 9:
            px = np.full_like(px, px.mean(axis=(0, 1)).astype(np.uint8))
        else:
            rows.append(r)
            continue
        rows.append({**r, "bytes": encode_image(px, "png"),
                     "fmt": "png"})
    return rows


def _image_quality_stage(b: pa.Table) -> pa.Table:
    """Decode + integer exposure statistics: per image the 3-channel
    luma sum (0..765) gives mean (floor division — engine exact) and
    range; flags are integer-threshold compares.  Payload bytes never
    leave the stage."""
    from .functions.imaging import decode_image
    ids, lum, spread, reason = [], [], [], []
    for img_id, data in zip(b["image_id"].to_pylist(),
                            b["bytes"].to_pylist()):
        px = decode_image(data).astype(np.int64)
        l3 = px.sum(axis=2)
        m = int(l3.sum()) // l3.size
        s = int(l3.max() - l3.min())
        r = ((m < _IMGQ_DARK_MAX) * 1
             + (m > _IMGQ_BRIGHT_MIN) * 2
             + (s < _IMGQ_SPREAD_MIN) * 4)
        ids.append(img_id)
        lum.append(m)
        spread.append(s)
        reason.append(r)
    return pa.table({
        "image_id": pa.array(ids, pa.string()),
        "lum_mean3": pa.array(lum, pa.int64()),
        "lum_spread3": pa.array(spread, pa.int64()),
        "reason": pa.array(reason, pa.int64()),
        "keep": pa.array([int(r == 0) for r in reason], pa.int64())})


def q_image_quality_stats(sf_dir):
    """Image exposure/uniformity quality gate (the LAION-style
    brightness + solid-color prefilter a web image pipeline runs
    before any model scoring): decode tasks → integer luma
    statistics → reason bitmask (1 too dark, 2 blown out, 4 flat) —
    rows-only (synthetic image table; pinned by a driver-side kernel
    mirror + planted-degenerate accounting in pytest).

    Scale shape: the only pass over payload bytes is the decode stage
    itself (small batches — payloads are the wide column); what leaves
    is ~32 B/row of integers, and there is NO exchange at all — this
    is a pure streaming gate like fineweb_filter."""
    rows = _image_quality_rows()
    t = pa.table({
        "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
        "bytes": binary_array([r["bytes"] for r in rows]),
    })
    return (_rd().from_arrow(t)
            .map_batches(_image_quality_stage, batch_format="pyarrow",
                         batch_size=64))


def q_ccnet_buckets(sf_dir):
    """CCNet's head/middle/tail corpus partitioning (Wenzek et al.
    2020 §3.3: order documents by LM quality and cut the corpus into
    three equal-mass buckets; trainers then sample head-heavy): score
    every non-holdout doc with the count-LM's integer statistics
    (lm_bigram_score), reduce to ONE integer score per doc
    (milli-mass-per-position = mass*1000 // n_bigrams — floor division,
    engine-exact), take exact tertile thresholds off a value-domain
    histogram (the source_len_quantiles rule: smallest v with
    cum*100 >= q*n), and bucket 0=head (score > t66, most in-domain) /
    1=middle / 2=tail.

    Scale shape: the score table is ~24 B/doc metadata (0.01% of
    corpus bytes), so it materializes once and is read twice — the
    standard two-pass quantile trick; the histogram exchange is
    O(distinct scores), not O(docs), and the two thresholds broadcast
    as plain ints."""
    scored = q_lm_bigram_score(sf_dir)

    def to_score(b: pa.Table) -> pa.Table:
        mass = b["mass"].to_numpy()
        n = b["n_bigrams"].to_numpy()
        return pa.table({"doc_id": b["doc_id"],
                         "score": pa.array(mass * 1000 // n, pa.int64())})

    sc = scored.map_batches(to_score, batch_format="pyarrow").materialize()
    hist = (sc.groupby("score").count().to_pandas()
            .sort_values("score"))
    cum = hist["count()"].cumsum().to_numpy()
    n = int(cum[-1])
    vals = hist["score"].to_numpy()
    t33 = int(vals[int(np.searchsorted(cum * 100, 33 * n))])
    t66 = int(vals[int(np.searchsorted(cum * 100, 66 * n))])

    def bucket(b: pa.Table) -> pa.Table:
        s = b["score"].to_numpy()
        bk = np.where(s > t66, 0, np.where(s > t33, 1, 2)).astype(np.int64)
        return pa.table({"doc_id": b["doc_id"], "score": b["score"],
                         "bucket": pa.array(bk)})

    return sc.map_batches(bucket, batch_format="pyarrow")


ORACLES["ccnet_buckets"] = r"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
        FROM documents WHERE trim(text) <> ''),
    grams AS (
        SELECT doc_id, ws[i] || ' ' || ws[i+1] AS g
        FROM toks, UNNEST(range(1, len(ws))) AS t(i)),
    train AS (
        SELECT g, count(*) AS c FROM grams
        WHERE doc_id % 50 = 0 GROUP BY g),
    stats AS (
        SELECT doc_id, count(*) AS n_bigrams,
               coalesce(sum(c), 0) AS mass
        FROM (SELECT doc_id, g FROM grams WHERE doc_id % 50 <> 0) s
        LEFT JOIN train USING (g) GROUP BY doc_id),
    sc AS (
        SELECT doc_id,
               CAST(mass * 1000 // n_bigrams AS BIGINT) AS score
        FROM stats),
    h AS (SELECT score, count(*) AS c FROM sc GROUP BY score),
    w AS (SELECT score, sum(c) OVER (ORDER BY score) AS cum,
                 sum(c) OVER () AS n FROM h),
    t AS (SELECT min(CASE WHEN cum * 100 >= 33 * n THEN score END) AS t33,
                 min(CASE WHEN cum * 100 >= 66 * n THEN score END) AS t66
          FROM w)
    SELECT doc_id, score,
           CAST(CASE WHEN score > t66 THEN 0
                     WHEN score > t33 THEN 1
                     ELSE 2 END AS BIGINT) AS bucket
    FROM sc, t
"""


# SDXL-style aspect buckets at this corpus's 64-px scale: (w, h)
# targets a trainer would pad/resize into.  _ASPECT_LCM is the lcm of
# the bucket heights so the nearest-aspect argmin runs in EXACT
# integer arithmetic: |w/h - wb/hb| ranks identically to
# |w*hb - h*wb| * (LCM/hb) because h and LCM are shared factors.
_ASPECT_BUCKETS = ((64, 64), (80, 56), (56, 80), (96, 48), (48, 96),
                   (72, 56), (56, 72))
_ASPECT_LCM = 20160
_ASPECT_BATCH = 16


def q_image_aspect_buckets(sf_dir):
    """Aspect-ratio bucketed batch construction (the SDXL / NovelAI
    bucketing trick: group images by nearest target aspect so every
    training batch shares one shape and padding waste ~ 0): assign
    each image the bucket minimizing the exact integer aspect cost
    (ties -> lowest bucket index), then pack each bucket's images into
    fixed batches of {B} in image_id order and report per-image
    (bucket, batch_idx, slot) — rows-only (synthetic image table, no
    DuckDB view; pinned by a pure-Python Fraction mirror in pytest).

    Scale shape: the assignment pass is one vectorized (n x K) integer
    matmul-shaped argmin that PRUNES payload bytes immediately; only
    ~32 B/row of metadata rides the single groupby exchange, and each
    bucket group packs with one argsort — no Python per image."""
    rows = _image_caption_rows()
    t = pa.table({
        "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
        "bytes": binary_array([r["bytes"] for r in rows]),
        "w": pa.array([r["w"] for r in rows], pa.int32()),
        "h": pa.array([r["h"] for r in rows], pa.int32()),
    })
    wb = np.array([b[0] for b in _ASPECT_BUCKETS], dtype=np.int64)
    hb = np.array([b[1] for b in _ASPECT_BUCKETS], dtype=np.int64)
    scale = _ASPECT_LCM // hb

    def assign(b: pa.Table) -> pa.Table:
        w = b["w"].to_numpy().astype(np.int64)
        h = b["h"].to_numpy().astype(np.int64)
        cost = np.abs(w[:, None] * hb[None, :]
                      - h[:, None] * wb[None, :]) * scale[None, :]
        bucket = np.argmin(cost, axis=1).astype(np.int64)  # ties -> low k
        return pa.table({"image_id": b["image_id"],
                         "w": pa.array(w), "h": pa.array(h),
                         "bucket": pa.array(bucket)})

    def pack(g: pa.Table) -> pa.Table:
        ids = np.asarray(g["image_id"].to_pylist(), dtype=object)
        order = np.argsort(ids)
        pos = np.empty(len(ids), dtype=np.int64)
        pos[order] = np.arange(len(ids))
        return pa.table({"image_id": g["image_id"],
                         "w": g["w"], "h": g["h"],
                         "bucket": g["bucket"],
                         "batch_idx": pa.array(pos // _ASPECT_BATCH),
                         "slot": pa.array(pos % _ASPECT_BATCH)})

    from .neardup import group_apply
    return group_apply(
        _rd().from_arrow(t).map_batches(assign, batch_format="pyarrow"),
        "bucket", pack,
        pa.schema([("image_id", pa.string()), ("w", pa.int64()),
                   ("h", pa.int64()), ("bucket", pa.int64()),
                   ("batch_idx", pa.int64()), ("slot", pa.int64())]))


q_image_aspect_buckets.__doc__ = q_image_aspect_buckets.__doc__.replace(
    "{B}", str(_ASPECT_BATCH))


# ---------------------------------------------------------------------------
# token-budget corpus mixing (LLaMA/GPT-3-style per-source quotas)
# ---------------------------------------------------------------------------

_MIX_BUCKETS = 4096     # histogram resolution; boundary bucket ~ N/4096 docs
_MIX_DEN = 3            # corpus budget = total chars // 3
_MIX_W_MOD = 5          # source weight = md5(source) % 5 + 1


def _mix_hv(ids: np.ndarray) -> np.ndarray:
    """Deterministic 60-bit placement hash per doc_id — md5 of the
    decimal string, so the DuckDB oracle replays it bit-exactly
    (``('0x'||substr(md5(x),1,15))::BIGINT`` convention)."""
    return np.fromiter(
        (int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16)
         for i in ids), dtype=np.int64, count=len(ids))


def q_token_budget_mix(sf_dir):
    """Token-budget corpus mixing: give each source a char quota
    proportional to its weight (LLaMA-style data mixing: a global
    budget of ``total_chars // 3`` split ``budget * w_s // Σw``,
    with the weight derived deterministically from the source name),
    then fill each quota with the maximal prefix of that source's
    docs in placement-hash order — selected iff the running char sum
    stays ≤ quota.  Deterministic, integer-exact, restart-stable.

    Scale shape — exact ordered-prefix selection WITHOUT a global
    sort: pass 1 streams a per-(source, hash-bucket) char histogram
    (≤ sources x 4096 rows per batch ever cross; folded on the
    driver), the driver picks each source's cutoff bucket, and pass 2
    is a zero-shuffle filter: buckets strictly below the cutoff are
    selected wholesale, and only the ONE boundary bucket per source
    (expected N_s/4096 docs) enters a per-source exchange where it is
    locally sorted to fill the remainder exactly.  Reads only
    (doc_id, source, n_chars) — document text never leaves storage.
    At deeper scale the boundary bucket recurses on the next 12 hash
    bits; one level suffices here."""
    docs = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def hist(b: pa.Table) -> pa.Table:
        hv = _mix_hv(b["doc_id"].to_numpy())
        bx = (hv >> 48).astype(np.int64)
        nch = b["n_chars"].to_numpy()
        src = np.asarray(b["source"].to_pylist(), dtype=object)
        uniq, inv = np.unique(src, return_inverse=True)
        out_s: list[str] = []
        out_b: list[np.ndarray] = []
        out_c: list[np.ndarray] = []
        for k, s in enumerate(uniq):
            vec = np.zeros(_MIX_BUCKETS, dtype=np.int64)
            ii = np.flatnonzero(inv == k)
            np.add.at(vec, bx[ii], nch[ii])
            nz = np.flatnonzero(vec)
            out_s.extend([str(s)] * len(nz))
            out_b.append(nz)
            out_c.append(vec[nz])
        return pa.table({
            "source": pa.array(out_s, pa.string()),
            "b": pa.array(np.concatenate(out_b) if out_b
                          else np.empty(0, np.int64), pa.int64()),
            "chars": pa.array(np.concatenate(out_c) if out_c
                              else np.empty(0, np.int64), pa.int64())})

    vecs: dict[str, np.ndarray] = {}
    for part in (docs.map_batches(hist, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=None)):
        bs_ = part["b"].to_numpy()
        cs_ = part["chars"].to_numpy()
        for s, bb, cc in zip(part["source"].to_pylist(), bs_, cs_):
            vecs.setdefault(s, np.zeros(_MIX_BUCKETS, np.int64))[bb] += cc

    budget = sum(int(v.sum()) for v in vecs.values()) // _MIX_DEN
    wts = {s: int(hashlib.md5(s.encode()).hexdigest()[:8], 16)
           % _MIX_W_MOD + 1 for s in vecs}
    wsum = sum(wts.values())
    # cut[source] = (first bucket whose cumulative sum exceeds the
    # quota, chars still unfilled when that bucket starts)
    cut: dict[str, tuple[int, int]] = {}
    for s, v in vecs.items():
        quota = budget * wts[s] // wsum if wsum else 0
        cum = np.cumsum(v)
        bstar = int(np.searchsorted(cum, quota, side="right"))
        base = int(cum[bstar - 1]) if bstar > 0 else 0
        cut[s] = (bstar, quota - base)

    def _cuts_of(src: list[str]) -> np.ndarray:
        uniq, inv = np.unique(np.asarray(src, dtype=object),
                              return_inverse=True)
        return np.array([cut.get(str(s), (0, 0))[0] for s in uniq],
                        np.int64)[inv]

    def keep_full(b: pa.Table) -> pa.Table:
        hv = _mix_hv(b["doc_id"].to_numpy())
        mask = (hv >> 48) < _cuts_of(b["source"].to_pylist())
        return (b.select(["doc_id", "source", "n_chars"])
                .filter(pa.array(mask)))

    def keep_boundary(b: pa.Table) -> pa.Table:
        hv = _mix_hv(b["doc_id"].to_numpy())
        src = b["source"].to_pylist()
        mask = (hv >> 48) == _cuts_of(src)
        skey = np.fromiter(
            (int(hashlib.md5(s.encode()).hexdigest()[:15], 16)
             for s in src), dtype=np.int64, count=len(src))
        t = (b.select(["doc_id", "source", "n_chars"])
             .filter(pa.array(mask)))
        return (t.append_column("hv", pa.array(hv[mask]))
                .append_column("skey", pa.array(skey[mask])))

    def fill(g: pa.Table) -> pa.Table:
        outs = []
        src = np.asarray(g["source"].to_pylist(), dtype=object)
        for s in np.unique(src):      # skey is a hash: split exactly
            ii = np.flatnonzero(src == s)
            rem = cut[str(s)][1]
            hv = g["hv"].to_numpy()[ii]
            ids = g["doc_id"].to_numpy()[ii]
            nch = g["n_chars"].to_numpy()[ii]
            order = np.lexsort((ids, hv))
            k = int(np.searchsorted(np.cumsum(nch[order]), rem,
                                    side="right"))
            sel = order[:k]
            outs.append(pa.table({
                "doc_id": pa.array(ids[sel], pa.int64()),
                "source": pa.array([str(s)] * k, pa.string()),
                "n_chars": pa.array(nch[sel], pa.int64())}))
        return pa.concat_tables(outs) if outs else pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "source": pa.array([], pa.string()),
             "n_chars": pa.array([], pa.int64())})

    from .neardup import group_apply
    boundary = group_apply(
        docs.map_batches(keep_boundary, batch_format="pyarrow"),
        "skey", fill,
        pa.schema([("doc_id", pa.int64()), ("source", pa.string()),
                   ("n_chars", pa.int64())]))
    return (docs.map_batches(keep_full, batch_format="pyarrow")
            .union(boundary))


ORACLES["token_budget_mix"] = rf"""
    WITH w AS (
        SELECT source,
               ('0x' || substr(md5(source), 1, 8))::BIGINT
                   % {_MIX_W_MOD} + 1 AS wt,
               sum(n_chars) AS src_chars
        FROM documents GROUP BY source),
    tot AS (
        SELECT sum(src_chars) // {_MIX_DEN} AS budget,
               sum(wt) AS wsum FROM w),
    q AS (
        SELECT source, CAST(tot.budget AS HUGEINT) * wt // wsum AS quota
        FROM w, tot),
    c AS (
        SELECT doc_id, source, n_chars,
               sum(n_chars) OVER (
                   PARTITION BY source
                   ORDER BY ('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                            1, 15))::BIGINT,
                            doc_id) AS cum
        FROM documents)
    SELECT c.doc_id, c.source, c.n_chars
    FROM c JOIN q USING (source)
    WHERE c.cum <= q.quota
"""


# ---------------------------------------------------------------------------
# character-class quality signals (RedPajama-Data/Dolma "signals" pass)
# ---------------------------------------------------------------------------

def q_char_class_stats(sf_dir):
    """Character-class quality signals — the RedPajama-Data/Dolma
    per-document "signals" table (fraction of digits / uppercase /
    punctuation / whitespace) every rule-based curation recipe
    thresholds on.  All five counters are Arrow C++ RE2 kernels
    (`count_substring_regex` over single-char classes) plus
    `utf8_length` — zero-copy, no Python per row, no pandas; keep is
    the integer-arithmetic gate digit*5 <= chars AND upper*4 <= chars
    AND punct*5 <= chars (no float ratios, so the DuckDB oracle hashes
    exactly).  Purely per-batch: zero exchange, the ideal 100-TB shape.
    Character classes are ASCII POSIX ([[:punct:]] etc.) in BOTH
    engines (RE2 on both sides), so the counts agree by construction."""
    def stats(b: pa.Table) -> pa.Table:
        t = b["text"]
        def cnt(pat: str) -> pa.Array:
            return pc.cast(pc.count_substring_regex(t, pattern=pat),
                           pa.int64())
        n_chars = pc.cast(pc.utf8_length(t), pa.int64())
        n_digit = cnt("[0-9]")
        n_upper = cnt("[A-Z]")
        n_punct = cnt("[[:punct:]]")
        n_space = cnt("[ \t\n\r]")
        keep = pc.cast(
            pc.and_(pc.and_(
                pc.less_equal(pc.multiply(n_digit, 5), n_chars),
                pc.less_equal(pc.multiply(n_upper, 4), n_chars)),
                pc.less_equal(pc.multiply(n_punct, 5), n_chars)),
            pa.int64())
        return pa.table({"doc_id": b["doc_id"], "n_chars_obs": n_chars,
                         "n_digit": n_digit, "n_upper": n_upper,
                         "n_punct": n_punct, "n_space": n_space,
                         "keep": keep})
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(stats, batch_format="pyarrow"))


ORACLES["char_class_stats"] = r"""
    WITH c AS (
        SELECT doc_id,
               length(text) AS n_chars_obs,
               len(regexp_extract_all(text, '[0-9]')) AS n_digit,
               len(regexp_extract_all(text, '[A-Z]')) AS n_upper,
               len(regexp_extract_all(text, '[[:punct:]]')) AS n_punct,
               len(regexp_extract_all(text, '[ \t\n\r]')) AS n_space
        FROM documents)
    SELECT doc_id, n_chars_obs,
           CAST(n_digit AS BIGINT) AS n_digit,
           CAST(n_upper AS BIGINT) AS n_upper,
           CAST(n_punct AS BIGINT) AS n_punct,
           CAST(n_space AS BIGINT) AS n_space,
           CAST(CASE WHEN n_digit * 5 <= n_chars_obs
                      AND n_upper * 4 <= n_chars_obs
                      AND n_punct * 5 <= n_chars_obs
                     THEN 1 ELSE 0 END AS BIGINT) AS keep
    FROM c
"""


# ---------------------------------------------------------------------------
# within-document repeated-line removal (Dolma/Gopher intra-doc step)
# ---------------------------------------------------------------------------

def q_intra_doc_line_dedup(sf_dir):
    """Within-document repeated-line removal — the Dolma/Gopher
    intra-document dedup that runs BEFORE any corpus-level pass: a line
    repeated inside one document keeps only its first occurrence there
    (boilerplate headers/footers duplicated by a template).  Lines are
    the same disjoint 16-word windows as ``line_dedup`` (the corpus has
    no newlines).  Unlike line_dedup this needs NO corpus-wide state:
    the whole operator is one per-batch pass — the document never
    leaves its block, zero exchange, zero driver state — the ideal
    100-TB shape.  Duplicate detection inside the batch is a single
    vectorized pandas hash-table ``duplicated()`` over the exploded
    (row, line) pairs; only the per-document reassembly join touches
    Python, O(docs) not O(tokens).  Docs that tokenize empty emit no
    row (same convention as line_dedup)."""
    import pandas as pd

    def dedup(b: pa.Table) -> pa.Table:
        docs = b["doc_id"].to_numpy()
        texts = b["text"].to_pylist()
        rows, lines, doc_of = [], [], []
        for i, t in enumerate(texts):
            ws = t.split()
            if not ws:
                continue
            ls = _doc_line_strings(ws)
            rows.append(np.full(len(ls), len(doc_of), dtype=np.int64))
            lines.extend(ls)
            doc_of.append(int(docs[i]))
        if not rows:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "clean_text": pa.array([], pa.string()),
                             "n_lines": pa.array([], pa.int64()),
                             "n_lines_kept": pa.array([], pa.int64())})
        row = np.concatenate(rows)
        first = ~pd.DataFrame({"r": row, "l": lines}).duplicated(
            keep="first").to_numpy()
        arr = np.asarray(lines, dtype=object)
        bounds = np.flatnonzero(row[1:] != row[:-1]) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(row)]])
        ids, texts_out, n_l, n_k = [], [], [], []
        for s, e in zip(starts, ends):
            m = first[s:e]
            ids.append(doc_of[int(row[s])])
            texts_out.append(" ".join(arr[s:e][m]))
            n_l.append(int(e - s))
            n_k.append(int(m.sum()))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "clean_text": pa.array(texts_out, pa.string()),
                         "n_lines": pa.array(n_l, pa.int64()),
                         "n_lines_kept": pa.array(n_k, pa.int64())})

    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(dedup, batch_format="pyarrow"))


ORACLES["intra_doc_line_dedup"] = r"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
        FROM documents WHERE trim(text) <> ''),
    lines AS (
        SELECT doc_id, CAST(i AS BIGINT) AS line_no,
               array_to_string(ws[i*16+1 : i*16+16], ' ') AS line
        FROM toks, UNNEST(range(0, CAST(ceil(len(ws)/16.0) AS BIGINT)))
             AS t(i)),
    ranked AS (
        SELECT doc_id, line_no, line,
               row_number() OVER (PARTITION BY doc_id, line
                                  ORDER BY line_no) AS rk
        FROM lines)
    SELECT doc_id,
           coalesce(string_agg(CASE WHEN rk = 1 THEN line END, ' '
                               ORDER BY line_no), '') AS clean_text,
           count(*) AS n_lines,
           CAST(sum(CASE WHEN rk = 1 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_lines_kept
    FROM ranked GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# source vocabulary-overlap matrix (corpus audit for mixture design)
# ---------------------------------------------------------------------------

def q_source_vocab_overlap(sf_dir):
    """Source-pair vocabulary overlap — the corpus-audit matrix a
    mixture designer reads before weighting sources (domain similarity
    by shared distinct vocabulary): for every unordered source pair
    (a < b), |V_a ∩ V_b| where V_s is the set of distinct whitespace
    tokens of source s.

    Scale shape: a per-batch pandas `drop_duplicates` combiner shrinks
    the stream to distinct (source, word) per batch BEFORE the one
    hash exchange, so what shuffles is O(vocab x sources) (Zipf: far
    below token count), routed by an int64 word hash with the word
    string carried as payload for exact in-partition comparison (hash
    collisions cost work, never correctness).  The reduce is
    `partition_apply` — ONE vectorized pandas self-merge per hash
    partition (not one Python call per word) emitting each word's
    C(sources, 2) pairs pre-summed per partition; a final tiny groupby
    folds the ≤ P·sources² partial rows — output is sources²-bounded,
    independent of corpus size."""
    import pandas as pd

    from .neardup import partition_apply

    def explode(b: pa.Table) -> pa.Table:
        src = b["source"].to_pandas()
        words = b["text"].to_pandas().str.strip().str.split(r"\s+")
        df = pd.DataFrame({"source": src.repeat(words.str.len()),
                           "word": words.explode()})
        df = df[df["word"] != ""].drop_duplicates()
        wh = _word_hashes(df["word"].tolist()).view(np.int64)
        return pa.table({"h": pa.array(wh),
                         "source": pa.array(df["source"], pa.string()),
                         "word": pa.array(df["word"], pa.string())})

    def pairs(part: pa.Table) -> pa.Table:
        df = (part.select(["word", "source"]).to_pandas()
              .drop_duplicates())
        m = df.merge(df, on="word")
        m = m[m["source_x"] < m["source_y"]]
        agg = (m.groupby(["source_x", "source_y"], sort=False)
               .size().reset_index(name="n_shared"))
        return pa.table({"source_a": pa.array(agg["source_x"], pa.string()),
                         "source_b": pa.array(agg["source_y"], pa.string()),
                         "n_shared": pa.array(
                             agg["n_shared"].to_numpy(np.int64))})

    schema = pa.schema([("source_a", pa.string()),
                        ("source_b", pa.string()),
                        ("n_shared", pa.int64())])
    exploded = (_read(sf_dir, "documents", ["source", "text"])
                .map_batches(explode, batch_format="pyarrow"))
    return combine(partition_apply(exploded, "h", pairs, schema),
                   ["source_a", "source_b"], {"n_shared": "sum"}, schema)


ORACLES["source_vocab_overlap"] = r"""
    WITH w AS (
        SELECT DISTINCT source,
               unnest(regexp_split_to_array(trim(text), '\s+')) AS word
        FROM documents WHERE trim(text) <> ''),
    j AS (
        SELECT a.source AS source_a, b.source AS source_b
        FROM w a JOIN w b USING (word) WHERE a.source < b.source)
    SELECT source_a, source_b, count(*) AS n_shared
    FROM j GROUP BY source_a, source_b
"""


# ---------------------------------------------------------------------------
# WebDataset shard plan (deterministic size-bounded shard assignment)
# ---------------------------------------------------------------------------

_WDS_SHARD_CHARS = 4096          # shard byte budget (chars stand in)
_WDS_KEY_BITS = 60               # md5-high60 hex->BIGINT convention
_WDS_BUCKETS = 1024              # ordered key-range buckets (top 10 bits)


def _wds_keys(ids: np.ndarray) -> np.ndarray:
    return np.fromiter(
        (int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16)
         for i in ids), dtype=np.int64, count=len(ids))


def q_wds_shard_plan(sf_dir):
    """WebDataset-style shard packing plan: assign every document to a
    size-bounded output shard (`shard_id = exclusive-prefix-sum of
    n_chars in deterministic md5-key order // SHARD_CHARS`) — the
    manifest a tar-shard writer consumes, with the deterministic
    pseudo-random global order training loaders want (wds shuffles at
    the shard level; the key order IS the shuffle).

    Scale shape: a DISTRIBUTED PREFIX SUM, no global sort.  The md5
    key's top 10 bits define 1024 ordered key-range buckets; pass 1
    streams per-batch per-bucket byte subtotals (driver folds a
    1024-long vector — fixed size, corpus-independent) into exclusive
    bucket offsets; pass 2 hash-exchanges only (doc_id, key, n_chars)
    rows by bucket and each partition lexsorts its own buckets locally
    (bounded by corpus/1024) adding the bucket offset.  The text never
    moves — the plan reads only (doc_id, n_chars); the shard writer
    later joins it back co-partitioned by doc_id."""
    from .neardup import partition_apply

    shift = _WDS_KEY_BITS - 10

    def keyed(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy().astype(np.int64)
        key = _wds_keys(ids)
        return pa.table({
            "doc_id": pa.array(ids),
            "key": pa.array(key),
            "bucket": pa.array(key >> shift),
            "nbytes": pa.array(b["n_chars"].to_numpy().astype(np.int64))})

    def bucket_partials(b: pa.Table) -> pa.Table:
        sums = np.bincount(b["bucket"].to_numpy(),
                           weights=b["nbytes"].to_numpy(),
                           minlength=_WDS_BUCKETS).astype(np.int64)
        nz = np.flatnonzero(sums)
        return pa.table({"bucket": pa.array(nz.astype(np.int64)),
                         "nbytes": pa.array(sums[nz])})

    keyed_ds = (_read(sf_dir, "documents", ["doc_id", "n_chars"])
                .map_batches(keyed, batch_format="pyarrow"))

    # pass 1: fixed-size per-bucket totals -> exclusive offsets
    totals = np.zeros(_WDS_BUCKETS, dtype=np.int64)
    for part in (keyed_ds.map_batches(bucket_partials,
                                      batch_format="pyarrow")
                 .take_all()):
        totals[part["bucket"]] += part["nbytes"]
    offsets = np.concatenate(([0], np.cumsum(totals)))[:-1]

    def assign(part: pa.Table) -> pa.Table:
        b = part["bucket"].to_numpy()
        k = part["key"].to_numpy()
        ids = part["doc_id"].to_numpy()
        n = part["nbytes"].to_numpy()
        order = np.lexsort((ids, k, b))
        b, ids, n = b[order], ids[order], n[order]
        cum = np.cumsum(n)
        excl = cum - n
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        runs = np.diff(np.r_[starts, len(b)])
        local = excl - np.repeat(excl[starts], runs)
        shard = (offsets[b] + local) // _WDS_SHARD_CHARS
        return pa.table({"doc_id": pa.array(ids),
                         "shard_id": pa.array(shard)})

    schema = pa.schema([("doc_id", pa.int64()), ("shard_id", pa.int64())])
    return partition_apply(keyed_ds, "bucket", assign, schema)


def q_wds_write_pack(sf_dir):
    """End-to-end shard PACKER (pipelines/wds_write): the plan math of
    `wds_shard_plan` driven through the resumable range-partitioned
    writer — pack the corpus into sorted `part=NNNN/` directories
    under a tempdir, read the published files back, and return every
    (doc_id, shard_id).  Same oracle as the plan: what lands on disk
    must equal the pure SQL manifest bit-for-bit."""
    import shutil
    import tempfile

    from .pipelines import wds_write

    out = tempfile.mkdtemp(prefix="pyspider_ray_wds_")
    try:
        wds_write.run(sf_dir, out, n_parts=8)
        return (_rd().read_parquet(out)
                .select_columns(["doc_id", "shard_id"])
                .materialize())
    finally:
        shutil.rmtree(out, ignore_errors=True)


ORACLES["wds_write_pack"] = rf"""
    WITH k AS (
        SELECT doc_id, n_chars,
               ('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                               1, 15))::BIGINT AS key
        FROM documents)
    SELECT doc_id,
           CAST(COALESCE(sum(n_chars) OVER (
                    ORDER BY key, doc_id
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                0) // {_WDS_SHARD_CHARS} AS BIGINT) AS shard_id
    FROM k
"""


def q_wds_shard_stats(sf_dir):
    """Shard-manifest audit over the `wds_shard_plan` assignment: per
    shard its doc count, byte (char) sum, and an overflow flag (a
    shard exceeds the budget exactly when a straddling doc starts
    inside it — the tar writer wants those counted, not hidden).
    Consumes the plan the way the packer does: the SAME two streaming
    passes, then a shards-bounded groupby — corpus-size-independent
    output."""
    # join n_chars back onto the plan by doc_id: partitioned hash join
    # via the existing attach machinery (no broadcast)
    from .neardup import attach_column

    plan = q_wds_shard_plan(sf_dir)
    sized = attach_column(
        plan, _read(sf_dir, "documents", ["doc_id", "n_chars"]),
        "n_chars", "doc_id", "n_chars")

    def flag(b: pa.Table) -> pa.Table:
        nb = b["n_chars"].to_numpy()
        return pa.table({
            "shard_id": b["shard_id"],
            "n_bytes": pa.array(nb.astype(np.int64)),
            "n_oversize_docs": pa.array(
                (nb > _WDS_SHARD_CHARS).astype(np.int64))})

    return combine(sized.map_batches(flag, batch_format="pyarrow"),
                   ["shard_id"],
                   {"n_docs": "count", "n_bytes": "sum",
                    "n_oversize_docs": "sum"},
                   pa.schema([("shard_id", pa.int64()),
                              ("n_docs", pa.int64()),
                              ("n_bytes", pa.int64()),
                              ("n_oversize_docs", pa.int64())]))


ORACLES["wds_shard_stats"] = rf"""
    WITH k AS (
        SELECT doc_id, n_chars,
               ('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                               1, 15))::BIGINT AS key
        FROM documents),
    plan AS (
        SELECT doc_id, n_chars,
               CAST(COALESCE(sum(n_chars) OVER (
                        ORDER BY key, doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING),
                    0) // {_WDS_SHARD_CHARS} AS BIGINT) AS shard_id
        FROM k)
    SELECT shard_id, count(*) AS n_docs,
           CAST(sum(n_chars) AS BIGINT) AS n_bytes,
           CAST(sum(CASE WHEN n_chars > {_WDS_SHARD_CHARS}
                    THEN 1 ELSE 0 END) AS BIGINT) AS n_oversize_docs
    FROM plan GROUP BY shard_id
"""


ORACLES["wds_shard_plan"] = rf"""
    WITH k AS (
        SELECT doc_id, n_chars,
               ('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                               1, 15))::BIGINT AS key
        FROM documents)
    SELECT doc_id,
           CAST(COALESCE(sum(n_chars) OVER (
                    ORDER BY key, doc_id
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                0) // {_WDS_SHARD_CHARS} AS BIGINT) AS shard_id
    FROM k
"""


# ---------------------------------------------------------------------------
# int8 scalar quantization of the embedding column (ANN scale path)
# ---------------------------------------------------------------------------

def _collect_dim_absmax(ds) -> np.ndarray:
    """Pass 1 of scalar quantization: per-dimension max |x| over the
    corpus.  Per-batch partial (one 1 x dim float row per batch — a
    classic tree-reducible partial), driver fold.  What streams back is
    batches-many tiny rows, never vectors."""
    def partial(b: pa.Table) -> pa.Table:
        E = _embedding_matrix(b)
        return pa.table({"m": pa.array(
            [np.abs(E).max(axis=0).astype(np.float32)],
            pa.list_(pa.float32()))})
    m = None
    for b in (ds.map_batches(partial, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow", batch_size=None)):
        for row in b["m"].to_pylist():
            v = np.asarray(row, dtype=np.float32)
            m = v if m is None else np.maximum(m, v)
    return np.maximum(m, np.float32(1e-12))


def _int8_quantize(b: pa.Table, scale) -> pa.Table:
    """Pass 2: symmetric per-dimension int8 quantization.  ``scale`` is
    a ref to the scale vector (fetched once per worker process);
    codes = rint(x * 127 / scale) clipped to [-127, 127].  Per-vector
    audit integers: max_abs_code and err_ppm = max_d |x - dequant| /
    scale_d in ppm — the reconstruction-error bound an ANN recall
    budget is set from.  float32 arithmetic throughout, so an
    independent numpy mirror reproduces the codes bit-for-bit."""
    scale = _broadcast_get(scale)
    E = _embedding_matrix(b).astype(np.float32)
    inv = (np.float32(127.0) / scale).astype(np.float32)
    codes = np.clip(np.rint(E * inv), -127, 127).astype(np.int8)
    deq = codes.astype(np.float32) * (scale / np.float32(127.0))
    err = np.abs(E - deq) / scale
    err_ppm = np.floor(err.max(axis=1).astype(np.float64)
                       * 1_000_000).astype(np.int64)
    return pa.table({
        "vec_id": b["vec_id"],
        "codes": pa.array(list(codes), pa.list_(pa.int8())),
        "max_abs_code": pa.array(
            np.abs(codes.astype(np.int64)).max(axis=1)),
        "err_ppm": pa.array(err_ppm)})


def q_embedding_quantize(sf_dir):
    """Int8 scalar quantization of the embedding column — the memory
    compression every 100-TB ANN index runs first (4x smaller than
    float32; int8 matmul kernels downstream).  Two streaming passes,
    zero shuffle: pass 1 folds per-batch per-dimension |x| maxima into
    the scale vector on the driver (dim-sized, tiny); the vector
    broadcasts once via ray.put into map tasks whose pass 2 emits
    codes + integer reconstruction-error audit columns.  rows-only
    (float-derived codes have no SQL oracle); pinned by pytest: an
    independent numpy mirror reproduces every code byte, err_ppm <=
    ~3,937 (the 1/254 half-step bound, + float32 slack), and the
    float-space top-1 cosine neighbor lands in the int8-space top-5
    shortlist for >= 95% of probes (the quantized-scan + float-re-rank
    recall an ANN pipeline budgets for)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    scale = ray.put(_collect_dim_absmax(ds))
    return ds.map_batches(_int8_quantize, batch_format="pyarrow",
                          fn_kwargs={"scale": scale})


# ---------------------------------------------------------------------------
# deterministic multi-epoch shuffle (training data ordering)
# ---------------------------------------------------------------------------

_EPOCHS = 3
_EPOCH_SHARDS = 64


def q_epoch_shuffle(sf_dir):
    """Deterministic multi-epoch training-data ordering — the
    Megatron/T5-style shuffle an LLM training loader needs WITHOUT a
    `random_shuffle`: for each epoch, every document gets a
    content-independent pseudo-random key (md5-high60 of
    "doc_id:epoch", the repo's hex->BIGINT convention), its shard is
    key %% 64, and its position is the dense rank of (key, doc_id)
    within the (epoch, shard).  Different epochs yield different
    permutations; re-running yields the same one — resumable training
    needs exactly this reproducibility.

    Scale shape: one map fans each doc_id out to EPOCHS tiny rows
    (~24 B — the TEXT NEVER MOVES; the loader later joins by doc_id
    co-partitioned), one hash exchange on the int group key, and a
    per-shard argsort bounded by corpus/(EPOCHS*SHARDS).  No global
    sort, no random_shuffle's full materialized permutation; shard
    count scales with the cluster."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    def keys(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        es, out_ids, ks = [], [], []
        for e in range(_EPOCHS):
            es.append(np.full(len(ids), e, dtype=np.int64))
            out_ids.append(ids.astype(np.int64))
            ks.append(np.fromiter(
                (int(hashlib.md5(f"{i}:{e}".encode()).hexdigest()[:15],
                     16) for i in ids),
                dtype=np.int64, count=len(ids)))
        e_arr = np.concatenate(es)
        k_arr = np.concatenate(ks)
        return pa.table({
            "epoch": pa.array(e_arr),
            "doc_id": pa.array(np.concatenate(out_ids)),
            "key": pa.array(k_arr),
            "g": pa.array(e_arr * _EPOCH_SHARDS
                          + k_arr % _EPOCH_SHARDS)})

    def rank(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy()
        ids = g["doc_id"].to_numpy()
        order = np.lexsort((ids, key))
        pos = np.empty(len(order), dtype=np.int64)
        pos[order] = np.arange(len(order), dtype=np.int64)
        return pa.table({"epoch": g["epoch"],
                         "doc_id": g["doc_id"],
                         "shard": pa.array(key % _EPOCH_SHARDS),
                         "pos": pa.array(pos)})

    from .neardup import group_apply
    return group_apply(
        docs.map_batches(keys, batch_format="pyarrow"), "g", rank,
        pa.schema([("epoch", pa.int64()), ("doc_id", pa.int64()),
                   ("shard", pa.int64()), ("pos", pa.int64())]))


ORACLES["epoch_shuffle"] = rf"""
    WITH k AS (
        SELECT e.epoch, d.doc_id,
               ('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':' ||
                                   CAST(e.epoch AS VARCHAR)),
                               1, 15))::BIGINT AS key
        FROM documents d,
             (SELECT UNNEST(range(0, {_EPOCHS})) AS epoch) e)
    SELECT epoch, doc_id, key % {_EPOCH_SHARDS} AS shard,
           row_number() OVER (PARTITION BY epoch, key % {_EPOCH_SHARDS}
                              ORDER BY key, doc_id) - 1 AS pos
    FROM k
"""


# ---------------------------------------------------------------------------
# CLIP-score image-text alignment gate (DataComp) — stub encoders
# ---------------------------------------------------------------------------

_CLIP_DIM = 16
_CLIP_THRESH_PPM = 120_000     # cos^2 >= 0.12, i.e. cos >= ~0.35


_CLIP_LUMA_W = np.array([299, 587, 114], dtype=np.int64)


def _clip_image_emb(data) -> np.ndarray:
    from .functions.imaging import decode_image
    luma = (decode_image(data).astype(np.int64) * _CLIP_LUMA_W) \
        .sum(axis=2) // 1000
    h = np.bincount(luma.ravel() * _CLIP_DIM // 256,
                    minlength=_CLIP_DIM)[:_CLIP_DIM]
    return h * 1000 // int(h.sum())


def _clip_stub_score(b: pa.Table) -> pa.Table:
    """DataComp-style CLIP-score filtering stage with STUB encoders
    (the image/text towers are deterministic fakes — a real CLIP would
    load here, once per worker process; the
    Ray-side plumbing — batched encode tasks, integer gate — is real
    and tested).

    Image tower: decode -> integer luma -> 16-bin histogram quantized
    to permille of the pixel count (resolution-independent, bounded
    <= 1000 per dim).  Text tower: whitespace tokens -> md5-low64 %% 16
    bucket counts, vectorized across the batch with one explode +
    bincount (the `_stopword_counts` pattern).  Alignment is the exact
    integer cosine-squared in ppm: score_ppm = dot^2 * 10^6 //
    (|a|^2 * |b|^2) — every intermediate fits int64 by the permille
    bound, so an independent mirror reproduces it bit-for-bit.  Empty
    captions score 0 and always drop."""
    a = np.stack([_clip_image_emb(d) for d in
                  b["bytes"].to_pylist()]).astype(np.int64)
    caps = [c.split() for c in b["caption"].to_pylist()]
    n_tok = np.array([len(t) for t in caps], dtype=np.int64)
    flat = [w for t in caps for w in t]
    t_emb = np.zeros((len(caps), _CLIP_DIM), dtype=np.int64)
    if flat:
        buck = (_word_hashes(flat) % _CLIP_DIM).astype(np.int64)
        row = np.repeat(np.arange(len(caps)), n_tok)
        np.add.at(t_emb, (row, buck), 1)
    dot = (a * t_emb).sum(axis=1)
    na = (a * a).sum(axis=1)
    nb = (t_emb * t_emb).sum(axis=1)
    denom = np.maximum(na * nb, 1)
    ppm = dot * dot * 1_000_000 // denom
    ppm[nb == 0] = 0
    keep = (ppm >= _CLIP_THRESH_PPM).astype(np.int64)
    return pa.table({"image_id": b["image_id"],
                     "n_caption_tokens": pa.array(n_tok),
                     "score_ppm": pa.array(ppm.astype(np.int64)),
                     "keep": pa.array(keep)})


def q_clip_score_gate(sf_dir):
    """Image-text alignment filtering (the DataComp/LAION CLIP-score
    gate — keep pairs whose image embedding and caption embedding are
    cosine-close) over the input-hint image+caption table.  Encoders
    are deterministic stubs (see `_clip_stub_score`); everything a real
    deployment needs from the ENGINE is exercised: batched scoring
    tasks, small batches because payloads are wide, per-row score
    with ZERO exchange —
    payload bytes never leave the scoring stage, the output is ~32
    B/row of metadata.  rows-only (DuckDB holds no view of the image
    table); pinned by pytest against an independent per-row integer
    mirror (bit-exact by the integer-cosine construction) plus the
    planted-corruption invariants: every empty caption drops, the gate
    is non-vacuous in both directions."""
    rows = _image_caption_rows()
    t = pa.table({
        "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
        "bytes": binary_array([r["bytes"] for r in rows]),
        "caption": pa.array([r["caption"] for r in rows], pa.string()),
    })
    return (_rd().from_arrow(t)
            .map_batches(_clip_stub_score, batch_format="pyarrow",
                         batch_size=64))


# ---------------------------------------------------------------------------
# exact-bytes image dedup (LAION re-crawl collapse)
# ---------------------------------------------------------------------------

def q_image_exact_dedup(sf_dir):
    """Exact-bytes image dedup — the FIRST pass of every multimodal
    curation pipeline (LAION: the same image fetched under two URLs is
    byte-identical; collapse before any decode or pHash work).  Runs
    over the input-hint image+caption table (`_image_caption_rows`,
    which plants a byte-identical "-b" re-crawl for every i % 7 == 3).

    Scale shape: the md5-128 digest is computed per batch WHERE THE
    BYTES ALREADY ARE; the payload is pruned in the same stage, so only
    (image_id, digest_hi, digest_lo) — ~40 B/row — enters the one
    groupby.  Routing key is the int64 digest-high half; within each
    group the low half is compared too, so correctness is full
    128-bit-exact while the exchange key stays fixed-width.  Keep =
    minimum image_id per digest; losers emit keep=0 with the winner
    attached (the lineage a re-crawl audit wants).  rows-only (DuckDB
    holds no view of the synthetic image table); pinned by pytest:
    every planted "-b" re-crawl collapses onto its original and no two
    distinct-pixel images share a digest."""
    rows = _image_caption_rows()
    t = pa.table({
        "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
        "bytes": binary_array([r["bytes"] for r in rows]),
    })

    def digest(b: pa.Table) -> pa.Table:
        his, los = [], []
        for data in b["bytes"].to_pylist():
            d = hashlib.md5(data).digest()
            hi = int.from_bytes(d[:8], "big")
            lo = int.from_bytes(d[8:], "big")
            his.append(hi - (1 << 64) if hi >= (1 << 63) else hi)
            los.append(lo - (1 << 64) if lo >= (1 << 63) else lo)
        return pa.table({"image_id": b["image_id"],
                         "d_hi": pa.array(his, pa.int64()),
                         "d_lo": pa.array(los, pa.int64())})

    def collapse(g: pa.Table) -> pa.Table:
        ids = np.asarray(g["image_id"].to_pylist(), dtype=object)
        lo = g["d_lo"].to_numpy()
        keep = np.zeros(len(ids), dtype=np.int64)
        winner = np.empty(len(ids), dtype=object)
        for v in np.unique(lo):
            m = np.flatnonzero(lo == v)
            w = m[np.argsort(ids[m])[0]]
            keep[w] = 1
            winner[m] = ids[w]
        return pa.table({"image_id": pa.array(list(ids), pa.string()),
                         "keep": pa.array(keep),
                         "kept_as": pa.array(list(winner), pa.string())})

    from .neardup import group_apply
    return group_apply(
        _rd().from_arrow(t)
        .map_batches(digest, batch_format="pyarrow", batch_size=64),
        "d_hi", collapse,
        pa.schema([("image_id", pa.string()), ("keep", pa.int64()),
                   ("kept_as", pa.string())]))


_HTML_PAGES = 500


def _html_pages_env() -> int:
    return int(os.environ.get("GRAFT_HTML_PAGES", str(_HTML_PAGES)))


_HTML_WORDS = ("data pipeline corpus shard filter token model train "
               "crawl fetch parse index batch stream merge sort").split()


def _synth_page_html(i: int) -> str:
    """Deterministic page: nav + link farm + footer boilerplate around
    1-4 content paragraphs of seeded text (every byte derives from the
    page id — any worker regenerates the identical page)."""
    def w(j: int) -> str:
        return _HTML_WORDS[int(hashlib.md5(f"{i}:{j}".encode())
                               .hexdigest()[:4], 16) % len(_HTML_WORDS)]
    paras = []
    for p in range(1 + i % 4):
        n = 6 + (i * 7 + p * 13) % 20
        paras.append("<p>" + " ".join(w(p * 100 + k)
                                      for k in range(n)) + "</p>")
    nav = "<nav>" + " ".join(f'<a href="/{k}">section {k}</a>'
                             for k in range(5)) + "</nav>"
    farm = ("<div>" + " ".join(f'<a href="/x{k}">related link {k}</a>'
                               for k in range(4)) + "</div>")
    return ("<html><head><script>track();</script><style>p{}</style>"
            f"</head><body>{nav}<article>{''.join(paras)}</article>"
            f"{farm}<footer>copyright {i} all rights reserved"
            "</footer></body></html>")


def q_html_text_extract(sf_dir):
    """HTML→training-text extraction — the FIRST transform of every
    web corpus (trafilatura/jusText's job): strip script/style/nav/
    header/footer/aside, gate each text block on word count and link
    density (integer compare), emit the surviving main text with block
    accounting.  Runs over deterministic synthetic pages (the sandbox
    stand-in for the crawl's fetched HTML — the extractor itself,
    `functions.htmldoc.extract_text`, is the real production kernel
    and is what a crawl handler calls on `response.content`).

    Scale shape: embarrassingly parallel — one stdlib-parser pass per
    page where the HTML lives (the same per-page cost the processor
    stage already pays; an lxml-backed MiniDoc drops in outside the
    sandbox), zero exchange, output prunes the raw HTML."""
    from .functions.htmldoc import extract_text

    N = _html_pages_env()

    def build_and_extract(b: pa.Table) -> pa.Table:
        ids = b["page_id"].to_numpy()
        texts, nb, nk, nw = [], [], [], []
        for i in ids:
            r = extract_text(_synth_page_html(int(i)))
            texts.append(r["text"])
            nb.append(r["n_blocks"])
            nk.append(r["n_kept"])
            nw.append(r["n_words"])
        return pa.table({
            "page_id": pa.array(ids),
            "text": pa.array(texts, pa.string()),
            "n_blocks": pa.array(np.asarray(nb, dtype=np.int64)),
            "n_kept": pa.array(np.asarray(nk, dtype=np.int64)),
            "n_words": pa.array(np.asarray(nw, dtype=np.int64))})

    pages = pa.table({"page_id": pa.array(np.arange(N, dtype=np.int64))})
    return (_rd().from_arrow(pages)
            .map_batches(build_and_extract, batch_format="pyarrow",
                         batch_size=64))


def q_web_curate(sf_dir):
    """The crawl→training-text composition end to end: synthetic HTML
    pages → boilerplate-stripping extraction (`extract_text`) →
    quality gates (min length; the `compression_ratio` zlib band) →
    exact dedup of the extracted text (md5-128 digest groupby, min
    page_id wins — every page i ≡ 7 (mod 9) is a planted clone of
    page i−7, the mirrored-content case a real crawl meets daily).
    One streaming pass builds/extracts/gates and digests; only
    (page_id, digest, verdict ints) — never the text — enters the one
    exchange; the collapse fans keep/kept_as lineage back per page.

    rows-only (no SQL form for the HTML stage); pinned by pytest:
    every surviving clone collapses onto its original, gate verdicts
    equal an independent per-page mirror."""
    import zlib

    from .functions.htmldoc import extract_text
    from .neardup import partition_apply

    N = _html_pages_env()

    def build_gate_digest(b: pa.Table) -> pa.Table:
        ids = b["page_id"].to_numpy()
        out = {"page_id": [], "n_words": [], "ratio_ppm": [],
               "gate_ok": [], "h": [], "lo": []}
        for i in ids:
            i = int(i)
            src = i - 7 if i % 9 == 7 else i          # planted clone
            r = extract_text(_synth_page_html(src))
            enc = r["text"].encode()
            zl = len(zlib.compress(enc, 6)) if enc else 0
            ppm = zl * 1_000_000 // len(enc) if enc else 0
            ok = int(r["n_words"] >= 10
                     and _ZRATIO_MIN <= ppm <= _ZRATIO_MAX)
            d = hashlib.md5(enc).digest()
            hi = int.from_bytes(d[:8], "big")
            lo = int.from_bytes(d[8:], "big")
            out["page_id"].append(i)
            out["n_words"].append(r["n_words"])
            out["ratio_ppm"].append(ppm)
            out["gate_ok"].append(ok)
            out["h"].append(hi - (1 << 64) if hi >= (1 << 63) else hi)
            out["lo"].append(lo - (1 << 64) if lo >= (1 << 63) else lo)
        return pa.table({k: pa.array(np.asarray(v, dtype=np.int64))
                         for k, v in out.items()})

    def collapse(part: pa.Table) -> pa.Table:
        import pandas as pd
        df = part.to_pandas()
        surv = df[df["gate_ok"] == 1]
        winner = (surv.groupby(["h", "lo"])["page_id"].min()
                  .rename("kept_as"))
        df = df.merge(winner, on=["h", "lo"], how="left")
        df["kept_as"] = (df["kept_as"].fillna(-1)).astype(np.int64)
        df["keep"] = ((df["gate_ok"] == 1)
                      & (df["page_id"] == df["kept_as"])
                      ).astype(np.int64)
        return pa.table({
            "page_id": pa.array(df["page_id"].to_numpy(np.int64)),
            "n_words": pa.array(df["n_words"].to_numpy(np.int64)),
            "ratio_ppm": pa.array(df["ratio_ppm"].to_numpy(np.int64)),
            "gate_ok": pa.array(df["gate_ok"].to_numpy(np.int64)),
            "keep": pa.array(df["keep"].to_numpy(np.int64)),
            "kept_as": pa.array(df["kept_as"].to_numpy(np.int64))})

    schema = pa.schema([("page_id", pa.int64()), ("n_words", pa.int64()),
                        ("ratio_ppm", pa.int64()), ("gate_ok", pa.int64()),
                        ("keep", pa.int64()), ("kept_as", pa.int64())])
    pages = pa.table({"page_id": pa.array(np.arange(N, dtype=np.int64))})
    ds = (_rd().from_arrow(pages)
          .map_batches(build_gate_digest, batch_format="pyarrow",
                       batch_size=64))
    return partition_apply(ds, "h", collapse, schema)


def q_neardup_store_refresh(sf_dir):
    """The PERSISTED near-dup artifact end to end
    (pipelines/neardup_store): build the MinHash/LSH band index +
    word-blob artifact from the HISTORY split (doc_id %% 5 != 0), then
    refresh the NEW split (doc_id %% 5 == 0) against it — history
    text is never re-read; only the compact index rows re-flow.
    Returns every (new_doc, hist_doc) pair with exact word-set
    Jaccard >= 0.9, which the oracle reproduces from scratch in SQL —
    the artifact path must equal the stateless recompute
    bit-for-bit."""
    import shutil
    import tempfile

    from .pipelines import neardup_store

    art = tempfile.mkdtemp(prefix="pyspider_ray_nd_art_") + "/a"
    try:
        def hist(b: pa.Table) -> pa.Table:
            return b.filter(pa.array(b["doc_id"].to_numpy() % 5 != 0))

        def new(b: pa.Table) -> pa.Table:
            return b.filter(pa.array(b["doc_id"].to_numpy() % 5 == 0))

        neardup_store.build(
            _read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(hist, batch_format="pyarrow"), art)
        out = neardup_store.refresh(
            _read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(new, batch_format="pyarrow"), art)
        return out.materialize()
    finally:
        shutil.rmtree(os.path.dirname(art), ignore_errors=True)


ORACLES["neardup_store_refresh"] = r"""
    WITH w AS (
        SELECT DISTINCT doc_id,
               unnest(regexp_split_to_array(trim(text), '\s+')) AS word
        FROM documents),
    sizes AS (SELECT doc_id, count(*) AS sz FROM w GROUP BY doc_id),
    inter AS (
        SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
        FROM w a JOIN w b ON a.word = b.word
        WHERE a.doc_id % 5 = 0 AND b.doc_id % 5 != 0
        GROUP BY 1, 2)
    SELECT da AS new_doc, db AS hist_doc
    FROM inter
    JOIN sizes sa ON sa.doc_id = da
    JOIN sizes sb ON sb.doc_id = db
    WHERE i * 10 >= 9 * (sa.sz + sb.sz - i)
"""


_PR_NODES = 2000          # synthetic web graph size (crawl id space)
_PR_ITERS = 5
_PR_SCALE = 10 ** 12      # fixed-point rank unit
# damping 0.85 as the rational 17/20 — integer-exact everywhere


def _pr_nodes_env() -> int:
    return int(os.environ.get("GRAFT_PR_NODES", str(_PR_NODES)))


_PROJ_DIMS = 16


def _proj_planes(dim_in: int, dim_out: int) -> np.ndarray:
    """Deterministic Gaussian-ish projection matrix from the md5
    counter stream (the repo's seeding convention — no RNG state,
    any worker regenerates the identical planes)."""
    need = dim_in * dim_out
    vals = np.empty(need, dtype=np.float64)
    i = 0
    c = 0
    while i < need:
        d = hashlib.md5(f"proj:{c}".encode()).digest()
        for off in range(0, 16, 8):
            if i >= need:
                break
            u = int.from_bytes(d[off:off + 8], "big")
            vals[i] = (u / 2.0 ** 64) * 2.0 - 1.0   # uniform (-1, 1)
            i += 1
        c += 1
    return (vals.reshape(dim_in, dim_out)
            * np.sqrt(3.0 / dim_out))               # Achlioptas scaling


def q_embedding_project(sf_dir):
    """Random-projection dimensionality reduction of the embedding
    column (Johnson–Lindenstrauss: the 4-8x shrink a clustering /
    ANN-build pass runs before touching distance math at scale) to
    _PROJ_DIMS dims, plus a per-row pairwise-norm audit: the projected
    norm in ppm of the original so a drifting projection is visible in
    the output, not just in a test.

    Scale shape: the projection matrix regenerates deterministically
    from the md5 counter stream inside each task (dim×16 floats —
    nothing is broadcast, no RNG state), one zero-exchange
    map_batches matmul per batch; output carries only the 16 floats +
    two int64s per row."""
    def project(b: pa.Table) -> pa.Table:
        E = _embedding_matrix(b)
        P = _proj_planes(E.shape[1], _PROJ_DIMS)
        Y = E @ P
        n_in = np.linalg.norm(E, axis=1)
        n_out = np.linalg.norm(Y, axis=1)
        ppm = np.where(n_in > 0, n_out / np.maximum(n_in, 1e-30) * 1e6,
                       0.0).astype(np.int64)
        return pa.table({
            "vec_id": b["vec_id"],
            "proj": pa.array(list(Y.astype(np.float32)),
                             pa.list_(pa.float32())),
            "norm_ratio_ppm": pa.array(ppm)})

    return (_read(sf_dir, "embeddings", ["vec_id", "embedding"])
            .map_batches(project, batch_format="pyarrow"))


def q_pagerank_urls(sf_dir):
    """PageRank over the synthetic web link graph — the URL-priority
    signal a crawl scheduler feeds back into its frontier (score seeds
    by authority instead of FIFO).  FIXED-POINT integer arithmetic:
    ranks live in _PR_SCALE units, damping is the rational 17/20 and
    every per-edge contribution is floor-divided BEFORE the sum, so
    the result is bit-identical under any partitioning or summation
    order — reruns and cluster-size changes can't drift (floats
    can't promise that).

    r_{t+1}(v) = 3·S//(20·N) + Σ_{u→v} (r_t(u)·17) // (20·outdeg)

    Scale shape: one exchange per iteration — each rank shard fans
    its nodes' contributions out along their deterministic out-links
    (the generator IS the adjacency shard here; a stored graph would
    co-partition an edge table and `attach_column` the rank on —
    same exchange volume), `partition_apply` sums per destination
    with one vectorized bincount-style add, a zero row per node keeps
    sinks alive.  No rank vector is ever broadcast or driver-held."""
    from .functions import synthweb
    from .neardup import partition_apply

    N = _pr_nodes_env()
    show = synthweb.DEFAULT_SHOW
    base = 3 * _PR_SCALE // (20 * N)
    schema = pa.schema([("node", pa.int64()), ("r", pa.int64())])

    def init(b: pa.Table) -> pa.Table:
        ids = b["node"].to_numpy()
        return pa.table({"node": pa.array(ids),
                         "r": pa.array(np.full(len(ids),
                                               _PR_SCALE // N,
                                               dtype=np.int64))})

    def fan_out(b: pa.Table) -> pa.Table:
        ids = b["node"].to_numpy()
        r = b["r"].to_numpy()
        dst = synthweb.child_ids(ids, N, show=show)        # (n, show)
        contrib = (r * 17) // (20 * show)
        return pa.table({
            "node": pa.array(np.concatenate(
                [dst.ravel(), ids])),                      # + self zero
            "c": pa.array(np.concatenate(
                [np.repeat(contrib, show),
                 np.zeros(len(ids), dtype=np.int64)]))})

    def fold(part: pa.Table) -> pa.Table:
        node = part["node"].to_numpy()
        c = part["c"].to_numpy()
        u, inv = np.unique(node, return_inverse=True)
        sums = np.zeros(len(u), dtype=np.int64)   # int64 accumulator:
        np.add.at(sums, inv, c)                   # exact at any scale
        return pa.table({"node": pa.array(u),
                         "r": pa.array(sums + base)})

    nodes = pa.table({"node": pa.array(np.arange(N, dtype=np.int64))})
    ranks = (_rd().from_arrow(nodes)
             .map_batches(init, batch_format="pyarrow"))
    for _ in range(_PR_ITERS):
        fanned = ranks.map_batches(fan_out, batch_format="pyarrow")
        ranks = partition_apply(fanned, "node", fold, schema)
    return ranks


def q_inverted_index(sf_dir):
    """Sharded inverted-index build (word → sorted posting list +
    document frequency) — the retrieval-side artifact a
    dedup/contamination/search stack queries instead of rescanning
    text; postings are emitted comma-joined (the exact on-disk order a
    posting file stores) so the oracle compares them byte-for-byte.

    Scale shape: a per-batch pandas drop_duplicates combiner shrinks
    the stream to distinct (word, doc) pairs before the one word-hash
    exchange (the `source_vocab_overlap` routing: int64 hash key, word
    string as payload so collisions never corrupt), then each
    partition builds ALL its words' postings with one vectorized
    lexsort + run-boundary split — posting lists stay
    partition-local, vocabulary-sized output, document text never
    moves."""
    import pandas as pd

    from .neardup import partition_apply

    def explode(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pandas()
        words = b["text"].to_pandas().str.strip().str.split(r"\s+")
        df = pd.DataFrame({"doc_id": ids.repeat(words.str.len()),
                           "word": words.explode()})
        df = df[df["word"].notna() & (df["word"] != "")].drop_duplicates()
        wh = _word_hashes(df["word"].tolist()).view(np.int64)
        return pa.table({"h": pa.array(wh),
                         "word": pa.array(df["word"], pa.string()),
                         "doc_id": pa.array(df["doc_id"].to_numpy(
                             np.int64))})

    def postings(part: pa.Table) -> pa.Table:
        df = (part.select(["word", "doc_id"]).to_pandas()
              .drop_duplicates())
        w = df["word"].to_numpy()
        d = df["doc_id"].to_numpy()
        order = np.lexsort((d, w))
        w, d = w[order], d[order]
        starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
        ends = np.r_[starts[1:], len(w)]
        words, dfs, posts = [], [], []
        dstr = d.astype(str)
        for s, e in zip(starts, ends):
            words.append(w[s])
            dfs.append(e - s)
            posts.append(",".join(dstr[s:e]))
        return pa.table({"word": pa.array(words, pa.string()),
                         "df": pa.array(np.asarray(dfs, dtype=np.int64)),
                         "postings": pa.array(posts, pa.string())})

    schema = pa.schema([("word", pa.string()), ("df", pa.int64()),
                        ("postings", pa.string())])
    ds = (_read(sf_dir, "documents", ["doc_id", "text"])
          .map_batches(explode, batch_format="pyarrow"))
    return partition_apply(ds, "h", postings, schema)


ORACLES["inverted_index"] = r"""
    WITH toks AS (
        SELECT doc_id,
               unnest(regexp_split_to_array(trim(text), '\s+')) AS word
        FROM documents WHERE trim(text) <> ''),
    d AS (SELECT DISTINCT word, doc_id FROM toks)
    SELECT word, count(*) AS df,
           string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
               AS postings
    FROM d GROUP BY word
"""


_ZRATIO_MIN = 100_000     # below: template/repetition spam (Dolma)
_ZRATIO_MAX = 800_000     # above: near-random / binary junk


def q_compression_ratio(sf_dir):
    """Dolma/Gopher compression-ratio quality signal: per document the
    zlib(level 6) compressed size over the raw UTF-8 size, integer ppm
    — extremely compressible text is boilerplate/repetition spam,
    incompressible text is junk (minified blobs, encoding noise).
    keep = _ZRATIO_MIN <= ratio_ppm <= _ZRATIO_MAX and non-empty.

    Scale shape: one embarrassingly-parallel pass — zlib runs per doc
    where the text lives (a C call per row, the md5-digest convention;
    no Python byte loop) and only (doc_id, three int64s) leave the
    stage; no exchange at all.  rows-only (DuckDB has no zlib); pinned
    by pytest against an independent per-row mirror with planted
    repetition spam and incompressible hex."""
    import zlib

    def ratios(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        raw = np.empty(len(texts), dtype=np.int64)
        zl = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            enc = t.encode()
            raw[i] = len(enc)
            zl[i] = len(zlib.compress(enc, 6)) if enc else 0
        ppm = np.where(raw > 0, zl * 1_000_000 // np.maximum(raw, 1), 0)
        keep = ((raw > 0) & (ppm >= _ZRATIO_MIN)
                & (ppm <= _ZRATIO_MAX)).astype(np.int64)
        return pa.table({
            "doc_id": b["doc_id"],
            "raw_len": pa.array(raw), "z_len": pa.array(zl),
            "ratio_ppm": pa.array(ppm), "keep": pa.array(keep)})

    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(ratios, batch_format="pyarrow"))


def q_split_drift(sf_dir):
    """Distribution-drift audit between the train and holdout splits
    (the doc_id %% 5 convention shared with `dedup_incremental`):
    total-variation distance between the two splits' n_chars value
    distributions, integer-exact in ppm — the monitor a continuously-
    refreshed corpus runs to catch a new crawl batch whose length
    profile shifted (template change, truncation bug) before it
    poisons the mix.

    Scale shape: per-batch (n_chars, c_train, c_holdout) value-count
    partials collapse the corpus into a value-domain histogram
    (exchange volume O(distinct lengths), row-count independent —
    the `source_len_quantiles` pattern), then the driver folds the
    tiny histogram with arbitrary-precision Python ints: tv_ppm =
    Σ|c_a·n_b − c_b·n_a| · 10^6 // (2·n_a·n_b) — no float ever, so
    the oracle (DuckDB HUGEINT) matches bit-for-bit."""
    def split(b: pa.Table) -> pa.Table:
        b_side = (b["doc_id"].to_numpy() % 5 == 0).astype(np.int64)
        return pa.table({"n_chars": b["n_chars"],
                         "ca": pa.array(1 - b_side),
                         "cb": pa.array(b_side)})

    hist = combine(_read(sf_dir, "documents", ["doc_id", "n_chars"])
                   .map_batches(split, batch_format="pyarrow"),
                   ["n_chars"], {"ca": "sum", "cb": "sum"},
                   pa.schema([("n_chars", pa.int64()), ("ca", pa.int64()),
                              ("cb", pa.int64())])).take_all()
    n_a = sum(int(r["ca"]) for r in hist)
    n_b = sum(int(r["cb"]) for r in hist)
    num = sum(abs(int(r["ca"]) * n_b - int(r["cb"]) * n_a) for r in hist)
    tv_ppm = num * 1_000_000 // (2 * n_a * n_b) if n_a and n_b else 0
    return pa.table({"n_a": pa.array([n_a], pa.int64()),
                     "n_b": pa.array([n_b], pa.int64()),
                     "tv_ppm": pa.array([tv_ppm], pa.int64())})


ORACLES["split_drift"] = r"""
    WITH h AS (
        SELECT n_chars,
               count(*) FILTER (WHERE doc_id % 5 != 0) AS ca,
               count(*) FILTER (WHERE doc_id % 5 = 0) AS cb
        FROM documents GROUP BY n_chars),
    t AS (SELECT sum(ca) AS na, sum(cb) AS nb FROM h)
    SELECT CAST(t.na AS BIGINT) AS n_a, CAST(t.nb AS BIGINT) AS n_b,
           CAST(sum(abs(ca * t.nb - cb * t.na)) * 1000000
                // (2 * t.na * t.nb) AS BIGINT) AS tv_ppm
    FROM h, t GROUP BY t.na, t.nb
"""


def q_oov_rate(sf_dir):
    """Per-source out-of-vocabulary rate against the corpus top-100
    vocabulary — the coverage audit a tokenizer/mixture designer runs
    before committing a vocab (high OOV in a source means the
    tokenizer will shred it into bytes): for each source, total
    whitespace tokens, tokens outside the top-100 list (count DESC,
    word ASC ties — the `vocab_topk` election), and the integer-exact
    rate in ppm.

    Scale shape: phase 1 is the vocab_topk combiner election (per-
    batch value_counts → vocabulary-sized groupby → top-100), whose
    100-word result is driver-folded and broadcast in the gate
    closure; phase 2 is one streaming pass — pandas explode + isin
    (vectorized membership, no Python token loop) collapsing each
    batch to per-source (n_tokens, n_oov) partials, then a
    sources-bounded groupby.  Nothing corpus-sized ever sorts."""
    import pandas as pd

    vocab = frozenset(r["word"] for r in q_vocab_topk(sf_dir).take_all())

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        words = b["text"].str.strip().str.split(r"\s+")
        df = pd.DataFrame({"source": b["source"].repeat(words.str.len()),
                           "word": words.explode()})
        df = df[df["word"].notna() & (df["word"] != "")]
        df["oov"] = (~df["word"].isin(vocab)).astype("int64")
        g = df.groupby("source", sort=False)
        return pd.DataFrame({"n_tokens": g.size().astype("int64"),
                             "n_oov": g["oov"].sum().astype("int64")}
                            ).reset_index()

    def ppm(b: pa.Table) -> pa.Table:
        nt = b["n_tokens"].to_numpy()
        no = b["n_oov"].to_numpy()
        return b.append_column(
            "oov_ppm", pa.array(no * 1_000_000 // np.maximum(nt, 1)))

    return combine(_read(sf_dir, "documents", ["source", "text"])
                   .map_batches(partial, batch_format="pandas"),
                   ["source"], {"n_tokens": "sum", "n_oov": "sum"},
                   pa.schema([("source", pa.string()),
                              ("n_tokens", pa.int64()),
                              ("n_oov", pa.int64())])
                   ).map_batches(ppm, batch_format="pyarrow")


ORACLES["oov_rate"] = r"""
    WITH toks AS (
        SELECT source,
               unnest(regexp_split_to_array(trim(text), '\s+')) AS word
        FROM documents WHERE trim(text) <> ''),
    v AS (
        SELECT word FROM (
            SELECT word, count(*) AS n FROM toks
            GROUP BY word ORDER BY n DESC, word LIMIT 100))
    SELECT source, count(*) AS n_tokens,
           count(*) FILTER (WHERE word NOT IN (SELECT word FROM v))
               AS n_oov,
           CAST(count(*) FILTER (WHERE word NOT IN
                                 (SELECT word FROM v)) * 1000000
                // count(*) AS BIGINT) AS oov_ppm
    FROM toks GROUP BY source
"""


_CAPTION_BOILER = "stock photo image"
_CAPTION_DUP_MAX = 3


def q_caption_dup_filter(sf_dir):
    """LAION-style duplicate-caption boilerplate filter over the
    input-hint image+caption table: captions shared by many images are
    template alt-text ("stock photo image", CMS placeholders) that
    poisons contrastive training — drop every pair whose NORMALIZED
    caption (lowercased, whitespace-collapsed) is used by more than
    _CAPTION_DUP_MAX images, and every empty caption.  Boilerplate is
    planted deterministically at list position j %% 11 == 0 (same
    convention as the generator's empty/truncated corruption) so the
    gate has real work.

    Scale shape: the caption is digested (md5-high64) per batch where
    it lives and the payload bytes + caption text are pruned in the
    same stage — only (image_id, digest, nonempty), ~30 B/row, enters
    the one `partition_apply` exchange; each partition counts uses per
    digest with one vectorized pandas groupby-transform and fans the
    verdict back to its rows (hash collisions across captions would
    merge counts — at 64 bits the birthday bound passes 5B captions;
    the exact-string variant rides the same exchange with the caption
    as payload, the `source_vocab_overlap` pattern).  rows-only
    (DuckDB holds no view of the synthetic image table); pinned by
    pytest against an independent Counter mirror."""
    import pandas as pd

    from .neardup import partition_apply

    rows = _image_caption_rows()
    for j in range(0, len(rows), 11):
        rows[j] = {**rows[j], "caption": _CAPTION_BOILER}
    t = pa.table({
        "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
        "caption": pa.array([r["caption"] for r in rows], pa.string()),
    })

    def digest(b: pa.Table) -> pa.Table:
        caps = [" ".join(c.lower().split())
                for c in b["caption"].to_pylist()]
        hs = np.fromiter(
            (int.from_bytes(hashlib.md5(c.encode()).digest()[:8],
                            "big", signed=False) >> 1 for c in caps),
            dtype=np.int64, count=len(caps))
        return pa.table({
            "image_id": b["image_id"],
            "h": pa.array(hs),
            "nonempty": pa.array(
                np.array([len(c) > 0 for c in caps], dtype=np.int64))})

    def verdict(part: pa.Table) -> pa.Table:
        df = part.to_pandas()
        uses = df.groupby("h")["image_id"].transform("size")
        keep = ((df["nonempty"] == 1)
                & (uses <= _CAPTION_DUP_MAX)).astype(np.int64)
        return pa.table({
            "image_id": pa.array(df["image_id"], pa.string()),
            "n_uses": pa.array(uses.to_numpy(np.int64)),
            "keep": pa.array(keep.to_numpy(np.int64))})

    schema = pa.schema([("image_id", pa.string()), ("n_uses", pa.int64()),
                        ("keep", pa.int64())])
    ds = (_rd().from_arrow(t)
          .map_batches(digest, batch_format="pyarrow", batch_size=64))
    return partition_apply(ds, "h", verdict, schema)


def _image_curate_decode(b: pa.Table) -> pa.Table:
    """Decode stage of the image-curation composition: ONE pass over
    the payload bytes computes the exact-dedup digest (md5-high63 of
    the encoded bytes — identical pixels fetched twice encode
    identically in the synthetic codec) AND the decoded luma exposure
    gates; everything downstream is ~48 B/row metadata."""
    from .functions.imaging import decode_image
    digests, reasons = [], []
    for data in b["bytes"].to_pylist():
        digests.append(int.from_bytes(
            hashlib.md5(data).digest()[:8], "big") >> 1)
        px = decode_image(data).astype(np.int64)
        l3 = px.sum(axis=2)
        m = int(l3.sum()) // l3.size
        s = int(l3.max() - l3.min())
        reasons.append((m < _IMGQ_DARK_MAX) * 16
                       + (m > _IMGQ_BRIGHT_MIN) * 32
                       + (s < _IMGQ_SPREAD_MIN) * 64)
    return pa.table({
        "image_id": b["image_id"],
        "w": b["w"].cast(pa.int64()),
        "h": b["h"].cast(pa.int64()),
        "caption": b["caption"],
        "digest": pa.array(digests, pa.int64()),
        "reason": pa.array(np.asarray(reasons, np.int64))})


def q_image_curate(sf_dir):
    """The multimodal curation composition end-to-end — what a
    LAION/DataComp-style pipeline runs between the crawl and the
    trainer, in ONE streaming pass over the payload bytes plus two
    metadata-only exchanges: decode tasks compute the
    exact-dedup digest and the exposure gates where the bytes live
    (bits 16 dark / 32 blown / 64 flat), a vectorized metadata gate
    adds min-side/aspect/caption-token bits (1/2/4), a digest-keyed
    exchange collapses re-crawled identical images (bit 8, smallest
    image_id survives), and survivors pack into fixed SDXL-style
    aspect-bucket batches.  Every input image comes back with full
    verdict lineage: (keep, reason bitmask, bucket, batch_idx, slot;
    −1s when dropped) — rows-only (synthetic image table), pinned by
    an independent pure-Python mirror in pytest.

    Scale shape: payload bytes are read exactly once and never enter
    an exchange; both exchanges (digest dedup, bucket packing) move
    ~48 B/row; the pack argsort is bounded per (bucket) group."""
    from .neardup import group_apply

    rows = _image_caption_rows()
    t = pa.table({
        "image_id": pa.array([r["image_id"] for r in rows],
                             pa.string()),
        "bytes": binary_array([r["bytes"] for r in rows]),
        "w": pa.array([r["w"] for r in rows], pa.int32()),
        "h": pa.array([r["h"] for r in rows], pa.int32()),
        "caption": pa.array([r["caption"] for r in rows], pa.string()),
    })

    def meta_gate(b: pa.Table) -> pa.Table:
        w = b["w"].to_numpy()
        h = b["h"].to_numpy()
        trimmed = pc.utf8_trim_whitespace(b["caption"])
        nruns = pc.count_substring_regex(trimmed, r"\s+").to_numpy()
        empty = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
        ntok = np.where(empty, 0, nruns + 1).astype(np.int64)
        lo = np.minimum(w, h)
        hi = np.maximum(w, h)
        add = ((lo < _IMG_MIN_SIDE) * 1
               + (hi > _IMG_ASPECT_MAX * lo) * 2
               + (ntok < _IMG_MIN_CAPTION_TOKENS) * 4).astype(np.int64)
        return pa.table({"image_id": b["image_id"],
                         "w": pa.array(w), "h": pa.array(h),
                         "digest": b["digest"],
                         "reason": pa.array(b["reason"].to_numpy()
                                            + add)})

    def dedup_group(g: pa.Table) -> pa.Table:
        reason = g["reason"].to_numpy().copy()
        ids = np.asarray(g["image_id"].to_pylist(), dtype=object)
        ok = reason == 0
        if ok.sum() > 1:
            order = np.argsort(ids[ok])
            reason[np.where(ok)[0][order[1:]]] |= 8
        return pa.table({"image_id": pa.array(list(ids), pa.string()),
                         "w": g["w"], "h": g["h"],
                         "reason": pa.array(reason)})

    dedup_schema = pa.schema([("image_id", pa.string()),
                              ("w", pa.int64()), ("h", pa.int64()),
                              ("reason", pa.int64())])
    judged = group_apply(
        _rd().from_arrow(t)
        .map_batches(_image_curate_decode, batch_format="pyarrow",
                     batch_size=64)
        .map_batches(meta_gate, batch_format="pyarrow"),
        "digest", dedup_group, dedup_schema)

    wb = np.array([x[0] for x in _ASPECT_BUCKETS], dtype=np.int64)
    hb = np.array([x[1] for x in _ASPECT_BUCKETS], dtype=np.int64)
    scale = _ASPECT_LCM // hb

    def assign(b: pa.Table) -> pa.Table:
        reason = b["reason"].to_numpy()
        keep = reason == 0
        w = b["w"].to_numpy()
        h = b["h"].to_numpy()
        cost = np.abs(w[:, None] * hb[None, :]
                      - h[:, None] * wb[None, :]) * scale[None, :]
        bucket = np.where(keep, np.argmin(cost, axis=1), -1) \
            .astype(np.int64)
        return pa.table({"image_id": b["image_id"],
                         "keep": pa.array(keep.astype(np.int64)),
                         "reason": pa.array(reason),
                         "bucket": pa.array(bucket)})

    def pack(g: pa.Table) -> pa.Table:
        bucket = g["bucket"].to_numpy()
        ids = np.asarray(g["image_id"].to_pylist(), dtype=object)
        if bucket[0] < 0:                       # dropped group
            neg = np.full(len(ids), -1, np.int64)
            return pa.table({"image_id": pa.array(list(ids),
                                                  pa.string()),
                             "keep": g["keep"], "reason": g["reason"],
                             "bucket": g["bucket"],
                             "batch_idx": pa.array(neg),
                             "slot": pa.array(neg)})
        order = np.argsort(ids)
        pos = np.empty(len(ids), dtype=np.int64)
        pos[order] = np.arange(len(ids))
        return pa.table({"image_id": pa.array(list(ids), pa.string()),
                         "keep": g["keep"], "reason": g["reason"],
                         "bucket": g["bucket"],
                         "batch_idx": pa.array(pos // _ASPECT_BATCH),
                         "slot": pa.array(pos % _ASPECT_BATCH)})

    pack_schema = pa.schema([("image_id", pa.string()),
                             ("keep", pa.int64()),
                             ("reason", pa.int64()),
                             ("bucket", pa.int64()),
                             ("batch_idx", pa.int64()),
                             ("slot", pa.int64())])
    return group_apply(judged.map_batches(assign,
                                          batch_format="pyarrow"),
                       "bucket", pack, pack_schema)


def q_hll_per_source(sf_dir):
    """Per-GROUP HyperLogLog: a distinct-text estimate for every
    source in one pass — the per-host/per-domain distinct-URL shape a
    10^10-URL frontier needs, where exact per-group distinct is a
    full-corpus shuffle but a 64-register sketch per group is ~100
    bytes.  Same integer-rational arithmetic as `hll_distinct`
    (md5-high64, register = top 6 bits, harmonic sum on the common
    2^59 denominator, alpha = 709/1000), so estimates hash bit-exactly
    against the DuckDB replay.

    Scale shape: each batch collapses to ≤ |sources|·64 (group,
    register, rho) partials regardless of row count, ONE sort-free
    source-hash exchange (~20 B/row), each partition folds ALL its
    groups' registers with one pandas max-groupby and computes the
    estimates with exact Python ints (group-count-bounded loop, not
    row-bounded)."""
    import pandas as pd

    from .neardup import partition_apply

    def partial(b: pa.Table) -> pa.Table:
        reg, rho = _hll_row_registers(b["text"].to_pylist())
        df = (pd.DataFrame({"source": b["source"].to_pylist(),
                            "register": reg, "rho": rho})
              .groupby(["source", "register"], as_index=False)["rho"]
              .max())
        sh = _word_hashes(df["source"].tolist()).view(np.int64)
        return pa.table({
            "sh": pa.array(sh),
            "source": pa.array(df["source"], pa.string()),
            "register": pa.array(df["register"].to_numpy(np.int64)),
            "rho": pa.array(df["rho"].to_numpy(np.int64))})

    def fold(part: pa.Table) -> pa.Table:
        df = (part.select(["source", "register", "rho"]).to_pandas()
              .groupby(["source", "register"], as_index=False)["rho"]
              .max())
        srcs, ests, vzs = [], [], []
        for src, g in df.groupby("source", sort=False):
            est, v_zero = _hll_estimate(g["rho"].to_numpy(np.int64))
            srcs.append(src)
            ests.append(est)
            vzs.append(v_zero)
        return pa.table({
            "source": pa.array(srcs, pa.string()),
            "est_distinct": pa.array(np.asarray(ests, np.int64)),
            "v_zero": pa.array(np.asarray(vzs, np.int64))})

    schema = pa.schema([("source", pa.string()),
                        ("est_distinct", pa.int64()),
                        ("v_zero", pa.int64())])
    return partition_apply(
        _read(sf_dir, "documents", ["source", "text"])
        .map_batches(partial, batch_format="pyarrow"),
        "sh", fold, schema)


ORACLES["hll_per_source"] = r"""
    WITH h AS (
        SELECT source,
               ('0x' || substr(md5(text), 1, 16))::UBIGINT AS h
        FROM documents),
    reg AS (
        SELECT source, CAST(h >> 58 AS BIGINT) AS register,
               max(59 - CASE
                       WHEN (h & ((1::UBIGINT << 58) - 1)) = 0 THEN 0
                       ELSE length(bin(h & ((1::UBIGINT << 58) - 1)))
                   END) AS rho
        FROM h GROUP BY 1, 2),
    s AS (
        SELECT source, count(*) AS n_present,
               sum((1::UBIGINT << (59 - rho))::HUGEINT) AS s_present
        FROM reg GROUP BY 1)
    SELECT source,
           CAST((709::HUGEINT * 64 * 64 * (1::UBIGINT << 59)::HUGEINT)
                // (1000::HUGEINT *
                    ((64 - n_present)::HUGEINT
                     * (1::UBIGINT << 59)::HUGEINT + s_present))
                AS BIGINT) AS est_distinct,
           CAST(64 - n_present AS BIGINT) AS v_zero
    FROM s
"""


# ---------------------------------------------------------------------------
# integer-exact TF-IDF retrieval (BM25-style length normalization)
# ---------------------------------------------------------------------------

_SEARCH_TERMS = ("table", "row", "hash", "merge")
_SEARCH_K = 50                 # BM25-ish doc-length damping constant
_SEARCH_TOPK = 20


def q_tfidf_search(sf_dir):
    """Distributed relevance search — the retrieval pass a training
    pipeline runs for decontamination probes and hard-negative mining:
    score every document against a fixed query-term set and return the
    top 20.  The relevance function is BM25-shaped but INTEGER-EXACT
    (term score = tf · 10^6 · (N − df) // (df · (dl + 50)): rare terms
    weigh more, long documents damp), so the ranking is bit-identical
    across engines, partitionings and summation orders — no float IDF
    logs to drift.

    Scale shape: two streaming scans and NO corpus shuffle — pass 1
    folds per-batch (term, df) partials for ONLY the |Q| query terms
    plus the doc count (a |Q|-row aggregate); pass 2 re-scans with the
    tiny (term → df) map in the closure, scores each batch with one
    explode + isin + bincount (no Python per token), and only scoring
    docs reach the final top-k rank.  Tokens follow the repo's
    whitespace-run convention (`token_count`)."""
    terms = list(_SEARCH_TERMS)

    def df_partials(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pandas()
        words = texts.str.strip().str.split(r"\s+")
        ex = words.explode()
        row = np.repeat(np.arange(len(texts)),
                        words.str.len().to_numpy().astype(np.int64))
        dfc = np.zeros(len(terms), dtype=np.int64)
        for j, t in enumerate(terms):
            hit = (ex == t).to_numpy()
            dfc[j] = len(np.unique(row[hit]))
        return pa.table({
            "word": pa.array(terms + ["__docs__"], pa.string()),
            "df": pa.array(np.append(dfc, np.int64(len(texts))))})

    stats = combine(
        _read(sf_dir, "documents", ["text"])
        .map_batches(df_partials, batch_format="pyarrow"), ["word"],
        {"df": "sum"},
        pa.schema([("word", pa.string()), ("df", pa.int64())])).take_all()
    df_map = {r["word"]: int(r["df"]) for r in stats}
    n_docs = df_map.pop("__docs__", 0)
    weights = {t: ((n_docs - df_map[t]), df_map[t])
               for t in terms if df_map.get(t, 0) > 0}

    def score(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        texts = b["text"].to_pandas()
        words = texts.str.strip().str.split(r"\s+")
        dl = words.str.len().to_numpy().astype(np.int64)
        ex = words.explode()
        row = np.repeat(np.arange(len(texts)), dl)
        total = np.zeros(len(texts), dtype=np.int64)
        matched = np.zeros(len(texts), dtype=bool)
        for t, (n_minus_df, df) in weights.items():
            tf = np.bincount(row[(ex == t).to_numpy()],
                             minlength=len(texts)).astype(np.int64)
            matched |= tf > 0
            total += (tf * 1_000_000 * n_minus_df) // (df * (dl
                                                             + _SEARCH_K))
        m = matched                   # oracle keeps tf>0 docs even at
        # a floored-to-0 score; mirror that exactly
        return pa.table({"doc_id": pa.array(ids[m].astype(np.int64)),
                         "score_ppm": pa.array(total[m])})

    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(score, batch_format="pyarrow")
            .sort(["score_ppm", "doc_id"], descending=[True, False])
            .limit(_SEARCH_TOPK))


ORACLES["tfidf_search"] = rf"""
    WITH toks AS (
        SELECT doc_id,
               unnest(regexp_split_to_array(trim(text), '\s+')) AS word
        FROM documents),
    dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
    n AS (SELECT count(*) AS n FROM documents),
    q AS (SELECT unnest({list(_SEARCH_TERMS)!r}) AS word),
    df AS (SELECT word, count(DISTINCT doc_id) AS df FROM toks
           WHERE word IN (SELECT word FROM q) GROUP BY 1),
    tf AS (SELECT doc_id, word, count(*) AS tf FROM toks
           WHERE word IN (SELECT word FROM q) GROUP BY 1, 2)
    SELECT doc_id,
           CAST(sum((tf * 1000000 * (n.n - df.df))
                    // (df.df * (dl.dl + {_SEARCH_K}))) AS BIGINT)
               AS score_ppm
    FROM tf JOIN df USING (word) JOIN dl USING (doc_id) CROSS JOIN n
    WHERE df.df > 0
    GROUP BY doc_id
    ORDER BY score_ppm DESC, doc_id
    LIMIT {_SEARCH_TOPK}
"""


QUERIES = {
    "token_count": q_token_count,
    "stopword_count": q_stopword_count,
    "quality_score": q_quality_score,
    "lang_id": q_lang_id,
    "pii_scrub": q_pii_scrub,
    "text_normalize": q_text_normalize,
    "dedup_exact": q_dedup_exact,
    "dedup_counts": q_dedup_counts,
    "hll_distinct": q_hll_distinct,
    "dedup_incremental": q_dedup_incremental,
    "dedup_incremental_artifact": q_dedup_incremental_artifact,
    "cms_word_counts": q_cms_word_counts,
    "substring_dedup": q_substring_dedup,
    "wordset_dup_groups": q_wordset_dup_groups,
    "jaccard_near_dup": q_jaccard_near_dup,
    "near_dup_components": q_near_dup_components,
    "near_dup_collapse": q_near_dup_collapse,
    "dedup_keep_best": q_dedup_keep_best,
    "vocab_topk": q_vocab_topk,
    "bpe_train": q_bpe_train,
    "bpe_encode": q_bpe_encode,
    "bpe_token_counts": q_bpe_token_counts,
    "doc_top_terms": q_doc_top_terms,
    "sample_per_source": q_sample_per_source,
    "source_token_stats": q_source_token_stats,
    "decontaminate": q_decontaminate,
    "curate_corpus": q_curate_corpus,
    "token_len_hist": q_token_len_hist,
    "gopher_repetition": q_gopher_repetition,
    "source_len_quantiles": q_source_len_quantiles,
    "seq_packing": q_seq_packing,
    "dsir_select": q_dsir_select,
    "dup_window_coverage": q_dup_window_coverage,
    "line_dedup": q_line_dedup,
    "lm_bigram_score": q_lm_bigram_score,
    "image_caption_gate": q_image_caption_gate,
    "ngram_jaccard_near_dup": q_ngram_jaccard_near_dup,
    "simhash_near_dup": q_simhash_near_dup,
    "embedding_knn": q_embedding_knn,
    "embedding_near_dup": q_embedding_near_dup,
    "ann_ivf": q_ann_ivf,
    "ann_lsh": q_ann_lsh,
    "ann_lsh_bucketed": q_ann_lsh_bucketed,
    "image_resize": q_image_resize,
    "image_decode": q_image_decode,
    "image_phash_near_dup": q_image_phash_near_dup,
    "image_phash_collapse": q_image_phash_collapse,
    "audio_features": q_audio_features,
    "audio_fp_near_dup": q_audio_fp_near_dup,
    "video_fp_near_dup": q_video_fp_near_dup,
    "video_frame_sample": q_video_frame_sample,
    "token_count_bpe": q_token_count_bpe,
    "winnow_fingerprint": q_winnow_fingerprint,
    "kmeans_embeddings": q_kmeans_embeddings,
    "semdedup": q_semdedup,
    "crawl_order": q_crawl_order,
    "fineweb_filter": q_fineweb_filter,
    "dataset_split": q_dataset_split,
    "image_aspect_buckets": q_image_aspect_buckets,
    "ccnet_buckets": q_ccnet_buckets,
    "image_quality_stats": q_image_quality_stats,
    "token_budget_mix": q_token_budget_mix,
    "char_class_stats": q_char_class_stats,
    "intra_doc_line_dedup": q_intra_doc_line_dedup,
    "image_exact_dedup": q_image_exact_dedup,
    "clip_score_gate": q_clip_score_gate,
    "epoch_shuffle": q_epoch_shuffle,
    "embedding_quantize": q_embedding_quantize,
    "source_vocab_overlap": q_source_vocab_overlap,
    "wds_shard_plan": q_wds_shard_plan,
    "wds_write_pack": q_wds_write_pack,
    "caption_dup_filter": q_caption_dup_filter,
    "oov_rate": q_oov_rate,
    "split_drift": q_split_drift,
    "compression_ratio": q_compression_ratio,
    "inverted_index": q_inverted_index,
    "pagerank_urls": q_pagerank_urls,
    "embedding_project": q_embedding_project,
    "wds_shard_stats": q_wds_shard_stats,
    "html_text_extract": q_html_text_extract,
    "web_curate": q_web_curate,
    "neardup_store_refresh": q_neardup_store_refresh,
    "tfidf_search": q_tfidf_search,
    "hll_per_source": q_hll_per_source,
    "image_curate": q_image_curate,
}
