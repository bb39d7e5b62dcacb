"""Posting codec roundtrip vectors (FIXTURES.md §5: sizes 0/1/127/128/129/10k)
and byte identity of the one-pass partition encoder with the per-segment
reference encoder it replaced. Segments hold per-salt doc ordinals and
decode through the salt's ordinal map."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meilisearch_thai_ray.config import BM25_B, BM25_K1, POSTING_BLOCK
from meilisearch_thai_ray.index import codec
from meilisearch_thai_ray.index.codec import (
    decode_positions,
    decode_segment,
    encode_segments,
    tfn_scores,
    to_ordinals,
    varint_decode,
)

# ---- reference: the per-segment encoder, kept verbatim -------------------

_THRESHOLDS = [np.uint64(1) << np.uint64(7 * k) for k in range(1, 10)]


def varint_encode(values: np.ndarray) -> bytes:
    """uint64 array -> LEB128 bytes."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    nbytes = np.ones(v.size, dtype=np.int64)
    for t in _THRESHOLDS:
        nbytes += v >= t
    starts = np.cumsum(nbytes) - nbytes
    out = np.zeros(int(nbytes.sum()), dtype=np.uint8)
    maxb = int(nbytes.max())
    for k in range(maxb):
        mask = nbytes > k
        chunk = (v[mask] >> np.uint64(7 * k)).astype(np.uint64) & np.uint64(0x7F)
        cont = (nbytes[mask] > k + 1).astype(np.uint8) << 7
        out[starts[mask] + k] = chunk.astype(np.uint8) | cont
    return out.tobytes()


def encode_positions(positions: list, tfs: np.ndarray) -> bytes:
    """Per-posting ascending position lists -> one varint stream.

    Deltas are taken WITHIN each posting's list (first value absolute);
    posting boundaries need no markers because tf == len(positions) is
    already stored. Vectorized: one flat array, per-posting-start values
    restored by subtracting the previous element only off-boundary."""
    if not positions:
        return b""
    flat = np.concatenate([np.asarray(p, dtype=np.uint64) for p in positions])
    counts = tfs.astype(np.int64)
    starts = np.cumsum(counts) - counts
    deltas = flat.copy()
    deltas[1:] -= flat[:-1]
    deltas[starts] = flat[starts]  # absolute at each posting start
    return varint_encode(deltas)


def encode_segment(ords: np.ndarray, tfs: np.ndarray, dls: np.ndarray,
                   avgdl: float, k1: float = BM25_K1, b: float = BM25_B,
                   block: int = POSTING_BLOCK) -> dict:
    """Encode one (term, salt) posting segment. ords (the postings' doc
    ordinals) must be sorted ascending; dls only feed block_max."""
    ords = np.ascontiguousarray(ords, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    dls = np.ascontiguousarray(dls, dtype=np.uint64)
    n = ords.size
    deltas = np.empty(n, dtype=np.uint64)
    if n:
        deltas[0] = ords[0]
        np.subtract(ords[1:], ords[:-1], out=deltas[1:])
    tfn = tfn_scores(tfs, dls, avgdl, k1, b)
    nblocks = (n + block - 1) // block
    block_last = np.empty(nblocks, dtype=np.int64)
    block_max = np.empty(nblocks, dtype=np.float64)
    for i in range(nblocks):
        lo, hi = i * block, min((i + 1) * block, n)
        block_last[i] = ords[hi - 1]
        block_max[i] = tfn[lo:hi].max()
    return {
        "n_docs": n,
        "cf": int(tfs.sum()),
        "docs_bin": varint_encode(deltas),
        "tfs_bin": varint_encode(tfs - np.uint64(1)),
        "block_last": block_last,
        "block_max": block_max,
    }


# ---- helpers --------------------------------------------------------------


def _one(ords, tfs, dls, avgdl, positions=None, block=128) -> dict:
    """encode_segments over a single segment -> that segment's values."""
    cols = encode_segments(ords, tfs, dls, [0], avgdl, block=block,
                           pos_flat=positions)
    return {k: (v[0] if isinstance(v, np.ndarray) else v[0].as_py())
            for k, v in cols.items()}


@st.composite
def _partition(draw):
    """A partition's (term, ordinal)-sorted rows: segments of length 1,
    block, block + 1, 2·block + 1 or small random ones; values from a
    drawn seed (tf up to 300, ordinals up to 2^40, positions past 2^21)."""
    block = draw(st.sampled_from([1, 2, 5, 128]))
    lengths = draw(st.lists(
        st.one_of(st.sampled_from([1, block, block + 1, 2 * block + 1]),
                  st.integers(1, 9)), max_size=6))
    max_id = draw(st.sampled_from([1 << 9, 1 << 20, 1 << 40]))
    max_tf = draw(st.sampled_from([1, 3, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    segs = []
    for n in lengths:
        ids = np.sort(rng.choice(max_id + 2 * n, n, replace=False))
        tfs = rng.integers(1, max_tf + 1, size=n)
        dls = rng.integers(tfs, tfs + 4000)
        pos = [np.cumsum(rng.integers(1, 1 << 14, size=int(tf))) - 1
               for tf in tfs]
        segs.append((ids.astype(np.uint64), tfs.astype(np.uint64),
                     dls.astype(np.uint64), pos))
    return block, segs, draw(st.booleans())


# ---- the one-pass encoder against the reference ---------------------------


@settings(max_examples=150, deadline=None)
@given(_partition(), st.sampled_from([1.0, 55.5, 731.25]))
def test_encode_segments_matches_reference(case, avgdl):
    block, segs, with_pos = case
    cat = lambda xs: (np.concatenate(xs) if xs  # noqa: E731
                      else np.zeros(0, np.uint64))
    starts = np.cumsum([0] + [s[0].size for s in segs])[:-1]
    pos_flat = (cat([p for s in segs for p in s[3]]).astype(np.uint64)
                if with_pos else None)
    cols = encode_segments(cat([s[0] for s in segs]), cat([s[1] for s in segs]),
                           cat([s[2] for s in segs]), starts, avgdl,
                           block=block, pos_flat=pos_flat)
    assert all(len(v) == len(segs) for v in cols.values())
    for i, (ids, tfs, dls, pos) in enumerate(segs):
        ref = encode_segment(ids, tfs, dls, avgdl, block=block)
        assert cols["n_docs"][i] == ref["n_docs"]
        assert cols["cf"][i] == ref["cf"]
        for c in ("docs_bin", "tfs_bin"):
            assert cols[c][i].as_py() == ref[c], c
        assert cols["block_last"][i].as_py() == ref["block_last"].tolist()
        assert (np.array(cols["block_max"][i].as_py()).tobytes()
                == ref["block_max"].tobytes())
        assert cols["pos_bin"][i].as_py() == (
            encode_positions(pos, tfs) if with_pos else b"")


def test_encode_segments_chunks_past_int32_offsets(monkeypatch):
    """A stream longer than a binary column's offsets address comes back
    as a chunked column with the same values; a single segment over the
    limit raises instead of wrapping."""
    ids = np.arange(1, 41, dtype=np.uint64) * 300  # 2-byte deltas
    ones = np.ones(40, np.uint64)
    starts = np.arange(0, 40, 4)
    whole = encode_segments(ids, ones, ones, starts, 1.0)
    monkeypatch.setattr(codec, "_OFFSET_LIMIT", 20)
    split = encode_segments(ids, ones, ones, starts, 1.0)
    assert isinstance(split["docs_bin"], pa.ChunkedArray)
    assert split["docs_bin"].num_chunks > 1
    for c in ("docs_bin", "tfs_bin", "pos_bin"):
        assert split[c].to_pylist() == whole[c].to_pylist(), c
    with pytest.raises(ValueError, match="int32 offsets"):
        encode_segments(ids, ones, ones, [0], 1.0)


def test_encode_segments_rejects_position_count_mismatch():
    ids = np.array([3, 9], np.uint64)
    tfs = np.array([2, 1], np.uint64)
    with pytest.raises(ValueError, match="positions"):
        encode_segments(ids, tfs, tfs, [0], 1.0,
                        pos_flat=np.array([1, 4], np.uint64))


# ---- roundtrips -------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 10_000])
def test_varint_roundtrip(n):
    # any uint64 value roundtrips through the LEB128 stream encoder
    rng = np.random.default_rng(1234 + n)
    vals = rng.integers(0, 1 << 62, size=n, dtype=np.uint64)
    data, nbytes = codec._leb128(vals)
    assert data.tobytes() == varint_encode(vals)
    assert int(nbytes.sum()) == data.size
    assert np.array_equal(varint_decode(data.tobytes(), n), vals)


def test_varint_extremes():
    vals = np.array([0, 1, 127, 128, (1 << 64) - 1], dtype=np.uint64)
    data, _ = codec._leb128(vals)
    assert np.array_equal(varint_decode(data.tobytes(), 5), vals)


def _salt_map(rng, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A salt's ordinal map of up to m docs: sorted unique ids below 2^62,
    uint32 dl."""
    ids = np.unique(rng.integers(0, 1 << 62, size=m, dtype=np.uint64))
    return ids, rng.integers(1, 1000, size=ids.size).astype(np.uint32)


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 10_000])
def test_segment_roundtrip(n):
    rng = np.random.default_rng(42 + n)
    ids, dl = _salt_map(rng, 20 * n + 2)
    ords = np.sort(rng.choice(ids.size, n, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 100, size=n, dtype=np.uint64)
    if not n:  # no rows: no segments
        cols = encode_segments(ords, tfs, dl[ords], [], 55.5)
        assert all(len(v) == 0 for v in cols.values())
        return
    seg = _one(ords, tfs, dl[ords], 55.5)
    d_ids, d_tfs, d_dls = decode_segment(
        seg["docs_bin"], seg["tfs_bin"], seg["n_docs"], (ids, dl)
    )
    assert np.array_equal(ids[ords], d_ids)
    assert np.array_equal(tfs, d_tfs)
    assert np.array_equal(dl[ords], d_dls)
    assert len(seg["block_last"]) == (n + 127) // 128
    assert seg["block_last"][-1] == ords[-1]
    assert seg["cf"] == int(tfs.sum())
    # ordinal gaps take one or two bytes where doc-id gaps take about nine
    assert len(seg["docs_bin"]) <= 2 * n
    with pytest.raises(ValueError, match="salt map"):
        decode_segment(seg["docs_bin"], seg["tfs_bin"], seg["n_docs"],
                       (ids[:int(ords[-1])], dl))


@settings(max_examples=150, deadline=None)
@given(_partition(), st.sampled_from([1.0, 55.5, 731.25]),
       st.integers(0, 2 ** 32 - 1))
def test_partition_roundtrip_through_salt_map(case, avgdl, seed):
    """Random partitions over a random salt map: build.encode_partition ->
    decode_segment through the map, per segment and over the partition's
    concatenated streams, gives back each row's doc id, tf and dl, and
    tfn_scores of the decoded rows equal the input's byte for byte. A
    doc id the map lacks raises."""
    import polars as pl

    from meilisearch_thai_ray.index.build import encode_partition

    block, segs, _with_pos = case
    rng = np.random.default_rng(seed)
    n_max = max((s[0].size for s in segs), default=0)
    ids, dl = _salt_map(rng, n_max + int(rng.integers(0, 50)))
    terms, doc_ids, tfs = [], [], []
    for i, (_ids, seg_tfs, _dls, _pos) in enumerate(segs):
        ords = np.sort(rng.choice(ids.size, seg_tfs.size, replace=False))
        terms += [f"t{i:03d}"] * ords.size
        doc_ids.append(ids[ords])
        tfs.append(seg_tfs)
    cat = lambda xs: (np.concatenate(xs) if xs  # noqa: E731
                      else np.zeros(0, np.uint64))
    doc_ids, tfs = cat(doc_ids), cat(tfs)
    dls = dl[to_ordinals(ids, doc_ids)]
    df = pl.DataFrame({"term": terms, "doc_id": doc_ids.astype(np.int64),
                       "tf": tfs.astype(np.int64)},
                      schema={"term": pl.Utf8, "doc_id": pl.Int64,
                              "tf": pl.Int64})
    t = encode_partition(df, shard=0, salt=0, ordinals=(ids, dl),
                         avgdl=avgdl, k1=BM25_K1, b=BM25_B, block=block)
    assert t.num_rows == len(segs)
    parts = [decode_segment(t["docs_bin"][i].as_py(), t["tfs_bin"][i].as_py(),
                            t["n_docs"][i].as_py(), (ids, dl))
             for i in range(t.num_rows)]
    whole = decode_segment(b"".join(t["docs_bin"].to_pylist()),
                           b"".join(t["tfs_bin"].to_pylist()),
                           t["n_docs"].to_numpy(), (ids, dl))
    for got in (tuple(cat([p[j] for p in parts]) for j in range(3)), whole):
        assert np.array_equal(got[0], doc_ids)
        assert np.array_equal(got[1], tfs)
        assert np.array_equal(got[2], dls)
        assert (tfn_scores(got[1], got[2], avgdl).tobytes()
                == tfn_scores(tfs, dls, avgdl).tobytes())
    if df.height:
        stray = df.with_columns(pl.lit(int(ids[-1]) + 1).alias("doc_id"))
        with pytest.raises(ValueError, match="ordinal map"):
            encode_partition(stray.head(1), shard=0, salt=0,
                             ordinals=(ids, dl), avgdl=avgdl, k1=BM25_K1,
                             b=BM25_B, block=block)


def test_block_max_is_upper_bound():
    rng = np.random.default_rng(9)
    n = 1000
    ids = np.arange(1, n + 1, dtype=np.uint64) * 7
    tfs = rng.integers(1, 30, size=n, dtype=np.uint64)
    dls = rng.integers(5, 400, size=n, dtype=np.uint64)
    seg = _one(ids, tfs, dls, 100.0)

    tfn = tfn_scores(tfs, dls, 100.0)
    for i, bm in enumerate(seg["block_max"]):
        lo, hi = i * 128, min((i + 1) * 128, n)
        assert bm >= tfn[lo:hi].max() - 0.0  # float64 exact max, no rounding down
        assert bm == tfn[lo:hi].max()


def test_positions_codec_roundtrip():
    rng = np.random.default_rng(9)
    pos_lists = [
        sorted(rng.choice(5000, size=int(rng.integers(1, 30)),
                          replace=False).tolist())
        for _ in range(300)
    ]
    tfs = np.array([len(p) for p in pos_lists], dtype=np.uint64)
    seg = _one(np.arange(300, dtype=np.uint64), tfs, tfs, 1.0,
               positions=np.concatenate(pos_lists).astype(np.uint64))
    flat, offs = decode_positions(seg["pos_bin"], tfs)
    for i, p in enumerate(pos_lists):
        assert flat[offs[i]:offs[i] + len(p)].tolist() == p
    # no positions stored: every segment's stream is empty
    assert _one(np.arange(3, dtype=np.uint64), np.ones(3, np.uint64),
                np.ones(3, np.uint64), 1.0)["pos_bin"] == b""
