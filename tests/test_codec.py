"""Posting codec roundtrip vectors (FIXTURES.md §5: sizes 0/1/127/128/129/10k)
and byte identity of the one-pass partition encoder with the per-segment
reference encoder it replaced."""

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


def encode_segment(doc_ids: np.ndarray, tfs: np.ndarray, dls: np.ndarray,
                   avgdl: float, k1: float = BM25_K1, b: float = BM25_B,
                   block: int = POSTING_BLOCK) -> dict:
    """Encode one (term, salt) posting segment. doc_ids must be sorted ascending."""
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    dls = np.ascontiguousarray(dls, dtype=np.uint64)
    n = doc_ids.size
    deltas = np.empty(n, dtype=np.uint64)
    if n:
        deltas[0] = doc_ids[0]
        np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    tfn = tfn_scores(tfs, dls, avgdl, k1, b)
    nblocks = (n + block - 1) // block
    block_last = np.empty(nblocks, dtype=np.int64)
    block_max = np.empty(nblocks, dtype=np.float64)
    for i in range(nblocks):
        lo, hi = i * block, min((i + 1) * block, n)
        block_last[i] = doc_ids[hi - 1]
        block_max[i] = tfn[lo:hi].max()
    return {
        "n_docs": n,
        "cf": int(tfs.sum()),
        "docs_bin": varint_encode(deltas),
        "tfs_bin": varint_encode(tfs - np.uint64(1)),
        "dls_bin": varint_encode(dls),
        "block_last": block_last,
        "block_max": block_max,
    }


# ---- helpers --------------------------------------------------------------


def _one(ids, tfs, dls, avgdl, positions=None, block=128) -> dict:
    """encode_segments over a single segment -> that segment's values."""
    cols = encode_segments(ids, tfs, dls, [0], avgdl, block=block,
                           pos_flat=positions)
    return {k: (v[0] if isinstance(v, np.ndarray) else v[0].as_py())
            for k, v in cols.items()}


@st.composite
def _partition(draw):
    """A partition's (term, doc_id)-sorted rows: segments of length 1,
    block, block + 1, 2·block + 1 or small random ones; values from a
    drawn seed (tf up to 300, doc ids up to 2^40, positions past 2^21)."""
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
        for c in ("docs_bin", "tfs_bin", "dls_bin"):
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
    for c in ("docs_bin", "tfs_bin", "dls_bin", "pos_bin"):
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
    # any uint64 value roundtrips through a segment's dl stream
    rng = np.random.default_rng(1234 + n)
    vals = rng.integers(0, 1 << 62, size=n, dtype=np.uint64)
    cols = encode_segments(np.arange(n, dtype=np.uint64), np.ones(n, np.uint64),
                           vals, [0] if n else [], 1.0)
    data = cols["dls_bin"][0].as_py() if n else b""
    assert np.array_equal(varint_decode(data, n), vals)


def test_varint_extremes():
    vals = np.array([0, 1, 127, 128, (1 << 64) - 1], dtype=np.uint64)
    seg = _one(np.arange(5, dtype=np.uint64), np.ones(5, np.uint64), vals, 1.0)
    assert np.array_equal(varint_decode(seg["dls_bin"], 5), vals)


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 10_000])
def test_segment_roundtrip(n):
    rng = np.random.default_rng(42 + n)
    ids = (
        np.sort(rng.choice(np.arange(1, 20 * n + 2, dtype=np.uint64), n, replace=False))
        if n
        else np.empty(0, np.uint64)
    )
    tfs = rng.integers(1, 100, size=n, dtype=np.uint64)
    dls = rng.integers(1, 1000, size=n, dtype=np.uint64)
    if not n:  # no rows: no segments
        cols = encode_segments(ids, tfs, dls, [], 55.5)
        assert all(len(v) == 0 for v in cols.values())
        return
    seg = _one(ids, tfs, dls, 55.5)
    d_ids, d_tfs, d_dls = decode_segment(
        seg["docs_bin"], seg["tfs_bin"], seg["dls_bin"], seg["n_docs"]
    )
    assert np.array_equal(ids, d_ids)
    assert np.array_equal(tfs, d_tfs)
    assert np.array_equal(dls, d_dls)
    assert len(seg["block_last"]) == (n + 127) // 128
    assert seg["block_last"][-1] == ids[-1]
    assert seg["cf"] == int(tfs.sum())


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
