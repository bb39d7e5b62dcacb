"""Delta + varint (LEB128) posting-list codec over dense per-salt doc
ordinals, with per-block max-score metadata.

Ordinal map, one per salt (salt = doc_id % num_salts), under
shards/_ordinals/: the salt's docs that are not dead letters, sorted by
doc_id, as ids-SSSS.npy (uint64 doc ids) and dl-SSSS.npy (uint32 token
counts). A doc's ordinal is its row there, so ordinal order is doc-id
order and each doc's length is stored once per salt.

Layout per (term, salt) segment:
  docs_bin: varint(delta(ordinals))    -- ordinals strictly increasing
  tfs_bin:  varint(tf - 1)             -- tf >= 1
  block_last: int64[ceil(n/B)]         -- last ordinal per block (skip pointers)
  block_max:  float64[ceil(n/B)]       -- max idf-independent partial score per
                                          block: tfn = tf(k1+1)/(tf+k1(1-b+b·dl/avgdl)).
                                          idf multiplies at query time, so
                                          encoding needs only avgdl (one global
                                          scalar barrier), not per-term df.
  pos_bin:  varint(delta(positions))   -- per posting, tf of them, gaps
                                          restarting at each posting; empty
                                          without store_positions

block_max and decode both read a doc's length from the map, so block_max
bounds every decoded tfn. README "Index format" has the bytes per column.

decode_segment reads a segment back through its salt's map: doc ids and
lengths are gathers ids[ord], dl[ord], so everything above the codec works
on doc ids.

encode_segments writes every segment of one (shard, salt) partition in one
pass: each stream (ordinal deltas, tf-1, position deltas) is encoded once
for the whole partition and cut into per-segment values at byte offsets.
LEB128 encodes each value on its own, so a segment's slice of the stream is
exactly that segment's encoding. Block metadata comes from reduceat over
block starts. The varint loops run over BYTE POSITIONS (<=10 iterations),
not values; decode is vectorized the same way.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..config import BM25_B, BM25_K1, POSTING_BLOCK
from ..state.manifest import atomic_save_npy

# meta.json "index_format": the on-disk layout this module reads and writes.
# 2 = postings over per-salt ordinals; indexes without it hold doc-id gaps
# and a per-posting dls_bin, and are refused (rebuild them)
INDEX_FORMAT = 2
ORDINALS_DIR = "_ordinals"  # under shards/; "_" keeps dataset readers out


def check_index_format(meta: dict, where: str) -> None:
    """Raise ValueError naming a rebuild unless `meta` (an index's
    meta.json) records this module's INDEX_FORMAT."""
    if meta.get("index_format") != INDEX_FORMAT:
        raise ValueError(
            f"index at {where} has index_format {meta.get('index_format')!r}, "
            f"not {INDEX_FORMAT} — rebuild it into a fresh directory")

_THRESHOLDS = [np.uint64(1) << np.uint64(7 * k) for k in range(1, 10)]
_OFFSET_LIMIT = (1 << 31) - 1  # largest offset of a pa.binary() array


def _leb128(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """uint64 array -> (LEB128 stream as uint8 array, bytes per value)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    nbytes = np.ones(v.size, dtype=np.int64)
    top = v.max() if v.size else 0
    for t in _THRESHOLDS:
        if t > top:
            break
        nbytes += v >= t
    starts = np.cumsum(nbytes) - nbytes
    out = np.zeros(int(nbytes.sum()), dtype=np.uint8)
    for k in range(int(nbytes.max()) if v.size else 0):
        mask = nbytes > k
        chunk = (v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[mask] > k + 1).astype(np.uint8) << 7
        out[starts[mask] + k] = chunk.astype(np.uint8) | cont
    return out, nbytes


def varint_decode(data: bytes, count: int) -> np.ndarray:
    """LEB128 bytes -> uint64 array of `count` values."""
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((b & 0x80) == 0)
    assert ends.size == count, f"varint stream has {ends.size} values, expected {count}"
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    out = np.zeros(count, dtype=np.uint64)
    maxb = int((ends - starts).max()) + 1
    for k in range(maxb):
        pos = starts + k
        mask = pos <= ends
        out[mask] |= (b[pos[mask]] & np.uint64(0x7F)).astype(np.uint64) << np.uint64(7 * k)
    return out


def segment_cumsum(deltas: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Running sums of `deltas` restarted at each run of `counts[i]`
    consecutive values (uint64, wrapping like the encoder's deltas)."""
    cs = np.cumsum(deltas, dtype=np.uint64)
    counts = counts.astype(np.int64)
    starts = np.cumsum(counts) - counts
    # undo the global cumsum at run boundaries: subtract the running total
    # accumulated BEFORE each run
    prior = np.zeros(counts.size, dtype=np.uint64)
    prior[1:] = cs[starts[1:] - 1]
    return cs - np.repeat(prior, counts)


def tfn_scores(tfs: np.ndarray, dls: np.ndarray, avgdl: float,
               k1: float = BM25_K1, b: float = BM25_B) -> np.ndarray:
    """idf-independent BM25 partial score, float64, same operation order as
    kernel.bm25.bm25_term_score so engine and oracle sums are bit-identical."""
    tf = tfs.astype(np.float64)
    dl = dls.astype(np.float64)
    return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def decode_positions(pos_bin: bytes, tfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-> (flat positions uint64, per-posting start offsets int64).

    posting i's positions = flat[offsets[i] : offsets[i] + tfs[i]]."""
    counts = tfs.astype(np.int64)
    flat = segment_cumsum(varint_decode(pos_bin, int(counts.sum())), counts)
    return flat, np.cumsum(counts) - counts


def _delta_stream(values: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128 of each value minus its predecessor, absolute at every start."""
    deltas = values.copy()
    deltas[1:] -= values[:-1]
    deltas[starts] = values[starts]
    return _leb128(deltas)


def _binary(data: np.ndarray, nbytes: np.ndarray, bounds: np.ndarray):
    """One pa.binary() value per run [bounds[i], bounds[i+1]) of stream
    values; split into chunks where the stream outgrows int32 offsets, as
    pa.array splits a list of bytes."""
    cum = np.zeros(nbytes.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=cum[1:])
    offsets = cum[bounds]
    if offsets[-1] - offsets[0] <= _OFFSET_LIMIT:
        return pa.Array.from_buffers(
            pa.binary(), offsets.size - 1,
            [None, pa.py_buffer((offsets - offsets[0]).astype(np.int32)),
             pa.py_buffer(data[offsets[0]:offsets[-1]])])
    chunks, lo = [], 0
    while lo < offsets.size - 1:
        hi = int(np.searchsorted(offsets, offsets[lo] + _OFFSET_LIMIT,
                                 side="right")) - 1
        if hi == lo:
            raise ValueError(
                f"one encoded segment holds {offsets[lo + 1] - offsets[lo]} "
                f"bytes, more than a binary column's int32 offsets address")
        chunks.append(_binary(data, nbytes, bounds[lo:hi + 1]))
        lo = hi
    return pa.chunked_array(chunks, pa.binary())


def ordinal_paths(index_dir: str, salt: int) -> tuple[str, str]:
    """(ids .npy, dl .npy) paths of one salt's ordinal map."""
    d = os.path.join(index_dir, "shards", ORDINALS_DIR)
    return (os.path.join(d, f"ids-{salt:04d}.npy"),
            os.path.join(d, f"dl-{salt:04d}.npy"))


def load_ordinals(index_dir: str, salt: int, mmap_mode: str | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One salt's ordinal map: (doc ids uint64 ascending, dl uint32).
    mmap_mode="r" maps the files instead of reading them, for a task that
    touches only the rows of one partition's docs."""
    ids_p, dl_p = ordinal_paths(index_dir, salt)
    return np.load(ids_p, mmap_mode=mmap_mode), np.load(dl_p, mmap_mode=mmap_mode)


def write_ordinals(out_dir: str, salt: int, ids: np.ndarray,
                   dl: np.ndarray) -> None:
    """Write one salt's ordinal map from its docs' (doc_id, token_count)
    in any order: sorted by doc id, each .npy written atomically. A doc id
    on several rows (a URL fetched twice; its postings all carry the one
    id) keeps one row, its smallest token_count, whatever the scan
    order."""
    order = np.lexsort((dl, ids))
    ids = np.asarray(ids).astype(np.uint64)[order]
    first = np.ones(ids.size, bool)
    first[1:] = ids[1:] != ids[:-1]
    ids_p, dl_p = ordinal_paths(out_dir, salt)
    os.makedirs(os.path.dirname(ids_p), exist_ok=True)
    atomic_save_npy(ids_p, ids[first])
    atomic_save_npy(dl_p, np.asarray(dl)[order][first].astype(np.uint32))


def to_ordinals(ids: np.ndarray, doc_ids: np.ndarray) -> np.ndarray:
    """Each doc id's row in a salt's sorted `ids`; raises ValueError on an
    id the map does not hold."""
    doc_ids = np.asarray(doc_ids, dtype=np.uint64)
    ords = np.searchsorted(ids, doc_ids)
    bad = ords >= ids.size
    bad[~bad] = ids[ords[~bad]] != doc_ids[~bad]
    if bad.any():
        raise ValueError(f"doc_id {doc_ids[bad][0]} has a posting but no "
                         f"row in its salt's ordinal map")
    return ords


def encode_segments(ords: np.ndarray, tfs: np.ndarray, dls: np.ndarray,
                    starts: np.ndarray, avgdl: float, k1: float = BM25_K1,
                    b: float = BM25_B, block: int = POSTING_BLOCK,
                    pos_flat: np.ndarray | None = None) -> dict:
    """Encode every (term, salt) segment of one partition in one pass.

    The rows are the partition's postings sorted by (term, ordinal);
    segment i is rows starts[i] up to starts[i + 1] (the last runs to the
    end), its ordinals strictly ascending. dls (each row's doc length)
    only feed block_max. pos_flat, when given, holds each row's ascending
    positions back to back, tfs[row] of them. -> one value per segment for
    each codec column: n_docs, cf (int64 arrays), docs_bin, tfs_bin,
    pos_bin (pa.binary; pos_bin empty without pos_flat), block_last,
    block_max (pa lists)."""
    ords = np.ascontiguousarray(ords, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    starts = np.asarray(starts, dtype=np.int64)
    n = ords.size
    bounds = np.append(starts, n)
    n_docs = np.diff(bounds)
    if starts.size:
        assert starts[0] == 0 and (n_docs > 0).all(), "segments must tile the rows"
        cf = np.add.reduceat(tfs, starts).astype(np.int64)
    else:
        cf = np.zeros(0, dtype=np.int64)
    # blocks: each segment start plus k * block
    nblocks = (n_docs + block - 1) // block
    first = np.cumsum(nblocks) - nblocks
    k = np.arange(int(nblocks.sum()), dtype=np.int64) - np.repeat(first, nblocks)
    block_starts = np.repeat(starts, nblocks) + k * block
    block_ends = np.minimum(block_starts + block, np.repeat(bounds[1:], nblocks))
    tfn = tfn_scores(tfs, dls, avgdl, k1, b)
    block_max = (np.maximum.reduceat(tfn, block_starts) if block_starts.size
                 else np.zeros(0, dtype=np.float64))
    block_last = ords[block_ends - 1].astype(np.int64)
    list_offsets = pa.array(np.append(first, nblocks.sum()).astype(np.int32))
    if pos_flat is None:
        pos_bin = pa.array([b""] * starts.size, pa.binary())
    else:
        counts = tfs.astype(np.int64)
        if pos_flat.size != counts.sum():
            raise ValueError(f"{pos_flat.size} positions for a tf sum of "
                             f"{counts.sum()}")
        pstarts = np.cumsum(counts) - counts
        pos_bin = _binary(*_delta_stream(
            np.ascontiguousarray(pos_flat, dtype=np.uint64), pstarts),
            np.append(pstarts, pos_flat.size)[bounds])
    return {
        "n_docs": n_docs,
        "cf": cf,
        "docs_bin": _binary(*_delta_stream(ords, starts), bounds),
        "tfs_bin": _binary(*_leb128(tfs - np.uint64(1)), bounds),
        "block_last": pa.ListArray.from_arrays(list_offsets,
                                               pa.array(block_last)),
        "block_max": pa.ListArray.from_arrays(list_offsets,
                                              pa.array(block_max)),
        "pos_bin": pos_bin,
    }


def decode_segment(docs_bin: bytes, tfs_bin: bytes, n_docs,
                   ordinals: tuple[np.ndarray, np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-> (doc_ids uint64, tfs uint64, dls uint32) of one segment, or of
    several segments of one salt whose streams are concatenated, n_docs
    then holding each one's posting count (ordinal gaps restart at each).
    Doc ids and lengths are gathered from the salt's ordinal map
    (load_ordinals)."""
    counts = np.atleast_1d(np.asarray(n_docs, dtype=np.int64))
    total = int(counts.sum())
    ords = segment_cumsum(varint_decode(docs_bin, total), counts)
    ids, dl = ordinals
    if total and int(ords.max()) >= ids.size:
        raise ValueError(f"ordinal {int(ords.max())} past a salt map of "
                         f"{ids.size} docs")
    tfs = varint_decode(tfs_bin, total) + np.uint64(1)
    return ids[ords], tfs, dl[ords]
