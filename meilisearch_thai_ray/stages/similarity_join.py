"""Exact blocked all-pairs similarity join (n-gram Jaccard / embedding cosine).

The EXACT counterpart of the sketch-based dedup family (stages/dedup.py
MinHash-LSH, SimHash; pipelines/dedup_pipelines.py LSH cosine buckets):
enumerate every pair whose similarity clears a threshold, with no candidate
generation and no recall loss. Reference analog: the all-pairs verify the
proxy applies within a result set (result_ranker.py:635-712 clusters
near-identical hits by pairwise similarity) lifted to a corpus-level,
distributed operator.

Shape — the classic blocked nested-loop similarity join:

  1. prep `map_batches` computes each row's compact join key (sorted unique
     shingle-hash array, or the embedding) and a deterministic block id
     (doc_id % n_blocks), then spills blocks to hive-partitioned parquet
     (this is the exchange, through the filesystem);
  2. the driver fans out the P*(P+1)/2 block pairs as a tiny from_items
     dataset; each task loads two blocks (per-actor block cache: a block is
     read once per actor, not once per pair) and emits only pairs >= the
     threshold.

Work is O(n^2 / P^2) per task and bounded by block size — the operator is
distributed and memory-safe at any n, but the TOTAL work is inherently
quadratic: this is the verification/small-corpus path and the exact oracle
for the sketch pipelines, not the 100-TB path (that remains MinHash-LSH /
SimHash / LSH-bucketed cosine, which are sub-quadratic by candidate
pruning). Tests assert the sketch pipelines' pairs are a subset of this
operator's exact pair set.

Float/SQL parity: Jaccard is a ratio of exact integers (bit-identical to
DuckDB's list_intersect arithmetic); cosine is rounded to 6 dp on both
sides BEFORE thresholding so the kept set matches the oracle exactly.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

# explicit ASCII whitespace class, NOT \s: Python's \s is Unicode-aware
# (U+00A0 etc.) while DuckDB's RE2 \s is ASCII-only — sharing this literal
# class keeps both sides' tokenization identical on any input
WS_REGEX = r"[ \t\n\f\r]+"
_WS_RE = re.compile(WS_REGEX)


def word_ngram_hashes(text: str, n: int = 3) -> np.ndarray:
    """Sorted unique FNV-1a64 hashes of the word n-grams of `text`.

    Words = regex \\s+ split with empties dropped — the exact tokenization
    the DuckDB oracle applies (string_split_regex + list_filter), so both
    sides shingle identically. Hashing shrinks shingles to 8 bytes each;
    a cross-doc hash collision altering an intersection count has
    probability ~2^-64 per shingle pair (accepted and documented)."""
    from ..functions.hashing import fnv1a64_batch

    words = [w for w in _WS_RE.split(text) if w]
    if len(words) < n:
        return np.empty(0, dtype=np.uint64)
    grams = [" ".join(words[i:i + n]) for i in range(len(words) - n + 1)]
    return np.unique(fnv1a64_batch(grams))


class ShinglePrep:
    """map_batches: (doc_id, text) -> (doc_id, sh list<uint64>, block)."""

    def __init__(self, n: int = 3, n_blocks: int = 4,
                 id_col: str = "doc_id", text_col: str = "text"):
        self.n, self.n_blocks = n, n_blocks
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        shingles = [word_ngram_hashes(t, self.n)
                    for t in batch[self.text_col].to_pylist()]
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "sh": pa.array([s.tolist() for s in shingles],
                           pa.list_(pa.uint64())),
            "block": pa.array((ids % self.n_blocks).astype(np.int32)),
        })


def _load_list_block(block_dir: str, value_col: str):
    """-> (ids int64[n], flat values, offsets int64[n+1]) from one block."""
    import os

    import pyarrow.dataset as pads

    if not os.path.isdir(block_dir):  # a block id with zero rows
        return (np.empty(0, np.int64), np.empty(0, np.uint64),
                np.zeros(1, np.int64))
    t = pads.dataset(block_dir).to_table(columns=["doc_id", value_col])
    t = t.sort_by("doc_id")  # deterministic task output regardless of file order
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    col = t[value_col].combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks else pa.array([], col.type)
    offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = col.values.to_numpy(zero_copy_only=False)
    return ids, flat, offs


def _shared_entries(flat: np.ndarray, offs: np.ndarray,
                    shared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(doc_row, shared_vocab_index) pairs for every shingle occurrence
    that lands in the shared vocabulary. Fully vectorized."""
    if flat.size == 0 or shared.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pos = np.searchsorted(shared, flat)
    ok = pos < shared.size
    safe = np.where(ok, pos, 0)
    ok &= shared[safe] == flat
    rows = np.repeat(np.arange(offs.size - 1), np.diff(offs))
    return rows[ok].astype(np.int64), pos[ok].astype(np.int64)


def _pairs_within_groups(rows_a: np.ndarray, h_a: np.ndarray,
                         rows_b: np.ndarray, h_b: np.ndarray,
                         na: int, nb: int) -> np.ndarray:
    """Intersection-count matrix (na, nb) via an inverted index on shingle
    ids: for every shingle, each (A-doc, B-doc) co-occurrence adds one.
    Cost = sum over shingles of |A-postings| * |B-postings| — near-linear
    when shingles are rare, independent of vocabulary size. Fully
    vectorized (repeat/arange cartesian expansion + one bincount)."""
    v = int(max(h_a.max(initial=-1), h_b.max(initial=-1))) + 1
    cnt_b = np.bincount(h_b, minlength=v)
    order_a = np.argsort(h_a, kind="stable")
    rows_a_s, h_a_s = rows_a[order_a], h_a[order_a]
    order_b = np.argsort(h_b, kind="stable")
    rows_b_s = rows_b[order_b]
    offs_b = np.concatenate([[0], np.cumsum(cnt_b)])[:-1]
    per_a = cnt_b[h_a_s]
    rep_a = np.repeat(rows_a_s, per_a)
    starts = np.repeat(offs_b[h_a_s], per_a)
    ends = np.cumsum(per_a)
    intra = np.arange(int(ends[-1]) if per_a.size else 0) - \
        np.repeat(ends - per_a, per_a)
    rep_b = rows_b_s[starts + intra]
    # accumulate directly into float64: this box's int64->float64 astype is
    # pathologically slow (~1.4 s per 1.5M elements), so never bincount-then-
    # cast; np.add.at on a float array is ~100x faster here
    flat = np.zeros(na * nb, dtype=np.float64)
    np.add.at(flat, rep_a.astype(np.int64) * nb + rep_b, 1.0)
    return flat.reshape(na, nb)


# co-occurrence entries above which the dense boolean matmul beats the
# inverted-index expansion (and bounds its memory)
_INVERT_BUDGET = 32_000_000


class BlockPairJaccard:
    """Actor: one (i, j) block pair -> exact Jaccard pairs >= threshold.

    Kernel choice per block pair, both exact: the two blocks' vocabularies
    are intersected FIRST — only shingles present in both blocks can
    contribute — then intersection counts come from (a) an inverted-index
    co-occurrence expansion (near-linear when shingles are rare: cost =
    sum of posting-list cross products) or (b) a dense boolean matmul over
    the shared vocabulary when the expansion would exceed its budget
    (heavily repeated shingles = dense overlap, where matmul wins)."""

    def __init__(self, blocks_dir: str, threshold: float = 0.5):
        self.blocks_dir = blocks_dir
        self.threshold = threshold
        self._cache: dict[int, tuple] = {}

    def _block(self, b: int):
        got = self._cache.get(b)
        if got is None:
            import os

            ids, flat, offs = _load_list_block(
                os.path.join(self.blocks_dir, f"block={b}"), "sh")
            sizes = np.diff(offs).astype(np.float64)
            got = (ids, flat, offs, sizes, np.unique(flat))
            if len(self._cache) > 8:
                self._cache.clear()
            self._cache[b] = got
        return got

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        for i, j in zip(batch["i"].to_pylist(), batch["j"].to_pylist()):
            ids_a, fa, oa, la, va = self._block(i)
            ids_b, fb, ob, lb, vb = self._block(j)
            na, nb = ids_a.size, ids_b.size
            if not na or not nb:
                continue
            shared = np.intersect1d(va, vb) if i != j else va
            ra_e, ha_e = _shared_entries(fa, oa, shared)
            rb_e, hb_e = (ra_e, ha_e) if i == j else \
                _shared_entries(fb, ob, shared)
            cnt_a = np.bincount(ha_e, minlength=shared.size)
            cnt_b = cnt_a if i == j else np.bincount(hb_e,
                                                     minlength=shared.size)
            if int(cnt_a @ cnt_b) <= _INVERT_BUDGET:
                inter = _pairs_within_groups(ra_e, ha_e, rb_e, hb_e, na, nb)
                union = la[:, None] + lb[None, :] - inter
                jac = np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)
                mask = jac >= self.threshold
                if i == j:
                    # intra-block: strict id order picks each unordered pair
                    # once (and kills the diagonal)
                    mask &= ids_a[:, None] < ids_b[None, :]
                ra, rb = np.nonzero(mask)
                jac_sel = jac[ra, rb]
            else:  # dense overlap: boolean matmul over the shared vocab
                # float32 throughout: intersection counts and set sizes are
                # integers < 2^24, so the f32 matmul is EXACT and 2.3x the
                # f64 one (measured; and this box converts large int->float
                # arrays at ~30 MB/s, so never build f64 from counts).
                # 1-D flat scatter: 2-D fancy-index assignment is ~400x
                # slower on this numpy build
                v = shared.size
                ma = np.zeros(na * v, dtype=np.float32)
                ma[ra_e * v + ha_e] = 1.0
                ma = ma.reshape(na, v)
                if i == j:
                    mb = ma
                else:
                    mb = np.zeros(nb * v, dtype=np.float32)
                    mb[rb_e * v + hb_e] = 1.0
                    mb = mb.reshape(nb, v)
                inter32 = ma @ mb.T
                u32 = la.astype(np.float32)[:, None] + \
                    lb.astype(np.float32)[None, :] - inter32
                # loose f32 prefilter (epsilon covers the f32 product's
                # worst-case rounding), exact f64 threshold on the few
                # survivors — bit-identical to the f64 full-matrix path
                mask = inter32 >= np.float32(self.threshold) * u32 - \
                    np.float32(0.01)
                if i == j:
                    mask &= ids_a[:, None] < ids_b[None, :]
                ra, rb = np.nonzero(mask)
                inter_sel = inter32[ra, rb].astype(np.float64)
                union_sel = la[ra] + lb[rb] - inter_sel
                jac_sel = np.where(union_sel > 0,
                                   inter_sel / np.maximum(union_sel, 1.0),
                                   0.0)
                keep = jac_sel >= self.threshold
                ra, rb, jac_sel = ra[keep], rb[keep], jac_sel[keep]
            # cross-block: the unordered pair appears in exactly ONE (i, j)
            # task, but the lower id may live in EITHER block — emit sorted
            out_a.append(np.minimum(ids_a[ra], ids_b[rb]))
            out_b.append(np.maximum(ids_a[ra], ids_b[rb]))
            out_j.append(jac_sel)
        return pa.table({
            "a": pa.array(np.concatenate(out_a) if out_a else [], pa.int64()),
            "b": pa.array(np.concatenate(out_b) if out_b else [], pa.int64()),
            "jac": pa.array(
                np.round(np.concatenate(out_j), 6) if out_j else [],
                pa.float64()),
        })


class BlockPairCosine:
    """Actor: one (i, j) block pair -> exact cosine pairs >= threshold
    (threshold applied to the 6-dp-rounded value, matching the oracle)."""

    def __init__(self, blocks_dir: str, threshold: float = 0.42):
        self.blocks_dir = blocks_dir
        self.threshold = threshold
        self._cache: dict[int, tuple] = {}

    def _block(self, b: int):
        got = self._cache.get(b)
        if got is None:
            import os

            ids, flat, offs = _load_list_block(
                os.path.join(self.blocks_dir, f"block={b}"), "v")
            dim = int(np.diff(offs)[0]) if offs.size > 1 else 0
            mat = flat.astype(np.float64).reshape(-1, dim) if dim else \
                np.empty((0, 0))
            norms = np.linalg.norm(mat, axis=1)
            unit = mat / np.where(norms == 0, 1.0, norms)[:, None]
            got = (ids, unit)
            if len(self._cache) > 8:
                self._cache.clear()
            self._cache[b] = got
        return got

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_a, out_b, out_c = [], [], []
        for i, j in zip(batch["i"].to_pylist(), batch["j"].to_pylist()):
            ids_a, ua = self._block(i)
            ids_b, ub = self._block(j)
            if not ids_a.size or not ids_b.size:
                continue
            cos = np.round(ua @ ub.T, 6)
            mask = cos >= self.threshold
            if i == j:  # see BlockPairJaccard: id order only intra-block
                mask &= ids_a[:, None] < ids_b[None, :]
            ra, rb = np.nonzero(mask)
            out_a.append(np.minimum(ids_a[ra], ids_b[rb]))
            out_b.append(np.maximum(ids_a[ra], ids_b[rb]))
            out_c.append(cos[ra, rb])
        return pa.table({
            "a": pa.array(np.concatenate(out_a) if out_a else [], pa.int64()),
            "b": pa.array(np.concatenate(out_b) if out_b else [], pa.int64()),
            "cos": pa.array(np.concatenate(out_c) if out_c else [],
                            pa.float64()),
        })


def block_pair_items(n_blocks: int) -> list[dict]:
    """All unordered block pairs (i <= j): the task fan-out."""
    return [{"i": i, "j": j}
            for i in range(n_blocks) for j in range(i, n_blocks)]


class KnnBlockPair(BlockPairCosine):
    """Actor: one ORDERED (i, j) block pair -> block i's per-row top-k
    cosine candidates against block j (k-NN-graph construction — the
    all-rows sibling of the single-query brute-force top-k).

    Ties resolve deterministically to the smaller neighbor id (stable
    argsort over ascending-id candidates), so the downstream global merge
    reproduces the numpy oracle exactly."""

    def __init__(self, blocks_dir: str, k: int = 10):
        super().__init__(blocks_dir, threshold=0.0)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:  # noqa: D102
        out_v, out_n, out_c = [], [], []
        for i, j in zip(batch["i"].to_pylist(), batch["j"].to_pylist()):
            ids_a, ua = self._block(i)
            ids_b, ub = self._block(j)
            if not ids_a.size or not ids_b.size:
                continue
            cos = ua @ ub.T
            if i == j:  # same block: rows align (both id-sorted) -> self
                np.fill_diagonal(cos, -np.inf)
            kk = min(self.k, cos.shape[1])
            top = np.argsort(-cos, axis=1, kind="stable")[:, :kk]
            rows = np.repeat(np.arange(cos.shape[0]), kk)
            cols = top.ravel()
            sel = np.isfinite(cos[rows, cols])
            out_v.append(ids_a[rows[sel]])
            out_n.append(ids_b[cols[sel]])
            out_c.append(cos[rows[sel], cols[sel]])
        return pa.table({
            "vec_id": pa.array(
                np.concatenate(out_v) if out_v else [], pa.int64()),
            "neighbor_id": pa.array(
                np.concatenate(out_n) if out_n else [], pa.int64()),
            "cos": pa.array(
                np.concatenate(out_c) if out_c else [], pa.float64()),
        })


def knn_pair_items(n_blocks: int) -> list[dict]:
    """All ORDERED block pairs — k-NN roles are asymmetric (query block i
    scans candidate block j), so the fan-out is P^2 tasks."""
    return [{"i": i, "j": j}
            for i in range(n_blocks) for j in range(n_blocks)]
