"""Query engine: shard reader + BM25 top-k.

Scoring is Lucene-style BM25 (k1=1.2, b=0.75; kernel/bm25.py). Guarantees:

  * rank identity with the single-node oracle: every scorer sums the one
    contribution w * (idf * tfn) per document in sorted-term order, the
    kernel's operation order — scores are bit-identical, ties broken by
    (-score, doc_id);
  * one top-k entry, score_topk, chooses between two vectorized scorers:
    exhaustive accumulation and MaxScore, which prunes with per-term upper
    bounds w * (idf * max tfn) and returns EXACTLY the exhaustive top-k
    (asserted in tests);
  * the per-block skip pointers and maxima (block_last, block_max) are
    written with every segment but not read at query time: every posting
    is decoded, so a block-skipping scorer would save no work;
  * salted segments of one term are doc-disjoint (doc_id % num_salts), so
    total df = sum of segment dfs, and per-term posting traversal concatenates
    segments in salt order;
  * postings store per-salt doc ordinals (codec.py): a segment decodes
    through its salt's ordinal map, loaded on the salt's first decode, into
    doc ids and lengths, so scorers, shadows and tombstones work on doc
    ids. An index without meta.json's index_format is refused.

Reference query-side semantics (variants/boosts, search_proxy/services/*) are
layered on top in pipelines/search_proxy.py.
"""

from __future__ import annotations

import json
import operator
import os
from collections import Counter
from functools import reduce

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import EngineConfig
from ..kernel.bm25 import idf as _idf
from ..kernel.tokenize import DocumentTokenizer
from ..stages.extract_tokenize import DOCS_SCHEMA
from .codec import (check_index_format, decode_segment, load_ordinals,
                    tfn_scores)

# shard term tables one engine keeps loaded; the cache resets past this
SHARD_CACHE_CAP = 64
# doc_rows `where` for the rows that are not dead letters (status "failed",
# no postings); a table without a status column has none
NOT_FAILED = ~pc.field("status").isin(["failed"])
# the DOCS_SCHEMA columns an engine keeps in memory (SearchEngine._doc_values)
# and the only ones a doc_rows `where` may name: all but the per-doc text
VALUE_COLUMNS = tuple(f.name for f in DOCS_SCHEMA
                      if f.name not in ("text", "terms", "term_positions"))
_NO_VALUES = pa.schema([DOCS_SCHEMA.field(c) for c in VALUE_COLUMNS]
                       ).empty_table()


def _select_topk(ids: np.ndarray, acc: np.ndarray, k: int,
                 dead: np.ndarray | None = None) -> list[tuple[int, float]]:
    """The k best (doc_id, score) rows by (-score, doc_id), tombstoned ids
    (`dead`) dropped first. Exact under ties: every id scoring >= the kth
    value survives the partition, so a tie at the cut-off breaks by doc_id."""
    if k <= 0:
        return []
    if dead is not None:
        alive = ~np.isin(ids, dead)
        ids, acc = ids[alive], acc[alive]
    if ids.size > k:
        kth = np.partition(acc, ids.size - k)[ids.size - k]
        sel = np.flatnonzero(acc >= kth)
        ids, acc = ids[sel], acc[sel]
    order = np.lexsort((ids, -acc))[:k]
    return [(int(ids[i]), float(acc[i])) for i in order]


def _contributions(loaded) -> tuple[np.ndarray, np.ndarray]:
    """(doc ids, contributions) of every posting of (term, w, idf, segments)
    rows, in sorted-term then salt order. w * (idf * tfn) is the kernel's
    operation order and the one contribution expression every scorer sums."""
    ids, contrib = [], []
    for _t, w, idf_t, segs in loaded:
        for s in segs:
            ids.append(s.doc_ids)
            contrib.append(w * (idf_t * s.tfn))
    return np.concatenate(ids), np.concatenate(contrib)


def match_topk(engine, words: list[list[str]], k: int, strategy: str,
               backfill: bool = False) -> list[tuple[int, float]]:
    """Meilisearch matching strategies (search_executor.py:731-753) over
    BM25. `words` holds one group per query word: the word, then the typo
    derivations it also matches (a doc matches the word through any of
    them).

    "any" — plain OR over every term; "all" — every word required;
    "last" (Meilisearch default) — require every word, then drop words
    from the END until something matches; "frequency" (v1.5+) — drop the
    word matching the MOST live docs first (the least informative one). A
    word matching no live doc can never satisfy the conjunction, so it
    drops first; ties drop the later position. Hits are OR BM25 over the
    surviving words' terms, restricted to their conjunction.

    backfill=False stops at the first non-empty conjunction (the repo's
    long-standing approximation, pinned by the oracle surface).
    backfill=True reproduces Meilisearch's full relaxation: keep dropping
    words and ACCUMULATE lower buckets until k hits — docs matching more
    words always rank above docs matching fewer (the "words" ranking
    rule), ties within a bucket by BM25.

    A module function, not an engine method, so every call it makes goes
    through the engine object it is given (a wrapper sees each one)."""
    if strategy == "any":
        return engine.score_topk([t for g in words for t in g], k=k)
    single = all(len(g) == 1 for g in words)
    docs: dict[int, np.ndarray] = {}  # per-word live doc ids, on demand

    def word_docs(i: int) -> np.ndarray:
        if i not in docs:
            docs[i] = engine.word_docs(words[i])
        return docs[i]

    def conjunction(live: list[int], n: int) -> list[tuple[int, float]]:
        if single:  # the conjunction IS match="all" over the words
            return engine.score_topk([words[i][0] for i in live], k=n,
                                     match="all")
        conj = word_docs(live[0])
        for i in live[1:]:
            conj = np.intersect1d(conj, word_docs(i), assume_unique=True)
        if not conj.size:
            return []
        # two words sharing a typo derivation must not double-weight it
        terms = list(dict.fromkeys(t for i in live for t in words[i]))
        return engine.score_docs_topk(terms, conj, n)

    live = list(range(len(words)))
    out: list[tuple[int, float]] = []
    while live and len(out) < k:
        taken = {d for d, _ in out}
        out += [h for h in conjunction(live, k + len(out))
                if h[0] not in taken]
        if strategy == "all" or (out and not backfill):
            break
        if strategy == "frequency":
            sizes = [word_docs(i).size for i in live]
            live.pop(max(range(len(live)),
                         key=lambda j: (sizes[j] == 0, sizes[j], j)))
        else:
            live.pop()
    return out[:k]


def min_window_costs(parts: list[tuple[np.ndarray, np.ndarray]],
                     n: int) -> np.ndarray:
    """int64[n] proximity costs over doc_term_positions CSR pairs (counts,
    flat), one per term, over the same `n` rows: the minimal token window
    covering one occurrence of every term the row holds, minus the number
    it holds (0 = an adjacent packing; terms sharing a position go below
    0); 0 for rows holding fewer than two.

    One pass over every occurrence in (row, position) order: the window
    ending at a point starts at the smallest of the held terms' last-seen
    positions (np.maximum.accumulate of occurrence indexes, void before
    the row's start). O(terms x occurrences), no per-row Python."""
    cost = np.zeros(n, np.int64)
    held = sum((c > 0 for c, _ in parts), np.zeros(n, np.int64))
    if not (held >= 2).any():
        return cost
    per_row = sum(c for c, _ in parts)
    pos = np.concatenate([f for _, f in parts])
    term = np.repeat(np.arange(len(parts)), [f.size for _, f in parts])
    order = np.lexsort((pos, np.concatenate(
        [np.repeat(np.arange(n), c) for c, _ in parts])))
    pos, term = pos[order], term[order]
    row_start = np.cumsum(per_row) - per_row
    first = np.repeat(row_start, per_row)  # each point's row start
    idx = np.arange(pos.size)
    start = pos.copy()  # smallest last-seen position over held terms
    complete = np.ones(pos.size, bool)  # every held term seen yet
    for t, (c, _) in enumerate(parts):
        last = np.maximum.accumulate(np.where(term == t, idx, -1))
        seen = last >= first
        complete &= seen | (np.repeat(c, per_row) == 0)
        start = np.where(seen, np.minimum(start, pos[last]), start)
    window = np.where(complete, pos - start + 1, np.iinfo(np.int64).max)
    rows = np.flatnonzero(per_row)
    best = np.minimum.reduceat(window, row_start[rows])
    multi = held[rows] >= 2
    cost[rows[multi]] = best[multi] - held[rows[multi]]
    return cost


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the slices [starts[i], starts[i] + counts[i]),
    concatenated in order (int64 arrays)."""
    ends = np.cumsum(counts)
    return (np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
            + np.repeat(starts - (ends - counts), counts))


def phrase_rows(gathered: dict[str, tuple[np.ndarray, np.ndarray]],
                seq: list[str], n: int) -> np.ndarray:
    """Per-row flags over a doc_term_positions gather of `n` docs: True
    where `seq` occurs at consecutive token positions, in order.

    Each occurrence of slot j's term becomes the key row * width + (pos - j
    + 1), width = max_pos + 2, so a row's keys never reach the next row's;
    the phrase matches exactly where the key sets of ALL slots intersect.
    Slot j cannot occur before position j: such occurrences have no valid
    alignment start and are dropped. Raises ValueError when n * width
    would overflow int64 keys."""
    max_pos = max((int(gathered[t][1].max()) for t in seq
                   if gathered[t][1].size), default=0)
    width = max_pos + 2
    if n * width >= 1 << 63:
        raise ValueError(f"phrase keys overflow int64: {n} docs with "
                         f"positions up to {max_pos}")
    rows = np.arange(n, dtype=np.int64)
    keys = None
    for j, t in enumerate(seq):
        counts, flat = gathered[t]
        ok = flat >= j
        kj = np.repeat(rows, counts)[ok] * width + (flat[ok] - j + 1)
        keys = (kj if keys is None
                else np.intersect1d(keys, kj, assume_unique=True))
        if not keys.size:
            break
    mask = np.zeros(n, dtype=bool)
    mask[keys // width] = True
    return mask


class _Segment:
    __slots__ = ("doc_ids", "tfn", "max_tfn", "n",
                 "tfs", "pos_bin", "pos_flat", "pos_offsets")

    def __init__(self, doc_ids, tfn, tfs=None, pos_bin=b""):
        self.doc_ids = doc_ids
        self.tfn = tfn
        # MaxScore's per-term upper bound, from the tfn as decoded (shadow
        # filtering and avgdl overrides included)
        self.max_tfn = float(tfn.max()) if len(tfn) else 0.0
        self.n = len(doc_ids)
        self.tfs = tfs
        self.pos_bin = pos_bin  # raw; decoded lazily on first phrase access
        self.pos_flat = None
        self.pos_offsets = None

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat positions, per-posting start offsets): posting i's
        ascending positions are flat[offsets[i]:offsets[i] + tfs[i]].
        Decoded on first access (shadow filtering decodes up front).
        Raises ValueError when the index stores no positions."""
        if self.pos_flat is None:
            if not self.pos_bin:
                raise ValueError("index was built without "
                                 "store_positions=True")
            from .codec import decode_positions

            self.pos_flat, self.pos_offsets = decode_positions(
                self.pos_bin, self.tfs
            )
        return self.pos_flat, self.pos_offsets


class SearchEngine:
    """Loads a built index directory; serves BM25 top-k.

    Per-shard lazy loading with an LRU-ish cache — at cluster scale one engine
    instance per index-server actor holds only the shards routed to it.
    """

    def __init__(self, index_dir: str, config: EngineConfig | None = None,
                 tokenizer: DocumentTokenizer | None = None,
                 salts: set[int] | None = None,
                 avgdl_override: float | None = None,
                 n_docs_override: int | None = None,
                 shadow: "np.ndarray | None" = None):
        with open(os.path.join(index_dir, "meta.json")) as f:
            self.meta = json.load(f)
        check_index_format(self.meta, index_dir)
        # salts != None restricts this engine to a doc partition (salt =
        # doc_id % num_salts): local df is then PARTIAL — scorers must be
        # called with dfs= holding the globally-summed dfs
        self._salts = salts
        # generational serving (index/incremental.py): shadow = doc_ids
        # superseded by a NEWER generation (filtered out of every segment at
        # decode time), avgdl/n_docs overridden with the COMBINED corpus
        # stats (tfn is computed at load, so overriding avgdl rescales
        # exactly)
        self._shadow = (
            np.asarray(shadow, dtype=np.uint64) if shadow is not None
            and len(shadow) else None
        )
        self.index_dir = index_dir
        self.k1 = self.meta["k1"]
        self.b = self.meta["b"]
        self.avgdl = (
            avgdl_override if avgdl_override is not None else self.meta["avgdl"]
        )
        self.n_docs = (
            n_docs_override if n_docs_override is not None else self.meta["n_docs"]
        )
        self.num_shards = self.meta["num_shards"]
        self._shard_cache: dict[int, dict[str, list]] = {}
        self._seg_cache: dict[str, list] = {}  # decoded segments per term
        self._ordinals: dict[int, tuple] = {}  # salt -> (ids, dl), lazily
        from .maintenance import load_tombstones

        self._dead: set[int] = load_tombstones(index_dir)
        self._dead_arr = (
            np.fromiter(self._dead, dtype=np.uint64) if self._dead else None
        )
        self._config = config or EngineConfig(
            num_shards=self.num_shards,
            # restore persisted tokenizer settings (settings sink): queries
            # must tokenize the way the corpus was indexed
            separator_tokens=tuple(self.meta.get("separator_tokens", ())),
            non_separator_tokens=tuple(
                self.meta.get("non_separator_tokens", ())),
        )
        self._tokenizer = tokenizer  # built lazily (trie cost)
        self._typo = None  # (hashes, rows, terms, dfs), read once
        self._values = None  # (doc-value table, its ids), read once

    # ------------- loading -------------

    def _shard_tables(self, shard: int):
        d = os.path.join(self.index_dir, "shards", f"shard={shard:05d}")
        if not os.path.isdir(d):
            return []
        files = [f for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
        if self._salts is not None:
            # doc-partitioned serving: this engine owns only these salt files
            # (salt = doc_id % num_salts, so each salt is a doc partition)
            files = [
                f for f in files
                if int(f.split("-")[1].split(".")[0]) in self._salts
            ]
        return [os.path.join(d, f) for f in files]

    def _load_shard(self, shard: int) -> dict[str, list]:
        cached = self._shard_cache.get(shard)
        if cached is not None:
            return cached
        terms: dict[str, list] = {}
        names = ["term", "n_docs", "docs_bin", "tfs_bin", "pos_bin", "salt"]
        for path in self._shard_tables(shard):
            t = pq.read_table(path, columns=names)
            for term, *raw in zip(*(t[c].to_pylist() for c in names)):
                terms.setdefault(term, []).append(tuple(raw))
        if len(self._shard_cache) > SHARD_CACHE_CAP:
            self._shard_cache.clear()
        self._shard_cache[shard] = terms
        return terms

    def segments(self, term: str) -> list[_Segment]:
        from ..functions.hashing import fnv1a64

        cached = self._seg_cache.get(term)
        if cached is not None:
            return cached
        shard = fnv1a64(term) % self.num_shards
        raw = self._load_shard(shard).get(term)
        if not raw:
            self._seg_cache[term] = []
            return []
        segs = []
        for n_docs, docs_bin, tfs_bin, pos_bin, salt in raw:
            if salt not in self._ordinals:
                self._ordinals[salt] = load_ordinals(self.index_dir, salt)
            doc_ids, tfs, dls = decode_segment(docs_bin, tfs_bin, n_docs,
                                               self._ordinals[salt])
            keep = None
            if self._shadow is not None:
                keep = ~np.isin(doc_ids, self._shadow)
                if not keep.any():
                    continue
                if keep.all():
                    keep = None
            pos_flat = pos_offsets = None
            if keep is not None and pos_bin:
                # positions decode by tf offsets: filtering tfs would misalign
                # the varint stream, so decode BEFORE filtering, then slice
                from .codec import decode_positions

                flat, offs = decode_positions(pos_bin, tfs)
                kc = tfs[keep].astype(np.int64)
                pos_flat = flat[_ragged(offs[keep], kc)]
                pos_offsets = np.cumsum(kc) - kc
                pos_bin = b""
            if keep is not None:
                doc_ids, tfs, dls = doc_ids[keep], tfs[keep], dls[keep]
            tfn = tfn_scores(tfs, dls, self.avgdl, self.k1, self.b)
            seg = _Segment(doc_ids, tfn, tfs=tfs, pos_bin=pos_bin)
            if pos_flat is not None:
                seg.pos_flat, seg.pos_offsets = pos_flat, pos_offsets
            segs.append(seg)
        if len(self._seg_cache) > 100_000:
            self._seg_cache.clear()
        self._seg_cache[term] = segs
        return segs

    def df(self, term: str) -> int:
        return sum(s.n for s in self.segments(term))

    # ------------- query tokenization -------------

    @property
    def tokenizer(self) -> DocumentTokenizer:
        if self._tokenizer is None:
            self._tokenizer = DocumentTokenizer(self._config)
        return self._tokenizer

    def query_terms(self, query: str) -> list[str]:
        tok = self.tokenizer
        return tok.index_terms(tok.tokenize(query))

    # ------------- scoring -------------

    def _weighted(self, terms: list[str], dfs: dict[str, int] | None = None
                  ) -> list[tuple[str, float, float, list[_Segment]]]:
        """(term, weight, idf, segments) rows for the terms with postings
        here, sorted by term (the accumulation order float identity rests
        on); duplicates in `terms` are weights. idf comes from `dfs` when
        given — the corpus-wide dfs a salt-restricted engine must score
        with, its own being partial — else from this engine's postings."""
        weights = Counter(terms)
        rows = []
        for t in sorted(weights):
            segs = self.segments(t)
            if segs:
                df = dfs[t] if dfs is not None else sum(s.n for s in segs)
                rows.append((t, float(weights[t]), _idf(self.n_docs, df), segs))
        return rows

    def score_topk(self, terms: list[str], k: int = 10,
                   match: str = "any", dfs: dict[str, int] | None = None
                   ) -> list[tuple[int, float]]:
        """terms: raw query term list (duplicates = weights). -> [(doc_id, score)]
        sorted by (-score, doc_id).

        The one BM25 top-k entry. match="all" runs the exhaustive scorer;
        more than 100k postings over more than one term runs MaxScore
        (_score_maxscore: a doc found only in the common terms' postings
        is never scored once the rare terms bound it out of the top k),
        which itself falls back to exhaustive when its bounds prune no
        term; everything else runs exhaustive, the faster one on small
        posting sets. Both return identical results (asserted in tests).

        match: "any" (OR, default BM25) or "all" (docs must contain every query
        term — Meilisearch matchingStrategy="all", search_executor.py:731-753;
        a term absent from this engine's postings leaves no "all" match).
        dfs: corpus-wide dfs for a salt-restricted engine (see _weighted)."""
        if k <= 0:
            return []
        loaded = self._weighted(terms, dfs)
        if not loaded or (match == "all" and len(loaded) < len(set(terms))):
            return []
        if match == "all":
            # MaxScore's bounds are OR bounds; AND filters post-hoc
            return self._score_exhaustive(loaded, k,
                                          require_all_terms=len(loaded))
        if (len(loaded) > 1
                and sum(s.n for row in loaded for s in row[3]) > 100_000):
            return self._score_maxscore(loaded, k)
        return self._score_exhaustive(loaded, k)

    def local_dfs(self, terms: list[str]) -> dict[str, int]:
        """Per-term df within this engine's (possibly salt-restricted) data."""
        return {t: df for t in terms if (df := self.df(t)) > 0}

    def score_topk_prefix(self, terms: list[str], k: int = 10,
                          max_expansions: int = 10
                          ) -> list[tuple[int, float]]:
        """Search-as-you-type: the LAST term matches as a PREFIX
        (Meilisearch's implicit last-word prefix search while the user is
        still typing). Completions come from the sorted term dictionary,
        df-ranked and capped at max_expansions (ties break by term — the
        same deterministic cap the SQL oracle states). The expansion group
        scores as ONE pseudo-term: each doc takes the MAX BM25 contribution
        among its matching completions (no double counting when a doc
        completes the prefix two ways), each completion keeping its own
        idf; head terms score normally (OR semantics). Falls back to plain
        score_topk when no dictionary is built."""
        if not terms:
            return []
        *head, last = terms
        pref = self._termdict_prefix(last)
        if pref is None:
            return self.score_topk(terms, k=k)
        pref.sort()  # [(-df, term)] -> df desc, term asc
        loaded = self._weighted(head)
        # distinct completions, so every group row has weight 1.0
        group = self._weighted([t for _negdf, t in pref[:max_expansions]])
        if not loaded and not group:
            return []
        # head sums plus the per-doc MAX over the expansion group
        parts = []
        if loaded:
            head_ids, _inv, head_acc = self._accumulate(loaded)
            parts.append((head_ids, head_acc))
        if group:
            g_ids, g_contrib = _contributions(group)
            grp_ids, ginv = np.unique(g_ids, return_inverse=True)
            grp_max = np.full(grp_ids.size, -np.inf, dtype=np.float64)
            np.maximum.at(grp_max, ginv, g_contrib)
            parts.append((grp_ids, grp_max))
        uniq = np.unique(np.concatenate([ids for ids, _ in parts]))
        acc = np.zeros(uniq.size, dtype=np.float64)
        for ids, part in parts:
            acc[np.searchsorted(uniq, ids)] += part
        return _select_topk(uniq, acc, k, self._dead_arr)

    def search_matching(self, query: str, k: int = 10,
                        strategy: str = "last",
                        backfill: bool = False) -> list[tuple[int, float]]:
        """Meilisearch matching strategies (see match_topk) over the query's
        terms, each term one word."""
        return match_topk(self, [[t] for t in self.query_terms(query)], k,
                          strategy, backfill)

    def word_docs(self, terms: list[str]) -> np.ndarray:
        """Sorted live doc ids holding any of `terms` (one query word and
        the typo derivations it also matches)."""
        ids = np.unique(np.concatenate(
            [s.doc_ids for t in terms for s in self.segments(t)]
            or [np.empty(0, np.uint64)]))
        if self._dead_arr is not None:
            ids = ids[~np.isin(ids, self._dead_arr)]
        return ids

    def score_docs_topk(self, terms: list[str], doc_ids, k: int,
                        dfs: dict[str, int] | None = None
                        ) -> list[tuple[int, float]]:
        """OR-BM25 top-k of `terms` (duplicates = weights) restricted to
        `doc_ids`, tombstones dropped. Each doc's score equals its
        score_topk score (same contributions, same order)."""
        ids = np.unique(np.asarray(doc_ids, np.uint64))
        return _select_topk(ids, self._score_docs(self._weighted(terms, dfs),
                                                  ids), k, self._dead_arr)

    @staticmethod
    def _accumulate(loaded) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc ids, inverse, sums): every posting of the rows summed per
        doc. np.add.at adds in array order == sorted-term order per doc."""
        ids, contrib = _contributions(loaded)
        uniq, inv = np.unique(ids, return_inverse=True)
        acc = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(acc, inv, contrib)
        return uniq, inv, acc

    @staticmethod
    def _score_docs(loaded, ids: np.ndarray) -> np.ndarray:
        """Per-doc sums for sorted uint64 `ids`, gathered per segment by
        searchsorted in _accumulate's order (an int64 array would search
        the uint64 postings as float64 and miss ids that round to a
        neighbour)."""
        acc = np.zeros(ids.size, np.float64)
        for _t, w, idf_t, segs in loaded:
            for seg in segs:
                pos = np.searchsorted(seg.doc_ids, ids)
                pos_c = np.minimum(pos, seg.n - 1)
                hit = (pos < seg.n) & (seg.doc_ids[pos_c] == ids)
                acc[hit] += w * (idf_t * seg.tfn[pos_c[hit]])
        return acc

    def _score_exhaustive(self, loaded, k: int, *,
                          require_all_terms: int | None = None
                          ) -> list[tuple[int, float]]:
        uniq, inv, acc = self._accumulate(loaded)
        if require_all_terms is not None:
            # matchingStrategy="all": keep only docs matched by EVERY query
            # term (per-term doc sets are salt-disjoint, so one posting per
            # term per doc => counting postings counts terms)
            keep = np.bincount(inv, minlength=uniq.size) == require_all_terms
            uniq, acc = uniq[keep], acc[keep]
        return _select_topk(uniq, acc, k, self._dead_arr)

    def _score_maxscore(self, loaded, k: int) -> list[tuple[int, float]]:
        """Vectorized MaxScore (Turtle & Flood) — the measured scale path.

        1. θ0: a valid LOWER bound on the final kth-best score, from exact
           partial scores over the rarest terms (any doc subset's partial
           scores lower-bound their final scores, so the kth best partial
           lower-bounds the final kth best).
        2. Essential split: sort terms by upper bound (w·(idf·max tfn))
           ascending; the maximal prefix whose ub-sum ≤ θ0 is non-essential —
           a doc appearing ONLY in those terms can never reach the top k.
        3. Candidates = union of essential terms' postings; exact scores are
           gathered by _score_docs (sorted-term order ⇒ bit-identical to the
           exhaustive path, asserted in tests).

        Everything is numpy batch ops — no per-document python loop."""
        dfs = np.array([sum(s.n for s in segs) for *_x, segs in loaded],
                       dtype=np.int64)
        ubs = np.array(
            [w * (idf_t * max(s.max_tfn for s in segs))
             for _t, w, idf_t, segs in loaded],
            dtype=np.float64,
        )
        # --- θ0 from the cheapest covering subset of rare terms ---
        by_df = np.argsort(dfs, kind="stable")
        subset = []
        covered = 0
        for i in by_df:
            subset.append(int(i))
            covered += int(dfs[i])
            if covered >= k:
                break
        theta0 = 0.0
        sub_hits = self._score_exhaustive([loaded[i] for i in sorted(subset)], k)
        if len(subset) == len(loaded):
            return sub_hits  # the subset is every term: its top-k is exact
        if len(sub_hits) >= k:
            theta0 = sub_hits[-1][1]
        # --- essential split by ascending ub ---
        by_ub = np.argsort(ubs, kind="stable")
        cum = 0.0
        non_essential: set[int] = set()
        for i in by_ub:
            # STRICT <: a doc at exactly θ0 may still enter top-k on the
            # doc_id tie-break, so it must never be pruned
            if cum + ubs[i] < theta0:
                cum += ubs[i]
                non_essential.add(int(i))
            else:
                break
        if not non_essential:
            # θ0 pruned nothing: the gather path would only add overhead —
            # degrade to the plain vectorized exhaustive scorer
            return self._score_exhaustive(loaded, k)
        essential = [i for i in range(len(loaded)) if i not in non_essential]
        cand = np.unique(np.concatenate(
            [s.doc_ids for i in essential for s in loaded[i][3]]
        ))
        return _select_topk(cand, self._score_docs(loaded, cand), k,
                            self._dead_arr)

    # ------------- positional phrase search -------------

    @property
    def has_positions(self) -> bool:
        return bool(self.meta.get("store_positions"))

    def doc_term_positions(self, doc_ids, terms: list[str]
                           ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """{term: (counts, flat)} — the one reader of positions. For each
        distinct term, a CSR view aligned row for row to `doc_ids` (uint64,
        taken in the given order; callers pass them sorted or in hit
        order): counts[i] = the term's occurrence count in doc i, 0 when
        the doc lacks it, and flat = every row's ascending positions
        (int64), concatenated in row order.

        One ragged gather per segment: a searchsorted of all ids, then the
        hits' position slices in one fancy index. Salt segments (and
        shadow-filtered generations) are doc-disjoint, so at most one
        segment fills a row. Raises ValueError when a hit segment stores
        no positions."""
        ids = np.asarray(doc_ids, dtype=np.uint64)
        out = {}
        for t in dict.fromkeys(terms):
            counts = np.zeros(ids.size, np.int64)
            hits = []
            for seg in self.segments(t):
                idx = np.minimum(np.searchsorted(seg.doc_ids, ids), seg.n - 1)
                rows = np.flatnonzero(seg.doc_ids[idx] == ids)
                if rows.size:
                    counts[rows] = seg.tfs[idx[rows]]
                    hits.append((rows, idx[rows], seg))
            flat = np.empty(int(counts.sum()), np.int64)
            starts = np.cumsum(counts) - counts
            for rows, sidx, seg in hits:
                pos_flat, pos_offsets = seg.positions()
                flat[_ragged(starts[rows], counts[rows])] = pos_flat[
                    _ragged(pos_offsets[sidx], counts[rows])]
            out[t] = (counts, flat)
        return out

    def phrase_topk(self, phrase: str, k: int = 10,
                    dfs: dict[str, int] | None = None
                    ) -> list[tuple[int, float]]:
        """True token-adjacency phrase search over the positional index
        (Meilisearch-style quoted-phrase semantics): docs where the phrase's
        primary terms occur at CONSECUTIVE token positions, BM25-ranked.

        Needs store_positions=True at build time. Cost: one posting
        intersection (the AND set) + one position gather over its docs —
        no document text is touched, unlike the substring-verify fallback
        in the proxy. dfs: as in score_topk."""
        seq, docs = self.phrase_docs(phrase)
        if len(seq) == 1:
            return self.score_topk(seq, k=k, match="all", dfs=dfs)
        return self.score_docs_topk(seq, docs, k, dfs=dfs) if docs else []

    def phrase_docs(self, phrase: str) -> tuple[list[str], list[int]]:
        """(primary term sequence, docs of this engine where it occurs at
        consecutive token positions); a phrase of fewer than two terms
        needs no position check and gets no docs. Raises ValueError on an
        index built without positions."""
        if not self.has_positions:
            raise ValueError(
                "index was built without store_positions=True; use the "
                "proxy's substring-verify phrase path instead"
            )
        seq = self.phrase_seq(phrase)
        return seq, self.phrase_match_docs(seq) if len(seq) > 1 else []

    def phrase_seq(self, phrase: str) -> list[str]:
        """The phrase's primary term per token position (compound sub-terms
        share their token's position; the primary one defines adjacency)."""
        tok = self.tokenizer
        terms, tpos = tok.index_terms_with_positions(tok.tokenize(phrase))
        seq: list[str] = []
        seen_pos: set[int] = set()
        for t, p in zip(terms, tpos):
            if p not in seen_pos:
                seen_pos.add(p)
                seq.append(t)
        return seq

    def phrase_match_docs(self, seq: list[str]) -> list[int]:
        """Docs (within this engine's possibly salt-restricted partition)
        where `seq` occurs at consecutive token positions, sorted:
        posting-AND intersection, then one position gather over the
        candidates checked by phrase_rows. No scoring: phrase_topk scores
        these docs, and the proxy's phrase restriction keeps them."""
        uniq_terms = sorted(set(seq))
        doc_sets = []
        for t in uniq_terms:
            segs = self.segments(t)
            if not segs:
                return []
            doc_sets.append(np.concatenate([s.doc_ids for s in segs]))
        doc_sets.sort(key=len)  # intersect smallest-first
        cand = np.sort(doc_sets[0])
        for ds_ in doc_sets[1:]:
            cand = np.intersect1d(cand, ds_, assume_unique=True)
            if cand.size == 0:
                return []
        gathered = self.doc_term_positions(cand, seq)
        return [int(d) for d in cand[phrase_rows(gathered, seq, cand.size)]]

    def proximity_topk(self, terms: list[str], k: int = 10,
                       pool: int | None = None,
                       dfs: dict[str, int] | None = None
                       ) -> list[tuple[int, int, float]]:
        """Meilisearch 'proximity' ranking rule over the positional index:
        AND-matching docs bucketed by the MINIMAL token window covering one
        occurrence of every query term, BM25-ranked within buckets. Returns
        [(doc_id, proximity_cost, bm25)] where cost = min_window - n_terms
        (0 = some occurrence of every term packs into adjacent tokens);
        ties break by BM25 desc, doc_id asc.

        Cost: one posting intersection (score_topk pool), one position
        gather over the pool, then min_window_costs over every candidate
        in one vectorized pass — document text is never read. Needs
        store_positions=True (ranking_rules 'proximity' in Meilisearch is
        index-default; the reference delegates it to Meilisearch
        wholesale). dfs: as in score_topk."""
        if not self.has_positions:
            raise ValueError(
                "index was built without store_positions=True; proximity "
                "ranking needs positional postings")
        uniq = list(dict.fromkeys(terms))
        if not uniq:
            return []
        cand = self.score_topk(uniq, k=pool or max(10 * k, 100),
                               match="all", dfs=dfs)
        if len(uniq) == 1:
            return [(d, 0, s) for d, s in cand[:k]]
        gathered = self.doc_term_positions([d for d, _ in cand], uniq)
        costs = min_window_costs(list(gathered.values()), len(cand)).tolist()
        out = [(d, c, score) for (d, score), c in zip(cand, costs)]
        out.sort(key=lambda x: (x[1], -x[2], x[0]))
        return out[:k]

    # ------------- doc rows -------------

    def _read_docs(self, doc_ids, columns: list[str], where=None) -> pa.Table:
        """One filtered Parquet read of docs/ (`where` pushed into it), in
        file order, minus the ids a newer generation shadows. A column the
        table lacks reads as null of its DOCS_SCHEMA type (simple_text
        writes only doc_id, terms and token_count)."""
        import pyarrow.dataset as pads

        dset = pads.dataset(os.path.join(self.index_dir, "docs"))
        lacks = [f for f in DOCS_SCHEMA if f.name not in dset.schema.names]
        if lacks:
            dset = dset.replace_schema(pa.schema([*dset.schema, *lacks]))
        flt = [] if where is None else [where]
        if doc_ids is not None:
            flt.append(pc.field("doc_id").isin(doc_ids))
        if self._shadow is not None:
            flt.append(~pc.field("doc_id").isin(self._shadow.astype(np.int64)))
        return dset.to_table(columns=columns, filter=reduce(
            operator.and_, flt) if flt else None)

    def _doc_values(self) -> tuple[pa.Table, np.ndarray]:
        """(table, ids): every VALUE_COLUMNS row of docs/, stable-sorted by
        doc_id (a doc's several rows keep their read order), and its doc ids
        as uint64. Read once, on the first doc_rows call that needs no text
        — never at open or warm(), so an engine that reads no doc rows
        holds none."""
        if self._values is None:
            t = self._read_docs(None, list(VALUE_COLUMNS))
            ids = t["doc_id"].to_numpy().astype(np.uint64)
            order = np.argsort(ids, kind="stable")
            self._values = (t.take(order).combine_chunks(), ids[order])
        return self._values

    def doc_rows(self, doc_ids, columns: list[str], where=None) -> pa.Table:
        """`columns` of this index's docs rows for `doc_ids` (None = every
        doc; unknown ids match nothing, a repeated id counts once), minus
        the ids a newer generation shadows, keeping the rows the pyarrow
        expression `where` passes: the one query-side reader of docs/.
        Rows come back in doc-id order, across generations as within each;
        a doc's several rows keep generation then file order.

        Columns in VALUE_COLUMNS come from the in-memory doc-value table
        (_doc_values): a searchsorted per id, then Table.filter. Any other
        column (text, terms, term_positions) is one Parquet read. `where`
        may name only VALUE_COLUMNS, as Meilisearch filters only its
        filterable attributes; naming another raises ValueError. A column
        the docs table lacks reads as null, so `where` sees null there."""
        if where is not None:
            try:
                _NO_VALUES.filter(where)
            except pa.ArrowInvalid as e:
                raise ValueError(f"`where` names a column that is not "
                                 f"filterable; filterable: "
                                 f"{list(VALUE_COLUMNS)} ({e})") from e
        if not set(columns) <= set(VALUE_COLUMNS):
            t = self._read_docs(doc_ids, list(dict.fromkeys(
                ["doc_id", *columns])), where)
            ids = t["doc_id"].to_numpy().astype(np.uint64)
            return t.take(np.argsort(ids, kind="stable")).select(columns)
        t, ids = self._doc_values()
        if doc_ids is not None:
            q = np.unique(np.asarray(doc_ids, np.uint64))
            lo = np.searchsorted(ids, q, "left")
            t = t.take(_ragged(lo, np.searchsorted(ids, q, "right") - lo))
        if where is not None:
            t = t.filter(where)
        return t.select(columns)

    def doc_values(self, doc_ids, columns: list[str]) -> list[np.ndarray]:
        """Integer `columns` as int64 arrays aligned to `doc_ids`, gathered
        from the doc-value table; 0 where a doc has no row or a null value
        (a pre-v5 table's title_tc: every occurrence then counts as
        content). A doc with several rows takes its last one."""
        t, ids = self._doc_values()
        q = np.asarray(doc_ids, np.uint64)
        hi = np.searchsorted(ids, q, "right")
        found = hi > 0
        found[found] = ids[hi[found] - 1] == q[found]
        idx = np.where(found, hi - 1, -1)  # -1: the appended 0
        return [np.append(t[c].fill_null(0).to_numpy(), 0)[idx]
                .astype(np.int64) for c in columns]

    def bm25f_topk(self, terms: list[str], k: int = 10,
                   title_weight: float = 2.0,
                   pool: int | None = None) -> list[tuple[int, float]]:
        """Field-boosted BM25 (simplified BM25F, Robertson & Zaragoza 2009
        §7: the weighted term frequency tf' = tf_content + title_weight *
        tf_title fed through the standard saturation) — the SCORING form of
        the attribute ranking rule: a title occurrence counts title_weight
        times before saturation, so title matches win without hard bucket
        ordering. The field of an occurrence is one position compare
        against the doc's title_tc boundary (needs store_positions=True).

        Rerank shape: candidates come from the plain BM25 top-pool (the
        distributed/pruned path), the field-weighted score recomputes only
        for those k-scale candidates from one position gather + one
        doc_values read (title_tc, token_count) — no second index pass.
        title_weight=1.0 reproduces score_topk's order, and its scores to
        within an ulp or two: the operation order differs (pytest-asserted
        to rtol 1e-6)."""
        if not self.has_positions:
            raise ValueError(
                "index was built without store_positions=True; the field "
                "of an occurrence is a position compare")
        cand = self.score_topk(terms, k=pool or max(10 * k, 100))
        if not cand:
            return []
        ids = [d for d, _ in cand]
        boundary, dl = self.doc_values(ids, ["title_tc", "token_count"])
        knorm = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
        loaded = self._weighted(terms)
        gathered = self.doc_term_positions(ids, [t for t, *_x in loaded])
        s = np.zeros(len(ids), np.float64)
        for t, w, idf_t, _segs in loaded:
            counts, flat = gathered[t]
            m = counts > 0
            rows = np.repeat(np.arange(len(ids)), counts)
            # per-row title occurrence counts (positions before the boundary)
            tf_title = np.bincount(rows, weights=flat < boundary[rows],
                                   minlength=len(ids)).astype(np.int64)
            tfw = (counts - tf_title) + title_weight * tf_title
            s[m] += (w * idf_t * tfw * (self.k1 + 1.0) / (tfw + knorm))[m]
        out = sorted(zip(ids, s.tolist()), key=lambda x: (-x[1], x[0]))
        return out[:k]

    # ------------- prefix expansion -------------

    def warm(self) -> int:
        """Preload every shard's term table (server-startup warm-up; kills the
        first-query latency tail). Returns number of terms loaded."""
        total = 0
        for shard in range(self.num_shards):
            total += len(self._load_shard(shard))
        return total

    def suggest(self, prefix: str, limit: int = 10) -> list[str]:
        """Query suggestions: df-ranked terms completing `prefix`, capped at 10
        (reference K4, src/tokenizer/query_processor.py:175 `[:10]`)."""
        return self.expand_prefix(prefix, limit=min(limit, 10))

    def expand_prefix(self, prefix: str, limit: int = 10) -> list[str]:
        """Terms starting with `prefix`, by descending df then lexicographic
        (Meilisearch matches the LAST query word as a prefix; the proxy can add
        the expansions as extra terms).

        Scale path: the build writes a globally SORTED term dictionary
        (termdict/, 8k-row groups), so the prefix becomes a parquet range
        read — row groups whose [min, max] stats miss the prefix range are
        never touched. Falls back to the full hash-shard scan only for
        pre-dictionary indexes."""
        if not prefix:
            return []
        hits = self._prefix_hits(prefix)
        hits.sort()
        return [t for _, t in hits[:limit]]

    def _prefix_hits(self, prefix: str) -> list[tuple[int, str]]:
        """[(-df, term)] for every indexed term with this prefix — termdict
        range read when available, exhaustive shard scan otherwise (so
        callers merging several engines never silently lose a legacy
        pre-dictionary layout's vocabulary)."""
        hits = self._termdict_prefix(prefix)
        if hits is not None:
            return hits
        cands: list[tuple[int, str]] = []
        for shard in range(self.num_shards):
            for term, segs in self._load_shard(shard).items():
                if term.startswith(prefix):
                    cands.append((-sum(s[0] for s in segs), term))
        return cands

    def _termdict_prefix(self, prefix: str) -> list[tuple[int, str]] | None:
        """Range-read the sorted dictionary -> [(-df, term)]; None if absent.

        Gated on the manifest's 'dict' phase marker, not on file presence: a
        crashed dictionary write leaves files but no marker, and trusting a
        partial dictionary would silently truncate prefix expansion instead
        of falling back to the exhaustive shard scan."""
        from ..state.manifest import BuildManifest

        d = os.path.join(self.index_dir, "termdict")
        if not BuildManifest(self.index_dir).phase_done("dict"):
            return None
        if not os.path.isdir(d) or not any(
            f.endswith(".parquet") for f in os.listdir(d)
        ):
            return None
        import pyarrow.dataset as pads

        # upper bound: bump the last char (standard prefix-range trick);
        # fall back to >=-only when the prefix ends at the max code point
        lo = prefix
        i = len(prefix) - 1
        while i >= 0 and ord(prefix[i]) >= 0x10FFFF:
            i -= 1
        flt = pc.field("term") >= lo
        if i >= 0:
            hi = prefix[:i] + chr(ord(prefix[i]) + 1)
            flt = flt & (pc.field("term") < hi)
        t = pads.dataset(d).to_table(columns=["term", "df"], filter=flt)
        return [
            (-int(df), term)
            for term, df in zip(t["term"].to_pylist(), t["df"].to_pylist())
            if term.startswith(prefix)
        ]

    # ------------- typo tolerance -------------

    def _typo_arrays(self):
        """(hashes, rows, terms, dfs): the SymSpell arrays build_term_dict
        wrote (memory-mapped) and the dictionary's term and df columns they
        index, read once. Gated on the 'dict' phase marker like
        _termdict_prefix; an index without them (the pre-dictionary layout)
        gets the same arrays built in memory from its vocabulary."""
        if self._typo is None:
            from ..state.manifest import BuildManifest

            td = os.path.join(self.index_dir, "typodict")
            if BuildManifest(self.index_dir).phase_done("dict") and \
                    os.path.exists(os.path.join(td, "row.npy")):
                import pyarrow.dataset as pads

                t = pads.dataset(os.path.join(
                    self.index_dir, "termdict")).to_table(
                        columns=["term", "df"])
                self._typo = (
                    np.load(os.path.join(td, "hash.npy"), mmap_mode="r"),
                    np.load(os.path.join(td, "row.npy"), mmap_mode="r"),
                    t["term"].combine_chunks(), t["df"].combine_chunks())
            else:
                from .build import typo_arrays

                hits = self._prefix_hits("")
                terms = [t for _, t in hits]
                self._typo = (*typo_arrays(terms),
                              pa.array(terms, pa.string()),
                              pa.array([-d for d, _ in hits], pa.int64()))
        return self._typo

    def _typo_matches(self, term: str, budget: int, one_typo: int,
                      two_typos: int) -> dict[str, tuple[int, int]]:
        """{candidate: (typos, dictionary df)} for every dictionary term
        other than `term` within its typo budget: the query's deletion
        variants are hashed and looked up with searchsorted, and every term
        a hit row names is verified with exact Damerau-Levenshtein."""
        from ..kernel.typo import deletion_variants, typo_matches, variant_hash

        hashes, rows, terms, dfs = self._typo_arrays()
        q = np.fromiter(map(variant_hash, deletion_variants(term, budget)),
                        dtype=np.uint32)
        lo = np.searchsorted(hashes, q, "left")
        hit = np.unique(rows[_ragged(lo, np.searchsorted(hashes, q, "right")
                                     - lo)])
        out = {}
        for t, df in zip(terms.take(hit).to_pylist(),
                         dfs.take(hit).to_pylist()):
            ty = None if t == term else typo_matches(term, t, one_typo,
                                                     two_typos)
            if ty is not None:
                out[t] = (ty, df)
        return out

    def expand_typo(self, term: str, limit: int = 5, *,
                    one_typo: int | None = None,
                    two_typos: int | None = None) -> list[str]:
        """Typo-tolerant term expansion under Meilisearch's PUBLIC rules
        (kernel/typo.py: 5-8 chars allow 1 typo, >=9 allow 2; adjacent swap
        = 1 typo; first-letter typo counts as 2 — the reference only passes
        `typo_tolerance` options through to Meilisearch,
        query_processor.py:671,693). Candidates come from the SymSpell
        arrays written with the term dictionary (one searchsorted over the
        hashed deletion variants, _typo_matches), each verified with exact
        Damerau-Levenshtein, so the result equals a scan of the whole
        vocabulary (asserted in tests). Ranked (fewest typos, highest df,
        term).

        one_typo / two_typos override Meilisearch's
        typoTolerance.minWordSizeForTypos per request. The arrays hold every
        term's full MAX_TYPOS-deletion neighbourhood and every query budget
        is <= MAX_TYPOS, so the same lookup serves any thresholds."""
        from ..kernel.typo import (ONE_TYPO_MIN_LEN, TWO_TYPO_MIN_LEN,
                                   typo_budget)

        o = ONE_TYPO_MIN_LEN if one_typo is None else one_typo
        tw = TWO_TYPO_MIN_LEN if two_typos is None else two_typos
        b = typo_budget(term, o, tw)
        if b == 0:
            return []
        scored = sorted((ty, -df, t) for t, (ty, df)
                        in self._typo_matches(term, b, o, tw).items())
        return [t for _, _, t in scored[:limit]]

    # ------------- public search -------------

    def search(self, query: str, k: int = 10):
        return self.score_topk(self.query_terms(query), k=k)
