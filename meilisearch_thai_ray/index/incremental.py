"""Incremental document adds: delta generations with newest-wins shadowing.

The reference's primary write API is incremental (POST /api/v1/index-documents
adds/updates docs in a live Meilisearch index, document_processor.py +
client.py upserts). Our immutable-shard engine gets the same capability
WITHOUT rewriting the base index:

  add_documents(index_dir, pages) builds a complete, independently resumable
  DELTA generation under <index>/deltas/gen-NNNN/ using the exact same build
  phases (extract -> stats -> salted shuffle -> shards -> termdict), plus a
  small docset parquet (doc_id, token_count of every successfully ingested
  doc) and an atomic `complete` marker.

  GenerationalEngine searches base + completed generations as ONE corpus:

  * newest wins: a doc_id present in a newer generation SHADOWS every older
    version — older generations' segments are filtered against the (small,
    broadcastable) union of newer docsets at decode time;
  * global stats are exact: N / avgdl are recomputed over live docs (base
    overlap with the delta docsets is measured with one pruned filtered read
    of the base docs table — O(|deltas|), never a base scan), and df comes
    from the already-shadow-filtered segments, so BM25 scores are IDENTICAL
    to a full rebuild of the merged corpus (asserted bit-for-bit in tests);
  * tfn is computed at decode from stored (tf, dl) with the combined avgdl,
    and block metadata is rebuilt from the decoded tfn, so every pruning
    upper bound stays valid after stats shift.

Scale notes: a delta build is a normal distributed build (any size); the
query-side overhead is one np.isin per older-generation segment against the
union of newer docsets — deltas are the small side by construction, and a
compaction (reindex into a new base) is the escape hatch when they stop
being small (maintenance.reindex already drops tombstones; chaining it over
a GenerationalEngine's docs dirs is the compaction path).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from ..state.manifest import atomic_write_parquet
from .search import NOT_FAILED, SearchEngine

DELTAS_SUBDIR = "deltas"


def _gen_dirs(index_dir: str, complete_only: bool = True) -> list[str]:
    d = os.path.join(index_dir, DELTAS_SUBDIR)
    if not os.path.isdir(d):
        return []
    out = []
    for name in sorted(os.listdir(d)):
        if not name.startswith("gen-"):
            continue
        g = os.path.join(d, name)
        if not complete_only or os.path.exists(os.path.join(g, "complete")):
            out.append(g)
    return out


def _base_config(meta: dict) -> EngineConfig:
    kw = {}
    for key in ("k1", "b", "posting_block"):  # honor non-default base builds
        if key in meta:
            kw[key] = meta[key]
    return EngineConfig(
        num_shards=meta["num_shards"],
        store_positions=bool(meta.get("store_positions", False)),
        # tokenizer settings persist with the index (settings sink) and key
        # dictionary_hash — without restoring them here, config=None on a
        # tuned index failed the hash guard below instead of just working
        separator_tokens=tuple(meta.get("separator_tokens", ())),
        non_separator_tokens=tuple(meta.get("non_separator_tokens", ())),
        **kw,
    )


def _pages_fingerprint(pages_path: str) -> str:
    """Cheap identity of a pages source (file names + sizes, no data read):
    guards a resumed generation against silently 'completing' with a
    DIFFERENT corpus than the one the resume call intended to add."""
    import hashlib

    h = hashlib.sha256()
    p = os.path.abspath(pages_path)
    files = (
        sorted(f for f in os.listdir(p) if f.endswith(".parquet"))
        if os.path.isdir(p) else [os.path.basename(p)]
    )
    base = p if os.path.isdir(p) else os.path.dirname(p)
    for f in files:
        h.update(f"{f}:{os.path.getsize(os.path.join(base, f))}\n".encode())
    return h.hexdigest()[:16]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def add_documents(index_dir: str, pages_path: str, *,
                  config: EngineConfig | None = None,
                  batch_size: int = 256) -> str:
    """Ingest a pages parquet as a new delta generation. Returns the
    generation directory. Resumable: re-running after a crash resumes the
    generation's own phased build; the `complete` marker is written last.

    Safety rails on the resume path: an incomplete generation is resumed
    only if (a) no LIVE process holds its lock (a concurrent adder never
    silently co-builds the same directory) and (b) its recorded pages
    source matches this call's — resuming a crashed add of corpus A with
    corpus B would mark A's phases complete and silently never ingest B."""
    from .build import build_index

    with open(os.path.join(index_dir, "meta.json")) as f:
        base_meta = json.load(f)
    cfg = config or _base_config(base_meta)
    if cfg.dictionary_hash() != base_meta["dictionary_hash"]:
        raise ValueError(
            "dictionary changed since the base build — incremental adds "
            "would mix incompatible tokenizations; run a full reindex"
        )
    fp = _pages_fingerprint(pages_path)
    deltas = os.path.join(index_dir, DELTAS_SUBDIR)
    os.makedirs(deltas, exist_ok=True)
    gen_dir = None
    existing = sorted(
        n for n in os.listdir(deltas) if n.startswith("gen-")
    )
    for name in existing:
        g = os.path.join(deltas, name)
        if os.path.exists(os.path.join(g, "complete")):
            continue
        # incomplete generation: resume it only if it is ours to resume
        lock_p = os.path.join(g, "lock")
        try:
            with open(lock_p) as f:
                owner = int(f.read().strip() or 0)
        except (FileNotFoundError, ValueError):
            owner = 0
        if owner and owner != os.getpid() and _pid_alive(owner):
            raise RuntimeError(
                f"delta generation {g} is currently being built by live "
                f"pid {owner}; wait for it or remove its lock if stale"
            )
        src_p = os.path.join(g, "source.json")
        if os.path.exists(src_p):
            with open(src_p) as f:
                src = json.load(f)
            if src.get("fingerprint") != fp:
                raise ValueError(
                    f"incomplete generation {g} was started from a different "
                    f"pages source ({src.get('pages_path')}); re-run with "
                    "that source to finish it, or delete the directory"
                )
        gen_dir = g  # safe to resume the crashed add
        break
    if gen_dir is None:
        n = len(existing)
        while True:
            cand = os.path.join(deltas, f"gen-{n:04d}")
            try:
                os.makedirs(cand)  # exclusive: concurrent adders get distinct gens
                gen_dir = cand
                break
            except FileExistsError:
                n += 1
        with open(os.path.join(gen_dir, "source.json.tmp"), "w") as f:
            json.dump({"pages_path": os.path.abspath(pages_path),
                       "fingerprint": fp}, f)
        os.replace(os.path.join(gen_dir, "source.json.tmp"),
                   os.path.join(gen_dir, "source.json"))
    with open(os.path.join(gen_dir, "lock.tmp"), "w") as f:
        f.write(str(os.getpid()))
    os.replace(os.path.join(gen_dir, "lock.tmp"),
               os.path.join(gen_dir, "lock"))
    build_index(pages_path, gen_dir, cfg,
                num_salts=max(1, int(base_meta.get("num_salts", 1))),
                batch_size=batch_size)
    # docset: the generation's successfully ingested docs (shadow list +
    # live-stats input). Small by construction (one delta's docs).
    t = SearchEngine(gen_dir).doc_rows(None, ["doc_id", "token_count"],
                                       where=NOT_FAILED)
    import polars as pl

    t = (
        pl.from_arrow(t).unique(subset="doc_id", keep="first")
        .sort("doc_id").to_arrow()
    )
    atomic_write_parquet(t, os.path.join(gen_dir, "docset.parquet"))
    with open(os.path.join(gen_dir, "complete.tmp"), "w") as f:
        f.write("ok")
    os.replace(os.path.join(gen_dir, "complete.tmp"),
               os.path.join(gen_dir, "complete"))
    try:
        os.remove(os.path.join(gen_dir, "lock"))
    except FileNotFoundError:
        pass
    return gen_dir


def _read_docset(gen_dir: str) -> pa.Table:
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(gen_dir, "docset.parquet"))


class GenerationalEngine(SearchEngine):
    """SearchEngine over base + delta generations (newest wins).

    Inherits every scoring path (exhaustive / MaxScore / phrase) —
    only segment loading, df, corpus stats and doc rows are
    generational."""

    def __init__(self, index_dir: str, config: EngineConfig | None = None):
        gen_dirs = _gen_dirs(index_dir)
        with open(os.path.join(index_dir, "meta.json")) as f:
            base_meta = json.load(f)
        docsets = [_read_docset(g) for g in gen_dirs]
        ids = [t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
               for t in docsets]
        dls = [t["token_count"].to_numpy(zero_copy_only=False).astype(np.int64)
               for t in docsets]

        # shadow_i = union of NEWER generations' docsets (base = index 0)
        n_levels = len(gen_dirs) + 1
        shadows: list[np.ndarray | None] = []
        for i in range(n_levels):
            newer = ids[i:]  # for base (i=0): every delta; for gen j: deltas after it
            arr = (np.unique(np.concatenate(newer)) if newer else None)
            shadows.append(arr if arr is not None and arr.size else None)

        # exact live stats: start from base meta, subtract the base docs
        # shadowed by deltas (ONE pruned filtered read, bounded by delta
        # size), then add each delta's live (unshadowed) docs
        n_live = int(base_meta["n_docs"])
        sum_dl = int(base_meta["sum_dl"])
        if shadows[0] is not None:
            # a Parquet read: opening builds no doc-value table
            bt = SearchEngine(index_dir)._read_docs(
                shadows[0].tolist(), ["token_count"], where=NOT_FAILED)
            n_live -= bt.num_rows
            sum_dl -= int(pc.sum(bt["token_count"]).as_py() or 0)
        for i in range(len(gen_dirs)):
            sh = shadows[i + 1]
            if sh is None:
                live = np.ones(ids[i].size, dtype=bool)
            else:
                live = ~np.isin(ids[i], sh)
            n_live += int(live.sum())
            sum_dl += int(dls[i][live].sum())
        avgdl = (sum_dl / n_live) if n_live else 0.0

        super().__init__(index_dir, config=config,
                         avgdl_override=avgdl, n_docs_override=n_live,
                         shadow=shadows[0])
        self._gen_engines = [
            SearchEngine(g, config=config, avgdl_override=avgdl,
                         n_docs_override=n_live, shadow=shadows[i + 1])
            for i, g in enumerate(gen_dirs)
        ]
        self.sum_dl = sum_dl

    @property
    def has_positions(self) -> bool:
        metas = [self.meta] + [e.meta for e in self._gen_engines]
        return all(m.get("store_positions") for m in metas)

    def segments(self, term: str):
        segs = list(super().segments(term))  # base (shadow-filtered)
        for eng in self._gen_engines:  # generation order => deterministic
            segs.extend(eng.segments(term))
        return segs

    def _read_docs(self, doc_ids, columns: list[str], where=None) -> pa.Table:
        """The base's rows, then each generation's, oldest first, each
        minus the ids a newer generation shadows: the docs table compact()
        writes, before it drops tombstones. doc_rows, doc_values and the
        doc-value table read through this, so each composes generations."""
        return pa.concat_tables(
            [super()._read_docs(doc_ids, columns, where)]
            + [e._read_docs(doc_ids, columns, where)
               for e in self._gen_engines])

    def warm(self) -> int:
        total = super().warm()
        for eng in self._gen_engines:
            total += eng.warm()
        return total

    def _typo_matches(self, term: str, budget: int, one_typo: int,
                      two_typos: int) -> dict[str, tuple[int, int]]:
        """Every generation's verified candidates (a delta has its own typo
        arrays), each with its live df: the shadow-filtered segments' count,
        as a rebuild of the merged corpus would store it. Summing the
        generations' dictionary dfs would count a re-versioned doc twice."""
        found = super()._typo_matches(term, budget, one_typo, two_typos)
        for eng in self._gen_engines:
            found.update(eng._typo_matches(term, budget, one_typo, two_typos))
        return {t: (ty, df) for t, (ty, _) in found.items()
                if (df := self.df(t))}

    def expand_prefix(self, prefix: str, limit: int = 10) -> list[str]:
        """df-ranked prefix terms across generations (dfs summed; shadowed
        old postings are a negligible over-count for ranking suggestions).
        _prefix_hits falls back to a shard scan per engine, so a legacy
        pre-dictionary base still contributes its vocabulary."""
        if not prefix:
            return []
        merged: dict[str, int] = {}
        for hits in ([super()._prefix_hits(prefix)]
                     + [e._prefix_hits(prefix) for e in self._gen_engines]):
            for negdf, term in hits:
                merged[term] = merged.get(term, 0) - negdf
        cands = sorted((-df, t) for t, df in merged.items())
        return [t for _, t in cands[:limit]]


def compact(index_dir: str, out_dir: str, *,
            num_salts: int | None = None,
            config: EngineConfig | None = None) -> dict:
    """Merge base + completed delta generations + tombstones into a fresh
    single-generation index at out_dir — the incremental escape hatch: when
    deltas stop being small next to the base, compaction restores
    single-index serving cost (and makes N/avgdl/df physically true again).

    Reference analog: Meilisearch's own background compaction of its LMDB
    index after incremental updates (the reference's client only observes
    it; client.py upserts + task polling). Semantics here:

      * newest wins — a doc_id in a newer generation drops every older
        version (same shadowing rule GenerationalEngine applies at decode);
      * tombstones of the base index drop the doc from EVERY generation;
      * stored `terms` are reused (no re-extraction/tokenization, exactly
        like maintenance.reindex), so the dictionary/extractor hashes of the
        source index carry forward into the new meta.json;
      * resumable through the standard phased build manifest; the source
        index is untouched (it is the backup until the caller swaps dirs).

    Serving identity (asserted in tests): with no tombstones the compacted
    index serves bit-identically to GenerationalEngine(index_dir). WITH
    tombstones it serves bit-identically to a REBUILD of the merged corpus
    minus the deleted docs — which differs from the generational view by
    design: live engines keep deletes' stale N/avgdl/df until compaction
    (maintenance.py delete semantics); compaction is precisely the moment
    those stats become physically true again."""
    from ..state.manifest import BuildManifest
    from .build import build_shards, build_term_dict, compute_stats
    from .maintenance import (
        copy_docs_dropping,
        finalize_carried_meta,
        load_tombstones,
    )

    with open(os.path.join(index_dir, "meta.json")) as f:
        base_meta = json.load(f)
    cfg = config or _base_config(base_meta)
    if num_salts is None:
        num_salts = max(1, int(base_meta.get("num_salts", 1)))
    gen_dirs = _gen_dirs(index_dir)
    ids = [
        _read_docset(g)["doc_id"].to_numpy(zero_copy_only=False)
        .astype(np.int64)
        for g in gen_dirs
    ]
    dead = load_tombstones(index_dir)
    dead_arr = (np.fromiter(dead, dtype=np.int64) if dead else None)

    os.makedirs(out_dir, exist_ok=True)
    manifest = BuildManifest(out_dir)
    docs_dst = os.path.join(out_dir, "docs")
    if not manifest.phase_done("docs"):
        # per level: drop the union of NEWER generations' docsets (the same
        # shadow GenerationalEngine applies at decode) plus tombstones
        levels = []
        for lvl, src_dir in enumerate(
            [index_dir] + gen_dirs
        ):
            drops = list(ids[lvl:]) + (
                [dead_arr] if dead_arr is not None else []
            )
            drop = np.unique(np.concatenate(drops)) if drops else None
            levels.append((os.path.join(src_dir, "docs"), drop))
        copy_docs_dropping(levels, docs_dst)
        manifest.mark_phase_done(
            "docs", {"source": index_dir, "generations": len(gen_dirs)}
        )
    meta = compute_stats(docs_dst, out_dir, cfg)
    build_shards(docs_dst, out_dir, cfg, meta, num_salts=num_salts)
    build_term_dict(out_dir)
    return finalize_carried_meta(out_dir, base_meta)
