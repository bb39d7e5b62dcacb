"""Distributed index build: pages parquet -> docs parquet -> sharded inverted index.

Ray-Data-first topology (SURVEY.md §3.1 'Ray shape'):

  phase "docs":   read_parquet(pages, columns=[url, html, lang])
                    -> map_batches(extract_tokenize_fn tasks)    [html dropped here]
                    -> write_parquet(<out>/docs)
  phase "stats":  read docs(token_count) -> count + sum -> meta.json (N, avgdl)
                    [the one true barrier: block-max metadata needs avgdl]
  phase "shards": read docs(doc_id, token_count) -> per-salt ordinal maps
                    (shards/_ordinals/, codec.ordinal_paths)     [build_ordinals]
                  read docs(doc_id, terms)
                    -> map_batches(PostingsFlat)                 [partial agg + salt]
                    -> groupby("part").map_groups(encode)        [the shuffle]
                    -> atomic per-part parquet + manifest lineage row
                  encode = encode_partition: sort the part's postings by
                  (term, doc_id) in polars, map doc ids to their salt's
                  ordinals (lengths for block_max come from the same map
                  rows), then codec.encode_segments writes every term
                  segment in one vectorized pass; index merge (merge.py)
                  calls the same function.

Each phase is skipped on resume when its `.done` marker exists; part files are
written tmp->rename so resumes never trust torn output (state/manifest.py).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..config import EngineConfig
from ..kernel.extract import EXTRACTOR_VERSION
from ..sources.pages import read_pages
from ..state.manifest import (BuildManifest, atomic_save_npy,
                              atomic_write_parquet)
from .codec import (INDEX_FORMAT, check_index_format, encode_segments,
                    load_ordinals, ordinal_paths, to_ordinals, write_ordinals)

SEGMENT_SCHEMA = pa.schema(
    [
        ("shard", pa.int32()),
        ("salt", pa.int32()),
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("n_docs", pa.int64()),
        ("docs_bin", pa.binary()),
        ("tfs_bin", pa.binary()),
        ("block_last", pa.list_(pa.int64())),
        ("block_max", pa.list_(pa.float64())),
        # store_positions=True: varint delta stream of per-occurrence token
        # positions (posting boundaries implied by tf); empty otherwise
        ("pos_bin", pa.binary()),
    ]
)


# the shard columns that get Parquet min/max statistics and dictionary
# encoding; the binary and list columns get neither (a footer would store
# whole posting blobs as their min/max). `term` statistics let a reader
# push a term filter into the read.
SCALAR_COLUMNS = ["shard", "salt", "term", "df", "cf", "n_docs"]

# below this many input bytes the stats and dictionary phases scan in this
# process; above it they run as Ray jobs
RAY_AGG_BYTES = 4 << 30


def write_shard(table: pa.Table, path: str) -> None:
    """Write one salted partition's SEGMENT_SCHEMA table atomically."""
    atomic_write_parquet(table, path, write_statistics=SCALAR_COLUMNS,
                         use_dictionary=SCALAR_COLUMNS)


def encode_partition(df, *, shard: int, salt: int,
                     ordinals: tuple[np.ndarray, np.ndarray], avgdl: float,
                     k1: float, b: float, block: int) -> pa.Table:
    """One partition's postings as a polars frame sorted by (term, doc_id)
    -> its SEGMENT_SCHEMA table, every segment encoded in one pass over
    the doc ids' ordinals in the salt's ordinal map `ordinals` (ids, dl).
    block_max takes each doc's length from the map, as decode does."""
    ids, dl = ordinals
    starts = np.flatnonzero(df["term"].is_first_distinct().to_numpy())
    pos_flat = (df["positions"].explode().to_numpy()
                if "positions" in df.columns else None)
    ords = to_ordinals(ids, df["doc_id"].to_numpy())
    cols = encode_segments(ords, df["tf"].to_numpy(), dl[ords], starts,
                           avgdl, k1, b, block, pos_flat)
    m = starts.size
    return pa.table({
        "shard": np.full(m, shard, np.int32),
        "salt": np.full(m, salt, np.int32),
        "term": df["term"].gather(starts).to_arrow().cast(pa.string()),
        "df": cols["n_docs"],
        **cols,
    }, schema=SEGMENT_SCHEMA)


def _encode_group(group: pa.Table, *, out_dir: str, avgdl: float, k1: float,
                  b: float, block: int, num_salts: int) -> pa.Table:
    """One groupby("part") group: encode salted partition `part` into its
    shard file, written atomically; a finished file is kept, so a resume
    skips it. -> the partition's one-row shards.jsonl summary."""
    import polars as pl

    t0 = time.time()
    part = int(group["part"][0].as_py())
    shard, salt = divmod(part, num_salts)
    path = os.path.join(out_dir, "shards", f"shard={shard:05d}",
                        f"salt-{salt:04d}.parquet")
    row = {"partition": part, "shard": shard, "salt": salt, "n_terms": 0,
           "n_postings": 0, "bytes": 0, "wall_s": 0.0,
           "skipped": os.path.exists(path)}
    if row["skipped"]:  # idempotent resume: atomic file => complete
        return pa.Table.from_pylist([row])
    cols = [c for c in ("term", "doc_id", "tf", "positions")
            if c in group.column_names]
    df = pl.from_arrow(group.select(cols)).sort(["term", "doc_id"])
    out = encode_partition(df, shard=shard, salt=salt,
                           ordinals=load_ordinals(out_dir, salt, "r"),
                           avgdl=avgdl, k1=k1, b=b, block=block)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_shard(out, path)
    row.update(n_terms=out.num_rows, n_postings=df.height,
               bytes=sum(pc.sum(pc.binary_length(out[c])).as_py() or 0
                         for c in ("docs_bin", "tfs_bin", "pos_bin")),
               wall_s=time.time() - t0)
    return pa.Table.from_pylist([row])


def _write_json(path: str, obj: dict, indent: int | None = None) -> None:
    """Write `obj` as JSON to `path` atomically (tmp + rename)."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=indent)
    os.replace(tmp, path)


def _save_stage_stats(ds, out_dir: str, phase: str) -> None:
    """Persist ds.stats() (per-operator wall/cpu/memory breakdown) next to the
    manifest — the observability trail for tuning batch sizes and concurrency."""
    try:
        text = ds.stats()
    except Exception:
        return
    d = os.path.join(out_dir, "_manifest")
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, f"stats_{phase}.txt"), "w") as f:
        f.write(text)


def build_docs(pages_path: str, out_dir: str, config: EngineConfig, *,
               batch_size: int = 256, concurrency=None) -> str:
    """Phase 'docs'. Returns the docs parquet directory.

    Stateless tasks with a per-worker-process tokenizer cache (measured 3x
    faster than an actor pool here — see ExtractTokenize.cached).

    batch_size sizes TASKS, not just UDF batches (map_batches coalesces blocks
    up to batch_size into one task): at ~2.5 ms tokenize per 2 KB doc, 256 docs
    ≈ 0.6 s per task — small enough that every CPU stays fed, large enough
    that task overhead stays <10%."""
    import functools

    docs_dir = os.path.join(out_dir, "docs")
    manifest = BuildManifest(out_dir)
    if manifest.phase_done("docs"):
        return docs_dir
    t0 = time.time()
    if os.path.isdir(docs_dir):  # discard a crashed run's partial files:
        for f in os.listdir(docs_dir):  # re-running write_parquet would
            os.remove(os.path.join(docs_dir, f))  # duplicate every doc row
    from ..stages.extract_tokenize import extract_tokenize_fn

    ds = read_pages(pages_path)
    docs = ds.map_batches(
        functools.partial(extract_tokenize_fn, config=config),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    docs.write_parquet(docs_dir)
    os.makedirs(docs_dir, exist_ok=True)  # zero-row corpus: sink writes nothing
    _save_stage_stats(docs, out_dir, "docs")
    wall = time.time() - t0
    manifest.record_partition(
        "docs",
        {
            "partition": "all",
            "input": pages_path,
            "dictionary_hash": config.dictionary_hash(),
            "extractor_version": EXTRACTOR_VERSION,
            "wall_s": wall,
        },
    )
    manifest.mark_phase_done("docs", {"wall_s": wall})
    return docs_dir


def _live_filter(schema: pa.Schema):
    """The docs-table filter for rows that are not dead letters (status
    "failed": no postings, not counted in N/avgdl, no ordinal); None for
    a table without a status column."""
    return pc.field("status") != "failed" if "status" in schema.names else None


def compute_stats(docs_dir: str, out_dir: str, config: EngineConfig) -> dict:
    """Phase 'stats': N, avgdl -> meta.json (the global barrier, tiny aggregate)."""
    meta_path = os.path.join(out_dir, "meta.json")
    manifest = BuildManifest(out_dir)
    if manifest.phase_done("stats"):
        with open(meta_path) as f:
            return json.load(f)
    t0 = time.time()
    has_files = any(f.endswith(".parquet") for f in os.listdir(docs_dir))
    if not has_files:
        n_docs, sum_dl = 0, 0
    else:
        import pyarrow.dataset as pads

        dset = pads.dataset(docs_dir)
        flt = _live_filter(dset.schema)
        total_bytes = sum(os.path.getsize(f) for f in dset.files)
        if total_bytes < RAY_AGG_BYTES:
            # small docs table: one driver-side streaming column scan beats a
            # whole Ray job's fixed latency (row count comes from file metadata)
            n_docs, sum_dl = 0, 0
            if flt is None:
                for frag in dset.get_fragments():
                    n_docs += frag.count_rows()
            else:
                n_docs = dset.count_rows(filter=flt)
            for batch in dset.to_batches(columns=["token_count"], filter=flt):
                sum_dl += pc.sum(batch.column(0)).as_py() or 0
        else:
            from ray.data.aggregate import Count, Sum

            ds = ray.data.read_parquet(
                docs_dir, columns=["token_count"], filter=flt
            )
            agg = ds.aggregate(Count(alias_name="n"), Sum("token_count", alias_name="s"))
            n_docs = int(agg["n"])
            sum_dl = int(agg["s"] or 0)
    meta = {
        "n_docs": int(n_docs),
        "sum_dl": int(sum_dl),
        "avgdl": (sum_dl / n_docs) if n_docs else 0.0,
        "k1": config.k1,
        "b": config.b,
        "posting_block": config.posting_block,
        "num_shards": config.num_shards,
        "store_positions": config.store_positions,
        "index_format": INDEX_FORMAT,
        "dictionary_hash": config.dictionary_hash(),
        "extractor_version": EXTRACTOR_VERSION,
        # Meilisearch tokenizer settings persist with the index (settings
        # sink): SearchEngine restores them so queries tokenize the way the
        # corpus was indexed (settings_manager.py:117-118)
        "separator_tokens": list(config.separator_tokens),
        "non_separator_tokens": list(config.non_separator_tokens),
    }
    _write_json(meta_path, meta, indent=1)
    manifest.mark_phase_done("stats", {"wall_s": time.time() - t0})
    return meta


def shards_layout(out_dir: str) -> dict | None:
    """The (num_shards, num_salts, dictionary_hash) layout the shards phase
    was/is being built with — recorded BEFORE any salt file is written so a
    resume can detect a layout change."""
    p = os.path.join(out_dir, "_manifest", "shards_layout.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def _guard_shards_layout(out_dir: str, config: EngineConfig,
                         num_salts: int) -> None:
    """Validate/record the shards-phase layout. A crashed build resumed with
    a different num_shards/num_salts would reuse stale salt-NNNN.parquet
    files whose (shard, salt) derivation differs — silently duplicating or
    dropping postings. Mismatched partial output is discarded; a COMPLETED
    phase with a different layout raises (the caller must pick a fresh
    out_dir or match the original layout).

    Then records num_salts in meta.json (written by compute_stats, which
    must run first): the one writer of the salt count the query reader and
    the serving actors read. A meta.json without this INDEX_FORMAT raises
    (codec.check_index_format): its stats and shards belong to an older
    layout."""
    layout = {
        "num_shards": config.num_shards,
        "num_salts": num_salts,
        "dictionary_hash": config.dictionary_hash(),
        # everything baked into the salt files' BYTES belongs here — a resume
        # with a flipped store_positions (or different BM25/block constants)
        # must not trust stale parts whose encoded content differs
        "store_positions": config.store_positions,
        "k1": config.k1,
        "b": config.b,
        "posting_block": config.posting_block,
    }
    existing = shards_layout(out_dir)
    if existing != layout:
        # keys absent from an older guard version's file are tolerated
        # (legacy layouts recorded fewer fields: the fuller layout is
        # recorded); any PRESENT key must match
        if existing is not None and any(
            existing.get(k, v) != v for k, v in layout.items()
        ):
            if BuildManifest(out_dir).phase_done("shards"):
                raise ValueError(
                    f"index at {out_dir} was built with layout {existing}; "
                    f"requested {layout} — rebuild into a fresh directory"
                )
            import shutil

            shutil.rmtree(os.path.join(out_dir, "shards"), ignore_errors=True)
            jl = os.path.join(out_dir, "_manifest", "shards.jsonl")
            if os.path.exists(jl):
                os.remove(jl)
        p = os.path.join(out_dir, "_manifest", "shards_layout.json")
        os.makedirs(os.path.dirname(p), exist_ok=True)
        _write_json(p, layout)
    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    check_index_format(meta, out_dir)
    if meta.get("num_salts") != num_salts:
        meta["num_salts"] = num_salts
        _write_json(meta_path, meta, indent=1)


def build_ordinals(docs_dir: str, out_dir: str, num_salts: int) -> None:
    """Shards-phase step: every salt's ordinal map (codec.ordinal_paths)
    over the docs that are not dead letters, from one driver-side scan of
    two columns (12 bytes a doc). Maps are written atomically, so a resume
    that finds them all keeps them."""
    import pyarrow.dataset as pads

    paths = [p for s in range(num_salts) for p in ordinal_paths(out_dir, s)]
    if all(os.path.exists(p) for p in paths):
        return
    files = [os.path.join(docs_dir, f) for f in os.listdir(docs_dir)
             if f.endswith(".parquet")]
    ids = dl = np.zeros(0, np.int64)
    if files:
        dset = pads.dataset(files)
        t = dset.to_table(columns=["doc_id", "token_count"],
                          filter=_live_filter(dset.schema))
        ids = t["doc_id"].to_numpy()
        dl = t["token_count"].to_numpy()
    for salt in range(num_salts):
        keep = ids % num_salts == salt
        write_ordinals(out_dir, salt, ids[keep], dl[keep])


def build_shards(docs_dir: str, out_dir: str, config: EngineConfig, meta: dict, *,
                 num_salts: int = 1, batch_size: int = 4096) -> list[dict]:
    """Phase 'shards': the posting shuffle + encode.

    The exchange is Ray's sort-based groupby(part).map_groups: the
    intermediate postings ride the object store, never the filesystem.
    Its trade-off, measured on a 1-vCPU box at 100k docs (185 MiB docs
    table, num_shards=32, num_salts=2; scripts/scale_proof_exchange.py):
    with a 256 MiB object store, about 4x under the decoded exchange, the
    raylet spills ~1.5 GiB to disk and the shards stay byte-identical to
    the default store's, at 1.5-2.3x the phase's wall time (34-45 s vs
    19-24 s). A filesystem spill exchange (removed) took 19.6 s there;
    at 200k docs on 32 vCPUs it was 2.9 s faster at 2 CPUs and 2.6 s at
    8 (BASELINE r5), which puts the sort exchange's 2->8 CPU efficiency
    at an estimated ~0.96 (185.4 s / 48.2 s / 4), not measured here.

    The docs read consolidates into ~3 blocks per CPU (override_num_blocks):
    the docs phase writes O(tasks) files, and re-reading each as its own
    1000-row task spent more wall on scheduling than on work (measured 11.2 s
    operator time for 1.75 s of remote work at 200k docs)."""
    manifest = BuildManifest(out_dir)
    if manifest.phase_done("shards"):
        _guard_shards_layout(out_dir, config, num_salts)  # raises on mismatch
        return manifest.partitions("shards")
    _guard_shards_layout(out_dir, config, num_salts)
    build_ordinals(docs_dir, out_dir, num_salts)
    if meta["n_docs"] == 0:  # zero-row corpus: nothing to shuffle
        os.makedirs(os.path.join(out_dir, "shards"), exist_ok=True)
        manifest.mark_phase_done("shards", {"wall_s": 0.0})
        return []
    t0 = time.time()
    import functools

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_files = sum(1 for f in os.listdir(docs_dir) if f.endswith(".parquet"))
    disk_b = sum(os.path.getsize(os.path.join(docs_dir, f))
                 for f in os.listdir(docs_dir) if f.endswith(".parquet"))
    store_pos = config.store_positions
    cols = ["doc_id", "terms"] + (["term_positions"] if store_pos else [])
    # ~3 blocks/CPU for balance, but never above ~32 MiB decoded per block
    # (decoded postings run ~4x the parquet bytes) or below one block per
    # file-pair — the hint only coalesces, large corpora stay block-capped
    blocks = max(ncpu * 3, int(disk_b * 4 // (32 << 20)) + 1)
    docs = ray.data.read_parquet(docs_dir, columns=cols,
                                 override_num_blocks=min(max(blocks, 1),
                                                         max(n_files, 1) * 4))
    from ..stages.postings import postings_flat_fn

    postings = docs.map_batches(
        functools.partial(
            postings_flat_fn, num_shards=config.num_shards,
            num_salts=num_salts, positions=store_pos,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    summary_ds = postings.groupby("part").map_groups(
        functools.partial(_encode_group, out_dir=out_dir, avgdl=meta["avgdl"],
                          k1=config.k1, b=config.b, block=config.posting_block,
                          num_salts=num_salts),
        batch_format="pyarrow")
    rows = summary_ds.take_all()
    _save_stage_stats(summary_ds, out_dir, "shards")
    for row in rows:
        manifest.record_partition("shards", row)
    manifest.mark_phase_done("shards", {"wall_s": time.time() - t0})
    return manifest.partitions("shards")


def typo_arrays(terms) -> tuple[np.ndarray, np.ndarray]:
    """The SymSpell deletion neighbourhood of `terms` as two arrays: the
    hash (kernel/typo.variant_hash, uint32) of every variant within
    MAX_TYPOS deletions of every term, stably sorted, and the int32 index
    in `terms` of each hash's term. Every query budget is <= MAX_TYPOS, so
    a term within any request's thresholds of a query shares a hashed
    variant with it; a hash collision only adds a candidate that the exact
    Damerau-Levenshtein check drops. 8 bytes per neighbourhood row."""
    from ..kernel.typo import MAX_TYPOS, deletion_variants, variant_hash

    hashes: list[int] = []
    rows: list[int] = []
    for i, t in enumerate(terms):
        vs = deletion_variants(t, MAX_TYPOS)
        hashes.extend(map(variant_hash, vs))
        rows.extend([i] * len(vs))
    h = np.array(hashes, dtype=np.uint32)
    order = np.argsort(h, kind="stable")
    return h[order], np.array(rows, dtype=np.int32)[order]


def _neighbourhood_batch(batch: pa.Table) -> pa.Table:
    """(term, row) rows -> (hash, row) neighbourhood rows (Ray path)."""
    h, r = typo_arrays(batch["term"].to_pylist())
    rows = batch["row"].to_numpy()
    return pa.table({"hash": h, "row": rows[r]})


def build_term_dict(out_dir: str) -> str:
    """Phase 'dict': globally SORTED (term, df, cf) dictionary parquet, and
    next to it the typo arrays (typo_arrays over the sorted terms) as
    typodict/hash.npy and typodict/row.npy, row = the term's row in the
    dictionary as pyarrow.dataset reads it.

    The scale path for prefix expansion / suggestions: terms are hash-sharded
    in the posting files, so a prefix scan would otherwise load every shard's
    term table; a sorted dictionary with small row groups turns it into a
    stats-pruned range read (only row groups whose [min, max] straddles the
    prefix are touched). Typo expansion becomes two searchsorted calls over
    the hash array. Dictionary size is O(vocabulary) — tiny next to the
    postings — so a driver-side streaming scan suffices below 4 GiB and the
    Ray groupby/sort path covers anything bigger. Both arrays are written
    before the phase is marked done; the .npy files live outside termdict/
    so the dictionary stays a pure parquet dataset."""
    import pyarrow.dataset as pads

    manifest = BuildManifest(out_dir)
    d = os.path.join(out_dir, "termdict")
    if manifest.phase_done("dict"):
        return d
    td = os.path.join(out_dir, "typodict")
    for sub in (d, td):  # discard a crashed run's partial files
        os.makedirs(sub, exist_ok=True)
        for f in os.listdir(sub):
            os.remove(os.path.join(sub, f))
    shards_dir = os.path.join(out_dir, "shards")
    files = []
    if os.path.isdir(shards_dir):
        for root, _dirs, fs in os.walk(shards_dir):
            files.extend(os.path.join(root, f) for f in fs
                         if f.endswith(".parquet"))
    t0 = time.time()
    if not files:
        atomic_write_parquet(
            pa.table({"term": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64()),
                      "cf": pa.array([], pa.int64())}),
            os.path.join(d, "termdict-00000.parquet"),
        )
        h, r = typo_arrays([])
    elif sum(os.path.getsize(f) for f in files) < RAY_AGG_BYTES:
        import polars as pl

        t = pads.dataset(files).to_table(columns=["term", "df", "cf"])
        out = (
            pl.from_arrow(t)
            .group_by("term")  # salted segments of one term sum up
            .agg(pl.col("df").sum(), pl.col("cf").sum())
            .sort("term")
            .to_arrow()
        )
        atomic_write_parquet(
            out, os.path.join(d, "termdict-00000.parquet"),
            row_group_size=8192,
        )
        h, r = typo_arrays(out["term"].to_pylist())
    else:
        from ray.data.aggregate import Sum

        ds = ray.data.read_parquet(files, columns=["term", "df", "cf"])
        agg = ds.groupby("term").aggregate(
            Sum("df", alias_name="df"), Sum("cf", alias_name="cf")
        )
        agg.sort("term").write_parquet(d, row_group_size=8192)
        # rows must index the dictionary as the engine reads it back
        terms = pads.dataset(d).to_table(columns=["term"])["term"]
        rows = ray.data.from_arrow(pa.table({
            "term": terms,
            "row": pa.array(np.arange(len(terms), dtype=np.int32)),
        })).map_batches(_neighbourhood_batch, batch_format="pyarrow",
                        batch_size=4096).sort(["hash", "row"])
        t = pa.concat_tables(ray.get(rows.to_arrow_refs()))
        h = t["hash"].to_numpy().astype(np.uint32)
        r = t["row"].to_numpy().astype(np.int32)
    atomic_save_npy(os.path.join(td, "hash.npy"), h)
    atomic_save_npy(os.path.join(td, "row.npy"), r)
    manifest.mark_phase_done("dict", {"wall_s": time.time() - t0})
    return d


def build_typo_index(out_dir: str) -> str:
    """The typo arrays' directory: build_term_dict writes them with the
    dictionary, so this only ensures the 'dict' phase ran."""
    build_term_dict(out_dir)
    return os.path.join(out_dir, "typodict")


def build_index(pages_path: str, out_dir: str, config: EngineConfig | None = None, *,
                num_salts: int = 1, batch_size: int = 256) -> dict:
    """Full build (all phases, resumable). Returns meta dict."""
    config = config or EngineConfig()
    os.makedirs(out_dir, exist_ok=True)
    docs_dir = build_docs(pages_path, out_dir, config, batch_size=batch_size)
    meta = compute_stats(docs_dir, out_dir, config)
    build_shards(docs_dir, out_dir, config, meta, num_salts=num_salts)
    build_term_dict(out_dir)
    with open(os.path.join(out_dir, "meta.json")) as f:
        return json.load(f)
