"""Posting-level index merge — the north-rule "merge" of independently
built indexes (Lucene-style segment merge, Meilisearch multi-index
consolidation analog).

`merge_indexes([A, B, ...], out)` produces one index over the UNION of the
source corpora WITHOUT re-tokenizing and WITHOUT the posting shuffle: the
sources were built with the same (num_shards, num_salts, dictionary, codec)
layout, so partition (shard, salt) of the merged index depends ONLY on
partition (shard, salt) of each source — the merge is one independent Ray
task per partition (decode -> sort by (term, doc_id) -> re-encode), zero
all-to-all exchange. Only the tiny stats barrier (N, avgdl over the merged
docs) and the term-dictionary rebuild touch anything global.

Why re-encode instead of concatenating bytes: block-max metadata (and tfn
upper bounds) depend on the MERGED avgdl, and doc-id delta streams restart
per segment — re-encoding with the exact merged avgdl makes the output
bit-identical to a from-scratch rebuild of the union corpus (asserted in
tests down to shard-file bytes).

Contract: source doc_ids must be disjoint. Every posting-level collision
raises (that covers any doc sharing a term); the docs-union count is also
verified against the sum of source counts.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

import ray

from ..config import EngineConfig
from .build import (
    _guard_shards_layout,
    build_term_dict,
    compute_stats,
    encode_partition,
)
from .codec import decode_positions, segment_cumsum, varint_decode
from .maintenance import finalize_carried_meta
from ..state.manifest import BuildManifest, atomic_write_parquet

_LAYOUT_KEYS = ("num_shards", "num_salts", "dictionary_hash",
                "extractor_version", "tokenizer_version", "store_positions")


def _load_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "meta.json")) as f:
        return json.load(f)


def _validate_sources(index_dirs: list[str]) -> list[dict]:
    if len(index_dirs) < 2:
        raise ValueError("merge needs at least two source indexes")
    metas = [_load_meta(d) for d in index_dirs]
    head = metas[0]
    for d, m in zip(index_dirs[1:], metas[1:]):
        for key in _LAYOUT_KEYS:
            if m.get(key) != head.get(key):
                raise ValueError(
                    f"layout mismatch at {d}: {key}={m.get(key)!r} != "
                    f"{head.get(key)!r} — merge requires identical build "
                    f"layouts (rebuild or compact first)")
    for d in index_dirs:
        tomb = os.path.join(d, "tombstones")
        if os.path.isdir(tomb) and any(
                f.endswith(".parquet") for f in os.listdir(tomb)):
            raise ValueError(f"{d} has tombstones — compact it first so the "
                             f"merge never resurrects deleted docs")
        gens = os.path.join(d, "generations")
        if os.path.isdir(gens) and os.listdir(gens):
            raise ValueError(f"{d} has delta generations — compact it first")
    return metas


def _decode_rows(t: pa.Table, store_pos: bool) -> pa.Table:
    """One source partition's segments -> its flat (term, doc_id, tf, dl
    [, positions]) posting rows. The segments' streams concatenate into
    one varint stream each; doc ids restart at every segment."""
    n_docs = t["n_docs"].to_numpy()
    total = int(n_docs.sum())

    def stream(col: str) -> np.ndarray:
        return varint_decode(b"".join(t[col].to_pylist()), total)

    tfs = stream("tfs_bin") + np.uint64(1)
    cols = {
        "term": t["term"].take(np.repeat(np.arange(t.num_rows), n_docs)),
        "doc_id": segment_cumsum(stream("docs_bin"), n_docs).astype(np.int64),
        "tf": tfs.astype(np.int64),
        "dl": stream("dls_bin").astype(np.int64),
    }
    if store_pos:
        flat, starts = decode_positions(b"".join(t["pos_bin"].to_pylist()), tfs)
        cols["positions"] = pa.LargeListArray.from_arrays(
            np.append(starts, flat.size), flat)
    return pa.table(cols)


def _merge_rows(tables: list[pa.Table], *, shard: int, salt: int,
                avgdl: float, k1: float, b: float, block: int,
                store_pos: bool) -> pa.Table:
    """Merge the same (shard, salt) partition of every source: decode every
    segment to posting rows, sort them by (term, doc_id), re-encode."""
    import polars as pl

    df = pl.from_arrow(pa.concat_tables(
        [_decode_rows(t, store_pos) for t in tables])).sort(["term", "doc_id"])
    dup = df.filter((pl.col("term") == pl.col("term").shift())
                    & (pl.col("doc_id") == pl.col("doc_id").shift()))
    if dup.height:
        raise ValueError(
            f"doc_id {dup['doc_id'][0]} appears in more than one source index "
            f"(term {dup['term'][0]!r}, shard {shard}, salt {salt}) — merge "
            f"requires disjoint doc_id spaces")
    return encode_partition(df, shard=shard, salt=salt, avgdl=avgdl, k1=k1,
                            b=b, block=block)


@ray.remote
def _merge_partition_task(src_paths: list[str], out_path: str, shard: int,
                          salt: int, avgdl: float, k1: float, b: float,
                          block: int, store_pos: bool) -> int:
    import pyarrow.parquet as pq

    tables = [pq.read_table(p) for p in src_paths if os.path.exists(p)]
    if not tables:
        return 0
    merged = _merge_rows(tables, shard=shard, salt=salt, avgdl=avgdl,
                         k1=k1, b=b, block=block, store_pos=store_pos)
    atomic_write_parquet(merged, out_path)
    return merged.num_rows


def merge_indexes(index_dirs: list[str], out_dir: str, *,
                  config: EngineConfig | None = None) -> dict:
    """Merge N same-layout indexes into one at out_dir. Resumable through
    the standard phased manifest (docs / stats / shards / dict); finished
    partition files are skipped on re-run. Returns the merged meta."""
    import shutil

    from .incremental import _base_config

    metas = _validate_sources(index_dirs)
    cfg = config or _base_config(metas[0])
    num_salts = max(1, int(metas[0].get("num_salts", 1)))
    store_pos = cfg.store_positions

    os.makedirs(out_dir, exist_ok=True)
    manifest = BuildManifest(out_dir)
    docs_dst = os.path.join(out_dir, "docs")

    if not manifest.phase_done("docs"):
        os.makedirs(docs_dst, exist_ok=True)
        n_copied = 0
        for i, src in enumerate(index_dirs):
            sdir = os.path.join(src, "docs")
            for fn in sorted(os.listdir(sdir)):
                if not fn.endswith(".parquet"):
                    continue
                dst = os.path.join(docs_dst, f"src{i:02d}_{fn}")
                if not os.path.exists(dst):
                    shutil.copy2(os.path.join(sdir, fn), dst + ".tmp")
                    os.rename(dst + ".tmp", dst)
                n_copied += 1
        manifest.mark_phase_done("docs", {"sources": list(index_dirs),
                                          "files": n_copied})

    meta = compute_stats(docs_dst, out_dir, cfg)
    expect_n = sum(int(m["n_docs"]) for m in metas)
    if int(meta["n_docs"]) != expect_n:
        raise ValueError(
            f"merged docs count {meta['n_docs']} != sum of sources "
            f"{expect_n} — doc_id spaces overlap or a source is partial")

    if not manifest.phase_done("shards"):
        _guard_shards_layout(out_dir, cfg, num_salts)
        avgdl, k1, b = meta["avgdl"], cfg.k1, cfg.b
        block = cfg.posting_block
        refs = []
        for shard in range(cfg.num_shards):
            for salt in range(num_salts):
                rel = os.path.join(f"shard={shard:05d}",
                                   f"salt-{salt:04d}.parquet")
                out_path = os.path.join(out_dir, "shards", rel)
                if os.path.exists(out_path):
                    continue  # finished partition: resume skips it
                os.makedirs(os.path.dirname(out_path), exist_ok=True)
                srcs = [os.path.join(d, "shards", rel) for d in index_dirs]
                refs.append(_merge_partition_task.remote(
                    srcs, out_path, shard, salt, avgdl, k1, b, block,
                    store_pos))
        n_terms = sum(ray.get(refs)) if refs else 0
        manifest.mark_phase_done("shards", {"merged_terms": n_terms,
                                            "sources": list(index_dirs)})
    build_term_dict(out_dir)
    return finalize_carried_meta(out_dir, metas[0])
