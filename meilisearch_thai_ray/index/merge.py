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
docs), the per-salt ordinal maps (the sorted union of the sources' maps)
and the term-dictionary rebuild touch anything global.

Why re-encode instead of concatenating bytes: block-max metadata (and tfn
upper bounds) depend on the MERGED avgdl, and each source posting's
ordinal moves in the merged map (source ordinal -> doc id -> merged
ordinal) — re-encoding with the exact merged avgdl and maps makes the
output bit-identical to a from-scratch rebuild of the union corpus
(asserted in tests down to shard-file and map bytes).

Contract: source doc_ids must be disjoint. A doc id in two sources' maps
raises; the docs-union count is also verified against the sum of source
counts.
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
    write_shard,
)
from .codec import (check_index_format, decode_positions, decode_segment,
                    load_ordinals, ordinal_paths, write_ordinals)
from .maintenance import finalize_carried_meta
from ..state.manifest import BuildManifest

_LAYOUT_KEYS = ("num_shards", "num_salts", "dictionary_hash",
                "extractor_version", "tokenizer_version", "store_positions")


def _load_meta(index_dir: str) -> dict:
    """A source's meta.json; raises on an index of another format."""
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    check_index_format(meta, index_dir)
    return meta


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


def _decode_rows(t: pa.Table, store_pos: bool,
                 ordinals: tuple[np.ndarray, np.ndarray]) -> pa.Table:
    """One source partition's segments -> its flat (term, doc_id, tf
    [, positions]) posting rows, through the partition salt's ordinal map.
    The segments' streams concatenate into one varint stream each;
    ordinals restart at every segment."""
    n_docs = t["n_docs"].to_numpy()
    doc_ids, tfs, _ = decode_segment(
        b"".join(t["docs_bin"].to_pylist()),
        b"".join(t["tfs_bin"].to_pylist()), n_docs, ordinals)
    cols = {
        "term": t["term"].take(np.repeat(np.arange(t.num_rows), n_docs)),
        "doc_id": doc_ids.astype(np.int64),
        "tf": tfs.astype(np.int64),
    }
    if store_pos:
        flat, starts = decode_positions(b"".join(t["pos_bin"].to_pylist()), tfs)
        cols["positions"] = pa.LargeListArray.from_arrays(
            np.append(starts, flat.size), flat)
    return pa.table(cols)


@ray.remote
def _merge_partition_task(index_dirs: list[str], out_dir: str, rel: str,
                          shard: int, salt: int, avgdl: float, k1: float,
                          b: float, block: int, store_pos: bool) -> int:
    """Merge the same (shard, salt) partition of every source: decode every
    segment to posting rows, sort them by (term, doc_id), re-encode over
    the merged ordinal map. The maps are disjoint (merge_indexes checks),
    so no (term, doc_id) pair repeats."""
    import polars as pl
    import pyarrow.parquet as pq

    rows = [_decode_rows(pq.read_table(os.path.join(d, "shards", rel)),
                         store_pos, load_ordinals(d, salt, "r"))
            for d in index_dirs
            if os.path.exists(os.path.join(d, "shards", rel))]
    if not rows:
        return 0
    df = pl.from_arrow(pa.concat_tables(rows)).sort(["term", "doc_id"])
    merged = encode_partition(df, shard=shard, salt=salt,
                              ordinals=load_ordinals(out_dir, salt, "r"),
                              avgdl=avgdl, k1=k1, b=b, block=block)
    write_shard(merged, os.path.join(out_dir, "shards", rel))
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
        for salt in range(num_salts):  # sorted union of the sources' maps
            if not os.path.exists(ordinal_paths(out_dir, salt)[1]):
                maps = [load_ordinals(d, salt) for d in index_dirs]
                ids = np.concatenate([m[0] for m in maps])
                srt = np.sort(ids)
                dup = srt[1:][srt[1:] == srt[:-1]]
                if dup.size:
                    raise ValueError(
                        f"doc_id {dup[0]} appears in more than one source "
                        f"index (salt {salt}) — merge requires disjoint "
                        f"doc_id spaces")
                write_ordinals(out_dir, salt, ids,
                               np.concatenate([m[1] for m in maps]))
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
                refs.append(_merge_partition_task.remote(
                    index_dirs, out_dir, rel, shard, salt, avgdl, k1, b,
                    block, store_pos))
        n_terms = sum(ray.get(refs)) if refs else 0
        manifest.mark_phase_done("shards", {"merged_terms": n_terms,
                                            "sources": list(index_dirs)})
    build_term_dict(out_dir)
    return finalize_carried_meta(out_dir, metas[0])
