"""Index maintenance: bulk reindex (S4) and document deletes (S5).

Reference analogs:
  * reindex: scripts/maintenance/reindex-existing-data.py — page through an
    existing index, detect stale tokenization, re-process, with a backup as
    checkpoint. Here: the docs parquet IS the scan source; "needs reindexing"
    = dictionary/extractor hash mismatch in meta.json; the new index builds
    into a fresh directory (the old one is the backup), resumable as usual.
  * deletes: src/meilisearch_integration/client.py:251-275 delete_documents.
    Immutable posting shards => TOMBSTONES: deleted doc_ids are recorded in
    <index>/tombstones/*.parquet and filtered at query time. Corpus stats
    (N, avgdl, df) intentionally stay stale until the next reindex — the same
    visibility semantics as a Meilisearch delete before compaction. A reindex
    drops tombstoned docs permanently.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

from ..config import EngineConfig
from ..kernel.extract import EXTRACTOR_VERSION
from ..state.manifest import atomic_write_parquet


def needs_reindex(index_dir: str, config: EngineConfig) -> bool:
    """Dictionary or extractor changed since this index was built."""
    import json

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    return (
        meta.get("dictionary_hash") != config.dictionary_hash()
        or meta.get("extractor_version") != EXTRACTOR_VERSION
    )


def copy_docs_dropping(levels: list[tuple[str, "np.ndarray | None"]],
                       docs_dst: str) -> None:
    """Fragment-wise copy of one or more docs dirs into docs_dst, dropping
    each level's doc_ids. Discards any partial copy first (per-file writes
    are atomic but the loop is not — a crashed run's partials must never be
    trusted); the CALLER guards the phase marker."""
    if os.path.isdir(docs_dst):
        for f in os.listdir(docs_dst):
            os.remove(os.path.join(docs_dst, f))
    os.makedirs(docs_dst, exist_ok=True)
    part = 0
    for docs_src, drop in levels:
        for frag in pads.dataset(docs_src).get_fragments():
            t = frag.to_table()
            if drop is not None and len(drop):
                keep = ~np.isin(
                    t["doc_id"].to_numpy(zero_copy_only=False), drop
                )
                t = t.filter(pa.array(keep))
            if t.num_rows:
                atomic_write_parquet(
                    t, os.path.join(docs_dst, f"docs-{part:05d}.parquet")
                )
                part += 1


def finalize_carried_meta(out_dir: str, src_meta: dict) -> dict:
    """Rewrite out_dir's meta.json carrying the SOURCE index's dictionary /
    extractor hashes (reused `terms` were tokenized with the source
    dictionary — recording the current one would permanently mask
    needs_reindex)."""
    import json

    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path) as f:
        new_meta = json.load(f)
    for key in ("dictionary_hash", "extractor_version"):
        if key in src_meta:
            new_meta[key] = src_meta[key]
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(new_meta, f, indent=1)
    os.replace(tmp, meta_path)
    return new_meta


def reindex(index_dir: str, out_dir: str, config: EngineConfig | None = None, *,
            num_salts: int = 1, force: bool = False) -> dict | None:
    """Rebuild the posting shards of an existing index from its docs table,
    dropping tombstoned documents. Returns new meta, or None if up to date.

    NOTE: reuses the stored `terms` column — extraction/tokenization are NOT
    re-run (cheap path, dictionary unchanged). When needs_reindex() is true
    the tokenization itself is stale: rebuild from the original pages with
    build.build_index instead."""
    import json

    config = config or EngineConfig()
    if not force and not needs_reindex(index_dir, config) and not _tombstones(index_dir):
        return None
    from .build import build_shards, build_term_dict, compute_stats

    from ..state.manifest import BuildManifest

    os.makedirs(out_dir, exist_ok=True)
    manifest = BuildManifest(out_dir)
    docs_src = os.path.join(index_dir, "docs")
    docs_dst = os.path.join(out_dir, "docs")
    dead = _tombstones(index_dir)
    if not manifest.phase_done("docs"):
        drop = (np.fromiter(dead, dtype=np.int64) if dead else None)
        copy_docs_dropping([(docs_src, drop)], docs_dst)
        manifest.mark_phase_done("docs", {"source": docs_src})
    meta = compute_stats(docs_dst, out_dir, config)
    build_shards(docs_dst, out_dir, config, meta, num_salts=num_salts)
    build_term_dict(out_dir)  # sorted term dictionary (prefix-suggest scale path)
    with open(os.path.join(index_dir, "meta.json")) as f:
        src_meta = json.load(f)
    return finalize_carried_meta(out_dir, src_meta)


# ---------------- tombstone deletes ----------------

def delete_docs(index_dir: str, doc_ids: list[int]) -> int:
    """Record doc_ids as deleted (append-only tombstone parquet files).

    File name = content hash of the deleted id set: collision-free under
    concurrent delete calls (a directory-count ordinal would let two
    concurrent calls compute the same name and silently overwrite each
    other); identical id sets converge to the same file, harmlessly."""
    import hashlib

    d = os.path.join(index_dir, "tombstones")
    os.makedirs(d, exist_ok=True)
    existing = _tombstones(index_dir)
    new = sorted(set(int(x) for x in doc_ids) - existing)
    if not new:
        return 0
    digest = hashlib.md5(
        np.asarray(new, dtype=np.int64).tobytes()
    ).hexdigest()[:16]
    atomic_write_parquet(
        pa.table({"doc_id": pa.array(new, pa.int64())}),
        os.path.join(d, f"tombstones-{digest}.parquet"),
    )
    return len(new)


def delete_by_url(index_dir: str, urls: list[str]) -> int:
    from ..functions.hashing import doc_id_from_url

    return delete_docs(index_dir, [doc_id_from_url(u) for u in urls])


def _tombstones(index_dir: str) -> set[int]:
    d = os.path.join(index_dir, "tombstones")
    if not os.path.isdir(d) or not os.listdir(d):
        return set()
    t = pads.dataset(d).to_table(columns=["doc_id"])
    return set(t["doc_id"].to_pylist())


def load_tombstones(index_dir: str) -> set[int]:
    return _tombstones(index_dir)


# ---------------- dead-letter output ----------------

def failed_docs(index_dir: str) -> pa.Table:
    """The dead-letter side output: per-doc failure rows recorded by the
    extract stage (status="failed", reference ProcessingStatus semantics —
    document_processor.py:25-57,319-343), read through doc_rows from the
    base and every delta generation (a delta keeps its failed rows in its
    own docs table); a table without a status column has none. Failed rows
    carry no postings and are excluded from N/avgdl (build.compute_stats),
    so this is the complete record of what the index does NOT contain and
    why."""
    import pyarrow.compute as pc

    from .incremental import GenerationalEngine

    return GenerationalEngine(index_dir).doc_rows(
        None, ["doc_id", "url", "error"],
        where=pc.field("status") == "failed")


# ------------------------------------------------ snapshots (S4 adjunct)

def snapshot(index_dir: str, dest_dir: str) -> dict:
    """Meilisearch-snapshot analog: a consistent, integrity-manifested copy
    of the whole index directory. The copy lands in a temp dir and renames
    into place, so a half-written snapshot is never mistaken for a real
    one; `snapshot_manifest.json` records every file's (size, md5) for
    restore-time verification. Returns the manifest dict.

    Reference analog: Meilisearch's POST /snapshots full-index dump (the
    reference delegates persistence to Meilisearch entirely); here the
    index is already immutable parquet/binary shards, so a snapshot is a
    verified copy."""
    import hashlib
    import json
    import shutil

    if os.path.exists(dest_dir):
        raise FileExistsError(f"snapshot destination exists: {dest_dir}")
    tmp = dest_dir + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    files = {}
    for root, _dirs, fnames in os.walk(index_dir):
        for fn in sorted(fnames):
            src = os.path.join(root, fn)
            rel = os.path.relpath(src, index_dir)
            dst = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
            h = hashlib.md5()
            with open(dst, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            files[rel] = {"size": os.path.getsize(dst),
                          "md5": h.hexdigest()}
    manifest = {"source": os.path.abspath(index_dir), "files": files}
    with open(os.path.join(tmp, "snapshot_manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.rename(tmp, dest_dir)
    return manifest


def verify_snapshot(snap_dir: str) -> dict:
    """Re-hash every file against snapshot_manifest.json; raises ValueError
    naming the first corrupt/missing file. Returns the manifest."""
    import hashlib
    import json

    with open(os.path.join(snap_dir, "snapshot_manifest.json")) as f:
        manifest = json.load(f)
    for rel, want in sorted(manifest["files"].items()):
        path = os.path.join(snap_dir, rel)
        if not os.path.exists(path):
            raise ValueError(f"snapshot missing file: {rel}")
        if os.path.getsize(path) != want["size"]:
            raise ValueError(f"snapshot size mismatch: {rel}")
        h = hashlib.md5()
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        if h.hexdigest() != want["md5"]:
            raise ValueError(f"snapshot checksum mismatch: {rel}")
    return manifest


def restore_snapshot(snap_dir: str, out_dir: str) -> None:
    """Verified restore: checksums first (a corrupt snapshot never
    half-restores), then copy into a temp dir renamed into place. The
    restored index is byte-identical to the snapshotted one, so a
    SearchEngine over it returns bit-identical results."""
    import shutil

    manifest = verify_snapshot(snap_dir)
    if os.path.exists(out_dir):
        raise FileExistsError(f"restore destination exists: {out_dir}")
    tmp = out_dir + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    for rel in sorted(manifest["files"]):
        src = os.path.join(snap_dir, rel)
        dst = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)
    os.rename(tmp, out_dir)


# ---------------------------------------------------------------------------
# Index registry + atomic swap (Meilisearch POST /swap-indexes semantics:
# https://www.meilisearch.com/docs — the zero-downtime reindex pattern:
# build the new corpus under a staging name, then atomically exchange the
# names so every consumer flips generations in one step). Names resolve
# through ONE json file replaced atomically; on a shared filesystem the
# replace is the commit point, exactly like the build manifest.


def registry_set(registry_path: str, name: str, index_dir: str) -> None:
    """Point `name` at `index_dir` (creates the registry if absent)."""
    import json
    import os

    reg = registry_read(registry_path)
    reg[name] = index_dir
    tmp = registry_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump({"indexes": reg}, f, sort_keys=True, indent=1)
    os.replace(tmp, registry_path)


def registry_read(registry_path: str) -> dict:
    import json
    import os

    if not os.path.exists(registry_path):
        return {}
    with open(registry_path, encoding="utf-8") as f:
        return json.load(f)["indexes"]


def resolve_index(registry_path: str, name: str) -> str:
    """The consumer side: name -> index directory. Raises KeyError for an
    unknown name (a silent fallback would serve the wrong corpus)."""
    reg = registry_read(registry_path)
    if name not in reg:
        raise KeyError(f"no index named {name!r} in {registry_path}")
    return reg[name]


def swap_indexes(registry_path: str, pairs: list[tuple[str, str]]) -> dict:
    """Atomically exchange the directories each (a, b) pair points at —
    ALL pairs in one registry replace, so readers never observe a partial
    swap. Both names of every pair must exist (Meilisearch errors on
    missing indexes too). Returns the new mapping."""
    import json
    import os

    reg = registry_read(registry_path)
    for a, b in pairs:
        if a not in reg or b not in reg:
            missing = [n for n in (a, b) if n not in reg]
            raise KeyError(f"cannot swap: missing index(es) {missing}")
    for a, b in pairs:
        reg[a], reg[b] = reg[b], reg[a]
    tmp = registry_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump({"indexes": reg}, f, sort_keys=True, indent=1)
    os.replace(tmp, registry_path)
    return reg


# ---------------- index stats (Meilisearch GET /indexes/:idx/stats) ----------------

def index_stats(index_dir: str) -> dict:
    """numberOfDocuments / isIndexing / fieldDistribution over a built index
    (+ its completed delta generations), the response shape the reference's
    monitoring pulls from Meilisearch (`api/endpoints/monitoring.py:630`
    get_stats -> total_documents / per-index numberOfDocuments).

    Shape: one GenerationalEngine.doc_rows read of three in-memory doc-value
    columns (status / title_tc / lang, never text or terms), so a doc a
    newer generation re-versions counts once, as in compact()'s table.
    numberOfDocuments counts LIVE docs (dead-letter rows and tombstones
    subtracted); isIndexing is true iff an incomplete delta generation
    exists (the `complete` marker is written last, so this is exactly "a
    build is in flight or died mid-build")."""
    import json

    import pyarrow.compute as pc

    from .incremental import GenerationalEngine, _gen_dirs
    from .search import NOT_FAILED

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    is_indexing = len(_gen_dirs(index_dir, complete_only=False)) > len(
        _gen_dirs(index_dir, complete_only=True))
    dead = _tombstones(index_dir)
    rows = GenerationalEngine(index_dir).doc_rows(
        None, ["status", "title_tc", "lang"])
    ok = rows.filter(NOT_FAILED)
    n_ok = ok.num_rows
    return {
        "numberOfDocuments": n_ok - len(dead),
        "isIndexing": is_indexing,
        "fieldDistribution": {
            "url": n_ok, "content": n_ok,
            "title": pc.sum(pc.greater(ok["title_tc"], 0)).as_py() or 0,
            "lang": pc.sum(pc.not_equal(ok["lang"], "")).as_py() or 0,
        },
        "rawDocumentRows": rows.num_rows,
        "tombstones": len(dead),
        "numSalts": meta.get("num_salts", 1),
    }
