"""Dumps — Meilisearch POST /dumps + import-on-startup analog.

A DUMP is the version-independent export: per index it carries the
DOCUMENTS (the extracted docs table), the SETTINGS (meta.json) and the
tombstones — NOT the posting shards. Import re-derives every shard with
the current codec, exactly Meilisearch's dump-vs-snapshot distinction
(snapshot = bit-copy for same-version backup, maintenance.snapshot; dump =
portable re-ingest across engine versions). The reference delegates both
to Meilisearch; the route contract specifies the semantics.

Scale shape: the dump copies docs parquet files as-is (no decode), one
file at a time; import rebuilds shards through maintenance.reindex — the
same distributed build path as a live rebuild, so a 100-TB instance
re-imports at full cluster throughput.
"""

from __future__ import annotations

import json
import os
import shutil
import time

from ..state.tasks import TaskLedger, tracked
from . import incremental, maintenance

DUMP_VERSION = 1


def create_dump(registry_path: str, dump_dir: str,
                ledger: TaskLedger | None = None) -> dict:
    """Export every registered index (docs + settings + tombstones) into
    dump_dir. Lands in a temp dir and renames into place — a half-written
    dump is never mistaken for a real one. Returns the dump metadata."""
    with tracked(ledger, "dumpCreation", details={"dest": dump_dir}) as t:
        if os.path.exists(dump_dir):
            raise FileExistsError(f"dump destination exists: {dump_dir}")
        reg = maintenance.registry_read(registry_path)
        tmp = dump_dir + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(os.path.join(tmp, "indexes"))
        for name, idx_dir in sorted(reg.items()):
            dst = os.path.join(tmp, "indexes", name)
            os.makedirs(dst)
            shutil.copytree(os.path.join(idx_dir, "docs"),
                            os.path.join(dst, "docs"))
            shutil.copy2(os.path.join(idx_dir, "meta.json"),
                         os.path.join(dst, "meta.json"))
            tomb = os.path.join(idx_dir, "tombstones")
            if os.path.isdir(tomb):
                shutil.copytree(tomb, os.path.join(dst, "tombstones"))
            # completed delta generations dump their docs too: import
            # rebuilds ONE consolidated index from base + deltas
            for gen in incremental._gen_dirs(idx_dir, complete_only=True):
                gname = os.path.basename(gen)
                shutil.copytree(
                    os.path.join(gen, "docs"),
                    os.path.join(dst, "gen_docs", gname))
        meta = {"dumpVersion": DUMP_VERSION,
                "dumpedAt": time.time(),
                "indexes": sorted(reg)}
        with open(os.path.join(tmp, "metadata.json"), "w") as f:
            json.dump(meta, f, indent=1, sort_keys=True)
        os.rename(tmp, dump_dir)
        t["details"]["indexes"] = len(reg)
    return meta


def import_dump(dump_dir: str, dest_root: str,
                registry_path: str | None = None) -> dict:
    """Rebuild every dumped index under dest_root/<name> (shards re-derived
    from the dumped docs, tombstoned docs dropped for good) and register
    the names. Returns {name: index_dir}."""
    with open(os.path.join(dump_dir, "metadata.json")) as f:
        meta = json.load(f)
    if meta["dumpVersion"] > DUMP_VERSION:
        raise ValueError(
            f"dump version {meta['dumpVersion']} is newer than this "
            f"engine understands ({DUMP_VERSION})")
    out: dict[str, str] = {}
    for name in meta["indexes"]:
        src = os.path.join(dump_dir, "indexes", name)
        with open(os.path.join(src, "meta.json")) as f:
            idx_meta = json.load(f)
        cfg = incremental._base_config(idx_meta)
        dest = os.path.join(dest_root, name)
        gen_root = os.path.join(src, "gen_docs")
        if os.path.isdir(gen_root):
            # consolidate base + delta docs through the same
            # tombstone-dropping copy reindex uses, then rebuild shards
            levels = [(os.path.join(src, "docs"), None)]
            levels += [(os.path.join(gen_root, g), None)
                       for g in sorted(os.listdir(gen_root))]
            import numpy as np

            dead = maintenance.load_tombstones(src)
            drop = (np.fromiter(dead, dtype=np.int64)
                    if dead else None)
            levels = [(d, drop) for d, _ in levels]
            from .build import (build_shards, build_term_dict,
                                compute_stats)

            os.makedirs(dest, exist_ok=True)
            docs_dst = os.path.join(dest, "docs")
            maintenance.copy_docs_dropping(levels, docs_dst)
            new_meta = compute_stats(docs_dst, dest, cfg)
            build_shards(docs_dst, dest, cfg, new_meta,
                         num_salts=idx_meta.get("num_salts", 1))
            build_term_dict(dest)
            maintenance.finalize_carried_meta(dest, idx_meta)
        else:
            maintenance.reindex(src, dest, cfg, force=True,
                                num_salts=idx_meta.get("num_salts", 1))
        out[name] = dest
        if registry_path:
            maintenance.registry_set(registry_path, name, dest)
    return out
