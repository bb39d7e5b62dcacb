"""Index-build job driver — the `ray job submit` entrypoint (SURVEY §7 Phase 4).

Usage (local sandbox):
    python scripts/build_job.py --pages /tmp/pages --out /tmp/index \
        --num-shards 32 --num-salts 2

On a real cluster:
    ray job submit --working-dir . -- python scripts/build_job.py \
        --pages s3://bucket/pages --out /shared/index --num-shards 4096 ...

The posting exchange is build_shards' Ray sort shuffle (the postings ride
the object store); workers write the shard files under --out, so --out must
be a path every node can write.

This script OWNS its Ray session (guarded init); library code never calls
ray.init. Prints one JSON line of build metrics on success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pages", required=True, help="pages parquet dir")
    ap.add_argument("--out", required=True, help="index output dir")
    ap.add_argument("--num-shards", type=int, default=32)
    ap.add_argument("--num-salts", type=int, default=2)
    ap.add_argument("--batch-size", type=int, default=256)
    ap.add_argument("--store-positions", action="store_true",
                    help="store per-occurrence token positions (true phrase "
                         "search; ~+19%% shard bytes, ~-10%% throughput)")
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "0")) or None)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 num_cpus=args.num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from meilisearch_thai_ray.config import EngineConfig
    from meilisearch_thai_ray.index import build as b

    cfg = EngineConfig(num_shards=args.num_shards,
                       store_positions=args.store_positions)
    t0 = time.perf_counter()
    meta = b.build_index(args.pages, args.out, cfg, num_salts=args.num_salts,
                         batch_size=args.batch_size)
    wall = time.perf_counter() - t0
    print(json.dumps({
        "out": args.out, "wall_s": round(wall, 2),
        "n_docs": meta["n_docs"], "avgdl": round(meta["avgdl"], 3),
        "docs_per_sec": round(meta["n_docs"] / wall, 1) if wall else None,
        "dictionary_hash": meta["dictionary_hash"],
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
