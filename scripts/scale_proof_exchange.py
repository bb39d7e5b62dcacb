"""Posting-exchange proof under a CONSTRAINED object store.

build_shards' exchange is Ray's sort-based groupby(part).map_groups, which
rides the object store. This proof forces the regime where one node's store
cannot hold the exchange and shows the shards phase still completes with
BYTE-IDENTICAL shard files to a build on the default store.

The docs phase runs once; then build_shards runs twice from those docs, each
in a fresh Ray session (subprocess):
  1. reference: default object store
  2. constrained: object_store_memory = OBJ_STORE_MB (default 256 MiB —
     about 4x smaller than the decoded posting exchange at 100k docs)
Then sha256 every shards/**.parquet in both and compare the full maps; any
difference exits non-zero.

Usage:
    EXCHANGE_DOCS=100000 OBJ_STORE_MB=256 RAY_GRAFT_CPUS=1 \
        python scripts/scale_proof_exchange.py
Prints ONE JSON line. At the defaults it takes about 4 minutes on 1 vCPU
(about 1.5 once the pages and docs are cached under /tmp/meili_ray_bench);
the raylet log (raylet.out) of the constrained session shows how much the
object store spilled to disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

N_DOCS = int(os.environ.get("EXCHANGE_DOCS", "100000"))
OBJ_MB = int(os.environ.get("OBJ_STORE_MB", "256"))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "1"))
LINES = (20, 50)
WORK = "/tmp/meili_ray_bench"
PAGES_DIR = f"{WORK}/pages_{N_DOCS}_L{LINES[0]}-{LINES[1]}"
DOCS_OUT = f"{WORK}/exchproof_docs_{N_DOCS}"

_CHILD = r"""
import json, shutil, sys, time
import ray
docs_dir, out, obj_mb, ncpu = (sys.argv[1], sys.argv[2], int(sys.argv[3]),
                               int(sys.argv[4]))
kw = {"object_store_memory": obj_mb << 20} if obj_mb else {}
ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
         logging_level="ERROR", **kw)
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.index.build import build_shards, compute_stats
cfg = EngineConfig(num_shards=32)
shutil.rmtree(out, ignore_errors=True)
meta = compute_stats(docs_dir, out, cfg)
t0 = time.perf_counter()
build_shards(docs_dir, out, cfg, meta, num_salts=2)
print(json.dumps({"wall_s": round(time.perf_counter() - t0, 2)}))
ray.shutdown()
"""


def _shard_hashes(out: str) -> dict[str, str]:
    hashes = {}
    root = os.path.join(out, "shards")
    for r, _d, fs in os.walk(root):
        for f in fs:
            if f.endswith(".parquet"):
                p = os.path.join(r, f)
                with open(p, "rb") as fh:
                    hashes[os.path.relpath(p, root)] = hashlib.sha256(
                        fh.read()).hexdigest()
    return hashes


def _dir_mib(path: str) -> float:
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path)) / (1 << 20)


def main() -> None:
    import ray
    import ray.data

    from meilisearch_thai_ray.config import EngineConfig
    from meilisearch_thai_ray.fixtures.pages import write_pages_parquet
    from meilisearch_thai_ray.index.build import build_docs

    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    write_pages_parquet(PAGES_DIR, N_DOCS, rows_per_file=2000,
                        lines_range=LINES, parallel=True)
    docs_dir = build_docs(PAGES_DIR, DOCS_OUT, EngineConfig(num_shards=32),
                          batch_size=512)
    ray.shutdown()

    def run(out: str, obj_mb: int) -> dict:
        r = subprocess.run(
            [sys.executable, "-c", _CHILD, docs_dir, out, str(obj_mb),
             str(NUM_CPUS)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=ROOT))
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-2000:] + r.stderr[-4000:])
            raise SystemExit(r.returncode)
        return json.loads(r.stdout.strip().splitlines()[-1])

    ref_out, con_out = f"{WORK}/exchproof_ref", f"{WORK}/exchproof_con"
    ref = run(ref_out, 0)
    con = run(con_out, OBJ_MB)
    h_ref, h_con = _shard_hashes(ref_out), _shard_hashes(con_out)
    identical = h_ref == h_con and len(h_ref) > 0
    print(json.dumps({
        "metric": f"exchange_constrained_shards_{N_DOCS}_docs",
        "value": con["wall_s"], "unit": "sec",
        "object_store_mb": OBJ_MB,
        "docs_table_mib": round(_dir_mib(docs_dir), 1),
        "reference_wall_s": ref["wall_s"],
        "constrained_wall_s": con["wall_s"],
        "n_shard_files": len(h_ref),
        "shards_byte_identical": identical,
        "total_wall_s": round(time.perf_counter() - t0, 2),
        "num_cpus": NUM_CPUS,
    }))
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
