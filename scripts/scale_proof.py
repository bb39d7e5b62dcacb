"""Scale proof: full distributed index build + query serving at N docs
(default 1M — 50x the driver-gate corpus, 5x the canonical scaling corpus).

Evidence for the 100-TB story that the sf0.1 bench cannot give: does the
streaming build hold its docs/s when the corpus no longer fits comfortably
in the object store working set, does the object store spill instead of
OOMing, and does query latency stay flat once the index is sharded on disk?

Usage:
    SCALE_DOCS=1000000 python scripts/scale_proof.py
Prints ONE JSON line; object_store_spilled_mb is null when the raylet log
cannot be read.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import _tree_cpu_seconds  # noqa: E402

SCALE_DOCS = int(os.environ.get("SCALE_DOCS", "1000000"))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
LINES = tuple(int(x) for x in os.environ.get(
    "BENCH_DOC_LINES", "20-50").split("-"))
PAGES_DIR = (f"/tmp/meili_ray_bench/pages_{SCALE_DOCS}"
             f"_L{LINES[0]}-{LINES[1]}")


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


def _spilled_mb() -> float | None:
    """MiB this session's object store spilled to disk, at least: the
    largest of the raylet's "Spilled N MiB" lines in logs/raylet.out, each a
    running total it logs only now and then (e.g. at 35, 83, 146 and
    268 MiB of one spilling build). 0.0 when it logged none, None when the
    log cannot be read (ray's memory_summary has the figure too, but needs
    grpc)."""
    import ray

    try:
        logs = ray._private.worker._global_node.get_logs_dir_path()
        with open(os.path.join(logs, "raylet.out"), errors="replace") as f:
            found = re.findall(r"Spilled (\d+) MiB", f.read())
    except (AttributeError, OSError):
        return None
    return float(max(map(int, found), default=0))


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from meilisearch_thai_ray.config import EngineConfig
    from meilisearch_thai_ray.fixtures.pages import write_pages_parquet
    from meilisearch_thai_ray.fixtures.queries import QUERY_FIXTURES
    from meilisearch_thai_ray.index.build import build_index
    from meilisearch_thai_ray.index.search import SearchEngine

    t0 = time.perf_counter()
    write_pages_parquet(PAGES_DIR, SCALE_DOCS, rows_per_file=2000,
                        lines_range=LINES, parallel=True)
    gen_sec = time.perf_counter() - t0
    corpus_bytes = _dir_bytes(PAGES_DIR)

    # warm the worker pool (same rationale as bench.py)
    def _warm(batch):
        import polars  # noqa: F401

        from meilisearch_thai_ray.stages.extract_tokenize import (  # noqa: F401
            ExtractTokenize,
        )

        return batch

    rd.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 4).map_batches(
        _warm, batch_size=1).materialize()

    out = f"/tmp/meili_ray_bench/index_scale_{SCALE_DOCS}"
    shutil.rmtree(out, ignore_errors=True)
    cfg = EngineConfig(num_shards=32)
    cpu0 = _tree_cpu_seconds()
    b0 = time.perf_counter()
    build_index(PAGES_DIR, out, cfg, num_salts=2, batch_size=512)
    build_sec = time.perf_counter() - b0
    eff_cores = (_tree_cpu_seconds() - cpu0) / build_sec

    # object-store spill evidence: a streaming build should spill, not OOM
    spilled_mb = _spilled_mb()

    eng = SearchEngine(out)
    eng.warm()
    lat = []
    for _ in range(3):
        for q in QUERY_FIXTURES:
            s0 = time.perf_counter()
            eng.search(q["query"], k=10)
            lat.append(time.perf_counter() - s0)
    lat.sort()

    print(json.dumps({
        "metric": f"scale_proof_index_build_{SCALE_DOCS}_docs",
        "value": round(build_sec, 3), "unit": "sec",
        "docs": SCALE_DOCS,
        "corpus_mb": round(corpus_bytes / 1e6, 1),
        "corpus_gen_sec": round(gen_sec, 2),
        "docs_per_sec": round(SCALE_DOCS / build_sec, 1),
        "effective_cores": round(eff_cores, 2),
        "index_mb": round(_dir_bytes(out) / 1e6, 1),
        "object_store_spilled_mb": spilled_mb,
        "query_p50_ms": round(lat[len(lat) // 2] * 1000, 2),
        "query_p95_ms": round(lat[int(len(lat) * 0.95)] * 1000, 2),
        "query_p99_ms": round(
            lat[min(len(lat) - 1, int(len(lat) * 0.99))] * 1000, 2),
        "num_cpus": NUM_CPUS,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
