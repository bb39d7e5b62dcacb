"""Crawl-cycle scale proof: archive -> CDX -> ZipNum -> revisit re-crawl
at N pages (default 200,000 — the canonical scaling corpus, ~0.6 GB of
HTML), 32 CPUs, fresh session.

Evidence the sf0.1 demos cannot give: what the web-archive half of the
engine costs at real volume — archive write throughput, CDX build over
multi-hundred-file archives, the two-level index's summary:rows ratio,
random-access latency through ZipNum, and the storage a revisit re-crawl
actually saves when ~90% of pages are unchanged (the Common Crawl / IA
regime).

The corpus is the deterministic bench corpus (cached); the change rule is
url-hash arithmetic (no RNG). Prints ONE JSON line.

Usage:
    CRAWL_PAGES=200000 python scripts/scale_proof_crawl.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_PAGES = int(os.environ.get("CRAWL_PAGES", "200000"))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
WORK = f"/tmp/meili_ray_bench/crawl_cycle_{N_PAGES}"


def _dir_mb(path: str) -> float:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _d, fs in os.walk(path) for f in fs) / 2 ** 20


def main() -> None:
    import numpy as np  # noqa: F401
    import pyarrow as pa
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data as rd

    from meilisearch_thai_ray.fixtures.pages import write_pages_parquet
    from meilisearch_thai_ray.functions.hashing import fnv1a64
    from meilisearch_thai_ray.sources.warc import (cdx_index_warc_dir,
                                                   read_warc_record_at,
                                                   write_warc_pages,
                                                   write_warc_pages_revisit)
    from meilisearch_thai_ray.sources.zipnum import (zipnum_lookup,
                                                     zipnum_write)

    # the canonical bench corpus layout (cached across runs)
    pages_dir = f"/tmp/meili_ray_bench/pages_{N_PAGES}_L20-50"
    write_pages_parquet(pages_dir, N_PAGES, rows_per_file=2000,
                        lines_range=(20, 50), parallel=True)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK, exist_ok=True)
    pages = rd.read_parquet(pages_dir, columns=["url", "html"])

    out: dict = {"metric": f"crawl_cycle_{N_PAGES}_pages", "unit": "sec",
                 "num_cpus": NUM_CPUS}

    # ---- crawl 1: archive write
    dir_a = os.path.join(WORK, "crawl1")
    t0 = time.perf_counter()
    man_a = write_warc_pages(pages, dir_a)
    t_archive = time.perf_counter() - t0
    bytes_a = sum(m["n_bytes"] for m in man_a)
    out["archive_write_sec"] = round(t_archive, 3)
    out["archive_pages_per_sec"] = round(N_PAGES / t_archive, 1)
    out["archive_mb"] = round(bytes_a / 2 ** 20, 1)
    out["archive_files"] = len(man_a)

    # ---- CDX + ZipNum over crawl 1
    t0 = time.perf_counter()
    cdx_a = cdx_index_warc_dir(dir_a).materialize()
    t_cdx = time.perf_counter() - t0
    out["cdx_build_sec"] = round(t_cdx, 3)
    zn_dir = os.path.join(WORK, "zipnum")
    t0 = time.perf_counter()
    summary = zipnum_write(cdx_a, zn_dir, lines_per_block=3000)
    t_zn = time.perf_counter() - t0
    out["zipnum_build_sec"] = round(t_zn, 3)
    out["zipnum_blocks"] = summary.num_rows
    out["zipnum_summary_to_rows_ratio"] = round(
        summary.num_rows / N_PAGES, 6)

    # ---- random access through the two-level index (100 probes)
    urls = [r["url"] for r in cdx_a.take(5000)][::50][:100]
    from meilisearch_thai_ray.kernel.cdx import surt

    t0 = time.perf_counter()
    n_found = 0
    for u in urls:
        rows = zipnum_lookup(summary, zn_dir, surt(u))
        for r in rows:
            ru, body = read_warc_record_at(
                os.path.join(dir_a, r["filename"]), r["offset"],
                r["length"])
            n_found += int(ru == u and len(body) > 0)
    t_probe = time.perf_counter() - t0
    assert n_found == len(urls), (n_found, len(urls))
    out["zipnum_probe_ms_avg"] = round(1000 * t_probe / len(urls), 2)

    # ---- WAT companion build over crawl 1 (one streaming task per
    # archive: parse every response record with the index's link/title
    # kernels, write the metadata sibling) + read-back row count
    from meilisearch_thai_ray.sources.wat import build_wat, read_wat_pages

    wat_dir = os.path.join(WORK, "wat")
    t0 = time.perf_counter()
    man_w = build_wat(dir_a, wat_dir)
    t_wat = time.perf_counter() - t0
    n_wat = sum(m["n_records"] for m in man_w)
    assert n_wat == N_PAGES, (n_wat, N_PAGES)
    out["wat_build_sec"] = round(t_wat, 3)
    out["wat_pages_per_sec"] = round(N_PAGES / t_wat, 1)
    out["wat_mb"] = round(sum(m["n_bytes"] for m in man_w) / 2 ** 20, 1)
    t0 = time.perf_counter()
    n_rows = read_wat_pages(wat_dir).count()
    out["wat_read_sec"] = round(time.perf_counter() - t0, 3)
    assert n_rows == N_PAGES

    # ---- crawl 2: ~10% of pages change (high-bit url-hash rule — the
    # LOW bits of fnv1a are position-biased on these urls), revisit sink.
    # Changed pages get SUBSTANTIALLY new content (Jaccard << threshold vs
    # the original) carrying a searchable marker, so the refresh stage
    # below genuinely accepts them instead of near-dup-dropping them.
    def _changed_url(u: str) -> bool:
        return (fnv1a64(u) >> 17) % 10 == 0

    def mutate(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        new = []
        for u, h in zip(urls, htmls):
            if _changed_url(u):
                h = fnv1a64(u)
                # per-page-distinct tokens: changed pages must not near-dup
                # each OTHER, or the refresh stage drops them as new-new dups
                body = " ".join(
                    f"fresh content tok{(h >> (i % 48)) % 9973}x{i} "
                    f"for page {u[-8:]}" for i in range(30))
                new.append(
                    f"<html><body><p>rev2marker {body}</p>"
                    f"</body></html>".encode())
            else:
                new.append(h)
        return pa.table({"url": pa.array(urls, pa.string()),
                         "html": pa.array(new, pa.binary())})

    pages2 = pages.map_batches(mutate, batch_format="pyarrow",
                               batch_size=1024)
    dir_b = os.path.join(WORK, "crawl2")
    t0 = time.perf_counter()
    man_b = write_warc_pages_revisit(pages2, dir_b, cdx_a, mode="auto")
    t_rev = time.perf_counter() - t0
    n_resp = sum(m["n_response"] for m in man_b)
    n_rev = sum(m["n_revisit"] for m in man_b)
    bytes_b = sum(m["n_bytes"] for m in man_b)
    assert n_resp + n_rev == N_PAGES
    out["recrawl_write_sec"] = round(t_rev, 3)
    out["recrawl_pages_per_sec"] = round(N_PAGES / t_rev, 1)
    out["recrawl_changed_fraction"] = round(n_resp / N_PAGES, 4)
    out["recrawl_mb"] = round(bytes_b / 2 ** 20, 1)
    out["recrawl_bytes_vs_full"] = round(bytes_b / bytes_a, 4)
    # auto mode shards the prior digest map above the documented row
    # threshold — report the mode the sink ACTUALLY took (shard layout on
    # disk), not a re-derivation of its threshold rule
    shards_dir = os.path.normpath(dir_b) + ".prior_shards"
    out["revisit_mode"] = ("sharded" if os.path.isdir(shards_dir)
                           else "broadcast")
    out["revisit_prior_shards"] = (len(os.listdir(shards_dir))
                                   if os.path.isdir(shards_dir) else 0)

    # ---- staleness frontier from the two generations: the revisit sink
    # already decided per-url change (record_type), so the frontier is ONE
    # small keyed exchange over CDX rows — per-host change counts -> Poisson
    # p_stale priority, no page bytes move
    from urllib.parse import urlparse

    from meilisearch_thai_ray.sources.warc import cdx_index_warc_dir as _cdx
    from meilisearch_thai_ray.stages.runs import sum_by_int_key

    t0 = time.perf_counter()
    cdx_b = _cdx(dir_b)

    def host_rows(batch: pa.Table) -> pa.Table:
        # fnv1a64 is unsigned 64-bit; mask into int64 range for the keyed sum
        hs = [fnv1a64(urlparse(u).netloc) & 0x7FFFFFFFFFFFFFFF
              for u in batch["url"].to_pylist()]
        ch = [int(rt == "response")
              for rt in batch["record_type"].to_pylist()]
        import numpy as _np
        h = _np.asarray(hs, dtype=_np.int64)
        c = _np.asarray(ch, dtype=_np.int64)
        # pack (changed, total) into one value: total in low 32 bits
        return pa.table({"host_h": pa.array(_np.concatenate([h, h])),
                         "v": pa.array(_np.concatenate(
                             [c << 32, _np.ones_like(c)]))})

    agg = sum_by_int_key(
        cdx_b.map_batches(host_rows, batch_format="pyarrow",
                          batch_size=65536),
        "host_h", "v", out_col="packed").materialize()
    import numpy as np2

    packed = np2.concatenate(
        [b["packed"].to_numpy(zero_copy_only=False)
         for b in agg.iter_batches(batch_format="pyarrow")])
    n_changed = int((packed >> 32).sum())
    n_total = int((packed & 0xFFFFFFFF).sum())
    t_frontier = time.perf_counter() - t0
    assert n_changed == n_resp, (n_changed, n_resp)
    assert n_total == N_PAGES
    rates = (packed >> 32) / (packed & 0xFFFFFFFF)
    out["frontier_sec"] = round(t_frontier, 3)
    out["frontier_hosts"] = int(packed.size)
    out["frontier_changed_urls"] = n_changed
    out["frontier_host_rate_max"] = round(float(rates.max()), 4)

    # ---- continuous-crawl composite: cold index from crawl 1 + corpus
    # sketch, then refresh_index_from_archive over crawl 2 — unchanged
    # pages drop as exact dups, changed pages land in a delta generation,
    # and the SERVED engine must find their new content
    from meilisearch_thai_ray.config import EngineConfig
    from meilisearch_thai_ray.index.build import build_index
    from meilisearch_thai_ray.index.incremental import GenerationalEngine
    from meilisearch_thai_ray.pipelines.crawl_refresh import (
        init_corpus_sketch, refresh_index_from_archive)

    idx_dir = os.path.join(WORK, "index")
    mh_dir = os.path.join(WORK, "mh")
    t0 = time.perf_counter()
    build_index(pages_dir, idx_dir, EngineConfig(num_shards=32),
                num_salts=2, batch_size=512)
    init_corpus_sketch(idx_dir, mh_dir)
    t_cold = time.perf_counter() - t0
    out["cold_index_plus_sketch_sec"] = round(t_cold, 3)

    t0 = time.perf_counter()
    metrics = refresh_index_from_archive(
        idx_dir, dir_b, mh_dir, os.path.join(WORK, "refresh_work"))
    t_refresh = time.perf_counter() - t0
    out["refresh_sec"] = round(t_refresh, 3)
    out["refresh_pages_per_sec"] = round(N_PAGES / t_refresh, 1)
    out["refresh_accepted"] = metrics["accepted"]

    ge = GenerationalEngine(idx_dir)
    hits = ge.search("rev2marker", k=10)
    assert hits, "served generation must surface re-crawled content"
    out["served_generation_hits"] = len(hits)
    out["served_generation_check"] = "rev2marker query hits accepted docs"

    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
