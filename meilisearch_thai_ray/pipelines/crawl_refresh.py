"""Continuous-crawl ingestion: archive -> cleaned pages -> dedup vs the
living corpus -> incremental index generation, end to end.

The composite a web-scale engine actually runs on every crawl snapshot,
built entirely from this repo's existing stages:

  1. ARCHIVE READ   — streaming WARC/WET parse, dead-letter rows for
                      corrupt records (sources/warc.py).
  2. URL DEDUP      — canonicalization + host rules + keys-only
                      canonical-url dedup (stages/url_filter.py); html
                      never rides an exchange.
  3. EXTRACT ONCE   — the same ExtractTokenize stage the index build
                      uses; the crawl's docs stage to parquet so the
                      near-dup verify and the sketch absorb read texts
                      from disk, not from a recomputation.
  4. NEAR-DUP vs CORPUS — the persisted MinHash band index
                      (dedup_pipelines.write/absorb/prune lifecycle):
                      only the NEW crawl is sketched; candidates touch
                      the new-id set (membership contract — url-hash
                      doc_ids carry no ordering); exact duplicates are
                      J=1.0 and fall out of the same pass. Policy:
                      corpus wins over new; among new-new dups the
                      smallest doc_id wins.
  5. DELTA GENERATION — accepted pages ingest via
                      index/incremental.add_documents (resumable phased
                      build, served generationally), and their band rows
                      absorb into the sketch index so the NEXT crawl
                      dedups against corpus + this one.

Scale notes: every stage is a Dataset transform or an existing
keys-only/broadcast idiom; the only driver-side materialization is the
accepted-id set (bounded by the crawl size, and the same broadcast
contract as anti_id_filter). add_documents re-extracts the accepted
pages inside its own resumable build — the double extraction is the
price of reusing the audited ingest path unchanged; at crawl scale the
dropped-duplicate fraction extraction saves usually exceeds it.

Reference analog: the reference's ingest validates + skips duplicates
per document batch before indexing (document_processor.py:25-57,
319-343); this pipeline is that gate at crawl-archive scale with the
dedup state persisted between crawls.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..config import EngineConfig
from ..stages.url_filter import HostRules, dedup_canonical_urls


def init_corpus_sketch(index_dir: str, mh_index_dir: str,
                       preset: str = "strict") -> None:
    """Build the persisted MinHash band index from an EXISTING index's
    docs table (one-time; later crawls absorb into it incrementally)."""
    from .dedup_pipelines import write_minhash_index

    docs = ray.data.read_parquet(os.path.join(index_dir, "docs"),
                                 columns=["doc_id", "text"])
    write_minhash_index(docs, mh_index_dir, preset=preset)


def refresh_index_from_archive(index_dir: str, archive_path: str,
                               mh_index_dir: str, work_dir: str, *,
                               record_types: tuple = ("response",),
                               rules: HostRules | None = None,
                               robots_map: dict[str, str] | None = None,
                               robots_agent: str = "graftbot",
                               threshold: float = 0.8,
                               preset: str = "strict",
                               config: EngineConfig | None = None,
                               batch_size: int = 256) -> dict:
    """One crawl snapshot in, one served index generation out. Returns a
    metrics dict (per-stage row counts + the generation dir); resumable
    at the add_documents step (its phased manifest), idempotent at the
    dedup steps (a re-run of an already-absorbed crawl drops everything
    as duplicates)."""
    from ..index.incremental import _base_config, add_documents
    from ..stages.extract_tokenize import extract_tokenize_fn
    from .dedup_pipelines import (absorb_minhash_index,
                                  incremental_minhash_pairs)

    if config is None:  # tokenize exactly like the base index did
        with open(os.path.join(index_dir, "meta.json")) as f:
            config = _base_config(json.load(f))
    cfg = config
    os.makedirs(work_dir, exist_ok=True)
    metrics: dict = {}

    # 1-2. archive -> pages -> canonical-url dedup; stage to parquet (the
    # accepted-page re-select and add_documents both need a stable source)
    from ..sources.warc import read_warc_pages

    pages = read_warc_pages(archive_path, record_types=record_types)
    deduped = dedup_canonical_urls(pages, rules or HostRules())
    if robots_map:  # politeness gate BEFORE extraction spend (host ->
        # robots.txt text; RFC 9309 semantics, parsed once per worker;
        # pages_after_url_dedup below counts the post-robots survivors)
        from ..stages.url_filter import RobotsGate

        deduped = deduped.map_batches(
            RobotsGate, batch_format="pyarrow", batch_size=4096,
            fn_constructor_args=(ray.put(robots_map), robots_agent),
            concurrency=2)
    pages_dir = os.path.join(work_dir, "pages")
    if not (os.path.isdir(pages_dir) and os.listdir(pages_dir)):
        deduped.drop_columns(["canon_url", "host", "url_h"]).write_parquet(
            pages_dir)
    staged = ray.data.read_parquet(pages_dir)
    metrics["pages_after_url_dedup"] = staged.count()

    # 3. extract once -> crawl docs parquet (texts for verify + absorb)
    import functools

    docs_dir = os.path.join(work_dir, "docs")
    if not (os.path.isdir(docs_dir) and os.listdir(docs_dir)):
        staged.map_batches(
            functools.partial(extract_tokenize_fn, config=cfg),
            batch_format="pyarrow", batch_size=batch_size,
        ).filter(expr="status != 'failed'").select_columns(
            ["doc_id", "url", "text"]).write_parquet(docs_dir)
    crawl_docs = ray.data.read_parquet(docs_dir)
    id_url = pa.concat_tables(
        ray.get(ray.data.read_parquet(
            docs_dir, columns=["doc_id", "url"]).to_arrow_refs()))
    new_ids = id_url["doc_id"].to_numpy(zero_copy_only=False).astype(
        np.int64)
    metrics["docs_extracted"] = len(new_ids)

    # 4. near-dup (and exact-dup, J=1.0) vs the persisted corpus sketch.
    # Verify texts come from base docs + every COMPLETED delta generation
    # (prior crawls' accepted docs live there, and their band rows are in
    # the sketch) + this crawl.
    from ..index.incremental import _gen_dirs

    corpus_docs = [os.path.join(index_dir, "docs")] + [
        os.path.join(g, "docs") for g in _gen_dirs(index_dir)]
    pairs = incremental_minhash_pairs(
        crawl_docs.select_columns(["doc_id", "text"]), mh_index_dir,
        corpus_docs + [docs_dir],
        new_ids=new_ids, threshold=threshold, preset=preset)
    new_set = set(int(x) for x in new_ids)
    drop: set[int] = set()
    for a, b in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()):
        a_new, b_new = a in new_set, b in new_set
        if a_new and b_new:           # new-new: smallest doc_id wins
            drop.add(max(a, b))
        elif a_new:
            drop.add(a)               # corpus wins over new
        elif b_new:
            drop.add(b)
    accepted = np.array(sorted(new_set - drop), dtype=np.int64)
    metrics["near_dup_dropped"] = len(drop)
    metrics["accepted"] = len(accepted)

    gen_dir = None
    if len(accepted):
        # 5a. accepted PAGES re-selected by url (pages carry no doc_id;
        # doc_id = hash(url) is the build's own convention)
        acc_set = set(int(x) for x in accepted)
        acc_urls = [u for d, u in zip(id_url["doc_id"].to_pylist(),
                                      id_url["url"].to_pylist())
                    if d in acc_set]
        urls_ref = ray.put(set(acc_urls))

        def _keep_pages(batch: pa.Table) -> pa.Table:
            keep_urls = ray.get(urls_ref)
            mask = [u in keep_urls for u in batch["url"].to_pylist()]
            return batch.filter(pa.array(mask, pa.bool_()))

        acc_pages_dir = os.path.join(work_dir, "accepted_pages")
        if not (os.path.isdir(acc_pages_dir) and os.listdir(acc_pages_dir)):
            staged.map_batches(_keep_pages, batch_format="pyarrow",
                               batch_size=1024).write_parquet(acc_pages_dir)
        gen_dir = add_documents(index_dir, acc_pages_dir, config=cfg,
                                batch_size=batch_size)
        # 5b. absorb the accepted docs' band rows (idempotence marker keyed
        # by the generation, so a re-run never double-absorbs; SIBLING of
        # the index dir — the index dir must stay parquet-only)
        marker = (mh_index_dir.rstrip("/")
                  + f"_absorbed_{os.path.basename(gen_dir)}.json")
        if not os.path.exists(marker):
            absorb_minhash_index(
                mh_index_dir,
                crawl_docs.select_columns(["doc_id", "text"]),
                accept_ids=accepted, preset=preset)
            with open(marker, "w") as f:
                json.dump({"accepted": len(accepted)}, f)
    metrics["generation"] = gen_dir
    return metrics


# ----------------------------------------------------- driver demo entry

_DEMO_BASE_DOCS = 200   # base corpus = first N documents (by doc_id order)
_DEMO_NEW = 60          # brand-new pages in the crawl
_DEMO_RECRAWL = 20      # near-dup re-crawls of base pages
_CACHE_ROOT = "/tmp/meili_ray_cache"


def _demo_rows(sf_dir: str):
    """Deterministic (url, text) rows for the demo base corpus and crawl,
    derived from the documents table (no synthesized data sources)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    t = pads.dataset(os.path.join(sf_dir, "documents.parquet")).to_table(
        columns=["doc_id", "text"])
    order = pc.sort_indices(t, sort_keys=[("doc_id", "ascending")])
    t = t.take(order).slice(0, _DEMO_BASE_DOCS + _DEMO_NEW)
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    # tiny corpora: keep ~3/4 as base, the rest as the crawl
    base_n = min(_DEMO_BASE_DOCS, max(2, (len(ids) * 3) // 4))
    base = [(f"https://demo.crawl/{d}", x)
            for d, x in zip(ids[:base_n], texts[:base_n])]
    crawl = [(f"https://demo.crawl/{d}", x)
             for d, x in zip(ids[base_n:], texts[base_n:])]
    # re-crawls: every 10th base page re-fetched under a fresh url with a
    # small edit -> must drop against the corpus sketch
    for u, x in base[::10][:_DEMO_RECRAWL]:
        crawl.append((u + "?recrawl=1&utm_source=feed",
                      x + " minor update"))
    return base, crawl


def _demo_warc(records) -> bytes:
    out = []
    for url, text in records:
        body = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
                + f"<p>{text}</p>".encode())
        head = (f"WARC/1.0\r\nWARC-Type: response\r\n"
                f"WARC-Target-URI: {url}\r\n"
                f"Content-Length: {len(body)}\r\n").encode()
        out.append(head + b"\r\n" + body + b"\r\n\r\n")
    return b"".join(out)


def crawl_refresh_demo(sf_dir: str) -> pa.Table:
    """S8 — the continuous-crawl composite as a driver query (rows-only:
    index mutation is not SQL-expressible; the e2e drop/serve behavior is
    pytest-verified). Base corpus + crawl derive deterministically from
    the documents table; the cached base (index + sketch) is COPIED per
    call so the query never mutates shared state. Returns the per-stage
    metrics row the pipeline reports."""
    import gzip
    import hashlib
    import shutil
    import tempfile

    from .simple_text import input_fingerprint
    from ..index.build import build_index
    from ..index.codec import INDEX_FORMAT

    base_rows, crawl_rows = _demo_rows(sf_dir)
    fp = hashlib.md5((input_fingerprint(
        os.path.join(sf_dir, "documents.parquet")) + "crawlref-v1"
        + f"-f{INDEX_FORMAT}").encode()
    ).hexdigest()[:10]
    cache = os.path.join(_CACHE_ROOT, f"crawlref_base_{fp}")
    cfg = EngineConfig(num_shards=4)
    if not os.path.exists(os.path.join(cache, "index", "meta.json")):
        tmp = cache + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        pages = os.path.join(tmp, "pages")
        os.makedirs(pages, exist_ok=True)
        import pyarrow.parquet as pq

        pq.write_table(pa.table({
            "url": pa.array([u for u, _ in base_rows], pa.string()),
            "html": pa.array([f"<p>{x}</p>".encode() for _, x in base_rows],
                             pa.binary()),
            "lang": pa.array([""] * len(base_rows), pa.string()),
        }), os.path.join(pages, "p.parquet"))
        build_index(pages, os.path.join(tmp, "index"), cfg,
                    num_salts=2, batch_size=128)
        init_corpus_sketch(os.path.join(tmp, "index"),
                           os.path.join(tmp, "mh"))
        if os.path.exists(cache):
            shutil.rmtree(tmp)
        else:
            os.rename(tmp, cache)

    work = tempfile.mkdtemp(prefix="crawlref_run_", dir="/tmp")
    idx = os.path.join(work, "index")
    mh = os.path.join(work, "mh")
    shutil.copytree(os.path.join(cache, "index"), idx)
    shutil.copytree(os.path.join(cache, "mh"), mh)
    arch = os.path.join(work, "crawl")
    os.makedirs(arch, exist_ok=True)
    with open(os.path.join(arch, "c.warc.gz"), "wb") as f:
        f.write(gzip.compress(_demo_warc(crawl_rows)))

    m = refresh_index_from_archive(idx, arch, mh,
                                   os.path.join(work, "work"),
                                   threshold=0.8, config=cfg)
    from ..index.incremental import GenerationalEngine

    n_docs = GenerationalEngine(idx).n_docs
    shutil.rmtree(work, ignore_errors=True)
    return pa.table({
        "pages_after_url_dedup": pa.array(
            [m["pages_after_url_dedup"]], pa.int64()),
        "docs_extracted": pa.array([m["docs_extracted"]], pa.int64()),
        "near_dup_dropped": pa.array([m["near_dup_dropped"]], pa.int64()),
        "accepted": pa.array([m["accepted"]], pa.int64()),
        "served_docs": pa.array([n_docs], pa.int64()),
    })


def cdx_index_demo(sf_dir: str):
    """S10 — CDX index over a WARC export of the documents table (rows-only:
    byte offsets are not SQL-expressible; the random-access contract —
    offset/length fetch one record whose payload round-trips byte-identically
    — is pytest-verified in test_warc_sink.py).

    Composite: documents -> deterministic pages -> write_warc_pages (one
    member-per-record .warc.gz per block) -> distributed member split ->
    CDX rows sorted by SURT urlkey. The WARC export caches per input
    fingerprint so repeat calls only rebuild the index half."""
    import hashlib

    from ..sources.warc import cdx_index_warc_dir, write_warc_pages
    from .simple_text import input_fingerprint, read_parquet_clean

    doc_path = os.path.join(sf_dir, "documents.parquet")
    fp = hashlib.md5(
        (input_fingerprint(doc_path) + "cdxdemo-v1").encode()
    ).hexdigest()[:10]
    warc_dir = os.path.join(_CACHE_ROOT, f"cdx_warc_{fp}")
    if not os.path.isdir(warc_dir) or not any(
            f.endswith(".warc.gz") for f in os.listdir(warc_dir)):
        def _to_pages(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_pylist()
            texts = batch["text"].to_pylist()
            return pa.table({
                "url": pa.array(
                    [f"https://www.cdx{d % 7}.ex/p/{d}?b=2&a=1" for d in ids],
                    pa.string()),
                "html": pa.array(
                    [f"<p>{x}</p>".encode() for x in texts], pa.binary()),
            })

        docs = read_parquet_clean(doc_path, columns=["doc_id", "text"])
        write_warc_pages(
            docs.map_batches(_to_pages, batch_format="pyarrow",
                             batch_size=256),
            warc_dir, prefix="cdxdemo")
    return cdx_index_warc_dir(warc_dir)


def warc_revisit_demo(sf_dir: str):
    """S11 — revisit-record archive dedup across two crawls (WARC/1.1
    identical-payload-digest profile, sources/warc.py:RevisitWarcSink).

    Crawl A archives every document page; crawl B re-fetches the same
    urls with a planted change rule (doc_id % 7 < 2 -> content changed).
    B writes THROUGH the revisit sink against A's CDX digest map, so
    unchanged pages become header-only revisit records. The output is
    B's CDX reduced to (url, record_type) — SQL-verifiable because the
    change rule is arithmetic — and the byte-level resolution contract
    (every revisit resolves through A's CDX to the byte-identical
    original payload) is pytest-asserted in test_warc_sink.py.

    Page rule (restated by SQL["s11_warc_revisit"]):
      url  = https://rv{doc_id % 7}.example.th/p/{doc_id}
      A    = <p>{text}</p>;  B = <p>{text} v2</p> iff doc_id % 7 < 2
    """
    import hashlib
    import shutil

    from ..sources.warc import (cdx_index_warc_dir, write_warc_pages,
                                write_warc_pages_revisit)
    from .simple_text import input_fingerprint, read_parquet_clean

    doc_path = os.path.join(sf_dir, "documents.parquet")
    fp = hashlib.md5(
        (input_fingerprint(doc_path) + "revisit-v1").encode()
    ).hexdigest()[:10]

    def _pages(version: str):
        def _to(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_pylist()
            texts = batch["text"].to_pylist()
            htmls = []
            for d, x in zip(ids, texts):
                changed = version == "b" and d % 7 < 2
                htmls.append(
                    f"<p>{x} v2</p>".encode() if changed
                    else f"<p>{x}</p>".encode())
            return pa.table({
                "url": pa.array(
                    [f"https://rv{d % 7}.example.th/p/{d}" for d in ids],
                    pa.string()),
                "html": pa.array(htmls, pa.binary()),
            })
        return read_parquet_clean(
            doc_path, columns=["doc_id", "text"]).map_batches(
            _to, batch_format="pyarrow", batch_size=256)

    dir_a = os.path.join(_CACHE_ROOT, f"revisit_a_{fp}")
    dir_b = os.path.join(_CACHE_ROOT, f"revisit_b_{fp}")
    if not os.path.isdir(dir_a) or not any(
            f.endswith(".warc.gz") for f in os.listdir(dir_a)):
        write_warc_pages(_pages("a"), dir_a, prefix="rva")
    cdx_a = cdx_index_warc_dir(dir_a)
    shutil.rmtree(dir_b, ignore_errors=True)
    write_warc_pages_revisit(_pages("b"), dir_b, cdx_a, prefix="rvb")
    cdx_b = cdx_index_warc_dir(dir_b)
    return (cdx_b.select_columns(["url", "record_type"]).sort("url"))


SQL = {
    "s11_warc_revisit": """
SELECT 'https://rv' || (doc_id % 7) || '.example.th/p/' || doc_id AS url,
       CASE WHEN doc_id % 7 < 2 THEN 'response' ELSE 'revisit' END
           AS record_type
FROM documents
ORDER BY url
""",
}


def zipnum_demo(sf_dir: str):
    """S12 — ZipNum cluster index over the S10 CDX (rows-only: byte
    offsets are not SQL-expressible; lookup parity vs the flat CDX is
    pytest-asserted in test_warc_sink.py).

    Builds the two-level layout (sources/zipnum.py) over the cached S10
    WARC export and serves a deterministic probe set (every 50th doc)
    THROUGH it — each probe is one summary binary search + one ranged
    block read, the exact query path a 300 GB CDX needs."""
    import shutil

    import pyarrow.compute as pc

    from ..kernel.cdx import surt
    from ..sources.zipnum import zipnum_lookup, zipnum_write
    from .simple_text import read_parquet_clean

    cdx = cdx_index_demo(sf_dir)
    out_dir = os.path.join(_CACHE_ROOT, "zipnum_demo")
    shutil.rmtree(out_dir, ignore_errors=True)
    summary = zipnum_write(cdx, out_dir, lines_per_block=64)

    ids = read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).to_pandas()["doc_id"]
    probes = sorted(
        surt(f"https://www.cdx{d % 7}.ex/p/{d}?b=2&a=1")
        for d in ids if d % 50 == 0)
    rows = []
    for key in probes:
        rows.extend(zipnum_lookup(summary, out_dir, key))
    t = pa.Table.from_pylist(rows)
    order = pc.sort_indices(t, sort_keys=[("urlkey", "ascending")])
    return t.take(order).select(
        ["urlkey", "url", "record_type", "payload_len"])
