"""WARC sink: pages Dataset -> .warc.gz archives, round-trip verified."""

import glob
import os

import pyarrow.dataset as pads
import pytest

from meilisearch_thai_ray.sources.warc import (
    read_warc_pages,
    write_warc_pages,
)


@pytest.fixture(scope="module")
def pages_dir(ray_session, tmp_path_factory):
    from meilisearch_thai_ray.fixtures.pages import write_pages_parquet

    d = str(tmp_path_factory.mktemp("sinkpages") / "pages")
    write_pages_parquet(d, 80, rows_per_file=40)
    return d


def test_warc_round_trip(pages_dir, tmp_path):
    import ray.data

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    out = str(tmp_path / "warcs")
    manifest = write_warc_pages(ds, out)
    assert sum(m["n_records"] for m in manifest) == 80
    assert all(os.path.exists(m["path"]) for m in manifest)
    # read back through the STREAMING source and compare (url -> html) maps
    back = read_warc_pages(out).to_pandas()
    orig = pads.dataset(pages_dir).to_table(
        columns=["url", "html"]).to_pandas()
    a = dict(zip(back["url"], back["html"]))
    b = dict(zip(orig["url"], orig["html"]))
    assert a == b  # byte-identical html per url, nothing lost or invented


def test_warc_sink_deterministic_and_atomic(pages_dir, tmp_path):
    import ray.data

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    out = str(tmp_path / "w1")
    write_warc_pages(ds, out)
    first = {p: open(p, "rb").read() for p in glob.glob(out + "/*.warc.gz")}
    # a re-run (resume after failure) must overwrite with identical bytes
    write_warc_pages(ds, out)
    second = {p: open(p, "rb").read() for p in glob.glob(out + "/*.warc.gz")}
    assert first == second
    assert not glob.glob(out + "/*.tmp")  # atomic: no partials left behind


def test_warc_date_carries_timestamp(pages_dir, tmp_path):
    import gzip

    import ray.data

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    out = str(tmp_path / "w2")
    manifest = write_warc_pages(ds, out)
    # gzip.decompress walks all concatenated members; headers are in member 1
    raw = gzip.decompress(open(manifest[0]["path"], "rb").read())
    head = raw.split(b"\r\n\r\n", 1)[0].decode()
    assert "WARC-Date: " in head
    # fixture warc_ts values are real timestamps, not the epoch default
    date = [ln for ln in head.splitlines()
            if ln.startswith("WARC-Date: ")][0][11:]
    assert date.endswith("Z") and date != "2026-01-01T00:00:00Z"


# ---------------------------------------------------------------- CDX index


def test_surt_kernel():
    from meilisearch_thai_ray.kernel.cdx import surt

    assert surt("https://www.Example.com/A/b?z=1&a=2") == \
        "com,example)/a/b?a=2&z=1"
    assert surt("http://example.com:80/") == "com,example)/"
    assert surt("http://example.com:8080/x") == "com,example:8080)/x"
    assert surt("https://sub.host.co.uk/Path") == "uk,co,host,sub)/path"
    assert surt("https://example.com") == "com,example)/"


def test_cdx_random_access_round_trip(pages_dir, tmp_path):
    """The CDX contract: every (offset, length) fetches exactly its record
    with ONE ranged read, byte-identical payload, correct urlkey order."""
    import ray.data

    from meilisearch_thai_ray.kernel.cdx import cdx_digest, surt
    from meilisearch_thai_ray.sources.warc import (cdx_index_warc_dir,
                                                   read_warc_record_at,
                                                   write_warc_pages)

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    out = str(tmp_path / "warcs")
    write_warc_pages(ds, out)

    cdx = cdx_index_warc_dir(out).to_pandas()
    orig = pads.dataset(pages_dir).to_table(
        columns=["url", "html"]).to_pandas()
    by_url = dict(zip(orig["url"], orig["html"]))
    assert len(cdx) == len(by_url)  # one row per record, none lost
    assert list(cdx["urlkey"]) == sorted(cdx["urlkey"])  # CDX order
    assert set(cdx["urlkey"]) == {surt(u) for u in by_url}

    for r in cdx.itertuples():  # EVERY record random-accesses cleanly
        url, body = read_warc_record_at(
            os.path.join(out, r.filename), r.offset, r.length)
        assert url == r.url
        assert body == by_url[r.url]
        assert cdx_digest(body) == r.digest


def test_cdx_demo_pipeline_runs(ray_session):
    from meilisearch_thai_ray.pipelines.crawl_refresh import cdx_index_demo

    t = cdx_index_demo("/root/testdata/sf0.001").to_pandas()
    assert len(t) == 500  # one row per document
    assert list(t.columns) == ["urlkey", "warc_ts", "url", "digest",
                               "offset", "length", "filename",
                               "record_type", "payload_len"]
    assert (t["record_type"] == "response").all()
    assert (t["payload_len"] > 0).all()
    # query params sorted by the SURT transform
    assert t["urlkey"].str.endswith("?a=1&b=2").all()


# ---- revisit records (identical-payload-digest archive dedup) ----

def test_revisit_sink_round_trip(pages_dir, tmp_path):
    """Crawl B against crawl A's CDX: unchanged pages become header-only
    revisit records; EVERY revisit resolves through A's CDX to the
    byte-identical original payload; changed pages read back directly."""
    import pyarrow as pa
    import ray.data

    from meilisearch_thai_ray.sources.warc import (
        cdx_index_warc_dir, read_warc_record_full, resolve_revisit,
        write_warc_pages_revisit)

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    dir_a = str(tmp_path / "a")
    write_warc_pages(ds, dir_a)
    cdx_a = cdx_index_warc_dir(dir_a)

    # crawl B: pages change on a URL-deterministic rule (the dataset is
    # lazy and re-executes with different batch splits per consumer, so
    # the rule must not depend on in-batch position)
    def mutate(batch: pa.Table) -> pa.Table:
        from meilisearch_thai_ray.functions.hashing import fnv1a64

        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        out = [h + b"<!-- v2 -->" if fnv1a64(u) % 3 == 0 else h
               for u, h in zip(urls, htmls)]
        return pa.table({"url": pa.array(urls, pa.string()),
                         "html": pa.array(out, pa.binary()),
                         "warc_ts": batch["warc_ts"]})

    pages_b = ds.map_batches(mutate, batch_format="pyarrow", batch_size=40)
    dir_b = str(tmp_path / "b")
    man = write_warc_pages_revisit(pages_b, dir_b, cdx_a)
    n_resp = sum(m["n_response"] for m in man)
    n_rev = sum(m["n_revisit"] for m in man)
    assert n_resp + n_rev == 80 and n_rev > 0 and n_resp > 0

    cdx_b = cdx_index_warc_dir(dir_b).to_pandas()
    assert set(cdx_b["record_type"]) == {"response", "revisit"}

    prior = {r["url"]: r for r in cdx_a.take_all()}
    # ONE to_pandas call: Ray Data does not preserve block order across
    # executions by default, so zipping columns from two separate
    # executions would pair urls with another run's htmls
    pdf = pages_b.to_pandas()
    want = {u: h for u, h in zip(pdf["url"], pdf["html"])}
    for r in cdx_b.itertuples():
        rec = read_warc_record_full(
            os.path.join(dir_b, r.filename), r.offset, r.length)
        body = resolve_revisit(rec, prior, dir_a)
        assert body == want[r.url], r.url
        if r.record_type == "revisit":
            assert rec["body"] == b""  # header-only by profile


def test_revisit_sink_storage_savings(pages_dir, tmp_path):
    """An unchanged re-crawl must archive MUCH smaller than the original
    (the whole point): revisit members carry headers only."""
    import ray.data

    from meilisearch_thai_ray.sources.warc import (
        cdx_index_warc_dir, write_warc_pages_revisit)

    import pyarrow as pa

    # inflate payloads with INCOMPRESSIBLE deterministic bytes so record
    # bytes dominate gzip/member overhead — the regime the feature exists
    # for (fixture pages are ~0.5 KB and repeated content gzips away,
    # so per-member header overhead would hide the savings)
    import hashlib

    def fatten(batch: pa.Table) -> pa.Table:
        blobs = []
        for u in batch["url"].to_pylist():
            seed, parts = u.encode(), []
            for _ in range(200):
                seed = hashlib.sha256(seed).digest()
                parts.append(seed)
            blobs.append(b"".join(parts))
        return pa.table({
            "url": batch["url"],
            "html": pa.array(blobs, pa.binary()),
            "warc_ts": batch["warc_ts"]})

    ds = ray.data.read_parquet(
        pages_dir, columns=["url", "html", "warc_ts"]).map_batches(
        fatten, batch_format="pyarrow", batch_size=40)
    dir_a = str(tmp_path / "a")
    man_a = write_warc_pages(ds, dir_a)
    bytes_a = sum(m["n_bytes"] for m in man_a)
    man_b = write_warc_pages_revisit(
        ds, str(tmp_path / "b"), cdx_index_warc_dir(dir_a))
    assert sum(m["n_revisit"] for m in man_b) == 80
    assert sum(m["n_bytes"] for m in man_b) < 0.1 * bytes_a


def test_revisit_digest_mismatch_raises(pages_dir, tmp_path):
    """A corrupted prior archive must fail loudly at resolution, never
    silently hand back the wrong payload."""
    import pytest as _pytest
    import ray.data

    from meilisearch_thai_ray.sources.warc import (
        cdx_index_warc_dir, read_warc_record_full, resolve_revisit,
        write_warc_pages_revisit)

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    dir_a = str(tmp_path / "a")
    write_warc_pages(ds, dir_a)
    cdx_a = cdx_index_warc_dir(dir_a)
    dir_b = str(tmp_path / "b")
    write_warc_pages_revisit(ds, dir_b, cdx_a)
    rows_b = cdx_index_warc_dir(dir_b).take_all()
    rev = next(r for r in rows_b if r["record_type"] == "revisit")
    rec = read_warc_record_full(
        os.path.join(dir_b, rev["filename"]), rev["offset"], rev["length"])
    prior = {r["url"]: r for r in cdx_a.take_all()}
    # point the revisit at a DIFFERENT prior record -> digest mismatch
    other = next(r for r in cdx_a.take_all()
                 if r["url"] != rec["url"])
    broken = dict(prior)
    broken[rec["url"]] = other
    with _pytest.raises(ValueError, match="digest mismatch"):
        resolve_revisit(rec, broken, dir_a)


def test_revisit_sharded_matches_broadcast(pages_dir, tmp_path):
    """The fleet-width sharded sink (prior CDX as url_h-partitioned parquet
    slices, pages routed by the SAME url_h key, per-actor LRU of shard
    slices) must produce byte-identical RECORDS to the broadcast form on a
    planted two-crawl archive — only the file packing may differ (batch
    boundaries follow the route). VERDICT r4 item #1."""
    import pyarrow as pa
    import ray.data

    from meilisearch_thai_ray.sources.warc import (
        cdx_index_warc_dir, iter_warc_gzip_members, write_warc_pages_revisit)

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    dir_a = str(tmp_path / "a")
    write_warc_pages(ds, dir_a)
    cdx_a = cdx_index_warc_dir(dir_a)

    def mutate(batch: pa.Table) -> pa.Table:
        from meilisearch_thai_ray.functions.hashing import fnv1a64

        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        out = [h + b"<!-- v2 -->" if fnv1a64(u) % 3 == 0 else h
               for u, h in zip(urls, htmls)]
        return pa.table({"url": pa.array(urls, pa.string()),
                         "html": pa.array(out, pa.binary()),
                         "warc_ts": batch["warc_ts"]})

    pages_b = ds.map_batches(mutate, batch_format="pyarrow", batch_size=16)

    def records_of(d):
        recs = []
        for p in sorted(glob.glob(os.path.join(d, "*.warc.gz"))):
            for _off, _ln, rec in iter_warc_gzip_members(p):
                recs.append(rec)
        return sorted(recs)

    dir_bc = str(tmp_path / "bc")
    man_bc = write_warc_pages_revisit(pages_b, dir_bc, cdx_a,
                                      mode="broadcast")
    dir_sh = str(tmp_path / "sh")
    # small cache (2 < 8 shards) so the LRU eviction path actually runs
    man_sh = write_warc_pages_revisit(pages_b, dir_sh, cdx_a,
                                      mode="sharded", num_shards=8)
    assert sum(m["n_revisit"] for m in man_sh) == \
        sum(m["n_revisit"] for m in man_bc) > 0
    assert sum(m["n_response"] for m in man_sh) == \
        sum(m["n_response"] for m in man_bc) > 0
    assert records_of(dir_sh) == records_of(dir_bc)  # byte-identical records
    # the sharded prior map landed as url_h-partitioned parquet slices
    # beside the archive dir, which holds archives only
    shard_dirs = glob.glob(os.path.join(dir_sh + ".prior_shards", "shard=*"))
    assert len(shard_dirs) > 1
    assert all(f.endswith(".warc.gz") for f in os.listdir(dir_sh))
    # auto mode at this (tiny) map size stays broadcast: documented threshold
    dir_auto = str(tmp_path / "auto")
    write_warc_pages_revisit(pages_b, dir_auto, cdx_a, mode="auto")
    assert not os.path.isdir(dir_auto + ".prior_shards")
    assert records_of(dir_auto) == records_of(dir_bc)


def test_shard_prior_cdx_clears_stale_layout(pages_dir, tmp_path):
    """Re-sharding into the same dir (new prior generation, possibly a
    different shard count) must fully replace the old layout — stale
    uuid-named files would poison lookups with old-generation digests."""
    import ray.data

    from meilisearch_thai_ray.sources.warc import (
        cdx_index_warc_dir, shard_prior_cdx)

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    dir_a = str(tmp_path / "a")
    write_warc_pages(ds, dir_a)
    cdx = cdx_index_warc_dir(dir_a).materialize()
    shard_dir = str(tmp_path / "shards")
    shard_prior_cdx(cdx, shard_dir, 16)
    n_files_16 = sum(len(fs) for _r, _d, fs in os.walk(shard_dir))
    # second generation with a DIFFERENT shard count into the same dir
    shard_prior_cdx(cdx, shard_dir, 4)
    dirs = sorted(os.listdir(shard_dir))
    assert all(d.startswith("shard=") and int(d.split("=")[1]) < 4
               for d in dirs), dirs
    import pyarrow.dataset as pads2

    total = pads2.dataset(shard_dir).count_rows()
    assert total == 80  # exactly one generation's rows, no accumulation
    assert sum(len(fs) for _r, _d, fs in os.walk(shard_dir)) <= n_files_16


def test_revisit_shard_lru_bounded(pages_dir, tmp_path):
    """A sharded sink actor's resident prior slice stays <= cache_shards
    regardless of how many shards its batches touch."""
    import ray.data

    from meilisearch_thai_ray.sources.warc import (
        RevisitWarcSink, cdx_index_warc_dir, shard_prior_cdx)

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    dir_a = str(tmp_path / "a")
    write_warc_pages(ds, dir_a)
    cdx_a = cdx_index_warc_dir(dir_a)
    shard_dir = str(tmp_path / "shards")
    n_rows = shard_prior_cdx(cdx_a, shard_dir, 16)
    assert n_rows == 80

    sink = RevisitWarcSink(shard_dir=shard_dir, num_shards=16,
                           out_dir=str(tmp_path / "out"), cache_shards=2)
    # unrouted batches touch many shards; the LRU must stay bounded
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=20):
        sink(b)
        assert len(sink._shard_cache) <= 2
    # every page was unchanged -> all lookups hit through the shard path
    man = cdx_index_warc_dir(str(tmp_path / "out")).to_pandas()
    assert (man["record_type"] == "revisit").all()


def test_revisit_sink_requires_out_dir():
    from meilisearch_thai_ray.sources.warc import RevisitWarcSink

    with pytest.raises(ValueError, match="out_dir"):
        RevisitWarcSink(prior_ref=None)


def test_warc_revisit_demo_counts(ray_session):
    from meilisearch_thai_ray.pipelines.crawl_refresh import warc_revisit_demo

    t = warc_revisit_demo("/root/testdata/sf0.001").to_pandas()
    assert len(t) == 500
    n_resp = (t["record_type"] == "response").sum()
    # planted rule: changed iff doc_id % 7 < 2
    assert n_resp == sum(1 for d in range(500) if d % 7 < 2)


# ---- ZipNum cluster index (two-level CDX) ----

def test_zipnum_every_row_findable(pages_dir, tmp_path):
    """Lookup parity: every urlkey of the flat CDX resolves through the
    two-level layout to exactly its CDX row(s)."""
    import ray.data

    from meilisearch_thai_ray.sources.warc import (cdx_index_warc_dir,
                                                   write_warc_pages)
    from meilisearch_thai_ray.sources.zipnum import (zipnum_lookup,
                                                     zipnum_write)

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    warcs = str(tmp_path / "warcs")
    write_warc_pages(ds, warcs)
    cdx_ds = cdx_index_warc_dir(warcs)
    flat = cdx_ds.to_pandas()

    zn = str(tmp_path / "zipnum")
    summary = zipnum_write(cdx_ds, zn, lines_per_block=8)
    assert summary.num_rows >= 10  # small blocks -> real multi-block index
    assert list(summary["first_key"].to_pylist()) == sorted(
        summary["first_key"].to_pylist())

    for r in flat.itertuples():
        got = zipnum_lookup(summary, zn, r.urlkey)
        assert len(got) == 1
        g = got[0]
        assert (g["url"], g["digest"], g["offset"], g["length"],
                g["filename"], g["record_type"], g["payload_len"]) == \
            (r.url, r.digest, r.offset, r.length, r.filename,
             r.record_type, r.payload_len)
    assert zipnum_lookup(summary, zn, "zz,nosuch)/x") == []
    assert zipnum_lookup(summary, zn, "aa,before)/x") == []


def test_zipnum_hot_key_spans_blocks(tmp_path, ray_session):
    """A key with many rows (captures across crawls) spanning several
    zipnum blocks must return ALL of them."""
    import pyarrow as pa
    import ray.data

    from meilisearch_thai_ray.sources.zipnum import (zipnum_lookup,
                                                     zipnum_write)

    rows = []
    for i in range(5):
        rows.append({"urlkey": "com,aaa)/", "warc_ts": f"200{i}",
                     "url": "https://aaa.com/", "digest": f"d{i}",
                     "offset": i, "length": 1, "filename": "w",
                     "record_type": "response", "payload_len": 1})
    for i in range(30):
        rows.append({"urlkey": "com,hot)/", "warc_ts": f"20{i:02d}",
                     "url": "https://hot.com/", "digest": f"h{i}",
                     "offset": i, "length": 1, "filename": "w",
                     "record_type": "response", "payload_len": 1})
    rows.append({"urlkey": "com,zzz)/", "warc_ts": "2001",
                 "url": "https://zzz.com/", "digest": "z", "offset": 0,
                 "length": 1, "filename": "w", "record_type": "response",
                 "payload_len": 1})
    cdx_ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    zn = str(tmp_path / "zn")
    summary = zipnum_write(cdx_ds, zn, lines_per_block=4)
    got = zipnum_lookup(summary, zn, "com,hot)/")
    assert len(got) == 30
    assert sorted(g["digest"] for g in got) == sorted(
        f"h{i}" for i in range(30))
    assert len(zipnum_lookup(summary, zn, "com,aaa)/")) == 5
    assert len(zipnum_lookup(summary, zn, "com,zzz)/")) == 1


def test_zipnum_summary_is_small_and_deterministic(pages_dir, tmp_path):
    import glob as _glob

    import ray.data

    from meilisearch_thai_ray.sources.warc import (cdx_index_warc_dir,
                                                   write_warc_pages)
    from meilisearch_thai_ray.sources.zipnum import zipnum_write

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    warcs = str(tmp_path / "warcs")
    write_warc_pages(ds, warcs)
    cdx_ds = cdx_index_warc_dir(warcs)
    zn = str(tmp_path / "zn")
    s1 = zipnum_write(cdx_ds, zn, lines_per_block=8)
    # summary rows ~ n/8 plus one residual block per map task (packing
    # is per-task so no extra exchange): a fraction of the flat CDX
    assert 10 <= s1.num_rows <= 32
    first = {p: open(p, "rb").read() for p in _glob.glob(zn + "/*.gz")}
    s2 = zipnum_write(cdx_ds, zn, lines_per_block=8)
    second = {p: open(p, "rb").read() for p in _glob.glob(zn + "/*.gz")}
    assert first == second  # resumable: identical bytes on re-run
    assert s1.equals(s2)


def test_zipnum_demo_counts(ray_session):
    from meilisearch_thai_ray.pipelines.crawl_refresh import zipnum_demo

    t = zipnum_demo("/root/testdata/sf0.001").to_pandas()
    assert len(t) == 10  # every 50th of 500 docs
    assert (t["record_type"] == "response").all()
    assert list(t["urlkey"]) == sorted(t["urlkey"])


def test_zipnum_lookup_property(tmp_path, ray_session):
    """Property: for random sorted CDX row multisets (small key alphabet
    to force duplicate/spanning keys) and random block sizes, lookup
    returns EXACTLY the rows of the key, and absent keys return []."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import pyarrow as pa
    import ray.data

    from meilisearch_thai_ray.sources.zipnum import (zipnum_lookup,
                                                     zipnum_write)

    keys_alpha = [f"com,k{i})/" for i in range(6)]
    case_n = [0]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from(keys_alpha), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=7))
    def run(sample, lpb):
        case_n[0] += 1
        rows = [{"urlkey": k, "warc_ts": f"{i:04d}",
                 "url": "u" + k, "digest": f"d{i}", "offset": i,
                 "length": 1, "filename": "w",
                 "record_type": "response", "payload_len": 1}
                for i, k in enumerate(sorted(sample))]
        zn = str(tmp_path / f"zn{case_n[0]}")
        summary = zipnum_write(
            ray.data.from_arrow(pa.Table.from_pylist(rows)), zn,
            lines_per_block=lpb)
        for k in keys_alpha + ["aa,first)/", "zz,last)/"]:
            got = zipnum_lookup(summary, zn, k)
            exp = [r for r in rows if r["urlkey"] == k]
            assert sorted(g["digest"] for g in got) == sorted(
                r["digest"] for r in exp), (k, lpb)

    run()


def test_merge_cdx_and_latest_capture(pages_dir, tmp_path):
    """Two crawls -> ONE merged CDX -> zipnum: every url shows both
    captures adjacent (newest last) and lookup_latest picks crawl B's —
    resolving to the response record when the revisit ties on ts."""
    import pyarrow as pa
    import ray.data

    from meilisearch_thai_ray.sources.warc import (cdx_index_warc_dir,
                                                   write_warc_pages,
                                                   write_warc_pages_revisit)
    from meilisearch_thai_ray.sources.zipnum import (merge_cdx,
                                                     zipnum_lookup,
                                                     zipnum_lookup_latest,
                                                     zipnum_write)

    ds = ray.data.read_parquet(pages_dir, columns=["url", "html", "warc_ts"])
    dir_a = str(tmp_path / "a")
    write_warc_pages(ds, dir_a)
    cdx_a = cdx_index_warc_dir(dir_a)

    def later(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "url": batch["url"], "html": batch["html"],
            "warc_ts": pc.add(batch["warc_ts"],
                              pa.scalar(86_400_000_000, pa.duration("us"))),
        })

    pages_b = ds.map_batches(later, batch_format="pyarrow", batch_size=40)
    dir_b = str(tmp_path / "b")
    write_warc_pages_revisit(pages_b, dir_b, cdx_a)
    cdx_b = cdx_index_warc_dir(dir_b)

    merged = merge_cdx([cdx_a, cdx_b])
    zn = str(tmp_path / "zn")
    summary = zipnum_write(merged, zn, lines_per_block=16)

    a_rows = cdx_a.take_all()
    assert a_rows
    for r in a_rows[:20]:
        caps = zipnum_lookup(summary, zn, r["urlkey"])
        assert len(caps) == 2  # one per crawl, adjacent in the merged CDX
        assert caps[0]["warc_ts"] <= caps[1]["warc_ts"]
        latest = zipnum_lookup_latest(summary, zn, r["urlkey"])
        assert latest["warc_ts"] == caps[1]["warc_ts"]
        assert latest["record_type"] == "revisit"  # unchanged re-crawl
    assert zipnum_lookup_latest(summary, zn, "zz,nope)/") is None
