"""Reindex (S4) + tombstone deletes (S5) tests."""

import os

import pytest

from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.fixtures.pages import write_pages_parquet
from meilisearch_thai_ray.index.build import build_index
from meilisearch_thai_ray.index.maintenance import (
    delete_by_url,
    delete_docs,
    load_tombstones,
    needs_reindex,
    reindex,
)
from meilisearch_thai_ray.index.search import SearchEngine

CFG = EngineConfig(num_shards=4)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("maint")
    pages = str(root / "pages")
    out = str(root / "index")
    write_pages_parquet(pages, 150, rows_per_file=75)
    build_index(pages, out, CFG, num_salts=1, batch_size=64)
    return str(root), out


def test_needs_reindex_false_when_unchanged(built):
    _, out = built
    assert not needs_reindex(out, CFG)
    assert reindex(out, out + "_noop", CFG) is None


def test_delete_then_search_excludes(built):
    _, out = built
    eng = SearchEngine(out)
    hits = eng.search("อาหาร", k=5)
    assert hits
    victim = hits[0][0]
    assert delete_docs(out, [victim]) == 1
    assert delete_docs(out, [victim]) == 0  # idempotent
    eng2 = SearchEngine(out)  # fresh engine sees tombstones
    terms = eng2.query_terms("อาหาร")
    for hits in (eng2.score_topk(terms, 10),
                 eng2._score_maxscore(eng2._weighted(terms), 10)):
        ids = [d for d, _ in hits]
        assert victim not in ids
        assert ids  # other docs still served


def test_delete_by_url(built):
    _, out = built
    import pyarrow.dataset as pads

    docs = pads.dataset(os.path.join(out, "docs")).to_table(columns=["doc_id", "url"])
    url = docs["url"][0].as_py()
    did = docs["doc_id"][0].as_py()
    before = len(load_tombstones(out))
    delete_by_url(out, [url])
    after = load_tombstones(out)
    assert did in after and len(after) >= before


def test_reindex_drops_tombstones(built):
    root, out = built
    dead = sorted(load_tombstones(out))
    assert dead
    out2 = os.path.join(root, "index_reindexed")
    meta = reindex(out, out2, CFG, force=True)
    assert meta is not None
    eng = SearchEngine(out2)
    assert not load_tombstones(out2)
    # dropped docs are physically absent from the new index
    import pyarrow.dataset as pads

    new_ids = set(
        pads.dataset(os.path.join(out2, "docs")).to_table(columns=["doc_id"])
        ["doc_id"].to_pylist()
    )
    assert not (set(dead) & new_ids)
    # stats reflect the smaller corpus
    assert meta["n_docs"] == len(new_ids)
    assert eng.search("อาหาร", k=3)
    # the reindexed dictionary carries its typo arrays; expansions are the
    # source's, less the terms only the dropped docs held
    from meilisearch_thai_ray.fixtures.queries import QUERY_FIXTURES

    assert sorted(os.listdir(os.path.join(out2, "typodict"))) == \
        ["hash.npy", "row.npy"]
    src = SearchEngine(out)
    words = {t for f in QUERY_FIXTURES for t in src.query_terms(f["query"])}
    expanded = 0
    for w in sorted(words):
        for q in (w, w[:2] + "ß" + w[3:]):
            got = eng.expand_typo(q, 1000)
            assert set(got) == {t for t in src.expand_typo(q, 1000)
                                if eng.df(t)}, q
            expanded += bool(got)
    assert expanded

def test_tombstone_files_content_named(built):
    """Tombstone files are named by the content hash of their id set, so
    concurrent delete calls can never collide on a directory-count ordinal
    and silently overwrite each other."""
    _, out = built
    d = os.path.join(out, "tombstones")
    before = set(os.listdir(d)) if os.path.isdir(d) else set()
    delete_docs(out, [987654321])
    delete_docs(out, [987654322])
    after = set(os.listdir(d))
    new = after - before
    assert len(new) == 2  # distinct names for distinct id sets
    assert {987654321, 987654322} <= load_tombstones(out)
    # re-deleting already-tombstoned ids is a no-op (no new file)
    assert delete_docs(out, [987654321]) == 0
    assert set(os.listdir(d)) == after


def test_snapshot_restore_bit_identical_search(built, tmp_path):
    """snapshot -> restore -> a SearchEngine over the restored dir returns
    bit-identical results; tampering with a snapshot file makes verify and
    restore fail loudly (no half-restore)."""
    from meilisearch_thai_ray.index.maintenance import (
        restore_snapshot, snapshot, verify_snapshot)

    _, out = built
    snap = str(tmp_path / "snap")
    manifest = snapshot(out, snap)
    assert len(manifest["files"]) > 3
    verify_snapshot(snap)

    restored = str(tmp_path / "restored")
    restore_snapshot(snap, restored)
    q = ["สาหร่าย"]
    orig = SearchEngine(out).score_topk(q, k=10)
    got = SearchEngine(restored).score_topk(q, k=10)
    assert got == orig  # bit-identical scores and ranks

    # duplicate snapshots refuse to overwrite
    with pytest.raises(FileExistsError):
        snapshot(out, snap)

    # corrupt one data file: verify + restore must fail, nothing written
    victim = next(os.path.join(snap, rel) for rel in manifest["files"]
                  if rel != "snapshot_manifest.json")
    with open(victim, "r+b") as f:
        f.seek(0)
        b = f.read(1)
        f.seek(0)
        f.write(bytes([b[0] ^ 0xFF]))
    with pytest.raises(ValueError):
        verify_snapshot(snap)
    broken = str(tmp_path / "broken")
    with pytest.raises(ValueError):
        restore_snapshot(snap, broken)
    assert not os.path.exists(broken)


def test_merge_indexes_bit_identical_to_rebuild(ray_session, tmp_path):
    """Posting-level merge of two half-corpus indexes == a from-scratch
    build of the whole corpus: shard files BYTE-identical, meta stats
    equal, search bit-identical. Overlapping doc_ids must raise."""
    import shutil

    from meilisearch_thai_ray.index.merge import merge_indexes

    cfg = EngineConfig(num_shards=4)
    root = tmp_path
    pages_all = str(root / "pages_all")
    files = write_pages_parquet(pages_all, 200, rows_per_file=50)
    # halves = disjoint doc_id ranges (files are row-range shards)
    for name, part in [("pages_a", files[:2]), ("pages_b", files[2:])]:
        os.makedirs(str(root / name))
        for f in part:
            shutil.copy2(f, str(root / name / os.path.basename(f)))
    full, ia, ib = (str(root / d) for d in ("i_full", "i_a", "i_b"))
    build_index(pages_all, full, cfg, num_salts=2, batch_size=64)
    build_index(str(root / "pages_a"), ia, cfg, num_salts=2, batch_size=64)
    build_index(str(root / "pages_b"), ib, cfg, num_salts=2, batch_size=64)

    merged = str(root / "i_merged")
    meta = merge_indexes([ia, ib], merged)
    import json

    with open(os.path.join(full, "meta.json")) as f:
        full_meta = json.load(f)
    assert (meta["n_docs"], meta["sum_dl"], meta["avgdl"]) == (
        full_meta["n_docs"], full_meta["sum_dl"], full_meta["avgdl"])

    # shard files byte-identical to the rebuild
    for dirpath, _dn, fnames in os.walk(os.path.join(full, "shards")):
        for fn in fnames:
            rel = os.path.relpath(os.path.join(dirpath, fn), full)
            a = open(os.path.join(full, rel), "rb").read()
            b = open(os.path.join(merged, rel), "rb").read()
            assert a == b, f"shard bytes differ: {rel}"

    eng_full, eng_merged = SearchEngine(full), SearchEngine(merged)
    for terms in (["สาหร่าย"], ["ปัญญา", "ประดิษฐ์"], ["วากาเมะ"]):
        assert eng_merged.score_topk(terms, k=10) == \
            eng_full.score_topk(terms, k=10)

    # overlapping doc ids: merging an index with itself must raise
    with pytest.raises(ValueError, match="more than one source|overlap"):
        merge_indexes([ia, ia], str(root / "i_bad"))


def test_merge_indexes_with_positions_phrase_identical(ray_session, tmp_path):
    """store_positions=True: merged pos_bin streams must reproduce the
    rebuild byte-for-byte (phrase search depends on them)."""
    import shutil

    from meilisearch_thai_ray.index.merge import merge_indexes

    cfg = EngineConfig(num_shards=2, store_positions=True)
    root = tmp_path
    pages_all = str(root / "pages_all")
    files = write_pages_parquet(pages_all, 120, rows_per_file=60)
    for name, part in [("pa", files[:1]), ("pb", files[1:])]:
        os.makedirs(str(root / name))
        for f in part:
            shutil.copy2(f, str(root / name / os.path.basename(f)))
    full, ia, ib = (str(root / d) for d in ("f", "a", "b"))
    build_index(pages_all, full, cfg, num_salts=1, batch_size=64)
    build_index(str(root / "pa"), ia, cfg, num_salts=1, batch_size=64)
    build_index(str(root / "pb"), ib, cfg, num_salts=1, batch_size=64)
    merged = str(root / "m")
    merge_indexes([ia, ib], merged)
    for dirpath, _dn, fnames in os.walk(os.path.join(full, "shards")):
        for fn in fnames:
            rel = os.path.relpath(os.path.join(dirpath, fn), full)
            assert open(os.path.join(full, rel), "rb").read() == \
                open(os.path.join(merged, rel), "rb").read(), rel


def test_swap_indexes_zero_downtime_reindex(built, tmp_path):
    """The Meilisearch swap-indexes pattern: build the new generation
    under a staging name, swap atomically, consumers flip in one step."""
    import pytest as _pytest

    from meilisearch_thai_ray.index.maintenance import (registry_set,
                                                        resolve_index,
                                                        swap_indexes)

    root, out = built
    reg = str(tmp_path / "registry.json")
    registry_set(reg, "docs", out)
    # "reindex" into a staging dir (here: a snapshot-restored copy)
    from meilisearch_thai_ray.index.maintenance import (restore_snapshot,
                                                        snapshot)

    snap = str(tmp_path / "snap")
    snapshot(out, snap)
    staged = str(tmp_path / "staged")
    restore_snapshot(snap, staged)
    registry_set(reg, "docs_staging", staged)

    live_before = resolve_index(reg, "docs")
    assert live_before == out
    newmap = swap_indexes(reg, [("docs", "docs_staging")])
    assert newmap["docs"] == staged and newmap["docs_staging"] == out
    # the consumer path serves the new generation under the OLD name,
    # rank-identical here because the corpora are byte-identical
    eng_old = SearchEngine(out)
    eng_new = SearchEngine(resolve_index(reg, "docs"))
    q = eng_old.query_terms("อาหาร")
    assert eng_old.score_topk(q, 10) == eng_new.score_topk(q, 10)
    # unknown / partial swaps fail loudly
    with _pytest.raises(KeyError):
        resolve_index(reg, "nope")
    with _pytest.raises(KeyError):
        swap_indexes(reg, [("docs", "ghost")])
    # a failed swap must not have moved anything (all-pairs atomicity)
    assert resolve_index(reg, "docs") == staged


def test_index_without_format_is_refused(built, tmp_path):
    """An index whose meta.json has no index_format stands in for one
    written before postings held per-salt ordinals: the engine, merge (as
    either source) and a resumed build each refuse it with a ValueError
    that names a rebuild, instead of misreading doc-id gaps as ordinals."""
    import json
    import shutil

    from meilisearch_thai_ray.index.merge import merge_indexes

    root, out = built
    old = str(tmp_path / "old")
    shutil.copytree(out, old)
    meta_p = os.path.join(old, "meta.json")
    with open(meta_p) as f:
        meta = json.load(f)
    del meta["index_format"]
    with open(meta_p, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match="rebuild"):
        SearchEngine(old)
    for sources in ([old, out], [out, old]):
        with pytest.raises(ValueError, match="rebuild"):
            merge_indexes(sources, str(tmp_path / "merged"))
    with pytest.raises(ValueError, match="rebuild"):
        build_index(os.path.join(root, "pages"), old, CFG, num_salts=1)
    SearchEngine(out)  # the current format opens
