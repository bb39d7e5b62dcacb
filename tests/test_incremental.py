"""Incremental adds (delta generations, newest-wins shadowing): the oracle is
BIT-IDENTITY with a full rebuild of the merged corpus."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.index.build import build_index
from meilisearch_thai_ray.index.incremental import (
    GenerationalEngine,
    add_documents,
)
from meilisearch_thai_ray.index.search import SearchEngine

CFG = EngineConfig(num_shards=4, store_positions=True)

V0 = ["wakame", "seaweed", "salad", "ramen", "noodle", "broth", "spicy",
      "mild", "ginger", "sesame"]


def _mk_pages(path, rows):
    os.makedirs(path, exist_ok=True)
    pq.write_table(
        pa.table({
            "url": pa.array([u for u, _t in rows], pa.string()),
            "html": pa.array([f"<p>{t}</p>".encode() for _u, t in rows],
                             pa.binary()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
        }),
        os.path.join(path, "p.parquet"),
    )


def _corpus_a():
    import random

    rng = random.Random(42)
    rows = []
    for i in range(14):
        words = [V0[rng.randrange(len(V0))] for _ in range(25)]
        rows.append((f"https://inc.ex/{i}", " ".join(words) + " สาหร่ายวากาเมะ"))
    return rows


def _corpus_b():
    import random

    rng = random.Random(43)
    rows = []
    for i in range(5):  # brand-new docs
        words = [V0[rng.randrange(len(V0))] for _ in range(30)]
        rows.append((f"https://inc.ex/new{i}", " ".join(words)))
    # updates: urls 0..2 re-ingested with CHANGED text
    for i in range(3):
        words = [V0[rng.randrange(len(V0))] for _ in range(18)]
        rows.append((f"https://inc.ex/{i}", "updated " + " ".join(words)))
    return rows


def _merged(a, b):
    by_url = {u: t for u, t in a}
    by_url.update({u: t for u, t in b})
    return sorted(by_url.items())


QUERIES = [["wakame"], ["ramen", "broth"], ["updated"], ["spicy", "mild", "ginger"],
           ["sesame", "noodle", "salad"], ["wakame", "wakame", "broth"]]


@pytest.fixture(scope="module")
def incr(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("incr")
    a, b = _corpus_a(), _corpus_b()
    _mk_pages(str(root / "pagesA"), a)
    _mk_pages(str(root / "pagesB"), b)
    _mk_pages(str(root / "pagesM"), _merged(a, b))
    base = str(root / "base")
    build_index(str(root / "pagesA"), base, CFG, num_salts=2, batch_size=64)
    add_documents(base, str(root / "pagesB"))
    ref = str(root / "ref")
    build_index(str(root / "pagesM"), ref, CFG, num_salts=2, batch_size=64)
    return root, base, ref, a, b


def test_incremental_stats_equal_rebuild(incr):
    _root, base, ref, _a, _b = incr
    ge = GenerationalEngine(base)
    re = SearchEngine(ref)
    assert ge.n_docs == re.n_docs
    assert ge.avgdl == re.avgdl  # exact, not approximate


def test_incremental_scores_bit_identical_to_rebuild(incr):
    _root, base, ref, _a, _b = incr
    ge = GenerationalEngine(base)
    re = SearchEngine(ref)
    for terms in QUERIES:
        for t in set(terms):
            assert ge.df(t) == re.df(t), t
        a = ge.score_topk(terms, k=20)
        b = re.score_topk(terms, k=20)
        assert a == b, terms  # ids AND float64 scores identical
        if loaded := ge._weighted(terms):
            assert ge._score_maxscore(loaded, k=20) == b, terms


def test_incremental_positional_rankers_equal_rebuild(incr):
    """bm25f reads title_tc and token_count newest-generation-wins (a delta
    doc has its own docs table, an updated doc a new length), and the
    position gather reads shadow-filtered base segments, whose positions
    are decoded up front: bm25f, proximity and phrase ranking all equal a
    rebuild of the merged corpus."""
    _root, base, ref, _a, _b = incr
    ge = GenerationalEngine(base)
    re = SearchEngine(ref)
    for terms in QUERIES:
        for w in (1.0, 2.0):
            assert ge.bm25f_topk(terms, 30, title_weight=w) == \
                re.bm25f_topk(terms, 30, title_weight=w), (terms, w)
        assert ge.proximity_topk(terms, 10, pool=1000) == \
            re.proximity_topk(terms, 10, pool=1000), terms
        phrase = " ".join(terms)
        assert ge.phrase_topk(phrase, 30) == re.phrase_topk(phrase, 30), terms


def test_incremental_newest_wins(incr):
    """The updated doc scores from its NEW text only."""
    _root, base, _ref, _a, _b = incr
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url

    ge = GenerationalEngine(base)
    updated = {doc_id_from_url(f"https://inc.ex/{i}") for i in range(3)}
    hits = {d for d, _ in ge.score_topk(["updated"], k=20)}
    assert hits == updated  # only re-ingested docs contain "updated"


def _planted(w: str) -> str:
    """w with its third letter substituted (a typo after the first letter)."""
    return w[:2] + ("x" if w[2:3] != "x" else "q") + w[3:]


def test_incremental_expand_typo_equals_rebuild(incr):
    """Typo expansion over base + delta proposes every generation's
    candidates, ranked by live df: for every term of the rebuild and a
    planted typo of each, it equals the rebuild's, including "updated",
    a word only the delta holds."""
    import pyarrow.dataset as pads

    _root, base, ref, _a, _b = incr
    ge = GenerationalEngine(base)
    re = SearchEngine(ref)

    def vocab(d):
        return pads.dataset(os.path.join(d, "termdict")).to_table(
            columns=["term"])["term"].to_pylist()

    words = vocab(ref)
    assert "updated" in words and "updated" not in vocab(base)
    assert ge.expand_typo(_planted("updated")) == ["updated"]
    for w in words:
        for q in (w, _planted(w)):
            assert ge.expand_typo(q, 20) == re.expand_typo(q, 20), q


def test_incremental_phrase_across_generations(incr):
    _root, base, _ref, a, _b = incr
    ge = GenerationalEngine(base)
    assert ge.has_positions
    # a phrase from an ORIGINAL (non-updated) base doc still matches
    url, text = a[5]
    words = text.split()[:2]
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url

    hits = {d for d, _ in ge.phrase_topk(" ".join(words), k=30)}
    assert doc_id_from_url(url) in hits


def test_incremental_second_generation_and_rebuild_identity(incr, tmp_path):
    """A second delta updating a FIRST-delta doc shadows across generations;
    identity with a rebuild of the 3-way merge still holds."""
    root, base, _ref, a, b = incr
    import shutil

    base2 = str(tmp_path / "base2")
    shutil.copytree(base, base2)
    c = [("https://inc.ex/new0", "thirdwave " + "broth " * 10),
         ("https://inc.ex/7", "thirdwave " + "salad " * 12)]
    _mk_pages(str(tmp_path / "pagesC"), c)
    add_documents(base2, str(tmp_path / "pagesC"))
    _mk_pages(str(tmp_path / "pagesM3"), _merged(_merged(a, b), c))
    ref3 = str(tmp_path / "ref3")
    build_index(str(tmp_path / "pagesM3"), ref3, CFG, num_salts=2, batch_size=64)
    ge = GenerationalEngine(base2)
    re = SearchEngine(ref3)
    assert ge.n_docs == re.n_docs and ge.avgdl == re.avgdl
    for terms in QUERIES + [["thirdwave"]]:
        assert ge.score_topk(terms, 20) == re.score_topk(terms, 20), terms


def test_incremental_dictionary_guard(incr, tmp_path):
    _root, base, _ref, _a, _b = incr
    import json

    import shutil

    clone = str(tmp_path / "clone")
    shutil.copytree(base, clone)
    meta_p = os.path.join(clone, "meta.json")
    with open(meta_p) as f:
        m = json.load(f)
    m["dictionary_hash"] = "deadbeef"
    with open(meta_p, "w") as f:
        json.dump(m, f)
    _mk_pages(str(tmp_path / "pg"), [("https://x/1", "hello")])
    with pytest.raises(ValueError, match="reindex"):
        add_documents(clone, str(tmp_path / "pg"))


def test_incremental_resume_incomplete_generation(incr, tmp_path):
    """A crashed add (no `complete` marker) is resumed, not duplicated."""
    _root, base, _ref, _a, _b = incr
    import shutil

    clone = str(tmp_path / "clone")
    shutil.copytree(base, clone)
    gen = os.path.join(clone, "deltas", "gen-0000")
    os.remove(os.path.join(gen, "complete"))
    # the engine must ignore the incomplete generation entirely
    ge = GenerationalEngine(clone)
    assert len(ge._gen_engines) == 0
    # resume completes the SAME generation (no gen-0001 appears)
    _mk_pages(str(tmp_path / "pagesB2"), _corpus_b())
    out = add_documents(clone, str(tmp_path / "pagesB2"))
    assert out.endswith("gen-0000")
    assert sorted(os.listdir(os.path.join(clone, "deltas"))) == ["gen-0000"]
    assert GenerationalEngine(clone).n_docs == GenerationalEngine(base).n_docs


def test_incremental_delete_applies_across_generations(incr, tmp_path):
    _root, base, _ref, _a, b = incr
    import shutil

    from meilisearch_thai_ray.functions.hashing import doc_id_from_url
    from meilisearch_thai_ray.index.maintenance import delete_docs

    clone = str(tmp_path / "clone")
    shutil.copytree(base, clone)
    victim = doc_id_from_url("https://inc.ex/new0")  # lives in the delta
    delete_docs(clone, [victim])
    ge = GenerationalEngine(clone)
    for terms in QUERIES:
        assert victim not in {d for d, _ in ge.score_topk(terms, k=50)}


def test_resume_refuses_different_pages_source(incr, tmp_path):
    """A crashed add of corpus A must not be 'resumed' with corpus B — the
    completed phase markers would skip B's extraction entirely and the
    generation would silently contain A."""
    _root, base, _ref, _a, _b = incr
    import shutil

    clone = str(tmp_path / "clone")
    shutil.copytree(base, clone)
    gen = os.path.join(clone, "deltas", "gen-0000")
    os.remove(os.path.join(gen, "complete"))
    _mk_pages(str(tmp_path / "other"),
              [("https://x/other", "entirely different corpus")])
    with pytest.raises(ValueError, match="different pages source"):
        add_documents(clone, str(tmp_path / "other"))
    # the ORIGINAL source still resumes fine
    _mk_pages(str(tmp_path / "pagesB3"), _corpus_b())
    out = add_documents(clone, str(tmp_path / "pagesB3"))
    assert out.endswith("gen-0000")


def test_resume_refuses_live_lock(incr, tmp_path):
    """An incomplete generation locked by a LIVE process is never co-built."""
    _root, base, _ref, _a, _b = incr
    import shutil

    clone = str(tmp_path / "clone")
    shutil.copytree(base, clone)
    gen = os.path.join(clone, "deltas", "gen-0000")
    os.remove(os.path.join(gen, "complete"))
    with open(os.path.join(gen, "lock"), "w") as f:
        f.write("1")  # pid 1 is always alive
    _mk_pages(str(tmp_path / "pagesB4"), _corpus_b())
    with pytest.raises(RuntimeError, match="live"):
        add_documents(clone, str(tmp_path / "pagesB4"))
    # a stale lock (dead pid) is taken over and the add completes
    import subprocess

    dead = subprocess.Popen(["true"])
    dead.wait()
    with open(os.path.join(gen, "lock"), "w") as f:
        f.write(str(dead.pid))
    out = add_documents(clone, str(tmp_path / "pagesB4"))
    assert out.endswith("gen-0000")
    assert not os.path.exists(os.path.join(gen, "lock"))


def test_compact_bit_identical_to_generational(incr, tmp_path):
    """compact() folds base+deltas into one index that serves exactly like
    the generational view — and exactly like a rebuild of the merge."""
    _root, base, ref, _a, _b = incr
    from meilisearch_thai_ray.index.incremental import compact

    out = str(tmp_path / "compacted")
    meta = compact(base, out)
    ge = GenerationalEngine(base)
    ce = SearchEngine(out)
    assert not os.path.isdir(os.path.join(out, "deltas"))
    assert meta["n_docs"] == ge.n_docs and ce.avgdl == ge.avgdl
    for key in ("dictionary_hash", "extractor_version"):
        assert meta[key] == ge.meta[key]
    for terms in QUERIES:
        for t in set(terms):
            assert ce.df(t) == ge.df(t), t
        assert ce.score_topk(terms, 20) == ge.score_topk(terms, 20), terms
    # positions survive compaction: phrase search still works
    assert ce.phrase_topk("updated", k=5)
    # prefix dictionary was rebuilt (sorted termdict, not shard fallback)
    assert os.path.isdir(os.path.join(out, "termdict"))
    assert ce.expand_prefix("wa")
    # and its typo arrays, which expand like the generational view
    assert sorted(os.listdir(os.path.join(out, "typodict"))) == \
        ["hash.npy", "row.npy"]
    for w in sorted({t for terms in QUERIES for t in terms}):
        for q in (w, _planted(w)):
            assert ce.expand_typo(q, 20) == ge.expand_typo(q, 20), q
    assert ce.expand_typo(_planted("wakame")) == ["wakame"]


def test_compact_idempotent_resume(incr, tmp_path):
    """Re-running compact on a completed output is a no-op (phases skip)."""
    _root, base, _ref, _a, _b = incr
    from meilisearch_thai_ray.index.incremental import compact

    out = str(tmp_path / "cmp")
    m1 = compact(base, out)

    def _bytes(d):
        out_b = {}
        for root, _dirs, fs in os.walk(os.path.join(d, "shards")):
            for f in fs:
                p = os.path.join(root, f)
                with open(p, "rb") as fh:
                    out_b[os.path.relpath(p, d)] = fh.read()
        return out_b

    before = _bytes(out)
    m2 = compact(base, out)
    assert m1 == m2
    assert _bytes(out) == before


def test_compact_drops_tombstones_everywhere(incr, tmp_path):
    """Tombstoned docs (base AND delta residents) are physically gone after
    compaction, and the result is bit-identical to a rebuild of the merged
    corpus minus the deleted urls."""
    root, base, _ref, a, b = incr
    import shutil

    from meilisearch_thai_ray.functions.hashing import doc_id_from_url
    from meilisearch_thai_ray.index.incremental import compact
    from meilisearch_thai_ray.index.maintenance import delete_docs

    clone = str(tmp_path / "clone")
    shutil.copytree(base, clone)
    gone_urls = ["https://inc.ex/5", "https://inc.ex/new0"]  # base + delta
    delete_docs(clone, [doc_id_from_url(u) for u in gone_urls])
    out = str(tmp_path / "cmp")
    compact(clone, out)
    merged = [(u, t) for u, t in _merged(a, b) if u not in gone_urls]
    _mk_pages(str(tmp_path / "pagesMD"), merged)
    ref2 = str(tmp_path / "ref2")
    build_index(str(tmp_path / "pagesMD"), ref2, CFG, num_salts=2,
                batch_size=64)
    ce, re = SearchEngine(out), SearchEngine(ref2)
    assert ce.n_docs == re.n_docs and ce.avgdl == re.avgdl
    gone_ids = {doc_id_from_url(u) for u in gone_urls}
    for terms in QUERIES:
        hits = ce.score_topk(terms, 50)
        assert hits == re.score_topk(terms, 50), terms
        assert not gone_ids & {d for d, _ in hits}


# ------------------------------------------------------------------
# the proxy over generations equals the proxy over compact()

def _gen_pages(path, rows):
    """rows of (url, title, body, lang); body None = an unreadable page
    (a dead-letter row)."""
    os.makedirs(path, exist_ok=True)
    pq.write_table(
        pa.table({
            "url": pa.array([r[0] for r in rows], pa.string()),
            "html": pa.array([
                None if body is None else
                f"<html><head><title>{title}</title></head><body><p>{body}"
                "</p></body></html>".encode()
                for _u, title, body, _l in rows], pa.binary()),
            "lang": pa.array([r[3] for r in rows], pa.string()),
        }),
        os.path.join(path, "p.parquet"),
    )


def _words(rng, n):
    return " ".join(V0[rng.randrange(len(V0))] for _ in range(n))


@pytest.fixture(scope="module")
def gens(ray_session, tmp_path_factory):
    """base (12 pages and one unreadable) + delta 1 (a re-versioned base
    page, a Thai page, an English page, an unreadable page) + delta 2 (a
    re-versioned base page, a re-versioned delta-1 page, a new page), and
    its compact(). Tombstones for one base and one delta-1 doc go to both
    indexes after compact(), which drops them and makes N/avgdl true again
    (a deliberate score change, see compact); applied to both, they leave
    both engines the same stats."""
    import random

    from meilisearch_thai_ray.functions.hashing import doc_id_from_url
    from meilisearch_thai_ray.index.incremental import compact
    from meilisearch_thai_ray.index.maintenance import delete_docs

    root = tmp_path_factory.mktemp("gens")
    rng = random.Random(7)
    base_rows = [
        (f"https://gen.ex/{i}", _words(rng, 2), _words(rng, 20)
         + (" สาหร่ายวากาเมะ" if i % 3 == 0 else ""),
         "en" if i % 2 == 0 else "th")
        for i in range(12)] + [("https://gen.ex/bad-base", "", None, "en")]
    d1 = [("https://gen.ex/0", "kombu " + _words(rng, 1),
           "revised kombu " + _words(rng, 15), "en"),
          ("https://gen.ex/new0", "ซุปมิโซะ",
           "ซุปมิโซะ สาหร่ายวากาเมะ miso wakame", "en"),
          ("https://gen.ex/new1", "ginger", "kelp " + _words(rng, 12), "th"),
          ("https://gen.ex/bad0", "", None, "en")]
    d2 = [("https://gen.ex/1", _words(rng, 2),
           "revised twice " + _words(rng, 18), "th"),
          ("https://gen.ex/new1", "ginger", "kelp revised " + _words(rng, 9),
           "en"),
          ("https://gen.ex/new2", "sesame", "miso sesame " + _words(rng, 6),
           "th")]
    base = str(root / "base")
    for name, rows in (("pages", base_rows), ("d1", d1), ("d2", d2)):
        _gen_pages(str(root / name), rows)
    build_index(str(root / "pages"), base, CFG, num_salts=2, batch_size=64)
    add_documents(base, str(root / "d1"))
    add_documents(base, str(root / "d2"))
    cmp = str(root / "cmp")
    compact(base, cmp)
    gone = [doc_id_from_url(u) for u in ("https://gen.ex/5",
                                          "https://gen.ex/new1")]
    for d in (base, cmp):
        delete_docs(d, gone)
    return base, cmp


def _ids(*urls):
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url

    return {doc_id_from_url(u) for u in urls}


# perfbench's proxy request shapes (perfbench/bench_inputs.py proxy_call),
# rebuilt here, each over every query below
_SHAPES = {
    "default": {},
    "frequency": {"matching_strategy": "frequency"},
    "typo": {"typo_tolerance": True, "matching_strategy": "any"},
    "highlight": {"highlight": True, "show_matches_position": True},
    "rules": {"ranking_rules": True},
    "lang": {"filters": {"lang": "th"}},
    "phrase": {},
    "negative": {},
}
_GEN_QUERIES = ["wakame", "ramen broth", "สาหร่ายวากาเมะ", "spicy ginger",
                "kombu", "revised sesame", "miso", "kelp"]


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_proxy_over_generations_equals_compacted_shapes(gens, shape):
    """Every perfbench request shape answers the same, scores and all, over
    base + 2 deltas + tombstones as over its compact()."""
    from meilisearch_thai_ray.pipelines.search_proxy import (
        SearchOptions,
        SearchProxy,
    )

    base, cmp = gens
    gp = SearchProxy(GenerationalEngine(base),
                     docs_path=os.path.join(base, "docs"))
    cp = SearchProxy(SearchEngine(cmp), docs_path=os.path.join(cmp, "docs"))
    for q in _GEN_QUERIES:
        if shape == "phrase":
            q = f'"{q}"'
        elif shape == "negative":
            q = f"{q} -noodle"
        opts = SearchOptions(limit=10, **_SHAPES[shape])
        assert gp.search(q, options=opts) == cp.search(q, options=opts), q


# (query, SearchOptions keywords, doc urls the answer must hold)
_GEN_CASES = {
    # the delta-only doc's highlight is its own text
    "highlight_delta_doc": ("miso", {"highlight": True},
                            ["https://gen.ex/new0"]),
    # a re-versioned doc's highlight is its newest text
    "highlight_reversioned": ("kombu", {"highlight": True},
                              ["https://gen.ex/0"]),
    "matches_position": ("revised", {"show_matches_position": True},
                         ["https://gen.ex/0", "https://gen.ex/1"]),
    # a filter sees delta docs' fields
    "filter_en": ("miso", {"filters": {"lang": "en"}},
                  ["https://gen.ex/new0"]),
    "sort_token_count": ("wakame", {"sort": ["token_count:desc"]},
                         ["https://gen.ex/new0"]),
    # a negative-only query lists delta docs, no dead-letter row and no
    # deleted doc
    "negative_only": ("-ramen", {"limit": 100}, ["https://gen.ex/new0",
                                                "https://gen.ex/new2"]),
}


@pytest.mark.parametrize("case", sorted(_GEN_CASES))
def test_proxy_over_generations_equals_compacted(gens, case):
    from meilisearch_thai_ray.pipelines.search_proxy import (
        SearchOptions,
        SearchProxy,
    )

    base, cmp = gens
    query, kw, must = _GEN_CASES[case]
    opts = SearchOptions(**kw)
    gp = SearchProxy(GenerationalEngine(base),
                     docs_path=os.path.join(base, "docs"))
    cp = SearchProxy(SearchEngine(cmp), docs_path=os.path.join(cmp, "docs"))
    got = gp.search(query, options=opts)
    assert got == cp.search(query, options=opts)
    ids = {h["doc_id"] for h in got}
    assert _ids(*must) <= ids
    assert not _ids("https://gen.ex/5", "https://gen.ex/new1",
                    "https://gen.ex/bad0", "https://gen.ex/bad-base") & ids
    word = query.strip("-")
    for h in got:
        if "highlight" in h and h["doc_id"] in _ids(*must):
            assert word in h["highlight"]


def test_failed_docs_reads_every_generation(gens):
    """A delta's dead-letter rows live in its own docs table: failed_docs
    over the generations equals failed_docs over compact()."""
    from meilisearch_thai_ray.index.maintenance import failed_docs

    base, cmp = gens
    got = failed_docs(base).sort_by("doc_id")
    assert got.equals(failed_docs(cmp).sort_by("doc_id"))
    assert set(got["doc_id"].to_pylist()) == _ids("https://gen.ex/bad0",
                                                  "https://gen.ex/bad-base")


def test_docs_table_without_optional_columns(gens, tmp_path):
    """A docs table with only doc_id, terms and token_count (the simple_text
    layout): each absent column reads as null, so nothing counts as failed,
    a null title_tc puts every occurrence in the content, a null text is
    empty, and failed_docs is empty."""
    import shutil

    import pyarrow.dataset as pads

    from meilisearch_thai_ray.index.maintenance import failed_docs
    from meilisearch_thai_ray.pipelines.search_proxy import (
        SearchOptions,
        SearchProxy,
    )

    _base, cmp = gens
    out = str(tmp_path / "slim")
    shutil.copytree(cmp, out)
    docs = pads.dataset(os.path.join(out, "docs")).to_table(
        columns=["doc_id", "terms", "token_count"])
    shutil.rmtree(os.path.join(out, "docs"))
    os.makedirs(os.path.join(out, "docs"))
    pq.write_table(docs, os.path.join(out, "docs", "docs.parquet"))

    assert failed_docs(out).equals(pa.table({
        "doc_id": pa.array([], pa.int64()), "url": pa.array([], pa.string()),
        "error": pa.array([], pa.string())}))
    eng = SearchEngine(out)
    proxy = SearchProxy(eng, docs_path=os.path.join(out, "docs"))
    listed = proxy.search("-ramen", options=SearchOptions(limit=100))
    has_ramen = set(eng.word_docs(["ramen"]).tolist())
    assert [h["doc_id"] for h in listed] == sorted(
        d for d in docs["doc_id"].to_pylist()
        if d not in has_ramen and d not in eng._dead)
    # no title boundary: the title weight changes nothing
    full = SearchEngine(cmp)
    for terms in (["wakame"], ["ramen", "broth"], ["kelp", "sesame"]):
        assert eng.bm25f_topk(terms, 10, title_weight=2.0) == \
            full.bm25f_topk(terms, 10, title_weight=1.0), terms
    hits = proxy.search("ginger sesame", options=SearchOptions(
        ranking_rules=True, show_ranking_score_details=True))
    assert hits
    for h in hits:
        d = h["_rankingScoreDetails"]
        assert d["attribute"]["contentOnlyMatches"] == \
            d["words"]["matchedWords"]


# ------------------------------------------------------------------
# doc values in memory: the same rows as the Parquet read

def _parquet_rows(eng, doc_ids, columns, where=None):
    """The reference reader: one filtered Parquet read of each
    generation's docs/, base first, minus its shadowed ids; a column the
    table lacks reads as null of its DOCS_SCHEMA type."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from meilisearch_thai_ray.stages.extract_tokenize import DOCS_SCHEMA

    parts = []
    for e in [eng, *getattr(eng, "_gen_engines", [])]:
        dset = pads.dataset(os.path.join(e.index_dir, "docs"))
        dset = dset.replace_schema(pa.schema([*dset.schema, *(
            f for f in DOCS_SCHEMA if f.name not in dset.schema.names)]))
        flt = pc.field("doc_id").is_valid()
        if where is not None:
            flt &= where
        if doc_ids is not None:
            flt &= pc.field("doc_id").isin(doc_ids)
        if e._shadow is not None:
            flt &= ~pc.field("doc_id").isin(e._shadow.astype(np.int64))
        parts.append(dset.to_table(columns=columns, filter=flt))
    return pa.concat_tables(parts)


def _rows(t):
    """A table's rows as a multiset."""
    from collections import Counter

    return Counter(tuple(r.values()) for r in t.to_pylist())


def _slim_copy(src, out):
    """A copy of index `src` whose docs table holds only doc_id, terms and
    token_count (the simple_text layout)."""
    import shutil

    import pyarrow.dataset as pads

    shutil.copytree(src, out)
    docs = pads.dataset(os.path.join(out, "docs")).to_table(
        columns=["doc_id", "terms", "token_count"])
    shutil.rmtree(os.path.join(out, "docs"))
    os.makedirs(os.path.join(out, "docs"))
    pq.write_table(docs, os.path.join(out, "docs", "docs.parquet"))
    return out


_DOC_ENGINES = {
    "compacted": lambda base, cmp, tmp: SearchEngine(cmp),
    "shadowed": lambda base, cmp, tmp: SearchEngine(base, shadow=sorted(_ids(
        "https://gen.ex/0", "https://gen.ex/2", "https://gen.ex/4"))),
    "generational": lambda base, cmp, tmp: GenerationalEngine(base),
    "slim": lambda base, cmp, tmp: SearchEngine(_slim_copy(cmp, tmp)),
}


@pytest.mark.parametrize("name", sorted(_DOC_ENGINES))
def test_doc_rows_memory_equals_parquet(gens, tmp_path, name):
    """doc_rows over the in-memory doc values returns the rows of the
    Parquet read, as a multiset, in doc-id order, for every id list and
    `where` form; the table is built on the first such read, not at open
    or warm()."""
    from meilisearch_thai_ray.index.search import NOT_FAILED, VALUE_COLUMNS
    from meilisearch_thai_ray.stages.filter_dsl import (
        compile_filter,
        compile_filter_str,
    )

    eng = _DOC_ENGINES[name](*gens, str(tmp_path / "slim"))
    eng.warm()
    assert eng._values is None
    known = sorted(_ids("https://gen.ex/0", "https://gen.ex/1",
                        "https://gen.ex/new0", "https://gen.ex/new1",
                        "https://gen.ex/bad0", "https://gen.ex/bad-base"))
    id_lists = {"all": None, "none": [],
                "mixed": known + known[:2] + [12345, 1 << 40]}
    wheres = {"none": None, "not_failed": NOT_FAILED,
              "dict": compile_filter({"lang": {"$in": ["th"]},
                                      "token_count": {"$gt": 3}}),
              "string": compile_filter_str("lang = en OR title_tc > 0")}
    for cols in (["doc_id"], list(VALUE_COLUMNS), ["lang", "doc_id"]):
        for il, doc_ids in id_lists.items():
            for wn, where in wheres.items():
                got = eng.doc_rows(doc_ids, cols, where=where)
                ref = _parquet_rows(eng, doc_ids, cols, where)
                assert got.schema == ref.schema, (cols, il, wn)
                assert _rows(got) == _rows(ref), (cols, il, wn)
                ids = got["doc_id"].to_pylist()
                assert ids == sorted(ids), (cols, il, wn)
    assert eng._values is not None
    # only the engine a proxy reads holds a table, not its generations
    assert all(e._values is None for e in getattr(eng, "_gen_engines", []))
    # a text column is the Parquet read, in the same order
    got = eng.doc_rows(known, ["doc_id", "text"])
    assert _rows(got) == _rows(_parquet_rows(eng, known, ["doc_id", "text"]))
    assert got["doc_id"].to_pylist() == sorted(got["doc_id"].to_pylist())


def test_doc_rows_where_names_only_value_columns(gens):
    """A `where` naming a column outside the doc values raises ValueError
    naming the filterable columns, whatever the columns asked for."""
    import pyarrow.compute as pc

    from meilisearch_thai_ray.index.search import VALUE_COLUMNS

    eng = SearchEngine(gens[1])
    for cols in (["doc_id"], ["doc_id", "text"]):
        with pytest.raises(ValueError, match="filterable") as e:
            eng.doc_rows(None, cols, where=pc.field("text") == "miso")
        assert all(c in str(e.value) for c in VALUE_COLUMNS)


def test_doc_values_last_row_wins(gens, tmp_path):
    """doc_values takes a duplicated id's last row, 0 for an unknown id;
    doc_rows keeps both rows in file order."""
    import shutil

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    out = str(tmp_path / "dup")
    shutil.copytree(gens[1], out)
    docs = pads.dataset(os.path.join(out, "docs")).to_table()
    d = sorted(_ids("https://gen.ex/0"))[0]
    row = docs.filter(pc.equal(docs["doc_id"], d))
    again = row.set_column(row.schema.get_field_index("title_tc"), "title_tc",
                           pa.array([77], pa.int32()))
    shutil.rmtree(os.path.join(out, "docs"))
    os.makedirs(os.path.join(out, "docs"))
    pq.write_table(pa.concat_tables([docs, again]),
                   os.path.join(out, "docs", "docs.parquet"))
    eng = SearchEngine(out)
    first = row["title_tc"][0].as_py()
    assert first != 77
    boundary, dl = eng.doc_values([12345, d, d], ["title_tc", "token_count"])
    assert boundary.tolist() == [0, 77, 77]
    assert dl.tolist() == [0, *row["token_count"].to_pylist() * 2]
    assert eng.doc_rows([d], ["title_tc"])["title_tc"].to_pylist() == \
        [first, 77]


def test_proxy_requests_open_no_dataset(gens, monkeypatch):
    """After one warm request, filter, rules, sort, distinct, field-scoped
    and placeholder requests answer from memory: no docs dataset opens."""
    import pyarrow.dataset as pads

    from meilisearch_thai_ray.pipelines.search_proxy import (
        SearchOptions,
        SearchProxy,
    )

    base, cmp = gens
    requests = [
        ("wakame", {"filters": {"lang": "th"}}),
        ("wakame", {"filters": "lang = en AND token_count > 3"}),
        ("wakame", {"ranking_rules": True}),
        ("wakame", {"sort": ["token_count:desc"]}),
        ("wakame", {"distinct": "lang"}),
        ("wakame", {"attributes_to_search_on": ["title"]}),
        ("-ramen", {"limit": 100}),
    ]
    for eng in (GenerationalEngine(base), SearchEngine(cmp)):
        proxy = SearchProxy(eng, docs_path=os.path.join(eng.index_dir,
                                                        "docs"))
        q, kw = requests[0]
        proxy.search(q, options=SearchOptions(**kw))
        opened = []
        real = pads.dataset
        monkeypatch.setattr(pads, "dataset",
                            lambda *a, **k: opened.append(a) or real(*a, **k))
        for q, kw in requests * 2:
            assert proxy.search(q, options=SearchOptions(**kw)) is not None
        monkeypatch.setattr(pads, "dataset", real)
        assert opened == [], eng.index_dir


# ------------------------------------------------------------------
# index_stats over generations

@pytest.fixture(scope="module")
def restat(ray_session, tmp_path_factory):
    """A base of 8 pages and one unreadable page, plus a delta that
    re-versions 3 base pages and adds 1, and its compact()."""
    import random

    from meilisearch_thai_ray.index.incremental import compact

    root = tmp_path_factory.mktemp("restat")
    rng = random.Random(3)
    base_rows = [(f"https://st.ex/{i}", _words(rng, 2) if i % 2 else "",
                  _words(rng, 12), "en" if i % 3 else "th")
                 for i in range(8)] + [("https://st.ex/bad", "", None, "en")]
    delta = [(f"https://st.ex/{i}", "revised", "revised " + _words(rng, 9),
              "th") for i in range(3)] + [
        ("https://st.ex/new", "fresh", "fresh " + _words(rng, 9), "en")]
    _gen_pages(str(root / "pages"), base_rows)
    _gen_pages(str(root / "delta"), delta)
    base = str(root / "base")
    build_index(str(root / "pages"), base, CFG, num_salts=2, batch_size=64)
    add_documents(base, str(root / "delta"))
    cmp = str(root / "cmp")
    compact(base, cmp)
    return base, cmp


def test_index_stats_over_generations_equals_compacted(restat):
    """index_stats reads every completed generation and counts a
    re-versioned doc once: it equals index_stats of the compacted index."""
    from meilisearch_thai_ray.index.maintenance import index_stats

    base, cmp = restat
    got, want = index_stats(base), index_stats(cmp)
    assert got["numberOfDocuments"] == want["numberOfDocuments"] == 9
    assert got["fieldDistribution"] == want["fieldDistribution"]
    assert got["rawDocumentRows"] == want["rawDocumentRows"] == 10
    assert got["fieldDistribution"]["title"] == 7
    assert got["isIndexing"] is False
