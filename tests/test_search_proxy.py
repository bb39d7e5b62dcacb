"""Query-proxy layer tests (M12-M16 + D2 semantics, reference constants)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.fixtures.pages import (
    generate_pages,
    write_pages_parquet,
)
from meilisearch_thai_ray.index.build import build_index
from meilisearch_thai_ray.index.search import SearchEngine
from meilisearch_thai_ray.pipelines.search_proxy import (
    COMPOUND_SPLIT,
    ENGINE_PRIORITY,
    EXPERIMENTAL_THAI_BOOST,
    MIXED_LANGUAGE,
    ORIGINAL,
    TOKENIZED,
    VARIANT_PRIORITY,
    QueryVariant,
    SearchProxy,
)


@pytest.fixture(scope="module")
def proxy(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("proxy")
    pages = str(root / "pages")
    out = str(root / "index")
    write_pages_parquet(pages, 200, rows_per_file=100)
    build_index(pages, out, EngineConfig(num_shards=4), num_salts=1, batch_size=64)
    return SearchProxy(SearchEngine(out))


def test_analyze_query_ratios(proxy):
    a = proxy.analyze_query("Machine Learning ไทย")
    assert a["mixed_content"] and a["english_content_detected"] and a["thai_content_detected"]
    assert a["primary_language"] == "english"  # more latin chars than thai
    a2 = proxy.analyze_query("ปัญญาประดิษฐ์")
    assert a2["primary_language"] == "thai" and a2["thai_content_ratio"] == 1.0


def test_variants_thai_query(proxy):
    vs = proxy.generate_variants("สาหร่ายวากาเมะอร่อย")
    types = [v.variant_type for v in vs]
    assert ORIGINAL in types and TOKENIZED in types
    assert len(vs) <= 5
    tok = next(v for v in vs if v.variant_type == TOKENIZED)
    orig = next(v for v in vs if v.variant_type == ORIGINAL)
    assert tok.weight > orig.weight  # Thai query boosts tokenized over original
    assert "สาหร่ายวากาเมะ" in tok.terms
    # compound split variant splits the dictionary compound into parts
    cs = [v for v in vs if v.variant_type == COMPOUND_SPLIT]
    if cs:
        assert "สาหร่ายวากาเมะ" not in cs[0].terms
        assert "วากาเมะ" in cs[0].terms or "สาหร่าย" in cs[0].terms


def test_variants_english_query(proxy):
    vs = proxy.generate_variants("machine learning")
    orig = next(v for v in vs if v.variant_type == ORIGINAL)
    assert orig.weight > 0.8  # english original gets the 1.2x boost
    assert orig.terms == ["machine", "learning"]


def test_variants_mixed_query(proxy):
    vs = proxy.generate_variants("Startup ไทยเทคโนโลยี")
    types = {v.variant_type for v in vs}
    assert MIXED_LANGUAGE in types
    mx = next(v for v in vs if v.variant_type == MIXED_LANGUAGE)
    assert mx.terms[0] != "startup"  # thai-first arrangement
    # a trivially-mixed query where all variants coincide dedups down
    vs2 = proxy.generate_variants("Startup ไทย")
    texts = [v.query_text.lower() for v in vs2]
    assert len(texts) == len(set(texts))


def test_variants_dedup_and_cap(proxy):
    vs = proxy.generate_variants("machine")
    texts = [v.query_text.lower() for v in vs]
    assert len(texts) == len(set(texts))
    assert all(0.1 <= v.weight <= 1.0 for v in vs)


def test_search_returns_ranked_hits(proxy):
    hits = proxy.search("สาหร่ายวากาเมะ", k=5)
    assert hits, "wakame docs exist in the fixture corpus"
    scores = [h["score"] for h in hits]
    assert scores == sorted(scores, reverse=True)
    assert all(h["score"] >= 0.1 for h in hits)
    assert len({h["doc_id"] for h in hits}) == len(hits)  # deduped
    assert hits[0]["score"] <= 1.0


def test_search_empty_and_unknown(proxy):
    assert proxy.search("zzzqqq") == []
    assert proxy.search("") == []


def test_confidence_bounds(proxy):
    toks = proxy.tokenizer.tokenize("กินข้าวอร่อยมาก")
    c = proxy.tokenization_confidence("กินข้าวอร่อยมาก", toks)
    assert 0.0 < c <= 1.0
    assert proxy.tokenization_confidence("x", []) == 0.0


def test_deterministic(proxy):
    a = proxy.search("อาหารญี่ปุ่น", k=10)
    b = proxy.search("อาหารญี่ปุ่น", k=10)
    assert a == b


def test_synonym_expansion(proxy):
    from meilisearch_thai_ray.pipelines.search_proxy import SearchProxy

    p = SearchProxy(proxy.engine, synonyms={"วากาเมะ": ["สาหร่ายวากาเมะ"]})
    assert p.expand_synonyms(["วากาเมะ"]) == ["วากาเมะ", "สาหร่ายวากาเมะ"]
    # symmetric closure: the alias maps back to the canonical
    assert p.expand_synonyms(["สาหร่ายวากาเมะ"]) == ["สาหร่ายวากาเมะ", "วากาเมะ"]
    base = {h["doc_id"] for h in proxy.search("วากาเมะ", k=20)}
    expanded = {h["doc_id"] for h in p.search("วากาเมะ", k=20)}
    assert base <= expanded or expanded  # synonym variant can only widen recall


def test_exact_match_boost_with_docs_path(proxy, tmp_path_factory):
    """With docs_path configured, docs containing the literal query get the
    2.0x exact-match boost (result_ranker boost_exact_matches)."""
    import os

    from meilisearch_thai_ray.pipelines.search_proxy import SearchProxy

    index_dir = os.path.dirname(proxy.engine.index_dir + "/")  # same index
    docs_path = os.path.join(proxy.engine.index_dir, "docs")
    p = SearchProxy(proxy.engine, docs_path=docs_path)
    hits = p.search("สาหร่ายวากาเมะ", k=10)
    assert hits
    # at least the top hit contains the literal query in its text
    texts = p._doc_texts([hits[0]["doc_id"]])
    assert "สาหร่ายวากาเมะ" in texts[hits[0]["doc_id"]].text
    # determinism with text fetching on
    assert hits == p.search("สาหร่ายวากาเมะ", k=10)


def test_phrase_search(proxy):
    """Quoted-phrase semantics: AND candidates verified by literal substring."""
    import os

    from meilisearch_thai_ray.pipelines.search_proxy import SearchProxy

    docs_path = os.path.join(proxy.engine.index_dir, "docs")
    p = SearchProxy(proxy.engine, docs_path=docs_path)
    # a golden sentence embedded verbatim in the fixture corpus
    hits = p.search_phrase("สาหร่ายวากาเมะเป็นอาหารทะเล", k=5)
    assert hits
    texts = p._doc_texts([hits[0][0]])
    assert "สาหร่ายวากาเมะเป็นอาหารทะเล" in texts[hits[0][0]].text
    # scrambled word order has the same terms but must NOT match as a phrase
    scrambled = p.search_phrase("อาหารทะเลเป็นสาหร่ายวากาเมะ", k=5)
    assert all(
        "อาหารทะเลเป็นสาหร่ายวากาเมะ" in p._doc_texts([d])[d].text
        for d, _ in scrambled
    )
    with pytest.raises(ValueError):
        proxy.search_phrase("x")  # no docs_path configured

# ---------------- ranking registry + A/B + content clustering ----------------

@pytest.fixture(scope="module")
def neardup_index(ray_session, tmp_path_factory):
    """Corpus with two near-identical docs (SequenceMatcher ratio >= 0.85)
    matching a unique term, plus filler docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("neardup")
    pages = root / "pages"
    pages.mkdir()
    base = ("wakameclone seaweed salad with sesame dressing is a delicious "
            "healthy appetizer enjoyed across coastal regions ")
    texts = [base * 3, (base * 3).replace("sesame", "ginger", 1)]
    for i in range(10):
        texts.append(f"filler document {i} about completely unrelated topic "
                     f"number {i} with unique words fill{i}a fill{i}b " * 3)
    urls = [f"https://nd.ex/{i}" for i in range(len(texts))]
    pq.write_table(
        pa.table({
            "url": pa.array(urls, pa.string()),
            "html": pa.array([f"<p>{t}</p>".encode() for t in texts], pa.binary()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
        }),
        str(pages / "p.parquet"),
    )
    out = str(root / "index")
    from meilisearch_thai_ray.index.build import build_index

    build_index(str(pages), out, EngineConfig(num_shards=4), num_salts=1,
                batch_size=64)
    import os

    return SearchEngine(out), os.path.join(out, "docs")


def test_content_similarity_clustering_drops_near_dup(neardup_index):
    eng, docs_path = neardup_index
    clustered = SearchProxy(eng, docs_path=docs_path)
    hits = clustered.search("wakameclone", k=10)
    assert len([h for h in hits]) == 1, hits  # near-dup collapsed
    # id-only paths keep both
    raw = SearchProxy(eng, docs_path=docs_path,
                      enable_content_similarity_dedup=False)
    assert len(raw.search("wakameclone", k=10)) == 2
    optimized = SearchProxy(eng, docs_path=docs_path,
                            algorithm="optimized_score")
    assert len(optimized.search("wakameclone", k=10)) == 2


def test_all_ranking_algorithms_run(neardup_index):
    eng, docs_path = neardup_index
    from meilisearch_thai_ray.pipelines.search_proxy import RANKING_ALGORITHMS

    for algo in RANKING_ALGORITHMS:
        p = SearchProxy(eng, docs_path=docs_path, algorithm=algo)
        hits = p.search("wakameclone seaweed", k=5)
        assert hits, algo
        assert all(h["algorithm"] == algo for h in hits)
        scores = [h["score"] for h in hits]
        assert scores == sorted(scores, reverse=True), algo
        assert hits == p.search("wakameclone seaweed", k=5), f"{algo} nondeterministic"
    with pytest.raises(ValueError):
        SearchProxy(eng, algorithm="nope")


def test_ab_assignment_deterministic_and_split(neardup_index):
    eng, docs_path = neardup_index
    p = SearchProxy(eng, docs_path=docs_path)
    assert p.select_algorithm("q", "s1") == "weighted_score"  # A/B off
    p.configure_ab_test("simple_score", 0.5)
    seen = {p.select_algorithm("query", f"session-{i}") for i in range(40)}
    assert seen == {"weighted_score", "simple_score"}  # both arms assigned
    for i in range(40):  # assignment is stable per (session, query)
        sid = f"session-{i}"
        assert p.select_algorithm("query", sid) == p.select_algorithm("query", sid)
    # results honor the assigned algorithm
    algos = {p.search("wakameclone", k=3, session_id=f"s{i}")[0]["algorithm"]
             for i in range(30)}
    assert algos == {"weighted_score", "simple_score"}
    with pytest.raises(ValueError):
        p.configure_ab_test("simple_score", 1.5)
    with pytest.raises(ValueError):
        p.configure_ab_test("bogus", 0.5)


def test_phrase_search_grows_past_initial_candidate_cap(ray_session, tmp_path):
    """A true phrase hit BM25-ranked below the initial candidate cap is still
    found (the pool grows until k verified or candidates exhausted)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.index.build import build_index

    pages = tmp_path / "pages"
    pages.mkdir()
    texts = [("alphaz q betaz r " * 12) for _ in range(130)]  # AND matches, no phrase
    texts.append("the needle alphaz betaz appears exactly once here")
    urls = [f"https://ph.ex/{i}" for i in range(len(texts))]
    pq.write_table(
        pa.table({
            "url": pa.array(urls, pa.string()),
            "html": pa.array([f"<p>{t}</p>".encode() for t in texts], pa.binary()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
        }),
        str(pages / "p.parquet"),
    )
    out = str(tmp_path / "index")
    build_index(str(pages), out, EngineConfig(num_shards=4), num_salts=1,
                batch_size=64)
    eng = SearchEngine(out)
    p = SearchProxy(eng, docs_path=os.path.join(out, "docs"))
    hits = p.search_phrase("alphaz betaz", k=5)
    assert len(hits) == 1  # found despite ranking 131st in the AND candidates
    texts_found = p._doc_texts([hits[0][0]])
    assert "alphaz betaz" in texts_found[hits[0][0]].text

# ---------------- per-request SearchOptions ----------------

def test_search_options_limit_offset_pagination(neardup_index):
    from meilisearch_thai_ray.pipelines.search_proxy import SearchOptions

    eng, docs_path = neardup_index
    p = SearchProxy(eng, docs_path=docs_path,
                    enable_content_similarity_dedup=False)
    full = p.search("wakameclone seaweed", options=SearchOptions(limit=10))
    page2 = p.search("wakameclone seaweed",
                     options=SearchOptions(limit=1, offset=1))
    assert len(page2) == 1
    assert page2[0]["doc_id"] == full[1]["doc_id"]
    assert page2[0]["score"] == full[1]["score"]


def test_search_options_filters(neardup_index):
    from meilisearch_thai_ray.pipelines.search_proxy import SearchOptions

    eng, docs_path = neardup_index
    p = SearchProxy(eng, docs_path=docs_path)
    hits = p.search("wakameclone", options=SearchOptions(filters={"lang": "en"}))
    assert hits  # corpus is lang=en
    none = p.search("wakameclone", options=SearchOptions(filters={"lang": "th"}))
    assert none == []


def test_search_options_filters_require_docs_path(neardup_index):
    """A filter is evaluated against the docs table: without docs_path the
    request raises, as sort and distinct over metadata do, instead of
    masking out every hit."""
    import pytest as _pytest

    from meilisearch_thai_ray.pipelines.search_proxy import SearchOptions

    eng, _docs_path = neardup_index
    with _pytest.raises(ValueError, match="docs_path"):
        SearchProxy(eng).search(
            "wakameclone", options=SearchOptions(filters={"lang": "en"}))


def test_docs_path_must_be_the_engines_docs(neardup_index, tmp_path):
    """docs_path only switches the doc features on: every read goes through
    the engine, so a path naming another table raises instead of being
    silently ignored; a link to the engine's own table is that table."""
    import os

    from meilisearch_thai_ray.pipelines.search_proxy import SearchOptions

    eng, docs_path = neardup_index
    with pytest.raises(ValueError, match="docs_path"):
        SearchProxy(eng, docs_path=str(tmp_path))
    link = tmp_path / "docs-link"
    os.symlink(docs_path, link)
    assert SearchProxy(eng, docs_path=str(link)).search(
        "wakameclone", options=SearchOptions(highlight=True))[0]["highlight"]


def test_search_options_highlight_crop(neardup_index):
    from meilisearch_thai_ray.pipelines.search_proxy import SearchOptions

    eng, docs_path = neardup_index
    p = SearchProxy(eng, docs_path=docs_path)
    hits = p.search("wakameclone",
                    options=SearchOptions(highlight=True, crop_length=60,
                                          crop_marker="…"))
    assert hits and "highlight" in hits[0]
    h = hits[0]["highlight"]
    assert "<em>wakameclone</em>" in h
    assert len(h) <= 60 + 2 * len("…") + len("<em></em>") * 8


def test_search_options_boost_and_strategy_override(neardup_index):
    from meilisearch_thai_ray.pipelines.search_proxy import SearchOptions

    eng, docs_path = neardup_index
    p = SearchProxy(eng, docs_path=docs_path,
                    enable_content_similarity_dedup=False)
    base = p.search("wakameclone", options=SearchOptions(limit=5))
    boosted = p.search("wakameclone",
                       options=SearchOptions(limit=5, boost_exact_matches=0.5))
    assert [h["doc_id"] for h in base] == [h["doc_id"] for h in boosted]
    assert boosted[0]["score"] != base[0]["score"]  # boost override applied
    # matching_strategy="any" can only widen the hit set vs "all"
    any_hits = p.search("wakameclone nonexistentzzz",
                        options=SearchOptions(limit=10, matching_strategy="frequency"))
    all_hits = p.search("wakameclone nonexistentzzz",
                        options=SearchOptions(limit=10, matching_strategy="all"))
    assert len(any_hits) >= len(all_hits)


def test_search_options_validation():
    from meilisearch_thai_ray.pipelines.search_proxy import SearchOptions

    with pytest.raises(ValueError):
        SearchOptions(limit=0)
    with pytest.raises(ValueError):
        SearchOptions(limit=101)
    with pytest.raises(ValueError):
        SearchOptions(offset=-1)
    with pytest.raises(ValueError):
        SearchOptions(crop_length=5)
    with pytest.raises(ValueError):
        SearchOptions(boost_exact_matches=9.0)
    with pytest.raises(ValueError):
        SearchOptions(max_query_variants=0)


def test_search_options_variant_controls(proxy):
    from meilisearch_thai_ray.pipelines.search_proxy import SearchOptions

    # max_query_variants=1 keeps only the top-weight variant
    hits = proxy.search("สาหร่ายวากาเมะ",
                        options=SearchOptions(limit=5, max_query_variants=1))
    assert len({h["variant_type"] for h in hits}) <= 1
    # enable_compound_search=False never emits compound_split hits
    hits2 = proxy.search("สาหร่ายวากาเมะ",
                         options=SearchOptions(limit=10,
                                               enable_compound_search=False))
    assert all(h["variant_type"] != "compound_split" for h in hits2)


def test_sort_parameter_orders_and_paginates(proxy):
    """Meilisearch `sort` criterion (requests.py:15): results reorder by
    the sortable field with relevancy as tie-break, pagination applies
    AFTER the sort, and doc_id sorting needs no docs_path."""
    import os

    from meilisearch_thai_ray.pipelines.search_proxy import (
        SearchOptions, SearchProxy)

    docs_path = os.path.join(proxy.engine.index_dir, "docs")
    p = SearchProxy(proxy.engine, docs_path=docs_path)
    q = "สาหร่ายวากาเมะ"
    plain = p.search(q, k=10)
    assert len(plain) >= 3

    asc = p.search(q, options=SearchOptions(limit=10,
                                            sort=["token_count:asc"]))
    desc = p.search(q, options=SearchOptions(limit=10,
                                             sort=["token_count:desc"]))
    assert {h["doc_id"] for h in asc} == {h["doc_id"] for h in plain}
    fields = p._doc_fields([h["doc_id"] for h in asc], ["token_count"])
    tc_asc = [fields[h["doc_id"]]["token_count"] for h in asc]
    assert tc_asc == sorted(tc_asc)
    tc_desc = [p._doc_fields([h["doc_id"]], ["token_count"])
               [h["doc_id"]]["token_count"] for h in desc]
    assert tc_desc == sorted(tc_desc, reverse=True)

    # pagination slices the SORTED order
    page2 = p.search(q, options=SearchOptions(
        limit=2, offset=2, sort=["token_count:asc"]))
    assert [h["doc_id"] for h in page2] == [h["doc_id"] for h in asc[2:4]]

    # doc_id sorting works without docs_path
    ids = p.search(q, options=SearchOptions(limit=10, sort=["doc_id:desc"]))
    got = [h["doc_id"] for h in ids]
    assert got == sorted(got, reverse=True)

    import pytest as _pytest

    with _pytest.raises(ValueError):
        SearchOptions(sort=["token_count:sideways"])
    with _pytest.raises(ValueError):
        SearchOptions(sort=["text:asc"])  # not a sortable field
    bare = SearchProxy(proxy.engine)  # no docs_path
    with _pytest.raises(ValueError):
        bare.search(q, options=SearchOptions(sort=["token_count:asc"]))


def test_search_with_info_tokenization_block(proxy):
    """include_tokenization_info analog: hits identical to search(), plus
    the reference TokenizationInfo fields (responses.py:61-73)."""
    q = "สาหร่ายวากาเมะ"
    out = proxy.search_with_info(q, k=5)
    assert out["hits"] == proxy.search(q, k=5)
    info = out["tokenization_info"]
    assert set(info) == {
        "tokenization_engine", "tokenization_time_ms", "tokens",
        "fallback_engines_used", "tokenization_confidence",
        "original_text_length", "token_count", "average_token_length"}
    assert info["original_text_length"] == len(q)
    assert info["token_count"] == len(info["tokens"]) > 0
    assert 0.0 <= info["tokenization_confidence"] <= 1.0
    assert info["average_token_length"] > 0


def test_search_with_info_prepares_once(proxy, monkeypatch):
    """search_with_info runs _prepare once per call (twice only when a
    negative term or quoted phrase leaves search a shorter query), with
    hits identical to search() and info identical to one built from its
    own _prepare of the whole query, tokenization_time_ms aside."""
    import os

    from meilisearch_thai_ray.pipelines.search_proxy import (
        SearchOptions, SearchProxy)

    proxy = SearchProxy(proxy.engine,
                        docs_path=os.path.join(proxy.engine.index_dir, "docs"))
    calls = []
    prepare = proxy._prepare

    def counted(*args, **kwargs):
        calls.append(args[0])
        return prepare(*args, **kwargs)

    monkeypatch.setattr(proxy, "_prepare", counted)
    for q, opts, want in [
            ("สาหร่ายวากาเมะ", None, 1),
            ("machine learning", SearchOptions(limit=3, max_query_variants=2),
             1),
            ("สาหร่าย ญี่ปุ่น", SearchOptions(enable_compound_search=False),
             1),
            ("ญี่ปุ่น well-known", None, 1),
            ("สาหร่าย -วากาเมะ", None, 2),
            ('"สาหร่ายวากาเมะ" อร่อย', None, 2)]:
        calls.clear()
        out = proxy.search_with_info(q, k=5, options=opts)
        assert len(calls) == want, (q, calls)
        hits = proxy.search(q, k=5, options=opts)
        assert out["hits"] == hits and hits, q
        _a, tokens, confidence, variants = prepare(
            q, max_variants=opts.max_query_variants if opts else None,
            enable_compound=opts.enable_compound_search if opts else True)
        info = dict(out["tokenization_info"])
        del info["tokenization_time_ms"]
        assert info == {
            "tokenization_engine": next(
                (v.engine for v in variants if v.variant_type == "tokenized"),
                "none"),
            "tokens": list(tokens),
            "fallback_engines_used": sorted(
                {v.engine for v in variants if v.variant_type == "fallback"}),
            "tokenization_confidence": confidence,
            "original_text_length": len(q),
            "token_count": len(tokens),
            "average_token_length": round(
                sum(map(len, tokens)) / len(tokens), 6) if tokens else 0.0,
        }, q


def test_distinct_attribute_one_hit_per_value(proxy):
    """Meilisearch distinct attribute: at most one hit per field value,
    the best-ranked survives; validation rejects non-sortable fields and
    metadata distinct without docs_path."""
    import os

    from meilisearch_thai_ray.pipelines.search_proxy import (
        SearchOptions, SearchProxy)

    docs_path = os.path.join(proxy.engine.index_dir, "docs")
    p = SearchProxy(proxy.engine, docs_path=docs_path)
    q = "สาหร่ายวากาเมะ"
    plain = p.search(q, k=20)
    langs = p._doc_fields([h["doc_id"] for h in plain], ["lang"])
    out = p.search(q, options=SearchOptions(limit=20, distinct="lang"))
    got_langs = [langs.get(h["doc_id"], {}).get("lang") for h in out]
    assert len(got_langs) == len(set(got_langs))  # one per value
    # the survivor per lang is the best-ranked one from the plain run
    first_per_lang = {}
    for h in plain:
        lv = langs.get(h["doc_id"], {}).get("lang")
        first_per_lang.setdefault(lv, h["doc_id"])
    assert [h["doc_id"] for h in out] == \
        [first_per_lang[lv] for lv in got_langs]

    import pytest as _pytest

    with _pytest.raises(ValueError):
        SearchOptions(distinct="text")
    bare = SearchProxy(proxy.engine)
    with _pytest.raises(ValueError):
        bare.search(q, options=SearchOptions(distinct="lang"))


# ------------------------------------------------ federated multi-search

@pytest.fixture(scope="module")
def federation(ray_session, tmp_path_factory):
    """Two disjoint corpora (different seeds -> different doc sets) behind
    one FederatedSearch registry."""
    from meilisearch_thai_ray.pipelines.search_proxy import FederatedSearch

    root = tmp_path_factory.mktemp("fed")
    proxies = {}
    for uid, seed in [("idx_a", 1), ("idx_b", 2)]:
        pages = str(root / f"pages_{uid}")
        out = str(root / f"index_{uid}")
        write_pages_parquet(pages, 120, seed=seed, rows_per_file=60)
        build_index(pages, out, EngineConfig(num_shards=2), num_salts=1,
                    batch_size=64)
        proxies[uid] = SearchProxy(SearchEngine(out))
    return FederatedSearch(proxies), proxies


def _fed_query(proxies):
    """A term present in both member indexes (the fixture corpora share the
    Thai vocabulary), picked deterministically."""
    return "สาหร่าย"


def test_federated_merges_both_indexes(federation):
    fed, proxies = federation
    q = _fed_query(proxies)
    hits = fed.search(q, limit=20)
    uids = {h["_federation"]["indexUid"] for h in hits}
    assert uids == {"idx_a", "idx_b"}
    # globally ordered by weightedRankingScore desc
    ws = [h["_federation"]["weightedRankingScore"] for h in hits]
    assert ws == sorted(ws, reverse=True)
    # each index's top hit normalizes to ranking score 1.0 at weight 1
    per_uid_best = {}
    for h in hits:
        u = h["_federation"]["indexUid"]
        per_uid_best.setdefault(u, h["_federation"]["weightedRankingScore"])
    assert all(v == 1.0 for v in per_uid_best.values())


def test_federated_weight_zero_excludes_and_weight_scales(federation):
    fed, proxies = federation
    q = _fed_query(proxies)
    only_b = fed.search(q, limit=20, weights={"idx_a": 0.0})
    assert {h["_federation"]["indexUid"] for h in only_b} == {"idx_b"}
    # down-weighting idx_b pushes every idx_b hit below every idx_a hit
    # whose normalized score exceeds the weight
    skew = fed.search(q, limit=40, weights={"idx_b": 1e-6})
    first_b = next(i for i, h in enumerate(skew)
                   if h["_federation"]["indexUid"] == "idx_b")
    assert all(h["_federation"]["indexUid"] == "idx_a"
               for h in skew[:first_b])


def test_federated_single_index_matches_plain_search(federation):
    fed, proxies = federation
    q = _fed_query(proxies)
    plain = proxies["idx_a"].search(q, k=10)
    via_fed = fed.multi_search([{"indexUid": "idx_a", "q": q}], limit=10)
    assert [h["doc_id"] for h in via_fed] == [h["doc_id"] for h in plain]
    with pytest.raises(KeyError):
        fed.multi_search([{"indexUid": "nope", "q": q}])


def test_federated_rrf_fusion(federation):
    """fusion='rrf': (a) same index registered twice -> every doc combines
    with score 2/(k+rank) in plain-search order; (b) over the disjoint
    two-corpus federation every hit keeps exactly one contributing rank
    and the list is ordered by descending rrfScore."""
    from meilisearch_thai_ray.pipelines.search_proxy import FederatedSearch

    fed, proxies = federation
    q = _fed_query(proxies)

    twin = FederatedSearch({"a": proxies["idx_a"], "b": proxies["idx_a"]})
    plain = proxies["idx_a"].search(q, k=10)
    rrf = twin.search(q, limit=10, fusion="rrf")
    assert [h["doc_id"] for h in rrf] == [h["doc_id"] for h in plain]
    for i, h in enumerate(rrf):
        rank = i + 1
        assert h["_federation"]["ranks"] == {"a": rank, "b": rank}
        assert abs(h["_federation"]["rrfScore"] - 2.0 / (60 + rank)) < 1e-9

    mixed = fed.search(q, limit=20, fusion="rrf")
    assert mixed, "shared Thai vocabulary must match in both corpora"
    scores = [h["_federation"]["rrfScore"] for h in mixed]
    assert scores == sorted(scores, reverse=True)
    # the fixture corpora share urls (same url scheme), so some doc_ids
    # appear in BOTH indexes and must combine: score == sum of the
    # per-index reciprocal ranks, payload from the best-ranked source
    assert any(len(h["_federation"]["ranks"]) == 2 for h in mixed)
    for h in mixed:
        ranks = h["_federation"]["ranks"]
        assert set(ranks) <= {"idx_a", "idx_b"}
        expect = sum(1.0 / (60 + r) for r in ranks.values())
        assert abs(h["_federation"]["rrfScore"] - expect) < 1e-9
        assert h["_federation"]["indexUid"] == min(
            ranks, key=lambda u: (ranks[u], u))

    import pytest as _pytest
    with _pytest.raises(ValueError):
        fed.multi_search([{"indexUid": "idx_a", "q": q}], fusion="nope")


# ---------------- negative keywords (-word / -"phrase") ----------------

def test_split_negative_terms_parser():
    from meilisearch_thai_ray.pipelines.search_proxy import (
        split_negative_terms,
    )

    # plain word and quoted phrase
    assert split_negative_terms('alpha -bravo') == ('alpha', ['bravo'], [])
    assert split_negative_terms('alpha -"bravo charlie"') == \
        ('alpha', [], ['bravo charlie'])
    # leading negative, multiple negatives, whitespace renormalized
    assert split_negative_terms('-x alpha -y beta') == \
        ('alpha beta', ['x', 'y'], [])
    # hyphen INSIDE a word is literal; bare/trailing hyphen is literal
    assert split_negative_terms('well-known term') == \
        ('well-known term', [], [])
    assert split_negative_terms('a - b') == ('a - b', [], [])
    assert split_negative_terms('trailing -') == ('trailing -', [], [])
    # only-negative query -> empty positive remainder
    assert split_negative_terms('-bravo') == ('', ['bravo'], [])


@pytest.fixture(scope="module")
def neg_index(ray_session, tmp_path_factory):
    """Three-doc English corpus with a positional index (phrase negatives)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("negkw")
    pages = root / "pages"
    pages.mkdir()
    texts = [
        "alpha bravo charlie staple words",      # doc 0
        "alpha delta echo staple words",         # doc 1
        "alpha charlie bravo staple words",      # doc 2 (scrambled phrase)
    ]
    urls = [f"https://neg.ex/{i}" for i in range(len(texts))]
    pq.write_table(
        pa.table({
            "url": pa.array(urls, pa.string()),
            "html": pa.array([f"<p>{t}</p>".encode() for t in texts],
                             pa.binary()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
        }),
        str(pages / "p.parquet"),
    )
    out = str(root / "index")
    from meilisearch_thai_ray.index.build import build_index

    build_index(str(pages), out,
                EngineConfig(num_shards=2, store_positions=True),
                num_salts=1, batch_size=64)
    eng = SearchEngine(out)
    by_url = {}
    import pyarrow.dataset as pads
    t = pads.dataset(os.path.join(out, "docs")).to_table(
        columns=["doc_id", "url"])
    for d, u in zip(t["doc_id"].to_pylist(), t["url"].to_pylist()):
        by_url[u] = int(d)
    ids = [by_url[u] for u in urls]  # fixture order -> engine doc_ids
    return SearchProxy(eng, docs_path=os.path.join(out, "docs")), ids


def test_negative_word_excludes_docs(neg_index):
    p, ids = neg_index
    base = {h["doc_id"] for h in p.search("alpha", k=10)}
    assert set(ids) <= base
    hits = {h["doc_id"] for h in p.search("alpha -bravo", k=10)}
    assert ids[1] in hits
    assert ids[0] not in hits and ids[2] not in hits
    # the negative keyword itself never leaks into exact-match boosting:
    # results are a subset of the positive-only search
    assert hits <= base


def test_negative_phrase_is_adjacency_scoped(neg_index):
    p, ids = neg_index
    hits = {h["doc_id"] for h in p.search('alpha -"bravo charlie"', k=10)}
    # doc0 has the adjacent phrase -> excluded; doc2 has both words scrambled
    # -> kept (a word-level negative would have dropped it too)
    assert ids[0] not in hits
    assert ids[1] in hits and ids[2] in hits


def test_only_negative_query_is_placeholder_minus_excluded(neg_index):
    p, ids = neg_index
    hits = [h["doc_id"] for h in p.search("-bravo", k=10)]
    assert hits == sorted(set(ids) - {ids[0], ids[2]})
    assert all(h == sorted(hits)[i] for i, h in enumerate(hits))
    # placeholder hits carry the placeholder variant marker
    full = p.search("-zzznotaword", k=10)
    assert [h["doc_id"] for h in full] == sorted(ids)
    assert all(h["variant_type"] == "placeholder" for h in full)


# ------------------- D3 clustering: exact bounds, brute-force equality -------

def _edit(rng, text: str, n_edits: int, alphabet: str) -> str:
    """`n_edits` random single-character insertions, deletions and
    substitutions."""
    chars = list(text)
    for _ in range(n_edits):
        op = rng.choice("ids") if chars else "i"
        i = rng.randrange(len(chars) + (op == "i"))
        if op == "i":
            chars.insert(i, rng.choice(alphabet))
        elif op == "d":
            del chars[i]
        else:
            chars[i] = rng.choice(alphabet)
    return "".join(chars)


def _bound_pairs() -> list[tuple[str, str]]:
    """Seeded Thai and Latin text pairs, truncated to 500 chars as the
    proxy truncates them: unrelated pairs, near-duplicates from 1-20
    character edits, heavier edits and prefixes that straddle the 0.85
    threshold, and empty or one-sided-empty texts."""
    import random

    from meilisearch_thai_ray.fixtures.pages import generate_pages

    rng = random.Random(20240611)
    texts = generate_pages(24, seed=7, lines_range=(20, 50))["text"] \
        .to_pylist()
    thai = "".join(chr(c) for c in range(0x0E01, 0x0E3B)) + " "
    latin = "abcdefghijklmnopqrstuvwxyz "
    texts += ["".join(rng.choice(latin) for _ in range(rng.randint(300, 700)))
              for _ in range(4)]
    texts = [t[:500] for t in texts]
    pairs = []
    for i, t in enumerate(texts):
        alphabet = latin if t.isascii() else thai
        pairs.append((t, texts[(i + 1) % len(texts)]))
        edits = [1, 2, 5, 10, 20, rng.randint(1, 20)]
        if i % 4 == 0:
            edits += range(30, 110, 8)  # ratios down through 0.85
        for n in edits:
            near = _edit(rng, t, n, alphabet)
            pairs.append((near, t) if n % 2 else (t, near))
    # a text against its own prefix: every bound equals the ratio, so the
    # cascade meets the threshold with no slack
    pairs += [(t, t[:n]) for t in texts[:3] for n in range(360, 420, 10)]
    pairs += [("", ""), ("", texts[0]), (texts[0], ""), ("ก", "ก"),
              ("ab", "ba"), ("a" * 600, "a" * 450)]
    return [(a[:500], b[:500]) for a, b in pairs]


def _lcs_dp(a: str, b: str) -> list[int]:
    """LCS(a[:i], b) for i = 0..len(a), by the textbook DP row recurrence
    cur[j+1] = prev[j] + 1 if a[i] == b[j] else max(prev[j+1], cur[j]),
    one row at a time as a running max (on a match prev[j] + 1 is never
    below prev[j+1] or cur[j])."""
    import numpy as np

    bb = np.array([ord(c) for c in b], dtype=np.int64)
    prev = np.zeros(len(b) + 1, dtype=np.int64)
    rows = [0]
    for ca in a:
        cand = np.maximum(prev[1:], np.where(bb == ord(ca), prev[:-1] + 1, 0))
        prev = np.concatenate(([0], np.maximum.accumulate(cand)))
        rows.append(int(prev[-1]))
    return rows


def _lcs_to_completion(ta, tb) -> float:
    """_lcs_bound with every row read before any check: with one chunk
    longer than any text it never exits early."""
    from unittest import mock

    from meilisearch_thai_ray.pipelines import search_proxy as sp

    with mock.patch.object(sp, "_LCS_CHECK_ROWS", 1 << 30):
        return sp._lcs_bound(ta, tb)


def _check_lcs_bound(a: str, b: str) -> None:
    """The LCS bound run to completion is the DP LCS ratio.  Stopped early
    it is the first checked row bound (matches so far + characters of a
    left) whose ratio is below the threshold, so still >= the DP ratio,
    and it stops only on pairs the DP ratio puts below the threshold."""
    from meilisearch_thai_ray.pipelines import search_proxy as sp

    rows = _lcs_dp(a, b)
    la, lb = len(a), len(b)
    dp = sp._ratio_of(rows[-1], la + lb)
    want, stopped = dp, False
    for i in range(sp._LCS_CHECK_ROWS, la, sp._LCS_CHECK_ROWS):
        r = sp._ratio_of(rows[i] + la - i, la + lb)
        if r < sp.SIMILARITY_THRESHOLD:
            want, stopped = r, True
            break
    ta, tb = sp._ClusterText(a), sp._ClusterText(b)
    assert _lcs_to_completion(ta, tb) == dp
    got = sp._lcs_bound(ta, tb)
    assert got == want, (a[:40], b[:40], got, want)
    assert got >= dp
    if stopped:
        assert dp < sp.SIMILARITY_THRESHOLD


def _block_count(a: str, b: str) -> int:
    """S2 + NP + 1 unhashed, from Counters: shared bigram occurrences,
    shared occurrences of the characters not popular in b (difflib's
    autojunk: more than len(b) // 100 + 1 of them in a b of >= 200
    chars), plus one."""
    from collections import Counter

    def bigrams(s):
        return Counter(s[i:i + 2] for i in range(len(s) - 1))

    shared = Counter(a) & Counter(b)
    if len(b) >= 200:
        popular = len(b) // 100 + 1
        shared = Counter({c: n for c, n in shared.items()
                          if b.count(c) <= popular})
    return (bigrams(a) & bigrams(b)).total() + shared.total() + 1


def _matched(a: str, b: str) -> int:
    """M: the total size of SequenceMatcher(None, a, b)'s matching
    blocks."""
    from difflib import SequenceMatcher

    return sum(m.size for m in
               SequenceMatcher(None, a, b).get_matching_blocks())


def test_cluster_bounds_are_exact_upper_bounds_of_ratio():
    """Each bound is >= SequenceMatcher.ratio() (so a pair it rules out is
    never a near-duplicate), the length bound is difflib's own
    real_quick_ratio, the hashed block bound is >= the unhashed
    S2 + NP + 1, which is >= M, _near_duplicate decides every pair as
    ratio() alone does, and the LCS bound stops early only as
    _check_lcs_bound allows."""
    from difflib import SequenceMatcher

    from meilisearch_thai_ray.pipelines import search_proxy as sp

    pairs = _bound_pairs()
    ratios, stopped = [], 0
    for a, b in pairs:
        ta, tb = sp._ClusterText(a), sp._ClusterText(b)
        matcher = SequenceMatcher(None, a, b)
        r = matcher.ratio()
        bounds = [bound(ta, tb) for bound in sp._RATIO_BOUNDS]
        assert all(x >= r for x in bounds), (a[:40], b[:40], bounds, r)
        assert bounds[0] == matcher.real_quick_ratio()
        exact = _block_count(a, b)
        assert bounds[1] >= sp._ratio_of(exact, len(a) + len(b))
        assert exact >= _matched(a, b), (a[:40], b[:40])
        assert sp._near_duplicate(ta, tb) == (r >= sp.SIMILARITY_THRESHOLD)
        ratios.append(r)
        _check_lcs_bound(a, b)
        stopped += bounds[2] != _lcs_to_completion(ta, tb)
    # pairs close to both sides of the threshold
    assert any(0.85 <= r < 0.88 for r in ratios)
    assert any(0.82 <= r < 0.85 for r in ratios)
    assert stopped > 0


_THAI_PAGES = generate_pages(8, seed=7, lines_range=(20, 50))["text"] \
    .to_pylist()


@st.composite
def _lcs_pairs(draw):
    """(a, b) of at most 500 chars over a 2-4-letter alphabet or cut from
    Thai fixture pages: b with random edits, an unrelated text, or a run of
    a letter b lacks followed by a subsequence of b, for which every row
    bound checked past the run equals the final LCS (no slack to hide an
    off-by-one in the characters-left term)."""
    import random

    source = draw(st.sampled_from(["ab", "abc", "abcd", "thai"]))
    if source == "thai":
        page = draw(st.sampled_from(_THAI_PAGES))
        at = draw(st.integers(0, len(page)))
        b = page[at:at + draw(st.integers(0, 500))]
        alphabet = "".join(sorted(set(page)))
    else:
        alphabet = source
        b = draw(st.text(alphabet=alphabet, max_size=400))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    shape = draw(st.sampled_from(["edit", "unrelated", "run"]))
    if shape == "edit":
        a = _edit(rng, b, draw(st.integers(0, 150)), alphabet)
    elif shape == "unrelated":
        a = "".join(rng.choice(alphabet)
                    for _ in range(draw(st.integers(0, 400))))
    else:
        keep = draw(st.floats(0.5, 1.0))
        a = "\0" * draw(st.integers(0, 120)) + "".join(
            c for c in b if rng.random() < keep)
    if shape != "run" and draw(st.booleans()):
        a, b = b, a
    return a[:500], b[:500]


@settings(max_examples=300, deadline=None)
@given(_lcs_pairs())
def test_lcs_bound_early_exit_property(pair):
    """_check_lcs_bound on generated pairs, and the pruned cascade decides
    as ratio() does."""
    from difflib import SequenceMatcher

    from meilisearch_thai_ray.pipelines import search_proxy as sp

    a, b = pair
    _check_lcs_bound(a, b)
    assert sp._near_duplicate(sp._ClusterText(a), sp._ClusterText(b)) == (
        SequenceMatcher(None, a, b).ratio() >= sp.SIMILARITY_THRESHOLD)


# characters no spaced pair's b holds: U+0000, a non-BMP emoji and a Thai
# sign; edited pairs mix them into page text
_ABSENT = "\0\U0001F600\u0E5B"


@st.composite
def _block_pairs(draw):
    """(a, b) for the block bound, b of 150-260 chars so difflib's autojunk
    (b >= 200 chars) is both on and off:

    * spaced: b is a few background letters, popular in b once it has 200
      chars, with k copies of a marker letter at random places, k at
      len(b) // 100 + 1 plus -1..2 (the popularity cut); a is a prefix of
      b, then markers each behind a character b lacks, padded with such
      characters to 150-260 chars.  The prefix block has an empty seed
      when it holds no marker, where M = S2 + NP + 1 holds with no slack;
      the markers are single-character blocks seeded only while
      non-popular in b;
    * edit: a slice of a Thai page, with emoji and U+0000 mixed in, and
      the same slice after enough random edits to straddle 0.85, then
      extended by up to 60 of the page's next chars."""
    import random

    rng = random.Random(draw(st.integers(0, 1 << 32)))
    lb = draw(st.integers(150, 260))
    if draw(st.sampled_from(["spaced", "edit"])) == "spaced":
        background = draw(st.sampled_from(["ab", "abc", "กขค", "a"]))
        marker = draw(st.sampled_from("zงA"))
        k = max(1, lb // 100 + 1 + draw(st.integers(-1, 2)))
        b = [rng.choice(background) for _ in range(lb - k)]
        for _ in range(k):
            b.insert(rng.randrange(len(b) + 1), marker)
        b = "".join(b)
        a = b[:draw(st.integers(0, 40))] + "".join(
            rng.choice(_ABSENT) + marker
            for _ in range(draw(st.integers(1, k + 3))))
        pad = draw(st.integers(150, 260)) - len(a)
        a += "".join(rng.choice(_ABSENT) for _ in range(max(0, pad)))
    else:
        page = draw(st.sampled_from(_THAI_PAGES))
        at = draw(st.integers(0, len(page) - lb))
        b = list(page[at:at + lb])
        for _ in range(draw(st.integers(0, 6))):
            b[rng.randrange(lb)] = rng.choice(_ABSENT)
        b = "".join(b)
        alphabet = "".join(sorted(set(b)))
        # with the page's next chars a is often on the other side of 200
        # chars from b, where ratio(a, b) and ratio(b, a) differ most
        a = _edit(rng, b, draw(st.integers(0, 60)), alphabet) \
            + page[at + lb:at + lb + draw(st.integers(0, 60))]
    if draw(st.booleans()):
        a, b = b, a
    return a, b


@settings(max_examples=300, deadline=None)
@given(_block_pairs())
def test_block_bound_property(pair):
    """The hashed block bound is >= M, the unhashed S2 + NP + 1 is too,
    and _near_duplicate decides every pair as ratio() >= 0.85 alone
    does."""
    from difflib import SequenceMatcher

    from meilisearch_thai_ray.pipelines import search_proxy as sp

    a, b = pair
    ta, tb = sp._ClusterText(a), sp._ClusterText(b)
    m = _matched(a, b)
    assert _block_count(a, b) >= m
    assert sp._block_bound(ta, tb) >= sp._ratio_of(m, len(a) + len(b))
    assert sp._near_duplicate(ta, tb) == (
        SequenceMatcher(None, a, b).ratio() >= sp.SIMILARITY_THRESHOLD)

def test_cluster_bytes_count_masks_when_built(tmp_path):
    """The clustering step of a request, on cached fixture texts and
    near-duplicates of some: _cluster_bytes counts each text's LCS masks
    once the LCS bound has built them, at their real size, and at every
    step equals what the cached clustering texts hold."""
    import random
    import sys

    import pyarrow as pa
    import pyarrow.compute as pc

    from meilisearch_thai_ray.kernel import html_to_text
    from meilisearch_thai_ray.pipelines import search_proxy as sp

    pages = generate_pages(12, seed=11, lines_range=(20, 50))
    texts = [html_to_text(h) for h in pages["html"].to_pylist()]
    rng = random.Random(11)
    for t in texts[:4]:  # a few characters edited: these reach the LCS
        chars = list(t[:500])
        for _ in range(5):
            chars[rng.randrange(len(chars))] = "ก"
        texts.append("".join(chars) + t[500:])
    texts.append("สั้น")  # shorter than 500 chars: the record's own text
    docs = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.string())})

    class DocsOnly:  # the engine surface the doc cache reads
        index_dir = str(tmp_path)

        def doc_rows(self, doc_ids, columns, where=None):
            return docs.filter(pc.is_in(docs["doc_id"],
                                        pa.array(doc_ids, pa.int64())))

    proxy = SearchProxy(DocsOnly(), docs_path=str(tmp_path / "docs"))
    accepted = []
    for d in range(len(texts)):
        cand = proxy._cluster_text(d)
        if not any(sp._near_duplicate(cand, acc) for acc in accepted):
            accepted.append(cand)
        # what the cached clustering texts hold, a text shared with its
        # record counted once
        assert proxy._cluster_bytes.n == sum(
            r.cluster.nbytes() - (sys.getsizeof(r.text)
                                  if r.cluster.text is r.text else 0)
            for r in proxy._clustered)
    built = [r.cluster for r in proxy._clustered
             if r.cluster._masks is not None]
    assert 0 < len(built) < len(proxy._clustered)
    for ct in built:
        masks = ct._masks
        assert ct._masks_nbytes() == sys.getsizeof(masks) + sum(
            sys.getsizeof(ch) + sys.getsizeof(m) for ch, m in masks.items())
    assert len(accepted) == 13


# the request shapes of the proxy benchmark (perfbench/bench_inputs.py)
_SHAPES = {
    "default": ("{q}", {}),
    "frequency": ("{q}", {"matching_strategy": "frequency"}),
    "typo": ("{q}", {"typo_tolerance": True, "matching_strategy": "any"}),
    "highlight": ("{q}", {"highlight": True, "show_matches_position": True}),
    "rules": ("{q}", {"ranking_rules": True}),
    "lang": ("{q}", {"filters": {"lang": "th"}}),
    "phrase": ('"{q}"', {}),
    "negative": ("{q} -{neg}", {}),
}


def _reference_cluster(ids: list[int], texts: dict[int, str], cap: int,
                       limit: int) -> tuple[list[int], int]:
    """The reference's D3 loop (result_ranker.py:635-712) with the full
    ratio() for every pair: walk the hits in rank order, drop one whose
    first 500 chars reach the threshold against an accepted hit, count
    every pair considered against the cap.  -> (kept ids, duplicates)."""
    from difflib import SequenceMatcher

    from meilisearch_thai_ray.pipelines.search_proxy import (
        SIMILARITY_THRESHOLD)

    kept, accepted, comparisons, dups = [], [], 0, 0
    for d in ids:
        text = texts.get(d, "")[:500]
        dup = False
        if text:
            for at in accepted:
                if comparisons >= cap:
                    break
                comparisons += 1
                if SequenceMatcher(None, text, at).ratio() >= \
                        SIMILARITY_THRESHOLD:
                    dup = True
                    break
        if dup:
            dups += 1
            continue
        accepted.append(text)
        kept.append(d)
        if len(kept) >= limit:
            break
    return kept, dups


def _assert_clustering_matches_brute_force(monkeypatch, eng, docs_path,
                                           queries, neg, cap=None):
    """Every query in every benchmark shape returns the same ids in the
    same order as the reference loop run over the same request's
    unclustered hits.  The rules chain reorders the clustered list after
    clustering, so it is taken out here to compare the clustering itself.
    Each request runs on a fresh proxy, then again on one proxy reused
    over every request in two seeded orders, so its doc cache serves texts,
    lowered texts and clustering texts fetched by earlier requests, and
    once more under cache budgets that make it evict.
    -> (duplicates dropped, requests whose answer the cap changed)."""
    import random
    import sys

    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines import search_proxy as sp

    if cap is not None:
        monkeypatch.setattr(sp, "MAX_SIMILARITY_COMPARISONS", cap)
    monkeypatch.setattr(SearchProxy, "_rules_chain_order",
                        lambda self, query, hits, *args, **kwargs: hits)
    docs = pq.read_table(docs_path, columns=["doc_id", "text"])
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))

    def run(q, shape, limit, cluster, proxy=None):
        fmt, opts = _SHAPES[shape]
        proxy = proxy or SearchProxy(eng, docs_path=docs_path,
                                     enable_content_similarity_dedup=cluster)
        hits = proxy.search(fmt.format(q=q, neg=neg),
                            options=sp.SearchOptions(limit=limit, **opts))
        return [h["doc_id"] for h in hits]

    dups = capped = 0
    wants = {}
    for q in queries:
        for shape in _SHAPES:
            walked = run(q, shape, 100, cluster=False)
            want, n = _reference_cluster(walked, texts,
                                         sp.MAX_SIMILARITY_COMPARISONS, 10)
            assert run(q, shape, 10, cluster=True) == want, (q, shape)
            dups += n
            capped += want != _reference_cluster(walked, texts, 1 << 30,
                                                 10)[0]
            wants[q, shape] = want
    warm = SearchProxy(eng, docs_path=docs_path)
    for seed in (1, 2):
        order = list(wants)
        random.Random(seed).shuffle(order)
        for q, shape in order:
            assert run(q, shape, 10, True, warm) == wants[q, shape], \
                (seed, q, shape)
    # again over a cache too small for it: at a budget the cached texts
    # just fill, each read drops the clustering texts and keeps the texts;
    # at 0 it drops everything
    n = len(warm._doc_cache)
    for budget in (warm._text_bytes + sys.getsizeof(warm._doc_cache), 0):
        monkeypatch.setattr(sp, "DOC_CACHE_BYTES", budget)
        for q, shape in order:
            assert run(q, shape, 10, True, warm) == wants[q, shape], \
                (budget, q, shape)
        assert (len(warm._doc_cache) == n) == (budget > 0)
    return dups, capped


@pytest.fixture(scope="module")
def neardup_pages_index(ray_session, tmp_path_factory):
    """200 benchmark-sized fixture pages plus a near-duplicate (a few
    characters edited) of every fourth page."""
    import os
    import random

    import pyarrow as pa
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.fixtures.pages import generate_pages

    root = tmp_path_factory.mktemp("neardup_pages")
    pages = root / "pages"
    pages.mkdir()
    base = generate_pages(200, seed=11, lines_range=(20, 50))
    pq.write_table(base, str(pages / "pages-0.parquet"))
    rng = random.Random(11)
    copies = base.take(list(range(0, 200, 4)))
    urls = [u + "?copy" for u in copies["url"].to_pylist()]
    htmls = [h.replace(b"</h1>", rng.choice([" ก", " ขอ", " x1"]).encode()
                       + b"</h1>", 1)
             for h in copies["html"].to_pylist()]
    copies = copies.set_column(0, "url", pa.array(urls, pa.string())) \
        .set_column(2, "html", pa.array(htmls, pa.binary()))
    pq.write_table(copies, str(pages / "pages-1.parquet"))
    out = str(root / "index")
    build_index(str(pages), out, EngineConfig(num_shards=4), num_salts=1,
                batch_size=64)
    return SearchEngine(out), os.path.join(out, "docs")


def test_cluster_matches_brute_force_neardup_index(monkeypatch,
                                                   neardup_index):
    eng, docs_path = neardup_index
    dups, _ = _assert_clustering_matches_brute_force(
        monkeypatch, eng, docs_path, ["wakameclone", "wakameclone seaweed",
                                      "filler document"], neg="fill3a")
    assert dups > 0


@pytest.mark.parametrize("cap", [None, 3])
def test_cluster_matches_brute_force_pages_index(monkeypatch, cap,
                                                 neardup_pages_index):
    """The fixture queries in every benchmark request shape, under the
    reference comparison cap and under a cap of 3: the cap counts every
    pair considered, whether or not a bound rules it out."""
    from meilisearch_thai_ray.fixtures.queries import QUERY_FIXTURES

    eng, docs_path = neardup_pages_index
    queries = [f["query"] for f in QUERY_FIXTURES][::3]
    dups, capped = _assert_clustering_matches_brute_force(
        monkeypatch, eng, docs_path, queries, neg="machine", cap=cap)
    assert dups > 0
    assert (capped > 0) == (cap is not None)


# ---- the rank stage: one key table against the sequential rankers ----


class _ReferenceRankers:
    """The ranking algorithms as sequential dedup loops over
    (hit, score, variant, position) tuples, kept verbatim from before the
    proxy ranked one columnar batch: the reference its key table must
    reproduce."""

    def _rank_weighted(self, candidates: list[tuple], analysis: dict):
        """weighted_score (result_ranker.py:1025-1072): id-dedup keeping the
        best per the full reference tie-break order; content-similarity
        clustering is applied downstream by search()."""
        best: dict[int, tuple] = {}
        for cand in candidates:
            doc_id = cand[0]["doc_id"]
            cur = best.get(doc_id)
            if cur is None or self._tie_key(cand) < self._tie_key(cur):
                best[doc_id] = cand
        return sorted(best.values(), key=self._tie_key), len(best)

    def _rank_optimized(self, candidates: list[tuple], analysis: dict):
        """optimized_score (result_ranker.py:1074-1133): id-only dedup with
        the reference's DISJUNCTIVE tie-break (should_replace at :1099-1110):
        higher score wins; on equal score, replace if EITHER the variant/
        engine/weight comparison prefers the challenger OR the variant types
        match and the challenger sat at a lower position. (Yes: with equal
        types, position can override engine/weight — faithfully mirrored,
        not an ordered hierarchy.) The production fast path."""
        best: dict[int, tuple] = {}
        for cand in candidates:
            _hit, score, variant, pos = cand
            doc_id = cand[0]["doc_id"]
            cur = best.get(doc_id)
            if cur is None:
                best[doc_id] = cand
                continue
            _chit, cscore, cvariant, cpos = cur
            replace = score > cscore or (
                score == cscore
                and (
                    self._variant_precedes(variant, cvariant)
                    or (variant.variant_type == cvariant.variant_type
                        and pos < cpos)
                )
            )
            if replace:
                best[doc_id] = cand
        ranked = sorted(
            best.values(), key=lambda c: (-c[1], c[0]["doc_id"])
        )
        return ranked, len(best)

    def _rank_simple(self, candidates: list[tuple], analysis: dict):
        """simple_score (result_ranker.py:1183-1205): keep the highest score
        per doc id, sort by score."""
        best: dict[int, tuple] = {}
        for cand in candidates:
            doc_id = cand[0]["doc_id"]
            cur = best.get(doc_id)
            if cur is None or cand[1] > cur[1]:
                best[doc_id] = cand
        ranked = sorted(
            best.values(), key=lambda c: (-c[1], c[0]["doc_id"])
        )
        return ranked, len(best)

    def _rank_experimental(self, candidates: list[tuple], analysis: dict):
        """experimental_score (result_ranker.py:1207-1258): extra x1.2 boost
        for Thai-dominant queries, then best-score-per-doc."""
        boost = (
            EXPERIMENTAL_THAI_BOOST
            if analysis["thai_content_ratio"] > 0.7 else 1.0
        )
        boosted = [
            (hit, score * boost, variant, pos)
            for hit, score, variant, pos in candidates
        ]
        return self._rank_simple(boosted, analysis)

    _RANKERS = {
        "weighted_score": _rank_weighted,
        "optimized_score": _rank_optimized,
        "simple_score": _rank_simple,
        "experimental_score": _rank_experimental,
    }

    @staticmethod
    def _variant_precedes(v1: QueryVariant, v2: QueryVariant) -> bool:
        """result_ranker.py:1135-1181 _compare_variants_for_tie_breaking."""
        p1 = VARIANT_PRIORITY.get(v1.variant_type, 4)
        p2 = VARIANT_PRIORITY.get(v2.variant_type, 4)
        if p1 != p2:
            return p1 < p2
        e1 = ENGINE_PRIORITY.get(v1.engine, 4)
        e2 = ENGINE_PRIORITY.get(v2.engine, 4)
        if e1 != e2:
            return e1 < e2
        return v1.weight > v2.weight

    @staticmethod
    def _tie_key(cand: tuple):
        hit, score, variant, pos = cand
        return (
            -score,
            VARIANT_PRIORITY.get(variant.variant_type, 4),
            ENGINE_PRIORITY.get(variant.engine, 4),
            pos,
            -variant.weight,
            -hit.get("content_length", 0),  # prefer comprehensive docs (:543)
            hit["doc_id"],  # final deterministic break
        )


def test_rank_stage_matches_sequential_rankers():
    """Over seeded random candidate sets (each variant type at most once,
    a doc at most once per variant, scores, weights, engines and content
    lengths drawn from small pools so they tie), the rank stage returns the
    reference rankers' docs in their order, with their scores, variants
    and unique-doc count, under every algorithm."""
    import random

    import numpy as np

    from meilisearch_thai_ray.pipelines import search_proxy as sp

    rng = random.Random(15)
    ref = _ReferenceRankers()
    types = [sp.ORIGINAL, sp.TOKENIZED, sp.COMPOUND_SPLIT, sp.FALLBACK,
             sp.MIXED_LANGUAGE]
    engines = ["none", "newmm", "basic", "attacut"]
    for _ in range(3000):
        pool = [rng.getrandbits(63) for _ in range(rng.randint(1, 10))]
        length = {d: rng.choice([0, 40, 900]) for d in pool}
        variants = [sp.QueryVariant("q", t, rng.choice(engines),
                                    rng.choice([0.6, 0.9, 1.0]))
                    for t in rng.sample(types, rng.randint(1, 5))]
        cands = []
        for v in variants:
            for pos, d in enumerate(rng.sample(pool,
                                               rng.randint(0, len(pool)))):
                cands.append(({"doc_id": d, "raw_score": 1.0,
                               "content_length": length[d]},
                              rng.choice([0.1, 0.35, 0.35 * 0.7, 1.0]),
                              v, pos))
        vindex = {id(v): i for i, v in enumerate(variants)}
        batch = sp._Batch(
            np.array([c[0]["doc_id"] for c in cands], np.uint64),
            np.ones(len(cands)), np.array([c[1] for c in cands], np.float64),
            np.array([vindex[id(c[2])] for c in cands], np.int64),
            np.array([c[3] for c in cands], np.int64),
            np.array([c[0]["content_length"] for c in cands], np.int64))
        analysis = {"thai_content_ratio": rng.choice([0.0, 0.75])}
        for algo in sp.RANKING_ALGORITHMS:
            want, want_n = ref._RANKERS[algo](ref, cands, analysis)
            got = SearchProxy._rank(batch, variants, algo, analysis)
            assert len(got.doc_id) == want_n, algo
            assert got.doc_id.tolist() == [c[0]["doc_id"] for c in want], algo
            assert got.score.tolist() == [c[1] for c in want], algo
            assert [variants[v] for v in got.variant.tolist()] == \
                [c[2] for c in want], algo
            assert got.pos.tolist() == [c[3] for c in want], algo


# sha1 of json.dumps(hits, sort_keys=True) over every request below, per
# algorithm, as the sequential rankers and per-hit boosts answered them
_NEARDUP_HITS_SHA1 = {
    "weighted_score": "2f4d6b013795ed894d075e027b8658b8c6ef6ada",
    "optimized_score": "dd396195b4d4cb9ed6163fd0eff52c6c401877b4",
    "simple_score": "fda51118f70bc3b8a1ba65aa895943b6354109da",
    "experimental_score": "9de3b776b3f98479b818098d4b56cb1a68638471",
}


def test_hits_bit_identical_every_shape_and_algorithm(neardup_index):
    """The fixture queries in every benchmark request shape under every
    ranking algorithm return hits identical, scores bit for bit, to the
    pinned ones."""
    import hashlib
    import json

    from meilisearch_thai_ray.pipelines import search_proxy as sp

    eng, docs_path = neardup_index
    for algo in sp.RANKING_ALGORITHMS:
        p = SearchProxy(eng, docs_path=docs_path, algorithm=algo)
        hits = [p.search(fmt.format(q=q, neg="fill3a"),
                         options=sp.SearchOptions(limit=10, **opts))
                for q in ("wakameclone", "wakameclone seaweed",
                          "filler document")
                for fmt, opts in _SHAPES.values()]
        digest = hashlib.sha1(
            json.dumps(hits, sort_keys=True).encode()).hexdigest()
        assert digest == _NEARDUP_HITS_SHA1[algo], algo


# ---- one matching-strategy implementation (index.search.match_topk) ----


def _inline_strategy_hits(self, variants, options):
    """The per-variant retrieval SearchProxy.search ran inline before it
    called index.search.match_topk, kept verbatim (`self` is the proxy):
    the reference the shared implementation must reproduce.
    -> one hit list per variant."""
    from meilisearch_thai_ray.pipelines.search_proxy import (
        FALLBACK, MAX_RESULTS_PER_VARIANT)

    strategies = {ORIGINAL: "all", TOKENIZED: "last", COMPOUND_SPLIT: "last"}
    if options and options.matching_strategy:
        strategies = {v.variant_type: options.matching_strategy
                      for v in variants}
    out = []
    for variant in variants:
        terms = self.expand_synonyms(variant.terms)
        strat = strategies.get(variant.variant_type, "any")
        if strat == "all":
            hits = self.engine.score_topk(terms, k=MAX_RESULTS_PER_VARIANT,
                                          match="all")
        elif strat == "last":
            tt = list(terms)
            hits = []
            while tt:
                hits = self.engine.score_topk(tt, k=MAX_RESULTS_PER_VARIANT,
                                              match="all")
                if hits:
                    break
                tt = tt[:-1]
        elif strat == "frequency":
            use_typo = (options.typo_tolerance if options is not None
                        and options.typo_tolerance is not None
                        else variant.variant_type == FALLBACK)
            expand = getattr(self.engine, "expand_typo", None)
            ts = (options.typo_settings or {}) if options else {}
            mws = ts.get("minWordSizeForTypos") or {}
            disabled = set(ts.get("disableOnWords") or ())
            groups: dict[str, list[str]] = {}
            for t in terms:
                g = [t]
                if use_typo and expand is not None and t not in disabled:
                    g += [x for x in expand(t, 3,
                                            one_typo=mws.get("oneTypo"),
                                            two_typos=mws.get("twoTypos"))
                          if x not in g]
                groups.setdefault(t, g)
            order = list(dict.fromkeys(terms))
            hits = []
            if all(len(groups[t]) == 1 for t in order):
                hits = self.engine.score_topk(
                    order, k=MAX_RESULTS_PER_VARIANT, match="all")
            if not hits:
                word_docs = {
                    t: {d for d, _ in self.engine.score_topk(g, k=1 << 62)}
                    for t, g in groups.items()}
            while not hits and order:
                allowed = set(word_docs[order[0]])
                for t in order[1:]:
                    allowed &= word_docs[t]
                if allowed:
                    flat = list(dict.fromkeys(
                        x for t in order for x in groups[t]))
                    hits = [(d, s) for d, s in
                            self.engine.score_topk(flat, k=1 << 62)
                            if d in allowed][:MAX_RESULTS_PER_VARIANT]
                    break
                drop = max(range(len(order)),
                           key=lambda i: (not word_docs[order[i]],
                                          len(word_docs[order[i]]), i))
                order.pop(drop)
        else:
            use_typo = (options.typo_tolerance if options is not None
                        and options.typo_tolerance is not None
                        else variant.variant_type == FALLBACK)
            expand = getattr(self.engine, "expand_typo", None)
            if use_typo and expand is not None:
                ts = (options.typo_settings or {}) if options else {}
                mws = ts.get("minWordSizeForTypos") or {}
                disabled = set(ts.get("disableOnWords") or ())
                extra = [x for t in terms if t not in disabled
                         for x in expand(t, 3,
                                         one_typo=mws.get("oneTypo"),
                                         two_typos=mws.get("twoTypos"))
                         if x not in terms]
                terms = list(terms) + list(dict.fromkeys(extra))
            hits = self.engine.score_topk(terms, k=MAX_RESULTS_PER_VARIANT)
        out.append(hits)
    return out


@pytest.fixture(scope="module")
def strategy_grid(ray_session, tmp_path_factory):
    """A 300-page index, a copy with 45 docs
    tombstoned, and queries: the fixtures plus mined df-disjoint pairs,
    triples, misspelled words (alone, with another word, with the word
    they misspell), repeated words, ghost words and pairs of
    typo-expanding words whose derivation groups share no doc (the
    "frequency" relax path). -> (engines, queries, relax queries,
    synonyms)."""
    import random
    import shutil

    import pyarrow.parquet as pq

    from meilisearch_thai_ray.fixtures.queries import QUERY_FIXTURES
    from meilisearch_thai_ray.index.maintenance import delete_docs

    root = tmp_path_factory.mktemp("strategy_grid")
    pages, out, tomb = (str(root / n) for n in ("pages", "index", "tomb"))
    write_pages_parquet(pages, 300, rows_per_file=100)
    build_index(pages, out, EngineConfig(num_shards=4), num_salts=2,
                batch_size=64)
    shutil.copytree(out, tomb)
    rng = random.Random(4)
    ids = pq.read_table(f"{out}/docs", columns=["doc_id"])["doc_id"]
    delete_docs(tomb, rng.sample(ids.to_pylist(), 45))
    eng = SearchEngine(out)
    vocab = pq.read_table(f"{out}/termdict", columns=["term"])["term"] \
        .to_pylist()
    docs = {t: set(eng.word_docs([t]).tolist()) for t in vocab}
    mid = sorted(t for t in vocab if 2 <= len(docs[t]) <= 60)
    mined = []
    while len(mined) < 6:
        a, b = rng.sample(mid, 2)
        if not docs[a] & docs[b]:
            mined.append(f"{a} {b}")
    mined += [" ".join(rng.sample(mid, 3)) for _ in range(4)]
    long_words = [t for t in mid if 5 <= len(t) <= 10]
    for n in range(6):  # the last form shares a derivation between words
        a = rng.choice(long_words)
        i = rng.randrange(1, len(a))
        bad = a[:i] + "q" + a[i + 1:]
        mined.append((bad, f"{bad} {rng.choice(mid)}", f"{a} {bad}")[n % 3])
    for _ in range(3):
        a, b = rng.sample(mid, 2)
        mined.append(f"{a} {b} {a}")
    mined += [f"zzqqxxv {rng.choice(mid)}",
              f"{rng.choice(mid)} qqzzvv {rng.choice(mid)}"]
    relax = []
    expanding = [t for t in long_words if eng.expand_typo(t, 3)]
    for a in expanding:
        for b in expanding:
            if len(relax) == 2:
                break
            ga = set(eng.word_docs([a] + eng.expand_typo(a, 3)).tolist())
            gb = set(eng.word_docs([b] + eng.expand_typo(b, 3)).tolist())
            if a < b and not ga & gb and \
                    eng.query_terms(f"{a} {b}") == [a, b]:
                relax.append(f"{a} {b}")
    assert relax, "need typo-expanding words with disjoint groups"
    synonyms = {"วากาเมะ": ["สาหร่ายวากาเมะ"]}
    for _ in range(5):
        a, b = rng.sample(mid, 2)
        synonyms[a] = [b]
    queries = [f["query"] for f in QUERY_FIXTURES] + mined + relax
    return [eng, SearchEngine(tomb)], queries, relax, synonyms


def test_match_topk_equals_inline_strategy_loop(monkeypatch, strategy_grid):
    """Per variant, the proxy's match_topk call returns exactly the hits
    (ids and float scores) of the inline strategy loop it replaced, over
    strategies x typo_tolerance x synonyms x a tombstoned copy."""
    from meilisearch_thai_ray.pipelines import search_proxy as sp

    engines, queries, relax, synonyms = strategy_grid
    got: list = []
    real = sp.match_topk
    monkeypatch.setattr(sp, "match_topk",
                        lambda *a: got.append(real(*a)) or got[-1])
    relaxed = 0
    for eng in engines:
        for syn in (None, synonyms):
            proxy = SearchProxy(eng, synonyms=syn)
            for q in queries:
                variants = proxy._prepare(q)[3]
                for strat in (None, "all", "last", "any", "frequency"):
                    for typo in (None, True, False):
                        opts = sp.SearchOptions(limit=10, typo_tolerance=typo,
                                                matching_strategy=strat)
                        got.clear()
                        proxy.search(q, options=opts)
                        want = _inline_strategy_hits(proxy, variants, opts)
                        assert got == want, (q, strat, typo, syn is None)
                        relaxed += (q in relax and strat == "frequency"
                                    and typo is True and any(want))
    assert relaxed > 0  # the relax path ran and found hits
