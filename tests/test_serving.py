"""Doc-partitioned serving (salt-group actors) == local engine, exactly."""

import pytest

from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.fixtures.pages import write_pages_parquet
from meilisearch_thai_ray.fixtures.queries import QUERY_FIXTURES
from meilisearch_thai_ray.index.build import build_index
from meilisearch_thai_ray.index.search import SearchEngine
from meilisearch_thai_ray.kernel import DocumentTokenizer

CFG = EngineConfig(num_shards=8)


@pytest.fixture(scope="module")
def local(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    pages = str(root / "pages")
    out = str(root / "index")
    write_pages_parquet(pages, 250, rows_per_file=125)
    build_index(pages, out, CFG, num_salts=2, batch_size=64)
    return SearchEngine(out)


def test_doc_partitioned_equals_local(local):
    """Doc-partitioned (salt-group) serving returns exactly the local
    engine's top-k: ids AND float-identical scores."""
    from meilisearch_thai_ray.index.serving import DocPartitionedSearchService

    svc = DocPartitionedSearchService(local.index_dir, num_servers=2)
    try:
        assert svc.warm() > 0
        tok = DocumentTokenizer(CFG)
        checked = 0
        for q in QUERY_FIXTURES:
            terms = tok.index_terms(tok.tokenize(q["query"]))
            a = local.score_topk(terms, 10)
            b = svc.score_topk(terms, 10)
            assert a == b, q["qid"]
            checked += bool(a)
        assert checked >= 20
        assert svc.score_topk([]) == []
        assert svc.score_topk(["nonexistentzz"]) == []
    finally:
        svc.shutdown()


@pytest.mark.parametrize("entry", [
    "score_topk", "match_all", "prefix", "search", "proxy",
    "doc_partitioned"])
def test_k_zero_returns_no_hits(local, entry):
    """k=0 asks for nothing: every top-k entry point returns [] (no crash,
    no stray hit), while k=1 on the same query does find one."""
    from meilisearch_thai_ray.index.serving import DocPartitionedSearchService
    from meilisearch_thai_ray.pipelines.search_proxy import SearchProxy

    query = next(q["query"] for q in QUERY_FIXTURES
                 if len(local.query_terms(q["query"])) >= 2
                 and local.score_topk(local.query_terms(q["query"]), 1,
                                      match="all"))
    terms = local.query_terms(query)
    svc = (DocPartitionedSearchService(local.index_dir, num_servers=2)
           if entry == "doc_partitioned" else None)
    proxy = SearchProxy(local, docs_path=f"{local.index_dir}/docs")
    call = {
        "score_topk": lambda k: local.score_topk(terms, k),
        "match_all": lambda k: local.score_topk(terms, k, match="all"),
        "prefix": lambda k: local.score_topk_prefix(terms, k),
        "search": lambda k: local.search(query, k),
        "proxy": lambda k: proxy.search(query, k=k),
        "doc_partitioned": lambda k: svc.score_topk(terms, k),
    }[entry]
    try:
        assert len(call(1)) == 1
        assert call(0) == []
    finally:
        if svc is not None:
            svc.shutdown()


def test_served_phrase_and_proximity_need_positions(local):
    """On an index built without positions the served phrase and
    proximity paths raise like the local engine, not answer []."""
    from meilisearch_thai_ray.index.serving import DocPartitionedSearchService

    assert not local.has_positions
    query = next(q["query"] for q in QUERY_FIXTURES
                 if len(local.query_terms(q["query"])) >= 2)
    terms = local.query_terms(query)
    svc = DocPartitionedSearchService(local.index_dir, num_servers=2)
    try:
        for call in (lambda e: e.phrase_topk(query, 10),
                     lambda e: e.proximity_topk(terms, 10)):
            with pytest.raises(ValueError):
                call(local)
            with pytest.raises(ValueError):
                call(svc)
    finally:
        svc.shutdown()


def test_doc_partitioned_drops_tombstones(ray_session, tmp_path_factory):
    """On a positional index whose copy lost two top phrase hits through
    delete_docs, the service equals the local engine for term queries (one
    with a term repeated three times), phrase_topk and proximity_topk with
    a pool covering every doc — the actors drop the tombstoned docs."""
    import shutil

    from meilisearch_thai_ray.index.maintenance import delete_docs
    from meilisearch_thai_ray.index.serving import DocPartitionedSearchService

    root = tmp_path_factory.mktemp("serve_dead")
    pages, out = str(root / "pages"), str(root / "index")
    write_pages_parquet(pages, 250, rows_per_file=125)
    build_index(pages, out, EngineConfig(num_shards=8, store_positions=True),
                num_salts=2, batch_size=64)
    full = SearchEngine(out)
    phrase = next(q["query"] for q in QUERY_FIXTURES
                  if len(full.phrase_seq(q["query"])) >= 2
                  and len(full.phrase_topk(q["query"], 10)) >= 3)
    gone = [d for d, _ in full.phrase_topk(phrase, 2)]
    copy = str(root / "copy")
    shutil.copytree(out, copy)
    delete_docs(copy, gone)
    dead = SearchEngine(copy)
    pool = dead.n_docs  # a pool over every doc makes proximity exact
    seq = dead.phrase_seq(phrase)
    svc = DocPartitionedSearchService(copy, num_servers=2)
    try:
        queries = [dead.query_terms(q["query"]) for q in QUERY_FIXTURES]
        queries.append(seq[:1] * 3 + seq[1:])
        for terms in queries:
            assert svc.score_topk(terms, 10) == dead.score_topk(terms, 10)
        for q in QUERY_FIXTURES:
            assert svc.phrase_topk(q["query"], 10) == \
                dead.phrase_topk(q["query"], 10), q["qid"]
        for terms in queries:
            assert svc.proximity_topk(terms, 10, pool=pool) == \
                dead.proximity_topk(terms, 10, pool=pool)
        # the deleted docs ranked top on the full index and are gone here
        for hits in (svc.score_topk(queries[-1], 10),
                     svc.phrase_topk(phrase, 10),
                     svc.proximity_topk(seq, 10, pool=pool)):
            assert hits and not {h[0] for h in hits} & set(gone)
        assert {h[0] for h in full.score_topk(queries[-1], 10)} >= set(gone)
        assert {h[0] for h in full.proximity_topk(seq, 10, pool=pool)
                } >= set(gone)
    finally:
        svc.shutdown()


def test_served_positional_requests_make_one_round_trip(ray_session,
                                                        tmp_path_factory,
                                                        monkeypatch):
    """Once its dfs are cached, a served phrase with matches and a served
    proximity request each make exactly one ray.get, and a request with a
    term no doc holds makes none. On a positional index with tombstones,
    the service equals the local engine for phrases with a missing, a
    single, a repeated or only punctuation terms, and for proximity with
    a missing term."""
    from meilisearch_thai_ray.index import serving
    from meilisearch_thai_ray.index.maintenance import delete_docs

    root = tmp_path_factory.mktemp("serve_trips")
    pages, out = str(root / "pages"), str(root / "index")
    write_pages_parquet(pages, 250, rows_per_file=125)
    build_index(pages, out, EngineConfig(num_shards=8, store_positions=True),
                num_salts=2, batch_size=64)
    eng = SearchEngine(out)
    phrase = next(q["query"] for q in QUERY_FIXTURES
                  if len(eng.phrase_seq(q["query"])) >= 2
                  and len(eng.phrase_topk(q["query"], 10)) >= 3)
    delete_docs(out, [d for d, _ in eng.phrase_topk(phrase, 2)])
    eng = SearchEngine(out)
    seq = eng.phrase_seq(phrase)
    assert eng.df("zzzmissing") == 0
    pool = eng.n_docs
    trips = []
    get = serving.ray.get
    svc = serving.DocPartitionedSearchService(out, num_servers=2)
    try:
        monkeypatch.setattr(serving.ray, "get",
                            lambda *a, **kw: trips.append(1) or get(*a, **kw))

        def round_trips(call, *args) -> int:
            call(*args)  # warm: fills the df cache
            trips.clear()
            call(*args)
            return len(trips)

        assert svc.phrase_topk(phrase, 10)
        assert round_trips(svc.phrase_topk, phrase, 10) == 1
        assert svc.proximity_topk(seq, 10, pool=pool)
        assert round_trips(svc.proximity_topk, seq, 10, pool) == 1
        assert round_trips(svc.phrase_topk, f"{phrase} zzzmissing", 10) == 0
        missing = seq[:1] + ["zzzmissing"]
        assert round_trips(svc.proximity_topk, missing, 10, pool) == 0

        repeated = f"{seq[0]} {seq[0]}"
        assert eng.phrase_seq(repeated) == seq[:1] * 2
        assert eng.phrase_seq("... !!") == []
        for p in (phrase, f"{phrase} zzzmissing", seq[0], repeated,
                  "... !!", ""):
            assert svc.phrase_topk(p, 10) == eng.phrase_topk(p, 10), p
        assert svc.proximity_topk(missing, 10, pool=pool) == \
            eng.proximity_topk(missing, 10, pool=pool) == []
    finally:
        svc.shutdown()
