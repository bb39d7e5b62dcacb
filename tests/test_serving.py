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
            a = local.score_topk(terms, 10, mode="exhaustive")
            b = svc.score_topk(terms, 10)
            assert a == b, q["qid"]
            checked += bool(a)
        assert checked >= 20
        assert svc.score_topk([]) == []
        assert svc.score_topk(["nonexistentzz"]) == []
    finally:
        svc.shutdown()


@pytest.mark.parametrize("entry", [
    "score_topk", "exhaustive", "maxscore", "wand", "match_all", "prefix",
    "search", "proxy", "doc_partitioned"])
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
        "exhaustive": lambda k: local.score_topk(terms, k, mode="exhaustive"),
        "maxscore": lambda k: local.score_topk(terms, k, mode="maxscore"),
        "wand": lambda k: local.score_topk(terms, k, mode="wand"),
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
