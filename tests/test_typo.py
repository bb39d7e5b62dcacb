"""Typo tolerance: kernel distance parity, SymSpell bucketing guarantee,
Meilisearch budget rules, and engine-level typo-tolerant search.

The distance kernel must be BIT-IDENTICAL to DuckDB damerau_levenshtein()
(the m25 oracle depends on it); the SymSpell deletion-neighborhood bucketing
used by pipelines/simple_text.typo_expand must have no false negatives for
every (query, term) pair the budget rules can ever accept."""

import random
from itertools import combinations, product

import duckdb
import pytest

from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.fixtures.pages import write_pages_parquet
from meilisearch_thai_ray.index.build import build_index
from meilisearch_thai_ray.index.search import SearchEngine
from meilisearch_thai_ray.kernel.typo import (
    ONE_TYPO_MIN_LEN,
    TWO_TYPO_MIN_LEN,
    damerau_levenshtein,
    deletion_variants,
    effective_typos,
    typo_budget,
    typo_matches,
)

# ---------------------------------------------------------------- kernel


def test_dl_matches_duckdb_exactly():
    """3000 random pairs: kernel DL == DuckDB damerau_levenshtein."""
    con = duckdb.connect()
    rng = random.Random(7)
    for _ in range(3000):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 8)))
        theirs = con.execute(
            "SELECT damerau_levenshtein(?, ?)", [a, b]).fetchone()[0]
        assert damerau_levenshtein(a, b) == theirs, (a, b)


def test_dl_known_values():
    # unrestricted DL: composite edits may pass "through" a transposition
    assert damerau_levenshtein("ab", "ba") == 1
    assert damerau_levenshtein("ca", "abc") == 2  # OSA would say 3
    assert damerau_levenshtein("datbase", "database") == 1
    assert damerau_levenshtein("", "abc") == 3
    assert damerau_levenshtein("same", "same") == 0


def test_budget_rule():
    assert typo_budget("abcd") == 0          # 1-4 chars: exact only
    assert typo_budget("abcde") == 1         # 5-8: one typo
    assert typo_budget("abcdefgh") == 1
    assert typo_budget("abcdefghi") == 2     # >= 9: two typos
    assert ONE_TYPO_MIN_LEN == 5 and TWO_TYPO_MIN_LEN == 9


def test_first_letter_typo_counts_double():
    # substitution NOT at the first letter: 1 typo
    assert effective_typos("filter", "fliter") == 1  # swap = 1 typo
    assert effective_typos("filter", "fylter") == 1
    # first-letter substitution: 2 typos -> rejected at budget 1
    assert effective_typos("filter", "bilter") == 2
    assert typo_matches("filter", "bilter") is None
    assert typo_matches("filterings", "bilterings") == 2  # len 10: budget 2


def test_symspell_bucketing_no_false_negatives():
    """Exhaustive: for every pair within DL 2, a shared variant exists
    within 2 deletions of each — the guarantee typo_expand's bucketing
    rests on (alphabet size does not matter for edit patterns; lengths and
    repeat structure do, so test two alphabets)."""
    for alpha, max_len in (("ab", 6), ("abc", 5)):
        words = [""] + ["".join(p) for n in range(1, max_len + 1)
                        for p in product(alpha, repeat=n)]
        for a, b in combinations(words, 2):
            d = damerau_levenshtein(a, b)
            if d <= 2:
                assert deletion_variants(a, d) & deletion_variants(b, d), \
                    (a, b, d)


def test_pipeline_budgets_cover_every_acceptable_pair():
    """The term-side deletion budget used by typo_expand (len>=7 -> 2,
    len>=4 -> 1) must reach every pair the query-side budget accepts."""
    for alpha, max_len in (("ab", 10),):
        words = ["".join(p) for n in range(3, max_len + 1)
                 for p in product(alpha, repeat=n)]
        rng = random.Random(3)
        words = rng.sample(words, 300)
        for q in words:
            for t in words:
                if q == t or typo_matches(q, t) is None:
                    continue
                tb = typo_budget(t, one_typo=ONE_TYPO_MIN_LEN - 1,
                                 two_typos=TWO_TYPO_MIN_LEN - 2)
                shared = (deletion_variants(q, typo_budget(q))
                          & deletion_variants(t, tb))
                assert shared, (q, t)


# ---------------------------------------------------------------- engine


@pytest.fixture(scope="module")
def typo_engine(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("typoidx")
    pages_dir = str(root / "pages")
    out = str(root / "index")
    write_pages_parquet(pages_dir, 120, rows_per_file=64)
    build_index(pages_dir, out, EngineConfig(num_shards=4),
                num_salts=2, batch_size=64)
    return SearchEngine(out)


def test_engine_expand_typo_finds_planted_typos(typo_engine):
    terms = [t for t in typo_engine._typo_vocabulary()[0]
             if ONE_TYPO_MIN_LEN <= len(t) < TWO_TYPO_MIN_LEN]
    assert terms, "fixture corpus must have 5-8 char indexed terms"
    vocab = set(typo_engine._typo_vocabulary()[0])
    checked = 0
    for t in terms[:20]:
        # substitution NOT at the first letter, to a char surely absent
        typo = t[:2] + "ß" + t[3:]
        if typo in vocab:
            continue
        got = typo_engine.expand_typo(typo, limit=50)
        assert t in got, (typo, t, got[:5])
        checked += 1
    assert checked >= 5


def test_engine_first_letter_typo_rejected(typo_engine):
    terms = [t for t in typo_engine._typo_vocabulary()[0]
             if ONE_TYPO_MIN_LEN <= len(t) < TWO_TYPO_MIN_LEN]
    vocab = set(typo_engine._typo_vocabulary()[0])
    checked = 0
    for t in terms[:20]:
        typo = "ß" + t[1:]  # first-letter sub: 2 typos > budget 1
        if typo in vocab:
            continue
        assert t not in typo_engine.expand_typo(typo, limit=50)
        checked += 1
    assert checked >= 5


def test_engine_short_words_get_no_expansion(typo_engine):
    assert typo_engine.expand_typo("abc") == []


def test_typodict_path_identical_to_inmemory(typo_engine, tmp_path,
                                             monkeypatch):
    """Building the SymSpell typodict must not change a single expansion:
    the pruned-range-read path and the in-memory prefilter path return
    IDENTICAL ranked lists for every 5+ char vocabulary term and a planted
    typo of each.  The engine opens each typodict file once, not once per
    expansion."""
    import os

    import pyarrow.parquet as pq

    from meilisearch_thai_ray.index.build import build_typo_index

    build_typo_index(typo_engine.index_dir)
    opened = []
    real_parquet_file = pq.ParquetFile

    def counting_parquet_file(path, *args, **kwargs):
        opened.append(path)
        return real_parquet_file(path, *args, **kwargs)

    monkeypatch.setattr(pq, "ParquetFile", counting_parquet_file)
    with_dict = SearchEngine(typo_engine.index_dir)
    assert with_dict._typodict_candidates(["anything"]) is not None

    probes = []
    for t in sorted(typo_engine._typo_vocabulary()[0]):
        if len(t) >= ONE_TYPO_MIN_LEN:
            probes.append(t)
            probes.append(t[:2] + "ß" + t[3:])
        if len(probes) >= 60:
            break
    assert probes
    for q in probes:
        via_dict = with_dict.expand_typo(q, limit=20)
        # typo_engine was constructed before the typodict existed and has
        # its availability cached as absent -> in-memory path
        typo_engine._typodict_ok = False
        via_mem = typo_engine.expand_typo(q, limit=20)
        assert via_dict == via_mem, q
    d = os.path.join(typo_engine.index_dir, "typodict")
    assert sorted(opened) == sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


def test_typodict_serves_custom_thresholds(typo_engine, tmp_path):
    """The max-budget typodict (every term's full 2-deletion
    neighborhood) must serve CUSTOM minWordSizeForTypos identically to
    the vocabulary-scan path — the r4 gap where custom settings silently
    fell back to the O(vocab) scan (VERDICT item #6)."""
    from meilisearch_thai_ray.index.build import build_typo_index

    build_typo_index(typo_engine.index_dir)
    with_dict = SearchEngine(typo_engine.index_dir)
    # the freshly-built dict carries the max-budget marker and is USED
    # for custom thresholds (None would mean vocabulary fallback)
    assert with_dict._typodict_candidates(
        ["anything"], require_max_budget=True) is not None
    assert with_dict._typodict_budget == "max"

    vocab = sorted(typo_engine._typo_vocabulary()[0])
    probes = []
    for t in vocab:
        if len(t) >= 3:
            probes.append(t)
            probes.append(t[:1] + "ß" + t[2:] if len(t) > 2 else t)
        if len(probes) >= 60:
            break
    assert probes
    # lowered thresholds: 3+ chars get one typo, 5+ get two — exactly the
    # regime the legacy per-length dict could not serve
    for o, tw in [(3, 5), (1, 4), (4, 6)]:
        for q in probes:
            via_dict = with_dict.expand_typo(q, limit=20,
                                             one_typo=o, two_typos=tw)
            typo_engine._typodict_ok = False
            via_mem = typo_engine.expand_typo(q, limit=20,
                                              one_typo=o, two_typos=tw)
            assert via_dict == via_mem, (o, tw, q)


def test_legacy_typodict_refused_for_custom_thresholds(typo_engine):
    """A dict whose done-marker lacks the max-budget tag must NOT be used
    for custom thresholds (it could silently miss short-word candidates);
    default thresholds still use it."""
    import json as _json
    import os as _os

    from meilisearch_thai_ray.index.build import build_typo_index

    build_typo_index(typo_engine.index_dir)
    done = _os.path.join(typo_engine.index_dir, "_manifest",
                         "typodict.done")
    with open(done) as f:
        meta = _json.load(f)
    legacy = dict(meta)
    legacy.pop("budget", None)
    try:
        with open(done, "w") as f:
            _json.dump(legacy, f)
        eng = SearchEngine(typo_engine.index_dir)
        assert eng._typodict_candidates(["x"]) is not None  # defaults: used
        assert eng._typodict_candidates(
            ["x"], require_max_budget=True) is None  # custom: refused
    finally:
        with open(done, "w") as f:
            _json.dump(meta, f)


def test_proxy_typo_tolerance_option(typo_engine):
    """typo_tolerance=True widens typo matching to every OR-matching
    variant: a misspelled latin query recovers the exact query's docs.
    Default (None) keeps the reference scope (fallback variants only), so
    the same misspelled query without the option finds nothing new."""
    from meilisearch_thai_ray.pipelines.search_proxy import (
        SearchOptions,
        SearchProxy,
    )

    vocab = typo_engine._typo_vocabulary()[0]
    vset = set(vocab)
    cands = [t for t in vocab
             if t.isascii() and t.isalpha()
             and ONE_TYPO_MIN_LEN <= len(t) < TWO_TYPO_MIN_LEN]
    assert cands, "fixture corpus must index 5-8 char latin terms"
    p = SearchProxy(typo_engine)
    checked = 0
    for t in sorted(cands)[:30]:
        exact = {d for d, _ in typo_engine.search(t, k=10)}
        typo = t[:2] + ("x" if t[2] != "x" else "q") + t[3:]
        if not exact or typo in vset:
            continue
        hits = p.search(typo, options=SearchOptions(
            limit=10, typo_tolerance=True, matching_strategy="frequency"))
        assert exact & {h["doc_id"] for h in hits}, (t, typo)
        checked += 1
        if checked >= 3:
            break
    assert checked >= 1


def test_proxy_typo_recovers_misspelled_query(typo_engine):
    """A query misspelled within budget must still retrieve the docs the
    correctly-spelled query retrieves (they score via the expanded term
    that typo matching joins to the OR term set)."""
    from meilisearch_thai_ray.pipelines.search_proxy import (SearchOptions,
                                                             SearchProxy)

    p = SearchProxy(typo_engine)
    terms = [t for t in typo_engine._typo_vocabulary()[0]
             if ONE_TYPO_MIN_LEN <= len(t) < TWO_TYPO_MIN_LEN]
    vocab = set(typo_engine._typo_vocabulary()[0])
    checked = 0
    for t in terms[:30]:
        typo = t[:2] + "ß" + t[3:]
        if typo in vocab:
            continue
        exact_hits = {d for d, _ in typo_engine.search(t, k=10)}
        if not exact_hits:
            continue
        typo_hits = {h["doc_id"] for h in p.search(typo, options=SearchOptions(
            limit=10, typo_tolerance=True, matching_strategy="any"))}
        assert exact_hits & typo_hits, (t, typo)
        checked += 1
        if checked >= 3:
            break
    assert checked >= 1


# ---- typoTolerance SETTINGS (minWordSizeForTypos / disableOnWords) ----

def test_expand_typo_custom_thresholds(typo_engine):
    """Lowering minWordSizeForTypos.oneTypo lets a short word expand; the
    default budget gives it none. Custom thresholds take the verified
    vocabulary path, so results stay DL-exact."""
    vocab = typo_engine._typo_vocabulary()[0]
    shorts = [t for t in vocab if len(t) == 4 and t.isascii()]
    checked = 0
    vset = set(vocab)
    for t in shorts[:30]:
        typo = t[:2] + ("x" if t[2] != "x" else "q") + t[3:]
        if typo in vset:
            continue
        assert typo_engine.expand_typo(typo, 50) == []  # default: 0 budget
        got = typo_engine.expand_typo(typo, 50, one_typo=3)
        assert t in got, (t, typo, got[:5])
        checked += 1
        if checked >= 3:
            break
    assert checked >= 1


def test_expand_typo_raised_threshold_disables(typo_engine):
    """Raising oneTypo above a word's length kills its expansions."""
    vocab = typo_engine._typo_vocabulary()[0]
    mids = [t for t in vocab
            if ONE_TYPO_MIN_LEN <= len(t) < TWO_TYPO_MIN_LEN]
    vset = set(vocab)
    for t in mids[:20]:
        typo = t[:2] + "ß" + t[3:]
        if typo in vset:
            continue
        if typo_engine.expand_typo(typo, 50):
            assert typo_engine.expand_typo(typo, 50, one_typo=20) == []
            return
    raise AssertionError("no expandable mid-length term found")


def test_proxy_typo_settings_disable_on_words(typo_engine):
    """disableOnWords suppresses expansion for the listed words only."""
    from meilisearch_thai_ray.pipelines.search_proxy import (SearchOptions,
                                                             SearchProxy)

    vocab = typo_engine._typo_vocabulary()[0]
    vset = set(vocab)
    cands = [t for t in vocab
             if t.isascii() and t.isalpha()
             and ONE_TYPO_MIN_LEN <= len(t) < TWO_TYPO_MIN_LEN]
    p = SearchProxy(typo_engine)
    for t in sorted(cands)[:30]:
        exact = {d for d, _ in typo_engine.search(t, k=10)}
        typo = t[:2] + ("x" if t[2] != "x" else "q") + t[3:]
        if not exact or typo in vset:
            continue
        on = p.search(typo, options=SearchOptions(
            limit=10, typo_tolerance=True, matching_strategy="frequency"))
        if not (exact & {h["doc_id"] for h in on}):
            continue  # this word's typo found nothing anyway
        off = p.search(typo, options=SearchOptions(
            limit=10, typo_tolerance=True, matching_strategy="frequency",
            typo_settings={"disableOnWords": [typo]}))
        assert not (exact & {h["doc_id"] for h in off}), (t, typo)
        return
    raise AssertionError("no usable (term, typo) pair found")


def test_typo_settings_validation():
    from meilisearch_thai_ray.pipelines.search_proxy import SearchOptions

    import pytest as _pytest

    with _pytest.raises(ValueError, match="unknown typo_settings"):
        SearchOptions(typo_settings={"bogus": 1})
    with _pytest.raises(ValueError, match="minWordSizeForTypos"):
        SearchOptions(typo_settings={
            "minWordSizeForTypos": {"oneTypo": 9, "twoTypos": 5}})
    SearchOptions(typo_settings={
        "minWordSizeForTypos": {"oneTypo": 3, "twoTypos": 7},
        "disableOnWords": ["foo"]})
