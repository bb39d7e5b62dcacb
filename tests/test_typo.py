"""Typo tolerance: kernel distance parity, SymSpell bucketing guarantee,
Meilisearch budget rules, and engine-level typo-tolerant search.

The distance kernel must be BIT-IDENTICAL to DuckDB damerau_levenshtein()
(the m25 oracle depends on it); the SymSpell deletion-neighborhood bucketing
used by pipelines/simple_text.typo_expand must have no false negatives for
every (query, term) pair the budget rules can ever accept."""

import os
import random
import zlib
from itertools import combinations, product

import duckdb
import pyarrow as pa
import pyarrow.dataset as pads
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.fixtures.pages import write_pages_parquet
from meilisearch_thai_ray.index.build import build_index, typo_arrays
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


def _vocab(eng) -> list[tuple[str, int]]:
    """Every (term, df) of the engine's dictionary, in dictionary order."""
    t = pads.dataset(os.path.join(eng.index_dir, "termdict")).to_table(
        columns=["term", "df"])
    return list(zip(t["term"].to_pylist(), t["df"].to_pylist()))


def _terms(eng) -> list[str]:
    return [t for t, _ in _vocab(eng)]


def _reference_expand(vocab, q, limit, one_typo=ONE_TYPO_MIN_LEN,
                      two_typos=TWO_TYPO_MIN_LEN) -> list[str]:
    """expand_typo as a scan of the whole vocabulary: every term other than
    `q` within its budget, ranked (fewest typos, highest df, term)."""
    scored = sorted(
        (ty, -df, t) for t, df in vocab
        if t != q and (ty := typo_matches(q, t, one_typo, two_typos))
        is not None)
    return [t for _, _, t in scored[:limit]]


def _probes(terms, min_len, edit_at, n=60):
    """Terms of at least min_len chars, each followed by a planted typo
    (a substitution at position edit_at), n probes in all."""
    out = []
    for t in terms:
        if len(t) >= min_len:
            out += [t, t[:edit_at] + "ß" + t[edit_at + 1:]]
        if len(out) >= n:
            break
    assert out
    return out


def test_engine_expand_typo_finds_planted_typos(typo_engine):
    terms = [t for t in _terms(typo_engine)
             if ONE_TYPO_MIN_LEN <= len(t) < TWO_TYPO_MIN_LEN]
    assert terms, "fixture corpus must have 5-8 char indexed terms"
    vocab = set(_terms(typo_engine))
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
    terms = [t for t in _terms(typo_engine)
             if ONE_TYPO_MIN_LEN <= len(t) < TWO_TYPO_MIN_LEN]
    vocab = set(_terms(typo_engine))
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


def test_typodict_path_identical_to_inmemory(typo_engine, tmp_path):
    """The hashed SymSpell arrays written with the dictionary return
    exactly the vocabulary scan's ranked list for every 5+ char term and a
    planted typo of each. An index without a dictionary (no 'dict' marker:
    the pre-dictionary layout) builds the same arrays in memory and agrees
    too."""
    import shutil

    td = os.path.join(typo_engine.index_dir, "typodict")
    assert sorted(os.listdir(td)) == ["hash.npy", "row.npy"]
    legacy = str(tmp_path / "legacy")
    shutil.copytree(typo_engine.index_dir, legacy)
    os.remove(os.path.join(legacy, "_manifest", "dict.done"))
    no_dict = SearchEngine(legacy)
    vocab = _vocab(typo_engine)
    for q in _probes(sorted(t for t, _ in vocab), ONE_TYPO_MIN_LEN, 2):
        want = _reference_expand(vocab, q, 20)
        assert typo_engine.expand_typo(q, limit=20) == want, q
        assert no_dict.expand_typo(q, limit=20) == want, q


def test_typodict_serves_custom_thresholds(typo_engine):
    """Custom minWordSizeForTypos ride the same arrays (they hold every
    term's full 2-deletion neighbourhood, the maximum query budget) and
    equal the vocabulary scan at every threshold pair."""
    vocab = _vocab(typo_engine)
    probes = _probes(sorted(t for t, _ in vocab), 3, 1)
    # lowered thresholds: 3+ chars get one typo, 5+ get two
    for o, tw in [(3, 5), (1, 4), (4, 6)]:
        for q in probes:
            assert typo_engine.expand_typo(q, limit=20, one_typo=o,
                                           two_typos=tw) == \
                _reference_expand(vocab, q, 20, o, tw), (o, tw, q)


_ALPHABET = "กขคงาิ่abcd"


def _edit(word: str, ops: list[tuple[int, int, str]]) -> str:
    """Apply up to two edits (0 delete, 1 insert, 2 substitute, 3 swap)."""
    for op, i, ch in ops:
        i %= len(word) + 1
        if op == 0 and i < len(word):
            word = word[:i] + word[i + 1:]
        elif op == 1:
            word = word[:i] + ch + word[i:]
        elif op == 2 and i < len(word):
            word = word[:i] + ch + word[i + 1:]
        elif op == 3 and i + 1 < len(word):
            word = word[:i] + word[i + 1] + word[i] + word[i + 2:]
    return word


@settings(max_examples=200, deadline=None)
@given(
    words=st.lists(st.text(_ALPHABET, min_size=3, max_size=12), min_size=1,
                   max_size=25, unique=True),
    dfs=st.lists(st.integers(1, 4), min_size=25, max_size=25),
    pick=st.integers(0, 24),
    ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 12),
                           st.sampled_from(_ALPHABET)), max_size=2),
    thresholds=st.sampled_from([(5, 9), (3, 5), (1, 4), (4, 6)]),
)
def test_typo_lookup_with_colliding_hash_matches_reference(
        words, dfs, pick, ops, thresholds):
    """typo_arrays plus the engine's lookup equal the vocabulary scan on
    Thai and Latin words of 3-12 chars, also under an 8-bit variant hash,
    where most lookups hit colliding variants the exact check must drop."""
    from unittest import mock

    words = sorted(words)
    vocab = list(zip(words, dfs))
    q = _edit(words[pick % len(words)], ops)
    o, tw = thresholds
    want = _reference_expand(vocab, q, 50, o, tw)
    for h in (zlib.crc32, lambda b: zlib.crc32(b) & 0xFF):
        with mock.patch("meilisearch_thai_ray.kernel.typo.variant_hash",
                        lambda v: h(v.encode())):
            eng = SearchEngine.__new__(SearchEngine)
            eng._typo = (*typo_arrays(words), pa.array(words),
                         pa.array([df for _, df in vocab], pa.int64()))
            assert eng.expand_typo(q, 50, one_typo=o, two_typos=tw) == want


def test_proxy_typo_tolerance_option(typo_engine):
    """typo_tolerance=True widens typo matching to every OR-matching
    variant: a misspelled latin query recovers the exact query's docs.
    Default (None) keeps the reference scope (fallback variants only), so
    the same misspelled query without the option finds nothing new."""
    from meilisearch_thai_ray.pipelines.search_proxy import (
        SearchOptions,
        SearchProxy,
    )

    vocab = _terms(typo_engine)
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
    terms = [t for t in _terms(typo_engine)
             if ONE_TYPO_MIN_LEN <= len(t) < TWO_TYPO_MIN_LEN]
    vocab = set(_terms(typo_engine))
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
    default budget gives it none."""
    vocab = _terms(typo_engine)
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
    vocab = _terms(typo_engine)
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

    vocab = _terms(typo_engine)
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
