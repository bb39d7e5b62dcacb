"""Seeded inputs: page corpora, refresh deltas and request streams.

Everything a run feeds the program is made here from ``--seed`` before any
timing starts; the same seed gives the same pages and the same requests.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random

LINES = (20, 50)       # ~2 KB of text per page, a realistic web page
ROWS_PER_FILE = 500

# Meilisearch-style request shapes sent to SearchProxy, one per request
PROXY_SHAPES = ("default", "frequency", "typo", "highlight", "rules",
                "lang", "phrase", "negative")
SERVE_DISTINCT = 400   # distinct serve requests
# serve mix of term / phrase / proximity requests, as in
# scripts/scale_proof_serving.py
SERVE_MIX = (("term", 0.7), ("phrase", 0.2), ("prox", 0.1))


def write_corpus(out_dir: str, n_docs: int, seed: int) -> str:
    from meilisearch_thai_ray.fixtures.pages import write_pages_parquet

    write_pages_parquet(out_dir, n_docs, seed=seed,
                        rows_per_file=ROWS_PER_FILE, lines_range=LINES)
    return out_dir


def write_delta(out_dir: str, base_docs: int, n_docs: int, seed: int,
                gen: int) -> str:
    """One refresh delta: half pages at new urls, half re-versions of a
    seeded block of existing urls (same url, new text), so newest-wins
    shadowing has work to do."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.fixtures.pages import generate_pages

    rng = random.Random(f"delta:{seed}:{gen}")
    n_new = n_docs // 2
    n_old = n_docs - n_new
    new = generate_pages(n_new, seed=seed, start=base_docs + gen * n_docs,
                         lines_range=LINES)
    start = rng.randrange(0, max(1, base_docs - n_old))
    old = generate_pages(n_old, seed=seed + 7919 * (gen + 1), start=start,
                         lines_range=LINES)
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(pa.concat_tables([new, old]),
                   os.path.join(out_dir, "pages-delta.parquet"))
    return out_dir


def delete_sample(doc_ids: list[int], frac: float, seed: int,
                  gen: int) -> list[int]:
    rng = random.Random(f"delete:{seed}:{gen}")
    return sorted(rng.sample(doc_ids, max(1, int(len(doc_ids) * frac))))


def rounds(items: list, rng: random.Random):
    """Endless draws that use every item once per round, each round in a
    fresh seeded order: every item recurs evenly through a window."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


def proxy_requests(n_queries: int, seed: int,
                   negative_words: list[str]) -> list[tuple[int, str, str]]:
    """The run's distinct requests, as (query index, shape, negative word)
    triples: every fixture query once, in a fixed shape, so each shape serves
    a fixed eighth of the queries and no seed draws a heavier mix than
    another.  One request per query keeps the set small enough for each to
    recur several times in a window.  The seeded negative word is used by
    the "negative" shape only."""
    rng = random.Random(f"proxy:{seed}")
    return [(qi, PROXY_SHAPES[qi % len(PROXY_SHAPES)],
             rng.choice(negative_words)) for qi in range(n_queries)]


def proxy_call(query: str, shape: str, negative_word: str):
    """The (query string, SearchOptions) one request shape sends."""
    from meilisearch_thai_ray.pipelines.search_proxy import SearchOptions

    opts = {"limit": 10}
    if shape == "frequency":
        opts["matching_strategy"] = "frequency"
    elif shape == "typo":
        # typo expansion joins the OR term set; under the default per-variant
        # strategies it reaches only fallback variants, which the fixture
        # queries rarely produce
        opts.update(typo_tolerance=True, matching_strategy="any")
    elif shape == "highlight":
        opts.update(highlight=True, show_matches_position=True)
    elif shape == "rules":
        opts["ranking_rules"] = True
    elif shape == "lang":
        opts["filters"] = {"lang": "th"}
    elif shape == "phrase":
        query = f'"{query}"'
    elif shape == "negative":
        query = f"{query} -{negative_word}"
    return query, SearchOptions(**opts)


def zipf_sampler(terms: list[str], rng: random.Random, block: int,
                 s: float = 1.0):
    """Draw terms by rank (terms sorted by df, most frequent first) with
    probability proportional to 1 / rank**s: mostly long posting lists,
    with a long tail of short ones.  Draws are stratified: every ``block``
    draws take one quantile from each of ``block`` equal slices, so each
    seed covers the distribution as evenly as another."""
    cum = list(itertools.accumulate(1.0 / (r + 1) ** s
                                    for r in range(len(terms))))
    pending: list[float] = []

    def draw() -> str:
        if not pending:
            pending.extend((i + rng.random()) / block for i in range(block))
            rng.shuffle(pending)
        return terms[bisect.bisect(cum, pending.pop() * cum[-1])]

    return draw


def serve_requests(fixture_terms: list[list[str]],
                   termdict_by_df: list[str],
                   seed: int) -> list[tuple[str, list[str]]]:
    """The run's SERVE_DISTINCT distinct (kind, terms) requests, kinds in
    the SERVE_MIX shares.  Each kind gets up to half its requests from a
    fixed sample of the fixture queries' terms, the same for every seed (a
    seeded one moved the tail by a quarter from seed to seed), and the rest
    from 1-4 terms Zipf-drawn from the index's term dictionary, term counts
    in turn.  Each kind stratifies its draws over one block of as many
    draws as it plans, so the few proximity requests, which make the tail,
    get the same spread of posting lengths under every seed.  A phrase
    request sends its terms joined by spaces as one phrase."""
    fixtures = [t for t in fixture_terms if t]
    out: dict[tuple, tuple[str, list[str]]] = {}
    for kind, share in SERVE_MIX:
        lo = 2 if kind in ("phrase", "prox") else 1
        n = round(share * SERVE_DISTINCT)
        cands = [t for t in fixtures if len(t) >= lo]
        picks = random.Random(f"serve-fixtures:{kind}").sample(
            cands, min(len(cands), n // 2))
        planned = sum(lo + j % (5 - lo) for j in range(len(picks), n))
        draw = zipf_sampler(termdict_by_df,
                            random.Random(f"serve:{seed}:{kind}"),
                            max(1, planned))
        want = len(out) + n
        for j in range(100 * SERVE_DISTINCT):  # bounded on tiny indexes
            if len(out) >= want:
                break
            terms = (list(picks[j]) if j < len(picks) else
                     [draw() for _ in range(lo + j % (5 - lo))])
            if kind == "prox":
                terms = list(dict.fromkeys(terms))[:3]
                if len(terms) < 2:
                    continue
            out.setdefault((kind, tuple(terms)), (kind, terms))
    return list(out.values())
