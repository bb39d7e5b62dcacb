"""Distributed query serving: doc-partitioned index-server actors (SURVEY J4).

The reference's query path fans out per-variant searches to Meilisearch
(search_executor.py:55-176). Our scale path: long-lived `@ray.remote`
actors, each owning a group of SALT partitions (salt = doc_id % num_salts,
so a salt group holds every term's postings for its docs), each with a
warm posting cache — the one place the Dataset API can't express the
semantics. Per query the driver sums each actor's local dfs into global
idfs, every actor scores its own docs with those idfs and returns only its
local top-k, and the driver merges num_servers x k rows by
(-score, doc_id): per-query network is O(k), not O(postings).

Merging is EXACT, not approximate: doc partitions are disjoint, so every
doc's full score is computed in exactly one actor, summed in sorted-term
order (same float64 order as the local engine and the oracle => identical
scores). Equality with the local SearchEngine is asserted in tests.
"""

from __future__ import annotations

from collections import Counter

import ray

from ..kernel.bm25 import idf as _idf


@ray.remote
class DocPartitionServer:
    """Owns one group of SALT partitions (salt = doc_id % num_salts, so a
    salt group is a complete doc partition: every term's postings for those
    docs live in this actor). Scores its docs locally with driver-supplied
    global idfs and returns ONLY its local top-k — per-query network is
    O(k), not O(postings)."""

    def __init__(self, index_dir: str, salts: list[int]):
        from .search import SearchEngine

        self.engine = SearchEngine(index_dir, salts=set(salts))

    def local_dfs(self, terms: list[str]) -> dict[str, int]:
        return self.engine.local_dfs(terms)

    def topk_given_idf(self, weighted_terms: list[tuple[str, float, float]],
                       k: int) -> list[tuple[int, float]]:
        return self.engine.score_topk_given_idf(weighted_terms, k)

    def phrase_local(self, phrase: str) -> tuple[list[str], list[int]]:
        """(primary term sequence, position-verified LOCAL doc matches) —
        tokenization happens server-side (every server shares the build's
        dictionary config, so the sequences agree)."""
        seq = self.engine.phrase_seq(phrase)
        if len(seq) < 2:
            return seq, []
        return seq, self.engine.phrase_match_docs(seq)

    def score_docs_given_idf(self, weighted_terms, doc_ids: list[int]
                             ) -> dict[int, float]:
        return self.engine.score_docs_given_idf(weighted_terms, doc_ids)

    def proximity_local(self, weighted_terms, uniq_terms: list[str],
                        k: int, pool: int) -> list[tuple[int, int, float]]:
        """Local words+proximity candidates with GLOBAL idf scores: top
        `pool` AND-matching local docs, each with its min-window cost."""
        hits = self.engine.score_topk_given_idf(weighted_terms, k=pool,
                                                match="all")
        out = []
        for d, s in hits:
            nm, cost = self.engine.proximity_cost(d, uniq_terms)
            if nm == len(uniq_terms):
                out.append((d, cost, s))
        out.sort(key=lambda x: (x[1], -x[2], x[0]))
        return out[:max(k, 1)]

    def warm(self) -> int:
        return self.engine.warm()

    def ping(self) -> bool:
        return True


class DocPartitionedSearchService:
    """Doc-partitioned serving (the constant-network-per-query scale path).

    Query flow: (1) fan out local_dfs for uncached terms, sum into GLOBAL
    dfs -> idfs (BM25 idf must see corpus-wide df, a salt-local df is
    partial); (2) fan out topk_given_idf — each actor scores its complete
    doc partition exactly and returns its local top-k; (3) driver merges
    num_servers × k rows by (-score, doc_id). Exact: doc partitions are
    disjoint and each actor holds ALL terms for its docs, so every doc's
    full score is computed in exactly one place with the same sorted-term
    float order as the local engine (equality asserted in tests)."""

    def __init__(self, index_dir: str, num_servers: int = 4,
                 num_replicas: int = 1):
        """num_servers partitions the docs (divides per-query LATENCY);
        num_replicas duplicates every partition actor (multiplies
        THROUGHPUT under concurrent clients — partition actors process one
        call at a time, so without replicas every in-flight query queues
        on the same num_servers actors: measured 34.9 QPS / p95 1.39 s
        with 32 clients on 1M docs at 1 replica, see BASELINE.md r5).
        Each query round-robins onto one replica set; replicas hold the
        same partition, so results are bit-identical regardless of
        placement (the df cache is shared and global)."""
        import itertools
        import json
        import os

        with open(os.path.join(index_dir, "meta.json")) as f:
            self.meta = json.load(f)
        self.n_docs = self.meta["n_docs"]
        num_salts = max(1, int(self.meta.get("num_salts", 1)))
        num_servers = max(1, min(num_servers, num_salts))
        groups: list[list[int]] = [[] for _ in range(num_servers)]
        for s in range(num_salts):
            groups[s % num_servers].append(s)
        self.replica_sets = [
            [DocPartitionServer.remote(index_dir, g) for g in groups]
            for _ in range(max(1, num_replicas))
        ]
        self.servers = self.replica_sets[0]  # back-compat: replica 0
        ray.get([s.ping.remote()
                 for rs in self.replica_sets for s in rs])
        # next(itertools.count()) is atomic in CPython — safe under
        # concurrent client threads without a lock
        self._rr = itertools.count()
        self._df_cache: dict[str, int] = {}
        from ..index.maintenance import load_tombstones

        self._dead = load_tombstones(index_dir)

    def _replica(self) -> list:
        return self.replica_sets[next(self._rr) % len(self.replica_sets)]

    def warm(self) -> int:
        return sum(ray.get([s.warm.remote()
                            for rs in self.replica_sets for s in rs]
                           )) // max(1, len(self.replica_sets))

    def _weighted(self, terms: list[str]) -> list[tuple[str, float, float]]:
        """(term, weight, GLOBAL idf) rows, sorted by term — local dfs fan
        out once per uncached term and sum exactly (salt partitions are
        doc-disjoint)."""
        weights = Counter(terms)
        ordered = sorted(weights)
        if not ordered:
            return []
        # client threads may fill _df_cache concurrently, unlocked: the race
        # is harmless because a global df is a deterministic sum, so racing
        # writers store the same value, and a racing miss only repeats the
        # local_dfs fan-out
        missing = [t for t in ordered if t not in self._df_cache]
        if missing:
            partials = ray.get(
                [s.local_dfs.remote(missing) for s in self._replica()]
            )
            for t in missing:
                self._df_cache[t] = sum(p.get(t, 0) for p in partials)
        return [
            (t, float(weights[t]), _idf(self.n_docs, self._df_cache[t]))
            for t in ordered
            if self._df_cache[t] > 0
        ]

    def score_topk(self, terms: list[str], k: int = 10) -> list[tuple[int, float]]:
        weighted = self._weighted(terms)
        if not weighted:
            return []
        locals_ = ray.get(
            [s.topk_given_idf.remote(weighted, k) for s in self._replica()]
        )
        merged = [
            (d, s) for hits in locals_ for d, s in hits if d not in self._dead
        ]
        merged.sort(key=lambda x: (-x[1], x[0]))
        return merged[:k]

    def phrase_topk(self, phrase: str, k: int = 10) -> list[tuple[int, float]]:
        """Distributed quoted-phrase search: each doc partition verifies
        its own docs' token adjacency locally (positions never leave the
        actor), the driver supplies global idfs and merges O(matches)
        scored rows — bit-identical to the local engine's phrase_topk."""
        replica = self._replica()
        infos = ray.get(
            [s.phrase_local.remote(phrase) for s in replica]
        )
        seq = next((sq for sq, _m in infos if sq), [])
        if not seq:
            return []
        if len(seq) == 1:
            return self.score_topk(seq, k=k)
        weighted = self._weighted(seq)
        if not weighted:
            return []
        futs = []
        for (sq, matched), srv in zip(infos, replica):
            if matched:
                futs.append(srv.score_docs_given_idf.remote(
                    weighted, matched))
        merged = [
            (d, s)
            for part in ray.get(futs) for d, s in part.items()
            if d not in self._dead
        ]
        merged.sort(key=lambda x: (-x[1], x[0]))
        return merged[:k]

    def proximity_topk(self, terms: list[str], k: int = 10,
                       pool: int | None = None
                       ) -> list[tuple[int, int, float]]:
        """Distributed words-then-proximity ranking: each doc partition
        pools its local AND matches (global idf scores), computes
        min-window costs from its local positions, and returns its top-k;
        the driver merges by (cost, -score, doc). With `pool` covering the
        full AND set this equals the local engine's proximity_topk; at
        smaller pools each PARTITION's pool is local, so recall is >= the
        single-node heuristic's."""
        uniq = list(dict.fromkeys(terms))
        if not uniq:
            return []
        weighted = self._weighted(uniq)
        if len(weighted) < len(uniq):
            return []  # some term absent corpus-wide: no "all" matches
        per_pool = pool or max(10 * k, 100)
        locals_ = ray.get([
            s.proximity_local.remote(weighted, uniq, k, per_pool)
            for s in self._replica()
        ])
        merged = [
            t for part in locals_ for t in part if t[0] not in self._dead
        ]
        merged.sort(key=lambda x: (x[1], -x[2], x[0]))
        return merged[:k]

    def shutdown(self) -> None:
        for rs in self.replica_sets:
            for s in rs:
                ray.kill(s)
        self.replica_sets = []
        self.servers = []
