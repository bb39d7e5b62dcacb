"""Distributed query serving: doc-partitioned index-server actors (SURVEY J4).

The reference's query path fans out per-variant searches to Meilisearch
(search_executor.py:55-176). Our scale path: long-lived `@ray.remote`
actors, each a SearchEngine restricted to a group of SALT partitions
(salt = doc_id % num_salts, so a salt group holds every term's postings
for its docs), each with a warm posting cache — the one place the Dataset
API can't express the semantics. Per query the driver sums each actor's
local dfs into corpus-wide dfs, every actor runs the engine's own scorer
over its docs with those dfs (dropping its tombstoned docs) and returns
only its local top-k, and the driver merges num_servers x k rows by
(-score, doc_id): per-query network is O(k), not O(postings).

Merging is EXACT, not approximate: doc partitions are disjoint, so every
doc's full score is computed in exactly one actor, by the same code and
in the same float64 order as the local engine (=> identical scores).
Equality with the local SearchEngine is asserted in tests.
"""

from __future__ import annotations

import ray

from .search import SearchEngine


@ray.remote
class DocPartitionServer(SearchEngine):
    """A SearchEngine over one group of SALT partitions (salt = doc_id %
    num_salts, so a salt group is a complete doc partition: every term's
    postings for those docs live in this actor). The service calls the
    engine's own methods on it — local_dfs, then one of score_topk,
    phrase_topk or proximity_topk with corpus-wide dfs= — and each returns
    ONLY this partition's top-k."""

    def ping(self) -> bool:
        return True


def _merge(parts: list[list[tuple]], k: int, key) -> list[tuple]:
    """The k best rows of the partitions' local top-k lists by `key`."""
    return sorted((h for part in parts for h in part), key=key)[:k]


def _by_score(h):
    return -h[1], h[0]


class DocPartitionedSearchService:
    """Doc-partitioned serving (the constant-network-per-query scale path).

    Query flow: (1) fan out local_dfs for uncached terms and sum them into
    corpus-wide dfs (BM25 idf must see corpus-wide df, a salt-local df is
    partial), where a phrase or proximity request with a term of df 0
    answers []; (2) fan out one engine scorer call with dfs= — each actor
    scores its complete doc partition exactly, drops its tombstoned docs
    and returns its local top-k; (3) driver merges num_servers × k rows.
    Exact: doc partitions are disjoint and each actor holds ALL terms for
    its docs, so every doc's full score is computed in exactly one place
    with the same sorted-term float order as the local engine (equality
    asserted in tests). `engine`, a driver-side SearchEngine that never
    loads a segment, answers has_positions and phrase_seq."""

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

        self.engine = SearchEngine(index_dir)
        num_salts = max(1, int(self.engine.meta.get("num_salts", 1)))
        num_servers = max(1, min(num_servers, num_salts))
        groups: list[list[int]] = [[] for _ in range(num_servers)]
        for s in range(num_salts):
            groups[s % num_servers].append(s)
        self.replica_sets = [
            [DocPartitionServer.remote(index_dir, salts=set(g))
             for g in groups]
            for _ in range(max(1, num_replicas))
        ]
        self.servers = self.replica_sets[0]  # back-compat: replica 0
        ray.get([s.ping.remote()
                 for rs in self.replica_sets for s in rs])
        # next(itertools.count()) is atomic in CPython — safe under
        # concurrent client threads without a lock
        self._rr = itertools.count()
        self._df_cache: dict[str, int] = {}

    def _replica(self) -> list:
        return self.replica_sets[next(self._rr) % len(self.replica_sets)]

    def warm(self) -> int:
        return sum(ray.get([s.warm.remote()
                            for rs in self.replica_sets for s in rs]
                           )) // max(1, len(self.replica_sets))

    def _dfs(self, terms: list[str]) -> dict[str, int]:
        """{term: corpus-wide df} for the terms that occur — local dfs fan
        out once per uncached term and sum exactly (salt partitions are
        doc-disjoint)."""
        ordered = list(dict.fromkeys(terms))
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
        return {t: self._df_cache[t] for t in ordered if self._df_cache[t]}

    def score_topk(self, terms: list[str], k: int = 10) -> list[tuple[int, float]]:
        dfs = self._dfs(terms)
        if not dfs:
            return []
        return _merge(ray.get(
            [s.score_topk.remote(terms, k, dfs=dfs) for s in self._replica()]
        ), k, _by_score)

    def phrase_topk(self, phrase: str, k: int = 10) -> list[tuple[int, float]]:
        """Distributed quoted-phrase search: the gateway tokenizes the
        phrase and sums its dfs; each doc partition verifies its own docs'
        token adjacency locally (positions never leave the actor) and
        scores its matches with those dfs in one phrase_topk call; the
        driver merges the local top-k lists — bit-identical to the local
        engine's phrase_topk."""
        if not self.engine.has_positions:
            raise ValueError("index was built without store_positions=True")
        seq = self.engine.phrase_seq(phrase)
        if len(seq) == 1:
            return self.score_topk(seq, k=k)
        dfs = self._dfs(seq)
        if not seq or len(dfs) < len(set(seq)):
            return []  # a term no doc holds: no doc holds the phrase
        return _merge(ray.get([s.phrase_topk.remote(phrase, k, dfs=dfs)
                               for s in self._replica()]), k, _by_score)

    def proximity_topk(self, terms: list[str], k: int = 10,
                       pool: int | None = None
                       ) -> list[tuple[int, int, float]]:
        """Distributed words-then-proximity ranking: each doc partition
        runs the engine's proximity_topk over its local AND matches with
        corpus-wide dfs; the driver merges by (cost, -score, doc). With
        `pool` covering the full AND set this equals the local engine's
        proximity_topk; at smaller pools each PARTITION's pool is local,
        so recall is >= the single-node heuristic's."""
        if not self.engine.has_positions:
            raise ValueError("index was built without store_positions=True")
        dfs = self._dfs(terms)
        if not terms or len(dfs) < len(set(terms)):
            return []  # a term no doc holds: no doc matches them all
        return _merge(ray.get([
            s.proximity_topk.remote(terms, k, pool, dfs=dfs)
            for s in self._replica()
        ]), k, lambda h: (h[1], -h[2], h[0]))

    def shutdown(self) -> None:
        for rs in self.replica_sets:
            for s in rs:
                ray.kill(s)
        self.replica_sets = []
        self.servers = []
