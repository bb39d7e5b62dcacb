"""Distributed query serving: per-shard-group index-server actors (SURVEY J4).

The reference's query path fans out per-variant searches to Meilisearch
(search_executor.py:55-176). Our scale path: long-lived `@ray.remote` actors,
each owning a contiguous group of index shards (the one place the Dataset API
genuinely can't express the semantics — a shared warm posting cache serving
point lookups). The driver routes each query term to the actor owning
hash(term) % num_shards, actors score their terms' postings locally
(idf-independent partial scores), and the driver merges per-actor partial
score maps and finishes top-k selection.

Merging is EXACT, not approximate: a doc's postings for one term live in one
shard, so per-(term, doc) contributions come from exactly one actor; the
driver sums contributions per doc in sorted-term order (same float64 order as
the local engine and the oracle => identical scores).

Equality with the local SearchEngine is asserted in tests.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import ray

from ..kernel.bm25 import idf as _idf


@ray.remote
class ShardServer:
    """Owns shards [lo, hi); serves (df, doc_ids, tfn) per term with a warm cache.

    Ownership is ENFORCED: a term whose hash-shard falls outside [lo, hi) is
    rejected (misrouting is a driver bug — silently serving it would also let
    per-actor memory grow to the whole index instead of the owned range)."""

    def __init__(self, index_dir: str, shard_lo: int, shard_hi: int):
        from .search import SearchEngine
        from ..functions.hashing import fnv1a64

        # cache cap >= owned range: warming [lo, hi) must never evict the
        # shards it just loaded
        self.engine = SearchEngine(
            index_dir, shard_cache_cap=max(64, shard_hi - shard_lo)
        )
        self.lo, self.hi = shard_lo, shard_hi
        self._hash = fnv1a64

    def term_postings(self, terms: list[str]) -> dict:
        """-> {term: (df, doc_ids int64 list-free ndarray, tfn ndarray)}"""
        out = {}
        ns = self.engine.num_shards
        for t in terms:
            shard = self._hash(t) % ns
            if not (self.lo <= shard < self.hi):
                raise ValueError(
                    f"term {t!r} routes to shard {shard}, outside this "
                    f"server's owned range [{self.lo}, {self.hi})"
                )
            segs = self.engine.segments(t)
            if not segs:
                continue
            ids = np.concatenate([s.doc_ids for s in segs])
            tfn = np.concatenate([s.tfn for s in segs])
            out[t] = (int(sum(s.n for s in segs)), ids, tfn)
        return out

    def warm(self) -> int:
        """Preload ONLY the owned shard range (per-actor memory stays
        proportional to ownership, not to the whole index)."""
        total = 0
        for shard in range(self.lo, self.hi):
            total += len(self.engine._load_shard(shard))
        return total

    def ping(self) -> bool:
        return True


@ray.remote
class DocPartitionServer:
    """Owns one group of SALT partitions (salt = doc_id % num_salts, so a
    salt group is a complete doc partition: every term's postings for those
    docs live in this actor). Scores its docs locally with driver-supplied
    global idfs and returns ONLY its local top-k — per-query network is
    O(k), not O(postings), unlike term-routed serving which ships whole
    posting arrays to the driver."""

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


class ShardedSearchService:
    """Driver-side facade: spawn actors, route terms, merge exactly."""

    def __init__(self, index_dir: str, num_servers: int = 4):
        import json
        import os

        with open(os.path.join(index_dir, "meta.json")) as f:
            self.meta = json.load(f)
        self.num_shards = self.meta["num_shards"]
        self.n_docs = self.meta["n_docs"]
        num_servers = max(1, min(num_servers, self.num_shards))
        self.bounds = np.linspace(0, self.num_shards, num_servers + 1).astype(int)
        self.servers = [
            ShardServer.remote(index_dir, int(lo), int(hi))
            for lo, hi in zip(self.bounds[:-1], self.bounds[1:])
        ]
        ray.get([s.ping.remote() for s in self.servers])
        from ..functions.hashing import fnv1a64

        self._hash = fnv1a64
        from ..index.maintenance import load_tombstones

        self._dead = load_tombstones(index_dir)

    def warm(self) -> int:
        """Warm every server's owned shard range in parallel."""
        return sum(ray.get([s.warm.remote() for s in self.servers]))

    def _server_for(self, term: str) -> int:
        shard = self._hash(term) % self.num_shards
        return int(np.searchsorted(self.bounds, shard, side="right") - 1)

    def score_topk(self, terms: list[str], k: int = 10) -> list[tuple[int, float]]:
        weights = Counter(terms)
        ordered = sorted(weights)
        if not ordered:
            return []
        by_server: dict[int, list[str]] = {}
        for t in ordered:
            by_server.setdefault(self._server_for(t), []).append(t)
        futures = {
            sid: self.servers[sid].term_postings.remote(ts)
            for sid, ts in by_server.items()
        }
        postings: dict[str, tuple] = {}
        for sid, fut in futures.items():
            postings.update(ray.get(fut))
        id_chunks, contrib_chunks = [], []
        for term in ordered:  # sorted-term order => float-identical sums
            hit = postings.get(term)
            if hit is None:
                continue
            df, ids, tfn = hit
            id_chunks.append(ids)
            # same expression shape as SearchEngine._score_exhaustive =>
            # bit-identical contributions
            contrib_chunks.append(float(weights[term]) * (_idf(self.n_docs, df) * tfn))
        if not id_chunks:
            return []
        all_ids = np.concatenate(id_chunks)
        all_contrib = np.concatenate(contrib_chunks)
        uniq, inv = np.unique(all_ids, return_inverse=True)
        acc = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(acc, inv, all_contrib)
        if self._dead:
            alive = ~np.isin(uniq, np.fromiter(self._dead, dtype=np.uint64))
            uniq, acc = uniq[alive], acc[alive]
        if uniq.size == 0:
            return []
        if uniq.size <= k:
            order = np.lexsort((uniq, -acc))
        else:
            kth = np.partition(acc, uniq.size - k)[uniq.size - k]
            sel = np.flatnonzero(acc >= kth)
            order = sel[np.lexsort((uniq[sel], -acc[sel]))]
        return [(int(uniq[i]), float(acc[i])) for i in order[:k]]

    def shutdown(self) -> None:
        for s in self.servers:
            ray.kill(s)
        self.servers = []
