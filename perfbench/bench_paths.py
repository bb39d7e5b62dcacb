"""The four user paths the benchmark drives, and the checks on their outputs.

Every path runs in one process as one closed-loop client: the next request
goes out only after the previous one returned.  A path given ``seconds``
runs its timed window; given ``None`` it runs a short fixed probe, which a
traced run uses so that every layer reports on every workload.

Each path sends a fixed set of distinct requests over and over (proxy and
serve in a fresh seeded order each round, build and refresh as passes over
the fixture queries).  The CPU a shared host lends the benchmark runs code
up to 1.7x slower for stretches of seconds to minutes, so every timed
operation is rescaled to reference host speed by the speed samples taken
around it (``bench_trace.HostSpeed``), and each distinct request reports the
median of its rescaled tries.  The raw times go to the record line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import bench_inputs as inputs
import bench_trace as bt

NUM_SHARDS = 32
NUM_SALTS = 2
NUM_SERVERS = 2
GENERATIONS = 3
DELTA_FRAC = 0.1         # refresh delta size, as a share of the base corpus
DELETE_FRAC = 0.01       # share of base doc ids deleted per generation
PROBE_REQUESTS = 60
MIN_BUILDS = 3           # the build window runs at least this many builds
OPEN_REPEATS = 3
KERNEL_SAMPLE = (40, 2024)   # (pages, seed) of the fixed kernel sample
# words the "negative" proxy shape excludes: common corpus words
NEGATIVE_WORDS = ["machine", "data", "online", "อาหาร", "เทคโนโลยี"]
QUERY_SLICE_S = 0.5      # fixture-query time after each build
GEN_SLICE_S = 0.3        # fixture-query time after each refresh generation
MIN_READ_S = 4.0         # shortest refresh read window


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q / 100.0 * len(s)) - 1))]


def typical(tries: dict) -> list[float]:
    """Each distinct request's median try."""
    return [statistics.median(v) for v in tries.values()]


def tail_percentile(n: int, want: float = 99.0) -> float:
    """The highest percentile up to ``want`` with at least ten samples
    beyond it (whole percent steps); 50 if there are too few samples."""
    q = want
    while q > 50 and n * (100 - q) / 100.0 < 10:
        q -= 1
    return q


def _warm_worker(batch):
    import meilisearch_thai_ray.stages.extract_tokenize  # noqa: F401

    return batch


class Context:
    """State of one benchmark invocation: its inputs, index, trace and
    collected numbers."""

    def __init__(self, work: str, seed: int, n_docs: int,
                 tracing: bool) -> None:
        from meilisearch_thai_ray.config import EngineConfig
        from meilisearch_thai_ray.fixtures.queries import QUERY_FIXTURES

        self.work = work
        self.seed = seed
        self.n_docs = n_docs
        self.tracing = tracing
        self.config = EngineConfig(num_shards=NUM_SHARDS, store_positions=True)
        self.queries = [q["query"] for q in QUERY_FIXTURES]
        self.trace = bt.Trace()
        self.speed = bt.HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.setup_times: dict[str, list[float]] = {}
        self.layers: dict[str, float] = {}
        self.record: dict = {}
        self.peak_rss_mb = 0.0
        self.phases: dict[str, list[float]] = defaultdict(list)
        self.phase_cores: dict[str, list[float]] = defaultdict(list)
        self.pages = inputs.write_corpus(os.path.join(work, "pages"),
                                         n_docs, seed)
        self._fixture: str | None = None
        self._terms: list[list[str]] | None = None

    # -------------------------------------------------------- bookkeeping

    def fail(self, what: str, detail: str = "") -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: FAILED {what} {detail}", file=sys.stderr)

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception:  # one failed request must not end the run
            self.fail(what, traceback.format_exc(limit=4))
            return False, None

    def rescale(self, timed: list[tuple]) -> dict:
        """Each request's tries at reference speed, from (key, start, end,
        ms) tuples; called after the window, when the samples that follow
        its last operation exist."""
        tries = defaultdict(list)
        for key, t0, t1, ms in timed:
            tries[key].append(self.speed.scale(t0, t1, ms))
        return tries

    @contextmanager
    def setup_step(self, name: str):
        """Time one run of a set-up step.  Set-up is not rescaled to
        reference speed: it starts processes on the run's one CPU, and the
        speed samples taken around it read the contention of those starts,
        not the host's speed; raw set-up times were the steadier."""
        t0 = time.perf_counter()
        yield
        self.setup_times.setdefault(name, []).append(
            time.perf_counter() - t0)

    def setup_seconds(self) -> dict[str, float]:
        """Each set-up step's median seconds over its runs."""
        return {k: statistics.median(v) for k, v in self.setup_times.items()}

    def note_rss(self) -> None:
        """Fold the live process tree's peak RSS into ``peak_rss_mb``; called
        while every process of the measured path is still alive."""
        self.peak_rss_mb = max(self.peak_rss_mb, bt.tree_peak_rss_mb())

    def warm_workers(self) -> None:
        import ray.data as rd

        with self.setup_step("worker_warm_s"):
            rd.range(4, override_num_blocks=4).map_batches(
                _warm_worker, batch_size=1).materialize()

    # ------------------------------------------------------------- index

    def build(self, out: str) -> float:
        """One full build (build_index + build_typo_index) of the corpus;
        returns its wall seconds."""
        from meilisearch_thai_ray.index import build as build_mod

        shutil.rmtree(out, ignore_errors=True)
        spans = (bt.build_phase_spans(self.phases, self.phase_cores)
                 if self.tracing else nullcontext())
        with spans:
            t0 = time.perf_counter()
            build_mod.build_index(self.pages, out, self.config,
                                  num_salts=NUM_SALTS)
            build_mod.build_typo_index(out)
            return time.perf_counter() - t0

    def fixture(self) -> str:
        """The query workloads' index: built once per invocation by the code
        under test, outside every timed window."""
        if self._fixture is None:
            out = os.path.join(self.work, "fixture")
            wall = self.build(out)
            self.record.setdefault("fixture_build_s", wall)
            self.record.setdefault("ingest", {"docs": self.n_docs,
                                              "seconds": [wall]})
            self.describe_index(out)
            self._fixture = out
        return self._fixture

    def set_fixture(self, index: str) -> None:
        self._fixture = index

    def describe_index(self, index: str) -> None:
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        nbytes = 0
        for sub in ("shards", "termdict", "typodict"):
            for root, _dirs, files in os.walk(os.path.join(index, sub)):
                nbytes += sum(os.path.getsize(os.path.join(root, f))
                              for f in files)
        docs = pads.dataset(os.path.join(index, "docs")).to_table(
            columns=["text"])
        text_bytes = int(pc.sum(pc.binary_length(
            docs["text"].cast("binary"))).as_py() or 0)
        td = pads.dataset(os.path.join(index, "termdict")).to_table(
            columns=["df"])
        from meilisearch_thai_ray.index.maintenance import failed_docs

        self.record["index"] = {
            "index_bytes": nbytes, "text_bytes": text_bytes,
            "terms": td.num_rows,
            "postings": int(pc.sum(td["df"]).as_py() or 0),
            "docs_failed": failed_docs(index).num_rows,
        }
        if self.record["index"]["docs_failed"]:
            self.fail("build", f"{self.record['index']['docs_failed']} "
                               "docs failed extraction")

    def open_engine(self, index: str):
        """Open and warm a SearchEngine OPEN_REPEATS times; the first call's
        opens are the set-up cost, the last engine is returned."""
        from meilisearch_thai_ray.index.search import SearchEngine

        first = "index_open_s" not in self.setup_times
        eng = None
        for _ in range(OPEN_REPEATS):
            with self.setup_step("index_open_s") if first else nullcontext():
                eng = SearchEngine(index)
                eng.warm()
        return eng

    def fixture_terms(self, eng) -> list[list[str]]:
        if self._terms is None:
            self._terms = [eng.query_terms(q) for q in self.queries]
        return self._terms


# ------------------------------------------------------------------ build

def run_build(ctx: Context, seconds: float | None) -> dict:
    """Repeated fresh builds of the seeded corpus, at least MIN_BUILDS and
    until the window ends; after each, the fixture queries against the new
    index, checked against the BM25 oracle over the docs table's stored
    terms."""
    import pyarrow.dataset as pads

    from meilisearch_thai_ray.kernel.bm25 import BM25Oracle

    if seconds is None:  # the fixture build is the probe
        ctx.fixture()
        return {}
    walls, builds, lat, timed = [], [], [], []
    oracle = None
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        out = os.path.join(ctx.work, f"build-{i % 2}")
        ctx.speed.burst()
        t0 = time.perf_counter()
        ok, wall = ctx.attempt("build", ctx.build, out)
        t1 = time.perf_counter()
        ctx.speed.burst()
        i += 1
        if not ok:
            break
        walls.append(wall)
        builds.append(("build", t0, t1, wall))
        ctx.set_fixture(out)  # the traced run's probes query the last build
        if oracle is None:
            docs = pads.dataset(os.path.join(out, "docs")).to_table(
                columns=["doc_id", "terms"])
            oracle = BM25Oracle([
                (d, t) for d, t in zip(docs["doc_id"].to_pylist(),
                                       docs["terms"].to_pylist())
                if t is not None])
            ctx.describe_index(out)
        eng = ctx.open_engine(out)
        terms = ctx.fixture_terms(eng)
        for qi, ts in enumerate(terms):
            ok, got = ctx.attempt("query", eng.score_topk, ts, 10)
            if ok and got != oracle.top_k(ts, 10):
                ctx.fail("build check", f"top-10 differs for {ts}")
        query_slice(ctx, eng, terms, QUERY_SLICE_S, lat, timed)
        if len(walls) >= MIN_BUILDS and time.perf_counter() >= deadline:
            break
    if not walls:
        raise RuntimeError("no build completed")
    scaled = ctx.rescale(builds)["build"]
    ctx.record["ingest"] = {"docs": ctx.n_docs, "seconds": walls,
                            "scaled_seconds": scaled}
    return {"latencies": lat, "typical": typical(ctx.rescale(timed)),
            "throughput": ctx.n_docs / statistics.median(scaled)}


def query_slice(ctx: Context, eng, terms: list[list[str]], seconds: float,
                lat: list[float], timed: list, key=lambda qi: qi) -> None:
    """Fixture-query passes through ``eng`` for ``seconds``, at least one
    pass; each latency goes to ``lat`` and to ``timed`` as (key, start,
    end, ms)."""
    deadline = time.perf_counter() + seconds
    while True:
        for qi, ts in enumerate(terms):
            t0 = time.perf_counter()
            ctx.attempt("query", eng.score_topk, ts, 10)
            t1 = time.perf_counter()
            dt = (t1 - t0) * 1e3
            lat.append(dt)
            timed.append((key(qi), t0, t1, dt))
            ctx.speed.tick()
        if time.perf_counter() >= deadline:
            return


# ------------------------------------------------------------------ proxy

def _digest(hits) -> str:
    return hashlib.sha1(json.dumps(hits, sort_keys=True, default=str)
                        .encode()).hexdigest()


def run_proxy(ctx: Context, seconds: float | None) -> dict:
    """Meilisearch-style requests to SearchProxy over the fixture index with
    docs_path set.  A traced run alternates untraced and traced requests on
    the same proxy, so tracing overhead is measured within one run."""
    from meilisearch_thai_ray.pipelines.search_proxy import (
        SIMILARITY_THRESHOLD,
        SearchProxy,
    )

    index = ctx.fixture()
    eng = ctx.open_engine(index)
    proxy = SearchProxy(eng, docs_path=os.path.join(index, "docs"))
    requests = inputs.proxy_requests(len(ctx.queries), ctx.seed,
                                     NEGATIVE_WORDS)
    order = inputs.rounds(range(len(requests)),
                          random.Random(f"proxy-order:{ctx.seed}"))
    for qi, shape, neg in requests:  # warm caches with one untimed round
        query, opts = inputs.proxy_call(ctx.queries[qi], shape, neg)
        proxy.search(query, options=opts)
    trace = ctx.trace
    traced_eng = bt.TracedEngine(eng, trace)
    lat = {False: [], True: []}
    timed: list[tuple] = []
    seen: dict[int, str] = {}
    patches = (bt.proxy_patches(trace, SIMILARITY_THRESHOLD)
               if ctx.tracing else nullcontext())
    with patches:
        t_start = time.perf_counter()
        deadline = t_start + (seconds or 0)
        for i, k in enumerate(order):
            if (time.perf_counter() >= deadline if seconds
                    else i >= PROBE_REQUESTS):
                break
            qi, shape, neg = requests[k]
            query, opts = inputs.proxy_call(ctx.queries[qi], shape, neg)
            on = ctx.tracing and i % 2 == 1
            if on:
                t0 = time.perf_counter()
                n_variants = len(proxy.generate_variants(ctx.queries[qi]))
                prepare_ms = _ms(t0)
                proxy.engine = traced_eng
                trace.begin_request()
                trace.enabled = True
            t0 = time.perf_counter()
            ok, hits = ctx.attempt("proxy", proxy.search, query, options=opts)
            t1 = time.perf_counter()
            dt = (t1 - t0) * 1e3
            trace.enabled = False
            proxy.engine = eng
            if on:
                req = trace.end_request()
                req.update({"proxy.request_ms": dt,
                            "proxy.prepare_ms": prepare_ms,
                            "proxy.variants": n_variants})
            if not ok:
                continue
            lat[on].append(dt)
            if not on:
                timed.append((k, t0, t1, dt))
            ctx.speed.tick()
            d = _digest(hits)
            if seen.setdefault(k, d) != d:
                ctx.fail("proxy check", f"{requests[k]} answered differently")
        wall = time.perf_counter() - t_start
    # one digest over every distinct request's hit list: the same seed gives
    # the same digest whatever the window length
    ctx.record["proxy_digest"] = hashlib.sha1(
        "".join(seen[k] for k in sorted(seen)).encode()).hexdigest()
    if ctx.tracing:
        _proxy_layers(ctx, lat)
    return _query_result(lat, ctx.rescale(timed), wall)


def _query_result(lat: dict, tries: dict, wall: float) -> dict:
    """A query path's numbers.  Throughput is that of the closed-loop client
    at each distinct request's median latency at reference speed; the
    record also carries the raw rate (requests / window)."""
    every = lat[False] + lat[True]
    per_request = typical(tries)
    return {"latencies": every, "typical": per_request,
            "throughput": 1e3 / statistics.mean(per_request),
            "raw_rate": len(every) / wall}


def _proxy_layers(ctx: Context, lat: dict) -> None:
    tr = ctx.trace
    L = ctx.layers
    for name in ("engine.score_topk_ms", "engine.score_topk_calls",
                 "engine.postings_scored", "engine.positions_ms",
                 "engine.typo_ms", "proxy.prepare_ms", "proxy.variants",
                 "proxy.cluster_ms", "proxy.cluster_comparisons",
                 "proxy.hydrate_ms", "proxy.hydrate_reads"):
        L[name] = tr.mean(name)
    request = tr.mean("proxy.request_ms")
    engine = sum(tr.mean(n) for n in (
        "engine.score_topk_ms", "engine.positions_ms", "engine.typo_ms",
        "engine.other_ms"))
    L["proxy.request_ms"] = request
    L["proxy.self_ms"] = (request - engine - L["proxy.cluster_ms"]
                          - L["proxy.hydrate_ms"])
    comps = sum(r.get("proxy.cluster_comparisons", 0) for r in tr.requests)
    dups = sum(r.get("proxy.cluster_dups", 0) for r in tr.requests)
    ctx.record["proxy_cluster"] = {"comparisons": comps, "duplicates": dups,
                                   "dup_ratio": dups / comps if comps else 0.0}
    L["trace.proxy_overhead_pct"] = _overhead(lat)
    tr.requests = []


def _overhead(lat: dict) -> float:
    """Traced against untraced p50, in percent."""
    if not lat[False] or not lat[True]:
        return 0.0
    return (statistics.median(lat[True]) / statistics.median(lat[False])
            - 1.0) * 100.0


# ------------------------------------------------------------------ serve

def _serve_call(target, kind: str, terms: list[str], pool: int):
    if kind == "term":
        return target.score_topk(terms, 10)
    if kind == "phrase":
        return target.phrase_topk(" ".join(terms), 10)
    return target.proximity_topk(terms, 10, pool=pool)


def run_serve(ctx: Context, seconds: float | None) -> dict:
    """Requests to DocPartitionedSearchService; every answer must equal the
    in-process SearchEngine's on the same index, ids and scores."""
    import pyarrow.dataset as pads
    import ray

    from meilisearch_thai_ray.index.serving import DocPartitionedSearchService

    index = ctx.fixture()
    eng = ctx.open_engine(index)
    terms = ctx.fixture_terms(eng)
    td = pads.dataset(os.path.join(index, "termdict")).to_table(
        columns=["term", "df"]).to_pylist()
    by_df = [r["term"] for r in sorted(td, key=lambda r: (-r["df"], r["term"]))]
    requests = inputs.serve_requests(terms, by_df, ctx.seed)
    order = inputs.rounds(range(len(requests)),
                          random.Random(f"serve-order:{ctx.seed}"))
    pool = ctx.n_docs  # a pool over every doc makes proximity exact

    with ctx.setup_step("actor_start_s"):
        svc = DocPartitionedSearchService(index, num_servers=NUM_SERVERS)
        svc.warm()
    try:
        for req in requests:  # warm caches with one untimed round
            _serve_call(svc, *req, pool)
        lat = {False: [], True: []}
        timed: list[tuple] = []
        by_kind: dict[str, list[float]] = defaultdict(list)
        compute: list[float] = []
        answers: dict[int, list] = defaultdict(list)
        t_start = time.perf_counter()
        deadline = t_start + (seconds or 0)
        for i, k in enumerate(order):
            if (time.perf_counter() >= deadline if seconds
                    else i >= PROBE_REQUESTS):
                break
            kind, ts = requests[k]
            t0 = time.perf_counter()
            ok, got = ctx.attempt("serve", _serve_call, svc, kind, ts, pool)
            t1 = time.perf_counter()
            dt = (t1 - t0) * 1e3
            ctx.speed.tick()
            if not ok:
                continue
            on = ctx.tracing and i % 2 == 1
            lat[on].append(dt)
            by_kind[kind].append(dt)
            answers[k].append(got)
            if on:
                t0 = time.perf_counter()
                _serve_call(eng, kind, ts, pool)
                compute.append(_ms(t0))
            else:
                timed.append((k, t0, t1, dt))
        wall = time.perf_counter() - t_start
        for k, got in answers.items():  # check outside the timed window
            want = _serve_call(eng, *requests[k], pool)
            for g in got:
                if g != want:
                    ctx.fail("serve check", f"{requests[k]}")
        if ctx.tracing:
            rtt = []
            for _ in range(50):
                t0 = time.perf_counter()
                ray.get([s.ping.remote() for s in svc.servers])
                rtt.append(_ms(t0))
            L = ctx.layers
            L["serve.actor_rtt_ms"] = statistics.median(rtt)
            L["serve.compute_ms"] = statistics.mean(compute)
            L["serve.gateway_ms"] = (statistics.mean(lat[True])
                                     - L["serve.compute_ms"])
            for kind in ("term", "phrase", "prox"):
                L[f"serve.{kind}_p50_ms"] = (
                    statistics.median(by_kind[kind]) if by_kind[kind] else 0.0)
            L["trace.serve_overhead_pct"] = _overhead(lat)
        ctx.note_rss()
    finally:
        svc.shutdown()
    return _query_result(lat, ctx.rescale(timed), wall)


# ---------------------------------------------------------------- refresh

def run_refresh(ctx: Context, seconds: float | None) -> dict:
    """Writes beside reads on a copy of the fixture index, GENERATIONS times
    over: add a seeded delta, delete 1% of base ids, open and warm a
    GenerationalEngine, run the fixture queries through it."""
    import pyarrow.dataset as pads

    from meilisearch_thai_ray.index import incremental, maintenance
    from meilisearch_thai_ray.index.search import SearchEngine

    base = ctx.fixture()
    terms = ctx.fixture_terms(SearchEngine(base))
    live = os.path.join(ctx.work, "refresh")
    shutil.rmtree(live, ignore_errors=True)
    shutil.copytree(base, live)
    delta_docs = max(2, int(ctx.n_docs * DELTA_FRAC))
    deltas = [inputs.write_delta(os.path.join(ctx.work, f"delta-{g}"),
                                 ctx.n_docs, delta_docs, ctx.seed, g)
              for g in range(GENERATIONS)]
    base_ids = pads.dataset(os.path.join(base, "docs")).to_table(
        columns=["doc_id"])["doc_id"].to_pylist()
    deletes = [inputs.delete_sample(base_ids, DELETE_FRAC, ctx.seed, g)
               for g in range(GENERATIONS)]
    deleted: set[int] = set()
    first_open = "index_open_s" not in ctx.setup_times
    ingests, adds, dels, opens = [], [], [], []
    gen_timed: list[tuple] = []
    t_start = time.perf_counter()
    for g in range(GENERATIONS):
        ctx.speed.burst()
        t0 = time.perf_counter()
        ctx.attempt("add_documents", incremental.add_documents, live,
                    deltas[g])
        add_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        ctx.attempt("delete_docs", maintenance.delete_docs, live,
                    deletes[g])
        delete_s = time.perf_counter() - t1
        ingests.append(("ingest", t0, time.perf_counter(), add_s + delete_s))
        ctx.speed.burst()
        deleted.update(deletes[g])
        adds.append(add_s)
        dels.append(delete_s * 1e3)
        with (ctx.setup_step("index_open_s") if first_open
              else nullcontext()):
            t0 = time.perf_counter()
            eng = incremental.GenerationalEngine(live)
            eng.warm()
            opens.append(time.perf_counter() - t0)
        for ts in terms:
            ok, got = ctx.attempt("query", eng.score_topk, ts, 10)
            if ok and any(d in deleted for d, _ in got):
                ctx.fail("refresh check", f"deleted doc in {ts}")
        query_slice(ctx, eng, terms, GEN_SLICE_S, [], gen_timed,
                    key=lambda qi: (g, qi))
    # the read window: the fixture queries against the last generation for
    # the rest of the window, so each query's tries spread over all of it
    lat: list[float] = []
    timed: list[tuple] = []
    q0 = time.perf_counter()
    window = max(MIN_READ_S, t_start + (seconds or 0) - q0)
    query_slice(ctx, eng, terms, window, lat, timed)
    query_s = time.perf_counter() - q0
    ctx.record["ingest"] = {"docs": delta_docs,
                            "seconds": [s[3] for s in ingests]}
    # outside the timed region: the generational view must serve exactly
    # like its compaction.  Deletes keep the live engine's stale N/avgdl
    # until compaction by design, so the comparison runs on a copy without
    # the tombstones (the check above covers them).
    side = os.path.join(ctx.work, "refresh-check")
    shutil.rmtree(side, ignore_errors=True)
    shutil.copytree(live, side)
    shutil.rmtree(os.path.join(side, "tombstones"), ignore_errors=True)
    compacted = os.path.join(ctx.work, "compacted")
    shutil.rmtree(compacted, ignore_errors=True)
    incremental.compact(side, compacted)
    ge, ce = incremental.GenerationalEngine(side), SearchEngine(compacted)
    for ts in terms:
        ctx.attempted += 1
        if ge.score_topk(ts, 10) != ce.score_topk(ts, 10):
            ctx.fail("refresh check", f"compacted top-10 differs for {ts}")
    if ctx.tracing:
        L = ctx.layers
        L["refresh.add_s"] = statistics.median(adds)
        L["refresh.delete_ms"] = statistics.median(dels)
        L["refresh.open_s"] = statistics.median(opens)
        gen_tries = ctx.rescale(gen_timed)
        for g in range(GENERATIONS):
            L[f"refresh.query_p50_ms.gen{g + 1}"] = statistics.median(
                statistics.median(v) for (gen, _), v in gen_tries.items()
                if gen == g)
        uniq = sorted({t for ts in terms for t in ts})
        L["refresh.segments_per_term"] = statistics.mean(
            len(eng.segments(t)) for t in uniq)
    return {"latencies": lat, "typical": typical(ctx.rescale(timed)),
            "throughput": delta_docs / statistics.median(
                ctx.rescale(ingests)["ingest"]),
            "raw_rate": len(lat) / query_s}


# ----------------------------------------------------------------- kernel

def run_kernel(ctx: Context) -> None:
    """Single-process extract and tokenize over a fixed page sample."""
    from meilisearch_thai_ray.fixtures.pages import generate_pages
    from meilisearch_thai_ray.kernel import DocumentTokenizer, html_to_text

    n, seed = KERNEL_SAMPLE
    pages = generate_pages(n, seed=seed, lines_range=inputs.LINES)
    htmls = pages["html"].to_pylist()
    tok = DocumentTokenizer(ctx.config)
    texts = [html_to_text(h) for h in htmls]
    tok.index_terms(tok.tokenize(texts[0]))  # build the trie outside timing
    html_kb = sum(len(h) for h in htmls) / 1024
    text_kb = sum(len(t.encode()) for t in texts) / 1024
    ex, tk = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        for h in htmls:
            html_to_text(h)
        ex.append((time.perf_counter() - t0) * 1e6 / html_kb)
        t0 = time.perf_counter()
        for t in texts:
            tok.index_terms(tok.tokenize(t))
        tk.append((time.perf_counter() - t0) * 1e6 / text_kb)
    ctx.layers["kernel.extract_us_per_kb"] = statistics.median(ex)
    ctx.layers["kernel.tokenize_us_per_kb"] = statistics.median(tk)


PATHS = {"build": run_build, "proxy": run_proxy, "serve": run_serve,
         "refresh": run_refresh}
