"""Tracing and host measurement for the benchmark.

Spans are recorded from the benchmark's own side of each layer boundary:
a wrapper around the engine handed to ``SearchProxy``, and patches of
``difflib.SequenceMatcher`` and ``pyarrow.dataset.dataset`` that exist only
while a traced run holds them.  Times accumulate into the current request;
``end_request`` files the request's totals.  Nothing is recorded when the
trace is disabled, so the same proxy can serve traced and untraced requests
side by side.
"""

from __future__ import annotations

import contextlib
import difflib
import math
import os
import statistics
import time
from collections import defaultdict

# engine methods that get their own span; every other engine call the proxy
# makes lands in "engine.other_ms"
ENGINE_SPANS = {
    "score_topk": "engine.score_topk_ms",
    "doc_term_positions": "engine.positions_ms",
    "proximity_cost": "engine.positions_ms",
    "expand_typo": "engine.typo_ms",
}


class Trace:
    """Per-request span totals and counters, kept in memory."""

    def __init__(self) -> None:
        self.enabled = False
        self.engine_depth = 0
        self.current: dict[str, float] = defaultdict(float)
        self.requests: list[dict[str, float]] = []

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.current[name] += value

    def begin_request(self) -> None:
        self.current = defaultdict(float)

    def end_request(self) -> dict[str, float]:
        done = dict(self.current)
        self.requests.append(done)
        self.current = defaultdict(float)
        return done

    def mean(self, name: str) -> float:
        if not self.requests:
            return 0.0
        return sum(r.get(name, 0.0) for r in self.requests) / len(self.requests)


class TracedEngine:
    """Delegates to a search engine, timing each method call the proxy makes.

    Calls the engine makes on itself bypass the wrapper, so each span is the
    proxy's view of one engine call."""

    def __init__(self, engine, trace: Trace) -> None:
        self._engine = engine
        self._trace = trace

    def __getattr__(self, name: str):
        attr = getattr(self._engine, name)
        if not callable(attr):
            return attr
        span = ENGINE_SPANS.get(name, "engine.other_ms")
        trace = self._trace

        def timed(*args, **kwargs):
            trace.engine_depth += 1
            t0 = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                trace.add(span, (time.perf_counter() - t0) * 1e3)
                trace.engine_depth -= 1

        return timed

    def score_topk(self, terms, *args, **kwargs):
        out = self.__getattr__("score_topk")(terms, *args, **kwargs)
        if self._trace.enabled:
            self._trace.add("engine.score_topk_calls", 1)
            self._trace.add("engine.postings_scored",
                            sum(self._engine.df(t) for t in set(terms)))
        return out


@contextlib.contextmanager
def proxy_patches(trace: Trace, dup_threshold: float):
    """Time the proxy's near-duplicate clustering and doc-table reads.

    The proxy imports ``SequenceMatcher`` and ``pyarrow.dataset`` at call
    time, so replacing the module attributes reaches it.  Reads made inside
    an engine call are the engine's, and are left out of hydration."""
    import pyarrow.dataset as pads

    real_matcher = difflib.SequenceMatcher
    real_dataset = pads.dataset

    class TimedMatcher(real_matcher):
        def __init__(self, *args, **kwargs):
            t0 = time.perf_counter()
            super().__init__(*args, **kwargs)
            trace.add("proxy.cluster_ms", (time.perf_counter() - t0) * 1e3)

        def ratio(self):
            t0 = time.perf_counter()
            r = super().ratio()
            trace.add("proxy.cluster_ms", (time.perf_counter() - t0) * 1e3)
            trace.add("proxy.cluster_comparisons", 1)
            trace.add("proxy.cluster_dups", float(r >= dup_threshold))
            return r

    class TimedDataset:
        def __init__(self, inner, counted: bool):
            self._inner = inner
            self._counted = counted

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def to_table(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return self._inner.to_table(*args, **kwargs)
            finally:
                if self._counted:
                    trace.add("proxy.hydrate_ms",
                              (time.perf_counter() - t0) * 1e3)
                    trace.add("proxy.hydrate_reads", 1)

    def timed_dataset(*args, **kwargs):
        counted = trace.enabled and trace.engine_depth == 0
        t0 = time.perf_counter()
        ds = real_dataset(*args, **kwargs)
        if counted:
            trace.add("proxy.hydrate_ms", (time.perf_counter() - t0) * 1e3)
        return TimedDataset(ds, counted)

    difflib.SequenceMatcher = TimedMatcher
    pads.dataset = timed_dataset
    try:
        yield
    finally:
        difflib.SequenceMatcher = real_matcher
        pads.dataset = real_dataset


@contextlib.contextmanager
def build_phase_spans(phases: dict[str, list[float]],
                      cores: dict[str, list[float]]):
    """Time each build phase ``build_index`` runs.

    ``build_index`` (and ``incremental.add_documents`` through it) looks the
    phase functions up as module globals at call time, so wrapping the module
    attributes times the real sequence without re-implementing it."""
    from meilisearch_thai_ray.index import build as build_mod

    names = {"build_docs": "docs", "compute_stats": "stats",
             "build_shards": "shards", "build_term_dict": "dict",
             "build_typo_index": "typodict"}
    real = {fn: getattr(build_mod, fn) for fn in names}

    def wrap(fn, phase):
        def timed(*args, **kwargs):
            cpu0, t0 = tree_cpu_seconds(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                phases[phase].append(wall)
                cores[phase].append(
                    (tree_cpu_seconds() - cpu0) / wall if wall else 0.0)
        return timed

    for fn, phase in names.items():
        setattr(build_mod, fn, wrap(real[fn], phase))
    try:
        yield
    finally:
        for fn, f in real.items():
            setattr(build_mod, fn, f)


# ------------------------------------------------------------ host speed

REFERENCE_MS = 0.5       # the reference computation's CPU time at unit speed
SPEED_PERIOD_S = 0.05    # at most one speed sample per this many seconds
SPEED_SPAN_S = 0.25      # samples this close to an operation rescale it
_REF_WORDS = [f"w{i * 7919 % 10007}" for i in range(1000)]
_REF_TEXTS = (" ".join(_REF_WORDS[:80]), " ".join(_REF_WORDS[40:120]))
# the class itself, taken before a traced run's proxy patches replace it
_SequenceMatcher = difflib.SequenceMatcher


def _reference_work() -> None:
    """A fixed pure-Python computation: dict updates, a keyed sort, a string
    join and a ``difflib`` match of two short texts, the interpreter work
    the measured paths are made of."""
    d: dict[str, int] = {}
    for w in _REF_WORDS:
        d[w] = d.get(w, 0) + len(w)
    "".join(sorted(d, key=d.get)).count("w1")
    _SequenceMatcher(None, *_REF_TEXTS).ratio()


class HostSpeed:
    """Samples how fast the host runs code, next to the measured operations.

    The CPU a shared host lends the benchmark runs the same code up to 1.7x
    slower for stretches of seconds to minutes, so raw times of one run are
    not comparable with another's.  Each sample is the thread CPU time of a
    fixed reference computation (time spent descheduled is not in it, so
    the program's other processes move it little while they are idle; set-up,
    when they start, is left raw).  ``scale`` rescales an
    operation's time by the samples taken around it, to what it would be on
    a host that runs the reference in REFERENCE_MS."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (perf_counter, ms)
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.thread_time()
        _reference_work()
        ms = (time.thread_time() - t0) * 1e3
        self._last = time.perf_counter()
        self.samples.append((self._last, ms))

    def tick(self) -> None:
        """Take a sample if none was taken in the last SPEED_PERIOD_S."""
        if time.perf_counter() - self._last >= SPEED_PERIOD_S:
            self.sample()

    def burst(self, n: int = 5) -> None:
        for _ in range(n):
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_MS over the median sample within SPEED_SPAN_S of the
        interval [t0, t1], or of the three samples nearest to it."""
        near = [ms for t, ms in self.samples
                if t0 - SPEED_SPAN_S <= t <= t1 + SPEED_SPAN_S]
        if len(near) < 3:
            by_gap = sorted(self.samples, key=lambda s: max(t0 - s[0],
                                                            s[0] - t1))
            near = [ms for _, ms in by_gap[:3]]
        return REFERENCE_MS / statistics.median(near)

    def scale(self, t0: float, t1: float, value: float) -> float:
        """A duration measured over [t0, t1], at reference speed."""
        return value * self.factor(t0, t1)

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)


# ------------------------------------------------------------ host (/proc)

def _proc_table() -> tuple[dict[int, list[int]], dict[int, list[str]]]:
    """(children by parent pid, stat fields after the comm) for every pid."""
    children: dict[int, list[int]] = {}
    stats: dict[int, list[str]] = {}
    for ent in os.listdir("/proc"):
        if not ent.isdigit():
            continue
        try:
            with open(f"/proc/{ent}/stat", "rb") as f:
                raw = f.read().decode("ascii", "replace")
        except OSError:
            continue  # raced with process exit
        # the comm may hold spaces: split after its closing parenthesis
        rest = raw.rsplit(")", 1)[1].split()
        children.setdefault(int(rest[1]), []).append(int(ent))
        stats[int(ent)] = rest
    return children, stats


def process_tree() -> list[int]:
    """This process and every live descendant (the local Ray session)."""
    children, _ = _proc_table()
    out, frontier = [], [os.getpid()]
    while frontier:
        pid = frontier.pop()
        out.append(pid)
        frontier.extend(children.get(pid, ()))
    return out


def tree_cpu_seconds() -> float:
    """CPU seconds used by this process tree so far, reaped children
    included; effective cores = delta CPU seconds / wall seconds."""
    children, stats = _proc_table()
    clk = os.sysconf("SC_CLK_TCK")
    total, frontier = 0.0, [os.getpid()]
    while frontier:
        pid = frontier.pop()
        rest = stats.get(pid)
        if rest is not None:
            # utime, stime, cutime, cstime
            total += sum(int(x) for x in rest[11:15]) / clk
        frontier.extend(children.get(pid, ()))
    return total


def tree_peak_rss_mb() -> float:
    """Sum over the live process tree of each process's peak RSS (VmHWM)."""
    total_kb = 0
    for pid in process_tree():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def nproc() -> int:
    """What coreutils ``nproc`` prints: OMP_NUM_THREADS when set, else the
    CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0))
    env = os.environ.get("OMP_NUM_THREADS", "")
    return min(int(env), cpus) if env.isdigit() and int(env) > 0 else cpus


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0))


def ram_gb() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / (1024 * 1024)
    return 0.0
