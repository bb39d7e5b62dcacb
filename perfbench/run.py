"""Benchmark of the four user paths: build, proxy, serve and refresh.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload proxy --seed 1 --seconds 10 --trace 0

It makes its inputs from ``--seed``, runs the workload on the code in the
checkout for ``--seconds``, checks the outputs, prints one record line
(box, named metrics, checks) and, as its last line, the result object.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones.  Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_DOCS = 1000
SOCKET_PATH_MAX = 107
CPUS = 1  # CPUs the run's whole process tree, Ray's included, may use
# per workload: the per-path prefix of its query latencies, and the
# per-path name of its throughput
PATH_NAMES = {
    "build": ("build_query", "build_docs_per_s"),
    "proxy": ("proxy", "proxy_rps"),
    "serve": ("serve", "serve_qps"),
    "refresh": ("refresh_query", "delta_docs_per_s"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("build", "proxy", "serve", "refresh"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=DEFAULT_DOCS,
                    help="corpus size (smaller for smoke tests)")
    return ap.parse_args(argv)


RAY_TEMP = os.path.join(ROOT, ".pb", "ray")


def ray_temp_dir() -> str | None:
    """A Ray temp dir inside the checkout, or None (Ray's default) when the
    checkout path is too long for the session's unix socket paths."""
    d = RAY_TEMP
    session = f"session_{time.strftime('%Y-%m-%d_%H-%M-%S')}_000000_{os.getpid()}"
    sock = os.path.join(d, session, "sockets", "plasma_store.1")
    if len(sock.encode()) <= SOCKET_PATH_MAX:
        return d
    print(f"perfbench: {d} is too long for Ray's sockets; using Ray's "
          "default temp dir", file=sys.stderr)
    return None


def pin_cpus() -> list[int]:
    """Confine this process, and so every process it starts, to the last
    CPUS of the CPUs it may use.  A request hops between the client and
    Ray's processes; left free, the scheduler places them differently in
    each run, and on a shared host that moved whole-run latencies of the
    same inputs by up to 1.5x.  On one CPU every run has the same shape."""
    cpus = sorted(os.sched_getaffinity(0))[-CPUS:]
    os.sched_setaffinity(0, cpus)
    return cpus


def start_ray(ncpu: int) -> None:
    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, _temp_dir=ray_temp_dir())
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray() -> None:
    """Shut the session down and wait until every process it started has
    ended, killing stragglers after 30 s."""
    import ray

    import bench_trace as bt

    pids = [p for p in bt.process_tree() if p != os.getpid()]
    ray.shutdown()

    def alive() -> list[int]:
        out = []
        for p in pids:
            try:
                with open(f"/proc/{p}/stat") as f:
                    if f.read().rsplit(")", 1)[1].split()[0] != "Z":
                        out.append(p)
            except OSError:
                pass
        return out

    deadline = time.time() + 30
    while alive() and time.time() < deadline:
        time.sleep(0.1)
    for p in alive():
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.time() + 10
    while alive() and time.time() < deadline:
        time.sleep(0.1)
    # this run's session logs (the session dir name ends with our pid)
    if os.path.isdir(RAY_TEMP):
        for name in os.listdir(RAY_TEMP):
            if name.endswith(f"_{os.getpid()}") or name == "session_latest":
                p = os.path.join(RAY_TEMP, name)
                if os.path.islink(p):
                    os.unlink(p)
                else:
                    shutil.rmtree(p, ignore_errors=True)


SETUP_STEPS = ("ray_init_s", "worker_warm_s", "index_open_s", "actor_start_s")


def end_to_end(ctx, own: dict, peak_rss_mb: float) -> dict[str, float]:
    import bench_paths as paths

    per_request = own["typical"]
    idx = ctx.record["index"]
    setup = ctx.setup_seconds()
    return {
        "setup_s": sum(setup.get(k, 0.0) for k in SETUP_STEPS),
        "throughput_per_s": own["throughput"],
        "index_bytes_per_text_byte": idx["index_bytes"] / idx["text_bytes"],
        "query_p50_ms": statistics.median(per_request),
        "query_p90_ms": paths.percentile(per_request, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(ctx) -> dict[str, float]:
    L = dict(ctx.layers)
    setup = ctx.setup_seconds()
    for k in SETUP_STEPS:
        L[f"setup.{k}"] = setup.get(k, 0.0)
    for phase in ("docs", "stats", "shards", "dict", "typodict"):
        L[f"build.{phase}_s"] = statistics.median(ctx.phases[phase])
    wall = sum(sum(v) for v in ctx.phases.values())
    cpu = sum(c * w for ph in ctx.phases
              for c, w in zip(ctx.phase_cores[ph], ctx.phases[ph]))
    L["build.effective_cores"] = cpu / wall
    idx = ctx.record["index"]
    L["build.postings"] = idx["postings"]
    L["build.terms"] = idx["terms"]
    L["build.index_bytes"] = idx["index_bytes"]
    return L


def named_metrics(workload: str, metrics: dict, own: dict,
                  ingest_seconds: list[float]) -> dict:
    """The workload's metrics under their per-path names, beside the raw
    latencies of every try (not rescaled to reference speed) with the
    highest tail percentile that has at least ten samples beyond it."""
    import bench_paths as paths

    prefix, rate = PATH_NAMES[workload]
    lat = own["latencies"]
    q = paths.tail_percentile(len(lat))
    out = {f"{prefix}_p50_ms": metrics["query_p50_ms"],
           f"{prefix}_p90_ms": metrics["query_p90_ms"],
           rate: metrics["throughput_per_s"],
           "distinct_requests": len(own["typical"]),
           f"{prefix}_raw_p50_ms": statistics.median(lat),
           f"{prefix}_raw_p{q:g}_ms": paths.percentile(lat, q),
           "samples": len(lat)}
    if "raw_rate" in own:
        out[f"{prefix}_raw_per_s"] = own["raw_rate"]
    if workload == "refresh":
        out["delta_ingest_s"] = statistics.median(ingest_seconds)
    return out


def run(args, spec: dict) -> dict:
    import bench_paths as paths
    import bench_trace as bt

    affinity = bt.affinity_cpus()
    cpus = pin_cpus()
    t_run, cpu_run = time.perf_counter(), bt.tree_cpu_seconds()
    work = os.path.join(ROOT, ".pb", f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray_started = False
    try:
        ctx = paths.Context(work, args.seed, args.docs, bool(args.trace))
        with ctx.setup_step("ray_init_s"):
            ray_started = True
            start_ray(len(cpus))
        ctx.warm_workers()
        own = paths.PATHS[args.workload](ctx, args.seconds)
        if args.trace:
            for name, fn in paths.PATHS.items():
                if name != args.workload:
                    fn(ctx, None)
            paths.run_kernel(ctx)
        ctx.note_rss()
        peak = ctx.peak_rss_mb
        cores = (bt.tree_cpu_seconds() - cpu_run) / (time.perf_counter()
                                                      - t_run)
    finally:
        if ray_started:
            stop_ray()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = per_layer(ctx)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = end_to_end(ctx, own, peak)
        names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer"] + spec["end_to_end"]}
    missing = [n for n in names if n not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    import ray

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "box": {
            "nproc": bt.nproc(), "affinity_cpus": affinity,
            "pinned_cpus": cpus,
            "effective_cores": cores,
            "ram_gb": bt.ram_gb(), "ray": ray.__version__,
            "python": platform.python_version(), "seed": args.seed,
            "corpus_docs": args.docs,
            "index_bytes": ctx.record["index"]["index_bytes"],
        },
        "error_ratio": ctx.failed / max(1, ctx.attempted),
        "peak_rss_mb": peak,
        "setup": ctx.setup_seconds(),
        "host_speed": {"reference_ms": bt.REFERENCE_MS,
                       "median_sample_ms": ctx.speed.median_ms(),
                       "samples": len(ctx.speed.samples)},
        "checks": {k: ctx.record[k] for k in ("proxy_digest", "proxy_cluster")
                   if k in ctx.record},
        "index": ctx.record["index"],
    }
    if not args.trace:
        record["named"] = named_metrics(args.workload, values, own,
                                        ctx.record["ingest"]["seconds"])
    print(json.dumps({"record": record}, default=float))
    return {
        "correct": ctx.failed == 0,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "metrics": {n: {"value": float(values[n]), "unit": units[n]}
                    for n in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "meilisearch_thai_ray")):
        print("perfbench: no meilisearch_thai_ray package beside perfbench/; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    # Ray workers import the package and these modules by path
    sys.path[:0] = [ROOT, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    result = run(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
