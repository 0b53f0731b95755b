"""Workload ``solve-cold-n100``: one closed-loop caller of the library.

The paper's production size: Experiment 5's heterogeneous two-site
system with N=100 disks per site (200 disks), ``rda`` replication and
load-3 arbitrary queries, every one a fresh replica signature.  Each
query is ``RetrievalProblem.from_query`` followed by ``solve(problem)``
with the default ``pr-binary`` solver, so the engine and the scaling
skeleton do almost all the work and the service, net and fleet layers
none.
"""

from __future__ import annotations

import os
import time

import numpy as np

import benchstats
import procfs
import yardstick
from queries import DEPLOYMENT_SEED, STRATUM, QueryStream
from repro.core.api import solve
from repro.core.certify import certify_optimal
from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.decluster.multisite import make_placement
from repro.workloads.experiments import build_system

N = 100
#: queries timed per second of ``--seconds``
QUERIES_PER_S = 40
#: queries of the traced pass: the first 400 of the timed pass's
TRACED = 400
#: untimed solves that end each set-up
WARMUP = 8
SETUP_REPEATS = 11
#: per-layer metrics of the service, net and load-generator layers, which
#: this in-process closed loop does not pass through.  The result format
#: needs a number for every per-layer metric, so they read 0: no request
#: crosses those layers, none is shed or late, and there is no cache.
SERVED_ONLY = (
    "service.decision_ms.mean", "net.server.request_ms.mean",
    "service.edge_ms.mean", "net.client_ms.mean", "service.cache.hit_ratio",
    "net.shed_total", "net.errors_total", "loadgen.late_ms.p99",
)


def _set_up():
    """Build the deployment and solve :data:`WARMUP` fixed queries,
    :data:`SETUP_REPEATS` times; returns ``(system, placement, setup_s)``
    with the median set-up time at reference speed."""
    warmup = QueryStream(DEPLOYMENT_SEED, 0, N).take(WARMUP)
    times = []
    yard = [yardstick.timed()[0]]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rng = np.random.default_rng(DEPLOYMENT_SEED)
        system = build_system(5, N, rng)
        placement = make_placement("rda", N, num_sites=2, rng=rng)
        for coords in warmup:
            solve(RetrievalProblem.from_query(system, placement, coords))
        times.append(time.perf_counter() - start)
        yard.append(yardstick.timed()[0])
    return system, placement, benchstats.median(
        benchstats.at_reference_speed(
            times, yard[:-1], yard[1:], yardstick.REFERENCE_MS
        )
    )


def _certified(problem, schedule) -> bool:
    return bool(certify_optimal(problem, schedule))


def run(seed: int, seconds: float, traced: bool) -> dict:
    """The timed closed loop, then (``traced``) the per-layer pass."""
    system, placement, setup_s = _set_up()
    # QUERIES_PER_S queries per second of ``--seconds`` (one takes 16-40
    # ms on a 2-vCPU virtual machine), so the work timed follows
    # ``--seconds``, never the speed of the program or the host; one
    # stratified batch, so every run times the same query sizes.  A p99
    # needs STRATUM queries.
    count = QUERIES_PER_S * max(1, round(seconds))
    queries = QueryStream(seed, 1, N).take(
        max(count, STRATUM) if traced else count
    )
    result = _timed(system, placement, queries)
    latencies = result.pop("latencies")
    result["metrics"]["setup_s"] = setup_s
    if traced:
        result["metrics"]["latency_ms.p99"] = benchstats.percentile(
            latencies, 0.99
        )
        layers = _traced(system, placement, queries[:TRACED])
        result["attempted"] += layers.pop("attempted")
        result["failed"] += layers.pop("failed")
        result["split_ok"] = layers.pop("split_ok")
        result["metrics"].update(layers["metrics"])
    result["metrics"]["failed_frac"] = result["failed"] / result["attempted"]
    return result


def _timed(system, placement, queries: list) -> dict:
    """Closed loop over ``queries``, the yardstick timed before the first
    and after each; each schedule is certified optimal outside the
    timing.  Every query's wall and CPU time is scaled to reference speed
    by the yardstick runs on either side of it, so the figures are those
    of the program, not of the host's phase during the run."""
    wall_ms: list[float] = []
    cpu_ms: list[float] = []
    wall, cpu = yardstick.timed()
    yard_wall, yard_cpu = [wall], [cpu]
    failed = 0
    for coords in queries:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        problem = RetrievalProblem.from_query(system, placement, coords)
        schedule = solve(problem)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        wall, cpu = yardstick.timed()
        yard_wall.append(wall)
        yard_cpu.append(cpu)
        wall_ms.append((wall1 - wall0) * 1000.0)
        cpu_ms.append((cpu1 - cpu0) * 1000.0)
        failed += not _certified(problem, schedule)
    latencies = benchstats.at_reference_speed(
        wall_ms, yard_wall[:-1], yard_wall[1:], yardstick.REFERENCE_MS
    )
    cpu = benchstats.at_reference_speed(
        cpu_ms, yard_cpu[:-1], yard_cpu[1:], yardstick.REFERENCE_MS
    )
    return {
        "attempted": len(latencies),
        "failed": failed,
        "latencies": latencies,
        "metrics": {
            "latency_ms.p50": benchstats.median(latencies),
            "throughput_qps": 1000.0 * len(latencies) / sum(latencies),
            "cpu_ms_per_query": benchstats.mean(cpu),
            "peak_rss_mb": procfs.peak_rss_mb(os.getpid()),
        },
        "unscaled": {
            "latency_ms.p50": benchstats.median(wall_ms),
            "throughput_qps": 1000.0 * len(wall_ms) / sum(wall_ms),
            "cpu_ms_per_query": benchstats.mean(cpu_ms),
            "yardstick_ms.p50": benchstats.median(yard_wall),
        },
    }


def _traced(system, placement, queries: list) -> dict:
    """The per-layer pass over ``queries``: each is built and solved with
    tracing on, its network is built once more standalone, and the same
    problem is solved once untraced (alternating which goes first) to
    price the tracing itself."""
    layers = benchstats.CoreLayers()
    e2e: list[float] = []
    traced_s = untraced_s = 0.0
    failed = 0
    split_ok = True
    for i, coords in enumerate(queries):
        start = time.perf_counter()
        problem = RetrievalProblem.from_query(system, placement, coords)
        from_query_ms = (time.perf_counter() - start) * 1000.0
        if i % 2:
            plain = solve(problem)
        call0 = time.perf_counter()
        schedule = solve(problem, trace=True)
        call_ms = (time.perf_counter() - call0) * 1000.0
        if not i % 2:
            plain = solve(problem)
        build0 = time.perf_counter()
        RetrievalNetwork(problem)
        build_ms = (time.perf_counter() - build0) * 1000.0

        if (
            plain.response_time_ms != schedule.response_time_ms
            or not _certified(problem, schedule)
        ):
            failed += 1
        wall_ms = schedule.stats.wall_time_s * 1000.0
        # probes nest inside the solve's wall time, and that inside
        # the timed call, so no split part can exceed its whole
        split_ok &= layers.add(
            schedule.stats.extra["trace"], wall_ms, from_query_ms, build_ms
        )
        split_ok &= call_ms >= wall_ms
        e2e.append(from_query_ms + call_ms)
        traced_s += schedule.stats.wall_time_s
        untraced_s += plain.stats.wall_time_s
    return {
        "attempted": len(queries),
        "failed": failed,
        "split_ok": split_ok,
        "metrics": {
            **layers.metrics(),
            "split.e2e_ms.mean": benchstats.mean(e2e),
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
            **dict.fromkeys(SERVED_ONLY, 0.0),
        },
    }
