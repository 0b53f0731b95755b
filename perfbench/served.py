"""Served workloads: ``repro serve`` in a child process, driven open-loop
through :class:`repro.net.AsyncSchedulerClient`.

``rpc-warm-n16``
    N=16, thread backend, warm-start cache of 64 entries; requests draw
    from a pool of 32 load-3 arbitrary signatures that the warm-up has
    already put into the cache, at 50 req/s.  Solves are small and warm,
    so decode, admission, cache rebind/restore and encode take their
    largest share of any workload here, and no network is built in the
    timed phase.
``fleet-miss-n48``
    N=48, two fleet worker processes, 15 req/s; every request is a fresh
    load-3 arbitrary signature, so every solve ships a problem to a worker,
    builds a network there and inserts into (and evicts from) the
    worker's cache, which the warm-up has filled.  The only workload that
    measures fleet shipping and the cache write path.

Each run sets the server up :data:`SETUP_REPEATS` times (spawn to the end
of the untimed warm-up) and keeps the last one for the timed phase.
After it, the server is stopped and every answer it gave is replayed into
a local ``SchedulerService`` of the same deployment and policy; any
response time that differs is a failure.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import benchstats
import procfs
import yardstick
from queries import DEPLOYMENT_SEED, STRATUM, QueryStream
from repro.cli import _build_serve_service, build_parser
from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.net import AsyncSchedulerClient, RetryPolicy
from repro.obs.trace import ProbeTrace, capture_probes

SETUP_REPEATS = 3
#: warm-start cache entries of the server (thread backend) or of each
#: fleet worker
CACHE_SIZE = 64
FLEET_WORKERS = 2
#: connections the load generator keeps open
CONNECTIONS = 2
READY_TIMEOUT_S = 60.0
#: how often the load generator times the yardstick in the timed phase;
#: each run blocks its event loop for 2-4 ms, about 1 % of the time
YARDSTICK_PERIOD_S = 0.25
STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ServedWorkload:
    n: int
    rate_per_s: float
    #: distinct signatures the requests draw from; ``None`` = all fresh
    pool: int | None
    #: fresh queries submitted by the warm-up when there is no pool
    warmup: int
    serve_args: tuple[str, ...]


#: ``fleet-miss-n48`` warms up with 1.5 cache fills per worker.  Lanes are
#: chosen by signature hash, so each worker gets about half the fresh
#: queries: 96 on average, and fewer than 64 only 4.6 standard deviations
#: below that.  Every timed request therefore inserts into a full cache and
#: evicts from it, as the workload claims.
#:
#: Rates keep the serialized solve path lightly loaded: at 100 and 25
#: req/s, queueing multiplied every slowdown of a shared host's CPU into
#: a 50-75 % run-to-run spread of the median latency.
WORKLOADS = {
    "rpc-warm-n16": ServedWorkload(
        n=16, rate_per_s=50.0, pool=32, warmup=0,
        serve_args=("--cache-size", str(CACHE_SIZE), "--solve-backend", "thread"),
    ),
    "fleet-miss-n48": ServedWorkload(
        n=48, rate_per_s=15.0, pool=None, warmup=3 * CACHE_SIZE,
        serve_args=(
            "--cache-size", str(CACHE_SIZE), "--workers", str(FLEET_WORKERS)
        ),
    ),
}


def _deployment_args(w: ServedWorkload) -> list[str]:
    return [
        "--scheme", "rda", "--n", str(w.n), "--seed", str(DEPLOYMENT_SEED),
        "--max-inflight", "32",
    ]


class ServerProcess:
    """One ``repro serve`` child in a session (process group) of its own."""

    def __init__(self, root: Path, log_path: Path, args: list[str]) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        self.log_path = log_path
        self.address: tuple[str, int] | None = None
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=root,
                env=env,
                start_new_session=True,
            )

    def wait_ready(self) -> None:
        """Block until the server prints its address into the log."""
        marker = "listening on "
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            if marker in text:
                addr = text.split(marker, 1)[1].split()[0]
                host, _, port = addr.rpartition(":")
                self.address = (host, int(port))
                return
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited {self.proc.returncode}: {text[-2000:]}"
                )
            time.sleep(0.01)
        raise RuntimeError(f"repro serve not ready in {READY_TIMEOUT_S:.0f}s")

    def members(self) -> list[int]:
        return procfs.group_members(self.proc.pid)

    def stop(self) -> None:
        """Drain with SIGTERM, then make sure the whole group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while self.members():
            if time.monotonic() > deadline:
                raise RuntimeError(f"server group {self.proc.pid} did not exit")
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            time.sleep(0.05)


@dataclass
class Outcome:
    """One submitted request, as the load generator saw it."""

    query: list
    record: object = None
    error: str | None = None
    due_s: float = 0.0
    sent_s: float = 0.0
    done_s: float = 0.0


def _queries(w: ServedWorkload, seed: int, count: int):
    """``(warm-up queries, timed queries)`` for one run."""
    if w.pool is None:
        stream = QueryStream(seed, 2, w.n)
        return stream.take(w.warmup), stream.take(count)
    pool = QueryStream(seed, 2, w.n).take(w.pool)
    # every signature is asked for equally often, in seeded order
    picks = np.random.default_rng([seed, 3]).permutation(
        np.resize(np.arange(w.pool), count)
    )
    return pool, [pool[k] for k in picks]


async def _submit(client: AsyncSchedulerClient, out: Outcome) -> None:
    loop = asyncio.get_running_loop()
    out.sent_s = loop.time()
    try:
        out.record = await client.submit(out.query)
    except Exception as exc:  # noqa: BLE001 - sheds and errors all count
        out.error = repr(exc)
    out.done_s = loop.time()


async def _pace(yard: list[tuple[float, float, float]]) -> None:
    """Time the yardstick every :data:`YARDSTICK_PERIOD_S` until
    cancelled, appending ``(loop time, wall_ms, cpu_ms)`` to ``yard``."""
    loop = asyncio.get_running_loop()
    while True:
        await asyncio.sleep(YARDSTICK_PERIOD_S)
        yard.append((loop.time(), *yardstick.timed()))


async def _stop(task: asyncio.Task) -> None:
    task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await task


async def _session(
    server: ServerProcess,
    warmup: list,
    timed: list,
    due: list[float] | None,
) -> dict:
    """Connect, warm up, and (when ``due`` is given) run the timed phase.

    The yardstick is timed throughout (:func:`_pace`): its wall times up
    to the end of the warm-up are returned as ``setup_yard``, and those
    from the last one before the timed phase to one after it as
    ``yardstick``."""
    host, port = server.address
    client = AsyncSchedulerClient(
        host, port, pool_size=CONNECTIONS, retry=RetryPolicy(attempts=1)
    )
    loop = asyncio.get_running_loop()
    yard = [(loop.time(), *yardstick.timed())]
    pacer = asyncio.create_task(_pace(yard))
    try:
        for _ in range(CONNECTIONS):  # open every pooled connection
            await client.health()
        warm = [Outcome(q) for q in warmup]
        for out in warm:
            await _submit(client, out)
        ready_s = time.perf_counter()
        setup_yard = [wall for _, wall, _ in yard]
        if due is None:
            return {"warm": warm, "ready_s": ready_s, "setup_yard": setup_yard}

        before = benchstats.parse_prometheus(await client.metrics_text())
        pids = server.members()
        cpu0 = procfs.cpu_seconds(pids)
        start = loop.time() + 0.01
        first = len(yard) - 1
        timed_out = [Outcome(q) for q in timed]
        tasks = []
        # the generator's own garbage-collection pauses would be charged to
        # the program as latency; its heap only grows for one phase
        gc.disable()
        try:
            for out, offset in zip(timed_out, due):
                out.due_s = start + offset
                delay = out.due_s - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.create_task(_submit(client, out)))
            await asyncio.gather(*tasks)
        finally:
            gc.enable()
        await _stop(pacer)
        yard.append((loop.time(), *yardstick.timed()))
        cpu1 = procfs.cpu_seconds(pids)
        rss = max(procfs.peak_rss_mb(pid) for pid in server.members())
        after = benchstats.parse_prometheus(await client.metrics_text())
        return {
            "warm": warm,
            "ready_s": ready_s,
            "setup_yard": setup_yard,
            "timed": timed_out,
            "phase_start": start,
            "yardstick": yard[first:],
            "cpu_s": sum(cpu1[p] - cpu0[p] for p in cpu1 if p in cpu0),
            "peak_rss_mb": rss,
            "metrics_before": before,
            "metrics_after": after,
        }
    finally:
        await _stop(pacer)
        await client.close()


def _set_up_and_run(
    root: Path, out_dir: Path, w: ServedWorkload, due: list[float],
    warmup: list, timed: list,
) -> tuple[list[float], dict]:
    """Spawn and warm up the server :data:`SETUP_REPEATS` times, running
    the timed phase on the last; returns ``(setup times at reference
    speed, session)``.  A set-up's speed is read off the yardstick timed
    before the spawn and the mean of those timed during the session's
    warm-up."""
    args = [*_deployment_args(w), *w.serve_args]
    setup_times: list[float] = []
    yard_before: list[float] = []
    yard_during: list[float] = []
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        log = out_dir / f"server-{os.getpid()}-{k}.log"
        yard_before.append(yardstick.timed()[0])
        start = time.perf_counter()
        server = ServerProcess(root, log, args)
        try:
            server.wait_ready()
            session = asyncio.run(
                _session(server, warmup, timed, due if last else None)
            )
        finally:
            server.stop()
        log.unlink()  # kept only when the server failed
        setup_times.append(session["ready_s"] - start)
        yard_during.append(benchstats.mean(session["setup_yard"]))
    return benchstats.at_reference_speed(
        setup_times, yard_before, yard_during, yardstick.REFERENCE_MS
    ), session


class _Replay:
    """Replays the served answers into a local service with the server's
    deployment and policy (the response time does not depend on where
    the solve runs, so it solves in-process).

    Traced, it captures each solve's probes and times the standalone
    problem and network construction of each replayed query: the core
    and maxflow layers of a served workload, measured in-process.
    """

    def __init__(self, w: ServedWorkload, traced: bool) -> None:
        args = build_parser().parse_args(
            ["serve", *_deployment_args(w), "--cache-size", str(CACHE_SIZE),
             "--solve-backend", "thread"]
        )
        self.service = _build_serve_service(args)
        self.traced = traced
        self.core = benchstats.CoreLayers()
        self.nested = True
        self.decision_ms = 0.0

    def mismatches(self, queries: list, records: list) -> list[int]:
        try:
            return benchstats.replay_mismatches(self._submit, queries, records)
        finally:
            self.service.close()

    def _submit(self, query, arrival_ms: float):
        if not self.traced:
            record = self.service.submit(query, arrival_ms=arrival_ms)
            self.decision_ms += record.decision_time_ms
            return record
        trace = ProbeTrace()
        with capture_probes(trace):
            record = self.service.submit(query, arrival_ms=arrival_ms)
        self.decision_ms += record.decision_time_ms
        t0 = time.perf_counter()
        problem = RetrievalProblem.from_query(
            self.service.system, self.service.placement, query
        )
        t1 = time.perf_counter()
        RetrievalNetwork(problem)
        t2 = time.perf_counter()
        self.nested &= self.core.add(
            trace, record.decision_time_ms, (t1 - t0) * 1000.0,
            (t2 - t1) * 1000.0,
        )
        return record


def run(
    name: str, root: Path, out_dir: Path, seed: int, seconds: float,
    traced: bool,
) -> dict:
    w = WORKLOADS[name]
    if traced:  # time at least as many requests as p99 needs
        seconds = max(seconds, STRATUM / w.rate_per_s)
    due = benchstats.poisson_schedule(
        w.rate_per_s, seconds, np.random.default_rng([seed, 4])
    )
    warmup, timed = _queries(w, seed, len(due))
    setup_times, session = _set_up_and_run(
        root, out_dir, w, due, warmup, timed
    )

    timed_out: list[Outcome] = session["timed"]
    outcomes: list[Outcome] = session["warm"] + timed_out
    answered = [o for o in outcomes if o.record is not None]
    queries = [o.query for o in answered]
    records = [o.record for o in answered]
    plain = _Replay(w, traced=False)
    wrong = set(plain.mismatches(queries, records))
    if traced:  # a second replay, traced, on a fresh service
        replay = _Replay(w, traced=True)
        wrong.update(replay.mismatches(queries, records))
    for i in wrong:
        answered[i].error = "response time differs from the replay"
    failed = sum(1 for o in outcomes if o.error is not None)
    ok = [o for o in timed_out if o.error is None]
    unscaled = [(o.done_s - o.due_s) * 1000.0 for o in timed_out]
    stamps, yard_wall, yard_cpu = map(list, zip(*session["yardstick"]))
    around = [
        benchstats.bracketing(stamps, o.due_s, o.done_s) for o in timed_out
    ]
    latencies = benchstats.at_reference_speed(
        unscaled, [yard_wall[i] for i, _ in around],
        [yard_wall[j] for _, j in around], yardstick.REFERENCE_MS,
    )
    # the phase's CPU is one total, so it is scaled by the whole phase's
    # yardstick
    cpu_scale = yardstick.REFERENCE_MS / benchstats.mean(yard_cpu)
    last_done = max(o.done_s for o in timed_out)
    result = {
        "attempted": len(outcomes),
        "failed": failed,
        "errors": sorted({o.error for o in outcomes if o.error})[:5],
        "metrics": {
            "setup_s": benchstats.median(setup_times),
            "latency_ms.p50": benchstats.median(latencies),
            "throughput_qps": len(ok) / (last_done - session["phase_start"]),
            "cpu_ms_per_query": (
                session["cpu_s"] * 1000.0 / max(1, len(ok)) * cpu_scale
            ),
            "peak_rss_mb": session["peak_rss_mb"],
            "failed_frac": failed / len(outcomes),
        },
        "unscaled": {
            "latency_ms.p50": benchstats.median(unscaled),
            "cpu_ms_per_query": session["cpu_s"] * 1000.0 / max(1, len(ok)),
            "yardstick_ms.p50": benchstats.median(yard_wall),
        },
    }
    if not traced:
        return result

    before, after = session["metrics_before"], session["metrics_after"]
    sum0, count0 = benchstats.histogram_sum_count(before, "repro_net_request_ms")
    sum1, count1 = benchstats.histogram_sum_count(after, "repro_net_request_ms")
    # the server records a request once its answer is built, so the first
    # metrics call is in the delta, not in the snapshot it returned (one
    # request among >= 1000)
    server_count = count1 - count0
    server_ms = (sum1 - sum0) / server_count
    observed_ms = benchstats.mean([(o.done_s - o.sent_s) * 1000.0 for o in ok])
    decision_ms = benchstats.mean([o.record.decision_time_ms for o in ok])
    lateness = [(o.sent_s - o.due_s) * 1000.0 for o in timed_out]
    edge_ms = server_ms - decision_ms
    client_ms = observed_ms - server_ms
    # edge and client are differences, so decision + edge + client is the
    # observed mean by construction; what can fail is that the parts were
    # measured over different requests or do not nest (a part below zero)
    result["split_ok"] = (
        replay.nested
        and server_count == len(timed_out) + 1
        and edge_ms >= 0
        and client_ms >= 0
    )

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    result["metrics"].update({
        **replay.core.metrics(),
        "latency_ms.p99": benchstats.percentile(latencies, 0.99),
        "service.decision_ms.mean": decision_ms,
        "net.server.request_ms.mean": server_ms,
        "service.edge_ms.mean": edge_ms,
        "net.client_ms.mean": client_ms,
        "service.cache.hit_ratio": benchstats.mean(
            [float(o.record.cache_hit) for o in ok]
        ),
        "net.shed_total": delta("repro_net_shed_total"),
        "net.errors_total": delta("repro_net_errors_total"),
        "loadgen.late_ms.p99": benchstats.percentile(lateness, 0.99),
        "split.e2e_ms.mean": observed_ms,
        "trace.overhead_frac": replay.decision_ms / plain.decision_ms - 1.0,
    })
    return result

