"""Pure helpers of the benchmark: percentiles, arrival schedules, metric
parsing, the replay check and the per-layer aggregation of probe traces.
Nothing here starts a process or reads a clock, so the unit tests in
``test_perfbench.py`` exercise it directly.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Callable, Sequence

import numpy as np

#: a tail percentile is reported only when at least this many samples lie
#: strictly beyond it (p99 therefore needs >= 1000 samples)
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples to support the requested percentile."""


def min_samples_for(q: float) -> int:
    """The smallest sample count whose ``q`` percentile has
    :data:`MIN_BEYOND` samples strictly beyond it."""
    n = MIN_BEYOND
    while n - math.ceil(q * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile (``0 < q < 1``) of ``values``.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_BEYOND` samples lie beyond the returned rank, so a p99 is
    never read off a handful of outliers.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(values)
    rank = math.ceil(q * n)  # 1-based nearest rank
    if n == 0 or n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{100 * q:g} needs {min_samples_for(q)} samples, got {n}"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def at_reference_speed(
    times: Sequence[float],
    before: Sequence[float],
    after: Sequence[float],
    reference: float,
) -> list[float]:
    """``times`` scaled to the host speed at which the yardstick takes
    ``reference``.

    ``before[i]`` and ``after[i]`` are the yardstick's times measured
    just before and just after ``times[i]``; the host's speed during
    ``times[i]`` is read off their mean.
    """
    if not len(times) == len(before) == len(after):
        raise ValueError(
            f"{len(before)}/{len(after)} yardstick times for {len(times)} times"
        )
    return [
        t * 2.0 * reference / (b + a) for t, b, a in zip(times, before, after)
    ]


def bracketing(
    stamps: Sequence[float], start: float, end: float
) -> tuple[int, int]:
    """Indices into ascending ``stamps`` of the last at or before
    ``start`` and the first at or after ``end`` (clamped to the ends)."""
    if not stamps:
        raise ValueError("no stamps")
    i = bisect.bisect_right(stamps, start) - 1
    j = bisect.bisect_left(stamps, end)
    return max(i, 0), min(j, len(stamps) - 1)


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def poisson_schedule(
    rate_per_s: float, seconds: float, rng: np.random.Generator
) -> list[float]:
    """Due times (s, ascending) of a Poisson arrival process of
    ``rate_per_s`` over ``[0, seconds)``, conditioned on exactly
    ``round(rate_per_s * seconds)`` arrivals.

    Given its count, a Poisson process's arrival times are independent
    uniforms; fixing the count keeps the number of timed requests, and so
    which percentiles the run supports, the same on every seed.
    """
    count = int(round(rate_per_s * seconds))
    if count < 1:
        raise ValueError(f"rate {rate_per_s}/s over {seconds}s gives no arrivals")
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=count))


def parse_prometheus(text: str) -> dict[str, float]:
    """Sample name (with its label set, if any) -> value.

    Samples of the same name and labels from several registries in one
    exposition are summed.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError(f"malformed sample line: {line!r}")
        samples[name] = samples.get(name, 0.0) + float(value)
    return samples


def histogram_sum_count(
    samples: dict[str, float], name: str
) -> tuple[float, int]:
    """``(<name>_sum, <name>_count)`` of an unlabelled histogram."""
    try:
        return samples[f"{name}_sum"], int(samples[f"{name}_count"])
    except KeyError:
        raise KeyError(f"histogram {name!r} not in the exposition") from None


def replay_mismatches(
    submit: Callable[[object, float], object],
    queries: Sequence,
    records: Sequence,
) -> list[int]:
    """Replay served records and list the wrong ones.

    ``records[i]`` is the server's answer to ``queries[i]`` (the query
    the client sent, not the server's echo of it).  ``submit(query,
    arrival_ms)`` schedules one query on a fresh
    :class:`~repro.service.SchedulerService` built from the same
    deployment and policy as the server.  Queries are replayed in
    ``arrival_ms`` order at their recorded arrival times, so the disk
    busy horizons evolve exactly as on the server; a record is wrong when
    its ``response_time_ms`` differs (exact ``!=``) from the replayed one
    or it answers a different number of buckets.  Returns the indices of
    the wrong records, ascending.
    """
    if len(queries) != len(records):
        raise ValueError(f"{len(queries)} queries for {len(records)} records")
    order = sorted(range(len(records)), key=lambda i: records[i].arrival_ms)
    bad = []
    for i in order:
        rec = records[i]
        replayed = submit(queries[i], rec.arrival_ms)
        if (
            replayed.response_time_ms != rec.response_time_ms
            or replayed.num_buckets != rec.num_buckets
        ):
            bad.append(i)
    return sorted(bad)


class CoreLayers:
    """Per-query figures of traced solves (``core`` and ``maxflow``
    layers), reported as their means."""

    def __init__(self) -> None:
        self.rows: dict[str, list[float]] = {}

    def add(
        self, trace, solve_ms: float, from_query_ms: float, build_ms: float
    ) -> bool:
        """Record one solve's ``ProbeTrace`` and timings; returns whether
        its probe time fits inside its solve time."""
        probe_ms = {
            phase: sum(e.wall_s for e in trace.probes(phase)) * 1000.0
            for phase in ("anchor", "binary", "increment")
        }
        totals = trace.totals()
        nonprobe = solve_ms - sum(probe_ms.values())
        for key, value in (
            ("from_query", from_query_ms), ("build", build_ms),
            ("solve", solve_ms), ("nonprobe", nonprobe),
            ("probes", totals["probes"]),
            ("increments", len(trace.probes("increment")) - 1),
            ("pushes", totals["pushes"]), ("relabels", totals["relabels"]),
            *probe_ms.items(),
        ):
            self.rows.setdefault(key, []).append(value)
        return nonprobe >= 0.0

    def metrics(self) -> dict[str, float]:
        means = {k: mean(v) for k, v in self.rows.items()}
        return {
            "core.problem.from_query_ms.mean": means["from_query"],
            "core.network.build_ms.mean": means["build"],
            "core.solve_ms.mean": means["solve"],
            "maxflow.probe_ms.anchor": means["anchor"],
            "maxflow.probe_ms.binary": means["binary"],
            "maxflow.probe_ms.increment": means["increment"],
            "core.scaling.nonprobe_ms.mean": means["nonprobe"],
            "core.probes_per_query": means["probes"],
            "core.increments_per_query": means["increments"],
            "maxflow.pushes_per_query": means["pushes"],
            "maxflow.relabels_per_query": means["relabels"],
        }
