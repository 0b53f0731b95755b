"""Property-based tests for the storage model and simulator.

Invariants:

* the event-driven simulator always agrees with the analytic
  ``max_j (D_j + X_j + k_j C_j)`` model, for arbitrary assignments;
* ``capacity_at`` and ``finish_time`` are exact inverses at integral
  bucket counts, and ``capacity_at`` is monotone in the deadline;
* the batched rescale ``capacities_at`` is bit-identical to the per-disk
  ``capacity_at``, and a solve never reads loads older than its own start;
* online replay never time-travels: loads are non-negative, responses
  are no smaller than the best single-bucket finish time.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RetrievalProblem, brute_force_response_time, solve
from repro.storage import OnlineReplay, StorageSystem, simulate_schedule
from repro.storage.disk import DISK_CATALOG

SPEC_NAMES = sorted(DISK_CATALOG)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    specs = draw(st.lists(st.sampled_from(SPEC_NAMES), min_size=n, max_size=n))
    from repro.storage import Disk, Site

    split = draw(st.integers(0, n))
    d1 = draw(st.integers(0, 8))
    d2 = draw(st.integers(0, 8))
    disks = [Disk(j, DISK_CATALOG[specs[j]]) for j in range(n)]
    if split in (0, n):
        sites = [Site(0, float(d1), disks)]
    else:
        sites = [Site(0, float(d1), disks[:split]), Site(1, float(d2), disks[split:])]
    sys_ = StorageSystem(sites)
    loads = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    sys_.set_loads([float(x) for x in loads])
    return sys_


@settings(max_examples=40, deadline=None)
@given(systems(), st.lists(st.integers(0, 5), min_size=0, max_size=20))
def test_simulator_matches_analytic_model(system, picks):
    assignment = {
        f"b{i}": d % system.num_disks for i, d in enumerate(picks)
    }
    res = simulate_schedule(system, assignment)
    if not assignment:
        assert res.response_time_ms == 0.0
        return
    analytic = max(
        system.finish_time(d, k) for d, k in res.buckets_by_disk.items()
    )
    assert abs(res.response_time_ms - analytic) < 1e-9
    # per-disk event counts match the assignment
    for d, k in res.buckets_by_disk.items():
        assert k == sum(1 for v in assignment.values() if v == d)


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(1, 30))
def test_capacity_finish_inverse(system, k):
    for d in range(system.num_disks):
        t = system.finish_time(d, k)
        assert system.capacity_at(d, t) == k
        assert system.capacity_at(d, t - 1e-6) == k - 1


@settings(max_examples=40, deadline=None)
@given(systems(), st.floats(0, 500), st.floats(0, 100))
def test_capacity_monotone_in_deadline(system, t, dt):
    for d in range(system.num_disks):
        assert system.capacity_at(d, t + dt) >= system.capacity_at(d, t)


@settings(max_examples=40, deadline=None)
@given(
    systems(),
    st.lists(st.floats(-20, 600), min_size=1, max_size=8),
    st.integers(1, 25),
)
def test_batched_rescale_matches_capacity_at(system, deadlines, kmax):
    """Random deadlines, every exact ``finish_time(j, k)`` and its
    ``nextafter`` neighbours on both sides: one vectorized pass must
    give the per-disk answers bit for bit, as Python ints."""
    points = list(deadlines)
    for j in range(system.num_disks):
        for k in range(1, kmax + 1):
            t = system.finish_time(j, k)
            points += [
                t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)
            ]
    table = system.capacity_table()
    for t in points:
        expected = [system.capacity_at(j, t) for j in range(system.num_disks)]
        got = table.capacities_at(t)
        assert got == expected, t
        assert all(type(k) is int for k in got)
        assert system.capacities_at(t) == expected


@settings(max_examples=25, deadline=None)
@given(
    systems(),
    st.lists(st.integers(0, 9), min_size=6, max_size=6),
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3),
             min_size=1, max_size=7),
)
def test_loads_changed_between_solves_are_seen(system, new_loads, picks):
    """The capacity table lives for one solve: after ``set_loads`` a
    second solve of the *same* problem object must see the new loads, as
    the brute-force oracle (which reads the loads directly) does."""
    n = system.num_disks
    replicas = tuple(tuple(sorted({d % n for d in reps})) for reps in picks)
    problem = RetrievalProblem(system, replicas)
    assert solve(problem).response_time_ms == brute_force_response_time(problem)
    system.set_loads([float(x) for x in new_loads[:n]])
    table = system.capacity_table()
    for j in range(n):
        t = system.finish_time(j, 1)
        assert table.capacities_at(t) == [
            system.capacity_at(i, t) for i in range(n)
        ]
    assert solve(problem).response_time_ms == brute_force_response_time(problem)


@settings(max_examples=25, deadline=None)
@given(
    systems(),
    st.lists(
        st.tuples(st.floats(0, 50), st.integers(1, 6)), min_size=1, max_size=6
    ),
)
def test_replay_invariants(system, stream):
    def greedy(sys_, buckets):
        counts = [0] * sys_.num_disks
        out = {}
        for b in buckets:
            best = min(
                range(sys_.num_disks),
                key=lambda d: sys_.finish_time(d, counts[d] + 1),
            )
            counts[best] += 1
            out[b] = best
        return out

    replay = OnlineReplay(system, greedy)
    clock = 0.0
    for gap, n_buckets in stream:
        clock += gap
        rec = replay.submit(clock, [f"q{clock}:{i}" for i in range(n_buckets)])
        assert all(x >= 0 for x in rec.loads_before)
        # a response can never beat the cheapest single-bucket finish
        floor = min(
            system.finish_time(d, 1) for d in range(system.num_disks)
        )
        assert rec.response_time_ms >= floor - 1e-9
    assert len(replay.records) == len(stream)
