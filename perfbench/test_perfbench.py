"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import benchstats  # noqa: E402
import queries  # noqa: E402
from repro.decluster.multisite import make_placement  # noqa: E402
from repro.obs.export import to_prometheus  # noqa: E402
from repro.obs.registry import MetricsRegistry  # noqa: E402
from repro.service import SchedulerService, ServiceConfig  # noqa: E402
from repro.storage.system import StorageSystem  # noqa: E402
from repro.workloads.loads import sample_query  # noqa: E402


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert benchstats.min_samples_for(0.99) == 1000
        assert benchstats.min_samples_for(0.5) == 20
        values = list(range(1000, 0, -1))
        assert benchstats.percentile(values, 0.99) == 990
        with pytest.raises(benchstats.InsufficientSamples):
            benchstats.percentile(values[:999], 0.99)

    def test_median_has_no_tail_requirement_beyond_twenty(self):
        assert benchstats.percentile(list(range(1, 21)), 0.5) == 10
        with pytest.raises(benchstats.InsufficientSamples):
            benchstats.percentile(list(range(19)), 0.5)

    def test_rejects_q_outside_open_interval(self):
        with pytest.raises(ValueError):
            benchstats.percentile(list(range(2000)), 1.0)


class TestReferenceSpeed:
    def test_a_slow_host_phase_does_not_move_it(self):
        times = [10.0, 20.0, 10.0]
        yard = [2.0, 2.0, 2.0, 2.0]
        scaled = benchstats.at_reference_speed(times, yard[:-1], yard[1:], 2.0)
        assert scaled == times
        # the host twice as slow around the second query
        slow = benchstats.at_reference_speed(
            [10.0, 40.0, 10.0], [2.0, 4.0, 4.0], [4.0, 4.0, 2.0], 2.0
        )
        assert slow[1] == 20.0

    def test_a_slower_program_raises_it(self):
        yard = [2.1, 3.9, 2.5, 3.0]
        fast = benchstats.at_reference_speed([5.0, 6.0, 7.0], yard[:-1], yard[1:], 2.0)
        slow = benchstats.at_reference_speed([6.0, 7.2, 8.4], yard[:-1], yard[1:], 2.0)
        assert slow == pytest.approx([1.2 * v for v in fast])

    def test_needs_a_yardstick_on_both_sides_of_each_time(self):
        with pytest.raises(ValueError):
            benchstats.at_reference_speed([1.0, 2.0], [2.0, 2.0], [2.0], 2.0)

    def test_bracketing_stamps(self):
        stamps = [0.0, 0.25, 0.5, 0.75]
        assert benchstats.bracketing(stamps, 0.3, 0.31) == (1, 2)
        assert benchstats.bracketing(stamps, 0.25, 0.5) == (1, 2)
        # before the first and after the last stamp: clamped
        assert benchstats.bracketing(stamps, -1.0, 2.0) == (0, 3)


class TestPoissonSchedule:
    def test_exact_count_sorted_and_seeded(self):
        due = benchstats.poisson_schedule(40.0, 25.0, np.random.default_rng(3))
        assert len(due) == 1000
        assert due == sorted(due)
        assert 0.0 <= due[0] and due[-1] < 25.0
        again = benchstats.poisson_schedule(40.0, 25.0, np.random.default_rng(3))
        assert due == again


class TestPrometheusParsing:
    def test_histogram_sum_and_count_from_the_exporter(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_net_request_ms", "latency")
        for value in (0.25, 1.5, 3.0):
            hist.observe(value)
        registry.counter("repro_net_shed_total", "shed").inc(2)
        registry.gauge("depth", "d", labels={"disk": "3"}).set(7.0)
        samples = benchstats.parse_prometheus(to_prometheus(registry))
        assert benchstats.histogram_sum_count(
            samples, "repro_net_request_ms"
        ) == (4.75, 3)
        assert samples["repro_net_shed_total"] == 2.0
        assert samples['depth{disk="3"}'] == 7.0

    def test_samples_repeated_across_registries_are_summed(self):
        text = "# TYPE x counter\nx 2\nx 3.5\n"
        assert benchstats.parse_prometheus(text) == {"x": 5.5}

    def test_missing_histogram_and_malformed_line(self):
        with pytest.raises(KeyError):
            benchstats.histogram_sum_count({"x": 1.0}, "repro_net_request_ms")
        with pytest.raises(ValueError):
            benchstats.parse_prometheus("lonely\n")


def _service() -> SchedulerService:
    rng = np.random.default_rng(5)
    placement = make_placement("rda", 8, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], 8, delays_ms=[1.0, 4.0], rng=rng
    )
    return SchedulerService(system, placement, config=ServiceConfig())


class TestReplayCheck:
    @pytest.fixture()
    def served(self):
        rng = np.random.default_rng(9)
        queries = [sample_query(3, "arbitrary", 8, rng).buckets() for _ in range(12)]
        server = _service()
        records = [
            server.submit(q, arrival_ms=2.0 * k) for k, q in enumerate(queries)
        ]
        return queries, records

    def _replay(self, queries, records):
        local = _service()
        return benchstats.replay_mismatches(
            lambda q, t: local.submit(q, arrival_ms=t), queries, records
        )

    def test_faithful_records_pass(self, served):
        queries, records = served
        assert self._replay(queries, records) == []

    def test_out_of_order_records_are_replayed_by_arrival(self, served):
        queries, records = served
        order = list(reversed(range(len(records))))
        assert self._replay(
            [queries[i] for i in order], [records[i] for i in order]
        ) == []

    def test_corrupted_response_time_is_rejected(self, served):
        queries, records = served
        bad = dataclasses.replace(
            records[5],
            response_time_ms=np.nextafter(records[5].response_time_ms, np.inf),
        )
        assert self._replay(
            queries, records[:5] + [bad] + records[6:]
        ) == [5]

    def test_answer_to_another_query_is_rejected(self, served):
        queries, records = served
        swapped = list(queries)
        swapped[7] = swapped[7][:-1]
        assert 7 in self._replay(swapped, records)


class TestCoreLayers:
    def test_split_sums_to_the_solve_and_counts_match_solver_stats(self):
        from repro.core.api import solve
        from repro.core.problem import RetrievalProblem

        service = _service()
        layers = benchstats.CoreLayers()
        stats = []
        for coords in queries.QueryStream(4, 1, 8).take(6):
            problem = RetrievalProblem.from_query(
                service.system, service.placement, coords
            )
            schedule = solve(problem, trace=True)
            solve_ms = schedule.stats.wall_time_s * 1000.0
            assert layers.add(schedule.stats.extra["trace"], solve_ms, 0.1, 0.2)
            stats.append(schedule.stats)
        m = layers.metrics()
        probes = sum(
            m[f"maxflow.probe_ms.{phase}"]
            for phase in ("anchor", "binary", "increment")
        )
        assert probes + m["core.scaling.nonprobe_ms.mean"] == pytest.approx(
            m["core.solve_ms.mean"]
        )
        for name, field in (
            ("core.probes_per_query", "probes"),
            ("core.increments_per_query", "increments"),
            ("maxflow.pushes_per_query", "pushes"),
            ("maxflow.relabels_per_query", "relabels"),
        ):
            assert m[name] == pytest.approx(
                sum(getattr(s, field) for s in stats) / len(stats)
            )


class TestQueryStream:
    def test_batches_share_sizes_across_seeds_but_not_buckets(self):
        a = queries.QueryStream(1, 1, 16).take(64)
        b = queries.QueryStream(2, 1, 16).take(64)
        assert sorted(map(len, a)) == sorted(map(len, b))
        assert a != b
        assert queries.QueryStream(1, 1, 16).take(64) == a

    def test_signatures_are_fresh_across_batches(self):
        stream = queries.QueryStream(3, 1, 8)
        seen = [frozenset(q) for _ in range(3) for q in stream.take(40)]
        assert len(set(seen)) == len(seen)

    def test_sizes_follow_load_three(self):
        sizes = sorted(map(len, queries.QueryStream(1, 1, 48).take(1000)))
        # half the load-3 mass needs one access (at most N buckets), and
        # the expected size is about 3N/2
        assert sizes[499] <= 48 < sizes[500]
        assert 0.9 * 72 < sum(sizes) / 1000 < 1.1 * 72
