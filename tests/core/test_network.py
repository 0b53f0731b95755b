"""Tests for the retrieval flow-network construction (Figures 3/4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import invariants
from repro.core import RetrievalProblem, RetrievalNetwork, solve
from repro.decluster.multisite import make_placement
from repro.errors import InfeasibleScheduleError
from repro.graph import FlowNetwork
from repro.maxflow import push_relabel
from repro.storage import StorageSystem
from repro.workloads.experiments import build_system
from repro.workloads.queries import sample_arbitrary_query_of_size


def problem(n_disks=4, reps=((0, 1), (1, 2), (2, 3))):
    return RetrievalProblem(StorageSystem.homogeneous(n_disks, "cheetah"), reps)


class TestConstruction:
    def test_vertex_layout(self):
        net = RetrievalNetwork(problem())
        assert net.source == 0 and net.sink == 1
        assert net.bucket_vertex(0) == 2
        assert net.disk_vertex(0) == 2 + 3
        assert net.graph.n == 2 + 3 + 4

    def test_arc_counts(self):
        net = RetrievalNetwork(problem())
        # 3 source arcs + 6 replica arcs + 4 sink arcs
        assert net.graph.num_arcs == 3 + 6 + 4

    def test_duplicate_replicas_deduped(self):
        net = RetrievalNetwork(problem(reps=((1, 1),)))
        assert len(net.replica_arcs[0]) == 1
        assert net.disk_in_degree == [0, 1, 0, 0]

    def test_in_degree_matches_problem(self):
        p = problem(reps=((0, 1), (1, 2), (1, 3)))
        net = RetrievalNetwork(p)
        assert net.disk_in_degree == [p.in_degree(j) for j in range(4)]

    def test_in_degree_list_is_computed_once(self):
        net = RetrievalNetwork(problem())
        assert net.disk_in_degree is net.disk_in_degree

    def test_rebind_keeps_the_in_degree_list(self):
        p1, p2 = problem(), problem()
        net = RetrievalNetwork(p1)
        degrees = net.disk_in_degree
        net.rebind(p2)
        assert net.disk_in_degree is degrees

    def test_source_arcs_capacity_one(self):
        net = RetrievalNetwork(problem())
        for a in net.source_arcs:
            assert net.graph.cap[a] == 1.0

    def test_sink_caps_start_zero(self):
        net = RetrievalNetwork(problem())
        assert net.sink_caps() == [0, 0, 0, 0]


class TestCapacities:
    def test_uniform_caps(self):
        net = RetrievalNetwork(problem())
        net.set_uniform_sink_caps(2)
        assert net.sink_caps() == [2, 2, 2, 2]

    def test_increment_all(self):
        net = RetrievalNetwork(problem())
        net.set_uniform_sink_caps(1)
        net.increment_all_sink_caps()
        assert net.sink_caps() == [2, 2, 2, 2]

    def test_deadline_capacities(self):
        """floor((t - D - X) / C) per disk, clamped at zero."""
        sys_ = StorageSystem.homogeneous(2, "cheetah", num_sites=2, delay_ms=[0, 10])
        sys_.set_loads([1.0, 0.0])
        net = RetrievalNetwork(RetrievalProblem(sys_, ((0, 1),)))
        net.set_deadline_capacities(13.2)
        # disk 0: (13.2 - 0 - 1) / 6.1 -> 2 ; disk 1: (13.2 - 10)/6.1 -> 0
        assert net.sink_caps() == [2, 0]

    def test_deadline_capacities_exact_boundary(self):
        sys_ = StorageSystem.homogeneous(1, "cheetah")
        net = RetrievalNetwork(RetrievalProblem(sys_, ((0,),)))
        net.set_deadline_capacities(6.1)  # exactly one block time
        assert net.sink_caps() == [1]


class TestFlowInspection:
    def solved(self):
        net = RetrievalNetwork(problem())
        net.set_uniform_sink_caps(1)
        push_relabel(net.graph, net.source, net.sink)
        return net

    def test_flow_value(self):
        net = self.solved()
        assert net.flow_value() == pytest.approx(3)

    def test_counts_per_disk_sum_to_flow(self):
        net = self.solved()
        assert sum(net.counts_per_disk()) == 3

    def test_assignment_respects_replicas(self):
        net = self.solved()
        for i, d in net.assignment().items():
            assert d in net.problem.replicas[i]

    def test_assignment_incomplete_flow_raises(self):
        net = RetrievalNetwork(problem())  # caps 0 -> no flow
        with pytest.raises(InfeasibleScheduleError, match="unrouted"):
            net.assignment()

    def test_response_time_of_complete_flow(self):
        net = self.solved()
        counts = net.counts_per_disk()
        expect = max(
            net.problem.system.finish_time(j, k)
            for j, k in enumerate(counts)
            if k > 0
        )
        assert net.response_time() == pytest.approx(expect)


class TestInDegreeOncePerTopology:
    """Algorithm 3 reads every disk's in-degree on each increment step;
    at N=100 per site recomputing the list per read was half a cold
    solve.  The topology is fixed after construction, so each disk's
    in-degree is read from the graph exactly once."""

    @staticmethod
    def large_problem():
        rng = np.random.default_rng(7)
        system = build_system(5, 50, rng)
        placement = make_placement("rda", 50, num_sites=2, rng=rng)
        query = sample_arbitrary_query_of_size(50, 120, rng)
        return RetrievalProblem.from_query(system, placement, query.coords)

    @pytest.fixture
    def in_degree_calls(self, monkeypatch):
        # an armed sanitizer re-reads the graph on purpose; count the
        # production path only
        monkeypatch.setattr(invariants, "ENABLED", False)
        calls: list[int] = []
        original = FlowNetwork.in_degree

        def counting(graph, v):
            calls.append(v)
            return original(graph, v)

        monkeypatch.setattr(FlowNetwork, "in_degree", counting)
        return calls

    def test_a_solve_reads_each_disk_once(self, in_degree_calls):
        p = self.large_problem()
        assert p.num_disks >= 100
        schedule = solve(p, solver="pr-binary")
        assert schedule.stats.increments >= 1  # Algorithm 3 ran
        assert len(in_degree_calls) == p.num_disks

    def test_every_read_happens_during_construction(self, in_degree_calls):
        p = self.large_problem()
        net = RetrievalNetwork(p)
        assert sorted(in_degree_calls) == [
            net.disk_vertex(j) for j in range(p.num_disks)
        ]
        in_degree_calls.clear()
        solve(p, solver="pr-binary", network=net)
        solve(p, solver="ff-binary", network=net)
        assert in_degree_calls == []


def reference_network(p: RetrievalProblem):
    """The retrieval network built one ``add_arc`` call at a time, in
    the documented arc order; returns the graph and its arc-id tables."""
    Q, N = p.num_buckets, p.num_disks
    g = FlowNetwork(2 + Q + N)
    source_arcs, replica_arcs = [], []
    for i, reps in enumerate(p.replicas):
        source_arcs.append(g.add_arc(0, 2 + i, 1))
        replica_arcs.append(
            [g.add_arc(2 + i, 2 + Q + d, 1) for d in sorted(set(reps))]
        )
    sink_arcs = [g.add_arc(2 + Q + j, 1, 0) for j in range(N)]
    in_degree = [g.in_degree(2 + Q + j) for j in range(N)]
    return g, source_arcs, replica_arcs, sink_arcs, in_degree


def with_repeats(p: RetrievalProblem) -> RetrievalProblem:
    """The same buckets with every replica tuple reversed and its first
    disk repeated, so deduplication and ordering both matter."""
    reps = tuple(tuple(reversed(r)) + r[:1] for r in p.replicas)
    return RetrievalProblem(p.system, reps)


class TestBulkConstructionMatchesAddArc:
    """The bulk-built network is slot-for-slot the ``add_arc`` one, so
    every engine counter, cache snapshot and fleet payload is unchanged."""

    @staticmethod
    def assert_matches_reference(p: RetrievalProblem) -> None:
        from tests.graph.test_from_arcs import assert_same_layout

        net = RetrievalNetwork(p)
        g, source_arcs, replica_arcs, sink_arcs, in_degree = reference_network(p)
        assert_same_layout(net.graph, g)
        assert net.source_arcs == source_arcs
        assert net.replica_arcs == replica_arcs
        assert net.sink_arcs == sink_arcs
        assert net.disk_in_degree == in_degree
        assert net.graph.cap[net._sink_cap_slice] == [0] * p.num_disks

    def test_fuzz_instances(self):
        from tests.property.test_differential_fuzz import (
            N_INSTANCES,
            random_generalized,
        )

        for seed in range(N_INSTANCES):
            p = random_generalized(np.random.default_rng(seed))
            self.assert_matches_reference(p)
            self.assert_matches_reference(with_repeats(p))

    @pytest.mark.parametrize("seed", range(3))
    def test_n100_per_site_instances(self, seed):
        from tests.property.test_differential_fuzz import random_large

        p = random_large(seed)
        assert p.num_disks == 200
        self.assert_matches_reference(p)
        self.assert_matches_reference(with_repeats(p))

    def test_repeated_disk_keeps_one_arc(self):
        p = problem(reps=((2, 0, 2), (1,), (3, 3, 3)))
        self.assert_matches_reference(p)
        assert RetrievalNetwork(p).disk_in_degree == [1, 1, 1, 1]
