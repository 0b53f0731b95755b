"""Tests for RetrievalProblem (Table I model + bounds)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RetrievalProblem
from repro.decluster import make_placement
from repro.errors import InfeasibleScheduleError
from repro.storage import StorageSystem


def hom(n=4, spec="cheetah"):
    return StorageSystem.homogeneous(n, spec)


class TestValidation:
    def test_empty_query_rejected(self):
        with pytest.raises(InfeasibleScheduleError, match="no buckets"):
            RetrievalProblem(hom(), ())

    def test_bucket_without_replicas_rejected(self):
        with pytest.raises(InfeasibleScheduleError, match="no replicas"):
            RetrievalProblem(hom(), ((0,), ()))

    def test_unknown_disk_rejected(self):
        with pytest.raises(InfeasibleScheduleError, match="unknown disk"):
            RetrievalProblem(hom(4), ((0, 9),))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(InfeasibleScheduleError, match="labels"):
            RetrievalProblem(hom(), ((0, 1), (2, 3)), labels=("a",))

    def test_duplicate_replicas_allowed(self):
        p = RetrievalProblem(hom(4), ((2, 2),))
        assert p.num_copies == 1


class TestProperties:
    def test_counts(self):
        p = RetrievalProblem(hom(4), ((0, 1), (1, 2), (0, 3)))
        assert p.num_buckets == 3
        assert p.num_disks == 4
        assert p.num_copies == 2

    def test_is_basic_true_for_homogeneous_idle(self):
        assert RetrievalProblem(hom(), ((0, 1),)).is_basic

    def test_is_basic_false_with_loads(self):
        sys_ = hom()
        sys_.set_loads([1, 0, 0, 0])
        assert not RetrievalProblem(sys_, ((0, 1),)).is_basic

    def test_is_basic_false_with_delays(self):
        sys_ = StorageSystem.homogeneous(4, "cheetah", num_sites=2, delay_ms=[0, 5])
        assert not RetrievalProblem(sys_, ((0, 1),)).is_basic

    def test_is_basic_false_heterogeneous(self):
        sys_ = StorageSystem.from_groups(
            ["cheetah", "vertex"], 2, rng=np.random.default_rng(0)
        )
        assert not RetrievalProblem(sys_, ((0, 1),)).is_basic

    def test_replica_disks_and_in_degree(self):
        p = RetrievalProblem(hom(4), ((0, 1), (1, 2), (1, 3)))
        assert p.replica_disks() == {0, 1, 2, 3}
        assert p.in_degree(1) == 3
        assert p.in_degree(0) == 1
        assert p.in_degree(3) == 1

    def test_labels(self):
        p = RetrievalProblem(hom(), ((0, 1),), labels=((5, 7),))
        assert p.label_of(0) == (5, 7)
        q = RetrievalProblem(hom(), ((0, 1),))
        assert q.label_of(0) == 0


class TestBounds:
    def test_max_deadline_is_worst_single_disk(self):
        sys_ = hom(4, "cheetah")  # C = 6.1
        p = RetrievalProblem(sys_, ((0, 1),) * 8)
        assert p.theoretical_max_deadline() == pytest.approx(8 * 6.1)

    def test_min_deadline_below_any_feasible_time(self):
        sys_ = hom(4, "cheetah")
        p = RetrievalProblem(sys_, ((0, 1),) * 8)
        # ceil(8/4) = 2 buckets on the best disk, minus one block time
        assert p.theoretical_min_deadline() == pytest.approx(2 * 6.1 - 6.1)

    def test_min_speed(self):
        sys_ = StorageSystem.from_groups(
            ["cheetah", "x25e"], 2, rng=np.random.default_rng(0)
        )
        p = RetrievalProblem(sys_, ((0, 2),))
        assert p.min_speed() == pytest.approx(0.2)

    def test_bounds_bracket_optimum(self):
        from repro.core import brute_force_response_time

        rng = np.random.default_rng(1)
        sys_ = StorageSystem.from_groups(
            ["ssd+hdd", "ssd+hdd"], 3, delays_ms=[2, 1], rng=rng
        )
        sys_.set_loads(rng.integers(0, 4, size=6).astype(float))
        reps = tuple(
            tuple(sorted(rng.choice(6, size=2, replace=False).tolist()))
            for _ in range(6)
        )
        p = RetrievalProblem(sys_, reps)
        opt = brute_force_response_time(p)
        assert p.theoretical_min_deadline() < opt + 1e-9
        assert opt <= p.theoretical_max_deadline() + 1e-9


class TestFromQuery:
    def test_replicas_follow_placement(self):
        placement = make_placement("dependent", 5, num_sites=2, seed=0)
        sys_ = StorageSystem.homogeneous(10, "cheetah", num_sites=2)
        coords = [(0, 0), (0, 1), (1, 0)]
        p = RetrievalProblem.from_query(sys_, placement, coords)
        assert p.num_buckets == 3
        for (i, j), reps in zip(coords, p.replicas):
            assert reps == placement.allocation.replicas_of(i, j)
        assert p.labels == tuple(coords)

    def test_disk_count_mismatch_rejected(self):
        placement = make_placement("dependent", 5, num_sites=2, seed=0)
        sys_ = StorageSystem.homogeneous(5, "cheetah")
        with pytest.raises(InfeasibleScheduleError, match="disks"):
            RetrievalProblem.from_query(sys_, placement, [(0, 0)])

    @staticmethod
    def deployment():
        placement = make_placement("rda", 7, num_sites=2, seed=3)
        return StorageSystem.homogeneous(14, "cheetah", num_sites=2), placement

    def test_empty_query_rejected(self):
        sys_, placement = self.deployment()
        with pytest.raises(InfeasibleScheduleError, match="no buckets"):
            RetrievalProblem.from_query(sys_, placement, [])

    def test_bulk_lookup_matches_per_bucket_reads(self):
        sys_, placement = self.deployment()
        alloc = placement.allocation
        coords = [(0, 0), (6, 6), (-1, 3), (9, -8), (2, 5)]
        p = RetrievalProblem.from_query(sys_, placement, coords)
        assert p.replicas == tuple(
            tuple(c.disk_of(i, j) for c in alloc.copies) for i, j in coords
        )
        assert {type(d) for reps in p.replicas for d in reps} == {int}

    def test_labels_are_the_coordinates_as_given(self):
        sys_, placement = self.deployment()
        coords = [[1, 2], (3, 4)]
        p = RetrievalProblem.from_query(sys_, placement, coords)
        assert p.labels == ([1, 2], (3, 4))
