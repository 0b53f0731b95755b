"""Tests for Allocation / ReplicatedAllocation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decluster import Allocation, ReplicatedAllocation
from repro.errors import DeclusteringError


def simple() -> Allocation:
    return Allocation([[0, 1], [1, 0]], 2)


class TestAllocation:
    def test_infers_num_disks(self):
        a = Allocation([[0, 2], [1, 0]])
        assert a.num_disks == 3

    def test_rejects_non_2d(self):
        with pytest.raises(DeclusteringError, match="2-D"):
            Allocation([0, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(DeclusteringError):
            Allocation(np.empty((0, 0), dtype=int))

    def test_rejects_negative_ids(self):
        with pytest.raises(DeclusteringError, match="non-negative"):
            Allocation([[0, -1]])

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(DeclusteringError, match="out of range"):
            Allocation([[0, 5]], num_disks=2)

    def test_disk_of_wraps_around(self):
        a = simple()
        assert a.disk_of(0, 0) == 0
        assert a.disk_of(2, 2) == 0  # wraps to (0, 0)
        assert a.disk_of(-1, 0) == 1  # wraps to (1, 0)

    def test_buckets_on(self):
        a = simple()
        assert sorted(a.buckets_on(0)) == [(0, 0), (1, 1)]
        assert sorted(a.buckets_on(1)) == [(0, 1), (1, 0)]

    def test_disk_counts(self):
        a = Allocation([[0, 0], [1, 0]], 3)
        assert a.disk_counts().tolist() == [3, 1, 0]

    def test_shifted(self):
        a = simple()
        b = a.shifted(1)
        assert b.grid.tolist() == [[1, 0], [0, 1]]

    def test_relabeled(self):
        a = simple()
        b = a.relabeled(2, 4)
        assert b.grid.tolist() == [[2, 3], [3, 2]]
        assert b.num_disks == 4

    def test_relabeled_out_of_pool_rejected(self):
        with pytest.raises(DeclusteringError, match="does not fit"):
            simple().relabeled(3, 4)

    def test_equality(self):
        assert simple() == simple()
        assert simple() != simple().shifted(1)
        assert simple() != "not an allocation"

    def test_shape_properties(self):
        a = Allocation(np.zeros((3, 5), dtype=int), 4)
        assert (a.n_rows, a.n_cols) == (3, 5)


class TestReplicatedAllocation:
    def test_replicas_of(self):
        r = ReplicatedAllocation([simple(), simple().shifted(1)])
        assert r.replicas_of(0, 0) == (0, 1)
        assert r.replicas_of(1, 0) == (1, 0)

    def test_needs_at_least_one_copy(self):
        with pytest.raises(DeclusteringError):
            ReplicatedAllocation([])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DeclusteringError, match="shape"):
            ReplicatedAllocation(
                [simple(), Allocation(np.zeros((3, 3), dtype=int), 2)]
            )

    def test_num_disks_is_pool_max(self):
        r = ReplicatedAllocation([simple(), simple().relabeled(2, 4)])
        assert r.num_disks == 4

    def test_iter_buckets_covers_grid(self):
        r = ReplicatedAllocation([simple(), simple().shifted(1)])
        seen = dict(r.iter_buckets())
        assert len(seen) == 4
        assert seen[(0, 1)] == (1, 0)

    def test_copy_count_and_dims(self):
        r = ReplicatedAllocation([simple(), simple()])
        assert r.num_copies == 2
        assert (r.n_rows, r.n_cols) == (2, 2)


class TestReplicasOfMany:
    """The one bulk lookup behind ``replicas_of``, ``iter_buckets`` and
    ``RetrievalProblem.from_query``."""

    @staticmethod
    def allocation(seed: int = 0) -> ReplicatedAllocation:
        rng = np.random.default_rng(seed)
        copies = [
            Allocation(rng.integers(0, 7, size=(5, 3)), 7) for _ in range(3)
        ]
        return ReplicatedAllocation(copies)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_per_coordinate_disk_of_with_wraparound(self, seed):
        r = self.allocation(seed)
        rng = np.random.default_rng(100 + seed)
        coords = [
            (int(i), int(j)) for i, j in rng.integers(-12, 12, size=(40, 2))
        ]
        assert any(i < 0 or i >= r.n_rows for i, _ in coords)
        assert any(j < 0 or j >= r.n_cols for _, j in coords)
        want = [tuple(c.disk_of(i, j) for c in r.copies) for i, j in coords]
        assert r.replicas_of_many(coords) == want
        assert [r.replicas_of(i, j) for i, j in coords] == want

    def test_elements_are_python_ints(self):
        r = self.allocation()
        for reps in r.replicas_of_many([(0, 0), (4, 2), (-1, 7)]):
            assert type(reps) is tuple and len(reps) == 3
            assert {type(d) for d in reps} == {int}
        assert {type(d) for d in r.replicas_of(1, 1)} == {int}

    def test_numpy_integer_coordinates(self):
        r = self.allocation()
        coords = np.array([[1, 2], [3, 0]], dtype=np.int32)
        assert r.replicas_of_many(coords) == [
            r.replicas_of(1, 2), r.replicas_of(3, 0)
        ]

    @pytest.mark.parametrize(
        "coords", [[(0.5, 1)], [(1.0, 2)], [(3, 2.5)], [("1", 0)]]
    )
    def test_non_integral_coordinates_raise(self, coords):
        with pytest.raises(DeclusteringError, match="integers"):
            self.allocation().replicas_of_many(coords)

    @pytest.mark.parametrize("coords", [[(1, 2, 3)], [1, 2], [[(0, 0)]]])
    def test_coordinates_must_be_pairs(self, coords):
        with pytest.raises(DeclusteringError, match="pairs"):
            self.allocation().replicas_of_many(coords)

    def test_empty(self):
        assert self.allocation().replicas_of_many([]) == []

    def test_iter_buckets_is_row_major(self):
        r = self.allocation()
        got = list(r.iter_buckets())
        assert [c for c, _ in got] == [
            (i, j) for i in range(r.n_rows) for j in range(r.n_cols)
        ]
        assert [reps for _, reps in got] == [
            r.replicas_of(i, j) for (i, j), _ in got
        ]
