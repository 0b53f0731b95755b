"""Grid allocations: one copy of the data space mapped to disks.

An :class:`Allocation` is an ``N × N`` integer grid whose cell ``(i, j)``
names the disk storing bucket ``(i, j)`` (Figure 2 of the paper shows two
such grids side by side).  A :class:`ReplicatedAllocation` stacks ``c``
copies, giving each bucket its replica set.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import DeclusteringError

__all__ = ["Allocation", "ReplicatedAllocation"]


class Allocation:
    """A single-copy declustering of an ``n_rows × n_cols`` grid.

    Parameters
    ----------
    grid:
        2-D integer array-like; entry ``(i, j)`` is the disk of bucket
        ``(i, j)``.
    num_disks:
        Size of the disk pool this copy is declustered over.  Defaults to
        ``grid.max() + 1``.
    """

    __slots__ = ("grid", "num_disks")

    def __init__(self, grid, num_disks: int | None = None) -> None:
        arr = np.asarray(grid, dtype=np.int64)
        if arr.ndim != 2:
            raise DeclusteringError(f"allocation grid must be 2-D, got {arr.ndim}-D")
        if arr.size == 0:
            raise DeclusteringError("allocation grid must be non-empty")
        if arr.min() < 0:
            raise DeclusteringError("disk ids must be non-negative")
        if num_disks is None:
            num_disks = int(arr.max()) + 1
        if arr.max() >= num_disks:
            raise DeclusteringError(
                f"disk id {int(arr.max())} out of range for {num_disks} disks"
            )
        self.grid = arr
        self.num_disks = int(num_disks)

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.grid.shape[0]

    @property
    def n_cols(self) -> int:
        return self.grid.shape[1]

    def disk_of(self, i: int, j: int) -> int:
        """Disk storing bucket ``(i, j)`` — wraparound indices allowed."""
        return int(self.grid[i % self.n_rows, j % self.n_cols])

    def buckets_on(self, disk: int) -> list[tuple[int, int]]:
        """All buckets stored on ``disk``."""
        ii, jj = np.nonzero(self.grid == disk)
        return list(zip(ii.tolist(), jj.tolist()))

    def disk_counts(self) -> np.ndarray:
        """Bucket count per disk, shape ``(num_disks,)``."""
        return np.bincount(self.grid.ravel(), minlength=self.num_disks)

    def shifted(self, m: int) -> "Allocation":
        """The allocation ``(self + m) mod num_disks`` (dependent copy)."""
        return Allocation((self.grid + m) % self.num_disks, self.num_disks)

    def relabeled(self, offset: int, num_disks: int) -> "Allocation":
        """Shift every disk id by ``offset`` into a larger global pool.

        Used by multi-site composition: site 1 keeps ids ``0..N-1``, site 2
        gets ``N..2N-1``, etc.
        """
        if offset < 0 or offset + self.num_disks > num_disks:
            raise DeclusteringError(
                f"offset {offset} does not fit {self.num_disks} disks into "
                f"a pool of {num_disks}"
            )
        return Allocation(self.grid + offset, num_disks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Allocation)
            and self.num_disks == other.num_disks
            and bool(np.array_equal(self.grid, other.grid))
        )

    def __hash__(self):  # pragma: no cover - allocations are not dict keys
        return hash((self.grid.tobytes(), self.num_disks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Allocation({self.n_rows}x{self.n_cols} grid, "
            f"{self.num_disks} disks)"
        )


class ReplicatedAllocation:
    """``c`` stacked copies of the same grid, one :class:`Allocation` each.

    All copies must share grid dimensions; they may be declustered over
    the *same* disk pool (single-site replication) or over disjoint pools
    (multi-site, after :meth:`Allocation.relabeled`).
    """

    __slots__ = ("copies",)

    def __init__(self, copies: Sequence[Allocation]) -> None:
        if not copies:
            raise DeclusteringError("need at least one copy")
        shape = copies[0].grid.shape
        for k, c in enumerate(copies):
            if c.grid.shape != shape:
                raise DeclusteringError(
                    f"copy {k} has shape {c.grid.shape}, expected {shape}"
                )
        self.copies = list(copies)

    @property
    def num_copies(self) -> int:
        return len(self.copies)

    @property
    def n_rows(self) -> int:
        return self.copies[0].n_rows

    @property
    def n_cols(self) -> int:
        return self.copies[0].n_cols

    @property
    def num_disks(self) -> int:
        """Size of the global disk pool (max over copies)."""
        return max(c.num_disks for c in self.copies)

    def replicas_of_many(
        self, coords: Sequence[tuple[int, int]]
    ) -> list[tuple[int, ...]]:
        """Replica tuples of many buckets: one fancy index per copy.

        ``coords`` is a sequence of ``(i, j)`` pairs (wraparound indices
        allowed, as in :meth:`Allocation.disk_of`); element ``k`` of the
        result is the tuple of Python-``int`` disk ids holding bucket
        ``coords[k]``, one per copy (may repeat).  Coordinates must be
        integers that fit in int64: anything else raises
        :class:`DeclusteringError` rather than being truncated.
        """
        arr = np.asarray(coords)
        if arr.size == 0:
            return []
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DeclusteringError(
                f"bucket coordinates must be (i, j) pairs, got shape {arr.shape}"
            )
        if arr.dtype.kind not in "iu":
            raise DeclusteringError(
                f"bucket coordinates must be integers, got {arr.dtype} values"
            )
        rows = arr[:, 0] % self.n_rows
        cols = arr[:, 1] % self.n_cols
        return list(zip(*(c.grid[rows, cols].tolist() for c in self.copies)))

    def replicas_of(self, i: int, j: int) -> tuple[int, ...]:
        """Disk ids holding bucket ``(i, j)``, one per copy (may repeat)."""
        return self.replicas_of_many([(i, j)])[0]

    def iter_buckets(self) -> Iterator[tuple[tuple[int, int], tuple[int, ...]]]:
        """Yield ``((i, j), replicas)`` for every bucket."""
        coords = [(i, j) for i in range(self.n_rows) for j in range(self.n_cols)]
        return zip(coords, self.replicas_of_many(coords))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedAllocation({self.num_copies} copies of "
            f"{self.n_rows}x{self.n_cols}, pool={self.num_disks})"
        )
