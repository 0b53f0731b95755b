"""The queries every workload sends: load-3 arbitrary queries (§VI-C of
the paper), stratified by size."""

from __future__ import annotations

import numpy as np

import benchstats
from repro.workloads.loads import QUERY_LOADS
from repro.workloads.queries import sample_arbitrary_query_of_size

LOAD = 3
#: every workload measures one fixed deployment (hardware, delays, loads
#: and placement); the run's seed draws only the queries and arrivals
DEPLOYMENT_SEED = 0
#: the fewest queries a run times for a p99: the fewest samples with ten
#: beyond it
STRATUM = benchstats.min_samples_for(0.99)


class QueryStream:
    """Seeded load-3 arbitrary queries with pairwise distinct bucket sets.

    Each :meth:`take` batch is a stratified sample of load 3's size
    distribution (``k`` accesses with probability ``p_k``, then a size
    uniform in ``[(k-1)N+1, kN]``): the ``i``-th of ``count`` sizes is
    that distribution's quantile at ``(i + 1/2) / count``.  Load 3's rare
    large queries cost many times the median one, so with sizes drawn at
    random a run's figures depend on how many of them its seed happened
    to draw; stratified, every batch of a given count has the same sizes,
    and the seed picks the buckets and the order.
    """

    def __init__(self, seed: int, stream: int, n: int) -> None:
        self._rng = np.random.default_rng([seed, stream])
        self._n = n
        self._size_cdf = np.cumsum(
            np.repeat(QUERY_LOADS[LOAD].k_probabilities(n) / n, n)
        )
        self._seen: set[frozenset] = set()

    def take(self, count: int) -> list[list[tuple[int, int]]]:
        u = (np.arange(count) + 0.5) / count
        sizes = 1 + np.minimum(
            np.searchsorted(self._size_cdf, u), len(self._size_cdf) - 1
        )
        self._rng.shuffle(sizes)
        out = []
        for size in sizes.tolist():
            while True:
                query = sample_arbitrary_query_of_size(self._n, size, self._rng)
                key = frozenset(query.coords)
                if key not in self._seen:
                    self._seen.add(key)
                    out.append(list(query.coords))
                    break
        return out
