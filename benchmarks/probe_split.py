"""Where a cold ``pr-binary`` solve spends its time, at N=100 per site.

First times the two construction steps every query pays before its
first probe: ``RetrievalProblem.from_query`` (the replica lookup) and
the ``RetrievalNetwork`` build.  Then splits the engine's per-probe work
into its two passes:

* ``initialize`` — the fixed cost every probe pays: source-arc
  saturation plus, on the first probe of a solve (or after a reset), the
  excess recount and the global relabel, and on every later probe the
  label repair that replaces them (both timed on their own as well);
* ``run`` — the discharge, the only part that scales with the new work.

Then solves the same batch with ``pr-binary`` and ``blackbox-binary`` and
prints the integrated vs black-box time and push ratios, the paper's
headline comparison (up to 2.5x).  Queries are Experiment 5, load 3,
arbitrary, on an ``rda`` placement (two sites, ``2N`` disks)::

    PYTHONPATH=src python benchmarks/probe_split.py --n 100 --queries 40

Exits 1 when any ``pr-binary`` response time differs from
``blackbox-binary``'s on the same query.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core import RetrievalNetwork, RetrievalProblem, solve
from repro.decluster.multisite import make_placement
from repro.maxflow.push_relabel import PushRelabelState
from repro.workloads.experiments import build_system
from repro.workloads.loads import sample_query


def make_batch(n: int, count: int, seed: int):
    """The deployment and ``count`` queries' bucket coordinates."""
    rng = np.random.default_rng(seed)
    system = build_system(5, n, rng)
    placement = make_placement("rda", n, num_sites=2, rng=rng)
    queries = [
        sample_query(3, "arbitrary", n, rng).buckets() for _ in range(count)
    ]
    return system, placement, queries


def construction_split(system, placement, queries, repeats: int = 3):
    """Best-of-``repeats`` ms per query of ``from_query`` and of the
    network build, and the problems built."""
    best = {"from_query": float("inf"), "build": float("inf")}
    for _ in range(repeats):
        start = time.perf_counter()
        problems = [
            RetrievalProblem.from_query(system, placement, coords)
            for coords in queries
        ]
        built = time.perf_counter()
        for p in problems:
            RetrievalNetwork(p)
        done = time.perf_counter()
        best["from_query"] = min(best["from_query"], built - start)
        best["build"] = min(best["build"], done - built)
    per_query = {k: v * 1000.0 / len(queries) for k, v in best.items()}
    return per_query, problems


def engine_split(problems: list[RetrievalProblem]) -> dict[str, float]:
    """Seconds spent in each engine pass, and the probe count, over one
    ``pr-binary`` solve per problem."""
    spent = {
        "initialize": 0.0, "_repair_labels": 0.0, "_global_relabel": 0.0,
        "run": 0.0,
    }
    originals = {name: getattr(PushRelabelState, name) for name in spent}

    def timed(name):
        method = originals[name]

        def wrapper(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                return method(self, *args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start

        return wrapper

    try:
        for name in spent:
            setattr(PushRelabelState, name, timed(name))
        probes = sum(solve(p, solver="pr-binary").stats.probes for p in problems)
    finally:
        for name, method in originals.items():
            setattr(PushRelabelState, name, method)
    return {**spent, "probes": probes}


def best_ms_per_query(problems, solver: str, repeats: int = 3):
    """Best-of-``repeats`` ms per query, total pushes of one pass, and
    the response times."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        schedules = [solve(p, solver=solver) for p in problems]
        best = min(best, time.perf_counter() - start)
    pushes = sum(s.stats.pushes for s in schedules)
    times = [s.response_time_ms for s in schedules]
    return best * 1000.0 / len(problems), pushes, times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=100, help="disks per site")
    parser.add_argument("--queries", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    system, placement, queries = make_batch(args.n, args.queries, args.seed)
    built, problems = construction_split(system, placement, queries)
    q = len(problems)
    mean_q = sum(p.num_buckets for p in problems) / q
    print(f"N={args.n} per site, {q} queries, mean |Q| = {mean_q:.0f}")
    print(
        f"construction per query: from_query {built['from_query']:.3f} ms, "
        f"RetrievalNetwork {built['build']:.3f} ms"
    )

    split = engine_split(problems)
    init_ms = split["initialize"] * 1000.0 / q
    repair_ms = split["_repair_labels"] * 1000.0 / q
    relabel_ms = split["_global_relabel"] * 1000.0 / q
    run_ms = split["run"] * 1000.0 / q
    print(
        f"pr-binary per query: {split['probes'] / q:.2f} probes, "
        f"initialize {init_ms:.3f} ms (label repair {repair_ms:.3f}, "
        f"global relabel {relabel_ms:.3f}), run {run_ms:.3f} ms, "
        f"fixed/discharge {init_ms / run_ms:.2f}x"
    )

    int_ms, int_pushes, int_times = best_ms_per_query(problems, "pr-binary")
    bb_ms, bb_pushes, bb_times = best_ms_per_query(problems, "blackbox-binary")
    print(f"pr-binary       {int_ms:8.3f} ms/query  {int_pushes / q:8.0f} pushes/query")
    print(f"blackbox-binary {bb_ms:8.3f} ms/query  {bb_pushes / q:8.0f} pushes/query")
    print(
        f"black box / integrated: time {bb_ms / int_ms:.2f}x, "
        f"pushes {bb_pushes / int_pushes:.2f}x (paper: up to 2.5x)"
    )
    wrong = [i for i, (a, b) in enumerate(zip(int_times, bb_times)) if a != b]
    if wrong:
        print(f"pr-binary and blackbox-binary disagree on queries {wrong}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
