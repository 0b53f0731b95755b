"""Runtime invariant sanitizer (``REPRO_CHECK_INVARIANTS=1``).

The paper's integrated algorithms are correct only while three unstated
invariants hold:

* **flow conservation** — the assignment inside a
  :class:`~repro.graph.FlowNetwork` stays a legal flow across
  StoreFlows/RestoreFlows and across warm starts (Equation 1);
* **capacity respect** — raising the disk→sink capacities
  ``floor((t - D_j - X_j) / C_j)`` never leaves an arc carrying more
  flow than its capacity (after :meth:`clamp_flow_to_sink_caps`);
* **probe monotonicity** — feasibility of a candidate deadline ``t`` is
  monotone: once some ``t`` probes feasible, no larger ``t`` may probe
  infeasible (the property binary scaling searches over).

A fourth, the implementation's own, is checked once per solve: the
per-disk in-degrees a :class:`~repro.core.network.RetrievalNetwork`
reads once at construction still match its graph, and its disk→sink
forward arcs are still the strided slot run the per-probe rescale writes
through (**fixed topology**).
A fifth is checked after every warm push–relabel initialize that carries
its excesses and labels from the previous probe (**carried state**): the
excesses equal an exact recount, the labels are valid on every residual
arc, and the height histogram matches the labels.

This module turns them into machine-checked assertions.  The checks are
**off by default** and cost nothing on the default path: every hook site
tests the module-level :data:`ENABLED` flag (one attribute load) and the
flag is computed once, at import, from the ``REPRO_CHECK_INVARIANTS``
environment variable.  Set it to ``1`` (or anything not in ``{"", "0",
"false", "no", "off"}``) to run the whole test suite — or a production
canary — with the sanitizer armed.

Violations raise :class:`InvariantViolation`, a subclass of
:class:`~repro.errors.FlowValidationError`, so existing ``except``
clauses for flow corruption also catch sanitizer trips.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

from repro.errors import FlowValidationError

if TYPE_CHECKING:
    from repro.graph.flownetwork import FlowNetwork

__all__ = [
    "ENABLED",
    "InvariantViolation",
    "ProbeMonitor",
    "check_antisymmetry",
    "check_carried_state",
    "check_clamped_network",
    "check_disk_in_degree",
    "check_sink_run",
    "check_valid_flow",
    "enabled_from_env",
]

_FALSEY = frozenset({"", "0", "false", "no", "off"})


def enabled_from_env(environ: os._Environ | dict | None = None) -> bool:
    """Read the sanitizer switch from ``REPRO_CHECK_INVARIANTS``."""
    env = os.environ if environ is None else environ
    return str(env.get("REPRO_CHECK_INVARIANTS", "")).lower() not in _FALSEY


#: Evaluated once at import; hook sites guard on this attribute so the
#: disabled path does no assertion work.  Tests may flip it directly
#: (``monkeypatch.setattr(invariants, "ENABLED", True)``).
ENABLED: bool = enabled_from_env()


class InvariantViolation(FlowValidationError):
    """An armed sanitizer caught a broken algorithmic invariant."""


# ----------------------------------------------------------------------
# flow-level checks (FlowNetwork hooks)
# ----------------------------------------------------------------------
def check_antisymmetry(graph, context: str) -> None:
    """Every arc and its residual twin must carry opposite flow."""
    flow = graph.flow
    for a in range(0, len(flow), 2):
        if flow[a] + flow[a + 1] != 0:
            raise InvariantViolation(
                f"{context}: antisymmetry broken on arc {a} "
                f"(flow {flow[a]} + twin {flow[a + 1]} != 0)"
            )


def check_valid_flow(graph, source: int, sink: int, context: str) -> None:
    """Conservation + capacity respect for the current assignment."""
    from repro.graph.validation import assert_valid_flow

    try:
        assert_valid_flow(graph, source, sink)
    except FlowValidationError as exc:
        raise InvariantViolation(f"{context}: {exc}") from exc


def check_clamped_network(network, context: str) -> None:
    """After clamping, the warm flow must sit within every capacity."""
    g = network.graph
    for j, a in enumerate(network.sink_arcs):
        if g.flow[a] > g.cap[a]:
            raise InvariantViolation(
                f"{context}: disk {j} still overloaded after clamp "
                f"(flow {g.flow[a]} > cap {g.cap[a]})"
            )
    check_valid_flow(g, network.source, network.sink, context)


def check_disk_in_degree(network, context: str) -> None:
    """The network's once-per-topology in-degree list must still match
    the graph: an arc added after construction would otherwise feed
    Algorithm 3 a stale replica count and give wrong increments."""
    g = network.graph
    cached = network.disk_in_degree
    for j in range(network.problem.num_disks):
        actual = g.in_degree(network.disk_vertex(j))
        if cached[j] != actual:
            raise InvariantViolation(
                f"{context}: disk {j} in-degree cached as {cached[j]} but "
                f"the graph has {actual} (topology changed after "
                "construction)"
            )


def check_sink_run(network, context: str) -> None:
    """Disk ``j``'s disk→sink arc must be the ``j``-th slot of the
    strided run the per-probe rescale writes: a run that no longer
    matches ``sink_arcs`` would land every deadline's capacities on the
    wrong arcs."""
    g = network.graph
    run = list(range(g.num_arc_slots)[network._sink_cap_slice])
    if run != network.sink_arcs:
        raise InvariantViolation(
            f"{context}: sink-capacity slice addresses slots {run} but the "
            f"disk→sink arcs are {network.sink_arcs}"
        )
    for j, a in enumerate(run):
        if g.tail(a) != network.disk_vertex(j) or g.head[a] != network.sink:
            raise InvariantViolation(
                f"{context}: slot {a} of the sink-capacity run is arc "
                f"{g.tail(a)}->{g.head[a]}, not disk {j}'s disk→sink arc"
            )


def check_carried_state(
    graph: FlowNetwork,
    source: int,
    sink: int,
    excess: Sequence[int],
    height: Sequence[int],
    height_count: Sequence[int],
    context: str,
) -> None:
    """A push–relabel state carried into a new probe must equal a fresh
    one in everything but its (valid, not necessarily exact) labels.

    * every excess away from the source equals the vertex's net inflow;
    * ``height[u] <= height[v] + 1`` on every residual arc ``u -> v``
      with ``u`` not the source;
    * ``height_count[h]`` counts the vertices at height ``h``.
    """
    head, cap, flow, adj = graph.arrays()
    n = graph.n
    for v in range(n):
        if v == source:
            continue
        inflow = -sum(flow[a] for a in adj[v])
        if excess[v] != inflow:
            raise InvariantViolation(
                f"{context}: vertex {v} carries excess {excess[v]} but its "
                f"net inflow is {inflow}"
            )
        hv = height[v]
        for a in adj[v]:
            if cap[a] > flow[a] and hv > height[head[a]] + 1:
                raise InvariantViolation(
                    f"{context}: invalid label on residual arc {a} "
                    f"({v} -> {head[a]}): height {hv} > "
                    f"{height[head[a]]} + 1"
                )
    counts = [0] * len(height_count)
    for h in height:
        counts[min(h, len(counts) - 1)] += 1
    if counts != list(height_count):
        raise InvariantViolation(
            f"{context}: height histogram does not match the labels"
        )


# ----------------------------------------------------------------------
# probe-level checks (core/scaling.py hook)
# ----------------------------------------------------------------------
class ProbeMonitor:
    """Per-solve monotonicity + flow-validity watcher for probes.

    One instance is created per solve (``binary_scaling_solve`` hands
    its monitor on to the increment phase) when the sanitizer is armed,
    and first checks the network's cached per-disk in-degrees against
    the graph and its sink-capacity slot run against ``sink_arcs``.
    Each deadline-indexed probe (phases ``anchor`` and ``binary``, where
    the sink capacities are a pure function of the candidate ``t``) is
    recorded; a feasible probe below an infeasible one is a monotonicity
    violation.  Increment-phase probes are validity-checked only — their
    capacities are not parameterised by ``t``.
    """

    #: phases whose capacities encode the probed deadline
    DEADLINE_PHASES = frozenset({"anchor", "binary"})

    def __init__(self, network) -> None:
        self.network = network
        self.observations: list[tuple[float, bool, str]] = []
        self._max_infeasible_t = float("-inf")
        self._min_feasible_t = float("inf")
        check_disk_in_degree(network, "probe monitor")
        check_sink_run(network, "probe monitor")

    def after_probe(self, t: float, feasible: bool, phase: str) -> None:
        self.observations.append((t, feasible, phase))
        net = self.network
        check_valid_flow(
            net.graph, net.source, net.sink,
            f"after {phase} probe at t={t}",
        )
        if phase not in self.DEADLINE_PHASES:
            return
        if feasible:
            self._min_feasible_t = min(self._min_feasible_t, t)
        else:
            self._max_infeasible_t = max(self._max_infeasible_t, t)
        # exact: probes at the same float deadline compare equal, and
        # capacity_at is the exact inverse of finish_time, so any strict
        # inversion is a genuine monotonicity break
        if self._min_feasible_t < self._max_infeasible_t:
            raise InvariantViolation(
                "probe monotonicity broken: "
                f"t={self._min_feasible_t} probed feasible but "
                f"t={self._max_infeasible_t} probed infeasible "
                f"(observations: {self.observations})"
            )
