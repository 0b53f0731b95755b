"""FIFO push–relabel maximum flow (Goldberg & Tarjan [29]).

This is the engine inside the paper's Algorithms 4, 5 and 6.  Design notes:

* **FIFO vertex selection** with a **current-arc pointer** per vertex, as in
  the paper ("we use the FIFO ordering ... suggested by [19]"), giving the
  O(|V|³) bound the paper quotes for Algorithm 4.

* **Exact-height (global relabeling) heuristic** [19]: heights are
  periodically recomputed as exact residual-graph distances to the sink
  (or, for vertices that cannot reach the sink, ``n`` + distance to the
  source).  The paper's pseudocode (Algorithm 5 lines 11–13) resets heights
  to zero between incremental runs; both behaviours are supported through
  ``initial_heights`` and produce identical flows — only operation counts
  differ (quantified in ``benchmarks/bench_ablation_conservation.py``).

  The relabel builds the height histogram the gap heuristic reads in the
  same call (every height lies in ``[0, 2n]``), and it skips the BFS from
  the source in O(1) when every non-source vertex reached the sink — a
  count of the vertices the sink BFS visited, not a scan of the heights.

* **Gap heuristic** [14,19]: when a height level in ``(0, n)`` empties, all
  vertices stranded above it are lifted past ``n`` at once.

* **Single-loop two-phase execution.** Heights may grow up to ``2n`` and
  *every* active vertex (positive excess, not source/sink) is discharged,
  so at termination leftover excess has drained back to the source and the
  arrays hold a genuine maximum *flow*, not just a preflow.  Algorithm 6's
  ``StoreFlows``/``RestoreFlows`` depends on this: a stored state must be a
  valid flow for every larger capacity vector (feasibility–capacity
  monotonicity, see DESIGN.md §5).

* **Warm starts.** :meth:`PushRelabelState.initialize` implements
  Algorithm 5 lines 3–14: clear the FIFO queue, saturate only the source
  arcs with positive residual ``delta`` (conserving all previously computed
  flow), zero the source excess.  The first initialize after construction
  or :meth:`~PushRelabelState.restore_labels` ``(None)`` recounts every
  excess and computes exact heights.  Every later warm initialize with
  exact heights *carries* the state instead, as in Gallo, Grigoriadis and
  Tarjan's parametric max flow: a completed run leaves zero excess away
  from ``s``/``t`` and a valid labeling, and raising capacities only adds
  residual arcs, so only ``excess[t]`` is re-read (from the sink's arcs)
  and only the labels the new residual arcs invalidate are lowered — a
  vertex with a residual arc into the sink to ≤ 1, a vertex re-saturated
  from the source to ≤ ``n + 1`` — then the lowering propagates backward
  over residual arcs (:meth:`~PushRelabelState._repair_labels`).  Between
  carried initializes a caller may change only the capacities of arcs
  into the sink, and the flow only together with the labels
  (:meth:`~PushRelabelState.save_labels` /
  :meth:`~PushRelabelState.restore_labels`); an armed sanitizer checks
  the carried state after every carried initialize.
  ``initial_heights="zero"`` keeps Algorithm 5's literal reset (lines
  11–13) on every probe.
"""

from __future__ import annotations

from collections import deque

from repro import invariants
from repro.graph.flownetwork import FlowNetwork
from repro.maxflow.base import MaxFlowEngine, MaxFlowResult

__all__ = ["PushRelabelState", "push_relabel", "PushRelabelEngine"]


class PushRelabelState:
    """Re-entrant push–relabel machinery bound to one network.

    The retrieval algorithms create one state per query and call
    :meth:`initialize` + :meth:`run` once per capacity probe, preserving
    flow in between — that reuse *is* the paper's "integrated" idea.

    Parameters
    ----------
    g, s, t:
        Network, source, sink.
    initial_heights:
        ``"exact"`` (global-relabel style BFS distances, default) or
        ``"zero"`` (the literal Algorithm 5 pseudocode).
    global_relabel_interval:
        Re-run the exact-height computation after this many relabels;
        ``0`` disables the heuristic.  ``None`` (default) disables it when
        heights already start exact and picks ``max(n, 16)`` otherwise:
        on the shallow 4-layer retrieval networks, exact initialization
        plus the gap heuristic leaves mid-run global relabeling no faster
        (it saves pushes and relabels, and costs as much in BFS passes;
        see EXPERIMENTS.md, Ablations), while from zero heights it is
        what keeps the run short.
    gap_heuristic:
        Enable the gap heuristic.
    """

    def __init__(
        self,
        g: FlowNetwork,
        s: int,
        t: int,
        *,
        initial_heights: str = "exact",
        global_relabel_interval: int | None = None,
        gap_heuristic: bool = True,
    ) -> None:
        if s == t:
            raise ValueError("source and sink must differ")
        if initial_heights not in ("exact", "zero"):
            raise ValueError(f"initial_heights must be 'exact' or 'zero', got {initial_heights!r}")
        self.g = g
        self.s = s
        self.t = t
        self.initial_heights = initial_heights
        n = g.n
        if global_relabel_interval is None:
            global_relabel_interval = 0 if initial_heights == "exact" else max(n, 16)
        self.global_relabel_interval = global_relabel_interval
        self.gap_heuristic = gap_heuristic

        self.excess: list[int] = [0] * n
        self.height: list[int] = [0] * n
        self.current: list[int] = [0] * n
        self.queue: deque[int] = deque()
        self.in_queue: bytearray = bytearray(n)
        self.height_count: list[int] = [0] * (2 * n + 1)

        #: True between a completed exact-height run and the next
        #: initialize: the state then holds zero excess away from s/t and
        #: a valid labeling, so a warm initialize may carry both
        self.carried = False

        # operation counters (reported in MaxFlowResult.extra)
        self.pushes = 0
        self.relabels = 0
        self.global_relabels = 0
        self.gap_events = 0

    # ------------------------------------------------------------------
    def initialize(self, *, preserve_flow: bool = True) -> None:
        """(Re)start the solver — Algorithm 4 lines 1–8 / Algorithm 5 lines 3–14.

        With ``preserve_flow=True`` the current flow is kept and only the
        source arcs' *residual* slack ``delta = cap - flow`` is injected as
        new excess.  With ``preserve_flow=False`` the flow is zeroed first
        (black-box behaviour) and the source arcs are saturated in full.

        A warm start right after a completed exact-height run (see
        :attr:`carried`) keeps the excesses and the labels: it re-reads
        only ``excess[t]`` and repairs only the labels that the new
        residual arcs invalidate (:meth:`_repair_labels`).
        """
        g, s, t = self.g, self.s, self.t
        n = g.n
        carry = preserve_flow and self.carried
        # the labels are mid-solve until run() completes
        self.carried = False
        if not preserve_flow:
            g.reset_flow()
        head, cap, flow, adj = g.arrays()

        self.queue.clear()
        self.in_queue = bytearray(n)

        # Cancel preserved flow on arcs INTO the source.  Such flow leaves
        # residual s->w arcs, and no height labeling with height[s] = n can
        # satisfy the validity invariant across them — phase 1 could then
        # terminate before the preflow is maximum.  Cancelling converts
        # that flow into excess at the arcs' tails, a legal preflow
        # transformation.  (Retrieval networks have no arcs into s; this
        # matters for the generic engine API.)
        for b in adj[s]:
            if b % 2 == 1 and flow[b ^ 1] > 0:
                flow[b ^ 1] = 0
                flow[b] = 0
                carry = False  # the cancelled flow left interior excess

        excess = self.excess
        if carry:
            # A completed run drained every interior excess; only the
            # sink's can differ (the flow may be a restored snapshot).
            excess[t] = -sum(map(flow.__getitem__, adj[t]))
        else:
            # Exact excesses from the preserved assignment: net inflow per
            # vertex.  For a valid starting *flow* this is zero away from
            # s/t (Algorithm 5's stated precondition); computing it exactly
            # also makes warm starts from any valid *preflow* safe.  The
            # sink excess must reflect flow already delivered in earlier
            # probes, otherwise Algorithm 5's `excess[t] == |Q|` test
            # cannot see it.
            for v in range(n):
                ev = 0
                for a in adj[v]:
                    ev -= flow[a]
                excess[v] = ev

        # Algorithm 5 lines 4-10: saturate source arcs that still have slack
        # (delta = cap - flow), conserving all previously computed flow.
        saturated: list[int] = []
        for a in adj[s]:
            if a % 2 == 1:
                continue
            if flow[a] > cap[a]:
                # A caller lowered a source-arc capacity without restoring a
                # compatible flow; refuse to solve a corrupted instance.
                raise ValueError(
                    "flow exceeds capacity on a source arc; restore a "
                    "compatible flow before re-initializing (see DESIGN.md)"
                )
            delta = cap[a] - flow[a]
            if delta > 0:
                v = head[a]
                flow[a] += delta
                flow[a ^ 1] -= delta
                excess[v] += delta
                saturated.append(v)

        # Algorithm 5 line 14: the source's (negative) excess is irrelevant.
        excess[s] = 0
        queue, in_queue = self.queue, self.in_queue
        if carry:
            # only the re-saturated heads can be active, in arc order
            for v in saturated:
                if v != t and not in_queue[v]:
                    queue.append(v)
                    in_queue[v] = 1
            self._repair_labels(saturated)
            if invariants.ENABLED:
                invariants.check_carried_state(
                    g, s, t, excess, self.height, self.height_count,
                    "carried push-relabel initialize",
                )
            return
        for v in range(n):
            if v != s and v != t and excess[v] > 0:
                queue.append(v)
                in_queue[v] = 1

        if self.initial_heights == "zero":
            height = self.height
            height[:] = [0] * n
            height[s] = n
            self.current[:] = [0] * n
            self._rebuild_height_count()
        else:
            # resets the current-arc pointers and builds the histogram
            self._global_relabel()

    def _repair_labels(self, saturated: list[int]) -> None:
        """Lower just the labels the new residual arcs make invalid.

        The state carried from the last run is valid for the residual
        graph that run left.  Since then, capacities of arcs into the sink
        may have grown and ``saturated`` vertices took new flow from the
        source; those are the only new residual arcs.  A tail ``u`` of a
        residual arc into the sink needs ``height[u] <= 1``, a
        re-saturated vertex (residual arc back into ``s``) ``<= n + 1``.
        Every lowering then propagates backward over residual arcs, the
        histogram moves with each label, and all current-arc pointers go
        back to the start of their lists.
        """
        g, s, t = self.g, self.s, self.t
        n = g.n
        head, cap, flow, adj = g.arrays()
        height, height_count = self.height, self.height_count
        lowered: list[int] = []
        lower = lowered.append
        bound = height[t] + 1
        for b in adj[t]:
            a = b ^ 1  # arc u -> t
            if cap[a] > flow[a]:
                u = head[b]
                hu = height[u]
                if hu > bound and u != s:
                    height_count[hu] -= 1
                    height[u] = bound
                    height_count[bound] += 1
                    lower(u)
        bound = n + 1  # height[s] + 1
        for v in saturated:
            hv = height[v]
            if hv > bound:
                height_count[hv] -= 1
                height[v] = bound
                height_count[bound] += 1
                lower(v)
        for v in lowered:  # the list grows as the loop runs
            hv1 = height[v] + 1
            for a in adj[v]:
                # arc a: v -> u; its twin u -> v is residual when
                # cap[a ^ 1] > flow[a ^ 1]
                b = a ^ 1
                if cap[b] > flow[b]:
                    u = head[a]
                    hu = height[u]
                    if hu > hv1 and u != s:
                        height_count[hu] -= 1
                        height[u] = hv1
                        height_count[hv1] += 1
                        lower(u)
        self.current[:] = [0] * n

    def save_labels(self) -> tuple[list[int], list[int]] | None:
        """The carried labels and histogram, to store alongside a flow
        (Algorithm 6's StoreFlows); ``None`` when nothing is carried."""
        if not self.carried:
            return None
        return (self.height[:], self.height_count[:])

    def restore_labels(
        self, labels: tuple[list[int], list[int]] | None
    ) -> None:
        """Put back labels from :meth:`save_labels`, together with the
        flow stored alongside them (RestoreFlows).  ``None`` forgets the
        carried state, so the next initialize recounts and relabels from
        scratch; do that after any other change to the flow."""
        if labels is None:
            self.carried = False
            return
        height, height_count = labels
        self.height[:] = height
        self.height_count[:] = height_count
        self.carried = True

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Discharge until no active vertices remain; return flow value.

        Must be preceded by :meth:`initialize`.
        """
        g, s, t = self.g, self.s, self.t
        n = g.n
        head, cap, flow, adj = g.arrays()
        excess, height, current = self.excess, self.height, self.current
        queue, in_queue = self.queue, self.in_queue
        height_count = self.height_count
        gr_interval = self.global_relabel_interval
        relabels_since_gr = 0
        two_n = 2 * n

        while queue:
            v = queue.popleft()
            in_queue[v] = 0
            if v == s or v == t:
                continue
            ev = excess[v]
            if ev <= 0:
                continue
            arcs = adj[v]
            deg = len(arcs)
            hv = height[v]
            i = current[v]
            while ev > 0:
                if i < deg:
                    a = arcs[i]
                    residual = cap[a] - flow[a]
                    if residual > 0:
                        w = head[a]
                        if hv == height[w] + 1:
                            delta = ev if ev < residual else residual
                            flow[a] += delta
                            flow[a ^ 1] -= delta
                            ev -= delta
                            excess[w] += delta
                            self.pushes += 1
                            if w != s and w != t and not in_queue[w]:
                                queue.append(w)
                                in_queue[w] = 1
                    i += 1
                else:
                    # relabel: lift v to 1 + min height over residual arcs
                    self.relabels += 1
                    relabels_since_gr += 1
                    old_h = hv
                    new_h = two_n
                    for a in arcs:
                        if cap[a] - flow[a] > 0:
                            hw = height[head[a]]
                            if hw + 1 < new_h:
                                new_h = hw + 1
                    if new_h >= two_n + 1:
                        new_h = two_n  # clamp; vertex is effectively stranded
                    height[v] = new_h
                    hv = new_h
                    height_count[old_h] -= 1
                    height_count[new_h] += 1
                    i = 0
                    # gap heuristic: old level emptied below n
                    if (
                        self.gap_heuristic
                        and 0 < old_h < n
                        and height_count[old_h] == 0
                    ):
                        self._apply_gap(old_h)
                        hv = height[v]
                    if gr_interval and relabels_since_gr >= gr_interval:
                        excess[v] = ev
                        self._global_relabel()
                        relabels_since_gr = 0
                        # heights changed globally: requeue v and restart
                        if ev > 0 and not in_queue[v]:
                            queue.append(v)
                            in_queue[v] = 1
                        break
                    if new_h >= two_n:
                        # cannot route anywhere; drop remaining excess search
                        break
            else:
                excess[v] = ev
                current[v] = i
                continue
            # reached via break paths above
            excess[v] = ev
            current[v] = i if i < deg else 0
            if ev > 0 and height[v] < two_n and not in_queue[v]:
                queue.append(v)
                in_queue[v] = 1

        self.carried = self.initial_heights == "exact"
        return self.excess[t]

    # ------------------------------------------------------------------
    def _apply_gap(self, gap_h: int) -> None:
        """Lift every vertex with height in (gap_h, n) to n + 1."""
        g = self.g
        n = g.n
        self.gap_events += 1
        height, height_count = self.height, self.height_count
        for v in range(n):
            if v == self.s:
                continue
            h = height[v]
            if gap_h < h < n:
                height_count[h] -= 1
                height[v] = n + 1
                height_count[n + 1] += 1
                self.current[v] = 0

    def _global_relabel(self) -> None:
        """Exact-height computation: BFS distances in the residual graph.

        ``height[v] = dist(v, t)`` when the sink is residually reachable
        from ``v``; otherwise ``n + dist(v, s)``, which routes stranded
        excess back toward the source (phase 2).  The height histogram
        and the current-arc reset ride along, so no separate pass over
        the vertices runs after it.  Every list is written in place: a
        mid-run relabel must reach the lists :meth:`run` holds as locals.
        """
        g, s, t = self.g, self.s, self.t
        n = g.n
        head, cap, flow, adj = g.arrays()
        self.global_relabels += 1
        INF = 2 * n
        height = self.height
        height[:] = [INF] * n

        # backward BFS from t: follow arcs *into* v with residual capacity,
        # i.e. out-arcs a of v whose twin has residual (cap[a^1] - flow[a^1]).
        # A vertex is appended once, when first reached, so len(bfs) counts
        # the vertices that reach t.
        height[t] = 0
        bfs = [t]
        for v in bfs:  # the list grows as the loop runs: a FIFO queue
            hv1 = height[v] + 1
            for a in adj[v]:
                # arc a: v -> w; its twin w -> v is the arc whose residual
                # capacity lets flow travel w -> v toward the sink.
                b = a ^ 1
                if cap[b] > flow[b]:
                    w = head[a]
                    if height[w] > hv1:
                        height[w] = hv1
                        bfs.append(w)

        # backward BFS from s, but only when some non-source vertex cannot
        # reach t (the common feasible-probe case has none — skip the
        # second pass); the count of sink-reached vertices makes the test O(1)
        s_reached = height[s] < INF
        height[s] = n
        if len(bfs) - s_reached < n - 1:
            dist_s = [INF] * n
            dist_s[s] = 0
            bfs = [s]
            for v in bfs:
                dv1 = dist_s[v] + 1
                for a in adj[v]:
                    b = a ^ 1
                    if cap[b] > flow[b]:
                        w = head[a]
                        if dist_s[w] > dv1:
                            dist_s[w] = dv1
                            bfs.append(w)
            for v in range(n):
                if v != s and height[v] >= INF:
                    hs = n + dist_s[v]
                    height[v] = hs if hs < INF else INF
        self.current[:] = [0] * n
        # every height is in [0, 2n] by construction: no clamp needed
        height_count = self.height_count
        height_count[:] = [0] * (INF + 1)
        for h in height:
            height_count[h] += 1

    def _rebuild_height_count(self) -> None:
        two_n = 2 * self.g.n
        height_count = self.height_count
        height_count[:] = [0] * (two_n + 1)
        for h in self.height:
            height_count[min(h, two_n)] += 1

    # ------------------------------------------------------------------
    def result(self) -> MaxFlowResult:
        """Package counters into a :class:`MaxFlowResult`."""
        return MaxFlowResult(
            value=self.excess[self.t],
            pushes=self.pushes,
            relabels=self.relabels,
            extra={
                "global_relabels": self.global_relabels,
                "gap_events": self.gap_events,
            },
        )


def push_relabel(
    g: FlowNetwork,
    s: int,
    t: int,
    *,
    warm_start: bool = False,
    initial_heights: str = "exact",
    global_relabel_interval: int | None = None,
    gap_heuristic: bool = True,
) -> MaxFlowResult:
    """One-shot FIFO push–relabel solve (the paper's Algorithm 4)."""
    state = PushRelabelState(
        g,
        s,
        t,
        initial_heights=initial_heights,
        global_relabel_interval=global_relabel_interval,
        gap_heuristic=gap_heuristic,
    )
    state.initialize(preserve_flow=warm_start)
    state.run()
    return state.result()


class PushRelabelEngine(MaxFlowEngine):
    """Registry wrapper around :func:`push_relabel`."""

    name = "push-relabel"

    def __init__(
        self,
        *,
        initial_heights: str = "exact",
        global_relabel_interval: int | None = None,
        gap_heuristic: bool = True,
    ) -> None:
        self.initial_heights = initial_heights
        self.global_relabel_interval = global_relabel_interval
        self.gap_heuristic = gap_heuristic

    def solve(
        self, g: FlowNetwork, s: int, t: int, *, warm_start: bool = False
    ) -> MaxFlowResult:
        return push_relabel(
            g,
            s,
            t,
            warm_start=warm_start,
            initial_heights=self.initial_heights,
            global_relabel_interval=self.global_relabel_interval,
            gap_heuristic=self.gap_heuristic,
        )
