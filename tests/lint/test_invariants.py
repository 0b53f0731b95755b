"""Runtime invariant sanitizer (REPRO_CHECK_INVARIANTS).

Armed: every solver passes on real instances, and deliberately corrupted
state trips the checks.  Disarmed (the default): the hooks do no work —
even corrupt state sails through, proving the hot path is untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import invariants
from repro.core import RetrievalProblem, solve
from repro.errors import FlowValidationError
from repro.graph import FlowNetwork
from repro.invariants import InvariantViolation, ProbeMonitor, enabled_from_env
from repro.storage import StorageSystem


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setattr(invariants, "ENABLED", True)


def small_problem(seed=0, n_buckets=8):
    rng = np.random.default_rng(seed)
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], 3,
        delays_ms=rng.integers(0, 8, size=2).tolist(), rng=rng,
    )
    sys_.set_loads(rng.integers(0, 6, size=sys_.num_disks).astype(float))
    reps = tuple(
        tuple(sorted(rng.choice(sys_.num_disks, size=2, replace=False)))
        for _ in range(n_buckets)
    )
    return RetrievalProblem(sys_, reps)


class TestEnvSwitch:
    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", "False"])
    def test_falsey_values_disable(self, value):
        assert enabled_from_env({"REPRO_CHECK_INVARIANTS": value}) is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_values_enable(self, value):
        assert enabled_from_env({"REPRO_CHECK_INVARIANTS": value}) is True

    def test_unset_disables(self):
        assert enabled_from_env({}) is False

    def test_violation_is_a_flow_validation_error(self):
        assert issubclass(InvariantViolation, FlowValidationError)


class TestArmedSolvers:
    @pytest.mark.parametrize(
        "solver",
        ["ff-incremental", "pr-binary", "pr-incremental",
         "blackbox-binary", "parallel-binary"],
    )
    def test_generalized_solvers_pass(self, armed, solver):
        for seed in range(3):
            schedule = solve(small_problem(seed), solver=solver)
            assert schedule.response_time_ms > 0

    def test_basic_solver_passes(self, armed):
        sys_ = StorageSystem.homogeneous(6)
        reps = tuple((i % 6, (i + 1) % 6) for i in range(9))
        schedule = solve(RetrievalProblem(sys_, reps), solver="ff-basic")
        assert schedule.response_time_ms > 0


class TestFlowHooks:
    def corrupted_restore(self):
        g = FlowNetwork(3)
        a = g.add_arc(0, 1, 2.0)
        g.add_arc(1, 2, 2.0)
        saved = g.save_flow()
        saved[a] = 1.0  # twin left at 0.0: antisymmetry broken
        return g, saved

    def test_restore_flow_catches_broken_antisymmetry(self, armed):
        g, saved = self.corrupted_restore()
        with pytest.raises(InvariantViolation, match="antisymmetry"):
            g.restore_flow(saved)

    def test_restore_flow_accepts_valid_snapshot(self, armed):
        g = FlowNetwork(3)
        a = g.add_arc(0, 1, 2.0)
        g.push(a, 1.0)
        saved = g.save_flow()
        g.reset_flow()
        g.restore_flow(saved)
        assert g.flow[a] == 1.0

    def test_disabled_hook_does_no_work(self, monkeypatch):
        # the corrupt snapshot that trips the armed check passes silently
        # when disarmed — the disabled path runs zero assertions
        monkeypatch.setattr(invariants, "ENABLED", False)
        g, saved = self.corrupted_restore()
        g.restore_flow(saved)
        assert g.flow[0] == 1.0

    def test_clamp_hook_validates_network(self, armed):
        from repro.core.network import RetrievalNetwork

        net = RetrievalNetwork(small_problem())
        net.set_uniform_sink_caps(2)
        net.clamp_flow_to_sink_caps()  # zero flow: trivially valid

        # corrupt one sink arc past its capacity *and* break conservation;
        # the clamp only repairs what it can see as excess at the sink
        g = net.graph
        a = net.sink_arcs[0]
        g.flow[a] = 5.0  # twin untouched: conservation broken
        with pytest.raises(InvariantViolation):
            net.clamp_flow_to_sink_caps()


class TestProbeMonitor:
    def network(self):
        from repro.core.network import RetrievalNetwork

        return RetrievalNetwork(small_problem())

    def test_monotone_sequence_passes(self):
        mon = ProbeMonitor(self.network())
        mon.after_probe(10.0, False, "binary")
        mon.after_probe(20.0, True, "binary")
        mon.after_probe(15.0, False, "binary")
        assert len(mon.observations) == 3

    def test_feasible_below_infeasible_raises(self):
        mon = ProbeMonitor(self.network())
        mon.after_probe(20.0, False, "anchor")
        with pytest.raises(InvariantViolation, match="monotonicity"):
            mon.after_probe(10.0, True, "binary")

    def test_increment_phase_not_deadline_indexed(self):
        # increment-phase candidates are min-cost finish times, not the
        # binary-search parameter — they must not feed the monotone check
        mon = ProbeMonitor(self.network())
        mon.after_probe(20.0, False, "binary")
        mon.after_probe(10.0, True, "increment")
        assert mon.observations[-1] == (10.0, True, "increment")

    def test_probe_hook_wired_into_scaling(self, armed):
        # an armed binary-scaling solve constructs a monitor and records
        # every probe through it (anchor + binary + increment phases)
        from repro.core import scaling

        captured = []
        original = scaling.invariants.ProbeMonitor

        class Spy(original):
            def __init__(self, network):
                super().__init__(network)
                captured.append(self)

        scaling.invariants.ProbeMonitor = Spy
        try:
            solve(small_problem(), solver="pr-binary")
        finally:
            scaling.invariants.ProbeMonitor = original
        assert captured, "armed solve did not build a ProbeMonitor"
        phases = {p for mon in captured for (_, _, p) in mon.observations}
        assert "binary" in phases or "anchor" in phases
        assert "increment" in phases

    def test_one_in_degree_check_per_solve(self, armed, monkeypatch):
        # the increment phase reuses the binary phase's monitor, so the
        # cached in-degrees are checked once per solve, not once per phase
        calls = []
        original = invariants.check_disk_in_degree

        def counting(network, context):
            calls.append(context)
            original(network, context)

        monkeypatch.setattr(invariants, "check_disk_in_degree", counting)
        for name in ("pr-binary", "pr-incremental", "ff-binary"):
            calls.clear()
            solve(small_problem(), solver=name)
            assert len(calls) == 1, name

    def stale_network(self):
        """A network with an arc added after construction: its cached
        per-disk in-degrees no longer match the graph."""
        from repro.core.network import RetrievalNetwork

        problem = small_problem()
        net = RetrievalNetwork(problem)
        j = net.disk_in_degree.index(min(net.disk_in_degree))
        net.graph.add_arc(net.bucket_vertex(0), net.disk_vertex(j), 1)
        return problem, net

    def test_post_construction_arc_trips_armed_solve(self, armed):
        problem, net = self.stale_network()
        with pytest.raises(InvariantViolation, match="in-degree"):
            solve(problem, solver="pr-binary", network=net)

    def test_disarmed_solve_skips_the_in_degree_check(self, monkeypatch):
        monkeypatch.setattr(invariants, "ENABLED", False)
        problem, net = self.stale_network()
        solve(problem, solver="pr-binary", network=net)  # no check runs

    @staticmethod
    def shifted_sink_run(move_arcs: bool):
        """A network whose sink-capacity slice is moved one arc back,
        onto the last replica arc; with ``move_arcs`` its ``sink_arcs``
        table follows, so only the arcs' endpoints give it away."""
        from repro.core.network import RetrievalNetwork

        problem = small_problem()
        net = RetrievalNetwork(problem)
        run = net._sink_cap_slice
        net._sink_cap_slice = slice(run.start - 2, run.stop - 2, 2)
        if move_arcs:
            net.sink_arcs = [a - 2 for a in net.sink_arcs]
        return problem, net

    @pytest.mark.parametrize(
        "move_arcs, match",
        [(False, "addresses slots"), (True, "not disk 0's disk→sink arc")],
    )
    def test_broken_sink_run_trips_armed_solve(self, armed, move_arcs, match):
        problem, net = self.shifted_sink_run(move_arcs)
        with pytest.raises(InvariantViolation, match=match):
            solve(problem, solver="pr-binary", network=net)

    def test_fresh_network_passes_the_sink_run_check(self):
        from repro.core.network import RetrievalNetwork

        net = RetrievalNetwork(small_problem())
        invariants.check_sink_run(net, "fresh")


class TestCarriedState:
    """A warm push–relabel initialize that carries excesses and labels
    from the previous probe is checked against an exact recount."""

    @staticmethod
    def carried_prober(engine):
        """A prober one probe into a solve, so the next initialize (at
        the same capacities) carries its state and repairs nothing."""
        from repro.core.binary_csr import CsrProber
        from repro.core.incremental_pr import SequentialProber
        from repro.core.network import RetrievalNetwork

        problem = small_problem(seed=3, n_buckets=10)
        net = RetrievalNetwork(problem)
        net.set_deadline_capacities(problem.theoretical_max_deadline())
        prober = {"list": SequentialProber, "csr": CsrProber}[engine]()
        prober.attach(net)
        prober.probe()
        return prober._state

    @staticmethod
    def corrupt_a_label(state):
        """Lift a routed bucket above ``height[s] + 1`` across its
        residual arc back into the source (histogram kept consistent);
        the repair only lowers labels of re-saturated buckets, so the
        corruption survives into the check."""
        head, cap, flow, adj = state.g.arrays()
        n = state.g.n
        for a in adj[state.s]:
            if a % 2 == 0 and flow[a] == cap[a] > 0:
                v = head[a]
                state.height_count[state.height[v]] -= 1
                state.height[v] = n + 2
                state.height_count[n + 2] += 1
                return
        raise AssertionError("no routed bucket to corrupt")

    @pytest.mark.parametrize("engine", ["list", "csr"])
    def test_clean_carried_state_passes(self, armed, engine):
        state = self.carried_prober(engine)
        state.initialize(preserve_flow=True)
        assert state.global_relabels == 1  # the state was carried

    @pytest.mark.parametrize("engine", ["list", "csr"])
    def test_corrupted_label_trips(self, armed, engine):
        state = self.carried_prober(engine)
        self.corrupt_a_label(state)
        with pytest.raises(InvariantViolation, match="invalid label"):
            state.initialize(preserve_flow=True)

    @pytest.mark.parametrize("engine", ["list", "csr"])
    def test_corrupted_excess_trips(self, armed, engine):
        state = self.carried_prober(engine)
        v = state.g.n - 1  # a disk: never the source or the sink
        state.excess[v] += 1
        with pytest.raises(InvariantViolation, match="excess"):
            state.initialize(preserve_flow=True)

    def test_corrupted_histogram_trips(self, armed):
        state = self.carried_prober("list")
        state.height_count[0] += 1
        with pytest.raises(InvariantViolation, match="histogram"):
            state.initialize(preserve_flow=True)

    @pytest.mark.parametrize("engine", ["list", "csr"])
    def test_disarmed_initialize_skips_the_check(self, monkeypatch, engine):
        monkeypatch.setattr(invariants, "ENABLED", False)
        calls = []
        monkeypatch.setattr(
            invariants, "check_carried_state",
            lambda *args: calls.append(args),
        )
        state = self.carried_prober(engine)
        self.corrupt_a_label(state)
        state.initialize(preserve_flow=True)  # no check runs
        assert calls == []

    def test_armed_solve_checks_every_carried_probe(self, armed, monkeypatch):
        calls = []
        original = invariants.check_carried_state

        def counting(*args):
            calls.append(args[-1])
            original(*args)

        monkeypatch.setattr(invariants, "check_carried_state", counting)
        schedule = solve(small_problem(seed=3, n_buckets=10), solver="pr-binary")
        # every probe after the first carries (anchor infeasible here)
        assert len(calls) == schedule.stats.probes - 1
