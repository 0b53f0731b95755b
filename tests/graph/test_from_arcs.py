"""``FlowNetwork.from_arcs``: bulk construction equals successive
``add_arc`` calls slot for slot, and validates with the same errors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidArcError, InvalidVertexError
from repro.graph import FlowNetwork
from repro.graph.flownetwork import build_network

FIELDS = ("n", "head", "cap", "flow", "_tail", "adj", "_fwd", "_in_deg")


def random_arcs(seed: int):
    """Random arc vectors: parallel arcs, zero capacities, self-free
    pairs, and vertices no arc touches."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    m = int(rng.integers(0, 40))
    # draw from the low vertices only, so the top ones stay isolated
    hi = max(1, n - int(rng.integers(0, 3)))
    tails = rng.integers(0, hi, size=m).tolist()
    heads = rng.integers(0, hi, size=m).tolist()
    if m:
        # repeat an arc to get a parallel pair
        tails.append(tails[0])
        heads.append(heads[0])
    caps = rng.integers(0, 4, size=len(tails)).tolist()
    return n, tails, heads, caps


def incremental(n, tails, heads, caps) -> FlowNetwork:
    g = FlowNetwork(n)
    for u, v, c in zip(tails, heads, caps):
        g.add_arc(u, v, c)
    return g


def assert_same_layout(got: FlowNetwork, want: FlowNetwork) -> None:
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_add_arc_field_by_field(self, seed):
        args = random_arcs(seed)
        assert_same_layout(FlowNetwork.from_arcs(*args), incremental(*args))

    @pytest.mark.parametrize("seed", range(0, 60, 6))
    def test_compiled_layout_matches(self, seed):
        args = random_arcs(seed)
        got = FlowNetwork.from_arcs(*args).compile()
        want = incremental(*args).compile()
        for b_got, b_want in zip(got.buffers(), want.buffers()):
            assert b_got == b_want
        assert got.tail == want.tail
        assert got.adj_list == want.adj_list

    def test_no_arcs(self):
        g = FlowNetwork.from_arcs(3, [], [], [])
        assert_same_layout(g, FlowNetwork(3))

    def test_build_network_uses_the_bulk_layout(self):
        arcs = [(0, 1, 2), (1, 2, 3), (0, 1, 0), (2, 0, 1)]
        g, ids = build_network(3, arcs)
        assert ids == [0, 2, 4, 6]
        assert_same_layout(g, incremental(3, *map(list, zip(*arcs))))
        assert build_network(2, [])[1] == []

    def test_later_add_arc_extends_a_bulk_network(self):
        g = FlowNetwork.from_arcs(3, [0, 1], [1, 2], [2, 1])
        assert g.add_arc(0, 2, 5) == 4
        assert_same_layout(g, incremental(3, [0, 1, 0], [1, 2, 2], [2, 1, 5]))
        assert g.in_degree(2) == 2
        assert g.forward_out_arcs(0) == [0, 4]

    def test_compiled_memo_starts_empty(self):
        g = FlowNetwork.from_arcs(2, [0], [1], [1])
        assert g.compiled() is g.compiled()
        first = g.compiled()
        g.add_arc(1, 0, 1)
        assert g.compiled() is not first


class TestValidation:
    @pytest.mark.parametrize(
        "tails, heads",
        [([0, 3], [1, 0]), ([0, 1], [1, 3]), ([-1, 0], [1, 1]), ([0], [-2])],
    )
    def test_out_of_range_vertex(self, tails, heads):
        with pytest.raises(InvalidVertexError, match="out of range"):
            FlowNetwork.from_arcs(3, tails, heads, [1] * len(tails))

    @pytest.mark.parametrize(
        "bad, match",
        [(-3, "negative capacity -3 on arc 1->2"),
         (1.5, "integral"),
         (True, "integral"),
         (float("nan"), "integer"),
         ("2", "integral")],
    )
    def test_capacity_errors_match_add_arc(self, bad, match):
        with pytest.raises(InvalidArcError, match=match):
            FlowNetwork.from_arcs(3, [0, 1], [1, 2], [1, bad])
        with pytest.raises(InvalidArcError, match=match):
            FlowNetwork(3).add_arc(1, 2, bad)

    def test_integral_float_capacity_accepted_as_int(self):
        g = FlowNetwork.from_arcs(2, [0, 0], [1, 1], [1.0, np.int64(2)])
        assert g.cap == [1, 0, 2, 0]
        assert [type(c) for c in g.cap] == [int] * 4

    def test_vector_lengths_must_agree(self):
        with pytest.raises(InvalidArcError, match="differ in length"):
            FlowNetwork.from_arcs(3, [0, 1], [1], [1, 1])
        with pytest.raises(InvalidArcError, match="differ in length"):
            FlowNetwork.from_arcs(3, [0], [1], [])

    def test_negative_vertex_count(self):
        with pytest.raises(InvalidVertexError):
            FlowNetwork.from_arcs(-1, [], [], [])
