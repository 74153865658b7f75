from functools import reduce

from hypothesis import given, settings, strategies as st

from arborkit.flow import MaxFlow
from oracles import brute_min_cuts


@st.composite
def networks(draw):
    """2..7 nodes, source 0 and sink n - 1, up to 16 arcs with integer
    capacities 0..6; parallel and opposite arcs allowed, no self-arcs."""
    n = draw(st.integers(2, 7))
    arc = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.integers(0, 6)).map(
        lambda a: (a[0], (a[0] + a[1]) % n, a[2]))
    return n, draw(st.lists(arc, max_size=16))


@settings(max_examples=300, deadline=None)
@given(networks())
def test_cuts_match_brute_minimum_cuts(network):
    n, arcs = network
    s, t = 0, n - 1
    net = MaxFlow(n)
    for u, v, cap in arcs:
        net.add_edge(u, v, cap)
    capacity, sides = brute_min_cuts(n, arcs, s, t)
    assert net.max_flow(s, t) == capacity
    assert net.min_cut_source_side(s) == reduce(frozenset.intersection, sides)
    assert set(range(n)) - net.min_cut_sink_side(t) == reduce(frozenset.union, sides)
