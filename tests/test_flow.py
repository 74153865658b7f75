from functools import reduce

from hypothesis import example, given, settings, strategies as st

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
# the push along 0-1-2-4 saturates 1->2 and 2->4, so the search resumes at
# 1, the tail of the nearer one; the push along 0-1-3-4 saturates all three
@example((5, [(0, 1, 3), (1, 2, 2), (2, 4, 2), (1, 3, 1), (3, 4, 1)]))
# the push along 0-1-2-5 saturates 0->1 and 2->5, so it resumes at the source
@example((6, [(0, 1, 1), (1, 2, 2), (2, 5, 1), (0, 3, 1), (3, 4, 1), (4, 5, 1)]))
# after the push along 1->4 the search walks 1-2-3 into a dead end, steps
# back twice and pushes along the parallel arc 1->4
@example((5, [(0, 1, 3), (1, 4, 1), (1, 2, 1), (2, 3, 1), (1, 4, 1)]))
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
