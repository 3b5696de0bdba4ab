"""Hypothesis property suites over random small graphs."""

from hypothesis import given, settings, strategies as st

from powerdom import (
    Graph,
    VertexSet,
    cartesian_product,
    complement,
    closed_neighborhood,
    join,
    monitored_fixpoint,
    zero_forcing_fixpoint,
)
from powerdom.graphs import closed_neighborhood_bits
from powerdom.propagation import fixpoint_from, run_chain_bits

import oracles


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(n, sorted(edges))


@st.composite
def graph_and_nested_sets(draw, max_n=10):
    g = draw(graphs(max_n))
    small = draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    extra = draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    s = VertexSet.of(g.n, small)
    return g, s, s | VertexSet.of(g.n, extra)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g


@given(graphs(max_n=5), graphs(max_n=5))
@settings(max_examples=100, deadline=None)
def test_product_edge_count(g, h):
    assert cartesian_product(g, h).edge_count() == (
        g.n * h.edge_count() + h.n * g.edge_count()
    )


@given(graphs(max_n=5), graphs(max_n=5))
@settings(max_examples=100, deadline=None)
def test_join_degree_shift(g, h):
    j = join(g, h)
    assert all(j.degree(u) == g.degree(u) + h.n for u in range(g.n))
    assert all(j.degree(g.n + v) == h.degree(v) + g.n for v in range(h.n))


@given(graph_and_nested_sets())
@settings(max_examples=200, deadline=None)
def test_fixed_points_are_monotone(data):
    g, s, s_prime = data
    assert monitored_fixpoint(g, s).fixed_point.issubset(
        monitored_fixpoint(g, s_prime).fixed_point
    )
    assert zero_forcing_fixpoint(g, s).fixed_point.issubset(
        zero_forcing_fixpoint(g, s_prime).fixed_point
    )


@given(graph_and_nested_sets())
@settings(max_examples=200, deadline=None)
def test_closed_neighborhood_monotone(data):
    g, s, s_prime = data
    assert closed_neighborhood(g, s).issubset(closed_neighborhood(g, s_prime))


@given(graph_and_nested_sets())
@settings(max_examples=200, deadline=None)
def test_forcing_chain_below_monitoring_chain(data):
    g, s, _ = data
    assert zero_forcing_fixpoint(g, s).fixed_point.issubset(
        monitored_fixpoint(g, s).fixed_point
    )


@given(graph_and_nested_sets())
@settings(max_examples=150, deadline=None)
def test_trace_is_a_strict_chain(data):
    g, s, _ = data
    for trace in (monitored_fixpoint(g, s), zero_forcing_fixpoint(g, s)):
        assert trace.stabilized_at <= g.n
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert a.issubset(b) and len(b) > len(a)


def reference_closure(g, start):
    """The last step of the reference chain `run_chain_bits`, checked
    against the oracle's zero-forcing chain."""
    closure = run_chain_bits(g.adjacency_masks(), start)[-1]
    assert closure == oracles.zf_closure_bits(g.n, g.edges(), start)
    return closure


@given(graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_fixpoint_from_a_fixed_point(g, data):
    adj = g.adjacency_masks()
    full = (1 << g.n) - 1
    masks = st.integers(min_value=0, max_value=full)
    closed = reference_closure(g, data.draw(masks))
    add = data.draw(masks)
    assert fixpoint_from(adj, closed, add) == reference_closure(g, closed | add)
    assert fixpoint_from(adj, closed, 0) == closed
    # the maximal-stalling loop's calls: N[S + v] grown from a stalled N[S]
    step0 = closed_neighborhood_bits(adj, data.draw(masks))
    if run_chain_bits(adj, step0) == [step0]:
        for v in range(g.n):
            grow = 1 << v | adj[v]
            assert fixpoint_from(adj, step0, grow) == reference_closure(g, step0 | grow)


@given(graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_fixpoint_from_stops_at_completing_vertices(g, data):
    adj = g.adjacency_masks()
    full = (1 << g.n) - 1
    closed = run_chain_bits(adj, data.draw(st.integers(min_value=0, max_value=full)))[-1]
    add = data.draw(st.integers(min_value=0, max_value=full))
    grown = run_chain_bits(adj, closed | add)[-1]
    # a closure that misses `stop` is not changed by it
    stop = data.draw(st.integers(min_value=0, max_value=full)) & ~grown
    assert fixpoint_from(adj, closed, add, stop) == grown
    # vertices that complete a subset of `closed`: meeting one means the
    # closure is the whole vertex set
    part = closed & data.draw(st.integers(min_value=0, max_value=full))
    stop = sum(1 << w for w in range(g.n) if run_chain_bits(adj, part | 1 << w)[-1] == full)
    if grown & stop:
        assert fixpoint_from(adj, closed, add, stop) == full
    else:
        assert fixpoint_from(adj, closed, add, stop) == grown
