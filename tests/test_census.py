"""Exhaustive checks on every graph with 1 to 7 vertices, one graph per
isomorphism class (`census.py`).  Where the random sweeps of the other
suites sample, these enumerate: the paper's extremal characterization,
its cut-vertex theorem, gamma_bar_p <= F, every solver against the
per-subset reference scan (F on either route), and every verdict of
`classify` on every set of every graph with n <= 6; the budget sweep of
every graph with n <= 6 is in `test_solvers.py`."""

from collections import Counter
from functools import lru_cache
from itertools import combinations

import pytest

from powerdom import (
    Graph,
    VertexSet,
    classify,
    domination_number,
    extremal_gamma_bar,
    failed_zero_forcing_number,
    gamma_bar_p,
    gamma_p,
    max_independent_set,
    zero_forcing_number,
)
from powerdom import solvers

import census
import oracles

SIZES = range(1, 8)
SOLVERS = [gamma_p, gamma_bar_p, zero_forcing_number, failed_zero_forcing_number,
           domination_number, max_independent_set]

# {gamma_bar_p: number of graphs} on n vertices
GAMMA_BAR_HISTOGRAMS = {
    1: {0: 1},
    2: {0: 1, 1: 1},
    3: {0: 2, 2: 2},
    4: {0: 4, 1: 2, 2: 1, 3: 4},
    5: {0: 7, 1: 9, 2: 5, 3: 2, 4: 11},
    6: {0: 18, 1: 42, 2: 32, 3: 23, 4: 7, 5: 34},
    7: {0: 47, 1: 256, 2: 271, 3: 172, 4: 119, 5: 23, 6: 156},
}


@lru_cache(maxsize=None)
def failed_values(n):
    """(graph, gamma_bar_p, F) for every graph on n vertices."""
    out = []
    for edges in census.graphs(n):
        g = Graph(n, edges)
        out.append((g, gamma_bar_p(g).value, failed_zero_forcing_number(g).value))
    return out


def test_one_graph_per_isomorphism_class():
    # OEIS A000088
    assert [len(census.graphs(n)) for n in SIZES] == [1, 2, 4, 11, 34, 156, 1044]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_labelled_graph_is_isomorphic_to_exactly_one(n):
    # brute force over all permutations, against every labelled graph
    reps = census.graphs(n)
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        assert sum(oracles.isomorphic(n, edges, rep) for rep in reps) == 1, edges


@pytest.mark.parametrize("n", SIZES)
def test_gamma_bar_histogram(n):
    assert Counter(value for _, value, _ in failed_values(n)) == GAMMA_BAR_HISTOGRAMS[n]


@pytest.mark.parametrize("n", SIZES)
def test_criterion_7_on_every_graph(n):
    # gamma_bar_p is n - 1, n - 2 or n - 3 exactly when the characterization
    # fires, and then it gives the value
    for g, value, _ in failed_values(n):
        predicted = extremal_gamma_bar(g)
        assert (predicted is not None) == (value in {n - 1, n - 2, n - 3}), g.edges()
        assert predicted is None or predicted == value, g.edges()


def test_criterion_9_on_every_connected_graph():
    # a connected graph with gamma_bar_p = 0 has a pendant or a cut vertex
    # only if it is a path, and connectivity >= 2 if it is not one; the
    # cut vertices and the connectivity by brute force
    zero = non_paths = 0
    for n in SIZES:
        for g, value, _ in failed_values(n):
            edges = g.edges()
            if value or not oracles.is_connected(n, edges):
                continue
            zero += 1
            degrees = Counter(v for edge in edges for v in edge)
            path = len(edges) == n - 1 and max(degrees.values(), default=0) <= 2
            if 1 in degrees.values() or oracles.brute_cut_vertices(n, edges):
                assert path, edges
            if not path:
                non_paths += 1
                assert oracles.brute_connectivity(n, edges) >= 2, edges
    assert (zero, non_paths) == (80, 73)


@pytest.mark.parametrize("n", SIZES)
def test_gamma_bar_at_most_failed_zero_forcing(n):
    for g, value, f in failed_values(n):
        assert value <= f, g.edges()


@pytest.mark.parametrize("n", range(2, 8))
def test_gamma_bar_n_minus_1_exactly_on_an_isolated_vertex(n):
    # an isolated vertex beside any graph on n - 1 vertices, one graph each
    hits = sum(value == n - 1 for _, value, _ in failed_values(n))
    assert hits == len(census.graphs(n - 1))


@pytest.mark.parametrize("n", SIZES)
def test_solvers_match_the_reference_scan(n):
    for edges in census.graphs(n):
        g = Graph(n, edges)
        for solve in SOLVERS:
            res = solve(g)
            got = (res.value, tuple(res.witness.members()), res.propagation_calls)
            want = oracles.reference_solve(solve.__name__, n, edges)
            assert got == want, (solve.__name__, edges)


@pytest.mark.parametrize("n", SIZES)
def test_fort_route_matches_the_reference_scan(n):
    # F forced onto the fort route, which it takes by itself only at
    # minimum degree 4, on 34 of these 1,252 graphs
    for edges in census.graphs(n):
        res = solvers._solve(Graph(n, edges), "failed_zero_forcing_number",
                             solvers.fixpoint_from, False, solvers.DEFAULT_BUDGET, forts=True)
        got = (res.value, tuple(res.witness.members()), res.propagation_calls)
        assert got == oracles.reference_solve("failed_zero_forcing_number", n, edges), edges


@pytest.mark.parametrize("n", range(1, 7))
def test_classify_matches_the_definitions_on_every_set(n):
    for edges in census.graphs(n):
        g = Graph(n, edges)
        for bits in range(1 << n):
            s = VertexSet(n, bits)
            members = s.members()
            chain = oracles.pd_chain(n, edges, members)
            pds, spds = len(chain[-1]) == n, len(chain) == 1
            maximal = spds and all(oracles.is_pds(n, edges, members + [v])
                                   for v in range(n) if v not in s)
            verdict = classify(g, s)
            assert verdict == (pds, not pds, spds, spds and not pds, maximal,
                               VertexSet.of(n, chain[-1])), (edges, members)
