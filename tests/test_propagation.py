import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from powerdom import (
    Classification,
    Graph,
    VertexSet,
    build_reduction,
    classify,
    generate,
    induced_subgraph,
    is_pds,
    lift_independent_set,
    monitored_fixpoint,
    parse_family,
    zero_forcing_fixpoint,
)
from powerdom import propagation
from powerdom.graphs import closed_neighborhood_bits
from powerdom.propagation import fixpoint_bits, fixpoint_from, run_chain_bits

import oracles
from contracts import assert_value_type

GRID = generate(parse_family("grid:6,6"))
FIG2_BLUE = [
    "02", "03", "04", "05",
    "13", "14", "15",
    "20", "24", "25",
    "30", "31", "35",
    "40", "41", "42",
    "50", "51", "52", "53",
]


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestMonitoredFixpoint:
    def test_grid_pds_fixture(self):
        s = GRID.set_of_labels(["04", "01"])
        trace = monitored_fixpoint(GRID, s)
        assert trace.fixed_point == GRID.full_set()

    def test_grid_stalled_fixture(self):
        s = GRID.set_of_labels(FIG2_BLUE)
        assert len(s) == 20
        trace = monitored_fixpoint(GRID, s)
        diagonal = GRID.set_of_labels(["00", "11", "22", "33", "44", "55"])
        assert trace.steps[0] == diagonal.complement()
        assert trace.stabilized_at == 0

    def test_empty_set(self):
        trace = monitored_fixpoint(cycle(5), VertexSet.empty(5))
        assert trace.steps == (VertexSet.empty(5),)
        assert trace.stabilized_at == 0

    def test_chain_matches_reference(self):
        rng = random.Random(21)
        for _ in range(60):
            n, edges = oracles.random_graph(rng, rng.randint(1, 9))
            g = Graph(n, edges)
            s = [v for v in range(n) if rng.random() < 0.3]
            got = monitored_fixpoint(g, VertexSet.of(n, s))
            want = oracles.pd_chain(n, edges, s)
            assert [frozenset(step) for step in got.steps] == want


class TestZeroForcingFixpoint:
    def test_path_forces_from_end(self):
        trace = zero_forcing_fixpoint(path(5), VertexSet.of(5, [0]))
        assert trace.fixed_point == VertexSet.full(5)

    def test_c4_opposite_pair_stalls(self):
        s = [0, 2]
        assert not oracles.is_zfs(4, cycle(4).edges(), s)  # each has 2 open neighbors
        trace = zero_forcing_fixpoint(cycle(4), VertexSet.of(4, s))
        assert trace.fixed_point == VertexSet.of(4, s)
        assert trace.stabilized_at == 0

    def test_k3_singleton_stalls(self):
        trace = zero_forcing_fixpoint(complete(3), VertexSet.of(3, [0]))
        assert trace.fixed_point.members() == [0]

    def test_chain_matches_reference(self):
        rng = random.Random(22)
        for _ in range(60):
            n, edges = oracles.random_graph(rng, rng.randint(1, 9))
            g = Graph(n, edges)
            s = [v for v in range(n) if rng.random() < 0.3]
            got = zero_forcing_fixpoint(g, VertexSet.of(n, s))
            want = oracles.zf_chain(n, edges, s)
            assert [frozenset(step) for step in got.steps] == want


# n = 9 and S = {5}: stalled, and every N[S + v] forces in its first round,
# yet N[{5, 0}] closes to {0, 1, 3, 4, 5, 6, 7}
ONLY_A_CLOSURE_DECIDES = (9, [(0, 5), (0, 6), (0, 7), (1, 3), (1, 4), (1, 5),
                              (2, 4), (3, 6), (4, 8)])


def count_closures(monkeypatch) -> list:
    """Record the arguments of every `fixpoint_from` call `classify` makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fixpoint_from(*args)

    monkeypatch.setattr(propagation, "fixpoint_from", counted)
    return calls


class TestClassify:
    def test_grid_fig2_verdict(self):
        verdict = classify(GRID, GRID.set_of_labels(FIG2_BLUE))
        assert not verdict.is_pds
        assert verdict.is_fpds
        assert verdict.is_spds
        assert verdict.properly_stalled

    def test_star_leaf(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not oracles.is_pds(4, star.edges(), [1])  # center keeps 2 dark neighbors
        verdict = classify(star, VertexSet.of(4, [1]))
        assert not verdict.is_pds and verdict.is_spds

    def test_k2_singleton(self):
        verdict = classify(complete(2), VertexSet.of(2, [0]))
        assert verdict.is_pds
        assert not verdict.is_fpds

    def test_maximally_stalled_definition(self, monkeypatch):
        # every S of each graph, against the oracle; a stalled S that is not
        # maximally stalled is decided by the one-round pass when some
        # augmentation stalls at once, and by a closure only when every one
        # forces, as on the pinned n = 9 graph with S = {5}.  The first
        # closure goes through `fixpoint_bits` on these graphs, so it calls
        # the unpatched `fixpoint_from` and only the loop's closures count
        closures = count_closures(monkeypatch)
        monkeypatch.setattr(propagation, "fixpoint_bits",
                            lambda adj, start: fixpoint_from(adj, 0, start))
        rng = random.Random(23)
        graphs = [oracles.random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.35, 0.5]))
                  for _ in range(40)]
        graphs.append(ONLY_A_CLOSURE_DECIDES)
        kinds = set()
        for n, edges in graphs:
            g = Graph(n, edges)
            for bits in range(1 << n):
                s = VertexSet(n, bits)
                closures.clear()
                verdict = classify(g, s)
                spds = len(oracles.pd_chain(n, edges, s.members())) == 1
                assert verdict.is_spds == spds
                expected_max = spds and all(
                    oracles.is_pds(n, edges, s.members() + [u])
                    for u in range(n)
                    if u not in s
                )
                assert verdict.maximally_stalled == expected_max
                if spds:
                    kinds.add("maximal" if expected_max else
                              "closure" if closures else "one round")
        assert kinds == {"one round", "closure", "maximal"}

    def test_one_round_pass_decides_without_closures(self, monkeypatch):
        # augmentations v = 0..25 of {8, 21} force along the ladder; v = 26
        # stalls at once, so no closure runs
        closures = count_closures(monkeypatch)
        g = generate(parse_family("ladder:50"))
        verdict = classify(g, VertexSet.of(g.n, [8, 21]))
        assert verdict.is_spds and not verdict.maximally_stalled
        assert closures == []

    def test_verdict_consistency(self):
        rng = random.Random(24)
        for _ in range(60):
            n, edges = oracles.random_graph(rng, rng.randint(1, 8))
            g = Graph(n, edges)
            s = VertexSet.of(n, [v for v in range(n) if rng.random() < 0.4])
            v = classify(g, s)
            assert v.is_fpds == (not v.is_pds)
            assert not v.properly_stalled or v.is_spds
            assert not v.maximally_stalled or v.is_spds
            assert v.is_pds == (v.monitored == g.full_set())
            assert v.is_pds == is_pds(g, s)


class TestInvariants:
    def test_fixpoint_monotonicity(self):
        rng = random.Random(25)
        for _ in range(100):
            n, edges = oracles.random_graph(rng, rng.randint(1, 10))
            g = Graph(n, edges)
            s = VertexSet.of(n, [v for v in range(n) if rng.random() < 0.3])
            s_prime = s | VertexSet.of(n, [v for v in range(n) if rng.random() < 0.3])
            assert monitored_fixpoint(g, s).fixed_point.issubset(
                monitored_fixpoint(g, s_prime).fixed_point
            )
            assert zero_forcing_fixpoint(g, s).fixed_point.issubset(
                zero_forcing_fixpoint(g, s_prime).fixed_point
            )

    def test_forcing_chain_inside_monitoring_chain(self):
        rng = random.Random(26)
        for _ in range(80):
            n, edges = oracles.random_graph(rng, rng.randint(1, 10))
            g = Graph(n, edges)
            s = VertexSet.of(n, [v for v in range(n) if rng.random() < 0.3])
            assert zero_forcing_fixpoint(g, s).fixed_point.issubset(
                monitored_fixpoint(g, s).fixed_point
            )

    def test_chain_strictly_grows_until_stable(self):
        rng = random.Random(27)
        for _ in range(80):
            n, edges = oracles.random_graph(rng, rng.randint(1, 10))
            g = Graph(n, edges)
            s = VertexSet.of(n, [v for v in range(n) if rng.random() < 0.3])
            trace = monitored_fixpoint(g, s)
            assert trace.stabilized_at <= n
            for a, b in zip(trace.steps, trace.steps[1:]):
                assert a.issubset(b)
                assert len(b) > len(a)

    def test_pds_complement_observation(self):
        # the step-0 shell around a PDS forces the rest of the graph
        rng = random.Random(28)
        for _ in range(60):
            n, edges = oracles.random_connected_graph(rng, rng.randint(2, 8))
            g = Graph(n, edges)
            s = VertexSet.of(n, [v for v in range(n) if rng.random() < 0.3])
            trace = monitored_fixpoint(g, s)
            if trace.fixed_point != g.full_set():
                continue
            shell = trace.steps[0] - s
            rest, index_map = induced_subgraph(g, s.complement())
            start = VertexSet.of(rest.n, [index_map.index(v) for v in shell])
            assert zero_forcing_fixpoint(rest, start).fixed_point == rest.full_set()

    def test_planted_forcing_subset_implies_pds(self):
        # plant configurations where some subset of a monitored step forces
        # the unmonitored remainder, and confirm the set is a PDS
        rng = random.Random(29)
        planted = 0
        while planted < 40:
            n, edges = oracles.random_connected_graph(rng, rng.randint(2, 8))
            g = Graph(n, edges)
            s = VertexSet.of(n, [v for v in range(n) if rng.random() < 0.35])
            trace = monitored_fixpoint(g, s)
            for step in trace.steps:
                s_prime = VertexSet.of(
                    n, [v for v in step if rng.random() < 0.6]
                )
                region = step.complement() | s_prime
                sub, index_map = induced_subgraph(g, region)
                start = VertexSet.of(sub.n, [index_map.index(v) for v in s_prime])
                if zero_forcing_fixpoint(sub, start).fixed_point == sub.full_set():
                    assert classify(g, s).is_pds
                    planted += 1
                    break


def agrees_with_bitmask_kernel(g: Graph, s: VertexSet) -> None:
    """Trace steps, the PDS test and every verdict of classify against the
    bitmask reference chain `run_chain_bits`, which shares no round with
    `fixpoint_from`, the closure of `is_pds` and the maximal-stalling loop."""
    adj, full = g.adjacency_masks(), (1 << g.n) - 1
    step0 = closed_neighborhood_bits(adj, s.bits)
    for trace, start in (
        (monitored_fixpoint(g, s), step0),
        (zero_forcing_fixpoint(g, s), s.bits),
    ):
        assert [step.bits for step in trace.steps] == run_chain_bits(adj, start)
        assert trace.stabilized_at == len(trace.steps) - 1
    closure = run_chain_bits(adj, step0)[-1]
    assert is_pds(g, s) == (closure == full)
    verdict = classify(g, s)
    assert verdict.monitored.bits == closure
    assert verdict.is_pds == (closure == full)
    assert verdict.is_fpds == (closure != full)
    assert verdict.is_spds == (closure == step0)
    assert verdict.properly_stalled == (closure == step0 != full)
    maximal = closure == step0 and all(
        run_chain_bits(adj, closed_neighborhood_bits(adj, s.bits | 1 << v))[-1] == full
        for v in range(g.n)
        if v not in s
    )
    assert verdict.maximally_stalled == maximal


GADGET_SOURCE = generate(parse_family("grid:3,3"))
GADGET = build_reduction(GADGET_SOURCE)


LARGE_SPARSE = ["path:300", "cycle:200", "ladder:50", "kxp:5,20", "gadget"]


def named_graph(spec: str) -> Graph:
    """A family spec's graph, or the reduction gadget over grid:3,3."""
    return GADGET.gprime if spec == "gadget" else generate(parse_family(spec))


@pytest.mark.parametrize("spec", LARGE_SPARSE)
def test_large_sparse_graphs_agree_with_bitmask_kernel(spec):
    g = named_graph(spec)
    rng = random.Random(f"differential {spec}")
    for k in range(1, 9):
        for _ in range(4):
            agrees_with_bitmask_kernel(g, g.vertex_set(rng.sample(range(g.n), k)))


@pytest.mark.parametrize("spec", LARGE_SPARSE)
def test_sets_of_more_than_half_agree_with_bitmask_kernel(spec):
    # a set of more than n/2 vertices is set up from the vertices outside
    # it; n // 2 and n // 2 + 1 members sit on either side of the switch
    g = named_graph(spec)
    rng = random.Random(f"large side {spec}")
    sets = [
        g.vertex_set(rng.sample(range(g.n), k)).complement()
        for k in range(9)
        for _ in range(4)
    ]
    sets += [g.vertex_set(rng.sample(range(g.n), g.n // 2 + d)) for d in (0, 1)]
    sets += [g.full_set() - g.vertex_set([v]) for v in (0, g.n - 1, rng.randrange(g.n))]
    for s in sets:
        agrees_with_bitmask_kernel(g, s)


def test_gadget_lifts_agree_with_bitmask_kernel(monkeypatch):
    # lifted independent sets are large and stalled, and lifts of maximal
    # ones are maximally stalled: classify's maximal-stalling loop runs.
    # A lift holds about 975 of the gadget's 994 vertices, so it is set up
    # from the unmonitored side, which never reads the degree counts.
    def walked(self):
        raise AssertionError("set up by walking the members of a lifted set")

    monkeypatch.setattr(Graph, "degrees", walked)
    for members, maximal in (([0, 2, 4, 6, 8], True), ([1, 3, 5, 7], True), ([0, 8], False)):
        lifted = lift_independent_set(GADGET, GADGET_SOURCE.vertex_set(members))
        agrees_with_bitmask_kernel(GADGET.gprime, lifted)
        assert classify(GADGET.gprime, lifted).maximally_stalled == maximal


def reference_closure(g: Graph, start: int) -> int:
    """The last step of the reference chain `run_chain_bits`, checked
    against the oracle's zero-forcing chain."""
    closure = run_chain_bits(g.adjacency_masks(), start)[-1]
    assert closure == oracles.zf_closure_bits(g.n, g.edges(), start)
    return closure


@pytest.mark.parametrize("spec", LARGE_SPARSE)
def test_large_sparse_closures_agree_with_reference_chain(spec):
    # `fixpoint_from` from scratch and grown from fixed points, as the scan
    # and the maximal-stalling loop grow it, against the reference chain.
    # From a path's end a closure runs 299 rounds of one-vertex frontiers.
    g = named_graph(spec)
    adj, full = g.adjacency_masks(), (1 << g.n) - 1
    rng = random.Random(f"closures {spec}")
    sets = [1, 1 << g.n - 1] + [g.vertex_set(rng.sample(range(g.n), k)).bits for k in range(1, 9)]
    fixed, stalled = [], 0
    for s in sets:
        for start in (s, closed_neighborhood_bits(adj, s)):
            closure = reference_closure(g, start)
            assert fixpoint_from(adj, 0, start) == closure
            assert fixpoint_from(adj, 0, start, rng.getrandbits(g.n) & ~closure) == closure
            if closure != full:
                fixed.append(closure)
                stalled += closure == start != s
    if spec == "gadget":
        # lifts of independent sets: large stalled N[S], the maximal one
        # closing with any N[v] added
        for members in ([0, 2, 4, 6, 8], [0, 8]):
            lifted = lift_independent_set(GADGET, GADGET_SOURCE.vertex_set(members))
            fixed.append(closed_neighborhood_bits(adj, lifted.bits))
            stalled += 1
    # no N[S] short of V stalls on a path or a cycle
    assert stalled or spec in ("path:300", "cycle:200")
    hits = 0
    for closed in fixed:
        assert fixpoint_from(adj, closed, 0) == closed
        outside = [v for v in range(g.n) if not closed >> v & 1]
        v = rng.choice(outside)
        add = 1 << v | adj[v]
        grown = reference_closure(g, closed | add)
        assert fixpoint_from(adj, closed, add) == grown
        # a `stop` the closure misses changes nothing
        assert fixpoint_from(adj, closed, add, rng.getrandbits(g.n) & ~grown) == grown
        # vertices that close the graph together with `closed`, met after
        # the first round: the closure returns V when it meets one
        stop = sum(1 << w for w in outside if run_chain_bits(adj, closed | 1 << w)[-1] == full)
        stop &= ~add
        hits += bool(grown & stop)
        assert fixpoint_from(adj, closed, add, stop) == grown
    assert hits or spec == "kxp:5,20"


def test_closures_of_the_smallest_graphs():
    assert run_chain_bits([], 0) == [0]
    assert fixpoint_from([], 0, 0) == 0
    assert fixpoint_from([0], 0, 0) == 0
    assert fixpoint_from([0], 0, 1) == 1
    assert fixpoint_from([0], 0, 1, 1) == 1
    assert fixpoint_from([0], 1, 0) == 1
    assert fixpoint_from([2, 1], 0, 1) == 3 == run_chain_bits([2, 1], 1)[-1]


class CountedMasks(tuple):
    """Adjacency masks that count how often a mask is read."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_a_stop_met_in_round_one_ends_the_closure():
    # on path:20, {10, 11} forces every vertex, so 11 may stop a closure
    # grown from the fixed point {10}; adding 9 forces 8 and 11 in round
    # one, and the closure returns V there instead of walking the path
    g = generate(parse_family("path:20"))
    reads = []
    for stop in (0, 1 << 11):
        adj = CountedMasks(g.adjacency_masks())
        assert fixpoint_from(adj, 1 << 10, 1 << 9, stop) == (1 << 20) - 1
        reads.append(adj.reads)
    assert reads[1] < reads[0]


def independent_sets(g: Graph) -> list:
    """Every independent set of g as a mask, with whether it is maximal."""
    adj = g.adjacency_masks()
    sets = []
    for bits in range(1 << g.n):
        if not any(bits >> v & 1 and adj[v] & bits for v in range(g.n)):
            sets.append((bits, all(bits >> v & 1 or adj[v] & bits for v in range(g.n))))
    return sets


def test_maximal_lifts_close_each_footprint_once(monkeypatch):
    # the footprint of v outside s is N[v] - N[s].  Outside N[s] for a lift
    # s lie the hub and the source vertices not in the independent set, each
    # its own footprint, and a subdivision vertex's footprint holds the hub.
    # On a maximal lift every footprint closes to V, so each vertex outside
    # N[s] closes once and every other footprint is skipped
    closures = count_closures(monkeypatch)
    g = GADGET.gprime
    maximal_lifts = 0
    for bits, maximal in independent_sets(GADGET_SOURCE):
        if maximal:
            s = lift_independent_set(GADGET, VertexSet(GADGET_SOURCE.n, bits))
            closures.clear()
            assert classify(g, s).maximally_stalled
            outside = g.full_set().bits & ~closed_neighborhood_bits(g.adjacency_masks(), s.bits)
            assert 5 <= outside.bit_count() <= 7
            assert sorted(add for _, _, add, _ in closures) == [
                1 << u for u in VertexSet(g.n, outside)]
            maximal_lifts += 1
    assert maximal_lifts == 10
    # 0's neighbors 1..6 are all adjacent to 7 and 8, which are adjacent:
    # every vertex outside {0} has the footprint {7, 8}, closed once.  The
    # first closure goes through `fixpoint_bits`, as in the definition test
    monkeypatch.setattr(propagation, "fixpoint_bits",
                        lambda adj, start: fixpoint_from(adj, 0, start))
    twins = Graph(9, [(0, w) for w in range(1, 7)]
                  + [(w, x) for w in range(1, 7) for x in (7, 8)] + [(7, 8)])
    closures.clear()
    assert classify(twins, VertexSet.of(9, [0])).maximally_stalled
    assert [add for _, _, add, _ in closures] == [1 << 7 | 1 << 8]


def test_maximal_lifts_try_each_footprint_for_one_round_once(monkeypatch):
    # the one-round test walks N[add] once per footprint add = N[v] - N[s]
    # that leaves N[s] + add short of V, not once per vertex v outside s.
    # A lift is closed first on the index kernel, which walks no N[.] mask,
    # so every call counted here is a one-round test
    calls = []

    def counted(adj, bits):
        calls.append(bits)
        return closed_neighborhood_bits(adj, bits)

    monkeypatch.setattr(propagation, "closed_neighborhood_bits", counted)
    g = GADGET.gprime
    n, nbhd = g.n, oracles.adj_of(g.n, g.edges())
    maximal_lifts = 0
    for bits, maximal in independent_sets(GADGET_SOURCE):
        if maximal:
            s = lift_independent_set(GADGET, VertexSet(GADGET_SOURCE.n, bits))
            closed = oracles.closed_nbhd(nbhd, set(s))
            footprints = {frozenset(oracles.closed_nbhd(nbhd, {v}) - closed)
                          for v in range(n) if v not in s}
            short = [a for a in footprints if len(closed | a) < n]
            calls.clear()
            assert classify(g, s).maximally_stalled
            assert len(calls) == len(short)
            maximal_lifts += 1
    assert maximal_lifts == 10


def test_maximally_stalled_agrees_with_its_definition(monkeypatch):
    # footprints repeat on stars and complete bipartite graphs, where the
    # vertices of one side share theirs, and nest on the gadgets, where a
    # subdivision vertex's holds the hub's: every set of the small graphs,
    # and the lift of every independent set of the gadgets' sources (n = 56)
    closures = count_closures(monkeypatch)
    cases = []
    for spec in ("kmn:1,1", "kmn:2,1", "kmn:3,1", "kmn:4,1", "kmn:5,1", "kmn:6,1", "kmn:4,3"):
        g = generate(parse_family(spec))
        cases += [(g, VertexSet(g.n, bits)) for bits in range(1 << g.n)]
    for spec in ("kmn:3,1", "path:4"):
        src = generate(parse_family(spec))
        red = build_reduction(src)
        assert red.gprime.n == 56
        cases += [(red.gprime, lift_independent_set(red, VertexSet(src.n, bits)))
                  for bits, _ in independent_sets(src)]
    kinds, ended_early = set(), 0
    for g, s in cases:
        closures.clear()
        verdict = classify(g, s)
        n, edges, members = g.n, g.edges(), s.members()
        spds = len(oracles.pd_chain(n, edges, members)) == 1
        maximal = spds and all(oracles.is_pds(n, edges, members + [v])
                               for v in range(n) if v not in s)
        assert (verdict.is_spds, verdict.maximally_stalled) == (spds, maximal)
        kinds.add((g.n, maximal) if spds else None)
        # a closure given a `stop` ends early when it meets one
        for adj, closed, add, *stop in closures:
            if stop and stop[0]:
                reads = []
                for vertices in (0, stop[0]):
                    counted = CountedMasks(adj)
                    fixpoint_from(counted, closed, add, vertices)
                    reads.append(counted.reads)
                ended_early += reads[1] < reads[0]
    assert {(56, True), (56, False)} <= kinds
    assert ended_early


@st.composite
def sparse_graph_and_set(draw, max_n=40):
    """Up to `max_n` vertices and at most twice as many edges, the last few
    vertices isolated, with the empty set, the whole vertex set, a drawn set
    or its complement, so sets of more and of fewer than n/2 vertices are
    drawn about equally often."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    isolated = draw(st.integers(min_value=0, max_value=min(n, 3)))
    g = Graph(n, [(u, v) for u, v in pairs if u != v and max(u, v) < n - isolated])
    s = draw(
        st.one_of(
            st.just(g.empty_set()),
            st.just(g.full_set()),
            st.sets(vertex, max_size=n).map(g.vertex_set),
            st.sets(vertex, max_size=n).map(lambda m: g.vertex_set(m).complement()),
        )
    )
    return g, s


@given(sparse_graph_and_set())
@settings(max_examples=300, deadline=None)
def test_random_graphs_agree_with_bitmask_kernel(data):
    agrees_with_bitmask_kernel(*data)


@pytest.mark.parametrize(
    "fn", [is_pds, classify, monitored_fixpoint, zero_forcing_fixpoint]
)
@pytest.mark.parametrize(
    "s", [VertexSet.of(3, [2]), VertexSet.of(9, [8])], ids=["smaller", "larger"]
)
def test_vertex_set_from_another_universe(fn, s):
    with pytest.raises(ValueError, match="universe size"):
        fn(path(5), s)


def circulant(n: int, steps, extra=()) -> Graph:
    return Graph(n, [(i, (i + d) % n) for i in range(n) for d in steps] + list(extra))


def disjoint_cycles(*lengths: int, isolated: int = 0) -> Graph:
    edges, base = [], 0
    for k in lengths:
        edges += [(base + i, base + (i + 1) % k) for i in range(k)]
        base += k
    return Graph(base + isolated, edges)


# `is_pds` and `classify` close N[s] on the graph's contracted view when it
# has one and s has at most n/2 members, otherwise on the graph itself, and
# take the index kernel when the graph they close on has n > 30 and
# 2m <= 6n.  Named graphs on both sides of each bound, with the route a set
# of at most n/2 vertices takes and the route the full set takes: "index",
# or the number of vertices the bitmask kernel closes on
KERNEL_ROUTE_GRAPHS = {
    "path:30": (named_graph("path:30"), 4, 30),
    "path:31": (named_graph("path:31"), 4, "index"),
    "empty:30": (named_graph("empty:30"), 30, 30),
    "empty:31": (named_graph("empty:31"), "index", "index"),
    "cycles 15+15": (disjoint_cycles(15, 15), 6, 30),
    "cycles 15+16": (disjoint_cycles(15, 16), 6, "index"),
    "cycles 14+15 + 3 isolated": (disjoint_cycles(14, 15, isolated=3), 9, "index"),
    # ten triangles in the view, then ten and an isolated vertex
    "cycles 10 x 5": (disjoint_cycles(*[5] * 10), 30, "index"),
    "cycles 10 x 5 + 1 isolated": (disjoint_cycles(*[5] * 10, isolated=1), "index", "index"),
    "circulant 30 (2m = 6n)": (circulant(30, (1, 2, 3)), 30, 30),
    "circulant 32 (2m = 6n)": (circulant(32, (1, 2, 3)), "index", "index"),
    "circulant 32 (2m = 6n + 2)": (circulant(32, (1, 2, 3), [(0, 16)]), 32, 32),
    "complete:31": (named_graph("complete:31"), 31, 31),
    "complete:40": (named_graph("complete:40"), 40, 40),
    # a dense view: K40 and a pendant path of 30 kept as two vertices and a leaf
    "complete:40 + pendant 30": (Graph(*oracles.with_path(40, named_graph("complete:40").edges(),
                                                          30, (0,))), 43, 70),
    "kmn:20,20": (named_graph("kmn:20,20"), 40, 40),
    "kxp:10,10": (named_graph("kxp:10,10"), 100, 100),
    "ladder:12": (named_graph("ladder:12"), 24, 24),
    "grid:6,6": (named_graph("grid:6,6"), "index", "index"),
    "path:300": (named_graph("path:300"), 4, "index"),
    "gadget": (named_graph("gadget"), "index", "index"),
}


def count_fixpoint_bits(monkeypatch) -> list:
    """Record the arguments of every `propagation.fixpoint_bits` call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fixpoint_bits(*args)

    monkeypatch.setattr(propagation, "fixpoint_bits", counted)
    return calls


def sets_across_the_halfway_switch(g: Graph, rng: random.Random) -> list:
    """The empty and the full set, sets of 1 to 8 vertices, their
    complements, and sets of n // 2 and n // 2 + 1 vertices."""
    small = [g.vertex_set(rng.sample(range(g.n), min(k, g.n))) for k in range(1, 9)]
    sets = [g.empty_set(), g.full_set(), *small, *(s.complement() for s in small)]
    sets += [g.vertex_set(rng.sample(range(g.n), g.n // 2 + d)) for d in (0, 1)]
    return sets


@pytest.mark.parametrize("name", KERNEL_ROUTE_GRAPHS)
def test_is_pds_on_both_sides_of_the_kernel_rule(name):
    # against the reference chain and the oracle, on both kernels, with
    # sets on both sides of the index kernel's n/2 set-up switch
    g = KERNEL_ROUTE_GRAPHS[name][0]
    adj, full, edges = g.adjacency_masks(), (1 << g.n) - 1, g.edges()
    rng = random.Random(f"kernel rule {name}")
    for s in sets_across_the_halfway_switch(g, rng):
        want = run_chain_bits(adj, closed_neighborhood_bits(adj, s.bits))[-1] == full
        assert want == oracles.is_pds(g.n, edges, s.members())
        assert is_pds(g, s) == want


def test_is_pds_on_random_graphs_around_the_kernel_rule(monkeypatch):
    # n from 28 to 34 at densities on both sides of 2m = 6n, connected or
    # not; both kernels run, each on g and on a view
    rng = random.Random(30)
    calls, routes = count_fixpoint_bits(monkeypatch), set()
    for _ in range(60):
        n, edges = oracles.random_graph(rng, rng.randint(28, 34), rng.choice([0.05, 0.15, 0.3]))
        g = Graph(n, edges)
        adj, full = g.adjacency_masks(), (1 << g.n) - 1
        for s in sets_across_the_halfway_switch(g, rng):
            want = run_chain_bits(adj, closed_neighborhood_bits(adj, s.bits))[-1] == full
            calls.clear()
            assert is_pds(g, s) == want
            view = g.contracted_view() is not None and 2 * len(s) <= g.n
            routes.add(("bitmask" if calls else "index", view))
    assert routes == {(kernel, view) for kernel in ("bitmask", "index") for view in (False, True)}


@pytest.mark.parametrize("name", KERNEL_ROUTE_GRAPHS)
def test_is_pds_reaches_fixpoint_bits_only_on_small_or_dense_graphs(monkeypatch, name):
    """`is_pds` and `classify` close N[s] through `propagation.fixpoint_bits`,
    once per call, when the graph they close on has at most 30 vertices or
    average degree above 6, and on the index kernel, with no such call,
    otherwise; the length of `adj` tells which graph was closed on.
    perfbench's traced probe times the propagation layer's fixpoint through
    the `is_pds(ladder:12)` calls, so ladder:12 must stay on this route."""
    g, small, whole = KERNEL_ROUTE_GRAPHS[name]
    want = [route for route in (small, small, whole) if route != "index"]
    for verdict in (is_pds, classify):
        calls = count_fixpoint_bits(monkeypatch)
        for s in (g.empty_set(), g.vertex_set([0]), g.full_set()):
            verdict(g, s)
        assert [len(adj) for adj, _ in calls] == want, verdict.__name__


@pytest.mark.parametrize("name", ["ladder:12", "empty:31", "path:31", "gadget"],
                         ids=["bitmask", "index", "bitmask on a view", "index on a view"])
@pytest.mark.parametrize("d", [-1, 1], ids=["smaller", "larger"])
def test_is_pds_refuses_a_set_from_another_universe_on_either_kernel(name, d):
    # a one-vertex set of the graph's own universe would take the named
    # route; `classify` refuses too
    g = KERNEL_ROUTE_GRAPHS[name][0]
    for verdict in (is_pds, classify):
        with pytest.raises(ValueError, match="universe size"):
            verdict(g, VertexSet.of(g.n + d, [g.n + d - 1]))


@pytest.mark.parametrize("n, members, pds", [(0, [], True), (1, [], False), (1, [0], True)],
                         ids=["n = 0", "n = 1, empty set", "n = 1, full set"])
def test_graphs_of_zero_and_one_vertex(n, members, pds):
    # every set stalls at once, and is maximally stalled: the only
    # augmentation of the empty set of K1 is a PDS
    g, s = Graph(n), VertexSet.of(n, members)
    assert is_pds(g, s) is pds
    assert classify(g, s).to_json_dict() == {
        "is_pds": pds, "is_fpds": not pds, "is_spds": True,
        "properly_stalled": not pds, "maximally_stalled": True, "monitored": members}
    for trace in (monitored_fixpoint, zero_forcing_fixpoint):
        assert trace(g, s).to_json_dict() == {
            "kind": trace(g, s).kind, "steps": [members], "stabilized_at": 0}


# -- degree-2 paths and the contracted view ---------------------------------
#
# `classify`'s first closure, and `is_pds` on the index kernel, close on
# `Graph.contracted_view`, which shortens every path of three or more
# degree-2 vertices to two, so graphs made mostly of such vertices close on
# a few vertices.


def subdivided(n: int, edges, inner) -> Graph:
    """Each edge (u, v) replaced by a path through `inner[i]` new vertices."""
    out, m = [], n
    for (u, v), k in zip(edges, inner):
        chain = [u, *range(m, m + k), v]
        m += k
        out += zip(chain, chain[1:])
    return Graph(m, out)


def spider(*legs: int) -> Graph:
    """Vertex 0 with a path of each given length hanging from it; leg i
    ends at vertex sum(legs[:i + 1])."""
    edges, base = [], 0
    for k in legs:
        chain = [0, *range(base + 1, base + k + 1)]
        base += k
        edges += zip(chain, chain[1:])
    return Graph(base + 1, edges)


def walk_agrees(g: Graph, s: VertexSet) -> None:
    """`agrees_with_bitmask_kernel`, and the closures of `is_pds` and
    `classify`, taken on the contracted view where g has one, against the
    oracle's chain on g itself."""
    agrees_with_bitmask_kernel(g, s)
    closure = oracles.pd_chain(g.n, g.edges(), s.members())[-1]
    assert is_pds(g, s) == (len(closure) == g.n)
    assert classify(g, s).monitored.bits == sum(1 << v for v in closure)


WALK_GRAPHS = {
    "K3": complete(3),
    "cycles 3+4+40": disjoint_cycles(3, 4, 40),
    "cycles 3+3+5 + 2 isolated": disjoint_cycles(3, 3, 5, isolated=2),
    "path:41": path(41),
    "spider 1,10,10": spider(1, 10, 10),
    "spider 1,20,20,20": spider(1, 20, 20, 20),
    "theta 12,12,12": subdivided(2, [(0, 1)] * 3, [12, 12, 12]),
    "K4 subdivided 3 times": subdivided(4, [(u, v) for u in range(4) for v in range(u)], [3] * 6),
}


@pytest.mark.parametrize("name", WALK_GRAPHS)
def test_degree_two_walks_agree_with_bitmask_kernel(name):
    # both sides of `is_pds`'s n > 30 rule and of `_start`'s n/2 switch
    g = WALK_GRAPHS[name]
    rng = random.Random(f"walks {name}")
    for s in sets_across_the_halfway_switch(g, rng):
        walk_agrees(g, s)


def test_subdivided_random_graphs_agree_with_bitmask_kernel():
    # each edge of a random graph subdivided 0 to 3 times, with pendant
    # paths hung from random vertices
    rng = random.Random(22)
    routes = set()
    for _ in range(40):
        n, edges = oracles.random_graph(rng, rng.randint(2, 12), rng.choice([0.2, 0.4, 0.7]))
        pendants = [(rng.randrange(n), n + i) for i in range(rng.randint(0, 3))]
        g = subdivided(n + len(pendants), edges + pendants,
                       [rng.randint(0, 3) for _ in edges] + [rng.randint(0, 8) for _ in pendants])
        routes.add(g.n > 30)
        for s in sets_across_the_halfway_switch(g, rng):
            walk_agrees(g, s)
    assert routes == {True, False}


@pytest.mark.parametrize(
    "g, members, pds",
    [
        # N[{0}] = {199, 0, 1} forces round the cycle, a triangle in the view
        (cycle(200), [0], True),
        # the forcing from N[5] and from N[30] meets between them
        (path(41), [5, 30], True),
        # N[1] monitors the center 0, which keeps two unmonitored
        # neighbors; forcing up the leg 41..22 brings it down to one, so
        # the center forces the leg 2..21
        (spider(1, 20, 20), [1, 41], True),
        # with a fourth leg the center's count stops at two
        (spider(1, 20, 20, 20), [1, 61], False),
        # K3 is monitored at step 0 and C40 is not reached
        (disjoint_cycles(3, 40), [0], False),
        (disjoint_cycles(3, 40), [0, 3], True),
    ],
    ids=["round a cycle", "walks meet", "count drops to one", "count stays at two",
         "K3 only", "K3 and C40"],
)
def test_degree_two_walk_cases(g, members, pds):
    s = g.vertex_set(members)
    walk_agrees(g, s)
    assert is_pds(g, s) == classify(g, s).is_pds == pds


def test_degree_two_walks_skip_the_worklist(monkeypatch):
    # path:300 and cycle:200 close on views of 4 and 3 vertices, through
    # `fixpoint_bits`, so no worklist is built; closed on the graph itself,
    # either would take the index kernel, whose worklist is popped once per
    # vertex forced, hundreds of times
    starts = []
    monkeypatch.setattr(propagation, "_start", lambda *args: starts.append(args))
    calls = count_fixpoint_bits(monkeypatch)
    for spec in ("path:300", "cycle:200"):
        g = named_graph(spec)
        assert is_pds(g, g.vertex_set([0])) and classify(g, g.vertex_set([0])).is_pds
    assert [len(adj) for adj, _ in calls] == [4, 4, 3, 3]
    assert starts == []


@pytest.mark.parametrize(
    "spec, size",
    [("path:300", 4), ("cycle:200", 3), ("gadget", 58),
     ("grid:10,10", None), ("ladder:50", None), ("kxp:5,20", None)],
)
def test_contracted_view_sizes(spec, size):
    # path:300 keeps its two leaves and its first and last inner vertex,
    # cycle:200 becomes a triangle, each of the gadget's 12 pendant paths
    # keeps 3 of its 81 vertices; the other stream graphs have no view
    g = named_graph(spec)
    assert view_size(g) == (size or g.n)


def view_size(g: Graph) -> int:
    """The number of vertices of g's contracted view, or g.n if it has
    none, once the view is checked to partition g's vertices."""
    view = g.contracted_view()
    if view is None:
        return g.n
    h, keep, stands = view
    assert len(keep) == g.n and len(stands) == h.n
    # the masks partition V, and each vertex maps to the mask holding it
    union = 0
    for mask in stands:
        union |= mask
    assert union == (1 << g.n) - 1 and sum(m.bit_count() for m in stands) == g.n
    assert all(stands[keep[v]] >> v & 1 for v in range(g.n))
    # a view vertex has the degree of the vertices it stands for, so no
    # two edges of the view fell together
    for u, mask in enumerate(stands):
        assert h.degree(u) == g.degree((mask & -mask).bit_length() - 1)
    return h.n


K4 = (4, [(u, v) for u in range(4) for v in range(u)])
TWO_K4 = (8, K4[1] + [(u + 4, v + 4) for u, v in K4[1]])


def theta(*lengths: int):
    """Vertices 0 and 1 joined by one path of each given length."""
    n, edges = 2, []
    for k in lengths:
        n, edges = oracles.with_path(n, edges, k, (0, 1))
    return n, edges


def lone_cycle(n, edges, k: int):
    """(n, edges) beside a cycle of k new vertices."""
    return oracles.with_path(*oracles.with_path(n, edges, 1), k - 1, (n, n))


# name -> (graph, how many vertices its view drops): a path of k >= 3
# degree-2 vertices keeps 2, a cycle of k >= 4 degree-2 vertices keeps 3
VIEW_SHAPES = {
    **{f"returning path {k}": (oracles.with_path(*K4, k, (0, 0)), max(k - 2, 0))
       for k in (2, 3, 4, 5)},
    **{f"cycle {k}": (lone_cycle(0, [], k), max(k - 3, 0)) for k in (3, 4, 5)},
    **{f"cycle {k} beside K4": (lone_cycle(*K4, k), max(k - 3, 0)) for k in (3, 4, 5)},
    "theta 1,2,3": (theta(1, 2, 3), 1),
    "theta 3,3,3": (theta(3, 3, 3), 3),
    "theta 1,4,6": (theta(1, 4, 6), 6),
    **{f"ends adjacent {k}": (oracles.with_path(*K4, k, (0, 1)), max(k - 2, 0))
       for k in (1, 2, 3, 5)},
    # k vertices hung from 0, the last a leaf: k - 1 of degree 2
    **{f"pendant {k}": (oracles.with_path(*K4, k, (0,)), max(k - 3, 0))
       for k in (1, 2, 3, 4, 7)},
    **{f"bridge {k}": (oracles.with_path(*TWO_K4, k, (0, 4)), max(k - 2, 0))
       for k in (1, 2, 3)},
}
# each shape again with a pendant path of 30 from vertex 1, so n > 30 and
# `is_pds` takes the index kernel too
VIEW_SHAPES.update({
    f"{name} + pendant 30": (oracles.with_path(n, edges, 30, (1,)), drops + 27)
    for name, ((n, edges), drops) in list(VIEW_SHAPES.items())
})


def reference_classification(g: Graph, s: VertexSet) -> Classification:
    """`classify`'s verdicts from `fixpoint_bits`, its closure checked
    against the oracle's chain."""
    adj, full = g.adjacency_masks(), (1 << g.n) - 1
    step0 = closed_neighborhood_bits(adj, s.bits)
    closure = fixpoint_bits(adj, step0)
    chain = oracles.pd_chain(g.n, g.edges(), s.members())
    assert closure == sum(1 << v for v in chain[-1])
    spds = closure == step0
    maximal = spds and all(
        fixpoint_bits(adj, closed_neighborhood_bits(adj, s.bits | 1 << v)) == full
        for v in range(g.n)
        if v not in s
    )
    return Classification(is_pds=closure == full, is_fpds=closure != full,
                          is_spds=spds, properly_stalled=spds and closure != full,
                          maximally_stalled=maximal, monitored=VertexSet(g.n, closure))


@pytest.mark.parametrize("name", VIEW_SHAPES)
def test_contracted_view_agrees_with_references(name):
    # vertices renumbered at random, so no path runs along consecutive
    # indices; every set of a graph of at most 9 vertices, otherwise sets
    # on both sides of n/2, above which the closure runs on g itself
    (n, edges), drops = VIEW_SHAPES[name]
    rng = random.Random(f"view {name}")
    g = Graph(*oracles.relabelled(rng, n, edges))
    assert view_size(g) == g.n - drops
    if g.n <= 9:
        sets = [VertexSet(g.n, bits) for bits in range(1 << g.n)]
    else:
        sets = sets_across_the_halfway_switch(g, rng)
    for s in sets:
        want = reference_classification(g, s)
        assert is_pds(g, s) == want.is_pds
        assert classify(g, s) == want


# Traces along the paths of `Graph.chain_table`, step for step against the
# oracle's chains and `run_chain_bits`.  Each shape is (n, edges, paths),
# a path listed as its vertices a, z1, ..., zk, b, without an end that is
# missing: a path hung from a stops at its leaf, one left apart has none.


def with_paths(n, edges, *specs):
    """(n, edges) with a path of k new vertices for each (k, ends) of
    `specs`, as `oracles.with_path` adds it, and the list of those paths."""
    paths = []
    for k, ends in specs:
        paths.append([*ends[:1], *range(n, n + k), *ends[1:]])
        n, edges = oracles.with_path(n, edges, k, ends)
    return n, edges, paths


def cycle_beside(n, edges, k):
    """`lone_cycle`, and the cycle as a path from its anchor n round to
    itself."""
    return (*lone_cycle(n, edges, k), [[n, *range(n + 1, n + k), n]])


TRACE_SHAPES = {
    **{f"cycle {k}": cycle_beside(0, [], k) for k in range(3, 9)},
    **{f"cycle {k} beside K4": cycle_beside(*K4, k) for k in range(3, 9)},
    **{f"ends adjacent {k}": with_paths(*K4, (k, (0, 1))) for k in (2, 3, 4, 6)},
    **{f"pendant {k}": with_paths(*K4, (k, (0,))) for k in (3, 4, 5, 7)},
    **{f"returning path {k}": with_paths(*K4, (k, (0, 0))) for k in (3, 4, 6)},
    **{f"path {k} apart from K4": with_paths(*K4, (k, ())) for k in (3, 4, 7)},
    "theta 3,3,3": with_paths(2, [], *[(3, (0, 1))] * 3),
    "theta 1,4,6": with_paths(2, [], (1, (0, 1)), (4, (0, 1)), (6, (0, 1))),
    "two paths on K4, one hung": with_paths(*K4, (5, (0, 2)), (4, (3,))),
}


def path_sets(n, paths, rng: random.Random) -> list:
    """The empty and the full set; each vertex of a path alone, and each
    two adjacent ones; members on its two ends, and on the vertices next
    to them; their complements, and random sets of more than n/2
    vertices."""
    sets = [[], list(range(n))]
    for path in paths:
        sets += [[v] for v in path] + [list(pair) for pair in zip(path, path[1:])]
        sets += [[path[0], path[-1]], [path[1], path[-2]], [path[0], path[-2]],
                 [path[1], path[-1]]]
    sets += [[v for v in range(n) if v not in members] for members in sets[2:]]
    sets += [rng.sample(range(n), n // 2 + 1 + rng.randrange(n - n // 2)) for _ in range(8)]
    return sets


def traces_agree(g: Graph, members) -> None:
    """Both traces of `members` against the oracle's chains and
    `run_chain_bits`, step for step."""
    s, adj = g.vertex_set(members), g.adjacency_masks()
    for trace, chain, start in (
        (monitored_fixpoint(g, s), oracles.pd_chain, closed_neighborhood_bits(adj, s.bits)),
        (zero_forcing_fixpoint(g, s), oracles.zf_chain, s.bits),
    ):
        bits = [step.bits for step in trace.steps]
        assert bits == run_chain_bits(adj, start), (trace.kind, members)
        assert [frozenset(step) for step in trace.steps] == chain(g.n, g.edges(), members)
        assert trace.stabilized_at == len(bits) - 1


@pytest.mark.parametrize("name", TRACE_SHAPES)
def test_traces_along_paths_agree_with_references(name):
    # vertices renumbered at random, so no path runs along consecutive
    # indices
    n, edges, paths = TRACE_SHAPES[name]
    rng = random.Random(f"traces {name}")
    sets = path_sets(n, paths, rng)
    n, edges, sets = oracles.relabelled_with_sets(rng, n, edges, sets)
    g = Graph(n, edges)
    for members in sets:
        traces_agree(g, members)


def test_traces_on_subdivided_random_graphs_agree_with_references():
    # each edge of a random graph subdivided 0 to 5 times, with pendant
    # paths hung from random vertices, renumbered at random
    rng = random.Random(25)
    for _ in range(30):
        n, edges = oracles.random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.6]))
        pendants = [(rng.randrange(n), n + i) for i in range(rng.randint(0, 2))]
        g = subdivided(n + len(pendants), edges + pendants,
                       [rng.randint(0, 5) for _ in edges] + [rng.randint(2, 7) for _ in pendants])
        g = Graph(*oracles.relabelled(rng, g.n, g.edges()))
        sets = [[], list(range(g.n))]
        sets += [rng.sample(range(g.n), min(rng.randint(1, 3), g.n)) for _ in range(6)]
        sets += [rng.sample(range(g.n), max(g.n - rng.randint(1, 3), 0)) for _ in range(4)]
        for members in sets:
            traces_agree(g, members)


@pytest.mark.parametrize("source", ["path:3", "complete:3", "grid:3,3"])
def test_traces_on_faithful_gadgets_agree_with_references(source):
    # the lifts of independent sets hold every pendant-path vertex: more
    # than n/2 of the gadget's vertices
    src = generate(parse_family(source))
    red = build_reduction(src)
    g, rng = red.gprime, random.Random(f"gadget {source}")
    independent = [members for members in ([], [0], [0, 2], [0, 2, 4, 6, 8])
                   if max(members, default=0) < src.n
                   and not any(src.has_edge(u, v) for u in members for v in members)]
    sets = [lift_independent_set(red, src.vertex_set(members)).members()
            for members in independent]
    sets += [rng.sample(range(g.n), k) for k in (1, 2, 5)] + [[red.hub]]
    if g.n < 100:
        sets += [[red.path_vertex(e, i)] for e in range(red.source_m) for i in (1, 2, red.path_len)]
        sets += [[v for v in range(g.n) if v not in members] for members in sets]
    for members in sets:
        traces_agree(g, members)


class CountedLists(tuple):
    """Neighbor lists that count how often a list is read."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_traces_count_rounds_along_paths(monkeypatch):
    # path:300 is one chain, its leaves riding along, and cycle:200 one
    # chain round vertex 0: a trace from one vertex reads a few neighbor
    # lists in its set-up and first round and counts the rest, where the
    # round loop would read one or two for each of the hundreds of
    # vertices it forces
    lists = []
    adjacency_lists = Graph.adjacency_lists
    monkeypatch.setattr(Graph, "adjacency_lists",
                        lambda g: lists.append(CountedLists(adjacency_lists(g))) or lists[-1])
    for spec, members, rounds in (("path:300", [150], [149, 0]), ("path:300", [0], [298, 299]),
                                  ("cycle:200", [100], [99, 0]), ("cycle:200", [0, 1], [98, 99])):
        g = named_graph(spec)
        s = g.vertex_set(members)
        traces = [monitored_fixpoint(g, s), zero_forcing_fixpoint(g, s)]
        assert [trace.stabilized_at for trace in traces] == rounds
        assert traces[0].fixed_point == g.full_set()
        assert max(counted.reads for counted in lists[-2:]) <= 12, (spec, members)


@pytest.mark.parametrize(
    "copy_of",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_trace_steps_are_plain_vertex_sets(copy_of):
    # the traces build their steps without the constructor's range check
    small, large = VertexSet.of(36, [0, 35]), GRID.full_set() - VertexSet.of(36, [14])
    traces = [monitored_fixpoint(GRID, small), zero_forcing_fixpoint(GRID, small),
              monitored_fixpoint(GRID, large),
              zero_forcing_fixpoint(path(5), VertexSet.of(5, [0]))]
    for trace in traces:
        for step in trace.steps:
            public = VertexSet.of(step.n, step.members())
            assert type(step) is VertexSet and repr(step) == repr(public)
            assert step == public and hash(step) == hash(public)
            twin = copy_of(step)
            assert type(twin) is VertexSet and twin == public and hash(twin) == hash(public)
            with pytest.raises(AttributeError):
                step.bits = 0


def test_trace_json():
    trace = monitored_fixpoint(path(3), VertexSet.of(3, [0]))
    assert_value_type(trace, monitored_fixpoint(path(3), VertexSet.of(3, [0])),
                      ("kind", "steps", "stabilized_at"))
    assert trace.fixed_point == VertexSet.of(3, [0, 1, 2])
    payload = trace.to_json_dict()
    assert payload["kind"] == "power-domination"
    assert payload["steps"][0] == [0, 1]
    assert payload["stabilized_at"] == len(payload["steps"]) - 1
    assert payload == {"kind": "power-domination", "steps": [[0, 1], [0, 1, 2]],
                       "stabilized_at": 1}


def test_classification_json():
    verdict = classify(path(3), VertexSet.of(3, [1]))
    assert_value_type(verdict, classify(path(3), VertexSet.of(3, [1])),
                      ("is_pds", "is_fpds", "is_spds", "properly_stalled",
                       "maximally_stalled", "monitored"))
    payload = verdict.to_json_dict()
    assert payload["is_pds"] is True
    assert payload["monitored"] == [0, 1, 2]
    assert payload == {"is_pds": True, "is_fpds": False, "is_spds": True,
                       "properly_stalled": False, "maximally_stalled": True,
                       "monitored": [0, 1, 2]}
