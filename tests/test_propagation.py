import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from powerdom import (
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
from powerdom.propagation import fixpoint_from, run_chain_bits

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
        # forces, as on the pinned n = 9 graph with S = {5}
        closures = count_closures(monkeypatch)
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


def large_sparse_graph(spec: str) -> Graph:
    return GADGET.gprime if spec == "gadget" else generate(parse_family(spec))


@pytest.mark.parametrize("spec", LARGE_SPARSE)
def test_large_sparse_graphs_agree_with_bitmask_kernel(spec):
    g = large_sparse_graph(spec)
    rng = random.Random(f"differential {spec}")
    for k in range(1, 9):
        for _ in range(4):
            agrees_with_bitmask_kernel(g, g.vertex_set(rng.sample(range(g.n), k)))


@pytest.mark.parametrize("spec", LARGE_SPARSE)
def test_sets_of_more_than_half_agree_with_bitmask_kernel(spec):
    # a set of more than n/2 vertices is set up from the vertices outside
    # it; n // 2 and n // 2 + 1 members sit on either side of the switch
    g = large_sparse_graph(spec)
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
    g = large_sparse_graph(spec)
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
