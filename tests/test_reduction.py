import random
from itertools import combinations

import pytest

from powerdom import (
    DisconnectedInput,
    Graph,
    NotIndependent,
    TooSmall,
    VertexSet,
    build_reduction,
    classify,
    extract_independent_set,
    gamma_bar_p,
    is_independent_set,
    lift_independent_set,
    max_independent_set,
)

import oracles
from contracts import assert_value_type

FIG3 = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])


class TestBuild:
    def test_fig3_instance(self):
        red = build_reduction(FIG3)
        assert red.path_len == 16
        assert red.faithful
        assert red.gprime.n == 73  # (16 + 1) * 4 + 4 + 1
        assert red.m_of(2) == 66

    def test_triangle_instance(self):
        red = build_reduction(Graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert red.gprime.n == 34  # (9 + 1) * 3 + 3 + 1

    def test_too_small(self):
        with pytest.raises(TooSmall):
            build_reduction(Graph(2, [(0, 1)]))

    def test_disconnected_source(self):
        with pytest.raises(DisconnectedInput):
            build_reduction(Graph(4, [(0, 1), (2, 3)]))

    def test_m_of_needs_a_source_set_size(self):
        red = build_reduction(Graph(3, [(0, 1), (1, 2)]))
        assert (red.m_of(0), red.m_of(3)) == (18, 21)
        for k in (-5, -1, 4, 99):
            with pytest.raises(ValueError):
                red.m_of(k)

    def test_path_length_must_be_positive(self):
        with pytest.raises(ValueError) as info:
            build_reduction(FIG3, path_len=0)
        assert info.value.args == ("path length must be >= 1, got 0",)

    def test_role_lookups_refuse_positions_outside_the_gadget(self):
        red = build_reduction(FIG3, path_len=2)  # four source edges
        assert red.path_vertex(3, 0) == red.subdiv_vertex(3) == 7
        assert [red.path_vertex(3, i) for i in (1, 2)] == [14, 15]
        for lookup, message in [
            (lambda: red.subdiv_vertex(4), "no source edge 4"),
            (lambda: red.subdiv_vertex(-1), "no source edge -1"),
            (lambda: red.path_vertex(0, 3), "path position 3 outside 1..2"),
            (lambda: red.path_vertex(0, -1), "path position -1 outside 1..2"),
            (lambda: red.path_vertex(4, 1), "no source edge 4"),
            (lambda: red._path(-1), "no source edge -1"),
        ]:
            with pytest.raises(ValueError) as info:
                lookup()
            assert info.value.args == (message,)

    def test_override_marks_non_faithful(self):
        red = build_reduction(FIG3, path_len=3)
        assert not red.faithful
        assert red.gprime.n == 4 * 4 + 4 + 1

    def test_structure(self):
        red = build_reduction(FIG3, path_len=5)
        gp = red.gprime
        # hub is adjacent to exactly the subdivision vertices
        hub_nbrs = gp.neighbors(red.hub).members()
        assert hub_nbrs == [red.subdiv_vertex(j) for j in range(red.source_m)]
        for j, (u, v) in enumerate(red.source_edges):
            sub = red.subdiv_vertex(j)
            # each source edge is replaced by u - sub - v
            assert gp.has_edge(u, sub) and gp.has_edge(sub, v)
            assert not gp.has_edge(u, v)
            # pendant path hangs off the subdivision vertex
            prev = sub
            for i in range(1, red.path_len + 1):
                cur = red.path_vertex(j, i)
                assert gp.has_edge(prev, cur)
                prev = cur
            assert gp.degree(prev) == 1

    def test_size_identity(self):
        rng = random.Random(51)
        for _ in range(10):
            n, edges = oracles.random_connected_graph(rng, rng.randint(3, 6))
            red = build_reduction(Graph(n, edges), path_len=rng.randint(1, 8))
            expected = (red.path_len + 1) * red.source_m + red.source_n + 1
            assert red.gprime.n == expected

    def test_a_gadget_label_repeating_a_source_label_is_refused(self):
        red = build_reduction(Graph(3, [(0, 1), (1, 2)], labels=["x", "y", "e0.0"]),
                              path_len=1)
        assert red.gprime.index_of_label("y") == 1
        for label in ("x", "e0.0"):
            with pytest.raises(KeyError, match="names 2 vertices"):
                red.gprime.index_of_label(label)

    def test_labels_and_roles_json(self):
        red = build_reduction(Graph(3, [(0, 1), (1, 2), (0, 2)]), path_len=2)
        assert_value_type(red, build_reduction(Graph(3, [(0, 1), (1, 2), (0, 2)]), path_len=2),
                          ("gprime", "source_n", "source_m", "source_edges", "path_len",
                           "faithful"))
        assert red.gprime.label_of(red.hub) == "x"
        assert red.gprime.label_of(red.subdiv_vertex(1)) == "e1.0"
        roles = red.roles_json_dict()
        assert roles["hub"] == red.hub
        assert roles["paths"]["0"] == [red.path_vertex(0, 1), red.path_vertex(0, 2)]
        assert roles["m_base"] == 2 * 3
        assert roles == {
            "source_n": 3, "source_m": 3, "path_len": 2, "faithful": False,
            "original": [0, 1, 2], "subdivision": {"0": 3, "1": 4, "2": 5},
            "paths": {"0": [6, 7], "1": [8, 9], "2": [10, 11]}, "hub": 12, "m_base": 6,
        }


class TestLiftAndExtract:
    def test_fig3_blue_set(self):
        red = build_reduction(FIG3)
        u = FIG3.vertex_set([0, 2])  # the two blue vertices
        lifted = lift_independent_set(red, u)
        assert len(lifted) == 66
        verdict = classify(red.gprime, lifted)
        assert verdict.is_spds and verdict.properly_stalled

    def test_empty_set_lift(self):
        red = build_reduction(FIG3, path_len=4)
        lifted = lift_independent_set(red, FIG3.empty_set())
        assert len(lifted) == 4 * red.source_m
        assert classify(red.gprime, lifted).is_spds

    def test_triangle_singleton(self):
        tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
        red = build_reduction(tri)
        lifted = lift_independent_set(red, tri.vertex_set([1]))
        assert len(lifted) == 9 * 3 + 1 == 28
        assert classify(red.gprime, lifted).is_spds

    def test_not_independent_rejected(self):
        red = build_reduction(FIG3)
        with pytest.raises(NotIndependent):
            lift_independent_set(red, FIG3.vertex_set([2, 3]))

    def test_round_trip(self):
        red = build_reduction(FIG3)
        for members in [[0, 2], [0, 3], [0], []]:
            u = FIG3.vertex_set(members)
            lifted = lift_independent_set(red, u)
            ext = extract_independent_set(red, lifted)
            assert_value_type(ext, extract_independent_set(red, lifted),
                              ("vertices", "independent"))
            assert ext.vertices == u
            assert ext.independent

    def test_hub_extracts_to_empty(self):
        red = build_reduction(FIG3)
        ext = extract_independent_set(red, red.gprime.vertex_set([red.hub]))
        assert ext.vertices.members() == []
        assert ext.independent

    def test_sets_from_another_universe_are_refused(self):
        red = build_reduction(FIG3, path_len=2)
        with pytest.raises(ValueError) as info:
            lift_independent_set(red, VertexSet(red.gprime.n, 1))
        assert info.value.args == ("candidate set must live in the source vertex universe",)
        with pytest.raises(ValueError) as info:
            extract_independent_set(red, FIG3.vertex_set([0]))
        assert info.value.args == ("candidate set must live in the gadget vertex universe",)

    def test_dependent_extraction_flagged(self):
        red = build_reduction(FIG3)
        ext = extract_independent_set(red, red.gprime.vertex_set([2, 3]))
        assert not ext.independent


def test_is_independent_set_checks_the_universe():
    g = Graph(3, [(0, 1)])
    assert not is_independent_set(g, VertexSet(3, 0b11))
    assert is_independent_set(g, VertexSet(3, 0b101))
    # a smaller universe used to answer silently, a larger one to crash
    for s in (VertexSet(2, 0b11), VertexSet(5, 0b11000)):
        with pytest.raises(ValueError):
            is_independent_set(g, s)


@pytest.mark.parametrize("n, edges, members, independent", [
    (0, [], [], True),
    (3, [(0, 1), (1, 2)], [], True),
    (4, [(0, 1), (1, 3), (2, 3)], [2, 3], False),
    (4, [(0, 1), (1, 3), (2, 3)], [0, 3], True),
], ids=["empty-graph", "empty-set", "last-vertex-and-neighbor", "last-vertex-alone"])
def test_is_independent_set_edge_cases(n, edges, members, independent):
    assert is_independent_set(Graph(n, edges), VertexSet.of(n, members)) is independent


def test_is_independent_set_matches_the_edge_list():
    rng = random.Random(53)
    for _ in range(20):
        n, edges = oracles.random_graph(rng, rng.randint(1, 7))
        g = Graph(n, edges)
        for k in range(n + 1):
            for members in combinations(range(n), k):
                expected = not any(u in members and v in members for u, v in edges)
                assert is_independent_set(g, g.vertex_set(members)) is expected, (n, edges, members)


class TestForwardDirection:
    def test_every_independent_set_lifts_to_spds(self):
        rng = random.Random(52)
        for _ in range(8):
            n, edges = oracles.random_connected_graph(rng, rng.randint(3, 5))
            g = Graph(n, edges)
            red = build_reduction(g)
            for k in range(n + 1):
                for members in combinations(range(n), k):
                    s = g.vertex_set(members)
                    if not is_independent_set(g, s):
                        continue
                    lifted = lift_independent_set(red, s)
                    assert len(lifted) == red.m_of(len(s))
                    verdict = classify(red.gprime, lifted)
                    assert verdict.is_spds
                    assert verdict.properly_stalled


class TestBothDirections:
    """gamma_bar_p of the faithful gadget G' of each source G, against
    `m_of(alpha(G))` = path_len * |E| + alpha(G), with the scan's witness
    restricted back to G, and against the branch and bound over forts in
    `oracles` as a second route.  The equality is what these instances
    measure; a non-faithful path length breaks it."""

    @pytest.mark.parametrize(
        "edges, value",
        [([(0, 1), (1, 2)], 20), ([(0, 1), (1, 2), (0, 2)], 28),
         ([(0, 1), (0, 2), (0, 3)], 51), ([(0, 1), (1, 2), (2, 3)], 50),
         ([(0, 1), (1, 2), (2, 3), (0, 3)], 66), (FIG3.edges(), 66)],
        ids=["P3", "K3", "K1,3", "P4", "C4", "FIG3"],
    )
    def test_gamma_bar_p_of_faithful_gadget(self, edges, value):
        g = Graph(1 + max(v for e in edges for v in e), edges)
        red = build_reduction(g)
        alpha = max_independent_set(g).value
        # the C4 and FIG3 gadgets decide about 1.5-1.8e9 subsets
        result = gamma_bar_p(red.gprime, budget=10**10)
        assert result.value == red.m_of(alpha) == value
        assert oracles.fort_gamma_bar_p(red.gprime.n, red.gprime.edges()) == value
        ext = extract_independent_set(red, result.witness)
        assert ext.independent and len(ext.vertices) == alpha

    def test_non_faithful_path_length_breaks_the_equality(self):
        g = Graph(3, [(0, 1), (1, 2)])
        red = build_reduction(g, path_len=1)
        assert not red.faithful
        alpha = max_independent_set(g).value
        assert (gamma_bar_p(red.gprime).value, red.m_of(alpha)) == (5, 4)


def test_tiny_scale_equivalence():
    # for 3-vertex sources the maximum properly stalled set built from
    # (independent candidate + all path vertices) has size 9|E| + alpha
    for edges in [[(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]]:
        g = Graph(3, edges)
        red = build_reduction(g)
        alpha = max_independent_set(g).value
        best = -1
        for k in range(4):
            for members in combinations(range(3), k):
                s = g.vertex_set(members)
                if not is_independent_set(g, s):
                    continue
                lifted = lift_independent_set(red, s)
                if classify(red.gprime, lifted).properly_stalled:
                    best = max(best, len(lifted))
        assert best == 9 * len(edges) + alpha
