import copy
import pickle
import random

import pytest

from powerdom import (
    Graph,
    LoopError,
    ParseError,
    VertexSet,
    cartesian_product,
    closed_neighborhood,
    complement,
    components,
    cut_vertices,
    from_edge_list,
    induced_subgraph,
    is_connected,
    join,
    to_edge_list_text,
    vertex_connectivity,
)
from powerdom.errors import DisconnectedInput

import oracles
from shapes import complete, cycle, path


FIG3 = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])


class TestVertexSet:
    def test_membership_and_iteration(self):
        s = VertexSet.of(6, [0, 3, 5])
        assert list(s) == [0, 3, 5]
        assert 3 in s and 1 not in s
        assert len(s) == 3

    def test_algebra(self):
        a = VertexSet.of(5, [0, 1])
        b = VertexSet.of(5, [1, 2])
        assert (a | b).members() == [0, 1, 2]
        assert (a & b).members() == [1]
        assert (a - b).members() == [0]
        assert a.complement().members() == [2, 3, 4]
        assert a.issubset(a | b)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VertexSet.of(3, [0]) | VertexSet.of(4, [0])

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError) as info:
            VertexSet.of(3, [3])
        assert info.value.args == ("vertex 3 outside universe of size 3",)
        for v in (3, -1):
            with pytest.raises(ValueError) as info:
                VertexSet.of(3, [0]).with_vertex(v)
            assert info.value.args == (f"vertex {v} outside universe of size 3",)

    @pytest.mark.parametrize(
        "n, bits",
        [(3, 0b1000), (3, 1 << 70), (0, 1), (3, -1), (3, -8), (-1, 0), (-2, 1)],
        ids=["just-above", "far-above", "empty-universe", "negative-bits",
             "negative-above", "negative-n", "negative-n-and-bits"],
    )
    def test_constructor_refuses_bad_input(self, n, bits):
        with pytest.raises(ValueError):
            VertexSet(n, bits)

    def test_immutability(self):
        s = VertexSet.of(3, [1])
        with pytest.raises(AttributeError):
            s.bits = 7


@pytest.mark.parametrize(
    "copy_of",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_immutable_types_pickle_and_copy(copy_of):
    # the default restores each slot by assignment, which both refuse
    s = VertexSet.of(5, [1, 4])
    assert copy_of(s) == s and copy_of(s).members() == [1, 4]
    g = Graph(3, [(2, 1), (0, 1)], labels=["a", "b", "c"])
    h = copy_of(g)
    assert h == g and h.labels == g.labels
    assert h.adjacency_lists() == g.adjacency_lists() and h.degrees() == g.degrees()
    with pytest.raises(AttributeError):
        h.n = 4
    # a built view is a cache: it is left out of the state, and a copy
    # builds its own on first use
    p = Graph(6, [(i, i + 1) for i in range(5)])
    view, table = p.contracted_view(), p.chain_table()
    assert view[0].n == 4
    # so is the chain table built with it: the path's leaves ride along
    assert table == (((None, 0, 1, 2, 3, 4, 5, None),), tuple((0, j) for j in range(1, 7)))
    assert pickle.dumps(p) == pickle.dumps(Graph(6, [(i, i + 1) for i in range(5)]))
    q = copy_of(p)
    assert q == p and hash(q) == hash(p) and q.edge_count() == 5
    with pytest.raises(AttributeError):
        q._view  # neither the view nor the chain table was carried over
    assert q.chain_table() == table and q.contracted_view() == view


@pytest.mark.parametrize(
    "copy_of",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_edge_count_is_kept_through_pickle_and_copy(copy_of):
    # the count is stored when the graph is built, repeated edges once
    g = Graph(4, [(0, 1), (1, 0), (2, 1), (0, 1)])
    assert g.edge_count() == 2 == len(g.edges())
    assert copy_of(g).edge_count() == 2
    assert copy_of(Graph(0)).edge_count() == 0


class TestEdgeListParsing:
    def test_header_and_edges(self):
        g = from_edge_list("3\n0 1\n1 2")
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]

    def test_loop_rejected(self):
        with pytest.raises(LoopError):
            from_edge_list("2\n0 0")

    def test_index_beyond_declared_count(self):
        with pytest.raises(IndexError):
            from_edge_list("2\n0 5")

    def test_malformed_token(self):
        with pytest.raises(ParseError):
            from_edge_list("3\n0 x")

    @pytest.mark.parametrize("text, message", [
        ("x\n0 1", "line 1: bad vertex count 'x'"),
        ("-1\n", "line 1: negative vertex count"),
        ("3\n0 1 2", "line 2: expected 'u v', got '0 1 2'"),
        ("3\n0 -1", "line 2: negative vertex index"),
    ], ids=["bad-count", "negative-count", "three-tokens", "negative-index"])
    def test_refused_line(self, text, message):
        with pytest.raises(ParseError) as info:
            from_edge_list(text)
        assert info.value.args == (message,)

    def test_comments_blanks_and_duplicates(self):
        g = from_edge_list("# a triangle\n3\n\n0 1  # first\n1 2\n0 1\n0 2\n")
        assert g.edge_count() == 3

    def test_inferred_vertex_count(self):
        g = from_edge_list("0 1\n1 4")
        assert g.n == 5

    def test_fig3_degree_sequence(self):
        text = "4\n0 1\n1 2\n1 3\n2 3"
        g = from_edge_list(text)
        assert [g.degree(v) for v in range(4)] == [1, 3, 2, 2]

    def test_round_trip(self):
        g = FIG3
        assert from_edge_list(to_edge_list_text(g)) == g


class TestOperators:
    def test_complement_c5_self_complementary(self):
        c5 = cycle(5)
        cc = complement(c5)
        assert oracles.isomorphic(5, c5.edges(), cc.edges())

    def test_complement_k4_empty(self):
        assert complement(complete(4)).edge_count() == 0

    def test_complement_p4_self_complementary(self):
        p4 = path(4)
        assert oracles.isomorphic(4, p4.edges(), complement(p4).edges())

    def test_join_c4_k1_is_wheel(self):
        w5 = join(cycle(4), complete(1))
        assert w5.n == 5
        assert sorted(w5.degree(v) for v in range(5)) == [3, 3, 3, 3, 4]

    def test_join_k1_k1_is_k2(self):
        assert join(complete(1), complete(1)).edges() == [(0, 1)]

    def test_join_empty2_empty2_is_c4(self):
        g = join(Graph(2), Graph(2))
        assert oracles.isomorphic(4, g.edges(), cycle(4).edges())

    def test_ladder_product(self):
        g = cartesian_product(path(9), path(2))
        assert g.n == 18
        assert g.edge_count() == 25

    def test_k1_product_identity(self):
        h = FIG3
        g = cartesian_product(complete(1), h)
        assert oracles.isomorphic(4, g.edges(), h.edges())

    def test_grid_product(self):
        g = cartesian_product(path(6), path(6))
        assert g.n == 36
        assert g.edge_count() == 60

    def test_product_labels(self):
        g = cartesian_product(path(2), path(3))
        assert g.labels[0 * 3 + 2] == "u0v2"
        assert g.index_of_label("u1v0") == 3

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Graph(-1), ValueError, "vertex count must be nonnegative"),
        (lambda: Graph(2, [(0, 2)]), IndexError, "edge (0, 2) outside vertex range 0..1"),
        (lambda: Graph(2, [(1, 1)]), LoopError, "self-loop at vertex 1"),
        (lambda: Graph(2, labels=["a"]), ValueError, "label count does not match vertex count"),
        (lambda: Graph(2).index_of_label("a"), KeyError,
         "graph carries no labels (looking up 'a')"),
    ], ids=["negative-count", "edge-out-of-range", "loop", "label-count", "no-labels"])
    def test_refused_graph(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and info.value.args == (message,)

    def test_a_label_naming_several_vertices_is_refused(self):
        g = join(Graph(2, [(0, 1)], labels=["a", "b"]), Graph(2, [(0, 1)], labels=["a", "c"]))
        assert (g.index_of_label("b"), g.index_of_label("c")) == (1, 3)
        with pytest.raises(KeyError, match="label 'a' names 2 vertices"):
            g.index_of_label("a")
        with pytest.raises(KeyError, match="label 'a' names 2 vertices"):
            g.set_of_labels(["b", "a"])
        with pytest.raises(KeyError, match="no vertex labeled 'z'"):
            g.index_of_label("z")

    def test_induced_k4_pair(self):
        sub, index_map = induced_subgraph(complete(4), VertexSet.of(4, [1, 3]))
        assert sub.edges() == [(0, 1)]
        assert index_map == [1, 3]

    def test_induced_c5_consecutive(self):
        sub, _ = induced_subgraph(cycle(5), VertexSet.of(5, [0, 1, 2]))
        assert oracles.isomorphic(3, sub.edges(), path(3).edges())

    def test_induced_fig3_triangle(self):
        # vertices b, c, d of the figure carry edges f, g, h: a triangle
        sub, _ = induced_subgraph(FIG3, VertexSet.of(4, [1, 2, 3]))
        assert sub.edge_count() == 3

    def test_closed_neighborhood(self):
        p3 = path(3)
        assert closed_neighborhood(p3, VertexSet.of(3, [1])) == p3.full_set()
        assert closed_neighborhood(p3, p3.empty_set()) == p3.empty_set()
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert closed_neighborhood(star, VertexSet.of(4, [1])).members() == [0, 1]

    @pytest.mark.parametrize("fn", [closed_neighborhood, induced_subgraph])
    @pytest.mark.parametrize(
        "s", [VertexSet.of(3, [2]), VertexSet.of(9, [8])], ids=["smaller", "larger"]
    )
    def test_vertex_set_from_another_universe(self, fn, s):
        with pytest.raises(ValueError, match="universe size"):
            fn(path(5), s)

    def test_adjacency_lists_skip_repeated_edges(self):
        g = Graph(4, [(0, 1), (1, 0), (2, 1), (0, 1)])
        assert g.adjacency_lists() == ((1,), (0, 2), (1,), ())
        assert g.degrees() == (1, 2, 1, 0)
        assert g.edge_count() == 2


class TestConnectivity:
    def test_cut_vertices_path(self):
        assert cut_vertices(path(4)).members() == [1, 2]

    def test_cut_vertices_cycle(self):
        assert len(cut_vertices(cycle(5))) == 0

    def test_cut_vertices_paw(self):
        paw = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert cut_vertices(paw).members() == sorted(
            oracles.brute_cut_vertices(4, paw.edges())
        )

    def test_vertex_connectivity_examples(self):
        assert vertex_connectivity(cycle(6)) == 2
        assert vertex_connectivity(path(5)) == 1
        w6 = join(cycle(5), complete(1))
        assert vertex_connectivity(w6) == oracles.brute_connectivity(6, w6.edges())
        assert vertex_connectivity(w6) == 3

    def test_complete_graph_convention(self):
        assert vertex_connectivity(complete(5)) == 4
        assert vertex_connectivity(Graph(1)) == 0

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedInput):
            vertex_connectivity(Graph(3, [(0, 1)]))

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = sorted(c.members() for c in components(g))
        assert comps == [[0, 1], [2, 3], [4]]
        assert not is_connected(g)
        assert is_connected(cycle(4))


class TestRandomizedInvariants:
    def test_complement_involution(self):
        rng = random.Random(11)
        for _ in range(50):
            n, edges = oracles.random_graph(rng, rng.randint(1, 10))
            g = Graph(n, edges)
            assert complement(complement(g)) == g

    def test_product_edge_count_identity(self):
        rng = random.Random(12)
        for _ in range(30):
            n1, e1 = oracles.random_graph(rng, rng.randint(1, 5))
            n2, e2 = oracles.random_graph(rng, rng.randint(1, 5))
            g, h = Graph(n1, e1), Graph(n2, e2)
            prod = cartesian_product(g, h)
            assert prod.edge_count() == g.n * h.edge_count() + h.n * g.edge_count()

    def test_join_degrees(self):
        rng = random.Random(13)
        for _ in range(30):
            n1, e1 = oracles.random_graph(rng, rng.randint(1, 5))
            n2, e2 = oracles.random_graph(rng, rng.randint(1, 5))
            g, h = Graph(n1, e1), Graph(n2, e2)
            j = join(g, h)
            for u in range(g.n):
                assert j.degree(u) == g.degree(u) + h.n

    def test_closed_neighborhood_monotone(self):
        rng = random.Random(14)
        for _ in range(50):
            n, edges = oracles.random_graph(rng, rng.randint(1, 10))
            g = Graph(n, edges)
            small = [v for v in range(n) if rng.random() < 0.3]
            extra = [v for v in range(n) if rng.random() < 0.3]
            s = VertexSet.of(n, small)
            s_prime = s | VertexSet.of(n, extra)
            assert closed_neighborhood(g, s).issubset(closed_neighborhood(g, s_prime))

    def test_cut_vertex_forces_connectivity_one(self):
        rng = random.Random(15)
        checked = 0
        while checked < 20:
            n, edges = oracles.random_connected_graph(rng, rng.randint(3, 8), p=0.15)
            g = Graph(n, edges)
            if len(cut_vertices(g)) > 0:
                assert vertex_connectivity(g) == 1
                checked += 1


def test_json_emission():
    g = Graph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
    assert g.to_json_dict() == {
        "n": 3,
        "edges": [[0, 1], [1, 2]],
        "labels": ["a", "b", "c"],
    }
    assert repr(g) == "Graph(n=3, m=2)"
