import copy
import json
import pickle
import random

import pytest

from powerdom import (
    DomainError,
    FamilySpec,
    Graph,
    NoFormula,
    classify,
    extremal_gamma_bar,
    families,
    gamma_bar_p,
    generate,
    is_zero_family,
    join,
    oracle_gamma_bar,
    parse_family,
)
from powerdom.cli import main

import oracles

# descriptors of each family's parameters just outside its domain
OUT_OF_DOMAIN = [
    "ladder:1", "kxp:0,3", "ccycle:2", "cpath:1", "empty:0", "grid:0,5",
    "wheel:3", "kmn:2,3", "fanchord:4,3,2", "fanchord+:7,4,1", "path:0",
    "cycle:2", "complete:0",
]


class TestParsing:
    @pytest.mark.parametrize(
        "text, family, args",
        [
            ("ladder:9", "ladder", (9,)),
            ("kmn:5,2", "kmn", (5, 2)),
            ("fanchord+:10,6,3", "fanchord+", (10, 6, 3)),
            ("grid:6,6", "grid", (6, 6)),
            ("complete_bipartite:3,3", "kmn", (3, 3)),
            ("complement_cycle:7", "ccycle", (7,)),
        ],
    )
    def test_descriptors(self, text, family, args):
        spec = parse_family(text)
        assert spec.family == family and spec.args == args

    def test_join_descriptor(self):
        spec = parse_family("join:cycle:4+complete:1")
        assert spec.family == "join"
        assert [f.describe() for f in spec.factors] == ["cycle:4", "complete:1"]
        assert spec.describe() == "join:cycle:4+complete:1"

    def test_bad_descriptors(self):
        for text in ["nosuch:3", "ladder", "ladder:x", "kmn:5", "join:cycle:4"]:
            with pytest.raises(DomainError):
                parse_family(text)


def assert_every_route_checks(family, args=(), factors=()):
    """The constructor, `_make`, `_replace`, unpickling and copying each
    raise DomainError on these fields."""
    fields = (family, args, factors)
    valid = parse_family("grid:3,3")
    # a spec that skipped the check, as `tuple.__new__` builds one
    unchecked = tuple.__new__(FamilySpec, fields)
    routes = {
        "constructor": lambda: FamilySpec(*fields),
        "_make": lambda: FamilySpec._make(fields),
        "_replace": lambda: valid._replace(family=family, args=args, factors=factors),
        "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
        "deepcopy": lambda: copy.deepcopy(unchecked),
    }
    for route, build in routes.items():
        with pytest.raises(DomainError):
            build()
            pytest.fail(f"{route} made {fields}")


@pytest.mark.parametrize("text", OUT_OF_DOMAIN)
def test_out_of_domain_is_domain_error(capsys, text):
    with pytest.raises(DomainError):
        parse_family(text)
    name, _, rest = text.partition(":")
    assert_every_route_checks(name, tuple(int(tok) for tok in rest.split(",")))
    for command in ("oracle", "generate"):
        assert main([command, "--family", text]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_join_needs_two_factors():
    assert_every_route_checks("join", factors=(parse_family("cycle:4"),))
    assert_every_route_checks("grid", (3,))  # one parameter short
    assert_every_route_checks("nosuch", (3,))


def test_fields_the_family_does_not_read_are_refused():
    factors = (parse_family("cycle:4"), parse_family("kmn:3,2"))
    assert_every_route_checks("join", (7, 8), factors)
    assert_every_route_checks("path", (3,), factors)


def test_spec_is_an_immutable_value():
    spec = parse_family("join:cycle:4+kmn:3,2")
    assert spec == FamilySpec("join", factors=(FamilySpec("cycle", (4,)), FamilySpec("kmn", (3, 2))))
    assert hash(spec) == hash(parse_family("join:cycle:4+kmn:3,2"))
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        twin = copy_of(spec)
        assert type(twin) is FamilySpec and twin == spec
        assert type(twin.factors[1]) is FamilySpec
    assert spec.factors[0]._replace(args=(5,)) == parse_family("cycle:5")
    assert FamilySpec._make(("grid", (2, 3))).describe() == "grid:2,3"
    with pytest.raises(AttributeError):
        spec.family = "wheel"
    with pytest.raises(AttributeError):
        spec.extra = None


class TestGenerate:
    def test_fig5_fan_chords_plus(self):
        g = generate(parse_family("fanchord+:10,6,3"))
        assert g.n == 10
        cycle_edges = {(j, (j + 1) % 10) for j in range(10)}
        chords = {tuple(sorted(e)) for e in g.edges()} - {
            tuple(sorted(e)) for e in cycle_edges
        }
        # v1-v6, v1-v7, v1-v8 and v2-v5 in 1-based labels
        assert chords == {(0, 5), (0, 6), (0, 7), (1, 4)}
        assert g.label_of(0) == "v1"

    def test_wheel4_is_k4(self):
        g = generate(parse_family("wheel:4"))
        assert g.n == 4 and g.edge_count() == 6

    def test_fan_chord_domain_error(self):
        with pytest.raises(DomainError):
            generate(FamilySpec("fanchord", (4, 3, 2)))  # i+k = 5 > n-1 = 3

    def test_fan_chord_plus_domain(self):
        with pytest.raises(DomainError):
            generate(FamilySpec("fanchord+", (6, 4, 1)))  # needs i >= 5

    def test_grid_labels(self):
        g = generate(parse_family("grid:6,6"))
        assert g.index_of_label("04") == 4
        assert g.index_of_label("51") == 31

    @pytest.mark.parametrize("m, n", [(6, 6), (10, 10), (1, 7), (11, 12), (20, 20),
                                      (1, 30), (30, 1), (10, 11)])
    def test_grid_is_the_product_of_two_paths(self, m, n):
        # built directly at every size, with cartesian_product's labels
        # above 10 x 10 and with ascending neighbor lists
        g = generate(parse_family(f"grid:{m},{n}"))
        product = families.cartesian_product(families._path(m), families._path(n))
        assert g == product
        if m > 10 or n > 10:
            assert g.labels == product.labels
        else:
            assert g.labels == tuple(f"{c}{d}" for c in range(m) for d in range(n))
        assert all(list(nbrs) == sorted(nbrs) for nbrs in g.adjacency_lists())

    def test_join_spec(self):
        w5 = generate(parse_family("join:cycle:4+complete:1"))
        assert oracles.isomorphic(5, w5.edges(), generate(parse_family("wheel:5")).edges())

    def test_complements(self):
        c5bar = generate(parse_family("ccycle:5"))
        assert oracles.isomorphic(5, c5bar.edges(), generate(parse_family("cycle:5")).edges())
        p4bar = generate(parse_family("cpath:4"))
        assert oracles.isomorphic(4, p4bar.edges(), generate(parse_family("path:4")).edges())

    def test_kmn(self):
        g = generate(parse_family("kmn:3,2"))
        assert g.n == 5 and g.edge_count() == 6


class TestOracle:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("kmn:5,2", 3),
            ("kmn:1,1", 0),
            ("kmn:2,2", 0),
            ("ladder:9", 2),
            ("ladder:4", 0),
            ("kxp:3,3", 1),
            ("kxp:4,5", 4),
            ("complement_cycle:5", 0),
            ("cpath:4", 0),
            ("path:7", 0),
            ("cycle:3", 0),
            ("complete:6", 0),
            ("wheel:8", 0),
            ("fanchord:10,3,2", 0),
            ("fanchord+:10,6,3", 0),
            ("join:cycle:5+empty:2", 0),
        ],
    )
    def test_closed_forms(self, text, value):
        assert oracle_gamma_bar(parse_family(text)) == value

    @pytest.mark.parametrize(
        "text", ["ladder:3", "kxp:2,4", "empty:2", "join:cycle:4+kmn:4,2", "grid:6,6"]
    )
    def test_refuses_outside_hypotheses(self, text):
        with pytest.raises(NoFormula):
            oracle_gamma_bar(parse_family(text))

    def test_oracle_matches_solver_spot_checks(self):
        for text in ["kmn:4,3", "ladder:7", "kxp:3,4", "wheel:7", "cpath:6"]:
            spec = parse_family(text)
            assert oracle_gamma_bar(spec) == gamma_bar_p(generate(spec)).value

    def test_zero_family_registry(self):
        assert is_zero_family(parse_family("ccycle:5"))
        assert not is_zero_family(parse_family("ccycle:4"))
        assert not is_zero_family(parse_family("cpath:3"))
        assert is_zero_family(parse_family("join:path:3+empty:2"))
        assert not is_zero_family(parse_family("join:path:3+empty:3"))

    @pytest.mark.parametrize(
        "text, zero, value",
        [
            ("path:300000", True, 0),
            ("wheel:200000", True, 0),
            ("complete:2000", True, 0),
            ("join:cycle:5+wheel:6+empty:2", True, 0),
            ("kmn:200000,3", False, 199998),
            ("ladder:100000", False, 33332),
        ],
    )
    def test_answers_without_building_the_graph(self, monkeypatch, text, zero, value):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle built a graph")

        monkeypatch.setattr(families, "generate", refuse)
        monkeypatch.setattr(families, "Graph", refuse)
        spec = parse_family(text)
        assert is_zero_family(spec) is zero
        assert oracle_gamma_bar(spec) == value

    def test_zero_family_singletons_are_pds(self):
        for text in ["wheel:6", "fanchord:8,3,3", "cpath:5", "ccycle:6"]:
            g = generate(parse_family(text))
            for v in range(g.n):
                assert classify(g, g.vertex_set([v])).is_pds


class TestExtremal:
    def test_isolated_vertex(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2)])  # K3 plus an isolated vertex
        assert extremal_gamma_bar(g) == 3

    def test_k2_component(self):
        g = Graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)])  # K2 + C4
        assert extremal_gamma_bar(g) == 4

    def test_paw(self):
        paw = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert extremal_gamma_bar(paw) == 1

    def test_induced_p3_with_pendant_ends(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert extremal_gamma_bar(star) == 1

    def test_no_fire(self):
        c6 = generate(parse_family("cycle:6"))
        assert extremal_gamma_bar(c6) is None

    def test_agrees_with_solver(self):
        rng = random.Random(41)
        fired = 0
        for _ in range(120):
            n, edges = oracles.random_graph(rng, rng.randint(1, 7), p=0.3)
            g = Graph(n, edges)
            exact = gamma_bar_p(g).value
            predicted = extremal_gamma_bar(g)
            if predicted is not None:
                fired += 1
                assert predicted == exact
            if exact >= n - 3 and n >= 3:
                assert predicted == exact
        assert fired > 10


def test_join_of_zero_families_is_zero():
    rng = random.Random(42)
    registry = [
        parse_family("path:3"), parse_family("cycle:4"), parse_family("complete:3"),
        parse_family("wheel:5"), parse_family("cpath:4"), parse_family("ccycle:5"),
        FamilySpec("empty", (2,)),
    ]
    for _ in range(10):
        a, b = rng.choice(registry), rng.choice(registry)
        g = join(generate(a), generate(b))
        if g.n <= 12:
            assert gamma_bar_p(g).value == 0
