"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The per-criterion lines bypass pytest's capture, so they show up in any
run.  Every expected value is exact; no tolerances.
"""

import random
from contextlib import contextmanager
from itertools import combinations
from math import ceil

import pytest

from powerdom import (
    BudgetExceeded,
    FamilySpec,
    Graph,
    VertexSet,
    classify,
    cut_vertices,
    domination_number,
    extract_independent_set,
    extremal_gamma_bar,
    failed_zero_forcing_number,
    gamma_bar_p,
    gamma_p,
    generate,
    induced_subgraph,
    is_independent_set,
    is_zero_family,
    build_reduction,
    lift_independent_set,
    max_independent_set,
    monitored_fixpoint,
    oracle_gamma_bar,
    parse_family,
    vertex_connectivity,
    zero_forcing_fixpoint,
)
from powerdom.graphs import is_connected

import oracles


@contextmanager
def report(capsys, name):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"\nACCEPTANCE {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: PASS")


# -- shared family sweeps (criteria 1-4 specs, reused by criterion 8) ---------


def zero_family_sweep_specs():
    specs = []
    specs += [parse_family(f"path:{n}") for n in range(1, 11)]
    specs += [parse_family(f"cycle:{n}") for n in range(3, 11)]
    specs += [parse_family(f"complete:{n}") for n in range(1, 9)]
    specs += [parse_family(f"wheel:{n}") for n in range(4, 11)]
    specs += [parse_family(f"ccycle:{n}") for n in range(5, 11)]
    specs += [parse_family(f"cpath:{n}") for n in range(4, 11)]
    for n in range(4, 11):
        for i in range(3, n - 1):
            for k in range(1, n - i):
                specs.append(FamilySpec("fanchord", (n, i, k)))
    for n in range(6, 11):
        for i in range(5, n - 1):
            for k in range(1, n - i):
                specs.append(FamilySpec("fanchord+", (n, i, k)))
    return specs


def random_join_specs(count=20, max_n=12, seed=101):
    rng = random.Random(seed)
    factor_pool = [
        parse_family("path:3"), parse_family("path:5"),
        parse_family("cycle:3"), parse_family("cycle:4"), parse_family("cycle:5"),
        parse_family("complete:1"), parse_family("complete:2"), parse_family("complete:4"),
        parse_family("wheel:4"), parse_family("wheel:5"),
        parse_family("cpath:4"), parse_family("cpath:5"),
        parse_family("ccycle:5"), parse_family("ccycle:6"),
        FamilySpec("empty", (2,)),
    ]
    specs = []
    while len(specs) < count:
        a, b = rng.choice(factor_pool), rng.choice(factor_pool)
        spec = FamilySpec("join", factors=(a, b))
        if generate(a).n + generate(b).n <= max_n:
            assert is_zero_family(spec)
            specs.append(spec)
    return specs


def bipartite_sweep_specs():
    specs = [parse_family("kmn:1,1"), parse_family("kmn:2,2")]
    specs += [FamilySpec("kmn", (m, n)) for m in range(2, 7) for n in range(2, m + 1)]
    return specs


def ladder_sweep_specs():
    return [FamilySpec("ladder", (k,)) for k in range(4, 13)]


def kxp_sweep_specs():
    return [FamilySpec("kxp", (k, ell)) for k in (3, 4) for ell in (3, 4, 5)]


# -- criteria ------------------------------------------------------------------


def test_criterion_1_zero_family_sweep(capsys):
    with report(capsys, "1 zero-family sweep"):
        for spec in zero_family_sweep_specs():
            g = generate(spec)
            assert oracle_gamma_bar(spec) == 0
            assert gamma_bar_p(g).value == 0, spec.describe()
        for spec in random_join_specs():
            assert oracle_gamma_bar(spec) == 0
            assert gamma_bar_p(generate(spec)).value == 0, spec.describe()


def test_criterion_2_complete_bipartite(capsys):
    with report(capsys, "2 complete bipartite"):
        for spec in bipartite_sweep_specs():
            m, n = spec.args
            expected = m - 2 if m >= 2 else 0
            assert oracle_gamma_bar(spec) == expected
            assert gamma_bar_p(generate(spec)).value == expected, spec.describe()


def test_criterion_3_ladders(capsys):
    with report(capsys, "3 ladders"):
        for spec in ladder_sweep_specs():
            k = spec.args[0]
            expected = ceil((k - 4) / 3)
            assert oracle_gamma_bar(spec) == expected
            assert gamma_bar_p(generate(spec)).value == expected, spec.describe()


def test_criterion_4_complete_times_path(capsys):
    with report(capsys, "4 complete x path"):
        for spec in kxp_sweep_specs():
            k, ell = spec.args
            expected = (k - 2) * ((ell - 1) // 2)
            assert oracle_gamma_bar(spec) == expected
            assert gamma_bar_p(generate(spec)).value == expected, spec.describe()


FIG2_BLUE = [
    "02", "03", "04", "05", "13", "14", "15", "20", "24", "25",
    "30", "31", "35", "40", "41", "42", "50", "51", "52", "53",
]


def test_criterion_5_grid_fixtures(capsys):
    with report(capsys, "5 grid figure fixtures"):
        grid = generate(parse_family("grid:6,6"))

        pds = grid.set_of_labels(["04", "01"])
        assert classify(grid, pds).is_pds

        blue = grid.set_of_labels(FIG2_BLUE)
        assert len(blue) == 20
        verdict = classify(grid, blue)
        assert verdict.is_spds and verdict.properly_stalled and not verdict.is_pds
        diagonal = grid.set_of_labels(["00", "11", "22", "33", "44", "55"])
        trace = monitored_fixpoint(grid, blue)
        assert trace.steps[0] == diagonal.complement()
        assert trace.stabilized_at == 0

        # hence gamma_bar >= 20 (witnessed), and gamma_p = 2: no singleton
        # works, and the figure's pair does
        for v in range(grid.n):
            assert not classify(grid, grid.vertex_set([v])).is_pds
        result = gamma_p(grid)
        assert result.value == 2

        # the full exact gamma_bar of the grid is out of desk-scale reach:
        # a small budget must fail predictably rather than run forever
        with pytest.raises(BudgetExceeded):
            gamma_bar_p(grid, budget=20000)


def _connected_sources(n, max_edges):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        if bin(bits).count("1") > max_edges:
            continue
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if oracles.is_connected(n, edges):
            yield Graph(n, edges)


def test_criterion_6_reduction(capsys):
    with report(capsys, "6 reduction"):
        fig3 = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        red = build_reduction(fig3)
        assert red.gprime.n == 73
        assert red.m_of(2) == 66
        lifted = lift_independent_set(red, fig3.vertex_set([0, 2]))
        assert len(lifted) == 66
        verdict = classify(red.gprime, lifted)
        assert verdict.is_spds and verdict.properly_stalled

        # forward direction for every independent set of every connected
        # source with n in {3, 4, 5} and at most 7 edges
        for n in (3, 4, 5):
            for g in _connected_sources(n, max_edges=7):
                red = build_reduction(g)
                full = red.gprime.full_set()
                for k in range(n + 1):
                    for members in combinations(range(n), k):
                        u = g.vertex_set(members)
                        if not is_independent_set(g, u):
                            continue
                        lifted = lift_independent_set(red, u)
                        assert len(lifted) == n * n * g.edge_count() + len(u)
                        trace = monitored_fixpoint(red.gprime, lifted)
                        assert trace.stabilized_at == 0  # stalled
                        assert trace.fixed_point != full  # properly

        # both directions on every connected 3-vertex source: gamma_bar_p of
        # the faithful gadget is m_of(alpha), and the scan's witness restricts
        # to an independent set of size alpha
        for g in _connected_sources(3, max_edges=3):
            red = build_reduction(g)
            alpha = max_independent_set(g).value
            result = gamma_bar_p(red.gprime)
            assert result.value == red.m_of(alpha)
            ext = extract_independent_set(red, result.witness)
            assert ext.independent and len(ext.vertices) == alpha


def test_criterion_7_extremal_characterization(capsys):
    with report(capsys, "7 extremal characterization"):
        rng = random.Random(107)
        fired = 0
        for _ in range(500):
            n = rng.randint(1, 9)
            _, edges = oracles.random_graph(rng, n, p=rng.choice([0.15, 0.3, 0.5]))
            g = Graph(n, edges)
            exact = gamma_bar_p(g).value
            predicted = extremal_gamma_bar(g)
            in_range = exact in {n - 1, n - 2, n - 3}
            assert (predicted is not None) == in_range, (n, edges)
            if predicted is not None:
                fired += 1
                assert predicted == exact, (n, edges)
        assert fired >= 50  # the sweep actually exercised the predicate


def _pendant_path_hosts(seed=108):
    """Random connected bases with a pendant path attached at a vertex of
    base degree >= 2; yields (graph, path vertex set incl. junction, k)."""
    rng = random.Random(seed)
    hosts = []
    for k in (3, 4, 5, 6):
        made = 0
        while made < 2:
            base_n = rng.randint(4, min(7, 12 - (k - 1)))
            _, edges = oracles.random_connected_graph(rng, base_n, p=0.4)
            g0 = Graph(base_n, edges)
            junctions = [v for v in range(base_n) if g0.degree(v) >= 2]
            if not junctions:
                continue
            w = rng.choice(junctions)
            n = base_n + k - 1
            path_edges = [(w, base_n)] + [
                (base_n + i, base_n + i + 1) for i in range(k - 2)
            ]
            host = Graph(n, list(edges) + path_edges)
            path_set = VertexSet.of(n, [w] + list(range(base_n, n)))
            hosts.append((host, path_set, k))
            made += 1
    return hosts


def test_criterion_8_property_suites(capsys):
    with report(capsys, "8 property suites"):
        rng = random.Random(208)

        # monotonicity of both fixed points on 1000 random nested pairs
        for _ in range(1000):
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

        # gamma_bar_p <= F and gamma_p <= gamma on 200 random graphs
        for _ in range(200):
            n, edges = oracles.random_graph(rng, rng.randint(1, 8))
            g = Graph(n, edges)
            assert gamma_bar_p(g).value <= failed_zero_forcing_number(g).value
            if is_connected(g):
                assert gamma_p(g).value <= domination_number(g).value

        # the step-0 shell of every PDS witness from the criteria 1-4
        # sweeps forces the rest of the graph
        sweep = (
            zero_family_sweep_specs()
            + bipartite_sweep_specs()
            + ladder_sweep_specs()
            + kxp_sweep_specs()
        )
        for spec in sweep:
            g = generate(spec)
            witness = gamma_p(g).witness
            shell = monitored_fixpoint(g, witness).steps[0] - witness
            rest, index_map = induced_subgraph(g, witness.complement())
            start = VertexSet.of(rest.n, [index_map.index(v) for v in shell])
            assert (
                zero_forcing_fixpoint(rest, start).fixed_point == rest.full_set()
            ), spec.describe()

        # pendant-path spread: exhaustive scan of properly stalled SPDS on
        # hosts up to 12 vertices.  Sets with P^0 = V are dominating sets,
        # not failed ones, so the path lower bounds do not apply to them.
        for host, path_set, k in _pendant_path_hosts():
            n = host.n
            full = host.full_set()
            floor_count = ceil(k / 3)
            for bits in range(1 << n):
                s = VertexSet(n, bits)
                on_path = len(s & path_set)
                if on_path == 0:
                    continue
                trace = monitored_fixpoint(host, s)
                if trace.stabilized_at != 0 or trace.fixed_point == full:
                    continue
                assert on_path >= floor_count
                if on_path < k - 1:
                    # a set this thin on the path cannot be maximally stalled
                    verdict = classify(host, s)
                    assert not verdict.maximally_stalled


def _is_path_graph(g):
    if g.n == 1:
        return True
    degrees = sorted(g.degree(v) for v in range(g.n))
    return (
        is_connected(g)
        and degrees[-1] <= 2
        and degrees[:2] == [1, 1]
        and all(d == 2 for d in degrees[2:])
    )


def test_criterion_9_cut_vertex_theorem(capsys):
    with report(capsys, "9 cut-vertex theorem"):
        rng = random.Random(109)
        zero_count = 0
        non_paths = 0
        for _ in range(400):
            n = rng.randint(1, 8)
            _, edges = oracles.random_connected_graph(rng, n, p=rng.choice([0.2, 0.5]))
            g = Graph(n, edges)
            if gamma_bar_p(g).value != 0:
                continue
            zero_count += 1
            has_pendant = any(g.degree(v) == 1 for v in range(g.n))
            has_cut = len(cut_vertices(g)) > 0
            if has_pendant or has_cut:
                assert _is_path_graph(g), (n, edges)
            if not _is_path_graph(g):
                non_paths += 1
                assert vertex_connectivity(g) >= 2, (n, edges)
        assert zero_count >= 30 and non_paths >= 10
