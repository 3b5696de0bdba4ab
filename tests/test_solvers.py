import pickle
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from powerdom import (
    BudgetExceeded,
    Graph,
    classify,
    colex_masks,
    domination_number,
    failed_zero_forcing_number,
    gamma_bar_p,
    gamma_p,
    generate,
    max_independent_set,
    parse_family,
    zero_forcing_number,
)
from powerdom.solvers import (
    _fort_within,
    _grow_dependent,
    _grow_dominating,
    _grow_pds,
    _grow_zfs,
    _scan_stratum,
)
from powerdom import solvers

import oracles


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


FIG3 = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])


GROW = {"pds": _grow_pds, "zfs": _grow_zfs, "dominating": _grow_dominating,
        "dependent": _grow_dependent}

SOLVERS = [gamma_p, gamma_bar_p, zero_forcing_number, failed_zero_forcing_number,
           domination_number, max_independent_set]


def test_colex_order():
    masks = list(colex_masks(4, 2))
    as_sets = [tuple(i for i in range(4) if m >> i & 1) for m in masks]
    assert as_sets == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert masks == sorted(masks)
    assert list(colex_masks(3, 0)) == [0]


class TestGammaP:
    def test_paths_are_one(self):
        for n in range(1, 11):
            assert gamma_p(path(n)).value == 1

    def test_k1(self):
        res = gamma_p(complete(1))
        assert res.value == 1
        assert res.witness.members() == [0]

    def test_matches_reference(self):
        rng = random.Random(31)
        for _ in range(40):
            n, edges = oracles.random_graph(rng, rng.randint(1, 7))
            assert gamma_p(Graph(n, edges)).value == oracles.brute_gamma_p(n, edges)

    def test_witness_is_minimum_pds(self):
        rng = random.Random(32)
        for _ in range(20):
            n, edges = oracles.random_graph(rng, rng.randint(1, 7))
            res = gamma_p(Graph(n, edges))
            assert len(res.witness) == res.value
            assert oracles.is_pds(n, edges, res.witness.members())


class TestGammaBarP:
    def test_star_k13(self):
        assert gamma_bar_p(star(3)).value == 1

    def test_c7_is_zero(self):
        assert gamma_bar_p(cycle(7)).value == 0

    def test_k2_union_k3(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        assert gamma_bar_p(g).value == 3

    def test_k1(self):
        res = gamma_bar_p(complete(1))
        assert res.value == 0
        assert res.witness.members() == []

    def test_matches_reference(self):
        rng = random.Random(33)
        for _ in range(40):
            n, edges = oracles.random_graph(rng, rng.randint(1, 7))
            assert gamma_bar_p(Graph(n, edges)).value == oracles.brute_gamma_bar(n, edges)

    def test_witness_and_supersets(self):
        rng = random.Random(34)
        for _ in range(10):
            n, edges = oracles.random_graph(rng, rng.randint(2, 8))
            g = Graph(n, edges)
            res = gamma_bar_p(g)
            assert classify(g, res.witness).is_fpds
            outside = [v for v in range(n) if v not in res.witness]
            for _ in range(min(50, len(outside))):
                u = rng.choice(outside)
                assert classify(g, res.witness.with_vertex(u)).is_pds


class TestZeroForcing:
    def test_path_is_one(self):
        for n in range(1, 9):
            assert zero_forcing_number(path(n)).value == 1

    def test_cycles_are_two(self):
        for n in range(3, 9):
            assert zero_forcing_number(cycle(n)).value == oracles.brute_zero_forcing(
                n, cycle(n).edges()
            ) == 2

    def test_k4(self):
        assert zero_forcing_number(complete(4)).value == oracles.brute_zero_forcing(
            4, complete(4).edges()
        ) == 3

    def test_failed_c4(self):
        assert failed_zero_forcing_number(cycle(4)).value == oracles.brute_failed_zero_forcing(
            4, cycle(4).edges()
        ) == 2

    def test_failed_k1(self):
        assert failed_zero_forcing_number(complete(1)).value == 0

    def test_matches_reference(self):
        rng = random.Random(35)
        for _ in range(30):
            n, edges = oracles.random_graph(rng, rng.randint(1, 7))
            g = Graph(n, edges)
            assert zero_forcing_number(g).value == oracles.brute_zero_forcing(n, edges)
            assert failed_zero_forcing_number(g).value == oracles.brute_failed_zero_forcing(n, edges)


class TestDominationAndIndependence:
    def test_path7(self):
        assert domination_number(path(7)).value == 3  # ceil(7/3)

    def test_complete(self):
        for n in range(1, 6):
            assert domination_number(complete(n)).value == 1

    def test_c6(self):
        assert domination_number(cycle(6)).value == oracles.brute_domination(
            6, cycle(6).edges()
        ) == 2

    def test_fig3_alpha(self):
        assert max_independent_set(FIG3).value == 2

    def test_alpha_complete_and_c5(self):
        assert max_independent_set(complete(5)).value == 1
        assert max_independent_set(cycle(5)).value == 2

    def test_alpha_edgeless(self):
        # every subset fails "dependent", the full vertex set included
        res = max_independent_set(Graph(4, []))
        assert res.value == 4
        assert res.witness.members() == [0, 1, 2, 3]

    def test_matches_reference(self):
        rng = random.Random(36)
        for _ in range(30):
            n, edges = oracles.random_graph(rng, rng.randint(1, 7))
            g = Graph(n, edges)
            assert domination_number(g).value == oracles.brute_domination(n, edges)
            assert max_independent_set(g).value == oracles.brute_alpha(n, edges)


class TestSolverContract:
    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            gamma_bar_p(cycle(8), budget=5)

    def test_calls_are_counted(self):
        res = gamma_bar_p(cycle(5))
        assert 0 < res.propagation_calls <= 2 ** 5

    def test_parameter_ordering_invariants(self):
        rng = random.Random(37)
        for _ in range(25):
            n, edges = oracles.random_connected_graph(rng, rng.randint(1, 7))
            g = Graph(n, edges)
            assert gamma_p(g).value <= domination_number(g).value
            assert gamma_bar_p(g).value <= failed_zero_forcing_number(g).value

    def test_json_shape(self):
        payload = gamma_bar_p(star(3)).to_json_dict()
        assert payload["parameter"] == "gamma_bar_p"
        assert payload["value"] == 1
        assert isinstance(payload["witness"], list)
        assert payload["calls"] > 0

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError):
            gamma_bar_p(cycle(5), budget=-3)

    def test_zero_budget_spends_one(self):
        # exhaustion reports budget + 1 subsets decided, here the empty set
        for solve in SOLVERS:
            with pytest.raises(BudgetExceeded) as info:
                solve(cycle(5), budget=0)
            assert (info.value.calls, info.value.budget) == (1, 0), solve.__name__
            # no stratum finished, so nothing is proven
            assert (info.value.lower_bound, info.value.witness) == (None, None), solve.__name__

    def test_budget_exceeded_pickles(self):
        exc = pickle.loads(pickle.dumps(BudgetExceeded(21, 20)))
        assert isinstance(exc, BudgetExceeded)
        assert (exc.calls, exc.budget) == (21, 20)
        assert str(exc) == str(BudgetExceeded(21, 20))
        exc = pickle.loads(pickle.dumps(BudgetExceeded(21, 20, 3, [0, 2, 5])))
        assert (exc.calls, exc.budget, exc.lower_bound, exc.witness) == (21, 20, 3, [0, 2, 5])

    def test_minimum_solvers_report_no_lower_bound(self):
        with pytest.raises(BudgetExceeded) as info:
            zero_forcing_number(cycle(8), budget=3)
        assert (info.value.lower_bound, info.value.witness) == (None, None)


class TestScanMatchesReference:
    """The depth-first scan against a per-subset colex scan built on the
    set-based predicates of the oracles."""

    def test_value_witness_and_calls(self):
        rng = random.Random(41)
        inputs = [oracles.random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]))
                  for _ in range(40)]
        inputs.append((6, []))
        for n, edges in inputs:
            g = Graph(n, edges)
            for solve in SOLVERS:
                res = solve(g)
                value, witness, calls = oracles.reference_solve(solve.__name__, n, edges)
                assert res.value == value, solve.__name__
                assert tuple(res.witness.members()) == witness, solve.__name__
                assert res.propagation_calls == calls, solve.__name__

    def test_each_stratum_for_either_answer(self):
        # the solvers' searches never meet a prefix that settles the wanted
        # answer above the leaves (the stratum below would have held a hit),
        # so the stratum scan is checked on its own, for both answers
        rng = random.Random(44)
        for _ in range(15):
            n, edges = oracles.random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
            adj, full = Graph(n, edges).adjacency_masks(), (1 << n) - 1
            for name, pred in oracles.subset_predicates(n, edges).items():
                for k in range(n + 1):
                    for want in (True, False):
                        hit, calls = _scan_stratum(adj, full, k, GROW[name], want, 10**9)
                        ref_hit, ref_calls = oracles.scan_stratum(
                            n, k, lambda s: pred(s) == want)
                        ref_mask = None if ref_hit is None else sum(1 << v for v in ref_hit)
                        assert (hit, calls) == (ref_mask, ref_calls), (name, k, want)

    def test_each_stratum_with_the_bound(self):
        # a failed-parameter stratum skips the children below `least`, built
        # from the colex-first failing sets of the strata below
        rng = random.Random(45)
        for _ in range(15):
            n, edges = oracles.random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
            adj, full = Graph(n, edges).adjacency_masks(), (1 << n) - 1
            preds = oracles.subset_predicates(n, edges)
            for name in ("pds", "zfs", "dependent"):
                fails = lambda s, pred=preds[name]: not pred(s)
                tops = []
                for k in range(n + 1):
                    least = (*tops, tops[-1] + 1) if tops else ()
                    hit, calls = _scan_stratum(adj, full, k, GROW[name], False, 10**9, least)
                    ref_hit, ref_calls = oracles.scan_stratum(n, k, fails)
                    ref_mask = None if ref_hit is None else sum(1 << v for v in ref_hit)
                    assert (hit, calls) == (ref_mask, ref_calls), (name, k, least)
                    if ref_hit is None:
                        break
                    if k:
                        tops.append(ref_hit[-1])

    def test_budget_runs_out_inside_a_settled_subtree(self):
        # a star with its center last: in the certifying stratum (k = 5) the
        # prefix {6} is already a PDS, so its comb(6, 4) = 15 completions,
        # the last subsets of the search, are decided in one step
        n, edges = 7, [(i, 6) for i in range(6)]
        g = Graph(n, edges)
        total = gamma_bar_p(g).propagation_calls
        assert total == oracles.reference_solve("gamma_bar_p", n, edges)[2]
        budget = total - 2
        with pytest.raises(BudgetExceeded) as info:
            gamma_bar_p(g, budget=budget)
        assert (info.value.calls, info.value.budget) == (budget + 1, budget)

    def test_budget_runs_out_inside_a_skipped_range(self):
        # F(path:18) decides 12,030 subsets below its certifying stratum 9.
        # The colex-first failing 8-set ends at 15, so a failing 9-set ends
        # at 16 or above, and the comb(16, 9) = 11,440 subsets ending below
        # 16 are decided in one step, past the budget
        g = generate(parse_family("path:18"))
        with pytest.raises(BudgetExceeded) as info:
            failed_zero_forcing_number(g, budget=15000)
        assert (info.value.calls, info.value.budget) == (15001, 15000)
        # F(path:18) = 8 was proven by then, with that failing 8-set
        assert info.value.lower_bound == 8
        assert info.value.witness == failed_zero_forcing_number(g).witness.members()
        assert len(info.value.witness) == 8 and info.value.witness[-1] == 15

    def test_dense_budget_sweep(self):
        # dense graphs are where children complete their prefixes most often:
        # dead children, early-stopped zero-forcing closures and single
        # completions all show up in value, witness and calls
        rng = random.Random(47)
        for _ in range(8):
            assert_budget_sweep(*oracles.random_graph(rng, rng.randint(8, 11),
                                                      rng.choice([0.5, 0.7, 0.9])))

    def test_failed_budget_sweep(self):
        # a solve succeeds iff the budget covers every subset it decides
        rng = random.Random(46)
        for _ in range(10):
            assert_budget_sweep(*oracles.random_graph(rng, rng.randint(2, 10),
                                                      rng.choice([0.2, 0.5, 0.8])))


def budgeted_outcome(solve, g, budget):
    """`solve` under `budget`, in the form of `oracles.reference_budgeted`."""
    try:
        res = solve(g, budget=budget)
    except BudgetExceeded as exc:
        return "exceeded", exc.calls, exc.budget, exc.lower_bound, exc.witness
    return "ok", res.value, tuple(res.witness.members()), res.propagation_calls


def assert_budget_sweep(n, edges):
    """Every solver's outcome, `BudgetExceeded` fields included, against
    the reference at budgets on either side of the strata below the one it
    stops at and of the whole solve."""
    g = Graph(n, edges)
    for solve in SOLVERS:
        strata = oracles.reference_strata(solve.__name__, n, tuple(edges))
        total = sum(spent for _, spent in strata)
        below = total - strata[-1][1]
        for budget in sorted({0, 1, total // 3, total // 2, below - 1, below, below + 1,
                              total - 1, total, total + 1, total + 5}):
            expected = oracles.reference_budgeted(solve.__name__, n, edges, budget)
            assert budgeted_outcome(solve, g, budget) == expected, (solve.__name__, budget)


@st.composite
def min_degree_four_graphs(draw, max_n=10):
    """Random graphs on 5..max_n vertices whose sparse vertices are joined
    to their lowest-numbered non-neighbors until every degree is 4."""
    n = draw(st.integers(5, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {pair for pair, kept in zip(pairs, keep) if kept}
    for u in range(n):
        for v in range(n):
            if sum(u in e for e in edges) >= 4:
                break
            if v != u:
                edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


class TestFortRoute:
    """F by forts: a set fails to force exactly when it misses a fort, so
    F = n - (fewest vertices of a fort), and the fort-certified stratum
    keeps the scan's value, witness, calls and budget outcomes."""

    def test_failed_zero_forcing_is_n_minus_min_fort(self):
        rng = random.Random(48)
        for _ in range(60):
            n, edges = oracles.random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.5, 0.8]))
            assert failed_zero_forcing_number(Graph(n, edges)).value \
                == n - oracles.brute_min_fort(n, edges)

    def test_fort_within_finds_a_fort_iff_one_fits(self):
        rng = random.Random(49)
        for _ in range(40):
            n, edges = oracles.random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]))
            masks, nbrs = Graph(n, edges).adjacency_masks(), oracles.adj_of(n, edges)
            smallest = oracles.brute_min_fort(n, edges)
            for m in range(n + 1):
                found = _fort_within(masks, m)
                if m < smallest:
                    assert found is None, (n, edges, m)
                    continue
                members = {v for v in range(n) if found >> v & 1}
                assert 0 < len(members) <= m
                assert all(len(nbrs[v] & members) != 1 for v in range(n) if v not in members)

    @given(min_degree_four_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_min_degree_four(self, graph):
        n, edges = graph
        g = Graph(n, edges)
        assert min(g.degrees()) >= 4
        res = failed_zero_forcing_number(g)
        value, witness, calls = oracles.reference_solve("failed_zero_forcing_number", n, edges)
        assert (res.value, tuple(res.witness.members()), res.propagation_calls) \
            == (value, witness, calls)

    @given(min_degree_four_graphs(max_n=9))
    @settings(max_examples=25, deadline=None)
    def test_budget_sweep_on_min_degree_four(self, graph):
        # budgets on either side of the strata below the certifying one and
        # of the certifying stratum itself, which the fort search settles
        # only when the budget left covers it
        n, edges = graph
        g = Graph(n, edges)
        value, _, total = oracles.reference_solve("failed_zero_forcing_number", n, edges)
        below = total - comb(n, value + 1)
        for budget in sorted({max(b, 0) for b in (below - 1, below, below + 1,
                                                  total - 1, total, total + 1)}):
            expected = oracles.reference_budgeted("failed_zero_forcing_number", n, edges, budget)
            try:
                res = failed_zero_forcing_number(g, budget=budget)
            except BudgetExceeded as exc:
                got = ("exceeded", exc.calls, exc.budget, exc.lower_bound, exc.witness)
            else:
                got = ("ok", res.value, tuple(res.witness.members()), res.propagation_calls)
            assert got == expected, budget

    def test_route_needs_minimum_degree_four(self, monkeypatch):
        def refuse(adj, m):
            raise AssertionError("fort search")

        monkeypatch.setattr(solvers, "_fort_within", refuse)
        for spec in ("wheel:30", "cycle:30", "path:18", "ladder:9", "grid:5,5"):
            failed_zero_forcing_number(generate(parse_family(spec)), budget=10**12)
        with pytest.raises(AssertionError, match="fort search"):
            failed_zero_forcing_number(generate(parse_family("kxp:4,5")))


class TestExactRegressions:
    def test_gamma_bar_p_grid_5x5(self):
        g = generate(parse_family("grid:5,5"))
        res = gamma_bar_p(g)
        assert res.value == 12
        assert len(res.witness) == 12
        assert not oracles.is_pds(g.n, g.edges(), res.witness.members())

    def test_gamma_bar_p_grid_6x6(self):
        g = generate(parse_family("grid:6,6"))
        res = gamma_bar_p(g, budget=10**12)
        assert res.value == len(res.witness) == 20
        assert not oracles.is_pds(g.n, g.edges(), res.witness.members())

    def test_failed_grid_10x10(self):
        # agree with the fort formulation: n - min |N[F]| and n - min |F| over forts F
        g = generate(parse_family("grid:10,10"))
        res = gamma_bar_p(g, budget=10**30)
        assert res.value == len(res.witness) == 72
        assert not oracles.is_pds(g.n, g.edges(), res.witness.members())
        res = failed_zero_forcing_number(g, budget=10**30)
        assert res.value == len(res.witness) == 90
        assert not oracles.is_zfs(g.n, g.edges(), res.witness.members())

    def test_kxp_4_5(self):
        # the dense instance where most scan children complete their prefix:
        # value, witness and calls pinned to the one-subset-at-a-time scan
        g = generate(parse_family("kxp:4,5"))
        res = failed_zero_forcing_number(g)
        assert (res.value, res.propagation_calls, res.witness.bits) == (14, 19742, 338943)
        res = gamma_bar_p(g)
        assert (res.value, res.propagation_calls, res.witness.bits) == (4, 15632, 330)

    def test_failed_zero_forcing_kxp_5_6(self):
        # the certifying stratum 23 holds comb(30, 23) = 2,035,800 subsets,
        # settled by the fort search
        res = failed_zero_forcing_number(generate(parse_family("kxp:5,6")))
        assert (res.value, res.propagation_calls) == (22, 2141920)
        assert res.witness.members() == [*range(18), 19, 21, 25, 27]

    def test_failed_zero_forcing_grid_6x6(self):
        g = generate(parse_family("grid:6,6"))
        res = failed_zero_forcing_number(g)
        assert res.value == 30
        assert not oracles.is_zfs(g.n, g.edges(), res.witness.members())
