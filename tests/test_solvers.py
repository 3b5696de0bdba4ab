import pickle
import random
from itertools import accumulate
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from powerdom import (
    BudgetExceeded,
    Graph,
    VertexSet,
    classify,
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
    _fort_witness,
    _grow_dependent,
    _grow_dominating,
    _grow_pds,
    _grow_zfs,
    _scan_stratum,
    colex_masks,
)
from powerdom import solvers
from powerdom.graphs import closed_neighborhood_bits
from powerdom.propagation import fixpoint_from

import census
import oracles
from contracts import assert_value_type


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
        res = gamma_bar_p(star(3))
        assert_value_type(res, gamma_bar_p(star(3)),
                          ("parameter", "value", "witness", "propagation_calls"))
        assert res.value == 1 and res.witness.members() == [1]
        payload = res.to_json_dict()
        assert payload["parameter"] == "gamma_bar_p"
        assert payload["value"] == 1
        assert isinstance(payload["witness"], list)
        assert payload["calls"] > 0
        assert payload == {"parameter": "gamma_bar_p", "value": 1, "witness": [1], "calls": 9}

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

    @pytest.mark.parametrize("solve", SOLVERS, ids=lambda solve: solve.__name__)
    def test_empty_graph_is_rejected(self, solve):
        with pytest.raises(ValueError, match="^solvers require at least one vertex$"):
            solve(Graph(0))

    def test_ascent_scans_from_one_and_always_has_a_witness(self, monkeypatch):
        # the empty set is decided before the ascent, so no stratum scan
        # sees k = 0, and every result carries its witness, the empty set
        # included: alpha of an edgeless graph is n, gamma_bar_p of K1 is 0,
        # and every third graph is joined up to the fort route's degree 4
        scanned = scanned_strata(monkeypatch)
        rng = random.Random(56)
        graphs = [generate(parse_family("empty:4")), complete(1)]
        for i in range(30):
            n, edges = oracles.random_graph(rng, rng.randint(5, 9), rng.choice([0.2, 0.5, 0.8]))
            graphs.append(Graph(n, joined_to_degree_four(n, edges) if i % 3 == 0 else edges))
        assert sum(min(g.degrees()) >= 4 for g in graphs) >= 10
        witnesses = [solve(g).witness for g in graphs for solve in SOLVERS]
        assert all(isinstance(w, VertexSet) for w in witnesses)
        assert scanned and 0 not in scanned
        assert max_independent_set(graphs[0]).witness.members() == [0, 1, 2, 3]
        assert gamma_bar_p(graphs[1]).witness.members() == []


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
        # the stratum scan on its own, for both answers, on the strata the
        # ascent reaches: k >= 1, and a satisfying set is asked for only up
        # to the least size that has one, below which every set fails.  A
        # failing hit comes with its state, a satisfying one with None
        rng = random.Random(44)
        for _ in range(15):
            n, edges = oracles.random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
            adj, full = Graph(n, edges).adjacency_masks(), (1 << n) - 1
            states = oracles.predicate_states(n, edges)
            for name, pred in oracles.subset_predicates(n, edges).items():
                satisfied = False  # a smaller stratum held a satisfying set
                for k in range(1, n + 1):
                    for want in (False,) if satisfied else (True, False):
                        ref_hit, ref_calls = oracles.scan_stratum(
                            n, k, lambda s: pred(s) == want)
                        ref_state = None if want or ref_hit is None else states[name](ref_hit)
                        hit = assert_scan_matches(adj, full, k, GROW[name], want, (),
                                                  ref_hit, ref_calls, ref_state)
                        satisfied |= want and hit is not None

    def test_each_stratum_with_the_bound(self):
        # a failed-parameter stratum skips the children below `least`, built
        # from the colex-first failing sets of the strata below.  A hit that
        # is the hit before plus its own largest element `top` ranks
        # comb(top, k) after it
        rng = random.Random(45)
        shortcuts = 0
        for _ in range(15):
            n, edges = oracles.random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
            adj, full = Graph(n, edges).adjacency_masks(), (1 << n) - 1
            preds = oracles.subset_predicates(n, edges)
            states = oracles.predicate_states(n, edges)
            for name in ("pds", "zfs", "dependent"):
                fails = lambda s, pred=preds[name]: not pred(s)
                tops, before, before_calls = [], 0, 1
                for k in range(1, n + 1):
                    least = (*tops, tops[-1] + 1) if tops else ()
                    ref_hit, ref_calls = oracles.scan_stratum(n, k, fails)
                    ref_state = None if ref_hit is None else states[name](ref_hit)
                    hit = assert_scan_matches(adj, full, k, GROW[name], False, least,
                                              ref_hit, ref_calls, ref_state)
                    if hit is None:
                        break
                    top = ref_hit[-1]
                    if hit ^ 1 << top == before:
                        assert before_calls + comb(top, k) == ref_calls, (name, k)
                        shortcuts += 1
                    tops.append(top)
                    before, before_calls = hit, ref_calls
        assert shortcuts >= 80

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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_census_budget_sweep(self, n):
        # every graph on up to 6 vertices, one per isomorphism class
        for edges in census.graphs(n):
            assert_budget_sweep(n, edges)

    def test_failed_budget_sweep(self):
        # a solve succeeds iff the budget covers every subset it decides
        rng = random.Random(46)
        for _ in range(10):
            assert_budget_sweep(*oracles.random_graph(rng, rng.randint(2, 10),
                                                      rng.choice([0.2, 0.5, 0.8])))


def assert_scan_matches(adj, full, k, grow, want, least, ref_hit, ref_calls, ref_state):
    """`_scan_stratum` against the per-subset reference scan of its
    stratum, which found `ref_hit` (or None) after deciding `ref_calls`
    subsets: the hit and its state; the count `_solve` gives the stratum,
    the hit's colex rank plus one or comb(n, k) without one; and every
    window `rest` below comb(n, k), which holds the hit exactly when `rest`
    is at least its rank.  Returns the hit as a mask."""
    n = len(adj)
    ref_mask = None if ref_hit is None else sum(1 << v for v in ref_hit)
    got = _scan_stratum(adj, full, k, grow, want, None, least)
    assert got == (ref_mask, ref_state), (k, want, least)
    count = comb(n, k) if ref_mask is None else solvers._colex_rank(ref_mask) + 1
    assert count == ref_calls, (k, want, least)
    for rest in range(comb(n, k)):
        window = got if rest >= ref_calls - 1 else (None, None)
        assert _scan_stratum(adj, full, k, grow, want, rest, least) == window, \
            (k, want, least, rest)
    return ref_mask


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


def joined_to_degree_four(n, edges):
    """`edges` on n >= 5 vertices, with each sparse vertex joined to its
    lowest-numbered non-neighbors until every degree is 4."""
    edges = set(edges)
    for u in range(n):
        for v in range(n):
            if sum(u in e for e in edges) >= 4:
                break
            if v != u:
                edges.add((min(u, v), max(u, v)))
    return sorted(edges)


@st.composite
def min_degree_four_graphs(draw, max_n=10):
    """Random graphs on 5..max_n vertices, joined up to minimum degree 4."""
    n = draw(st.integers(5, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, joined_to_degree_four(n, (pair for pair, kept in zip(pairs, keep) if kept))


def first_failing(n, edges, k):
    """The colex-first k-set that fails to force, as a mask, or None."""
    return next((sum(1 << v for v in s) for s in oracles.colex_subsets(n, k)
                 if not oracles.is_zfs(n, edges, s)), None)


class CountedAdjacency(tuple):
    """Adjacency masks that count their lookups."""

    lookups = 0

    def __getitem__(self, v):
        self.lookups += 1
        return tuple.__getitem__(self, v)


def scanned_strata(monkeypatch):
    """The strata `_scan_stratum` is asked for, in order, from now on."""
    scanned = []

    def scan(adj, full, k, *args):
        scanned.append(k)
        return _scan_stratum(adj, full, k, *args)

    monkeypatch.setattr(solvers, "_scan_stratum", scan)
    return scanned


class TestNextVertexExtension:
    """A failed stratum of gamma_bar_p or F is W + m, with no scan, when the
    next vertex m = max(W) + 1 adds nothing to the state of the witness W
    before it; the scan's value, witness, calls and budget outcomes stay."""

    EXTENDED = [gamma_bar_p, failed_zero_forcing_number]

    def test_matches_reference_and_budget_sweep(self, monkeypatch):
        # a shortcut taken when W + m does not fail, or ranked wrong, shows
        # up in value, witness or calls; a stratum it decides is not scanned
        scanned = scanned_strata(monkeypatch)
        rng = random.Random(57)
        extended = 0
        for _ in range(40):
            n, edges = oracles.random_graph(rng, rng.randint(2, 12), rng.choice([0.15, 0.3, 0.5]))
            g = Graph(n, edges)
            for solve in self.EXTENDED:
                scanned.clear()
                res = solve(g)
                extended += res.value + 1 - len(scanned)
                assert (res.value, tuple(res.witness.members()), res.propagation_calls) \
                    == oracles.reference_solve(solve.__name__, n, edges), solve.__name__
                strata = oracles.reference_strata(solve.__name__, n, tuple(edges))
                ends = [0, *accumulate(spent for _, spent in strata)]
                budgets = {b + d for b in ends for d in (-1, 0, 1) if 0 <= b + d <= 3000}
                budgets.update(rng.sample(range(3001), 10))
                for budget in sorted(budgets):
                    assert budgeted_outcome(solve, g, budget) == oracles.reference_budgeted(
                        solve.__name__, n, edges, budget), (solve.__name__, budget)
        assert extended >= 40

    @pytest.mark.parametrize("solve, spec, scans, strata", [
        (failed_zero_forcing_number, "grid:5,5", 11, 21),
        (gamma_bar_p, "grid:6,6", 11, 21),
        (gamma_bar_p, "grid:10,10", 19, 73),
        # no m lies in the witness's closure: every stratum is scanned
        (failed_zero_forcing_number, "path:18", 9, 9),
        (failed_zero_forcing_number, "cycle:16", 9, 9),
    ])
    def test_strata_scanned(self, monkeypatch, solve, spec, scans, strata):
        scanned = scanned_strata(monkeypatch)
        res = solve(generate(parse_family(spec)), budget=10**30)
        assert (len(scanned), res.value + 1) == (scans, strata)


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

    def test_fort_witness_is_the_colex_first_failing_set(self):
        rng = random.Random(49)
        for _ in range(40):
            n, edges = oracles.random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]))
            masks = Graph(n, edges).adjacency_masks()
            for k in range(n + 1):
                assert _fort_witness(masks, k, range(n)) == first_failing(n, edges, k), \
                    (n, edges, k)

    def test_roots_may_be_any_zero_forcing_set(self, monkeypatch):
        # every fort meets every zero forcing set, so a search from the
        # solver's roots, from random forcing sets or from V gives one
        # answer.  The solver thins its roots only when n - k > 4 at the
        # first search, so the graphs have 7 to 10 vertices.
        searched = []

        def search(adj, k, roots):
            searched.append(list(roots))
            return _fort_witness(adj, k, roots)

        monkeypatch.setattr(solvers, "_fort_witness", search)
        rng = random.Random(62)
        thinned = random_roots = 0
        for _ in range(300):
            n, edges = oracles.random_graph(rng, rng.randint(7, 10),
                                            rng.choice([0.15, 0.25, 0.35, 0.5]))
            g = Graph(n, edges)
            masks = g.adjacency_masks()
            searched.clear()
            solvers._solve(g, "failed_zero_forcing_number", _grow_zfs, False, 10**12, True)
            # every search has the same roots; thinned ones are not the
            # prefix {0..m} they came from
            roots = [range(n), *searched[:1]]
            thinned += len(roots) > 1 and roots[1] != list(range(len(roots[1])))
            for _ in range(30):
                z = sorted(rng.sample(range(n), rng.randint(1, n)))
                if len(roots) < 6 and oracles.is_zfs(n, edges, z):
                    roots.append(z)
                    random_roots += len(z) < n
            for k in range(n + 1):
                first = first_failing(n, edges, k)
                for z in roots:
                    assert _fort_witness(masks, k, z) == first, (n, edges, k, z)
        assert thinned >= 15 and random_roots >= 600

    def test_roots_must_force(self):
        # roots that miss a fort can miss the answer: found by a search
        rng = random.Random(63)
        for _ in range(100):
            n, edges = oracles.random_graph(rng, rng.randint(2, 9), rng.choice([0.2, 0.5, 0.8]))
            z = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            if oracles.is_zfs(n, edges, z):
                continue
            masks = Graph(n, edges).adjacency_masks()
            if any(_fort_witness(masks, k, z) != first_failing(n, edges, k)
                   for k in range(n + 1)):
                break
        else:
            pytest.fail("every non-forcing root set gave every answer")

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
        # every stratum above the first takes the fort route: budgets on
        # either side of each stratum's end, where the route must run out
        # exactly where the scan does
        n, edges = graph
        g = Graph(n, edges)
        strata = oracles.reference_strata("failed_zero_forcing_number", n, tuple(edges))
        ends = [0, *accumulate(spent for _, spent in strata)]
        for budget in sorted({max(b + d, 0) for b in ends for d in (-1, 0, 1)}):
            expected = oracles.reference_budgeted("failed_zero_forcing_number", n, edges, budget)
            assert budgeted_outcome(failed_zero_forcing_number, g, budget) == expected, budget

    def test_route_needs_minimum_degree_four(self, monkeypatch):
        def refuse(adj, k, roots):
            raise AssertionError("fort search")

        monkeypatch.setattr(solvers, "_fort_witness", refuse)
        for spec in ("wheel:30", "cycle:30", "path:18", "ladder:9", "grid:5,5"):
            failed_zero_forcing_number(generate(parse_family(spec)), budget=10**12)
        with pytest.raises(AssertionError, match="fort search"):
            failed_zero_forcing_number(generate(parse_family("kxp:4,5")))

    @pytest.mark.parametrize("spec, searched, value, witness, calls", [
        ("kxp:4,5", [11, 12, 13, 14, 15], 14, [*range(10), 11, 13, 16, 18], 19742),
        ("complete:8", [7], 6, [*range(6)], 15),
        ("kmn:6,6", [11], 10, [*range(10)], 23),
    ])
    def test_route_searches_only_past_the_first_sets(self, monkeypatch, spec, searched,
                                                     value, witness, calls):
        # a stratum whose witness is {0..k-1} is decided by the next-vertex
        # step, {0..k-2} plus k - 1; the fort search runs from the first
        # other one
        seen = []

        def search(adj, k, roots):
            seen.append(k)
            return _fort_witness(adj, k, roots)

        monkeypatch.setattr(solvers, "_fort_witness", search)
        res = failed_zero_forcing_number(generate(parse_family(spec)))
        assert seen == searched
        assert (res.value, res.witness.members(), res.propagation_calls) \
            == (value, witness, calls)

    def test_search_never_returns_the_first_set(self, monkeypatch):
        # {0..k-1} can fail only when {0..k-2} was the witness before it,
        # and then the next-vertex step has already decided it, so no
        # search needs to stop early on finding it
        returned = []

        def search(adj, k, roots):
            hit = _fort_witness(adj, k, roots)
            returned.append((k, hit))
            return hit

        monkeypatch.setattr(solvers, "_fort_witness", search)
        rng = random.Random(55)
        for _ in range(60):
            n, edges = oracles.random_graph(rng, rng.randint(5, 12), rng.choice([0.2, 0.4, 0.6]))
            failed_zero_forcing_number(Graph(n, joined_to_degree_four(n, edges)))
        assert len(returned) > 60
        assert [(k, hit) for k, hit in returned if hit == (1 << k) - 1] == []

    @pytest.mark.parametrize("spec, grown", [
        ("kxp:4,5", 11), ("kmn:6,6", 11), ("complete:8", 7), ("kxp:6,4", 17),
    ])
    def test_route_grows_no_closure_after_a_search(self, monkeypatch, spec, grown):
        # the next-vertex step grows cl(W) by the next vertex while W is
        # {0..k-1}, up to the first stratum it does not decide, {0..m}.
        # Then {0..m} is thinned to the search's roots, one closure
        # cl({0..j-1} + kept) for each j from m - 1 down, `kept` growing by
        # j when it is not V: the roots are {0, 1, 5, 10} on kxp:4,5.  On
        # kmn:6,6 and complete:8 the search has n - k = 1 and starts from
        # {0..m}, with no thinning.  After a search the state is V, and
        # cl(W) is not recomputed.  Closures of V return at once and are
        # not counted.
        added = []

        def closure(adj, closed, add, stop=0):
            if closed != (1 << len(adj)) - 1:
                added.append(add)
            return fixpoint_from(adj, closed, add, stop)

        monkeypatch.setattr(solvers, "fixpoint_from", closure)
        failed_zero_forcing_number(generate(parse_family(spec)))
        thinned = {
            "kxp:4,5": [((10,), 5), ((5, 10), 4), ((1, 5, 10), 1)],
            "kxp:6,4": [((16,), 4), ((12, 16), 4), ((8, 12, 16), 4), ((4, 8, 12, 16), 3),
                        ((1, 4, 8, 12, 16), 1)],
        }.get(spec, [])
        thinning = [sum(1 << v for v in kept) for kept, times in thinned for _ in range(times)]
        assert added == [1 << v for v in range(grown)] + thinning

    @pytest.mark.parametrize("forts", [False, True])
    def test_either_route_on_any_graph(self, forts):
        # F forced onto one route on graphs of any minimum degree, against
        # the per-subset scan, unbudgeted and on either side of each
        # stratum's end: no route may change a value, witness, count or
        # budget outcome
        def solve(g, budget=10**12):
            return solvers._solve(g, "failed_zero_forcing_number", _grow_zfs, False, budget,
                                  forts)

        rng = random.Random(59)
        for _ in range(120):
            n, edges = oracles.random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.7]))
            g = Graph(n, edges)
            res = solve(g)
            assert (res.value, tuple(res.witness.members()), res.propagation_calls) \
                == oracles.reference_solve("failed_zero_forcing_number", n, edges), (n, edges)
            strata = oracles.reference_strata("failed_zero_forcing_number", n, tuple(edges))
            ends = [0, *accumulate(spent for _, spent in strata)]
            for budget in sorted({max(b + d, 0) for b in ends for d in (-1, 0, 1)}):
                expected = oracles.reference_budgeted("failed_zero_forcing_number", n, edges,
                                                      budget)
                assert budgeted_outcome(solve, g, budget) == expected, (n, edges, budget)

    def test_search_work_per_stratum(self, monkeypatch):
        # the adjacency lookups of each search of F(kxp:4,5): the pin fails
        # when the search starts from every vertex instead of the thinned
        # roots {0, 1, 5, 10}, or without the `late` cut or the break on a
        # violated vertex with fewer than two options
        work = {}

        def search(adj, k, roots):
            counted = CountedAdjacency(adj)
            hit = _fort_witness(counted, k, roots)
            work[k] = counted.lookups
            return hit

        monkeypatch.setattr(solvers, "_fort_witness", search)
        assert failed_zero_forcing_number(generate(parse_family("kxp:4,5"))).value == 14
        assert work == {11: 99, 12: 191, 13: 608, 14: 538, 15: 792}

    def test_route_scans_only_the_empty_stratum(self, monkeypatch):
        # the empty stratum is decided before the ascent, and every stratum
        # after it takes the fort route, so nothing is scanned
        scanned = scanned_strata(monkeypatch)
        res = failed_zero_forcing_number(generate(parse_family("kxp:4,5")))
        assert (res.value, scanned) == (14, [])


def grow_calls(monkeypatch, solve, g):
    """The result of `solve(g)` and, per stratum k, the closures its scan
    grows: the calls of the `grow` that `_scan_stratum` receives."""
    calls = {}

    def scan(adj, full, k, grow, *args):
        def counted(*grow_args):
            calls[k] = calls.get(k, 0) + 1
            return grow(*grow_args)

        return _scan_stratum(adj, full, k, counted, *args)

    monkeypatch.setattr(solvers, "_scan_stratum", scan)
    return solve(g), calls


class TestMeasuredShortcuts:
    """The scan's shortcuts change no value, witness or count, so these pins
    watch the work they save."""

    def test_first_set_stratum_is_one_closure(self, monkeypatch):
        # Z(K4) = 3 with witness {0, 1, 2}: the first child of stratum 3
        # has a single completion, decided by one closure over {0, 1, 2}
        # instead of one per element
        res, calls = grow_calls(monkeypatch, zero_forcing_number, complete(4))
        assert (res.value, res.witness.members()) == (3, [0, 1, 2])
        assert calls[3] == 1

    def test_settled_children_grow_no_closure(self, monkeypatch):
        """gamma_bar_p(grid:3,3) = 2 grows 1, 14 and 3 closures in strata 1
        to 3.  Stratum 3 starts at 7, the least the witness {2, 6} of
        stratum 2 allows: {7} is a PDS, so its subtree is settled and 7 is
        dead below the next child, {8}, whose child {6, 8} is a PDS too.
        That is 3 closures, {7}, {8} and {6, 8}; the dead child {7, 8} is
        settled with none.  In stratum 2 dead vertices settle leaves the
        same way."""
        res, calls = grow_calls(monkeypatch, gamma_bar_p, generate(parse_family("grid:3,3")))
        assert (res.value, res.witness.members()) == (2, [2, 6])
        assert calls == {1: 1, 2: 14, 3: 3}

    def test_zero_forcing_closures_stop_at_dead_vertices(self, monkeypatch):
        # the scan's dead vertices reach `fixpoint_from` as its `stop`
        stops = []

        def closure(adj, closed, add, stop=0):
            stops.append(stop)
            return fixpoint_from(adj, closed, add, stop)

        monkeypatch.setattr(solvers, "fixpoint_from", closure)
        assert failed_zero_forcing_number(generate(parse_family("grid:5,5"))).value == 20
        assert any(stops)

    def test_one_vertex_dominating_child_calls_no_helper(self, monkeypatch):
        # a scan child adds one vertex, whose N[v] is its mask plus itself
        walks = []

        def walk(adj, bits):
            walks.append(bits)
            return closed_neighborhood_bits(adj, bits)

        monkeypatch.setattr(solvers, "closed_neighborhood_bits", walk)
        g = generate(parse_family("grid:3,3"))
        adj, full = g.adjacency_masks(), (1 << g.n) - 1
        for v in range(g.n):
            assert _grow_dominating(adj, full, 0, 1 << v, 0) == adj[v] | 1 << v
        assert walks == []
        assert _grow_dominating(adj, full, 0, 0b101, 0) == adj[0] | adj[2] | 0b111
        assert walks == [0b101]


class TestFortOracle:
    """The branch and bound over forts in `oracles`, which shares no code
    with the solvers, against the brute-force oracles.  Past their reach
    it is the second route for the gamma_bar_p and F pins below and for
    the gadget values of `test_reduction.TestBothDirections`."""

    def test_matches_the_brute_force_oracles(self):
        rng = random.Random(54)
        disconnected = 0
        for _ in range(60):
            n, edges = oracles.random_graph(rng, rng.randint(1, 10),
                                            rng.choice([0.1, 0.3, 0.5, 0.8]))
            disconnected += not oracles.is_connected(n, edges)
            assert oracles.fort_gamma_bar_p(n, edges) == oracles.brute_gamma_bar(n, edges), \
                (n, edges)
            assert oracles.fort_failed_zero_forcing(n, edges) \
                == oracles.brute_failed_zero_forcing(n, edges), (n, edges)
        assert disconnected >= 10


class TestExactRegressions:
    def test_gamma_bar_p_grid_5x5(self):
        g = generate(parse_family("grid:5,5"))
        res = gamma_bar_p(g)
        assert res.value == oracles.fort_gamma_bar_p(g.n, g.edges()) == 12
        assert len(res.witness) == 12
        assert not oracles.is_pds(g.n, g.edges(), res.witness.members())

    def test_gamma_bar_p_grid_6x6(self):
        g = generate(parse_family("grid:6,6"))
        res = gamma_bar_p(g, budget=10**12)
        assert res.value == len(res.witness) == oracles.fort_gamma_bar_p(g.n, g.edges()) == 20
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
        assert oracles.fort_failed_zero_forcing(g.n, g.edges()) == 14
        res = gamma_bar_p(g)
        assert (res.value, res.propagation_calls, res.witness.bits) == (4, 15632, 330)
        assert oracles.fort_gamma_bar_p(g.n, g.edges()) == 4

    def test_failed_zero_forcing_kxp_5_6(self):
        # the fort search finds every witness; the certifying stratum 23
        # counts all comb(30, 23) = 2,035,800 of its subsets as decided
        res = failed_zero_forcing_number(generate(parse_family("kxp:5,6")))
        assert (res.value, res.propagation_calls) == (22, 2141920)
        assert res.witness.members() == [*range(18), 19, 21, 25, 27]

    def test_failed_zero_forcing_kxp_4_8(self):
        # 30,361,954 subsets decided, out of reach of a scan in tier-1 time
        res = failed_zero_forcing_number(generate(parse_family("kxp:4,8")))
        assert (res.value, res.propagation_calls) == (22, 30361954)
        assert res.witness.members() == [*range(16), 17, 19, 21, 25, 27, 29]

    def test_failed_zero_forcing_kxp_6_4(self):
        res = failed_zero_forcing_number(generate(parse_family("kxp:6,4")))
        assert (res.value, res.propagation_calls) == (18, 43855)
        assert res.witness.members() == [*range(16), 17, 21]

    def test_failed_zero_forcing_grid_6x6(self):
        g = generate(parse_family("grid:6,6"))
        res = failed_zero_forcing_number(g)
        assert res.value == oracles.fort_failed_zero_forcing(g.n, g.edges()) == 30
        assert not oracles.is_zfs(g.n, g.edges(), res.witness.members())

    def test_gamma_bar_p_grid_14x14(self):
        # a pin of the pattern gamma_bar_p(grid:n,n) = (n - 1)(n - 2), seen
        # for n = 3..10, 14, 16, 18 and 20 but not proved; no oracle reaches it
        g = generate(parse_family("grid:14,14"))
        res = gamma_bar_p(g, budget=10**50)
        assert (res.value, res.propagation_calls) \
            == (156, 344646577153276990716267789162722895017857)
        assert len(res.witness) == 156
        assert not oracles.is_pds(g.n, g.edges(), res.witness.members())

    def test_failed_zero_forcing_grid_20x20(self):
        # a pin of the pattern F(grid:n,n) = n^2 - n, seen for n = 2..9, 14,
        # 20, 24 and 30 but not proved
        g = generate(parse_family("grid:20,20"))
        res = failed_zero_forcing_number(g, budget=10**40)
        assert (res.value, res.propagation_calls) == (380, 983935700235556674738194054334935)
        assert len(res.witness) == 380
        assert not oracles.is_zfs(g.n, g.edges(), res.witness.members())


def grid(m, n):
    return generate(parse_family(f"grid:{m},{n}"))


class TestPublishedClosedForms:
    """The enumerator against closed forms with published proofs, a route
    independent of it past the brute-force oracles' reach."""

    def test_zero_forcing_of_small_families(self):
        # AIM Minimum Rank-Special Graphs Work Group (2008)
        for n in range(1, 11):
            assert zero_forcing_number(path(n)).value == 1, n
        for n in range(3, 11):
            assert zero_forcing_number(cycle(n)).value == 2, n
        for n in range(2, 9):
            assert zero_forcing_number(complete(n)).value == n - 1, n
        for m in range(2, 7):
            for n in range(1, m + 1):
                g = generate(parse_family(f"kmn:{m},{n}"))
                assert zero_forcing_number(g).value == m + n - 2, (m, n)

    def test_zero_forcing_of_grids(self):
        # Z(P_m x P_n) = min(m, n), same source
        for m in range(1, 6):
            for n in range(1, m + 1):
                assert zero_forcing_number(grid(m, n)).value == min(m, n), (m, n)

    def test_independence_of_grids(self):
        # the two colour classes of the bipartite grid, the larger one maximum
        for m in range(1, 6):
            for n in range(1, m + 1):
                assert max_independent_set(grid(m, n)).value == -(-m * n // 2), (m, n)

    def test_power_domination_of_grids(self):
        # Dorfling & Henning (2006): for m >= n >= 1, ceil((n + 1)/4) when
        # n = 4 (mod 8), else ceil(n/4)
        for m in range(1, 11):
            for n in range(1, m + 1):
                want = -(-(n + 1) // 4) if n % 8 == 4 else -(-n // 4)
                assert gamma_p(grid(m, n)).value == want, (m, n)

    def test_one_larger_instance_per_formula(self):
        # past the ranges above, where each solve still takes under a second;
        # alpha(grid:10,10) decides about 1.4e29 subsets, past the default budget
        assert zero_forcing_number(grid(6, 6)).value == 6
        assert zero_forcing_number(generate(parse_family("kmn:8,8"))).value == 14
        assert max_independent_set(grid(10, 10), budget=10**30).value == 50
        assert gamma_p(grid(11, 11)).value == 3  # 11 = 3 (mod 8): ceil(11/4)
