"""Exact parameter solvers built on pruned subset enumeration.

Every solver ascends subset sizes against an upward-closed predicate (a
superset of a set that satisfies it satisfies it too): power domination,
zero forcing, domination, and dependence (the set holds an edge).  The
minimum parameters stop at the first size with a satisfying set.  The
failed parameters, and the independence number as the largest set that is
not dependent, stop at the first size with no failing set: failing sets
form a downward-closed family, so "no failing set of size k" certifies that
k - 1 is the answer.  Subsets are enumerated in colexicographic order, which
for fixed cardinality coincides with numeric order of the bitmasks;
witnesses are therefore the colexicographically smallest hit.  The least
elements of a failing set fail too, so a failed-parameter stratum skips
every subset whose least elements sit below the witnesses of the strata
before it; skipped subsets count as decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .errors import BudgetExceeded
from .graphs import Graph, VertexSet
from .propagation import fixpoint_from

DEFAULT_BUDGET = 10**8


@dataclass
class SolverResult:
    parameter: str
    value: int
    witness: Optional[VertexSet]
    propagation_calls: int

    def to_json_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "value": self.value,
            "witness": None if self.witness is None else self.witness.members(),
            "calls": self.propagation_calls,
        }


def colex_masks(n: int, k: int) -> Iterator[int]:
    """All k-subset bitmasks of {0..n-1} in colexicographic order."""
    if k == 0:
        yield 0
        return
    for top in range(k - 1, n):
        high = 1 << top
        for rest in colex_masks(top, k - 1):
            yield rest | high


# -- upward-closed subset predicates, as states grown one vertex at a time --
#
# A scan prefix carries a state, 0 for the empty prefix (nothing closed,
# dominated or adjacent); `grow(adj, full, state, v)` returns the state of
# the prefix plus v, or None once that prefix satisfies the predicate, and
# then so does every completion of it.  A completed subset whose state is
# not None fails the predicate.


def _grow_pds(adj, full, closed, v):
    closed = fixpoint_from(adj, closed, adj[v] | 1 << v)
    return None if closed == full else closed


def _grow_zfs(adj, full, closed, v):
    closed = fixpoint_from(adj, closed, 1 << v)
    return None if closed == full else closed


def _grow_dominating(adj, full, dominated, v):
    dominated |= adj[v] | 1 << v
    return None if dominated == full else dominated


def _grow_dependent(adj, full, neighbors, v):
    return None if neighbors >> v & 1 else neighbors | adj[v]


def _scan_stratum(adj, full, k, grow, want, cap, least=()):
    """Colex-first k-subset mask whose predicate value is `want` (or None),
    and the number of subsets decided to find it.

    The scan is depth first, largest element first, and each child's state
    grows from its prefix's.  A prefix that satisfies the predicate decides
    its whole subtree at once: its first completion is the hit when a
    satisfying set is wanted (one subset decided), and otherwise the subtree
    is skipped (every subset in it decided).  `least[r]`, when given, is a
    lower bound on the element with r elements below it in every failing
    set; children below it are skipped in one step, as satisfying sets that
    come colex-before the rest.  Counts, hits and the `cap + 1` reported on
    exhaustion are those of a scan that decides one subset at a time.
    """
    calls = 0

    def spend(count):
        nonlocal calls
        calls += count
        if calls > cap:
            raise BudgetExceeded(cap + 1, cap)

    def scan(prefix, state, hi, r):
        """First hit among prefix + v + r elements below v, r <= v < hi."""
        lo = r
        if least and least[r] > r:
            lo = min(least[r], hi)
            spend(comb(lo, r + 1))  # sum of comb(v, r) for r <= v < lo
        for v in range(lo, hi):
            mask = prefix | 1 << v
            child = grow(adj, full, state, v)
            if child is None:
                if want:
                    spend(1)
                    return mask | (1 << r) - 1
                spend(comb(v, r))
            elif r:
                hit = scan(mask, child, v, r - 1)
                if hit is not None:
                    return hit
            else:
                spend(1)
                if not want:
                    return mask
        return None

    if k == 0:
        # the empty set of a nonempty graph satisfies none of the predicates
        spend(1)
        return (None if want else 0), calls
    return scan(0, 0, len(adj), k - 1), calls


def _strata(g: Graph, grow, want: bool, budget: int):
    """Yield (k, colex-first k-subset mask whose predicate value is `want`
    or None, subsets decided so far) for k = 0, 1, ..., n."""
    if g.n < 1:
        raise ValueError("solvers require at least one vertex")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    adj, full = g.adjacency_masks(), (1 << g.n) - 1
    calls = 0
    # failing sets only: tops[j - 1] is the largest element of the
    # colex-first failing j-set.  The j least elements of a failing k-set
    # fail too, so come no earlier in colex order and end at or above it.
    tops = []
    for k in range(g.n + 1):
        least = (*tops, tops[-1] + 1) if tops else ()
        try:
            hit, spent = _scan_stratum(adj, full, k, grow, want, budget - calls, least)
        except BudgetExceeded as exc:
            raise BudgetExceeded(calls + exc.calls, budget) from None
        calls += spent
        yield k, hit, calls
        if not want and k and hit is not None:
            tops.append(hit.bit_length() - 1)


def _min_satisfying(g, grow, parameter, budget) -> SolverResult:
    """Smallest k with a k-subset satisfying the predicate."""
    for k, hit, calls in _strata(g, grow, True, budget):
        if hit is not None:
            return SolverResult(parameter, k, VertexSet(g.n, hit), calls)
    raise AssertionError(f"no {parameter} witness exists, even the full vertex set")


def _max_failing(g, grow, parameter, budget) -> SolverResult:
    """Largest k with a k-subset failing the predicate.

    Valid because the predicate is upward closed, so failing sets form a
    downward-closed family: once every k-subset satisfies the predicate, so
    does every larger subset.
    """
    witness = None
    for k, hit, calls in _strata(g, grow, False, budget):
        if hit is None:
            return SolverResult(parameter, k - 1, witness, calls)
        witness = VertexSet(g.n, hit)
    # the full vertex set fails too: an edgeless graph is not dependent
    return SolverResult(parameter, g.n, witness, calls)


def gamma_p(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    """Power domination number: smallest PDS cardinality."""
    return _min_satisfying(g, _grow_pds, "gamma_p", budget)


def gamma_bar_p(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    """Failed power domination number: largest FPDS cardinality.

    The empty set is an FPDS of any nonempty graph, so the value is >= 0,
    and 0 means every nonempty vertex set is a PDS.
    """
    return _max_failing(g, _grow_pds, "gamma_bar_p", budget)


def zero_forcing_number(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    return _min_satisfying(g, _grow_zfs, "zero_forcing_number", budget)


def failed_zero_forcing_number(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    return _max_failing(g, _grow_zfs, "failed_zero_forcing_number", budget)


def domination_number(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    return _min_satisfying(g, _grow_dominating, "domination_number", budget)


def max_independent_set(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    """Independence number: the largest set that holds no edge."""
    return _max_failing(g, _grow_dependent, "max_independent_set", budget)
