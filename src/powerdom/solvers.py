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
before it; skipped subsets count as decided.  Upward closure prunes the
scan in two more ways: a vertex that completes a prefix completes every
extension of it, so it settles later prefixes with no closure (and stops
a zero-forcing closure that reaches it), and a prefix with one completion
left is decided by one closure.  A failed-parameter solve that runs out of
budget reports the largest failing set it had found.

On graphs of minimum degree at least 4 the failed zero forcing number
settles its last stratum by a fort search instead (Fast & Hicks 2018).
A fort is a nonempty set that no vertex outside it has exactly one
neighbor in; a set fails to force exactly when it misses a fort, so no
k-set fails once no fort has at most n - k vertices.  The strata below
are still scanned, for their colex-first witnesses, and the settled
stratum counts every one of its comb(n, k) subsets as decided, as its
scan would, so `calls`, the witness and a budget's outcome do not depend
on the route.  The search lost to the scan on the paths, cycles,
ladders, grids and wheels measured, which all have vertices of degree 3
or less, by up to two orders of magnitude on cycle:30 and wheel:30.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .errors import BudgetExceeded
from .graphs import Graph, VertexSet, closed_neighborhood_bits
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


# -- upward-closed subset predicates, as states grown a bitmask at a time --
#
# A scan prefix carries a state, 0 for the empty prefix (nothing closed,
# dominated or adjacent); `grow(adj, full, state, bits, dead)` returns the
# state of the prefix plus the vertices of `bits`, or None once that set
# satisfies the predicate, and then so does every completion of it.  A
# completed subset whose state is not None fails the predicate.  Each
# vertex of `dead` satisfies the predicate together with a subset of the
# prefix; only zero forcing uses them, to stop a closure early.


def _grow_pds(adj, full, closed, bits, dead):
    # no early stop: a dead w completes the prefix once N[w] is in it, not w
    closed = fixpoint_from(adj, closed, closed_neighborhood_bits(adj, bits))
    return None if closed == full else closed


def _grow_zfs(adj, full, closed, bits, dead):
    closed = fixpoint_from(adj, closed, bits, dead)
    return None if closed == full else closed


def _grow_dominating(adj, full, dominated, bits, dead):
    if bits & (bits - 1):
        dominated |= closed_neighborhood_bits(adj, bits)
    else:  # one vertex, the scan's usual child: no call
        dominated |= adj[bits.bit_length() - 1] | bits
    return None if dominated == full else dominated


def _grow_dependent(adj, full, neighbors, bits, dead):
    if not bits & (bits - 1):  # one vertex, the scan's usual child
        return None if neighbors & bits else neighbors | adj[bits.bit_length() - 1]
    while bits:
        low = bits & -bits
        bits ^= low
        if neighbors & low:
            return None
        neighbors |= adj[low.bit_length() - 1]
    return neighbors


def _scan_stratum(adj, full, k, grow, want, cap, least=()):
    """Colex-first k-subset mask whose predicate value is `want` (or None),
    and the number of subsets decided to find it.

    The scan is depth first, largest element first, and each child's state
    grows from its prefix's.  A prefix that satisfies the predicate decides
    its whole subtree at once: its first completion is the hit when a
    satisfying set is wanted (one subset decided), and otherwise the subtree
    is skipped (every subset in it decided).  Such a child v is dead in the
    rest of the scan below this node: every set that holds v and extends
    the node's prefix satisfies the predicate too, so a dead child is
    settled with no closure, and a zero-forcing closure stops once it
    monitors a dead vertex.  A child with a single completion (v equal to
    the number r of elements still to place below it, or r = 0) is decided
    by one closure over that whole completion.  `least[r]`, when given, is
    a lower bound on the element with r elements below it in every failing
    set; children below it are skipped in one step, as satisfying sets that
    come colex-before the rest.  A single-completion child v == r is
    reached only when `least[r] == r`, and then `least[j] == j` for every
    j < r (the colex-first failing sets are {0..j}), so no element of its
    completion sits below its bound.  Counts, hits and the `cap + 1`
    reported on exhaustion are those of a scan that decides one subset at
    a time.
    """
    calls = 0

    def spend(count):
        nonlocal calls
        calls += count
        if calls > cap:
            raise BudgetExceeded(cap + 1, cap)

    def scan(prefix, state, hi, r, dead):
        """First hit among prefix + v + r elements below v, r <= v < hi."""
        lo = r
        if least and least[r] > r:
            lo = min(least[r], hi)
            spend(comb(lo, r + 1))  # sum of comb(v, r) for r <= v < lo
        if not r:
            # the most numerous nodes: each child is one whole subset, and
            # the subsets decided are spent once, at the hit or at the end
            for v in range(lo, hi):
                bit = 1 << v
                if (bit & dead != 0 or grow(adj, full, state, bit, dead) is None) == want:
                    spend(v - lo + 1)
                    return prefix | bit
            spend(hi - lo)
            return None
        for v in range(lo, hi):
            bit = 1 << v
            if v == r:
                # one completion, prefix + {0..r}
                bits = (bit << 1) - 1
                spend(1)
                done = bits & dead != 0 or grow(adj, full, state, bits, dead) is None
                if done == want:
                    return prefix | bits
                continue
            child = None if bit & dead else grow(adj, full, state, bit, dead)
            if child is None:
                if want:
                    spend(1)
                    return prefix | bit | (1 << r) - 1
                spend(comb(v, r))
                dead |= bit
            else:
                hit = scan(prefix | bit, child, v, r - 1, dead)
                if hit is not None:
                    return hit
        return None

    if k == 0:
        # the empty set of a nonempty graph satisfies none of the predicates
        spend(1)
        return (None if want else 0), calls
    return scan(0, 0, len(adj), k - 1, 0), calls


def _fort_within(adj, m):
    """A fort of at most `m` vertices, or None when there is none.

    A fort is a nonempty vertex set F such that no vertex outside F has
    exactly one neighbor in F.  The search adds one vertex at a time to F.
    `ones` and `twos` hold the vertices with at least one and at least two
    neighbors in F, so the violated vertices are `ones & ~twos & ~F`; each
    must join F or gain a second neighbor in it.  A node branches on the
    violated vertex with the fewest such options among its allowed
    vertices, and a tried option is not allowed in the branches after it,
    so each fort is reached once (the root, F empty, tries every vertex as
    the smallest of F).  The stack is explicit: a fort found early can hold
    a large part of a large graph.
    """
    full = (1 << len(adj)) - 1
    # nodes with options left to try: (F, |F|, ones, twos, allowed,
    # options); the root is the empty set, whose options are all vertices
    stack = [(0, 0, 0, 0, full, full)] if m > 0 else []
    while stack:
        fort, size, ones, twos, allowed, options = stack.pop()
        low = options & -options
        options ^= low
        allowed ^= low
        if options:
            stack.append((fort, size, ones, twos, allowed, options))
        nbrs = adj[low.bit_length() - 1]
        fort |= low
        size += 1
        ones, twos = ones | nbrs, twos | ones & nbrs
        bad = ones & ~twos & ~fort
        if not bad:
            return fort
        if size == m:
            continue
        options, count = 0, len(adj) + 1
        while bad:
            low = bad & -bad
            bad ^= low
            mine = (adj[low.bit_length() - 1] | low) & allowed
            if mine.bit_count() < count:
                options, count = mine, mine.bit_count()
                if count < 2:
                    break
        if options:
            stack.append((fort, size, ones, twos, allowed, options))
    return None


def _strata(g: Graph, grow, want: bool, budget: int, forts: bool = False):
    """Yield (k, colex-first k-subset mask whose predicate value is `want`
    or None, subsets decided so far) for k = 0, 1, ..., n.

    With `forts` (failed zero forcing only): a k-set fails exactly when it
    misses a fort, and then that fort has at most n - k vertices.  At a
    stratum where no known fort is that small, `_fort_within` looks for
    one first, and with none no k-set fails: the stratum is settled with
    all comb(n, k) of its subsets decided, as its scan would count them.
    The search is left out where the scan is cheap or must report the
    count on exhaustion: below k = 2, where the bound skips the whole
    stratum, and where the budget left does not cover the stratum.
    """
    if g.n < 1:
        raise ValueError("solvers require at least one vertex")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    n = g.n
    adj, full = g.adjacency_masks(), (1 << n) - 1
    calls = 0
    # failing sets only: tops[j - 1] is the largest element of the
    # colex-first failing j-set.  The j least elements of a failing k-set
    # fail too, so come no earlier in colex order and end at or above it.
    tops = []
    # the fewest vertices of a fort known: V itself, a fort the search
    # found, or V \ cl(H) for a failing set H (a vertex of cl(H) with one
    # neighbor outside it would force that neighbor), taken only where a
    # search would run otherwise
    smallest_fort = n
    for k in range(n + 1):
        least = (*tops, tops[-1] + 1) if tops else ()
        if (forts and tops and tops[-1] + 1 < n and smallest_fort > n - k
                and comb(n, k) <= budget - calls):
            # `hit` is still the failing set of the stratum before
            smallest_fort = min(smallest_fort, n - fixpoint_from(adj, 0, hit).bit_count())
            if smallest_fort > n - k:
                found = _fort_within(adj, n - k)
                if found is None:
                    calls += comb(n, k)
                    yield k, None, calls
                    return
                smallest_fort = found.bit_count()
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


def _max_failing(g, grow, parameter, budget, forts=False) -> SolverResult:
    """Largest k with a k-subset failing the predicate.

    Valid because the predicate is upward closed, so failing sets form a
    downward-closed family: once every k-subset satisfies the predicate, so
    does every larger subset.
    """
    witness = None
    try:
        for k, hit, calls in _strata(g, grow, False, budget, forts):
            if hit is None:
                return SolverResult(parameter, k - 1, witness, calls)
            witness = VertexSet(g.n, hit)
    except BudgetExceeded as exc:
        if witness is None:
            raise
        raise BudgetExceeded(exc.calls, exc.budget, len(witness), witness.members()) from None
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
    """Failed zero forcing number: largest set that does not force.

    On graphs of minimum degree at least 4 the last stratum is settled by
    a fort search, with the same value, witness and count.
    """
    return _max_failing(g, _grow_zfs, "failed_zero_forcing_number", budget,
                        min(g.degrees(), default=0) >= 4)


def domination_number(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    return _min_satisfying(g, _grow_dominating, "domination_number", budget)


def max_independent_set(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    """Independence number: the largest set that holds no edge."""
    return _max_failing(g, _grow_dependent, "max_independent_set", budget)
