"""Exact parameter solvers built on pruned subset enumeration.

Every solver is one loop, `_solve`, that ascends subset sizes against an
upward-closed predicate (a superset of a set that satisfies it satisfies
it too): power domination, zero forcing, domination, and dependence (the
set holds an edge).  The loop builds the result where it stops, and on
running out of budget raises the one `BudgetExceeded` the caller sees.
The minimum parameters stop at the first size with a satisfying set.  The
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

Every stratum is counted by one rule, in `_solve`, whatever route found
its hit: it spends the subsets a colex scan that decides one subset at a
time would decide, the hit's colex rank plus one, or comb(n, k) with no
hit.  A hit W + top, W the witness of the stratum before and top above
max(W), ranks comb(top, k) after W, the k-sets that end below top; any
other hit is ranked in full.  So `calls`, the witness and a budget's
outcome do not depend on the route.  The budget is a hard stop: a scan
that could pass it searches only the sets of colex rank at most `rest`,
the budget left, and the set of rank `rest` itself is refused with every
other stratum that spends more than is left.

A failed stratum k + 1 of power domination or zero forcing is first tried
on W + m, W the witness of stratum k and m = max(W) + 1.  W + m fails when
W's state grown by m is not V (zero forcing: cl(W + m); power domination:
cl(N[W + m])).  The k least elements of a failing (k + 1)-set fail, so
they come no earlier than W and the set ends at m or above: W + m is the
colex-first failing set, the hit a scan would find.  Each route grows
the state as far as it can afford.  The scan
route, which hands each hit's state on, tests only whether m adds nothing
to it (m in cl(W); N[m] in cl(N[W])), a mask check, so a miss costs
nothing.  The fort route grows the closure, as each of its hits did on the
kxp graphs measured, but it knows cl(W) only while every witness came this
way, W = {0..k-1}; after a fort search its state is V, and the step fails
at once.  The independence number keeps the scan: its rule (m not in
N(W)) gained 4% on alpha(grid:30,30), nothing elsewhere.

On graphs of minimum degree at least 4 the failed zero forcing number
finds each stratum's witness by a fort search instead (Fast & Hicks 2018).
A fort is a nonempty set that no vertex outside it has exactly one
neighbor in; a set fails to force exactly when it misses a fort, so the
colex-first failing k-set is the colex-least choice of the k least
vertices outside a fort of at most n - k vertices, and no k-set fails once
no fort is that small.  A branch-and-bound over forts finds that set
directly, after the next-vertex step: the hit a scan would find.  Every
fort meets every zero forcing set Z, so the
search starts only from Z's vertices, each keeping out those of Z below
it.  Z is {0..m}, the first prefix that forces, thinned from the top by
one closure per vertex when n - k > 4 at the first search ({0, 1, 5, 10}
on kxp:4,5).  The search lost to the scan on the paths, cycles, ladders,
grids and wheels measured, which all have vertices of degree 3 or less,
by up to a factor of 28 on wheel:30, though it won on kxp:3,5 and kxp:3,6.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb
from typing import Iterator, NamedTuple

from .errors import BudgetExceeded
from .graphs import Graph, VertexSet, closed_neighborhood_bits
from .propagation import fixpoint_from

DEFAULT_BUDGET = 10**8


class SolverResult(NamedTuple):
    parameter: str
    value: int
    witness: VertexSet
    propagation_calls: int

    def to_json_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "value": self.value,
            "witness": self.witness.members(),
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


def _scan_stratum(adj, full, k, grow, want, rest=None, least=()):
    """Colex-first k-subset mask whose predicate value is `want`, and the
    state `grow` gave it (None with `want`), or (None, None) without a
    hit, for k >= 1.  With `rest`, only the sets of colex rank at most
    `rest` are searched.

    The scan is depth first, largest element first, and each child's state
    grows from its prefix's.  With `want`, as in the ascent, every smaller
    set fails, so no prefix above the leaves satisfies the predicate.
    Without it, a prefix that does is skipped with its whole subtree (every
    subset in it decided), and such a child v is dead in the rest of the
    scan below this node: every set that holds v and extends the node's
    prefix satisfies the predicate too, so a dead child is settled with no
    closure, and a zero-forcing closure stops once it monitors a dead
    vertex.  A child with a single completion (v equal to the number r of
    elements still to place below it, or r = 0) is decided by one closure
    over that whole completion; above the leaves that is {0..r}, and it
    holds no dead vertex, as v == r is the first child of its node and those
    of the nodes above are all above r.  `least[r]`, when given, is a lower
    bound on the element with r elements below it in every failing set;
    children below it are skipped in one step, as satisfying sets that come
    colex-before the rest.  A single-completion child v == r is reached only
    when `least[r] == r`, and then `least[j] == j` for every j < r (the
    colex-first failing sets are {0..j}), so no element of its completion
    sits below its bound.  Within a node, child v's sets follow the
    comb(v, r + 1) sets of the children below it, so a node given `rest`
    stops at the last child that starts within it and hands that child
    what is left.  The hit is that of a scan that decides one subset at a
    time.
    """

    # `scan` reuses `bit` and `grown` to keep its frame small.  CPython
    # 3.11 allocates frames in 16 KiB chunks and frees a chunk when the
    # frame at its start returns, so a recursion that keeps crossing a
    # chunk edge pays for a chunk per call: with two more locals, the
    # gamma_bar_p refusal of the diamond gadget ran 1.5 times as long.
    def scan(prefix, state, hi, r, dead, rest):
        """First hit among prefix + v + r elements below v, r <= v < hi,
        of rank at most `rest` among those sets when it is given."""
        if rest is not None:
            hi = bisect_right(range(hi), rest, key=lambda v: comb(v, r + 1))
        lo = r
        if least and least[r] > r:
            lo = min(least[r], hi)
        if not r:
            # the most numerous nodes: each child is one whole subset
            for v in range(lo, hi):
                bit = 1 << v
                grown = None if bit & dead else grow(adj, full, state, bit, dead)
                if (grown is None) == want:
                    return prefix | bit, grown
            return None
        for v in range(lo, hi):
            bit = 1 << v
            if v == r:
                # one completion, prefix + {0..r}, its bits in `bit`
                bit = (bit << 1) - 1
                grown = grow(adj, full, state, bit, dead)
                if (grown is None) == want:
                    return prefix | bit, grown
                continue
            grown = None if bit & dead else grow(adj, full, state, bit, dead)
            if grown is None:
                dead |= bit
            else:
                left = None if rest is None or v < hi - 1 else rest - comb(v, r + 1)
                hit = scan(prefix | bit, grown, v, r - 1, dead, left)
                if hit is not None:
                    return hit
        return None

    return scan(0, 0, len(adj), k - 1, 0, rest) or (None, None)


def _colex_rank(bits):
    """The number of sets of the size of `bits` that come colex-before it."""
    members = [v for v in range(bits.bit_length()) if bits >> v & 1]
    return sum(comb(v, i) for i, v in enumerate(members, 1))


def _fort_witness(adj, k, roots):
    """The colex-first k-set that fails to force, as a mask, or None when
    no k-set fails.

    The answer is the colex-least choice of the k least vertices outside F
    over the forts F of at most n - k vertices (see the module docstring).
    The search adds one vertex at a time to F.  `ones` and `twos` hold the
    vertices with at least one and at least two neighbors in F, so the
    violated vertices are `ones & ~twos & ~F`; each must join F or gain a
    second neighbor in it.  A node branches on the violated vertex with the
    fewest such options among its allowed vertices, and a tried option is
    not allowed in the branches after it, so each fort is reached once; the
    root branches on the least vertex of F in `roots`, a zero forcing set
    in ascending order (V will do), which every fort meets.  Both try the
    highest first: high vertices in F keep low ones outside it.  The k
    least vertices outside F only rise, elementwise and so in colex order,
    as F grows, so a node whose k least outside vertices come no earlier
    than the best candidate is cut.
    """
    n = len(adj)
    full, first = (1 << n) - 1, (1 << k) - 1
    best, below, stack = full + 1, 0, []
    # (F, |F|, ones, twos, allowed, the k least vertices outside F): the
    # root's children F = {z}, the roots below z not allowed, the highest
    # z on top
    for z in roots:
        bit = 1 << z
        stack.append((bit, 1, adj[z], 0, full ^ below ^ bit,
                      first if z >= k else first ^ bit | 1 << k))
        below |= bit
    while stack:
        fort, size, ones, twos, allowed, outside = stack.pop()
        if outside >= best:
            continue
        bad = ones & ~twos & ~fort
        if not bad:
            best = outside
            continue
        if size == n - k:
            continue
        # a vertex u of `outside` that joins F gives way to `after`, the
        # next vertex outside F; u is cut in this subtree once that set
        # comes no earlier than the best, which the lower u the later it is
        after = (full ^ fort) & -(1 << outside.bit_length())
        after &= -after
        late = (outside | after) - best
        if late > 0:
            allowed &= ~(outside & (1 << late.bit_length()) - 1)
        options, count = 0, n + 1
        while bad:
            low = bad & -bad
            bad ^= low
            mine = (adj[low.bit_length() - 1] | low) & allowed
            if mine.bit_count() < count:
                options, count = mine, mine.bit_count()
                if count < 2:
                    break
        # the highest option on top, and excluded from the options below it
        while options:
            low = options & -options
            options ^= low
            nbrs = adj[low.bit_length() - 1]
            stack.append((fort | low, size + 1, ones | nbrs, twos | ones & nbrs,
                          allowed & ~options & ~low,
                          outside ^ (low | after) if outside & low else outside))
    return None if best > full else best


def _thinned(adj, full, prefix):
    """{0..m}, which forces, thinned from the top to a forcing set, in
    ascending order, given prefix[j] = cl({0..j-1}) for j < m: j goes when
    cl({0..j-1} + kept) is V, so {0..j-1} + kept forces at every step."""
    kept = 1 << len(prefix)
    for j in range(len(prefix) - 1, -1, -1):
        if fixpoint_from(adj, prefix[j], kept) != full:
            kept |= 1 << j
    return [v for v in range(len(prefix) + 1) if kept >> v & 1]


def _solve(g: Graph, parameter: str, grow, want: bool, budget: int,
           forts: bool = False) -> SolverResult:
    """The parameter named `parameter`: with `want`, the first k with a
    k-subset satisfying the predicate, that set the witness; otherwise
    k - 1 at the first k with no failing k-subset, the colex-first failing
    set of the stratum before the witness, and on running out of budget
    that set and its size are what was proven.  Stratum 0 is decided with
    no scan, as the empty set satisfies no predicate on a nonempty graph.

    A failed stratum of power domination or zero forcing is first tried on
    the witness before it plus its next vertex (module docstring); when
    that set does not fail, the stratum is scanned, or with `forts` (failed
    zero forcing only) found by the fort search.  Whatever the route, the
    stratum spends its hit's colex rank plus one, or comb(n, k) with no
    hit.  A scan that could spend more than the budget left is given that
    much as `rest`, so it searches no set that the budget could not pay
    for, and the set of rank `rest` it may return is refused below.
    """
    if g.n < 1:
        raise ValueError("solvers require at least one vertex")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget < 1:
        raise BudgetExceeded(budget + 1, budget)
    n = g.n
    adj, full = g.adjacency_masks(), (1 << n) - 1
    calls = 1
    witness, rank = VertexSet(n, 0), 0  # and its colex rank
    # failing sets only: tops[j - 1] is the largest element of the
    # colex-first failing j-set.  The j least elements of a failing k-set
    # fail too, so come no earlier in colex order and end at or above it.
    tops = []
    # the witness's state, cl(N[W]) or cl(W), or V once a fort search has
    # left it unknown; and whether the next vertex m may extend W
    state, extend = 0, not want and grow is not _grow_dependent
    # the fort route: cl({0..j-1}) for each j while W = {0..k-1}, and the
    # zero forcing set its searches start from
    prefix, roots = [], None
    for k in range(1, n + 1):
        m, grown = witness.bits.bit_length(), full
        if extend and m < n:
            add = (adj[m] if grow is _grow_pds else 0) | 1 << m
            grown = fixpoint_from(adj, state, add) if forts else full if add & ~state else state
        if grown != full:
            if forts:
                prefix.append(state)
            hit, state = witness.bits | 1 << m, grown
        elif forts:
            if roots is None:
                # {0..m} forces.  Thinning costs more than it saves in
                # searches for forts of n - k <= 4 vertices, and every
                # later search has a smaller n - k.
                roots = _thinned(adj, full, prefix) if n - k > 4 else range(m + 1)
            hit, state = _fort_witness(adj, k, roots), full
        else:
            least = (*tops, m) if tops else ()
            rest = budget - calls if comb(n, k) > budget - calls else None
            hit, state = _scan_stratum(adj, full, k, grow, want, rest, least)
        # the subsets a colex scan decides: all of them, or up to the hit;
        # W + top ranks after W, past the k-sets that end below top
        if hit is None:
            spent = comb(n, k)
        else:
            top = hit.bit_length() - 1
            rank = rank + comb(top, k) if hit ^ 1 << top == witness.bits else _colex_rank(hit)
            spent = rank + 1
        if spent > budget - calls:
            proven = () if want else (len(witness), witness.members())
            raise BudgetExceeded(budget + 1, budget, *proven)
        calls += spent
        if want:
            if hit is not None:
                return SolverResult(parameter, k, VertexSet(n, hit), calls)
        elif hit is None:
            return SolverResult(parameter, k - 1, witness, calls)
        else:
            witness = VertexSet(n, hit)
            tops.append(top)
    # the full vertex set fails too: an edgeless graph is not dependent
    return SolverResult(parameter, n, witness, calls)


def gamma_p(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    """Power domination number: smallest PDS cardinality."""
    return _solve(g, "gamma_p", _grow_pds, True, budget)


def gamma_bar_p(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    """Failed power domination number: largest FPDS cardinality.

    The empty set is an FPDS of any nonempty graph, so the value is >= 0,
    and 0 means every nonempty vertex set is a PDS.
    """
    return _solve(g, "gamma_bar_p", _grow_pds, False, budget)


def zero_forcing_number(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    return _solve(g, "zero_forcing_number", _grow_zfs, True, budget)


def failed_zero_forcing_number(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    """Failed zero forcing number: largest set that does not force.

    On graphs of minimum degree at least 4 a fort search finds each
    stratum's witness, with the same value, witness and count.
    """
    return _solve(g, "failed_zero_forcing_number", _grow_zfs, False, budget,
                  min(g.degrees(), default=0) >= 4)


def domination_number(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    return _solve(g, "domination_number", _grow_dominating, True, budget)


def max_independent_set(g: Graph, budget: int = DEFAULT_BUDGET) -> SolverResult:
    """Independence number: the largest set that holds no edge."""
    return _solve(g, "max_independent_set", _grow_dependent, False, budget)
