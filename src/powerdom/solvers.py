"""Exact parameter solvers built on pruned subset enumeration.

All minimization solvers ascend subset sizes and stop at the first hit.
The failed-parameter solvers also ascend: the families of failed sets are
downward closed (a subset of a failed set is failed, by monotonicity of the
fixed point), so "no failed set of size k" certifies that k - 1 is the
answer.  Subsets are enumerated in colexicographic order, which for fixed
cardinality coincides with numeric order of the bitmasks; witnesses are
therefore the colexicographically smallest hit and reproducible across
worker counts.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from math import comb
from typing import Iterator, Optional

from .errors import BudgetExceeded
from .graphs import Graph, VertexSet
from .propagation import fixpoint_bits, fixpoint_from

DEFAULT_BUDGET = 10**8


@dataclass
class SolverResult:
    parameter: str
    value: int
    witness: Optional[VertexSet]
    propagation_calls: int
    budget_exhausted: bool = False

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


# -- subset predicates, as states grown one vertex at a time ----------------
#
# A scan prefix carries a state; `grow(adj, full, state, v)` returns the
# state of the prefix plus v, or None once every completion of that prefix
# is settled: the predicate then holds on all of them (monotone predicates,
# whose state is a closure that reached `full`), or on none of them
# (independence, whose prefix gained an edge).  A completed subset whose
# state is not None has the opposite value.


def _empty_closure(adj) -> int:
    return fixpoint_bits(adj, 0)


def _no_vertices(adj) -> int:
    return 0


def _grow_pds(adj, full, closed, v):
    closed = fixpoint_from(adj, closed, adj[v] | 1 << v)
    return None if closed == full else closed


def _grow_zfs(adj, full, closed, v):
    closed = fixpoint_from(adj, closed, 1 << v)
    return None if closed == full else closed


def _grow_dominating(adj, full, dominated, v):
    dominated |= adj[v] | 1 << v
    return None if dominated == full else dominated


def _grow_independent(adj, full, neighbors, v):
    return None if neighbors >> v & 1 else neighbors | adj[v]


# name -> (state of the empty prefix, grow, predicate value on a settled
# subtree); keyed by name for worker dispatch
_PREDICATES = {
    "pds": (_empty_closure, _grow_pds, True),
    "zfs": (_empty_closure, _grow_zfs, True),
    "dominating": (_no_vertices, _grow_dominating, True),
    "independent": (_no_vertices, _grow_independent, False),
}


def _scan_job(adj, full, k, tops, pred_name, want, cap):
    """Scan the k-subsets whose largest element is in `tops`, in colex order.

    Returns (first mask with pred == want or None, subsets decided).  The
    scan is depth first, largest element first, and each child's state
    grows from its prefix's.  A settled prefix decides its whole subtree at
    once: its first completion is the hit when the settled value is the one
    wanted (one subset decided), and otherwise the subtree is skipped (every
    subset in it decided).  Counts, hits and the `cap + 1` reported on
    exhaustion are those of a scan that decides one subset at a time.
    """
    empty_state, grow, settled_value = _PREDICATES[pred_name]
    calls = 0

    def spend(count):
        nonlocal calls
        calls += count
        if calls > cap:
            raise BudgetExceeded(cap + 1, cap)

    def scan(prefix, state, children, r):
        """First hit among prefix + v + r elements below v, v in children."""
        for v in children:
            mask = prefix | 1 << v
            child = grow(adj, full, state, v)
            if child is None:
                if settled_value == want:
                    spend(1)
                    return mask | (1 << r) - 1
                spend(comb(v, r))
            elif r:
                hit = scan(mask, child, range(r - 1, v), r - 1)
                if hit is not None:
                    return hit
            else:
                spend(1)
                if settled_value != want:
                    return mask
        return None

    state = empty_state(adj)
    if k == 0:
        # the empty set of a nonempty graph settles nothing
        spend(1)
        return (0 if settled_value != want else None), calls
    return scan(0, state, tops, k - 1), calls


@dataclass
class _Search:
    """Bookkeeping for one solver run: budget and work counting."""

    g: Graph
    budget: int
    workers: int
    calls: int = 0
    _adj: tuple = field(init=False)
    _full: int = field(init=False)

    def __post_init__(self):
        self._adj = self.g.adjacency_masks()
        self._full = (1 << self.g.n) - 1

    def find_in_stratum(self, k: int, pred_name: str, want: bool) -> Optional[int]:
        """Colex-smallest k-subset mask with pred == want, or None."""
        remaining = self.budget - self.calls
        if remaining <= 0:
            raise BudgetExceeded(self.calls, self.budget)
        n = self.g.n
        if self.workers <= 1 or k == 0 or comb(n, k) < 4 * self.workers:
            try:
                hit, spent = _scan_job(
                    self._adj, self._full, k, range(max(k - 1, 0), n),
                    pred_name, want, remaining,
                )
            except BudgetExceeded as exc:
                raise BudgetExceeded(self.calls + exc.calls, self.budget) from None
            self.calls += spent
            return hit
        tops = list(range(k - 1, n))
        slices = [tops[i :: self.workers] for i in range(self.workers)]
        slices = [s for s in slices if s]
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(slices)) as pool:
            futures = [
                pool.submit(_scan_job, self._adj, self._full, k, s, pred_name, want, remaining)
                for s in slices
            ]
            hits = []
            for fut in futures:
                try:
                    hit, spent = fut.result()
                except BudgetExceeded as exc:
                    raise BudgetExceeded(self.calls + exc.calls, self.budget) from None
                self.calls += spent
                if hit is not None:
                    hits.append(hit)
        if self.calls > self.budget:
            raise BudgetExceeded(self.calls, self.budget)
        return min(hits) if hits else None


def _ascend_min(g, pred_name, parameter, budget, workers) -> SolverResult:
    """Smallest k with a k-subset satisfying the predicate."""
    search = _Search(g, budget, workers)
    for k in range(g.n + 1):
        hit = search.find_in_stratum(k, pred_name, want=True)
        if hit is not None:
            return SolverResult(parameter, k, VertexSet(g.n, hit), search.calls)
    raise AssertionError(f"no {parameter} witness exists, even the full vertex set")


def _ascend_max_failed(g, pred_name, parameter, budget, workers) -> SolverResult:
    """Largest k with a k-subset failing the predicate.

    Valid because failed sets form a downward-closed family: once every
    k-subset satisfies the predicate, so does every larger subset.
    """
    search = _Search(g, budget, workers)
    witness = None
    for k in range(g.n + 1):
        hit = search.find_in_stratum(k, pred_name, want=False)
        if hit is None:
            return SolverResult(parameter, k - 1, witness, search.calls)
        witness = VertexSet(g.n, hit)
    # the full vertex set always dominates/forces itself, so we never get here
    raise AssertionError("full vertex set failed the predicate")


def _require_nonempty(g: Graph) -> None:
    if g.n < 1:
        raise ValueError("solvers require at least one vertex")


def gamma_p(g: Graph, budget: int = DEFAULT_BUDGET, workers: int = 1,
            canonical: bool = False) -> SolverResult:
    """Power domination number: smallest PDS cardinality."""
    _require_nonempty(g)
    return _ascend_min(g, "pds", "gamma_p", budget, workers)


def gamma_bar_p(g: Graph, budget: int = DEFAULT_BUDGET, workers: int = 1,
                canonical: bool = False) -> SolverResult:
    """Failed power domination number: largest FPDS cardinality.

    The empty set is an FPDS of any nonempty graph, so the value is >= 0,
    and 0 means every nonempty vertex set is a PDS.
    """
    _require_nonempty(g)
    return _ascend_max_failed(g, "pds", "gamma_bar_p", budget, workers)


def zero_forcing_number(g: Graph, budget: int = DEFAULT_BUDGET, workers: int = 1,
                        canonical: bool = False) -> SolverResult:
    _require_nonempty(g)
    return _ascend_min(g, "zfs", "zero_forcing_number", budget, workers)


def failed_zero_forcing_number(g: Graph, budget: int = DEFAULT_BUDGET, workers: int = 1,
                               canonical: bool = False) -> SolverResult:
    _require_nonempty(g)
    return _ascend_max_failed(g, "zfs", "failed_zero_forcing_number", budget, workers)


def domination_number(g: Graph, budget: int = DEFAULT_BUDGET, workers: int = 1,
                      canonical: bool = False) -> SolverResult:
    _require_nonempty(g)
    return _ascend_min(g, "dominating", "domination_number", budget, workers)


def max_independent_set(g: Graph, budget: int = DEFAULT_BUDGET, workers: int = 1,
                        canonical: bool = False) -> SolverResult:
    """Independence number by descending-size exhaustive search."""
    _require_nonempty(g)
    search = _Search(g, budget, workers)
    for k in range(g.n, -1, -1):
        hit = search.find_in_stratum(k, "independent", want=True)
        if hit is not None:
            return SolverResult(
                "max_independent_set", k, VertexSet(g.n, hit), search.calls
            )
    raise AssertionError("the empty set is always independent")
