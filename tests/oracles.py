"""Independent reference implementations used to cross-check the package.

Everything here works on plain Python sets and adjacency dicts, with no
shared code paths with the bitmask implementation under test.
"""

from functools import lru_cache
from itertools import combinations, permutations
import random


def adj_of(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def closed_nbhd(adj, s):
    out = set(s)
    for v in s:
        out |= adj[v]
    return out


def _force(adj, monitored):
    added = set()
    for v in monitored:
        outside = adj[v] - monitored
        if len(outside) == 1:
            added |= outside
    return added


def pd_chain(n, edges, s):
    """Power-domination chain as a list of frozensets."""
    adj = adj_of(n, edges)
    cur = closed_nbhd(adj, set(s))
    steps = [frozenset(cur)]
    while True:
        added = _force(adj, cur)
        if not added:
            return steps
        cur |= added
        steps.append(frozenset(cur))


def zf_chain(n, edges, s):
    adj = adj_of(n, edges)
    cur = set(s)
    steps = [frozenset(cur)]
    while True:
        added = _force(adj, cur)
        if not added:
            return steps
        cur |= added
        steps.append(frozenset(cur))


def zf_closure_bits(n, edges, start):
    """The last step of the zero-forcing chain from the bitmask `start`, as
    a bitmask."""
    closure = zf_chain(n, edges, [v for v in range(n) if start >> v & 1])[-1]
    return sum(1 << v for v in closure)


def is_pds(n, edges, s):
    return len(pd_chain(n, edges, s)[-1]) == n


def is_zfs(n, edges, s):
    return len(zf_chain(n, edges, s)[-1]) == n


def brute_gamma_p(n, edges):
    for k in range(n + 1):
        for s in combinations(range(n), k):
            if is_pds(n, edges, s):
                return k
    raise AssertionError("full vertex set is always a PDS")


def brute_gamma_bar(n, edges):
    best = -1
    for k in range(n + 1):
        for s in combinations(range(n), k):
            if not is_pds(n, edges, s):
                best = max(best, k)
    return best


def brute_zero_forcing(n, edges):
    for k in range(n + 1):
        for s in combinations(range(n), k):
            if is_zfs(n, edges, s):
                return k
    raise AssertionError("full vertex set always forces")


def brute_failed_zero_forcing(n, edges):
    best = -1
    for k in range(n + 1):
        for s in combinations(range(n), k):
            if not is_zfs(n, edges, s):
                best = max(best, k)
    return best


def brute_domination(n, edges):
    adj = adj_of(n, edges)
    for k in range(n + 1):
        for s in combinations(range(n), k):
            if len(closed_nbhd(adj, set(s))) == n:
                return k
    raise AssertionError("full vertex set always dominates")


def brute_alpha(n, edges):
    edge_set = {frozenset(e) for e in edges}
    for k in range(n, -1, -1):
        for s in combinations(range(n), k):
            if all(frozenset(p) not in edge_set for p in combinations(s, 2)):
                return k
    return 0


def brute_min_fort(n, edges):
    """Fewest vertices of a fort: a nonempty set F such that no vertex
    outside F has exactly one neighbor in F (None for the empty graph)."""
    adj = adj_of(n, edges)
    for k in range(1, n + 1):
        for f in combinations(range(n), k):
            inside = set(f)
            if all(len(adj[v] & inside) != 1 for v in range(n) if v not in inside):
                return k
    return None


def min_fort_cost(n, edges, closed):
    """The least |F|, or with `closed` the least |N[F]|, over the forts F of
    a graph with n >= 1 vertices, by branch and bound.

    A vertex outside F with exactly one neighbor in F must join F or see
    another of its neighbors join.  A node branches on such a vertex with
    the fewest options, and an option tried is barred from the branches
    after it; the root's branch v puts v in F and bars every vertex below
    it.  Both costs only grow with F, so a node costing no less than the
    best fort found is cut.  V is a fort, so the answer is at most n."""
    adj = adj_of(n, edges)
    best = n

    def cost(f):
        return len(closed_nbhd(adj, f)) if closed else len(f)

    def branch(f, barred):
        nonlocal best
        here = cost(f)
        if here >= best:
            return
        violated = [u for u in closed_nbhd(adj, f) - f if len(adj[u] & f) == 1]
        if not violated:
            best = here
            return
        options = min((sorted(({u} | adj[u]) - f - barred) for u in violated), key=len)
        for i, v in enumerate(options):
            branch(f | {v}, barred | set(options[:i]))

    for v in range(n):
        branch({v}, set(range(v)))
    return best


def fort_gamma_bar_p(n, edges):
    """gamma_bar_p = n - min |N[F]| over forts F: a set fails to power
    dominate exactly when it misses N[F] for some fort F."""
    return n - min_fort_cost(n, edges, closed=True)


def fort_failed_zero_forcing(n, edges):
    """F = n - min |F| over forts F: a set fails to force exactly when it
    misses some fort (Fast & Hicks 2018)."""
    return n - min_fort_cost(n, edges, closed=False)


def colex_subsets(n, k):
    """The k-subsets of range(n) in colexicographic order."""
    return sorted(combinations(range(n), k), key=lambda s: s[::-1])


def scan_stratum(n, k, pred):
    """Colex-first k-subset satisfying `pred` (or None), and the number of
    subsets decided to find it, one at a time."""
    calls = 0
    for s in colex_subsets(n, k):
        calls += 1
        if pred(s):
            return s, calls
    return None, calls


def subset_predicates(n, edges):
    """The solvers' four upward-closed subset predicates, by name."""
    adj = adj_of(n, edges)
    edge_set = {frozenset(e) for e in edges}
    return {
        "pds": lambda s: is_pds(n, edges, s),
        "zfs": lambda s: is_zfs(n, edges, s),
        "dominating": lambda s: len(closed_nbhd(adj, set(s))) == n,
        "dependent": lambda s: any(frozenset(p) in edge_set
                                   for p in combinations(s, 2)),
    }


def predicate_states(n, edges):
    """By predicate name, the state the solvers grow for a set, as a
    bitmask: the closure of N[s] or of s, N[s], and the union of the open
    neighborhoods of s's members."""
    adj = adj_of(n, edges)
    mask = lambda vs: sum(1 << v for v in vs)
    return {
        "pds": lambda s: mask(pd_chain(n, edges, s)[-1]),
        "zfs": lambda s: mask(zf_chain(n, edges, s)[-1]),
        "dominating": lambda s: mask(closed_nbhd(adj, set(s))),
        "dependent": lambda s: mask(set().union(*(adj[v] for v in s))),
    }


# solver -> (subset predicate, search direction)
SOLVER_SEARCHES = {
    "gamma_p": ("pds", "min"),
    "gamma_bar_p": ("pds", "failed"),
    "zero_forcing_number": ("zfs", "min"),
    "failed_zero_forcing_number": ("zfs", "failed"),
    "domination_number": ("dominating", "min"),
    "max_independent_set": ("dependent", "failed"),
}


def reference_solve(parameter, n, edges):
    """(value, witness, subsets decided) of the solver named `parameter`,
    by a per-subset colex scan of each stratum: ascending to the first hit
    for the minimum parameters, ascending to the first stratum with no
    failing set for the failed ones (independence: sets not dependent)."""
    name, direction = SOLVER_SEARCHES[parameter]
    pred = subset_predicates(n, edges)[name]
    calls = 0
    if direction == "failed":
        witness = None
        for k in range(n + 1):
            hit, spent = scan_stratum(n, k, lambda s: not pred(s))
            calls += spent
            if hit is None:
                return k - 1, witness, calls
            witness = hit
        return n, witness, calls
    for k in range(n + 1):
        hit, spent = scan_stratum(n, k, pred)
        calls += spent
        if hit is not None:
            return k, hit, calls
    raise AssertionError("the full vertex set always satisfies the predicate")


@lru_cache(maxsize=64)
def reference_strata(parameter, n, edges):
    """(hit, subsets decided) of each stratum k = 0, 1, ... that the solver
    named `parameter` scans, up to the one it stops at, by a per-subset
    colex scan; `edges` is a tuple of pairs, so a sweep over budgets scans
    each graph once."""
    name, direction = SOLVER_SEARCHES[parameter]
    pred = subset_predicates(n, edges)[name]
    want = direction == "min"
    strata = []
    for k in range(n + 1):
        hit, spent = scan_stratum(n, k, lambda s: pred(s) == want)
        strata.append((hit, spent))
        if (hit is not None) == want:
            break
    return tuple(strata)


def reference_budgeted(parameter, n, edges, budget):
    """The outcome of the solver named `parameter` under `budget`: the
    tuple ("ok", value, witness, calls), or ("exceeded", calls, budget,
    lower_bound, witness) with the fields of `BudgetExceeded`, where a
    failed parameter's lower bound and witness are those of the last
    stratum finished before the budget ran out."""
    want = SOLVER_SEARCHES[parameter][1] == "min"
    calls, witness = 0, None
    strata = reference_strata(parameter, n, tuple(map(tuple, edges)))
    for k, (hit, spent) in enumerate(strata):
        if calls + spent > budget:
            if want or witness is None:
                return "exceeded", budget + 1, budget, None, None
            return "exceeded", budget + 1, budget, len(witness), list(witness)
        calls += spent
        if want and hit is not None:
            return "ok", k, hit, calls
        if not want and hit is None:
            return "ok", k - 1, witness, calls
        if not want:
            witness = hit
    return "ok", n, witness, calls


def brute_connectivity(n, edges):
    """Exhaustive vertex connectivity for connected non-complete graphs."""
    if len(edges) == n * (n - 1) // 2:
        return n - 1
    adj = adj_of(n, edges)
    for size in range(1, n - 1):
        for removed in combinations(range(n), size):
            alive = set(range(n)) - set(removed)
            if alive and not _connected_on(adj, alive):
                return size
    raise AssertionError("unreachable for non-complete graphs")


def _connected_on(adj, alive):
    start = next(iter(alive))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adj[v] & alive:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == alive


def is_connected(n, edges):
    return n <= 1 or _connected_on(adj_of(n, edges), set(range(n)))


def brute_cut_vertices(n, edges):
    adj = adj_of(n, edges)

    def comp_count(alive):
        count = 0
        left = set(alive)
        while left:
            seed = next(iter(left))
            seen = {seed}
            stack = [seed]
            while stack:
                v = stack.pop()
                for u in adj[v] & left:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            left -= seen
            count += 1
        return count

    base = comp_count(set(range(n)))
    return {v for v in range(n) if comp_count(set(range(n)) - {v}) > base}


def isomorphic(n, edges1, edges2):
    """Brute-force isomorphism test, only for tiny graphs."""
    e1 = {frozenset(e) for e in edges1}
    e2 = {frozenset(e) for e in edges2}
    if len(e1) != len(e2):
        return False
    for perm in permutations(range(n)):
        if {frozenset((perm[u], perm[v])) for u, v in e1} == e2:
            return True
    return False


def random_graph(rng: random.Random, n: int, p: float = 0.5):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return n, edges


def random_connected_graph(rng: random.Random, n: int, p: float = 0.4):
    """Random spanning tree plus extra edges, so connectivity is guaranteed."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        other = rng.choice(order[:i])
        edges.add((min(order[i], other), max(order[i], other)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return n, sorted(edges)


def with_path(n, edges, k, ends=()):
    """The graph (n, edges) with k new vertices n, ..., n + k - 1 on a path,
    its first vertex joined to ends[0] and its last to ends[-1]: ends
    (a, b) runs it from a to b (from a round to a itself when a == b),
    (a,) hangs it from a, and () leaves it apart.  Returns (n + k, edges)."""
    chain = [*ends[:1], *range(n, n + k), *ends[1:]]
    return n + k, list(edges) + list(zip(chain, chain[1:]))


def relabelled(rng: random.Random, n, edges):
    """The graph (n, edges) with its vertices renumbered at random."""
    return relabelled_with_sets(rng, n, edges, ())[:2]


def relabelled_with_sets(rng: random.Random, n, edges, sets):
    """`relabelled`, with each member list of `sets` renumbered the same
    way.  Returns (n, edges, sets)."""
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[u], perm[v]) for u, v in edges], [[perm[v] for v in s] for s in sets]
