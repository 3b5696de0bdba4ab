"""Reference graphs and propagation that do not go through `powerdom`.

Every output the benchmark checks is compared against this module.  Graphs
are plain adjacency lists of Python sets, built here from the family
descriptors with the same vertex numbering as the package documents.  The
monitoring closure uses a worklist (forces one at a time, which reaches the
same fixed point as simultaneous rounds); traces use simultaneous rounds,
as the package's trace contract states.
"""

from __future__ import annotations

from itertools import combinations


class RefGraph:
    """Undirected simple graph as a list of neighbour sets."""

    def __init__(self, n: int, edges):
        self.n = n
        self.nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v})")
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)

    def edge_set(self) -> set:
        return {(u, v) for u in range(self.n) for v in self.nbrs[u] if u < v}


# -- family builders --------------------------------------------------------


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _complete_edges(n):
    return list(combinations(range(n), 2))


def _product(n1, e1, n2, e2):
    """Cartesian product; vertex (u, v) is numbered u * n2 + v."""
    edges = [(u * n2 + a, u * n2 + b) for u in range(n1) for a, b in e2]
    edges += [(a * n2 + v, b * n2 + v) for a, b in e1 for v in range(n2)]
    return n1 * n2, edges


def family_graph(spec: str) -> RefGraph:
    """Reference graph for the descriptors the benchmark uses."""
    name, _, rest = spec.partition(":")
    args = [int(tok) for tok in rest.split(",")]
    if name == "path":
        n, edges = args[0], _path_edges(args[0])
    elif name == "cycle":
        n = args[0]
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif name == "complete":
        n, edges = args[0], _complete_edges(args[0])
    elif name == "kmn":
        m, k = args
        n, edges = m + k, [(i, m + j) for i in range(m) for j in range(k)]
    elif name == "grid":
        m, k = args
        n, edges = _product(m, _path_edges(m), k, _path_edges(k))
    elif name == "ladder":
        k = args[0]
        n, edges = _product(k, _path_edges(k), 2, _path_edges(2))
    elif name == "kxp":
        k, ell = args
        n, edges = _product(k, _complete_edges(k), ell, _path_edges(ell))
    else:
        raise ValueError(f"no reference builder for {spec!r}")
    return RefGraph(n, edges)


class RefGadget:
    """The independent-set reduction gadget, numbered as the package
    documents: source vertices, subdivision vertices in source-edge order,
    pendant-path vertices grouped by edge, hub last."""

    def __init__(self, src: RefGraph, path_len=None):
        n = src.n
        self.source_edges = sorted(src.edge_set())
        m = len(self.source_edges)
        self.path_len = n * n if path_len is None else path_len
        total = n + m * (self.path_len + 1) + 1
        hub = total - 1
        edges = []
        for j, (u, v) in enumerate(self.source_edges):
            sub = n + j
            edges += [(u, sub), (sub, v), (hub, sub)]
            prev = sub
            for i in range(self.path_len):
                cur = n + m + j * self.path_len + i
                edges.append((prev, cur))
                prev = cur
        self.graph = RefGraph(total, edges)
        self.hub = hub
        self.path_vertices = set(range(n + m, n + m + m * self.path_len))

    def lift(self, independent) -> set:
        return set(independent) | self.path_vertices


# -- propagation ------------------------------------------------------------


def closed_nbhd(rg: RefGraph, s) -> set:
    out = set(s)
    for v in s:
        out |= rg.nbrs[v]
    return out


def closure(rg: RefGraph, start) -> set:
    """Fixed point of the forcing rule, applying one force at a time."""
    mon = set(start)
    white = {v: len(rg.nbrs[v] - mon) for v in mon}
    queue = [v for v, c in white.items() if c == 1]
    while queue:
        v = queue.pop()
        if white[v] != 1:
            continue
        (w,) = rg.nbrs[v] - mon
        mon.add(w)
        white[w] = len(rg.nbrs[w] - mon)
        if white[w] == 1:
            queue.append(w)
        for u in rg.nbrs[w]:
            if u in mon and u != w:
                white[u] -= 1
                if white[u] == 1:
                    queue.append(u)
    return mon


def rounds(rg: RefGraph, start) -> list:
    """The chain of simultaneous forcing rounds, ending at the fixed point."""
    cur = set(start)
    steps = [frozenset(cur)]
    while True:
        add = set()
        for v in cur:
            whites = rg.nbrs[v] - cur
            if len(whites) == 1:
                add |= whites
        if not add:
            return steps
        cur |= add
        steps.append(frozenset(cur))


def is_pds(rg: RefGraph, s) -> bool:
    return len(closure(rg, closed_nbhd(rg, s))) == rg.n


def is_zfs(rg: RefGraph, s) -> bool:
    return len(closure(rg, s)) == rg.n


def is_dominating(rg: RefGraph, s) -> bool:
    return len(closed_nbhd(rg, s)) == rg.n


def is_independent(rg: RefGraph, s) -> bool:
    s = set(s)
    return all(not (rg.nbrs[v] & s) for v in s)


def classify(rg: RefGraph, s) -> dict:
    """Verdicts in the package's JSON shape."""
    s = set(s)
    step0 = closed_nbhd(rg, s)
    mon = closure(rg, step0)
    pds = len(mon) == rg.n
    spds = mon == step0
    maximal = spds and all(
        is_pds(rg, s | {v}) for v in range(rg.n) if v not in s
    )
    return {
        "is_pds": pds,
        "is_fpds": not pds,
        "is_spds": spds,
        "properly_stalled": spds and not pds,
        "maximally_stalled": maximal,
        "monitored": sorted(mon),
    }


def trace(rg: RefGraph, s, zero_forcing: bool) -> dict:
    start = set(s) if zero_forcing else closed_nbhd(rg, s)
    steps = rounds(rg, start)
    return {
        "kind": "zero-forcing" if zero_forcing else "power-domination",
        "steps": [sorted(step) for step in steps],
        "stabilized_at": len(steps) - 1,
    }


# -- exhaustive solvers for small graphs ------------------------------------

PREDICATES = {
    "pds": is_pds,
    "zfs": is_zfs,
    "dominating": is_dominating,
    "independent": is_independent,
}


def _colex_stratum(n: int, k: int):
    """k-subsets in colex order, which for fixed k is numeric mask order."""
    masks = sorted(sum(1 << v for v in c) for c in combinations(range(n), k))
    return [[v for v in range(n) if m >> v & 1] for m in masks]


def brute_min(rg: RefGraph, pred: str):
    """Smallest k with a k-subset satisfying the predicate, and the colex
    first such subset."""
    test = PREDICATES[pred]
    for k in range(rg.n + 1):
        for s in _colex_stratum(rg.n, k):
            if test(rg, s):
                return k, s
    raise AssertionError("the full vertex set satisfies every predicate")


def brute_max(rg: RefGraph, pred: str):
    """Largest k with a k-subset satisfying the predicate, and the colex
    first such subset."""
    test = PREDICATES[pred]
    for k in range(rg.n, -1, -1):
        for s in _colex_stratum(rg.n, k):
            if test(rg, s):
                return k, s
    raise AssertionError("no subset satisfies the predicate")


def brute_max_failed(rg: RefGraph, pred: str):
    """Largest k with a k-subset failing the predicate, and the colex first
    such subset."""
    test = PREDICATES[pred]
    best = (-1, None)
    for k in range(rg.n + 1):
        hit = next((s for s in _colex_stratum(rg.n, k) if not test(rg, s)), None)
        if hit is None:
            return best
        best = (k, hit)
    raise AssertionError("the full vertex set failed the predicate")
