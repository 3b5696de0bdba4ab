"""Immutable simple graphs with bitset adjacency, plus structural operators.

Vertices are dense 0-based indices.  Every vertex subset is a `VertexSet`,
a thin immutable wrapper over an int bitmask, so set algebra is exact and
cheap even for graphs with a few hundred vertices.  A graph also keeps each
vertex's neighbors as a tuple of indices, for kernels that walk edges one
at a time instead of masking whole vertex sets.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DisconnectedInput, LoopError, ParseError


class VertexSet:
    """Immutable subset of {0, ..., n-1} backed by an int bitmask."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("universe size must be nonnegative")
        if bits < 0 or bits >> n:
            raise ValueError(f"bitmask has members outside universe of size {n}")
        _set_n(self, n)
        _set_bits(self, bits)

    def __setattr__(self, *_):
        raise AttributeError("VertexSet is immutable")

    def __reduce__(self):
        # the default restores each slot by assignment, which is refused
        return VertexSet, (self.n, self.bits)

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside universe of size {n}")
            bits |= 1 << v
        return cls(n, bits)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    def _check(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets live in different universes")

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.bits >> v & 1)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.bits | other.bits)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.bits & other.bits)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.bits & ~other.bits)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ~self.bits & ((1 << self.n) - 1))

    def issubset(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def with_vertex(self, v: int) -> "VertexSet":
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside universe of size {self.n}")
        return VertexSet(self.n, self.bits | 1 << v)

    def members(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, members={self.members()})"


# the slot descriptors set the slots past the refusing `__setattr__`
_set_n = VertexSet.n.__set__
_set_bits = VertexSet.bits.__set__


def _unchecked_vertex_set(n: int, bits: int) -> VertexSet:
    """`VertexSet(n, bits)` without the range checks, for masks that are
    subsets of {0, ..., n-1} by construction."""
    vs = object.__new__(VertexSet)
    _set_n(vs, n)
    _set_bits(vs, bits)
    return vs


class Graph:
    """Simple undirected graph, immutable after construction.

    Adjacency is kept twice: as one bitmask per vertex and as one tuple of
    neighbor indices per vertex, with its length as the degree.  Labels
    are optional, cosmetic display strings.
    """

    __slots__ = ("n", "_adj", "_nbrs", "_deg", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Optional[Sequence[str]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise LoopError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            bit = 1 << v
            if adj[u] & bit:  # a repeated edge
                continue
            adj[u] |= bit
            adj[v] |= 1 << u
            nbrs[u].append(v)
            nbrs[v].append(u)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count does not match vertex count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "_nbrs", tuple(map(tuple, nbrs)))
        object.__setattr__(self, "_deg", tuple(map(len, nbrs)))
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    def __setstate__(self, state):
        # pickling and copying restore each slot by assignment, which
        # `__setattr__` refuses
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    # -- adjacency ---------------------------------------------------------

    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adj

    def adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbor indices, in the order the edges came."""
        return self._nbrs

    def degrees(self) -> tuple[int, ...]:
        return self._deg

    def neighbors(self, v: int) -> VertexSet:
        return VertexSet(self.n, self._adj[v])

    def degree(self, v: int) -> int:
        return self._deg[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            bits = self._adj[u] >> (u + 1) << (u + 1)
            while bits:
                low = bits & -bits
                out.append((u, low.bit_length() - 1))
                bits ^= low
        return out

    def edge_count(self) -> int:
        return sum(self._deg) // 2

    # -- vertex sets -------------------------------------------------------

    def empty_set(self) -> VertexSet:
        return VertexSet.empty(self.n)

    def full_set(self) -> VertexSet:
        return VertexSet.full(self.n)

    def vertex_set(self, members: Iterable[int]) -> VertexSet:
        return VertexSet.of(self.n, members)

    # -- labels ------------------------------------------------------------

    def label_of(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return str(v)

    def index_of_label(self, label: str) -> int:
        """The vertex labeled `label`; KeyError unless exactly one is."""
        if self.labels is None:
            raise KeyError(f"graph carries no labels (looking up {label!r})")
        count = self.labels.count(label)
        if count != 1:
            raise KeyError(f"label {label!r} names {count} vertices" if count
                           else f"no vertex labeled {label!r}")
        return self.labels.index(label)

    def set_of_labels(self, labels: Iterable[str]) -> VertexSet:
        return VertexSet.of(self.n, (self.index_of_label(s) for s in labels))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        out: dict = {"n": self.n, "edges": [list(e) for e in self.edges()]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


# -- construction and I/O ----------------------------------------------------


def from_edge_list(text: str) -> Graph:
    """Parse the line-oriented edge-list format.

    Each non-comment line is "u v"; an optional first line with a single
    integer fixes the vertex count.  '#' starts a comment, duplicate edge
    lines are idempotent.
    """
    declared_n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    seen_header = False
    max_index = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not seen_header and len(tokens) == 1:
            seen_header = True
            try:
                declared_n = int(tokens[0])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {tokens[0]!r}")
            if declared_n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            continue
        seen_header = True
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in {line!r}")
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex index")
        if u == v:
            raise LoopError(f"line {lineno}: self-loop at vertex {u}")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise IndexError(
                f"line {lineno}: edge ({u}, {v}) exceeds declared count {declared_n}"
            )
        edges.append((u, v))
        max_index = max(max_index, u, v)
    n = declared_n if declared_n is not None else max_index + 1
    return Graph(n, edges)


def to_edge_list_text(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- structural operators ----------------------------------------------------


def complement(g: Graph) -> Graph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return Graph(g.n, edges, labels=g.labels)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges; h's indices are shifted by g.n."""
    edges = list(g.edges())
    edges.extend((u + g.n, v + g.n) for u, v in h.edges())
    edges.extend((u, v + g.n) for u in range(g.n) for v in range(h.n))
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = list(g.labels) + list(h.labels)
    return Graph(g.n + h.n, edges, labels=labels)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) gets index u * h.n + v and label u{i}v{j}."""
    n = g.n * h.n
    edges = []
    for u in range(g.n):
        for v1, v2 in h.edges():
            edges.append((u * h.n + v1, u * h.n + v2))
    for u1, u2 in g.edges():
        for v in range(h.n):
            edges.append((u1 * h.n + v, u2 * h.n + v))
    labels = [f"u{i}v{j}" for i in range(g.n) for j in range(h.n)]
    return Graph(n, edges, labels=labels)


def check_universe(g: Graph, s: VertexSet) -> None:
    """Raise ValueError unless s is a subset of g's vertex set {0..n-1}."""
    if s.n != g.n:
        raise ValueError(
            f"vertex set of universe size {s.n} used with a graph of {g.n} vertices"
        )


def induced_subgraph(g: Graph, s: VertexSet) -> tuple[Graph, list[int]]:
    """Subgraph induced by s, plus the map from new index to original index."""
    check_universe(g, s)
    index_map = s.members()
    position = {orig: i for i, orig in enumerate(index_map)}
    edges = [
        (position[u], position[v])
        for u, v in g.edges()
        if u in s and v in s
    ]
    labels = None
    if g.labels is not None:
        labels = [g.labels[orig] for orig in index_map]
    return Graph(len(index_map), edges, labels=labels), index_map


def closed_neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    check_universe(g, s)
    return VertexSet(g.n, closed_neighborhood_bits(g.adjacency_masks(), s.bits))


def closed_neighborhood_bits(adj: Sequence[int], bits: int) -> int:
    """N[bits] as a mask, from the adjacency masks `adj`."""
    acc = bits
    while bits:
        low = bits & -bits
        acc |= adj[low.bit_length() - 1]
        bits ^= low
    return acc


# -- connectivity ------------------------------------------------------------


def _component_masks(adj: Sequence[int], alive: int) -> list[int]:
    """Connected components of the subgraph induced by the `alive` mask."""
    comps = []
    remaining = alive
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            frontier = closed_neighborhood_bits(adj, frontier) & alive & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def components(g: Graph) -> list[VertexSet]:
    masks = _component_masks(g.adjacency_masks(), (1 << g.n) - 1)
    return [VertexSet(g.n, m) for m in masks]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def cut_vertices(g: Graph) -> VertexSet:
    """Vertices whose removal increases the component count.

    For disconnected input this is the union of per-component cut vertices.
    """
    adj = g.adjacency_masks()
    full = (1 << g.n) - 1
    base = len(_component_masks(adj, full))
    bits = 0
    for v in range(g.n):
        alive = full & ~(1 << v)
        if len(_component_masks(adj, alive)) > base:
            bits |= 1 << v
    return VertexSet(g.n, bits)


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects g.

    Exhaustive over removal sets; meant for desk-scale graphs.  Complete
    graphs get the usual convention kappa(K_n) = n - 1.
    """
    if not is_connected(g):
        raise DisconnectedInput("vertex connectivity requires a connected graph")
    if g.n <= 1:
        return 0
    if g.edge_count() == g.n * (g.n - 1) // 2:
        return g.n - 1
    adj = g.adjacency_masks()
    full = (1 << g.n) - 1
    for size in range(1, g.n - 1):
        for removed in combinations(range(g.n), size):
            alive = full
            for v in removed:
                alive &= ~(1 << v)
            if len(_component_masks(adj, alive)) > 1:
                return size
    raise AssertionError("non-complete connected graph must have a separator")
