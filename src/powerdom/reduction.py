"""Gadget construction mapping INDEPENDENT SET instances to stalled-set
instances, with certificate lifting in both directions.

Given a connected source graph, every edge is subdivided, a pendant path
of configurable length hangs off each subdivision vertex, and one hub
vertex is joined to all subdivision vertices.  With the faithful path
length (source vertex count squared) an independent set of size k lifts to
a properly stalled set of size path_len * |E| + k.

Vertex ordering in the gadget is stable: source vertices first (indices
preserved), then subdivision vertices in source-edge order, then path
vertices grouped by edge, hub last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DisconnectedInput, NotIndependent, TooSmall
from .graphs import Graph, VertexSet, check_universe, is_connected
from .solvers import _grow_dependent


def is_independent_set(g: Graph, s: VertexSet) -> bool:
    check_universe(g, s)
    # the solvers' dependence predicate: its state is None once s holds an edge
    return _grow_dependent(g.adjacency_masks(), None, 0, s.bits, 0) is not None


@dataclass(frozen=True)
class ReductionOutput:
    gprime: Graph
    source_n: int
    source_m: int
    source_edges: tuple[tuple[int, int], ...]
    path_len: int
    faithful: bool

    @property
    def hub(self) -> int:
        return self.source_n + self.source_m * (self.path_len + 1)

    def subdiv_vertex(self, edge_index: int) -> int:
        if not 0 <= edge_index < self.source_m:
            raise ValueError(f"no source edge {edge_index}")
        return self.source_n + edge_index

    def path_vertex(self, edge_index: int, i: int) -> int:
        """The i-th pendant-path vertex of the given edge, 1 <= i <= path_len.
        Index 0 is the subdivision vertex itself."""
        if i == 0:
            return self.subdiv_vertex(edge_index)
        if not 1 <= i <= self.path_len:
            raise ValueError(f"path position {i} outside 1..{self.path_len}")
        if not 0 <= edge_index < self.source_m:
            raise ValueError(f"no source edge {edge_index}")
        base = self.source_n + self.source_m
        return base + edge_index * self.path_len + (i - 1)

    def m_of(self, k: int) -> int:
        """The stalled-set size m that an independent k-set lifts to."""
        if not 0 <= k <= self.source_n:
            raise ValueError(f"independent-set size {k} outside 0..{self.source_n}")
        return self.path_len * self.source_m + k

    def all_path_vertices(self) -> VertexSet:
        """All v_{e_i} for i >= 1, across every edge (subdivision vertices
        excluded)."""
        lo = self.source_n + self.source_m
        count = self.source_m * self.path_len
        return VertexSet(self.gprime.n, ((1 << count) - 1) << lo)

    def roles_json_dict(self) -> dict:
        return {
            "source_n": self.source_n,
            "source_m": self.source_m,
            "path_len": self.path_len,
            "faithful": self.faithful,
            "original": list(range(self.source_n)),
            "subdivision": {
                str(j): self.subdiv_vertex(j) for j in range(self.source_m)
            },
            "paths": {
                str(j): [self.path_vertex(j, i) for i in range(1, self.path_len + 1)]
                for j in range(self.source_m)
            },
            "hub": self.hub,
            "m_base": self.path_len * self.source_m,
        }


def build_reduction(g: Graph, path_len: Optional[int] = None) -> ReductionOutput:
    """Construct the gadget graph for a connected source with n >= 3.

    path_len defaults to n squared (the faithful value required by the
    counting argument); any override is flagged non-faithful.
    """
    if g.n < 3:
        raise TooSmall(f"reduction needs at least 3 source vertices, got {g.n}")
    if not is_connected(g):
        raise DisconnectedInput("reduction needs a connected source graph")
    faithful = path_len is None
    length = g.n * g.n if path_len is None else path_len
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")

    src_edges = tuple(g.edges())
    n, m = g.n, len(src_edges)
    total = n + m * (length + 1) + 1
    hub = total - 1

    edges: list[tuple[int, int]] = []
    labels = [g.label_of(v) for v in range(n)]
    labels += [f"e{j}.0" for j in range(m)]
    labels += [f"e{j}.{i}" for j in range(m) for i in range(1, length + 1)]
    labels.append("x")

    path_base = n + m
    for j, (u, v) in enumerate(src_edges):
        sub = n + j
        edges.append((u, sub))
        edges.append((sub, v))
        edges.append((hub, sub))
        prev = sub
        for i in range(1, length + 1):
            cur = path_base + j * length + (i - 1)
            edges.append((prev, cur))
            prev = cur

    gprime = Graph(total, edges, labels=labels)
    return ReductionOutput(
        gprime=gprime,
        source_n=n,
        source_m=m,
        source_edges=src_edges,
        path_len=length,
        faithful=faithful,
    )


def _source_edge_within(red: ReductionOutput, u: VertexSet) -> Optional[tuple[int, int]]:
    """The first recorded source edge with both ends in `u`, or None."""
    return next(((a, b) for a, b in red.source_edges if a in u and b in u), None)


def lift_independent_set(red: ReductionOutput, u: VertexSet) -> VertexSet:
    """Lift an independent set of the source to a stalled set of the gadget.

    Independence is re-verified against the recorded source edges, never
    trusted from the caller.
    """
    if u.n != red.source_n:
        raise ValueError("candidate set must live in the source vertex universe")
    edge = _source_edge_within(red, u)
    if edge is not None:
        raise NotIndependent(f"vertices {edge[0]} and {edge[1]} are adjacent in the source")
    bits = u.bits | red.all_path_vertices().bits
    return VertexSet(red.gprime.n, bits)


@dataclass(frozen=True)
class ExtractedSet:
    vertices: VertexSet  # in the source universe
    independent: bool


def extract_independent_set(red: ReductionOutput, s: VertexSet) -> ExtractedSet:
    """Restrict a gadget set to the original vertices and flag independence."""
    if s.n != red.gprime.n:
        raise ValueError("candidate set must live in the gadget vertex universe")
    bits = s.bits & ((1 << red.source_n) - 1)
    vertices = VertexSet(red.source_n, bits)
    independent = _source_edge_within(red, vertices) is None
    return ExtractedSet(vertices=vertices, independent=independent)
