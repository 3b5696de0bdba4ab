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

from typing import NamedTuple, Optional

from .errors import DisconnectedInput, NotIndependent, TooSmall
from .graphs import Graph, VertexSet, check_universe, is_connected


def is_independent_set(g: Graph, s: VertexSet) -> bool:
    check_universe(g, s)
    adj = g.adjacency_masks()
    return not any(adj[v] & s.bits for v in s)


class ReductionOutput(NamedTuple):
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
        return self._path(edge_index)[i - 1]

    def _path(self, edge_index: int) -> range:
        """The pendant-path vertices 1..path_len of the given edge, in order."""
        if not 0 <= edge_index < self.source_m:
            raise ValueError(f"no source edge {edge_index}")
        first = self.source_n + self.source_m + edge_index * self.path_len
        return range(first, first + self.path_len)

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
                str(j): list(self._path(j)) for j in range(self.source_m)
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
    red = ReductionOutput(None, g.n, len(src_edges), src_edges, length, faithful)
    labels = [None] * (red.hub + 1)
    labels[: g.n] = map(g.label_of, range(g.n))
    labels[red.hub] = "x"
    edges: list[tuple[int, int]] = []
    for j, (u, v) in enumerate(src_edges):
        sub, path = red.subdiv_vertex(j), red._path(j)
        edges += [(u, sub), (sub, v), (red.hub, sub), *zip((sub, *path), path)]
        labels[sub] = f"e{j}.0"
        labels[path.start : path.stop] = [f"e{j}.{i}" for i in range(1, length + 1)]
    return red._replace(gprime=Graph(red.hub + 1, edges, labels))


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


class ExtractedSet(NamedTuple):
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
