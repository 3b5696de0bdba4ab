"""Every graph on a few vertices, one per isomorphism class.

Orderly generation, one vertex at a time: each graph on n vertices is a
graph on n - 1 vertices plus a vertex joined to some subset of them, so
extending one representative of every class on n - 1 vertices in every
way and keeping one graph per canonical form lists every class on n
vertices once.  The canonical form orders the vertices by colour
refinement, then tries every order within each refined cell and keeps the
least adjacency rows.  Standard library only, with no package import; the
counts 1, 2, 4, 11, 34, 156, 1044 for n = 1..7 are OEIS A000088.
"""

from functools import lru_cache
from itertools import permutations, product


def _cells(nbrs):
    """The vertices in cells of equal colour under colour refinement, the
    cells in an order that any relabelling of the graph keeps."""
    colour = [len(ws) for ws in nbrs]
    while True:
        signature = [repr((colour[v], sorted(colour[w] for w in ws))) for v, ws in enumerate(nbrs)]
        ranks = {sig: r for r, sig in enumerate(sorted(set(signature)))}
        refined = [ranks[sig] for sig in signature]
        if len(ranks) == len(set(colour)):
            break
        colour = refined
    return [[v for v, c in enumerate(colour) if c == cell] for cell in sorted(set(colour))]


def _rows(nbrs, order):
    """The adjacency rows of the graph relabelled so that order[i] is i."""
    bit = [0] * len(nbrs)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    return tuple(sum([bit[w] for w in nbrs[v]]) for v in order)


def canonical_form(adj):
    """The least tuple of adjacency rows over the vertex orders that list
    the refined cells in turn; isomorphic graphs, and only they, share it.
    `adj` holds one neighbour mask per vertex."""
    nbrs = [[w for w in range(len(adj)) if row >> w & 1] for row in adj]
    return min(_rows(nbrs, [v for part in parts for v in part])
               for parts in product(*map(permutations, _cells(nbrs))))


def _edges(rows):
    return [(u, v) for u, row in enumerate(rows) for v in range(u + 1, len(rows)) if row >> v & 1]


@lru_cache(maxsize=None)
def _forms(n):
    if n == 0:
        return ((),)
    forms = set()
    for rows in _forms(n - 1):
        for joined in range(1 << (n - 1)):
            adj = [row | (joined >> u & 1) << (n - 1) for u, row in enumerate(rows)]
            forms.add(canonical_form(adj + [joined]))
    return tuple(sorted(forms))


def graphs(n):
    """One edge list for each isomorphism class of graphs on n vertices, in
    a fixed order."""
    return [_edges(rows) for rows in _forms(n)]
