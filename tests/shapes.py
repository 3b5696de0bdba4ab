"""Graph shapes and a reference closure shared by the test modules.

Unlike `oracles`, which shares no code with the package, these build on
`powerdom` itself.
"""

from powerdom import Graph
from powerdom.propagation import run_chain_bits

import oracles


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def reference_closure(g: Graph, start: int) -> int:
    """The last step of the reference chain `run_chain_bits`, checked
    against the oracle's zero-forcing chain."""
    closure = run_chain_bits(g.adjacency_masks(), start)[-1]
    assert closure == oracles.zf_closure_bits(g.n, g.edges(), start)
    return closure
