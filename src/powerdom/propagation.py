"""Fixed-point monitoring processes and candidate-set classification.

Two chains share one forcing rule: a monitored vertex with exactly one
unmonitored neighbor forces that neighbor.  The power-domination chain
starts from the closed neighborhood of the candidate set (domination step);
the zero-forcing chain starts from the candidate set itself.  Updates are
simultaneous per step, so traces are comparable across implementations
using the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, VertexSet, closed_neighborhood

POWER_DOMINATION = "power-domination"
ZERO_FORCING = "zero-forcing"


def _frontier_round(adj: Sequence[int], cur: int, new: int) -> int:
    """One simultaneous forcing round of `cur`; returns the bits newly forced.

    `new` holds the bits added to `cur` since its last round, or since a
    fixed point it grew from.  Only the monitored vertices of N[new] are
    checked: any other monitored vertex has the same unmonitored neighbors
    as in that round, where it forced nothing.
    """
    cand = new
    bits = new
    while bits:
        low = bits & -bits
        bits ^= low
        cand |= adj[low.bit_length() - 1]
    cand &= cur
    unmonitored = ~cur
    add = 0
    while cand:
        low = cand & -cand
        cand ^= low
        out = adj[low.bit_length() - 1] & unmonitored
        if out and not (out & (out - 1)):
            add |= out
    return add


def fixpoint_from(adj: Sequence[int], closed: int, add: int, stop: int = 0) -> int:
    """Forcing closure of `closed | add`, where `closed` is already a fixed
    point; each round re-checks only the neighborhood of the bits it added.

    `stop` holds vertices w whose forcing closure together with some subset
    of `closed` is the whole vertex set.  Closures are monotone, so once the
    growing closure monitors any of them the whole vertex mask is returned
    at once.
    """
    cur = closed | add
    new = cur & ~closed
    while new:
        if new & stop:
            return (1 << len(adj)) - 1
        new = _frontier_round(adj, cur, new)
        cur |= new
    return cur


def run_chain_bits(adj: Sequence[int], start: int) -> list[int]:
    """Full chain of monitored-set masks, up to the first repeat (exclusive)."""
    steps = [start]
    cur = new = start
    while True:
        new = _frontier_round(adj, cur, new)
        if not new:
            return steps
        cur |= new
        steps.append(cur)


def fixpoint_bits(adj: Sequence[int], start: int) -> int:
    """Final mask of the chain, without recording intermediate steps."""
    return fixpoint_from(adj, 0, start)


@dataclass(frozen=True)
class PropagationTrace:
    """The monotone chain step 0 <= step 1 <= ... up to its fixed point."""

    kind: str
    steps: tuple[VertexSet, ...]
    stabilized_at: int

    @property
    def fixed_point(self) -> VertexSet:
        return self.steps[-1]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "steps": [s.members() for s in self.steps],
            "stabilized_at": self.stabilized_at,
        }


@dataclass(frozen=True)
class Classification:
    """Verdicts for one (graph, candidate set) pair."""

    is_pds: bool
    is_fpds: bool
    is_spds: bool
    properly_stalled: bool
    maximally_stalled: bool
    monitored: VertexSet

    def to_json_dict(self) -> dict:
        return {
            "is_pds": self.is_pds,
            "is_fpds": self.is_fpds,
            "is_spds": self.is_spds,
            "properly_stalled": self.properly_stalled,
            "maximally_stalled": self.maximally_stalled,
            "monitored": self.monitored.members(),
        }


def _trace(g: Graph, kind: str, start_bits: int) -> PropagationTrace:
    raw = run_chain_bits(g.adjacency_masks(), start_bits)
    steps = tuple(VertexSet(g.n, bits) for bits in raw)
    return PropagationTrace(kind=kind, steps=steps, stabilized_at=len(steps) - 1)


def monitored_fixpoint(g: Graph, s: VertexSet) -> PropagationTrace:
    """Power-domination chain: step 0 is the closed neighborhood of s."""
    return _trace(g, POWER_DOMINATION, closed_neighborhood(g, s).bits)


def zero_forcing_fixpoint(g: Graph, s: VertexSet) -> PropagationTrace:
    """Zero-forcing chain: step 0 is s itself (no domination step)."""
    return _trace(g, ZERO_FORCING, s.bits)


def is_pds(g: Graph, s: VertexSet) -> bool:
    adj = g.adjacency_masks()
    start = closed_neighborhood(g, s).bits
    return fixpoint_bits(adj, start) == (1 << g.n) - 1


def classify(g: Graph, s: VertexSet) -> Classification:
    """Full verdict set for s, including the n - |s| extra propagations
    needed to decide maximal stalling (only evaluated when s is stalled)."""
    adj = g.adjacency_masks()
    full = (1 << g.n) - 1
    step0 = closed_neighborhood(g, s).bits
    monitored = fixpoint_bits(adj, step0)
    pds = monitored == full
    spds = monitored == step0
    properly = spds and monitored != full
    maximal = False
    if spds:
        maximal = True
        rest = full & ~s.bits
        while rest:
            low = rest & -rest
            rest ^= low
            # monitored == step0 is a fixed point, so N[s + v] closes from it
            if fixpoint_from(adj, monitored, low | adj[low.bit_length() - 1]) != full:
                maximal = False
                break
    return Classification(
        is_pds=pds,
        is_fpds=not pds,
        is_spds=spds,
        properly_stalled=properly,
        maximally_stalled=maximal,
        monitored=VertexSet(g.n, monitored),
    )
