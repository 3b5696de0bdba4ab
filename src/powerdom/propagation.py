"""Fixed-point monitoring processes and candidate-set classification.

Two chains share one forcing rule: a monitored vertex with exactly one
unmonitored neighbor forces that neighbor.  The power-domination chain
starts from the closed neighborhood of the candidate set (domination step);
the zero-forcing chain starts from the candidate set itself.

Two kernels compute them.  The bitmask kernel (`fixpoint_from`,
`fixpoint_bits`, `run_chain_bits`) keeps one adjacency mask per vertex and
re-checks, each round, the neighborhood of the bits the last round added;
on a graph of a few hundred vertices every bit it touches costs an
operation on an n-bit integer.  `fixpoint_from` also skips the vertices
that forced in the round before; `run_chain_bits` keeps no forcers and is
the reference chain the closures are tested against.  The index kernel
walks neighbor-index tuples instead, with a `bytearray` of monitored flags
and, per vertex, a count of its unmonitored neighbors, so each edge is
touched a bounded number of times.  The traces and `classify`'s first
closure use it.  Its set-up costs in proportion to the
smaller side of step 0: the monitored vertices when s has at most n/2
members, the unmonitored ones otherwise.

The traces keep simultaneous rounds: every vertex that can force at the
start of a round forces in it, so their steps are those of
`run_chain_bits` and comparable across implementations using the same
convention.  A closure alone is order-free, since its fixed point is
unique, so `classify` forces from a worklist in any order.

The solver scan and `classify`'s maximal-stalling loop keep the bitmask
kernel: they grow each closure from one that is already a fixed point, and
`fixpoint_from` re-checks only the neighborhood of the added vertices,
where the index kernel would copy or rebuild its counters for every set
tried, which a prototype of each measured slower.  A failing augmentation
N[s + v] usually stalls at once and a succeeding one runs the whole chain,
so `classify` gives each one round first.  `is_pds` stays
`fixpoint_bits(N[s]) == V` while perfbench's traced runs time the
propagation layer through `fixpoint_bits` calls.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graphs import (Graph, VertexSet, _unchecked_vertex_set, check_universe,
                     closed_neighborhood, closed_neighborhood_bits)

POWER_DOMINATION = "power-domination"
ZERO_FORCING = "zero-forcing"


def fixpoint_from(adj: Sequence[int], closed: int, add: int, stop: int = 0) -> int:
    """Forcing closure of `closed | add`, where `closed` is already a fixed
    point; each round re-checks only the neighborhood of the bits it added
    (one vertex's is its mask), less the vertices that forced in the round
    before.  Those have no unmonitored neighbor left, and a vertex that
    forced earlier has no neighbor that can still be added.

    `stop` holds vertices w whose forcing closure together with some subset
    of `closed` is the whole vertex set.  Closures are monotone, so once the
    growing closure monitors any of them the whole vertex mask is returned
    at once.
    """
    cur = closed | add
    new = cur & ~closed
    forcers = 0
    while new:
        if new & stop:
            return (1 << len(adj)) - 1
        if new & (new - 1):
            # walked inline: `closed_neighborhood_bits` measured slower here
            cand = new
            bits = new
            while bits:
                low = bits & -bits
                bits ^= low
                cand |= adj[low.bit_length() - 1]
        else:  # one vertex, as along a chain and in a scan child
            cand = new | adj[new.bit_length() - 1]
        cand &= cur ^ forcers  # less last round's forcers
        unmonitored = ~cur
        new = forcers = 0
        while cand:
            low = cand & -cand
            cand ^= low
            out = adj[low.bit_length() - 1] & unmonitored
            if out.bit_count() == 1:
                new |= out
                forcers |= low
        cur |= new
    return cur


def run_chain_bits(adj: Sequence[int], start: int) -> list[int]:
    """Full chain of monitored-set masks, up to the first repeat (exclusive).
    A round checks the monitored vertices of N[bits added the round before]:
    any other has the unmonitored neighbors it had then, and forced nothing."""
    steps = [start]
    cur = new = start
    while True:
        cand = closed_neighborhood_bits(adj, new) & cur
        unmonitored = ~cur
        new = 0
        while cand:
            low = cand & -cand
            cand ^= low
            out = adj[low.bit_length() - 1] & unmonitored
            if out.bit_count() == 1:
                new |= out
        if not new:
            return steps
        cur |= new
        steps.append(cur)


def fixpoint_bits(adj: Sequence[int], start: int) -> int:
    """Final mask of the chain, without recording intermediate steps."""
    return fixpoint_from(adj, 0, start)


class PropagationTrace(NamedTuple):
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


class Classification(NamedTuple):
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


# -- the index kernel ----------------------------------------------------------
#
# `mon[v]` is 1 once v is monitored and `left[v]` counts v's unmonitored
# neighbors, so v can force exactly when mon[v] == 1 and left[v] == 1.

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _start(g: Graph, s: VertexSet, dominate: bool):
    """Flags and counts of step 0, N[s] or s itself, the monitored vertices
    that may force first, and step 0 as a mask.  A set of at most n/2
    vertices is walked from its members; of a larger one only the
    unmonitored vertices U are walked: those outside it, and for N[s] with
    no neighbor in it."""
    check_universe(g, s)
    nbrs = g.adjacency_lists()
    adj = g.adjacency_masks()
    if 2 * len(s) <= g.n:
        mon = bytearray(g.n)
        left = list(g.degrees())
        marked = []
        step0 = s.bits
        for v in s:
            if dominate:
                step0 |= adj[v]
            for w in (v, *nbrs[v]) if dominate else (v,):
                if not mon[w]:
                    mon[w] = 1
                    marked.append(w)
                    for x in nbrs[w]:
                        left[x] -= 1
        return nbrs, mon, left, marked, step0
    mon = bytearray(b"\x01") * g.n
    left = [0] * g.n
    step0 = (1 << g.n) - 1
    rest = step0 ^ s.bits
    unmonitored = []
    while rest:
        low = rest & -rest
        rest ^= low
        w = low.bit_length() - 1
        if dominate and adj[w] & s.bits:
            continue
        step0 ^= low
        mon[w] = 0
        unmonitored.append(w)
        for x in nbrs[w]:
            left[x] += 1
    # a vertex with one neighbor in U is listed once, from that neighbor
    first = [x for w in unmonitored for x in nbrs[w] if left[x] == 1 and mon[x]]
    return nbrs, mon, left, first, step0


def _close(nbrs, mon: bytearray, left: list[int], todo: list[int]) -> int:
    """Force to the fixed point, one vertex at a time in any order; returns
    the number of vertices forced.  `todo` must hold every monitored vertex
    that has exactly one unmonitored neighbor."""
    forced = 0
    while todo:
        u = todo.pop()
        if left[u] != 1:
            continue
        for w in nbrs[u]:
            if not mon[w]:
                break
        mon[w] = 1
        forced += 1
        todo.append(w)
        for x in nbrs[w]:
            left[x] -= 1
            if left[x] == 1 and mon[x]:
                todo.append(x)
    return forced


def _mask(mon: bytearray) -> int:
    """The monitored flags as a bitmask, bit v for vertex v."""
    return int(mon[::-1].translate(_DIGITS) or b"0", 2)


def _trace(g: Graph, kind: str, s: VertexSet, dominate: bool) -> PropagationTrace:
    """The chain in simultaneous rounds: every vertex that can force at the
    start of a round forces in it, as in `run_chain_bits`."""
    nbrs, mon, left, cand, cur = _start(g, s, dominate)
    steps = [cur]
    while True:
        new = []
        for u in cand:  # every vertex of `cand` is monitored
            if left[u] == 1:
                for w in nbrs[u]:
                    if mon[w] != 1:
                        break
                if not mon[w]:
                    mon[w] = 2  # forced in this round, unmonitored until its end
                    new.append(w)
        if not new:
            break
        # a vertex that could force in this round did, and has no
        # unmonitored neighbor left; the next round's candidates are the
        # vertices it forced and those whose count it brought down to one
        more = []
        for w in new:
            mon[w] = 1
            cur |= 1 << w
            for x in nbrs[w]:
                left[x] -= 1
                if left[x] == 1 and mon[x] == 1:
                    more.append(x)
        cand = new + more
        steps.append(cur)
    n = g.n
    steps = tuple([_unchecked_vertex_set(n, bits) for bits in steps])
    return PropagationTrace(kind=kind, steps=steps, stabilized_at=len(steps) - 1)


def monitored_fixpoint(g: Graph, s: VertexSet) -> PropagationTrace:
    """Power-domination chain: step 0 is the closed neighborhood of s."""
    return _trace(g, POWER_DOMINATION, s, True)


def zero_forcing_fixpoint(g: Graph, s: VertexSet) -> PropagationTrace:
    """Zero-forcing chain: step 0 is s itself (no domination step)."""
    return _trace(g, ZERO_FORCING, s, False)


def is_pds(g: Graph, s: VertexSet) -> bool:
    adj = g.adjacency_masks()
    start = closed_neighborhood(g, s).bits
    return fixpoint_bits(adj, start) == (1 << g.n) - 1


def _stalls_at_once(adj: Sequence[int], closed: int, outside: int, full: int) -> bool:
    """Whether, for some v in `outside`, `closed | N[v]` is a fixed point
    other than `full`.  `closed` is a fixed point, so only the vertices of
    N[N[v] - closed] can newly force."""
    while outside:
        low = outside & -outside
        outside ^= low
        add = (low | adj[low.bit_length() - 1]) & ~closed
        cur = closed | add
        if cur == full:
            continue
        cand = closed_neighborhood_bits(adj, add) & cur
        unmonitored = ~cur
        while cand:
            low = cand & -cand
            cand ^= low
            if (adj[low.bit_length() - 1] & unmonitored).bit_count() == 1:
                break
        else:
            return True
    return False


def classify(g: Graph, s: VertexSet) -> Classification:
    """Full verdict set for s.  A stalled s is maximally stalled unless some
    N[s + v] stalls in its first round; only if none does are the n - |s|
    closures run."""
    adj = g.adjacency_masks()
    full = (1 << g.n) - 1
    nbrs, mon, left, todo, step0 = _start(g, s, True)
    spds = not _close(nbrs, mon, left, todo)
    monitored = step0 if spds else _mask(mon)
    pds = monitored == full
    properly = spds and monitored != full
    maximal = False
    if spds:
        rest = full & ~s.bits
        maximal = not _stalls_at_once(adj, monitored, rest, full)
        while maximal and rest:
            low = rest & -rest
            rest ^= low
            # monitored == N[s] is a fixed point, so N[s + v] closes from it
            if fixpoint_from(adj, monitored, low | adj[low.bit_length() - 1]) != full:
                maximal = False
    return Classification(
        is_pds=pds,
        is_fpds=not pds,
        is_spds=spds,
        properly_stalled=properly,
        maximally_stalled=maximal,
        monitored=VertexSet(g.n, monitored),
    )
