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
touched a bounded number of times.  The traces use it, and so does the
closure of N[s] on large sparse graphs, by the rule below.  Its set-up
walks the smaller side of step 0: the monitored vertices when s has at
most n/2 members, the unmonitored ones otherwise, so the near-complete
lifted sets of the reduction gadget set up in the time of a small set.
The members' side first copies all n degree counts, about 4.7 us on the
n = 994 gadget, so its set-up is not sublinear in n.

The traces keep simultaneous rounds: every vertex that can force at the
start of a round forces in it, so their steps are those of
`run_chain_bits` and comparable across implementations using the same
convention.  On the paths of three or more degree-2 vertices that the
contracted view shortens (`Graph.chain_table`), a trace counts rounds
instead of running them.  A path vertex forces exactly when it is
monitored, one of its two neighbors is monitored and the other is not, so
a gap, a run of L path vertices unmonitored at step 0, fills one vertex a
round from each end that a front has entered: its vertex d, counting
from 0 at the first, is monitored in round min(tL + d, tR + L - 1 - d),
where tL and tR are the rounds in which its first and last vertex are
forced from outside it.  This is exact because nothing outside a gap sees
its inner vertices: the gap meets the graph only through its two end
vertices and their outer neighbors.  So the round loop forces every vertex as before but moves no
front: a vertex it forces at an end of a gap of two or more only sets tL
or tR.  A front entering in round t reaches the far end f in round
t + L - 1 unless a front entered there first; that round goes in as an
event, in which f's outer neighbor x counts one unmonitored neighbor
less, and f forces x in the next round if x is unmonitored.  That x is
off the paths, or a monitored path vertex, which the loop then lets
force into the gap on its other side once its count drops to one.  A
leaf at an end of a path joins its chain, since it forces or is forced
like a path vertex whose other neighbor is always monitored.  The loop
jumps over rounds in which only fronts move, and at the end each gap
vertex gets its round by the rule above: the steps take one OR per
forced vertex, and one OR and one `VertexSet` per round.  A graph with no
such path runs the plain loop.  A closure alone is order-free, since its
fixed point is unique, so `_close` forces from a worklist in any order.

`is_pds` and `classify`'s first closure close N[s] in one routine,
`_closure`, by one rule.  The graph closed on is the contracted view
(`Graph.contracted_view`) when the graph has one and s has at most n/2
members, and the graph itself otherwise; a larger s is set up from the
vertices outside N[s], a walk that costs about as much as closing them on
the graph.  On the graph closed on, the index kernel runs when it has more
than 30 vertices and average degree at most 6 (2m <= 6n), and the bitmask
kernel otherwise.  In the view each path of k >= 3 degree-2 vertices
z1..zk between ends a and b is shortened to a - z1 - zk - b, and a cycle
of four or more of them to a triangle; s is mapped onto the view, and a
monitored z1 stands for z1..z(k-1).  The closure is exact because such a
path is monitored whole or not at all: a path vertex in the closure of
N[s] has a monitored neighbor (a member of s, or the vertex that forced
it), so at the fixed point its other neighbor is monitored too, and so on
along the path to both ends.  The path fills only when s holds one of its
vertices or ends, or when an end forces into it, and a path of two
vertices does the same, so the fixed points of the graph and of the view
match.  A path from a round to a itself keeps two vertices, so that a
still counts two unmonitored neighbors on it.  s stalls on the graph only
if it stalls on the view, but not conversely, since the view's step 0 may
hold a whole path of which N[s] holds part; so when the view stalls, the
closure is compared with N[s] on the graph.  The index kernel's time over
the bitmask kernel's on the graph closed on, whose vertex count is in
parentheses (grid, ladder and kxp graphs have no view; median of 15
interleaved passes over 48 seeded sets of 1 to 8 vertices, Python 3.11,
2-vCPU Xeon):

    index    the n = 994 gadget (58) 0.96, grid:10,10 (100) 0.88,
             ladder:50 (100) 0.83, kxp:5,20 (100) 1.00
    bitmask  path:300 (4) 1.68, cycle:200 (3) 1.78, path:30 (4) 1.69,
             ladder:12 (24) 1.27, grid:5,6 (30) 1.31, kxp:5,6 (30) 1.55,
             kxp:6,6 (36) 1.13, kmn:16,16 (32) 1.81, kmn:20,20 (40) 2.13,
             kxp:10,10 (100) 1.41, complete:100 (100) 7.8

The solver scan and `classify`'s maximal-stalling loop keep the bitmask
kernel: they grow each closure from one that is already a fixed point, and
`fixpoint_from` re-checks only the neighborhood of the added vertices,
where the index kernel would copy or rebuild its counters for every set
tried, which a prototype of each measured slower.  `classify` decides by
footprint, not by vertex.  The footprint of v outside s is A_v =
N[v] - N[s], the part of N[v] that N[s] leaves unmonitored, so N[s + v] is
N[s] + A_v, and N[s] is a fixed point that `fixpoint_from` grows from:
vertices with one footprint have one verdict.  A failing augmentation
usually stalls at once and a succeeding one runs the whole chain, so one
walk over V - s collects the distinct footprints and gives each new one a
round first; the first that stalls in it ends the walk.  Only when none
does is each footprint closed once, smallest first.  Closures are
monotone in A, so once N[s] + {u} closes to V, every footprint holding u
closes to V too and is skipped, and u goes into `stop`, where a later
closure that monitors u returns V at once.  On the maximal lifts of the
grid:3,3 gadget, each vertex outside N[s] is its own footprint and every
other footprint holds the hub, so 9 to 18 one-round tests and 5 to 7
closures run where one of each per vertex outside s would be 17 to 19,
and `classify` takes about 78 us a lift (median of 300 passes over the
ten, Python 3.11, 2-vCPU Xeon).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, compress
from operator import or_
from typing import NamedTuple, Sequence

from .graphs import (Graph, VertexSet, _unchecked_vertex_set, check_universe,
                     closed_neighborhood_bits)

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
        return {**self._asdict(), "steps": [s.members() for s in self.steps]}


class Classification(NamedTuple):
    """Verdicts for one (graph, candidate set) pair."""

    is_pds: bool
    is_fpds: bool
    is_spds: bool
    properly_stalled: bool
    maximally_stalled: bool
    monitored: VertexSet

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "monitored": self.monitored.members()}


# -- the index kernel ----------------------------------------------------------
#
# `mon[v]` is 1 once v is monitored and `left[v]` counts v's unmonitored
# neighbors, so v can force exactly when mon[v] == 1 and left[v] == 1.

# reversed and translated to digits, the flags read as a mask in base 2
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


# the entry round of a gap's side that no front has entered from
_NEVER = 1 << 62


def _gaps(chain, at: list, between: bool, ends: dict, built: list) -> None:
    """Register in `ends`, under its first and last vertex, and in `built`
    each gap of the path chain = (a, z1, ..., zk, b): a maximal run
    zlo..zhi of vertices unmonitored at step 0, as [entry round from below,
    entry round from above, chain, lo, hi].  `at` holds, in order, the
    pairs (i, j) of the chain's vertices that `_start` walked: monitored
    ones, so the gaps lie `between` their positions j, or unmonitored ones,
    whose runs are the gaps."""
    spans, x = [], 0
    if between:
        for _, y in (*at, (0, len(chain) - 1)):
            if y - x > 1:
                spans.append((x + 1, y - 1))
            x = y
    else:
        x = -1
        for _, y in at:
            if y - x > 1:
                spans.append([y, y])
            else:
                spans[-1][1] = y
            x = y
    for lo, hi in spans:  # a side ending in None is entered by no front
        ends[chain[lo]] = ends[chain[hi]] = gap = [
            _NEVER + (chain[lo - 1] is None), _NEVER + (chain[hi + 1] is None), chain, lo, hi]
        built.append(gap)


def _trace(g: Graph, kind: str, s: VertexSet) -> PropagationTrace:
    """The chain in simultaneous rounds: every vertex that can force at the
    start of a round forces in it, as in `run_chain_bits`.  On the chains of
    `Graph.chain_table`, a vertex forced at an end of a gap of two or more
    vertices starts a front along it, which the round loop follows only by
    the events at the gap's far end; the gap's vertices get their rounds at
    the end, by the module docstring's rule."""
    nbrs, mon, left, cand, cur = _start(g, s, kind == POWER_DOMINATION)
    steps, events, place, first = [cur], None, None, cand
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
        if place is not False and new:
            if place is None:  # looked up once the loop forces a vertex
                chains, place = g.chain_table() or (None, False)
            if place and (fronts := [w for w in new if place[w]]):
                if events is None:  # the chains' positions that `_start` walked
                    ends, built, events = {}, [], {}
                    between = 2 * len(s) <= g.n
                    walked = first if between else _unchecked_vertex_set(
                        g.n, ~steps[0] & (1 << g.n) - 1)
                    at = sorted(filter(None, map(place.__getitem__, walked)))
                r, started = len(steps), []
                for w in fronts:
                    if w not in ends:
                        i = place[w][0]
                        _gaps(chains[i], at[bisect_left(at, (i,)):bisect_left(at, (i + 1,))],
                              between, ends, built)
                    gap = ends[w]
                    if gap[3] < gap[4]:  # the loop forces a gap of one vertex itself
                        side = w != gap[2][gap[3]]  # entered from above
                        gap[side] = r
                        mon[w] = 1  # the front moves on by itself
                        started.append((gap, not side))
                # a front runs to the far end of its gap unless one comes from there
                for gap, far in started:
                    if gap[far] == _NEVER:
                        events.setdefault(r + gap[4] - gap[3], []).append((gap, far))
                new = [w for w in new if mon[w] == 2]
        if new:
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
            steps.append(cur)
        elif events:  # only fronts move until the next event
            more = []
            steps += [cur] * (min(events) + 1 - len(steps))
        else:
            break
        if events:
            r = len(steps) - 1
            for gap, side in events.pop(r, ()):
                if gap[side] > r:  # the front reaches f and lowers x's count
                    chain, j, d = gap[2], gap[3 + side], 2 * side - 1
                    f, x, h = chain[j], chain[j + d], chain[j - d]
                    mon[f] = mon[h] = 1
                    left[x] -= 1
                    if left[x] == 1 and mon[x] == 1:
                        more.append(x)
                    if not mon[x]:  # f forces x in the next round
                        left[f] = 1
                        more.append(f)
        cand = new + more
    if events is not None:
        # the masks only grow, so the last round that adds to them is found
        # by bisection; later ones, if any, await fronts or are stale
        del steps[bisect_left(steps, cur) + 1:]
        for e0, e1, chain, lo, hi in built:
            if e0 < _NEVER or e1 < _NEVER:
                # the front from below takes the vertices up to the one it
                # reaches no later than the front from above
                m = min(max((e1 - e0 + hi - lo + 2) // 2, 0), hi - lo + 1)
                for t, part in (e0, chain[lo:lo + m]), (e1, chain[hi:lo + m - 1:-1]):
                    if part:
                        steps += [cur] * (t + len(part) - len(steps))
                    for t, v in enumerate(part, t):
                        steps[t] |= 1 << v
        steps = accumulate(steps, or_)
    n = g.n
    steps = tuple([_unchecked_vertex_set(n, bits) for bits in steps])
    return PropagationTrace(kind=kind, steps=steps, stabilized_at=len(steps) - 1)


def monitored_fixpoint(g: Graph, s: VertexSet) -> PropagationTrace:
    """Power-domination chain: step 0 is the closed neighborhood of s."""
    return _trace(g, POWER_DOMINATION, s)


def zero_forcing_fixpoint(g: Graph, s: VertexSet) -> PropagationTrace:
    """Zero-forcing chain: step 0 is s itself (no domination step)."""
    return _trace(g, ZERO_FORCING, s)


def _closure(g: Graph, s: VertexSet, verdicts: bool):
    """The closure of N[s] by the module docstring's rule: whether it is
    all of V, or with `verdicts` the closure as a mask on g and whether s
    stalls."""
    check_universe(g, s)
    view = g.contracted_view() if 2 * s.bits.bit_count() <= g.n else None
    h, t = g, s
    if view is not None:  # t: the view vertices standing for a member of s
        h, keep, stands = view
        bits, rest = 0, s.bits
        while rest:
            low = rest & -rest
            rest ^= low
            bits |= 1 << keep[low.bit_length() - 1]
        t = _unchecked_vertex_set(h.n, bits)
    if h.n > 30 and 2 * h.edge_count() <= 6 * h.n:
        nbrs, mon, left, todo, step0 = _start(h, t, True)
        forced = _close(nbrs, mon, left, todo)
        if not verdicts:
            return step0.bit_count() + forced == h.n
        if view is None:
            return (int(mon[::-1].translate(_DIGITS), 2) if forced else step0), not forced
        # the stands masks are disjoint, so their sum is their union
        closure, stalled = sum(compress(stands, mon)), not forced
    else:
        adj = h.adjacency_masks()
        step0 = closed_neighborhood_bits(adj, t.bits)
        closure = fixpoint_bits(adj, step0)
        if not verdicts:
            return closure == (1 << h.n) - 1
        if view is None:
            return closure, closure == step0
        stalled = closure == step0
        closure = sum(m for v, m in enumerate(stands) if closure >> v & 1)
    # s stalls on g only if it stalls on the view, not conversely: the
    # view's step 0 may hold a whole path of which N[s] holds part
    return closure, stalled and closure == closed_neighborhood_bits(g.adjacency_masks(), s.bits)


def is_pds(g: Graph, s: VertexSet) -> bool:
    """Whether the power-domination chain of s reaches every vertex."""
    return _closure(g, s, False)


def classify(g: Graph, s: VertexSet) -> Classification:
    """Full verdict set for s.  A stalled s is maximally stalled unless some
    N[s + v] stalls in its first round, tried once per distinct footprint
    N[v] - N[s] in the walk that collects them; only if none does is each
    footprint closed once, by the module docstring's rule."""
    adj = g.adjacency_masks()
    full = (1 << g.n) - 1
    monitored, spds = _closure(g, s, True)
    pds = monitored == full
    properly = spds and monitored != full
    maximal = spds
    if spds:
        # monitored == N[s] is a fixed point, so N[s + v] is monitored | add
        # for v's footprint add, and in its first round only N[add] can force
        footprints = set()
        rest = full & ~s.bits
        while rest and maximal:
            low = rest & -rest
            rest ^= low
            add = (low | adj[low.bit_length() - 1]) & ~monitored
            if add in footprints:
                continue
            footprints.add(add)
            cur = monitored | add
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
                maximal = False
        if maximal:
            dead = 0  # vertices u for which N[s] + {u} closes to V
            for add in sorted(footprints, key=int.bit_count):
                if add & dead:
                    continue
                if fixpoint_from(adj, monitored, add, dead) != full:
                    maximal = False
                    break
                if not add & (add - 1):
                    dead |= add
    return Classification(
        is_pds=pds,
        is_fpds=not pds,
        is_spds=spds,
        properly_stalled=properly,
        maximally_stalled=maximal,
        monitored=VertexSet(g.n, monitored),
    )
