"""Named graph-family generators, closed-form oracles, and the extremal
characterization of very large failed power domination numbers.

Each family is one row of `_FAMILIES`: its parameter count, its domain, its
builder and what the oracle knows of it.  A `FamilySpec` is checked against
its row when it is made, so a spec that exists is inside its domain.  The
oracle answers from the parameters alone, without building the graph, and
only inside the hypotheses of a proved closed form; it raises NoFormula
otherwise, and callers fall back to the exact solvers.
"""

from __future__ import annotations

from functools import reduce
from math import ceil
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, NoFormula
from .graphs import Graph, cartesian_product, complement, components, join

# long aliases accepted by the parser -> the short family names
_ALIASES = {
    "complete_bipartite": "kmn",
    "complement_cycle": "ccycle",
    "complement_path": "cpath",
    "fan_chord": "fanchord",
    "fan_chord_plus": "fanchord+",
    "complete_times_path": "kxp",
}


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _kmn(m: int, n: int) -> Graph:
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def _grid(m: int, n: int) -> Graph:
    # vertex (c, d), column c (first path index) and row d (second path
    # index), at index c * n + d, labelled figure-style "cd" up to 10 x 10
    # and "u{c}v{d}", as by `cartesian_product`, above; the edges in the
    # order of `Graph.edges`, so each neighbor list is ascending
    edges = []
    for v in range(m * n):
        if (v + 1) % n:  # not the last of its column
            edges.append((v, v + 1))
        if v + n < m * n:
            edges.append((v, v + n))
    form = "u{}v{}" if m > 10 or n > 10 else "{}{}"
    return Graph(m * n, edges, labels=[form.format(c, d) for c in range(m) for d in range(n)])


def _fan_chord(n: int, i: int, k: int, plus: bool = False) -> Graph:
    # cycle v_1 .. v_n on indices 0 .. n-1, plus chords {v_1, v_i} .. {v_1, v_{i+k-1}}
    edges = [(j, (j + 1) % n) for j in range(n)]
    edges.extend((0, j - 1) for j in range(i, i + k))
    if plus:
        edges.append((1, i - 2))  # the extra chord {v_2, v_{i-1}}
    return Graph(n, edges, labels=[f"v{j + 1}" for j in range(n)])


def _always(*args: int) -> bool:
    return True


class _Family(NamedTuple):
    arity: int
    domain: str  # the domain as error messages state it
    holds: Callable[..., bool]  # the domain, tested on the parameters
    build: Callable[..., Graph]
    # membership in the registry of families whose every vertex is a PDS,
    # so that gamma_bar_p is 0
    zero: Optional[Callable[..., bool]] = None
    # gamma_bar_p in closed form, None outside the formula's hypotheses
    formula: Optional[Callable[..., Optional[int]]] = None


_FAMILIES = {
    "path": _Family(1, "n >= 1", lambda n: n >= 1, _path, zero=_always),
    "cycle": _Family(1, "n >= 3", lambda n: n >= 3, _cycle, zero=_always),
    "complete": _Family(1, "n >= 1", lambda n: n >= 1, _complete, zero=_always),
    "empty": _Family(1, "n >= 1", lambda n: n >= 1, Graph),
    "wheel": _Family(1, "n >= 4", lambda n: n >= 4,
                     lambda n: join(_cycle(n - 1), _complete(1)), zero=_always),
    "kmn": _Family(2, "m >= n >= 1", lambda m, n: m >= n >= 1, _kmn,
                   formula=lambda m, n: max(m - 2, 0)),
    "ladder": _Family(1, "k >= 2", lambda k: k >= 2,
                      lambda k: cartesian_product(_path(k), _path(2)),
                      formula=lambda k: ceil((k - 4) / 3) if k >= 4 else None),
    "grid": _Family(2, "m, n >= 1", lambda m, n: m >= 1 and n >= 1, _grid),
    "ccycle": _Family(1, "n >= 3", lambda n: n >= 3, lambda n: complement(_cycle(n)),
                      zero=lambda n: n >= 5),
    "cpath": _Family(1, "n >= 2", lambda n: n >= 2, lambda n: complement(_path(n)),
                     zero=lambda n: n >= 4),
    "fanchord": _Family(3, "i >= 3, k >= 1, i + k <= n - 1",
                        lambda n, i, k: i >= 3 and k >= 1 and i + k < n,
                        _fan_chord, zero=_always),
    "fanchord+": _Family(3, "i >= 5, k >= 1, i + k <= n - 1",
                         lambda n, i, k: i >= 5 and k >= 1 and i + k < n,
                         lambda n, i, k: _fan_chord(n, i, k, plus=True), zero=_always),
    "kxp": _Family(2, "k, l >= 1", lambda k, ell: k >= 1 and ell >= 1,
                   lambda k, ell: cartesian_product(_complete(k), _path(ell)),
                   formula=lambda k, ell: (
                       (k - 2) * ((ell - 1) // 2) if k >= 3 and ell >= 3 else None)),
}


class _Spec(NamedTuple):
    family: str
    args: tuple[int, ...] = ()
    factors: tuple[FamilySpec, ...] = ()


class FamilySpec(_Spec):
    """A family name with its integer parameters; joins carry factor specs.

    Making a spec outside its family's domain, a join of fewer than two
    factors, a join with parameters or another family with factors raises
    DomainError, on every route: the constructor, `_make`, `_replace`,
    unpickling and copying.
    """

    __slots__ = ()

    def __new__(cls, family: str, args: tuple[int, ...] = (),
                factors: tuple[FamilySpec, ...] = ()):
        self = super().__new__(cls, family, args, factors)
        if family == "join":
            if len(factors) < 2:
                raise DomainError(f"join needs at least two factors, got {len(factors)}")
            if args:
                raise DomainError(f"join takes no parameters, got {len(args)}")
            return self
        row = _FAMILIES.get(family)
        if row is None:
            raise DomainError(f"unknown family {family!r}")
        if factors:
            raise DomainError(f"only a join takes factors, not family {family!r}")
        if len(args) != row.arity:
            raise DomainError(
                f"family {family!r} takes {row.arity} parameter(s), got {len(args)}"
            )
        if not row.holds(*args):
            raise DomainError(f"{self.describe()} is outside the domain {row.domain}")
        return self

    @classmethod
    def _make(cls, iterable) -> FamilySpec:
        # the base's builds with tuple.__new__, past the check; `_replace`
        # goes through here too
        return cls(*iterable)

    def describe(self) -> str:
        if self.family == "join":
            return "join:" + "+".join(f.describe() for f in self.factors)
        return f"{self.family}:" + ",".join(str(a) for a in self.args)


def parse_family(text: str) -> FamilySpec:
    """Parse a descriptor like "ladder:9", "kmn:5,2", "fanchord+:10,6,3",
    or "join:cycle:4+complete:1" (join factors separated by '+')."""
    text = text.strip()
    if text.startswith("join:"):
        parts = text[len("join:") :].split("+")
        return FamilySpec("join", factors=tuple(parse_family(p) for p in parts))
    name, _, rest = text.partition(":")
    try:
        args = tuple(int(tok) for tok in rest.split(","))
    except ValueError:
        raise DomainError(f"expected integer parameters after ':' in {text!r}") from None
    return FamilySpec(_ALIASES.get(name, name), args)


def generate(spec: FamilySpec) -> Graph:
    """Build the exact labeled graph of the family statement."""
    if spec.family == "join":
        return reduce(join, map(generate, spec.factors))
    return _FAMILIES[spec.family].build(*spec.args)


# -- closed-form oracle ------------------------------------------------------


def is_zero_family(spec: FamilySpec) -> bool:
    """Membership in the closed registry of families with value 0.

    Joins qualify when every factor is itself registered or is the
    2-vertex empty graph.
    """
    if spec.family == "join":
        return all(is_zero_family(f) or (f.family, f.args) == ("empty", (2,))
                   for f in spec.factors)
    zero = _FAMILIES[spec.family].zero
    return zero is not None and zero(*spec.args)


def oracle_gamma_bar(spec: FamilySpec) -> int:
    """Closed-form failed power domination number, inside proved hypotheses."""
    if is_zero_family(spec):
        return 0
    row = _FAMILIES.get(spec.family)  # None for a join
    if row is not None and row.formula is not None:
        value = row.formula(*spec.args)
        if value is not None:
            return value
    raise NoFormula(f"no closed form for {spec.describe()}")


# -- extremal characterization ----------------------------------------------


def extremal_gamma_bar(g: Graph):
    """Value n-1, n-2, or n-3 when the structural characterization fires,
    else None.

    n-1: isolated vertex exists; n-2: some component is K_2 (and no
    isolated vertex); n-3: an induced P_3 whose ends have degree 1, or a
    triangle with at least two degree-2 vertices.
    """
    n = g.n
    comps = components(g)
    sizes = sorted(len(c) for c in comps)
    if sizes and sizes[0] == 1:
        return n - 1
    if 2 in sizes:
        return n - 2
    deg, nbrs = g.degrees(), g.adjacency_lists()
    for v in range(n):
        # induced P_3 with both end vertices of degree 1: v has two or more
        # pendant neighbors
        if sum(deg[u] == 1 for u in nbrs[v]) >= 2:
            return n - 3
        # triangle with at least two vertices of degree exactly 2, v one
        if deg[v] == 2:
            a, b = nbrs[v]
            if b in nbrs[a] and 2 in (deg[a], deg[b]):
                return n - 3
    return None
