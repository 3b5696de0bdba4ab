"""Named graph-family generators, closed-form oracles, and the extremal
characterization of very large failed power domination numbers.

The oracle only answers inside the hypotheses of a proved closed form and
raises NoFormula otherwise; callers fall back to the exact solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

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

_ARITY = {
    "path": 1,
    "cycle": 1,
    "complete": 1,
    "empty": 1,
    "wheel": 1,
    "kmn": 2,
    "ladder": 1,
    "grid": 2,
    "ccycle": 1,
    "cpath": 1,
    "fanchord": 3,
    "fanchord+": 3,
    "kxp": 2,
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name with its integer parameters; joins carry factor specs."""

    family: str
    args: tuple[int, ...] = ()
    factors: tuple["FamilySpec", ...] = ()

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
        if len(parts) < 2 or any(not p for p in parts):
            raise DomainError(f"join needs at least two factors: {text!r}")
        return FamilySpec("join", factors=tuple(parse_family(p) for p in parts))
    name, sep, rest = text.partition(":")
    name = _ALIASES.get(name, name)
    if name not in _ARITY:
        raise DomainError(f"unknown family {name!r}")
    if not sep or not rest:
        raise DomainError(f"family {name!r} needs parameters")
    try:
        args = tuple(int(tok) for tok in rest.split(","))
    except ValueError:
        raise DomainError(f"non-integer parameter in {text!r}")
    if len(args) != _ARITY[name]:
        raise DomainError(
            f"family {name!r} takes {_ARITY[name]} parameter(s), got {len(args)}"
        )
    return FamilySpec(name, args)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _path(n: int) -> Graph:
    _require(n >= 1, f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    _require(n >= 1, f"complete graph needs n >= 1, got {n}")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _empty(n: int) -> Graph:
    _require(n >= 1, f"empty graph needs n >= 1, got {n}")
    return Graph(n)


def _wheel(n: int) -> Graph:
    _require(n >= 4, f"wheel needs n >= 4, got {n}")
    return join(_cycle(n - 1), _complete(1))


def _kmn(m: int, n: int) -> Graph:
    _require(m >= n >= 1, f"complete bipartite needs m >= n >= 1, got ({m}, {n})")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def _grid(m: int, n: int) -> Graph:
    _require(m >= 1 and n >= 1, f"grid needs m, n >= 1, got ({m}, {n})")
    g = cartesian_product(_path(m), _path(n))
    if m <= 10 and n <= 10:
        # figure-style coordinate labels: "cd" = column c (first path index),
        # row d (second path index)
        labels = [f"{c}{d}" for c in range(m) for d in range(n)]
        return Graph(g.n, g.edges(), labels=labels)
    return g


def _fan_chord_edges(n: int, i: int, k: int) -> list[tuple[int, int]]:
    # cycle v_1 .. v_n on indices 0 .. n-1, plus chords {v_1, v_i} .. {v_1, v_{i+k-1}}
    edges = [(j, (j + 1) % n) for j in range(n)]
    edges.extend((0, j - 1) for j in range(i, i + k))
    return edges


def _fanchord(n: int, i: int, k: int) -> Graph:
    _require(i >= 3, f"fanchord needs i >= 3, got i={i}")
    _require(n >= 4, f"fanchord needs n >= 4, got n={n}")
    _require(k >= 1, f"fanchord needs k >= 1, got k={k}")
    _require(i + k <= n - 1, f"fanchord needs i+k <= n-1, got i+k={i + k}, n-1={n - 1}")
    labels = [f"v{j + 1}" for j in range(n)]
    return Graph(n, _fan_chord_edges(n, i, k), labels=labels)


def _fanchord_plus(n: int, i: int, k: int) -> Graph:
    _require(i >= 5, f"fanchord+ needs i >= 5, got i={i}")
    _require(n >= 6, f"fanchord+ needs n >= 6, got n={n}")
    _require(k >= 1, f"fanchord+ needs k >= 1, got k={k}")
    _require(i + k <= n - 1, f"fanchord+ needs i+k <= n-1, got i+k={i + k}, n-1={n - 1}")
    edges = _fan_chord_edges(n, i, k)
    edges.append((1, i - 2))  # the extra chord {v_2, v_{i-1}}
    labels = [f"v{j + 1}" for j in range(n)]
    return Graph(n, edges, labels=labels)


def generate(spec: FamilySpec) -> Graph:
    """Build the exact labeled graph of the family statement."""
    fam, args = spec.family, spec.args
    if fam == "join":
        _require(len(spec.factors) >= 2, "join needs at least two factors")
        g = generate(spec.factors[0])
        for factor in spec.factors[1:]:
            g = join(g, generate(factor))
        return g
    if fam == "path":
        return _path(*args)
    if fam == "cycle":
        return _cycle(*args)
    if fam == "complete":
        return _complete(*args)
    if fam == "empty":
        return _empty(*args)
    if fam == "wheel":
        return _wheel(*args)
    if fam == "kmn":
        return _kmn(*args)
    if fam == "ladder":
        k = args[0]
        _require(k >= 2, f"ladder needs k >= 2, got {k}")
        return cartesian_product(_path(k), _path(2))
    if fam == "grid":
        return _grid(*args)
    if fam == "ccycle":
        return complement(_cycle(*args))
    if fam == "cpath":
        n = args[0]
        _require(n >= 2, f"complement of a path needs n >= 2, got {n}")
        return complement(_path(n))
    if fam == "fanchord":
        return _fanchord(*args)
    if fam == "fanchord+":
        return _fanchord_plus(*args)
    if fam == "kxp":
        k, ell = args
        _require(k >= 1 and ell >= 1, f"kxp needs k, ell >= 1, got ({k}, {ell})")
        return cartesian_product(_complete(k), _path(ell))
    raise DomainError(f"unknown family {fam!r}")


# -- closed-form oracle ------------------------------------------------------

_ZERO_FAMILIES = {"path", "cycle", "complete", "wheel", "ccycle", "cpath",
                  "fanchord", "fanchord+"}


def is_zero_family(spec: FamilySpec) -> bool:
    """Membership in the closed registry of families with value 0.

    Joins qualify when every factor is itself registered or is the
    2-vertex empty graph.
    """
    fam = spec.family
    if fam == "join":
        return all(
            is_zero_family(f) or (f.family == "empty" and f.args == (2,))
            for f in spec.factors
        )
    if fam not in _ZERO_FAMILIES:
        return False
    if fam in {"path", "cycle", "complete", "wheel", "fanchord", "fanchord+"}:
        generate(spec)  # domain check only
        return True
    if fam == "ccycle":
        return spec.args[0] >= 5
    if fam == "cpath":
        return spec.args[0] >= 4
    return False


def oracle_gamma_bar(spec: FamilySpec) -> int:
    """Closed-form failed power domination number, inside proved hypotheses."""
    fam, args = spec.family, spec.args
    if fam == "kmn":
        m, n = args
        _require(m >= n >= 1, f"complete bipartite needs m >= n >= 1, got ({m}, {n})")
        return m - 2 if m >= 2 else 0
    if fam == "ladder":
        k = args[0]
        if k < 4:
            raise NoFormula(f"ladder formula requires k >= 4, got {k}")
        return ceil((k - 4) / 3)
    if fam == "kxp":
        k, ell = args
        if k < 3 or ell < 3:
            raise NoFormula(f"kxp formula requires k, ell >= 3, got ({k}, {ell})")
        return (k - 2) * ((ell - 1) // 2)
    if is_zero_family(spec):
        return 0
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
    # induced P_3 with both end vertices of degree 1: a vertex with two
    # or more pendant neighbors
    for v in range(n):
        pendants = sum(1 for u in g.neighbors(v) if g.degree(u) == 1)
        if pendants >= 2:
            return n - 3
    # triangle with at least two vertices of degree exactly 2
    for u in range(n):
        if g.degree(u) != 2:
            continue
        nbrs = g.neighbors(u).members()
        v, w = nbrs
        if g.has_edge(v, w) and (g.degree(v) == 2 or g.degree(w) == 2):
            return n - 3
    return None
