"""The four workloads: their inputs, drawn from the seed, and the checks on
their outputs.

Each workload is a fixed list of operations run as a closed loop with one
client: the next call starts when the previous one returns.  An operation
is a call into the package with inputs prepared beforehand, plus a check of
its result against `reference` (never against the package itself).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import reference as ref

# solver function -> (reference predicate, search direction)
SOLVERS = {
    "gamma_p": ("pds", "min"),
    "gamma_bar_p": ("pds", "failed"),
    "zero_forcing_number": ("zfs", "min"),
    "failed_zero_forcing_number": ("zfs", "failed"),
    "domination_number": ("dominating", "min"),
    "max_independent_set": ("independent", "max"),
}

# (solver, family, expected value).  Values were computed by the package and
# agree with closed forms where one is known: gamma_bar_p(kxp:4,5) = 4 and
# gamma_bar_p(ladder:9) = 2 (families.oracle_gamma_bar, checked at run
# time); F(path:18) = ceil(18/2) - 1; domination numbers of the 5x5 and 4x6
# grids (7 and 7); alpha of K4 x P5, the 9-ladder and P18 (5, 9, 9);
# Z(K6,6) = 6 + 6 - 2; Z(grid 5x5) = 5; gamma_p(grid 7x7) = ceil(7/4).
FAILED_ASCENT = [
    ("gamma_bar_p", "grid:4,5", 6),
    ("gamma_bar_p", "kxp:4,5", 4),
    ("gamma_bar_p", "ladder:9", 2),
    ("failed_zero_forcing_number", "grid:5,5", 20),
    ("failed_zero_forcing_number", "path:18", 8),
    ("failed_zero_forcing_number", "cycle:16", 8),
    ("failed_zero_forcing_number", "ladder:9", 11),
    ("failed_zero_forcing_number", "kxp:4,5", 14),
]
MIN_ASCENT = [
    ("domination_number", "grid:5,5", 7),
    ("domination_number", "grid:4,6", 7),
    ("max_independent_set", "kxp:4,5", 5),
    ("max_independent_set", "ladder:9", 9),
    ("max_independent_set", "path:18", 9),
    ("zero_forcing_number", "grid:5,5", 5),
    ("zero_forcing_number", "kmn:6,6", 10),
    ("gamma_p", "grid:7,7", 2),
]
# quick mode: small enough that the reference brute force re-derives them
QUICK_FAILED = [
    ("gamma_bar_p", "ladder:6", 1),
    ("gamma_bar_p", "kxp:3,4", 1),
    ("failed_zero_forcing_number", "cycle:8", 4),
    ("failed_zero_forcing_number", "path:7", 3),
]
QUICK_MIN = [
    ("domination_number", "grid:3,3", 3),
    ("max_independent_set", "path:8", 4),
    ("zero_forcing_number", "kmn:3,3", 4),
    ("gamma_p", "grid:4,4", 2),
]
# closed-form cross-checks of the tables: family -> gamma_bar_p
ORACLE_CHECKS = {"kxp:4,5": 4, "ladder:9": 2, "ladder:6": 1, "kxp:3,4": 1}

STREAM_GRAPHS = ["grid:10,10", "ladder:50", "cycle:200", "path:300", "kxp:5,20"]
QUICK_STREAM_GRAPHS = ["grid:4,4", "ladder:6", "cycle:12", "path:15", "kxp:3,4"]
GADGET_SOURCE = "grid:3,3"
STREAM_KINDS = ["classify", "monitored_fixpoint", "zero_forcing_fixpoint", "is_pds"]
STREAM_KS = (1, 2, 4, 8)


class Failed:
    """Result slot of a call that raised; equal to nothing."""

    def __init__(self, reason: str):
        self.reason = reason

    def __eq__(self, other):
        return False


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the result is right


def final_stratum(direction: str, n: int, value: int, calls: int) -> int:
    """Evaluations spent in the last stratum a solver visits: all of it for
    the failed parameters (the certifying stratum value + 1), the part up
    to the hit for the others."""
    if direction == "failed":
        return comb(n, value + 1)
    if direction == "min":
        return calls - sum(comb(n, j) for j in range(value))
    return calls - sum(comb(n, j) for j in range(value + 1, n + 1))


class Context:
    """The package's modules and the generated inputs of one workload."""

    def __init__(self, pkg: dict, specs: list[str], gadget: bool):
        self.pkg = pkg
        fam = pkg["families"]
        self.graphs = {s: fam.generate(fam.parse_family(s)) for s in specs}
        self.ref = {s: ref.family_graph(s) for s in specs}
        self.red = self.ref_gadget = None
        if gadget:
            self.red = pkg["reduction"].build_reduction(self.graphs[GADGET_SOURCE])
            self.ref_gadget = ref.RefGadget(self.ref[GADGET_SOURCE])

    def check_inputs(self) -> list[str]:
        """Generated graphs must equal the reference constructions."""
        bad = []
        for s, g in self.graphs.items():
            if set(g.edges()) != self.ref[s].edge_set() or g.n != self.ref[s].n:
                bad.append(f"generate({s}) differs from the reference graph")
        if self.red is not None:
            rg = self.ref_gadget.graph
            gp = self.red.gprime
            if gp.n != rg.n or set(gp.edges()) != rg.edge_set():
                bad.append("build_reduction differs from the reference gadget")
        return bad


# -- solver workloads -------------------------------------------------------


def solver_op(ctx: Context, fname: str, spec: str, expected: int) -> Op:
    g, rg = ctx.graphs[spec], ctx.ref[spec]
    solvers = ctx.pkg["solvers"]
    pred, direction = SOLVERS[fname]

    def run():
        return getattr(solvers, fname)(g)

    def check(res) -> Optional[str]:
        if res.value != expected:
            return f"value {res.value}, expected {expected}"
        witness = res.witness.members()
        if len(witness) != expected:
            return f"witness {witness} has size {len(witness)}"
        holds = ref.PREDICATES[pred](rg, witness)
        if holds == (direction == "failed"):
            return f"witness {witness} fails the reference {pred} check"
        return None

    return Op(f"{fname}({spec})", run, check)


def solver_ops(ctx: Context, table, rng: random.Random) -> list[Op]:
    ops = [solver_op(ctx, f, s, v) for f, s, v in table]
    rng.shuffle(ops)
    return ops


def oracle_mismatches(pkg: dict, table) -> list[str]:
    fam = pkg["families"]
    bad = []
    for fname, spec, value in table:
        if fname == "gamma_bar_p" and spec in ORACLE_CHECKS:
            oracle = fam.oracle_gamma_bar(fam.parse_family(spec))
            if not oracle == ORACLE_CHECKS[spec] == value:
                bad.append(f"table {spec}={value}, oracle {oracle}")
    return bad


# -- classify-stream --------------------------------------------------------


def random_independent(rg: ref.RefGraph, rng: random.Random, maximal: bool) -> list[int]:
    """A random maximal independent set, or a random nonempty proper subset
    of one."""
    order = list(range(rg.n))
    rng.shuffle(order)
    chosen: list[int] = []
    for v in order:
        if not rg.nbrs[v] & set(chosen):
            chosen.append(v)
    return sorted(chosen if maximal else chosen[: rng.randint(1, len(chosen) - 1)])


def stratified_set(rng: random.Random, n: int, k: int, r: int, strata: int) -> list[int]:
    """A random k-set whose first member lies in the r-th of `strata` equal
    slices of the vertex range.  Chain lengths depend mostly on where the
    set sits, so slicing keeps each cell's cost, and the stream's tail,
    from swinging with the seed."""
    lo = r * n // strata
    first = rng.randrange(lo, max((r + 1) * n // strata, lo + 1))
    rest = rng.sample([v for v in range(n) if v != first], k - 1)
    return sorted([first, *rest])


def stream_ops(ctx: Context, specs, rng: random.Random, per_cell: int,
               lifts: int) -> list[Op]:
    """`per_cell` requests for each (graph, request kind, k), on the graphs
    `specs` and the gadget, plus `lifts` lift-then-classify requests on the
    gadget, in a seeded order."""
    prop = ctx.pkg["propagation"]
    targets = [(s, ctx.graphs[s], ctx.ref[s]) for s in specs]
    targets.append(("gadget", ctx.red.gprime, ctx.ref_gadget.graph))
    ops = []
    for spec, g, rg in targets:
        for kind in STREAM_KINDS:
            for k in STREAM_KS:
                for r in range(per_cell):
                    members = stratified_set(rng, g.n, min(k, g.n), r, per_cell)
                    ops.append(_stream_op(prop, kind, spec, g, rg, members))
    # half the lifts are of maximal independent sets: their lifted sets are
    # maximally stalled, so classify runs its whole maximal-stalling loop
    for r in range(lifts):
        members = random_independent(ctx.ref[GADGET_SOURCE], rng, maximal=r % 2 == 0)
        ops.append(_lift_op(ctx, members))
    rng.shuffle(ops)
    return ops


def _stream_op(prop, kind, spec, g, rg, members) -> Op:
    vs = g.vertex_set(members)

    def run():
        return getattr(prop, kind)(g, vs)

    def check(res) -> Optional[str]:
        if kind == "is_pds":
            want, got = ref.is_pds(rg, members), res
        elif kind == "classify":
            want, got = ref.classify(rg, members), res.to_json_dict()
        else:
            zf = kind == "zero_forcing_fixpoint"
            want, got = ref.trace(rg, members, zf), res.to_json_dict()
        return None if got == want else f"got {got}, expected {want}"

    return Op(f"{kind}({spec}, {members})", run, check)


def _lift_op(ctx: Context, members: list[int]) -> Op:
    prop, red_mod = ctx.pkg["propagation"], ctx.pkg["reduction"]
    red, gp = ctx.red, ctx.red.gprime
    u = ctx.graphs[GADGET_SOURCE].vertex_set(members)

    def run():
        lifted = red_mod.lift_independent_set(red, u)
        return lifted, prop.classify(gp, lifted)

    def check(res) -> Optional[str]:
        lifted, verdict = res
        want = sorted(ctx.ref_gadget.lift(members))
        if lifted.members() != want:
            return f"lift of {members} differs from the reference"
        expected = ref.classify(ctx.ref_gadget.graph, want)
        got = verdict.to_json_dict()
        return None if got == expected else f"classify(lift {members}) got {got}"

    return Op(f"lift+classify({members})", run, check)


# -- cli-batch --------------------------------------------------------------

CLI_FAMILIES = {
    "gammap": ["ladder:4", "ladder:5", "grid:3,3", "grid:3,4", "cycle:7", "kxp:3,3"],
    "gammabar": ["kmn:4,3", "kmn:5,2", "ladder:5", "cycle:8", "grid:3,3", "kxp:3,3"],
    "classify": ["grid:4,4", "ladder:6", "cycle:9", "path:10", "kxp:3,4"],
    "trace": ["grid:4,4", "ladder:6", "cycle:9", "path:10", "kxp:3,4"],
    "oracle": ["kmn:5,2", "kmn:4,3", "ladder:6", "ladder:7", "kxp:3,4", "path:9", "cycle:8"],
    "generate": ["grid:3,4", "ladder:5", "kxp:3,3", "cycle:6", "path:7", "kmn:3,2"],
    "reduce": ["path:3", "path:4", "cycle:4", "kmn:2,2"],
}
BUDGET_FAMILY = "ladder:8"
# fixed commands for the CLI probe of the other workloads' traced runs,
# including the serial budget case, which must exit 2
PROBE_ARGV = [
    ["classify", "--family", "ladder:6", "--set", "0"],
    ["gammabar", "--family", "kmn:5,2"],
    ["trace", "--family", "path:9", "--set", "4"],
    ["oracle", "--family", "ladder:7"],
    ["generate", "--family", "grid:3,3"],
    ["fzf", "--family", BUDGET_FAMILY, "--budget", "500"],
]


def cli_argvs(rng: random.Random, per_kind: int) -> list[list[str]]:
    """`per_kind` commands of each subcommand, plus one serial budget case."""
    argvs = []
    for cmd, fams in CLI_FAMILIES.items():
        for _ in range(per_kind):
            spec = rng.choice(fams)
            argv = [cmd, "--family", spec]
            if cmd in ("classify", "trace"):
                n = ref.family_graph(spec).n
                members = sorted(rng.sample(range(n), rng.randint(1, 3)))
                argv += ["--set", ",".join(map(str, members))]
                if cmd == "trace" and rng.random() < 0.5:
                    argv.append("--zero-forcing")
            if cmd == "reduce" and rng.random() < 0.5:
                argv += ["--k", str(rng.randint(1, 2))]
            argvs.append(argv)
    argvs.append(["fzf", "--family", BUDGET_FAMILY, "--budget", str(rng.randint(200, 2000))])
    rng.shuffle(argvs)
    return argvs


def cli_specs(argvs) -> list[str]:
    return sorted({a[a.index("--family") + 1] for a in argvs})


def expected_cli(argv: list[str]):
    """(exit code, stdout JSON or None, stderr JSON or None) that a correct
    CLI gives for argv, derived from the reference."""
    cmd, spec = argv[0], argv[argv.index("--family") + 1]
    rg = ref.family_graph(spec)
    if "--budget" in argv:
        budget = int(argv[argv.index("--budget") + 1])
        return 2, None, {"error": "budget_exceeded", "budget": budget}
    if cmd in ("gammap", "gammabar"):
        if cmd == "gammap":
            value, witness = ref.brute_min(rg, "pds")
        else:
            value, witness = ref.brute_max_failed(rg, "pds")
        name = "gamma_p" if cmd == "gammap" else "gamma_bar_p"
        return 0, {"parameter": name, "value": value, "witness": witness}, None
    if cmd in ("classify", "trace"):
        members = [int(t) for t in argv[argv.index("--set") + 1].split(",")]
        if cmd == "classify":
            return 0, ref.classify(rg, members), None
        return 0, ref.trace(rg, members, "--zero-forcing" in argv), None
    if cmd == "oracle":
        value = ref.brute_max_failed(rg, "pds")[0]
        return 0, {"family": spec, "parameter": "gamma_bar_p", "value": value}, None
    if cmd == "generate":
        return 0, {"n": rg.n, "edges": sorted(rg.edge_set())}, None
    if cmd == "reduce":
        gadget = ref.RefGadget(rg)
        out = {"n": gadget.graph.n, "edges": sorted(gadget.graph.edge_set()),
               "hub": gadget.hub, "path_len": gadget.path_len}
        if "--k" in argv:
            k = int(argv[argv.index("--k") + 1])
            out["m"] = gadget.path_len * len(gadget.source_edges) + k
        return 0, out, None
    raise ValueError(f"no expectation for {argv}")


def _project(cmd: str, argv, out: dict) -> dict:
    """The parts of a CLI JSON reply that `expected_cli` predicts."""
    if cmd in ("gammap", "gammabar"):
        return {k: out[k] for k in ("parameter", "value", "witness")}
    if cmd == "generate":
        return {"n": out["n"], "edges": sorted(tuple(e) for e in out["edges"])}
    if cmd == "reduce":
        g, roles = out["gprime"], out["roles"]
        got = {"n": g["n"], "edges": sorted(tuple(e) for e in g["edges"]),
               "hub": roles["hub"], "path_len": roles["path_len"]}
        if "--k" in argv:
            got["m"] = roles["m"]
        return got
    return out


def check_cli(argv, expected, res) -> Optional[str]:
    code, stdout, stderr = res
    want_code, want_out, want_err = expected
    if code != want_code:
        return f"exit {code}, expected {want_code}: {stderr.strip()[:200]}"
    if want_err is not None:
        err = json.loads(stderr)
        if stdout.strip() or err.get("error") != want_err["error"]:
            return f"budget case printed {stdout!r} / {stderr!r}"
        if err.get("budget") != want_err["budget"] or not err.get("calls", 0) > want_err["budget"]:
            return f"budget case reported {err}"
        return None
    got = _project(argv[0], argv, json.loads(stdout))
    if argv[0] in ("generate", "reduce"):
        want_out = dict(want_out, edges=[tuple(e) for e in want_out["edges"]])
    return None if got == want_out else f"got {got}, expected {want_out}"


def spawn_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_cli(argv, env, cwd) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "powerdom.cli", *argv], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(cli_mod, argv) -> tuple[int, str, str]:
    """`cli.main(argv)` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_mod.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_ops(argvs, env, cwd) -> list[Op]:
    ops = []
    for argv in argvs:
        expected = expected_cli(argv)
        ops.append(Op(" ".join(argv), lambda a=argv: spawn_cli(a, env, cwd),
                      lambda res, a=argv, e=expected: check_cli(a, e, res)))
    return ops


def cli_main_ops(cli_mod, argvs) -> list[Op]:
    """The same commands through an in-process `cli.main`."""
    ops = []
    for argv in argvs:
        expected = expected_cli(argv)
        ops.append(Op("main " + " ".join(argv),
                      lambda a=argv: cli_in_process(cli_mod, a),
                      lambda res, a=argv, e=expected: check_cli(a, e, res)))
    return ops
