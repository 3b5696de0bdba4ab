"""Command-line front end.

JSON output by default (for scripts and fixture regeneration), plain text
with --plain.  Exit codes: 0 success, 1 usage/domain/parse/I-O error or
a reader that closed stdout early (with no report), 2 budget exhausted
(the budget counts subsets decided).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import families, graphs, propagation, reduction, solvers
from .errors import BudgetExceeded


class UsageError(Exception):
    """A command line the argument parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors to `main` instead of exiting with status 2,
    the status of an exhausted budget."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# every user error of the package subclasses ValueError or LookupError
_USER_ERRORS = (UsageError, ValueError, LookupError, OSError)


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="edge-list file path")
    src.add_argument("--family", help='family descriptor, e.g. "ladder:9" or "kmn:5,2"')


def _add_set_args(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", dest="set_indices", help="comma-separated vertex indices")
    grp.add_argument("--set-labels", help="comma-separated vertex labels")


def _load_graph(args) -> graphs.Graph:
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8-sig") as fh:
            return graphs.from_edge_list(fh.read())
    return families.generate(families.parse_family(args.family))


def _parse_set(args, g: graphs.Graph) -> graphs.VertexSet:
    if args.set_indices is not None:
        members = []
        for tok in filter(str.strip, args.set_indices.split(",")):
            try:
                members.append(int(tok))
            except ValueError:
                raise ValueError(f"--set: {tok.strip()!r} is not a vertex index") from None
        return g.vertex_set(members)
    labels = [tok.strip() for tok in args.set_labels.split(",") if tok.strip()]
    return g.set_of_labels(labels)


# Each handler returns its JSON payload and its --plain lines; `main` prints one.

def _solver_command(args):
    g = _load_graph(args)
    result = args.solve(g, budget=args.budget)
    payload = result.to_json_dict()
    return payload, [
        f"{result.parameter} = {result.value}",
        f"witness: {payload['witness']}",
        f"calls: {result.propagation_calls}",
    ]


def _cmd_classify(args):
    g = _load_graph(args)
    s = _parse_set(args, g)
    payload = propagation.classify(g, s).to_json_dict()
    return payload, [f"{key}: {value}" for key, value in payload.items()]


def _cmd_trace(args):
    g = _load_graph(args)
    s = _parse_set(args, g)
    if args.zero_forcing:
        trace = propagation.zero_forcing_fixpoint(g, s)
    else:
        trace = propagation.monitored_fixpoint(g, s)
    payload = trace.to_json_dict()
    return payload, [f"kind: {trace.kind}", f"stabilized_at: {trace.stabilized_at}",
                     *(f"step {i}: {step}" for i, step in enumerate(payload["steps"]))]


def _cmd_generate(args):
    g = families.generate(families.parse_family(args.family))
    return g.to_json_dict(), graphs.to_edge_list_text(g).splitlines()


def _cmd_oracle(args):
    spec = families.parse_family(args.family)
    value = families.oracle_gamma_bar(spec)
    return ({"family": spec.describe(), "parameter": "gamma_bar_p", "value": value},
            [f"gamma_bar_p({spec.describe()}) = {value}"])


def _cmd_reduce(args):
    g = _load_graph(args)
    red = reduction.build_reduction(g, path_len=args.path_len)
    roles = red.roles_json_dict()
    if args.k is not None:
        roles["m"] = red.m_of(args.k)
    if args.out is None:
        return ({"gprime": red.gprime.to_json_dict(), "roles": roles},
                graphs.to_edge_list_text(red.gprime).splitlines())
    with open(args.out + ".el", "w", encoding="utf-8") as fh:
        fh.write(graphs.to_edge_list_text(red.gprime))
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(roles, fh, indent=2)
        fh.write("\n")
    return ({"written": [args.out + ".el", args.out + ".json"], "gprime_n": red.gprime.n},
            [f"wrote {args.out}.el and {args.out}.json ({red.gprime.n} vertices)"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powerdom",
        description="Power-domination propagation, classification, and exact solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, handler, graph_source=True, **defaults):
        p = sub.add_parser(name, help=help_text)
        if graph_source:
            _add_graph_source(p)
        p.set_defaults(handler=handler, **defaults)
        return p

    solver_specs = [
        ("gammap", solvers.gamma_p, "power domination number"),
        ("gammabar", solvers.gamma_bar_p, "failed power domination number"),
        ("zf", solvers.zero_forcing_number, "zero forcing number"),
        ("fzf", solvers.failed_zero_forcing_number, "failed zero forcing number"),
        ("dom", solvers.domination_number, "domination number"),
        ("alpha", solvers.max_independent_set, "independence number"),
    ]
    for name, solve, help_text in solver_specs:
        p = command(name, help_text, _solver_command, solve=solve)
        p.add_argument("--budget", type=int, default=solvers.DEFAULT_BUDGET,
                       help="cap on subsets decided; a subtree settled or skipped "
                            "at once counts every subset in it")

    _add_set_args(command("classify", "classify a vertex set", _cmd_classify))

    p = command("trace", "print the full propagation chain", _cmd_trace)
    _add_set_args(p)
    p.add_argument("--zero-forcing", action="store_true",
                   help="trace the zero-forcing chain instead")

    command("generate", "emit a family graph", _cmd_generate,
            graph_source=False).add_argument("--family", required=True)
    command("oracle", "closed-form failed power domination value", _cmd_oracle,
            graph_source=False).add_argument("--family", required=True)

    p = command("reduce", "build the independent-set reduction gadget", _cmd_reduce)
    p.add_argument("--path-len", type=int, default=None,
                   help="pendant path length override (non-faithful)")
    p.add_argument("--k", type=int, default=None,
                   help="independent-set target, reported as m = path_len*|E| + k")
    p.add_argument("--out", default=None,
                   help="write BASE.el and BASE.json instead of stdout")

    # after each command's own arguments, where its --help lists them
    for p in sub.choices.values():
        p.add_argument("--plain", action="store_true", help="plain text instead of JSON")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, plain_lines = args.handler(args)
        if args.plain:
            print(*plain_lines, sep="\n")
        else:
            print(json.dumps(payload))
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return 0
    except BrokenPipeError:
        # the reader stopped early (`| head`), so nothing is reported; the
        # flush at exit goes to devnull, as the Python docs do for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BudgetExceeded as exc:
        payload = {"error": "budget_exceeded", "calls": exc.calls, "budget": exc.budget}
        if exc.lower_bound is not None:
            payload.update(lower_bound=exc.lower_bound, witness=exc.witness)
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        print(json.dumps({"error": type(exc).__name__, "message": message}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
