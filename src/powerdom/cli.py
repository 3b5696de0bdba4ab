"""Command-line front end.

JSON output by default (for scripts and fixture regeneration), plain text
with --plain.  Exit codes: 0 success, 1 usage/domain/parse/I-O error,
2 work budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import families, graphs, propagation, reduction, solvers
from .errors import (
    BudgetExceeded,
    DisconnectedInput,
    DomainError,
    LoopError,
    NoFormula,
    NotIndependent,
    ParseError,
    TooSmall,
)


class UsageError(Exception):
    """A command line the argument parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors to `main` instead of exiting with status 2,
    the status of an exhausted budget."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_USER_ERRORS = (
    UsageError,
    ParseError,
    LoopError,
    DisconnectedInput,
    DomainError,
    NoFormula,
    TooSmall,
    NotIndependent,
    IndexError,
    KeyError,
    ValueError,
    OSError,
)


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="edge-list file path")
    src.add_argument("--family", help='family descriptor, e.g. "ladder:9" or "kmn:5,2"')


def _add_set_args(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", dest="set_indices", help="comma-separated vertex indices")
    grp.add_argument("--set-labels", help="comma-separated vertex labels")


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=int, default=solvers.DEFAULT_BUDGET,
                        help="cap on subsets decided; a subtree settled or skipped "
                             "at once counts every subset in it")


def _add_format_args(parser: argparse.ArgumentParser) -> None:
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="json_out", action="store_true", default=True)
    fmt.add_argument("--plain", dest="json_out", action="store_false")


def _load_graph(args) -> graphs.Graph:
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            return graphs.from_edge_list(fh.read())
    return families.generate(families.parse_family(args.family))


def _parse_set(args, g: graphs.Graph) -> graphs.VertexSet:
    if args.set_indices is not None:
        members = [int(tok) for tok in args.set_indices.split(",") if tok.strip() != ""]
        return g.vertex_set(members)
    labels = [tok.strip() for tok in args.set_labels.split(",") if tok.strip()]
    return g.set_of_labels(labels)


def _emit(payload: dict, plain_lines: list[str], json_out: bool) -> None:
    if json_out:
        print(json.dumps(payload))
    else:
        for line in plain_lines:
            print(line)


def _solver_command(args, solve) -> int:
    g = _load_graph(args)
    result = solve(g, budget=args.budget)
    payload = result.to_json_dict()
    plain = [
        f"{result.parameter} = {result.value}",
        f"witness: {result.witness.members() if result.witness is not None else None}",
        f"calls: {result.propagation_calls}",
    ]
    _emit(payload, plain, args.json_out)
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args)
    s = _parse_set(args, g)
    verdict = propagation.classify(g, s)
    payload = verdict.to_json_dict()
    plain = [f"{key}: {value}" for key, value in payload.items()]
    _emit(payload, plain, args.json_out)
    return 0


def _cmd_trace(args) -> int:
    g = _load_graph(args)
    s = _parse_set(args, g)
    if args.zero_forcing:
        trace = propagation.zero_forcing_fixpoint(g, s)
    else:
        trace = propagation.monitored_fixpoint(g, s)
    payload = trace.to_json_dict()
    plain = [f"kind: {trace.kind}", f"stabilized_at: {trace.stabilized_at}"]
    plain += [f"step {i}: {s.members()}" for i, s in enumerate(trace.steps)]
    _emit(payload, plain, args.json_out)
    return 0


def _cmd_generate(args) -> int:
    g = families.generate(families.parse_family(args.family))
    if args.json_out:
        print(json.dumps(g.to_json_dict()))
    else:
        sys.stdout.write(graphs.to_edge_list_text(g))
    return 0


def _cmd_oracle(args) -> int:
    spec = families.parse_family(args.family)
    value = families.oracle_gamma_bar(spec)
    _emit({"family": spec.describe(), "parameter": "gamma_bar_p", "value": value},
          [f"gamma_bar_p({spec.describe()}) = {value}"], args.json_out)
    return 0


def _cmd_reduce(args) -> int:
    g = _load_graph(args)
    red = reduction.build_reduction(g, path_len=args.path_len)
    roles = red.roles_json_dict()
    if args.k is not None:
        roles["m"] = red.m_of(args.k)
    if args.out is not None:
        with open(args.out + ".el", "w", encoding="utf-8") as fh:
            fh.write(graphs.to_edge_list_text(red.gprime))
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            json.dump(roles, fh, indent=2)
            fh.write("\n")
        _emit({"written": [args.out + ".el", args.out + ".json"],
               "gprime_n": red.gprime.n},
              [f"wrote {args.out}.el and {args.out}.json ({red.gprime.n} vertices)"],
              args.json_out)
    else:
        payload = {"gprime": red.gprime.to_json_dict(), "roles": roles}
        if args.json_out:
            print(json.dumps(payload))
        else:
            sys.stdout.write(graphs.to_edge_list_text(red.gprime))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powerdom",
        description="Power-domination propagation, classification, and exact solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solver_specs = [
        ("gammap", solvers.gamma_p, "power domination number"),
        ("gammabar", solvers.gamma_bar_p, "failed power domination number"),
        ("zf", solvers.zero_forcing_number, "zero forcing number"),
        ("fzf", solvers.failed_zero_forcing_number, "failed zero forcing number"),
        ("dom", solvers.domination_number, "domination number"),
        ("alpha", solvers.max_independent_set, "independence number"),
    ]
    for name, solve, help_text in solver_specs:
        p = sub.add_parser(name, help=help_text)
        _add_graph_source(p)
        _add_solver_args(p)
        _add_format_args(p)
        p.set_defaults(handler=lambda args, solve=solve: _solver_command(args, solve))

    p = sub.add_parser("classify", help="classify a vertex set")
    _add_graph_source(p)
    _add_set_args(p)
    _add_format_args(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("trace", help="print the full propagation chain")
    _add_graph_source(p)
    _add_set_args(p)
    p.add_argument("--zero-forcing", action="store_true",
                   help="trace the zero-forcing chain instead")
    _add_format_args(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("generate", help="emit a family graph")
    p.add_argument("--family", required=True)
    _add_format_args(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("oracle", help="closed-form failed power domination value")
    p.add_argument("--family", required=True)
    _add_format_args(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("reduce", help="build the independent-set reduction gadget")
    _add_graph_source(p)
    p.add_argument("--path-len", type=int, default=None,
                   help="pendant path length override (non-faithful)")
    p.add_argument("--k", type=int, default=None,
                   help="independent-set target, reported as m = path_len*|E| + k")
    p.add_argument("--out", default=None,
                   help="write BASE.el and BASE.json instead of stdout")
    _add_format_args(p)
    p.set_defaults(handler=_cmd_reduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except BudgetExceeded as exc:
        print(json.dumps({"error": "budget_exceeded", "calls": exc.calls,
                          "budget": exc.budget}), file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
