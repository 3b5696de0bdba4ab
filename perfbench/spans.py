"""In-memory spans and counts, recorded by wrappers swapped into the
package's module attributes for the duration of a traced pass.

The package's own callers look these attributes up at run time (the CLI
calls `propagation.classify`, the solver predicates call
`solvers.fixpoint_bits`), so swapping them traces calls made inside the
package without editing it.  Entry points become spans; the fixpoint, which
runs hundreds of thousands of times per pass, is a leaf: its calls and time
are added to the enclosing span instead of getting a span each.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter_ns

# (module, attribute, span name) for each public entry point
ENTRY_POINTS = [
    ("cli", "main", "cli.main"),
    ("families", "generate", "families.generate"),
    ("reduction", "build_reduction", "reduction.build_reduction"),
    ("reduction", "lift_independent_set", "reduction.lift_independent_set"),
    ("propagation", "classify", "propagation.classify"),
    ("propagation", "is_pds", "propagation.is_pds"),
    ("propagation", "monitored_fixpoint", "propagation.monitored_fixpoint"),
    ("propagation", "zero_forcing_fixpoint", "propagation.zero_forcing_fixpoint"),
    ("solvers", "gamma_p", "solvers.gamma_p"),
    ("solvers", "gamma_bar_p", "solvers.gamma_bar_p"),
    ("solvers", "zero_forcing_number", "solvers.zero_forcing_number"),
    ("solvers", "failed_zero_forcing_number", "solvers.failed_zero_forcing_number"),
    ("solvers", "domination_number", "solvers.domination_number"),
    ("solvers", "max_independent_set", "solvers.max_independent_set"),
]

# every module attribute through which a fixpoint is computed
FIXPOINT_LEAVES = [("solvers", "fixpoint_bits"), ("propagation", "fixpoint_bits")]
CHAIN_LEAVES = [("propagation", "run_chain_bits")]

# span record fields
NAME, START, END, PARENT, OP, FIX_CALLS, FIX_NS, CHAIN_NS, RESULT = range(9)


class Tracer:
    """Spans of one traced pass.  Each span is a list
    [name, start_ns, end_ns, parent index, op id, fixpoint calls,
    fixpoint ns, chain ns, result summary]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1
        # id(adj) -> (adj, [start masks]) for the run_chain_bits replay
        self.starts: dict[int, tuple] = {}
        self.wall_ns = 0  # wall time of the traced pass, set by the caller
        self._root = [None, 0, 0, -1, -1, 0, 0, 0, None]

    def _current(self) -> list:
        return self.spans[self._stack[-1]] if self._stack else self._root

    def _span(self, name, fn):
        def wrapped(*args, **kwargs):
            rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op,
                   0, 0, 0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                self._stack.pop()
            if name.startswith("solvers."):
                rec[RESULT] = (args[0].n, out.value, out.propagation_calls)
            return out
        return wrapped

    def _fixpoint(self, fn):
        def wrapped(adj, start):
            t0 = perf_counter_ns()
            out = fn(adj, start)
            t1 = perf_counter_ns()
            rec = self._current()
            rec[FIX_CALLS] += 1
            rec[FIX_NS] += t1 - t0
            self.starts.setdefault(id(adj), (adj, []))[1].append(start)
            return out
        return wrapped

    def _chain(self, fn):
        def wrapped(adj, start):
            t0 = perf_counter_ns()
            out = fn(adj, start)
            self._current()[CHAIN_NS] += perf_counter_ns() - t0
            return out
        return wrapped

    def install(self) -> None:
        """Swap wrappers into the package; attributes a version of the
        package does not have are skipped."""
        plan = [(m, a, lambda fn, s=s: self._span(s, fn)) for m, a, s in ENTRY_POINTS]
        plan += [(m, a, self._fixpoint) for m, a in FIXPOINT_LEAVES]
        plan += [(m, a, self._chain) for m, a in CHAIN_LEAVES]
        for mod_name, attr, wrap in plan:
            mod = importlib.import_module(f"powerdom.{mod_name}")
            if hasattr(mod, attr):
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, wrap(orig))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ---------------------------------------------------------

    def named(self, *prefixes: str) -> list[list]:
        return [s for s in self.spans if s[NAME].startswith(prefixes)]

    def self_ns(self) -> list[int]:
        """Per span: duration minus child spans and leaf time."""
        out = [s[END] - s[START] - s[FIX_NS] - s[CHAIN_NS] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def layer_self_s(self, layer: str) -> float:
        own = self.self_ns()
        return sum(t for s, t in zip(self.spans, own)
                   if s[NAME].startswith(layer + ".")) / 1e9

    def fixpoint_totals(self) -> tuple[int, int]:
        spans = self.spans + [self._root]
        return sum(s[FIX_CALLS] for s in spans), sum(s[FIX_NS] for s in spans)

    def median_us(self, *prefixes: str) -> float:
        return statistics.median((s[END] - s[START]) / 1e3 for s in self.named(*prefixes))

    def to_json(self) -> dict:
        fields = ["name", "start_ns", "end_ns", "parent", "op", "fixpoint_calls",
                  "fixpoint_ns", "chain_ns", "result"]
        return {"fields": fields, "spans": self.spans}
