"""Benchmark of the powerdom package, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root.  The package is imported from `src/`.  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it prints
the per-layer metrics of a traced run and writes its spans to
`perfbench/out/`.  Either way the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
only when every checked output was correct.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ["failed-ascent", "min-ascent", "classify-stream", "cli-batch"]
MODULES = ["cli", "families", "graphs", "propagation", "reduction", "solvers"]
MIN_PASSES = 2
MIN_SETUPS = 5
TRACED_SHARE = 0.6

def load_package() -> dict:
    """The package's modules, imported from this checkout's src/."""
    init = os.path.join(SRC, "powerdom", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: package source not found at {init}")
    sys.path.insert(0, SRC)
    pkg = {m: importlib.import_module(f"powerdom.{m}") for m in MODULES}
    where = os.path.dirname(os.path.abspath(pkg["cli"].__file__))
    if where != os.path.dirname(init):
        raise SystemExit(f"perfbench: imported powerdom from {where}, not {SRC}")
    return pkg


class Prepared:
    """A workload's generated inputs and operations."""

    def __init__(self, name: str, pkg: dict, seed: int, quick: bool):
        rng = random.Random(seed)
        self.env = wl.spawn_env(SRC)
        self.module = "powerdom"
        self.problems: list[str] = []
        gadget = False
        if name in ("failed-ascent", "min-ascent"):
            if name == "failed-ascent":
                table = wl.QUICK_FAILED if quick else wl.FAILED_ASCENT
            else:
                table = wl.QUICK_MIN if quick else wl.MIN_ASCENT
            self.specs = sorted({spec for _, spec, _ in table})
            self.ctx = wl.Context(pkg, self.specs, gadget)
            self.ops = wl.solver_ops(self.ctx, table, rng)
            self.problems += wl.oracle_mismatches(pkg, table)
        elif name == "classify-stream":
            graphs = wl.QUICK_STREAM_GRAPHS if quick else wl.STREAM_GRAPHS
            self.specs = graphs + [wl.GADGET_SOURCE]
            gadget = True
            self.ctx = wl.Context(pkg, self.specs, gadget)
            self.ops = wl.stream_ops(self.ctx, graphs, rng, per_cell=1 if quick else 12,
                                     lifts=4 if quick else 48)
        else:
            argvs = wl.cli_argvs(rng, per_kind=1 if quick else 2)
            self.module = "powerdom.cli"
            self.specs = wl.cli_specs(argvs)
            self.ctx = wl.Context(pkg, self.specs, gadget)
            self.ops = wl.cli_ops(argvs, self.env, ROOT)
            self.main_ops = wl.cli_main_ops(pkg["cli"], argvs)
        self.gadget = gadget
        self.problems += self.ctx.check_inputs()


# -- the closed loop --------------------------------------------------------


class Passes:
    """Per-operation times and results of repeated passes over one list."""

    def __init__(self, ops, calibrated: bool = False):
        self.ops = ops
        self.calibrated = calibrated
        self.factors: list[float] = []  # host-speed factor of each pass
        self.times: list[list[float]] = [[] for _ in ops]
        self.results: list[list] = []
        self.pass_s: list[float] = []

    def run_pass(self, tracer=None) -> float:
        """One pass; returns its time, kernel samples excluded (with
        `calibrated`, kernel samples are taken between the operations)."""
        out = [None] * len(self.ops)
        sampler = calibrate.Sampler() if self.calibrated else None
        start = perf_counter()
        for i, op in enumerate(self.ops):
            if sampler is not None:
                sampler.between()
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                out[i] = op.run()
            except Exception as exc:  # a failed call is counted, not fatal
                out[i] = wl.Failed(f"{type(exc).__name__}: {exc}")
            self.times[i].append(perf_counter() - t0)
        took = perf_counter() - start
        if sampler is not None:
            sampler.between()
            took -= sampler.spent
            self.factors.append(sampler.factor())
        self.pass_s.append(took)
        self.results.append(out)
        return took

    def run_for(self, seconds: float, between=None) -> None:
        """Passes until the next one would end after `seconds`; at least
        MIN_PASSES.  `between` runs after each pass, outside pass timing."""
        start = perf_counter()
        rounds = []  # a pass with its kernel samples and `between`
        while True:
            t0 = perf_counter()
            self.run_pass()
            if between is not None:
                between()
            rounds.append(perf_counter() - t0)
            elapsed = perf_counter() - start
            if len(self.pass_s) >= MIN_PASSES and \
                    elapsed + statistics.median(rounds) > seconds:
                return

    def verify(self, failures: list[str]) -> tuple[int, int]:
        """Check the first pass against the reference and every later pass
        against the first.  Returns (attempted, failed)."""
        attempted = failed = 0
        for i, op in enumerate(self.ops):
            first = self.results[0][i]
            if isinstance(first, wl.Failed):
                bad = first.reason
            else:
                try:
                    bad = op.check(first)
                except Exception as exc:  # a malformed result is a wrong one
                    bad = f"unreadable result ({type(exc).__name__}: {exc})"
            for res in (r[i] for r in self.results):
                attempted += 1
                same = res is first or res == first
                wrong = bad or (None if same else "differs from pass 0")
                if wrong:
                    failed += 1
                    failures.append(f"{op.label}: {wrong}")
        return attempted, failed

    def op_seconds(self) -> list[float]:
        """Each operation's time: the median of its repeats, each rescaled
        to the host's usual speed (see calibrate.py)."""
        return [statistics.median(t * f for t, f in zip(ts, self.factors))
                for ts in self.times]


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- end-to-end run ---------------------------------------------------------


def end_to_end(prep: Prepared, seconds: float, failures):
    setup_argv = layers.setup_argv(HERE, prep.module, prep.specs, prep.gadget)
    layers.child_seconds(setup_argv, prep.env, ROOT)  # writes byte-code caches

    # set-up samples are spread over the run, one after each pass
    setup = []

    def set_up_once():
        setup.append(layers.child_seconds(setup_argv, prep.env, ROOT, scaled=True))

    set_up_once()
    passes = Passes(prep.ops, calibrated=True)
    passes.run_for(seconds, between=set_up_once)
    while len(setup) < MIN_SETUPS:
        set_up_once()
    attempted, failed = passes.verify(failures)
    op_s = passes.op_seconds()
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(op_s),
        "instance_s.geomean": geomean(op_s),
        "req_per_s": len(op_s) / sum(op_s),
        "latency_ms.p50": statistics.median(op_s) * 1e3,
        "latency_ms.p99": percentile(op_s, 99) * 1e3,
    }
    notes = {"passes": len(passes.pass_s), "operations": len(prep.ops),
             "setups": len(setup),
             "host_factor": round(statistics.median(passes.factors), 3)}
    return metrics, attempted, failed, notes


# -- traced run -------------------------------------------------------------


def probe_ops(pkg, quick: bool):
    """Fixed operations that reach every layer, traced in every traced run;
    a layer metric comes from them when the workload's own pass never calls
    that layer."""
    solver = ("failed_zero_forcing_number", "cycle:8", 4) if quick else \
        ("failed_zero_forcing_number", "cycle:16", 8)
    graphs = ["ladder:12", "grid:6,6"]
    ctx = wl.Context(pkg, [solver[1], *graphs, wl.GADGET_SOURCE], gadget=True)
    ops = [wl.solver_op(ctx, *solver)]
    ops += wl.stream_ops(ctx, graphs, random.Random(7), per_cell=1, lifts=4)
    ops += wl.cli_main_ops(pkg["cli"], wl.PROBE_ARGV)
    return ops


def rounds_per_call(pkg, tracer) -> float:
    """Mean chain length of the recorded fixpoint calls, replayed through
    `propagation.run_chain_bits`."""
    chain = pkg["propagation"].run_chain_bits
    calls = total = 0
    for adj, starts in tracer.starts.values():
        for start in starts:
            total += len(chain(adj, start)) - 1
        calls += len(starts)
    return total / calls


def solver_summary(tracer):
    """(evaluations, final-stratum share, strata enumerated in full) of the
    solver spans.  The failed-parameter solvers stop each stratum at its
    first hit except the certifying one; the others enumerate every
    stratum before the one holding the answer."""
    calls = final = 0
    strata = set()
    for s in tracer.named("solvers."):
        if s[spans.RESULT] is None:
            continue
        n, value, used = s[spans.RESULT]
        direction = wl.SOLVERS[s[spans.NAME].split(".", 1)[1]][1]
        calls += used
        final += wl.final_stratum(direction, n, value, used)
        if direction == "failed":
            strata.add((n, value + 1))
        elif direction == "min":
            strata |= {(n, k) for k in range(value)}
        else:
            strata |= {(n, k) for k in range(value + 1, n + 1)}
    return calls, final / calls if calls else 0.0, strata


def span_metrics(pkg, loop, probe) -> dict:
    """Per-layer metrics from spans: from the workload's traced pass where it
    calls the layer, from the probe otherwise."""
    def pick(*names):
        return loop if loop.named(*names) else probe

    m = {}
    fix = loop if loop.fixpoint_totals()[0] else probe
    calls, fix_ns = fix.fixpoint_totals()
    m["propagation.fixpoint.calls"] = calls
    m["propagation.fixpoint.us_per_call"] = fix_ns / calls / 1e3
    m["propagation.fixpoint.share"] = fix_ns / fix.wall_ns
    m["propagation.rounds_per_call"] = rounds_per_call(pkg, fix)
    classify = "propagation.classify"
    t = pick(classify)
    m["propagation.classify.us_p50"] = t.median_us(classify)
    m["propagation.classify.maximal_checks"] = sum(
        max(0, s[spans.FIX_CALLS] - 1) for s in t.named(classify))
    traces = ("propagation.monitored_fixpoint", "propagation.zero_forcing_fixpoint")
    m["propagation.trace.us_p50"] = pick(*traces).median_us(*traces)
    m["propagation.self_s"] = pick("propagation.").layer_self_s("propagation")
    t = pick("solvers.")
    m["solvers.subsets_evaluated"], m["solvers.final_stratum_share"], strata = solver_summary(t)
    m["solvers.self_s"] = t.layer_self_s("solvers")
    m["solvers.enum.ns_per_subset"] = layers.enum_ns_per_subset(pkg, strata)
    lift = "reduction.lift_independent_set"
    m["reduction.lift_us"] = pick(lift).median_us(lift)
    m["cli.main_ms"] = pick("cli.main").median_us("cli.main") / 1e3
    return m


def probe_metrics(prep: Prepared, pkg, quick: bool) -> dict:
    """Per-layer metrics from untraced micro-benchmarks."""
    m = {}
    for suffix, us in layers.fixpoint_by_family(pkg, quick).items():
        m[f"propagation.fixpoint.us_per_call.{suffix}"] = us
    m["solvers.pool.wall_ratio"], m["solvers.pool.calls_ratio"] = layers.pool_ratios(pkg, quick)
    fam = pkg["families"]
    m["families.generate_ms"] = layers.median_time(
        lambda: [fam.generate(fam.parse_family(s)) for s in prep.specs], 15) * 1e3
    src_graph = fam.generate(fam.parse_family(wl.GADGET_SOURCE))
    m["reduction.build_ms"] = layers.median_time(
        lambda: pkg["reduction"].build_reduction(src_graph), 15) * 1e3
    reps = 3 if quick else 7
    m["cli.interp_ms"] = layers.interp_ms(prep.env, ROOT, reps)
    m["cli.import_ms"] = layers.import_ms(HERE, prep.env, ROOT, reps)
    return m


def traced(prep: Prepared, pkg, name, seed, seconds, quick, failures):
    """Untraced and traced passes in turn for about 60% of `seconds`, then
    the probes, so a traced run takes no longer than an untraced one."""
    ops = prep.main_ops if name == "cli-batch" else prep.ops
    plain, with_spans = Passes(ops), Passes(ops)
    loop = None
    start = perf_counter()
    while True:
        pair = plain.run_pass()
        tracer = spans.Tracer()
        with tracer:
            pair += with_spans.run_pass(tracer)
        tracer.wall_ns = with_spans.pass_s[-1] * 1e9
        loop = loop or tracer
        if perf_counter() - start + pair > TRACED_SHARE * seconds:
            break
    probe_passes = Passes(probe_ops(pkg, quick))
    probe = spans.Tracer()
    with probe:
        probe.wall_ns = probe_passes.run_pass(probe) * 1e9
    spawned = Passes(prep.ops if name == "cli-batch"
                     else wl.cli_ops(wl.PROBE_ARGV, prep.env, ROOT))
    for _ in range(1 if quick else 3 if name == "cli-batch" else 2):
        spawned.run_pass()

    m = span_metrics(pkg, loop, probe)
    m.update(probe_metrics(prep, pkg, quick))
    m["cli.spawn_ms.p90"] = percentile([x for t in spawned.times for x in t], 90) * 1e3
    m["trace.overhead_frac"] = (statistics.median(with_spans.pass_s)
                                / statistics.median(plain.pass_s) - 1)

    # the traced passes are checked against the first untraced one
    plain.results += with_spans.results
    attempted = failed = 0
    for p in (plain, probe_passes, spawned):
        a, f = p.verify(failures)
        attempted, failed = attempted + a, failed + f

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spans-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "pass": loop.to_json(),
                   "probe": probe.to_json()}, fh)
    notes = {"traced_passes": len(with_spans.pass_s), "spans_file": os.path.relpath(path, ROOT)}
    return m, attempted, failed, notes


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    pkg = load_package()
    prep = Prepared(args.workload, pkg, args.seed, args.quick)
    failures = list(prep.problems)
    if args.trace:
        metrics, attempted, failed, notes = traced(
            prep, pkg, args.workload, args.seed, args.seconds, args.quick, failures)
        units = declared_units("per_layer")
    else:
        metrics, attempted, failed, notes = end_to_end(prep, args.seconds, failures)
        units = declared_units("end_to_end")
    attempted += len(prep.problems)
    failed += len(prep.problems)

    for reason in failures[:20]:
        print(f"perfbench: wrong output: {reason}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k} {v}" for k, v in notes.items()))
    for key in sorted(metrics):
        print(f"  {key:45s} {metrics[key]:.6g} {units[key]}")
    print(f"  {'failed_frac':45s} {failed / attempted:.6g} frac ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
