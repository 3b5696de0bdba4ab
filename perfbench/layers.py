"""Layer probes: fixed micro-benchmarks that run untraced in every traced
run, and the set-up timing taken in fresh interpreters."""

from __future__ import annotations

import inspect
import random
import statistics
import subprocess
import sys
from math import comb
from time import perf_counter

PROBE_FAMILIES = ["cycle:30", "ladder:12", "grid:6,6", "grid:10,10"]
POOL_INSTANCE = ("failed_zero_forcing_number", "grid:5,5")
QUICK_POOL_INSTANCE = ("failed_zero_forcing_number", "cycle:8")
SETUP_CHILD = "setup_child.py"


def metric_suffix(spec: str) -> str:
    """`grid:6,6` -> `grid-6x6`, a name the metric grammar accepts."""
    name, _, args = spec.partition(":")
    return f"{name}-{args.replace(',', 'x')}"


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def fixpoint_by_family(pkg, quick: bool) -> dict[str, float]:
    """µs per `propagation.fixpoint_bits` call from closed neighbourhoods of
    fixed random 1- to 3-sets."""
    fam, prop = pkg["families"], pkg["propagation"]
    rng = random.Random(1909)
    out = {}
    for spec in PROBE_FAMILIES:
        g = fam.generate(fam.parse_family(spec))
        adj = g.adjacency_masks()
        starts = []
        for _ in range(20 if quick else 200):
            acc = 0
            for v in rng.sample(range(g.n), rng.randint(1, 3)):
                acc |= 1 << v | adj[v]
            starts.append(acc)
        fix = prop.fixpoint_bits

        def batch():
            for s in starts:
                fix(adj, s)

        out[metric_suffix(spec)] = median_time(batch, 3 if quick else 7) / len(starts) * 1e6
    return out


def enum_ns_per_subset(pkg, strata: set[tuple[int, int]]) -> float:
    """ns per mask yielded by `solvers.colex_masks`, over whole strata."""
    colex = pkg["solvers"].colex_masks
    count = sum(comb(n, k) for n, k in strata)

    def sweep():
        for n, k in strata:
            for _ in colex(n, k):
                pass

    took = median_time(sweep, 1)
    if took < 0.3:  # short sweeps are repeated
        took = statistics.median([took, median_time(sweep, 1), median_time(sweep, 1)])
    return took / count * 1e9


def pool_ratios(pkg, quick: bool) -> tuple[float, float]:
    """workers=2 over workers=1, in wall time and in evaluations.  A
    package without the `workers` argument runs the serial search twice."""
    fname, spec = QUICK_POOL_INSTANCE if quick else POOL_INSTANCE
    fam = pkg["families"]
    g = fam.generate(fam.parse_family(spec))
    solve = getattr(pkg["solvers"], fname)
    pooled_kwargs = {"workers": 2} if "workers" in inspect.signature(solve).parameters else {}
    t0 = perf_counter()
    serial = solve(g)
    t1 = perf_counter()
    pooled = solve(g, **pooled_kwargs)
    t2 = perf_counter()
    if pooled.value != serial.value:
        raise RuntimeError(f"workers=2 gave {pooled.value}, workers=1 {serial.value}")
    return (t2 - t1) / (t1 - t0), pooled.propagation_calls / serial.propagation_calls


def child_seconds(argv, env, cwd, scaled: bool = False) -> float:
    """The set-up seconds a `setup_argv` child prints; with `scaled`,
    rescaled by the host-speed factor it measured around them."""
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=True)
    took, factor = map(float, proc.stdout.strip().splitlines()[-1].split())
    return took * factor if scaled else took


def setup_argv(here, module, specs, gadget) -> list[str]:
    """Arguments of a fresh interpreter that imports the package and builds
    the workload's graphs (and the gadget), printing the seconds taken."""
    return [f"{here}/{SETUP_CHILD}", module, ";".join(specs), "1" if gadget else "0"]


def interp_ms(env, cwd, reps) -> float:
    """Wall time of spawning a bare interpreter."""
    def spawn():
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True,
                       timeout=60)
    return median_time(spawn, reps) * 1e3


def import_ms(here, env, cwd, reps) -> float:
    argv = setup_argv(here, "powerdom.cli", [], False)
    return statistics.median(child_seconds(argv, env, cwd) for _ in range(reps)) * 1e3
