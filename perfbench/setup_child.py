"""Prints the seconds a fresh interpreter takes to import a module of the
package and build the given family graphs (and, when asked, the grid:3,3
reduction gadget), then the host-speed factor of calibrate.py measured
around that set-up.

    python3 setup_child.py MODULE "SPEC;SPEC;..." 0|1

The package must be importable (the benchmark sets PYTHONPATH to src).
"""

import importlib
import statistics
import sys
from time import perf_counter

import calibrate

module, specs, gadget = sys.argv[1], [s for s in sys.argv[2].split(";") if s], sys.argv[3] == "1"
for _ in range(3):  # warm-up, not counted
    calibrate.sample()
samples = [calibrate.sample() for _ in range(8)]
t0 = perf_counter()
importlib.import_module(module)
families = importlib.import_module("powerdom.families")
for spec in specs:
    families.generate(families.parse_family(spec))
if gadget:
    reduction = importlib.import_module("powerdom.reduction")
    reduction.build_reduction(families.generate(families.parse_family("grid:3,3")))
took = perf_counter() - t0
samples += [calibrate.sample() for _ in range(8)]
print(took, calibrate.KERNEL_S / statistics.median(samples))
