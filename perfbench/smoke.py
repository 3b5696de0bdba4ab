"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload in quick mode, untraced and traced, and checks that
each prints every metric named in BENCHMARK.json with its unit, that no
output was wrong, that the quick expected values agree with the reference
brute force, that inputs depend on the seed only, that the exact counts
repeat across seeds, and that the benchmark refuses to run without the
package source.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

EXACT = ["solvers.subsets_evaluated", "propagation.fixpoint.calls",
         "propagation.rounds_per_call"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def run_quick(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    assert "failed_frac" in proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res, declared, label):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, label
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, label
    assert set(res["metrics"]) == set(declared), \
        f"{label}: metric names differ: {set(res['metrics']) ^ set(declared)}"
    for name, m in res["metrics"].items():
        assert m["unit"] == declared[name], f"{label}: unit of {name}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            f"{label}: {name} = {m['value']}"


def check_quick_tables():
    for fname, spec, value in wl.QUICK_FAILED + wl.QUICK_MIN:
        pred, direction = wl.SOLVERS[fname]
        rg = ref.family_graph(spec)
        brute = {"failed": ref.brute_max_failed, "min": ref.brute_min,
                 "max": ref.brute_max}[direction]
        assert brute(rg, pred)[0] == value, f"{fname}({spec}) table value {value}"


def check_seeded_inputs():
    pkg = run.load_package()
    for workload in ("classify-stream", "cli-batch", "failed-ascent"):
        labels = [[op.label for op in run.Prepared(workload, pkg, seed, True).ops]
                  for seed in (5, 5, 6)]
        assert labels[0] == labels[1], f"{workload}: same seed, different inputs"
        if workload != "failed-ascent":
            assert labels[0] != labels[2], f"{workload}: the seed changes nothing"


def check_refuses_without_source():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", "min-ascent", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--quick", cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    check_quick_tables()
    check_seeded_inputs()
    check_refuses_without_source()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for name in run.WORKLOADS:
        for trace in (0, 1):
            res = run_quick(name, 3, trace)
            check_result(res, declared[trace], f"{name} trace={trace}")
            print(f"ok {name} trace={trace} attempted={res['attempted']}")
    counts = [run_quick("failed-ascent", seed, 1)["metrics"] for seed in (3, 4)]
    for name in EXACT:
        assert counts[0][name]["value"] == counts[1][name]["value"], f"{name} is not exact"
    print("ok exact counts repeat across seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
