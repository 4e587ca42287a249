"""The benchmark's own test: deterministic counters repeat exactly across runs.

Run from the repository root (takes about two minutes):

    python3 bench/selftest.py

Each workload named in BENCHMARK.json runs twice as a separate traced
process on the same seed.  Every count, byte count and count ratio of the two
runs must be equal, and both runs must pass their correctness gates.  Exits 1
and names the differences otherwise.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
EXACT_UNITS = ("count", "B")
EXACT_RATIOS = ("charfn.localize.useful_ratio", "spectrum.roots_per_newton_call",
                "spectrum.complete_frac")


def traced_run(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact_metrics(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in EXACT_UNITS or name in EXACT_RATIOS}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    problems = []
    for workload in workloads:
        first, second = traced_run(workload), traced_run(workload)
        for run in (first, second):
            if not run["correct"]:
                problems.append(f"{workload}: a run failed its correctness gates")
        a, b = exact_metrics(first), exact_metrics(second)
        problems += [f"{workload}: {name} is {a[name]} then {b.get(name)}"
                     for name in sorted(a) if a[name] != b.get(name)]
        print(f"{workload}: {len(a)} counters compared")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
