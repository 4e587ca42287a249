"""obsdecay benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 bench/run.py --workload reference-report --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  End-to-end
times are scaled to a reference CPU speed by ``speed.SpeedMeter``.  The line
before it records the environment.  Details, and with ``--trace 1`` every
span, are written under ``bench/out/``.  See ``bench/README.md``.
"""

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 120
MIN_ITERATIONS = 2
BLAS_THREADS = "1"


def pin_blas_threads() -> None:
    """Run BLAS on one thread, whatever the caller's environment says.

    Must run before numpy loads.  With more threads OpenBLAS spin-waits on
    the other cores after each call, which made the sweep slower (8.6 s
    against 7.2 s a pass on 2 cores) and exposed it to whatever else runs
    there.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_program() -> None:
    sys.path.insert(0, SRC)
    import obsdecay

    if os.path.dirname(os.path.dirname(os.path.abspath(obsdecay.__file__))) != SRC:
        raise SystemExit(f"obsdecay was imported from {obsdecay.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def measure_setup(workdir: str) -> dict:
    """Median over fresh processes of import time plus first-call excess."""
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "setup_probe.py"), SRC, workdir],
            capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True,
        )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    setup = [p["import_s"] + p["cold_s"] - p["warm_s"] for p in probes]
    return {"setup_s": statistics.median(setup), "probes": probes}


def run_iterations(workload, seconds: float, tracer):
    """Closed loop: one iteration after another until the next would take the
    measured time past ``seconds``; the gates run between iterations, untimed.

    With a tracer, iterations alternate untraced and traced, so both kinds run
    on the same warm process and the overhead is their difference.
    """
    outcomes, counts = [], {}
    while True:
        index = len(outcomes)
        if tracer is not None and index % 2 == 1:
            with tracer.recording(index) as counted:
                outcome = workload.iteration(index, tracer)
            counts[index] = counted
        else:
            outcome = workload.iteration(index)
        workload.check(outcome)
        outcomes.append(outcome)
        measured = sum(o.wall_s for o in outcomes)
        typical = statistics.median(o.wall_s for o in outcomes)
        if len(outcomes) >= MIN_ITERATIONS and measured + typical > seconds:
            return outcomes, counts


def end_to_end(outcomes, unit_times, setup_s: float) -> dict:
    """The end-to-end metrics, from ``unit_times[i][u]``: the time of unit
    ``u`` in iteration ``i``."""
    import numpy as np

    pooled = [t for times in unit_times for t in times]
    roots_total = sum(o.roots_total for o in outcomes)
    # Each unit (a report, or one system of the sweep) at its median over the
    # iterations, so a burst of outside load in one iteration does not count.
    wall_s = float(np.sum(np.median(unit_times, axis=0)))
    return {
        "wall_s": (wall_s, "s"),
        "certified_roots_per_s": (statistics.median(o.certified for o in outcomes) / wall_s,
                                  "1/s"),
        "unit_s.p50": (float(np.percentile(pooled, 50)), "s"),
        "unit_s.p95": (float(np.percentile(pooled, 95)), "s"),
        "roots_certified_frac": (sum(o.certified for o in outcomes) / roots_total, "ratio"),
        "roots_found_frac": (sum(o.found for o in outcomes) / roots_total, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(outcomes, counts: dict, times: dict) -> dict:
    from spans import COUNTERS, LAYERS, TIMED_SPANS

    traced = sorted(counts)
    first = counts[traced[0]]
    first_times = times[traced[0]]

    def med(fn):
        return statistics.median(fn(i) for i in traced)

    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}.s"] = (med(lambda i: times[i][name]["s"]), "s")
        metrics[f"{name}.self_s"] = (med(lambda i: times[i][name]["self_s"]), "s")
        metrics[f"{name}.calls"] = (first_times[name]["calls"], "count")
    metrics["cli.self_s"] = (med(lambda i: times[i]["cli.main"]["self_s"]), "s")
    for key in COUNTERS:
        metrics[key] = (first[key], "B" if key == "reports.bytes" else "count")
    localize_calls = first_times["charfn.localize"]["calls"]
    newton_calls = first_times["spectrum.newton_root"]["calls"]
    metrics["charfn.localize.useful_ratio"] = (
        first["charfn.localize.distinct"] / localize_calls if localize_calls else 0.0, "ratio")
    metrics["spectrum.roots_per_newton_call"] = (
        first["spectrum.roots"] / newton_calls if newton_calls else 0.0, "ratio")
    metrics["spectrum.complete_frac"] = (
        first["spectrum.complete"] / first["spectrum.systems"] if first["spectrum.systems"]
        else 0.0, "ratio")

    def share(layer, i):
        self_s = sum(agg["self_s"] for name, agg in times[i].items()
                     if name.split(".")[0] == layer)
        return self_s / outcomes[i].wall_s

    for layer in LAYERS:
        metrics[f"{layer}.share"] = (med(lambda i: share(layer, i)), "ratio")
    untraced = [o.wall_s for i, o in enumerate(outcomes) if i not in counts]
    metrics["trace.overhead_s"] = (
        med(lambda i: outcomes[i].wall_s) - statistics.median(untraced), "s")
    return metrics


def counters_repeat(counts: dict, times: dict) -> list[str]:
    """Every traced iteration must report the same counters and call counts."""
    def signature(i):  # a Counter, so names seen zero times compare equal to absent ones
        return counts[i] + collections.Counter(
            {name: agg["calls"] for name, agg in times[i].items()})

    traced = sorted(counts)
    reference = signature(traced[0])
    return [f"iteration {i}: counters differ from iteration {traced[0]}"
            for i in traced[1:] if signature(i) != reference]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    import_program()
    sys.path.insert(0, BENCH)
    import setup_probe
    import workloads
    from spans import Tracer
    from speed import SpeedMeter

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    outdir = os.path.join(BENCH, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(os.path.join(outdir, "warmup"))

    env = environment()
    setup = None if args.trace else measure_setup(os.path.join(outdir, "warmup"))
    workload = workloads.make(args.workload, args.seed, outdir)
    setup_probe.probe(os.path.join(outdir, "warmup"))
    raw_metrics = meter_summary = None
    if args.trace:
        tracer = Tracer()
        outcomes, counts = run_iterations(workload, args.seconds, tracer)
        times = {i: tracer.iteration_times(i) for i in counts}
        metrics = per_layer(outcomes, counts, times)
        repeat_failures = counters_repeat(counts, times)
        tracer.write(os.path.join(outdir, "spans.json"))
    else:
        with SpeedMeter() as meter:
            outcomes, _ = run_iterations(workload, args.seconds, None)
        spans = [list(zip(o.unit_start, o.unit_s)) for o in outcomes]
        metrics = end_to_end(
            outcomes, [[meter.scaled(s, s + d) for s, d in its] for its in spans],
            setup["setup_s"])
        raw_metrics = end_to_end(
            outcomes, [[meter.net(s, s + d) for s, d in its] for its in spans],
            setup["setup_s"])
        meter_summary = {"samples": len(meter.samples),
                         "kernel_s.median": statistics.median(k for _, _, k in meter.samples)}
        repeat_failures = []
    failures = [f for o in outcomes for f in o.failures] + repeat_failures
    attempted = sum(o.units for o in outcomes)
    failed = sum(o.failed_units for o in outcomes) + len(repeat_failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(outdir, "result.json"), "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "setup": setup,
                   "iterations": [{"wall_s": o.wall_s, "units": o.units,
                                   "failed_units": o.failed_units} for o in outcomes],
                   "speed_meter": meter_summary, "raw_metrics": raw_metrics,
                   "failures": failures, **result}, handle, indent=2)
    for failure in failures[:20]:
        print(failure, file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
