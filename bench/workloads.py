"""The benchmark's three workloads: inputs made from the seed, one timed
iteration each, and the correctness gates checked outside the timed part.

* ``reference-report``: ``obsdecay report`` as a user runs it, on the
  reference system ``beam_example(1, 1, 23)``.
* ``scale-certify``: ``obsdecay report`` without ``simulate`` on
  ``beam_example(1, 1, 256)``, so localization and root finding do the work.
* ``random-sweep``: a seeded family of perturbed beam-like systems, N = 2..40,
  sent through the library calls one by one.

Both report workloads are fixed reference inputs; the seed drives only the
random family.  The program sees only the generated inputs: config files for
the report verb, and inline mode lists for the library calls.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import obsdecay
from obsdecay import cli

ROOT_TOL = 1e-8
RESOLVENT_TOL = 1e-8
BASIS_TOL = 1e-8  # ||A Q - Q G||_F relative to ||A||_F, as build_basis promises

REPORT_SEED = 11
SCALE_TASKS = ["verify", "localize", "spectrum", "resolvent-scan", "envelope"]
# The report checks that fail on scale-certify at the seed code, so its report
# exits with code 1: fallback roots leave the mode band from mode 65 on
# (spectrum_complete), and the resolvent norm on the imaginary axis does not
# follow the alpha slope at this truncation (axis_scan_slope: slope -2.25,
# r2 0.29, against alpha 1.1).  Every other check must pass.
SCALE_SEED_FAILURES = frozenset({"spectrum_complete", "axis_scan_slope"})

# Random family: SWEEP_PER_N systems for each N in [N_MIN, N_MAX], so every
# seed has the same mix of sizes and the seed-to-seed spread of a pass stays
# small.  Parameters are log-uniform around the reference beam (factor 2 each
# way), stratified within each size, and each frequency gap and coupling is
# jittered by +/-30%; see README.md for why.
N_MIN, N_MAX = 2, 40
SWEEP_PER_N = 4
PARAM_RANGE = (0.5, 2.0)
JITTER = 0.3
GENERIC_PROBES = 4
ENVELOPE_GRID = np.geomspace(1.0, 200.0, 200)


@dataclass
class Outcome:
    """One timed iteration: its timings, then the results of its gates."""

    wall_s: float
    unit_s: list[float]
    unit_start: list[float]
    units: int = 0
    certified: int = 0
    found: int = 0
    roots_total: int = 0
    failures: list[str] = field(default_factory=list)
    failed_units: int = 0
    pending: object = None


def oracle_eigenvalues(system) -> np.ndarray:
    return np.linalg.eigvals(obsdecay.dense_generator(system))


def match_roots(roots: np.ndarray, oracle: np.ndarray) -> tuple[float, int]:
    """Largest distance from a root to the oracle, and oracle eigenvalues found."""
    if roots.size == 0:
        return 0.0, 0
    dist = np.abs(roots[:, None] - oracle[None, :])
    return float(dist.min(axis=1).max()), int(np.count_nonzero(dist.min(axis=0) <= ROOT_TOL))


class ReportWorkload:
    """``obsdecay report`` called in-process through ``obsdecay.cli.main``.

    ``seed_failures`` names the report checks that fail at the seed code on
    this input.  They may fail (or come to pass); any other check must pass,
    and the exit code must agree with the report's overall verdict.
    """

    def __init__(self, config: dict, seed_failures: frozenset, workdir: str):
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as handle:
            json.dump(config, handle)
        self.seed_failures = seed_failures
        system = obsdecay.SystemSpec.from_json_dict(config)
        self.n = system.N
        self.oracle = oracle_eigenvalues(system)
        self.first_out = None

    def iteration(self, index: int, tracer=None) -> Outcome:
        out = os.path.join(self.workdir, f"report{index}")
        if tracer is not None:
            tracer.request("report")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = cli.main(["report", "--config", self.config_path, "--out", out])
        except Exception:  # recorded and counted as a failed report
            result = traceback.format_exc()
        wall = time.perf_counter() - start
        return Outcome(wall_s=wall, unit_s=[wall], unit_start=[start], units=1,
                       pending=(result, out))

    def check(self, outcome: Outcome) -> None:
        result, out = outcome.pending
        outcome.pending = None
        outcome.roots_total = 2 * self.n
        outcome.failures.extend(self._failures(outcome, result, out))
        outcome.failed_units = int(bool(outcome.failures))

    def _failures(self, outcome: Outcome, code, out: str) -> list[str]:
        if isinstance(code, str):
            return [f"report raised:\n{code}"]
        try:
            with open(os.path.join(out, "report.json")) as handle:
                report = json.load(handle)
            with open(os.path.join(out, "spectrum.json")) as handle:
                eigs = json.load(handle)["eigs"]
            failed = {name for name, c in report["checks"].items() if not c["pass"]}
            verdict = report["pass"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"report exit code {code}, artifacts unreadable: {exc!r}"]
        fail = []
        if failed - self.seed_failures:
            fail.append(f"report checks fail: {sorted(failed - self.seed_failures)}")
        if code != (cli.EXIT_OK if verdict is True else cli.EXIT_CHECK_FAILED):
            fail.append(f"report exit code {code}, pass is {verdict}")
        roots = np.array([complex(*e["lambda"]) for e in eigs])
        worst, outcome.found = match_roots(roots, self.oracle)
        if worst > ROOT_TOL:
            fail.append(f"a root lies {worst:.3e} from every oracle eigenvalue")
        outcome.certified = sum(bool(e["certified"]) for e in eigs)
        if self.first_out is None:
            self.first_out = out
        else:
            names = sorted(os.listdir(self.first_out))
            _, mismatch, errors = filecmp.cmpfiles(self.first_out, out, names, shallow=False)
            if names != sorted(os.listdir(out)) or mismatch or errors:
                fail.append("report artifacts differ from the first repeat")
            shutil.rmtree(out)
        return fail


@dataclass
class SweepCase:
    doc: dict
    rhs: object
    points: list[complex]
    oracle: np.ndarray


def random_family(seed: int) -> list[SweepCase]:
    rng = np.random.default_rng(seed)
    sizes = N_MAX - N_MIN + 1
    # (theta, sigma, gamma) of the k-th system of each size, as log values.
    # Stratified: the SWEEP_PER_N systems of one size each draw every
    # parameter from a different equal share of its range, in random order.
    low, high = np.log(PARAM_RANGE)
    strata = rng.permuted(np.tile(np.arange(SWEEP_PER_N), (sizes, 3, 1)), axis=2)
    log_params = low + (high - low) * (strata + rng.uniform(size=strata.shape)) / SWEEP_PER_N
    cases = []
    for i in range(sizes * SWEEP_PER_N):
        n = N_MIN + i % sizes
        theta, sigma, gamma = np.exp(log_params[n - N_MIN, :, i // sizes])
        j = np.arange(1, n + 1)
        # omega_j = theta j^2 when unjittered: the steps are theta (2j - 1).
        omegas = np.cumsum(theta * (2 * j - 1) * (1.0 + rng.uniform(-JITTER, JITTER, n)))
        cs = (sigma / j * (1.0 + rng.uniform(-JITTER, JITTER, n))
              * rng.choice((-1.0, 1.0), n))
        doc = {"gamma": float(gamma),
               "modes": [{"omega": float(w), "c": float(c)} for w, c in zip(omegas, cs)]}
        q, p = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        generic = (rng.uniform(0.05, 1.0, GENERIC_PROBES)
                   + 1j * omegas[-1] * rng.uniform(-1.2, 1.2, GENERIC_PROBES))
        system = obsdecay.SystemSpec.from_json_dict(doc)
        points = list(generic) + [s * 1j * m["omega"] for m in doc["modes"] for s in (1, -1)]
        cases.append(SweepCase(doc=doc, rhs=obsdecay.StateVector(q=q, p=p),
                               points=points, oracle=oracle_eigenvalues(system)))
    return cases


class SweepWorkload:
    """The library calls on every system of the random family, in order."""

    def __init__(self, seed: int):
        self.cases = random_family(seed)
        self.first_results = None

    def iteration(self, index: int, tracer=None) -> Outcome:
        unit_s, unit_start, results = [], [], []
        for number, case in enumerate(self.cases):
            if tracer is not None:
                tracer.request(f"system{number}")
            start = time.perf_counter()
            unit_start.append(start)
            try:
                result = self._unit(case)
            except Exception:  # recorded and counted as a failed system
                result = traceback.format_exc()
            unit_s.append(time.perf_counter() - start)
            results.append(result)
        return Outcome(wall_s=sum(unit_s), unit_s=unit_s, unit_start=unit_start,
                       units=len(self.cases), pending=results)

    @staticmethod
    def _unit(case: SweepCase):
        system = obsdecay.SystemSpec.from_json_dict(case.doc)
        cert = obsdecay.certify_assumptions(system, beta=1.0, k0=min(2, system.N))
        rep = obsdecay.full_spectrum(system)
        try:
            basis = obsdecay.build_basis(system, rep)
        except obsdecay.BasisError:
            basis = None  # the documented answer for an incomplete spectrum
        solved = [obsdecay.apply_resolvent(system, lam, case.rhs) for lam in case.points]
        envelope = obsdecay.decay_envelope(system, rep, ENVELOPE_GRID)
        return system, cert, rep, basis, solved, envelope

    def check(self, outcome: Outcome) -> None:
        results, outcome.pending = outcome.pending, None
        summaries = []
        for number, (case, result) in enumerate(zip(self.cases, results)):
            outcome.roots_total += 2 * len(case.doc["modes"])
            if isinstance(result, str):
                fail, summary = [f"raised:\n{result}"], None
            else:
                fail, summary = self._case_failures(outcome, case, *result)
            if self.first_results is not None and summary != self.first_results[number]:
                fail.append("assumptions, basis or envelope differ from the first iteration")
            summaries.append(summary)
            outcome.failures.extend(f"system {number}: {f}" for f in fail)
            outcome.failed_units += int(bool(fail))
        if self.first_results is None:
            self.first_results = summaries

    @staticmethod
    def _case_failures(outcome: Outcome, case: SweepCase, system, cert, rep, basis, solved,
                       envelope) -> tuple[list[str], str]:
        fail = []
        worst, found = match_roots(rep.eigenvalues(), case.oracle)
        if worst > ROOT_TOL:
            fail.append(f"a root lies {worst:.3e} from the oracle")
        outcome.found += found
        outcome.certified += sum(e.certified for e in rep.eigs)
        a_dense = obsdecay.dense_generator(system)
        x = np.array([eps.to_array() for eps in solved])
        lams = np.array(case.points)[:, None]
        rhs = case.rhs.to_array()
        resid = np.linalg.norm(x @ a_dense.T - lams * x - rhs, axis=1) / np.linalg.norm(rhs)
        if not np.all(resid <= RESOLVENT_TOL):
            fail.append(f"resolvent residual {resid.max():.3e}")
        if rep.complete != (basis is not None):
            fail.append(f"spectrum complete is {rep.complete} but a basis was "
                        f"{'built' if basis is not None else 'refused'}")
        if basis is not None:
            dim = 2 * system.N
            fact = np.linalg.norm(a_dense @ basis.Q - basis.Q * basis.G[None, :])
            if fact > BASIS_TOL * np.linalg.norm(a_dense):
                fail.append(f"basis residual ||AQ - QG|| is {fact:.3e}")
            if basis.Q.shape != (dim, dim) or np.linalg.matrix_rank(basis.Q) < dim:
                fail.append("basis Q is not a full-rank 2N x 2N matrix")
        if not math.isfinite(envelope.exponent):
            fail.append(f"envelope exponent is {envelope.exponent}")
        basis_doc = None if basis is None else basis.to_json_dict()
        summary = json.dumps([cert.to_json_dict(), basis_doc, envelope.to_json_dict()],
                             sort_keys=True)
        return fail, summary


def beam_config(n: int, tasks=None) -> dict:
    doc = {"gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": n},
           "seed": REPORT_SEED}
    if tasks is not None:
        doc["tasks"] = tasks
    return doc


def make(name: str, seed: int, workdir: str):
    if name == "reference-report":
        return ReportWorkload(beam_config(23), seed_failures=frozenset(), workdir=workdir)
    if name == "scale-certify":
        return ReportWorkload(beam_config(256, SCALE_TASKS), seed_failures=SCALE_SEED_FAILURES,
                              workdir=workdir)
    if name == "random-sweep":
        return SweepWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("reference-report", "scale-certify", "random-sweep")
