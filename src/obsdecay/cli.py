"""Command-line front end for the certification pipeline.

Verbs: verify, localize, spectrum, resolvent-scan, simulate, envelope,
report.  Every verb reads a JSON config describing the system (inline mode
list or generator record), computes its stage (plus any prerequisites,
which are computed silently), and writes machine-readable artifacts into
the output directory.  ``report`` runs the configured task list end to end
and consolidates the results with pass/fail checks.

Exit codes: 0 success, 1 assumption/certification/check failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import charfn, dynamics, modal, reports, resolvent
from . import spectrum as spectrum_mod
from .model import AssumptionCertificate, SystemSpec, certify_assumptions

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

ALL_TASKS = ("verify", "localize", "spectrum", "resolvent-scan", "simulate",
             "envelope", "report")
SIM_T_FIRST = 0.01  # first positive time of the simulate grid
STAGE_ERRORS = (modal.BasisError, dynamics.IntegrationError, ValueError)  # FitError is a ValueError


class ConfigError(ValueError):
    """Malformed run configuration."""


def _same_kind(default, value) -> bool:
    """Whether a config value may replace a tolerance default.

    A bool replaces a bool, an integer an integer (or a ``None`` default),
    and any number a float.
    """
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, int) or (default is None and value is None)


@dataclass(frozen=True)
class Tolerances:
    """Every tunable the pipeline consumes, echoed back into each report."""

    beta: float = 1.0
    k0: int = 2
    theta_frac: float = charfn.THETA_FRACTION_DEFAULT
    scan_k_min: Optional[int] = None
    scan_k_max: Optional[int] = None
    axis_slope_tol: float = 0.15
    axis_r2_min: float = 0.95
    envelope_exponent_tol: float = 0.2
    envelope_t_lo: float = 1.0
    envelope_t_hi: float = 200.0
    envelope_points: int = 200
    sim_t_final: float = 10.0
    sim_points: int = 80
    dump_q: bool = False

    @staticmethod
    def from_dict(doc: dict) -> "Tolerances":
        defaults = Tolerances()
        unknown = set(doc) - {f.name for f in fields(Tolerances)}
        if unknown:
            raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
        for key, value in doc.items():
            default = getattr(defaults, key)
            if not _same_kind(default, value):
                raise ConfigError(f"tolerance {key!r} = {value!r} does not have the type "
                                  f"of its default {default!r}")
        tol = replace(defaults, **doc)
        # the conditions the library calls raise ValueError for
        ranges = (
            (all(math.isfinite(v) for v in doc.values() if isinstance(v, float)),
             "every tolerance must be finite"),
            (tol.beta > 0.0, "beta must be positive"),
            (tol.k0 >= 1, "k0 must be at least 1"),
            (0.0 < tol.theta_frac < 1.0, "theta_frac must lie in (0, 1)"),
            (0.0 < tol.envelope_t_lo < tol.envelope_t_hi,
             "envelope_t_lo and envelope_t_hi must satisfy 0 < t_lo < t_hi"),
            (tol.envelope_points >= 3, "envelope_points must be at least 3"),
            (tol.sim_t_final > SIM_T_FIRST, f"sim_t_final must exceed {SIM_T_FIRST}"),
            (tol.sim_points >= 3, "sim_points must be at least 3"),
        )
        bad = [msg for ok, msg in ranges if not ok]
        if bad:
            raise ConfigError(f"tolerances out of range: {'; '.join(bad)}")
        return tol

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class RunConfig:
    system: SystemSpec
    tasks: tuple[str, ...]
    seed: int
    output_dir: str
    tolerances: Tolerances
    strict: bool = False


def load_config(path: str, out_override: Optional[str] = None,
                seed_override: Optional[int] = None,
                n_override: Optional[int] = None,
                strict: bool = False) -> RunConfig:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    if n_override is not None:
        gen = doc.get("generator")
        if gen is None:
            raise ConfigError("--n override requires a generator-type system")
        doc = {**doc, "generator": {**gen, "N": n_override}}
    try:
        system = SystemSpec.from_json_dict(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid system: {exc}") from None

    tasks = doc.get("tasks", [t for t in ALL_TASKS if t != "report"])
    if not isinstance(tasks, list) or not all(isinstance(t, str) for t in tasks):
        raise ConfigError("'tasks' must be a list of task names")
    bad = [t for t in tasks if t not in ALL_TASKS]
    if bad:
        raise ConfigError(f"unknown tasks: {bad}")
    if not tasks:
        raise ConfigError("'tasks' must be nonempty")

    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        raise ConfigError("'tolerances' must be an object")
    tolerances = Tolerances.from_dict(tol_doc)

    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")
    out = out_override if out_override is not None else str(doc.get("output_dir", "."))
    return RunConfig(system=system, tasks=tuple(tasks), seed=seed,
                     output_dir=out, tolerances=tolerances, strict=strict)


class Pipeline:
    """Lazy pipeline state: stages are computed once, on first use.

    ``run(task)`` computes a stage, writes its artifacts, and returns
    (exit code, result document, the text ``write_json`` wrote for that
    document, or None when it is not written as it is).  A document's
    tables are :class:`reports.Table` values, which only ``write_json``
    encodes.  Prerequisite stages pulled in along the way do not emit files.
    """

    def __init__(self, config: RunConfig):
        self.config = config

    def _out(self, name: str) -> str:
        return os.path.join(self.config.output_dir, name)

    @cached_property
    def assumptions(self) -> AssumptionCertificate:
        return certify_assumptions(
            self.config.system, beta=self.config.tolerances.beta,
            k0=min(self.config.tolerances.k0, self.config.system.N),
        )

    @property
    def alpha(self) -> Optional[float]:
        return self.assumptions.alpha if self.assumptions.holds_A3 else None

    @cached_property
    def localizations(self) -> charfn.LocalizationReport:
        system = self.config.system
        return charfn.localize_modes(system, range(1, system.N + 1),
                                     theta_frac=self.config.tolerances.theta_frac)

    @cached_property
    def spectrum(self) -> spectrum_mod.SpectrumReport:
        return spectrum_mod.full_spectrum(self.config.system)

    @cached_property
    def _basis(self) -> modal.ModalBasis | modal.BasisError:
        try:
            return modal.build_basis(self.config.system, self.spectrum)
        except modal.BasisError as exc:  # kept, so a failing basis is built once
            return exc

    @property
    def basis(self) -> modal.ModalBasis:
        """The eigenbasis of the spectrum, built once; raises its BasisError on every read."""
        if isinstance(self._basis, modal.BasisError):
            raise self._basis
        return self._basis

    # ---- task runners -----------------------------------------------------

    def run(self, task: str) -> tuple[int, dict, Optional[str]]:
        runner = {
            "verify": self._task_verify,
            "localize": self._task_localize,
            "spectrum": self._task_spectrum,
            "resolvent-scan": self._task_scan,
            "envelope": self._task_envelope,
            "simulate": self._task_simulate,
        }[task]
        return runner()

    def _task_verify(self) -> tuple[int, dict, Optional[str]]:
        cert = self.assumptions
        doc = {
            "assumptions": cert.to_json_dict(),
            "coupling_sum": self.config.system.coupling_sum(),
            "coupling_sum_tail_bound": self.config.system.coupling_sum_tail_bound(),
        }
        text = reports.write_json(self._out("assumptions.json"), doc)
        return (EXIT_OK if cert.holds else EXIT_CHECK_FAILED), doc, text

    def _task_localize(self) -> tuple[int, dict, Optional[str]]:
        loc = self.localizations
        reports.write_localization_csv(loc, self._out("localization.csv"))
        doc = reports.localization_doc(loc)
        text = reports.write_json(self._out("localization.json"), doc)
        code = EXIT_OK
        if self.config.strict and loc.failures:
            code = EXIT_CHECK_FAILED
        return code, doc, text

    def _task_spectrum(self) -> tuple[int, dict, Optional[str]]:
        rep = self.spectrum
        reports.write_spectrum_csv(rep, self._out("spectrum.csv"))
        reports.write_spectrum_plot_csv(rep, self._out("spectrum_plot.csv"))
        reports.write_json(self._out("spectrum.json"), reports.spectrum_doc(rep))
        # each row is a conjugate pair with one certificate and one real part
        lams = rep.lam
        doc = {
            "count": 2 * lams.size,
            "certified": 2 * int(np.count_nonzero(rep.certified)),
            "complete": rep.complete,
            "failures": list(rep.failures),
            "enclosure_defect": rep.enclosure_defect,
            "max_re": float(np.max(lams.real)) if lams.size else None,
            "min_abs_re": float(np.min(np.abs(lams.real))) if lams.size else None,
        }
        return (EXIT_OK if rep.complete else EXIT_CHECK_FAILED), doc, None

    def scan_bands(self) -> tuple[int, int]:
        """The axis scan's band range (k_min, k_max); ConfigError if it holds fewer than 3."""
        n = self.config.system.N
        tol = self.config.tolerances
        k_min = max(2, tol.scan_k_min if tol.scan_k_min is not None else 3)
        k_max = min(n - 1, tol.scan_k_max if tol.scan_k_max is not None else n - 3)
        if k_max - k_min < 2:
            raise ConfigError(f"axis scan band range {k_min}..{k_max} holds fewer than the "
                              f"3 bands the slope fit needs (N = {n})")
        return k_min, k_max

    def _task_scan(self) -> tuple[int, dict, Optional[str]]:
        bands = self.scan_bands()  # a range too narrow is rejected before any stage runs
        scan = resolvent.axis_scan(self.config.system, self.spectrum, bands)
        cond = None
        if self.spectrum.complete:  # the basis a complete report builds anyway
            try:
                cond = self.basis.cond_Q
            except modal.BasisError:
                pass
        checks = resolvent.segment_bound_checks(scan, self.localizations, cond)
        reports.write_axis_scan_csv(scan, self._out("axis_scan.csv"))
        doc = reports.axis_scan_doc(scan, checks, alpha_expected=self.alpha)
        text = reports.write_json(self._out("axis_scan.json"), doc)
        return EXIT_OK, doc, text

    def _task_envelope(self) -> tuple[int, dict, Optional[str]]:
        tol = self.config.tolerances
        t_grid = np.geomspace(tol.envelope_t_lo, tol.envelope_t_hi, tol.envelope_points)
        fit = dynamics.decay_envelope(self.config.system, self.spectrum, t_grid)
        doc = fit.to_json_dict()
        text = reports.write_json(self._out("envelope.json"), doc)
        return EXIT_OK, doc, text

    def _task_simulate(self) -> tuple[int, dict, Optional[str]]:
        tol = self.config.tolerances
        config = self.config
        eps0 = dynamics.domain_initial_state(config.system, config.seed)
        t_grid = np.concatenate([[0.0],
                                 np.geomspace(SIM_T_FIRST, tol.sim_t_final, tol.sim_points)])
        traj = dynamics.simulate_error(config.system, eps0, t_grid, basis=self.basis)
        reports.write_trajectory_csv(traj, self._out("trajectory.csv"))
        fit = dynamics.decay_fit_trajectory(
            config.system, self.basis, traj,
            alpha=self.alpha if self.alpha is not None else 1.0, seed=config.seed,
        )
        doc = fit.to_json_dict()
        doc["monotone_decay"] = bool(np.all(np.diff(traj.norm) <= 1e-9 * traj.norm[0]))
        text = reports.write_json(self._out("trajectory_fit.json"), doc)
        return EXIT_OK, doc, text

    # ---- consolidated report ----------------------------------------------

    def run_report(self) -> tuple[int, dict]:
        tasks = [t for t in self.config.tasks if t != "report"]
        if not tasks:
            raise ConfigError("report needs a nonempty task list")
        if "resolvent-scan" in tasks:
            self.scan_bands()  # a range too narrow is rejected before any task writes
        results: dict = {
            "system": self.config.system.to_json_dict(),
            "seed": self.config.seed,
            "tolerances": self.config.tolerances.to_json_dict(),
            "tasks": tasks,
        }
        written: dict = {}  # task documents already encoded into their own files
        worst = EXIT_OK
        key_map = {"verify": "assumptions", "localize": "localization",
                   "spectrum": "spectrum", "resolvent-scan": "axis_scan",
                   "envelope": "envelope", "simulate": "trajectory"}
        for task in (t for t in ALL_TASKS if t in tasks):
            try:
                code, doc, text = self.run(task)
            except STAGE_ERRORS as exc:  # ConfigErrors come before any stage runs
                code, doc, text = EXIT_CHECK_FAILED, {"error": str(exc)}, None
            worst = max(worst, code)
            results[key_map[task]] = doc
            if text is not None:
                written[key_map[task]] = text

        dump_q = self.config.tolerances.dump_q
        if "simulate" in tasks or dump_q or ("spectrum" in tasks and self.spectrum.complete):
            try:
                results["basis"] = self.basis.to_json_dict()
                if dump_q:
                    reports.write_q_binary(self.basis, self._out("basis_q.bin"))
            except modal.BasisError as exc:
                results["basis"] = {"error": str(exc)}

        checks = self._checks(results)
        results["checks"] = checks
        results["pass"] = all(c["pass"] for c in checks.values() if not c.get("skipped"))
        if not results["pass"]:
            worst = max(worst, EXIT_CHECK_FAILED)
        reports.write_json(self._out("report.json"), {**results, **written})
        self._print_summary(results)
        return worst, results

    def _checks(self, results: dict) -> dict:
        tol = self.config.tolerances
        alpha = self.alpha
        checks = {}
        failed_stages = {key: doc for key, doc in results.items()
                         if isinstance(doc, dict) and "error" in doc}
        for key, doc in failed_stages.items():
            checks[f"{key}_ran"] = {"pass": False, "detail": doc["error"]}
        results = {k: v for k, v in results.items() if k not in failed_stages}
        if "assumptions" in results:
            doc = results["assumptions"]["assumptions"]
            checks["assumptions_hold"] = {
                "pass": bool(doc["holds_A2"] and doc["holds_A3"]), "detail": doc,
            }
        spec_sum = results.get("spectrum")
        if spec_sum is not None:
            checks["spectrum_complete"] = {"pass": bool(spec_sum["complete"]),
                                           "detail": spec_sum["failures"]}
            checks["spectrum_stable"] = {
                "pass": spec_sum["max_re"] is not None and spec_sum["max_re"] < 0.0,
                "detail": {"max_re": spec_sum["max_re"]},
            }
            checks["disk_enclosure"] = {
                "pass": spec_sum["enclosure_defect"] == 0.0,
                "detail": {"enclosure_defect": spec_sum["enclosure_defect"]},
            }
        scan = results.get("axis_scan")
        if scan is not None and "slope" in scan:
            if alpha is None:
                checks["axis_scan_slope"] = {"pass": True, "skipped": True,
                                             "detail": "no certified alpha"}
            else:
                ok = (abs(scan["slope"] - alpha) <= tol.axis_slope_tol
                      and scan["r2"] >= tol.axis_r2_min)
                checks["axis_scan_slope"] = {
                    "pass": bool(ok),
                    "detail": {"slope": scan["slope"], "r2": scan["r2"], "alpha": alpha},
                }
            if scan["segment_bounds_ok"] is None:
                checks["segment_bounds"] = {"pass": True, "skipped": True,
                                            "detail": "no cond(Q): cap not proven"}
            else:
                checks["segment_bounds"] = {"pass": scan["segment_bounds_ok"], "detail": None}
        env = results.get("envelope")
        if env is not None:
            if alpha is None:
                checks["envelope_exponent"] = {"pass": True, "skipped": True,
                                               "detail": "no certified alpha"}
            elif not env["polynomial"]:
                checks["envelope_exponent"] = {
                    "pass": True, "skipped": True,
                    "detail": "no usable polynomial window at this truncation",
                }
            else:
                ok = abs(env["exponent"] + 1.0 / alpha) <= tol.envelope_exponent_tol
                checks["envelope_exponent"] = {
                    "pass": bool(ok),
                    "detail": {"exponent": env["exponent"], "target": -1.0 / alpha},
                }
        basis_doc = results.get("basis")
        if basis_doc is not None:
            checks["basis_conditioning"] = {"pass": "error" not in basis_doc,
                                            "detail": basis_doc}
        sim = results.get("trajectory")
        if sim is not None:
            checks["trajectory_decay"] = {
                "pass": bool(sim["monotone_decay"] and math.isfinite(sim["prefactor"])),
                "detail": {"prefactor": sim["prefactor"],
                           "monotone_decay": sim["monotone_decay"]},
            }
        return checks

    @staticmethod
    def _print_summary(results: dict) -> None:
        print("== certification report ==")
        for name, check in results["checks"].items():
            status = "SKIP" if check.get("skipped") else ("PASS" if check["pass"] else "FAIL")
            print(f"  {status:4s}  {name}")
        print(f"overall: {'PASS' if results['pass'] else 'FAIL'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsdecay",
        description="Spectral certification and decay-rate verification for "
                    "modal observer error dynamics.",
    )
    parser.add_argument("command", choices=ALL_TASKS, help="the stage to run")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
    parser.add_argument("--n", type=int, default=None,
                        help="override the generator truncation order")
    parser.add_argument("--strict", action="store_true",
                        help="localize: exit 1 when any mode fails to localize")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, out_override=args.out,
                             seed_override=args.seed, n_override=args.n,
                             strict=args.strict)
        pipeline = Pipeline(config)
        if args.command == "report":
            return pipeline.run_report()[0]
        return pipeline.run(args.command)[0]
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except STAGE_ERRORS as exc:  # after ConfigError, itself a ValueError
        print(f"computation failed: {exc}", file=_sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
