"""Independent reference computations the tests compare the package against.

None of these is on a path the package runs.  The dense eigenvalue solve
checks the Newton/Rouche path from outside, ``resolvent_norm`` is the
resolvent norm from a dense SVD, and ``matching_distance`` compares two
eigenvalue multisets.  ``eval_f`` and ``eval_f_prime`` are f and f' in
``lam`` coordinates, summed mode by mode over ``+/- i omega_j``, against
the package's one pole-local ``spectrum.eval_f``; ``eval_f_rational`` is
the rational form of f.  ``rouche_margin`` samples the paper's dominance
hypothesis ``|g| - |r|`` on an a-priori enclosure circle.
``brute_force_scan`` is the axis scan over the whole band x root table, one
band at a time, and ``dense_nearest_mode`` the first minimum of the whole
``|omegas - x|`` table; the package finds both by sorted search.
``first_order_predictions`` is the paper's ``lambda_star`` of every mode,
which ``localize_modes`` keeps only for the modes that localize.
The artifact oracles give the bytes of ``reports``' CSV writers through
``csv.writer``, row by row, and the ``spectrum.json`` document through the
per-root ``EigenCertificate`` records.  ``segment_bound_checks`` is the
per-band loop over ``LocalizationCertificate`` records that the column
version in ``resolvent`` replaced, its results gathered into the same
columns.  ``axis_scan_json_dict`` is the ``axis_scan.json`` document built
from ``AxisScan.to_json_dict`` and one record per band check, and
``subcommand_parser`` the command line as one subparser per verb.
``simulate_observer`` co-integrates the plant and its observer in the real
coordinates of ``RealState`` (scipy's RK45, through
``obsdecay.dynamics.solve_ivp``): the error it sees must be the error
equation's, whatever the control.
"""

import argparse
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from obsdecay import dynamics
from obsdecay.charfn import _as_complex_array, _check_poles, eval_F
from obsdecay.dynamics import IntegrationError, _check_t_grid, dense_generator
from obsdecay.fitting import loglog_fit
from obsdecay.model import SystemSpec
from obsdecay.resolvent import SEGMENT_BOUND_FACTOR, AxisScan, SegmentBoundChecks
from obsdecay.state import StateVector

SCAN_COLUMNS = ("k", "s_lo", "s_hi", "center", "sup")
CHECK_COLUMNS = ("k", "sup", "upper", "bound", "applicable", "ok")

DENSE_ORACLE_MAX_N = 64
ROUCHE_MARGIN_SAMPLES = 64
# the co-simulation's RK45 tolerances, and its largest step as a fraction of 1/omega_N
RTOL_DEFAULT = 1e-9
ATOL_DEFAULT = 1e-12
MAX_STEP_OMEGA_FRACTION = 0.5


def resolvent_norm(sys, lam) -> float:
    """``||(A - lam I)^{-1}||_2`` from the singular values of the dense shifted generator (N <= 64)."""
    if sys.N > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle is capped at N = {DENSE_ORACLE_MAX_N}, got {sys.N}")
    shifted = dense_generator(sys) - lam * np.eye(2 * sys.N)
    return 1.0 / float(np.linalg.svd(shifted, compute_uv=False)[-1])


def dense_oracle_spectrum(sys):
    """Eigenvalues of the dense real block matrix, via the LAPACK QR solver.

    Independent of the Newton/contour path; for test-scale cross-validation
    only (N <= 64).  Returned sorted by (imag, real).
    """
    if sys.N > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle is capped at N = {DENSE_ORACLE_MAX_N}, got {sys.N}")
    n = sys.N
    omega = np.diag(sys.omegas)
    damped = -sys.gamma * np.outer(sys.cs, sys.cs)
    top = np.hstack([damped, omega])
    bot = np.hstack([-omega, np.zeros((n, n))])
    vals = np.linalg.eigvals(np.vstack([top, bot]))
    return vals[np.lexsort((vals.real, vals.imag))]


def matching_distance(a, b):
    """Largest pairwise distance under the optimal bipartite matching.

    Compares two multisets of eigenvalues without relying on any ordering.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size != b.size:
        raise ValueError("multisets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def band_minima(sys, upper, k_range) -> list[float]:
    """Each band's ``m_k``: its distance to every root of both halves, one band at a time."""
    roots = np.concatenate([upper, np.conj(upper)])
    w = sys.omegas
    minima = []
    for k in range(k_range[0], k_range[1] + 1):
        s_lo = 0.5 * (w[k - 2] + w[k - 1])
        s_hi = 0.5 * (w[k - 1] + w[k])
        gap = np.maximum(np.maximum(s_lo - roots.imag, roots.imag - s_hi), 0.0)
        minima.append(float(np.hypot(roots.real, gap).min()))
    return minima


def brute_force_scan(sys, upper, k_range):
    """Reference axis scan: :func:`band_minima` over the whole band x root table."""
    w = sys.omegas
    k = list(range(k_range[0], k_range[1] + 1))
    s_lo = [0.5 * (w[j - 2] + w[j - 1]) for j in k]
    s_hi = [0.5 * (w[j - 1] + w[j]) for j in k]
    center = [0.5 * (lo + hi) for lo, hi in zip(s_lo, s_hi)]
    sup = [1.0 / m for m in band_minima(sys, upper, k_range)]
    return AxisScan(k=k, s_lo=s_lo, s_hi=s_hi, center=center, sup=sup,
                    alpha_fit=loglog_fit(center, sup))


def dense_nearest_mode(omegas, x) -> np.ndarray:
    """Index of the frequency nearest each ``x``: the first minimum of ``|omegas - x|``."""
    return np.argmin(np.abs(omegas - np.asarray(x, dtype=float)[..., None]), axis=-1)


def first_order_predictions(sys) -> np.ndarray:
    """``lambda_star = i omega_k - F0/F1`` of every mode, F0 and F1 from ``sys.linearization``.

    The quotient is Python's complex division, as in ``localize_modes``.
    """
    f0, f1 = sys.linearization[:2].tolist()
    return np.array([complex(0.0, w) - a / b for w, a, b in zip(sys.omegas.tolist(), f0, f1)])


def eval_f_rational(sys, lam):
    """The rational form 2i (sum_j c_j^2/(omega_j^2 + lam^2) + 1/(gamma lam)) of f."""
    arr = np.asarray(lam, dtype=complex)
    L = arr[..., None]
    val = 2j * (np.sum(sys.cs**2 / (sys.omegas**2 + L**2), axis=-1) + 1.0 / (sys.gamma * arr))
    return complex(val) if np.ndim(lam) == 0 else val


def eval_f(sys, lam):
    """Characteristic function f(lam) in ``lam`` coordinates; scalar or vectorized over lam.

    Summation order is fixed (ascending mode index), so results are
    bitwise reproducible; a point exactly on a pole raises ``PoleError``.
    """
    arr, scalar = _as_complex_array(lam)
    _check_poles(sys, arr)
    iw = sys.iw
    L = arr[..., None]
    # c2_over_w * (1/(L - iw) - 1/(L + iw)), in two reused temporaries
    terms = np.subtract(L, iw)
    np.divide(1.0, terms, out=terms)
    lower = np.add(L, iw)
    np.divide(1.0, lower, out=lower)
    np.subtract(terms, lower, out=terms)
    np.multiply(sys.c2_over_w, terms, out=terms)
    val = terms.sum(axis=-1) + 2j / (sys.gamma * arr)
    return complex(val) if scalar else val


def _square(x: np.ndarray) -> np.ndarray:
    """``x ** 2``, in place when ``x`` has two or more elements.

    numpy squares a lone complex element in place by another loop than
    ``x ** 2`` uses, and the two can round differently.
    """
    return np.square(x, out=x if x.size > 1 else None)


def eval_f_prime(sys, lam):
    """Derivative f'(lam); scalar or vectorized over lam."""
    arr, scalar = _as_complex_array(lam)
    _check_poles(sys, arr)
    iw = sys.iw
    L = arr[..., None]
    # c2_over_w * (-1/(L - iw)**2 + 1/(L + iw)**2), in two reused temporaries
    terms = _square(np.subtract(L, iw))
    np.divide(-1.0, terms, out=terms)
    lower = _square(np.add(L, iw))
    np.divide(1.0, lower, out=lower)
    np.add(terms, lower, out=terms)
    np.multiply(sys.c2_over_w, terms, out=terms)
    val = terms.sum(axis=-1) - 2j / (sys.gamma * arr**2)
    return complex(val) if scalar else val


def rouche_margin(ctx, cert) -> float:
    """Smallest value of |g| - |r| on the enclosure circle.

    ``g`` is the linear part of F at the center, ``r = F - g`` the remainder.
    A positive margin is the dominance hypothesis behind the one-zero
    enclosure, checked directly at the sampled contour points.
    """
    t = 2.0 * np.pi * np.arange(ROUCHE_MARGIN_SAMPLES) / ROUCHE_MARGIN_SAMPLES
    lam = cert.lambda_star + cert.Rk * np.exp(1j * t)
    shift = lam - ctx.center
    g = cert.F0 + shift * cert.F1
    r = eval_F(ctx, lam) - g
    return float(np.min(np.abs(g) - np.abs(r)))


def csv_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``header`` and ``rows``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def localization_csv(certs) -> bytes:
    rows = [
        [c.k, c.lambda_star.real, c.lambda_star.imag, c.M, c.b, c.c_const, c.Rk,
         int(c.cond_Mneq1), int(c.cond_Mneq2), int(c.interval_ok), int(c.contained),
         int(c.separated), int(c.omega_gt_1)]
        for c in certs
    ]
    return csv_bytes(["k", "re_lambda_star", "im_lambda_star", "M", "b", "c", "Rk",
                      "cond_Mneq1", "cond_Mneq2", "interval_ok", "contained",
                      "separated", "omega_gt_1"], rows)


def spectrum_csv(report) -> bytes:
    rows = [[e.k, e.half, e.lam.real, e.lam.imag, e.residual, int(e.certified)]
            for e in report.eigs]
    return csv_bytes(["k", "half", "re_lambda", "im_lambda", "residual", "certified"], rows)


def spectrum_plot_csv(report) -> bytes:
    return csv_bytes(["re", "im"], [[e.lam.real, e.lam.imag] for e in report.eigs])


def axis_scan_csv(scan) -> bytes:
    rows = zip(*(getattr(scan, name).tolist() for name in SCAN_COLUMNS))
    return csv_bytes(list(SCAN_COLUMNS), rows)


def trajectory_csv(traj) -> bytes:
    """One row per time, each mode's magnitude taken from that row alone."""
    n = traj.states.shape[1] // 2
    rows = []
    for i, (t, nv) in enumerate(zip(traj.t, traj.norm)):
        row = traj.states[i]
        mags = np.sqrt(np.abs(row[:n]) ** 2 + np.abs(row[n:]) ** 2)
        rows.append([t, nv] + mags.tolist())
    return csv_bytes(["t", "norm"] + [f"mode_{j+1}" for j in range(n)], rows)


def spectrum_json_dict(report) -> dict:
    """The ``spectrum.json`` document, one ``EigenCertificate`` record per root."""
    return {
        "eigs": [e.to_json_dict() for e in report.eigs],
        "enclosure_defect": report.enclosure_defect,
        "complete": report.complete,
        "failures": list(report.failures),
    }


def segment_bound_checks(scan, certs, cond=None):
    """The cap check of each band, from ``certs``: mode -> ``LocalizationCertificate``.

    ``upper = cond * sup`` must lie under the cap; without ``cond`` it is NaN
    and an applicable cap fails.
    """
    rows = []
    for k, sup in zip(scan.k.tolist(), scan.sup.tolist()):
        needed = [certs.get(j) for j in (k - 1, k, k + 1)]
        applicable = all(c is not None and c.separated for c in needed)
        upper = math.nan if cond is None else cond * sup
        if applicable:
            cap = SEGMENT_BOUND_FACTOR / abs(needed[2].lambda_star.real)
            ok = upper <= cap
        else:
            cap = math.nan
            ok = True
        rows.append((k, sup, upper, cap, applicable, ok))
    columns = zip(*rows) if rows else [[]] * len(CHECK_COLUMNS)
    return SegmentBoundChecks(*map(list, columns), cond=cond)


def check_records(checks) -> list[dict]:
    """One record per band of the check columns ``checks``, its values Python scalars."""
    columns = [getattr(checks, name).tolist() for name in CHECK_COLUMNS]
    return [dict(zip(CHECK_COLUMNS, row)) for row in zip(*columns)]


def axis_scan_json_dict(scan, checks, alpha_expected) -> dict:
    """The ``axis_scan.json`` document: the scan's own, plus one record per check."""
    doc = scan.to_json_dict(alpha_expected=alpha_expected)
    doc["segment_bound_checks"] = check_records(checks)
    doc["segment_bounds_ok"] = (None if checks.cond is None
                                else all(c["ok"] for c in doc["segment_bound_checks"]))
    return doc


def subcommand_parser(verbs) -> argparse.ArgumentParser:
    """The command line with one subparser per verb, each with the same five options."""
    parser = argparse.ArgumentParser(prog="obsdecay")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in verbs:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--strict", action="store_true")
    return parser


@dataclass(frozen=True)
class RealState:
    """Real modal error state: displacement errors Delta, velocity errors delta."""

    Delta: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.Delta, dtype=float)
        d = np.asarray(self.delta, dtype=float)
        if D.ndim != 1 or d.ndim != 1 or D.shape != d.shape:
            raise ValueError("Delta and delta must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(D)) and np.all(np.isfinite(d))):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "Delta", D)
        object.__setattr__(self, "delta", d)

    @property
    def n_modes(self) -> int:
        return self.Delta.size

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.Delta**2) + np.sum(self.delta**2)))

    def to_complex(self) -> StateVector:
        """Map (Delta, delta) -> (q, p) = (Delta + i delta, Delta - i delta)."""
        return StateVector(q=self.Delta + 1j * self.delta, p=self.Delta - 1j * self.delta)


@dataclass(frozen=True)
class ObserverSetup:
    """Plant/observer pair configuration.

    The output-injection gains are fully determined by the system
    (f_j = gamma c_j on the displacement block, zero on the velocity block).
    ``B1`` maps the control vector into the velocity equations; ``u`` is a
    callable t -> control vector, or None for the unforced plant.
    """

    sys: SystemSpec
    B1: Optional[np.ndarray] = None
    u: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        if self.B1 is not None:
            b1 = np.atleast_2d(np.asarray(self.B1, dtype=float))
            if b1.shape[0] != self.sys.N:
                raise ValueError(f"B1 must have {self.sys.N} rows, got {b1.shape[0]}")
            object.__setattr__(self, "B1", b1)
        if self.u is not None and self.B1 is None:
            raise ValueError("a control signal requires an actuator matrix B1")


@dataclass(frozen=True)
class ObserverTrajectory:
    """Co-simulation record: error, plant and observer norms over time."""

    t: np.ndarray
    error_norm: np.ndarray
    plant_norm: np.ndarray
    observer_norm: np.ndarray


def simulate_observer(setup: ObserverSetup, z0: RealState, ztilde0: RealState,
                      t_grid, rtol: float = RTOL_DEFAULT,
                      atol: float = ATOL_DEFAULT) -> ObserverTrajectory:
    """Co-integrate the plant and its observer in real coordinates.

    Integrates through ``obsdecay.dynamics.solve_ivp`` by attribute, so a
    patched ``solve_ivp`` (the benchmark's counter) sees every call.

    The reported error norm is the real-form l2 norm of z - ztilde; it equals
    the complex-form norm of the same error divided by sqrt(2).  The control
    enters plant and observer identically, so the error trace is independent
    of u.
    """
    sys = setup.sys
    n = sys.N
    if z0.n_modes != n or ztilde0.n_modes != n:
        raise ValueError("initial states must match the system size")
    t = _check_t_grid(t_grid)
    w = sys.omegas
    c = sys.cs
    gamma_c = sys.gamma * c
    b1 = setup.B1
    u = setup.u

    def rhs(tt, y):
        xi, eta, xi_o, eta_o = np.split(y, 4)
        force = b1 @ np.atleast_1d(u(tt)) if u is not None else 0.0
        y_meas = np.dot(c, xi)
        d_xi = w * eta
        d_eta = -w * xi + force
        d_xi_o = w * eta_o + gamma_c * (y_meas - np.dot(c, xi_o))
        d_eta_o = -w * xi_o + force
        return np.concatenate([d_xi, d_eta, d_xi_o, d_eta_o])

    y0 = np.concatenate([z0.Delta, z0.delta, ztilde0.Delta, ztilde0.delta])
    sol = dynamics.solve_ivp(
        rhs, (0.0, float(t[-1])), y0, method="RK45", t_eval=t,
        rtol=rtol, atol=atol, max_step=MAX_STEP_OMEGA_FRACTION / float(w[-1]),
    )
    if not sol.success:
        reached = sol.t[-1] if sol.t.size else 0.0
        raise IntegrationError(f"co-simulation stalled at t = {reached}: {sol.message}")
    blocks = np.split(sol.y, 4, axis=0)
    plant = np.vstack([blocks[0], blocks[1]])
    obs = np.vstack([blocks[2], blocks[3]])
    err = plant - obs
    return ObserverTrajectory(
        t=t,
        error_norm=np.linalg.norm(err, axis=0),
        plant_norm=np.linalg.norm(plant, axis=0),
        observer_norm=np.linalg.norm(obs, axis=0),
    )
