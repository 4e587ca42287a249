"""Independent reference computations the tests compare the package against.

None of these is on a path the package runs: the dense eigenvalue solve and
the rational form of ``f`` check the Newton/Rouche path and ``charfn.eval_f``
from outside, ``resolvent_norm`` is the resolvent norm from a dense SVD, and
``matching_distance`` compares two eigenvalue multisets.
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
"""

import argparse
import csv
import io
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from obsdecay.dynamics import dense_generator
from obsdecay.fitting import loglog_fit
from obsdecay.resolvent import SEGMENT_BOUND_FACTOR, AxisScan, SegmentBoundChecks

SCAN_COLUMNS = ("k", "s_lo", "s_hi", "center", "sup")
CHECK_COLUMNS = ("k", "sup", "upper", "bound", "applicable", "ok")

DENSE_ORACLE_MAX_N = 64


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
