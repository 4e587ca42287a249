"""File emitters for certificates, spectra, scans and trajectories.

All writers are atomic (temp file + rename) and deterministic: no
timestamps, keys sorted, floats rendered with repr.  CSV layouts:

* localization: k, re_lambda_star, im_lambda_star, M, b, c, Rk + flags
* spectrum: k, half, re_lambda, im_lambda, residual, certified
* spectrum plot data: re, im (one row per eigenvalue)
* axis scan: s, norm_bound
* trajectory: t, norm, |mode 1|, ..., |mode N| magnitudes
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from typing import Optional

import numpy as np

from .dynamics import ErrorTrajectory
from .modal import ModalBasis
from .resolvent import AxisScan
from .spectrum import SpectrumReport


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples to JSON-safe types."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return None  # strict-JSON stand-in for nan/inf
    return obj


def atomic_write(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc: dict) -> None:
    text = json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode())


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue().encode())


def write_localization_csv(certs, path: str) -> None:
    rows = [
        [c.k, c.lambda_star.real, c.lambda_star.imag, c.M, c.b, c.c_const, c.Rk,
         int(c.cond_Mneq1), int(c.cond_Mneq2), int(c.interval_ok), int(c.contained),
         int(c.separated), int(c.omega_gt_1)]
        for c in certs
    ]
    _write_csv(path, ["k", "re_lambda_star", "im_lambda_star", "M", "b", "c", "Rk",
                      "cond_Mneq1", "cond_Mneq2", "interval_ok", "contained",
                      "separated", "omega_gt_1"], rows)


def write_spectrum_csv(report: SpectrumReport, path: str) -> None:
    rows = [
        [e.k, e.half, e.lam.real, e.lam.imag, e.residual, int(e.certified)]
        for e in report.eigs
    ]
    _write_csv(path, ["k", "half", "re_lambda", "im_lambda", "residual",
                      "certified"], rows)


def write_spectrum_plot_csv(report: SpectrumReport, path: str) -> None:
    rows = [[e.lam.real, e.lam.imag] for e in report.eigs]
    _write_csv(path, ["re", "im"], rows)


def write_axis_scan_csv(scan: AxisScan, path: str) -> None:
    _write_csv(path, ["s", "norm_bound"], [[s, v] for s, v in scan.samples])


def write_trajectory_csv(traj: ErrorTrajectory, path: str) -> None:
    n = traj.states.shape[1] // 2
    header = ["t", "norm"] + [f"mode_{j+1}" for j in range(n)]
    rows = []
    for i, (t, nv) in enumerate(zip(traj.t, traj.norm)):
        row = traj.states[i]
        mags = np.sqrt(np.abs(row[:n]) ** 2 + np.abs(row[n:]) ** 2)
        rows.append([t, nv] + mags.tolist())
    _write_csv(path, header, rows)


def write_q_binary(basis: ModalBasis, path: str) -> None:
    """Dump Q row-major as little-endian float64 pairs (re, im interleaved)."""
    atomic_write(path, np.ascontiguousarray(basis.Q).astype("<c16").tobytes(order="C"))


def read_q_binary(path: str, dim: Optional[int] = None) -> np.ndarray:
    raw = np.fromfile(path, dtype="<c16")
    if dim is None:
        dim = int(round(raw.size**0.5))
    if dim * dim != raw.size:
        raise ValueError(f"binary dump holds {raw.size} entries, not a {dim}x{dim} matrix")
    return raw.reshape(dim, dim).astype(complex)
