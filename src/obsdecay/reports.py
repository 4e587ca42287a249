"""File emitters for certificates, spectra, scans and trajectories.

All writers are atomic (temp file + rename) and deterministic: no
timestamps.  JSON artifacts are strict JSON, encoded in one pass with the
layout of ``json.dumps(indent=2, sort_keys=True)``: keys are sorted as
strings, tuples and arrays become lists, numpy scalars their Python values,
a complex number ``[re, im]``, finite floats their repr and every non-finite
float ``null``.  ``report.json`` embeds each task document verbatim, with the
text of that task's own file re-indented.  CSV layouts:

* localization: k, re_lambda_star, im_lambda_star, M, b, c, Rk + flags
* spectrum: k, half, re_lambda, im_lambda, residual, certified
* spectrum plot data: re, im (one row per eigenvalue)
* axis scan: s, norm_bound
* trajectory: t, norm, |mode 1|, ..., |mode N| magnitudes
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .dynamics import ErrorTrajectory
from .modal import ModalBasis
from .resolvent import AxisScan
from .spectrum import SpectrumReport


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place.

    The file gets mode ``0o666 & ~umask``, as ``open`` would create it;
    ``mkstemp`` alone would leave it 0600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            os.fchmod(handle.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Encoded(str):
    """JSON text that :func:`write_json` wrote, trailing newline included.

    As a value inside a later document it is embedded verbatim (re-indented
    to its depth) instead of being encoded again as a JSON string.
    """

    __slots__ = ()


def _float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "null"


# exact scalar types, encoded in place without a recursive call
_SCALARS = {
    float: _float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
}


def _encode(obj, nl: str) -> str:
    """JSON text of ``obj``; ``nl`` is the newline and indent of its closing bracket."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = nl + "  "
    get = _SCALARS.get
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted({str(k): v for k, v in obj.items()}.items())
        parts = [encode_basestring_ascii(k) + ": "
                 + (f(v) if (f := get(type(v))) else _encode(v, inner)) for k, v in items]
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f(v) if (f := get(type(v))) else _encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + nl + "]"
    if isinstance(obj, _Encoded):
        # an encoded string holds no raw newline, so every one is layout
        return obj[:-1].replace("\n", nl)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (float, np.floating)):
        return _float(float(obj))
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _encode([float(obj.real), float(obj.imag)], nl)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: str, doc: dict) -> str:
    """Write ``doc`` as strict JSON (see the module docstring); return the text.

    The returned text, placed as a value in a later document, is embedded
    there verbatim instead of being encoded again.
    """
    text = _Encoded(_encode(doc, "\n") + "\n")
    atomic_write(path, text.encode())
    return text


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
    # the bytes csv.writer gives (it writes a float by its repr), in one join
    rows = "".join(f"{s!r},{v!r}\r\n" for s, v in scan.samples)
    atomic_write(path, ("s,norm_bound\r\n" + rows).encode())


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
