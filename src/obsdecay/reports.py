"""File emitters for certificates, spectra, scans and trajectories.

All writers are atomic (temp file + rename) and deterministic: no
timestamps.  JSON artifacts are strict JSON, with the layout of
``json.dumps(indent=2, sort_keys=True)``: keys are sorted as strings, tuples
and arrays become lists, numpy scalars their Python values, a complex number
``[re, im]``, finite floats their repr and every non-finite float ``null``.
A document is encoded in one walk, except for lists of records: two or more
dicts with the same ``str`` keys (none holding ``%``), each key's values of
one exact scalar type, or lists of one length of such values.  A list of
records is encoded column by column: each column is formatted in one
``map``, the layout of one record is built once, and every record fills it
with ``%``.  The bytes are those of the walk.  ``report.json`` embeds each
task document verbatim, with the text of that task's own file re-indented.

CSV artifacts are joined from formatted columns, with the bytes
``csv.writer`` gives: ``str`` of each field (no field needs quoting) and
``\\r\\n`` line ends.  Layouts:

* localization: k, re_lambda_star, im_lambda_star, M, b, c, Rk + flags
* spectrum: k, half, re_lambda, im_lambda, residual, certified
* spectrum plot data: re, im (one row per eigenvalue)
* axis scan: s, norm_bound
* trajectory: t, norm, |mode 1|, ..., |mode N| magnitudes

``localization.csv`` is formatted from the columns of a
:class:`~obsdecay.charfn.LocalizationReport`, one row per localized mode.
The spectrum CSV files are formatted from the report's upper-root columns:
each lower root's imaginary text is the upper one's with its sign flipped,
since a float's repr is sign-symmetric.  ``spectrum.json`` is a list of
records; each root's ``[re, im]`` list serves as both its ``lambda`` and
its ``disk_center``, and a column of the same objects as an earlier one is
formatted once.
"""

from __future__ import annotations

import math
import os
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

import numpy as np

from .charfn import LocalizationReport
from .dynamics import ErrorTrajectory
from .modal import ModalBasis
from .resolvent import AxisScan
from .spectrum import SpectrumReport

# O_BINARY keeps Windows from translating line ends in the written bytes
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def atomic_write(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place.

    The temp file is created with mode 0o666 under a fresh random name, so
    the kernel applies the umask to it as ``open`` would; the process-wide
    umask is never read or changed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, _TMP_FLAGS, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
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


# encodes to ``%s``: one slot of a record layout (see _records)
_SLOT = _Encoded("%s\n")


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
        parts = _records(obj, inner) if len(obj) > 1 and type(obj[0]) is dict else None
        if parts is None:
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


def _column(values: list | tuple) -> Optional[list[str]]:
    """JSON text of each value, or None unless all have one exact scalar type."""
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is float:
        text = list(map(float.__repr__, values))
        if not all(map(math.isfinite, values)):
            # a finite repr ends in a digit; "nan", "inf" and "-inf" do not
            text = [t if t[-1].isdigit() else "null" for t in text]
        return text
    scalar = _SCALARS.get(kind)
    return None if scalar is None else list(map(scalar, values))


def _records(rows, nl: str) -> Optional[list[str]]:
    """JSON text of each record in ``rows``, column by column; None if they are not records.

    See the module docstring for what a list of records is.  Each column
    is transposed out of the rows and formatted in one pass (a column of
    the same objects as an earlier one reuses its text), the layout of one
    record is encoded once with a ``%s`` slot per scalar, and each row
    fills it.  ``nl`` is as for :func:`_encode`.
    """
    first = rows[0]
    if not all(type(k) is str and "%" not in k for k in first):
        return None
    keys = first.keys()
    if any(type(row) is not dict or row.keys() != keys for row in rows):
        return None
    layout, slots, formatted = {}, [], {}
    for key in sorted(keys):
        col = list(map(itemgetter(key), rows))
        if type(col[0]) in (list, tuple):
            width = len(col[0])
            if any(type(v) not in (list, tuple) or len(v) != width for v in col):
                return None
            layout[key], parts = [_SLOT] * width, zip(*col)
        else:
            layout[key], parts = _SLOT, [col]
        ident = tuple(map(id, col))
        text = formatted.get(ident)
        if text is None:
            text = formatted[ident] = [_column(part) for part in parts]
            if None in text:
                return None
        slots.extend(text)
    template = _encode(layout, nl)
    if not slots:
        return [template] * len(rows)
    return list(map(template.__mod__, zip(*slots)))


def write_json(path: str, doc: dict) -> str:
    """Write ``doc`` as strict JSON (see the module docstring); return the text.

    The returned text, placed as a value in a later document, is embedded
    there verbatim instead of being encoded again.
    """
    text = _Encoded(_encode(doc, "\n") + "\n")
    atomic_write(path, text.encode())
    return text


def _rows(header: list[str], columns) -> bytes:
    """CSV bytes of ``columns`` (equal-length sequences of fields) under ``header``."""
    lines = map(",".join, zip(*[map(str, col) for col in columns]))
    return "\r\n".join([",".join(header), *lines, ""]).encode()


def _pairs(a, b) -> list:
    """``a[0], b[0], a[1], b[1], ...``: an upper and a lower row per mode."""
    return list(chain.from_iterable(zip(a, b)))


def _negated(texts: list[str]) -> list[str]:
    """The repr of ``-x`` for each repr of a float ``x``; a NaN's repr has no sign."""
    return [t[1:] if t[0] == "-" else t if t == "nan" else "-" + t for t in texts]


def _lam_columns(report: SpectrumReport) -> tuple[list[str], list[str]]:
    """Text of Re and Im of every root, in the order of ``report.eigenvalues()``."""
    re = list(map(float.__repr__, report.lam.real.tolist()))
    im = list(map(float.__repr__, report.lam.imag.tolist()))
    return _pairs(re, re), _pairs(im, _negated(im))


def write_localization_csv(report: LocalizationReport, path: str) -> None:
    flags = (report.cond_Mneq1, report.cond_Mneq2, report.interval_ok, report.contained,
             report.separated, report.omega_gt_1)
    columns = [report.k.tolist(), report.lambda_star.real.tolist(),
               report.lambda_star.imag.tolist(), report.M.tolist(), report.b.tolist(),
               report.c_const.tolist(), report.Rk.tolist(),
               *(flag.astype(int).tolist() for flag in flags)]
    atomic_write(path, _rows(["k", "re_lambda_star", "im_lambda_star", "M", "b", "c", "Rk",
                              "cond_Mneq1", "cond_Mneq2", "interval_ok", "contained",
                              "separated", "omega_gt_1"], columns))


def write_spectrum_csv(report: SpectrumReport, path: str) -> None:
    re, im = _lam_columns(report)
    k = list(map(int.__repr__, report.k.tolist()))
    residual = list(map(float.__repr__, report.residual.tolist()))
    certified = ["1" if c else "0" for c in report.certified.tolist()]
    columns = [_pairs(k, k), ["upper", "lower"] * len(k), re, im,
               _pairs(residual, residual), _pairs(certified, certified)]
    atomic_write(path, _rows(["k", "half", "re_lambda", "im_lambda", "residual",
                              "certified"], columns))


def write_spectrum_plot_csv(report: SpectrumReport, path: str) -> None:
    atomic_write(path, _rows(["re", "im"], _lam_columns(report)))


def write_axis_scan_csv(scan: AxisScan, path: str) -> None:
    # the bytes csv.writer gives (it writes a float by its repr), in one join
    rows = "".join(f"{s!r},{v!r}\r\n" for s, v in scan.samples)
    atomic_write(path, ("s,norm_bound\r\n" + rows).encode())


def write_trajectory_csv(traj: ErrorTrajectory, path: str) -> None:
    states = traj.states
    n = states.shape[1] // 2
    header = ["t", "norm"] + [f"mode_{j+1}" for j in range(n)]
    mags = np.sqrt(np.abs(states[:, :n]) ** 2 + np.abs(states[:, n:]) ** 2)
    table = np.column_stack([traj.t, traj.norm, mags])
    row = ",".join(["%r"] * table.shape[1]) + "\r\n"
    text = (row * table.shape[0]) % tuple(table.ravel().tolist())
    atomic_write(path, (",".join(header) + "\r\n" + text).encode())


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
