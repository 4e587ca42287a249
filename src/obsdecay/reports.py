"""File emitters for certificates, spectra, scans and trajectories.

All writers are atomic (temp file + rename) and deterministic: no
timestamps.  JSON artifacts are strict JSON, with the layout of
``json.dumps(indent=2, sort_keys=True)``: keys are sorted as strings, tuples
and arrays become lists, numpy scalars their Python values, a complex number
``[re, im]``, finite floats their repr and every non-finite float ``null``.
``report.json`` embeds each task document verbatim, with the text of that
task's own file re-indented.

The tables of the pipeline's reports -- the certificates of
``localization.json``, the roots of ``spectrum.json``, and the bands, suprema
and bound checks of ``axis_scan.json`` -- go into their documents as
:class:`Table` values, made by :func:`localization_doc`, :func:`spectrum_doc`
and :func:`axis_scan_doc` from the columns of the report.  A table holds no
text until :func:`write_json` encodes it: the layout of one row is encoded
once, with a ``%s`` slot per column, and every row fills it.  The rest of a
document is encoded in one walk.  The bytes are those of the row-by-row
documents of the reports' ``to_json_dict`` methods.

Each column of a report -- a localization, spectrum or axis scan report,
or the scan's bound checks -- is formatted once while the report lives
(:func:`_texts` keeps the text in a weak memo keyed by the report), and
its tables and CSV files share that text: the ``str`` that ``csv.writer``
would write (a flag as ``1``/``0``), and the JSON text derived from it
(``null`` for a non-finite float, ``true``/``false`` for a flag).  The
bound checks' table takes its ``k`` and ``sup`` text from the scan.

CSV artifacts are joined from formatted columns, with the bytes
``csv.writer`` gives: ``str`` of each field (no field needs quoting) and
``\\r\\n`` line ends.  Layouts:

* localization: k, re_lambda_star, im_lambda_star, M, b, c, Rk + flags
* spectrum: k, half, re_lambda, im_lambda, residual, certified
* spectrum plot data: re, im (one row per eigenvalue)
* axis scan: k, s_lo, s_hi, center, sup (one row per band)
* trajectory: t, norm, |mode 1|, ..., |mode N| magnitudes

``localization.csv`` has one row per localized mode.  The spectrum files are
formatted from the report's upper-root columns: each lower root's imaginary
text is the upper one's with its sign flipped, since a float's repr is
sign-symmetric.
"""

from __future__ import annotations

import math
import os
import weakref
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .charfn import LocalizationReport
from .dynamics import ErrorTrajectory
from .modal import ModalBasis
from .resolvent import AxisScan, SegmentBoundChecks
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


# encodes to ``%s``: one slot of a row layout (see _table_rows)
_SLOT = _Encoded("%s\n")


class Table:
    """A JSON list of rows of one layout, held as columns until it is encoded.

    ``layout()`` returns the layout of one row: a dict (a record) or a tuple
    (a JSON list) whose values are columns or, nested, such tuples.  A
    column is a list of the JSON text of that value in each row; every
    column has one entry per row, and no key holds ``%``.
    """

    __slots__ = ("layout",)

    def __init__(self, layout: Callable[[], dict | tuple]):
        self.layout = layout


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
    if isinstance(obj, (list, tuple, Table)):
        if type(obj) is Table:
            parts = _table_rows(obj, inner)
        else:
            parts = [f(v) if (f := get(type(v))) else _encode(v, inner) for v in obj]
        if not parts:
            return "[]"
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


def _slotted(layout, columns: list):
    """``layout`` with a slot in place of each column; the columns go to ``columns`` in
    the order their slots take in the encoded layout (keys sorted)."""
    if type(layout) is list:
        columns.append(layout)
        return _SLOT
    if type(layout) is tuple:
        return [_slotted(part, columns) for part in layout]
    return {key: _slotted(layout[key], columns) for key in sorted(layout)}


def _table_rows(table: Table, nl: str) -> list[str]:
    """JSON text of each row of ``table``; ``nl`` is as for :func:`_encode`."""
    columns: list[list[str]] = []
    template = _encode(_slotted(table.layout(), columns), nl)
    if len(set(map(len, columns))) > 1:
        raise ValueError("the columns of a table differ in length")
    return list(map(template.__mod__, zip(*columns)))


def write_json(path: str, doc: dict) -> str:
    """Write ``doc`` as strict JSON (see the module docstring); return the text.

    The returned text, placed as a value in a later document, is embedded
    there verbatim instead of being encoded again.
    """
    text = _Encoded(_encode(doc, "\n") + "\n")
    atomic_write(path, text.encode())
    return text


# ---- formatted report columns ------------------------------------------------


class _Text(NamedTuple):
    """One formatted column: the ``str`` csv.writer writes for each value, and its JSON text."""

    csv: list[str]
    json: list[str]


def _format(values: list) -> _Text:
    """The text of a column of scalars, each column of Python floats, ints or bools in one pass."""
    kinds = set(map(type, values))
    if kinds == {bool}:
        return _Text(["1" if v else "0" for v in values],
                     ["true" if v else "false" for v in values])
    if kinds == {int}:
        text = list(map(int.__repr__, values))
        return _Text(text, text)
    if kinds != {float}:
        return _Text(list(map(str, values)), [_encode(v, "") for v in values])
    text = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        # a finite repr ends in a digit; "nan", "inf" and "-inf" do not
        return _Text(text, [t if t[-1].isdigit() else "null" for t in text])
    return _Text(text, text)


_Report = LocalizationReport | SpectrumReport | AxisScan | SegmentBoundChecks

# formatted columns of each live report; an entry goes when its report is freed
_TEXTS: weakref.WeakKeyDictionary[_Report, dict[str, _Text]] = weakref.WeakKeyDictionary()


def _format_column(report: _Report, column: str) -> _Text:
    """Format one column of ``report``: an array attribute, or its ``.real`` or ``.imag`` part."""
    return _format(attrgetter(column)(report).tolist())


def _texts(report: _Report, column: str) -> _Text:
    """The text of ``column`` of ``report`` (see :func:`_format_column`), formatted once."""
    memo = _TEXTS.setdefault(report, {})
    text = memo.get(column)
    if text is None:
        text = memo[column] = _format_column(report, column)
    return text


def _pairs(a, b) -> list:
    """``a[0], b[0], a[1], b[1], ...``: an upper and a lower row per mode."""
    return list(chain.from_iterable(zip(a, b)))


def _negated(texts: list[str]) -> list[str]:
    """The text of ``-x`` for each text of a float ``x``; NaN and null have no sign."""
    return [t if t in ("nan", "null") else t[1:] if t[0] == "-" else "-" + t for t in texts]


def _lam_columns(report: SpectrumReport, form: str) -> tuple[list[str], list[str]]:
    """``form`` (csv or json) text of Re and Im of every root, in the order of ``eigenvalues()``."""
    re = getattr(_texts(report, "lam.real"), form)
    im = getattr(_texts(report, "lam.imag"), form)
    return _pairs(re, re), _pairs(im, _negated(im))


# ---- task documents ------------------------------------------------------------


def _certificate_rows(report: LocalizationReport) -> dict:
    def col(column: str) -> list[str]:
        return _texts(report, column).json

    def pair(column: str) -> tuple[list[str], list[str]]:
        return col(column + ".real"), col(column + ".imag")

    layout = {name: col(name) for name in (
        "k", "M", "R0", "R1", "b", "c_const", "Rk", "cond_Mneq1", "cond_Mneq2", "interval_ok",
        "contained", "separated", "omega_gt_1", "rouche_ok")}
    layout.update(lambda_star=pair("lambda_star"), F0=pair("F0"), F1=pair("F1"),
                  theta_frac=[_encode(report.theta_frac, "")] * report.k.size)
    return layout


def localization_doc(report: LocalizationReport) -> dict:
    """The ``localization.json`` document: :meth:`LocalizationReport.to_json_dict`'s,
    with the certificates as a :class:`Table` of the report's columns."""
    return {"certificates": Table(partial(_certificate_rows, report)),
            "failed_modes": sorted(report.failures)}


def _root_rows(report: SpectrumReport) -> dict:
    def twice(column: str) -> list[str]:
        text = _texts(report, column).json
        return _pairs(text, text)

    lam = _lam_columns(report, "json")
    return {"k": twice("k"), "half": ['"upper"', '"lower"'] * report.k.size, "lambda": lam,
            "residual": twice("residual"), "disk_center": lam, "disk_radius": twice("radius"),
            "certified": twice("certified"), "newton_iters": twice("newton_iters")}


def spectrum_doc(report: SpectrumReport) -> dict:
    """The ``spectrum.json`` document: :meth:`SpectrumReport.to_json_dict`'s, with the
    roots as a :class:`Table` of the report's columns (an upper and a lower row per mode)."""
    return {"eigs": Table(partial(_root_rows, report)),
            "enclosure_defect": report.enclosure_defect,
            "complete": report.complete,
            "failures": list(report.failures)}


def _band_columns(scan: AxisScan, columns: tuple[str, ...]) -> tuple[list[str], ...]:
    return tuple(_texts(scan, column).json for column in columns)


def _check_rows(scan: AxisScan, checks: SegmentBoundChecks) -> dict:
    layout = {name: _texts(checks, name).json for name in ("upper", "bound", "applicable", "ok")}
    layout.update(k=_texts(scan, "k").json, sup=_texts(scan, "sup").json)
    return layout


def axis_scan_doc(scan: AxisScan, checks: SegmentBoundChecks,
                  alpha_expected: Optional[float] = None) -> dict:
    """The ``axis_scan.json`` document, with the bands, suprema and bound checks as tables.

    It is :meth:`AxisScan.to_json_dict` with ``segment_bound_checks`` (a
    record per band of ``checks``) and ``segment_bounds_ok`` added; the
    latter is null when the checks carry no ``cond`` (no cap is proven).
    ``checks`` must be :func:`~obsdecay.resolvent.segment_bound_checks` of
    ``scan``: its ``k`` and ``sup`` are the scan's (NaN equal to NaN), so
    the check table shares the scan's ``k`` and ``sup`` text.
    """
    if not (np.array_equal(checks.k, scan.k)
            and np.array_equal(checks.sup, scan.sup, equal_nan=True)):
        raise ValueError(f"{checks.k.size} checks for {scan.k.size} bands: "
                         "the checks' k and sup are not the bands'")
    fit = scan.alpha_fit
    return {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2,
            "segments": Table(partial(_band_columns, scan, ("k", "s_lo", "s_hi"))),
            "suprema": Table(partial(_band_columns, scan, ("k", "center", "sup"))),
            "alpha_expected": alpha_expected,
            "segment_bound_checks": Table(partial(_check_rows, scan, checks)),
            "segment_bounds_ok": None if checks.cond is None else bool(checks.ok.all())}


# ---- CSV files -------------------------------------------------------------------


def _rows(header: list[str], columns: list[list[str]]) -> bytes:
    """CSV bytes of the text ``columns`` (one entry per row each) under ``header``."""
    lines = map(",".join, zip(*columns))
    return "\r\n".join([",".join(header), *lines, ""]).encode()


_LOCALIZATION_CSV = {"k": "k", "re_lambda_star": "lambda_star.real",
                     "im_lambda_star": "lambda_star.imag", "M": "M", "b": "b", "c": "c_const",
                     "Rk": "Rk", "cond_Mneq1": "cond_Mneq1", "cond_Mneq2": "cond_Mneq2",
                     "interval_ok": "interval_ok", "contained": "contained",
                     "separated": "separated", "omega_gt_1": "omega_gt_1"}


def write_localization_csv(report: LocalizationReport, path: str) -> None:
    columns = [_texts(report, column).csv for column in _LOCALIZATION_CSV.values()]
    atomic_write(path, _rows(list(_LOCALIZATION_CSV), columns))


def write_spectrum_csv(report: SpectrumReport, path: str) -> None:
    re, im = _lam_columns(report, "csv")
    k, residual, certified = (_texts(report, c).csv for c in ("k", "residual", "certified"))
    columns = [_pairs(k, k), ["upper", "lower"] * len(k), re, im,
               _pairs(residual, residual), _pairs(certified, certified)]
    atomic_write(path, _rows(["k", "half", "re_lambda", "im_lambda", "residual",
                              "certified"], columns))


def write_spectrum_plot_csv(report: SpectrumReport, path: str) -> None:
    atomic_write(path, _rows(["re", "im"], list(_lam_columns(report, "csv"))))


_AXIS_SCAN_CSV = ["k", "s_lo", "s_hi", "center", "sup"]


def write_axis_scan_csv(scan: AxisScan, path: str) -> None:
    columns = [_texts(scan, column).csv for column in _AXIS_SCAN_CSV]
    atomic_write(path, _rows(_AXIS_SCAN_CSV, columns))


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


def read_q_binary(path: str) -> np.ndarray:
    raw = np.fromfile(path, dtype="<c16")
    dim = int(round(raw.size**0.5))
    if dim * dim != raw.size:
        raise ValueError(f"binary dump holds {raw.size} entries, not a {dim}x{dim} matrix")
    return raw.reshape(dim, dim).astype(complex)
