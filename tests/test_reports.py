import csv
import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from obsdecay.charfn import CharContext, localize
from obsdecay.dynamics import domain_initial_state, simulate_error
from obsdecay.reports import (
    atomic_write,
    read_q_binary,
    write_axis_scan_csv,
    write_json,
    write_localization_csv,
    write_q_binary,
    write_spectrum_csv,
    write_spectrum_plot_csv,
    write_trajectory_csv,
)
from obsdecay.resolvent import axis_scan


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def jsonable(obj):
    """Reference oracle for ``write_json``, with ``reference_json``.

    Converts numpy scalars and arrays and tuples to JSON types for
    ``json.dumps(indent=2, sort_keys=True)``.  Only Python floats are checked
    for non-finite values, so it serves as the oracle on finite input alone.
    """
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
        return None
    return obj


def reference_json(doc) -> str:
    return json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"


def written(doc) -> str:
    """Text of ``write_json``'s file for ``doc``, checked against its return value."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        text = write_json(path, doc)
        with open(path, encoding="ascii") as handle:
            assert handle.read() == text
    return text


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), FINITE,
    FINITE.map(np.float64), st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_), st.complex_numbers(allow_nan=False, allow_infinity=False),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.complex128]),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
               elements={"allow_nan": False, "allow_infinity": False}),
)
KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 12))
DOCS = st.dictionaries(KEYS, st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=16))


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        doc = {"f": np.float64(1.5), "i": np.int32(3), "b": np.bool_(True),
               "arr": np.array([1.0, 2.0]), "z": 1 + 2j, "t": (1, "x"), 7: None}
        assert json.loads(written(doc)) == {"f": 1.5, "i": 3, "b": True, "arr": [1.0, 2.0],
                                            "z": [1.0, 2.0], "t": [1, "x"], "7": None}

    def test_non_finite_floats_become_null(self):
        doc = {"a": math.inf, "b": math.nan, "f": np.float64("nan"), "g": np.float32("-inf"),
               "z": complex(math.nan, 1.0), "w": np.complex128(complex(2.0, math.inf)),
               "arr": np.array([1.0, math.nan, -math.inf])}
        back = json.loads(written(doc), parse_constant=reject_constant)
        assert back == {"a": None, "b": None, "f": None, "g": None, "z": [None, 1.0],
                        "w": [2.0, None], "arr": [1.0, None, None]}

    @settings(deadline=None, derandomize=True, database=None)
    @given(DOCS)
    def test_bytes_match_two_pass_reference(self, doc):
        assert written(doc) == reference_json(doc)

    def test_written_text_is_embedded_reindented(self):
        inner = written({"b": [1.0, {"c": "x\ny"}], "a": {}})
        outer = written({"doc": inner, "k": [inner]})
        plain = {"b": [1.0, {"c": "x\ny"}], "a": {}}
        assert outer == reference_json({"doc": plain, "k": [plain]})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            written({"s": {1, 2}})


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "sub" / "x.txt"
        atomic_write(str(target), b"payload")
        assert target.read_text() == "payload"
        assert [p.name for p in (tmp_path / "sub").iterdir()] == ["x.txt"]

    def test_overwrite_is_clean(self, tmp_path):
        target = tmp_path / "x.json"
        write_json(str(target), {"a": 1})
        write_json(str(target), {"a": 2})
        assert json.loads(target.read_text()) == {"a": 2}


class TestCsvWriters:
    def test_spectrum_layout(self, tmp_path, beam4_spectrum):
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(beam4_spectrum, str(path))
        rows = read_rows(path)
        assert rows[0] == ["k", "half", "re_lambda", "im_lambda", "residual",
                           "certified"]
        assert len(rows) == 9
        assert rows[1][1] == "upper" and rows[2][1] == "lower"

    def test_plot_data(self, tmp_path, beam4_spectrum):
        path = tmp_path / "plot.csv"
        write_spectrum_plot_csv(beam4_spectrum, str(path))
        rows = read_rows(path)
        assert rows[0] == ["re", "im"]
        res = [float(r[0]) for r in rows[1:]]
        assert len(res) == 8 and all(v < 0 for v in res)

    def test_localization_layout(self, tmp_path, beam23):
        certs = [localize(CharContext(beam23, k)) for k in (3, 4)]
        path = tmp_path / "loc.csv"
        write_localization_csv(certs, str(path))
        rows = read_rows(path)
        assert rows[0][:7] == ["k", "re_lambda_star", "im_lambda_star", "M", "b",
                               "c", "Rk"]
        assert [r[0] for r in rows[1:]] == ["3", "4"]

    def test_axis_scan_layout(self, tmp_path, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 6))
        path = tmp_path / "scan.csv"
        write_axis_scan_csv(scan, str(path))
        rows = read_rows(path)
        assert rows[0] == ["s", "norm_bound"]
        svals = [float(r[0]) for r in rows[1:]]
        assert svals == sorted(svals)

    def test_trajectory_with_mode_magnitudes(self, tmp_path, beam4):
        eps0 = domain_initial_state(beam4, seed=3)
        traj = simulate_error(beam4, eps0, [0.0, 0.5, 1.0])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path))
        rows = read_rows(path)
        assert rows[0] == ["t", "norm", "mode_1", "mode_2", "mode_3", "mode_4"]
        first = [float(v) for v in rows[1]]
        assert first[1] == pytest.approx(eps0.norm())
        assert first[2] == pytest.approx(
            math.sqrt(abs(eps0.q[0]) ** 2 + abs(eps0.p[0]) ** 2))


class TestQBinaryDump:
    def test_round_trip_and_byte_order(self, tmp_path, beam4_basis):
        path = tmp_path / "q.bin"
        write_q_binary(beam4_basis, str(path))
        assert os.path.getsize(path) == 8 * 8 * 16
        back = read_q_binary(str(path))
        np.testing.assert_array_equal(back, beam4_basis.Q)
        with open(path, "rb") as handle:
            re, im = struct.unpack("<dd", handle.read(16))
        assert re == beam4_basis.Q[0, 0].real
        assert im == beam4_basis.Q[0, 0].imag

    def test_shape_validation(self, tmp_path):
        path = tmp_path / "bad.bin"
        np.arange(3, dtype="<c16").tofile(path)
        with pytest.raises(ValueError):
            read_q_binary(str(path))
