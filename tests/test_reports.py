import csv
import json
import math
import os
import struct

import numpy as np
import pytest

from obsdecay.charfn import CharContext, localize
from obsdecay.dynamics import domain_initial_state, simulate_error
from obsdecay.reports import (
    atomic_write,
    jsonable,
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


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        doc = jsonable({
            "f": np.float64(1.5), "i": np.int32(3), "b": np.bool_(True),
            "arr": np.array([1.0, 2.0]), "z": 1 + 2j,
        })
        assert doc == {"f": 1.5, "i": 3, "b": True, "arr": [1.0, 2.0], "z": [1.0, 2.0]}

    def test_non_finite_floats_become_null(self):
        assert jsonable({"a": math.inf, "b": math.nan}) == {"a": None, "b": None}
        json.dumps(jsonable({"a": math.inf}), allow_nan=False)


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
                           "certified", "winding"]
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
