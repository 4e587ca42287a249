import csv
import dataclasses
import json
import math
import os
import stat
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from obsdecay import beam_example, full_spectrum
from obsdecay.charfn import LocalizationReport, localize_modes
from obsdecay.dynamics import domain_initial_state, simulate_error
from obsdecay.fitting import LogLogFit
from obsdecay.model import SystemSpec
from obsdecay.reports import (
    Table,
    atomic_write,
    axis_scan_doc,
    localization_doc,
    read_q_binary,
    spectrum_doc,
    write_axis_scan_csv,
    write_json,
    write_localization_csv,
    write_q_binary,
    write_spectrum_csv,
    write_spectrum_plot_csv,
    write_trajectory_csv,
)
from obsdecay.resolvent import AxisScan, SegmentBoundChecks, axis_scan, segment_bound_checks
from obsdecay.spectrum import SpectrumReport


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def jsonable(obj):
    """Reference oracle for ``write_json``, with ``reference_json``.

    Converts numpy scalars and arrays and tuples to JSON types for
    ``json.dumps(indent=2, sort_keys=True)``; every non-finite float, numpy
    ones included, becomes None, so it serves as the oracle on any input.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [jsonable(obj.real), jsonable(obj.imag)]
    return obj


def reference_json(doc) -> str:
    return json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"


def written(doc) -> str:
    """Text of ``write_json``'s file for ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        write_json(path, doc)
        with open(path, encoding="ascii") as handle:
            return handle.read()


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
# record columns: non-finite floats, -0.0, numpy scalars, and strings with % or newlines
COLUMN_KINDS = (
    st.floats(), st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64), st.integers(), st.booleans(), st.none(),
    st.booleans().map(np.bool_), st.text(alphabet="a%s\n\"\\\u00e9", max_size=5),
)
MIXED = st.one_of(*COLUMN_KINDS)


@st.composite
def record_lists(draw):
    """2-6 dicts with one key set, mostly with values of one kind (or width) per key.

    Now and then a key holds ``%`` or is not a string, a column mixes kinds
    or widths, or one record lists its keys in another order.
    """
    keys = draw(st.lists(st.text(max_size=3), max_size=4, unique=True))
    if keys and draw(st.integers(0, 3)) == 0:
        keys[0] = draw(st.sampled_from(["%", "%s", "a%d", 0]))
        keys = list(dict.fromkeys(keys))
    n = draw(st.integers(2, 6))
    columns = []
    for _ in keys:
        kind = draw(st.sampled_from(COLUMN_KINDS + (MIXED,)))
        shape = draw(st.sampled_from(["scalar", "scalar", "list", "tuple", "ragged"]))
        if shape == "scalar":
            values = kind
        elif shape == "ragged":
            values = st.lists(kind, max_size=2)
        else:
            width = draw(st.integers(0, 3))
            values = st.lists(kind, min_size=width, max_size=width)
            if shape == "tuple":
                values = values.map(tuple)
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    rows = [{key: col[i] for key, col in zip(keys, columns)} for i in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        rows[i] = dict(reversed(list(rows[i].items())))
    return rows


DOCS = st.dictionaries(KEYS, st.recursive(
    st.one_of(SCALARS, record_lists()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=16))


def spectrum_with_edge_values():
    """A report whose columns hold what full_spectrum seldom gives: NaN, inf, -0.0, tiny values."""
    return SpectrumReport(
        k=[1, 2, 3, 4, 5, 6],
        mu=[complex(-1.0, -1.0), complex(-2.0, -2.0), complex(-1e-300, 1e-7 - 3.0),
            complex(-3.0, math.inf), complex(math.nan, math.nan), complex(-0.5, -6.0)],
        lam=[complex(-1.0, 0.0), complex(-2.0, -0.0), complex(-1e-300, 1e-7),
             complex(-3.0, math.inf), complex(math.nan, math.nan), complex(-0.5, -5e-324)],
        residual=[math.nan, 0.0, 1e-15, math.inf, 2.5, 1e300],
        radius=[math.nan, 0.1, math.nan, 0.0, math.nan, 1e-12],
        certified=[False, True, False, True, False, True],
        newton_iters=[0, 1, 2, 3, 4, 100],
        enclosure_defect=math.nan, complete=False, failures=("mode 1: %s\n\"x\"",))


# what full_spectrum and localize_modes seldom give: NaN, inf, -0.0, subnormal and huge values
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -1e300, 0.1 + 0.2]
EDGE_COMPLEX = [complex(a, b) for a, b in zip(EDGE_FLOATS, reversed(EDGE_FLOATS))]


def localization_with_edge_values(rows=len(EDGE_FLOATS)):
    """A report of ``rows`` rows (up to 7) over the edge values, with failed modes."""
    floats = {name: np.roll(EDGE_FLOATS, i)[:rows]
              for i, name in enumerate(["M", "R0", "R1", "b", "c_const", "Rk"])}
    complexes = {name: np.roll(EDGE_COMPLEX, i)[:rows]
                 for i, name in enumerate(["lambda_star", "F0", "F1"])}
    flags = {name: (np.arange(rows) + i) % 3 == 0 for i, name in enumerate(
        ["cond_Mneq1", "cond_Mneq2", "interval_ok", "contained", "separated", "omega_gt_1"])}
    return LocalizationReport(k=np.arange(rows) + 3, **floats, **complexes, **flags,
                              theta_frac=0.5, failures={2: "mode 2: %s", 1: "mode 1"})


def scan_with_edge_values(bands=len(EDGE_FLOATS)):
    """An axis scan of ``bands`` bands (up to 7) over the edge values, with its checks
    (which carry a ``cond`` unless ``bands`` is even)."""
    ks = list(range(4, 4 + bands))
    lo, hi, center, sup, bound, upper = (np.roll(EDGE_FLOATS, i)[:bands].tolist()
                                         for i in range(6))
    scan = AxisScan(k=ks, s_lo=lo, s_hi=hi, center=center, sup=sup,
                    alpha_fit=LogLogFit(math.nan, -0.0, math.inf))
    checks = SegmentBoundChecks(k=ks, sup=sup, upper=upper, bound=bound,
                                applicable=[i % 2 == 0 for i in range(bands)],
                                ok=[i % 3 != 0 for i in range(bands)],
                                cond=None if bands % 2 == 0 else 2.0)
    return scan, checks


class TestTable:
    def test_rows_of_records_and_lists(self):
        table = Table(lambda: {"b": ["1", "2"], "a": (["true", "false"], ["null", "3.5"])})
        doc = {"t": table, "u": [Table(lambda: (["1"], ['"x"']))], "e": Table(lambda: {"a": []})}
        assert written(doc) == reference_json({
            "t": [{"a": [True, None], "b": 1}, {"a": [False, 3.5], "b": 2}],
            "u": [[[1, "x"]]], "e": []})

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            written({"t": Table(lambda: {"a": ["1"], "b": ["1", "2"]})})


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

    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(DOCS)
    def test_bytes_match_two_pass_reference(self, doc):
        assert written(doc) == reference_json(doc)

    def test_records_with_percent_keys_and_reordered_keys(self):
        rows = [{"%s": 1.5, "a": [math.nan, -0.0], "b": "50%\n"},
                {"b": "%d", "a": [math.inf, 2.0], "%s": -0.0},
                {"%s": 1e-300, "a": [0.1, -math.inf], "b": ""}]
        plain = [{"a": [1, np.float64(2.0)], "b": (True, None)}, {"b": (False, None), "a": [3, 4.0]}]
        doc = {"rows": rows, "plain": plain, "swapped": [rows[1], rows[0]], "one": rows[:1]}
        assert written(doc) == reference_json(doc)

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

    def test_process_umask_is_not_touched(self, tmp_path, monkeypatch):
        # setting the umask to read it would change it for every thread meanwhile
        def forbidden(mask):
            raise AssertionError("atomic_write changed the process umask")

        monkeypatch.setattr(os, "umask", forbidden)
        atomic_write(str(tmp_path / "x.bin"), b"x")
        assert (tmp_path / "x.bin").read_bytes() == b"x"

    def test_mode_follows_the_umask(self, tmp_path):
        # as open() would create it: 0o666 & ~umask, not mkstemp's 0600
        old = os.umask(0o022)
        try:
            write_json(str(tmp_path / "a.json"), {"a": 1})
            os.umask(0o027)
            atomic_write(str(tmp_path / "b.bin"), b"x")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "a.json").st_mode) == 0o644
        assert stat.S_IMODE(os.stat(tmp_path / "b.bin").st_mode) == 0o640


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
        path = tmp_path / "loc.csv"
        write_localization_csv(localize_modes(beam23, [4, 3]), str(path))
        rows = read_rows(path)
        assert rows[0][:7] == ["k", "re_lambda_star", "im_lambda_star", "M", "b",
                               "c", "Rk"]
        assert [r[0] for r in rows[1:]] == ["3", "4"]

    def test_axis_scan_layout(self, tmp_path, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 6))
        path = tmp_path / "scan.csv"
        write_axis_scan_csv(scan, str(path))
        rows = read_rows(path)
        assert rows[0] == ["k", "s_lo", "s_hi", "center", "sup"]
        assert [r[0] for r in rows[1:]] == ["3", "4", "5", "6"]
        assert [float(r[4]) for r in rows[1:]] == scan.sup.tolist()

    @pytest.mark.parametrize("bands", [0, 1, 7])
    def test_axis_scan_bytes_match_csv_writer(self, tmp_path, beam23, beam23_spectrum, bands):
        path = tmp_path / "scan.csv"
        for scan in (axis_scan(beam23, beam23_spectrum, (3, 20)),
                     scan_with_edge_values(bands)[0]):
            write_axis_scan_csv(scan, str(path))
            assert path.read_bytes() == oracles.axis_scan_csv(scan)

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


class TestArtifactBytesMatchOracles:
    """The column writers against the row-by-row csv.writer and per-record oracles."""

    @pytest.fixture(scope="class", params=[1.0, 2.0, 100.0], ids=lambda g: f"gamma{g:g}")
    def beam_spectrum(self, request):
        # gamma 2 and 100 leave an uncertified near-real root (Im ~ 1e-14 and 1e-7)
        system = beam_example(1.0, 1.0, 23, gamma=request.param)
        return system, full_spectrum(system)

    @staticmethod
    def check_spectrum(rep, tmp_path):
        write_spectrum_csv(rep, str(tmp_path / "spectrum.csv"))
        write_spectrum_plot_csv(rep, str(tmp_path / "plot.csv"))
        expected = reference_json(oracles.spectrum_json_dict(rep))
        assert written(spectrum_doc(rep)) == expected
        assert written(rep.to_json_dict()) == expected
        assert (tmp_path / "spectrum.csv").read_bytes() == oracles.spectrum_csv(rep)
        assert (tmp_path / "plot.csv").read_bytes() == oracles.spectrum_plot_csv(rep)

    @staticmethod
    def check_localization(loc, tmp_path):
        write_localization_csv(loc, str(tmp_path / "loc.csv"))
        assert written(localization_doc(loc)) == reference_json(loc.to_json_dict())
        assert (tmp_path / "loc.csv").read_bytes() == oracles.localization_csv(
            loc.certificates.values())

    @staticmethod
    def check_axis_scan(scan, checks, alpha):
        assert written(axis_scan_doc(scan, checks, alpha)) == reference_json(
            oracles.axis_scan_json_dict(scan, checks, alpha))

    def test_spectrum_artifacts(self, beam_spectrum, tmp_path):
        system, rep = beam_spectrum
        self.check_spectrum(rep, tmp_path)
        assert rep.to_json_dict()["eigs"] == [e.to_json_dict() for e in rep.eigs]

    def test_localization_and_axis_scan_artifacts(self, beam_spectrum, tmp_path):
        # modes 1 and 2 fail to localize, so the bands next to them have no bound
        system, rep = beam_spectrum
        loc = localize_modes(system, range(1, system.N + 1))
        assert loc.failures
        self.check_localization(loc, tmp_path)
        scan = axis_scan(system, rep, (2, system.N - 1))
        checks = segment_bound_checks(scan, loc)
        assert not checks.applicable.all()
        for alpha in (1.0, None):
            self.check_axis_scan(scan, checks, alpha)

    def test_spectrum_artifacts_at_edge_values(self, tmp_path):
        rep = spectrum_with_edge_values()
        self.check_spectrum(rep, tmp_path)
        # NaN fields compare unequal to themselves, so compare their text
        assert repr(rep.to_json_dict()["eigs"]) == repr([e.to_json_dict() for e in rep.eigs])

    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_localization_at_edge_values(self, rows, tmp_path):
        self.check_localization(localization_with_edge_values(rows), tmp_path)

    @pytest.mark.parametrize("bands", [0, 1, 7])
    def test_axis_scan_at_edge_values(self, bands):
        scan, checks = scan_with_edge_values(bands)
        self.check_axis_scan(scan, checks, math.nan)

    def test_inline_system(self, beam23):
        inline = SystemSpec.from_json_dict({"gamma": 0.5, "modes": [
            {"omega": float(w), "c": float(c)} for w, c in zip(beam23.omegas, beam23.cs)]})
        for system in (inline, beam23):
            assert written(system.to_json_dict()) == reference_json(system.to_json_dict())

    def test_axis_scan_checks_must_match_the_bands(self):
        scan, checks = scan_with_edge_values(3)
        short = dataclasses.replace(checks, **{name: getattr(checks, name)[:2]
                                               for name in oracles.CHECK_COLUMNS})
        with pytest.raises(ValueError, match="2 checks for 3 bands"):
            axis_scan_doc(scan, short)

    @pytest.fixture(scope="class")
    def scans_and_checks(self):
        """Bands 3..20 of beam N = 23 at gamma 1 and 2, each scan with its bound checks."""
        out = {}
        for gamma in (1.0, 2.0):
            system = beam_example(1.0, 1.0, 23, gamma=gamma)
            scan = axis_scan(system, full_spectrum(system), (3, 20))
            out[gamma] = scan, segment_bound_checks(scan, localize_modes(system, range(1, 24)))
        return out

    def test_axis_scan_checks_of_another_scan_rejected(self, scans_and_checks):
        # same bands, but the gamma = 2 checks were computed for that scan's suprema
        scan, checks = scans_and_checks[1.0]
        other = scans_and_checks[2.0][1]
        assert other.k.tolist() == scan.k.tolist() and other.sup[0] != scan.sup[0]
        axis_scan_doc(scan, checks)
        with pytest.raises(ValueError, match="18 checks for 18 bands: the checks' k and sup"):
            axis_scan_doc(scan, other)

    def test_axis_scan_checks_out_of_band_order_rejected(self, scans_and_checks):
        # rotated by one band, row 0 would pair band 3 with band 4's bound
        scan, checks = scans_and_checks[1.0]
        rotated = dataclasses.replace(checks, **{name: np.roll(getattr(checks, name), -1)
                                                 for name in oracles.CHECK_COLUMNS})
        with pytest.raises(ValueError, match="18 checks for 18 bands: the checks' k and sup"):
            axis_scan_doc(scan, rotated)

    def test_empty_spectrum(self, tmp_path):
        rep = SpectrumReport(k=[], mu=[], lam=[], residual=[], radius=[],
                             certified=[], newton_iters=[], enclosure_defect=0.0,
                             complete=False)
        self.check_spectrum(rep, tmp_path)

    def test_trajectory(self, tmp_path, beam23, beam23_basis):
        eps0 = domain_initial_state(beam23, seed=11)
        t_grid = np.concatenate([[0.0], np.geomspace(0.01, 10.0, 80)])
        traj = simulate_error(beam23, eps0, t_grid, basis=beam23_basis)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, str(path))
        assert path.read_bytes() == oracles.trajectory_csv(traj)


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
