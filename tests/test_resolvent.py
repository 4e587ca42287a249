import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import load_bench_workloads, perturbed_beam_family
from obsdecay.charfn import PoleError, localize_modes
from obsdecay.dynamics import dense_generator
from obsdecay.modal import build_basis
from obsdecay.model import SystemSpec, beam_example, build_system
from obsdecay.resolvent import (
    SpectrumProximityError,
    _band_windows,
    apply_resolvent,
    axis_scan,
    segment_bound_checks,
)
from obsdecay.spectrum import full_spectrum
from obsdecay.state import StateVector


def random_state(n, rng):
    return StateVector(
        q=rng.normal(size=n) + 1j * rng.normal(size=n),
        p=rng.normal(size=n) + 1j * rng.normal(size=n),
    )


def round_trip_residual(sys, lam, eps, rhs):
    """``|(A - lam I) eps - rhs|`` with the dense generator: a matrix-free
    ``A eps - lam eps`` cancels two terms of size ``|A| |eps|`` and would
    measure that cancellation, not the solve."""
    shifted = dense_generator(sys) - lam * np.eye(2 * sys.N)
    return np.linalg.norm(shifted @ eps.to_array() - rhs.to_array())


NEAR_POLE_SYSTEMS = [beam_example(1.0, 1.0, 23)] + perturbed_beam_family(3, 4)


SCAN_COLUMNS = oracles.SCAN_COLUMNS


def columns_text(report, names=SCAN_COLUMNS):
    """``repr`` of each named column's values: equal text is bitwise equal, NaN included."""
    return {name: repr(getattr(report, name).tolist()) for name in names}


def distance_to(roots, s):
    """``d(s)``: the distance from ``is`` to the nearest of ``roots``."""
    return float(np.min(np.abs(roots - 1j * s)))


def assert_matches_band_by_band(sys, spectrum):
    """The scan of every band, and of all but the outer two, bitwise against the whole table."""
    for k_range in ((3, sys.N - 3), (2, sys.N - 1)):
        if k_range[1] - k_range[0] < 2:
            continue
        scan = axis_scan(sys, spectrum, k_range)
        expected = oracles.brute_force_scan(sys, spectrum.lam, k_range)
        assert columns_text(scan) == columns_text(expected)
        assert scan.alpha_fit == expected.alpha_fit


class UpperRoots:
    """Stands in for a SpectrumReport: the axis scan reads only its ``lam`` column."""

    def __init__(self, upper):
        self.lam = np.asarray(upper, dtype=complex)


SCAN_SYSTEMS = [beam_example(1.0, 1.0, n, gamma=g)
                for n in (23, 64, 256) for g in (0.3, 1.0, 3.0)]
SCAN_SYSTEMS += [beam_example(1.0, 1.0, 1024)]
SCAN_SYSTEMS += [s for s in perturbed_beam_family(5, 8) if s.N >= 5]


@st.composite
def small_systems(draw):
    """Random systems of 1..6 modes with signed couplings of mixed size."""
    n = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    sizes = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    gamma = draw(st.floats(0.05, 5.0))
    return build_system(gamma, np.cumsum(gaps), np.multiply(sizes, signs))


@st.composite
def scan_cases(draw):
    """A frequency ladder, a band range of it and upper roots that stress the scan's windows.

    The roots: one at each mode frequency with a run of modes left out (so a band's
    nearest root can lie several bands away), roots at band ends and one ulp beside
    them, roots on the axis and on the real axis, roots anywhere, and twins that
    share an earlier root's imaginary part.
    """
    n = draw(st.integers(5, 12))
    sys = build_system(1.0, np.cumsum(draw(st.lists(st.floats(0.1, 10.0), min_size=n,
                                                    max_size=n))), np.ones(n))
    w = sys.omegas
    ends = 0.5 * (w[:-1] + w[1:])  # band k spans [ends[k - 2], ends[k - 1]]
    k_min = draw(st.integers(2, n - 3))
    k_range = (k_min, draw(st.integers(k_min + 2, n - 1)))
    rates = st.one_of(st.just(0.0), st.floats(1e-9, 1e3))
    lo, hi = draw(st.integers(0, n)), draw(st.integers(0, n))
    upper = [complex(-draw(rates), wk) for j, wk in enumerate(w.tolist())
             if not min(lo, hi) <= j < max(lo, hi)]
    for kind in draw(st.lists(st.sampled_from(("end", "axis", "real", "any")), max_size=6)):
        if kind == "end":
            im = float(draw(st.sampled_from(ends.tolist())))
            im = float(np.nextafter(im, draw(st.sampled_from((-np.inf, im, np.inf)))))
        elif kind == "axis":
            im = draw(st.floats(0.0, 3.0 * w[-1]))
        else:
            im = 0.0 if kind == "real" else draw(st.floats(-1.5 * w[-1], 1.5 * w[-1]))
        upper.append(complex(0.0 if kind == "axis" else -draw(rates), im))
    assume(upper)
    for i in draw(st.lists(st.integers(0, len(upper) - 1), max_size=3)):
        upper.append(complex(-draw(rates), upper[i].imag))
    return sys, k_range, np.array(upper, dtype=complex)


@st.composite
def resolvent_points(draw, sys):
    """An exact mode frequency, a point near one, or a generic point."""
    kind = draw(st.sampled_from(("pole", "near", "generic")))
    if kind == "generic":
        top = 1.2 * sys.omegas[-1]
        return complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-top, top)))
    pole = draw(st.sampled_from((1j, -1j))) * draw(st.sampled_from(sys.omegas.tolist()))
    if kind == "pole":
        return pole
    step = 10.0 ** -draw(st.floats(4.0, 14.0))
    return pole + step * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))


def resolvent_per_call(sys, lam, rhs):
    """The resolvent formula with its stacked arrays built on every call, as a reference."""
    lam = complex(lam)
    iw = 1j * sys.omegas
    d = np.concatenate([-iw - lam, iw - lam])
    c = np.concatenate([sys.cs, sys.cs])
    r = rhs.to_array()
    g = 0.5 * sys.gamma
    m = int(np.abs(d).argmin())
    dm, cm, rm = d[m], c[m], r[m]
    d[m] = np.inf
    cd = c / d
    den = dm * (1.0 - g * (c @ cd)) - g * cm * cm
    phi = (cm * rm + dm * (cd @ r)) / den
    x = (r + g * c * phi) / d
    x[m] = (phi - c @ x) / cm
    return x


class TestApplyResolvent:
    def test_bitwise_equal_to_per_call_formula(self):
        """Every point of the benchmark's random families 1-3, the poles +/- i omega_k included."""
        for case in [c for seed in (1, 2, 3) for c in load_bench_workloads().random_family(seed)]:
            sys = SystemSpec.from_json_dict(case.doc)
            for lam in case.points:
                got = apply_resolvent(sys, lam, case.rhs).to_array()
                assert got.tobytes() == resolvent_per_call(sys, lam, case.rhs).tobytes(), lam

    def test_round_trip_at_fixed_point(self, beam4):
        rng = np.random.default_rng(11)
        rhs = random_state(4, rng)
        eps = apply_resolvent(beam4, 1.0 + 1.0j, rhs)
        assert round_trip_residual(beam4, 1.0 + 1.0j, eps, rhs) <= 1e-10 * rhs.norm()

    def test_round_trip_random_draws(self, beam4, beam4_spectrum):
        rng = np.random.default_rng(12)
        eigs = beam4_spectrum.eigenvalues()
        done = 0
        while done < 100:
            lam = complex(rng.uniform(-2, 2), rng.uniform(-20, 20))
            if lam == 0 or np.min(np.abs(eigs - lam)) < 1e-3:
                continue
            rhs = random_state(4, rng)
            eps = apply_resolvent(beam4, lam, rhs)
            assert round_trip_residual(beam4, lam, eps, rhs) <= 1e-10 * rhs.norm()
            done += 1

    def test_zero_rhs_maps_to_zero(self, beam4):
        out = apply_resolvent(beam4, 0.7 + 3.0j, StateVector.zero(4))
        assert out.norm() == 0.0

    def test_upper_pole_defining_equations(self, beam4):
        # lam = i omega_2: the scalar constraint plus the two regular families
        rng = np.random.default_rng(13)
        rhs = random_state(4, rng)
        k = 2
        lam = 1j * beam4.omegas[k - 1]
        out = apply_resolvent(beam4, lam, rhs)
        c, w, g = beam4.cs, beam4.omegas, beam4.gamma
        phi = np.sum(c * (out.q + out.p))
        # constraint row replacing the p_k equation
        assert abs(-0.5 * g * c[k - 1] * phi - rhs.p[k - 1]) <= 1e-10
        # q rows
        np.testing.assert_allclose(
            -0.5 * g * c * phi - (1j * w + lam) * out.q, rhs.q, atol=1e-10)
        # p rows away from the pivot
        mask = np.arange(4) != k - 1
        np.testing.assert_allclose(
            (-0.5 * g * c * phi + (1j * w - lam) * out.p)[mask], rhs.p[mask], atol=1e-10)
        # explicit pivot formula
        pivot = -(2.0 / (g * c[k - 1]) * rhs.p[k - 1]
                  + np.sum(c * out.q) + np.sum(c[mask] * out.p[mask])) / c[k - 1]
        assert abs(out.p[k - 1] - pivot) <= 1e-12 * max(1.0, abs(pivot))
        # and the dense operator agrees
        assert round_trip_residual(beam4, lam, out, rhs) <= 1e-10 * rhs.norm()

    def test_lower_pole_defining_equations(self, beam4):
        rng = np.random.default_rng(14)
        rhs = random_state(4, rng)
        k = 3
        lam = -1j * beam4.omegas[k - 1]
        out = apply_resolvent(beam4, lam, rhs)
        c, g = beam4.cs, beam4.gamma
        phi = np.sum(c * (out.q + out.p))
        assert abs(-0.5 * g * c[k - 1] * phi - rhs.q[k - 1]) <= 1e-10
        assert round_trip_residual(beam4, lam, out, rhs) <= 1e-10 * rhs.norm()

    def test_first_resolvent_identity(self, beam4):
        rng = np.random.default_rng(15)
        lam1, lam2 = 1.5 + 2.5j, -0.5 - 7.0j
        for _ in range(10):
            v = random_state(4, rng)
            lhs = (apply_resolvent(beam4, lam1, v).to_array()
                   - apply_resolvent(beam4, lam2, v).to_array())
            inner = apply_resolvent(beam4, lam2, v)
            rhs = (lam1 - lam2) * apply_resolvent(beam4, lam1, inner).to_array()
            assert np.linalg.norm(lhs - rhs) <= 1e-8

    def test_continuous_through_the_pole(self, beam4):
        # R(lam0 + h) = R(lam0) + h R(lam0)^2 + O(h^2) in all eight
        # components, the pivot row (p_2 at +i omega_2, q_3 at -i omega_3)
        # included
        rng = np.random.default_rng(16)
        rhs = random_state(4, rng)
        for lam0 in (1j * beam4.omegas[1], -1j * beam4.omegas[2]):
            x0 = apply_resolvent(beam4, lam0, rhs)
            dx = apply_resolvent(beam4, lam0, x0)
            ddx = apply_resolvent(beam4, lam0, dx)
            for e in range(4, 15):
                for direction in (1.0, 1j):
                    lam = lam0 + direction * 10.0**-e
                    h = lam - lam0  # the step actually taken, after rounding
                    step = apply_resolvent(beam4, lam, rhs).to_array() - x0.to_array()
                    err = np.max(np.abs(step - h * dx.to_array()))
                    assert err <= 2.0 * abs(h) ** 2 * ddx.norm() + 1e-14 * x0.norm()

    @pytest.mark.parametrize("sys", NEAR_POLE_SYSTEMS, ids=lambda s: f"N{s.N}")
    def test_round_trip_near_every_pole(self, sys):
        # lam = +/- i omega_k + h for h down to 1e-14, every mode, four directions
        rng = np.random.default_rng(17)
        gen = dense_generator(sys)
        worst = 0.0
        for w in sys.omegas:
            for pole in (1j * w, -1j * w):
                for e in range(4, 15):
                    for direction in (1.0, 1j, -1.0, -1j):
                        lam = pole + direction * 10.0**-e
                        rhs = random_state(sys.N, rng)
                        eps = apply_resolvent(sys, lam, rhs).to_array()
                        resid = np.linalg.norm((gen - lam * np.eye(2 * sys.N)) @ eps
                                               - rhs.to_array())
                        worst = max(worst, resid / rhs.norm())
        assert worst <= 1e-10

    @settings(deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        sys = data.draw(small_systems())
        lam = data.draw(resolvent_points(sys))
        gen = dense_generator(sys)
        shifted = gen - lam * np.eye(2 * sys.N)
        assume(lam != 0 and np.min(np.abs(np.linalg.eigvals(gen) - lam)) > 1e-6)
        rhs = random_state(sys.N, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        eps = apply_resolvent(sys, lam, rhs).to_array()
        resid = np.linalg.norm(shifted @ eps - rhs.to_array())
        # normwise backward error: the solve is exact for a nearby matrix
        assert resid <= 1e-13 * (np.linalg.norm(shifted, 2) * np.linalg.norm(eps) + rhs.norm())

    def test_spectrum_proximity_guard(self, beam4, beam4_spectrum):
        lam = beam4_spectrum.eigs[0].lam
        with pytest.raises(SpectrumProximityError):
            apply_resolvent(beam4, lam, StateVector.zero(4))

    def test_reads_the_entries_the_state_holds(self, beam4):
        # the solve reads the state's own vector: never written, never aliased by
        # the result, and in step with q and p in copies and after a write to q
        rhs = random_state(4, np.random.default_rng(5))
        lam = 0.3 + 2.0j
        before = rhs.to_array()
        out = apply_resolvent(beam4, lam, rhs)
        assert rhs.to_array().tobytes() == before.tobytes()
        assert not np.shares_memory(out.q, rhs.q) and not np.shares_memory(out.p, rhs.p)
        for twin in (rhs, copy.deepcopy(rhs), pickle.loads(pickle.dumps(rhs))):
            twin.q[1] += 1.0
            fresh = StateVector(q=twin.q, p=twin.p)
            assert (apply_resolvent(beam4, lam, twin).to_array().tobytes()
                    == apply_resolvent(beam4, lam, fresh).to_array().tobytes())

    def test_origin_rejected(self, beam4):
        with pytest.raises(PoleError):
            apply_resolvent(beam4, 0.0, StateVector.zero(4))

    def test_dimension_mismatch(self, beam4):
        with pytest.raises(ValueError):
            apply_resolvent(beam4, 1.0 + 1.0j, StateVector.zero(3))


BRACKET_SYSTEMS = [beam_example(1.0, 1.0, 23), beam_example(1.0, 1.0, 64),
                   beam_example(1.0, 1.0, 23, gamma=0.5), perturbed_beam_family(1, 3)[2]]


class TestAxisScan:
    def test_growth_exponent_recovered(self, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        assert abs(scan.alpha_fit.slope - 1.0) <= 0.15
        assert scan.alpha_fit.r2 >= 0.95

    def test_segments_cover_requested_bands(self, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 6))
        assert scan.k.tolist() == [3, 4, 5, 6]
        assert scan.s_lo[0] == 0.5 * (4.0 + 9.0) and scan.s_hi[0] == 0.5 * (9.0 + 16.0)

    def test_suprema_monotone_for_beam(self, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        sups = scan.sup.tolist()
        assert all(b >= a for a, b in zip(sups, sups[1:]))

    def test_either_half_gives_the_same_scan(self, beam23, beam23_spectrum):
        # the distance is taken to the roots of both halves, so the lower roots
        # describe the same spectrum
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        mirrored = axis_scan(beam23, UpperRoots(beam23_spectrum.lam.conj()), (3, 20))
        assert columns_text(mirrored) == columns_text(scan)
        assert mirrored.alpha_fit == scan.alpha_fit

    @pytest.mark.parametrize("sys", BRACKET_SYSTEMS, ids=lambda s: f"N{s.N}-g{s.gamma:.3g}")
    def test_dense_norm_within_the_bracket(self, sys):
        # (1 - 1e-9)/d(s) <= ||R(is)|| <= cond_Q/d(s) at each band's nearest point
        # and at its ends, and sup = 1/d(s) at the nearest point
        spectrum = full_spectrum(sys)
        cond = build_basis(sys, spectrum).cond_Q
        roots = spectrum.eigenvalues()
        scan = axis_scan(sys, spectrum, (2, sys.N - 1))
        for s_lo, s_hi, sup in zip(scan.s_lo.tolist(), scan.s_hi.tolist(), scan.sup.tolist()):
            # the point of the band nearest to a root is that root's imaginary part, clipped
            candidates = np.clip(roots.imag, s_lo, s_hi).tolist()
            nearest = min(candidates, key=lambda s: distance_to(roots, s))
            assert sup == 1.0 / distance_to(roots, nearest)
            for s in (nearest, s_lo, s_hi):
                d = distance_to(roots, s)
                norm = oracles.resolvent_norm(sys, 1j * s)
                assert (1.0 - 1e-9) / d <= norm <= cond / d, (s_lo, s)

    def test_suprema_bounded_by_neighbor_rates(self, beam23, beam23_spectrum):
        # per-band sup^2 never exceeds twice the sum of inverse squared decay
        # rates of bands k-1, k, k+1 (the chain behind the certified cap)
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        rates = dict(zip(beam23_spectrum.k.tolist(), np.abs(beam23_spectrum.lam.real).tolist()))
        for k, sup in zip(scan.k.tolist(), scan.sup.tolist()):
            cap_sq = 2.0 * sum(rates[j] ** -2 for j in (k - 1, k, k + 1))
            assert sup**2 <= cap_sq * (1 + 1e-12)

    def test_certified_caps_hold(self, beam23, beam23_spectrum):
        # the proven upper end cond(Q) sup, not the lower end sup, lies under each cap
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        cond = build_basis(beam23, beam23_spectrum).cond_Q
        checks = segment_bound_checks(scan, localize_modes(beam23, range(1, 24)), cond)
        assert np.count_nonzero(checks.applicable) >= 15
        assert checks.ok.all()
        assert checks.upper.tolist() == (cond * scan.sup).tolist()
        # 0.416 with the closed-form cond(Q) bound 2.2466 (0.345 with the SVD's 1.8609)
        assert np.max(checks.upper[checks.applicable] / checks.bound[checks.applicable]) < 0.42

    def test_cap_without_cond_is_not_proven(self, beam23, beam23_spectrum):
        # sup = 1/m_k bounds the norm from below only; without cond(Q) nothing
        # shows an applicable cap holds, however far under it sup lies
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        checks = segment_bound_checks(scan, localize_modes(beam23, range(1, 24)))
        assert checks.cond is None and np.isnan(checks.upper).all()
        assert (scan.sup[checks.applicable] < checks.bound[checks.applicable]).all()
        assert checks.ok.tolist() == (~checks.applicable).tolist()

    def test_cap_fails_when_the_upper_end_exceeds_it(self, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        loc = localize_modes(beam23, range(1, 24))
        applicable = segment_bound_checks(scan, loc).applicable
        ratio = (segment_bound_checks(scan, loc, 1.0).bound / scan.sup)[applicable]
        checks = segment_bound_checks(scan, loc, float(np.min(ratio)) * 1.01)
        assert not checks.ok.all()
        assert checks.ok.tolist() == (~applicable | (checks.upper <= checks.bound)).tolist()

    @pytest.mark.parametrize("sys", [beam_example(1.0, 1.0, 23, gamma=g) for g in (0.1, 1.0, 3.0)]
                             + [beam_example(1.0, 1.0, 64), beam_example(1.0, 1.0, 256)]
                             + perturbed_beam_family(1, 3), ids=lambda s: f"N{s.N}-g{s.gamma:.3g}")
    def test_checks_match_the_per_band_loop(self, sys):
        # bitwise, NaN bounds included, also when some modes have no row
        scan = axis_scan(sys, full_spectrum(sys), (2, sys.N - 1))
        for ks in (range(1, sys.N + 1), range(1, sys.N + 1, 2), [sys.N], []):
            loc = localize_modes(sys, ks)
            for cond in (None, 1.0, 3.7):
                expected = oracles.segment_bound_checks(scan, loc.certificates, cond)
                got = segment_bound_checks(scan, loc, cond)
                assert got.cond == expected.cond
                assert columns_text(got, oracles.CHECK_COLUMNS) \
                    == columns_text(expected, oracles.CHECK_COLUMNS), (list(ks), cond)

    def test_columns_are_read_only(self, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 6))
        checks = segment_bound_checks(scan, localize_modes(beam23, range(1, 24)))
        for report, names in ((scan, SCAN_COLUMNS), (checks, oracles.CHECK_COLUMNS)):
            for name in names:
                column = getattr(report, name)
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[-1]
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(report, name, column.copy())

    @pytest.mark.parametrize("column", SCAN_COLUMNS)
    def test_column_of_wrong_length_rejected(self, beam23, beam23_spectrum, column):
        # every column holds one row per band
        scan = axis_scan(beam23, beam23_spectrum, (3, 6))
        assert scan.k.size == 4
        with pytest.raises(ValueError, match="has shape"):
            dataclasses.replace(scan, **{column: getattr(scan, column)[:-1]})
        checks = segment_bound_checks(scan, localize_modes(beam23, range(1, 24)))
        for name in oracles.CHECK_COLUMNS:
            with pytest.raises(ValueError, match="has shape"):
                dataclasses.replace(checks, **{name: getattr(checks, name)[1:]})

    def test_hash_and_equality_by_identity(self, beam23, beam23_spectrum):
        # hashing walks no column, and two scans of equal values are distinct
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        checks = segment_bound_checks(scan, localize_modes(beam23, range(1, 24)))
        for report in (scan, checks):
            twin = dataclasses.replace(report)
            assert report == report and report != twin
            assert hash(report) == object.__hash__(report)
            assert len({report, twin}) == 2

    def test_range_validation(self, beam23, beam23_spectrum):
        with pytest.raises(ValueError):
            axis_scan(beam23, beam23_spectrum, (1, 5))
        with pytest.raises(ValueError):
            axis_scan(beam23, beam23_spectrum, (5, 23))
        with pytest.raises(ValueError):
            axis_scan(beam23, beam23_spectrum, (5, 5))

    def test_degenerate_fit_rejected(self, beam23, beam23_spectrum):
        with pytest.raises(ValueError, match="degenerate"):
            axis_scan(beam23, beam23_spectrum, (3, 4))

    def test_empty_spectrum_rejected(self, beam23):
        with pytest.raises(ValueError, match="at least one eigenvalue"):
            axis_scan(beam23, UpperRoots([]), (3, 20))

    @pytest.mark.parametrize("sys", SCAN_SYSTEMS, ids=lambda s: f"N{s.N}-g{s.gamma:.3g}")
    def test_one_pass_matches_band_by_band(self, sys):
        # bitwise: every band column and the fit
        assert_matches_band_by_band(sys, full_spectrum(sys))

    def test_one_pass_matches_band_by_band_on_incomplete_spectra(self):
        # random family 1: on most incomplete spectra mode 1 is overdamped and its
        # root real (or Im a rounding error off 0), so band 1 holds no root, and the
        # root and its conjugate share, or all but share, an imaginary part
        spectra = [(sys, full_spectrum(sys)) for sys in (
            SystemSpec.from_json_dict(case.doc) for case in load_bench_workloads().random_family(1))
            if sys.N >= 5]
        incomplete = [(sys, spectrum) for sys, spectrum in spectra if not spectrum.complete]
        for sys, spectrum in incomplete:
            assert_matches_band_by_band(sys, spectrum)
        real = [spectrum for _, spectrum in incomplete if abs(spectrum.lam[0].imag) < 1e-12]
        assert len(incomplete) >= 40 and len(real) >= 20

    @given(case=scan_cases())
    @example(case=(build_system(1.0, np.arange(1.0, 13.0) ** 2, np.ones(12)), (2, 11),
                   -0.1 + 1j * np.array([1.0, 4.0, 9.0, 16.0, 25.0, 121.0, 144.0])))
    @example(case=(build_system(1.0, [1.1, 2.1, 3.1, 4.1, 5.1, 6.1, 7.1, 8.1, 9.1, 16.1, 18.1,
                                      19.1], np.ones(12)), (2, 11), np.array([1.1j])))
    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    def test_windows_miss_no_minimum(self, case):
        # bitwise against the whole table on root sets built to stress the windows.
        # In the first example band 8's nearest roots lie three bands away, at modes
        # 5 and 11.  In the second the lone root on the axis, below every band,
        # rounds out of its own window at band 11 unless the window is padded
        sys, k_range, upper = case
        minima = oracles.band_minima(sys, upper, k_range)
        if 0.0 in minima:
            with pytest.raises(SpectrumProximityError,
                               match=f"band {k_range[0] + minima.index(0.0)} holds"):
                axis_scan(sys, UpperRoots(upper), k_range)
            return
        scan = axis_scan(sys, UpperRoots(upper), k_range)
        expected = oracles.brute_force_scan(sys, upper, k_range)
        assert columns_text(scan) == columns_text(expected)
        assert scan.alpha_fit == expected.alpha_fit

    def test_windows_hold_few_pairs(self):
        # beam N=1024: at most 4 (band, root) pairs a band, where the whole table
        # holds 1022 x 2048, about 2.1M
        sys = beam_example(1.0, 1.0, 1024)
        upper = full_spectrum(sys).lam
        w, ks = sys.omegas, np.arange(2, sys.N)
        band, _, _, first = _band_windows(np.concatenate([upper, upper.conj()]),
                                          0.5 * (w[ks - 2] + w[ks - 1]), 0.5 * (w[ks - 1] + w[ks]))
        assert first.size == ks.size and band.size <= 4 * ks.size

    def test_damped_cluster_matches_band_by_band(self, beam23, beam23_spectrum):
        # a cluster of strongly damped roots around Im = 100 lies in band 10,
        # at imaginary gap 0 like the beam root of mode 10; only the real parts
        # tell them apart, and the cluster, 200 off the axis, changes no band
        cluster = -200.0 + 1j * (100.0 + np.linspace(-2.0, 2.0, 5))
        upper = np.concatenate([beam23_spectrum.lam, cluster])
        scan = axis_scan(beam23, UpperRoots(upper), (3, 20))
        expected = oracles.brute_force_scan(beam23, upper, (3, 20))
        assert columns_text(scan) == columns_text(expected)
        assert scan.alpha_fit == expected.alpha_fit
        assert columns_text(scan) == columns_text(axis_scan(beam23, beam23_spectrum, (3, 20)))

    def test_root_on_a_band_raises(self, beam23, beam23_spectrum):
        # band 3 is i [6.5, 12.5]; a root on it, in either half, leaves 1/d unbounded
        for root in (10.0j, -10.0j):
            upper = np.append(beam23_spectrum.lam, root)
            with pytest.raises(SpectrumProximityError, match="band 3"):
                axis_scan(beam23, UpperRoots(upper), (3, 20))
