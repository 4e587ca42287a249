import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import perturbed_beam_family
from obsdecay import resolvent
from obsdecay.charfn import CharContext, LocalizationError, PoleError, localize
from obsdecay.dynamics import dense_generator
from obsdecay.fitting import loglog_fit
from obsdecay.model import beam_example, build_system
from obsdecay.resolvent import (
    PTS_PER_SEGMENT_DEFAULT,
    SpectrumProximityError,
    apply_resolvent,
    axis_scan,
    resolvent_norm,
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


def brute_force_scan(sys, upper, k_range, pts_per_segment):
    """Reference axis scan: one band at a time, every point against every root.

    Returns ``(segments, samples, suprema, fit)`` as the fields of
    :class:`AxisScan`.
    """
    def diag_bound(lams):
        pts = np.asarray(lams, dtype=complex)[:, None]
        d_up = np.min(np.abs(upper[None, :] - pts), axis=1)
        d_lo = np.min(np.abs(upper[None, :] - pts.conj()), axis=1)
        return np.sqrt(d_lo**-2.0 + d_up**-2.0)

    segments, suprema, samples = [], [], []
    w, im_parts = sys.omegas, upper.imag
    for k in range(k_range[0], k_range[1] + 1):
        s_lo = 0.5 * (w[k - 2] + w[k - 1])
        s_hi = 0.5 * (w[k - 1] + w[k])
        grid = np.linspace(s_lo, s_hi, pts_per_segment)
        peaks = im_parts[(im_parts >= s_lo) & (im_parts <= s_hi)]
        svals = np.sort(np.concatenate([grid, peaks]))
        vals = diag_bound(1j * svals)
        segments.append((k, float(s_lo), float(s_hi)))
        suprema.append((k, float(0.5 * (s_lo + s_hi)), float(np.max(vals))))
        samples.extend(zip(svals.tolist(), vals.tolist()))
    samples.sort(key=lambda pair: pair[0])
    fit = loglog_fit([c for _, c, _ in suprema], [v for _, _, v in suprema])
    return tuple(segments), tuple(samples), tuple(suprema), fit


@pytest.fixture
def fallback_points(monkeypatch):
    """Records the number of points each full-row fallback of the scan takes."""
    sizes = []
    full_row = resolvent._min_distance

    def recording(roots, pts):
        sizes.append(pts.size)
        return full_row(roots, pts)

    monkeypatch.setattr(resolvent, "_min_distance", recording)
    return sizes


class UpperRoots:
    """Stands in for a SpectrumReport: the axis scan reads only the upper roots."""

    def __init__(self, upper):
        self.upper = np.asarray(upper, dtype=complex)

    def eigenvalues(self, half):
        assert half == "upper"
        return self.upper


SCAN_SYSTEMS = [beam_example(1.0, 1.0, n, gamma=g)
                for n in (23, 64, 256) for g in (0.3, 1.0, 3.0)]
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


class TestApplyResolvent:
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

    def test_origin_rejected(self, beam4):
        with pytest.raises(PoleError):
            apply_resolvent(beam4, 0.0, StateVector.zero(4))

    def test_dimension_mismatch(self, beam4):
        with pytest.raises(ValueError):
            apply_resolvent(beam4, 1.0 + 1.0j, StateVector.zero(3))


class TestResolventNorm:
    def test_single_mode_diagonal_value(self, single_mode):
        rep = full_spectrum(single_mode)
        lam1 = rep.eigenvalues("upper")[0]
        expected = np.sqrt(abs(np.conjugate(lam1) - 10.0) ** -2 + abs(lam1 - 10.0) ** -2)
        assert resolvent_norm(single_mode, 10.0, "diag", rep) == pytest.approx(expected)

    def test_exact_within_conditioning_factor_of_diag(self, beam4, beam4_spectrum,
                                                      beam4_basis):
        factor = np.sqrt(2.0) * beam4_basis.cond_Q
        for lam in (2.0 + 0.5j, -1.0 + 6.0j, 0.5 - 11.0j):
            exact = resolvent_norm(beam4, lam, "exact")
            diag = resolvent_norm(beam4, lam, "diag", beam4_spectrum)
            assert exact > 0.0
            assert exact <= factor * diag * (1 + 1e-12)
            assert diag <= factor * exact * (1 + 1e-12)

    def test_diag_requires_spectrum(self, beam4):
        with pytest.raises(ValueError):
            resolvent_norm(beam4, 1.0 + 1.0j, "diag")

    def test_unknown_mode(self, beam4):
        with pytest.raises(ValueError):
            resolvent_norm(beam4, 1.0 + 1.0j, "svd")

    def test_exact_size_cap(self):
        big = beam_example(1.0, 1.0, 65)
        with pytest.raises(ValueError):
            resolvent_norm(big, 1.0 + 1.0j, "exact")


class TestAxisScan:
    def test_growth_exponent_recovered(self, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        assert abs(scan.alpha_fit.slope - 1.0) <= 0.15
        assert scan.alpha_fit.r2 >= 0.95

    def test_segments_cover_requested_bands(self, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 6))
        assert [seg[0] for seg in scan.segments] == [3, 4, 5, 6]
        k, s_lo, s_hi = scan.segments[0]
        assert s_lo == 0.5 * (4.0 + 9.0) and s_hi == 0.5 * (9.0 + 16.0)
        svals = [s for s, _ in scan.samples]
        assert svals == sorted(svals)

    def test_suprema_monotone_for_beam(self, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        sups = [v for _, _, v in scan.suprema]
        assert all(b >= a for a, b in zip(sups, sups[1:]))

    def test_mirrored_segments_match(self, beam23, beam23_spectrum):
        for s in (9.7, 30.5, 250.0):
            up = resolvent_norm(beam23, 1j * s, "diag", beam23_spectrum)
            down = resolvent_norm(beam23, -1j * s, "diag", beam23_spectrum)
            assert up == pytest.approx(down, rel=1e-9)

    def test_suprema_bounded_by_neighbor_rates(self, beam23, beam23_spectrum):
        # per-band sup^2 never exceeds twice the sum of inverse squared decay
        # rates of bands k-1, k, k+1 (the chain behind the certified cap)
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        rates = {e.k: abs(e.lam.real) for e in beam23_spectrum.upper()}
        for k, _center, sup in scan.suprema:
            cap_sq = 2.0 * sum(rates[j] ** -2 for j in (k - 1, k, k + 1))
            assert sup**2 <= cap_sq * (1 + 1e-12)

    def test_certified_caps_hold(self, beam23, beam23_spectrum):
        scan = axis_scan(beam23, beam23_spectrum, (3, 20))
        certs = {}
        for k in range(1, 24):
            try:
                certs[k] = localize(CharContext(beam23, k))
            except LocalizationError:
                continue
        checks = segment_bound_checks(scan, certs)
        applicable = [c for c in checks if c.applicable]
        assert len(applicable) >= 15
        assert all(c.ok for c in checks)

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

    @pytest.mark.parametrize("sys", SCAN_SYSTEMS, ids=lambda s: f"N{s.N}-g{s.gamma:.3g}")
    def test_one_pass_matches_band_by_band(self, sys, fallback_points):
        # bitwise: samples, suprema, segments and fit, with the window bound
        # settling every point (no full-row fallback) on these spectra
        spectrum = full_spectrum(sys)
        upper = spectrum.eigenvalues("upper")
        for k_range in ((3, sys.N - 3), (2, sys.N - 1)):
            if k_range[1] - k_range[0] < 2:
                continue
            for pts in (PTS_PER_SEGMENT_DEFAULT, 5):
                scan = axis_scan(sys, spectrum, k_range, pts_per_segment=pts)
                segments, samples, suprema, fit = brute_force_scan(sys, upper, k_range, pts)
                assert scan.segments == segments
                assert scan.samples == samples
                assert scan.suprema == suprema
                assert scan.alpha_fit == fit
        assert fallback_points == []

    def test_window_fallback_matches_band_by_band(self, beam23, beam23_spectrum,
                                                  fallback_points):
        # a cluster of strongly damped roots around Im = 100 is nearest in
        # imaginary part to the points of band 10, but the beam roots at
        # Im ~ 81 and ~ 121 are nearer in distance: the window bound fails
        # there and the full row must decide
        cluster = -200.0 + 1j * (100.0 + np.linspace(-2.0, 2.0, 5))
        upper = np.concatenate([beam23_spectrum.eigenvalues("upper"), cluster])
        scan = axis_scan(beam23, UpperRoots(upper), (3, 20))
        segments, samples, suprema, fit = brute_force_scan(beam23, upper, (3, 20),
                                                           PTS_PER_SEGMENT_DEFAULT)
        assert sum(fallback_points) > 0
        assert scan.segments == segments
        assert scan.samples == samples
        assert scan.suprema == suprema
        assert scan.alpha_fit == fit

    def test_exact_hit_raises(self, beam23, beam23_spectrum):
        lam = beam23_spectrum.eigenvalues("upper")[4]
        for point in (lam, np.conjugate(lam)):
            with pytest.raises(SpectrumProximityError):
                resolvent_norm(beam23, point, "diag", beam23_spectrum)

    def test_peak_capture_beats_endpoint_sampling(self, beam23, beam23_spectrum):
        # the supremum must reflect the eigenvalue peak 1/|Re lam_k|, which a
        # coarse even grid would miss
        scan = axis_scan(beam23, beam23_spectrum, (3, 20), pts_per_segment=5)
        uppers = {e.k: e.lam for e in beam23_spectrum.upper()}
        for k, _center, sup in scan.suprema:
            assert sup >= 1.0 / abs(uppers[k].real)
