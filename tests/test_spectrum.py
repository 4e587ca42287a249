import numpy as np
import pytest

from conftest import SINGLE_MODE_ROOTS
from obsdecay.charfn import CharContext, LocalizationError, PoleError, lambda_star, localize
from obsdecay.model import beam_example
from obsdecay.spectrum import (
    NewtonError,
    dense_oracle_spectrum,
    enclosure_radius,
    full_spectrum,
    matching_distance,
    newton_root,
    winding_number,
)


class TestNewtonRoot:
    def test_single_mode_quadratic_root(self, single_mode):
        seed = lambda_star(CharContext(single_mode, 1))
        root, resid, iters = newton_root(single_mode, seed)
        assert abs(root - SINGLE_MODE_ROOTS[0]) < 1e-12
        assert resid <= 1e-12
        assert iters > 0

    def test_conjugate_seed_gives_conjugate_root(self, single_mode):
        seed = lambda_star(CharContext(single_mode, 1)).conjugate()
        root, _, _ = newton_root(single_mode, seed)
        assert abs(root - SINGLE_MODE_ROOTS[1]) < 1e-12

    def test_seed_at_pole_rejected(self, single_mode):
        with pytest.raises(PoleError):
            newton_root(single_mode, 1j)
        with pytest.raises(PoleError):
            newton_root(single_mode, 0.0)

    def test_tolerance_validation(self, single_mode):
        with pytest.raises(ValueError):
            newton_root(single_mode, 0.5 + 0.5j, tol=0.0)

    def test_divergence_reported(self, single_mode):
        # one iteration cannot reach the root from a distant seed
        with pytest.raises(NewtonError):
            newton_root(single_mode, 50.0 + 40.0j, max_iters=1)


class TestWindingNumber:
    def test_certified_disk_encloses_one_root(self, beam23):
        cert = localize(CharContext(beam23, 5))
        assert winding_number(beam23, (cert.lambda_star, cert.Rk)) == 1

    def test_tiny_disk_at_generic_point(self, single_mode):
        assert winding_number(single_mode, (0.3 + 0.2j, 1e-6)) == 0

    def test_disk_enclosing_conjugate_pair(self, single_mode):
        # center -5, radius 4.6 encloses both quadratic roots but none of
        # the poles 0, +/- i (distances 5 and sqrt(26))
        assert winding_number(single_mode, (-5.0 + 0.0j, 4.6)) == 2

    def test_pole_on_contour_rejected(self, single_mode):
        # the t = 0 contour sample sits exactly on the pole i*omega_1
        with pytest.raises(PoleError):
            winding_number(single_mode, (1j - 0.25, 0.25))

    def test_radius_validation(self, single_mode):
        with pytest.raises(ValueError):
            winding_number(single_mode, (1.0 + 1.0j, 0.0))


class TestFullSpectrum:
    def test_single_mode_matches_quadratic(self, single_mode):
        rep = full_spectrum(single_mode)
        assert rep.complete and len(rep.eigs) == 2
        found = sorted(rep.eigenvalues(), key=lambda z: z.imag)
        expected = sorted(SINGLE_MODE_ROOTS, key=lambda z: z.imag)
        for a, b in zip(found, expected):
            assert abs(a - b) < 1e-12

    def test_fig3_system(self, beam23_spectrum):
        rep = beam23_spectrum
        assert rep.complete
        assert len(rep.eigs) == 46
        assert all(e.lam.real < 0.0 for e in rep.eigs)
        assert rep.symmetry_defect <= 1e-9
        assert rep.enclosure_defect == 0.0

    def test_sorted_one_certificate_per_pair(self, beam23_spectrum):
        keys = [(e.k, e.half) for e in beam23_spectrum.eigs]
        expected = [(k, h) for k in range(1, 24) for h in ("upper", "lower")]
        assert keys == expected

    def test_carries_the_localizations_it_used(self, beam23, beam23_spectrum):
        expected = []
        for k in range(1, 24):
            try:
                expected.append(localize(CharContext(beam23, k)))
            except LocalizationError:
                continue
        assert beam23_spectrum.localizations == tuple(expected)
        assert 1 not in [c.k for c in expected]  # mode 1 does not localize

    def test_distinctness(self, beam23_spectrum):
        vals = beam23_spectrum.eigenvalues()
        dists = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 1e-9

    def test_residuals_certified_scale(self, beam23_spectrum):
        for e in beam23_spectrum.eigs:
            assert e.residual <= 1e-10  # raw residual bound, system-wide

    def test_high_modes_fully_certified(self, beam23_spectrum):
        for e in beam23_spectrum.eigs:
            if e.k >= 3:
                assert e.certified, f"mode {e.k} ({e.half}) lost certification"
            assert e.winding == 1

    def test_asymptotic_approach_to_mode_frequencies(self, beam23, beam23_spectrum):
        for e in beam23_spectrum.upper():
            drift = abs(e.lam - 1j * beam23.omegas[e.k - 1]) * e.k**2
            assert drift < 1.0

    def test_enclosure_radius_formula(self, beam23):
        lam = -0.5 + 12.0j
        expected = 0.5 * beam23.gamma * abs(lam) * np.sum(beam23.cs**2 / beam23.omegas)
        assert enclosure_radius(beam23, lam) == pytest.approx(expected, rel=1e-14)

    def test_overdamped_pair_is_flagged(self):
        # at gamma = 2 the first mode pair collides on the real axis; the
        # report must flag the duplication instead of silently passing
        rep = full_spectrum(beam_example(1.0, 1.0, 23, gamma=2.0))
        assert not rep.complete
        assert any("distinct" in msg for msg in rep.failures)


class TestDenseOracle:
    def test_single_mode(self, single_mode):
        vals = dense_oracle_spectrum(single_mode)
        assert matching_distance(vals, np.array(SINGLE_MODE_ROOTS)) < 1e-14

    def test_conjugation_closure(self):
        sys = beam_example(1.0, 1.0, 8)
        vals = dense_oracle_spectrum(sys)
        assert matching_distance(vals, np.conjugate(vals)) < 1e-10

    def test_size_cap(self):
        with pytest.raises(ValueError):
            dense_oracle_spectrum(beam_example(1.0, 1.0, 65))

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_cross_validation_against_newton_path(self, n):
        sys = beam_example(1.0, 1.0, n)
        rep = full_spectrum(sys)
        assert rep.complete
        assert matching_distance(rep.eigenvalues(), dense_oracle_spectrum(sys)) < 1e-8

    def test_matching_distance_validation(self):
        with pytest.raises(ValueError):
            matching_distance(np.array([1.0 + 0j]), np.array([1.0 + 0j, 2.0 + 0j]))
