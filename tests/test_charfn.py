import numpy as np
import pytest

from conftest import perturbed_beam_family
from obsdecay.charfn import (
    R1_FRACTION,
    CharContext,
    LocalizationError,
    PoleError,
    char_linearization,
    convergence_radius,
    estimate_M,
    eval_F,
    eval_f,
    eval_f_prime,
    eval_f_rational,
    lambda_star,
    localize,
    rouche_margin,
)
from obsdecay.model import beam_example, build_system

# f at 0.5 + 0.5i for the N=23 quadratic-frequency family, summed at 50
# decimal digits with mpmath (term-by-term, ascending mode order).
F_BEAM23_HALF_HALF = 2.80099362173489 + 3.6346554739934485j


class TestEvalF:
    def test_single_mode_value(self, single_mode):
        assert eval_f(single_mode, 1.0) == 3j

    def test_purely_imaginary_on_real_axis(self, beam23, single_mode):
        for sys in (single_mode, beam23):
            for lam in (0.5, 1.5, -2.0, 17.3):
                assert eval_f(sys, lam).real == 0.0

    def test_two_forms_agree(self, beam23):
        rng = np.random.default_rng(3)
        lams = rng.normal(size=40) + 1j * rng.normal(scale=30.0, size=40)
        a = eval_f(beam23, lams)
        b = eval_f_rational(beam23, lams)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_extended_precision_oracle(self, beam23):
        val = eval_f(beam23, 0.5 + 0.5j)
        assert abs(val - F_BEAM23_HALF_HALF) <= 1e-10 * abs(F_BEAM23_HALF_HALF)

    def test_pole_rejection(self, beam23):
        with pytest.raises(PoleError):
            eval_f(beam23, 0.0)
        with pytest.raises(PoleError):
            eval_f(beam23, 4.0j)
        with pytest.raises(PoleError):
            eval_f(beam23, -529.0j)

    def test_conjugate_antisymmetry(self, beam23):
        # f(conj lam) = -conj f(lam) and f'(conj lam) = -conj f'(lam) hold
        # bitwise; full_spectrum conjugates upper roots on the strength of it
        rng = np.random.default_rng(5)
        lams = rng.normal(size=25) + 1j * rng.normal(scale=20.0, size=25)
        for sys in (beam23, perturbed_beam_family(29, 1)[0]):
            for fn in (eval_f, eval_f_prime):
                for lam in lams:
                    assert fn(sys, np.conjugate(lam)) == -np.conjugate(fn(sys, lam))
                assert np.array_equal(fn(sys, np.conjugate(lams)), -np.conjugate(fn(sys, lams)))

    def test_derivative_against_finite_differences(self, beam23):
        h = 1e-6
        for lam in (0.3 + 2.2j, -1.0 + 10.5j, 2.0 - 7.0j):
            fd = (eval_f(beam23, lam + h) - eval_f(beam23, lam - h)) / (2 * h)
            fd += (eval_f(beam23, lam + 1j * h) - eval_f(beam23, lam - 1j * h)) / (2j * h)
            assert abs(fd / 2 - eval_f_prime(beam23, lam)) <= 1e-6 * max(1.0, abs(fd / 2))


class TestEvalFCentered:
    def test_value_at_center_is_explicit(self, beam23):
        for k in range(1, 24):
            ctx = CharContext(beam23, k)
            expected = ctx.c_k**2 / ctx.omega_k
            assert eval_F(ctx, 1j * ctx.omega_k) == pytest.approx(expected, rel=1e-14)

    def test_single_mode_product(self, single_mode):
        ctx = CharContext(single_mode, 1)
        assert eval_F(ctx, 1.0) == pytest.approx(3.0 + 3.0j)

    def test_matches_product_form_near_center(self, beam23):
        ctx = CharContext(beam23, 7)
        center = 1j * ctx.omega_k
        for angle in np.linspace(0.0, 2 * np.pi, 9)[:-1]:
            lam = center + 1e-3 * np.exp(1j * angle)
            prod = (lam - center) * eval_f(beam23, lam)
            assert abs(eval_F(ctx, lam) - prod) < 1e-10

    def test_pole_rejection_excludes_center(self, beam23):
        ctx = CharContext(beam23, 2)
        eval_F(ctx, 4.0j)  # the cleared pole is admissible
        with pytest.raises(PoleError):
            eval_F(ctx, 9.0j)
        with pytest.raises(PoleError):
            eval_F(ctx, -4.0j)
        with pytest.raises(PoleError):
            eval_F(ctx, 0.0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_exact_pole_lookup_matches_brute_force(self, beam4):
        # a pole needs Re lam == 0 (either sign) and |Im lam| == omega_j exactly
        w = beam4.omegas
        ims = [0.0, *w, *-w, *np.nextafter(w, np.inf), *np.nextafter(w, 0.0), 0.5 * w[0],
               2.0 * w[-1], -2.0 * w[-1], np.inf, np.nan]
        points = [complex(re, im) for re in (0.0, -0.0, 1e-300, np.nan) for im in ims]
        for k in (None, 1, 2, 4):
            for lam in points:
                iw = 1j * w
                upper = lam == iw
                if k is not None:
                    upper[k - 1] = False
                expected = lam == 0 or upper.any() or (lam == -iw).any()
                call = (lambda: eval_f(beam4, lam)) if k is None else \
                    (lambda: eval_F(CharContext(beam4, k), lam))
                if expected:
                    with pytest.raises(PoleError):
                        call()
                else:
                    call()
        # one pole in a batch rejects the batch
        with pytest.raises(PoleError):
            eval_f_prime(beam4, np.array([1.0 + 1.0j, complex(-0.0, -w[2]), 2.0]))

    def test_context_validation(self, beam23):
        with pytest.raises(ValueError):
            CharContext(beam23, 0)
        with pytest.raises(ValueError):
            CharContext(beam23, 24)


class TestLambdaStar:
    def test_single_mode_hand_value(self, single_mode):
        # -1/(2 + i/2) + i = -8/17 + 19i/17
        val = lambda_star(CharContext(single_mode, 1))
        assert val == pytest.approx(complex(-8.0 / 17.0, 19.0 / 17.0), abs=1e-15)

    def test_closed_form_components(self, beam23):
        # real/imag parts through the explicit S-sum representation
        for k in (1, 4, 9, 17, 23):
            ctx = CharContext(beam23, k)
            f0, f1 = char_linearization(ctx)
            s = f1.imag
            wk, ck, g = ctx.omega_k, ctx.c_k, beam23.gamma
            val = lambda_star(ctx)
            re_abs = 2.0 * g * ck**2 / (4.0 + g**2 * wk**2 * s**2)
            im = wk + (ck**2 / wk) * s / (4.0 / (g**2 * wk**2) + s**2)
            assert abs(val.real) == pytest.approx(re_abs, rel=1e-12)
            assert val.imag == pytest.approx(im, rel=1e-12)

    def test_strictly_stable_side_and_off_axis(self, beam23, single_mode):
        for sys in (single_mode, beam23):
            for k in range(1, sys.N + 1):
                val = lambda_star(CharContext(sys, k))
                assert val.real < 0.0
                assert val.imag != 0.0

    def test_quadratic_approach_rate(self, beam23):
        # |lambda_star - i omega_k| * k^2 stays bounded for the beam family
        scaled = [
            abs(lambda_star(CharContext(beam23, k)) - 1j * beam23.omegas[k - 1]) * k**2
            for k in range(1, 24)
        ]
        assert max(scaled) < 1.0
        # and settles near gamma/2 for high modes
        assert scaled[-1] == pytest.approx(0.5, rel=0.05)


def sampled_remainder_peak(ctx, R1):
    """Reference oracle: max of |F - F0 - s F1| / |s|^2 at 4096 points of |s| = R1."""
    f0, f1 = char_linearization(ctx)
    shift = R1 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    resid = eval_F(ctx, ctx.center + shift) - f0 - shift * f1
    return float(np.max(np.abs(resid) / np.abs(shift) ** 2))


class TestEstimateM:
    @pytest.mark.parametrize("systems", [
        pytest.param([beam_example(1.0, 1.0, 23)], id="beam23"),
        pytest.param([beam_example(1.0, 1.0, 128)], id="beam128"),
        pytest.param(perturbed_beam_family(17, 16), id="perturbed"),
    ])
    def test_dominates_sampled_remainder(self, systems):
        # the closed form must bound the remainder wherever it is sampled
        for sys in systems:
            for k in range(1, sys.N + 1):
                ctx = CharContext(sys, k)
                r1 = R1_FRACTION * convergence_radius(ctx)
                assert estimate_M(ctx, r1) >= sampled_remainder_peak(ctx, r1), (sys.N, k)

    def test_r1_range_validation(self, beam23):
        ctx = CharContext(beam23, 10)
        r0 = convergence_radius(ctx)
        with pytest.raises(ValueError):
            estimate_M(ctx, r0 * 1.01)
        with pytest.raises(ValueError):
            estimate_M(ctx, 0.0)


class TestConvergenceRadius:
    def test_interior_mode_uses_nearest_gap(self, beam23):
        # omega_10 = 100: gaps are 19 (down) and 21 (up); distance to 0 is 100
        assert convergence_radius(CharContext(beam23, 10)) == 19.0

    def test_first_mode_sees_origin(self, beam23):
        # omega_1 = 1: the origin is closer than omega_2 - omega_1 = 3
        assert convergence_radius(CharContext(beam23, 1)) == 1.0

    def test_last_mode_one_sided(self, beam23):
        assert convergence_radius(CharContext(beam23, 23)) == 529.0 - 484.0


class TestLocalize:
    def test_weakly_coupled_mode_is_separated(self, beam23):
        cert = localize(CharContext(beam23, 15))
        assert cert.separated
        assert cert.cond_Mneq1 and cert.cond_Mneq2
        assert cert.interval_ok and cert.contained
        assert cert.Rk <= 0.5 * abs(cert.lambda_star.real) * (1 + 1e-12)

    def test_disk_encloses_dense_oracle_eigenvalue(self, beam23):
        # an independent eigensolver must place the mode-15 eigenvalue
        # inside the certified disk
        from obsdecay.spectrum import dense_oracle_spectrum

        cert = localize(CharContext(beam23, 15))
        oracle = dense_oracle_spectrum(beam23)
        nearest = oracle[np.argmin(np.abs(oracle - cert.lambda_star))]
        assert abs(nearest - cert.lambda_star) < cert.Rk

    def test_strongly_coupled_mode_raises(self, beam23):
        with pytest.raises(LocalizationError):
            localize(CharContext(beam23, 1))

    def test_certificate_relations(self, beam23):
        for k in (3, 8, 15, 23):
            cert = localize(CharContext(beam23, k))
            f0, f1 = cert.F0, cert.F1
            assert cert.c_const == pytest.approx(abs(f0 / f1), rel=1e-12)
            assert cert.b == pytest.approx(np.sqrt(abs(f1) / (4 * cert.M)), rel=1e-12)
            assert cert.lambda_star == pytest.approx(1j * 1.0 * k**2 - f0 / f1)

    def test_halved_rate_below_b_squared(self, beam23):
        # dominance condition forces 0.5 |Re lambda_star| < b^2
        for k in range(3, 24):
            cert = localize(CharContext(beam23, k))
            if cert.cond_Mneq1:
                assert 0.5 * abs(cert.lambda_star.real) < cert.b**2

    def test_gain_frequency_product_exceeds_one(self, beam23, single_mode):
        for sys in (single_mode, beam23):
            for k in range(1, sys.N + 1):
                _, f1 = char_linearization(CharContext(sys, k))
                assert sys.gamma * sys.omegas[k - 1] * abs(f1) > 1.0

    def test_dominance_margin_positive_on_contour(self, beam23):
        # every certifiable mode must satisfy |r| < |g| at all 64 samples
        seen = 0
        for k in range(1, 24):
            ctx = CharContext(beam23, k)
            try:
                cert = localize(ctx)
            except LocalizationError:
                continue
            if cert.cond_Mneq1 and cert.interval_ok:
                assert rouche_margin(ctx, cert) > 0.0
                seen += 1
        assert seen >= 20

    def test_theta_frac_validation(self, beam23):
        with pytest.raises(ValueError):
            localize(CharContext(beam23, 5), theta_frac=0.0)
        with pytest.raises(ValueError):
            localize(CharContext(beam23, 5), theta_frac=1.0)

    def test_omega_flag(self):
        sys = build_system(1.0, [0.5, 4.0], [1.0, 1.0])
        ctx = CharContext(sys, 1)
        try:
            cert = localize(ctx)
            assert not cert.omega_gt_1
        except LocalizationError:
            pass  # strong coupling may defeat the interval; the flag path
        cert23 = localize(CharContext(beam_example(1.0, 1.0, 23), 5))
        assert cert23.omega_gt_1


class TestLocalizeScaling:
    @pytest.mark.parametrize("n", [128, 512, 1024])
    def test_every_mode_from_three_is_certified(self, n):
        sys = beam_example(1.0, 1.0, n)
        for k in (1, 2):
            with pytest.raises(LocalizationError):
                localize(CharContext(sys, k))
        for k in range(3, n + 1):
            cert = localize(CharContext(sys, k))
            assert cert.rouche_ok and cert.separated, k

    def test_disks_hold_one_dense_oracle_eigenvalue(self):
        from obsdecay.spectrum import dense_oracle_spectrum

        sys = beam_example(1.0, 1.0, 64)
        oracle = dense_oracle_spectrum(sys)
        for k in range(3, 65):
            cert = localize(CharContext(sys, k))
            for center in (cert.lambda_star, np.conjugate(cert.lambda_star)):
                assert np.count_nonzero(np.abs(oracle - center) < cert.Rk) == 1, k
