import dataclasses
import math

import mpmath
import numpy as np
import pytest

import oracles
from conftest import load_bench_workloads, perturbed_beam_family
from oracles import (
    dense_oracle_spectrum,
    eval_f,
    eval_f_prime,
    eval_f_rational,
    first_order_predictions,
    rouche_margin,
)
from obsdecay import cli, reports
from obsdecay.charfn import (
    R1_FRACTION,
    CharContext,
    LocalizationCertificate,
    LocalizationError,
    PoleError,
    _convergence_radii,
    estimate_M,
    eval_F,
    localize,
    localize_modes,
    newton_seed_offsets,
)
from obsdecay.model import SystemSpec, beam_example, build_system
from obsdecay.spectrum import full_spectrum

# f at 0.5 + 0.5i for the N=23 quadratic-frequency family, summed at 50
# decimal digits with mpmath (term-by-term, ascending mode order).
F_BEAM23_HALF_HALF = 2.80099362173489 + 3.6346554739934485j


# ---- reference: one mode at a time, in scalar code --------------------------

def reference_linearization(sys, k):
    """F and F' at i*omega_k, the sum over j != k formed for this mode alone."""
    wk, ck = float(sys.omegas[k - 1]), float(sys.cs[k - 1])
    mask = np.arange(sys.N) != k - 1
    others = 2.0 * float(np.sum(sys.cs[mask] ** 2 / (sys.omegas[mask] ** 2 - wk**2)))
    s = others + ck**2 / (2.0 * wk**2)
    return complex(ck**2 / wk), 2.0 / (sys.gamma * wk) + 1j * s


def reference_convergence_radius(sys, k):
    wk = float(sys.omegas[k - 1])
    candidates = [wk]
    if k > 1:
        candidates.append(wk - float(sys.omegas[k - 2]))
    if k < sys.N:
        candidates.append(float(sys.omegas[k]) - wk)
    return min(candidates)


def reference_M(sys, k, R1):
    wk = float(sys.omegas[k - 1])
    weights = sys.cs**2 / sys.omegas
    d_upper = np.abs(np.delete(sys.omegas, k - 1) - wk)
    d_lower = sys.omegas + wk
    upper = np.sum(np.delete(weights, k - 1) / (d_upper * (d_upper - R1)))
    lower = np.sum(weights / (d_lower * (d_lower - R1)))
    return float(upper + lower + (2.0 / sys.gamma) / (wk * (wk - R1)))


def reference_localize(sys, k, theta_frac=0.5):
    """The certificate of mode k built from its own O(N) sums; raises
    LocalizationError on an empty admissible interval."""
    wk, ck = float(sys.omegas[k - 1]), float(sys.cs[k - 1])
    f0, f1 = reference_linearization(sys, k)
    lam_s = 1j * wk - f0 / f1
    R0 = reference_convergence_radius(sys, k)
    R1 = R1_FRACTION * R0
    M = reference_M(sys, k, R1)
    abs_f0, abs_f1 = abs(f0), abs(f1)
    b = math.sqrt(abs_f1 / (4.0 * M))
    c_const = abs(f0 / f1)
    cond1 = 0.0 < M < abs_f1**2 / (4.0 * abs_f0)
    gw = sys.gamma * wk
    cond2 = M < gw * abs_f1**3 / (ck**2 * (gw * abs_f1 + 1.0) ** 2)
    if b * b <= c_const:
        raise LocalizationError(
            f"mode {k}: empty admissible radius interval (b^2 = {b*b:.3e} "
            f"<= c = {c_const:.3e})"
        )
    root = math.sqrt(b * b - c_const)
    lo, hi = (b - root) ** 2, (b + root) ** 2
    sep_target = theta_frac * abs(lam_s.real)
    candidate = min(sep_target, (0.5 * (b + root)) ** 2)
    if lo < candidate < hi:
        rk, interval_ok = candidate, True
    else:
        clamped = min(max(candidate, lo * (1.0 + 1e-9)), hi * (1.0 - 1e-9))
        if lo < clamped < hi and clamped <= sep_target:
            rk, interval_ok = clamped, True
        else:
            rk = sep_target
            interval_ok = lo < rk < hi
    contained = c_const + rk <= R1
    separated = bool(interval_ok and cond1 and contained
                     and rk <= sep_target * (1.0 + 1e-12))
    return LocalizationCertificate(
        k=k, lambda_star=lam_s, F0=f0, F1=f1, M=M, R0=R0, R1=R1,
        b=b, c_const=c_const, Rk=rk, theta_frac=theta_frac,
        cond_Mneq1=bool(cond1), cond_Mneq2=bool(cond2),
        interval_ok=bool(interval_ok), contained=bool(contained),
        separated=separated, omega_gt_1=bool(wk > 1.0),
    )


def bits(cert):
    """Every field of a certificate, with floats by their exact repr."""
    return repr(dataclasses.astuple(cert))


# bitwise parity set: numpy's c_j**2 differs from the Python float's in the
# last bit on some of the random family (seed 1)
PARITY_SYSTEMS = [build_system(1.0, [1.0], [1.0])]
PARITY_SYSTEMS += [beam_example(1.0, 1.0, n, gamma=g) for n in (2, 9, 23, 64, 256, 1024)
                   for g in (0.1, 0.3, 1.0, 3.0)]
PARITY_SYSTEMS += perturbed_beam_family(1, 4) + perturbed_beam_family(17, 16)


class TestEvalF:
    def test_single_mode_value(self, single_mode):
        assert eval_f(single_mode, 1.0) == 3j

    def test_purely_imaginary_on_real_axis(self, beam23, single_mode):
        for sys in (single_mode, beam23):
            for lam in (0.5, 1.5, -2.0, 17.3):
                assert eval_f(sys, lam).real == 0.0

    @pytest.mark.parametrize("n, gamma", [(1, 2.0), (2, 1.0), (23, 1.0)])
    def test_bitwise_the_plain_expression(self, n, gamma):
        # the evaluation into reused arrays against the expression with a fresh
        # array per operation, on lone points and batches; near the double root
        # -1 of N = 1, gamma = 2 the real part of (lam - i)^2 cancels
        sys = beam_example(1.0, 1.0, n, gamma=gamma)
        rng = np.random.default_rng(n)
        lams = np.concatenate([-1.0 + 1e-4 * rng.normal(size=20) + 1e-7j * rng.normal(size=20),
                               rng.normal(size=20) + 1j * n * n * rng.normal(size=20)])
        iw = 1j * sys.omegas
        for batch in [lams[i:i + 1] for i in range(lams.size)] + [lams]:
            L = batch[:, None]
            f = np.sum(sys.c2_over_w * (1.0 / (L - iw) - 1.0 / (L + iw)), axis=-1) \
                + 2j / (sys.gamma * batch)
            fp = np.sum(sys.c2_over_w * (-1.0 / (L - iw) ** 2 + 1.0 / (L + iw) ** 2), axis=-1) \
                - 2j / (sys.gamma * batch**2)
            assert eval_f(sys, batch).tobytes() == f.tobytes()
            assert eval_f_prime(sys, batch).tobytes() == fp.tobytes()
            if batch.size == 1:
                assert eval_f_prime(sys, batch[0]) == complex(fp[0])

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

    def test_pole_in_large_off_axis_batch(self, beam23):
        # a batch with no point on the axis skips the pole lookup; one exact
        # pole appended to it must still reject the whole batch
        rng = np.random.default_rng(13)
        off = rng.uniform(-2.0, -1e-3, 2000) + 1j * rng.uniform(-600.0, 600.0, 2000)
        w = beam23.omegas
        eval_f(beam23, off)
        eval_f_prime(beam23, off)
        for pole in (0.0, 1j * w[6], -1j * w[6], complex(-0.0, w[-1])):
            for fn in (eval_f, eval_f_prime):
                with pytest.raises(PoleError):
                    fn(beam23, np.append(off, pole))
        ctx = CharContext(beam23, 7)
        eval_F(ctx, np.append(off, 1j * w[6]))  # the cleared centre is admissible
        for pole in (0.0, -1j * w[6], 1j * w[7]):
            with pytest.raises(PoleError):
                eval_F(ctx, np.append(off, pole))

    def test_context_validation(self, beam23):
        with pytest.raises(ValueError):
            CharContext(beam23, 0)
        with pytest.raises(ValueError):
            CharContext(beam23, 24)


class TestLambdaStar:
    def test_single_mode_hand_value(self, single_mode):
        # -1/(2 + i/2) + i = -8/17 + 19i/17
        val = complex(first_order_predictions(single_mode)[0])
        assert val == pytest.approx(complex(-8.0 / 17.0, 19.0 / 17.0), abs=1e-15)

    def test_closed_form_components(self, beam23):
        # real/imag parts through the explicit S-sum representation
        predictions = first_order_predictions(beam23)
        for k in (1, 4, 9, 17, 23):
            ctx = CharContext(beam23, k)
            s = beam23.linearization[1, k - 1].imag
            wk, ck, g = ctx.omega_k, ctx.c_k, beam23.gamma
            val = predictions[k - 1]
            re_abs = 2.0 * g * ck**2 / (4.0 + g**2 * wk**2 * s**2)
            im = wk + (ck**2 / wk) * s / (4.0 / (g**2 * wk**2) + s**2)
            assert abs(val.real) == pytest.approx(re_abs, rel=1e-12)
            assert val.imag == pytest.approx(im, rel=1e-12)

    def test_strictly_stable_side_and_off_axis(self, beam23, single_mode):
        for sys in (single_mode, beam23):
            for val in first_order_predictions(sys):
                assert val.real < 0.0
                assert val.imag != 0.0

    def test_each_mode_matches_the_reference(self, single_mode):
        # bitwise, on systems where numpy's c_j**2 differs from the Python
        # float's in the last bit (random family, seed 1); localize_modes keeps
        # the prediction of the modes that localize
        systems = [single_mode] + [beam_example(1.0, 1.0, n) for n in (2, 9, 23, 256)]
        systems += perturbed_beam_family(1, 4)
        systems += [SystemSpec.from_json_dict(case.doc)
                    for case in load_bench_workloads().random_family(1)]
        for sys in systems:
            expected = []
            for k in range(1, sys.N + 1):
                f0, f1 = reference_linearization(sys, k)
                expected.append(1j * float(sys.omegas[k - 1]) - f0 / f1)
            assert first_order_predictions(sys).tolist() == expected
            rep = localize_modes(sys, range(1, sys.N + 1))
            assert rep.lambda_star.tolist() == [expected[k - 1] for k in rep.k.tolist()]

    def test_quadratic_approach_rate(self, beam23):
        # |lambda_star - i omega_k| * k^2 stays bounded for the beam family
        scaled = [abs(val - 1j * beam23.omegas[k - 1]) * k**2
                  for k, val in enumerate(first_order_predictions(beam23), start=1)]
        assert max(scaled) < 1.0
        # and settles near gamma/2 for high modes
        assert scaled[-1] == pytest.approx(0.5, rel=0.05)


def mp_F(sys, k):
    """F of mode k as an mpmath function, in the regrouped form finite at i*omega_k."""
    wk, ck, gamma = sys.omegas[k - 1], sys.cs[k - 1], sys.gamma
    others = [(mpmath.mpf(c) ** 2 / w, mpmath.mpf(w)) for j, (w, c)
              in enumerate(zip(sys.omegas.tolist(), sys.cs.tolist())) if j != k - 1]
    iwk = mpmath.mpc(0, wk)

    def F(lam):
        f = sum(q * (1 / (lam - 1j * w) - 1 / (lam + 1j * w)) for q, w in others)
        return (lam - iwk) * (f + 2j / (gamma * lam)) + 2j * mpmath.mpf(ck) ** 2 / (lam + iwk)
    return F, iwk


class TestNewtonSeed:
    @pytest.mark.parametrize("sys", [beam_example(1.0, 1.0, 23)] + perturbed_beam_family(1, 2),
                             ids=lambda s: f"N{s.N}")
    def test_second_derivative_matches_extended_precision(self, sys):
        with mpmath.workdps(40):
            for k in range(1, sys.N + 1):
                F, iwk = mp_F(sys, k)
                want = complex(mpmath.diff(F, iwk, 2))
                got = complex(sys.linearization[2, k - 1])
                assert abs(got - want) <= 1e-12 * abs(want), (sys.N, k)

    @pytest.mark.parametrize("sys", [beam_example(1.0, 1.0, 23), beam_example(1.0, 1.0, 23, 3.0)]
                             + perturbed_beam_family(2, 3), ids=lambda s: f"N{s.N}-{s.gamma:.3g}")
    def test_nearest_root_of_the_cleared_quadratic_model(self, sys):
        # G(lam) = lam F(lam): G(c + s) ~ G0 + G1 s + G2 s^2 / 2 at c = i omega_k
        for k, s in enumerate(newton_seed_offsets(sys), start=1):
            f0, f1, f2 = sys.linearization[:, k - 1].tolist()
            c = CharContext(sys, k).center
            g = [c * f0, f0 + c * f1, 2.0 * f1 + c * f2]
            roots = np.roots([g[2] / 2.0, g[1], g[0]])
            assert np.min(np.abs(roots - s)) <= 1e-9 * abs(s), (sys.N, k)
            assert abs(s) <= np.max(np.abs(roots)), (sys.N, k)

    def test_second_order_seed_is_closer_on_the_beam(self, beam23):
        roots = full_spectrum(beam23).lam
        seeds = 1j * beam23.omegas + newton_seed_offsets(beam23)
        first = first_order_predictions(beam23)
        assert np.all(np.abs(seeds - roots) < np.abs(first - roots))


def sampled_remainder_peak(ctx, R1):
    """Reference oracle: max of |F - F0 - s F1| / |s|^2 at 4096 points of |s| = R1."""
    f0, f1 = ctx.sys.linearization[:2, ctx.k - 1].tolist()
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
                r1 = R1_FRACTION * _convergence_radii(sys, np.array([k]))[0]
                assert estimate_M(ctx, r1) >= sampled_remainder_peak(ctx, r1), (sys.N, k)

    def test_r1_range_validation(self, beam23):
        ctx = CharContext(beam23, 10)
        r0 = _convergence_radii(beam23, np.array([10]))[0]
        with pytest.raises(ValueError):
            estimate_M(ctx, r0 * 1.01)
        with pytest.raises(ValueError):
            estimate_M(ctx, 0.0)


class TestConvergenceRadius:
    def test_interior_mode_uses_nearest_gap(self, beam23):
        # omega_10 = 100: gaps are 19 (down) and 21 (up); distance to 0 is 100
        assert _convergence_radii(beam23, np.array([10])).tolist() == [19.0]

    def test_first_mode_sees_origin(self, beam23):
        # omega_1 = 1: the origin is closer than omega_2 - omega_1 = 3
        assert _convergence_radii(beam23, np.array([1])).tolist() == [1.0]

    def test_last_mode_one_sided(self, beam23):
        assert _convergence_radii(beam23, np.array([23])).tolist() == [529.0 - 484.0]


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
                f1 = sys.linearization[1, k - 1]
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
        sys = beam_example(1.0, 1.0, 64)
        oracle = dense_oracle_spectrum(sys)
        for k in range(3, 65):
            cert = localize(CharContext(sys, k))
            for center in (cert.lambda_star, np.conjugate(cert.lambda_star)):
                assert np.count_nonzero(np.abs(oracle - center) < cert.Rk) == 1, k


class TestLocalizeModes:
    def test_batch_matches_each_mode(self):
        # field for field, bitwise, and the same LocalizationError text
        cases = [(sys, theta_frac) for sys in PARITY_SYSTEMS for theta_frac in (0.5, 0.2)]
        cases += [(SystemSpec.from_json_dict(case.doc), 0.5)
                  for case in load_bench_workloads().random_family(1)]
        for sys, theta_frac in cases:
            rep = localize_modes(sys, range(1, sys.N + 1), theta_frac)
            certs, failures = rep.certificates, rep.failures
            assert sorted(certs.keys() | failures.keys()) == list(range(1, sys.N + 1))
            assert not certs.keys() & failures.keys()
            for k in range(1, sys.N + 1):
                try:
                    expected = reference_localize(sys, k, theta_frac)
                except LocalizationError as exc:
                    assert failures[k] == str(exc), (sys.N, k)
                    with pytest.raises(LocalizationError) as one:
                        localize(CharContext(sys, k), theta_frac)
                    assert str(one.value) == str(exc)
                    continue
                assert bits(certs[k]) == bits(expected), (sys.N, k)
                assert bits(localize(CharContext(sys, k), theta_frac)) == bits(expected)

    @pytest.mark.parametrize("n", [23, 256])
    def test_first_two_beam_modes_fail_with_the_same_text(self, n):
        sys = beam_example(1.0, 1.0, n)
        rep = localize_modes(sys, range(1, n + 1))
        certs, failures = rep.certificates, rep.failures
        assert sorted(failures) == [1, 2] and len(certs) == n - 2
        for k in (1, 2):
            with pytest.raises(LocalizationError) as exc:
                reference_localize(sys, k)
            assert failures[k] == str(exc.value)
            assert failures[k].startswith(f"mode {k}: empty admissible radius interval")

    def test_each_helper_matches_its_reference(self):
        for sys in PARITY_SYSTEMS:
            radii = _convergence_radii(sys, np.arange(1, sys.N + 1)).tolist()
            for k, f0, f1, r0 in zip(range(1, sys.N + 1), *sys.linearization[:2].tolist(), radii):
                ctx = CharContext(sys, k)
                assert (f0, f1) == reference_linearization(sys, k)
                assert r0 == reference_convergence_radius(sys, k)
                for r1 in (R1_FRACTION * r0, 0.5 * r0):
                    assert estimate_M(ctx, r1) == reference_M(sys, k, r1)

    def test_any_subset_in_any_order(self, beam23):
        rep = localize_modes(beam23, [23, 2, 9, 9])
        certs, failures = rep.certificates, rep.failures
        assert sorted(certs) == [9, 23] and sorted(failures) == [2]
        assert bits(certs[9]) == bits(reference_localize(beam23, 9))
        rep = localize_modes(beam23, [])
        assert (rep.certificates, rep.failures) == ({}, {})

    def test_validation(self, beam23):
        for ks in ([0], [24], [1, 24]):
            with pytest.raises(ValueError):
                localize_modes(beam23, ks)
        for theta_frac in (0.0, 1.0):
            with pytest.raises(ValueError):
                localize_modes(beam23, [5], theta_frac)

    @pytest.mark.parametrize("n", [23, 256])
    def test_localize_artifacts_match_the_reference(self, n, tmp_path):
        # localization.json and localization.csv byte for byte as written
        # from the per-mode reference certificates
        config = tmp_path / "config.json"
        config.write_text('{"gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, '
                          f'"sigma": 1.0, "N": {n}}}}}')
        out = tmp_path / "out"
        assert cli.main(["localize", "--config", str(config), "--out", str(out)]) == 0
        sys = beam_example(1.0, 1.0, n)
        ordered = []
        for k in range(1, n + 1):
            try:
                ordered.append(reference_localize(sys, k))
            except LocalizationError:
                continue
        ref = tmp_path / "ref"
        ref.mkdir()
        (ref / "localization.csv").write_bytes(oracles.localization_csv(ordered))
        reports.write_json(str(ref / "localization.json"), {
            "certificates": [c.to_json_dict() for c in ordered],
            "failed_modes": [k for k in range(1, n + 1) if k not in {c.k for c in ordered}],
        })
        for name in ("localization.csv", "localization.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name
