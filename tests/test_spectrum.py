import collections

import numpy as np
import pytest

from conftest import SINGLE_MODE_ROOTS, perturbed_beam_family
from obsdecay import charfn, spectrum
from obsdecay.charfn import (
    CharContext,
    PoleError,
    eval_f,
    eval_f_prime,
    lambda_star,
    localize,
)
from obsdecay.model import beam_example
from obsdecay.spectrum import (
    CERT_RADII,
    NEWTON_MAX_HALVINGS,
    NEWTON_MAX_ITERS,
    NEWTON_TOL,
    POLE_GUARD,
    NewtonError,
    dense_oracle_spectrum,
    enclosure_radius,
    full_spectrum,
    matching_distance,
    newton_root,
    newton_roots,
    winding_number,
)


def scalar_newton_root(sys, seed, tol=NEWTON_TOL, max_iters=NEWTON_MAX_ITERS):
    """Reference copy of the one-seed damped Newton loop that ``newton_roots`` batches.

    Steps are halved (up to 20 times) until |f| decreases; seeds and
    candidates within 1e-12 of a pole are rejected.  Returns ``(root,
    |f(root)|, iterations)`` or raises PoleError / NewtonError.
    """
    poles = np.concatenate([[0.0 + 0.0j], 1j * sys.omegas, -1j * sys.omegas])
    lam = complex(seed)
    if np.min(np.abs(lam - poles)) <= POLE_GUARD:
        raise PoleError(f"seed {lam} is (numerically) a pole of the characteristic function")

    fval = eval_f(sys, lam)
    for iters in range(max_iters):
        resid = abs(fval)
        if resid <= tol:
            return lam, resid, iters
        deriv = eval_f_prime(sys, lam)
        if deriv == 0:
            raise NewtonError(f"vanishing derivative at {lam}")
        step = -fval / deriv
        accepted = False
        near_pole_only = True
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            cand = lam + step
            if np.min(np.abs(cand - poles)) <= POLE_GUARD:
                step *= 0.5
                continue
            near_pole_only = False
            cand_f = eval_f(sys, cand)
            if abs(cand_f) < resid:
                lam, fval = cand, cand_f
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if near_pole_only:
                raise PoleError(f"iteration stalled within {POLE_GUARD} of a pole near {lam}")
            raise NewtonError(f"damping failed to reduce |f| below {resid:.3e} at {lam}")
    raise NewtonError(f"no convergence after {max_iters} iterations (|f| = {abs(fval):.3e})")


def assert_matches_scalar(sys, seeds, **kwargs):
    """``newton_roots`` on ``seeds`` equals the reference loop on each seed.

    Roots, residuals and iteration counts must be equal, failures of the same
    type with the same message.  Returns the reference outcomes, each a
    result tuple or an exception.
    """
    roots, resids, iters, errors = newton_roots(sys, seeds, **kwargs)
    assert len(roots) == len(resids) == len(iters) == len(errors) == len(seeds)
    outcomes = []
    for i, seed in enumerate(seeds):
        try:
            expected = scalar_newton_root(sys, seed, **kwargs)
        except (NewtonError, PoleError) as exc:
            assert (type(errors[i]), str(errors[i])) == (type(exc), str(exc)), (i, seed)
            outcomes.append(exc)
        else:
            assert errors[i] is None, (i, seed, errors[i])
            assert (complex(roots[i]), float(resids[i]), int(iters[i])) == expected, (i, seed)
            outcomes.append(expected)
    return outcomes


def primary_seeds(sys):
    return [lambda_star(CharContext(sys, k)) for k in range(1, sys.N + 1)]


def fallback_seed(sys, k):
    wk = float(sys.omegas[k - 1])
    return -0.5 * enclosure_radius(sys, 1j * wk) + 1j * wk


def band_exit(sys, k, root):
    band = 0.5 * (sys.min_gap() if sys.N > 1 else float(sys.omegas[0]))
    return abs(root.imag - float(sys.omegas[k - 1])) > band


def reference_radius(sys, z, fz):
    """Reference copy of the a-posteriori Rouche test at one root ``z`` with |f(z)| = fz.

    The largest radius ``r`` on the grid, as a fraction of
    ``min(distance to the nearest pole, -Re z)``, with
    ``|f'(z)| r - fz > r^2 sum_a |res_a| / (d_a^2 (d_a - r))``; NaN if none.
    """
    poles = np.concatenate([[0.0], 1j * sys.omegas, -1j * sys.omegas])
    weights = sys.cs**2 / sys.omegas
    res = np.concatenate([[2.0 / sys.gamma], weights, weights])
    d = np.abs(z - poles)
    reach = min(float(np.min(d)), -z.real)
    slope = abs(eval_f_prime(sys, z))
    for frac in CERT_RADII[::-1] if reach > 0.0 else ():
        r = frac * reach
        if slope * r - fz > r * r * np.sum(res / (d * d * (d - r))):
            return r
    return float("nan")


def solve_lower_root(sys, k):
    """The lower root of mode k solved on its own, with its certificate disk.

    Newton from the conjugated first-order seed (or from the conjugated
    left-shifted backup seed), then the Rouche test at that root.  Returns
    ``(lam, residual, newton_iters, fallback, disk_center, disk_radius)``,
    or None when no root of mode k is found.
    """
    wk = float(sys.omegas[k - 1])
    band = 0.5 * (sys.min_gap() if sys.N > 1 else wk)
    fallback = False
    try:
        lam, resid, iters = newton_root(sys, lambda_star(CharContext(sys, k)).conjugate())
        if abs(lam.imag + wk) > band:
            raise NewtonError("left the mode band")
    except (NewtonError, PoleError):
        fallback = True
        try:
            lam, resid, iters = newton_root(sys, -0.5 * enclosure_radius(sys, 1j * wk) - 1j * wk)
        except (NewtonError, PoleError):
            return None
        if abs(lam.imag + wk) > band:
            return None
    if np.argmin(np.abs(sys.omegas - abs(lam.imag))) + 1 != k:
        return None
    return lam, resid, iters, fallback, lam, reference_radius(sys, lam, resid)


def same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


def disks_meet(c, r):
    """Whether each closed disk meets another one (brute force)."""
    meet = np.abs(c[:, None] - c[None, :]) <= r[:, None] + r[None, :]
    np.fill_diagonal(meet, False)
    return meet.any(axis=1)


def certificate_disks_meet(eigs):
    return disks_meet(np.array([e.disk_center for e in eigs]),
                      np.array([e.disk_radius for e in eigs]))


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


class TestNewtonRootsParity:
    """The batched iteration reproduces the scalar loop element by element."""

    def test_beam23_seeds(self, beam23):
        outcomes = assert_matches_scalar(beam23, primary_seeds(beam23))
        assert all(isinstance(o, tuple) for o in outcomes)

    def test_beam128_primary_and_fallback_seeds(self):
        sys = beam_example(1.0, 1.0, 128)
        primary = assert_matches_scalar(sys, primary_seeds(sys))
        failed = [k for k, o in enumerate(primary, start=1)
                  if isinstance(o, Exception) or band_exit(sys, k, o[0])]
        assert failed and failed[0] == 65
        assert all("damping failed" in str(primary[k - 1]) for k in failed)
        fallback = assert_matches_scalar(sys, [fallback_seed(sys, k) for k in failed])
        assert any(band_exit(sys, k, o[0]) for k, o in zip(failed, fallback))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_perturbed_family_seeds(self, seed):
        fallbacks = 0
        for sys in perturbed_beam_family(seed, 4):
            primary = assert_matches_scalar(sys, primary_seeds(sys))
            failed = [k for k, o in enumerate(primary, start=1)
                      if isinstance(o, Exception) or band_exit(sys, k, o[0])]
            assert_matches_scalar(sys, [fallback_seed(sys, k) for k in failed])
            fallbacks += len(failed)
        assert fallbacks > 0

    def test_weak_gain_every_root_fails(self):
        sys = beam_example(1.0, 1.0, 5, gamma=1e-6)
        seeds = primary_seeds(sys) + [fallback_seed(sys, k) for k in range(1, 6)]
        outcomes = assert_matches_scalar(sys, seeds)
        assert all(isinstance(o, NewtonError) and "damping failed" in str(o) for o in outcomes)

    @pytest.mark.parametrize("max_iters", [NEWTON_MAX_ITERS, 1])
    def test_pole_seeds_and_iteration_cap(self, single_mode, max_iters):
        seeds = [1j, lambda_star(CharContext(single_mode, 1)), 0.0, 50.0 + 40.0j, -1j]
        outcomes = assert_matches_scalar(single_mode, seeds, max_iters=max_iters)
        assert [type(outcomes[i]) for i in (0, 2, 4)] == [PoleError] * 3
        assert isinstance(outcomes[3], tuple if max_iters > 1 else NewtonError)

    def test_seeds_at_the_pole_guard(self, beam4):
        # the guard looks up only the two poles next to Im z; seeds straddle
        # POLE_GUARD about every pole, beyond both ends and off the axis
        offsets = [0.0, 0.5, 0.999, 1.001, 2.0]
        seeds = []
        for im in [0.0, *beam4.omegas, *-beam4.omegas]:
            for off in offsets:
                for step in (1.0, -1.0, 1j, -1j, (1 + 1j) / np.sqrt(2.0)):
                    seeds.append(complex(0.0, im) + off * POLE_GUARD * step)
        seeds += [complex(0.0, 1e3), complex(0.0, -1e3), complex(-1e-13, 1e-13)]
        outcomes = assert_matches_scalar(beam4, seeds, max_iters=1)
        assert sum(isinstance(o, PoleError) for o in outcomes) > len(outcomes) // 3

    def test_empty_batch(self, single_mode):
        roots, resids, iters, errors = newton_roots(single_mode, [])
        assert roots.size == resids.size == iters.size == len(errors) == 0


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
        np.testing.assert_array_equal(rep.eigenvalues("lower"),
                                      rep.eigenvalues("upper").conj())
        assert rep.enclosure_defect == 0.0

    def test_sorted_one_certificate_per_pair(self, beam23_spectrum):
        keys = [(e.k, e.half) for e in beam23_spectrum.eigs]
        expected = [(k, h) for k in range(1, 24) for h in ("upper", "lower")]
        assert keys == expected

    def test_distinctness(self, beam23_spectrum):
        # 46 pairwise disjoint disks, one eigenvalue in each, prove the
        # eigenvalues distinct
        assert not certificate_disks_meet(beam23_spectrum.eigs).any()
        assert len(set(beam23_spectrum.eigenvalues().tolist())) == 46

    def test_residuals_certified_scale(self, beam23_spectrum):
        for e in beam23_spectrum.eigs:
            assert e.residual <= 1e-10  # raw residual bound, system-wide

    def test_high_modes_fully_certified(self, beam23_spectrum):
        # modes 1-2 have no a-priori disk, but their roots are certified too
        for e in beam23_spectrum.eigs:
            assert e.certified, f"mode {e.k} ({e.half}) is not certified"
            assert e.disk_center == e.lam and 0.0 < e.disk_radius < -e.lam.real

    def test_asymptotic_approach_to_mode_frequencies(self, beam23, beam23_spectrum):
        for e in beam23_spectrum.upper():
            drift = abs(e.lam - 1j * beam23.omegas[e.k - 1]) * e.k**2
            assert drift < 1.0

    def test_enclosure_radius_formula(self, beam23):
        lam = -0.5 + 12.0j
        expected = 0.5 * beam23.gamma * abs(lam) * np.sum(beam23.cs**2 / beam23.omegas)
        assert enclosure_radius(beam23, lam) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("systems", [
        pytest.param([beam_example(1.0, 1.0, 23)], id="beam23"),
        pytest.param([beam_example(1.0, 1.0, 64)], id="beam64"),
        pytest.param([beam_example(1.0, 1.0, 23, gamma=2.0)], id="overdamped"),
        # a fallback root (seed 1), overdamped first modes and modes lost
        # to the band check (seed 2)
        pytest.param(perturbed_beam_family(1, 4) + perturbed_beam_family(2, 4), id="perturbed"),
    ])
    def test_lower_half_matches_direct_solve(self, systems):
        # every lower certificate is the conjugated upper one; solving the
        # lower root on its own and running the reference test there must
        # give the same fields exactly.  A root is certified exactly when it
        # has a disk and that disk meets no other one.
        for sys in systems:
            rep = full_spectrum(sys)
            lower = {e.k: e for e in rep.lower()}
            for k in range(1, sys.N + 1):
                direct = solve_lower_root(sys, k)
                if direct is None:
                    assert k not in lower, (sys.N, k)
                    continue
                e = lower[k]
                assert (e.lam, e.residual, e.newton_iters, e.fallback,
                        e.disk_center) == direct[:5], (sys.N, k)
                assert same_float(e.disk_radius, direct[5]), (sys.N, k)
            assert [e.k for e in rep.upper()] == list(lower)
            for e, meets in zip(rep.eigs, certificate_disks_meet(rep.eigs)):
                assert same_float(e.disk_radius, reference_radius(sys, e.lam, e.residual))
                assert e.certified == (not np.isnan(e.disk_radius) and not meets), (sys.N, e)

    def test_perturbed_oracle_systems_cover_fallback_and_failures(self):
        reps = [full_spectrum(s) for s in perturbed_beam_family(1, 4) + perturbed_beam_family(2, 4)]
        assert any(e.fallback for rep in reps for e in rep.eigs)
        assert any("meets another root's disk" in msg for rep in reps for msg in rep.failures)
        assert any("mode band" in msg for rep in reps for msg in rep.failures)

    def test_one_newton_solve_and_no_localize_or_winding_count(self, beam23, monkeypatch):
        # one batched Newton for all modes, one more for the fallback seeds;
        # the a-priori disks and the contour integral are not consulted
        calls = collections.Counter()

        def counted(*args, **kwargs):
            calls["newton_roots"] += 1
            return newton_roots(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("full_spectrum must not localize or count windings")

        monkeypatch.setattr(spectrum, "newton_roots", counted)
        monkeypatch.setattr(charfn, "localize", forbidden)
        monkeypatch.setattr(spectrum, "winding_number", forbidden)
        full_spectrum(beam23)
        assert calls == {"newton_roots": 1}
        calls.clear()
        full_spectrum(beam_example(1.0, 1.0, 128))
        assert calls == {"newton_roots": 2}

    def test_overdamped_pair_is_flagged(self):
        # at gamma = 2 the first mode pair collides on the real axis; the
        # report must flag the duplication instead of silently passing
        rep = full_spectrum(beam_example(1.0, 1.0, 23, gamma=2.0))
        assert not rep.complete
        meets = [msg for msg in rep.failures if "meets another root's disk" in msg]
        assert [msg.split(":")[0] for msg in meets] == ["mode 1 (upper)", "mode 1 (lower)"]

    def test_rounding_split_real_root_is_not_certified(self):
        # at gamma = 100 mode 1 is overdamped: two real roots, -155.522 and
        # -0.00983.  Newton finds the first, split off the axis by rounding
        # into -155.522 +/- 1.06e-7i, and misses the second.  The two disks
        # of that one real root overlap, so the report is incomplete.
        sys = beam_example(1.0, 1.0, 23, gamma=100.0)
        rep = full_spectrum(sys)
        assert not rep.complete
        first = [e for e in rep.eigs if e.k == 1]
        assert [e.certified for e in first] == [False, False]
        assert abs(first[0].lam.imag) < 1e-6 < first[0].disk_radius
        assert len(rep.failures) == 2
        assert all("mode 1 (" in msg and "meets another root's disk" in msg
                   for msg in rep.failures)
        assert all(e.certified for e in rep.eigs if e.k > 1)
        assert matching_distance(rep.eigenvalues(), dense_oracle_spectrum(sys)) > 100.0


class TestCertificateOracles:
    """Independent checks of the a-posteriori disks."""

    def test_disk_sweep_matches_brute_force(self):
        # crowded random disks, so that disks far apart in the sweep order
        # meet; NaN radii mark roots without a disk
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.normal(size=40) + 1j * rng.normal(size=40)
            r = rng.uniform(0.0, 0.3, 40)
            r[rng.integers(0, 40, 5)] = np.nan
            np.testing.assert_array_equal(spectrum._meets_another(c, r), disks_meet(c, r))

    @pytest.mark.parametrize("systems", [
        pytest.param([beam_example(1.0, 1.0, 23)], id="beam23"),
        pytest.param([beam_example(1.0, 1.0, 128)], id="beam128"),
        pytest.param([s for seed in (1, 2, 3) for s in perturbed_beam_family(seed, 4)],
                     id="perturbed"),
    ])
    def test_each_certified_disk_holds_one_zero(self, systems):
        for sys in systems:
            dense = dense_oracle_spectrum(sys) if sys.N <= 64 else None
            certified = [e for e in full_spectrum(sys).eigs if e.certified]
            assert certified
            for e in certified:
                disk = (e.disk_center, e.disk_radius)
                assert winding_number(sys, disk) == 1, (sys.N, e)
                if dense is not None:
                    inside = np.abs(dense - e.disk_center) < e.disk_radius
                    assert np.count_nonzero(inside) == 1, (sys.N, e)


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
