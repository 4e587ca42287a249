import collections

import numpy as np
import pytest

from conftest import SINGLE_MODE_ROOTS, localizations, perturbed_beam_family
from obsdecay import spectrum
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
    NEWTON_MAX_HALVINGS,
    NEWTON_MAX_ITERS,
    NEWTON_TOL,
    POLE_GUARD,
    RESIDUAL_CERT_FACTOR,
    NewtonError,
    WindingError,
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


def solve_lower_root(sys, k, loc):
    """The lower root of mode k solved on its own, with its certificate fields.

    Newton from the conjugated first-order seed (or from the conjugated
    left-shifted backup seed), then a winding count over the conjugated
    disk.  Returns ``(lam, residual, newton_iters, winding, certified,
    fallback, disk_center, disk_radius)``, or None when no root of mode k is
    found.
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
    if loc is not None and not fallback:
        center, radius, rouche_ok = loc.lambda_star.conjugate(), loc.Rk, loc.rouche_ok
    else:
        poles = np.concatenate([[0.0], 1j * sys.omegas, -1j * sys.omegas])
        center, radius, rouche_ok = lam, 0.5 * float(np.min(np.abs(lam - poles))), False
    try:
        wind = winding_number(sys, (center, radius))
    except (WindingError, PoleError):
        wind = None
    certified = bool(rouche_ok and wind == 1 and abs(lam - center) < radius
                     and resid <= RESIDUAL_CERT_FACTOR * (1.0 + abs(eval_f_prime(sys, lam)))
                     and lam.real < 0.0)
    return lam, resid, iters, wind, certified, fallback, center, radius


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
        # lower root on its own must give the same fields exactly
        for sys in systems:
            rep = full_spectrum(sys)
            lower = {e.k: e for e in rep.lower()}
            locs = localizations(sys)
            for k in range(1, sys.N + 1):
                direct = solve_lower_root(sys, k, locs.get(k))
                if direct is None:
                    assert k not in lower, (sys.N, k)
                    continue
                e = lower[k]
                assert (e.lam, e.residual, e.newton_iters, e.winding, e.certified,
                        e.fallback, e.disk_center, e.disk_radius) == direct, (sys.N, k)
            assert [e.k for e in rep.upper()] == list(lower)

    def test_perturbed_oracle_systems_cover_fallback_and_failures(self):
        reps = [full_spectrum(s) for s in perturbed_beam_family(1, 4) + perturbed_beam_family(2, 4)]
        assert any(e.fallback for rep in reps for e in rep.eigs)
        assert any("distinct" in msg for rep in reps for msg in rep.failures)
        assert any("mode band" in msg for rep in reps for msg in rep.failures)

    def test_one_newton_solve_and_winding_count_per_mode(self, beam23, monkeypatch):
        # one batched Newton for all modes, one more for the fallback seeds;
        # one winding count per found mode
        calls = collections.Counter()
        for name in ("newton_roots", "winding_number"):
            def counted(*args, _fn=getattr(spectrum, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectrum, name, counted)
        full_spectrum(beam23)
        assert calls == {"newton_roots": 1, "winding_number": 23}
        calls.clear()
        rep = full_spectrum(beam_example(1.0, 1.0, 128))
        assert calls == {"newton_roots": 2, "winding_number": len(rep.upper())}

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
