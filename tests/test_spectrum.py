import collections
import dataclasses
import re

import numpy as np
import pytest

from conftest import (
    SINGLE_MODE_ROOTS,
    SPECTRUM_COLUMNS,
    load_bench_workloads,
    perturbed_beam_family,
)
from oracles import (
    dense_nearest_mode,
    dense_oracle_spectrum,
    eval_f,
    eval_f_prime,
    first_order_predictions,
    matching_distance,
)
from obsdecay import build_basis, charfn, spectrum
from obsdecay.charfn import (
    CharContext,
    PoleError,
    localize,
    newton_seed_offsets,
)
from obsdecay.dynamics import dense_generator
from obsdecay.model import SystemSpec, beam_example, build_system
from obsdecay.spectrum import (
    CERT_FLOOR,
    NEWTON_MAX_HALVINGS,
    NEWTON_MAX_ITERS,
    UNIT_ROUNDOFF,
    NewtonError,
    enclosure_radius,
    escape_radius,
    full_spectrum,
    nearest_mode,
    newton_root,
    newton_roots,
    winding_number,
)


def anchored(sys, seed):
    """``(k, mu)`` of a seed ``lam``, or of its mirror ``conj(lam)`` below the real axis:
    the pole ``i omega_k`` nearest it, and ``mu = lam - i omega_k``."""
    seed = complex(seed)
    if seed.imag < 0.0:
        seed = seed.conjugate()
    k = int(dense_nearest_mode(sys.omegas, seed.imag)) + 1
    return k, complex(seed.real, seed.imag - float(sys.omegas[k - 1]))


def local_terms(sys, k, mu):
    """``lam - a`` over the mode poles of the root ``(k, mu)``.

    Row k of ``SystemSpec.pole_shifts`` holds ``i (omega_k - omega_j)`` then ``i
    (omega_k + omega_j)`` (after the pole at 0).
    """
    w = float(sys.omegas[k - 1])
    return mu.real + 1j * (np.concatenate([w - sys.omegas, w + sys.omegas]) + mu.imag)


def scalar_newton_root(sys, k, mu, max_iters=NEWTON_MAX_ITERS, trials=None):
    """Reference copy of the one-seed damped Newton loop that ``newton_roots`` batches.

    The iterate is ``mu`` about the pole ``i w`` of anchor k.
    An element stops once ``|f| <= (2N + 4) u S`` (S the sum of the moduli of
    f's terms); else it takes Newton's step for ``lam (lam - i w)(lam + i w)
    f``, ``-f / (f' + f c)`` with ``c`` the reciprocals of ``mu + (0, i w, 2i
    w)`` summed in one row, halved (up to NEWTON_MAX_HALVINGS times) until
    |f| decreases.  Seeds exactly at a pole are rejected, and a candidate
    there is a rejected trial; a seed or accepted iterate fails at or past the
    escape radius, or where f, f' or the step overflows; a candidate that
    rounds to the iterate fails at once.  f, f' and S come from
    ``spectrum.eval_f`` on a batch of one.  Appends the trial index of each
    accepted step to ``trials`` when given.  Returns ``(mu, |f|, its rounding
    bound (2N + 10) u S, f', iterations)`` or raises PoleError / NewtonError.
    """
    rho = max(2.0 * sys.omegas[-1], 8.0 * sys.gamma * np.sum(sys.cs**2))
    stop = (2 * sys.N + 4) * UNIT_ROUNDOFF
    w = float(sys.omegas[k - 1])
    shifts = np.array([[0.0, 1j * w, 2j * w]])

    def lam(m):
        return m + complex(0.0, w)

    def at_pole(m):
        return bool(np.any(local_terms(sys, k, m) == 0)) or lam(m) == 0

    def check_escape(m):
        if abs(lam(m)) >= rho:
            raise NewtonError(f"iterate {lam(m)} is past the escape radius {rho:.6g}: no root "
                              "lies there and Newton only moves outward")

    def overflow(m):
        return NewtonError(f"f, f' or the step overflows binary64 at {lam(m)}, beside a pole")

    def evaluate(m):
        with np.errstate(over="ignore", invalid="ignore"):
            fv, dv, scale = spectrum.eval_f(sys, np.array([m]), np.array([k]))
        return fv, dv, float(np.hypot(fv.real, fv.imag)[0]), float(scale[0])

    mu = complex(mu)
    if at_pole(mu):
        raise PoleError(f"seed {lam(mu)} is a pole of the characteristic function")
    check_escape(mu)
    fval, deriv, resid, scale = evaluate(mu)
    if not np.isfinite([resid, scale, deriv[0].real, deriv[0].imag]).all():
        raise overflow(mu)
    for iters in range(max_iters):
        if resid <= stop * scale:
            return mu, resid, (2 * sys.N + 10) * UNIT_ROUNDOFF * scale, complex(deriv[0]), iters
        with np.errstate(over="ignore", invalid="ignore"):
            clear = np.reciprocal(np.array([mu])[:, None] + shifts).sum(axis=1)
            denom = deriv + fval * clear
            if denom[0] == 0:
                raise NewtonError(f"vanishing derivative of the pole-cleared f at {lam(mu)}")
            step = fval / denom
        if not np.isfinite(step[0]):
            raise overflow(mu)
        accepted = False
        for trial in range(NEWTON_MAX_HALVINGS + 1):
            cand = complex((mu - step)[0])
            if cand == mu:
                break
            if at_pole(cand):
                step = step * 0.5
                continue
            cand_f, cand_d, cand_r, cand_s = evaluate(cand)
            if cand_r < resid and np.isfinite(cand_d[0] + cand_s):
                mu, fval, deriv, resid, scale = cand, cand_f, cand_d, cand_r, cand_s
                accepted = True
                if trials is not None:
                    trials.append(trial)
                break
            step = step * 0.5
        if not accepted:
            raise NewtonError(f"damping failed to reduce |f| below {resid:.3e} (stop threshold "
                              f"{stop * scale:.3e}) at {lam(mu)}")
        check_escape(mu)
    raise NewtonError(f"no convergence after {max_iters} iterations (|f| = {resid:.3e})")


def assert_matches_scalar(sys, seeds, **kwargs):
    """``newton_roots`` on the anchored ``seeds`` equals the reference loop on each seed.

    ``seeds`` are ``(k, mu)`` pairs, solved as one batch in their order and
    again in reversed order, so an element that leaked into another would
    show.  In both batches offsets, residuals, derivatives and iteration
    counts must be equal, failures of the same type with the same message.
    Returns the reference outcomes, each a result tuple or an exception.
    """
    ks, mus = [k for k, _ in seeds], [m for _, m in seeds]
    forward = newton_roots(sys, ks, mus, **kwargs)
    backward = [out[::-1] for out in newton_roots(sys, ks[::-1], mus[::-1], **kwargs)]
    assert all(len(out) == len(seeds) for out in forward + tuple(backward))
    outcomes = []
    for i, (k, mu) in enumerate(seeds):
        try:
            expected = scalar_newton_root(sys, k, mu, **kwargs)
        except (NewtonError, PoleError) as exc:
            expected = exc
        for roots, resids, bounds, derivs, iters, errors in (forward, backward):
            if isinstance(expected, Exception):
                assert (type(errors[i]), str(errors[i])) == (type(expected), str(expected)), (
                    i, k, mu)
                continue
            assert errors[i] is None, (i, k, mu, errors[i])
            got = (complex(roots[i]), float(resids[i]), float(bounds[i]), complex(derivs[i]),
                   int(iters[i]))
            assert got == expected, (i, k, mu)
        outcomes.append(expected)
    return outcomes


def primary_seeds(sys):
    """The first-order predictions ``lambda_star`` of every mode, anchored at their poles."""
    return [anchored(sys, z) for z in first_order_predictions(sys).tolist()]


def left_seed(sys, k):
    """A hard seed for mode k: ``-r/2`` about its pole, ``r`` the enclosure radius there."""
    return k, complex(-0.5 * enclosure_radius(sys, 1j * float(sys.omegas[k - 1])))


def band_exit(sys, k, mu):
    band = 0.5 * (sys.min_gap() if sys.N > 1 else float(sys.omegas[0]))
    return abs(mu.imag) > band


def pole_weights(sys):
    """``|res|`` of f at each pole: ``2/gamma`` at 0, then ``c_j^2/omega_j`` at each
    ``i omega_j`` and again at each ``-i omega_j``."""
    return np.concatenate([[2.0 / sys.gamma], sys.c2_over_w, sys.c2_over_w])


def reference_radius(sys, k, mu, f_bound, deriv):
    """Reference copy of the a-posteriori Rouche test at the root ``(k, mu)`` with
    |f| <= f_bound and f' = deriv, in plain numpy.

    With ``reach = min(distance to the nearest pole, -Re z)`` and
    ``K0 = sum_a |res_a| / d_a^3``, the radius ``r = min(reach/2, |f'(z)|/(4 K0))``
    if ``reach > 0``, ``r >= CERT_FLOOR reach`` and ``|f'(z)| r - f_bound > 2 K0 r^2``;
    NaN otherwise.  The own distance is ``|mu|``.  The distances are taken as
    ``sqrt(x^2 + y^2)`` over the pole at 0, then the mode poles, and ``K0``
    sums them by one einsum over that row.
    """
    z = np.concatenate([[complex(mu.real, float(sys.omegas[k - 1]) + mu.imag)],
                        local_terms(sys, k, mu)])
    d = np.sqrt(z.real * z.real + z.imag * z.imag)
    reach = min(float(np.min(d)), -mu.real)
    inv = 1.0 / d
    k0 = float(np.einsum("ij,j->i", (inv * inv * inv)[None, :], pole_weights(sys))[0])
    slope = float(np.hypot(deriv.real, deriv.imag))
    r = min(0.5 * reach, slope / (4.0 * k0))
    if reach > 0.0 and r >= CERT_FLOOR * reach and slope * r - f_bound > 2.0 * k0 * r * r:
        return r
    return float("nan")


def root_values(sys, k, mu):
    """``(|f| plus its rounding bound, f')`` at the root ``(k, mu)``, by ``spectrum.eval_f``."""
    fval, deriv, scale = spectrum.eval_f(sys, np.array([mu]), np.array([k]))
    bound = (2 * sys.N + 10) * UNIT_ROUNDOFF * scale[0]
    return float(np.hypot(fval.real, fval.imag)[0]) + bound, complex(deriv[0])


def solve_lower_root(sys, k):
    """The lower root of mode k solved on its own: the conjugate of its upper root.

    Newton from the second-order seed offset of mode k alone.  Returns ``(lam,
    residual, newton_iters)``, or None when no root of mode k is found.
    """
    wk = float(sys.omegas[k - 1])
    band = 0.5 * (sys.min_gap() if sys.N > 1 else wk)
    mu, resid, _, _, iters, errors = newton_roots(sys, [k], [newton_seed_offsets(sys)[k - 1]])
    if errors[0] is not None or abs(mu[0].imag) > band:
        return None
    lam = complex(mu[0].real, wk + mu[0].imag).conjugate()
    if np.argmin(np.abs(sys.omegas - abs(lam.imag))) + 1 != k:
        return None
    return lam, float(resid[0]), int(iters[0])


def pole_seed_for_mode_1(sys):
    """The second-order seed offsets, with mode 1's put on its pole, so that it fails."""
    offsets = newton_seed_offsets(sys)
    offsets[0] = 0.0
    return offsets


def exact_rouche_terms(sys, z, r):
    """``(d, reach, |f'(z)|, K(r))`` of the Rouche test at ``z``, ``d`` over the poles
    0, ``i omega_j`` and ``-i omega_j``.

    Taken in ``lam`` coordinates by the independent ``oracles`` evaluators.
    """
    d = np.abs(z - np.concatenate([[0.0], 1j * sys.omegas, -1j * sys.omegas]))
    exact_k = np.sum(pole_weights(sys) / (d * d * (d - r)))
    return d, min(float(np.min(d)), -z.real), abs(eval_f_prime(sys, z)), exact_k


def same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


def disks_meet(c, r):
    """Whether each closed disk meets another one (brute force)."""
    meet = np.abs(c[:, None] - c[None, :]) <= r[:, None] + r[None, :]
    np.fill_diagonal(meet, False)
    return meet.any(axis=1)


def certificate_disks_meet(eigs):
    return disks_meet(np.array([e.lam for e in eigs]), np.array([e.disk_radius for e in eigs]))


class TestNewtonRoot:
    def test_single_mode_quadratic_root(self, single_mode):
        seed = complex(first_order_predictions(single_mode)[0])
        root, resid, iters = newton_root(single_mode, seed)
        assert abs(root - SINGLE_MODE_ROOTS[0]) < 1e-12
        assert resid <= 1e-12
        assert iters > 0

    def test_conjugate_seed_gives_conjugate_root(self, single_mode):
        seed = complex(first_order_predictions(single_mode)[0]).conjugate()
        root, _, _ = newton_root(single_mode, seed)
        assert abs(root - SINGLE_MODE_ROOTS[1]) < 1e-12

    def test_seed_at_pole_rejected(self, single_mode):
        with pytest.raises(PoleError):
            newton_root(single_mode, 1j)
        with pytest.raises(PoleError):
            newton_root(single_mode, 0.0)

    def test_root_is_refined_to_the_rounding_bound(self, beam23):
        # the stop rule is relative: |f| within (2N + 4) u of the sum of |terms|
        seed = complex(first_order_predictions(beam23)[19])
        root, resid, iters = newton_root(beam23, seed)
        k, mu = anchored(beam23, root)
        _, _, scale = spectrum.eval_f(beam23, np.array([mu]), np.array([k]))
        assert iters > 0 and resid <= (2 * 23 + 4) * UNIT_ROUNDOFF * scale[0]

    def test_divergence_reported(self, single_mode):
        # one iteration cannot reach the root from a distant seed
        with pytest.raises(NewtonError):
            newton_root(single_mode, 50.0 + 40.0j, max_iters=1)

    def test_lower_seed_is_solved_at_its_mirror(self, single_mode, beam23):
        # a seed below the axis gives the conjugate of the upper solve, with the
        # same residual and iterations, or fails with the same error type: from
        # each mode's seed, from its pole, past the escape radius and when the
        # iteration cap stops it
        outcomes = []
        for sys in [single_mode, beam23] + perturbed_beam_family(1, 4):
            seeds = [complex(0.0, w) + m for w, m in zip(sys.omegas.tolist(),
                                                         newton_seed_offsets(sys).tolist())]
            seeds += [1j * float(sys.omegas[-1]), 50.0 + 40.0j, 0.3 + 1e-300j]
            for seed in seeds:
                for max_iters in (NEWTON_MAX_ITERS, 1):
                    try:
                        root, resid, iters = newton_root(sys, seed, max_iters)
                    except (NewtonError, PoleError) as exc:
                        with pytest.raises(type(exc)):
                            newton_root(sys, seed.conjugate(), max_iters)
                        outcomes.append(type(exc))
                        continue
                    assert newton_root(sys, seed.conjugate(), max_iters) == (
                        root.conjugate(), resid, iters), (sys.N, seed, max_iters)
                    outcomes.append("root")
        assert {PoleError, NewtonError, "root"} <= set(outcomes)


class TestNearestMode:
    @pytest.mark.parametrize("sys", [beam_example(1.0, 1.0, n) for n in (1, 2, 23, 1024)]
                             + [build_system(1.0, [1.0, 3.0], [1.0, 1.0])]
                             + perturbed_beam_family(2, 3), ids=lambda s: f"N{s.N}")
    def test_matches_the_dense_argmin(self, sys):
        # bitwise, at the roots (both halves), at and one ulp beside every frequency
        # and midpoint, at 0, past the top frequency, and anywhere between
        w = sys.omegas
        mids = 0.5 * (w[:-1] + w[1:])
        roots = full_spectrum(sys).lam
        x = np.concatenate([np.abs(roots.imag), w, mids, [0.0, 2.0 * w[-1], 1e3 * w[-1]],
                            np.random.default_rng(sys.N).uniform(0.0, 1.5 * w[-1], 500)])
        x = np.concatenate([x, np.nextafter(x, -np.inf).clip(0.0), np.nextafter(x, np.inf)])
        assert nearest_mode(w, x).tolist() == dense_nearest_mode(w, x).tolist()
        assert [int(nearest_mode(w, v)) for v in x[:50].tolist()] \
            == dense_nearest_mode(w, x[:50]).tolist()

    def test_midpoint_tie_goes_low(self):
        # |Im| = 2 lies as far from omega_1 = 1 as from omega_2 = 3: mode 1, as the
        # dense argmin keeps its first minimum
        w = np.array([1.0, 3.0])
        assert int(nearest_mode(w, 2.0)) == 0 == int(dense_nearest_mode(w, 2.0))
        assert nearest_mode(w, np.nextafter(2.0, 3.0)).tolist() == 1


class TestEscapeRadius:
    """Past ``escape_radius`` no eigenvalue lies and damped Newton only moves outward."""

    @staticmethod
    def systems():
        for seed in (1, 2):
            for case in load_bench_workloads().random_family(seed):
                yield SystemSpec.from_json_dict(case.doc), case.oracle
        for sys in [beam_example(1.0, 1.0, n) for n in (1, 5, 23, 256)] + [
                build_system(1.0, [1.0], [1.0])]:
            yield sys, np.linalg.eigvals(dense_generator(sys))

    def test_escape_lemma(self):
        angles = np.exp(2j * np.pi * np.arange(64) / 64)
        h = 2.0 ** -np.arange(21)
        worst = np.inf
        for sys, dense in self.systems():
            rho = escape_radius(sys)
            assert np.max(np.abs(dense)) < rho, sys.N
            lam = (rho * np.geomspace(1.0, 100.0, 9)[:, None] * angles).ravel()
            step = -eval_f(sys, lam) / eval_f_prime(sys, lam)
            cand = lam[:, None] + h * step[:, None]
            ratio = np.abs(cand) / ((1.0 + h / 2.0) * np.abs(lam)[:, None])
            worst = min(worst, float(np.min(ratio)))
        assert worst >= 1.0

    def test_seed_past_the_radius_is_not_evaluated(self, single_mode, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("f evaluated past the escape radius")

        monkeypatch.setattr(spectrum, "eval_f", forbidden)
        errors = newton_roots(single_mode, [1, 1], [8.0 - 1j, -6.0 + 5.0j])[-1]
        assert all(isinstance(e, NewtonError) and "escape radius 8:" in str(e) for e in errors)


class TestNewtonRootsParity:
    """The batched iteration reproduces the scalar loop element by element."""

    def test_beam23_seeds(self, beam23):
        outcomes = assert_matches_scalar(beam23, primary_seeds(beam23))
        assert all(isinstance(o, tuple) for o in outcomes)

    @pytest.mark.parametrize("n", [128, 256])
    def test_beam_primary_and_left_seeds(self, n):
        # in lam coordinates the primary seeds stalled from mode 65 on, where the
        # float nearest the root had |f| above 1e-12; about the pole every seed
        # converges.  The left seeds of modes 3 on start far left of their
        # roots, where no halving of the pole-cleared step lowers |f| (the plain
        # Newton step ran them out to the escape radius)
        sys = beam_example(1.0, 1.0, n)
        primary = assert_matches_scalar(sys, primary_seeds(sys))
        assert all(isinstance(o, tuple) and not band_exit(sys, k, o[0])
                   for k, o in enumerate(primary, start=1))
        left = assert_matches_scalar(sys, [left_seed(sys, k) for k in range(1, n + 1)])
        assert all(isinstance(o, tuple) for o in left[:2])
        assert all(isinstance(o, NewtonError) and "damping failed" in str(o)
                   for o in left[2:])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_perturbed_family_seeds(self, seed):
        # strongly damped low modes, overdamped ones among them; the left
        # seeds of every mode are checked as well
        for sys in perturbed_beam_family(seed, 4):
            assert_matches_scalar(sys, primary_seeds(sys))
            assert_matches_scalar(sys, [left_seed(sys, k) for k in range(1, sys.N + 1)])

    def test_weak_gain_every_root_is_found(self):
        # at gamma = 1e-6 every |mu| is below 5e-7, and the absolute stop rule
        # |f| <= 1e-12 failed every seed; about the pole every seed converges
        sys = beam_example(1.0, 1.0, 5, gamma=1e-6)
        seeds = primary_seeds(sys) + [left_seed(sys, k) for k in range(1, 6)]
        outcomes = assert_matches_scalar(sys, seeds)
        assert all(isinstance(o, tuple) for o in outcomes)

    def test_roots_within_1e_12_of_their_poles_are_found(self):
        # at gamma = 1e-12 every root lies within 1e-12 of its pole, where the
        # absolute guard POLE_GUARD = 1e-12 rejected every seed; only an exact
        # pole is rejected now, and every primary and left seed converges
        sys = beam_example(1.0, 1.0, 5, gamma=1e-12)
        seeds = primary_seeds(sys) + [left_seed(sys, k) for k in range(1, 6)]
        outcomes = assert_matches_scalar(sys, seeds)
        assert all(isinstance(o, tuple) and 0.0 < abs(o[0]) < 1e-12 for o in outcomes)

    def test_overflow_beside_the_pole_is_named(self):
        # at gamma = 1e-200 each |mu| is about 1e-200, and f' ~ res/mu^2 is past
        # binary64: every seed fails with its own message, and no warning or
        # NaN residual escapes
        sys = beam_example(1.0, 1.0, 5, gamma=1e-200)
        seeds = primary_seeds(sys) + [left_seed(sys, k) for k in range(1, 6)]
        outcomes = assert_matches_scalar(sys, seeds)
        assert all(isinstance(o, NewtonError) and "overflows binary64" in str(o)
                   for o in outcomes)

    def test_vanishing_pole_cleared_derivative_is_named(self, beam23, monkeypatch):
        # with f' = -f (1/mu + 1/lam + 1/(mu + 2i omega_k)) at every point anchored
        # at mode 3, the pole-cleared derivative f' + f (...) is exactly 0 there:
        # that element fails with its own message, and the others of the batch
        # still equal the reference, which reads the same patched f'
        eval_mu = spectrum.eval_f
        flat_k = 3

        def flattened(sys, mu, ks):
            fval, deriv, scale = eval_mu(sys, mu, ks)
            iw = sys.pole_shifts[ks - 1, 0]
            clear = np.reciprocal(mu[:, None] + iw[:, None] * np.array([0.0, 1.0, 2.0]))
            return fval, np.where(ks == flat_k, -(fval * clear.sum(axis=1)), deriv), scale

        monkeypatch.setattr(spectrum, "eval_f", flattened)
        outcomes = assert_matches_scalar(beam23, primary_seeds(beam23))
        failed = {k: str(o) for k, o in enumerate(outcomes, start=1) if isinstance(o, Exception)}
        assert list(failed) == [flat_k]
        assert failed[flat_k].startswith("vanishing derivative of the pole-cleared f at ")

    @pytest.mark.parametrize("max_iters", [NEWTON_MAX_ITERS, 1])
    def test_pole_seeds_and_iteration_cap(self, single_mode, max_iters):
        seeds = [1j, complex(first_order_predictions(single_mode)[0]), 0.0, 50.0 + 40.0j, -1j]
        outcomes = assert_matches_scalar(single_mode, [anchored(single_mode, z) for z in seeds],
                                         max_iters=max_iters)
        assert [type(outcomes[i]) for i in (0, 2, 4)] == [PoleError] * 3
        # 50+40j lies past the escape radius 8, where no root lies
        assert isinstance(outcomes[3], NewtonError)
        assert "past the escape radius 8:" in str(outcomes[3])

    def test_seeds_at_and_beside_the_poles(self, beam4):
        # only a seed exactly at a pole is rejected; one an ulp away along the
        # axis, 1e-300 off it or 1e-9 away is evaluated (and may overflow there)
        seeds, exact = [], []
        for k in range(1, beam4.N + 1):
            w = float(beam4.omegas[k - 1])
            for im in [0.0, -w, *(beam4.omegas - w), *(-beam4.omegas - w)]:
                seeds.append((k, complex(0.0, im)))
                exact.append(True)
                for off in (1j * (np.nextafter(im, np.inf) - im), 1e-300, -1e-9 + 1e-9j):
                    seeds.append((k, complex(0.0, im) + off))
                    exact.append(False)
        outcomes = assert_matches_scalar(beam4, seeds, max_iters=1)
        assert all(isinstance(o, PoleError) == at for o, at in zip(outcomes, exact))
        assert any(isinstance(o, NewtonError) and "overflows" in str(o) for o in outcomes)

    def test_accepted_steps_need_at_most_one_halving(self):
        # the trial index of every step the scalar loop accepts, from
        # full_spectrum's seeds, on the gate systems, the perturbed families
        # and random_family(1|2); every accepted step is a first trial, so
        # NEWTON_MAX_HALVINGS = 3 leaves a margin of three halvings and gives
        # up on a stalled element in 4 passes
        trials = []
        systems = ([param.values[0] for param in SCALING_SYSTEMS]
                   + perturbed_beam_family(1, 4) + perturbed_beam_family(2, 4)
                   + [SystemSpec.from_json_dict(c.doc) for family in (1, 2)
                      for c in load_bench_workloads().random_family(family)])
        for sys in systems:
            for k, mu in enumerate(newton_seed_offsets(sys), start=1):
                try:
                    scalar_newton_root(sys, k, mu, trials=trials)
                except (NewtonError, PoleError):
                    continue
        assert collections.Counter(trials) == {0: 6838}
        assert max(trials) < NEWTON_MAX_HALVINGS == 3

    def test_empty_batch(self, single_mode):
        roots, resids, bounds, derivs, iters, errors = newton_roots(single_mode, [], [])
        assert (roots.size == resids.size == bounds.size == derivs.size == iters.size
                == len(errors) == 0)

    @pytest.mark.parametrize("bad", [0, -1, 6])
    def test_anchor_outside_the_modes_rejected(self, bad):
        # unchecked, an anchor of 0 would read row -1 of the pole table, which
        # is mode N, and one past N would raise a bare IndexError
        sys = beam_example(1.0, 1.0, 5)
        message = r"anchors must be modes in \[1, 5\]"
        with pytest.raises(ValueError, match=message):
            spectrum.eval_f(sys, [0.1, 0.1], [1, bad])
        with pytest.raises(ValueError, match=message):
            newton_roots(sys, [1, bad], [0.1, 0.1])

    def test_offsets_and_anchors_of_different_lengths_rejected(self):
        # unchecked, eval_f would broadcast one offset over two anchors and
        # newton_roots would raise a bare IndexError from a boolean mask
        sys = beam_example(1.0, 1.0, 5)
        with pytest.raises(ValueError, match="1 offsets for 2 anchors"):
            spectrum.eval_f(sys, [0.1], [1, 2])
        with pytest.raises(ValueError, match="2 offsets for 1 anchors"):
            spectrum.eval_f(sys, [0.1, 0.2], [1])
        with pytest.raises(ValueError, match="1 offsets for 2 anchors"):
            newton_roots(sys, [1, 2], [0.1])


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

    def test_disk_in_the_lower_half_plane(self, beam23):
        # f below the axis is read at the mirror: f(lam) = -conj f(conj lam)
        rep = full_spectrum(beam23)
        for lam, r in zip(rep.lam.tolist(), rep.radius.tolist()):
            assert winding_number(beam23, (lam.conjugate(), r)) == 1

    def test_disk_centred_on_the_real_axis(self):
        # at gamma = 100 mode 1 is overdamped: one real root near -0.0098, whose
        # upper and lower disks are one disk, and the dense oracle's other real
        # eigenvalue near -155.5.  Half of each contour is taken at its mirror
        sys = beam_example(1.0, 1.0, 23, gamma=100.0)
        dense = dense_oracle_spectrum(sys)
        rep = full_spectrum(sys)
        assert rep.k[0] == 1 and rep.lam[0].imag == 0.0
        counts = []
        for center, radius in ((rep.lam[0].real, rep.radius[0]), (-155.0, 10.0), (-0.5, 0.45)):
            counts.append(winding_number(sys, (center, radius)))
            assert counts[-1] == np.count_nonzero(np.abs(dense - center) < radius), center
        assert counts == [1, 1, 0]

    @pytest.mark.parametrize("k", [1, 5, 23])
    def test_contour_through_a_lower_pole_rejected(self, beam23, k):
        # the t = 0 sample sits exactly on -i omega_k, whose mirror is the pole i omega_k
        with pytest.raises(PoleError, match="passes through a pole"):
            winding_number(beam23, (complex(-0.25, -beam23.omegas[k - 1]), 0.25))

    def test_contour_through_zero_rejected(self, beam23):
        with pytest.raises(PoleError, match="passes through a pole"):
            winding_number(beam23, (-0.25 + 0.0j, 0.25))


# each failure text of full_spectrum: a missing mode k, or the upper or lower
# half of an uncertified root, the root written as a complex
_MISSING = r"mode (?P<k>\d+): "
_ROOT = r"mode (?P<k>\d+) \((?P<half>upper|lower)\): root \(\S+\) "
FAILURE_FORMS = {name: re.compile(form) for name, form in {
    "Newton failed": _MISSING + r"Newton failed: \S.*",
    "left the mode band": _MISSING + r"root \(\S+\) left the mode band",
    "assigned to another mode": _MISSING + r"root \(\S+\) assigned to another mode",
    "no disk": _ROOT + r"not certified: no r <= min\(\|root - pole\|, -Re root\)/2 has .+",
    "disks meet": _ROOT + r"not certified: disk of radius \S+ meets another root's disk",
}.items()}


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
        np.testing.assert_array_equal(rep.eigenvalues()[1::2], rep.lam.conj())
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
            assert e.to_json_dict()["disk_center"] == [e.lam.real, e.lam.imag]
            assert 0.0 < e.disk_radius < -e.lam.real

    def test_asymptotic_approach_to_mode_frequencies(self, beam23, beam23_spectrum):
        for k, lam in zip(beam23_spectrum.k.tolist(), beam23_spectrum.lam.tolist()):
            drift = abs(lam - 1j * beam23.omegas[k - 1]) * k**2
            assert drift < 1.0

    def test_enclosure_radius_formula(self, beam23):
        lam = -0.5 + 12.0j
        expected = 0.5 * beam23.gamma * abs(lam) * np.sum(beam23.cs**2 / beam23.omegas)
        assert enclosure_radius(beam23, lam) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("systems", [
        pytest.param([beam_example(1.0, 1.0, 23)], id="beam23"),
        pytest.param([beam_example(1.0, 1.0, 64)], id="beam64"),
        pytest.param([beam_example(1.0, 1.0, 23, gamma=2.0)], id="overdamped"),
        # overdamped first modes and modes lost to the band check (seed 2)
        pytest.param(perturbed_beam_family(1, 4) + perturbed_beam_family(2, 4), id="perturbed"),
    ])
    def test_lower_half_matches_direct_solve(self, systems):
        # every lower certificate is the conjugated upper one, as solving its
        # mode on its own gives it, and the reference test at each upper root
        # gives its radius exactly.  Apart from the mirror, each lower disk is
        # checked in lam coordinates: the exact Rouche test holds there with
        # the oracles' f and f', and a certified one holds one dense eigenvalue.
        # A root is certified exactly when it has a disk and that disk meets
        # no other one.
        for sys in systems:
            rep = full_spectrum(sys)
            dense = dense_oracle_spectrum(sys)
            lower = {e.k: e for e in rep.eigs if e.half == "lower"}
            for k in range(1, sys.N + 1):
                direct = solve_lower_root(sys, k)
                if direct is None:
                    assert k not in lower, (sys.N, k)
                    continue
                e, r = lower[k], lower[k].disk_radius
                assert (e.lam, e.residual, e.newton_iters) == direct, (sys.N, k)
                if not np.isnan(r):
                    _, reach, slope, exact_k = exact_rouche_terms(sys, e.lam, r)
                    assert r <= 0.5 * reach, (sys.N, k)
                    assert slope * r - abs(eval_f(sys, e.lam)) > r * r * exact_k, (sys.N, k)
                if e.certified:
                    assert np.count_nonzero(np.abs(dense - e.lam) < r) == 1, (sys.N, k)
            assert rep.k.tolist() == list(lower)
            for j, (k, mu) in enumerate(zip(rep.k.tolist(), rep.mu.tolist())):
                radius = reference_radius(sys, k, mu, *root_values(sys, k, mu))
                assert same_float(rep.radius[j], radius), (sys.N, k)
            for e, meets in zip(rep.eigs, certificate_disks_meet(rep.eigs)):
                assert e.certified == (not np.isnan(e.disk_radius) and not meets), (sys.N, e)

    def test_certificate_takes_the_rounding_bound(self, beam23, monkeypatch):
        # Newton stops where the computed |f| is rounding noise, so the Rouche
        # test is given |f| plus its rounding bound (2N + 4) u sum|terms|
        given = []

        def spy(sys, ks, mu, f_bound, deriv):
            given.append(f_bound)
            return certified_radii(sys, ks, mu, f_bound, deriv)

        certified_radii = spectrum._certified_radii
        monkeypatch.setattr(spectrum, "_certified_radii", spy)
        rep = full_spectrum(beam23)
        expected = [root_values(beam23, k, mu)[0] for k, mu in zip(rep.k.tolist(),
                                                                    rep.mu.tolist())]
        assert given[0].tolist() == expected
        assert np.all(given[0] > rep.residual)

    def test_perturbed_oracle_systems_cover_the_failures(self):
        # mode 1 of system 88 of the first sweep family converges from its
        # primary seed.  An overdamped mode 1 is lost to the band check: in
        # systems 0 and 70 its one Newton solve finds a root on (or, split off
        # by rounding, beside) the real axis, below the band
        reps = [full_spectrum(s) for s in perturbed_beam_family(1, 4) + perturbed_beam_family(2, 4)]
        family = load_bench_workloads().random_family(1)
        solved = full_spectrum(SystemSpec.from_json_dict(family[88].doc))
        assert solved.k[0] == 1
        assert any("meets another root's disk" in msg for rep in reps for msg in rep.failures)
        for i, root in ((0, "(-0.0686"), (70, "(-0.6469")):
            lost = full_spectrum(SystemSpec.from_json_dict(family[i].doc))
            assert lost.failures[0].startswith(f"mode 1: root {root}"), i
            assert lost.failures[0].endswith(") left the mode band"), i
            assert lost.k[0] != 1, i

    def test_root_midway_to_a_lower_pole_is_assigned_to_another_mode(self, beam23, monkeypatch):
        # mode 2's root moved to Im mu = -band stays in its band, but |Im lam|
        # = 2.5 lies midway between omega_1 = 1 and omega_2 = 4, and the
        # nearest mode is the lower one on a tie
        band = 0.5 * beam23.min_gap()
        assert band == 1.5

        def moved(sys, ks, mu, *args):
            out = newton_roots(sys, ks, mu, *args)
            out[0][1] = complex(out[0][1].real, -band)
            return out

        monkeypatch.setattr(spectrum, "newton_roots", moved)
        rep = full_spectrum(beam23)
        assert len(rep.failures) == 1
        msg = rep.failures[0]
        assert msg.startswith("mode 2: root (") and msg.endswith("+2.5j) assigned to another mode")
        assert rep.k.tolist() == [1] + list(range(3, 24))
        assert not rep.complete

    def test_one_newton_solve_and_no_localize_or_winding_count(self, beam23, monkeypatch):
        # one batched Newton for all modes, also when a seed fails; the
        # a-priori disks and the contour integral are not consulted
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
        assert calls == {"newton_roots": 1}
        calls.clear()
        monkeypatch.setattr(spectrum, "newton_seed_offsets", pole_seed_for_mode_1)
        rep = full_spectrum(beam23)
        assert calls == {"newton_roots": 1}
        assert rep.failures[0].startswith("mode 1: Newton failed: seed ")
        assert rep.failures[0].endswith(" is a pole of the characteristic function")
        assert rep.k.tolist() == list(range(2, 24)) and not rep.complete

    @pytest.mark.parametrize("case, calls, points, zero_step", [
        ("beam23", 4, 50, None), ("beam128", 4, 151, None), ("beam256", 4, 276, 239),
        ("random_family(1)", 686, 6486, None)])
    def test_eval_f_work_count(self, monkeypatch, case, calls, points, zero_step):
        # the counts repeat exactly; each point gives f and f', and each batched
        # call is one pass of full_spectrum's one Newton solve.  At N = 256, 239
        # of the 256 seeds already meet the stop rule
        counted_calls = []
        eval_mu = spectrum.eval_f

        def counted(sys, mu, ks):
            counted_calls.append(np.size(mu))
            return eval_mu(sys, mu, ks)

        if case.startswith("beam"):
            systems = [beam_example(1.0, 1.0, int(case[4:]))]
        else:
            systems = [SystemSpec.from_json_dict(c.doc)
                       for c in load_bench_workloads().random_family(1)]
        monkeypatch.setattr(spectrum, "eval_f", counted)
        reps = [full_spectrum(sys) for sys in systems]
        assert (len(counted_calls), sum(counted_calls)) == (calls, points)
        if zero_step is not None:
            assert np.count_nonzero(reps[0].newton_iters == 0) == zero_step

    def test_overdamped_pair_is_flagged(self):
        # at gamma = 2 the first mode pair collides on the real axis; the
        # report must flag the duplication instead of silently passing
        rep = full_spectrum(beam_example(1.0, 1.0, 23, gamma=2.0))
        assert not rep.complete
        meets = [msg for msg in rep.failures if "meets another root's disk" in msg]
        assert [msg.split(":")[0] for msg in meets] == ["mode 1 (upper)", "mode 1 (lower)"]

    def test_rounding_split_real_root_is_not_certified(self):
        # at gamma = 100 mode 1 is overdamped: two real roots, -155.522 and
        # -0.00983.  Newton finds the second (the plain Newton step found the
        # first, split off the axis by rounding) and misses the other.  The two
        # disks of that one real root overlap, so the report is incomplete.
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

    def test_each_failure_has_one_of_five_forms(self):
        # a missing mode is named by the one way its single Newton solve went
        # wrong, and an uncertified root by the way its test failed.  Beam N=5
        # at gamma = 1e-120 has roots too near their poles for a disk (K0
        # overflows), and at 1e-200 Newton overflows beside every pole; the
        # midway root above is the one assigned to another mode
        systems = ([SystemSpec.from_json_dict(c.doc) for family in (1, 2)
                    for c in load_bench_workloads().random_family(family)]
                   + [beam_example(1.0, 1.0, 23, gamma=g) for g in (2.0, 3.0, 10.0, 100.0)]
                   + [beam_example(1.0, 1.0, 5, gamma=g) for g in (1e-120, 1e-200)]
                   + [s for seed in range(1, 12) for s in perturbed_beam_family(seed, 4)])
        forms = collections.Counter()
        for sys in systems:
            rep = full_spectrum(sys)
            missing, uncertified = [], []
            for msg in rep.failures:
                hits = [(name, m) for name, form in FAILURE_FORMS.items()
                        if (m := form.fullmatch(msg))]
                assert len(hits) == 1 and "fallback" not in msg, msg
                name, m = hits[0]
                forms[name] += 1
                (uncertified if "half" in m.groupdict() else missing).append(int(m["k"]))
            assert missing == sorted(set(range(1, sys.N + 1)) - set(rep.k.tolist()))
            assert uncertified == [k for k in rep.k[~rep.certified].tolist() for _ in "ul"]
        assert forms == {"Newton failed": 5, "left the mode band": 8, "no disk": 10,
                         "disks meet": 216}


# roots found and certified (both halves) and complete reports of the beam
# grid, per N over BEAM_GAMMAS ("x" marks a complete report); a change of
# Newton seed must find and certify the same roots.  From gamma = 2 on mode 1
# is overdamped: its one real root is found and its two disks meet
BEAM_GAMMAS = (1e-6, 1e-3, 1e-2, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 10.0, 100.0)
BEAM_COUNTS = {
    1: ((2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0),
        (2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0), "xxxxxxx...."),
    2: ((4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4),
        (4, 4, 4, 4, 4, 4, 4, 2, 2, 2, 2), "xxxxxxx...."),
    3: ((6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6),
        (6, 6, 6, 6, 6, 6, 6, 4, 4, 4, 4), "xxxxxxx...."),
    5: ((10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10),
        (10, 10, 10, 10, 10, 10, 10, 8, 8, 8, 8), "xxxxxxx...."),
    8: ((16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16),
        (16, 16, 16, 16, 16, 16, 16, 14, 14, 14, 14), "xxxxxxx...."),
    23: ((46, 46, 46, 46, 46, 46, 46, 46, 46, 46, 46),
         (46, 46, 46, 46, 46, 46, 46, 44, 44, 44, 44), "xxxxxxx...."),
    40: ((80, 80, 80, 80, 80, 80, 80, 80, 80, 80, 80),
         (80, 80, 80, 80, 80, 80, 80, 78, 78, 78, 78), "xxxxxxx...."),
    64: ((128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128),
         (128, 128, 128, 128, 128, 128, 128, 126, 126, 126, 126), "xxxxxxx...."),
    100: ((200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200),
          (200, 200, 200, 200, 200, 200, 200, 198, 198, 198, 198), "xxxxxxx...."),
    128: ((256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256),
          (256, 256, 256, 256, 256, 256, 256, 254, 254, 254, 254), "xxxxxxx...."),
    256: ((512, 512, 512, 512, 512, 512, 512, 512, 512, 512, 512),
          (512, 512, 512, 512, 512, 512, 512, 510, 510, 510, 510), "xxxxxxx...."),
}
# (modes found, modes certified, complete reports) over each sweep family
SWEEP_COUNTS = {1: (3272, 3229, 109), 2: (3272, 3227, 107), 3: (3273, 3231, 111),
                4: (3274, 3225, 105), 5: (3275, 3231, 111)}


def spectrum_counts(rep):
    return 2 * rep.k.size, 2 * int(np.count_nonzero(rep.certified)), rep.complete


def power_family(q, p, n):
    """``omega_j = j^q``, ``c_j = j^-p``: the rate family of ROADMAP item 7."""
    j = np.arange(1, n + 1, dtype=float)
    return build_system(1.0, j**q, j**-p)


# the systems on which the absolute stop rule |f| <= 1e-12 lost modes: large N,
# weak gain and the fast-decaying couplings of the power families
SCALING_SYSTEMS = (
    [pytest.param(beam_example(1.0, 1.0, n), id=f"beam{n}") for n in (128, 256, 512, 1024)]
    + [pytest.param(beam_example(1.0, 1.0, 23, gamma=g), id=f"beam23-gamma{g}")
       for g in (0.1, 0.3, 0.5, 1.0)]
    + [pytest.param(beam_example(1.0, 1.0, 5, gamma=g), id=f"beam5-gamma{g}")
       for g in (1e-2, 1e-6)]
    + [pytest.param(power_family(q, p, n), id=f"power-q{q}-p{p}-N{n}")
       for q, p in ((2, 1.5), (2, 2), (1, 2)) for n in (23, 64)]
)


class TestScaling:
    @pytest.mark.parametrize("sys", SCALING_SYSTEMS)
    def test_complete_certified_and_a_basis(self, sys):
        rep = full_spectrum(sys)
        assert rep.complete and rep.k.tolist() == list(range(1, sys.N + 1))
        assert rep.certified.all()
        assert build_basis(sys, rep).cond_Q < 2.5
        if sys.N <= 64:
            assert matching_distance(rep.eigenvalues(), dense_oracle_spectrum(sys)) < 1e-8


class TestSpectrumCounts:
    @pytest.mark.parametrize("n", sorted(BEAM_COUNTS))
    def test_beam_grid(self, n):
        counts = [spectrum_counts(full_spectrum(beam_example(1.0, 1.0, n, gamma=g)))
                  for g in BEAM_GAMMAS]
        found, certified, complete = zip(*counts)
        assert (found, certified, "".join(".x"[c] for c in complete)) == BEAM_COUNTS[n]

    @pytest.mark.parametrize("family", sorted(SWEEP_COUNTS))
    def test_sweep_family(self, family):
        totals = np.zeros(3, dtype=int)
        for case in load_bench_workloads().random_family(family):
            rep = full_spectrum(SystemSpec.from_json_dict(case.doc))
            totals += (rep.k.size, np.count_nonzero(rep.certified), rep.complete)
        assert tuple(totals.tolist()) == SWEEP_COUNTS[family]


class TestSpectrumColumns:
    """The report stores one row per found mode; everything else derives from the columns."""

    @pytest.mark.parametrize("systems", [
        pytest.param([beam_example(1.0, 1.0, 23)], id="beam23"),
        # an uncertified overdamped pair, and lost modes
        pytest.param([beam_example(1.0, 1.0, 23, gamma=100.0)] + perturbed_beam_family(2, 4),
                     id="incomplete"),
    ])
    def test_rows_views_and_json_agree_with_the_columns(self, systems):
        for sys in systems:
            rep = full_spectrum(sys)
            vals, doc = rep.eigenvalues(), rep.to_json_dict()
            assert len(rep.eigs) == vals.size == len(doc["eigs"]) == 2 * rep.k.size
            assert vals[0::2].tobytes() == rep.lam.tobytes()
            assert vals[1::2].tobytes() == rep.lam.conj().tobytes()
            assert np.all(np.diff(rep.k) > 0) and set(rep.k.tolist()) <= set(range(1, sys.N + 1))
            rows = zip(*(getattr(rep, name).tolist() for name in SPECTRUM_COLUMNS))
            for j, (k, mu, lam, res, radius, cert, iters) in enumerate(rows):
                assert lam == complex(mu.real, float(sys.omegas[k - 1]) + mu.imag)
                for h, (half, z) in enumerate((("upper", lam), ("lower", lam.conjugate()))):
                    e = rep.eigs[2 * j + h]
                    assert (e.k, e.half, e.lam, e.residual, e.certified,
                            e.newton_iters) == (k, half, z, res, cert, iters)
                    assert e.lam == vals[2 * j + h] and same_float(e.disk_radius, radius)
                    np.testing.assert_equal(doc["eigs"][2 * j + h], {
                        "k": k, "half": half, "lambda": [z.real, z.imag], "residual": res,
                        "disk_center": [z.real, z.imag], "disk_radius": radius,
                        "certified": cert, "newton_iters": iters})

    def test_columns_are_read_only(self, beam4_spectrum):
        for name in SPECTRUM_COLUMNS:
            col = getattr(beam4_spectrum, name)
            assert col.shape == (4,) and not col.flags.writeable, name
            with pytest.raises(ValueError):
                col[0] = col[1]

    def test_columns_of_one_length(self, beam4_spectrum):
        with pytest.raises(ValueError, match="'radius'"):
            dataclasses.replace(beam4_spectrum, radius=beam4_spectrum.radius[:-1])

    def test_library_paths_build_no_certificate_records(self, beam23, monkeypatch):
        from obsdecay import build_basis, decay_envelope
        from obsdecay.resolvent import axis_scan

        def forbidden(*args, **kwargs):
            raise AssertionError("EigenCertificate built on a library path")

        monkeypatch.setattr(spectrum, "EigenCertificate", forbidden)
        rep = full_spectrum(beam23)
        build_basis(beam23, rep)
        decay_envelope(beam23, rep, np.geomspace(1.0, 200.0, 50))
        axis_scan(beam23, rep, (3, 20))
        assert "eigs" not in vars(rep)


ORACLE_SYSTEMS = [
    pytest.param([beam_example(1.0, 1.0, 23)], id="beam23"),
    pytest.param([beam_example(1.0, 1.0, 128)], id="beam128"),
    pytest.param([s for seed in (1, 2, 3) for s in perturbed_beam_family(seed, 4)],
                 id="perturbed"),
]


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

    @pytest.mark.parametrize("systems", ORACLE_SYSTEMS)
    def test_each_certified_disk_holds_one_zero(self, systems):
        for sys in systems:
            dense = dense_oracle_spectrum(sys) if sys.N <= 64 else None
            certified = [e for e in full_spectrum(sys).eigs if e.certified]
            assert certified
            for e in certified:
                assert winding_number(sys, (e.lam, e.disk_radius)) == 1, (sys.N, e)
                if dense is not None:
                    inside = np.abs(dense - e.lam) < e.disk_radius
                    assert np.count_nonzero(inside) == 1, (sys.N, e)

    @pytest.mark.parametrize("systems", ORACLE_SYSTEMS)
    def test_each_certified_radius_passes_the_exact_rouche_test(self, systems):
        # the closed-form radius stays within half the reach, and there the
        # Rouche test holds with the exact K(r), not only with its bound 2 K0
        for sys in systems:
            for e in full_spectrum(sys).eigs:
                if e.certified:
                    _, reach, slope, exact_k = exact_rouche_terms(sys, e.lam, e.disk_radius)
                    r = e.disk_radius
                    assert r <= 0.5 * reach, (sys.N, e)
                    assert slope * r - e.residual > r * r * exact_k, (sys.N, e)

    @pytest.mark.parametrize("systems", ORACLE_SYSTEMS)
    def test_radii_stay_sound_for_larger_residuals(self, systems):
        # the computed residuals leave the test a wide margin, so each root is
        # also tried with 256 residuals up to |f'| reach / 2: any radius given
        # must pass the exact test with that residual
        for sys in systems:
            rep = full_spectrum(sys)
            for k, mu, z in zip(rep.k.tolist(), rep.mu.tolist(), rep.lam.tolist()):
                deriv = root_values(sys, k, mu)[1]
                d, reach, slope, _ = exact_rouche_terms(sys, z, 0.0)
                fz = np.linspace(0.0, 0.5 * slope * reach, 257)[1:]
                r = spectrum._certified_radii(sys, np.full(fz.size, k), np.full(fz.size, mu),
                                              fz, np.full(fz.size, deriv))[0]
                ok = ~np.isnan(r)
                assert ok.any(), (sys.N, z)
                r, fz = r[ok], fz[ok]
                exact_k = np.sum(pole_weights(sys) / (d * d * (d - r[:, None])), axis=1)
                assert np.all(r <= 0.5 * reach), (sys.N, z)
                assert np.all(slope * r - fz > r * r * exact_k), (sys.N, z)


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
