import cmath
import dataclasses
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from conftest import perturbed_beam_family
from oracles import ObserverSetup, RealState, simulate_observer
from obsdecay import dynamics
from obsdecay.dynamics import (
    FitError,
    IntegrationError,
    apply_generator,
    decay_envelope,
    decay_fit_trajectory,
    dense_generator,
    domain_initial_state,
    simulate_error,
)
from obsdecay.model import beam_example
from obsdecay.spectrum import full_spectrum
from obsdecay.state import StateVector


class EigenvaluesOnly:
    """A stand-in report whose ``lam`` column holds the given eigenvalues."""

    def __init__(self, lam):
        self.lam = lam


def random_state(n, rng):
    return StateVector(
        q=rng.normal(size=n) + 1j * rng.normal(size=n),
        p=rng.normal(size=n) + 1j * rng.normal(size=n),
    )


class TestApplyGenerator:
    def test_zero_maps_to_zero(self, beam4):
        out = apply_generator(beam4, StateVector.zero(4))
        assert out.norm() == 0.0

    def test_single_mode_expansion(self, single_mode):
        out = apply_generator(single_mode, StateVector(q=[1.0 + 0j], p=[0.0 + 0j]))
        assert out.q[0] == pytest.approx(-1j - 0.5)
        assert out.p[0] == pytest.approx(-0.5)

    def test_matches_dense_assembly(self):
        sys = beam_example(1.0, 1.0, 8)
        a = dense_generator(sys)
        rng = np.random.default_rng(31)
        for _ in range(10):
            eps = random_state(8, rng)
            np.testing.assert_allclose(
                apply_generator(sys, eps).to_array(), a @ eps.to_array(),
                atol=1e-12)

    def test_dense_block_structure(self, beam4):
        a = dense_generator(beam4)
        damp = -0.5 * beam4.gamma * np.outer(beam4.cs, beam4.cs)
        omega = np.diag(beam4.omegas)
        np.testing.assert_allclose(a[:4, :4], -1j * omega + damp)
        np.testing.assert_allclose(a[:4, 4:], damp)
        np.testing.assert_allclose(a[4:, :4], damp)
        np.testing.assert_allclose(a[4:, 4:], 1j * omega + damp)

    def test_size_mismatch(self, beam4):
        with pytest.raises(ValueError):
            apply_generator(beam4, StateVector.zero(3))


class TestInitialState:
    def test_conjugate_structure_and_amplitudes(self, beam23):
        eps = domain_initial_state(beam23, seed=7)
        np.testing.assert_allclose(eps.p, np.conjugate(eps.q))
        np.testing.assert_allclose(np.abs(eps.q), beam23.omegas ** -1.5)

    def test_seed_reproducibility(self, beam23):
        a = domain_initial_state(beam23, seed=7)
        b = domain_initial_state(beam23, seed=7)
        c = domain_initial_state(beam23, seed=8)
        np.testing.assert_array_equal(a.q, b.q)
        assert np.any(a.q != c.q)


class TestSimulateError:
    @pytest.mark.parametrize("case", ["single_mode", "beam23"])
    def test_single_mode_matrix_exponential_oracle(self, case, request):
        rng = np.random.default_rng(32)
        if case == "single_mode":
            sys = request.getfixturevalue("single_mode")
            eps0 = random_state(1, rng)
            t_grid = np.linspace(0.0, 8.0, 33)
        else:
            # the reference report's system and default simulation grid
            sys = request.getfixturevalue("beam23")
            eps0 = random_state(23, rng)
            t_grid = np.concatenate([[0.0], np.geomspace(0.01, 10.0, 80)])
        traj = simulate_error(sys, eps0, t_grid)
        a = dense_generator(sys)
        for i, t in enumerate(t_grid):
            ref = scipy.linalg.expm(a * t) @ eps0.to_array()
            assert np.linalg.norm(traj.states[i] - ref) <= 1e-10

    def test_norm_never_increases(self, beam4):
        rng = np.random.default_rng(33)
        eps0 = random_state(4, rng)
        traj = simulate_error(beam4, eps0, np.linspace(0.0, 10.0, 101))
        drift = np.diff(traj.norm)
        assert np.all(drift <= 1e-9 * traj.norm[0])

    def test_eigenvector_initial_data_decays_exponentially(self, beam4, beam4_basis):
        col = StateVector.from_array(beam4_basis.Q[:, 5])  # upper mode 2
        lam = beam4_basis.G[5]
        t_grid = np.linspace(0.0, 5.0, 21)
        traj = simulate_error(beam4, col, t_grid)
        expected = np.exp(lam.real * t_grid) * col.norm()
        np.testing.assert_allclose(traj.norm, expected, rtol=1e-6)

    def test_modal_cross_validation_accepts_good_run(self, beam4, beam4_basis):
        rng = np.random.default_rng(34)
        eps0 = random_state(4, rng)
        simulate_error(beam4, eps0, np.linspace(0.0, 3.0, 7), basis=beam4_basis)

    def test_modal_cross_validation_rejects_wrong_basis(self, beam4, beam4_basis):
        rng = np.random.default_rng(34)
        eps0 = random_state(4, rng)
        wrong = dataclasses.replace(beam4_basis, G=beam4_basis.G * (1 + 1e-3))
        with pytest.raises(IntegrationError):
            simulate_error(beam4, eps0, np.linspace(0.0, 3.0, 7), basis=wrong)

    def test_modal_cross_validation_rejects_wrong_basis_at_reference_size(
            self, beam23, beam23_basis):
        # at N=23 and the reference sim_t_final 10 the reference exponential
        # squares about 10 times, and must still expose a 1e-3 eigenvalue error
        rng = np.random.default_rng(34)
        eps0 = random_state(23, rng)
        wrong = dataclasses.replace(beam23_basis, G=beam23_basis.G * (1 + 1e-3))
        with pytest.raises(IntegrationError):
            simulate_error(beam23, eps0, np.linspace(0.0, 10.0, 7), basis=wrong)

    def test_grid_validation(self, beam4):
        eps0 = StateVector.zero(4)
        with pytest.raises(ValueError):
            simulate_error(beam4, eps0, [0.0])
        with pytest.raises(ValueError):
            simulate_error(beam4, eps0, [1.0, 2.0])
        with pytest.raises(ValueError):
            simulate_error(beam4, eps0, [0.0, 2.0, 1.0])

    def test_long_time_rate_matches_slowest_mode(self):
        sys = beam_example(1.0, 1.0, 2)
        rep = full_spectrum(sys)
        rate = min(abs(e.lam.real) for e in rep.eigs)
        eps0 = domain_initial_state(sys, seed=5)
        t_grid = np.linspace(0.0, 60.0, 61)
        traj = simulate_error(sys, eps0, t_grid)
        # slope of log norm over the tail, where the slowest pair dominates
        tail = slice(40, 61)
        fitted = -np.polyfit(t_grid[tail], np.log(traj.norm[tail]), 1)[0]
        assert fitted == pytest.approx(rate, rel=0.05)


class TestPadeExponential:
    """``dynamics._expm`` against ``scipy.linalg.expm`` as the oracle."""

    @pytest.mark.parametrize("n", [1, 4, 23, 64])
    @pytest.mark.parametrize("t", [1e-3, 1.0, 10.0, 100.0])
    def test_matches_scipy_on_beam_generators(self, n, t):
        a = dense_generator(beam_example(1.0, 1.0, n)) * t
        ref = scipy.linalg.expm(a)
        got = dynamics._expm(a)
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_zero_matrix_gives_identity(self):
        # the one solve divides by its pivots, so exact to rounding, not bitwise
        np.testing.assert_allclose(dynamics._expm(np.zeros((5, 5), dtype=complex)),
                                   np.eye(5), rtol=0.0, atol=1e-15)

    def test_small_norm_needs_no_squaring(self):
        rng = np.random.default_rng(39)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a *= 4.0 / np.linalg.norm(a, 1)
        assert np.linalg.norm(a, 1) < dynamics.PADE13_THETA
        ref = scipy.linalg.expm(a)
        assert np.linalg.norm(dynamics._expm(a) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("z", [-0.3 + 2.0j, 3.0 - 40.0j])
    def test_scalar_matches_complex_exp(self, z):
        # |z| below theta_13 runs the unscaled approximant, above it squares
        got = dynamics._expm(np.array([[z]]))[0, 0]
        assert abs(got - cmath.exp(z)) <= 1e-13 * abs(cmath.exp(z))


class TestObserverCoSimulation:
    def test_error_is_control_invariant(self, beam4):
        rng = np.random.default_rng(35)
        b1 = rng.normal(size=(4, 2))
        z0 = RealState(Delta=rng.normal(size=4), delta=rng.normal(size=4))
        e0 = RealState(Delta=0.3 * rng.normal(size=4), delta=0.3 * rng.normal(size=4))
        zt0 = RealState(Delta=z0.Delta - e0.Delta, delta=z0.delta - e0.delta)
        t_grid = np.linspace(0.0, 5.0, 26)
        controls = (
            lambda t: np.array([np.sin(t), 0.2 * t]),
            lambda t: np.array([3.0 * np.cos(2.0 * t), 1.0 - t]),
        )
        traces = []
        for u in controls:
            setup = ObserverSetup(sys=beam4, B1=b1, u=u)
            out = simulate_observer(setup, z0, zt0, t_grid, rtol=1e-12, atol=1e-14)
            traces.append(out.error_norm)
        np.testing.assert_allclose(traces[0], traces[1], atol=1e-10)

    def test_zero_error_is_invariant(self, beam4):
        rng = np.random.default_rng(36)
        z0 = RealState(Delta=rng.normal(size=4), delta=rng.normal(size=4))
        setup = ObserverSetup(sys=beam4)
        out = simulate_observer(setup, z0, z0, np.linspace(0.0, 4.0, 17))
        assert np.max(out.error_norm) <= 1e-9

    def test_forced_plant_bounded_while_error_decays(self, beam4):
        rng = np.random.default_rng(37)
        z0 = RealState(Delta=rng.normal(size=4), delta=rng.normal(size=4))
        e0 = RealState(Delta=rng.normal(size=4), delta=rng.normal(size=4))
        zt0 = RealState(Delta=z0.Delta - e0.Delta, delta=z0.delta - e0.delta)
        setup = ObserverSetup(sys=beam4, B1=np.ones((4, 1)),
                              u=lambda t: np.array([np.sin(1.3 * t)]))
        out = simulate_observer(setup, z0, zt0, np.linspace(0.0, 10.0, 51))
        assert np.max(out.plant_norm) < 50.0
        assert np.all(np.diff(out.error_norm) <= 1e-9 * out.error_norm[0])

    def test_real_complex_norm_factor(self):
        # complex-form norm is sqrt(2) times the real-form norm, trace-wise
        sys = beam_example(1.0, 1.0, 3)
        rng = np.random.default_rng(38)
        z0 = RealState(Delta=rng.normal(size=3), delta=rng.normal(size=3))
        e0 = RealState(Delta=rng.normal(size=3), delta=rng.normal(size=3))
        zt0 = RealState(Delta=z0.Delta - e0.Delta, delta=z0.delta - e0.delta)
        t_grid = np.linspace(0.0, 6.0, 25)
        real_run = simulate_observer(ObserverSetup(sys=sys), z0, zt0, t_grid,
                                     rtol=1e-11, atol=1e-13)
        complex_run = simulate_error(sys, e0.to_complex(), t_grid)
        np.testing.assert_allclose(
            complex_run.norm, np.sqrt(2.0) * real_run.error_norm, atol=1e-9)

    def test_import_leaves_optional_scipy_unloaded(self, tmp_path):
        # scipy is a test dependency only: with it blocked, import obsdecay and
        # every verb run on beam N=8 (report with all six tasks, simulate
        # included); only the oracles' co-simulation reaches dynamics.solve_ivp
        src = pathlib.Path(dynamics.__file__).resolve().parents[1]
        config = tmp_path / "beam8.json"
        config.write_text(json.dumps({
            "gamma": 1.0, "seed": 11,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 8},
        }))
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import obsdecay\n"
            "from obsdecay import cli\n"
            "codes = {verb: cli.main([verb, '--config', sys.argv[1], '--out',"
            " sys.argv[2] + '/' + verb]) for verb in cli.ALL_TASKS}\n"
            "loaded = sorted(m for m, mod in sys.modules.items()"
            " if mod is not None and m.split('.')[0] == 'scipy')\n"
            "print(json.dumps({'codes': codes, 'scipy': loaded}))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(config), str(tmp_path)],
            capture_output=True, text=True, check=True, timeout=120, cwd=src,
            env={"PYTHONPATH": str(src)})
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["codes"] == {verb: 0 for verb in (
            "verify", "localize", "spectrum", "resolvent-scan", "simulate", "envelope",
            "report")}
        assert result["scipy"] == []
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert report["pass"] and "error" not in report["trajectory"]

    def test_control_without_actuators_rejected(self, beam4):
        with pytest.raises(ValueError):
            ObserverSetup(sys=beam4, u=lambda t: np.array([1.0]))

    def test_actuator_shape_validated(self, beam4):
        with pytest.raises(ValueError):
            ObserverSetup(sys=beam4, B1=np.ones((3, 1)))


class TestDecayEnvelope:
    def test_fig3_polynomial_rate(self, beam23, beam23_spectrum):
        fit = decay_envelope(beam23, beam23_spectrum, np.geomspace(1.0, 200.0, 200))
        assert fit.mode == "envelope"
        assert fit.polynomial
        assert fit.clipped  # 200 exceeds the truncation-valid horizon
        assert abs(fit.exponent + 1.0) <= 0.2
        assert fit.window[1] < 200.0

    def test_single_mode_flagged_non_polynomial(self, single_mode):
        rep = full_spectrum(single_mode)
        fit = decay_envelope(single_mode, rep, np.geomspace(0.1, 30.0, 60))
        assert not fit.polynomial
        assert 0.0 <= fit.r2 <= 1.0

    @pytest.mark.parametrize("gamma, exponent", [
        pytest.param(0.5, -1.0442667509634, id="0.5"), pytest.param(1.0, -1.1065487080793, id="1.0"),
        pytest.param(2.0, -1.3190781220093, id="2.0")])
    def test_slope_stable_under_gain_scaling(self, gamma, exponent):
        # the fit over the computed roots is the fit over the dense eigenvalues.
        # At gamma = 2 mode 1 is an overdamped real pair of which Newton finds
        # one root; it is the slower one, -0.792, which dominates the other
        # (-1.345) at every t, so the envelope is the dense one, exponent -1.32
        sys = beam_example(1.0, 1.0, 23, gamma=gamma)
        times = np.geomspace(1.0, 200.0, 200)
        fit = decay_envelope(sys, full_spectrum(sys), times)
        dense = np.linalg.eigvals(dense_generator(sys))
        assert fit.exponent == pytest.approx(decay_envelope(sys, EigenvaluesOnly(dense),
                                                            times).exponent, abs=1e-9)
        assert fit.exponent == pytest.approx(exponent, abs=1e-9)
        if gamma < 2.0:
            assert abs(fit.exponent + 1.0) <= 0.2

    def test_upper_half_gives_the_full_envelope(self, beam23):
        """Each lower eigenvalue is the bitwise conjugate of an upper one, so the maximum over
        the upper half is the envelope over every eigenvalue."""

        class EveryEigenvalue:
            """A report whose ``lam`` column holds both roots of every mode."""

            def __init__(self, rep):
                self.lam = rep.eigenvalues()

        grid = np.geomspace(1.0, 200.0, 200)
        for sys in [beam23, beam_example(1.0, 1.0, 4)] + perturbed_beam_family(2, 6):
            rep = full_spectrum(sys)
            upper, lower = rep.lam, rep.eigenvalues()[1::2]
            assert lower.tobytes() == upper.conj().tobytes()
            assert decay_envelope(sys, rep, grid) == decay_envelope(sys, EveryEigenvalue(rep), grid)

    def test_underflowed_envelope_rejected(self, beam4, beam4_spectrum):
        # exp(-1000 t) is 0 on the whole grid, so no sample can be fitted
        fast = dataclasses.replace(beam4_spectrum, lam=beam4_spectrum.lam - 1000.0)
        with pytest.raises(FitError, match="underflowed"):
            decay_envelope(beam4, fast, np.geomspace(1.0, 10.0, 20))

    def test_grid_validation(self, beam23, beam23_spectrum):
        with pytest.raises(ValueError):
            decay_envelope(beam23, beam23_spectrum, [1.0, 2.0])
        with pytest.raises(ValueError):
            decay_envelope(beam23, beam23_spectrum, [2.0, 1.0, 3.0])


class TestDecayFitTrajectory:
    def test_mechanics_on_small_system(self, beam4, beam4_basis):
        eps0 = domain_initial_state(beam4, seed=9)
        t_grid = np.concatenate([[0.0], np.geomspace(0.05, 8.0, 50)])
        traj = simulate_error(beam4, eps0, t_grid, basis=beam4_basis)
        fit = decay_fit_trajectory(beam4, beam4_basis, traj, alpha=1.0, seed=9)
        assert fit.mode == "trajectory"
        assert fit.seed == 9
        assert np.isfinite(fit.prefactor)
        # the t = 0 sample forces prefactor >= |eps0| / |A eps0|
        floor = eps0.norm() / apply_generator(beam4, eps0).norm()
        assert fit.prefactor >= floor * (1 - 1e-12)

    def test_pure_mode_is_non_polynomial(self, beam4, beam4_basis):
        col = StateVector.from_array(beam4_basis.Q[:, 7])
        t_grid = np.concatenate([[0.0], np.geomspace(0.05, 8.0, 40)])
        traj = simulate_error(beam4, col, t_grid, basis=beam4_basis)
        fit = decay_fit_trajectory(beam4, beam4_basis, traj, alpha=1.0)
        assert not fit.polynomial

    def test_bound_holds_with_reported_prefactor(self, beam4, beam4_basis):
        eps0 = domain_initial_state(beam4, seed=10)
        t_grid = np.concatenate([[0.0], np.geomspace(0.05, 8.0, 50)])
        traj = simulate_error(beam4, eps0, t_grid, basis=beam4_basis)
        fit = decay_fit_trajectory(beam4, beam4_basis, traj, alpha=1.0)
        scale = apply_generator(beam4, eps0).norm()
        bound = fit.prefactor * (1.0 + t_grid) ** -1.0 * scale
        assert np.all(traj.norm <= bound * (1 + 1e-9))

    def test_degenerate_window_rejected(self, beam4, beam4_basis):
        eps0 = domain_initial_state(beam4, seed=11)
        traj = simulate_error(beam4, eps0, [0.0, 0.5], basis=beam4_basis)
        with pytest.raises(FitError):
            decay_fit_trajectory(beam4, beam4_basis, traj, alpha=1.0)

    def test_alpha_validated(self, beam4, beam4_basis):
        eps0 = domain_initial_state(beam4, seed=12)
        traj = simulate_error(beam4, eps0, [0.0, 1.0, 2.0], basis=beam4_basis)
        with pytest.raises(ValueError):
            decay_fit_trajectory(beam4, beam4_basis, traj, alpha=0.0)
