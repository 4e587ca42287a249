import dataclasses

import numpy as np
import pytest

from conftest import SINGLE_MODE_ROOTS
from obsdecay.charfn import PoleError
from obsdecay.dynamics import dense_generator, simulate_error
from obsdecay.modal import (
    BasisError,
    ResidualError,
    build_basis,
    comparison_vector,
    eigenvector,
)
from obsdecay.model import beam_example
from obsdecay.spectrum import full_spectrum
from obsdecay.state import StateVector


def random_state(n, rng):
    return StateVector(
        q=rng.normal(size=n) + 1j * rng.normal(size=n),
        p=rng.normal(size=n) + 1j * rng.normal(size=n),
    )


class TestEigenvector:
    def test_single_mode_formulas(self, single_mode):
        lam = SINGLE_MODE_ROOTS[0]
        vec = eigenvector(single_mode, lam, 1, "upper")
        # own component normalized to one, partner from the closed form
        assert vec.p[0] == pytest.approx(1.0)
        expected_q = -(1.0 / (1j + lam)) * (1j - lam) / 1.0
        assert vec.q[0] == pytest.approx(expected_q)

    def test_lower_half_scaling(self, single_mode):
        lam = SINGLE_MODE_ROOTS[1]
        vec = eigenvector(single_mode, lam, 1, "lower")
        assert vec.q[0] == pytest.approx(1.0)

    def test_residual_guard_rejects_non_eigenvalue(self, single_mode):
        with pytest.raises(ResidualError):
            eigenvector(single_mode, -0.4 + 0.9j, 1, "upper")

    def test_pole_rejected(self, single_mode):
        with pytest.raises(PoleError):
            eigenvector(single_mode, 1j, 1, "upper")

    def test_inputs_validated(self, single_mode):
        with pytest.raises(ValueError):
            eigenvector(single_mode, SINGLE_MODE_ROOTS[0], 2, "upper")
        with pytest.raises(ValueError):
            eigenvector(single_mode, SINGLE_MODE_ROOTS[0], 1, "middle")

    def test_weak_gain_limit_approaches_canonical(self):
        sys = beam_example(1.0, 1.0, 5, gamma=1e-6)
        rep = full_spectrum(sys)
        for e in rep.eigs:
            vec = eigenvector(sys, e.lam, e.k, e.half)
            ref = comparison_vector(5, e.k, e.half)
            assert np.max(np.abs(vec.to_array() - ref.to_array())) < 1e-5

    def test_comparison_vectors_orthonormal(self):
        cols = [comparison_vector(3, n, half).to_array()
                for n in (1, 2, 3) for half in ("upper", "lower")]
        gram = np.array(cols) @ np.conjugate(np.array(cols)).T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-15)

    def test_swap_conjugation_links_the_halves(self, beam4, beam4_spectrum):
        uppers = {e.k: e for e in beam4_spectrum.upper()}
        lowers = {e.k: e for e in beam4_spectrum.lower()}
        for k in range(1, 5):
            up = eigenvector(beam4, uppers[k].lam, k, "upper")
            lo = eigenvector(beam4, lowers[k].lam, k, "lower")
            swapped = np.concatenate([np.conjugate(up.p), np.conjugate(up.q)])
            target = lo.to_array()
            cos = abs(np.vdot(swapped, target)) / (
                np.linalg.norm(swapped) * np.linalg.norm(target))
            assert cos == pytest.approx(1.0, abs=1e-12)


class TestBuildBasis:
    def test_single_mode_block_structure(self, single_mode):
        rep = full_spectrum(single_mode)
        basis = build_basis(single_mode, rep)
        assert basis.Q.shape == (2, 2)
        lam = rep.eigenvalues("upper")[0]
        assert basis.G[0] == pytest.approx(np.conjugate(lam))
        assert basis.G[1] == pytest.approx(lam)
        assert np.isfinite(basis.cond_Q)

    def test_eigenvalue_diagonal_matches_report(self, beam23_spectrum, beam23_basis):
        lowers = beam23_spectrum.eigenvalues("lower")
        uppers = beam23_spectrum.eigenvalues("upper")
        np.testing.assert_array_equal(beam23_basis.G[:23], lowers)
        np.testing.assert_array_equal(beam23_basis.G[23:], uppers)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 23])
    def test_diagonalization_residual(self, n):
        sys = beam_example(1.0, 1.0, n)
        rep = full_spectrum(sys)
        basis = build_basis(sys, rep)
        a = dense_generator(sys)
        resid = np.linalg.norm(basis.solve(a @ basis.Q) - np.diag(basis.G))
        assert resid <= 1e-7 * np.linalg.norm(np.diag(basis.G))

    def test_factorization_residual_bound(self, beam23, beam23_basis):
        a = dense_generator(beam23)
        assert beam23_basis.factorization_residual <= 1e-8 * np.linalg.norm(a)

    def test_closeness_increments_quartic_decay(self, beam23_basis):
        inc = np.array(beam23_basis.closeness_increments)
        n = np.arange(1, 24)
        assert np.max(inc[1:] * n[1:] ** 4) < 1.0

    def test_closeness_increments_decrease(self, beam23_basis):
        inc = beam23_basis.closeness_increments
        assert all(b <= a for a, b in zip(inc[1:], inc[2:]))

    def test_closeness_partial_sums(self, beam23_basis):
        np.testing.assert_allclose(
            beam23_basis.closeness, np.cumsum(beam23_basis.closeness_increments))

    def test_riesz_norm_equivalence(self, beam23_basis):
        rng = np.random.default_rng(21)
        b1, b2 = beam23_basis.beta1, beam23_basis.beta2
        for _ in range(100):
            eps = random_state(23, rng)
            coeff = np.linalg.norm(beam23_basis.solve(eps.to_array()))
            assert coeff >= eps.norm() / b1 * (1 - 1e-12)
            assert coeff <= b2 * eps.norm() * (1 + 1e-12)

    def test_operator_norms_match_svd(self, beam4_basis):
        svals = np.linalg.svd(beam4_basis.Q, compute_uv=False)
        assert beam4_basis.beta1 == pytest.approx(svals.max(), rel=1e-10)
        assert beam4_basis.beta2 == pytest.approx(1.0 / svals.min(), rel=1e-10)

    def test_incomplete_spectrum_rejected(self, beam4, beam4_spectrum):
        broken = dataclasses.replace(beam4_spectrum, complete=False,
                                     failures=("mode 2 lost",))
        with pytest.raises(BasisError):
            build_basis(beam4, broken)

    def test_missing_pair_rejected(self, beam4, beam4_spectrum):
        broken = dataclasses.replace(beam4_spectrum, eigs=beam4_spectrum.eigs[:-1])
        with pytest.raises(BasisError):
            build_basis(beam4, broken)

    def test_json_summary_fields(self, beam23_basis):
        doc = beam23_basis.to_json_dict()
        assert set(doc) == {"beta1", "beta2", "cond_Q", "closeness_tail",
                            "factorization_residual"}
        assert doc["cond_Q"] == pytest.approx(doc["beta1"] * doc["beta2"])


class TestDiagonalCoords:
    # coordinates in the eigenbasis are Q^{-1} eps (basis.solve); Q maps back
    def test_basis_columns_map_to_unit_vectors(self, beam4_basis):
        for idx in (0, 3, 5):
            coords = beam4_basis.solve(beam4_basis.Q[:, idx])
            expected = np.zeros(8, dtype=complex)
            expected[idx] = 1.0
            np.testing.assert_allclose(coords, expected, atol=1e-12)

    def test_zero_maps_to_zero(self, beam4_basis):
        out = beam4_basis.solve(StateVector.zero(4).to_array())
        assert np.linalg.norm(out) == 0.0

    def test_round_trip(self, beam23_basis):
        rng = np.random.default_rng(22)
        for _ in range(20):
            eps = random_state(23, rng).to_array()
            back = beam23_basis.Q @ beam23_basis.solve(eps)
            assert np.linalg.norm(back - eps) <= 1e-10 * np.linalg.norm(eps)

    def test_norm_bounds(self, beam4_basis):
        rng = np.random.default_rng(23)
        eps = random_state(4, rng)
        coords = StateVector.from_array(beam4_basis.solve(eps.to_array()))
        assert eps.norm() / beam4_basis.beta1 <= coords.norm() * (1 + 1e-12)
        assert coords.norm() <= beam4_basis.beta2 * eps.norm() * (1 + 1e-12)

    def test_size_mismatch(self, beam4_basis):
        with pytest.raises(ValueError):
            beam4_basis.solve(StateVector.zero(3).to_array())
        with pytest.raises(ValueError):
            beam4_basis.Q @ StateVector.zero(3).to_array()

    def test_propagation_matches_eigenstructure(self, beam4, beam4_basis):
        # a basis column evolves by its own eigenvalue factor
        col = StateVector.from_array(beam4_basis.Q[:, 6])
        lam = beam4_basis.G[6]
        traj = simulate_error(beam4, col, [0.0, 0.7], basis=beam4_basis)
        np.testing.assert_allclose(
            traj.state_at(1).to_array(), np.exp(lam * 0.7) * col.to_array(), atol=1e-12)
