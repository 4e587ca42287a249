import copy
import dataclasses
import json

import numpy as np
import pytest

from conftest import (SINGLE_MODE_ROOTS, SPECTRUM_COLUMNS, load_bench_workloads,
                      perturbed_beam_family)
from oracles import dense_oracle_spectrum
from obsdecay.charfn import PoleError
from obsdecay import modal, spectrum
from obsdecay.cli import EXIT_CHECK_FAILED, Pipeline, load_config
from obsdecay.dynamics import apply_generator, dense_generator, simulate_error
from obsdecay.modal import (
    BasisError,
    ResidualError,
    build_basis,
    comparison_vector,
    eigenvector,
)
from obsdecay.model import SystemSpec, beam_example
from obsdecay.spectrum import full_spectrum
from obsdecay.state import StateVector


def moved_root(sys, rep, j, mu):
    """The report with row j's root moved to ``lam = i omega_k + mu``; its residual is stale."""
    cols = {name: getattr(rep, name).copy() for name in ("mu", "lam")}
    cols["mu"][j] = mu
    cols["lam"][j] = mu + 1j * sys.omegas[rep.k[j] - 1]
    return dataclasses.replace(rep, **cols)


def random_state(n, rng):
    return StateVector(
        q=rng.normal(size=n) + 1j * rng.normal(size=n),
        p=rng.normal(size=n) + 1j * rng.normal(size=n),
    )


# beam truncations and jittered beam-like systems; only the complete ones get a basis
PARITY_SYSTEMS = ([beam_example(1.0, 1.0, n) for n in (1, 2, 4, 8, 23, 64)]
                  + [sys for seed in (1, 2, 3) for sys in perturbed_beam_family(seed, 4)])


@pytest.fixture(scope="module")
def parity_bases():
    pairs = []
    for sys in PARITY_SYSTEMS:
        rep = full_spectrum(sys)
        if rep.complete:
            pairs.append((sys, build_basis(sys, rep)))
    return pairs


def assert_bounds_svd(basis):
    """sigma_max <= beta1, 1/sigma_min <= beta2 and cond_svd <= cond_Q <= 1.5 cond_svd."""
    svals = np.linalg.svd(basis.Q, compute_uv=False)
    assert svals[0] <= basis.beta1
    assert 1.0 / svals[-1] <= basis.beta2
    cond_svd = svals[0] / svals[-1]
    assert cond_svd <= basis.cond_Q <= 1.5 * cond_svd


def conjugate_swap(vec):
    """J v = (conj p, conj q): the eigenvector of conj(lam) when v belongs to lam."""
    return StateVector(q=np.conjugate(vec.p), p=np.conjugate(vec.q))


def direct_lower_eigenvector(sys, mu, n):
    """The eigenvector of the lower root ``-i omega_n + mu`` from its own closed form.

    ``v_a = s c_a/(lam - a)`` with ``s = mu/c_n``, so that q_n = 1, and
    ``lam - a = mu - i (omega_n -/+ omega_j)`` for ``a = -/+ i omega_j``.
    """
    w = float(sys.omegas[n - 1])
    s = np.array([mu]) / sys.cs[n - 1]  # numpy's array division, as the upper vectors take it
    return StateVector(q=s * sys.cs / (mu.real + 1j * (mu.imag - (w - sys.omegas))),
                       p=s * sys.cs / (mu.real + 1j * (mu.imag - (w + sys.omegas))))


def direct_upper_eigenvector(sys, mu, n):
    """The eigenvector of the upper root ``i omega_n + mu`` from its own closed form.

    ``v_a = s c_a/(lam - a)`` with ``s = mu/c_n``, so that p_n = 1, and
    ``lam - a = mu + i (omega_n +/- omega_j)`` for ``a = -/+ i omega_j``.
    """
    w = float(sys.omegas[n - 1])
    s = np.array([mu]) / sys.cs[n - 1]
    return StateVector(q=s * sys.cs / (mu.real + 1j * (mu.imag + (w + sys.omegas))),
                       p=s * sys.cs / (mu.real + 1j * (mu.imag + (w - sys.omegas))))


def read_back_offset(sys, lam, n):
    """The offset ``lam - i omega_n`` that :func:`eigenvector` reads from a float ``lam``."""
    return complex(lam.real, lam.imag - float(sys.omegas[n - 1]))


class TestEigenvector:
    def test_single_mode_formulas(self, single_mode):
        lam = SINGLE_MODE_ROOTS[0]
        vec = eigenvector(single_mode, lam, 1)
        # own component normalized to one, partner from the closed form
        assert vec.p[0] == pytest.approx(1.0)
        expected_q = -(1.0 / (1j + lam)) * (1j - lam) / 1.0
        assert vec.q[0] == pytest.approx(expected_q)

    def test_lower_half_scaling(self, single_mode):
        basis = build_basis(single_mode, full_spectrum(single_mode))
        assert basis.Q[0, 0] == pytest.approx(1.0)  # q_1 of the lower column

    def test_residual_guard_rejects_non_eigenvalue(self, single_mode):
        with pytest.raises(ResidualError):
            eigenvector(single_mode, -0.4 + 0.9j, 1)

    def test_pole_rejected(self, single_mode):
        with pytest.raises(PoleError):
            eigenvector(single_mode, 1j, 1)

    def test_inputs_validated(self, single_mode):
        with pytest.raises(ValueError):
            eigenvector(single_mode, SINGLE_MODE_ROOTS[0], 2)
        with pytest.raises(ValueError):
            comparison_vector(1, 2)

    def test_weak_gain_limit_approaches_canonical(self):
        sys = beam_example(1.0, 1.0, 5, gamma=1e-6)
        # roots from the dense oracle: full_spectrum's Newton does not reach
        # its absolute |f| tolerance at this gain
        uppers = [lam for lam in dense_oracle_spectrum(sys) if lam.imag > 0.0]
        for k, lam in enumerate(uppers, start=1):
            vec = eigenvector(sys, lam, k)
            ref = comparison_vector(5, k)
            assert np.max(np.abs(vec.to_array() - ref.to_array())) < 1e-5
            lower_gap = conjugate_swap(vec).to_array() - conjugate_swap(ref).to_array()
            assert np.max(np.abs(lower_gap)) < 1e-5

    def test_comparison_vectors_orthonormal(self):
        ups = [comparison_vector(3, n) for n in (1, 2, 3)]
        cols = [v.to_array() for v in ups] + [conjugate_swap(v).to_array() for v in ups]
        gram = np.array(cols) @ np.conjugate(np.array(cols)).T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-15)

    def test_swap_conjugation_links_the_halves(self, beam4, beam4_basis):
        # the lower columns are exactly J of the upper ones, and eigenvectors
        for k in range(4):
            up = StateVector.from_array(beam4_basis.Q[:, 4 + k])
            lo = beam4_basis.Q[:, k]
            np.testing.assert_array_equal(lo, conjugate_swap(up).to_array())
            resid = apply_generator(beam4, StateVector.from_array(lo)).to_array() \
                - beam4_basis.G[k] * lo
            assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(lo)

    @pytest.mark.parametrize("systems", [
        pytest.param([beam_example(1.0, 1.0, 23)], id="beam23"),
        pytest.param(perturbed_beam_family(1, 4), id="perturbed"),
    ])
    def test_conjugate_swap_is_the_direct_lower_eigenvector(self, systems):
        # bitwise: eigenvector() is the upper vector's closed form at the offset
        # it reads from lam, J of it is the lower vector built from its own
        # formula about -i omega_k, and the generator commutes with J
        rng = np.random.default_rng(5)
        for sys in systems:
            rep = full_spectrum(sys)
            for k, lam in zip(rep.k.tolist(), rep.lam.tolist()):
                mu = read_back_offset(sys, lam, k)
                up = eigenvector(sys, lam, k)
                np.testing.assert_array_equal(up.to_array(),
                                              direct_upper_eigenvector(sys, mu, k).to_array())
                direct = direct_lower_eigenvector(sys, mu.conjugate(), k).to_array()
                np.testing.assert_array_equal(conjugate_swap(up).to_array(), direct)
                for vec in (up, random_state(sys.N, rng)):
                    np.testing.assert_array_equal(
                        apply_generator(sys, conjugate_swap(vec)).to_array(),
                        conjugate_swap(apply_generator(sys, vec)).to_array())


class TestBuildBasis:
    def test_single_mode_block_structure(self, single_mode):
        rep = full_spectrum(single_mode)
        basis = build_basis(single_mode, rep)
        assert basis.Q.shape == (2, 2)
        lam = rep.lam[0]
        assert basis.G[0] == pytest.approx(np.conjugate(lam))
        assert basis.G[1] == pytest.approx(lam)
        assert np.isfinite(basis.cond_Q)

    def test_eigenvalue_diagonal_matches_report(self, beam23_spectrum, beam23_basis):
        lowers = beam23_spectrum.eigenvalues()[1::2]
        uppers = beam23_spectrum.eigenvalues()[0::2]
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

    def test_factorization_residual_bound(self, parity_bases):
        # the residual from the column residuals equals the dense ||A Q - Q G||_F,
        # and ||A||_F has the closed form 2 sum omega^2 + gamma^2 (sum c^2)^2
        assert len(parity_bases) >= 10
        for sys, basis in parity_bases:
            a = dense_generator(sys)
            a_norm = np.linalg.norm(a)
            closed = np.sqrt(2.0 * np.sum(sys.omegas ** 2)
                             + sys.gamma ** 2 * np.sum(sys.cs ** 2) ** 2)
            assert closed == pytest.approx(a_norm, rel=1e-14, abs=0.0)
            dense = np.linalg.norm(a @ basis.Q - basis.Q * basis.G[None, :])
            assert abs(basis.factorization_residual - dense) <= 1e-14 * a_norm
            # both are sums of the same column residuals, so they also agree relatively;
            # this is what would show a lost sqrt(2) for the lower columns
            assert basis.factorization_residual == pytest.approx(dense, rel=1e-2)
            assert basis.factorization_residual <= 1e-8 * a_norm

    def test_solve_matches_dense_solve(self, parity_bases):
        # a vector and a non-square 2N x 3 block: 1/nu scales the rows of Q^T rhs
        rng = np.random.default_rng(31)
        for sys, basis in parity_bases:
            n2 = 2 * sys.N
            for shape in ((n2,), (n2, 3)):
                rhs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                np.testing.assert_allclose(basis.solve(rhs), np.linalg.solve(basis.Q, rhs),
                                           rtol=1e-10, atol=0.0)

    def test_bilinear_gram_is_diagonal(self, parity_bases):
        # Q^T Q = diag(nu); beta2 = beta1 / min |nu| and |nu_k| <= ||v_k||^2 <= beta1^2
        # bound nu away from zero
        for sys, basis in parity_bases:
            gram = (basis.Q.T @ basis.Q) / basis.nu[:, None]
            assert np.linalg.norm(gram - np.eye(2 * sys.N)) <= 1e-10
            assert np.min(np.abs(basis.nu)) >= (1.0 - 1e-12) / basis.beta2 ** 2

    def test_parallel_columns_are_numerically_singular(self, beam23, beam23_spectrum):
        # mode 3 given both of mode 4's roots: every column passes its residual
        # check, but two columns of Q are parallel
        root = beam23_spectrum.lam[3]
        doubled = moved_root(beam23, beam23_spectrum, 2, root - 1j * beam23.omegas[2])
        assert doubled.lam[2] == root
        with pytest.raises(BasisError, match="numerically singular: the root disks"):
            build_basis(beam23, doubled)

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
        # the closed forms bound the SVD's norms from above, within 1.5 in cond(Q)
        assert_bounds_svd(beam4_basis)
        assert beam4_basis.beta1 == 1.0 + np.sqrt(beam4_basis.closeness[-1])
        assert beam4_basis.beta2 == beam4_basis.beta1 / np.min(np.abs(beam4_basis.nu))

    @pytest.mark.parametrize("n", [23, 70])
    def test_operator_norms_match_dense_norms(self, n):
        sys = beam_example(1.0, 1.0, n)
        basis = build_basis(sys, full_spectrum(sys))
        norm, inv_norm = np.linalg.norm(basis.Q, 2), np.linalg.norm(np.linalg.inv(basis.Q), 2)
        assert norm <= basis.beta1 and inv_norm <= basis.beta2
        assert norm * inv_norm <= basis.cond_Q <= 1.5 * norm * inv_norm
        assert basis.cond_Q == basis.beta1 * basis.beta2
        # 1.8609 by the SVD; the bound is 2.2466 from N = 23 on
        assert basis.cond_Q == pytest.approx(2.2465631, rel=1e-6)

    def test_bounds_hold_on_random_families(self):
        # every complete system of the benchmark's random families, some with
        # sqrt(closeness tail) >= 1 where the Neumann-series bound says nothing
        count, far = 0, 0
        for seed in (1, 2, 3, 61):
            for case in load_bench_workloads().random_family(seed):
                sys = SystemSpec.from_json_dict(case.doc)
                rep = full_spectrum(sys)
                if rep.complete:
                    basis = build_basis(sys, rep)
                    assert_bounds_svd(basis)
                    count += 1
                    far += basis.closeness[-1] >= 1.0
        assert count >= 386 and far >= 16

    def test_closed_forms_match_the_dense_eigenvectors(self):
        # nu, the closeness increments and the column residuals come from the
        # spectrum's columns; the eigenvector matrix, formed on demand, is their
        # oracle.  Its column residuals under the dense generator are rounding,
        # bounded by 4 * 2N u (||A||_F + |lam|) ||v||, and the closed forms agree
        # within that bound
        count = 0
        for seed in (1, 2, 3, 61):
            for case in load_bench_workloads().random_family(seed):
                sys = SystemSpec.from_json_dict(case.doc)
                rep = full_spectrum(sys)
                if not rep.complete:
                    continue
                count += 1
                basis = build_basis(sys, rep)
                nu, increments, resid, norms = modal._basis_numbers(sys, rep)
                n, q_mat, a = sys.N, basis.Q, dense_generator(sys)
                np.testing.assert_allclose(np.sum(q_mat * q_mat, axis=0), basis.nu,
                                           rtol=1e-11, atol=0.0)
                upper = q_mat[:, n:]
                np.testing.assert_allclose(np.linalg.norm(upper, axis=0), norms,
                                           rtol=1e-13, atol=0.0)
                gaps = upper - np.eye(2 * n, n, -n)  # the comparison vectors e_{p_k}
                np.testing.assert_allclose(2.0 * np.sum(np.abs(gaps) ** 2, axis=0), increments,
                                           rtol=1e-13, atol=0.0)
                dense = np.linalg.norm(a @ upper - upper * rep.lam, axis=0)
                bound = 8.0 * n * 2.0**-53 * (np.linalg.norm(a) + np.abs(rep.lam)) * norms
                assert np.all(np.abs(dense - resid) <= bound) and np.all(resid <= bound)
        assert count == 441

    # beam N in {1, 2, 5, 23, 64, 70} at gamma in {0.5, 1} where the spectrum is complete;
    # N = 64 and 70 lose modes at gamma = 0.5
    @pytest.mark.parametrize("n, gamma", [(n, 0.5) for n in (1, 2, 5, 23)]
                             + [(n, 1.0) for n in (1, 2, 5, 23, 64, 70)])
    def test_bounds_hold_on_beams(self, n, gamma):
        sys = beam_example(1.0, 1.0, n, gamma=gamma)
        rep = full_spectrum(sys)
        assert rep.complete
        assert_bounds_svd(build_basis(sys, rep))

    def test_build_needs_no_svd(self, beam23, beam23_spectrum, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("build_basis took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        basis = build_basis(beam23, beam23_spectrum)
        assert basis.cond_Q == pytest.approx(2.2465627, rel=1e-6)

    def test_bound_past_the_limit_is_numerically_singular(self, beam23, beam23_spectrum,
                                                          monkeypatch):
        monkeypatch.setattr(modal, "COND_Q_LIMIT", 2.0)
        with pytest.raises(BasisError, match=r"numerically singular \(cond bound 2\.247e\+00\)"):
            build_basis(beam23, beam23_spectrum)

    def test_root_without_a_disk_is_numerically_singular(self, beam23, beam23_spectrum):
        radius = beam23_spectrum.radius.copy()
        radius[6] = np.nan
        with pytest.raises(BasisError, match="do not prove the eigenvalues distinct"):
            build_basis(beam23, dataclasses.replace(beam23_spectrum, radius=radius))

    @pytest.mark.parametrize("systems", [
        pytest.param([beam_example(1.0, 1.0, 23), beam_example(1.0, 1.0, 128)], id="beam"),
        pytest.param(perturbed_beam_family(1, 4), id="perturbed"),
    ])
    def test_columns_are_the_one_root_eigenvectors(self, systems):
        # the one-pass build gives each column bitwise as the closed form builds
        # it for its root's offset alone, and the lower column is J of the upper
        # one.  eigenvector() reads the offset back from the float lam, which
        # rounds it by up to |dmu| = ulp(omega_k), so it matches the column to
        # first order within (|dmu|/|mu| + |dmu|/|lam - a|) |v_a|, plus rounding
        for sys in systems:
            rep = full_spectrum(sys)
            if not rep.complete:
                continue
            basis = build_basis(sys, rep)
            n = sys.N
            for k, mu, lam in zip(rep.k.tolist(), rep.mu.tolist(), rep.lam.tolist()):
                up = direct_upper_eigenvector(sys, mu, k).to_array()
                np.testing.assert_array_equal(basis.Q[:, n + k - 1], up)
                np.testing.assert_array_equal(
                    basis.Q[:, k - 1],
                    conjugate_swap(StateVector.from_array(up)).to_array())
                dmu = abs(read_back_offset(sys, lam, k) - mu)
                dist = np.abs(mu + 1j * (float(sys.omegas[k - 1])
                                         + np.concatenate([sys.omegas, -sys.omegas])))
                bound = (2.0 * dmu * (1.0 / abs(mu) + 1.0 / dist) + 2.0**-48) * np.abs(up)
                assert np.all(np.abs(eigenvector(sys, lam, k).to_array() - up) <= bound), (n, k)

    def test_lam_off_its_offset_is_a_basis_error(self, beam23, beam23_spectrum):
        # the mode-5 root moved by 1e-6 in the lam column alone
        lam = beam23_spectrum.lam.copy()
        lam[4] += 1e-6
        nudged = dataclasses.replace(beam23_spectrum, lam=lam)
        with pytest.raises(BasisError, match=r"^mode 5: root lam = .* is not i omega_k \+ mu"):
            build_basis(beam23, nudged)

    def test_failed_upper_residual_is_a_basis_error(self, beam23, beam23_spectrum, tmp_path):
        # a complete report whose mode-5 upper root is off by 1e-6 while its
        # residual column still reads the old root's: the basis takes f there
        # afresh and is refused with BasisError, and a report records the
        # failed stage
        nudged = moved_root(beam23, beam23_spectrum, 4, beam23_spectrum.mu[4] + 1e-6)
        with pytest.raises(BasisError, match=r"^mode 5: upper eigenvector residual"):
            build_basis(beam23, nudged)
        config = tmp_path / "beam23.json"
        config.write_text(json.dumps({
            "gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
            "tasks": ["spectrum", "simulate"]}))
        pipeline = Pipeline(load_config(str(config), out_override=str(tmp_path / "out")))
        pipeline.spectrum = nudged
        code, results = pipeline.run_report()
        assert code == EXIT_CHECK_FAILED
        assert not results["checks"]["basis_ran"]["pass"]
        assert results["basis"]["error"].startswith("mode 5: upper eigenvector residual")
        assert results["trajectory"]["error"] == results["basis"]["error"]

    def test_incomplete_spectrum_rejected(self, beam4, beam4_spectrum):
        broken = dataclasses.replace(beam4_spectrum, complete=False,
                                     failures=("mode 2 lost",))
        with pytest.raises(BasisError):
            build_basis(beam4, broken)

    def test_missing_pair_rejected(self, beam4, beam4_spectrum):
        # a report marked complete that lacks mode 4, or holds the modes out of order
        rows = {name: getattr(beam4_spectrum, name) for name in SPECTRUM_COLUMNS}
        broken = dataclasses.replace(beam4_spectrum, **{n: c[:-1] for n, c in rows.items()})
        with pytest.raises(BasisError, match="one root for each mode"):
            build_basis(beam4, broken)
        swapped = dataclasses.replace(beam4_spectrum,
                                      **{n: c[[1, 0, 2, 3]] for n, c in rows.items()})
        with pytest.raises(BasisError, match="one root for each mode"):
            build_basis(beam4, swapped)

    def test_json_summary_fields(self, beam23_basis):
        doc = beam23_basis.to_json_dict()
        assert set(doc) == {"beta1", "beta2", "cond_Q", "closeness_tail",
                            "factorization_residual"}
        assert doc["cond_Q"] == pytest.approx(doc["beta1"] * doc["beta2"])


class TestBasisTerms:
    """A report of full_spectrum lends the basis its Newton and certificate values;
    a copy or a hand-built report is evaluated afresh, to the same bits."""

    BASIS_NUMBERS = ("nu", "closeness_increments", "beta1", "beta2", "cond_Q",
                     "factorization_residual", "Q")

    def test_kept_and_fresh_values_give_the_same_basis(self):
        family = [SystemSpec.from_json_dict(case.doc)
                  for case in load_bench_workloads().random_family(1)]
        count = 0
        for sys in PARITY_SYSTEMS + family + [beam_example(1.0, 1.0, 256)]:
            rep = full_spectrum(sys)
            if not rep.complete:
                continue
            kept, fresh = build_basis(sys, rep), build_basis(sys, dataclasses.replace(rep))
            for name in self.BASIS_NUMBERS:
                want = np.asarray(getattr(fresh, name)).tobytes()
                assert np.asarray(getattr(kept, name)).tobytes() == want, (sys.N, name)
            count += 1
        assert count >= 125

    def test_only_a_report_of_full_spectrum_for_this_system_skips_the_walk(self, monkeypatch):
        sys = beam_example(1.0, 1.0, 23)
        rep = full_spectrum(sys)
        calls = []
        eval_f, walk = spectrum.eval_f, spectrum._pole_offsets

        def counted_eval_f(sys, mu, ks):
            calls.append(("eval_f", np.size(mu)))
            return eval_f(sys, mu, ks)

        def counted_walk(sys, ks, mu):
            calls.append(("walk", np.size(mu)))
            return walk(sys, ks, mu)

        monkeypatch.setattr(spectrum, "eval_f", counted_eval_f)
        monkeypatch.setattr(spectrum, "_pole_offsets", counted_walk)
        build_basis(sys, rep)
        assert calls == []
        fresh = [("eval_f", 23), ("walk", 23), ("walk", 23)]  # f and f', then the sum
        build_basis(sys, dataclasses.replace(rep))
        assert calls == fresh
        calls.clear()
        build_basis(copy.copy(sys), rep)  # an equal system, but not the one the report is of
        assert calls == fresh


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
