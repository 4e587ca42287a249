import copy
import json
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import load_bench_workloads, perturbed_beam_family
from obsdecay import reports
from obsdecay.model import (
    ALPHA_MAX,
    AssumptionCertificate,
    SystemSpec,
    _linearizations,
    beam_example,
    build_system,
    certify_assumptions,
)


class TestBuildSystem:
    def test_valid_fig3_family(self):
        omegas = [float(j**2) for j in range(1, 24)]
        cs = [1.0 / j for j in range(1, 24)]
        sys = build_system(1.0, omegas, cs)
        assert sys.N == 23
        np.testing.assert_array_equal(sys.omegas, omegas)

    def test_repeated_frequency_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_system(1.0, [1.0, 1.0], [1.0, 1.0])

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            build_system(1.0, [1.0, 4.0], [1.0, 0.0])

    def test_decreasing_frequency_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_system(1.0, [4.0, 1.0], [1.0, 1.0])

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            build_system(0.0, [1.0], [1.0])
        with pytest.raises(ValueError, match="gamma"):
            build_system(-2.0, [1.0], [1.0])

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError, match="at least one mode"):
            build_system(1.0, [], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            build_system(1.0, [1.0, 4.0], [1.0])

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_system(1.0, [-1.0, 4.0], [1.0, 1.0])

    def test_purity(self):
        a = build_system(2.0, [1.0, 3.0], [0.5, -0.5])
        b = build_system(2.0, [1.0, 3.0], [0.5, -0.5])
        assert a.gamma == b.gamma
        np.testing.assert_array_equal(a.omegas, b.omegas)
        np.testing.assert_array_equal(a.cs, b.cs)


def grid_loop_alpha(sys, beta, k0):
    """(alpha, holds_A3) by trying the exponents 0.1, 0.2, ..., 8.0 one at a time, smallest first."""
    tail_c = np.abs(sys.cs[k0 - 1:])
    tail_w = sys.omegas[k0 - 1:]
    for a in np.round(np.arange(1, 81) * 0.1, 10):
        if np.all(tail_c * tail_w ** (a / 2.0) >= beta):
            return float(a), True
    return 8.0, False


def coupling_holds(sys, beta, k0, alpha):
    """The float64 check ``|c_k| omega_k**(alpha/2) >= beta`` on every mode k >= k0."""
    with np.errstate(over="ignore"):
        return bool(np.all(np.abs(sys.cs[k0 - 1:]) * sys.omegas[k0 - 1:] ** (alpha / 2.0) >= beta))


def two_ulps(x, toward=math.inf):
    """The double two steps from ``x`` toward ``toward``."""
    return math.nextafter(math.nextafter(x, toward), toward)


def power_edge_cases():
    """(system, beta) pairs where ``omega ** (alpha/2) >= beta`` holds with equality at alpha = 1
    or 4 as numpy's scalar power computes it (``sqrt``, ``square``) but fails as an elementwise
    ``pow`` computes it.

    Found among the values ``1 + j/7``; where ``pow`` is correctly rounded there are none.
    """
    w = 1.0 + np.arange(1, 4000) / 7.0
    cases = []
    for half, exact in ((0.5, np.sqrt), (2.0, np.square)):
        low = w[np.power(w, np.full(w.size, half)) < exact(w)][:3]
        cases += [(build_system(1.0, [x], [1.0]), float(exact(x))) for x in low]
    return cases


def per_mode_linearization(sys):
    """F, F' and F'' at i*omega_k, mode by mode (F and F' as charfn formed them before the
    constant)."""
    f0, f1, f2 = [], [], []
    for k in range(sys.N):
        wk, ck = float(sys.omegas[k]), float(sys.cs[k])
        mask = np.arange(sys.N) != k
        gaps = sys.omegas[mask] ** 2 - wk**2
        others = 2.0 * float(np.sum(sys.cs[mask] ** 2 / gaps))
        bends = 8.0 * float(np.sum(sys.cs[mask] ** 2 / gaps**2))
        f0.append(complex(ck**2 / wk))
        f1.append(2.0 / (sys.gamma * wk) + 1j * (others + ck**2 / (2.0 * wk**2)))
        f2.append(complex(wk * bends - ck**2 / (2.0 * wk**3), 4.0 / (sys.gamma * wk**2)))
    return np.array([f0, f1, f2], dtype=complex)


class TestImmutability:
    CONSTANTS = ("iw", "c2_over_w", "pole_residues", "pole_shifts", "residues",
                 "resolvent_offsets", "resolvent_couplings", "linearization")

    def test_source_arrays_are_copied(self):
        w, c = np.array([1.0, 4.0, 9.0]), np.array([1.0, 0.5, 0.25])
        sys = build_system(1.0, w, c)
        direct = SystemSpec(gamma=1.0, omegas=w, cs=c)
        w[1], c[0] = 100.0, 0.0
        for spec in (sys, direct):
            np.testing.assert_array_equal(spec.omegas, [1.0, 4.0, 9.0])
            np.testing.assert_array_equal(spec.cs, [1.0, 0.5, 0.25])

    def test_arrays_are_read_only(self):
        sys = build_system(1.0, [1.0, 4.0, 9.0], [1.0, -0.5, 0.25])
        for name in ("omegas", "cs") + self.CONSTANTS:
            arr = getattr(sys, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2.0
        np.testing.assert_array_equal(sys.omegas, [1.0, 4.0, 9.0])

    def test_copies_and_pickles_stay_read_only(self):
        sys = beam_example(1.0, 1.0, 4, gamma=2.0)
        assert sys.iw.size == 4 and "iw" in vars(sys)  # built here; each copy builds its own
        assert sys.linearization.shape == (3, 4)
        for twin in (copy.copy(sys), copy.deepcopy(sys), pickle.loads(pickle.dumps(sys))):
            assert twin.gamma == 2.0 and twin.generator == sys.generator
            np.testing.assert_array_equal(twin.omegas, sys.omegas)
            np.testing.assert_array_equal(twin.cs, sys.cs)
            assert not twin.omegas.flags.writeable and not twin.cs.flags.writeable
            assert "iw" not in vars(twin) and "linearization" not in vars(twin)
            assert twin.linearization.tobytes() == sys.linearization.tobytes()
            assert not twin.linearization.flags.writeable

    @pytest.mark.parametrize("sys", [beam_example(1.0, 1.0, 23), beam_example(0.3, 2.0, 5, 0.7),
                                     build_system(2.5, [0.5], [-3.0])]
                             + perturbed_beam_family(1, 3), ids=lambda s: f"N{s.N}")
    def test_constants_match_their_expressions(self, sys):
        """Each per-system constant is bitwise the expression the readers used to build per call."""
        iw = 1j * sys.omegas
        c2_over_w = sys.cs**2 / sys.omegas
        expected = {
            "iw": iw,
            "c2_over_w": c2_over_w,
            "pole_residues": np.concatenate([[2.0 / sys.gamma], c2_over_w, c2_over_w]),
            # real parts +0: 1j times a negative gap would give -0
            "pole_shifts": 0.0 + 1j * np.concatenate([sys.omegas[:, None],
                                                      sys.omegas[:, None] - sys.omegas,
                                                      sys.omegas[:, None] + sys.omegas],
                                                     axis=1),
            "residues": np.concatenate([[2j / sys.gamma], c2_over_w, -c2_over_w]),
            "resolvent_offsets": np.concatenate([-iw, iw]),
            "resolvent_couplings": np.concatenate([sys.cs, sys.cs]),
            "linearization": per_mode_linearization(sys),
        }
        assert set(expected) == set(self.CONSTANTS)
        for name, want in expected.items():
            got = getattr(sys, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert getattr(sys, name) is got, f"{name} is built once"
        assert sys.coupling_sum() == float(np.sum(sys.cs**2 / sys.omegas))


class TestLinearizationMemory:
    def test_peak_stays_within_three_and_a_half_n_by_n_arrays(self):
        # gaps, the terms reused for the curvatures, and one row sum copy
        n = 256
        sys = beam_example(1.0, 1.0, n)
        tracemalloc.start()
        try:
            _linearizations(sys.gamma, sys.omegas, sys.cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8


class TestPoleShiftsMemory:
    def test_build_holds_no_table_sized_temporary(self):
        # the table is written in place through its real and imaginary views,
        # so no float table of the imaginary parts or N x N gap block is held
        # beside it, which would double the peak
        sys = beam_example(1.0, 1.0, 1024)
        assert sys.omegas.size == 1024 and "pole_shifts" not in vars(sys)
        tracemalloc.start()
        try:
            table = sys.pole_shifts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * table.nbytes


class TestBeamExample:
    def test_fig3_configuration(self):
        sys = beam_example(1.0, 1.0, 23)
        assert sys.N == 23
        assert sys.omegas[0] == 1.0 and sys.omegas[-1] == 529.0
        assert sys.cs[-1] == 1.0 / 23

    def test_direct_formula(self):
        sys = beam_example(2.0, 1.0, 3)
        np.testing.assert_array_equal(sys.omegas, [2.0, 8.0, 18.0])
        np.testing.assert_allclose(sys.cs, [1.0, 0.5, 1.0 / 3.0])

    def test_single_mode(self):
        sys = beam_example(1.0, 1.0, 1)
        assert sys.N == 1
        assert sys.omegas[0] == 1.0 and sys.cs[0] == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            beam_example(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            beam_example(1.0, -1.0, 3)
        with pytest.raises(ValueError):
            beam_example(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            beam_example(1.0, 1.0, 2.5)

    def test_generator_provenance(self):
        sys = beam_example(1.5, 0.5, 4, gamma=2.0)
        assert sys.generator == {"type": "beam", "theta": 1.5, "sigma": 0.5, "N": 4}

    def test_tail_bound_closed_form(self):
        sys = beam_example(2.0, 3.0, 10)
        assert sys.coupling_sum_tail_bound() == pytest.approx(9.0 / (3.0 * 2.0 * 1000.0))
        inline = build_system(1.0, [1.0, 4.0], [1.0, 0.5])
        assert inline.coupling_sum_tail_bound() is None


class TestCertifyAssumptions:
    def test_fig3_certificate(self):
        cert = certify_assumptions(beam_example(1.0, 1.0, 23), beta=1.0, k0=2)
        assert cert.kappa == 3.0
        assert cert.alpha == 1.0
        assert cert.holds_A2 and cert.holds_A3

    def test_gap_for_theta_2(self):
        cert = certify_assumptions(beam_example(2.0, 1.0, 10), beta=1.0, k0=2)
        assert cert.kappa == 6.0

    def test_two_mode_alpha(self):
        sys = build_system(1.0, [1.0, 4.0], [1.0, 0.5])
        cert = certify_assumptions(sys, beta=1.0, k0=1)
        assert cert.kappa == 3.0
        # 0.5 * 4^(alpha/2) = 1 solves to alpha = 1; mode 1 (omega = 1) holds at every alpha
        assert cert.alpha == 1.0 and cert.holds_A3

    @pytest.mark.parametrize("theta", [1.0, 2.0, 0.5, 0.25])
    def test_kappa_exact_for_dyadic_theta(self, theta):
        cert = certify_assumptions(beam_example(theta, 1.0, 12))
        assert cert.kappa == 3.0 * theta

    def test_kappa_close_for_general_theta(self):
        theta = 0.3
        cert = certify_assumptions(beam_example(theta, 1.0, 12))
        assert cert.kappa == pytest.approx(3.0 * theta, rel=1e-14)

    def test_monotone_in_beta(self):
        sys = beam_example(1.0, 1.0, 12)
        alphas = [certify_assumptions(sys, beta=b, k0=2).alpha
                  for b in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert alphas == sorted(alphas)

    def test_infeasible_beta(self):
        # mode 2 needs 2^(alpha/2) / 2 >= 1e6: alpha = log2(2e6), past ALPHA_MAX
        cert = certify_assumptions(beam_example(1.0, 1.0, 23), beta=1e6, k0=2)
        assert not cert.holds_A3
        assert cert.alpha > ALPHA_MAX
        assert cert.alpha == pytest.approx(math.log2(2e6), rel=1e-15)

    def test_modes_at_or_below_unit_frequency(self):
        # omega <= 1 cannot raise alpha: mode 1 holds at alpha = 0.1 and mode 2 sets alpha = 2,
        # where 2 * 0.25 < 1 fails mode 1, and it fails at every larger alpha too
        sys = build_system(1.0, [0.25, 2.0], [2.0, 0.5])
        cert = certify_assumptions(sys, beta=1.0, k0=1)
        assert two_ulps(2.0, 0.0) <= cert.alpha <= two_ulps(2.0) and not cert.holds_A3
        assert certify_assumptions(sys, beta=1.0, k0=2).holds_A3
        low = certify_assumptions(build_system(1.0, [0.5, 1.0], [2.0, 1.0]), beta=1.0, k0=1)
        assert low.alpha == 0.1 and low.holds_A3

    def test_overflowing_coupling_ratio_keeps_alpha_finite(self, tmp_path):
        # beta/|c_1| = 1e600 overflows; 2 ln(1e600)/ln 2 is the alpha mode 1 needs
        sys = build_system(1.0, [2.0, 3.0], [1e-300, 1.0])
        cert = certify_assumptions(sys, beta=1e300, k0=1)
        assert math.isfinite(cert.alpha)
        assert cert.alpha == pytest.approx(2.0 * 600.0 * math.log(10.0) / math.log(2.0),
                                           rel=1e-12)
        assert round(cert.alpha, 1) == 3986.3
        assert not cert.holds_A3
        path = tmp_path / "assumptions.json"
        reports.write_json(str(path), cert.to_json_dict())
        assert json.loads(path.read_text())["alpha"] == cert.alpha

    def test_underflowing_coupling_ratio_warns_nothing(self):
        # beta/|c_1| = 1e-600 underflows to 0; its log is taken from ln beta - ln|c_1|
        # instead, so nothing warns and the certificate is the one the log of 0 gave
        sys = build_system(1, [2, 3], [1e300, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify_assumptions(sys, beta=1e-300, k0=1)
        assert cert == AssumptionCertificate(kappa=1.0, alpha=0.1, beta=1e-300, k0=1,
                                             holds_A2=True, holds_A3=True)

    def test_single_mode_gap_is_vacuous(self):
        cert = certify_assumptions(build_system(1.0, [2.0], [1.0]), beta=0.5, k0=1)
        assert math.isinf(cert.kappa)
        assert cert.holds_A2
        assert cert.to_json_dict()["kappa"] is None

    def test_parameter_validation(self):
        sys = beam_example(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            certify_assumptions(sys, beta=0.0)
        for beta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                certify_assumptions(sys, beta=beta)
        with pytest.raises(ValueError):
            certify_assumptions(sys, k0=0)
        with pytest.raises(ValueError):
            certify_assumptions(sys, k0=5)

    def test_closed_form_against_grid_loop(self):
        """The closed-form alpha passes the float check, lies within one grid step below the grid's
        alpha, and changes A3's verdict only where the grid's 0.1 step hid a feasible alpha."""
        systems = [(f"seed{seed}/{i}", SystemSpec.from_json_dict(case.doc))
                   for seed in (1, 2, 3)
                   for i, case in enumerate(load_bench_workloads().random_family(seed))]
        # beam theta = sigma = beta = 1: |c_k| omega_k^(1/2) = 1 = beta holds exactly at alpha = 1
        systems += [(f"beam{n}", beam_example(1.0, 1.0, n))
                    for n in (1, 2, 5, 23, 48, 49, 64, 256, 1024)]
        cases = [(name, sys, beta) for name, sys in systems for beta in (0.5, 1.0, 2.0)]
        cases += [(f"edge{i}", sys, beta) for i, (sys, beta) in enumerate(power_edge_cases())]
        verdicts_changed, count = [], 0
        for name, sys, beta in cases:
            for k0 in sorted({1, min(2, sys.N)}):
                count += 1
                cert = certify_assumptions(sys, beta=beta, k0=k0)
                grid_alpha, grid_holds = grid_loop_alpha(sys, beta, k0)
                assert cert.holds_A3 == (cert.alpha <= ALPHA_MAX
                                         and coupling_holds(sys, beta, k0, cert.alpha))
                if grid_holds:
                    assert grid_alpha - 0.1 < cert.alpha <= two_ulps(grid_alpha)
                if cert.holds_A3 != grid_holds:
                    verdicts_changed.append((name, beta, k0, cert.holds_A3))
        assert count == 2865
        # both feasible intervals, [0.941, 0.982] and [1.080, 1.090], fall between grid points
        assert verdicts_changed == [("seed2/5", 0.5, 1, True), ("seed2/72", 1.0, 1, True)]

    @pytest.mark.parametrize("n", [2, 5, 23, 48, 49, 64, 256, 1024])
    def test_beam_alpha_is_one(self, n):
        # fl(1/49) * 49 = 1 - 2^-53 put the grid at 1.1 from N = 49 on
        cert = certify_assumptions(beam_example(1.0, 1.0, n), beta=1.0, k0=2)
        assert cert.holds_A3
        assert two_ulps(1.0, 0.0) <= cert.alpha <= two_ulps(1.0)

    @pytest.mark.parametrize("q, p", [(2, 1), (2, 1.5), (2, 2), (1, 2), (1, 1), (1.5, 1)])
    def test_power_family_alpha(self, q, p):
        # omega_j = j^q, c_j = j^-p: |c_j| omega_j^(alpha/2) = j^(alpha q/2 - p) >= 1 from alpha = 2p/q
        j = np.arange(1, 65, dtype=float)
        cert = certify_assumptions(build_system(1.0, j**q, j**-p), beta=1.0, k0=2)
        assert cert.holds_A3
        assert two_ulps(2.0 * p / q, 0.0) <= cert.alpha <= two_ulps(2.0 * p / q)


class TestSerialization:
    def test_modes_roundtrip(self):
        sys = build_system(2.0, [1.0, 4.0, 9.0], [1.0, -0.5, 0.25])
        back = SystemSpec.from_json(sys.to_json())
        assert back.gamma == sys.gamma
        np.testing.assert_array_equal(back.omegas, sys.omegas)
        np.testing.assert_array_equal(back.cs, sys.cs)

    def test_generator_roundtrip(self):
        sys = beam_example(1.5, 0.5, 6, gamma=3.0)
        back = SystemSpec.from_json(sys.to_json())
        assert back.generator == sys.generator
        assert back.gamma == 3.0
        np.testing.assert_array_equal(back.omegas, sys.omegas)

    def test_document_shapes(self):
        doc = beam_example(1.0, 1.0, 3).to_json_dict()
        assert set(doc) == {"gamma", "generator"}
        doc = build_system(1.0, [1.0], [1.0]).to_json_dict()
        assert set(doc) == {"gamma", "modes"}
        assert doc["modes"] == [{"omega": 1.0, "c": 1.0}]

    def test_malformed_documents(self):
        with pytest.raises(ValueError):
            SystemSpec.from_json(json.dumps({"modes": [{"omega": 1.0, "c": 1.0}]}))
        with pytest.raises(ValueError):
            SystemSpec.from_json(json.dumps({"gamma": 1.0}))
        with pytest.raises(ValueError):
            SystemSpec.from_json(json.dumps({"gamma": 1.0, "generator": {"type": "rod"}}))
