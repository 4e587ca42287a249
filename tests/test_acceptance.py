"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
The reference configuration throughout is the quadratic-frequency family
omega_j = j^2, c_j = 1/j, gamma = 1 truncated at N = 23.
"""

import json
import time

import numpy as np

from conftest import localizations
from oracles import (
    ObserverSetup,
    RealState,
    dense_oracle_spectrum,
    matching_distance,
    rouche_margin,
    simulate_observer,
)
from obsdecay.charfn import CharContext, localize_modes
from obsdecay.dynamics import (
    apply_generator,
    decay_envelope,
    decay_fit_trajectory,
    dense_generator,
    domain_initial_state,
    simulate_error,
)
from obsdecay.model import beam_example
from obsdecay.modal import build_basis
from obsdecay.resolvent import (
    apply_resolvent,
    axis_scan,
    segment_bound_checks,
)
from obsdecay.spectrum import full_spectrum, winding_number
from obsdecay.state import StateVector
from obsdecay import cli


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_oracle_spectral_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 4, 8):
        sys = beam_example(1.0, 1.0, n)
        rep = full_spectrum(sys)
        assert rep.complete
        worst = max(worst, matching_distance(rep.eigenvalues(),
                                             dense_oracle_spectrum(sys)))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-8 and elapsed < 5.0,
           f"max matched distance {worst:.2e} (tol 1e-8), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_fig3_reproduction():
    t0 = time.perf_counter()
    sys = beam_example(1.0, 1.0, 23)
    rep = full_spectrum(sys)
    elapsed = time.perf_counter() - t0
    ok = (
        len(rep.eigs) == 46
        and all(e.lam.real < 0.0 for e in rep.eigs)
        and rep.enclosure_defect == 0.0
        and elapsed < 10.0
    )
    report(2, ok,
           f"{len(rep.eigs)} eigenvalues, max Re "
           f"{max(e.lam.real for e in rep.eigs):.2e}, enclosure defect "
           f"{rep.enclosure_defect} (must be 0), runtime {elapsed:.2f}s (< 10s)")


def test_criterion_3_rouche_certification():
    sys = beam_example(1.0, 1.0, 23)
    rep = full_spectrum(sys)
    by_key = {(e.k, e.half): e for e in rep.eigs}
    checked = 0
    margins = []
    for cert in localizations(sys).values():
        if not (cert.omega_gt_1 and cert.cond_Mneq2):
            continue
        checked += 1
        for half, center in (("upper", cert.lambda_star), ("lower", cert.lambda_star.conjugate())):
            eig = by_key[(cert.k, half)]
            winding = winding_number(sys, (center, cert.Rk))
            assert winding == 1, f"mode {cert.k} ({half}): winding {winding}"
            assert abs(eig.lam - center) < cert.Rk, \
                f"mode {cert.k} ({half}): root outside its disk"
        margins.append(rouche_margin(CharContext(sys, cert.k), cert))
    ok = checked > 0 and all(m > 0.0 for m in margins)
    report(3, ok,
           f"{checked} modes pass the axis-separation inequality; winding = 1 and "
           f"root inside disk for each; min |g|-|r| margin over 64 contour points "
           f"{min(margins):.3e} > 0")


def test_criterion_4_resolvent_contract():
    sys = beam_example(1.0, 1.0, 23)
    rep = full_spectrum(sys)
    eigs = rep.eigenvalues()
    gen = dense_generator(sys)
    rng = np.random.default_rng(1234)
    worst = 0.0
    done = 0
    while done < 100:
        lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(-550.0, 550.0))
        if lam == 0 or np.min(np.abs(eigs - lam)) < 1e-3:
            continue
        rhs = StateVector(q=rng.normal(size=23) + 1j * rng.normal(size=23),
                          p=rng.normal(size=23) + 1j * rng.normal(size=23))
        eps = apply_resolvent(sys, lam, rhs)
        resid = np.linalg.norm((gen - lam * np.eye(46)) @ eps.to_array()
                               - rhs.to_array())
        worst = max(worst, resid / rhs.norm())
        done += 1

    worst_singular = 0.0
    for k in range(1, 24):
        for lam in (1j * sys.omegas[k - 1], -1j * sys.omegas[k - 1]):
            rhs = StateVector(q=rng.normal(size=23) + 1j * rng.normal(size=23),
                              p=rng.normal(size=23) + 1j * rng.normal(size=23))
            eps = apply_resolvent(sys, lam, rhs)
            resid = np.linalg.norm((gen - lam * np.eye(46)) @ eps.to_array()
                                   - rhs.to_array())
            worst_singular = max(worst_singular, resid / rhs.norm())
    ok = worst <= 1e-10 and worst_singular <= 1e-10
    report(4, ok,
           f"100 random round-trips: worst residual {worst:.2e} (tol 1e-10); "
           f"46 mode-frequency solves: worst residual {worst_singular:.2e} (tol 1e-10)")


def test_criterion_5_axis_scan_exponent():
    sys = beam_example(1.0, 1.0, 23)
    rep = full_spectrum(sys)
    scan = axis_scan(sys, rep, (3, 20))
    checks = segment_bound_checks(scan, localize_modes(sys, range(1, sys.N + 1)),
                                  build_basis(sys, rep).cond_Q)
    applicable = int(np.count_nonzero(checks.applicable))
    ok = (
        abs(scan.alpha_fit.slope - 1.0) <= 0.15
        and scan.alpha_fit.r2 >= 0.95
        and applicable > 0
        and bool(checks.ok.all())
    )
    report(5, ok,
           f"slope {scan.alpha_fit.slope:.4f} (target 1 +/- 0.15), r2 "
           f"{scan.alpha_fit.r2:.4f} (>= 0.95); certified cap applicable on "
           f"{applicable}/{checks.k.size} bands and holds on every one")


def test_criterion_6_decay_exponent():
    sys = beam_example(1.0, 1.0, 23)
    rep = full_spectrum(sys)
    env = decay_envelope(sys, rep, np.geomspace(1.0, 200.0, 200))
    env_ok = abs(env.exponent + 1.0) <= 0.2 and env.polynomial

    basis = build_basis(sys, rep)
    eps0 = domain_initial_state(sys, seed=1234)
    t_grid = np.concatenate([[0.0], np.geomspace(0.01, 40.0, 140)])
    traj = simulate_error(sys, eps0, t_grid, basis=basis)
    monotone = bool(np.all(np.diff(traj.norm) <= 1e-9 * traj.norm[0]))
    fit = decay_fit_trajectory(sys, basis, traj, alpha=1.0, seed=1234)
    scale = apply_generator(sys, eps0).norm()
    bound = fit.prefactor * (1.0 + t_grid) ** -1.0 * scale
    bound_ok = bool(np.all(traj.norm <= bound * (1 + 1e-9)))
    ok = env_ok and monotone and np.isfinite(fit.prefactor) and bound_ok
    report(6, ok,
           f"envelope exponent {env.exponent:.4f} (target -1 +/- 0.2); trajectory "
           f"bound holds pointwise with beta~ = {fit.prefactor:.4f}, monotone "
           f"decay {monotone}")


def test_criterion_7_diagonalization():
    worst_resid = 0.0
    for n in (1, 2, 4, 8, 23):
        sys = beam_example(1.0, 1.0, n)
        rep = full_spectrum(sys)
        basis = build_basis(sys, rep)
        gen = dense_generator(sys)
        resid = np.linalg.norm(basis.solve(gen @ basis.Q) - np.diag(basis.G))
        worst_resid = max(worst_resid, resid / np.linalg.norm(np.diag(basis.G)))

    sys23 = beam_example(1.0, 1.0, 23)
    basis23 = build_basis(sys23, full_spectrum(sys23))
    inc = np.array(basis23.closeness_increments)
    scaled = inc[1:] * np.arange(2, 24) ** 4.0
    closeness_ok = bool(np.max(scaled) < 1.0)
    ok = worst_resid <= 1e-7 and closeness_ok
    report(7, ok,
           f"worst relative diagonalization residual {worst_resid:.2e} (tol 1e-7) "
           f"over N in {{1,2,4,8,23}}; closeness increments * n^4 bounded by "
           f"{np.max(scaled):.3f} for 2 <= n <= 23")


def test_criterion_8_control_invariance():
    sys = beam_example(1.0, 1.0, 4)
    rng = np.random.default_rng(88)
    b1 = rng.normal(size=(4, 2))
    z0 = RealState(Delta=rng.normal(size=4), delta=rng.normal(size=4))
    e0 = RealState(Delta=0.5 * rng.normal(size=4), delta=0.5 * rng.normal(size=4))
    zt0 = RealState(Delta=z0.Delta - e0.Delta, delta=z0.delta - e0.delta)
    t_grid = np.linspace(0.0, 5.0, 41)
    controls = (
        lambda t: np.array([np.sin(t), np.cos(3.0 * t)]),
        lambda t: np.array([2.0 * np.cos(0.7 * t), -1.0 + 0.1 * t]),
    )
    traces = [
        simulate_observer(ObserverSetup(sys=sys, B1=b1, u=u), z0, zt0, t_grid,
                          rtol=1e-12, atol=1e-14).error_norm
        for u in controls
    ]
    gap = float(np.max(np.abs(traces[0] - traces[1])))
    report(8, gap <= 1e-10,
           f"two distinct controls, equal initial error: max trace gap "
           f"{gap:.2e} (tol 1e-10)")


def test_criterion_9_report_determinism(tmp_path):
    config = {
        "gamma": 1.0,
        "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 8},
        "tasks": ["verify", "localize", "spectrum", "resolvent-scan",
                  "envelope", "simulate"],
        "seed": 20260810,
        "tolerances": {"sim_t_final": 4.0, "sim_points": 30},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        code = cli.main(["report", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_OK
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    report(9, identical,
           f"two seeded report runs produced byte-identical artifacts: {names}")
