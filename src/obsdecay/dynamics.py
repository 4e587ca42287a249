"""Error dynamics: exact modal propagation, observer co-simulation, decay fits.

The complex error state evolves by ``d(eps)/dt = A eps`` where A couples a
skew diagonal (the mode oscillations) with a rank-one damping term fed by
the scalar output mismatch.  A is diagonalized by the explicit eigenbasis,
``A = Q G Q^{-1}``, so the error trajectory is evaluated in closed form as
``Q exp(G t) Q^{-1} eps0`` and cross-checked against a matrix exponential
that does not use the eigenbasis: the scaling-and-squaring degree-13 Padé
approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), in numpy alone,
so neither importing this module nor simulating the error loads scipy.
Only the plant/observer co-simulation, whose control ``u(t)`` is
arbitrary, is integrated numerically (``scipy.integrate``, on first use).
Norms contract along every trajectory (the damping is negative
semidefinite), and for well-spread mode families the decay of smooth
initial data is polynomial, not exponential, over the window where the
finite truncation is faithful.

Norm convention: the complex norm equals sqrt(2) times the real-form norm
(see state.py); all real/complex comparisons in this module honor that
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fitting import loglog_fit
from .modal import build_basis
from .model import SystemSpec
from .spectrum import full_spectrum
from .state import RealState, StateVector

RTOL_DEFAULT = 1e-9
ATOL_DEFAULT = 1e-12
MAX_STEP_OMEGA_FRACTION = 0.5
MODAL_CROSSCHECK_RTOL = 1e-6
TRUNCATION_WINDOW_FRACTION = 0.1
FIT_MIN_DECADES = 1.5
FIT_T_LO_FLOOR = 1.0

# Higham (2005): the coefficients of the degree-13 Padé approximant to exp,
# and theta_13, the largest 1-norm at which its backward error stays below
# the unit roundoff of double precision without scaling.
PADE13_COEFFS = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                 1187353796428800.0, 129060195264000.0, 10559470521600.0,
                 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                 960960.0, 16380.0, 182.0, 1.0)
PADE13_THETA = 5.371920351148152


class IntegrationError(RuntimeError):
    """A simulation failed: the observer co-simulation stalled, or the modal
    solution disagrees with the independent matrix exponential."""


class FitError(ValueError):
    """Decay-fit window is degenerate."""


def apply_generator(sys: SystemSpec, eps: StateVector) -> StateVector:
    """Apply the error generator without materializing its dense blocks.

    The scalar coupling ``phi = sum_j c_j (q_j + p_j)`` is formed once;
    the damping enters every component as ``-(gamma/2) c_j phi``.
    """
    if eps.n_modes != sys.N:
        raise ValueError(f"state has {eps.n_modes} modes, system has {sys.N}")
    phi = np.sum(sys.cs * (eps.q + eps.p))
    inj = 0.5 * sys.gamma * sys.cs * phi
    return StateVector(q=-1j * sys.omegas * eps.q - inj, p=1j * sys.omegas * eps.p - inj)


def dense_generator(sys: SystemSpec) -> np.ndarray:
    """Dense 2N x 2N complex matrix of the error generator.

    Block form [[-i Omega + D, D], [D, i Omega + D]] with
    D = -(gamma/2) c c^T.  Test-scale companion of :func:`apply_generator`.
    """
    omega = np.diag(sys.omegas).astype(complex)
    damp = -(0.5 * sys.gamma) * np.outer(sys.cs, sys.cs).astype(complex)
    top = np.hstack([-1j * omega + damp, damp])
    bot = np.hstack([damp, 1j * omega + damp])
    return np.vstack([top, bot])


def domain_initial_state(sys: SystemSpec, seed: int) -> StateVector:
    """Smooth initial data with per-mode amplitude omega_k^(-3/2).

    Random phases drawn from the seeded generator; p is the conjugate of q so
    the state is a genuine real-form error.  The amplitude profile keeps
    ``norm(A eps0)`` bounded as the truncation order grows.
    """
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, sys.N)
    amps = sys.omegas ** (-1.5)
    q = amps * np.exp(1j * phases)
    return StateVector(q=q, p=np.conjugate(q))


@dataclass(frozen=True)
class ErrorTrajectory:
    """Sampled trajectory of the complex error state."""

    t: np.ndarray
    norm: np.ndarray
    states: np.ndarray  # (n_times, 2N) flat (q, p) rows

    def state_at(self, idx: int) -> StateVector:
        return StateVector.from_array(self.states[idx])


def _check_t_grid(t_grid: np.ndarray) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_grid must contain at least two times")
    if t[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    return t


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Padé
    approximant (Higham 2005; Moler and Van Loan, SIAM Review 45, 2003).

    ``a`` is scaled by ``2^-s``, the smallest power that brings its 1-norm
    to at most ``PADE13_THETA``; ``r13(a 2^-s) = (V - U)^-1 (V + U)`` is
    formed from six matrix products and one solve, then squared ``s`` times.
    """
    norm = np.linalg.norm(a, 1)
    s = 0 if norm <= PADE13_THETA else math.ceil(math.log2(norm / PADE13_THETA))
    a = a * 2.0**-s
    b = PADE13_COEFFS
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def simulate_error(sys: SystemSpec, eps0: StateVector, t_grid,
                   basis=None) -> ErrorTrajectory:
    """Propagate the complex error exactly through the modal basis.

    Every sampled state is ``Q exp(G t_i) Q^{-1} eps0``, evaluated for the
    whole grid at once.  Without a basis, one is built from the full
    spectrum (BasisError when the spectrum is incomplete).  The final state
    is checked against ``exp(A t_final) eps0`` from the scaling-and-squaring
    Padé exponential of the dense generator (:func:`_expm`), which does not
    use the eigenbasis, at 1e-6 relative (to the larger of the reference
    norm and the initial norm); a disagreement raises IntegrationError.
    """
    t = _check_t_grid(t_grid)
    if eps0.n_modes != sys.N:
        raise ValueError(f"state has {eps0.n_modes} modes, system has {sys.N}")
    if basis is None:
        basis = build_basis(sys, full_spectrum(sys))
    y0 = eps0.to_array()
    coeffs = basis.solve(y0)
    states = (np.exp(np.outer(t, basis.G)) * coeffs) @ basis.Q.T
    norms = np.linalg.norm(states, axis=1)

    ref = _expm(dense_generator(sys) * t[-1]) @ y0
    err = np.linalg.norm(states[-1] - ref)
    scale = max(float(np.linalg.norm(ref)), eps0.norm())
    if err > MODAL_CROSSCHECK_RTOL * scale:
        raise IntegrationError(
            f"modal solution disagrees with the matrix exponential at t = {t[-1]}: "
            f"state error {err:.3e} vs allowance {MODAL_CROSSCHECK_RTOL * scale:.3e}"
        )
    return ErrorTrajectory(t=t, norm=norms, states=states)


@dataclass(frozen=True)
class ObserverSetup:
    """Plant/observer pair configuration.

    The output-injection gains are fully determined by the system
    (f_j = gamma c_j on the displacement block, zero on the velocity block).
    ``B1`` maps the control vector into the velocity equations; ``u`` is a
    callable t -> control vector, or None for the unforced plant.
    """

    sys: SystemSpec
    B1: Optional[np.ndarray] = None
    u: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        if self.B1 is not None:
            b1 = np.atleast_2d(np.asarray(self.B1, dtype=float))
            if b1.shape[0] != self.sys.N:
                raise ValueError(f"B1 must have {self.sys.N} rows, got {b1.shape[0]}")
            object.__setattr__(self, "B1", b1)
        if self.u is not None and self.B1 is None:
            raise ValueError("a control signal requires an actuator matrix B1")


@dataclass(frozen=True)
class ObserverTrajectory:
    """Co-simulation record: error, plant and observer norms over time."""

    t: np.ndarray
    error_norm: np.ndarray
    plant_norm: np.ndarray
    observer_norm: np.ndarray


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call.

    Only the observer co-simulation integrates, so ``import obsdecay`` does
    not pay for loading ``scipy.integrate``.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def simulate_observer(setup: ObserverSetup, z0: RealState, ztilde0: RealState,
                      t_grid, rtol: float = RTOL_DEFAULT,
                      atol: float = ATOL_DEFAULT) -> ObserverTrajectory:
    """Co-integrate the plant and its observer in real coordinates.

    The reported error norm is the real-form l2 norm of z - ztilde; it equals
    the complex-form norm of the same error divided by sqrt(2).  The control
    enters plant and observer identically, so the error trace is independent
    of u.
    """
    sys = setup.sys
    n = sys.N
    if z0.n_modes != n or ztilde0.n_modes != n:
        raise ValueError("initial states must match the system size")
    t = _check_t_grid(t_grid)
    w = sys.omegas
    c = sys.cs
    gamma_c = sys.gamma * c
    b1 = setup.B1
    u = setup.u

    def rhs(tt, y):
        xi, eta, xi_o, eta_o = np.split(y, 4)
        force = b1 @ np.atleast_1d(u(tt)) if u is not None else 0.0
        y_meas = np.dot(c, xi)
        d_xi = w * eta
        d_eta = -w * xi + force
        d_xi_o = w * eta_o + gamma_c * (y_meas - np.dot(c, xi_o))
        d_eta_o = -w * xi_o + force
        return np.concatenate([d_xi, d_eta, d_xi_o, d_eta_o])

    y0 = np.concatenate([z0.Delta, z0.delta, ztilde0.Delta, ztilde0.delta])
    sol = solve_ivp(
        rhs, (0.0, float(t[-1])), y0, method="RK45", t_eval=t,
        rtol=rtol, atol=atol, max_step=MAX_STEP_OMEGA_FRACTION / float(w[-1]),
    )
    if not sol.success:
        reached = sol.t[-1] if sol.t.size else 0.0
        raise IntegrationError(f"co-simulation stalled at t = {reached}: {sol.message}")
    blocks = np.split(sol.y, 4, axis=0)
    plant = np.vstack([blocks[0], blocks[1]])
    obs = np.vstack([blocks[2], blocks[3]])
    err = plant - obs
    return ObserverTrajectory(
        t=t,
        error_norm=np.linalg.norm(err, axis=0),
        plant_norm=np.linalg.norm(plant, axis=0),
        observer_norm=np.linalg.norm(obs, axis=0),
    )


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay law norm ~ prefactor * (1+t)^exponent.

    ``mode`` is "envelope" (worst case over modes, exact in the eigenvalues)
    or "trajectory" (one simulated solution).  ``polynomial`` is False when
    the data had no usable polynomial window (too narrow after clipping to
    the truncation-valid range), in which case the numbers describe whatever
    the raw window contained.  For trajectory fits ``prefactor`` is the
    smallest constant making the decay bound hold pointwise on the whole
    sampled trajectory.
    """

    exponent: float
    prefactor: float
    window: tuple[float, float]
    r2: float
    mode: str
    polynomial: bool
    clipped: bool
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "prefactor": self.prefactor,
            "window": list(self.window),
            "r2": self.r2,
            "mode": self.mode,
            "polynomial": self.polynomial,
            "clipped": self.clipped,
            "seed": self.seed,
        }


def _fit_window(t: np.ndarray, slowest_rate: float) -> tuple[np.ndarray, bool, bool]:
    """Select fit samples inside [1, 0.1/slowest_rate].

    Returns (mask, polynomial, clipped): when the clipped window is too
    narrow (< 1.5 decades or < 3 points), the full positive-time window is
    used instead and the fit is flagged non-polynomial.
    """
    t_hi_valid = TRUNCATION_WINDOW_FRACTION / slowest_rate
    mask = (t >= FIT_T_LO_FLOOR) & (t <= t_hi_valid)
    clipped = bool(t[0] < FIT_T_LO_FLOOR or t[-1] > t_hi_valid)
    if np.count_nonzero(mask) >= 3:
        tw = t[mask]
        if tw[-1] >= tw[0] * 10.0**FIT_MIN_DECADES:
            return mask, True, clipped
    fallback = t > 0.0
    if np.count_nonzero(fallback) < 3:
        raise FitError("fewer than 3 positive-time samples to fit")
    return fallback, False, False


def decay_envelope(sys: SystemSpec, spectrum, t_grid) -> DecayFit:
    """Fit the worst-case modal envelope max_k exp(Re lam_k t)/|lam_k|.

    This is the exact norm of ``exp(t G) G^{-1}`` for the diagonalized
    dynamics, so the fit isolates the decay law from integrator error.  The
    fitted slope estimates the decay exponent (-1/alpha for admissible mode
    families).  The maximum runs over the upper eigenvalues only: each lower
    one is the bitwise conjugate of an upper one, with the same real part
    and the same modulus.  Only the positive envelope samples are fitted
    (``exp(Re lam t)`` underflows to 0 at late times), and ``window`` spans
    the samples fitted; fewer than 3 raise :class:`FitError`.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 3 or np.any(np.diff(t) <= 0.0) or t[0] < 0.0:
        raise ValueError("t_grid must be increasing with at least 3 nonnegative times")
    lams = spectrum.lam
    if lams.size == 0:
        raise ValueError("spectrum report carries no eigenvalues")
    rates = lams.real
    slowest = float(np.min(np.abs(rates)))
    mask, polynomial, clipped = _fit_window(t, slowest)
    tw = t[mask]
    env = np.max(np.exp(np.outer(tw, rates)) / np.abs(lams), axis=1)
    positive = env > 0.0
    if np.count_nonzero(positive) < 3:
        raise FitError("envelope underflowed to zero inside the fit window")
    tw, env = tw[positive], env[positive]
    fit = loglog_fit(1.0 + tw, env)
    return DecayFit(
        exponent=fit.slope, prefactor=math.exp(fit.intercept),
        window=(float(tw[0]), float(tw[-1])), r2=fit.r2, mode="envelope",
        polynomial=polynomial, clipped=clipped,
    )


def decay_fit_trajectory(sys: SystemSpec, basis, traj: ErrorTrajectory,
                         alpha: float = 1.0, seed: Optional[int] = None) -> DecayFit:
    """Fit the decay law of one simulated trajectory.

    The trajectory norm is normalized by ``norm(A eps0)`` with
    ``eps0 = traj.state_at(0)``; the log-log slope is fitted on the
    truncation-valid window and the reported prefactor is the smallest
    constant beta such that

        norm(eps(t)) <= beta * (1+t)^(-1/alpha) * norm(A eps0)

    holds at every sampled time (including t = 0).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    a_eps0 = apply_generator(sys, traj.state_at(0)).norm()
    if a_eps0 == 0.0:
        raise ValueError("initial state must be nonzero")
    t = traj.t
    ratio = traj.norm / a_eps0

    g_rates = np.real(basis.G)
    slowest = float(np.min(np.abs(g_rates)))
    mask, polynomial, clipped = _fit_window(t, slowest)
    positive = ratio[mask] > 0.0
    if np.count_nonzero(positive) < 3:
        raise FitError("trajectory collapsed to zero inside the fit window")
    fit = loglog_fit(1.0 + t[mask][positive], ratio[mask][positive])

    beta_min = float(np.max(ratio * (1.0 + t) ** (1.0 / alpha)))
    tw = t[mask]
    return DecayFit(
        exponent=fit.slope, prefactor=beta_min,
        window=(float(tw[0]), float(tw[-1])), r2=fit.r2, mode="trajectory",
        polynomial=polynomial, clipped=clipped, seed=seed,
    )
