"""Full spectrum of the truncated error generator, with per-root certificates.

Roots of the characteristic function come in conjugate pairs, one pair per
mode: the upper root sits near ``+i omega_k``, the lower near ``-i omega_k``.
Each root is found by damped Newton iteration seeded at the first-order
prediction, then verified two ways:

* an argument-principle winding count over the enclosure disk boundary
  (an integer, so the check is self-validating);
* the residual |f(root)| against an explicit tolerance.

A dense eigenvalue solve of the real block matrix provides an independent
cross-validation oracle at test scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize

from .charfn import (
    CharContext,
    LocalizationCertificate,
    LocalizationError,
    PoleError,
    eval_f,
    eval_f_prime,
    lambda_star,
    localize,
)
from .model import SystemSpec

NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 100
NEWTON_MAX_HALVINGS = 20
POLE_GUARD = 1e-12
WINDING_SAMPLES_INIT = 128
WINDING_SAMPLES_CAP = 8192
WINDING_INT_TOL = 1e-6
CONTOUR_MIN_ABS_F = 1e-9
RESIDUAL_CERT_FACTOR = 1e-10
DISTINCTNESS_TOL = 1e-9
DENSE_ORACLE_MAX_N = 64


class NewtonError(RuntimeError):
    """Newton refinement failed to converge to a root."""


class WindingError(RuntimeError):
    """Contour integral did not settle on an integer within the sample cap."""


def _poles(sys: SystemSpec) -> np.ndarray:
    iw = 1j * sys.omegas
    return np.concatenate([[0.0 + 0.0j], iw, -iw])


def enclosure_radius(sys: SystemSpec, lam: complex) -> float:
    """Global enclosure radius (gamma/2) |lam| sum_j c_j^2/omega_j.

    Every eigenvalue lies within this distance of some +/- i omega_j.
    """
    return 0.5 * sys.gamma * abs(lam) * sys.coupling_sum()


def newton_root(sys: SystemSpec, seed: complex, tol: float = NEWTON_TOL,
                max_iters: int = NEWTON_MAX_ITERS) -> tuple[complex, float, int]:
    """Damped Newton iteration on the characteristic function.

    Steps are halved (up to 20 times) until |f| decreases, so the residual is
    non-increasing across accepted steps; candidates within 1e-12 of a pole
    are rejected.  Returns ``(root, |f(root)|, iterations)``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    poles = _poles(sys)
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


def winding_number(sys: SystemSpec, disk: tuple[complex, float],
                   samples: int = WINDING_SAMPLES_INIT) -> int:
    """Argument-principle count (zeros minus poles) of f inside a disk.

    Trapezoidal contour integration of f'/f over the circle, with the sample
    count doubled until the value sits within 1e-6 of an integer.  The disk
    boundary must stay away from zeros and poles of f (guarded by the sampled
    minimum of |f|).
    """
    center, radius = complex(disk[0]), float(disk[1])
    if radius <= 0.0:
        raise ValueError("disk radius must be positive")
    m = int(samples)
    if m < 16:
        raise ValueError("need at least 16 contour samples")
    while True:
        t = 2.0 * np.pi * np.arange(m) / m
        unit = np.exp(1j * t)
        lam = center + radius * unit
        fv = eval_f(sys, lam)
        min_abs = float(np.min(np.abs(fv)))
        if min_abs <= CONTOUR_MIN_ABS_F:
            raise PoleError(
                f"contour touches a zero or pole of f (min sampled |f| = {min_abs:.3e})"
            )
        val = np.sum(eval_f_prime(sys, lam) / fv * unit) * radius / m
        nearest = round(val.real)
        if abs(val - nearest) < WINDING_INT_TOL:
            return int(nearest)
        if m >= WINDING_SAMPLES_CAP:
            raise WindingError(
                f"contour integral {val} not within {WINDING_INT_TOL} of an integer "
                f"after {m} samples"
            )
        m *= 2


@dataclass(frozen=True)
class EigenCertificate:
    """One eigenvalue of the truncated generator with its verification data.

    ``half`` is "upper" for the root near +i omega_k and "lower" for its
    conjugate partner.  ``certified`` requires a successful disk enclosure
    (winding number one, root inside, small residual, strictly stable).
    ``fallback`` marks roots found from the uncertified backup seeding.
    """

    k: int
    half: str
    lam: complex
    residual: float
    disk_center: complex
    disk_radius: float
    winding: Optional[int]
    certified: bool
    newton_iters: int
    fallback: bool = False

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "half": self.half,
            "lambda": [self.lam.real, self.lam.imag],
            "residual": self.residual,
            "disk_center": [self.disk_center.real, self.disk_center.imag],
            "disk_radius": self.disk_radius,
            "winding": self.winding,
            "certified": self.certified,
            "newton_iters": self.newton_iters,
            "fallback": self.fallback,
        }


@dataclass(frozen=True)
class SpectrumReport:
    """All 2N roots with global consistency metrics.

    ``symmetry_defect`` is the largest gap between an upper root and the
    conjugate of its lower partner; ``enclosure_defect`` the largest
    violation of the global disk enclosure (0 when every root is inside).
    ``localizations`` holds the per-mode certificates the search was seeded
    from, in mode order, for every mode whose localization succeeded.
    """

    eigs: tuple[EigenCertificate, ...]
    symmetry_defect: float
    enclosure_defect: float
    complete: bool
    failures: tuple[str, ...] = ()
    localizations: tuple[LocalizationCertificate, ...] = ()

    def eigenvalues(self, half: Optional[str] = None) -> np.ndarray:
        vals = [e.lam for e in self.eigs if half is None or e.half == half]
        return np.asarray(vals, dtype=complex)

    def upper(self) -> list[EigenCertificate]:
        return [e for e in self.eigs if e.half == "upper"]

    def lower(self) -> list[EigenCertificate]:
        return [e for e in self.eigs if e.half == "lower"]

    @property
    def all_certified(self) -> bool:
        return self.complete and all(e.certified for e in self.eigs)

    def to_json_dict(self) -> dict:
        return {
            "eigs": [e.to_json_dict() for e in self.eigs],
            "symmetry_defect": self.symmetry_defect,
            "enclosure_defect": self.enclosure_defect,
            "complete": self.complete,
            "failures": list(self.failures),
        }


def _nearest_mode(sys: SystemSpec, im_part: float) -> int:
    """Index (1-based) of the mode frequency closest to |im_part|; ties go low."""
    dist = np.abs(sys.omegas - abs(im_part))
    return int(np.argmin(dist)) + 1


def _find_half(sys: SystemSpec, k: int, half: str, loc: Optional[LocalizationCertificate],
               seed: complex, band: float, tol: float
               ) -> tuple[Optional[EigenCertificate], Optional[str]]:
    sign = 1.0 if half == "upper" else -1.0
    wk = float(sys.omegas[k - 1])
    fallback = False
    try:
        root, resid, iters = newton_root(sys, seed, tol=tol)
        if abs(root.imag - sign * wk) > band:
            raise NewtonError(f"root {root} left the mode-{k} band")
    except (NewtonError, PoleError):
        fallback = True
        fb_seed = -0.5 * enclosure_radius(sys, 1j * wk) + sign * 1j * wk
        try:
            root, resid, iters = newton_root(sys, fb_seed, tol=tol)
        except (NewtonError, PoleError) as exc2:
            return None, f"mode {k} ({half}): fallback Newton failed: {exc2}"
        if abs(root.imag - sign * wk) > band:
            return None, f"mode {k} ({half}): fallback root {root} left the mode band"

    if _nearest_mode(sys, root.imag) != k:
        return None, f"mode {k} ({half}): root {root} assigned to another mode"

    if loc is not None and not fallback:
        center = loc.lambda_star if half == "upper" else loc.lambda_star.conjugate()
        radius = loc.Rk
        rouche_ok = loc.rouche_ok
    else:
        center = root
        radius = 0.5 * float(np.min(np.abs(root - _poles(sys))))
        rouche_ok = False
    try:
        wind = winding_number(sys, (center, radius))
    except (WindingError, PoleError):
        wind = None

    inside = abs(root - center) < radius
    residual_ok = resid <= RESIDUAL_CERT_FACTOR * (1.0 + abs(eval_f_prime(sys, root)))
    stable = root.real < 0.0
    certified = bool(rouche_ok and wind == 1 and inside and residual_ok and stable)
    cert = EigenCertificate(
        k=k, half=half, lam=root, residual=resid,
        disk_center=center, disk_radius=radius, winding=wind,
        certified=certified, newton_iters=iters, fallback=fallback,
    )
    return cert, None


def full_spectrum(sys: SystemSpec, theta_frac: float = 0.5,
                  newton_tol: float = NEWTON_TOL) -> SpectrumReport:
    """Locate and certify all 2N roots of the characteristic function.

    Each mode is localized, refined by Newton from the first-order seed (and
    from a left-shifted backup seed when needed), and paired with its
    conjugate partner.  Failures are collected instead of raised; the report
    is flagged incomplete when any (mode, half) pair is missing.
    """
    band = 0.5 * (sys.min_gap() if sys.N > 1 else float(sys.omegas[0]))
    eigs: list[EigenCertificate] = []
    failures: list[str] = []
    locs: list[LocalizationCertificate] = []
    for k in range(1, sys.N + 1):
        ctx = CharContext(sys, k)
        lam_s = lambda_star(ctx)
        try:
            loc = localize(ctx, theta_frac=theta_frac)
        except LocalizationError:
            loc = None
        else:
            locs.append(loc)
        for half, seed in (("upper", lam_s), ("lower", lam_s.conjugate())):
            cert, err = _find_half(sys, k, half, loc, seed, band, newton_tol)
            if cert is None:
                failures.append(err)
            else:
                eigs.append(cert)

    order = {"upper": 0, "lower": 1}
    eigs.sort(key=lambda e: (e.k, order[e.half]))

    by_mode: dict[int, dict[str, EigenCertificate]] = {}
    for e in eigs:
        by_mode.setdefault(e.k, {})[e.half] = e
    sym = 0.0
    for pair in by_mode.values():
        if "upper" in pair and "lower" in pair:
            sym = max(sym, abs(pair["upper"].lam - pair["lower"].lam.conjugate()))

    enc = 0.0
    iw = 1j * sys.omegas
    for e in eigs:
        nearest = float(np.min(np.minimum(np.abs(e.lam - iw), np.abs(e.lam + iw))))
        enc = max(enc, max(0.0, nearest - enclosure_radius(sys, e.lam)))

    vals = np.asarray([e.lam for e in eigs])
    if len(vals) > 1:
        dists = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(dists, np.inf)
        min_dist = float(np.min(dists))
        if min_dist <= DISTINCTNESS_TOL:
            failures.append(f"eigenvalues not distinct (min pairwise distance {min_dist:.3e})")

    complete = len(eigs) == 2 * sys.N and not failures
    return SpectrumReport(
        eigs=tuple(eigs), symmetry_defect=sym, enclosure_defect=enc,
        complete=complete, failures=tuple(failures), localizations=tuple(locs),
    )


def dense_oracle_spectrum(sys: SystemSpec) -> np.ndarray:
    """Eigenvalues of the dense real block matrix, via the LAPACK QR solver.

    Independent of the Newton/contour path; intended for test-scale
    cross-validation only (N <= 64).  Returned sorted by (imag, real).
    """
    if sys.N > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle is capped at N = {DENSE_ORACLE_MAX_N}, got {sys.N}")
    n = sys.N
    omega = np.diag(sys.omegas)
    damped = -sys.gamma * np.outer(sys.cs, sys.cs)
    top = np.hstack([damped, omega])
    bot = np.hstack([-omega, np.zeros((n, n))])
    mat = np.vstack([top, bot])
    vals = np.linalg.eigvals(mat)
    idx = np.lexsort((vals.real, vals.imag))
    return vals[idx]


def matching_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest pairwise distance under the optimal bipartite matching.

    Used to compare two multisets of eigenvalues without relying on any
    particular ordering.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size != b.size:
        raise ValueError("multisets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))
