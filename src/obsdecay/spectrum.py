"""Full spectrum of the truncated error generator, with per-root certificates.

Roots of the characteristic function come in conjugate pairs, one pair per
mode: the upper root sits near ``+i omega_k``, the lower near ``-i omega_k``.
The generator is real, so ``f(conj lam) = -conj f(lam)``, and the lower root
of each pair is the exact conjugate of the upper one; only the upper root is
solved for.  The upper roots of all modes are found together, by one
array-valued damped Newton iteration seeded at the first-order predictions
(and one more from backup seeds for the modes that need them); each root
gets the same arithmetic as a scalar iteration from its seed.  Each root is
then certified by one closed-form a-posteriori Rouche disk centred at it
(:func:`_certified_radii`).  The report is ``complete`` when every mode is
found and every root certified; f has exactly 2N zeros, so 2N disjoint
one-zero disks prove the spectrum complete and simple (up to rounding in
the computed ``|f|``, ``|f'|`` and remainder bound).  The contour count
:func:`winding_number` and a dense eigenvalue solve are independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .charfn import CharContext, PoleError, eval_f, eval_f_prime, lambda_star
from .model import SystemSpec

NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 100
NEWTON_MAX_HALVINGS = 20
POLE_GUARD = 1e-12
WINDING_SAMPLES_INIT = 128
WINDING_SAMPLES_CAP = 8192
WINDING_INT_TOL = 1e-6
CONTOUR_MIN_ABS_F = 1e-9
# certificate radii, as fractions of min(distance to the nearest pole, -Re z);
# below 1e-12 the test would read rounding noise in |f(z)| as proof
CERT_RADII = np.geomspace(1e-12, 0.99, 60)
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


def newton_roots(sys: SystemSpec, seeds, tol: float = NEWTON_TOL,
                 max_iters: int = NEWTON_MAX_ITERS
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Optional[Exception]]]:
    """Damped Newton iteration on the characteristic function, one root per seed.

    All seeds iterate together, so each iteration costs one array-valued
    evaluation of ``f'`` and one of ``f`` per halving.  Each element follows
    the scalar rules: steps are halved (up to 20 times) until |f| decreases,
    so the residual is non-increasing across accepted steps; seeds and
    candidates within 1e-12 of a pole are rejected; an element stops once
    ``|f| <= tol``.  |f| is taken with ``hypot`` and the Newton step with
    Python complex division, so every root is bitwise the one a scalar
    iteration reaches.

    Returns ``(roots, residuals, iterations, errors)``.  ``errors[i]`` is the
    :class:`PoleError` or :class:`NewtonError` that stopped element ``i``, or
    None; a failed element does not stop the others, and its root and
    residual are NaN.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    # every pole lies on the imaginary axis, so |z - pole| grows with
    # |Im z - Im pole| and the nearest pole neighbours Im z in this order
    poles = _poles(sys)
    poles = poles[np.argsort(poles.imag)]

    def near_pole(z: np.ndarray) -> np.ndarray:
        hi = np.searchsorted(poles.imag, z.imag).clip(1, poles.size - 1)
        return np.minimum(np.abs(z - poles[hi - 1]), np.abs(z - poles[hi])) <= POLE_GUARD

    lam = np.array(seeds, dtype=complex).reshape(-1)
    n = lam.size
    roots = np.full(n, complex(np.nan, np.nan))
    resids = np.full(n, np.nan)
    iters = np.zeros(n, dtype=int)
    errors: list[Optional[Exception]] = [None] * n

    at_pole = near_pole(lam)
    for i in np.flatnonzero(at_pole):
        errors[i] = PoleError(f"seed {complex(lam[i])} is (numerically) a pole of the "
                              "characteristic function")
    active = np.flatnonzero(~at_pole)
    fval = np.zeros(n, dtype=complex)
    if active.size:
        fval[active] = eval_f(sys, lam[active])
    resid = np.hypot(fval.real, fval.imag)

    for it in range(max_iters):
        done = resid[active] <= tol
        conv = active[done]
        roots[conv], resids[conv], iters[conv] = lam[conv], resid[conv], it
        active = active[~done]
        if not active.size:
            break
        deriv = eval_f_prime(sys, lam[active]).tolist()
        zero = np.array([d == 0 for d in deriv], dtype=bool)
        for i in active[zero]:
            errors[i] = NewtonError(f"vanishing derivative at {complex(lam[i])}")
        step = np.array([-f / d for f, d in zip(fval[active].tolist(), deriv) if d != 0],
                        dtype=complex)
        active = active[~zero]

        pending = active
        near_only = np.ones(pending.size, dtype=bool)
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            if not pending.size:
                break
            cand = lam[pending] + step
            far = ~near_pole(cand)
            near_only &= ~far
            ok = np.zeros(pending.size, dtype=bool)
            if far.any():
                cand_f = eval_f(sys, cand[far])
                cand_r = np.hypot(cand_f.real, cand_f.imag)
                better = cand_r < resid[pending[far]]
                ok[far] = better
                acc = pending[ok]
                lam[acc], fval[acc], resid[acc] = cand[ok], cand_f[better], cand_r[better]
            pending, step, near_only = pending[~ok], step[~ok] * 0.5, near_only[~ok]
        for i, only in zip(pending, near_only):
            if only:
                errors[i] = PoleError(f"iteration stalled within {POLE_GUARD} of a pole "
                                      f"near {complex(lam[i])}")
            else:
                errors[i] = NewtonError(f"damping failed to reduce |f| below "
                                        f"{float(resid[i]):.3e} at {complex(lam[i])}")
        active = np.setdiff1d(active, pending)
    for i in active:
        errors[i] = NewtonError(f"no convergence after {max_iters} iterations "
                                f"(|f| = {float(resid[i]):.3e})")
    return roots, resids, iters, errors


def newton_root(sys: SystemSpec, seed: complex, tol: float = NEWTON_TOL,
                max_iters: int = NEWTON_MAX_ITERS) -> tuple[complex, float, int]:
    """Damped Newton iteration from one seed: :func:`newton_roots` on a batch of one.

    Returns ``(root, |f(root)|, iterations)``; raises the element's
    :class:`PoleError` or :class:`NewtonError` when it fails.
    """
    roots, resids, iters, errors = newton_roots(sys, [seed], tol, max_iters)
    if errors[0] is not None:
        raise errors[0]
    return complex(roots[0]), float(resids[0]), int(iters[0])


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
    conjugate partner, whose certificate is the upper one with ``lam`` and
    ``disk_center``/``disk_radius`` is the root's Rouche disk (radius NaN
    when none exists).  ``certified`` means the disk exists, lies in the open
    left half-plane and meets no other root's disk.  ``fallback`` marks
    roots found from the backup seed.
    """

    k: int
    half: str
    lam: complex
    residual: float
    disk_center: complex
    disk_radius: float
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
            "certified": self.certified,
            "newton_iters": self.newton_iters,
            "fallback": self.fallback,
        }


@dataclass(frozen=True)
class SpectrumReport:
    """All 2N roots with global consistency metrics.

    ``enclosure_defect`` is the largest violation of the global disk
    enclosure (0 when every root is inside).
    """

    eigs: tuple[EigenCertificate, ...]
    enclosure_defect: float
    complete: bool
    failures: tuple[str, ...] = ()

    def eigenvalues(self, half: Optional[str] = None) -> np.ndarray:
        vals = [e.lam for e in self.eigs if half is None or e.half == half]
        return np.asarray(vals, dtype=complex)

    def upper(self) -> list[EigenCertificate]:
        return [e for e in self.eigs if e.half == "upper"]

    def lower(self) -> list[EigenCertificate]:
        return [e for e in self.eigs if e.half == "lower"]

    def to_json_dict(self) -> dict:
        return {
            "eigs": [e.to_json_dict() for e in self.eigs],
            "enclosure_defect": self.enclosure_defect,
            "complete": self.complete,
            "failures": list(self.failures),
        }


def _certified_radii(sys: SystemSpec, roots: np.ndarray, resids: np.ndarray) -> np.ndarray:
    """Largest radius on the :data:`CERT_RADII` grid of a one-zero disk about each root.

    Every term of f is a simple pole, so on ``|lam - z| = r < d_a = |z - a|``
    the Taylor remainder ``(lam - z)^2 sum_a res_a/((z - a)^2 (lam - a))`` is
    at most ``r^2 K(r)``, ``K(r) = sum_a |res_a| / (d_a^2 (d_a - r))``; Rouche
    puts one zero in the disk when ``|f'(z)| r - |f(z)| > r^2 K(r)``, with
    ``|f(z)|`` = ``resids``.  Radii stay below ``-Re z``; NaN where none passes.
    """
    c2_over_w = sys.cs**2 / sys.omegas
    res = np.concatenate([[2.0 / sys.gamma], c2_over_w, c2_over_w])
    d = np.abs(roots[:, None] - _poles(sys))
    reach = np.minimum(np.min(d, axis=1), -roots.real)
    slope = np.abs(eval_f_prime(sys, roots))
    radii = np.full(roots.size, np.nan)
    todo = np.flatnonzero(reach > 0.0)
    for frac in CERT_RADII[::-1]:
        r, dt = frac * reach[todo], d[todo]
        K = np.sum(res / (dt * dt * (dt - r[:, None])), axis=1)
        ok = slope[todo] * r - resids[todo] > r * r * K
        radii[todo[ok]] = r[ok]
        todo = todo[~ok]
        if not todo.size:
            break
    return radii


def _meets_another(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whether each closed disk meets another (never if its radius is NaN), by a sweep."""
    order = np.argsort(c.imag - r)
    c, r = c[order], r[order]
    hit = np.zeros(c.size, dtype=bool)
    for off in range(1, c.size):
        near = c.imag[off:] - r[off:] <= c.imag[:-off] + r[:-off]
        if not near.any():  # lowest points ascend, so no larger offset has one either
            break
        meet = near & (np.abs(c[off:] - c[:-off]) <= r[off:] + r[:-off])
        hit[off:] |= meet
        hit[:-off] |= meet
    return hit[np.argsort(order)]


def full_spectrum(sys: SystemSpec) -> SpectrumReport:
    """Locate and certify all 2N roots of the characteristic function.

    The upper roots of all modes are refined together by
    :func:`newton_roots` from the first-order seeds; the modes whose root
    fails or leaves its band are solved again, together, from a left-shifted
    backup seed.  Each found root is certified by its Rouche disk, which must
    miss every other root's disk, its conjugate's included.  The lower root
    is the exact conjugate of the upper one, certificate included, because
    ``f(conj lam) = -conj f(lam)`` holds bitwise.  Failures are collected
    instead of raised: one per missing mode and one per uncertified root.
    """
    wk = sys.omegas
    band = 0.5 * (sys.min_gap() if sys.N > 1 else float(wk[0]))
    seeds = [lambda_star(CharContext(sys, k)) for k in range(1, sys.N + 1)]

    roots, resids, iters, errors = newton_roots(sys, seeds)
    fallback = np.array([err is not None for err in errors]) | (np.abs(roots.imag - wk) > band)
    failures: dict[int, str] = {}
    fb = np.flatnonzero(fallback)
    if fb.size:
        fb_seeds = [-0.5 * enclosure_radius(sys, 1j * w) + 1j * w for w in wk[fb].tolist()]
        roots[fb], resids[fb], iters[fb], fb_errors = newton_roots(sys, fb_seeds)
        left = np.abs(roots[fb].imag - wk[fb]) > band
        for i, err, out, root in zip(fb.tolist(), fb_errors, left, roots[fb].tolist()):
            if err is not None:
                failures[i] = f"mode {i + 1}: fallback Newton failed: {err}"
            elif out:
                failures[i] = f"mode {i + 1}: fallback root {root} left the mode band"
    # nearest mode frequency to |Im root|; ties go low
    nearest = np.argmin(np.abs(wk - np.abs(roots.imag)[:, None]), axis=1)
    for i in np.flatnonzero(nearest != np.arange(sys.N)).tolist():
        failures.setdefault(i, f"mode {i + 1}: root {complex(roots[i])} assigned to another mode")

    found = np.array([i for i in range(sys.N) if i not in failures], dtype=int)
    cert_r = _certified_radii(sys, roots[found], resids[found])
    both = np.concatenate([roots[found], roots[found].conjugate()])
    meets = _meets_another(both, np.tile(cert_r, 2)).reshape(2, -1).any(axis=0)
    eigs: list[EigenCertificate] = []
    uncertified = []
    for j, i in enumerate(found.tolist()):
        root, radius = complex(roots[i]), float(cert_r[j])
        why = None
        if np.isnan(radius):
            why = "no radius 0 < r < min(|root - pole|, -Re root) has |f'| r - |f| > r^2 K(r)"
        elif meets[j]:
            why = f"disk of radius {radius:.3e} meets another root's disk"
        cert = EigenCertificate(k=i + 1, half="upper", lam=root, residual=float(resids[i]),
                                disk_center=root, disk_radius=radius, certified=why is None,
                                newton_iters=int(iters[i]), fallback=bool(fallback[i]))
        lower = replace(cert, half="lower", lam=root.conjugate(), disk_center=root.conjugate())
        eigs += [cert, lower]
        uncertified += [f"mode {e.k} ({e.half}): root {e.lam} not certified: {why}"
                        for e in (cert, lower) if why is not None]

    vals = np.asarray([e.lam for e in eigs], dtype=complex)
    iw = 1j * wk
    nearest_pole = np.min(np.minimum(np.abs(vals[:, None] - iw), np.abs(vals[:, None] + iw)),
                          axis=1)
    radii = 0.5 * sys.gamma * np.hypot(vals.real, vals.imag) * sys.coupling_sum()
    enc = float(np.max(nearest_pole - radii, initial=0.0))

    fail_msgs = [failures[i] for i in sorted(failures)] + uncertified
    complete = len(eigs) == 2 * sys.N and not fail_msgs
    return SpectrumReport(eigs=tuple(eigs), enclosure_defect=enc,
                          complete=complete, failures=tuple(fail_msgs))


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
    from scipy.optimize import linear_sum_assignment  # test oracle only: imported on use

    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))
