"""Full spectrum of the truncated error generator, with per-root certificates.

Roots of the characteristic function come in conjugate pairs, one pair per
mode: the upper root sits near ``+i omega_k``, the lower near ``-i omega_k``.
The generator is real, so ``f(conj lam) = -conj f(lam)``, and the lower root
of each pair is the exact conjugate of the upper one; only the upper root is
solved for.  The upper roots of all modes are found together, by one
array-valued damped Newton iteration seeded at each pole's second-order
prediction (:func:`~obsdecay.charfn.newton_seed`, and one more iteration
from backup seeds for the modes that need them); each root gets the same
arithmetic as a scalar iteration from its seed.  An iterate
past :func:`escape_radius` is stopped: no root lies out there, and Newton
only moves outward.  An iterate whose damped step rounds to itself stops
halving at once: rounding is monotone, so every smaller step rounds to it
too and no halving could lower ``|f|``.  Each root is then certified by one
a-posteriori Rouche disk centred at it, whose closed-form radius keeps the
remainder constant ``K(r) <= 2 K0`` (:func:`_certified_radii`).  The report
is ``complete`` when every mode is found and every root certified; f has
exactly 2N zeros, so 2N disjoint one-zero disks prove the spectrum complete
and simple (up to rounding in the computed ``|f|``, ``|f'|`` and ``K0``).
The contour count :func:`winding_number` and a dense eigenvalue solve (in
the tests) are independent oracles.

A :class:`SpectrumReport` stores one row per found mode, as read-only
column arrays over the upper roots; the lower half, :meth:`eigenvalues` and
the per-root :class:`EigenCertificate` records are derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .charfn import PoleError, _freeze_columns, eval_f, eval_f_prime, newton_seeds
from .model import SystemSpec

NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 100
NEWTON_MAX_HALVINGS = 20
POLE_GUARD = 1e-12
WINDING_SAMPLES_INIT = 128
WINDING_SAMPLES_CAP = 8192
WINDING_INT_TOL = 1e-6
CONTOUR_MIN_ABS_F = 1e-9
# smallest certificate radius, as a fraction of min(distance to the nearest
# pole, -Re z); below it the test would read rounding noise in |f(z)| as proof
CERT_FLOOR = 1e-12


class NewtonError(RuntimeError):
    """Newton refinement failed to converge to a root."""


class WindingError(RuntimeError):
    """Contour integral did not settle on an integer within the sample cap."""


def enclosure_radius(sys: SystemSpec, lam: complex | np.ndarray) -> float | np.ndarray:
    """Global enclosure radius (gamma/2) |lam| sum_j c_j^2/omega_j, elementwise.

    Every eigenvalue lies within this distance of some +/- i omega_j.
    ``|lam|`` is taken as ``hypot(Re lam, Im lam)``: on arrays numpy's
    complex ``abs`` can differ from it in the last bit.
    """
    return 0.5 * sys.gamma * np.hypot(np.real(lam), np.imag(lam)) * sys.coupling_sum()


def escape_radius(sys: SystemSpec) -> float:
    """Radius ``rho = max(2 omega_N, 8 gamma ||c||^2)`` past which Newton cannot return.

    Every eigenvalue has ``|lam| <= ||A||_2 <= omega_N + gamma ||c||^2 < rho``.
    For ``|lam| >= rho``, ``f = (2i/(gamma lam)) (1 + e)`` with
    ``e = gamma lam sum_j c_j^2/(omega_j^2 + lam^2)`` and ``|e| <= 1/6``, so
    the Newton step is ``lam/(1 - t)`` with ``t = lam e'/(1 + e)``,
    ``|t| <= 1/3``.  Every damped candidate then has
    ``|lam + h s| >= (1 + h/2) |lam|``: an iterate past ``rho`` only moves
    outward and never reaches a root.
    """
    return max(2.0 * float(sys.omegas[-1]), 8.0 * sys.gamma * float(np.sum(sys.cs**2)))


def newton_roots(sys: SystemSpec, seeds, tol: float = NEWTON_TOL,
                 max_iters: int = NEWTON_MAX_ITERS
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Optional[Exception]]]:
    """Damped Newton iteration on the characteristic function, one root per seed.

    All seeds iterate together, so each iteration costs one array-valued
    evaluation of ``f'`` and one of ``f`` per halving.  Each element follows
    the scalar rules: steps are halved (up to 20 times) until |f| decreases,
    so the residual is non-increasing across accepted steps; seeds and
    candidates within 1e-12 of a pole are rejected; a seed or accepted
    iterate at or past :func:`escape_radius` fails, since no root is out
    there and Newton cannot come back; an element stops once
    ``|f| <= tol``.  |f| is taken with ``hypot`` and the Newton step with
    Python complex division, so every root is bitwise the one a scalar
    iteration reaches.

    An element whose candidate ``lam + step`` rounds to ``lam`` in both
    components fails at that trial without another evaluation of ``f``.
    Round-to-nearest is monotone, so every later halving rounds to ``lam``
    as well, where ``|f|`` is bitwise the current residual (``f`` gives a
    point the same value in any batch) and never decreases; ``lam`` is a
    checked seed or an accepted iterate, so it is not near a pole.  The
    element thus fails with the "damping failed" :class:`NewtonError`, text
    included, that all 21 trials give, and no other element changes; at
    beam N=256 the whole spectrum takes 1364 points of ``f`` instead of 4157.

    Returns ``(roots, residuals, iterations, errors)``.  ``errors[i]`` is the
    :class:`PoleError` or :class:`NewtonError` that stopped element ``i``, or
    None; a failed element does not stop the others, and its root and
    residual are NaN.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    # every pole lies on the imaginary axis, so |z - pole| >= |Re z| and
    # grows with |Im z - Im pole|: the nearest pole neighbours Im z in this order
    poles = sys.poles_by_imag
    inner = np.ascontiguousarray(poles.imag[1:-1])

    def near_pole(z: np.ndarray) -> np.ndarray:
        near = np.abs(z.real) <= POLE_GUARD
        idx = np.flatnonzero(near)
        if idx.size:
            w = z[idx]
            hi = np.searchsorted(inner, w.imag) + 1
            near[idx] = np.minimum(np.abs(w - poles[hi - 1]), np.abs(w - poles[hi])) <= POLE_GUARD
        return near

    lam = np.array(seeds, dtype=complex).reshape(-1)
    n = lam.size
    roots = np.full(n, complex(np.nan, np.nan))
    resids = np.full(n, np.nan)
    iters = np.zeros(n, dtype=int)
    errors: list[Optional[Exception]] = [None] * n
    rho = escape_radius(sys)

    def inside(idx: np.ndarray) -> np.ndarray:
        """The elements of ``idx`` inside the escape radius; the others fail."""
        out = np.abs(lam[idx]) >= rho
        for i in idx[out]:
            errors[i] = NewtonError(f"iterate {complex(lam[i])} is past the escape radius "
                                    f"{rho:.6g}: no root lies there and Newton only moves "
                                    "outward")
        return idx[~out]

    at_pole = near_pole(lam)
    for i in np.flatnonzero(at_pole):
        errors[i] = PoleError(f"seed {complex(lam[i])} is (numerically) a pole of the "
                              "characteristic function")
    active = inside(np.flatnonzero(~at_pole))
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
        near_only = np.ones(n, dtype=bool)
        failed = np.zeros(n, dtype=bool)
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            if not pending.size:
                break
            cand = lam[pending] + step
            # a candidate that rounds to lam itself is lam: |f| there is resid,
            # and every smaller step rounds to lam too, so the element fails now
            moved = cand != lam[pending]
            far = ~near_pole(cand)
            near_only[pending[far]] = False
            ok = np.zeros(pending.size, dtype=bool)
            trial = far & moved
            if trial.any():
                cand_f = eval_f(sys, cand[trial])
                cand_r = np.hypot(cand_f.real, cand_f.imag)
                better = cand_r < resid[pending[trial]]
                ok[trial] = better
                acc = pending[ok]
                lam[acc], fval[acc], resid[acc] = cand[ok], cand_f[better], cand_r[better]
            failed[pending[~moved]] = True
            keep = moved & ~ok
            pending, step = pending[keep], step[keep] * 0.5
        failed[pending] = True
        for i in np.flatnonzero(failed):
            if near_only[i]:
                errors[i] = PoleError(f"iteration stalled within {POLE_GUARD} of a pole "
                                      f"near {complex(lam[i])}")
            else:
                errors[i] = NewtonError(f"damping failed to reduce |f| below "
                                        f"{float(resid[i]):.3e} at {complex(lam[i])}")
        active = inside(active[~failed[active]])
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

    A row view of :class:`SpectrumReport`, built from its columns.  ``half``
    is "upper" for the root near +i omega_k and "lower" for its conjugate
    partner, whose certificate is the upper one with ``lam`` conjugated.
    ``disk_radius`` is the radius of the root's Rouche disk, centred at
    ``lam`` (NaN when none exists).  ``certified`` means the disk exists,
    lies in the open left half-plane and meets no other root's disk.
    ``fallback`` marks roots found from the backup seed.
    """

    k: int
    half: str
    lam: complex
    residual: float
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
            "disk_center": [self.lam.real, self.lam.imag],
            "disk_radius": self.disk_radius,
            "certified": self.certified,
            "newton_iters": self.newton_iters,
            "fallback": self.fallback,
        }


# the per-root columns of a SpectrumReport and their dtypes
_COLUMNS = {"k": int, "lam": complex, "residual": float, "radius": float,
            "certified": bool, "newton_iters": int, "fallback": bool}


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """The found roots, one row per mode, with global consistency metrics.

    Each column holds one read-only array over the found modes' upper roots
    (near +i omega_k), by ascending mode ``k``: the root ``lam``, its
    residual ``|f(lam)|``, the ``radius`` of its Rouche disk (NaN when none
    exists), whether it is ``certified``, its ``newton_iters`` and whether
    it came from the ``fallback`` seed.  The lower root of each mode is
    ``lam.conj()`` with the same certificate, so it is not stored.
    ``enclosure_defect`` is the largest violation of the global disk
    enclosure (0 when every root is inside).
    """

    k: np.ndarray
    lam: np.ndarray
    residual: np.ndarray
    radius: np.ndarray
    certified: np.ndarray
    newton_iters: np.ndarray
    fallback: np.ndarray
    enclosure_defect: float
    complete: bool
    failures: tuple[str, ...] = ()

    def __post_init__(self):
        _freeze_columns(self, _COLUMNS)

    def eigenvalues(self) -> np.ndarray:
        """All found roots: the upper, then the lower root of each mode in turn."""
        return np.stack([self.lam, self.lam.conj()], axis=1).ravel()

    @cached_property
    def eigs(self) -> tuple[EigenCertificate, ...]:
        """One certificate per root, in the order of :meth:`eigenvalues`."""
        rows = zip(self.k.tolist(), self.lam.tolist(), self.residual.tolist(),
                   self.radius.tolist(), self.certified.tolist(),
                   self.newton_iters.tolist(), self.fallback.tolist())
        return tuple(EigenCertificate(k, half, z, res, r, cert, iters, fb)
                     for k, lam, res, r, cert, iters, fb in rows
                     for half, z in (("upper", lam), ("lower", lam.conjugate())))

    def to_json_dict(self) -> dict:
        """The report as JSON types, with one record per root as in :attr:`eigs`."""
        return {
            "eigs": [e.to_json_dict() for e in self.eigs],
            "enclosure_defect": self.enclosure_defect,
            "complete": self.complete,
            "failures": list(self.failures),
        }


def _certified_radii(sys: SystemSpec, roots: np.ndarray, resids: np.ndarray,
                     d: np.ndarray) -> np.ndarray:
    """Closed-form radius of a one-zero Rouche disk about each root.

    Every term of f is a simple pole, so on ``|lam - z| = r < d_a = |z - a|``
    the Taylor remainder is at most ``r^2 K(r)``, ``K(r) = sum_a |res_a| /
    (d_a^2 (d_a - r))``, and Rouche puts one zero in the disk when
    ``|f'(z)| r - |f(z)| > r^2 K(r)``.  Each ``r <= reach/2``, ``reach =
    min(min_a d_a, -Re z)``, has ``d_a - r >= d_a/2``, so ``K(r) <= 2 K0 =
    2 sum_a |res_a| / d_a^3``; the concave ``|f'(z)| r - 2 K0 r^2`` peaks on
    ``(0, reach/2]`` at ``r = min(reach/2, |f'(z)|/(4 K0))``, the radius if
    there it exceeds ``|f(z)|`` (``resids``) and ``r >= CERT_FLOOR reach > 0``;
    else no radius of that range passes and it is NaN.  ``d`` is the
    ``hypot`` table of ``|z - a|`` over :attr:`SystemSpec.poles`; ``K0`` adds
    each ``+/- i omega_j`` pair first, so conjugates match bitwise.
    """
    terms = sys.pole_residues / (d * d * d)
    k0 = terms[:, 0] + (terms[:, 1:sys.N + 1] + terms[:, sys.N + 1:]).sum(axis=1)
    reach = np.minimum(np.min(d, axis=1), -roots.real)
    deriv = eval_f_prime(sys, roots)
    slope = np.hypot(deriv.real, deriv.imag)
    r = np.minimum(0.5 * reach, slope / (4.0 * k0))
    ok = (reach > 0.0) & (r >= CERT_FLOOR * reach) & (slope * r - resids > 2.0 * k0 * r * r)
    return np.where(ok, r, np.nan)


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
    :func:`newton_roots` from the second-order seeds of
    :func:`~obsdecay.charfn.newton_seeds`; the modes whose root fails or
    leaves its band are solved again, together, from a left-shifted backup
    seed.  Each found root is certified by its Rouche disk, which must
    miss every other root's disk, its conjugate's included.  The lower root
    is the exact conjugate of the upper one, certificate included, because
    ``f(conj lam) = -conj f(lam)`` holds bitwise, so the report stores the
    upper roots alone.  Failures are collected instead of raised: one per
    missing mode and one per uncertified root.
    """
    wk = sys.omegas
    band = 0.5 * (sys.min_gap() if sys.N > 1 else float(wk[0]))
    roots, resids, iters, errors = newton_roots(sys, newton_seeds(sys))
    fallback = np.array([err is not None for err in errors]) | (np.abs(roots.imag - wk) > band)
    failures: dict[int, str] = {}
    fb = np.flatnonzero(fallback)
    if fb.size:
        fb_seeds = -0.5 * enclosure_radius(sys, 1j * wk[fb]) + 1j * wk[fb]
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
    lam = roots[found]
    gaps = lam[:, None] - sys.poles
    dist = np.hypot(gaps.real, gaps.imag)
    radius = _certified_radii(sys, lam, resids[found], dist)
    meets = _meets_another(np.concatenate([lam, lam.conj()]),
                           np.tile(radius, 2)).reshape(2, -1).any(axis=0)
    certified = ~np.isnan(radius) & ~meets
    uncertified = []
    for j in np.flatnonzero(~certified).tolist():
        root, k = complex(lam[j]), int(found[j]) + 1
        if np.isnan(radius[j]):
            why = "no r <= min(|root - pole|, -Re root)/2 has |f'| r - |f| > 2 K0 r^2"
        else:
            why = f"disk of radius {float(radius[j]):.3e} meets another root's disk"
        for half, z in (("upper", root), ("lower", root.conjugate())):
            uncertified.append(f"mode {k} ({half}): root {z} not certified: {why}")

    # a lower root has the nearest pole distance and |lam| of its upper one
    enc = float(np.max(np.min(dist[:, 1:], axis=1) - enclosure_radius(sys, lam), initial=0.0))

    fail_msgs = [failures[i] for i in sorted(failures)] + uncertified
    return SpectrumReport(k=found + 1, lam=lam, residual=resids[found], radius=radius,
                          certified=certified, newton_iters=iters[found],
                          fallback=fallback[found], enclosure_defect=enc,
                          complete=found.size == sys.N and not fail_msgs,
                          failures=tuple(fail_msgs))
