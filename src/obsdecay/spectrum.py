"""Full spectrum of the truncated error generator, with per-root certificates.

Roots of the characteristic function come in conjugate pairs, one pair per
mode: the upper root sits near ``+i omega_k``, the lower near ``-i omega_k``.
The generator is real, so ``f(conj lam) = -conj f(lam)``, and the lower root
of each pair is the exact conjugate of the upper one; only the upper root is
solved for.

Every root is held in pole-local coordinates ``(k, mu)``, ``lam = i omega_k
+ mu``, as the secular-equation solvers of Bunch, Nielsen and Sorensen
(*Numer. Math.* 31, 1978) and LAPACK ``dlaed4`` (R.-C. Li, LAWN 89, 1994)
iterate relative to the nearest pole.  ``lam - a`` is ``mu + i g`` for the
gap ``g`` of :attr:`~obsdecay.model.SystemSpec.pole_gaps`, so the own-pole
term ``(c_k^2/omega_k)/mu`` keeps its relative precision however small
``|mu|`` is; a float ``lam`` would carry an error of ``eps omega_k``, which
at beam N = 1024 is 2.3e-10 against ``|mu|`` = 4.8e-7.  :func:`eval_f`
forms f, f' and the sum of the moduli of f's terms in one pass over those
gaps.

The upper roots of all modes are found together, by one array-valued damped
Newton iteration in ``mu`` seeded at each pole's second-order prediction
(:func:`~obsdecay.charfn.newton_seed_offsets`), and one more iteration from
backup seeds for the modes that need them; each root gets the same
arithmetic as an iteration from its seed alone.  An element stops when
``|f| <= (2N + 4) u sum_a |res_a/(lam - a)|``, ``dlaed4``'s test: below that
rounding bound of the evaluation the computed ``|f|`` is noise.  It fails
when no damped step lowers ``|f|`` above the bound, or past
:func:`escape_radius`, where no root lies and Newton only moves outward.
Each root is then certified by one a-posteriori Rouche disk centred at it,
whose closed-form radius keeps the remainder constant ``K(r) <= 2 K0``
(:func:`_certified_radii`), with ``d_own = |mu|`` read in the same
coordinates; the test takes ``|f|`` as the computed value plus that rounding
bound.  The report is ``complete`` when every mode is found and every root
certified; f has exactly 2N zeros, so 2N disjoint one-zero disks prove the
spectrum complete and simple (up to rounding in the computed ``|f'|`` and
``K0``).  The contour count :func:`winding_number` and a dense eigenvalue
solve (in the tests) are independent oracles.

A :class:`SpectrumReport` stores one row per found mode, as read-only
column arrays over the upper roots: ``mu``, from which the basis numbers of
:mod:`obsdecay.modal` are taken, and ``lam = i omega_k + mu`` derived from
it.  The lower half, :meth:`eigenvalues` and the per-root
:class:`EigenCertificate` records are derived from the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import charfn
from .charfn import PoleError, _freeze_columns, newton_seed_offsets
from .model import SystemSpec

NEWTON_MAX_ITERS = 100
NEWTON_MAX_HALVINGS = 20
UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps
POLE_GUARD = 1e-12
WINDING_SAMPLES_INIT = 128
WINDING_SAMPLES_CAP = 8192
WINDING_INT_TOL = 1e-6
CONTOUR_MIN_ABS_F = 1e-9
EVAL_BLOCK = 32768  # gap table entries per block of rows that the pole sums take at once
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


def _anchor_poles(sys: SystemSpec, ks: np.ndarray) -> np.ndarray:
    """The signed frequency ``w = +/- omega_|k|`` of each anchor's pole ``i w``."""
    return np.copysign(sys.omegas[np.abs(ks) - 1], ks)


def _lam(w: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``lam = i w + mu`` elementwise: the root an anchor and its offset stand for."""
    return mu + 1j * w


def _pole_rows(sys: SystemSpec, ks: np.ndarray, mu: np.ndarray):
    """Yield ``(rows, y, d2)`` over blocks of the upper points ``lam = i omega_k + mu``.

    For each point and mode pole ``a`` (the columns of row k of
    :attr:`~obsdecay.model.SystemSpec.pole_gaps`), ``y = Im(lam - a) = Im mu
    + g_a`` and ``d2 = |lam - a|^2 = (Re mu)^2 + y^2``; ``rows`` is the slice
    of points in the block.  A block covers about EVAL_BLOCK table entries,
    so its temporaries stay in cache; each row is computed on its own, so the
    blocking changes no value.
    """
    xx = mu.real * mu.real
    step = max(1, EVAL_BLOCK // (2 * sys.N))
    for lo in range(0, mu.size, step):
        rows = slice(lo, lo + step)
        y = sys.pole_gaps[ks[rows] - 1]
        y += mu.imag[rows, None]
        d2 = y * y
        d2 += xx[rows, None]
        yield rows, y, d2


def _mirrored(ks: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The upper points ``(|k|, conj mu)`` that mirror the lower anchors ``k < 0``.

    The lower point ``-i omega_|k| + mu`` is the conjugate of
    ``i omega_|k| + conj mu``.  Returns ``|ks|``, the offsets with the lower
    ones conjugated, and the mask of lower anchors.
    """
    lower = ks < 0
    return np.abs(ks), np.where(lower, mu.conj(), mu), lower


def eval_f(sys: SystemSpec, mu, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f, f' and ``sum_a |res_a/(lam - a)|`` at ``lam = +/- i omega_|k| + mu``, per (mu, k).

    Each ``mu`` is an offset from the pole ``i omega_k`` of its anchor in
    ``ks``, or from ``-i omega_|k|`` for ``k < 0``.  For each mode pole
    ``a``, ``lam - a = x + i y_a`` with ``x = Re mu`` and ``y_a = Im mu +
    g_a``, and the term ``res_a/(lam - a) = res_a (x - i y_a)/|lam - a|^2``
    and its derivative ``-res_a (x - i y_a)^2/|lam - a|^4`` are summed in
    real arithmetic.  The own gap is exactly 0, so the own-pole term is
    ``(c_k^2/omega_k)/mu``, as precise as ``mu`` itself.  The pole at 0 adds
    ``2i/(gamma lam)``.  The last value, the sum of the moduli of f's terms,
    scales the rounding error of the computed f.  A lower point is evaluated
    at its upper mirror (:func:`_mirrored`), as ``f(conj lam) = -conj
    f(lam)`` and ``f'(conj lam) = -conj f'(lam)``, so a lower root's
    arithmetic is exactly the conjugate of the upper one's.  Each row sums
    the same terms in the same order in any batch, so a point gets the same
    values in every batch.
    """
    mu = np.asarray(mu, dtype=complex)
    ks = np.asarray(ks)
    if ks.size and ks.min() < 0:
        ks, mu, lower = _mirrored(ks, mu)
        fval, deriv, scale = _eval_upper(sys, mu, ks)
        return np.where(lower, -fval.conj(), fval), np.where(lower, -deriv.conj(), deriv), scale
    return _eval_upper(sys, mu, ks)


def _eval_upper(sys: SystemSpec, mu: np.ndarray, ks: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`eval_f` at upper points ``lam = i omega_k + mu``, ``k > 0``."""
    sums = np.empty((5, mu.size))
    for rows, y, d2 in _pole_rows(sys, ks, mu):
        sums[:, rows] = _pole_sums(sys, mu.real[rows], y, d2)
    fval = sums[0] + 1j * sums[1]
    deriv = sums[2] + 1j * sums[3]
    lam = _lam(sys.omegas[ks - 1], mu)
    origin = (2j / sys.gamma) / lam
    return fval + origin, deriv - origin / lam, sums[4] + (2.0 / sys.gamma) / np.abs(lam)


def _pole_sums(sys: SystemSpec, x: np.ndarray, y: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Re f, Im f, Re f', Im f' and the sum of |terms| over the mode poles, as five rows.

    ``x = Re mu``, and ``y`` and ``d2`` are the rows of :func:`_pole_rows`;
    ``d2`` is overwritten.
    """
    xx = x * x
    inv = np.divide(1.0, d2, out=d2)  # 1/|lam - a|^2
    q = sys.mode_pole_residues * inv
    p = q * inv
    py = p * y
    sums = np.empty((5, x.size))
    sums[0] = x * q.sum(axis=1)
    sums[1] = -np.einsum("ij,ij->i", q, y)
    sums[2] = np.einsum("ij,ij->i", py, y) - xx * p.sum(axis=1)
    sums[3] = 2.0 * x * py.sum(axis=1)
    sums[4] = np.einsum("ij,j->i", np.sqrt(inv, out=inv), sys.pole_residues[1:])
    return sums


def other_pole_sums(sys: SystemSpec, ks: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``sum_{a != i omega_k} c_a^2/|lam - a|^2`` over the mode poles, per upper root ``(k, mu)``.

    ``lam = i omega_k + mu`` with ``k > 0``; the own pole is left out by its
    column, so the sum keeps its precision however small ``|mu|`` is.
    """
    c2 = np.concatenate([sys.cs, sys.cs]) ** 2
    sums = np.empty(mu.shape)
    for rows, _, d2 in _pole_rows(sys, ks, mu):
        np.divide(c2, d2, out=d2)
        d2[np.arange(d2.shape[0]), ks[rows] - 1] = 0.0
        sums[rows] = d2.sum(axis=1)
    return sums


def _near_pole(sys: SystemSpec, mu: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Whether ``lam = +/- i omega_|k| + mu`` lies within POLE_GUARD of a pole of f.

    Every pole lies on the imaginary axis, so only a point with
    ``|Re mu| <= POLE_GUARD`` can; its distances are read from the gap row
    of its upper mirror, at the same distances.
    """
    near = np.abs(mu.real) <= POLE_GUARD
    if near.any():
        idx = np.flatnonzero(near)
        up_ks, up_mu, _ = _mirrored(ks[idx], mu[idx])
        d2 = np.concatenate([d2.min(axis=1) for _, _, d2 in _pole_rows(sys, up_ks, up_mu)])
        dist = np.minimum(np.sqrt(d2), np.abs(_lam(sys.omegas[up_ks - 1], up_mu)))
        near[idx] = dist <= POLE_GUARD
    return near


def newton_roots(sys: SystemSpec, ks, mu, max_iters: int = NEWTON_MAX_ITERS
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                            list[Optional[Exception]]]:
    """Damped Newton iteration in pole-local coordinates, one root per seed ``(k, mu)``.

    Element i iterates the offset ``mu[i]`` of ``lam`` from the pole of its
    anchor ``ks[i]`` (``+i omega_k`` for ``k > 0``, ``-i omega_|k|`` for
    ``k < 0``).  All elements iterate together, so each iteration costs one
    array-valued :func:`eval_f` per halving, which gives f and f' at once.
    Each element follows the scalar rules: it stops once ``|f| <= (2N + 4) u
    S``, where S is the sum of the moduli of f's terms at the iterate and u
    the unit roundoff; otherwise the Newton step is halved (up to 20 times)
    until |f| decreases, so the residual is non-increasing across accepted
    steps.  Seeds and candidates within 1e-12 of a pole are rejected, and a
    seed or accepted iterate at or past :func:`escape_radius` fails, since no
    root is out there and Newton cannot come back.  An element whose
    candidate ``mu + step`` rounds to ``mu`` fails at that trial without
    another evaluation: rounding is monotone, so every smaller step rounds to
    ``mu`` as well, where ``|f|`` is the current residual.

    Returns ``(mu, residuals, bounds, derivatives, iterations, errors)``: the
    root's offset, ``|f|`` (taken with ``hypot``), its rounding bound ``(2N +
    4) u S`` and ``f'`` there, and the accepted steps.  ``errors[i]`` is the
    :class:`PoleError` or :class:`NewtonError` that stopped element ``i``, or
    None; a failed element does not stop the others, and its offset,
    residual, bound and derivative are NaN.
    """
    ks = np.asarray(ks, dtype=int).reshape(-1)
    mu = np.array(mu, dtype=complex).reshape(-1)
    n = mu.size
    converged = np.zeros(n, dtype=bool)
    iters = np.zeros(n, dtype=int)
    errors: list[Optional[Exception]] = [None] * n
    w = _anchor_poles(sys, ks)
    rho = escape_radius(sys)
    rounding = (2 * sys.N + 4) * UNIT_ROUNDOFF

    def lam(i) -> complex:
        return complex(_lam(w[i], mu[i]))

    def inside(idx: np.ndarray) -> np.ndarray:
        """The elements of ``idx`` inside the escape radius; the others fail."""
        out = np.abs(_lam(w[idx], mu[idx])) >= rho
        for i in idx[out]:
            errors[i] = NewtonError(f"iterate {lam(i)} is past the escape radius "
                                    f"{rho:.6g}: no root lies there and Newton only moves "
                                    "outward")
        return idx[~out]

    at_pole = _near_pole(sys, mu, ks)
    for i in np.flatnonzero(at_pole):
        errors[i] = PoleError(f"seed {lam(i)} is (numerically) a pole of the "
                              "characteristic function")
    active = inside(np.flatnonzero(~at_pole))
    fval = np.zeros(n, dtype=complex)
    deriv = np.zeros(n, dtype=complex)
    bound = np.zeros(n)
    if active.size:
        fval[active], deriv[active], scale = eval_f(sys, mu[active], ks[active])
        bound[active] = rounding * scale
    resid = np.hypot(fval.real, fval.imag)

    for it in range(max_iters):
        done = resid[active] <= bound[active]
        converged[active[done]], iters[active[done]] = True, it
        active = active[~done]
        if not active.size:
            break
        zero = deriv[active] == 0
        for i in active[zero]:
            errors[i] = NewtonError(f"vanishing derivative at {lam(i)}")
        active = active[~zero]
        step = -fval[active] / deriv[active]

        pending = active
        near_only = np.ones(n, dtype=bool)
        failed = np.zeros(n, dtype=bool)
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            if not pending.size:
                break
            cand = mu[pending] + step
            # a candidate that rounds to mu itself is mu: |f| there is resid,
            # and every smaller step rounds to mu too, so the element fails now
            moved = cand != mu[pending]
            far = ~_near_pole(sys, cand, ks[pending])
            near_only[pending[far]] = False
            ok = np.zeros(pending.size, dtype=bool)
            trial = far & moved
            if trial.any():
                cand_f, cand_d, cand_s = eval_f(sys, cand[trial], ks[pending[trial]])
                cand_r = np.hypot(cand_f.real, cand_f.imag)
                better = cand_r < resid[pending[trial]]
                ok[trial] = better
                acc = pending[ok]
                mu[acc], fval[acc], deriv[acc] = cand[ok], cand_f[better], cand_d[better]
                resid[acc], bound[acc] = cand_r[better], rounding * cand_s[better]
            failed[pending[~moved]] = True
            keep = moved & ~ok
            pending, step = pending[keep], step[keep] * 0.5
        failed[pending] = True
        for i in np.flatnonzero(failed):
            if near_only[i]:
                errors[i] = PoleError(f"iteration stalled within {POLE_GUARD} of a pole "
                                      f"near {lam(i)}")
            else:
                errors[i] = NewtonError(f"damping failed to reduce |f| below "
                                        f"{float(resid[i]):.3e} (rounding bound "
                                        f"{float(bound[i]):.3e}) at {lam(i)}")
        active = inside(active[~failed[active]])
    for i in active:
        errors[i] = NewtonError(f"no convergence after {max_iters} iterations "
                                f"(|f| = {float(resid[i]):.3e})")
    nan = complex(np.nan, np.nan)
    return (np.where(converged, mu, nan), np.where(converged, resid, np.nan),
            np.where(converged, bound, np.nan), np.where(converged, deriv, nan), iters, errors)


def newton_root(sys: SystemSpec, seed: complex,
                max_iters: int = NEWTON_MAX_ITERS) -> tuple[complex, float, int]:
    """Damped Newton iteration from one seed: :func:`newton_roots` on a batch of one.

    The seed is anchored at the pole ``+/- i omega_k`` nearest it on its side
    of the real axis (the upper side for a real seed).  Returns ``(root,
    |f(root)|, iterations)``; raises the element's :class:`PoleError` or
    :class:`NewtonError` when it fails.
    """
    seed = complex(seed)
    k = int(np.argmin(np.abs(sys.omegas - abs(seed.imag)))) + 1
    if seed.imag < 0.0:
        k = -k
    w = float(_anchor_poles(sys, np.array([k]))[0])
    mu, resids, _, _, iters, errors = newton_roots(sys, [k],
                                                   [complex(seed.real, seed.imag - w)], max_iters)
    if errors[0] is not None:
        raise errors[0]
    return complex(_lam(np.array([w]), mu)[0]), float(resids[0]), int(iters[0])


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
        fv = charfn.eval_f(sys, lam)
        min_abs = float(np.min(np.abs(fv)))
        if min_abs <= CONTOUR_MIN_ABS_F:
            raise PoleError(
                f"contour touches a zero or pole of f (min sampled |f| = {min_abs:.3e})"
            )
        val = np.sum(charfn.eval_f_prime(sys, lam) / fv * unit) * radius / m
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
_COLUMNS = {"k": int, "mu": complex, "lam": complex, "residual": float, "radius": float,
            "certified": bool, "newton_iters": int, "fallback": bool}


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """The found roots, one row per mode, with global consistency metrics.

    Each column holds one read-only array over the found modes' upper roots
    (near +i omega_k), by ascending mode ``k``: the offset ``mu`` of the root
    from ``i omega_k``, the root ``lam = i omega_k + mu``, its residual
    ``|f(lam)|``, the ``radius`` of its Rouche disk (NaN when none exists),
    whether it is ``certified``, its ``newton_iters`` and whether it came
    from the ``fallback`` seed.  The lower root of each mode
    is ``lam.conj()`` with the same certificate, so it is not stored.
    ``enclosure_defect`` is the largest violation of the global disk
    enclosure (0 when every root is inside).
    """

    k: np.ndarray
    mu: np.ndarray
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


def _certified_radii(sys: SystemSpec, ks: np.ndarray, mu: np.ndarray, f_bound: np.ndarray,
                     deriv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form radius of a one-zero Rouche disk about each upper root ``z = i omega_k + mu``.

    Every term of f is a simple pole, so on ``|lam - z| = r < d_a = |z - a|``
    the Taylor remainder is at most ``r^2 K(r)``, ``K(r) = sum_a |res_a| /
    (d_a^2 (d_a - r))``, and Rouche puts one zero in the disk when
    ``|f'(z)| r - |f(z)| > r^2 K(r)``.  Each ``r <= reach/2``, ``reach =
    min(min_a d_a, -Re z)``, has ``d_a - r >= d_a/2``, so ``K(r) <= 2 K0 =
    2 sum_a |res_a| / d_a^3``; the concave ``|f'(z)| r - 2 K0 r^2`` peaks on
    ``(0, reach/2]`` at ``r = min(reach/2, |f'(z)|/(4 K0))``, the radius if
    there it exceeds ``f_bound`` and ``r >= CERT_FLOOR reach > 0``; else no
    radius of that range passes and it is NaN.  ``f_bound`` bounds ``|f(z)|``
    from above: the computed ``|f|`` plus its rounding bound, since Newton
    stops where the computed ``|f|`` is rounding noise.  ``deriv`` is f'(z);
    the distances to the mode poles come from :func:`_pole_rows`, so
    ``d_own = |mu|``; the pole at 0 is ``|z|`` away, and ``-Re z = -Re mu``.

    Returns the radii and each root's distance to its nearest mode pole.
    """
    nearest, k0 = np.empty(mu.shape), np.empty(mu.shape)
    for rows, _, d2 in _pole_rows(sys, ks, mu):
        d = np.sqrt(d2, out=d2)  # |z - a|
        nearest[rows] = d.min(axis=1)
        d *= d * d
        k0[rows] = np.einsum("ij,j->i", np.divide(1.0, d, out=d), sys.pole_residues[1:])
    z = _lam(sys.omegas[ks - 1], mu)
    origin = np.hypot(z.real, z.imag)  # numpy's complex abs can differ from it in the last bit
    k0 += sys.pole_residues[0] / origin**3
    reach = np.minimum(np.minimum(nearest, origin), -mu.real)
    slope = np.hypot(deriv.real, deriv.imag)
    r = np.minimum(0.5 * reach, slope / (4.0 * k0))
    ok = (reach > 0.0) & (r >= CERT_FLOOR * reach) & (slope * r - f_bound > 2.0 * k0 * r * r)
    return np.where(ok, r, np.nan), nearest


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
    :func:`newton_roots`, in pole-local coordinates, from the second-order
    seeds of :func:`~obsdecay.charfn.newton_seed_offsets`; the modes whose
    root fails or leaves its band (``|Im mu| > band``) are solved again,
    together, from a left-shifted backup seed.  Each found root is certified
    by its Rouche disk, which must miss every other root's disk, its
    conjugate's included.  The lower root is the exact conjugate of the
    upper one, certificate included, because ``f(conj lam) = -conj f(lam)``,
    so the report stores the upper roots alone.  Failures are collected
    instead of raised: one per missing mode and one per uncertified root.
    """
    wk = sys.omegas
    ks = np.arange(1, sys.N + 1)
    band = 0.5 * (sys.min_gap() if sys.N > 1 else float(wk[0]))
    mu, resids, bounds, deriv, iters, errors = newton_roots(sys, ks, newton_seed_offsets(sys))
    fallback = np.array([err is not None for err in errors]) | (np.abs(mu.imag) > band)
    failures: dict[int, str] = {}
    fb = np.flatnonzero(fallback)
    if fb.size:
        fb_mu = -0.5 * enclosure_radius(sys, 1j * wk[fb])
        mu[fb], resids[fb], bounds[fb], deriv[fb], iters[fb], fb_errors = newton_roots(
            sys, ks[fb], fb_mu)
        left = np.abs(mu[fb].imag) > band
        roots = _lam(wk[fb], mu[fb])
        for i, err, out, root in zip(fb.tolist(), fb_errors, left, roots.tolist()):
            if err is not None:
                failures[i] = f"mode {i + 1}: fallback Newton failed: {err}"
            elif out:
                failures[i] = f"mode {i + 1}: fallback root {root} left the mode band"
    lam = _lam(wk, mu)
    # nearest mode frequency to |Im root|; ties go low
    nearest = np.argmin(np.abs(wk - np.abs(lam.imag)[:, None]), axis=1)
    for i in np.flatnonzero(nearest != np.arange(sys.N)).tolist():
        failures.setdefault(i, f"mode {i + 1}: root {complex(lam[i])} assigned to another mode")

    found = np.array([i for i in range(sys.N) if i not in failures], dtype=int)
    radius, pole_dist = _certified_radii(sys, ks[found], mu[found],
                                         resids[found] + bounds[found], deriv[found])
    lam = lam[found]
    meets = _meets_another(np.concatenate([lam, lam.conj()]),
                           np.tile(radius, 2)).reshape(2, -1).any(axis=0)
    certified = ~np.isnan(radius) & ~meets
    uncertified = []
    for j in np.flatnonzero(~certified).tolist():
        root, k = complex(lam[j]), int(found[j]) + 1
        if np.isnan(radius[j]):
            why = ("no r <= min(|root - pole|, -Re root)/2 has |f'| r - |f| - (rounding "
                   "bound) > 2 K0 r^2")
        else:
            why = f"disk of radius {float(radius[j]):.3e} meets another root's disk"
        for half, z in (("upper", root), ("lower", root.conjugate())):
            uncertified.append(f"mode {k} ({half}): root {z} not certified: {why}")

    # a lower root has the nearest pole distance and |lam| of its upper one
    enc = float(np.max(pole_dist - enclosure_radius(sys, lam), initial=0.0))

    fail_msgs = [failures[i] for i in sorted(failures)] + uncertified
    return SpectrumReport(k=found + 1, mu=mu[found], lam=lam, residual=resids[found],
                          radius=radius, certified=certified,
                          newton_iters=iters[found], fallback=fallback[found],
                          enclosure_defect=enc,
                          complete=found.size == sys.N and not fail_msgs,
                          failures=tuple(fail_msgs))
