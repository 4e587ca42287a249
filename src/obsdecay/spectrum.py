"""Full spectrum of the truncated error generator, with per-root certificates.

Roots of the characteristic function come in conjugate pairs, one pair per
mode: the upper root sits near ``+i omega_k``, the lower near ``-i omega_k``.
The generator is real, so ``f(conj lam) = -conj f(lam)``, and the lower root
of each pair is the exact conjugate of the upper one; only the upper root is
solved for.

Every root is held in pole-local coordinates ``(k, mu)``, ``lam = i omega_k
+ mu``, as the secular-equation solvers of Bunch, Nielsen and Sorensen
(*Numer. Math.* 31, 1978) and LAPACK ``dlaed4`` (R.-C. Li, LAWN 89, 1994)
iterate relative to the nearest pole.  ``lam - a`` is ``mu`` plus the shift
of :attr:`~obsdecay.model.SystemSpec.pole_shifts`, so the own-pole term
``(c_k^2/omega_k)/mu`` keeps its relative precision however small ``|mu|``
is; a float ``lam`` would carry an error of ``eps omega_k``, which at beam
N = 1024 is 2.3e-10 against ``|mu|`` = 4.8e-7.  :func:`eval_f` forms f, f'
and the sum of the moduli of f's terms in one pass over those shifts.

The upper roots of all modes are found together, by one array-valued damped
Newton iteration in ``mu`` seeded at each pole's second-order prediction
(:func:`~obsdecay.charfn.newton_seed_offsets`); each root gets the same
arithmetic as an iteration from its seed alone.  The step is Newton's for
``p f`` with ``p(lam) = lam (lam - i omega_k)(lam + i omega_k)``, which
clears the origin, the root's own pole and its mirror, as the secular
solvers treat the poles next to a root exactly; the halvings of a rejected
step run in the passes that give the other elements their next step, so
each pass costs one :func:`eval_f`.  An element stops when ``|f| <= (2N + 4)
u sum_a |res_a/(lam - a)|``, ``dlaed4``'s test: below it the computed
``|f|`` is noise.  It fails when no damped step lowers ``|f|``, at an exact
pole, where f or f' overflows, or past :func:`escape_radius`, where no root
lies and Newton only moves outward.  Each root is then certified by one
a-posteriori Rouche disk centred at it, whose closed-form radius keeps the
remainder constant ``K(r) <= 2 K0`` (:func:`_certified_radii`), with ``d_own
= |mu|`` read in the same coordinates; the test takes ``|f|`` as the
computed value plus the rounding bound of :func:`eval_f`.  The report is
``complete`` when every mode is found and every root
certified; f has exactly 2N zeros, so 2N disjoint one-zero disks prove the
spectrum complete and simple (up to rounding in the computed ``|f'|`` and
``K0``).  The contour count :func:`winding_number` and a dense eigenvalue
solve (in the tests) are independent oracles.

A :class:`SpectrumReport` stores one row per found mode, as read-only
column arrays over the upper roots: ``mu``, from which the basis numbers of
:mod:`obsdecay.modal` are taken, and ``lam = i omega_k + mu`` derived from
it.  The lower half, :meth:`eigenvalues` and the per-root
:class:`EigenCertificate` records are derived from the columns.  The
values the basis needs beyond ``mu`` (``|f|``, f' and a sum over the other
poles) are kept beside each report that :func:`full_spectrum` makes and
read back by :func:`basis_terms`, so the pole table is walked once per
root set.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import charfn
from .charfn import PoleError, _freeze_columns, newton_seed_offsets
from .model import SystemSpec, _read_only

NEWTON_MAX_ITERS = 100
NEWTON_MAX_HALVINGS = 3
UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps
WINDING_SAMPLES_INIT = 128
WINDING_SAMPLES_CAP = 8192
WINDING_INT_TOL = 1e-6
CONTOUR_MIN_ABS_F = 1e-9
EVAL_BLOCK = 16384  # pole table entries per block of rows that eval_f takes at once
# smallest certificate radius, as a fraction of min(distance to the nearest
# pole, -Re z); below it the test would read rounding noise in |f(z)| as proof
CERT_FLOOR = 1e-12
# the poles p(lam) clears, 0, i omega_k and -i omega_k, as shifts of mu in units of i omega_k
_CLEARED = np.array([0.0, 1.0, 2.0])


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


def rounding_bound(sys: SystemSpec, scale: np.ndarray) -> np.ndarray:
    """``(2N + 10) u S``: a bound on the rounding error of f as :func:`eval_f` computes it.

    ``S`` is :func:`eval_f`'s computed sum of the moduli of f's ``2N + 1``
    terms ``res_a t_a``, ``t_a = 1/(lam - a)``.  Each term rounds once in
    ``mu + shift`` (a relative ``u`` in ``lam - a``, so ``gamma_1`` in
    ``t_a``), five times in numpy's complex reciprocal, which is Smith's
    algorithm (``gamma_5`` in each component: the two products it adds have
    one sign), and once in the product with ``res_a`` (``2i/gamma`` rounds
    once more), so ``|fl(T_a) - T_a| <= gamma_8 |T_a|``.  Summing 2N + 1
    terms in any order adds ``gamma_2N sum_a |fl(T_a)|`` per component, and
    by Minkowski's inequality in modulus too.  With ``gamma_j + gamma_k +
    gamma_j gamma_k <= gamma_(j+k)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3) and the rounding of ``S`` itself, the error
    is below ``(2N + 10) u S`` for N below 10^6, in IEEE binary64 with
    round-to-nearest.  The tables and residues are taken as given: their own
    rounding from ``omega`` and ``c`` is not in the bound.
    """
    return (2 * sys.N + 10) * UNIT_ROUNDOFF * scale


def _pole_offsets(sys: SystemSpec, ks: np.ndarray, mu: np.ndarray):
    """Yield ``(rows, z)`` over blocks of the upper points ``lam = i omega_k + mu``.

    ``z = lam - a = mu + shift`` over the poles ``a`` of the columns of
    :attr:`~obsdecay.model.SystemSpec.pole_shifts` (0, then ``+i omega_j``,
    then ``-i omega_j``), and ``rows`` is the slice of points in the block.
    A block covers about EVAL_BLOCK table entries, so its temporaries stay in
    cache; each row is computed on its own, so the blocking changes no value.
    """
    step = max(1, EVAL_BLOCK // sys.pole_shifts.shape[1])
    for lo in range(0, max(mu.size, 1), step):
        rows = slice(lo, lo + step)
        z = sys.pole_shifts[ks[rows] - 1]
        z += mu[rows, None]
        yield rows, z


def _block_sums(sys: SystemSpec, z: np.ndarray) -> list:
    """f, f' and S of the rows ``z`` of :func:`_pole_offsets`; ``z`` is overwritten."""
    t = np.reciprocal(z, out=z)  # 1/(lam - a)
    term = t * sys.residues
    sums = [term.sum(axis=1), None, np.abs(term).sum(axis=1)]
    term *= t
    sums[1] = -term.sum(axis=1)
    return sums


def _anchors(sys: SystemSpec, ks) -> np.ndarray:
    """``ks`` as a flat int array; raises ValueError unless each is a mode in ``1..N``."""
    ks = np.asarray(ks, dtype=int).reshape(-1)
    if ks.size and (ks.min() < 1 or ks.max() > sys.N):
        raise ValueError(f"anchors must be modes in [1, {sys.N}], got {ks.min()} to {ks.max()}")
    return ks


def eval_f(sys: SystemSpec, mu, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f, f' and ``S = sum_a |res_a/(lam - a)|`` at ``lam = i omega_k + mu``, per (mu, k).

    Each ``mu`` is an offset from the pole ``i omega_k`` of its anchor in
    ``ks``, a mode in ``1..N`` (else ValueError).  Over the ``2N + 1`` poles
    ``a`` (0 and ``+/- i omega_j``), ``t_a = 1/(lam - a)`` is numpy's complex
    reciprocal of ``mu + shift`` (:func:`_pole_offsets`), f is ``sum_a res_a
    t_a``, f' is ``-sum_a res_a t_a^2`` and S sums the moduli of the terms;
    :func:`rounding_bound` bounds the rounding error of f by S.  The own
    shift is exactly 0, so the own-pole term is ``(c_k^2/omega_k)/mu``, as
    precise as ``mu`` itself.  Each row sums the same terms in the same order
    in any batch, so a point gets the same values in every batch.
    """
    mu = np.asarray(mu, dtype=complex).reshape(-1)
    parts = [_block_sums(sys, z) for _, z in _pole_offsets(sys, _anchors(sys, ks), mu)]
    return tuple(parts[0] if len(parts) == 1 else (np.concatenate(p) for p in zip(*parts)))


def _at_pole(sys: SystemSpec, ks: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Whether each upper point ``i omega_k + mu`` is exactly a pole of f.

    A computed ``lam - a = mu + shift`` is 0 exactly when ``Re mu`` is 0
    and ``Im mu`` is minus the shift: a float sum is 0 only when it is
    exact.  Those are the points where :func:`eval_f` would divide by zero.
    """
    at = mu.real == 0.0
    for i in np.flatnonzero(at):
        at[i] = bool(np.any(sys.pole_shifts[ks[i] - 1].imag == -mu.imag[i]))
    return at


def newton_roots(sys: SystemSpec, ks, mu, max_iters: int = NEWTON_MAX_ITERS
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                            list[Optional[Exception]]]:
    """Damped Newton iteration in pole-local coordinates, one root per seed ``(k, mu)``.

    Element i iterates the offset ``mu[i]`` of ``lam`` from the pole ``i
    omega_k`` of its anchor ``k = ks[i]``, a mode in ``1..N`` (else
    ValueError).  The step is Newton's for ``p f``, ``p(lam) = lam (lam - i
    omega_k)(lam + i omega_k)``, which clears the origin, the own pole and
    its mirror: ``-f / (f' + f (1/mu + 1/lam + 1/(mu + 2i omega_k)))``.  Each element
    follows the scalar rules: it stops once ``|f| <= (2N + 4) u S``, where S
    is the sum of the moduli of f's terms at the iterate and u the unit
    roundoff; otherwise its step is halved (up to NEWTON_MAX_HALVINGS times)
    until |f| decreases, so the residual is non-increasing across accepted
    steps.  All elements iterate together and each pass costs one
    array-valued :func:`eval_f`: an element whose candidate was rejected
    tries half its step in the next pass, while the others take fresh steps.
    A seed exactly at a pole is rejected (:func:`_at_pole`), and a candidate
    there is a rejected trial.  A seed or accepted iterate fails at or past
    :func:`escape_radius`, since no root is out there and Newton cannot come
    back, and where f, f' or the step overflows, beside a pole.  An element
    whose candidate ``mu + step`` rounds to ``mu`` fails at that trial
    without another evaluation: rounding is monotone, so every smaller step
    rounds to ``mu`` as well, where ``|f|`` is the current residual.

    Returns ``(mu, residuals, bounds, derivatives, iterations, errors)``: the
    root's offset, ``|f|`` (taken with ``hypot``), its :func:`rounding_bound`
    and ``f'`` there, and the accepted steps.  ``errors[i]`` is the
    :class:`PoleError` or :class:`NewtonError` that stopped element ``i``, or
    None; a failed element does not stop the others, and its offset,
    residual, bound and derivative are NaN.
    """
    ks = _anchors(sys, ks)
    mu = np.array(mu, dtype=complex).reshape(-1)
    n = mu.size
    root, deriv = np.full(n, complex(np.nan, np.nan)), np.full(n, complex(np.nan, np.nan))
    resid, scale = np.full(n, np.nan), np.full(n, np.nan)
    iters = np.zeros(n, dtype=int)
    errors: list[Optional[Exception]] = [None] * n
    rho = escape_radius(sys)
    stop = (2 * sys.N + 4) * UNIT_ROUNDOFF

    def fail(sel: np.ndarray, why) -> None:
        """Give each selected element the error ``why(element, lam)``."""
        for j in np.flatnonzero(sel):
            errors[idx[j]] = why(j, complex(m[j] + iw[j]))

    def escaped(j, lam):
        return NewtonError(f"iterate {lam} is past the escape radius {rho:.6g}: no root lies "
                           "there and Newton only moves outward")

    def overflow(j, lam):
        return NewtonError(f"f, f' or the step overflows binary64 at {lam}, beside a pole")

    idx, m = np.arange(n), mu
    iw = sys.pole_shifts[ks - 1, 0] if n else mu  # i omega_k, the shift of the pole at 0
    pole = _at_pole(sys, ks, mu)
    fail(pole, lambda j, lam: PoleError(f"seed {lam} is a pole of the characteristic function"))
    out = ~pole & (np.abs(mu + iw) >= rho)
    fail(out, escaped)
    keep = ~(pole | out)
    idx, m, iw = idx[keep], mu[keep], iw[keep]
    kk = ks[idx]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught as non-finite
        f, d, s = eval_f(sys, m, kk) if idx.size else (m, m, m.real)
        r = np.hypot(f.real, f.imag)
        step = np.zeros(idx.size, dtype=complex)
        halvings, steps = np.zeros(idx.size, dtype=int), np.zeros(idx.size, dtype=int)
        fresh = np.isfinite(r) & np.isfinite(d) & np.isfinite(s)  # a new iterate, to step from
        end = ~fresh
        fail(end, overflow)
        for passes in itertools.count():
            # only its own acceptance changes an element's r, s, f, d and steps,
            # so the stop tests hold for the others as they did when they were fresh
            done = fresh & (r <= stop * s)
            if done.any():
                at = idx[done]
                root[at], resid[at], scale[at], deriv[at] = m[done], r[done], s[done], d[done]
                iters[at] = steps[done]
                end |= done
                fresh &= ~done
            if passes >= max_iters:  # no element has taken more steps than there were passes
                capped = fresh & (steps >= max_iters)
                fail(capped, lambda j, lam: NewtonError(
                    f"no convergence after {max_iters} iterations (|f| = {float(r[j]):.3e})"))
                end |= capped
                fresh &= ~capped
            # minus the Newton step of p f; the others keep their halved steps
            clear = np.reciprocal(m[:, None] + iw[:, None] * _CLEARED).sum(axis=1)
            denom = d + f * clear
            flat = None
            if not denom.all():
                flat = denom == 0
                denom[flat] = np.nan
            np.divide(f, denom, out=step, where=fresh)
            bad = ~np.isfinite(step)
            if bad.any():
                vanishing = bad if flat is None else bad & flat
                fail(vanishing, lambda j, lam: NewtonError(
                    f"vanishing derivative of the pole-cleared f at {lam}"))
                fail(bad & ~vanishing, overflow)
                end |= bad
            if end.any():
                keep = ~end
                idx, kk, iw, m, f, d, s, r, step, halvings, steps = (
                    a[keep] for a in (idx, kk, iw, m, f, d, s, r, step, halvings, steps))
            if not idx.size:
                break
            cand = m - step
            trial = cand != m
            if (cand.real == 0.0).any():  # a candidate at a pole is a rejected trial
                pole = trial & (cand.real == 0.0)
                trial[pole] = ~_at_pole(sys, kk[pole], cand[pole])
            if trial.all():
                cf, cd, cs = eval_f(sys, cand, kk)
            else:
                cf, cd, cs = f.copy(), d.copy(), s.copy()
                sub = np.flatnonzero(trial)
                if sub.size:
                    cf[sub], cd[sub], cs[sub] = eval_f(sys, cand[sub], kk[sub])
            cr = np.hypot(cf.real, cf.imag)
            # a non-finite f' or S (their sum is non-finite with either) rejects the trial
            fresh = trial & (cr < r) & np.isfinite(cd + cs)
            if fresh.all():
                m, f, d, s, r = cand, cf, cd, cs, cr
            else:
                m, f, d, s, r = (np.where(fresh, new, old) for new, old in
                                 ((cand, m), (cf, f), (cd, d), (cs, s), (cr, r)))
            step *= 0.5
            halvings = np.where(fresh, 0, halvings + 1)
            steps += fresh
            # a candidate that rounds to mu is mu, where |f| is r, and every
            # smaller step rounds to mu too, so the element fails at once
            end = ~fresh & (cand == m) | (halvings > NEWTON_MAX_HALVINGS)
            if end.any():
                fail(end, lambda j, lam: NewtonError(
                    f"damping failed to reduce |f| below {float(r[j]):.3e} (stop threshold "
                    f"{float(stop * s[j]):.3e}) at {lam}"))
            out = fresh & (np.abs(m + iw) >= rho)
            if out.any():
                fail(out, escaped)
                end |= out
                fresh &= ~out
    return root, resid, rounding_bound(sys, scale), deriv, iters, errors


def nearest_mode(omegas: np.ndarray, x):
    """Index of the frequency nearest each ``x >= 0``, the lower on a tie, by a sorted search.

    Only the two frequencies around x can be nearest, and their computed
    distances ``|omega - x|`` are compared.  So the index is the first minimum
    of the dense ``|omegas - x|``, except where rounding makes two frequencies
    on one side of x equally far, which needs x some gap/eps away from them.
    """
    hi = np.minimum(np.searchsorted(omegas, x), omegas.size - 1)
    lo = np.maximum(hi - 1, 0)
    return np.where(np.abs(omegas[lo] - x) <= np.abs(omegas[hi] - x), lo, hi)


def newton_root(sys: SystemSpec, seed: complex,
                max_iters: int = NEWTON_MAX_ITERS) -> tuple[complex, float, int]:
    """Damped Newton iteration from one seed: :func:`newton_roots` on a batch of one.

    The seed is anchored at the pole ``i omega_k`` nearest it.  A seed below
    the real axis is solved at its mirror ``conj(seed)`` and the root
    conjugated back, as ``f(conj lam) = -conj f(lam)``; an error then names
    the mirrored point.  Returns ``(root, |f(root)|, iterations)``; raises the
    element's :class:`PoleError` or :class:`NewtonError` when it fails.
    """
    seed = complex(seed)
    lower = seed.imag < 0.0
    if lower:
        seed = seed.conjugate()
    k = int(nearest_mode(sys.omegas, seed.imag)) + 1
    w = float(sys.omegas[k - 1])
    mu, resids, _, _, iters, errors = newton_roots(sys, [k], [complex(seed.real, seed.imag - w)],
                                                   max_iters)
    if errors[0] is not None:
        raise errors[0]
    root = complex(mu[0] + 1j * w)
    return root.conjugate() if lower else root, float(resids[0]), int(iters[0])


def winding_number(sys: SystemSpec, disk: tuple[complex, float]) -> int:
    """Argument-principle count (zeros minus poles) of f inside a disk.

    Trapezoidal contour integration of f'/f over the circle, with the sample
    count doubled from WINDING_SAMPLES_INIT until the value sits within 1e-6
    of an integer.  The disk
    boundary must stay away from zeros and poles of f (guarded by the sampled
    minimum of |f|).
    """
    center, radius = complex(disk[0]), float(disk[1])
    if radius <= 0.0:
        raise ValueError("disk radius must be positive")
    m = WINDING_SAMPLES_INIT
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
    ``fallback`` is always False and is not written to JSON: it stays only
    for the benchmark tracer's ``spectrum.fallback_roots`` counter, which
    sums it, and goes when that counter does.
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
        }


# the per-root columns of a SpectrumReport and their dtypes
_COLUMNS = {"k": int, "mu": complex, "lam": complex, "residual": float, "radius": float,
            "certified": bool, "newton_iters": int}


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """The found roots, one row per mode, with global consistency metrics.

    Each column holds one read-only array over the found modes' upper roots
    (near +i omega_k), by ascending mode ``k``: the offset ``mu`` of the root
    from ``i omega_k``, the root ``lam = i omega_k + mu``, its residual
    ``|f(lam)|``, the ``radius`` of its Rouche disk (NaN when none exists),
    whether it is ``certified`` and its ``newton_iters``.  The lower root of
    each mode is ``lam.conj()`` with the same certificate, so it is not stored.
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
                   self.newton_iters.tolist())
        return tuple(EigenCertificate(k, half, z, res, r, cert, iters)
                     for k, lam, res, r, cert, iters in rows
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
                     deriv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    the distances ``|z - a|`` over all poles come from :func:`_pole_offsets`
    (as ``sqrt(x^2 + y^2)``), so ``d_own = |mu|``, and ``-Re z = -Re mu``.  A ``K0``
    past binary64, at a root within about 1e-103 of its pole, leaves no
    radius.

    Returns the radii, each root's distance to its nearest mode pole and,
    from the same squared distances, the closeness sum ``sum_{a != own}
    c_a^2/|z - a|^2`` over the mode poles, the own pole left out by its
    column, which :func:`basis_terms` hands to the eigenbasis.
    """
    nearest, reach, k0 = np.empty(mu.shape), np.empty(mu.shape), np.empty(mu.shape)
    closeness = np.empty(mu.shape)
    c2 = sys.resolvent_couplings**2
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite K0 fails the test
        for rows, z in _pole_offsets(sys, ks, mu):
            d = z.real * z.real  # |z - a|^2, the pole at 0 first
            d += z.imag * z.imag
            inv = np.reciprocal(d[:, 1:])
            inv[np.arange(inv.shape[0]), ks[rows] - 1] = 0.0  # the own pole
            closeness[rows] = np.einsum("ij,j->i", inv, c2)
            d = np.sqrt(d, out=d)
            reach[rows], nearest[rows] = d.min(axis=1), d[:, 1:].min(axis=1)
            d = np.reciprocal(d, out=d)
            d *= d * d
            k0[rows] = np.einsum("ij,j->i", d, sys.pole_residues)
        reach = np.minimum(reach, -mu.real)
        slope = np.hypot(deriv.real, deriv.imag)
        r = np.minimum(0.5 * reach, slope / (4.0 * k0))
        ok = (reach > 0.0) & (r >= CERT_FLOOR * reach) & (slope * r - f_bound > 2.0 * k0 * r * r)
    return np.where(ok, r, np.nan), nearest, closeness


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


# what full_spectrum computed at the roots of each live report it made, keyed by
# the report itself, so a dataclasses.replace copy finds nothing here
_ROOT_TERMS: weakref.WeakKeyDictionary[SpectrumReport, tuple] = weakref.WeakKeyDictionary()


def full_spectrum(sys: SystemSpec) -> SpectrumReport:
    """Locate and certify all 2N roots of the characteristic function.

    The upper roots of all modes are refined together by one
    :func:`newton_roots` solve, in pole-local coordinates, from the
    second-order seeds of :func:`~obsdecay.charfn.newton_seed_offsets`.
    Each found root is certified by its Rouche disk, which must miss every
    other root's disk, its conjugate's included.  The lower root is the
    exact conjugate of the upper one, certificate included, because
    ``f(conj lam) = -conj f(lam)``, so the report stores the upper roots
    alone.  Failures are collected instead of raised: one per missing mode,
    whose Newton solve failed (``mode k: Newton failed: ...``), whose root
    left the band ``|Im mu| <= band`` (``mode k: root ... left the mode
    band``) or lies nearer another mode's pole (``... assigned to another
    mode``), and one per uncertified root (``mode k (half): root ... not
    certified: ...``, with no disk or a disk that meets another).
    """
    wk = sys.omegas
    ks = np.arange(1, sys.N + 1)
    band = 0.5 * (sys.min_gap() if sys.N > 1 else float(wk[0]))
    mu, resids, bounds, deriv, iters, errors = newton_roots(sys, ks, newton_seed_offsets(sys))
    lam = mu + 1j * wk
    failures = {i: f"mode {i + 1}: Newton failed: {err}"
                for i, err in enumerate(errors) if err is not None}
    # a failed element's mu is NaN: never out of band, and setdefault keeps its message
    for i in np.flatnonzero(np.abs(mu.imag) > band).tolist():
        failures[i] = f"mode {i + 1}: root {complex(lam[i])} left the mode band"
    for i in np.flatnonzero(nearest_mode(wk, np.abs(lam.imag)) != np.arange(sys.N)).tolist():
        failures.setdefault(i, f"mode {i + 1}: root {complex(lam[i])} assigned to another mode")

    found = np.array([i for i in range(sys.N) if i not in failures], dtype=int)
    radius, pole_dist, closeness = _certified_radii(sys, ks[found], mu[found],
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
    report = SpectrumReport(k=found + 1, mu=mu[found], lam=lam, residual=resids[found],
                            radius=radius, certified=certified,
                            newton_iters=iters[found], enclosure_defect=enc,
                            complete=found.size == sys.N and not fail_msgs,
                            failures=tuple(fail_msgs))
    _ROOT_TERMS[report] = (sys, report.residual, _read_only(deriv[found]), _read_only(closeness))
    return report


def basis_terms(sys: SystemSpec, report: SpectrumReport
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``|f|``, f' and the closeness sum of :func:`_certified_radii` at each root of ``report``.

    For a report that :func:`full_spectrum` made for ``sys`` they are the
    values its Newton solve and certificate walk computed at the ``mu``
    column.  Any other report, hand-built or a ``dataclasses.replace``
    copy, is evaluated afresh at its ``mu`` column by the same two
    functions, :func:`eval_f` and :func:`_certified_radii`, so both paths
    give the same bits and no stored column of such a report is trusted.
    """
    kept = _ROOT_TERMS.get(report)
    if kept is not None and kept[0] is sys:
        return kept[1:]
    fval, deriv, _ = eval_f(sys, report.mu, report.k)
    resid = np.hypot(fval.real, fval.imag)
    return resid, deriv, _certified_radii(sys, report.k, report.mu, resid, deriv)[2]
