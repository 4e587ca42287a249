"""Closed-form resolvent of the error generator and imaginary-axis norm scans.

Solving ``(A - lam I) eps = rhs`` reduces to one scalar coupling equation.
Stack ``x = (q, p)``, ``r = (rhs.q, rhs.p)``, ``c^ = (c, c)`` and
``d = (-i omega - lam, i omega - lam)``; with ``g = gamma/2`` and
``phi = sum_i c^_i x_i`` the rows read ``d_i x_i = r_i + g c^_i phi``.
Dividing by ``d_i`` fails at the poles ``lam = +/- i omega_k`` and loses
digits near them, so the pole ``m`` nearest to lam (``m = argmin |d_i|``)
is kept in local coordinates:

    D   = d_m (1 - g sum_{i!=m} c^_i^2/d_i) - g c^_m^2,
    phi = (c^_m r_m + d_m sum_{i!=m} c^_i r_i/d_i) / D,
    x_i = (r_i + g c^_i phi) / d_i                      (i != m),
    x_m = (phi - sum_{i!=m} c^_i x_i) / c^_m.

``D/d_m = 1 + gamma lam sum_j c_j^2/(omega_j^2 + lam^2)`` vanishes exactly
at the eigenvalues, and at a pole ``D = -g c_m^2 != 0``, so the one formula
covers every lam in the resolvent set.

The axis scan brackets the resolvent norm on mode bands of the imaginary
axis.  With ``d(s)`` the distance from ``is`` to the spectrum, every operator
has ``||R(is)|| >= 1/d(s)``, and a diagonalizable one ``||R(is)|| <=
cond(Q)/d(s)``; so on a band with ``m_k = min d(s)`` the supremum of the
norm lies in ``[1/m_k, cond(Q)/m_k]``.  ``m_k`` is exact in closed form: the
distance from the segment to the nearest root, found by a sorted search that
compares each band with the few roots near it.  The scan fits the growth
exponent of ``1/m_k``, which governs the polynomial decay rate of the
semigroup (Borichev and Tomilov, Math. Ann. 347, 2010).  The scan and its
certified-cap checks are held as read-only columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charfn import LocalizationReport, PoleError, _freeze_columns
from .fitting import LogLogFit, loglog_fit
from .model import SystemSpec
from .spectrum import UNIT_ROUNDOFF, SpectrumReport
from .state import StateVector

EIGEN_PROXIMITY_TOL = 1e-12
SEGMENT_BOUND_FACTOR = 2.0 * math.sqrt(6.0)


class SpectrumProximityError(ValueError):
    """The requested point is (numerically) an eigenvalue of the generator."""


def apply_resolvent(sys: SystemSpec, lam: complex, rhs: StateVector) -> StateVector:
    """Apply ``(A - lam I)^{-1}`` to a state.

    Valid for any lam in the resolvent set, the mode frequencies
    ``lam = +/- i omega_k`` included: one formula in local coordinates at
    the nearest pole covers every point.  Raises for lam = 0 and for lam
    numerically at an eigenvalue.
    """
    lam = complex(lam)
    if lam == 0:
        raise PoleError("the resolvent is not evaluated at lam = 0")
    if rhs.n_modes != sys.N:
        raise ValueError(f"rhs has {rhs.n_modes} modes, system has {sys.N}")
    d = sys.resolvent_offsets - lam
    c = sys.resolvent_couplings
    r = rhs._stacked  # the state's own vector: read here, never written
    g = 0.5 * sys.gamma
    m = int(np.abs(d).argmin())
    dm, cm, rm = d[m], c[m], r[m]
    d[m] = np.inf  # takes the pivot out of every sum over i != m below
    cd = c / d
    den = dm * (1.0 - g * (c @ cd)) - g * cm * cm
    if abs(den) < EIGEN_PROXIMITY_TOL * abs(dm):
        raise SpectrumProximityError(
            f"lam = {lam} is numerically in the spectrum "
            f"(|denominator| = {abs(den) / abs(dm):.3e})"
        )
    phi = (cm * rm + dm * (cd @ r)) / den
    x = (r + g * c * phi) / d
    x[m] = (phi - c @ x) / cm
    return StateVector._adopt(x)


@dataclass(frozen=True, eq=False)
class AxisScan:
    """Closed-form lower bound of the resolvent norm on bands of the upper imaginary
    axis, as read-only columns.

    One row per mode band ``k`` (ascending): its ends ``s_lo = 0.5 (omega_{k-1} +
    omega_k)`` and ``s_hi = 0.5 (omega_k + omega_{k+1})``, its ``center``, and
    ``sup = 1/m_k``, with ``m_k`` the distance from the segment ``i [s_lo, s_hi]``
    to the computed roots.  ``alpha_fit`` is the log-log fit of sup against
    center; its slope estimates the growth exponent.
    """

    k: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray
    center: np.ndarray
    sup: np.ndarray
    alpha_fit: LogLogFit

    def __post_init__(self):
        _freeze_columns(self, {"k": int, "s_lo": float, "s_hi": float, "center": float,
                               "sup": float})

    def to_json_dict(self, alpha_expected: Optional[float] = None) -> dict:
        """The scan as JSON types, with one list per band in ``segments`` and ``suprema``."""
        k, fit = self.k.tolist(), self.alpha_fit
        return {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2,
                "segments": [list(row) for row in zip(k, self.s_lo.tolist(), self.s_hi.tolist())],
                "suprema": [list(row) for row in zip(k, self.center.tolist(), self.sup.tolist())],
                "alpha_expected": alpha_expected}


def _band_windows(roots: np.ndarray, s_lo: np.ndarray, s_hi: np.ndarray):
    """The (band, root) pairs that can attain each band's ``m_k``, flat and band by band.

    The roots are sorted by ``Im``, and the distance ``b`` from band k to one
    root, the first at or above ``s_lo`` (else the highest), bounds ``m_k``
    from above.  The window ``[s_lo - b, s_hi + b]`` keeps every root that can
    attain ``m_k``: a root below ``fl(s_lo - b)`` has an exact gap above ``b``,
    so a computed gap of at least ``b``, and ``hypot(x, gap) >= gap`` holds in
    binary64 (above ``fl(s_hi + b)`` alike).  The root that gives ``b`` can
    lie just outside by rounding, so the window is padded by ``8 u (b +
    s_hi)``, which covers it.  Returns each pair's band row, the real and
    imaginary parts of its root, and the index of each band's first pair.
    """
    order = np.argsort(roots.imag)
    im, re = roots.imag[order], roots.real[order]
    j = np.minimum(np.searchsorted(im, s_lo), im.size - 1)
    b = np.hypot(re[j], np.maximum(np.maximum(s_lo - im[j], im[j] - s_hi), 0.0))
    reach = b + 8.0 * UNIT_ROUNDOFF * (b + s_hi)
    start = np.searchsorted(im, s_lo - reach, "left")
    count = np.searchsorted(im, s_hi + reach, "right") - start
    first = np.cumsum(count) - count
    idx = np.arange(count.sum()) + np.repeat(start - first, count)
    return np.repeat(np.arange(s_lo.size), count), re[idx], im[idx], first


def axis_scan(sys: SystemSpec, spectrum: SpectrumReport, k_range: tuple[int, int]) -> AxisScan:
    """Each band's supremum of ``1/d(s)`` in closed form, and the fit of its growth.

    ``d(s)`` is the distance from ``is`` to the computed roots (both halves).
    On band k it is smallest at ``m_k = min_lam hypot(Re lam, max(0, s_lo -
    Im lam, Im lam - s_hi))``, so ``sup = 1/m_k`` is the band's supremum of
    ``1/d``: a lower bound of ``sup ||R(is)||`` that holds for every operator.
    With ``A = Q G Q^-1`` and ``G`` diagonal, ``||R(is)|| <= cond(Q)/d(s)``
    bounds it from above.  The suprema are fitted in log-log coordinates
    against the band centers.

    The minima take a sorted search, O((N + K) log N), over the windows of
    :func:`_band_windows`, and are bitwise those of the whole band x root table.
    """
    k_min, k_max = k_range
    if not (2 <= k_min < k_max <= sys.N - 1):
        raise ValueError(f"k_range must satisfy 2 <= k_min < k_max <= N-1 = {sys.N - 1}")
    if k_max - k_min < 2:
        raise ValueError("degenerate fit: need at least 3 segments")
    if spectrum.lam.size == 0:
        raise ValueError("the axis scan needs at least one eigenvalue")
    w = sys.omegas
    ks = np.arange(k_min, k_max + 1)
    s_lo = 0.5 * (w[ks - 2] + w[ks - 1])
    s_hi = 0.5 * (w[ks - 1] + w[ks])
    band, re, im, first = _band_windows(np.concatenate([spectrum.lam, spectrum.lam.conj()]),
                                        s_lo, s_hi)
    gap = np.maximum(np.maximum(s_lo[band] - im, im - s_hi[band]), 0.0)
    m = np.minimum.reduceat(np.hypot(re, gap), first)
    if np.any(m == 0.0):
        raise SpectrumProximityError(f"band {ks[m == 0.0][0]} holds an eigenvalue")
    sups = 1.0 / m
    centers = 0.5 * (s_lo + s_hi)
    return AxisScan(k=ks, s_lo=s_lo, s_hi=s_hi, center=centers, sup=sups,
                    alpha_fit=loglog_fit(centers, sups))


@dataclass(frozen=True, eq=False)
class SegmentBoundChecks:
    """The certified-cap check of each band of a scan, as read-only columns: the scan's
    ``k`` and ``sup``, the proven upper end ``upper = cond sup`` of the band's resolvent
    supremum (NaN when ``cond`` is None), the cap ``bound`` on band k (NaN where it is not
    ``applicable``), and ``ok``, true where ``upper <= bound`` or the cap does not apply.
    Without ``cond`` nothing bounds the norm from above, so an applicable cap is not
    shown to hold and its ``ok`` is false."""

    k: np.ndarray
    sup: np.ndarray
    upper: np.ndarray
    bound: np.ndarray
    applicable: np.ndarray
    ok: np.ndarray
    cond: Optional[float] = None

    def __post_init__(self):
        _freeze_columns(self, {"k": int, "sup": float, "upper": float, "bound": float,
                               "applicable": bool, "ok": bool})


def segment_bound_checks(scan: AxisScan, loc: LocalizationReport,
                         cond: Optional[float] = None) -> SegmentBoundChecks:
    """Compare the proven upper end of each band's resolvent supremum against the certified cap.

    The cap ``2 sqrt(6) / |Re lambda_star_{k+1}|`` applies on band k whenever
    the localization disks at k-1, k, k+1 guarantee axis separation (rows of
    ``loc`` whose ``separated`` is true; a mode without a row has none).  The
    scan's ``sup = 1/m_k`` bounds the norm from below only; with ``cond =
    cond(Q)`` of the eigenbasis the norm is at most ``upper = cond sup``
    (see :func:`axis_scan`), and that is what is compared with the cap.
    """
    k = scan.k
    size = max(k.max(initial=0), loc.k.max(initial=0)) + 2
    separated = np.zeros(size, dtype=bool)
    separated[loc.k] = loc.separated
    rate = np.ones(size)  # |Re lambda_star|; 1 where no row (those bands are not applicable)
    rate[loc.k] = np.abs(loc.lambda_star.real)
    applicable = separated[k - 1] & separated[k] & separated[k + 1]
    bound = np.where(applicable, SEGMENT_BOUND_FACTOR / rate[k + 1], math.nan)
    upper = scan.sup * (math.nan if cond is None else cond)
    ok = ~applicable | (upper <= bound)
    return SegmentBoundChecks(k, scan.sup, upper, bound, applicable, ok, cond)
