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

The axis scan samples a diagonal-model bound for the resolvent norm on mode
bands of the imaginary axis and fits the growth exponent of the per-band
suprema, which is the quantity that governs the polynomial decay rate of
the semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .charfn import LocalizationCertificate, PoleError
from .dynamics import dense_generator
from .fitting import LogLogFit, loglog_fit
from .model import SystemSpec
from .spectrum import SpectrumReport
from .state import StateVector

EIGEN_PROXIMITY_TOL = 1e-12
EXACT_NORM_MAX_N = 64
PTS_PER_SEGMENT_DEFAULT = 33
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
    iw = 1j * sys.omegas
    d = np.concatenate([-iw - lam, iw - lam])
    c = np.concatenate([sys.cs, sys.cs])
    r = rhs.to_array()
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
    return StateVector.from_array(x)


def _min_distance(roots: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``min_j |roots_j - p|`` for each point, from the full row of distances."""
    return np.min(np.abs(roots[None, :] - pts[:, None]), axis=1)


def _nearest_distance(roots: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``min_j |roots_j - p|`` for each point; ``roots`` sorted by imaginary part.

    Each point is compared with the four roots next to ``Im p`` in that
    order (two on each side, found by ``searchsorted``), giving ``best``.
    Every root outside this window lies at least as far from ``Im p`` in
    imaginary part as the window's outer neighbour on its side, and
    ``|root - p| >= |Im(root - p)|`` holds for the computed values too:
    rounding is monotone, and a computed ``hypot(x, y)`` is never below
    ``|y|``.  So wherever both outer neighbours satisfy
    ``|Im(root - p)| > best``, ``best`` is the minimum over all roots,
    bitwise.  Points where the bound does not settle it fall back to the
    full row (:func:`_min_distance`).
    """
    im = np.ascontiguousarray(roots.imag)
    y = pts.imag
    idx = np.searchsorted(im, y)
    last = roots.size - 1
    window = np.clip(idx + np.arange(-2, 2)[:, None], 0, last)
    best = np.min(np.abs(roots[window] - pts), axis=0)
    below, above = idx - 3, idx + 2
    gap_below = np.where(below >= 0, np.abs(im[np.maximum(below, 0)] - y), np.inf)
    gap_above = np.where(above <= last, np.abs(im[np.minimum(above, last)] - y), np.inf)
    unsettled = ~((gap_below > best) & (gap_above > best))
    if np.any(unsettled):
        best[unsettled] = _min_distance(roots, pts[unsettled])
    return best


def _diag_bound(upper: np.ndarray, lams) -> np.ndarray:
    """Diagonal-model resolvent bound ``sqrt(d_lo^-2 + d_up^-2)`` at each point.

    ``d_up`` is the distance from the point to the nearest of the ``upper``
    eigenvalues, ``d_lo`` the distance to the nearest of their conjugates
    (the lower eigenvalues), taken as ``|upper - conj(point)|``.  Both are
    bitwise the minimum over every eigenvalue, found in a window of the
    eigenvalues sorted by imaginary part (:func:`_nearest_distance`): the
    cost is one O(N log N) sort plus O(log N) a point, and O(N) only at the
    points the window bound does not settle.
    """
    if upper.size == 0:
        raise ValueError("the diagonal bound needs at least one upper eigenvalue")
    roots = upper[np.argsort(upper.imag, kind="stable")]
    pts = np.asarray(lams, dtype=complex)
    d_up = _nearest_distance(roots, pts)
    d_lo = _nearest_distance(roots, pts.conj())
    hit = (d_up == 0.0) | (d_lo == 0.0)
    if np.any(hit):
        raise SpectrumProximityError(f"lam = {pts[hit][0]} is an eigenvalue")
    return np.sqrt(d_lo**-2.0 + d_up**-2.0)


def resolvent_norm(sys: SystemSpec, lam: complex, mode: str = "diag",
                   spectrum: Optional[SpectrumReport] = None) -> float:
    """Resolvent norm at one point.

    mode="diag" evaluates the diagonal-model bound
    ``sqrt(max_j |lam_-j - lam|^-2 + max_j |lam_j - lam|^-2)`` from a computed
    spectrum report; mode="exact" computes the largest singular value of the
    dense inverse (capped at N = 64).
    """
    lam = complex(lam)
    if mode == "diag":
        if spectrum is None:
            raise ValueError("diag mode requires a completed SpectrumReport")
        return float(_diag_bound(spectrum.eigenvalues("upper"), [lam])[0])
    if mode == "exact":
        if sys.N > EXACT_NORM_MAX_N:
            raise ValueError(f"exact mode is capped at N = {EXACT_NORM_MAX_N}")
        shifted = dense_generator(sys) - lam * np.eye(2 * sys.N)
        smin = float(np.min(np.linalg.svd(shifted, compute_uv=False)))
        if smin < EIGEN_PROXIMITY_TOL:
            raise SpectrumProximityError(f"lam = {lam} is numerically in the spectrum")
        return 1.0 / smin
    raise ValueError(f"unknown mode {mode!r} (expected 'diag' or 'exact')")


@dataclass(frozen=True)
class AxisScan:
    """Sampled resolvent-norm bound along the upper imaginary axis.

    ``segments`` are the mode bands ``[0.5 (omega_{k-1} + omega_k),
    0.5 (omega_k + omega_{k+1})]``; ``samples`` all (s, bound) pairs sorted
    by s; ``suprema`` the per-band peak (k, band center, sup); ``alpha_fit``
    the log-log fit of sup against band center, whose slope estimates the
    resolvent growth exponent.
    """

    segments: tuple[tuple[int, float, float], ...]
    samples: tuple[tuple[float, float], ...]
    suprema: tuple[tuple[int, float, float], ...]
    alpha_fit: LogLogFit

    def to_json_dict(self, alpha_expected: Optional[float] = None) -> dict:
        doc = {
            "slope": self.alpha_fit.slope,
            "intercept": self.alpha_fit.intercept,
            "r2": self.alpha_fit.r2,
            "segments": [list(seg) for seg in self.segments],
            "suprema": [list(sup) for sup in self.suprema],
        }
        doc["alpha_expected"] = alpha_expected
        return doc


def axis_scan(sys: SystemSpec, spectrum: SpectrumReport, k_range: tuple[int, int],
              pts_per_segment: int = PTS_PER_SEGMENT_DEFAULT) -> AxisScan:
    """Scan the diagonal-model resolvent bound over mode bands of the axis.

    Each band is sampled on an even grid plus the imaginary parts of the
    nearby eigenvalues (where the true supremum sits); the per-band suprema
    are then fitted in log-log coordinates against the band centers.  All
    bands are built and evaluated in one pass: one :func:`_diag_bound` call
    over every sample, so the scan costs O((P + N) log N) for P samples
    rather than O(P N).
    """
    k_min, k_max = k_range
    if not (2 <= k_min < k_max <= sys.N - 1):
        raise ValueError(f"k_range must satisfy 2 <= k_min < k_max <= N-1 = {sys.N - 1}")
    if pts_per_segment < 3:
        raise ValueError("need at least 3 points per segment")
    upper = spectrum.eigenvalues("upper")
    w = sys.omegas
    ks = np.arange(k_min, k_max + 1)
    s_lo = 0.5 * (w[ks - 2] + w[ks - 1])
    s_hi = 0.5 * (w[ks - 1] + w[ks])
    grid = np.linspace(s_lo, s_hi, pts_per_segment, axis=1)
    # the eigenvalue peaks of each band: the imaginary parts in [s_lo, s_hi]
    im = np.sort(upper.imag)
    first = np.searchsorted(im, s_lo, "left")
    counts = np.searchsorted(im, s_hi, "right") - first
    band = np.repeat(np.arange(ks.size), counts)
    starts = np.cumsum(counts) - counts  # where each band's peaks begin in `peaks`
    peaks = im[first[band] + np.arange(band.size) - starts[band]]

    svals = np.concatenate([grid.ravel(), peaks])
    order = np.argsort(svals, kind="stable")
    s_sorted = svals[order]
    v_sorted = _diag_bound(upper, 1j * s_sorted)
    vals = np.empty_like(v_sorted)
    vals[order] = v_sorted
    sups = vals[:grid.size].reshape(grid.shape).max(axis=1)
    np.maximum.at(sups, band, vals[grid.size:])

    if ks.size < 3:
        raise ValueError("degenerate fit: need at least 3 segments")
    centers = 0.5 * (s_lo + s_hi)
    return AxisScan(
        segments=tuple(zip(ks.tolist(), s_lo.tolist(), s_hi.tolist())),
        samples=tuple(zip(s_sorted.tolist(), v_sorted.tolist())),
        suprema=tuple(zip(ks.tolist(), centers.tolist(), sups.tolist())),
        alpha_fit=loglog_fit(centers, sups),
    )


class SegmentBoundCheck(NamedTuple):
    k: int
    sup: float
    bound: float
    applicable: bool
    ok: bool


def segment_bound_checks(scan: AxisScan,
                         certs: Mapping[int, LocalizationCertificate]
                         ) -> list[SegmentBoundCheck]:
    """Compare per-band suprema against the certified cap.

    The cap ``2 sqrt(6) / |Re lambda_star_{k+1}|`` applies on band k whenever
    the localization certificates at k-1, k, k+1 guarantee axis separation.
    """
    out = []
    for k, _center, sup in scan.suprema:
        needed = [certs.get(j) for j in (k - 1, k, k + 1)]
        applicable = all(c is not None and c.separated for c in needed)
        if applicable:
            cap = SEGMENT_BOUND_FACTOR / abs(needed[2].lambda_star.real)
            ok = sup <= cap
        else:
            cap = math.nan
            ok = True
        out.append(SegmentBoundCheck(k=k, sup=sup, bound=cap, applicable=applicable, ok=ok))
    return out
