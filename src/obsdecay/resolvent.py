"""Closed-form resolvent of the error generator and imaginary-axis norm scans.

Solving ``(A - lam I) eps = rhs`` reduces to one scalar coupling equation:
with ``phi = sum_j c_j (q_j + p_j)`` the solution components are

    q_j = -((gamma/2) c_j phi + rhs.q_j) / (i omega_j + lam),
    p_j =  ((gamma/2) c_j phi + rhs.p_j) / (i omega_j - lam),

and phi itself is a ratio whose denominator
``1 + gamma lam sum_j c_j^2/(omega_j^2 + lam^2)`` vanishes exactly at the
eigenvalues.  At the mode frequencies ``lam = +/- i omega_k`` the generic
formulas degenerate; dedicated branch formulas cover those two families.

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


def _match_mode(sys: SystemSpec, lam: complex) -> Optional[tuple[int, float]]:
    """(k, sign) when lam equals sign * i * omega_k exactly, else None."""
    if lam.real == 0.0:
        hits = np.nonzero(sys.omegas == abs(lam.imag))[0]
        if hits.size:
            return int(hits[0]) + 1, math.copysign(1.0, lam.imag)
    return None


def apply_resolvent(sys: SystemSpec, lam: complex, rhs: StateVector) -> StateVector:
    """Apply ``(A - lam I)^{-1}`` to a state.

    Valid for any lam in the resolvent set; the two singular families
    ``lam = +/- i omega_k`` are dispatched to their dedicated formulas.
    Raises for lam = 0 and for lam numerically at an eigenvalue.
    """
    lam = complex(lam)
    if lam == 0:
        raise PoleError("the resolvent is not evaluated at lam = 0")
    if rhs.n_modes != sys.N:
        raise ValueError(f"rhs has {rhs.n_modes} modes, system has {sys.N}")
    hit = _match_mode(sys, lam)
    if hit is not None:
        k, sign = hit
        return _apply_resolvent_at_pole(sys, k, sign, rhs)

    w = sys.omegas
    c = sys.cs
    gamma = sys.gamma
    denom_terms = w**2 + lam**2
    dval = 1.0 + gamma * lam * np.sum(c**2 / denom_terms)
    if abs(dval) < EIGEN_PROXIMITY_TOL:
        raise SpectrumProximityError(
            f"lam = {lam} is numerically in the spectrum (|denominator| = {abs(dval):.3e})"
        )
    numer = np.sum(c / denom_terms * ((1j * w - lam) * rhs.q - (1j * w + lam) * rhs.p))
    phi = numer / dval
    inj = 0.5 * gamma * c * phi
    q = -(inj + rhs.q) / (1j * w + lam)
    p = (inj + rhs.p) / (1j * w - lam)
    return StateVector(q=q, p=p)


def _apply_resolvent_at_pole(sys: SystemSpec, k: int, sign: float,
                             rhs: StateVector) -> StateVector:
    """Resolvent at lam = sign * i * omega_k.

    One output component is determined by the scalar coupling constraint
    rather than by division: p_k for the upper family, q_k for the lower.
    """
    w = sys.omegas
    c = sys.cs
    gamma = sys.gamma
    ki = k - 1
    ck = c[ki]
    lam = sign * 1j * w[ki]
    mask = np.arange(sys.N) != ki
    if sign > 0:
        pivot = rhs.p[ki]
        q = -(rhs.q - (c / ck) * pivot) / (1j * w + lam)
        den = 1j * w - lam
        den[ki] = 1.0  # placeholder; the k-th entry is overwritten below
        p = (rhs.p - (c / ck) * pivot) / den
        p[ki] = -(2.0 / (gamma * ck) * pivot + np.sum(c * q) + np.sum(c[mask] * p[mask])) / ck
    else:
        pivot = rhs.q[ki]
        p = (rhs.p - (c / ck) * pivot) / (1j * w - lam)
        den = 1j * w + lam
        den[ki] = 1.0
        q = -(rhs.q - (c / ck) * pivot) / den
        q[ki] = -(2.0 / (gamma * ck) * pivot + np.sum(c * p) + np.sum(c[mask] * q[mask])) / ck
    return StateVector(q=q, p=p)


def _diag_bound(upper: np.ndarray, lower: np.ndarray, lams) -> np.ndarray:
    """Diagonal-model resolvent bound ``sqrt(d_lo^-2 + d_up^-2)`` at each point.

    ``d_up`` (``d_lo``) is the distance from the point to the nearest of the
    ``upper`` (``lower``) eigenvalues.
    """
    pts = np.asarray(lams, dtype=complex)[:, None]
    d_up = np.min(np.abs(upper[None, :] - pts), axis=1)
    d_lo = np.min(np.abs(lower[None, :] - pts), axis=1)
    hit = (d_up == 0.0) | (d_lo == 0.0)
    if np.any(hit):
        raise SpectrumProximityError(f"lam = {pts[hit, 0][0]} is an eigenvalue")
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
        return float(_diag_bound(spectrum.eigenvalues("upper"),
                                 spectrum.eigenvalues("lower"), [lam])[0])
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
    are then fitted in log-log coordinates against the band centers.
    """
    k_min, k_max = k_range
    if not (2 <= k_min < k_max <= sys.N - 1):
        raise ValueError(f"k_range must satisfy 2 <= k_min < k_max <= N-1 = {sys.N - 1}")
    if pts_per_segment < 3:
        raise ValueError("need at least 3 points per segment")
    upper = spectrum.eigenvalues("upper")
    lower = spectrum.eigenvalues("lower")
    segments = []
    suprema = []
    all_samples = []
    w = sys.omegas
    im_parts = upper.imag
    for k in range(k_min, k_max + 1):
        s_lo = 0.5 * (w[k - 2] + w[k - 1])
        s_hi = 0.5 * (w[k - 1] + w[k])
        grid = np.linspace(s_lo, s_hi, pts_per_segment)
        peaks = im_parts[(im_parts >= s_lo) & (im_parts <= s_hi)]
        svals = np.sort(np.concatenate([grid, peaks]))
        vals = _diag_bound(upper, lower, 1j * svals)
        segments.append((k, float(s_lo), float(s_hi)))
        suprema.append((k, float(0.5 * (s_lo + s_hi)), float(np.max(vals))))
        all_samples.extend(zip(svals.tolist(), vals.tolist()))

    all_samples.sort(key=lambda pair: pair[0])
    if len(suprema) < 3:
        raise ValueError("degenerate fit: need at least 3 segments")
    fit = loglog_fit([s for _, s, _ in suprema], [v for _, _, v in suprema])
    return AxisScan(
        segments=tuple(segments),
        samples=tuple(all_samples),
        suprema=tuple(suprema),
        alpha_fit=fit,
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
