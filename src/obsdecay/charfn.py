"""Characteristic function of the error generator and per-mode root localization.

The eigenvalues of the error generator are the zeros of the scalar
meromorphic function

    f(lam) = sum_j (c_j^2/omega_j) * (1/(lam - i omega_j) - 1/(lam + i omega_j))
             + 2i/(gamma lam),

equivalently ``2i * (sum_j c_j^2/(omega_j^2 + lam^2) + 1/(gamma lam))``.
Near the k-th mode frequency the pole at ``i omega_k`` is cleared by passing
to ``F(lam) = (lam - i omega_k) f(lam)``, which is analytic there.  Its
linearization at the center has the explicit root

    lam_k_star = i omega_k - F(i omega_k)/F'(i omega_k),

and a Rouche-type comparison of the linear part against the quadratic
remainder certifies that f has exactly one zero inside an explicit disk
around lam_k_star.  The remainder is bounded in closed form on the disk
``|lam - i omega_k| <= R1`` by ``M = sum_a |res_a| / (d_a (d_a - R1))`` over
the poles ``a != i omega_k`` of f, ``d_a = |i omega_k - a|``, because every
term of f is a simple pole (see :func:`estimate_M`).  The certificate also
records whether the disk stays a fixed fraction away from the imaginary axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemSpec

R1_FRACTION = 0.9
THETA_FRACTION_DEFAULT = 0.5
ROUCHE_MARGIN_SAMPLES = 64


class PoleError(ValueError):
    """Evaluation requested exactly at a pole of the characteristic function."""


class LocalizationError(RuntimeError):
    """The Rouche disk interval is empty; no certified enclosure at this mode."""


@dataclass(frozen=True)
class CharContext:
    """A system together with the mode index the expansion is centered on."""

    sys: SystemSpec
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.sys.N:
            raise ValueError(f"mode index must lie in [1, {self.sys.N}], got {self.k}")

    @property
    def omega_k(self) -> float:
        return float(self.sys.omegas[self.k - 1])

    @property
    def c_k(self) -> float:
        return float(self.sys.cs[self.k - 1])

    @property
    def center(self) -> complex:
        return 1j * self.omega_k


@dataclass(frozen=True)
class LocalizationCertificate:
    """Per-mode enclosure disk with the constants that back it.

    ``lambda_star`` is the predicted eigenvalue (root of the linearized
    characteristic function), ``(lambda_star, Rk)`` the enclosure disk.
    ``M`` is the closed-form bound of :func:`estimate_M` on the quadratic
    remainder over the disk ``|lam - i omega_k| <= R1``; ``b`` and
    ``c_const`` define the admissible radius interval
    ``sqrt(Rk) in (b - sqrt(b^2 - c), b + sqrt(b^2 - c))``.

    Flags:

    * ``cond_Mneq1``  -- remainder bound small enough for the Rouche argument;
    * ``cond_Mneq2``  -- stronger bound guaranteeing axis separation is
      compatible with the radius interval (meaningful for omega_k > 1);
    * ``interval_ok`` -- the chosen Rk actually lies in the admissible interval;
    * ``contained``   -- the enclosure disk stays inside the disk of radius ``R1``;
    * ``separated``   -- certified disk with Rk <= theta_frac * |Re lambda_star|.
    """

    k: int
    lambda_star: complex
    F0: complex
    F1: complex
    M: float
    R0: float
    R1: float
    b: float
    c_const: float
    Rk: float
    theta_frac: float
    cond_Mneq1: bool
    cond_Mneq2: bool
    interval_ok: bool
    contained: bool
    separated: bool
    omega_gt_1: bool

    @property
    def rouche_ok(self) -> bool:
        """All hypotheses of the one-zero enclosure verified numerically."""
        return self.cond_Mneq1 and self.interval_ok and self.contained

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "lambda_star": [self.lambda_star.real, self.lambda_star.imag],
            "F0": [self.F0.real, self.F0.imag],
            "F1": [self.F1.real, self.F1.imag],
            "M": self.M,
            "R0": self.R0,
            "R1": self.R1,
            "b": self.b,
            "c_const": self.c_const,
            "Rk": self.Rk,
            "theta_frac": self.theta_frac,
            "cond_Mneq1": self.cond_Mneq1,
            "cond_Mneq2": self.cond_Mneq2,
            "interval_ok": self.interval_ok,
            "contained": self.contained,
            "separated": self.separated,
            "omega_gt_1": self.omega_gt_1,
            "rouche_ok": self.rouche_ok,
        }


def _as_complex_array(lam) -> tuple[np.ndarray, bool]:
    arr = np.asarray(lam, dtype=complex)
    return arr, arr.ndim == 0


def _check_poles(sys: SystemSpec, lam: np.ndarray, exclude_center: int | None = None):
    """Reject evaluation points that sit exactly on a pole.

    ``exclude_center`` names a mode whose upper pole i*omega_k has been
    cleared and is therefore admissible.  A point is a pole only when its
    real part is zero, and then ``|Im lam|`` is looked up in the sorted
    frequencies.
    """
    on_axis = lam.real == 0
    if np.any(on_axis & (lam.imag == 0)):
        raise PoleError("characteristic function has a pole at 0")
    im = lam.imag[on_axis]
    mag = np.abs(im)
    idx = np.searchsorted(sys.omegas, mag).clip(max=sys.N - 1)
    hit = sys.omegas[idx] == mag
    if exclude_center is not None:
        hit &= (idx != exclude_center - 1) | (im < 0)
    if np.any(hit):
        raise PoleError("characteristic function has a pole at +/- i*omega_j")


def eval_f(sys: SystemSpec, lam):
    """Characteristic function f(lam); scalar or vectorized over lam.

    Summation order is fixed (ascending mode index), so results are
    bitwise reproducible.
    """
    arr, scalar = _as_complex_array(lam)
    _check_poles(sys, arr)
    w = sys.omegas
    c2_over_w = sys.cs**2 / w
    L = arr[..., None]
    terms = c2_over_w * (1.0 / (L - 1j * w) - 1.0 / (L + 1j * w))
    val = np.sum(terms, axis=-1) + 2j / (sys.gamma * arr)
    return complex(val) if scalar else val


def eval_f_rational(sys: SystemSpec, lam):
    """Equivalent rational form 2i * (sum_j c_j^2/(omega_j^2 + lam^2) + 1/(gamma lam))."""
    arr, scalar = _as_complex_array(lam)
    _check_poles(sys, arr)
    L = arr[..., None]
    val = 2j * (np.sum(sys.cs**2 / (sys.omegas**2 + L**2), axis=-1) + 1.0 / (sys.gamma * arr))
    return complex(val) if scalar else val


def eval_f_prime(sys: SystemSpec, lam):
    """Derivative f'(lam); scalar or vectorized over lam."""
    arr, scalar = _as_complex_array(lam)
    _check_poles(sys, arr)
    w = sys.omegas
    c2_over_w = sys.cs**2 / w
    L = arr[..., None]
    terms = c2_over_w * (-1.0 / (L - 1j * w) ** 2 + 1.0 / (L + 1j * w) ** 2)
    val = np.sum(terms, axis=-1) - 2j / (sys.gamma * arr**2)
    return complex(val) if scalar else val


def eval_F(ctx: CharContext, lam):
    """Pole-cleared product F(lam) = (lam - i omega_k) f(lam).

    Evaluated in the regrouped form whose k-th term is
    ``2i c_k^2 / (lam + i omega_k)``, finite at the center i*omega_k.
    """
    sys = ctx.sys
    arr, scalar = _as_complex_array(lam)
    _check_poles(sys, arr, exclude_center=ctx.k)
    mask = np.arange(sys.N) != ctx.k - 1
    w = sys.omegas[mask]
    c2_over_w = sys.cs[mask] ** 2 / w
    L = arr[..., None]
    others = np.sum(c2_over_w * (1.0 / (L - 1j * w) - 1.0 / (L + 1j * w)), axis=-1)
    shift = arr - 1j * ctx.omega_k
    val = shift * (others + 2j / (sys.gamma * arr)) + 2j * ctx.c_k**2 / (arr + 1j * ctx.omega_k)
    return complex(val) if scalar else val


def _other_modes(n: int, ks: np.ndarray) -> np.ndarray:
    """Row i lists the indices ``j != ks[i] - 1`` of the other modes, ascending."""
    j = np.arange(n - 1)
    return j + (j >= ks[:, None] - 1)


def _linearizations(sys: SystemSpec, ks: np.ndarray) -> list[tuple[complex, complex]]:
    """F and F' at i*omega_k for each mode k in ``ks``, the sums over j != k in one array pass.

    Row k of the sum holds the same N - 1 terms in the same order whichever
    modes share the batch, so each mode's values are bitwise the same in
    every batch.  The per-mode terms ``omega_k^2``, ``c_k^2`` and the
    complex values are formed in Python floats (numpy's square and complex
    arithmetic can differ from them in the last bit).
    """
    cols = _other_modes(sys.N, ks)
    wk = sys.omegas[ks - 1].tolist()
    wk2 = np.array([w**2 for w in wk])
    others = 2.0 * np.sum(sys.cs[cols] ** 2 / (sys.omegas[cols] ** 2 - wk2[:, None]), axis=1)
    out = []
    for w, c, o in zip(wk, sys.cs[ks - 1].tolist(), others.tolist()):
        s = o + c**2 / (2.0 * w**2)
        out.append((complex(c**2 / w), 2.0 / (sys.gamma * w) + 1j * s))
    return out


def char_linearization(ctx: CharContext) -> tuple[complex, complex]:
    """Closed-form value and derivative of F at the center i*omega_k.

    F(i omega_k)  = c_k^2 / omega_k
    F'(i omega_k) = 2i sum_{j != k} c_j^2/(omega_j^2 - omega_k^2)
                    + i c_k^2 / (2 omega_k^2) + 2/(gamma omega_k)
    """
    return _linearizations(ctx.sys, np.array([ctx.k]))[0]


def lambda_star(ctx: CharContext) -> complex:
    """First-order eigenvalue prediction near mode k.

    Root of the linear part of F at the center:
    ``lam_k_star = i omega_k - F(i omega_k) / F'(i omega_k)``.  Its real part
    is strictly negative for admissible systems (the real part of F' is
    2/(gamma omega_k) > 0 while F(i omega_k) > 0).
    """
    f0, f1 = char_linearization(ctx)
    return 1j * ctx.omega_k - f0 / f1


def lambda_stars(sys: SystemSpec) -> np.ndarray:
    """:func:`lambda_star` of every mode, with the sums over j != k in one array pass.

    Bitwise equal to ``lambda_star(CharContext(sys, k))`` for k = 1..N (see
    :func:`_linearizations`).
    """
    lin = _linearizations(sys, np.arange(1, sys.N + 1))
    return np.array([1j * w - f0 / f1 for w, (f0, f1) in zip(sys.omegas.tolist(), lin)],
                    dtype=complex)


def _convergence_radii(sys: SystemSpec, ks: np.ndarray) -> np.ndarray:
    """:func:`convergence_radius` of each mode in ``ks``."""
    gaps = np.diff(sys.omegas)
    below = np.concatenate([[np.inf], gaps])[ks - 1]
    above = np.concatenate([gaps, [np.inf]])[ks - 1]
    return np.minimum(sys.omegas[ks - 1], np.minimum(below, above))


def convergence_radius(ctx: CharContext) -> float:
    """Distance from the center i*omega_k to the nearest other singularity.

    Singularities of f are 0 and +/- i*omega_j.  The nearest ones are the
    neighbouring upper poles and the origin; lower poles are farther away.
    """
    return float(_convergence_radii(ctx.sys, np.array([ctx.k]))[0])


def _remainder_bounds(sys: SystemSpec, ks: np.ndarray, R1: np.ndarray) -> np.ndarray:
    """:func:`estimate_M` of each mode in ``ks`` at its radius in ``R1``, in one array pass.

    Row k sums the same terms in the same order whichever modes share the
    batch, so each value is bitwise the same in every batch.
    """
    wk = sys.omegas[ks - 1]
    cols = _other_modes(sys.N, ks)
    weights = sys.cs**2 / sys.omegas
    d_upper = np.abs(sys.omegas[cols] - wk[:, None])
    d_lower = sys.omegas + wk[:, None]
    upper = np.sum(weights[cols] / (d_upper * (d_upper - R1[:, None])), axis=1)
    lower = np.sum(weights / (d_lower * (d_lower - R1[:, None])), axis=1)
    return upper + lower + (2.0 / sys.gamma) / (wk * (wk - R1))


def estimate_M(ctx: CharContext, R1: float) -> float:
    """Closed-form bound on the quadratic-remainder factor of F.

    With ``s = lam - center`` and ``u = center - a`` for each pole ``a`` of f
    other than the cleared center, ``F(lam) - F(center) - s F'(center)``
    equals ``-s^2 sum_a res_a / (u (lam - a))``.  On ``|s| <= R1`` every
    ``|lam - a| >= d_a - R1``, so the factor multiplying ``|s|^2`` is at most
    ``sum_a |res_a| / (d_a (d_a - R1))``.  The poles are ``+i omega_j``
    (j != k) and ``-i omega_j`` with ``|res| = c_j^2/omega_j``, and 0 with
    ``|res| = 2/gamma``.
    """
    R0 = convergence_radius(ctx)
    if not 0.0 < R1 < R0:
        raise ValueError(f"R1 must lie in (0, {R0}), got {R1}")
    return float(_remainder_bounds(ctx.sys, np.array([ctx.k]), np.array([R1]))[0])


def localize_modes(sys: SystemSpec, ks,
                   theta_frac: float = THETA_FRACTION_DEFAULT
                   ) -> tuple[dict[int, LocalizationCertificate], dict[int, str]]:
    """Enclosure certificates of the modes ``ks``, with their O(N) sums in one array pass.

    F0, F1, lambda_star, R0, ``R1 = R1_FRACTION * R0`` and the remainder
    bound M of every mode come from whole-batch arrays (bitwise what each
    mode alone gives); the radius choice below then runs per mode.  The disk
    radius is chosen as
    ``min(theta_frac * |Re lambda_star|, (0.5 * (b + sqrt(b^2 - c)))^2)`` and,
    when that falls outside the admissible interval, clamped just inside it
    provided axis separation survives; otherwise the certificate degrades to
    an uncertified disk of radius ``theta_frac * |Re lambda_star|``.

    Returns ``(certificates, failures)``, both keyed by mode: the certificate
    of each mode that localizes, and the :class:`LocalizationError` text of
    each mode whose admissible interval is empty (b^2 <= c).
    """
    if not 0.0 < theta_frac < 1.0:
        raise ValueError("theta_frac must lie in (0, 1)")
    ks = np.asarray(ks, dtype=int)
    if np.any((ks < 1) | (ks > sys.N)):
        raise ValueError(f"mode indices must lie in [1, {sys.N}]")
    R0 = _convergence_radii(sys, ks)
    R1 = R1_FRACTION * R0
    Ms = _remainder_bounds(sys, ks, R1)
    certs, failures = {}, {}
    for k, wk, ck, (f0, f1), r0, r1, M in zip(
            ks.tolist(), sys.omegas[ks - 1].tolist(), sys.cs[ks - 1].tolist(),
            _linearizations(sys, ks), R0.tolist(), R1.tolist(), Ms.tolist()):
        lam_s = 1j * wk - f0 / f1
        abs_f0, abs_f1 = abs(f0), abs(f1)
        b = math.sqrt(abs_f1 / (4.0 * M))
        c_const = abs(f0 / f1)
        cond1 = 0.0 < M < abs_f1**2 / (4.0 * abs_f0)
        gw = sys.gamma * wk
        cond2 = M < gw * abs_f1**3 / (ck**2 * (gw * abs_f1 + 1.0) ** 2)

        if b * b <= c_const:
            failures[k] = (f"mode {k}: empty admissible radius interval (b^2 = {b*b:.3e} "
                           f"<= c = {c_const:.3e})")
            continue
        root = math.sqrt(b * b - c_const)
        lo = (b - root) ** 2
        hi = (b + root) ** 2
        sep_target = theta_frac * abs(lam_s.real)

        candidate = min(sep_target, (0.5 * (b + root)) ** 2)
        if lo < candidate < hi:
            rk, interval_ok = candidate, True
        else:
            clamped = min(max(candidate, lo * (1.0 + 1e-9)), hi * (1.0 - 1e-9))
            if lo < clamped < hi and clamped <= sep_target:
                rk, interval_ok = clamped, True
            else:
                rk = sep_target
                interval_ok = lo < rk < hi

        contained = c_const + rk <= r1
        separated = bool(
            interval_ok and cond1 and contained and rk <= sep_target * (1.0 + 1e-12)
        )
        certs[k] = LocalizationCertificate(
            k=k, lambda_star=lam_s, F0=f0, F1=f1, M=M, R0=r0, R1=r1,
            b=b, c_const=c_const, Rk=rk, theta_frac=theta_frac,
            cond_Mneq1=bool(cond1), cond_Mneq2=bool(cond2),
            interval_ok=bool(interval_ok), contained=bool(contained),
            separated=separated, omega_gt_1=bool(wk > 1.0),
        )
    return certs, failures


def localize(ctx: CharContext,
             theta_frac: float = THETA_FRACTION_DEFAULT) -> LocalizationCertificate:
    """Build the enclosure certificate for one mode: :func:`localize_modes` on a batch of one.

    Raises LocalizationError when the admissible interval is empty (b^2 <= c).
    """
    certs, failures = localize_modes(ctx.sys, [ctx.k], theta_frac)
    if failures:
        raise LocalizationError(failures[ctx.k])
    return certs[ctx.k]


def rouche_margin(ctx: CharContext, cert: LocalizationCertificate) -> float:
    """Smallest value of |g| - |r| on the enclosure circle.

    ``g`` is the linear part of F at the center, ``r = F - g`` the remainder.
    A positive margin is the dominance hypothesis behind the one-zero
    enclosure, checked directly at the sampled contour points.
    """
    t = 2.0 * np.pi * np.arange(ROUCHE_MARGIN_SAMPLES) / ROUCHE_MARGIN_SAMPLES
    lam = cert.lambda_star + cert.Rk * np.exp(1j * t)
    shift = lam - ctx.center
    g = cert.F0 + shift * cert.F1
    r = eval_F(ctx, lam) - g
    return float(np.min(np.abs(g) - np.abs(r)))
