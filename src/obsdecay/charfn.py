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

``F(i omega_k)``, ``F'(i omega_k)`` and ``F''(i omega_k)`` of every mode are
formed once per system (:attr:`~obsdecay.model.SystemSpec.linearization`),
and the disks of a batch of modes come back as the columns of a
:class:`LocalizationReport`.  The localization keeps the paper's first-order
``lam_k_star``; Newton starts from the second-order prediction, taken as its
offset from ``i omega_k`` (:func:`newton_seed_offsets`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .model import SystemSpec, _without_own

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
    real part is zero, so a batch with no such point passes at once; on
    the axis ``|Im lam|`` is looked up in the sorted frequencies.
    """
    on_axis = lam.real == 0
    if not on_axis.any():
        return
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
    iw = sys.iw
    L = arr[..., None]
    # c2_over_w * (1/(L - iw) - 1/(L + iw)), in two reused temporaries
    terms = np.subtract(L, iw)
    np.divide(1.0, terms, out=terms)
    lower = np.add(L, iw)
    np.divide(1.0, lower, out=lower)
    np.subtract(terms, lower, out=terms)
    np.multiply(sys.c2_over_w, terms, out=terms)
    val = terms.sum(axis=-1) + 2j / (sys.gamma * arr)
    return complex(val) if scalar else val


def _square(x: np.ndarray) -> np.ndarray:
    """``x ** 2``, in place when ``x`` has two or more elements.

    numpy squares a lone complex element in place by another loop than
    ``x ** 2`` uses, and the two can round differently.
    """
    return np.square(x, out=x if x.size > 1 else None)


def eval_f_prime(sys: SystemSpec, lam):
    """Derivative f'(lam); scalar or vectorized over lam."""
    arr, scalar = _as_complex_array(lam)
    _check_poles(sys, arr)
    iw = sys.iw
    L = arr[..., None]
    # c2_over_w * (-1/(L - iw)**2 + 1/(L + iw)**2), in two reused temporaries
    terms = _square(np.subtract(L, iw))
    np.divide(-1.0, terms, out=terms)
    lower = _square(np.add(L, iw))
    np.divide(1.0, lower, out=lower)
    np.add(terms, lower, out=terms)
    np.multiply(sys.c2_over_w, terms, out=terms)
    val = terms.sum(axis=-1) - 2j / (sys.gamma * arr**2)
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


def _quotients(f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """``f0 / f1`` elementwise, by Python's complex division (numpy's can differ in the last bit)."""
    return np.array([a / b for a, b in zip(f0.tolist(), f1.tolist())], dtype=complex)


def _quadratic_offset(w: float, f0: complex, f1: complex, f2: complex) -> complex:
    """The root nearest ``i w`` of the quadratic Taylor model of ``G(lam) = lam F(lam)``
    there, as its offset ``mu`` from ``i w``.

    ``G0 = i w F0``, ``G1 = F0 + i w F1`` and ``G2 = 2 F1 + i w F2`` are G and
    its first two derivatives at ``i w``; the root is ``i w + mu`` with
    ``mu = -2 G0 / (G1 +/- sqrt(G1^2 - 2 G0 G2))``, the sign making the
    denominator largest (the first on a tie).  ``Im G1 = w Re F1 =
    2/gamma > 0``, so the denominator never vanishes.  ``mu`` is returned
    before it is added to ``i w``, so none of its digits are lost to the
    spacing of floats near ``w``.
    """
    center = complex(0.0, w)
    g0 = center * f0
    g1 = f0 + center * f1
    g2 = 2.0 * f1 + center * f2
    root = cmath.sqrt(g1 * g1 - 2.0 * g0 * g2)
    return -2.0 * g0 / max(g1 + root, g1 - root, key=abs)


def newton_seed_offsets(sys: SystemSpec) -> np.ndarray:
    """Every mode's Newton seed, the second-order prediction, as its offset from ``i omega_k``.

    Each is :func:`_quadratic_offset` of F, F' and F'' at ``i omega_k``, read
    from :attr:`~obsdecay.model.SystemSpec.linearization`.  The factor ``lam``
    of ``G = lam F`` clears the pole of f at 0, so the model holds out to the
    nearest other mode pole.
    """
    rows = zip(sys.omegas.tolist(), *sys.linearization.tolist())
    return np.array([_quadratic_offset(*row) for row in rows], dtype=complex)


def _convergence_radii(sys: SystemSpec, ks: np.ndarray) -> np.ndarray:
    """Distance from each center ``i omega_k``, k in ``ks``, to its nearest other pole of f:
    a neighbouring upper pole or 0 (the lower poles are farther)."""
    gaps = np.diff(sys.omegas)
    below = np.concatenate([[np.inf], gaps])[ks - 1]
    above = np.concatenate([gaps, [np.inf]])[ks - 1]
    return np.minimum(sys.omegas[ks - 1], np.minimum(below, above))


def _remainder_bounds(sys: SystemSpec, ks: np.ndarray, R1: np.ndarray) -> np.ndarray:
    """:func:`estimate_M` of each mode in ``ks`` at its radius in ``R1``, in one array pass.

    Row k sums the same terms in the same order whichever modes share the
    batch, so each value is bitwise the same in every batch.
    """
    wk = sys.omegas[ks - 1]
    weights = sys.c2_over_w
    r1 = R1[:, None]
    # weights / (d (d - r1)) with d = |omega_j - omega_k|, then d = omega_j + omega_k,
    # in two reused arrays
    d = np.subtract(sys.omegas, wk[:, None])
    np.abs(d, out=d)
    terms = np.subtract(d, r1)
    np.multiply(d, terms, out=terms)
    with np.errstate(divide="ignore"):  # the cleared pole j = k, dropped below
        np.divide(weights, terms, out=terms)
    upper = np.sum(_without_own(terms, ks), axis=1)
    np.add(sys.omegas, wk[:, None], out=d)
    np.subtract(d, r1, out=terms)
    np.multiply(d, terms, out=terms)
    np.divide(weights, terms, out=terms)
    return upper + np.sum(terms, axis=1) + (2.0 / sys.gamma) / (wk * (wk - R1))


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
    R0 = float(_convergence_radii(ctx.sys, np.array([ctx.k]))[0])
    if not 0.0 < R1 < R0:
        raise ValueError(f"R1 must lie in (0, {R0}), got {R1}")
    return float(_remainder_bounds(ctx.sys, np.array([ctx.k]), np.array([R1]))[0])


def _freeze_columns(report, columns: dict[str, type]) -> None:
    """Make each named column of a frozen report a read-only array of its dtype.

    Raises ValueError unless every column has the length of the first.
    """
    size = np.size(getattr(report, next(iter(columns))))
    for name, dtype in columns.items():
        col = np.array(getattr(report, name), dtype=dtype)
        if col.shape != (size,):
            raise ValueError(f"column {name!r} has shape {col.shape}, expected ({size},)")
        col.flags.writeable = False
        object.__setattr__(report, name, col)


# the per-mode columns of a LocalizationReport and their dtypes
_COLUMNS = {"k": int, "lambda_star": complex, "F0": complex, "F1": complex, "M": float,
            "R0": float, "R1": float, "b": float, "c_const": float, "Rk": float,
            "cond_Mneq1": bool, "cond_Mneq2": bool, "interval_ok": bool, "contained": bool,
            "separated": bool, "omega_gt_1": bool}


@dataclass(frozen=True, eq=False)
class LocalizationReport:
    """Enclosure disks of a batch of modes, one row per mode that localizes.

    Each column is one read-only array over those modes, by ascending ``k``,
    and means what the :class:`LocalizationCertificate` field of that name
    means; ``theta_frac`` is shared by every row.  ``failures`` maps each
    requested mode whose admissible interval is empty (b^2 <= c) to its
    :class:`LocalizationError` text.  The per-mode certificate records are
    built only when :attr:`certificates` is read.
    """

    k: np.ndarray
    lambda_star: np.ndarray
    F0: np.ndarray
    F1: np.ndarray
    M: np.ndarray
    R0: np.ndarray
    R1: np.ndarray
    b: np.ndarray
    c_const: np.ndarray
    Rk: np.ndarray
    cond_Mneq1: np.ndarray
    cond_Mneq2: np.ndarray
    interval_ok: np.ndarray
    contained: np.ndarray
    separated: np.ndarray
    omega_gt_1: np.ndarray
    theta_frac: float
    failures: Mapping[int, str]

    def __post_init__(self):
        _freeze_columns(self, _COLUMNS)
        object.__setattr__(self, "failures", MappingProxyType(dict(self.failures)))

    @property
    def rouche_ok(self) -> np.ndarray:
        """:attr:`LocalizationCertificate.rouche_ok` of each row."""
        return self.cond_Mneq1 & self.interval_ok & self.contained

    @cached_property
    def certificates(self) -> Mapping[int, LocalizationCertificate]:
        """The certificate of each row, keyed by mode."""
        rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        return MappingProxyType({
            row[0]: LocalizationCertificate(theta_frac=self.theta_frac, **dict(zip(_COLUMNS, row)))
            for row in rows
        })

    def to_json_dict(self) -> dict:
        """The ``localization.json`` document: one record per row, that of its
        certificate, and the failed modes in ascending order."""
        return {"certificates": [c.to_json_dict() for c in self.certificates.values()],
                "failed_modes": sorted(self.failures)}


def _pow(x: np.ndarray, p: int) -> np.ndarray:
    """``x ** p`` elementwise by Python's float power (numpy squares instead, which can
    differ from it in the last bit)."""
    return np.array([v**p for v in x.tolist()])


def localize_modes(sys: SystemSpec, ks,
                   theta_frac: float = THETA_FRACTION_DEFAULT) -> LocalizationReport:
    """Enclosure disks of the modes ``ks`` (any order, repeats allowed), in array passes.

    F0 and F1 come from the system's cached
    :attr:`~obsdecay.model.SystemSpec.linearization`; R0,
    ``R1 = R1_FRACTION * R0`` and the remainder bound M of every mode come
    from whole-batch arrays.  The disk radius is chosen as
    ``min(theta_frac * |Re lambda_star|, (0.5 * (b + sqrt(b^2 - c)))^2)`` and,
    when that falls outside the admissible interval, clamped just inside it
    provided axis separation survives; otherwise the certificate degrades to
    an uncertified disk of radius ``theta_frac * |Re lambda_star|``.  Every
    column is bitwise what the same steps give one mode at a time in Python
    floats: the powers and the complex quotient are taken in Python.

    The report has a row for each distinct mode that localizes and a
    :class:`LocalizationError` text in ``failures`` for each one whose
    admissible interval is empty (b^2 <= c).
    """
    if not 0.0 < theta_frac < 1.0:
        raise ValueError("theta_frac must lie in (0, 1)")
    ks = np.asarray(ks, dtype=int)
    if np.any((ks < 1) | (ks > sys.N)):
        raise ValueError(f"mode indices must lie in [1, {sys.N}]")
    requested = np.zeros(sys.N + 1, dtype=bool)
    requested[ks] = True
    ks = np.flatnonzero(requested)  # distinct, ascending
    f0, f1 = sys.linearization[:2, ks - 1]
    wk, ck = sys.omegas[ks - 1], sys.cs[ks - 1]
    R0 = _convergence_radii(sys, ks)
    R1 = R1_FRACTION * R0
    M = _remainder_bounds(sys, ks, R1)
    quot = _quotients(f0, f1)
    abs_f0, abs_f1 = np.hypot(f0.real, f0.imag), np.hypot(f1.real, f1.imag)
    b = np.sqrt(abs_f1 / (4.0 * M))
    c_const = np.hypot(quot.real, quot.imag)
    cond1 = (0.0 < M) & (M < _pow(abs_f1, 2) / (4.0 * abs_f0))
    gw = sys.gamma * wk
    cond2 = M < gw * _pow(abs_f1, 3) / (_pow(ck, 2) * _pow(gw * abs_f1 + 1.0, 2))

    empty = b * b <= c_const
    failures = {k: f"mode {k}: empty admissible radius interval (b^2 = {bb:.3e} <= c = {c:.3e})"
                for k, bb, c in zip(ks[empty].tolist(), (b * b)[empty].tolist(),
                                    c_const[empty].tolist())}
    ok = ~empty
    b, c_const, R1 = b[ok], c_const[ok], R1[ok]
    lam_s = 1j * wk[ok] - quot[ok]
    root = np.sqrt(b * b - c_const)
    lo, hi = _pow(b - root, 2), _pow(b + root, 2)
    sep_target = theta_frac * np.abs(lam_s.real)
    # min and max as Python's, which keep their first argument on a tie
    half = _pow(0.5 * (b + root), 2)
    candidate = np.where(half < sep_target, half, sep_target)
    inside = (lo < candidate) & (candidate < hi)
    floor, ceiling = lo * (1.0 + 1e-9), hi * (1.0 - 1e-9)
    clamped = np.where(floor > candidate, floor, candidate)
    clamped = np.where(ceiling < clamped, ceiling, clamped)
    clamp_ok = (lo < clamped) & (clamped < hi) & (clamped <= sep_target)
    rk = np.where(inside, candidate, np.where(clamp_ok, clamped, sep_target))
    interval_ok = inside | clamp_ok | ((lo < sep_target) & (sep_target < hi))
    contained = c_const + rk <= R1
    separated = interval_ok & cond1[ok] & contained & (rk <= sep_target * (1.0 + 1e-12))
    return LocalizationReport(
        k=ks[ok], lambda_star=lam_s, F0=f0[ok], F1=f1[ok], M=M[ok], R0=R0[ok], R1=R1,
        b=b, c_const=c_const, Rk=rk, cond_Mneq1=cond1[ok], cond_Mneq2=cond2[ok],
        interval_ok=interval_ok, contained=contained, separated=separated,
        omega_gt_1=wk[ok] > 1.0, theta_frac=theta_frac, failures=failures,
    )


def localize(ctx: CharContext,
             theta_frac: float = THETA_FRACTION_DEFAULT) -> LocalizationCertificate:
    """Build the enclosure certificate for one mode: :func:`localize_modes` on a batch of one.

    Raises LocalizationError when the admissible interval is empty (b^2 <= c).
    """
    rep = localize_modes(ctx.sys, [ctx.k], theta_frac)
    if rep.failures:
        raise LocalizationError(rep.failures[ctx.k])
    return rep.certificates[ctx.k]


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
