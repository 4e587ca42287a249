"""Truncated modal system definition and standing-assumption certificates.

A system is a finite family of undamped modes with angular frequencies
``omega_1 < omega_2 < ... < omega_N``, scalar output coefficients ``c_j != 0``
and an output-injection gain ``gamma > 0``.  All downstream spectral
certificates refer to this truncated system.

Standing assumptions checked here:

* strictly increasing positive frequencies with nonzero coefficients
  (enforced at construction);
* a uniform frequency gap ``omega_{j+1} - omega_j >= kappa > 0``;
* a coupling lower bound ``|c_k| * omega_k**(alpha/2) >= beta`` for
  ``k0 <= k <= N`` (finite-range: only N modes exist), ``alpha`` in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

# The coupling bound counts as holding for exponents alpha in [ALPHA_MIN,
# ALPHA_MAX]; the bound at alpha implies it at every larger alpha on the modes
# with omega > 1, and the pipeline divides by alpha, so alpha is floored.
ALPHA_MIN = 0.1
ALPHA_MAX = 8.0


@dataclass(frozen=True)
class SystemSpec:
    """Validated, immutable truncated modal system.

    ``omegas`` and ``cs`` are read-only copies of the arrays passed in, so
    neither a later write to those arrays nor one through the instance can
    change a validated system.  The per-system constants that the
    characteristic function, Newton and the resolvent read on every call
    (:attr:`iw`, :attr:`c2_over_w`, the pole tables, the stacked resolvent
    arrays and the :attr:`linearization` at each mode) are built once per
    instance, on first use, and are read-only as well.

    Attributes
    ----------
    gamma : float
        Observer output-injection gain, > 0.
    omegas : np.ndarray
        Mode frequencies, strictly increasing, all > 0 (read-only).
    cs : np.ndarray
        Output coefficients, all nonzero (read-only).
    generator : dict or None
        Provenance record when the system came from a closed-form family
        (enables closed-form tail bounds for truncated series).
    """

    gamma: float
    omegas: np.ndarray
    cs: np.ndarray
    generator: Optional[dict] = None

    def __post_init__(self):
        omegas = np.array(self.omegas, dtype=float)
        cs = np.array(self.cs, dtype=float)
        if omegas.ndim != 1 or cs.ndim != 1:
            raise ValueError("omegas and cs must be 1-d sequences")
        if omegas.size == 0:
            raise ValueError("at least one mode is required")
        if omegas.size != cs.size:
            raise ValueError(
                f"omegas and cs must have equal length, got {omegas.size} and {cs.size}"
            )
        if not np.all(np.isfinite(omegas)) or not np.all(np.isfinite(cs)):
            raise ValueError("omegas and cs must be finite")
        if omegas[0] <= 0.0:
            raise ValueError("frequencies must be positive")
        if np.any(np.diff(omegas) <= 0.0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(cs == 0.0):
            raise ValueError("output coefficients must be nonzero")
        if not (isinstance(self.gamma, (int, float)) and math.isfinite(self.gamma)):
            raise ValueError("gamma must be a finite number")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "omegas", _read_only(omegas))
        object.__setattr__(self, "cs", _read_only(cs))

    def __reduce__(self):
        # copies and pickles are rebuilt through validation, so their arrays are read-only too
        return SystemSpec, (self.gamma, self.omegas, self.cs, self.generator)

    @property
    def N(self) -> int:
        return self.omegas.size

    @cached_property
    def iw(self) -> np.ndarray:
        """Upper poles ``i omega_j`` of the characteristic function."""
        return _read_only(1j * self.omegas)

    @cached_property
    def c2_over_w(self) -> np.ndarray:
        """Pole weights ``c_j^2 / omega_j``: ``|res|`` of f at ``+/- i omega_j``."""
        return _read_only(self.cs**2 / self.omegas)

    @cached_property
    def pole_residues(self) -> np.ndarray:
        """``|res|`` of f at each pole: ``2/gamma`` at 0, then ``c_j^2/omega_j`` at each
        ``i omega_j`` and again at each ``-i omega_j``."""
        return _read_only(np.concatenate([[2.0 / self.gamma], self.c2_over_w, self.c2_over_w]))

    @cached_property
    def pole_shifts(self) -> np.ndarray:
        """Every pole seen from each upper pole: an ``N x (2N+1)`` complex table.

        Row k holds ``i omega_k - a`` for the poles ``a`` = 0, then each
        ``i omega_j``, then each ``-i omega_j``: ``i omega_k``, ``i (omega_k -
        omega_j)`` and ``i (omega_k + omega_j)``, each with real part exactly
        0.  A point ``lam = i omega_k + mu`` has ``lam - a = mu + shift``; the
        own shift (column k) is exactly 0.  The table is written in place
        through its real and imaginary views, so building it allocates
        nothing beyond the table itself.
        """
        n, w = self.N, self.omegas
        shifts = np.empty((n, 2 * n + 1), dtype=complex)
        shifts.real = 0.0
        im = shifts.imag
        im[:, 0] = w
        np.subtract.outer(w, w, out=im[:, 1:n + 1])
        np.add.outer(w, w, out=im[:, n + 1:])
        return _read_only(shifts)

    @cached_property
    def residues(self) -> np.ndarray:
        """Residues of f at the columns of :attr:`pole_shifts`: ``2i/gamma`` at 0, then
        ``c_j^2/omega_j`` at each ``i omega_j`` and ``-c_j^2/omega_j`` at each ``-i omega_j``."""
        res = np.concatenate([[0.0], self.c2_over_w, -self.c2_over_w]).astype(complex)
        res[0] = complex(0.0, 2.0 / self.gamma)
        return _read_only(res)

    @cached_property
    def resolvent_offsets(self) -> np.ndarray:
        """Stacked ``(-i omega, i omega)``: the diagonal of ``A - lam I`` is this minus lam."""
        return _read_only(np.concatenate([-self.iw, self.iw]))

    @cached_property
    def resolvent_couplings(self) -> np.ndarray:
        """Stacked ``(c, c)``: the output coefficient of each q and each p entry."""
        return _read_only(np.concatenate([self.cs, self.cs]))

    @cached_property
    def linearization(self) -> np.ndarray:
        """``F``, ``F'`` and ``F''`` at ``i omega_k`` (rows 0, 1, 2) of every mode k.

        ``F(lam) = (lam - i omega_k) f(lam)`` is the characteristic function
        with its pole at ``i omega_k`` cleared (see :mod:`obsdecay.charfn`):

            F(i omega_k)   = c_k^2 / omega_k,
            F'(i omega_k)  = 2/(gamma omega_k)
                             + i (2 sum_{j != k} c_j^2/(omega_j^2 - omega_k^2) + c_k^2/(2 omega_k^2)),
            F''(i omega_k) = 8 omega_k sum_{j != k} c_j^2/(omega_j^2 - omega_k^2)^2
                             - c_k^2/(2 omega_k^3) + 4i/(gamma omega_k^2).

        Rows 0 and 1 are the linearization behind the paper's ``lambda_star``;
        row 2 completes the quadratic model that seeds Newton.
        """
        return _read_only(_linearizations(self.gamma, self.omegas, self.cs))

    def min_gap(self) -> float:
        """Smallest frequency gap; +inf for a single-mode system."""
        if self.N < 2:
            return math.inf
        return float(np.min(np.diff(self.omegas)))

    def coupling_sum(self) -> float:
        """Partial sum of c_j^2 / omega_j over the retained modes."""
        return float(np.sum(self.c2_over_w))

    def coupling_sum_tail_bound(self) -> Optional[float]:
        """Closed-form bound on the dropped tail of sum c_j^2/omega_j.

        Only available when the system carries generator provenance.  For the
        quadratic-frequency family (omega_j = theta j^2, c_j = sigma/j) the
        tail is sum_{j>N} sigma^2/(theta j^4) <= sigma^2 / (3 theta N^3).
        """
        if self.generator is None or self.generator.get("type") != "beam":
            return None
        theta = self.generator["theta"]
        sigma = self.generator["sigma"]
        return sigma**2 / (3.0 * theta * self.N**3)

    def to_json_dict(self) -> dict:
        if self.generator is not None:
            return {"gamma": self.gamma, "generator": dict(self.generator)}
        return {
            "gamma": self.gamma,
            "modes": [
                {"omega": float(w), "c": float(c)} for w, c in zip(self.omegas, self.cs)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict) -> "SystemSpec":
        if "gamma" not in doc:
            raise ValueError("system document must carry 'gamma'")
        gamma = doc["gamma"]
        if "generator" in doc:
            gen = doc["generator"]
            if gen.get("type") != "beam":
                raise ValueError(f"unknown generator type: {gen.get('type')!r}")
            return beam_example(gen["theta"], gen["sigma"], gen["N"], gamma=gamma)
        if "modes" in doc:
            modes = doc["modes"]
            omegas = [m["omega"] for m in modes]
            cs = [m["c"] for m in modes]
            return build_system(gamma, omegas, cs)
        raise ValueError("system document must carry 'modes' or 'generator'")

    @staticmethod
    def from_json(text: str) -> "SystemSpec":
        return SystemSpec.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class AssumptionCertificate:
    """Result of checking the gap and coupling assumptions on one system.

    ``kappa`` is the smallest frequency gap (+inf for N = 1); ``alpha`` is the
    first double >= ``ALPHA_MIN`` making ``|c_k| omega_k**(alpha/2) >= beta`` hold
    on the modes ``k >= k0`` with ``omega_k > 1``, even where ``holds_A3`` -- the
    bound at ``alpha`` on every mode ``k >= k0``, and ``alpha <= ALPHA_MAX`` -- fails.
    The certificate is finite-range: it reports what holds up to mode N.
    """

    kappa: float
    alpha: float
    beta: float
    k0: int
    holds_A2: bool
    holds_A3: bool

    @property
    def holds(self) -> bool:
        return self.holds_A2 and self.holds_A3

    def to_json_dict(self) -> dict:
        return {
            "kappa": None if math.isinf(self.kappa) else self.kappa,
            "alpha": self.alpha,
            "beta": self.beta,
            "k0": self.k0,
            "holds_A2": self.holds_A2,
            "holds_A3": self.holds_A3,
        }


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _without_own(terms: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Row i of the ``(len(ks), N)`` array ``terms`` without its column ``ks[i] - 1``.

    The result is a contiguous ``(len(ks), N - 1)`` array, so a row sum adds
    the same N - 1 terms in the same order whichever modes share the batch.
    """
    keep = np.arange(terms.shape[1]) != ks[:, None] - 1
    return terms[keep].reshape(ks.size, terms.shape[1] - 1)


def _linearizations(gamma: float, omegas: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """:attr:`SystemSpec.linearization`, the sums over j != k in one N x N pass.

    The per-mode terms ``omega_k^2``, ``c_k^2`` and the complex values are
    formed in Python floats (numpy's square and complex arithmetic can
    differ from them in the last bit).
    """
    wk = omegas.tolist()
    wk2 = np.array([w**2 for w in wk])
    ks = np.arange(1, omegas.size + 1)
    gaps = omegas**2 - wk2[:, None]
    with np.errstate(divide="ignore"):  # the own term j = k, dropped below
        terms = cs**2 / gaps
        others = 2.0 * np.sum(_without_own(terms, ks), axis=1)
        np.square(gaps, out=gaps)  # F'' reuses both N x N arrays
        np.divide(cs**2, gaps, out=terms)
    bends = 8.0 * np.sum(_without_own(terms, ks), axis=1)
    f0, f1, f2 = [], [], []
    for w, c, o, b in zip(wk, cs.tolist(), others.tolist(), bends.tolist()):
        f0.append(complex(c**2 / w))
        f1.append(2.0 / (gamma * w) + 1j * (o + c**2 / (2.0 * w**2)))
        f2.append(complex(w * b - c**2 / (2.0 * w**3), 4.0 / (gamma * w**2)))
    return np.array([f0, f1, f2], dtype=complex)


def build_system(gamma: float, omegas: Sequence[float], cs: Sequence[float]) -> SystemSpec:
    """Validate and freeze a truncated modal system.

    The system keeps read-only copies of ``omegas`` and ``cs``.  Raises
    ValueError for non-increasing frequencies, zero coefficients,
    non-positive gamma, or empty/mismatched sequences.
    """
    return SystemSpec(gamma=gamma, omegas=omegas, cs=cs)


def beam_example(theta: float, sigma: float, N: int, gamma: float = 1.0) -> SystemSpec:
    """Quadratic-frequency family: omega_j = theta j^2, c_j = sigma / j.

    This is the standard flexible-beam-like test family; theta = sigma = 1,
    N = 23 is the reference configuration used throughout the test suite.
    """
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool):
        raise ValueError("N must be an integer")
    if N < 1:
        raise ValueError("N must be >= 1")
    if theta <= 0.0 or sigma <= 0.0:
        raise ValueError("theta and sigma must be positive")
    j = np.arange(1, N + 1, dtype=float)
    return SystemSpec(
        gamma=gamma,
        omegas=theta * j**2,
        cs=sigma / j,
        generator={"type": "beam", "theta": float(theta), "sigma": float(sigma), "N": int(N)},
    )


def certify_assumptions(sys: SystemSpec, beta: float = 1.0, k0: int = 2) -> AssumptionCertificate:
    """Check the gap and coupling assumptions for one system.

    Parameters
    ----------
    sys : SystemSpec
    beta : float
        Coupling lower-bound level, finite and > 0.
    k0 : int
        First mode index the coupling bound must cover, 1 <= k0 <= N.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError("beta must be positive and finite")
    if not 1 <= k0 <= sys.N:
        raise ValueError(f"k0 must lie in [1, {sys.N}], got {k0}")
    kappa = sys.min_gap()
    holds_a2 = kappa > 0.0  # guaranteed by construction at finite N

    tail_c = np.abs(sys.cs[k0 - 1 :])
    tail_w = sys.omegas[k0 - 1 :]
    rising = tail_w > 1.0  # the modes where omega**(alpha/2) grows with alpha

    def coupled(alpha: float, rows=slice(None)) -> bool:
        return bool(np.all(tail_c[rows] * tail_w[rows] ** (alpha / 2.0) >= beta))

    # |c_k| omega_k**(alpha/2) = beta solved on the rising modes, raised to the first double
    # their float check passes; a mode with omega_k <= 1 failing there fails at any larger alpha
    with np.errstate(over="ignore"):  # a product that overflows to inf does exceed beta
        ratio = beta / tail_c[rising]  # ln beta - ln|c_k| only where this over- or underflows
        spill = np.isinf(ratio) | (ratio == 0.0)
        log_ratio = np.where(spill, math.log(beta) - np.log(tail_c[rising]),
                             np.log(np.where(spill, 1.0, ratio)))
        alpha = float(np.max(2.0 * log_ratio / np.log(tail_w[rising]), initial=ALPHA_MIN))
        while not coupled(alpha, rising):
            alpha = math.nextafter(alpha, math.inf)
        holds_a3 = alpha <= ALPHA_MAX and coupled(alpha)

    return AssumptionCertificate(
        kappa=kappa, alpha=alpha, beta=float(beta), k0=int(k0),
        holds_A2=holds_a2, holds_A3=holds_a3,
    )
