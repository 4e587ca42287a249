"""Eigenvectors, Riesz-basis diagnostics, and diagonalization of the generator.

Each root lam of the characteristic function has the explicit eigenvector

    q_j = -c_j / (i omega_j + lam),    p_j = c_j / (i omega_j - lam),

rescaled so that the "own" component p_n equals one for the upper root of
mode n.  The generator is real and swaps q and p under conjugation, so the
lower root conj(lam) has the eigenvector J v = (conj p, conj q), whose own
component q_n is one; it is taken from the upper vector rather than built
again, just as a spectrum report stores only the upper roots and conj(lam)
is derived.  With that scaling the eigenvectors approach the canonical unit
vectors as the coupling fades, and the column matrix Q of all 2N of them
diagonalizes the generator: A = Q G Q^{-1} with G the diagonal of
eigenvalues (lower half first).  As A = A^T and a complete report proves
the eigenvalues distinct, Q^{-1} = diag(1/nu) Q^T with nu_k = v_k^T v_k
(unconjugated), and A Q - Q G is made of the eigenvectors' column residuals.

The squared distances between scaled eigenvectors and their canonical
comparisons ("closeness increments") quantify how far the eigenbasis is
from orthonormal; their partial sums are the finite-truncation stand-in for
the quadratic-closeness property that makes the infinite family a Riesz
basis; the last bounds ||Q|| by 1 plus its square root.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .charfn import PoleError
from .model import SystemSpec
from .spectrum import SpectrumReport, _meets_another
from .state import StateVector

EIGENVECTOR_RESIDUAL_RTOL = 1e-9
FACTORIZATION_RESIDUAL_RTOL = 1e-8
COND_Q_LIMIT = 1e12


class BasisError(RuntimeError):
    """The eigenvector matrix is unusable (numerically singular or inconsistent)."""


class ResidualError(ValueError):
    """A claimed eigenpair fails its residual check."""


def comparison_vector(n_modes: int, n: int) -> StateVector:
    """Canonical comparison vector of the upper root of mode n: p_n = 1."""
    if not 1 <= n <= n_modes:
        raise ValueError(f"mode index must lie in [1, {n_modes}]")
    p = np.zeros(n_modes, dtype=complex)
    p[n - 1] = 1.0
    return StateVector(q=np.zeros(n_modes, dtype=complex), p=p)


def _upper_eigenvectors(sys: SystemSpec, lams: np.ndarray,
                        ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled eigenvectors (p_k = 1) of the roots ``lams`` of modes ``ks``, in one pass.

    Returns the rows ``(q, p)``, the residual ``||(A - lam I) v||`` of each
    and its bound ``1e-9 ||v||``.  Each row is bitwise the one built for its
    root alone: the scale ``(i omega_k - lam)/c_k`` divides each part by
    ``c_k`` as Python's complex-by-float division does.
    """
    w, c = sys.omegas, sys.cs
    shift = 1j * w[ks - 1] - lams
    scale = np.empty_like(shift)
    scale.real, scale.imag = shift.real / c[ks - 1], shift.imag / c[ks - 1]
    lam = lams[:, None]
    q = -c / (1j * w + lam) * scale[:, None]
    p = c / (1j * w - lam) * scale[:, None]
    # (A - lam I) v, with A applied as dynamics.apply_generator does
    inj = 0.5 * sys.gamma * c * np.sum(c * (q + p), axis=1)[:, None]
    diff = np.concatenate([-1j * w * q - inj - lam * q, 1j * w * p - inj - lam * p], axis=1)
    vecs = np.concatenate([q, p], axis=1)
    return vecs, np.linalg.norm(diff, axis=1), EIGENVECTOR_RESIDUAL_RTOL * np.linalg.norm(
        vecs, axis=1)


def eigenvector(sys: SystemSpec, lam: complex, n: int) -> StateVector:
    """Scaled eigenvector (p_n = 1) of the generator for the root lam near +i omega_n.

    Raises ResidualError when (A - lam I) applied to the result is larger
    than 1e-9 times the vector norm, i.e. when lam is not actually an
    eigenvalue.
    """
    lam = complex(lam)
    if not 1 <= n <= sys.N:
        raise ValueError(f"mode index must lie in [1, {sys.N}]")
    if np.any(1j * sys.omegas == lam) or np.any(-1j * sys.omegas == lam):
        raise PoleError("lam coincides with a mode frequency; not an eigenvalue")
    vecs, resid, bound = _upper_eigenvectors(sys, np.array([lam]), np.array([n]))
    if not resid[0] <= bound[0]:
        raise ResidualError(
            f"residual {resid[0]:.3e} exceeds {EIGENVECTOR_RESIDUAL_RTOL} * norm; "
            f"lam = {lam} is not an eigenvalue for mode {n}"
        )
    return StateVector.from_array(vecs[0])


@dataclass(frozen=True)
class ModalBasis:
    """Eigenvector matrix Q, eigenvalue diagonal G, and quality numbers.

    Column order matches G: the first N columns are lower-half eigenvectors
    (eigenvalues near -i omega_n), the last N upper-half ones.  ``beta1`` and
    ``beta2`` are closed-form upper bounds on the operator norms of Q and its
    inverse; their product bounds the condition number that enters every
    norm-equivalence bound.
    ``closeness`` holds partial sums of the per-mode squared distances to the
    canonical comparison vectors.  ``nu`` holds ``v_k^T v_k`` (unconjugated):
    A = A^T with distinct eigenvalues gives ``Q^{-1} = diag(1/nu) Q^T``.
    """

    Q: np.ndarray
    G: np.ndarray
    beta1: float
    beta2: float
    cond_Q: float
    closeness_increments: tuple[float, ...]
    closeness: tuple[float, ...]
    factorization_residual: float
    nu: np.ndarray

    def solve(self, vec: np.ndarray) -> np.ndarray:
        """Q^{-1} vec = diag(1/nu) Q^T vec, for a vector or a matrix of columns."""
        return (self.Q.T @ vec) / self.nu.reshape((-1,) + (1,) * (np.ndim(vec) - 1))

    def to_json_dict(self) -> dict:
        return {"beta1": self.beta1, "beta2": self.beta2, "cond_Q": self.cond_Q,
                "closeness_tail": self.closeness[-1],
                "factorization_residual": self.factorization_residual}


def build_basis(sys: SystemSpec, spectrum: SpectrumReport) -> ModalBasis:
    """Assemble the diagonalizing eigenbasis from a computed spectrum.

    Requires a complete report with one row for each mode ``k = 1..N``; its
    ``lam`` column gives the upper roots and ``lam.conj()`` the lower.  The
    N upper eigenvectors are built and residual-checked in one array pass,
    each bitwise as :func:`eigenvector` builds it alone; the lower one of
    each mode is its conjugate swap J v, an eigenvector of conj(lam) because
    the generator commutes with J.  The report's disjoint root disks prove the
    eigenvalues distinct, so A = A^T gives ``Q^{-1} = diag(1/nu) Q^T``.  As the
    comparison columns are I, ``||Q|| <= beta1 = 1 + sqrt(closeness tail)`` and
    ``||Q^{-1}|| <= beta2 = beta1 / min |nu|``.  Column k of A Q - Q G is
    (A - lam_k) v_k, and J is an isometry commuting with A, so ||A Q - Q G||_F
    is sqrt(2) times the norm of the N upper column residuals.
    Raises BasisError when the report is incomplete or does not hold modes
    1..N in order, when an upper eigenvector fails its 1e-9 residual check
    (naming the mode), when two root disks meet or lack a radius or ``cond_Q``
    exceeds 1e12 (both "numerically singular"), or when the factorization
    residual ||A Q - Q G||_F exceeds 1e-8 ||A||_F.
    """
    if not spectrum.complete:
        raise BasisError(f"spectrum report is incomplete: {spectrum.failures}")
    n = sys.N
    ks = np.arange(1, n + 1)
    if not np.array_equal(spectrum.k, ks):
        raise BasisError("spectrum report does not hold one root for each mode 1..N")
    g_up = spectrum.lam
    vecs, resid, bound = _upper_eigenvectors(sys, g_up, ks)
    bad = np.flatnonzero(~(resid <= bound))
    if bad.size:
        k = int(bad[0])
        raise BasisError(f"mode {k + 1}: upper eigenvector residual {resid[k]:.3e} exceeds "
                         f"{EIGENVECTOR_RESIDUAL_RTOL} * norm; lam = {complex(g_up[k])} is not "
                         "an eigenvalue")
    q_mat = np.empty((2 * n, 2 * n), dtype=complex)
    q_mat[:n, :n], q_mat[n:, :n] = vecs[:, n:].T.conj(), vecs[:, :n].T.conj()  # J v
    q_mat[:, n:] = vecs.T
    g_diag = np.concatenate([g_up.conj(), g_up])
    # J is an isometry taking the upper comparison vector to the lower one
    vecs[ks - 1, n + ks - 1] -= 1.0
    increments = 2.0 * np.sum(np.abs(vecs) ** 2, axis=1)

    radius = np.tile(spectrum.radius, 2)  # the disks of the roots g_diag, conjugates included
    if np.isnan(radius).any() or _meets_another(g_diag, radius).any():
        raise BasisError("eigenvector matrix is numerically singular: the root disks do not "
                         "prove the eigenvalues distinct")
    closeness, nu = np.cumsum(increments), np.sum(q_mat * q_mat, axis=0)
    beta1 = float(1.0 + np.sqrt(closeness[-1]))
    beta2 = float(beta1 / np.min(np.abs(nu)))
    cond_q = beta1 * beta2
    if not cond_q <= COND_Q_LIMIT:
        raise BasisError(f"eigenvector matrix is numerically singular (cond bound {cond_q:.3e})")

    fact_resid = float(np.sqrt(2.0) * np.linalg.norm(resid))
    a_scale = float(np.sqrt(2.0 * sys.omegas @ sys.omegas + (sys.gamma * sys.cs @ sys.cs) ** 2))
    if fact_resid > FACTORIZATION_RESIDUAL_RTOL * a_scale:
        raise BasisError(f"factorization residual {fact_resid:.3e} exceeds "
                         f"{FACTORIZATION_RESIDUAL_RTOL} * ||A||_F = "
                         f"{FACTORIZATION_RESIDUAL_RTOL * a_scale:.3e}")

    return ModalBasis(
        Q=q_mat, G=g_diag, beta1=beta1, beta2=beta2, cond_Q=cond_q,
        closeness_increments=tuple(increments.tolist()), closeness=tuple(closeness.tolist()),
        factorization_residual=fact_resid, nu=nu,
    )

