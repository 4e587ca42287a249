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

The upper root is read in the spectrum's pole-local coordinates,
``lam = i omega_n + mu``: the scale is ``mu/c_n`` and every ``lam - a`` is
``mu`` plus its pole shift, so a vector keeps its precision where
``|mu|`` is far below the spacing of floats near ``omega_n``.  The generator
is a rank-one update of a diagonal, so ``nu``, the squared distances of the
scaled eigenvectors to their canonical comparisons ("closeness increments")
and the column residuals have closed forms in ``f`` and ``f'`` at the root
and one sum over the poles, all of which the spectrum's root solve and
certificates have already computed: :func:`build_basis` takes them without
forming Q, and the 2N x 2N matrix is built only when a caller reads
:attr:`ModalBasis.Q` (simulation, ``dump_q``, :meth:`ModalBasis.solve`).
The closeness increments quantify how far the eigenbasis is from
orthonormal; their partial sums are the finite-truncation stand-in for the
quadratic-closeness property that makes the infinite family a Riesz basis;
the last bounds ||Q|| by 1 plus its square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charfn import PoleError
from .model import SystemSpec
from .spectrum import SpectrumReport, _meets_another, basis_terms
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


def _upper_eigenvectors(sys: SystemSpec, ks: np.ndarray,
                        mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled eigenvectors (p_k = 1) of the roots ``i omega_k + mu`` of modes ``ks``, in one pass.

    Returns the rows ``(q, p)``, the residual ``||(A - lam I) v||`` of each
    and its norm ``||v||``.  The vector is ``v_a = s c_a/(lam - a)``
    over the poles ``a = -i omega_j`` (q) and ``+i omega_j`` (p), with
    ``s = mu/c_k`` and ``lam - a`` as ``mu`` plus its shift in
    :attr:`~obsdecay.model.SystemSpec.pole_shifts`, and ``(A - lam I) v`` is
    ``-(lam - a) v_a - (gamma/2) c_a sum_b c_b v_b``: the diagonal of
    ``A - lam I`` is read in the same coordinates, so no float ``lam``
    enters.  Each row is bitwise the one built for its root alone.
    """
    n, c = sys.N, sys.cs
    s = mu / c[ks - 1]
    z = sys.pole_shifts[ks - 1, 1:] + mu[:, None]
    z = np.concatenate([z[:, n:], z[:, :n]], axis=1)  # q over -i omega_j, then p over +i omega_j
    u = np.concatenate([c, c])
    vecs = s[:, None] * u / z
    inj = 0.5 * sys.gamma * np.sum(u * vecs, axis=1)[:, None] * u
    diff = -z * vecs - inj
    return vecs, np.linalg.norm(diff, axis=1), np.linalg.norm(vecs, axis=1)


def _basis_numbers(sys: SystemSpec, spectrum: SpectrumReport
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``nu``, closeness increments, column residuals and norms of the upper eigenvectors.

    The generator is ``diag(-i omega, i omega) - (gamma/2) u u^T`` with
    ``u = (c, c)``, a rank-one update of a diagonal, so the eigenvector of a
    root is ``v = s (lam - D)^{-1} u`` with ``s = mu/c_k`` making ``p_k = 1``
    (Golub, *SIAM Review* 15, 1973; Bunch, Nielsen and Sorensen, 1978).
    With ``h(lam) = 1 + (gamma/2) u^T (lam - D)^{-1} u = gamma lam f(lam)/(2i)``:

    * ``nu = v^T v = -s^2 (2/gamma) h'(lam) = i s^2 lam f'(lam)`` at a root;
    * the closeness increment ``2 ||v - e_{p_k}||^2`` is
      ``2 |s|^2 sum_{a != i omega_k} c_a^2/|lam - a|^2`` over the mode poles,
      the own pole left out by index, and ``||v||^2`` is one plus its half;
    * ``(A - lam) v = -s u h(lam)``, of norm ``|s| sqrt(2) ||c|| |gamma lam f(lam)|/2``.

    ``|f|``, f' and the sum over the other poles come from
    :func:`~obsdecay.spectrum.basis_terms`: for a report that
    :func:`~obsdecay.spectrum.full_spectrum` made they are the values its
    Newton solve and certificate walk took at each ``mu``, so no pole table
    is walked again; any other report is evaluated afresh at its ``mu``
    column by the same functions, to the same bits, and its stored residual
    is not trusted.  No 2N x 2N array is formed.
    Raises BasisError naming the first mode whose ``lam`` column is not
    ``i omega_k + mu``.
    """
    ks, mu, lam = spectrum.k, spectrum.mu, spectrum.lam
    local = mu + 1j * sys.omegas[ks - 1]
    bad = np.flatnonzero(lam != local)
    if bad.size:
        j = int(bad[0])
        raise BasisError(f"mode {int(ks[j])}: root lam = {complex(lam[j])} is not "
                         f"i omega_k + mu = {complex(local[j])}; the report's columns disagree")
    abs_f, deriv, others = basis_terms(sys, spectrum)
    s = mu / sys.cs[ks - 1]
    s_sq = s.real * s.real + s.imag * s.imag
    increments = 2.0 * s_sq * others
    nu = 1j * s * s * lam * deriv
    resid = (np.sqrt(s_sq) * np.sqrt(2.0 * float(sys.cs @ sys.cs)) * 0.5 * sys.gamma
             * np.abs(lam) * abs_f)
    return nu, increments, resid, np.sqrt(1.0 + 0.5 * increments)


def _check_residuals(resid: np.ndarray, norms: np.ndarray, lam: np.ndarray) -> None:
    """Raise BasisError naming the first mode whose upper eigenvector residual exceeds
    1e-9 times the eigenvector's norm."""
    bad = np.flatnonzero(~(resid <= EIGENVECTOR_RESIDUAL_RTOL * norms))
    if bad.size:
        k = int(bad[0])
        raise BasisError(f"mode {k + 1}: upper eigenvector residual {resid[k]:.3e} exceeds "
                         f"{EIGENVECTOR_RESIDUAL_RTOL} * norm; lam = {complex(lam[k])} is not "
                         "an eigenvalue")


def _factorization_residual(sys: SystemSpec, resid: np.ndarray) -> float:
    """``||A Q - Q G||_F = sqrt(2) ||resid||`` from the upper column residuals.

    Raises BasisError when it exceeds 1e-8 ``||A||_F``, which is
    ``sqrt(2 sum omega^2 + gamma^2 (sum c^2)^2)``.
    """
    fact_resid = float(np.sqrt(2.0) * np.linalg.norm(resid))
    a_scale = float(np.sqrt(2.0 * sys.omegas @ sys.omegas + (sys.gamma * sys.cs @ sys.cs) ** 2))
    if fact_resid > FACTORIZATION_RESIDUAL_RTOL * a_scale:
        raise BasisError(f"factorization residual {fact_resid:.3e} exceeds "
                         f"{FACTORIZATION_RESIDUAL_RTOL} * ||A||_F = "
                         f"{FACTORIZATION_RESIDUAL_RTOL * a_scale:.3e}")
    return fact_resid


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
    mu = complex(lam.real, lam.imag - float(sys.omegas[n - 1]))
    vecs, resid, norms = _upper_eigenvectors(sys, np.array([n]), np.array([mu]))
    if not resid[0] <= EIGENVECTOR_RESIDUAL_RTOL * norms[0]:
        raise ResidualError(
            f"residual {resid[0]:.3e} exceeds {EIGENVECTOR_RESIDUAL_RTOL} * norm; "
            f"lam = {lam} is not an eigenvalue for mode {n}"
        )
    return StateVector.from_array(vecs[0])


@dataclass(frozen=True, eq=False)
class ModalBasis:
    """Eigenvalue diagonal G, quality numbers, and the eigenvector matrix Q on demand.

    Column order matches G: the first N columns are lower-half eigenvectors
    (eigenvalues near -i omega_n), the last N upper-half ones.  ``beta1`` and
    ``beta2`` are closed-form upper bounds on the operator norms of Q and its
    inverse; their product bounds the condition number that enters every
    norm-equivalence bound.
    ``closeness`` holds partial sums of the per-mode squared distances to the
    canonical comparison vectors.  ``nu`` holds ``v_k^T v_k`` (unconjugated):
    A = A^T with distinct eigenvalues gives ``Q^{-1} = diag(1/nu) Q^T``.
    These numbers come from the spectrum's columns (:func:`build_basis`);
    the 2N x 2N matrix :attr:`Q` is formed only when a caller reads it.
    """

    sys: SystemSpec
    mu: np.ndarray
    G: np.ndarray
    beta1: float
    beta2: float
    cond_Q: float
    closeness_increments: tuple[float, ...]
    closeness: tuple[float, ...]
    factorization_residual: float
    nu: np.ndarray

    @cached_property
    def Q(self) -> np.ndarray:
        """The eigenvector matrix, built from the roots ``i omega_k + mu`` on first use.

        The N upper columns are built and residual-checked in one array pass;
        the lower column of each mode is its conjugate swap J v, an
        eigenvector of conj(lam) because the generator commutes with J.
        Column k of A Q - Q G is (A - lam_k) v_k, and J is an isometry
        commuting with A, so ||A Q - Q G||_F is sqrt(2) times the norm of the
        N upper column residuals.  Raises BasisError when a column fails its
        1e-9 residual check or that norm exceeds 1e-8 ||A||_F.
        """
        n = self.sys.N
        vecs, resid, norms = _upper_eigenvectors(self.sys, np.arange(1, n + 1), self.mu)
        _check_residuals(resid, norms, self.G[n:])
        _factorization_residual(self.sys, resid)
        q_mat = np.empty((2 * n, 2 * n), dtype=complex)
        q_mat[:n, :n], q_mat[n:, :n] = vecs[:, n:].T.conj(), vecs[:, :n].T.conj()  # J v
        q_mat[:, n:] = vecs.T
        return q_mat

    def solve(self, vec: np.ndarray) -> np.ndarray:
        """Q^{-1} vec = diag(1/nu) Q^T vec, for a vector or a matrix of columns."""
        return (self.Q.T @ vec) / self.nu.reshape((-1,) + (1,) * (np.ndim(vec) - 1))

    def to_json_dict(self) -> dict:
        return {"beta1": self.beta1, "beta2": self.beta2, "cond_Q": self.cond_Q,
                "closeness_tail": self.closeness[-1],
                "factorization_residual": self.factorization_residual}


def build_basis(sys: SystemSpec, spectrum: SpectrumReport) -> ModalBasis:
    """The diagonalizing eigenbasis of a computed spectrum, its numbers in closed form.

    Requires a complete report with one row for each mode ``k = 1..N``; its
    ``lam`` column gives the upper roots and ``lam.conj()`` the lower.  The
    eigenvectors' ``nu``, closeness increments and column residuals come
    from the report's ``mu`` column by :func:`_basis_numbers`, without
    forming the eigenvector matrix; for a report of
    :func:`~obsdecay.spectrum.full_spectrum` they reuse the values its root
    solve and certificates computed, and any other report is evaluated
    afresh.  The report's disjoint root disks prove
    the eigenvalues distinct, so A = A^T gives ``Q^{-1} = diag(1/nu) Q^T``,
    and the lower root of each mode has the conjugate ``nu``.  As the comparison
    columns are I, ``||Q|| <= beta1 = 1 + sqrt(closeness tail)`` and
    ``||Q^{-1}|| <= beta2 = beta1 / min |nu|``.  Column k of A Q - Q G is
    (A - lam_k) v_k and J is an isometry commuting with A, so
    ||A Q - Q G||_F is sqrt(2) times the norm of the N upper column
    residuals.
    Raises BasisError when the report is incomplete or does not hold modes
    1..N in order, when a ``lam`` is not ``i omega_k + mu`` or an upper
    eigenvector fails its 1e-9 residual check (both naming the mode), when
    two root disks meet or lack a radius or ``cond_Q`` exceeds 1e12 (both
    "numerically singular"), or when the factorization residual
    ||A Q - Q G||_F exceeds 1e-8 ||A||_F.
    """
    if not spectrum.complete:
        raise BasisError(f"spectrum report is incomplete: {spectrum.failures}")
    if not np.array_equal(spectrum.k, np.arange(1, sys.N + 1)):
        raise BasisError("spectrum report does not hold one root for each mode 1..N")
    g_up = spectrum.lam
    nu_up, increments, resid, norms = _basis_numbers(sys, spectrum)
    _check_residuals(resid, norms, g_up)
    g_diag = np.concatenate([g_up.conj(), g_up])
    radius = np.tile(spectrum.radius, 2)  # the disks of the roots g_diag, conjugates included
    if np.isnan(radius).any() or _meets_another(g_diag, radius).any():
        raise BasisError("eigenvector matrix is numerically singular: the root disks do not "
                         "prove the eigenvalues distinct")
    closeness, nu = np.cumsum(increments), np.concatenate([nu_up.conj(), nu_up])
    beta1 = float(1.0 + np.sqrt(closeness[-1]))
    beta2 = float(beta1 / np.min(np.abs(nu)))
    cond_q = beta1 * beta2
    if not cond_q <= COND_Q_LIMIT:
        raise BasisError(f"eigenvector matrix is numerically singular (cond bound {cond_q:.3e})")
    fact_resid = _factorization_residual(sys, resid)
    return ModalBasis(
        sys=sys, mu=spectrum.mu, G=g_diag, beta1=beta1, beta2=beta2, cond_Q=cond_q,
        closeness_increments=tuple(increments.tolist()), closeness=tuple(closeness.tolist()),
        factorization_residual=fact_resid, nu=nu,
    )
