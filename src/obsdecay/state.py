"""Complex and real state vectors for the modal error dynamics.

The error state lives in two equivalent coordinate systems:

* complex form ``(q, p)`` with ``q_j = Delta_j + i delta_j`` and
  ``p_j = Delta_j - i delta_j``;
* real form ``(Delta, delta)`` (displacement / velocity error pairs).

Norms are plain l2 x l2.  Under the identification above the complex norm
picks up a fixed factor: ``|q_j|^2 + |p_j|^2 = 2 (Delta_j^2 + delta_j^2)``,
so ``norm(StateVector) = sqrt(2) * norm(RealState)``.  Every consumer that
compares the two forms must account for that sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StateVector:
    """Complex modal error state: q and p blocks of equal length N.

    The state owns one stacked copy of its entries, checked finite once;
    ``q`` and ``p`` are views of it and never alias the caller's arrays.
    Copies and pickles are rebuilt from ``q`` and ``p``, so they own theirs.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=complex)
        p = np.asarray(self.p, dtype=complex)
        if q.ndim != 1 or p.ndim != 1 or q.shape != p.shape:
            raise ValueError("q and p must be 1-d arrays of equal length")
        self._own(np.concatenate((q, p)))

    def _own(self, vec: np.ndarray) -> None:
        """Keep ``vec``, a stacked copy no caller holds, once its entries are finite."""
        if np.count_nonzero(np.isfinite(vec)) < vec.size:
            raise ValueError("state entries must be finite")
        n = vec.size // 2
        object.__setattr__(self, "_stacked", vec)
        object.__setattr__(self, "q", vec[:n])
        object.__setattr__(self, "p", vec[n:])

    def __reduce__(self):
        return StateVector, (self.q, self.p)

    @property
    def n_modes(self) -> int:
        return self.q.size

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.q) ** 2) + np.sum(np.abs(self.p) ** 2)))

    def to_array(self) -> np.ndarray:
        """Stacked (q, p) vector of length 2N."""
        return np.concatenate([self.q, self.p])

    @staticmethod
    def from_array(vec: np.ndarray) -> "StateVector":
        """State from a stacked (q, p) vector of even length, copied once."""
        vec = np.array(vec, dtype=complex)
        if vec.ndim != 1 or vec.size % 2 != 0:
            raise ValueError("expected a flat vector of even length")
        return StateVector._adopt(vec)

    @staticmethod
    def _adopt(vec: np.ndarray) -> "StateVector":
        """State that takes ``vec``, a fresh flat complex vector of even length, without a copy."""
        state = StateVector.__new__(StateVector)
        state._own(vec)
        return state

    @staticmethod
    def zero(n: int) -> "StateVector":
        return StateVector(q=np.zeros(n, dtype=complex), p=np.zeros(n, dtype=complex))


@dataclass(frozen=True)
class RealState:
    """Real modal error state: displacement errors Delta, velocity errors delta."""

    Delta: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.Delta, dtype=float)
        d = np.asarray(self.delta, dtype=float)
        if D.ndim != 1 or d.ndim != 1 or D.shape != d.shape:
            raise ValueError("Delta and delta must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(D)) and np.all(np.isfinite(d))):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "Delta", D)
        object.__setattr__(self, "delta", d)

    @property
    def n_modes(self) -> int:
        return self.Delta.size

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.Delta**2) + np.sum(self.delta**2)))

    def to_complex(self) -> StateVector:
        """Map (Delta, delta) -> (q, p) = (Delta + i delta, Delta - i delta)."""
        return StateVector(q=self.Delta + 1j * self.delta, p=self.Delta - 1j * self.delta)
