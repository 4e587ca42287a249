"""Soundness and loudness of full_spectrum across the admissible class, against the dense oracle.

hypothesis draws systems ``omega_j = theta j^q`` (jittered gaps, q in [1, 2.5]),
``c_j = +/- sigma j^-p`` (p in [0.5, 2.5]) and gamma log-uniform on [1e-6, 10]:
weak gain, the power families and the overdamped real pair all come up.
Every certified disk must hold exactly one dense eigenvalue, no dense
eigenvalue may lie in two disks, and every mode that is missing or not
certified must be named in ``failures``.  The dense eigenvalues are only
known to ``DENSE_TOL`` (a multiple of the rounding in ``np.linalg.eigvals``),
so an eigenvalue counts as inside a disk when it is within ``r - tol`` of
the centre and as possibly inside within ``r + tol``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsdecay.dynamics import dense_generator
from obsdecay.model import beam_example, build_system
from obsdecay.spectrum import full_spectrum

UNIT_ROUNDOFF = 2.0 ** -53


def dense_tolerance(a: np.ndarray) -> float:
    """A bound on the error of the dense eigenvalues: 2N u ||A||_F, times 64 for their conditioning."""
    return 64.0 * a.shape[0] * UNIT_ROUNDOFF * float(np.linalg.norm(a))


@st.composite
def admissible_systems(draw):
    n = draw(st.integers(1, 48))
    q = draw(st.floats(1.0, 2.5))
    p = draw(st.floats(0.5, 2.5))
    theta, sigma = (np.exp(draw(st.floats(np.log(0.5), np.log(2.0)))) for _ in range(2))
    gamma = 10.0 ** draw(st.floats(-6.0, 1.0))
    jitter = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    j = np.arange(1, n + 1, dtype=float)
    omegas = np.cumsum(theta * (j**q - (j - 1.0) ** q) * (1.0 + jitter))
    return build_system(gamma, omegas, signs * sigma * j**-p)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(admissible_systems())
@example(beam_example(1.0, 1.0, 23, gamma=2.0))  # an overdamped real pair
@example(beam_example(1.0, 1.0, 5, gamma=1e-6))
def test_certified_disks_are_sound_and_losses_are_named(sys):
    rep = full_spectrum(sys)
    a = dense_generator(sys)
    dense = np.linalg.eigvals(a)
    tol = dense_tolerance(a)

    centres = rep.eigenvalues()
    radii = np.repeat(rep.radius, 2)
    certified = np.repeat(rep.certified, 2)
    dist = np.abs(dense[None, :] - centres[certified][:, None])
    r = radii[certified][:, None]
    inside, maybe = dist <= r - tol, dist < r + tol
    # soundness: each certified disk holds one dense eigenvalue, each eigenvalue is in one disk
    assert np.all(np.count_nonzero(inside, axis=1) <= 1), (sys.N, sys.gamma)
    assert np.all(np.count_nonzero(maybe, axis=1) >= 1), (sys.N, sys.gamma)
    assert np.all(np.count_nonzero(inside, axis=0) <= 1), (sys.N, sys.gamma)

    # loudness: complete exactly when every root is certified, and every loss is named
    lost = set(range(1, sys.N + 1)) - set(rep.k[rep.certified].tolist())
    assert rep.complete == (not lost and not rep.failures)
    named = {int(msg.split()[1].rstrip(":")) for msg in rep.failures}
    assert lost == named, (sys.N, sys.gamma, rep.failures)
