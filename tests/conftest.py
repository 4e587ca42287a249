import functools
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from obsdecay import beam_example, build_basis, build_system, full_spectrum
from obsdecay.charfn import CharContext, LocalizationError, localize

# Exact roots of lam^2 + lam + 1 = 0, the single-mode characteristic
# polynomial for gamma = c = omega = 1.
SINGLE_MODE_ROOTS = ((-1 + 1j * np.sqrt(3.0)) / 2, (-1 - 1j * np.sqrt(3.0)) / 2)

# the per-mode columns of a SpectrumReport, one row per found mode
SPECTRUM_COLUMNS = ("k", "mu", "lam", "residual", "radius", "certified", "newton_iters")


def perturbed_beam_family(seed, count):
    """Beam-like systems with jittered gaps and signed, jittered couplings."""
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        n = int(rng.integers(2, 41))
        theta, sigma, gamma = np.exp(rng.uniform(np.log(0.3), np.log(3.0), 3))
        j = np.arange(1, n + 1, dtype=float)
        omegas = np.cumsum(theta * (2 * j - 1) * (1.0 + rng.uniform(-0.2, 0.2, n)))
        cs = sigma / j * (1.0 + rng.uniform(-0.2, 0.2, n)) * rng.choice((-1.0, 1.0), n)
        systems.append(build_system(gamma, omegas, cs))
    return systems


@functools.cache
def load_bench_workloads():
    """The benchmark's ``bench/workloads.py``, loaded read-only (no bytecode is written)."""
    name = "obsdecay_bench_workloads"
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up by name
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def localizations(sys):
    """Localization certificates by mode, for every mode that localizes."""
    certs = {}
    for k in range(1, sys.N + 1):
        try:
            certs[k] = localize(CharContext(sys, k))
        except LocalizationError:
            continue
    return certs


@pytest.fixture(scope="session")
def single_mode():
    return build_system(1.0, [1.0], [1.0])


@pytest.fixture(scope="session")
def beam23():
    return beam_example(1.0, 1.0, 23)


@pytest.fixture(scope="session")
def beam23_spectrum(beam23):
    return full_spectrum(beam23)


@pytest.fixture(scope="session")
def beam23_basis(beam23, beam23_spectrum):
    return build_basis(beam23, beam23_spectrum)


@pytest.fixture(scope="session")
def beam4():
    return beam_example(1.0, 1.0, 4)


@pytest.fixture(scope="session")
def beam4_spectrum(beam4):
    return full_spectrum(beam4)


@pytest.fixture(scope="session")
def beam4_basis(beam4, beam4_spectrum):
    return build_basis(beam4, beam4_spectrum)
