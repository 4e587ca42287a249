"""The benchmark's tracer (bench/spans.py) patches package functions by name.

These tests load it read-only (no bytecode is written next to it) and check
that every name it patches still resolves, so a refactor cannot silently
break ``bench/run.py --trace 1``.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import pathlib
import sys

import numpy as np
import pytest

from conftest import load_bench_workloads
from oracles import ObserverSetup, RealState, simulate_observer
from obsdecay import cli, dynamics, reports, spectrum

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# patched by Tracer._install besides the span targets, to count work
COUNTER_TARGETS = (("charfn", "eval_F"), ("spectrum", "eval_f"), ("dynamics", "solve_ivp"))


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("obsdecay_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_patched_name_resolves(spans):
    targets = [(mod, attr) for mod, attr, _ in spans.SPAN_TARGETS] + list(COUNTER_TARGETS)
    for mod, attr in targets:
        assert callable(getattr(importlib.import_module(f"obsdecay.{mod}"), attr, None)), \
            f"obsdecay.{mod}.{attr}"


def test_tracer_counts_and_restores(spans, beam23):
    # full_spectrum calls newton_roots, not the traced newton_root, and
    # counts no windings; the count of points spectrum passes to eval_f
    # (Newton's alone, each giving f and f': the certificate reuses both)
    # pins the work it does
    tracer = spans.Tracer()
    newton_root, eval_f = spectrum.newton_root, spectrum.eval_f
    with tracer.recording(0) as counts:
        rep = spectrum.full_spectrum(beam23)
    assert spectrum.newton_root is newton_root
    assert spectrum.eval_f is eval_f
    assert rep.complete
    assert counts["spectrum.eval_f.points"] == 50
    # EigenCertificate.fallback stays, always False, only for this counter
    assert counts["spectrum.fallback_roots"] == 0
    times = tracer.iteration_times(0)
    assert times["spectrum.full_spectrum"]["calls"] == 1
    assert times["spectrum.winding_number"]["calls"] == 0


def test_tracer_counts_observer_rhs_evals(spans, beam4, monkeypatch):
    # dynamics.solve_ivp imports scipy.integrate on first call; the tracer
    # still patches it by name and counts every right-hand-side evaluation
    nfev = []
    solve_ivp = dynamics.solve_ivp

    def recording(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", recording)
    rng = np.random.default_rng(3)
    z0 = RealState(Delta=rng.normal(size=4), delta=rng.normal(size=4))
    zt0 = RealState(Delta=np.zeros(4), delta=np.zeros(4))
    tracer = spans.Tracer()
    with tracer.recording(0) as counts:
        out = simulate_observer(ObserverSetup(sys=beam4), z0, zt0, np.linspace(0.0, 2.0, 9))
    assert dynamics.solve_ivp is recording
    assert out.error_norm[-1] < out.error_norm[0]
    assert len(nfev) == 1 and nfev[0] > 0
    assert counts["dynamics.rhs_evals"] == nfev[0]


@pytest.mark.parametrize("size, scale_tasks, files", [(23, False, 12), (256, True, 10)],
                         ids=["reference-report", "scale-certify"])
def test_every_artifact_goes_through_a_traced_writer(spans, tmp_path, monkeypatch,
                                                     size, scale_tasks, files):
    # reports.write times these writers and sizes the first str argument of
    # each call; an artifact written any other way would drop out of it
    workloads = load_bench_workloads()
    writers = [attr for mod, attr, name in spans.SPAN_TARGETS if name == "reports.write"]
    assert len(writers) == 7
    destinations = []
    for attr in writers:
        def recording(*args, _write=getattr(reports, attr), **kwargs):
            destinations.append(next(a for a in args if isinstance(a, str)))
            return _write(*args, **kwargs)
        monkeypatch.setattr(reports, attr, recording)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        workloads.beam_config(size, workloads.SCALE_TASKS if scale_tasks else None)))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["report", "--config", str(config), "--out", str(out)])
    assert len(destinations) == files
    assert sorted(destinations) == sorted(str(p) for p in out.iterdir())
