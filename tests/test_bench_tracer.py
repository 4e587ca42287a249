"""The benchmark's tracer (bench/spans.py) patches package functions by name.

These tests load it read-only (no bytecode is written next to it) and check
that every name it patches still resolves, so a refactor cannot silently
break ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from obsdecay import spectrum

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
    # (Newton's alone: the certificate reuses its |f|) pins the work it does
    tracer = spans.Tracer()
    newton_root, eval_f = spectrum.newton_root, spectrum.eval_f
    with tracer.recording(0) as counts:
        rep = spectrum.full_spectrum(beam23)
    assert spectrum.newton_root is newton_root
    assert spectrum.eval_f is eval_f
    assert rep.complete
    assert counts["spectrum.eval_f.points"] == 68
    times = tracer.iteration_times(0)
    assert times["spectrum.full_spectrum"]["calls"] == 1
    assert times["spectrum.winding_number"]["calls"] == 0
