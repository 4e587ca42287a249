"""Smoke test of the benchmark's correctness gates (bench/workloads.py).

The gates read the program through names a refactor could rename away
(``rep.eigs``, ``.certified``, ``basis.Q``/``G``/``to_json_dict``,
``spectrum.json["eigs"]``); of the root records' fields only the tracer of
bench/spans.py reads ``.fallback``.  The module is loaded read-only (no
bytecode is written next to it, see ``conftest.load_bench_workloads``) and
run on small inputs; every gate must pass.
"""

import pytest

from conftest import load_bench_workloads


@pytest.fixture(scope="module")
def workloads():
    return load_bench_workloads()


def test_report_workload_gates_pass(workloads, tmp_path):
    workload = workloads.ReportWorkload(workloads.beam_config(23), seed_failures=frozenset(),
                                        workdir=str(tmp_path))
    for index in range(2):  # the second repeat is compared with the first
        outcome = workload.iteration(index)
        workload.check(outcome)
        assert outcome.failures == [] and outcome.failed_units == 0
        assert outcome.found == 46 and outcome.certified > 0


def test_sweep_unit_gates_pass(workloads):
    built = 0
    for case in workloads.random_family(1)[:3]:
        system, cert, rep, basis, solved, envelope = workloads.SweepWorkload._unit(case)
        outcome = workloads.Outcome(wall_s=0.0, unit_s=[], unit_start=[])
        fail, _ = workloads.SweepWorkload._case_failures(outcome, case, system, cert, rep,
                                                         basis, solved, envelope)
        assert fail == []
        built += basis is not None
    assert built > 0  # the basis gates ran at least once


def test_exact_zero_residual_roots_are_certified(workloads):
    # eight roots of the second sweep family (four conjugate pairs) have
    # f(z) == 0.0 exactly; a radius taken from |f|/|f'| alone would be 0 there.
    # Each gets a radius; the one real root, of an overdamped mode 1, is not
    # certified because its disk is its conjugate's
    from obsdecay import SystemSpec, full_spectrum

    exact = []
    for case in workloads.random_family(2):
        rep = full_spectrum(SystemSpec.from_json_dict(case.doc))
        exact += [e for e in rep.eigs if e.residual == 0.0]
    assert len(exact) == 8
    assert all(e.disk_radius > 0.0 for e in exact)
    assert [e.certified for e in exact if e.lam.imag == 0.0] == [False, False]
    assert all(e.certified for e in exact if e.lam.imag != 0.0)
