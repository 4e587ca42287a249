import collections
import csv
import gc
import json
import math
import os
import weakref

import pytest

import oracles
from conftest import SINGLE_MODE_ROOTS, localizations
from obsdecay import modal, model, reports, spectrum
from obsdecay.charfn import LocalizationReport
from obsdecay.cli import (ALL_TASKS, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, Tolerances,
                          build_parser, main)
from obsdecay.model import beam_example
from obsdecay.resolvent import AxisScan
from obsdecay.spectrum import SpectrumReport


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def beam23_config(tmp_path):
    return write_config(tmp_path / "beam23.json", {
        "gamma": 1.0,
        "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
        "tasks": ["verify", "localize", "spectrum", "resolvent-scan", "envelope"],
        "seed": 11,
    })


@pytest.fixture
def beam8_config(tmp_path):
    return write_config(tmp_path / "beam8.json", {
        "gamma": 1.0,
        "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 8},
        "tasks": ["verify", "spectrum", "envelope", "simulate"],
        "seed": 4,
        "tolerances": {"sim_t_final": 4.0, "sim_points": 30, "envelope_t_hi": 60.0},
    })


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestVerify:
    def test_reference_system_passes(self, beam23_config, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "--config", beam23_config, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "assumptions.json").read_text())
        assert doc["assumptions"]["kappa"] == 3.0
        assert doc["assumptions"]["alpha"] == 1.0
        assert doc["coupling_sum_tail_bound"] == pytest.approx(1.0 / (3 * 23**3))

    def test_invalid_system_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", {
            "gamma": 1.0,
            "modes": [{"omega": 1.0, "c": 1.0}, {"omega": 1.0, "c": 1.0}],
        })
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unreachable_coupling_level_fails(self, tmp_path):
        cfg = write_config(tmp_path / "hard.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
            "tolerances": {"beta": 1e6},
        })
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
        doc = json.loads((out / "assumptions.json").read_text())
        assert not doc["assumptions"]["holds_A3"]

    def test_missing_config(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG


class TestSpectrumVerb:
    def test_fig3_outputs(self, beam23_config, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--config", beam23_config, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "spectrum.csv")
        assert len(rows) == 47
        assert all(float(r[2]) < 0.0 for r in rows[1:])
        plot = read_rows(out / "spectrum_plot.csv")
        assert len(plot) == 47

    def test_single_mode_rows_match_quadratic(self, tmp_path):
        cfg = write_config(tmp_path / "one.json", {
            "gamma": 1.0, "modes": [{"omega": 1.0, "c": 1.0}],
        })
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "spectrum.csv")
        got = sorted((complex(float(r[2]), float(r[3])) for r in rows[1:]),
                     key=lambda z: z.imag)
        expected = sorted(SINGLE_MODE_ROOTS, key=lambda z: z.imag)
        assert all(abs(a - b) < 1e-10 for a, b in zip(got, expected))

    def test_strict_flags_uncertified_modes(self, tmp_path):
        # an uncertified root makes the spectrum incomplete, so the verb
        # fails with or without --strict
        cfg = write_config(tmp_path / "hot.json", {
            "gamma": 100.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
        })
        out = tmp_path / "out"
        for flags in ([], ["--strict"]):
            assert main(["spectrum", "--config", cfg, "--out", str(out),
                         *flags]) == EXIT_CHECK_FAILED
        doc = json.loads((out / "spectrum.json").read_text())
        assert not doc["complete"]
        assert [e["certified"] for e in doc["eigs"][:2]] == [False, False]
        assert all("meets another root's disk" in msg for msg in doc["failures"])

    def test_n_override(self, beam23_config, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--config", beam23_config, "--out", str(out),
                     "--n", "4"]) == EXIT_OK
        assert len(read_rows(out / "spectrum.csv")) == 9

    def test_n_override_needs_generator(self, tmp_path):
        cfg = write_config(tmp_path / "inline.json", {
            "gamma": 1.0, "modes": [{"omega": 1.0, "c": 1.0}],
        })
        assert main(["spectrum", "--config", cfg, "--n", "4"]) == EXIT_CONFIG


class TestOtherVerbs:
    def test_localize_writes_certificates(self, beam23_config, tmp_path):
        out = tmp_path / "out"
        assert main(["localize", "--config", beam23_config, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "localization.json").read_text())
        assert doc["failed_modes"] == [1, 2]
        assert len(doc["certificates"]) == 21
        rows = read_rows(out / "localization.csv")
        assert len(rows) == 22

    def test_strict_localize_fails_on_unlocalized_modes(self, beam23_config, tmp_path):
        # modes 1 and 2 of beam23 have no a-priori disk
        out = tmp_path / "out"
        assert main(["localize", "--config", beam23_config, "--out", str(out),
                     "--strict"]) == EXIT_CHECK_FAILED
        doc = json.loads((out / "localization.json").read_text())
        assert doc["failed_modes"] == [1, 2]

    def test_localize_runs_no_root_finding(self, beam23_config, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the localize verb must not search for roots")

        monkeypatch.setattr(spectrum, "newton_root", forbidden)
        monkeypatch.setattr(spectrum, "newton_roots", forbidden)
        monkeypatch.setattr(spectrum, "winding_number", forbidden)
        out = tmp_path / "out"
        assert main(["localize", "--config", beam23_config, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "localization.json").read_text())
        expected = localizations(beam_example(1.0, 1.0, 23))
        assert doc["certificates"] == json.loads(json.dumps(
            [expected[k].to_json_dict() for k in sorted(expected)]))

    def test_resolvent_scan_fit(self, beam23_config, tmp_path):
        out = tmp_path / "out"
        assert main(["resolvent-scan", "--config", beam23_config,
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "axis_scan.json").read_text())
        assert abs(doc["slope"] - 1.0) <= 0.15
        assert doc["r2"] >= 0.95
        assert doc["alpha_expected"] == 1.0
        # the spectrum is complete, so the verb builds the basis for cond(Q)
        assert doc["segment_bounds_ok"] is True
        assert all(row["upper"] is not None for row in doc["segment_bound_checks"])

    def test_envelope_fit(self, beam23_config, tmp_path):
        out = tmp_path / "out"
        assert main(["envelope", "--config", beam23_config, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "envelope.json").read_text())
        assert abs(doc["exponent"] + 1.0) <= 0.2

    def test_simulate_writes_trajectory_and_fit(self, beam8_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", beam8_config, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "trajectory.csv")
        assert rows[0][:2] == ["t", "norm"]
        assert len(rows[0]) == 2 + 8
        fit = json.loads((out / "trajectory_fit.json").read_text())
        assert fit["seed"] == 4
        assert fit["monotone_decay"]

    def test_scan_too_small_system(self, tmp_path):
        cfg = write_config(tmp_path / "tiny.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 3},
        })
        assert main(["resolvent-scan", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestReportVerb:
    def test_full_pipeline_passes(self, beam23_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["report", "--config", beam23_config, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["pass"]
        assert doc["axis_scan"]["slope"] == pytest.approx(1.0, abs=0.15)
        assert doc["envelope"]["exponent"] == pytest.approx(-1.0, abs=0.2)
        assert doc["checks"]["disk_enclosure"]["pass"]
        printed = capsys.readouterr().out
        assert "overall: PASS" in printed

    def test_spectrum_only_report_carries_the_basis(self, tmp_path):
        cfg = write_config(tmp_path / "spec.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
            "tasks": ["spectrum"],
        })
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["checks"]) == {"spectrum_complete", "spectrum_stable",
                                      "disk_enclosure", "basis_conditioning"}
        # the closed-form bound beta1 beta2; the SVD's condition number is 1.8609
        assert doc["basis"]["cond_Q"] == pytest.approx(2.246562717362324, rel=1e-13)
        assert not (out / "basis_q.bin").exists()

    def test_dump_q_writes_the_basis(self, tmp_path):
        cfg = write_config(tmp_path / "dump.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
            "tasks": ["spectrum"],
            "tolerances": {"dump_q": True},
        })
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sys = beam_example(1.0, 1.0, 23)
        q = modal.build_basis(sys, spectrum.full_spectrum(sys)).Q
        back = reports.read_q_binary(str(out / "basis_q.bin"))
        assert back.tobytes() == q.tobytes()

    def test_failed_coupling_skips_the_alpha_checks(self, tmp_path):
        # beta = 1e6 fails A3, so no alpha is certified for the slope and the envelope
        cfg = write_config(tmp_path / "beta.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
            "tasks": ["verify", "localize", "spectrum", "resolvent-scan", "envelope"],
            "tolerances": {"beta": 1e6},
        })
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
        checks = json.loads((out / "report.json").read_text())["checks"]
        assert not checks["assumptions_hold"]["pass"]
        for name in ("axis_scan_slope", "envelope_exponent"):
            assert checks[name] == {"pass": True, "skipped": True,
                                    "detail": "no certified alpha"}
        failed = {name for name, check in checks.items() if not check["pass"]}
        assert failed == {"assumptions_hold"}

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_small_beam_scan_needs_three_bands(self, n, tmp_path, capsys, monkeypatch):
        # the default bands 3..N-3 hold fewer than the 3 the slope fit needs below N = 8
        cfg = write_config(tmp_path / "small.json", {
            "gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": n},
        })
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage computed before the band range was checked")

        for verb in ("report", "resolvent-scan"):
            out = tmp_path / verb
            with monkeypatch.context() as patch:
                if n < 8:
                    for stage in ("spectrum.full_spectrum", "charfn.localize_modes",
                                  "cli.certify_assumptions"):
                        patch.setattr(f"obsdecay.{stage}", no_stage)
                code = main([verb, "--config", cfg, "--out", str(out)])
            err = capsys.readouterr().err
            if n < 8:
                # rejected before any task runs: no artifact is left behind
                assert code == EXIT_CONFIG
                assert err.startswith("config error: axis scan band range 3..")
                assert "Traceback" not in err
                assert not out.exists()
            else:
                assert code == EXIT_OK and err == ""
                scan = json.loads((out / "axis_scan.json").read_text())
                assert [seg[0] for seg in scan["segments"]] == [3, 4, 5]

    def test_beam256_report_passes_every_check(self, tmp_path):
        # the spectrum is complete, so the slope fits alpha, the segment caps are
        # checked and the envelope exponent lies within 0.1 of -1/alpha
        cfg = write_config(tmp_path / "beam256.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 256},
            "tasks": ["verify", "localize", "spectrum", "resolvent-scan", "envelope"],
            "seed": 11,
        })
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        checks = doc["checks"]
        assert all(c["pass"] and not c.get("skipped") for c in checks.values()), checks
        assert {"spectrum_complete", "axis_scan_slope", "segment_bounds",
                "basis_conditioning"} <= set(checks)
        assert doc["spectrum"]["certified"] == 512
        slope = checks["axis_scan_slope"]["detail"]
        assert abs(slope["slope"] - 1.0) <= 0.01 and slope["r2"] >= 0.999
        assert doc["basis"]["cond_Q"] == pytest.approx(2.24656316, rel=1e-8)
        detail = checks["envelope_exponent"]["detail"]
        assert abs(detail["exponent"] - detail["target"]) <= 0.1

    def test_report_forms_no_eigenvector_matrix(self, tmp_path, monkeypatch):
        # the basis numbers come from the spectrum's columns; only simulate and
        # dump_q read the 2N x 2N matrix Q
        def forbidden(basis):
            raise AssertionError("the eigenvector matrix was formed")

        monkeypatch.setattr(modal.ModalBasis, "Q", property(forbidden))
        doc = {"gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 64},
               "tasks": ["verify", "localize", "spectrum", "resolvent-scan", "envelope"]}
        cfg = write_config(tmp_path / "beam64.json", doc)
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["basis_conditioning"]["pass"]
        assert not report["checks"]["segment_bounds"].get("skipped")
        for extra in ({"tasks": ["spectrum", "simulate"]},
                      {"tasks": ["spectrum"], "tolerances": {"dump_q": True}}):
            cfg = write_config(tmp_path / "q.json", {**doc, **extra})
            with pytest.raises(AssertionError, match="eigenvector matrix was formed"):
                main(["report", "--config", cfg, "--out", str(tmp_path / "q")])

    def test_failed_basis_is_built_once(self, tmp_path, monkeypatch):
        # a report reads the basis for the scan's cond(Q), for its own "basis" entry and
        # for simulate; a basis that fails is built once and its error re-raised
        calls = []
        build = modal.build_basis

        def failing(*args):
            calls.append(args)
            build(*args)
            raise modal.BasisError("refused on purpose")

        monkeypatch.setattr(modal, "build_basis", failing)
        cfg = write_config(tmp_path / "beam23.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
            "tasks": ["spectrum", "resolvent-scan", "simulate"],
        })
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
        doc = json.loads((out / "report.json").read_text())
        assert len(calls) == 1
        assert doc["basis"] == {"error": "refused on purpose"}
        assert doc["trajectory"] == {"error": "refused on purpose"}
        assert doc["checks"]["segment_bounds"]["skipped"]

    def test_report_forms_the_linearization_once(self, beam23_config, tmp_path, monkeypatch):
        # localization and the Newton seeds both read the system's cached F and F'
        calls = []

        def counted(*args):
            calls.append(args)
            return linearizations(*args)

        linearizations = model._linearizations
        monkeypatch.setattr(model, "_linearizations", counted)
        assert main(["report", "--config", beam23_config, "--out", str(tmp_path / "out")]) \
            == EXIT_OK
        assert len(calls) == 1

    @pytest.fixture
    def beam23_all_tasks(self, tmp_path):
        return write_config(tmp_path / "all.json", {
            "gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23}})

    def test_report_builds_no_table_records(self, beam23_all_tasks, tmp_path, monkeypatch):
        # the tables of localization.json, spectrum.json and axis_scan.json are
        # encoded from the reports' columns, never from per-row records
        def forbidden(*args, **kwargs):
            raise AssertionError("a per-row record built on the report path")

        monkeypatch.setattr(LocalizationReport, "to_json_dict", forbidden)
        monkeypatch.setattr(SpectrumReport, "to_json_dict", forbidden)
        monkeypatch.setattr(AxisScan, "to_json_dict", forbidden)
        out = tmp_path / "out"
        assert main(["report", "--config", beam23_all_tasks, "--out", str(out)]) == EXIT_OK
        assert {"localization.json", "spectrum.json", "axis_scan.json"} <= set(os.listdir(out))

    def test_each_report_column_is_formatted_once(self, beam23_all_tasks, tmp_path,
                                                  monkeypatch):
        # the JSON and CSV artifacts of a report share the text of its columns,
        # and that text goes when the report does; the axis scan's k and sup
        # are formatted once for its suprema and bound-check tables
        calls = collections.Counter()
        alive = []
        format_column = reports._format_column

        def counted(report, column):
            calls[type(report).__name__, column] += 1
            alive.append(weakref.ref(report))
            return format_column(report, column)

        monkeypatch.setattr(reports, "_format_column", counted)
        assert main(["report", "--config", beam23_all_tasks, "--out", str(tmp_path / "out")]) \
            == EXIT_OK
        loc = ["k", "M", "R0", "R1", "b", "c_const", "Rk", "cond_Mneq1", "cond_Mneq2",
               "interval_ok", "contained", "separated", "omega_gt_1", "rouche_ok"]
        loc += [f"{name}.{part}" for name in ("lambda_star", "F0", "F1") for part in ("real", "imag")]
        spec = ["k", "lam.real", "lam.imag", "residual", "radius", "certified", "newton_iters"]
        scan = ["k", "s_lo", "s_hi", "center", "sup"]
        checks = ["upper", "bound", "applicable", "ok"]
        assert calls == collections.Counter({("LocalizationReport", c): 1 for c in loc}
                                            | {("SpectrumReport", c): 1 for c in spec}
                                            | {("AxisScan", c): 1 for c in scan}
                                            | {("SegmentBoundChecks", c): 1 for c in checks})
        gc.collect()
        assert all(ref() is None for ref in alive)
        assert not any(ref() in reports._TEXTS for ref in alive)

    def test_determinism_byte_identical(self, beam8_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", "--config", beam8_config, "--out", str(out1)]) == EXIT_OK
        assert main(["report", "--config", beam8_config, "--out", str(out2)]) == EXIT_OK
        for name in ("report.json", "assumptions.json", "spectrum.csv",
                     "trajectory.csv", "trajectory_fit.json", "envelope.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_report_entries_name_their_files(self, tmp_path, monkeypatch):
        # each task's entry holds its scalar results and the name of the file it
        # wrote, or is its table-free document; no entry copies a table
        embedded = {"assumptions": "assumptions.json", "envelope": "envelope.json",
                    "trajectory": "trajectory_fit.json"}
        beam8 = {"gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 8},
                 "seed": 4, "tolerances": {"sim_t_final": 4.0, "sim_points": 30}}
        beam64 = {"gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 64},
                  "seed": 11,
                  "tasks": ["verify", "localize", "spectrum", "resolvent-scan", "envelope"]}

        def report(name, doc, code):
            out = tmp_path / name
            assert main(["report", "--config", write_config(tmp_path / f"{name}.json", doc),
                         "--out", str(out)]) == code
            return out, json.loads((out / "report.json").read_text())

        def lists(obj):
            if isinstance(obj, dict):
                return [x for v in obj.values() for x in lists(v)]
            return [obj, *(x for v in obj for x in lists(v))] if isinstance(obj, list) else []

        def check_rule(out, doc, n, refused=()):
            keys = {"verify": "assumptions", "localize": "localization", "spectrum": "spectrum",
                    "resolvent-scan": "axis_scan", "envelope": "envelope",
                    "simulate": "trajectory"}
            for key in refused:
                assert doc[key] == {"error": "refused on purpose"}, key
            for key in (keys[task] for task in doc["tasks"] if keys[task] not in refused):
                entry = doc[key]
                if "file" in entry:
                    written = json.loads((out / entry["file"]).read_text())
                    shared = set(entry) & set(written)
                    assert shared, key
                    assert {k: entry[k] for k in shared} == {k: written[k] for k in shared}, key
                else:
                    assert entry == json.loads((out / embedded[key]).read_text()), key
            assert max(map(len, lists(doc))) < n

        out, doc = report("beam8", beam8, EXIT_OK)
        assert doc["tasks"] == [t for t in ALL_TASKS if t != "report"]
        assert {doc[key]["file"] for key in ("localization", "spectrum", "axis_scan")} == {
            "localization.json", "spectrum.json", "axis_scan.json"}
        check_rule(out, doc, 8)
        check_rule(*report("beam64", beam64, EXIT_OK), 64)

        def refused(*args, **kwargs):
            raise modal.BasisError("refused on purpose")

        monkeypatch.setattr(modal, "build_basis", refused)
        check_rule(*report("refused", beam8, EXIT_CHECK_FAILED), 8,
                   refused=("basis", "trajectory"))

    def test_seed_flag_changes_trajectory(self, beam8_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["report", "--config", beam8_config, "--out", str(out1), "--seed", "1"])
        main(["report", "--config", beam8_config, "--out", str(out2), "--seed", "2"])
        assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()

    def test_empty_tasks_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "empty.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 4},
            "tasks": [],
        })
        assert main(["report", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_task_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "weird.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 4},
            "tasks": ["spectrum", "teleport"],
        })
        assert main(["report", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_tolerance_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "tol.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 4},
            "tolerances": {"newton_tolerance": 1e-10},
        })
        assert main(["report", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("extra", [
        {"tolerances": {"beta": "1.0"}},
        {"tolerances": {"envelope_points": 2.5}},
        {"tolerances": {"dump_q": 1}},
        {"tolerances": {"k0": True}},
        {"tolerances": {"scan_k_min": 3.0}},
        {"seed": "abc"},
        {"seed": 1.5},
    ], ids=["float_as_string", "count_as_float", "flag_as_int", "count_as_bool",
            "optional_count_as_float", "seed_as_string", "seed_as_float"])
    def test_mistyped_value_is_config_error(self, extra, tmp_path, capsys):
        cfg = write_config(tmp_path / "typed.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 4},
            "tasks": ["envelope"],
            **extra,
        })
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["verify", "simulate", "report"])
    def test_negative_seed_is_config_error(self, verb, tmp_path, capsys):
        # the initial state draws from default_rng(seed), which takes no negative
        # seed: from the config and from --seed alike, no stage runs
        system = {"gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 8}}
        cfg = write_config(tmp_path / "seeded.json", {**system, "seed": -3})
        plain = write_config(tmp_path / "plain.json", system)
        for args in (["--config", cfg], ["--config", plain, "--seed", "-3"]):
            out = tmp_path / "out"
            assert main([verb, *args, "--out", str(out)]) == EXIT_CONFIG
            assert "'seed' must be a non-negative integer, got -3" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("system", [
        {"gamma": True, "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 8}},
        {"gamma": 1.0, "generator": {"type": "beam", "theta": True, "sigma": 1.0, "N": 8}},
        {"gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, "sigma": True, "N": 8}},
        {"gamma": 1.0, "modes": [{"omega": 1.0, "c": 1.0}, {"omega": True, "c": 1.0}]},
        {"gamma": 1.0, "modes": [{"omega": 1.0, "c": 1.0}, {"omega": 4.0, "c": True}]},
    ], ids=["gamma", "theta", "sigma", "omega", "c"])
    def test_boolean_system_number_is_config_error(self, system, tmp_path, capsys):
        # Python counts True as 1, so each of these would load as a valid system
        cfg = write_config(tmp_path / "bool.json", system)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "must be a number, got True" in capsys.readouterr().err


    @pytest.mark.parametrize("tolerances", [
        {"theta_frac": 1.5},
        {"sim_points": 0},
        {"sim_points": 2},
        {"envelope_points": 0},
        {"envelope_points": 2},
        {"k0": 0},
        {"beta": -1.0},
        {"envelope_t_lo": 0.0},
        {"envelope_t_lo": 300.0},
        {"envelope_t_hi": 0.5},
        {"sim_t_final": 0.01},
        {"beta": math.inf},
        {"envelope_t_hi": math.inf},
    ], ids=lambda doc: "-".join(f"{k}={v}" for k, v in doc.items()))
    def test_out_of_range_value_is_config_error(self, tolerances, tmp_path, capsys):
        cfg = write_config(tmp_path / "range.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 8},
            "tasks": ["verify", "localize", "spectrum", "resolvent-scan", "envelope",
                      "simulate"],
            "tolerances": tolerances,
        })
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "out of range" in capsys.readouterr().err

    def test_removed_symmetry_tol_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sym.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 4},
            "tolerances": {"symmetry_tol": 1e-9},
        })
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "unknown tolerance keys" in capsys.readouterr().err

    def test_removed_pts_per_segment_is_unknown(self, tmp_path, capsys):
        # the axis scan takes each band's supremum in closed form and samples nothing
        cfg = write_config(tmp_path / "pts.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 8},
            "tasks": ["resolvent-scan"],
            "tolerances": {"pts_per_segment": 33},
        })
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "unknown tolerance keys: ['pts_per_segment']" in capsys.readouterr().err

    def test_removed_newton_tol_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "newton.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 4},
            "tolerances": {"newton_tol": 1e-12},
        })
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "unknown tolerance keys" in capsys.readouterr().err


# the argv shapes the tests in this file hand to main, and every option on every verb
PARSED_ARGV = [
    ["verify", "--config", "c.json"],
    ["spectrum", "--config", "c.json", "--out", "out", "--strict"],
    ["spectrum", "--config", "c.json", "--out", "out", "--n", "4"],
    ["localize", "--config", "c.json", "--out", "out", "--strict"],
    ["report", "--config", "c.json", "--out", "out", "--seed", "1"],
    *([verb, "--config", "c.json", *extra] for verb in ALL_TASKS for extra in (
        ["--out", "out"], ["--seed", "-3"], ["--n", "12"], ["--strict"],
        ["--strict", "--n", "5", "--seed", "2", "--out", "o"])),
]
USAGE_ERRORS = [[], ["teleport", "--config", "c.json"], ["report"], ["report", "--config"],
                ["report", "--config", "c.json", "--seed", "x"],
                ["report", "--config", "c.json", "--n", "1.5"],
                ["report", "--config", "c.json", "--bogus"]]


class TestParser:
    @pytest.mark.parametrize("argv", PARSED_ARGV, ids=" ".join)
    def test_same_values_as_one_subparser_per_verb(self, argv):
        expected = oracles.subcommand_parser(ALL_TASKS).parse_args(argv)
        assert vars(build_parser().parse_args(argv)) == vars(expected)

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_errors_exit_2(self, argv, capsys):
        for parse in (main, oracles.subcommand_parser(ALL_TASKS).parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == EXIT_CONFIG
            assert "usage: obsdecay" in capsys.readouterr().err


class TestTolerances:
    def test_defaults_echoed(self):
        tol = Tolerances()
        doc = tol.to_json_dict()
        assert doc["theta_frac"] == 0.5
        assert "newton_tol" not in doc
        assert doc["axis_slope_tol"] == 0.15
        assert doc["envelope_exponent_tol"] == 0.2

    def test_overrides_applied(self):
        tol = Tolerances.from_dict({"beta": 2.0, "envelope_points": 17})
        assert tol.beta == 2.0 and tol.envelope_points == 17

    def test_value_types_follow_the_defaults(self):
        tol = Tolerances.from_dict({"beta": 2, "scan_k_min": None, "scan_k_max": 12,
                                    "dump_q": True})
        assert (tol.beta, tol.scan_k_min, tol.scan_k_max, tol.dump_q) == (2, None, 12, True)


class TestDegradedPipelines:
    def test_overdamped_simulate_fails_cleanly(self, tmp_path):
        # gamma = 2 collapses the first mode pair onto the real axis; the
        # basis cannot be built, so simulate must fail with exit code 1
        cfg = write_config(tmp_path / "hot2.json", {
            "gamma": 2.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
            "tolerances": {"sim_t_final": 2.0, "sim_points": 10},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED

    def test_overdamped_report_records_failure(self, tmp_path):
        cfg = write_config(tmp_path / "hot3.json", {
            "gamma": 2.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
            "tasks": ["verify", "spectrum", "simulate"],
            "tolerances": {"sim_t_final": 2.0, "sim_points": 10},
        })
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
        doc = json.loads((out / "report.json").read_text())
        assert not doc["pass"]
        assert "error" in doc["trajectory"]
        assert not doc["checks"]["spectrum_complete"]["pass"]

    def test_failure_texts_appear_once_in_the_report(self, tmp_path):
        # at gamma = 1e-200 all 64 modes are lost; report.json lists each failure
        # text once, in the spectrum entry, and the check counts them
        cfg = write_config(tmp_path / "cold64.json", {
            "gamma": 1e-200,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 64},
            "tasks": ["verify", "spectrum"],
        })
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
        text = (out / "report.json").read_text()
        failures = json.loads((out / "spectrum.json").read_text())["failures"]
        assert len(failures) == 64
        assert all(text.count(json.dumps(f)) == 1 for f in failures)
        doc = json.loads(text)
        assert doc["spectrum"]["failures"] == failures
        assert doc["checks"]["spectrum_complete"] == {"pass": False, "detail": 64}

    def test_incomplete_spectrum_skips_the_segment_bounds(self, tmp_path, monkeypatch):
        # without a complete spectrum there is no basis and no cond(Q), so no
        # cap is proven: the check is skipped and the basis is never built
        def no_basis(*args, **kwargs):
            raise AssertionError("the basis of an incomplete spectrum was built")

        monkeypatch.setattr(modal, "build_basis", no_basis)
        cfg = write_config(tmp_path / "hot.json", {
            "gamma": 2.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 23},
            "tasks": ["localize", "resolvent-scan"],
        })
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["checks"]["segment_bounds"] == {"pass": True, "skipped": True,
                                                   "detail": "no cond(Q): cap not proven"}
        scan = json.loads((out / "axis_scan.json").read_text())
        assert scan["segment_bounds_ok"] is None
        assert all(row["upper"] is None for row in scan["segment_bound_checks"])

    @pytest.mark.parametrize("n, task, check, error", [
        (5, "envelope", "envelope_ran", "spectrum report carries no eigenvalues"),
        (12, "resolvent-scan", "axis_scan_ran", "the axis scan needs at least one eigenvalue"),
    ], ids=["envelope", "resolvent-scan"])
    def test_empty_spectrum_is_a_stage_failure(self, n, task, check, error, tmp_path, capsys):
        # at gamma = 1e-200 every root of these beams lies about 1e-200 from its
        # pole, where f' overflows binary64, so none is found; the stage that
        # needs one fails, the report records it and both runs exit 1
        cfg = write_config(tmp_path / "cold.json", {
            "gamma": 1e-200,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": n},
            "tasks": ["verify", "spectrum", task],
        })
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
        doc = json.loads((out / "report.json").read_text())
        assert doc["spectrum"]["count"] == 0 and not doc["pass"]
        assert doc["checks"][check] == {"pass": False, "detail": error}
        capsys.readouterr()
        assert main([task, "--config", cfg, "--out", str(tmp_path / "verb")]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == f"computation failed: {error}\n"

    def test_envelope_underflow_is_fitted_on_the_positive_samples(self, tmp_path):
        # exp(Re lam t) underflows to 0 from t ~ 3.5e4 on, inside the whole
        # grid the non-polynomial fit falls back to; only the positive
        # samples are fitted and the window ends at the last of them
        cfg = write_config(tmp_path / "late.json", {
            "gamma": 1.0,
            "modes": [{"omega": float(j * j), "c": j ** -0.5} for j in range(1, 24)],
            "tasks": ["spectrum", "envelope"],
            "tolerances": {"envelope_t_hi": 1e5},
        })
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        env = json.loads((out / "envelope.json").read_text())
        assert not env["polynomial"]
        assert env["window"][0] == 1.0 and 3e4 < env["window"][1] < 1e5
        doc = json.loads((out / "report.json").read_text())
        assert doc["checks"]["envelope_exponent"]["skipped"]
        assert "envelope_ran" not in doc["checks"]
