import csv
import json
import os

import pytest

from conftest import SINGLE_MODE_ROOTS, localizations
from obsdecay import reports, spectrum
from obsdecay.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, Tolerances, main
from obsdecay.model import beam_example


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
        assert doc["segment_bounds_ok"]

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
        assert doc["basis"]["cond_Q"] == pytest.approx(1.86087467488369, rel=1e-13)
        assert not (out / "basis_q.bin").exists()

    def test_determinism_byte_identical(self, beam8_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", "--config", beam8_config, "--out", str(out1)]) == EXIT_OK
        assert main(["report", "--config", beam8_config, "--out", str(out2)]) == EXIT_OK
        for name in ("report.json", "assumptions.json", "spectrum.csv",
                     "trajectory.csv", "trajectory_fit.json", "envelope.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_task_documents_embedded_as_written(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "all.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 8},
            "seed": 4,
            "tolerances": {"sim_t_final": 4.0, "sim_points": 30},
        })
        calls = {}
        write_json = reports.write_json

        def recording(path, doc):
            text = write_json(path, doc)
            calls[os.path.basename(path)] = (doc, text)
            return text

        monkeypatch.setattr(reports, "write_json", recording)
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = (out / "report.json").read_text()
        files = {"assumptions": "assumptions.json", "localization": "localization.json",
                 "axis_scan": "axis_scan.json", "envelope": "envelope.json",
                 "trajectory": "trajectory_fit.json"}
        for key, name in files.items():
            text = (out / name).read_text()
            entry = f'\n  "{key}": ' + text[:-1].replace("\n", "\n  ")
            assert entry + ",\n" in report or report.endswith(entry + "\n}\n"), key
            # handed over as the written text, not encoded a second time
            assert calls["report.json"][0][key] is calls[name][1]
        # spectrum.json holds every root; report.json only its summary
        assert set(json.loads(report)["spectrum"]) == {
            "count", "certified", "complete", "failures", "enclosure_defect", "max_re",
            "min_abs_re"}

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


    @pytest.mark.parametrize("tolerances", [
        {"theta_frac": 1.5},
        {"sim_points": 0},
        {"pts_per_segment": 2},
        {"envelope_points": 2},
        {"k0": 0},
        {"beta": -1.0},
        {"envelope_t_lo": 0.0},
        {"envelope_t_lo": 300.0},
        {"envelope_t_hi": 0.5},
        {"sim_t_final": 0.01},
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

    def test_removed_newton_tol_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "newton.json", {
            "gamma": 1.0,
            "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0, "N": 4},
            "tolerances": {"newton_tol": 1e-12},
        })
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "unknown tolerance keys" in capsys.readouterr().err


class TestTolerances:
    def test_defaults_echoed(self):
        tol = Tolerances()
        doc = tol.to_json_dict()
        assert doc["theta_frac"] == 0.5
        assert "newton_tol" not in doc
        assert doc["axis_slope_tol"] == 0.15
        assert doc["envelope_exponent_tol"] == 0.2

    def test_overrides_applied(self):
        tol = Tolerances.from_dict({"beta": 2.0, "pts_per_segment": 17})
        assert tol.beta == 2.0 and tol.pts_per_segment == 17

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
