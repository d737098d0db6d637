import hashlib
import json
import os

import pytest

from ssro.cli import main
from ssro.config import (ConfigError, RunConfig, default_config, load_config,
                         ENV_PREFIX)


def file_digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestConfig:
    def test_default_profile_loads(self):
        cfg = load_config("default", environ={})
        assert cfg.protocol.cycles == 250
        assert cfg.shot_model.flip_bd == 7.7e-4

    def test_round_trip_identical(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "cfg.json"
        cfg.save(path)
        again = load_config(str(path), environ={})
        assert again == cfg
        path2 = tmp_path / "cfg2.json"
        again.save(path2)
        assert path.read_text() == path2.read_text()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            RunConfig.from_dict({"laser": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_dict({"shot_model": {"lambda_blue": 1}})

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError, match="shot_model"):
            RunConfig.from_dict({"shot_model": {"flip_bd": 2.0}})

    def test_env_override(self):
        cfg = load_config("default", environ={ENV_PREFIX + "RUN__SHOTS": "777"})
        assert cfg.run.shots == 777

    def test_env_override_bad_path(self):
        with pytest.raises(ConfigError, match="SECTION__FIELD"):
            load_config("default", environ={ENV_PREFIX + "SHOTS": "777"})

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.json", environ={})

    def test_packaged_profile_matches_code_defaults(self):
        # the shipped data file must stay in sync with the dataclass defaults
        assert load_config("default", environ={}) == default_config()


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["simulate", "--shots", "not-a-number"]) == 1

    def test_unknown_override_usage(self, tmp_path):
        assert main(["scenario", "--override", "nonsense",
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--shots", "0"], "--shots"),
        (["simulate", "--shots", "-5"], "--shots"),
        (["scenario", "--budget-ms", "0"], "--budget-ms"),
        (["scenario", "--budget-ms", "-1"], "--budget-ms"),
        (["pump", "--duration", "0"], "--duration"),
        (["odmr", "--step", "0"], "--step"),
        (["odmr", "--step", "-0.1"], "--step"),
        (["odmr", "--populations", "a,b"], "--populations"),
        (["odmr", "--populations", "0.5,0.6"], "--populations"),
    ], ids=["shots-0", "shots-negative", "budget-0", "budget-negative",
            "duration-0", "step-0", "step-negative", "populations-text",
            "populations-sum"])
    def test_invalid_number_is_a_one_line_usage_error(self, tmp_path, capsys,
                                                      argv, name):
        assert main(argv + ["--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ") and name in err
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_config_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"shot_model": {"bogus": 1}}')
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    def test_mode_mismatch_is_two(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--shots", "300", "--seed", "5",
                     "--out", out]) == 0
        assert main(["analyze", "--in", out, "--out", out,
                     "--mode", "dual-step"]) == 2

    def test_runtime_error_is_three(self, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps(dict(
            mean_bright=0.001, mean_dark=0.0005,
            rate_bright_as_dark=0.001, rate_dark_as_bright=0.0005)))
        assert main(["fit-model", "--targets", str(targets),
                     "--out", str(tmp_path)]) == 3


class TestSimulateAnalyze:
    def test_simulate_is_reproducible(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["simulate", "--shots", "2000", "--seed", "42",
                         "--out", out]) == 0
        assert (file_digest(os.path.join(out_a, "batch_up.jsonl"))
                == file_digest(os.path.join(out_b, "batch_up.jsonl")))
        assert (file_digest(os.path.join(out_a, "batch_down.jsonl"))
                == file_digest(os.path.join(out_b, "batch_down.jsonl")))

    def test_neighbouring_seeds_share_no_shot_streams(self, tmp_path):
        def shot_seeds(seed, prepared):
            out = tmp_path / str(seed)
            if not out.exists():
                assert main(["simulate", "--shots", "50", "--seed", str(seed),
                             "--out", str(out)]) == 0
            lines = (out / f"batch_{prepared}.jsonl").read_text().splitlines()
            return {json.loads(line)["seed"] for line in lines[1:]}

        assert shot_seeds(1, "down").isdisjoint(shot_seeds(2, "up"))

    def test_manifest_digests_match_outputs(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--shots", "500", "--seed", "1",
                     "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["outputs"]
        for name, digest in manifest["outputs"].items():
            assert file_digest(os.path.join(out, name)) == digest

    def test_analyze_modes(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--shots", "20000", "--seed", "5",
                     "--out", out]) == 0
        for mode in ("raw", "conditional"):
            assert main(["analyze", "--in", out, "--out", out,
                         "--mode", mode]) == 0
            report = json.load(open(os.path.join(out, f"report_{mode}.json")))
            assert 0.8 < report["average_fidelity"] <= 1.0

    def test_full_cycles_flag(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--shots", "20", "--seed", "5",
                     "--full-cycles", "--out", out]) == 0
        lines = open(os.path.join(out, "batch_up.jsonl")).read().splitlines()
        rec = json.loads(lines[1])
        assert len(rec["counts1"]) == 250
        assert sum(rec["counts1"]) == rec["total1"]

    def test_prepared_single_state(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--shots", "100", "--seed", "5",
                     "--prepared", "up", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "batch_up.jsonl"))
        assert not os.path.exists(os.path.join(out, "batch_down.jsonl"))


class TestSmallCommands:
    def test_odmr(self, tmp_path):
        out = str(tmp_path)
        assert main(["odmr", "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["summary"]["peak_separation_mhz"] == pytest.approx(
            8.0, abs=0.1)

    def test_pump(self, tmp_path):
        out = str(tmp_path)
        assert main(["pump", "--duration", "2.0", "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["summary"]["pump_fidelity_at_1p5us"] >= 0.985
        assert manifest["summary"]["expected_cycle_photons"] == pytest.approx(
            0.028, abs=0.002)

    def test_optimize_threshold(self, tmp_path):
        out = str(tmp_path)
        assert main(["optimize-threshold", "--out", out]) == 0
        payload = json.load(open(os.path.join(out, "threshold.json")))
        assert payload["best_cutoff"] == 1

    def test_scenario(self, tmp_path):
        out = str(tmp_path)
        assert main(["scenario", "--override", "lambda_bright_scale=5",
                     "--budget-ms", "0.2", "--out", out]) == 0
        payload = json.load(open(os.path.join(out, "scenario.json")))
        assert payload["cycles"] == 57
        assert payload["optimized_fidelity"] > 0.99

    @pytest.mark.parametrize("override", [
        "charge_error=0.5", "nuclear_init_error=0.4", "charge_error_scale=3"])
    def test_scenario_rejects_zeroed_field_override(self, tmp_path, capsys,
                                                    override):
        out = str(tmp_path)
        assert main(["scenario", "--override", override, "--out", out]) == 3
        key = override.partition("=")[0]
        assert f"override {key} has no effect" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "scenario.json"))

    def test_scenario_rejects_dual_protocol(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv(ENV_PREFIX + "PROTOCOL__KIND", '"dual"')
        out = str(tmp_path)
        assert main(["scenario", "--out", out]) == 3
        assert "single-read" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "scenario.json"))

    @pytest.mark.parametrize("command", [
        ["optimize-threshold"], ["scenario"],
        ["scenario", "--override", "lambda_bright_scale=0.5"]])
    def test_no_separating_cutoff_exits_3(self, tmp_path, capsys, monkeypatch,
                                          command):
        # a dark state brighter than the bright one: no cutoff beats chance
        monkeypatch.setenv(ENV_PREFIX + "SHOT_MODEL__LAMBDA_DARK", "0.5")
        out = str(tmp_path)
        assert main([*command, "--out", out]) == 3
        assert "above chance" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_fit_flip(self, tmp_path):
        # plumbing only: statistical recovery is covered by the analysis
        # tests and the acceptance suite at full scale
        out = str(tmp_path / "run")
        assert main(["simulate", "--shots", "150000", "--seed", "9",
                     "--out", out]) == 0
        assert main(["fit-flip", "--in", out, "--out", out]) == 0
        payload = json.load(open(os.path.join(out, "flip_fit.json")))
        lo, hi = payload["ci68"]
        assert 0.0 < payload["flip_rate"] < 5e-3
        assert lo < payload["flip_rate"] < hi


    def test_fit_flip_needs_only_the_up_batch(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--shots", "200", "--seed", "9",
                     "--prepared", "up", "--out", out]) == 0
        assert main(["fit-flip", "--in", out, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "flip_fit.json"))
        # analyze still needs both preparations
        assert main(["analyze", "--in", out, "--out", out]) == 2


class TestReproducePipeline:
    def test_summary_matches_reference(self, tmp_path):
        out = str(tmp_path / "repro")
        assert main(["reproduce-paper", "--shots", "20000", "--seed", "3",
                     "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        cond = summary["conditional_fidelity"]["simulated"]
        assert 0.976 <= cond <= 0.986
        assert summary["mean_bright"]["simulated"] == pytest.approx(6.24,
                                                                    abs=0.2)
        assert summary["expected_cycle_photons"]["simulated"] == \
            pytest.approx(0.028, abs=0.002)
        for name in ("pump_curve.csv", "odmr_spectrum.csv",
                     "histogram_raw.csv", "histogram_conditional.csv",
                     "joint_histogram.csv", "detection_curve.csv",
                     "report_raw.json", "report_conditional.json",
                     "report_dual.json", "shot_model.json", "summary.json"):
            assert os.path.exists(os.path.join(out, name)), name


class TestConfigReachesBatches:
    @pytest.mark.parametrize("key", ["PROTOCOL__CYCLES", "CLASSIFIER__WINDOW"])
    def test_conditional_analysis_of_a_cli_run(self, tmp_path, monkeypatch,
                                               key):
        monkeypatch.setenv(ENV_PREFIX + key, "100")
        out = str(tmp_path / "run")
        assert main(["simulate", "--shots", "500", "--seed", "2",
                     "--out", out]) == 0
        with open(os.path.join(out, "batch_up.jsonl")) as fh:
            assert json.loads(fh.readline())["head_window"] == 100
        assert main(["analyze", "--mode", "conditional", "--in", out,
                     "--out", out]) == 0

    @pytest.mark.parametrize("key, value", [
        ("PHYSICAL__PI_PULSE_FIDELITY", "0.0"),
        ("OPTICAL__COLLECTION_EFFICIENCY", "0.0")])
    def test_microscopic_runs_use_physical_and_optical(self, tmp_path,
                                                       monkeypatch, key,
                                                       value):
        monkeypatch.setenv(ENV_PREFIX + "SHOT_MODEL__MODE", '"microscopic"')
        digests = []
        for env in ({}, {ENV_PREFIX + key: value}):
            for k, v in env.items():
                monkeypatch.setenv(k, v)
            out = str(tmp_path / str(len(digests)))
            assert main(["simulate", "--shots", "20", "--seed", "3",
                         "--prepared", "up", "--out", out]) == 0
            digests.append(file_digest(os.path.join(out, "batch_up.jsonl")))
        assert digests[0] != digests[1]


class TestScenarioOverrides:
    @pytest.mark.parametrize("override", [
        "lambda_bright=-1", "flip_bd=2", "cycles=0", "cycles=2.5",
        "lambda_bright_scale=30000", "lambda_dark=NaN",
        'nuclear_init_error="x"'])
    def test_bad_override_is_runtime_error(self, tmp_path, capsys, override):
        assert main(["scenario", "--override", override,
                     "--out", str(tmp_path)]) == 3
        key = override.partition("=")[0]
        assert f"{key}=" in capsys.readouterr().err

    def test_override_value_must_parse(self, tmp_path):
        assert main(["scenario", "--override", "cycles=abc",
                     "--out", str(tmp_path)]) == 1
