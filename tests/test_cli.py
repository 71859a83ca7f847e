"""Command-line interface and validation-suite tests."""

import csv
import json

import numpy as np
import pytest

import skf.experiments
import skf.filter
import skf.validation
from skf.cli import main
from skf.experiments import (
    example1_config,
    example2_config,
    run_trial,
    scaled_config,
    sensitivity_sweep,
)
from skf.validation import (
    check_eta_zero_reduction,
    check_gain_stationarity,
    check_recursion_containment,
)


def count_builds(monkeypatch):
    """The configs that ``build_model`` is called with from now on, in a list."""
    builds = []
    original = skf.experiments.build_model

    def counting(cfg):
        builds.append(cfg)
        return original(cfg)

    monkeypatch.setattr(skf.experiments, "build_model", counting)
    return builds


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def assert_csv_is_trials(path, trials):
    """Every number of ``trials.csv`` parses back to its ``Trial`` array entry."""
    header, *rows = read_rows(path)
    table = np.array(rows, dtype=float)
    column = dict(zip(header, table.T))
    steps = trials[0].beta_star.size
    assert table.shape[0] == len(trials) * steps
    assert np.array_equal(column["trial"], np.repeat(np.arange(len(trials)), steps))
    assert np.array_equal(column["k"], np.tile(np.arange(1, steps + 1), len(trials)))
    for prefix, field in (
        ("x_true", "true_state"),
        ("y", "measurement"),
        ("skf_center", "skf_center"),
        ("ekf_state", "ekf_state"),
    ):
        stacked = np.concatenate([getattr(t, field) for t in trials])
        for i in range(stacked.shape[1]):
            assert np.array_equal(column[f"{prefix}_{i}"], stacked[:, i])
    for name in ("beta_star", "skf_dist", "ekf_dist"):
        assert np.array_equal(column[name], np.concatenate([getattr(t, name) for t in trials]))


class TestRunCommand:
    def test_deterministic_outputs(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["example1", "--trials", "1", "--steps", "5", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "run"
        assert main(["example1", "--trials", "2", "--steps", "3", "--out", str(out)]) == 0
        rows = read_rows(out / "trials.csv")
        assert rows[0] == [
            "trial",
            "k",
            "x_true_0",
            "y_0",
            "skf_center_0",
            "ekf_state_0",
            "beta_star",
            "skf_dist",
            "ekf_dist",
        ]
        assert len(rows) == 1 + 2 * 3
        assert rows[1][0] == "0" and rows[1][1] == "1"
        assert rows[-1][0] == "1" and rows[-1][1] == "3"

    def test_csv_is_the_trial_arrays(self, tmp_path):
        out = tmp_path / "run"
        assert main(["example1", "--trials", "2", "--steps", "6", "--out", str(out)]) == 0
        cfg = example1_config(trials=2, steps=6)
        assert_csv_is_trials(out / "trials.csv", [run_trial(cfg, t) for t in range(2)])

    def test_eta_zero_summary_gap(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["example1", "--eta", "0", "--trials", "1", "--steps", "20", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["eta_zero_max_gap"] < 1e-9

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "run"
        main(["example1", "--trials", "1", "--steps", "3", "--seed", "9", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["config"]["steps"] == 3
        assert manifest["config"]["eta"] == 0.5
        assert manifest["csv_schema"] == 1
        assert set(manifest["outputs"]) == {"trials", "summary", "manifest"}
        # the config's derived attributes are not fields, so they are not echoed
        assert not {"model", "initial_belief"} & set(manifest["config"])

    def test_config_file_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"steps": 4, "eta": 0.25}))
        out = tmp_path / "run"
        main(["example1", "--trials", "1", "--config", str(cfg_file), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["steps"] == 4
        assert manifest["config"]["eta"] == 0.25

    def test_flag_wins_over_config_file(self, tmp_path, monkeypatch):
        builds = count_builds(monkeypatch)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"steps": 4, "trials": 1}))
        out = tmp_path / "run"
        args = ["example1", "--steps", "6", "--config", str(cfg_file)]
        assert main(args + ["--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["steps"] == 6
        assert len(builds) <= 3  # flags, file, flags again

    def test_bad_config_value_is_checked_under_a_flag(self, tmp_path, capsys):
        # the flag would replace the file's value, but the file's value is still checked
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"trials": 2.5}))
        out = tmp_path / "bad"
        args = ["example1", "--trials", "1", "--config", str(cfg_file), "--out", str(out)]
        assert main(args) == 1
        assert "trials" in capsys.readouterr().err
        assert not out.exists()

    def test_one_build_without_config_file(self, tmp_path, monkeypatch):
        builds = count_builds(monkeypatch)
        args = ["example1", "--trials", "3", "--eta", "0.5", "--seed", "11"]
        assert main(args + ["--out", str(tmp_path / "run")]) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trials", 2.5),
            ("seed", 1.5),
            ("steps", "3"),
            ("eta", "abc"),
            ("seed", -1),
            ("eta", True),
            ("dt", "x"),
            ("stations", [[1, 2, 3], [0, 0]]),
            ("x0", ["a"]),
            ("which", "example2"),
            ("cov0", [[float("nan")]]),
            ("ubb_meas_shape", [[float("nan")]]),
            ("ubb_process_shapes", [[[float("inf")]]]),
            ("x0", [float("-inf")]),
            ("stations", [[float("nan"), 0.0], [1.0, 1.0]]),
            # covariances and shapes follow the matrix rule
            ("ubb_meas_shape", [[-4.0]]),
            ("cov0", [[-1.0]]),
            ("meas_cov", [[-1.0]]),
            ("ubb_process_shapes", [[[-9.0]]]),
            ("process_cov", [[1.0, 0.5], [0.0, 1.0]]),
            ("shape0", [[1.0, 0.0], [0.0, 1.0]]),
            ("cov0", [[0.0]]),
            ("ubb_meas_shape", [[[4.0]]]),
            # sizes are checked against the scenario's model
            ("process_cov", [[1.0, 0.0], [0.0, 1.0]]),
            ("meas_cov", [[1.0, 0.0], [0.0, 1.0]]),
            ("x0", [0.1, 0.1]),
            ("x0", 0.1),
            ("ubb_process_shapes", [[[9.0]], [[9.0]]]),
            ("ubb_process_shapes", [[[1.0, 0.0], [0.0, 1.0]]]),
            # fields the scenario does not read
            ("dt", 5.0),
            ("stations", [[0.0, 0.0], [3.0, 4.0]]),
        ],
    )
    def test_bad_config_value_exits_1_before_output(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        out = tmp_path / "bad"
        assert main(["example1", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ubb_meas_shape", [[1.0, 0.0], [0.0, 1.0]]),
            ("meas_cov", [[1.0]]),
            ("process_cov", [[1.0]]),
            ("x0", [0.0, 0.0]),
            ("stations", [[50.0, 100.0], [50.0, 100.0]]),
            ("stations", [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
            ("stations", None),
            ("dt", None),
        ],
    )
    def test_bad_example2_config_value_exits_1_before_output(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        out = tmp_path / "bad"
        assert main(["example2", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("5")
        assert main(["example1", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_config_key_fails(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"nope": 1}))
        out = tmp_path / "run"
        code = main(["example1", "--config", str(cfg_file), "--out", str(out)])
        assert code == 1

    def test_invalid_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["example1", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("example1", "--eta", "1.5"),
            ("example1", "--trials", "0"),
            ("example1", "--trials", "2.5"),
            ("example2", "--steps", "0"),
            ("sweep", "--scales", "1,x"),
            ("sweep", "--scales", "1,-2"),
            ("sweep", "--scales", "nan"),
            ("sweep", "--scales", "1,inf"),
            ("example1", "--seed", "-1"),
            # a repeated scale would run twice under one summary key
            ("sweep", "--scales", "1,1"),
            ("sweep", "--scales", "0,-0"),
        ],
    )
    def test_bad_flag_value_exits_2_before_output(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "bad"
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value, "--out", str(out)])
        assert exc.value.code == 2
        # the usage text above the error line names every flag, so look in the error line only
        (error,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert flag.lstrip("-") in error
        assert not out.exists()

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_example2_summary_has_crossing_ratio(self, tmp_path):
        out = tmp_path / "run"
        code = main(["example2", "--trials", "1", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "crossing" in summary
        assert summary["crossing"]["ratio_median"] > 2.0


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--steps", "60", "--scales", "0,1", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        table = summary["sweep_table"]
        assert [row["scale"] for row in table] == [0.0, 1.0]
        assert table[0]["max_semi_axis"] <= table[1]["max_semi_axis"]
        assert (out / "trials.csv").exists()
        assert (out / "manifest.json").exists()

    def test_point_set_summary_is_strict_json(self, tmp_path):
        # a point initial set at scale 0 stays a point, so the crossing ratio is undefined
        config = tmp_path / "point.json"
        config.write_text(json.dumps({"shape0": np.zeros((4, 4)).tolist()}))
        out = tmp_path / "sweep"
        args = ["sweep", "--trials", "1", "--scales", "0", "--config", str(config)]
        assert main(args + ["--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        crossing = summary["per_scale"]["0.0"]["crossing"]
        assert crossing["ratio_median"] is None and crossing["ratio_min"] is None

    def test_sweep_csv_numbers_trials_across_scales(self, tmp_path):
        out = tmp_path / "sweep"
        args = ["sweep", "--trials", "2", "--steps", "20", "--scales", "10,0"]
        assert main(args + ["--out", str(out)]) == 0
        base = example2_config(trials=2, steps=20)
        expected = [
            run_trial(scaled_config(base, scale), t) for scale in (10.0, 0.0) for t in range(2)
        ]
        assert_csv_is_trials(out / "trials.csv", expected)

    def test_sweep_runs_each_trial_once(self, tmp_path, monkeypatch):
        # the table reuses trial 0 of each scale's batch instead of rerunning it
        calls = []
        original = skf.experiments.run_trial

        def counting(cfg, trial=0):
            calls.append(trial)
            return original(cfg, trial)

        monkeypatch.setattr(skf.experiments, "run_trial", counting)
        out = tmp_path / "sweep"
        builds = count_builds(monkeypatch)
        args = ["sweep", "--trials", "1", "--steps", "20", "--scales", "0,1,10"]
        assert main(args + ["--out", str(out)]) == 0
        assert calls == [0, 0, 0]
        assert len(builds) == 4  # the resolved config, then one per scale
        monkeypatch.undo()
        table = json.loads((out / "summary.json").read_text())["sweep_table"]
        expected = sensitivity_sweep(example2_config(trials=1, steps=20), [0.0, 1.0, 10.0])
        assert table == expected


    def test_config_file_sets_sweep_trials(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"trials": 2}))
        out = tmp_path / "sweep"
        args = ["sweep", "--steps", "3", "--scales", "0,1", "--config", str(cfg_file)]
        assert main(args + ["--out", str(out)]) == 0
        per_scale = json.loads((out / "summary.json").read_text())["per_scale"]
        assert [s["trials"] for s in per_scale.values()] == [2, 2]


class TestWorkerEnv:
    def test_thread_cap_parsing(self, monkeypatch, tmp_path, capsys):
        from skf.cli import _workers

        monkeypatch.setenv("SKF_THREADS", "3")
        assert _workers() == 3
        for bad in ("junk", "0", "-2"):
            monkeypatch.setenv("SKF_THREADS", bad)
            with pytest.raises(SystemExit) as exc:
                main(["example1", "--trials", "1", "--steps", "2", "--out", str(tmp_path / "bad")])
            assert exc.value.code == 2
            assert "SKF_THREADS" in capsys.readouterr().err
            assert not (tmp_path / "bad").exists()
        monkeypatch.delenv("SKF_THREADS")
        assert _workers() == 1
        monkeypatch.setenv("SKF_THREADS", "2")
        out = tmp_path / "run"
        assert main(["example1", "--trials", "2", "--steps", "4", "--out", str(out)]) == 0


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        import time

        start = time.perf_counter()
        assert main(["validate"]) == 0
        assert time.perf_counter() - start < 10.0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("PASS") for line in lines)

    def test_individual_checks_pass(self):
        assert check_recursion_containment(systems=5).passed
        assert check_eta_zero_reduction(steps=10).passed
        assert check_gain_stationarity(configs=3).passed

    def test_corrupted_sum_bound_is_caught(self, monkeypatch):
        # intentional fault: shrink the predicted bound; the truth must leave it
        original = skf.filter.trace_min_sum

        def corrupted(factors):
            return 0.5 * original(factors)

        monkeypatch.setattr(skf.filter, "trace_min_sum", corrupted)
        assert not check_recursion_containment().passed

    def test_halved_limit_measurement_block_is_caught(self, monkeypatch):
        # intentional fault: halve the measurement-set block K0 H_b L_Sz of a
        # certified beta -> 0 posterior; those are the only updates that call
        # trace_min_sum, so it is halved only inside skf_update
        update, bound = skf.validation.skf_update, skf.filter.trace_min_sum
        updating = []

        def flagged_update(*args):
            updating.append(True)
            try:
                return update(*args)
            finally:
                updating.pop()

        def halving(factors):
            if updating:
                factors = [*factors[:-1], 0.5 * factors[-1]]
            return bound(factors)

        monkeypatch.setattr(skf.validation, "skf_update", flagged_update)
        monkeypatch.setattr(skf.filter, "trace_min_sum", halving)
        assert not check_recursion_containment().passed

    def test_failure_exits_1(self, monkeypatch):
        failing = skf.validation.CheckResult("broken", False, "synthetic")
        monkeypatch.setattr(skf.validation, "run_all", lambda: [failing])
        monkeypatch.setattr("skf.cli.run_all", skf.validation.run_all)
        assert main(["validate"]) == 1
