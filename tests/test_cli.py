import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from vanar import (
    Dataset, ScenarioSpec, VanarForecaster, VarForecaster, impulse_response, read_csv,
    simulate_scenario, write_csv,
)
from vanar import experiment
from vanar.cli import ingest_csv, main
from vanar.experiment import (
    ConfigError, TaskError, list_presets, load_preset, run, validate_config,
)

FAST_MODELS = [
    {"kind": "var"},
    {"kind": "ar"},
    {"kind": "vanar", "hidden_dims": [8, 8], "epochs": 10},
    {"kind": "ana", "hidden_dims": [8, 8], "epochs": 10},
]


def fast_config(**overrides):
    cfg = {
        "system": "system1",
        "scenario": {"kind": "default", "seed": 0},
        "environment": {"train_len": 120, "test_len": 10},
        "models": [dict(m) for m in FAST_MODELS],
        "tasks": ["forecast"],
        "seeds": [0, 1],
        "p": 2,
    }
    cfg.update(overrides)
    return cfg


class TestIngest:
    def test_quarterly_aggregation(self, tmp_path):
        rows = np.arange(36.0).reshape(12, 3)
        src = tmp_path / "monthly.csv"
        write_csv(Dataset(("a", "b", "c"), rows), src)
        data = ingest_csv(src, aggregate="quarterly")
        assert data.n_obs == 4
        # first quarter means: rows 0..2
        assert data.values[0].tolist() == rows[:3].mean(axis=0).tolist()

    def test_aggregation_requires_multiple_of_three(self, tmp_path):
        src = tmp_path / "m.csv"
        write_csv(Dataset(("a",), np.arange(10.0).reshape(-1, 1)), src)
        with pytest.raises(ValueError, match="multiple of 3"):
            ingest_csv(src, aggregate="quarterly")

    def test_log_transform(self, tmp_path):
        src = tmp_path / "d.csv"
        write_csv(Dataset(("a", "b"), [[1.0, 2.0], [np.e, 4.0]]), src)
        data = ingest_csv(src, log_columns=["a"])
        assert data.values[:, 0] == pytest.approx([0.0, 1.0])
        assert data.values[:, 1].tolist() == [2.0, 4.0]

    def test_log_of_nonpositive(self, tmp_path):
        src = tmp_path / "d.csv"
        write_csv(Dataset(("a",), [[0.0], [1.0]]), src)
        with pytest.raises(ValueError, match="log of non-positive"):
            ingest_csv(src, log_columns=["a"])

    def test_header_only_file(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("a,b\n")
        with pytest.raises(ValueError, match="empty dataset"):
            ingest_csv(src)


class TestConfigValidation:
    def test_all_problems_reported_at_once(self):
        problems = validate_config(
            {
                "system": "marsrover",
                "environment": {"train_len": -4},
                "models": [{"kind": "oracle"}],
                "tasks": ["forecast", "teleport"],
                "seeds": "zero",
            }
        )
        text = "\n".join(problems)
        assert "system" in text
        assert "train_len" in text
        assert "test_len" in text
        assert "oracle" in text
        assert "teleport" in text
        assert "seeds" in text
        assert len(problems) >= 6

    def test_unknown_model_keys_rejected(self):
        models = [{"kind": "vanar", "hiden_dims": [8]}, {"kind": "var", "det": "constant"},
                  {"kind": "naive", "label": "last", "p": 3}]
        problems = validate_config(fast_config(models=models))
        assert len(problems) == 2
        assert "models[0]" in problems[0] and "'hiden_dims'" in problems[0]
        assert "models[2]" in problems[1] and "'p'" in problems[1]

    def test_valid_config_has_no_problems(self):
        assert validate_config(fast_config()) == []

    @pytest.mark.parametrize("header", ["x, y", '"x","y"'])
    def test_csv_variables_named_as_read_csv_names_them(self, tmp_path, header):
        src = tmp_path / "data.csv"
        src.write_text(header + "\n" + "".join(f"{i},{i % 7}\n" for i in range(40)))
        assert read_csv(src).names == ("x", "y")
        cfg = fast_config(system={"csv": str(src)}, tasks=["granger", "irf"],
                          granger={"center": "y"}, irf={"shock_var": "y"})
        assert validate_config(cfg) == []

    @pytest.mark.parametrize("edit, problem", [
        (lambda c: c["models"].append({"kind": "var", "det": "quadratic"}), "models[4]: det"),
        (lambda c: c["models"].append({"kind": "vanar", "epochs": "ten"}), "models[4]: epochs"),
        (lambda c: c["models"].append({"kind": "ana", "hidden_dims": 8}), "models[4]: hidden_dims"),
        (lambda c: c["models"].append({"kind": "vanar", "hidden_dims": ["8"]}), "models[4]: each"),
        (lambda c: c["models"].append({"kind": "vanar", "learning_rate": 0}), "learning_rate"),
        (lambda c: c["models"].append({"kind": "vanar", "validation_fraction": 1}),
         "validation_fraction"),
        (lambda c: c["models"].append({"kind": "vanar", "force_autoencoder": "yes"}),
         "force_autoencoder"),
        (lambda c: c["models"].append({"kind": "vanar", "learning_rate": True}), "learning_rate"),
        (lambda c: c["models"].append({"kind": "vanar", "learning_rate": float("inf")}),
         "learning_rate"),
        (lambda c: c["models"].append({"kind": "vanar", "validation_fraction": False}),
         "validation_fraction"),
        (lambda c: c["models"].append({"kind": "vanar", "force_autoencoder": 1}),
         "force_autoencoder"),
        (lambda c: c["models"].append({"kind": "vanar", "force_autoencoder": 0.0}),
         "force_autoencoder"),
        (lambda c: c["models"].append({"kind": "ar", "p": 0}), "models[4]: p"),
        (lambda c: c["environment"].update(train_len=True), "environment.train_len"),
        (lambda c: c.update(seeds=[0, False]), "seeds"),
        (lambda c: c.update(tasks=["irf"], irf={"horizon": "five"}), "irf.horizon"),
        (lambda c: c.update(tasks=["irf"], irf={"epsilon": True}), "irf.epsilon"),
        (lambda c: c.update(tasks=["granger"], granger={"test_len": 0}), "granger.test_len"),
        (lambda c: c.update(tasks=["granger"], granger={"horizon": 2.5}), "granger.horizon"),
        (lambda c: c.update(p=0), "p must be a positive integer"),
        (lambda c: c.update(p_max="x"), "p_max must be a positive integer"),
        (lambda c: c.update(p_max=0), "p_max must be a positive integer"),
        (lambda c: c.update(det="quadratic"), "det must be one of"),
        (lambda c: c.update(scenario={"kind": "noise1", "seed": 1.5}), "seed must be"),
        (lambda c: c.update(scenario={"kind": "noise1", "seed": True}), "seed must be"),
        (lambda c: c.update(scenario="noise1"), "'scenario' must be an object"),
        (lambda c: c.update(environment=[60, 10]), "'environment' must be an object"),
        (lambda c: c.update(tasks=["granger"], granger=5), "'granger' must be an object"),
        (lambda c: c.update(tasks=["irf"], irf=[1]), "'irf' must be an object"),
        (lambda c: c.update(tasks="forecast"), "'tasks' must be a list"),
        (lambda c: c.update(seed=[4]), "unknown key 'seed'"),
        (lambda c: c.update(tasks=["granger"], granger={"centre": "y"}),
         "granger: unknown key 'centre'"),
        (lambda c: c.update(system={"csv": 5}), "system must be"),
        (lambda c: c.update(system={"csv": None}), "system must be"),
        (lambda c: c["environment"].update(extra=1), "environment: unknown key 'extra'"),
        (lambda c: c.update(scenario={"kind": "noise1", "sead": 1}), "scenario: unknown key"),
        (lambda c: c.update(granger={"one_step": "no"}), "granger.one_step must be true or false"),
        (lambda c: c.update(granger={"test_len": 130}), "granger.test_len 130 leaves none"),
        (lambda c: c.update(output_dir=5), "output_dir must be a nonempty text"),
        (lambda c: c["models"][0].update(label="x/../../esc"), "models[0].label must be"),
        (lambda c: c.update(tasks=["granger"], models=[{"kind": "var"}, {"kind": "var"}]),
         "models[1]: label 'var'"),
        (lambda c: c.update(tasks=["irf"], models=[{"kind": "vanar", "label": "true"}]),
         "models[0]: label 'true'"),
        (lambda c: c.update(tasks=["forecast", "forecast"]), "tasks must name each task once"),
        (lambda c: c.update(tasks=["irf"], irf={"epsilon": float("nan")}),
         "irf.epsilon must be a finite number"),
    ], ids=["det", "epochs", "hidden_dims", "hidden_width", "learning_rate", "fraction",
            "force_autoencoder", "learning_rate_bool", "learning_rate_inf", "fraction_bool",
            "force_autoencoder_int", "force_autoencoder_float", "model_p", "train_len", "seeds",
            "irf_horizon", "irf_epsilon", "granger_test_len", "granger_horizon", "run_p",
            "p_max_text", "p_max_zero", "run_det", "scenario_seed_float", "scenario_seed_bool",
            "scenario_type", "environment_type", "granger_type", "irf_type", "tasks_type",
            "unknown_key", "unknown_section_key", "csv_int", "csv_null", "environment_key",
            "scenario_key", "one_step_text", "granger_rows", "output_dir", "label_path",
            "label_twice", "label_true", "tasks_twice", "irf_epsilon_nan"])
    def test_bad_value_is_a_validation_problem(self, edit, problem):
        cfg = fast_config()
        edit(cfg)
        problems = validate_config(cfg)
        assert len(problems) == 1 and problem in problems[0], problems

    def test_bad_values_fail_before_the_manifest(self, tmp_path):
        models = [{"kind": "var", "det": "quadratic"}, {"kind": "vanar", "epochs": "ten"}]
        cfg = fast_config(models=models, tasks=["irf"], irf={"horizon": "five"})
        with pytest.raises(ConfigError) as exc:
            run(cfg, tmp_path / "out")
        assert len(exc.value.problems) == 3
        assert not (tmp_path / "out").exists()

    def test_lag_order_too_large_for_train_len_fails_before_the_manifest(self, tmp_path):
        cfg = load_preset("default-low")
        cfg["p"] = 30  # 50 training rows: VAR(30) on two variables needs 92
        with pytest.raises(ConfigError, match="insufficient history") as exc:
            run(cfg, tmp_path / "out")
        assert len(exc.value.problems) == 2  # var and ar; vanar and ana need 32 rows
        assert not (tmp_path / "out").exists()

    def test_granger_split_too_short_fails_before_any_output(self, tmp_path):
        cfg = {"system": "system1", "environment": {"train_len": 60, "test_len": 10},
               "models": [{"kind": "var"}], "tasks": ["granger"], "p": 10,
               "granger": {"test_len": 45}}  # granger fits its pairs on the first 25 rows
        with pytest.raises(ConfigError) as exc:
            run(cfg, tmp_path / "out")
        assert exc.value.problems == ["models[0] in granger: insufficient history: lag order 10 "
                                      "on 2 variable(s) needs 31 rows, got 25"]
        assert not (tmp_path / "out").exists()

    def test_model_lag_order_checked_by_its_kind(self, tmp_path):
        models = [{"kind": "var", "p": 20}, {"kind": "vanar", "p": 40}, {"kind": "ana", "p": 49}]
        cfg = fast_config(environment={"train_len": 50, "test_len": 10}, models=models)
        with pytest.raises(ConfigError) as exc:
            run(cfg, tmp_path / "out")
        assert [p.split(":")[0] for p in exc.value.problems] == ["models[0]", "models[2]"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["var", "vanar"])
    def test_null_model_lag_order_fails_before_the_manifest(self, tmp_path, kind):
        cfg = fast_config(models=[{"kind": "ar"}, {"kind": kind, "p": None}])
        with pytest.raises(ConfigError, match=r"models\[1\]: p must be a positive integer"):
            run(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("x0", [[0.4], [0.4, 0.2, 0.1], 0.4], ids=["one", "three", "scalar"])
    def test_bad_start_state_fails_before_the_manifest(self, tmp_path, x0):
        cfg = fast_config(x0=x0)
        assert validate_config(cfg) == []  # the simulator owns the start-state rule
        with pytest.raises(ValueError, match="x0 must be two finite numbers"):
            run(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_short_csv_fails_before_any_output(self, tmp_path):
        src = tmp_path / "data.csv"
        write_csv(simulate_scenario(ScenarioSpec(), n=99), src)
        cfg = fast_config(system={"csv": str(src)})  # 100 rows, 130 wanted
        assert validate_config(cfg) == []
        with pytest.raises(ValueError, match="csv has 100 rows, need train\\+test = 130"):
            run(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_run_raises_config_error_before_work(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            run({"system": "nope"}, tmp_path / "out")
        assert len(exc.value.problems) >= 2
        assert not (tmp_path / "out").exists()


class TestPresets:
    def test_documented_presets_exist(self):
        names = list_presets()
        for kind in ("default", "nointeraction", "noise1", "noise2"):
            for env in ("high", "medium", "low", "medium350"):
                assert f"{kind}-{env}" in names
        assert "irf-default-high" in names

    def test_every_preset_validates(self):
        for name in list_presets():
            cfg = load_preset(name)
            assert validate_config(cfg) == [], f"preset {name} invalid"

    def test_preset_environments_match_design(self):
        assert load_preset("default-high")["environment"]["train_len"] == 850
        assert load_preset("default-medium")["environment"]["train_len"] == 250
        assert load_preset("default-medium350")["environment"]["train_len"] == 350
        assert load_preset("default-low")["environment"]["train_len"] == 50
        assert load_preset("noise1-high")["scenario"]["kind"] == "noise1"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset 'default-huge'"):
            load_preset("default-huge")


class TestRun:
    def test_empty_tasks_manifest_only(self, tmp_path):
        cfg = fast_config(tasks=[], models=[])
        result = run(cfg, tmp_path / "out")
        assert result["manifest"].exists()
        assert result["outputs"] == []
        manifest = json.loads(result["manifest"].read_text())
        assert manifest["config"]["environment"] == {"train_len": 120, "test_len": 10}
        assert "versions" in manifest

    def test_forecast_table_layout(self, tmp_path):
        result = run(fast_config(), tmp_path / "out")
        fx = (tmp_path / "out" / "forecast_x.csv").read_text().splitlines()
        assert fx[0] == "horizon,var,ar,vanar,ana"
        assert [line.split(",")[0] for line in fx[1:]] == ["10"]
        fy = tmp_path / "out" / "forecast_y.csv"
        assert fy.exists()

    def test_forecast_two_horizons_with_long_test(self, tmp_path):
        cfg = fast_config(environment={"train_len": 120, "test_len": 20})
        run(cfg, tmp_path / "out")
        fx = (tmp_path / "out" / "forecast_x.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in fx[1:]] == ["10", "20"]

    def test_granger_edges_csv(self, tmp_path):
        cfg = fast_config(tasks=["granger"], models=[{"kind": "var"}])
        run(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "granger_var.csv").read_text().splitlines()
        assert lines[0] == "source,target,score,full_rmse,uni_rmse"
        pairs = {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert pairs == {("x", "y"), ("y", "x")}

    def test_irf_outputs_models_and_truth(self, tmp_path):
        cfg = fast_config(
            tasks=["irf"],
            models=[{"kind": "var"}],
            irf={"shock_var": "y", "epsilon": 0.1, "horizon": 7},
        )
        run(cfg, tmp_path / "out")
        var_csv = (tmp_path / "out" / "irf_var.csv").read_text().splitlines()
        true_csv = (tmp_path / "out" / "irf_true.csv").read_text().splitlines()
        assert var_csv[0].split(",") == [
            "x_shocked", "x_unshocked", "x_response",
            "y_shocked", "y_unshocked", "y_response",
        ]
        assert len(var_csv) == 1 + 7
        assert len(true_csv) == 1 + 7

    @pytest.mark.parametrize("kind, seed, train_len", [
        ("noise1", 3, 50), ("noise1", 4, 250), ("noise1", 13, 350), ("noise2", 3, 50),
    ])
    def test_noisy_truth_starts_from_the_clean_state(self, tmp_path, kind, seed, train_len):
        # noise1's last observation can lie outside [0, 1], from where the map diverges;
        # the truth continues the clean state, which is the default scenario's trajectory
        for scenario in (kind, "default"):
            cfg = fast_config(scenario={"kind": scenario, "seed": seed}, tasks=["irf"], models=[],
                              environment={"train_len": train_len, "test_len": 20},
                              irf={"shock_var": "y", "epsilon": 0.1, "horizon": 20})
            run(cfg, tmp_path / scenario)
        truth = (tmp_path / kind / "irf_true.csv").read_bytes()
        assert truth == (tmp_path / "default" / "irf_true.csv").read_bytes()

    def test_irf_only_config_needs_no_models(self, tmp_path):
        cfg = fast_config(tasks=["irf"])
        del cfg["models"]
        result = run(cfg, tmp_path / "out")
        assert [p.name for p in result["outputs"]] == ["irf_true.csv"]

    def test_failed_task_is_reported_after_the_others_write(self, tmp_path, monkeypatch):
        def fail(*args):
            raise RuntimeError("no response")

        monkeypatch.setattr(experiment, "_irf_task", fail)
        cfg = fast_config(tasks=["forecast", "irf", "granger"], models=[{"kind": "var"}])
        with pytest.raises(TaskError, match="irf: no response") as exc:
            run(cfg, tmp_path / "out")
        assert exc.value.failures == {"irf": "no response"}
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == ["forecast_x.csv", "forecast_y.csv", "granger_var.csv", "manifest.json"]

    def test_csv_source_reports_as_its_simulation(self, tmp_path):
        cfg = fast_config(scenario={"kind": "noise2", "seed": 1}, tasks=["forecast", "granger"])
        src = tmp_path / "noise2.csv"
        write_csv(simulate_scenario(ScenarioSpec("noise2", 1), n=129), src)
        run(cfg, tmp_path / "sim")
        del cfg["scenario"]
        run({**cfg, "system": {"csv": str(src)}}, tmp_path / "csv")
        for name in ("forecast_x.csv", "forecast_y.csv", "granger_var.csv", "granger_vanar.csv"):
            assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "sim" / name).read_bytes()

    def test_entries_sharing_a_label_keep_their_own_columns(self, tmp_path):
        cfg = fast_config(models=[{"kind": "ar", "p": 1}, {"kind": "ar", "p": 3}])
        run(cfg, tmp_path / "out")
        header, *rows = (tmp_path / "out" / "forecast_x.csv").read_text().splitlines()
        assert header == "horizon,ar,ar"
        assert all(row.split(",")[1] != row.split(",")[2] for row in rows)

    def test_one_step_task(self, tmp_path):
        cfg = fast_config(tasks=["one-step"], models=[{"kind": "naive"}, {"kind": "var"}])
        run(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "onestep.csv").read_text().splitlines()
        assert lines[0] == "variable,metric,naive,var"
        # naive forecaster must score rmsse == 1 by definition
        x_rmsse = [l for l in lines[1:] if l.startswith("x,rmsse")][0]
        assert float(x_rmsse.split(",")[2]) == pytest.approx(1.0)


class TestPresetRuns:
    def test_nointeraction_low_preset_runs_and_finds_no_causality(self, tmp_path):
        # the full preset pipeline: simulate, select lag, fit var/ar/vanar/ana,
        # write forecast tables and causality edges
        cfg = load_preset("nointeraction-low")
        result = run(cfg, tmp_path / "out")
        names = {p.name for p in result["outputs"]}
        assert {"forecast_x.csv", "forecast_y.csv",
                "granger_var.csv", "granger_vanar.csv"} <= names
        lines = (tmp_path / "out" / "granger_vanar.csv").read_text().splitlines()
        scores = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(scores) == 2
        assert all(s <= 0 for s in scores)


class TestCliProcess:
    def test_simulate_and_ingest_roundtrip(self, tmp_path):
        sim = tmp_path / "sim.csv"
        assert main(["simulate", "--n", "50", "--out", str(sim)]) == 0
        data = read_csv(sim)
        assert data.names == ("x", "y")
        assert data.n_obs == 51

    def test_fit_forecast_irf_pipeline(self, tmp_path):
        sim = tmp_path / "sim.csv"
        model = tmp_path / "var.json"
        fc = tmp_path / "fc.csv"
        irf = tmp_path / "irf.csv"
        assert main(["simulate", "--n", "120", "--out", str(sim)]) == 0
        assert main(["fit-var", "--data", str(sim), "--p", "2", "--out", str(model)]) == 0
        assert main(["forecast", "--model", str(model), "--data", str(sim),
                     "--h", "5", "--out", str(fc)]) == 0
        assert read_csv(fc).n_obs == 5
        assert main(["irf", "--model", str(model), "--data", str(sim), "--shock-var", "y",
                     "--epsilon", "0.1", "--h", "5", "--out", str(irf)]) == 0
        header = irf.read_text().splitlines()[0]
        assert "x_response" in header and "y_shocked" in header

    def test_ingest_cli_aggregates_and_logs(self, tmp_path):
        rows = np.arange(1.0, 37.0).reshape(12, 3)
        src, out = tmp_path / "monthly.csv", tmp_path / "clean.csv"
        write_csv(Dataset(("a", "b", "c"), rows), src,
                  dates=[f"2020-{m:02d}" for m in range(1, 13)])
        assert main(["ingest", "--data", str(src), "--aggregate", "--log-columns", "a,c",
                     "--out", str(out)]) == 0
        data, dates = read_csv(out, return_dates=True)
        quarters = rows.reshape(4, 3, 3).mean(axis=1)
        quarters[:, [0, 2]] = np.log(quarters[:, [0, 2]])
        assert dates is None  # month labels do not name quarters
        assert data.names == ("a", "b", "c")
        assert data.values.tolist() == quarters.tolist()

    def test_ingest_cli_carries_the_date_column(self, tmp_path):
        src, out = tmp_path / "raw.csv", tmp_path / "clean.csv"
        dates = ["2021-01", "2021-02", "2021-03"]
        write_csv(Dataset(("a", "b"), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), src, dates=dates)
        assert main(["ingest", "--data", str(src), "--log-columns", "b", "--out", str(out)]) == 0
        data, read_dates = read_csv(out, return_dates=True)
        assert out.read_text().splitlines()[0] == "date,a,b"
        assert read_dates == dates
        assert data.values.tolist() == [[1.0, np.log(2.0)], [3.0, np.log(4.0)], [5.0, np.log(6.0)]]

    def test_forecast_and_irf_of_a_vanar_model(self, tmp_path):
        sim, model = tmp_path / "sim.csv", tmp_path / "vanar.json"
        fc, irf = tmp_path / "fc.csv", tmp_path / "irf.csv"
        assert main(["simulate", "--n", "120", "--out", str(sim)]) == 0
        assert main(["fit-vanar", "--data", str(sim), "--p", "2", "--hidden", "8", "8",
                     "--epochs", "5", "--out", str(model)]) == 0
        assert main(["forecast", "--model", str(model), "--data", str(sim),
                     "--h", "5", "--out", str(fc)]) == 0
        assert main(["irf", "--model", str(model), "--data", str(sim), "--shock-var", "y",
                     "--epsilon", "0.1", "--h", "5", "--out", str(irf)]) == 0
        fitted, history = VanarForecaster.from_json(model.read_text()), read_csv(sim)
        assert read_csv(fc).values.tolist() == fitted.forecast(history, 5).values.tolist()
        table, expected = read_csv(irf), impulse_response(fitted, history, "y", 0.1, 5)
        for var in ("x", "y"):
            assert table.column(f"{var}_response").tolist() == expected.column(var).tolist()

    def test_run_preset_with_scenario_seed(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--preset", "default-low", "--seed", "7", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["scenario"] == {"kind": "default", "seed": 7}

    def test_fit_vanar_cli(self, tmp_path):
        sim = tmp_path / "sim.csv"
        model = tmp_path / "vanar.json"
        main(["simulate", "--n", "150", "--out", str(sim)])
        rc = main(["fit-vanar", "--data", str(sim), "--p", "2", "--hidden", "8", "8",
                   "--epochs", "5", "--out", str(model)])
        assert rc == 0
        doc = json.loads(model.read_text())
        assert doc["model"] == "vanar" and doc["p"] == 2

    def test_fit_vanar_defaults_are_the_estimators(self, tmp_path, monkeypatch):
        sim = tmp_path / "sim.csv"
        main(["simulate", "--n", "50", "--out", str(sim)])
        built = []

        def fit(self, data):
            built.append(self.get_params())
            raise ValueError("not fitted")

        monkeypatch.setattr(VanarForecaster, "fit", fit)
        assert main(["fit-vanar", "--data", str(sim), "--out", str(tmp_path / "m.json")]) == 1
        assert built == [VanarForecaster().get_params()]

    def test_fit_vanar_loss_history_reads_back(self, tmp_path):
        sim, model, losses = tmp_path / "sim.csv", tmp_path / "vanar.json", tmp_path / "loss.csv"
        main(["simulate", "--n", "150", "--out", str(sim)])
        assert main(["fit-vanar", "--data", str(sim), "--p", "2", "--hidden", "8", "8",
                     "--epochs", "5", "--out", str(model), "--loss-history", str(losses)]) == 0
        with losses.open(newline="") as f:
            header, *rows = list(csv.reader(f))
        refit = VanarForecaster(p=2, hidden_dims=(8, 8), epochs=5, seed=0).fit(read_csv(sim))
        expected = [
            (name, ep, tr, vl)
            for name, hist in zip(refit.names_, refit.train_histories_)
            for ep, (tr, vl) in enumerate(zip(hist.train_losses, hist.val_losses), 1)
        ]
        assert header == ["variable", "epoch", "train_loss", "val_loss"]
        assert [(r[0], int(r[1])) for r in rows] == [e[:2] for e in expected]
        np.testing.assert_array_equal([[float(r[2]), float(r[3])] for r in rows],
                                      [e[2:] for e in expected])

    def test_granger_cli(self, tmp_path):
        sim = tmp_path / "sim.csv"
        out = tmp_path / "edges.csv"
        main(["simulate", "--n", "150", "--out", str(sim)])
        rc = main(["granger", "--data", str(sim), "--model", "var", "--p", "2",
                   "--test-len", "10", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "source,target,score,full_rmse,uni_rmse"

    def test_irf_csv_reads_back(self, tmp_path):
        sim, model, irf = tmp_path / "sim.csv", tmp_path / "var.json", tmp_path / "irf.csv"
        assert main(["simulate", "--n", "120", "--out", str(sim)]) == 0
        assert main(["fit-var", "--data", str(sim), "--p", "2", "--out", str(model)]) == 0
        assert main(["irf", "--model", str(model), "--data", str(sim), "--shock-var", "y",
                     "--epsilon", "0.1", "--h", "5", "--out", str(irf)]) == 0
        table = read_csv(irf)
        fitted = VarForecaster.from_json(model.read_text())
        expected = impulse_response(fitted, read_csv(sim), "y", 0.1, 5)
        for var in ("x", "y"):
            assert table.column(f"{var}_response").tolist() == expected.column(var).tolist()

    def test_fit_var_short_series(self, tmp_path):
        # 25 rows: the default p_max 15 is capped as in `vanar fit-vanar`
        sim, model = tmp_path / "sim.csv", tmp_path / "var.json"
        assert main(["simulate", "--n", "24", "--out", str(sim)]) == 0
        assert main(["fit-var", "--data", str(sim), "--out", str(model)]) == 0
        assert 1 <= json.loads(model.read_text())["p"] <= 8

    def test_fit_var_short_series_with_trend(self, tmp_path):
        # 41 rows: AIC must not pick p_max = 13, which leaves no residual degrees of freedom
        sim, model = tmp_path / "sim.csv", tmp_path / "var.json"
        assert main(["simulate", "--n", "40", "--out", str(sim)]) == 0
        assert main(["fit-var", "--data", str(sim), "--det", "constant+trend",
                     "--out", str(model)]) == 0
        assert json.loads(model.read_text())["p"] == 12

    def test_granger_short_series(self, tmp_path):
        # 21 training rows: the default p_max 15 is capped as in `vanar run`
        sim, out = tmp_path / "sim.csv", tmp_path / "edges.csv"
        assert main(["simulate", "--n", "40", "--out", str(sim)]) == 0
        assert main(["granger", "--data", str(sim), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_run_with_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_config(tasks=["forecast"])))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_bad_config_lists_problems_and_fails(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"system": "nope", "tasks": ["warp"]}))
        proc = subprocess.run(
            [sys.executable, "-m", "vanar.cli", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "system" in proc.stderr
        assert "warp" in proc.stderr

    @pytest.mark.parametrize("edit, args, problem", [
        ({"output_dir": 5}, [], "output_dir must be a nonempty text, got 5"),
        ({"scenario": "noise1"}, ["--seed", "3"], "'scenario' must be an object"),
    ], ids=["output_dir", "seed_on_a_text_scenario"])
    def test_run_refuses_a_bad_config_without_a_traceback(self, tmp_path, monkeypatch, capsys,
                                                          edit, args, problem):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_config(**edit)))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), *args])
        assert exc.value.code == 2
        assert problem in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("fit", [["fit-var"], ["fit-vanar", "--hidden", "4", "--epochs", "1"]],
                             ids=["var", "vanar"])
    @pytest.mark.parametrize("edit", [lambda doc: [], lambda doc: {**doc, "names": 5}],
                             ids=["list", "names_5"])
    def test_malformed_model_document_is_a_value_error(self, tmp_path, fit, edit):
        sim, model, fc = tmp_path / "sim.csv", tmp_path / "m.json", tmp_path / "fc.csv"
        assert main(["simulate", "--n", "40", "--out", str(sim)]) == 0
        assert main([*fit, "--data", str(sim), "--p", "2", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        cls = VarForecaster if doc["model"] == "var" else VanarForecaster
        model.write_text(json.dumps(edit(doc)))
        with pytest.raises(ValueError, match="model document"):
            cls.from_json(model.read_text())
        assert main(["forecast", "--model", str(model), "--data", str(sim), "--h", "2",
                     "--out", str(fc)]) == 1
        assert not fc.exists()

    @pytest.mark.parametrize("heads", [5, [5, 5]], ids=["int", "items"])
    def test_malformed_vanar_heads_exit_1(self, tmp_path, capsys, heads):
        sim, model, fc = tmp_path / "sim.csv", tmp_path / "m.json", tmp_path / "fc.csv"
        assert main(["simulate", "--n", "40", "--out", str(sim)]) == 0
        assert main(["fit-vanar", "--hidden", "4", "--epochs", "1", "--data", str(sim),
                     "--p", "2", "--out", str(model)]) == 0
        model.write_text(json.dumps({**json.loads(model.read_text()), "heads": heads}))
        assert main(["forecast", "--model", str(model), "--data", str(sim), "--h", "2",
                     "--out", str(fc)]) == 1
        assert "heads must be a nonempty list of objects" in capsys.readouterr().err
        assert not fc.exists()

    @pytest.mark.parametrize("command", [["fit-var"], ["fit-vanar", "--epochs", "1"],
                                         ["granger", "--model", "var"]],
                             ids=["fit-var", "fit-vanar", "granger"])
    def test_lag_order_zero_rejected(self, tmp_path, command, capsys):
        sim, out = tmp_path / "sim.csv", tmp_path / "out"
        assert main(["simulate", "--n", "60", "--out", str(sim)]) == 0
        assert main([*command, "--data", str(sim), "--p", "0", "--out", str(out)]) == 1
        assert "p must be positive, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_error_exit_code(self, tmp_path):
        rc = main(["fit-var", "--data", str(tmp_path / "missing.csv"), "--out",
                   str(tmp_path / "m.json")])
        assert rc == 1
