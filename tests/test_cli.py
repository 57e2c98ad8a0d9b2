"""End-to-end runs of every subcommand through main(), plus exit codes."""
import csv
import os

import numpy as np
import pytest

from loadcast.cli import (
    EXIT_DATA,
    EXIT_FINGERPRINT,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_USAGE,
    load_run_config,
    main,
)
from loadcast.errors import ConfigError


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset, a run config, and a finished training run."""
    ws = tmp_path_factory.mktemp("cliws")
    data = ws / "data"
    assert main(["synth", "--days", "40", "--seed", "3", "--out", str(data)]) == EXIT_OK
    config = ws / "config.yaml"
    config.write_text(
        f"""\
dataset: {data / 'dataset.csv'}
region: {data / 'region.yaml'}
holiday_cardinality: 5
max_lag: 24
model:
  method: svd
  heads: 2
  encoder_layers: 1
  decoder_layers: 1
  horizon: 6
train:
  epochs: 2
  batch_size: 64
  lr0: 0.003
  split:
    test_hours: 96
    val_hours: 96
    max_train_hours: 360
  val_stride: 6
cv:
  train_hours: 360
  test_hours: 120
  step_hours: 240
horizons: [6, 12]
stride: 24
explain_hours: 30
out: {ws / 'run'}
"""
    )
    assert main(["train", "--config", str(config)]) == EXIT_OK
    return ws, config


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSynth:
    def test_writes_dataset_and_region(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--days", "15", "--seed", "1", "--out", str(out)]) == EXIT_OK
        rows = read_csv_rows(out / "dataset.csv")
        assert len(rows) == 15 * 24 + 1
        assert rows[0][0] == "timestamp"
        assert (out / "region.yaml").exists()

    def test_too_few_days_is_usage_error(self, tmp_path):
        code = main(["synth", "--days", "2", "--out", str(tmp_path / "d")])
        assert code == EXIT_USAGE


class TestConfigLoading:
    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("tpyo: 1\n")
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_run_config(bad)

    def test_missing_config_file_exit_code(self):
        assert main(["train", "--config", "no-such-config.yaml"]) == EXIT_MISSING_FILE

    def test_nested_sections_resolve(self, workspace):
        _, config = workspace
        cfg = load_run_config(config)
        assert cfg.model.method == "svd"
        assert cfg.train.split.test_hours == 96
        assert cfg.cv.step_hours == 240
        assert cfg.horizons == (6, 12)

    def test_no_subcommand_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE


class TestIngest:
    def test_writes_frame_with_calendar_views(self, workspace):
        ws, config = workspace
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        rows = read_csv_rows(ws / "run" / "ingested.csv")
        assert len(rows) == 40 * 24 + 1
        header = rows[0]
        for view in ("hour", "weekday", "month", "season", "holiday", "school_period"):
            assert view in header

    def test_missing_dataset_exit_code(self, tmp_path, workspace):
        _, config = workspace
        cfg_text = config.read_text().replace("dataset.csv", "gone.csv")
        moved = tmp_path / "config.yaml"
        moved.write_text(cfg_text)
        assert main(["ingest", "--config", str(moved)]) == EXIT_MISSING_FILE

    @pytest.mark.parametrize("column", [1, 7])  # load, holiday_id
    def test_non_finite_cell_is_data_error(self, tmp_path, workspace, capsys, column):
        _, config = workspace
        cells = ["2020-01-01T00:00:00Z", "1.0", "0", "0", "0", "0", "0", "0", "0"]
        cells[column] = "nan"
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "timestamp,load,temperature,dewpoint,wind_speed,humidity,rainfall,"
            "holiday_id,school\n" + ",".join(cells) + "\n"
        )
        cfg_text = "\n".join(
            f"dataset: {bad}" if line.startswith("dataset:") else line
            for line in config.read_text().splitlines()
        )
        moved = tmp_path / "config.yaml"
        moved.write_text(cfg_text + "\n")
        assert main(["ingest", "--config", str(moved)]) == EXIT_DATA
        name = "load" if column == 1 else "holiday_id"
        assert f"feature '{name}' at 2020-01-01T00:00:00Z: non-finite value 'nan'" in (
            capsys.readouterr().err
        )


class TestTrainArtifacts:
    def test_checkpoint_and_history_written(self, workspace):
        ws, _ = workspace
        assert (ws / "run" / "checkpoint.npz").exists()
        rows = read_csv_rows(ws / "run" / "history.csv")
        assert rows[0] == ["epoch", "lr", "train_loss", "val_loss"]
        assert len(rows) == 3  # header + 2 epochs
        assert rows[1][0] == "0"
        assert float(rows[1][3]) > 0.0


class TestEvaluate:
    def test_report_files_and_rerun_stability(self, workspace):
        ws, config = workspace
        assert main(["evaluate", "--config", str(config)]) == EXIT_OK
        report = ws / "run" / "report.csv"
        first = report.read_bytes()
        rows = read_csv_rows(report)
        assert rows[0] == ["method", "horizon", "subset", "mape", "anchors"]
        seen = {(r[1], r[2]) for r in rows[1:]}
        for horizon in ("6", "12"):
            for subset in ("full", "holidays", "noisy"):
                assert (horizon, subset) in seen
        full_cells = [r for r in rows[1:] if r[2] == "full"]
        assert all(int(r[4]) > 0 for r in full_cells)
        assert main(["evaluate", "--config", str(config)]) == EXIT_OK
        assert report.read_bytes() == first
        assert (ws / "run" / "report.json").exists()

    def test_wrong_method_hits_fingerprint_guard(self, workspace):
        _, config = workspace
        code = main(["evaluate", "--config", str(config), "--method", "additive"])
        assert code == EXIT_FINGERPRINT

    def test_unstrained_run_dir_exit_code(self, workspace, tmp_path):
        _, config = workspace
        code = main(
            ["evaluate", "--config", str(config), "--out", str(tmp_path / "fresh")]
        )
        assert code == EXIT_MISSING_FILE


class TestForecast:
    def test_default_anchor_and_truth_column(self, workspace):
        ws, config = workspace
        assert main(["forecast", "--config", str(config)]) == EXIT_OK
        rows = read_csv_rows(ws / "run" / "forecast.csv")
        assert rows[0] == ["timestamp", "forecast", "truth"]
        assert len(rows) == 7  # header + one horizon of hours
        for row in rows[1:]:
            assert float(row[2]) != 0.0  # truth known inside the dataset

    def test_explicit_anchor(self, workspace):
        ws, config = workspace
        code = main(
            ["forecast", "--config", str(config), "--at", "2018-02-05T00:00:00Z"]
        )
        assert code == EXIT_OK
        rows = read_csv_rows(ws / "run" / "forecast.csv")
        assert rows[1][0] == "2018-02-05T01:00:00Z"

    def test_anchor_outside_range_is_usage(self, workspace):
        _, config = workspace
        code = main(
            ["forecast", "--config", str(config), "--at", "2030-01-01T00:00:00Z"]
        )
        assert code == EXIT_USAGE

    def test_offsetless_anchor_is_data_error(self, workspace):
        _, config = workspace
        code = main(["forecast", "--config", str(config), "--at", "2018-02-05T00"])
        assert code == EXIT_DATA


class TestExplain:
    def test_artifact_tree(self, workspace):
        ws, config = workspace
        assert main(["explain", "--config", str(config)]) == EXIT_OK
        out = ws / "run" / "explain"
        for name in (
            "panels.json", "panel_combined.csv", "embeddings.csv",
            "embeddings.json", "gates.csv", "svd.csv", "svd.json",
        ):
            assert (out / name).exists(), name
        gates = read_csv_rows(out / "gates.csv")
        assert len(gates) == 15  # header + all 14 views
        panel = read_csv_rows(out / "panel_combined.csv")
        assert len(panel) == 31  # header + explain_hours of forecasts


class TestPerturb:
    def test_perturbs_only_continuous_exogenous(self, workspace, tmp_path):
        ws, _ = workspace
        dataset = ws / "data" / "dataset.csv"
        out = tmp_path / "noisy.csv"
        code = main(
            ["perturb", "--data", str(dataset), "--out-file", str(out),
             "--probability", "0.5", "--seed", "1"]
        )
        assert code == EXIT_OK
        clean = read_csv_rows(dataset)
        noisy = read_csv_rows(out)
        assert len(clean) == len(noisy)
        header = clean[0]
        load_col = header.index("load")
        temp_col = header.index("temperature")
        same_load = all(a[load_col] == b[load_col] for a, b in zip(clean, noisy))
        same_temp = all(a[temp_col] == b[temp_col] for a, b in zip(clean, noisy))
        assert same_load and not same_temp


class TestCv:
    def test_fold_and_aggregate_tables(self, workspace):
        ws, config = workspace
        assert main(["cv", "--config", str(config)]) == EXIT_OK
        folds = read_csv_rows(ws / "run" / "cv_folds.csv")
        assert folds[0][:5] == ["fold", "train_start", "train_end", "test_start", "test_end"]
        indices = {r[0] for r in folds[1:]}
        assert indices == {"0", "1"}
        for row in folds[1:]:
            assert row[2] == row[3]  # test starts where training ends
        agg = read_csv_rows(ws / "run" / "cv_aggregate.csv")
        assert agg[0] == ["horizon", "subset", "mean_mape", "std_mape", "folds"]
        full = [r for r in agg[1:] if r[1] == "full"]
        assert {r[0] for r in full} == {"6", "12"}
        assert all(r[4] == "2" for r in full)


class TestParams:
    def test_all_methods_listed(self, capsys):
        assert main(["params"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if ": total " in l]
        assert [l.split(":")[0] for l in lines] == ["svd", "additive", "concatenative"]
        for line in lines:
            assert "embeddings" in line and "head" in line

    def test_single_method(self, capsys):
        assert main(["params", "--method", "svd"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("svd: total ")
        svd_total = int(out.split("total ")[1].split()[0])
        assert svd_total > 0

    def test_config_changes_counts(self, capsys, workspace):
        _, config = workspace
        assert main(["params", "--config", str(config), "--method", "svd"]) == EXIT_OK
        with_config = capsys.readouterr().out
        assert main(["params", "--method", "svd"]) == EXIT_OK
        default = capsys.readouterr().out
        # 5 holiday ids instead of 16 shrink the embedding tables
        assert with_config != default


class TestSeedOverride:
    def test_seed_flag_changes_fingerprint(self, workspace, tmp_path):
        _, config = workspace
        code = main(
            ["evaluate", "--config", str(config), "--seed", "9"]
        )
        assert code == EXIT_FINGERPRINT
