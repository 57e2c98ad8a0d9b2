"""End-to-end runs of every subcommand through main(), plus exit codes."""
import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from loadcast import cli
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


def config_with(config, path, **values):
    """Copy of ``config`` at ``path`` with top-level keys set to ``values``."""
    lines = [
        line for line in config.read_text().splitlines()
        if line.split(":")[0] not in values
    ]
    path.write_text("\n".join(lines + [f"{k}: {v}" for k, v in values.items()]) + "\n")
    return path


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

    @pytest.mark.parametrize(
        "section",
        [
            "train: {epochs: 0}",
            "train: {split: {test_hours: 0}}",
            "cv: {step_hours: 0}",
            "train: {loss: mae}",
        ],
    )
    def test_value_out_of_range_is_usage(self, tmp_path, capsys, section):
        bad = tmp_path / "bad.yaml"
        bad.write_text(section + "\n")
        assert main(["train", "--config", str(bad)]) == EXIT_USAGE
        assert "error: bad " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("evaluate", "stride", 0),
            ("evaluate", "max_lag", 0),
            ("evaluate", "noise_seed", -1),
            ("explain", "explain_hours", 0),
            ("ingest", "holiday_cardinality", 0),
        ],
    )
    def test_top_level_value_out_of_range_is_usage(
        self, workspace, tmp_path, capsys, command, key, value
    ):
        _, config = workspace
        bad = config_with(config, tmp_path / "bad.yaml", **{key: value})
        assert main([command, "--config", str(bad)]) == EXIT_USAGE
        assert f"error: {key} must be an integer >= " in capsys.readouterr().err


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


class TestZeroLoad:
    @pytest.mark.parametrize(
        "command, row",
        [("evaluate", 866), ("train", 600)],  # a test-window and a train-window hour
    )
    def test_zero_true_load_is_data_error(self, workspace, tmp_path, capsys, command, row):
        ws, config = workspace
        lines = (ws / "data" / "dataset.csv").read_text().splitlines()
        cells = lines[row + 1].split(",")
        cells[1] = "0.0"
        lines[row + 1] = ",".join(cells)
        dataset = tmp_path / "dataset.csv"
        dataset.write_text("\n".join(lines) + "\n")
        moved = tmp_path / "config.yaml"
        moved.write_text(
            "\n".join(
                f"dataset: {dataset}" if line.startswith("dataset:") else line
                for line in config.read_text().splitlines()
            )
            + "\n"
        )
        argv = [command, "--config", str(moved)]
        if command == "train":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"feature 'load' at {cells[0]}: value 0.0 is not above" in err
        assert "np.float64(" not in err


class TestRerunsByteIdentical:
    def test_every_output_file(self, workspace, tmp_path):
        ws, config = workspace

        def outputs():
            for command in ("ingest", "forecast", "explain", "cv"):
                assert main([command, "--config", str(config)]) == EXIT_OK
            noisy = tmp_path / "noisy.csv"
            assert main(["perturb", "--config", str(config), "--out-file", str(noisy)]) == EXIT_OK
            files = {str(p.relative_to(ws)): p.read_bytes() for p in (ws / "run").rglob("*")
                     if p.is_file()}
            return {**files, "noisy.csv": noisy.read_bytes()}

        first = outputs()
        second = outputs()
        assert {"run/explain/svd.csv", "run/explain/svd.json", "run/cv_folds.csv"} <= set(first)
        assert first.keys() == second.keys()
        assert [name for name in first if first[name] != second[name]] == []


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


def outputs(run_dir):
    """Every file a command wrote under ``run_dir``, minus the frame cache."""
    return {
        str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*"))
        if p.is_file() and not p.name.startswith("frame-")
    }


@pytest.fixture
def parses(monkeypatch):
    """Counter of the CSV parses the CLI makes."""
    calls = []
    real = cli.load_csv

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", counted)
    return calls


class TestFrameCache:
    @pytest.fixture
    def inputs(self, workspace, tmp_path):
        """Own copies of the dataset and region, a config on them, and a run
        directory that holds only the workspace's checkpoint."""
        ws, config = workspace
        for name in ("dataset.csv", "region.yaml"):
            shutil.copy(ws / "data" / name, tmp_path / name)
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(ws / "run" / "checkpoint.npz", run / "checkpoint.npz")
        moved = config_with(
            config, tmp_path / "config.yaml", dataset=tmp_path / "dataset.csv",
            region=tmp_path / "region.yaml", out=run,
        )
        return tmp_path, moved, run

    @staticmethod
    def caches(run):
        return sorted(p.name for p in run.iterdir() if p.name.startswith("frame-"))

    @pytest.mark.parametrize("command", ["ingest", "forecast", "evaluate", "explain", "cv"])
    def test_cold_and_warm_outputs_byte_identical(self, inputs, parses, command):
        _, config, run = inputs
        assert self.caches(run) == []
        assert main([command, "--config", str(config)]) == EXIT_OK
        cold = outputs(run)
        assert len(parses) == 1 and len(self.caches(run)) == 1
        for name in cold:
            if name != "checkpoint.npz":
                (run / name).unlink()
        assert main([command, "--config", str(config)]) == EXIT_OK
        assert len(parses) == 1  # the warm run read the cache
        warm = outputs(run)
        assert len(cold) > 1 and cold.keys() == warm.keys()
        assert [name for name in cold if cold[name] != warm[name]] == []

    @pytest.mark.parametrize("edit", ["csv cell", "region", "holiday_cardinality"])
    def test_edited_input_is_parsed_again(self, inputs, parses, edit):
        root, config, run = inputs
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        before = (run / "ingested.csv").read_bytes()
        assert len(parses) == 1
        if edit == "csv cell":
            dataset = root / "dataset.csv"
            lines = dataset.read_text().splitlines()
            cells = lines[5].split(",")
            cells[2] = "12.5"  # temperature
            lines[5] = ",".join(cells)
            dataset.write_text("\n".join(lines) + "\n")
        elif edit == "region":
            region = root / "region.yaml"
            region.write_text(region.read_text().replace("'2018-01-01': 1", "'2018-01-02': 1"))
        else:
            config_with(config, config, holiday_cardinality=6)
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert len(parses) == 2
        assert len(self.caches(run)) == 2
        after = (run / "ingested.csv").read_bytes()
        assert (after == before) == (edit == "holiday_cardinality")
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert len(parses) == 2

    @pytest.mark.parametrize("damage", ["truncated", "foreign keys", "npy array", "another frame"])
    def test_unreadable_cache_falls_back_to_a_parse(self, inputs, parses, damage):
        root, config, run = inputs
        assert main(["forecast", "--config", str(config)]) == EXIT_OK
        expected = outputs(run)
        [name] = self.caches(run)
        cache = run / name
        if damage == "truncated":
            cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2])
        elif damage == "foreign keys":
            np.savez(cache, values=np.zeros((3, 3)))
        elif damage == "npy array":  # np.load would return an ndarray, not an archive
            with open(cache, "wb") as fh:
                np.save(fh, np.zeros((3, 3)))
        else:  # a well-formed cache of a shorter dataset under this name
            short = root / "short.csv"
            lines = (root / "dataset.csv").read_text().splitlines()
            short.write_text("\n".join(lines[:-24]) + "\n")
            other = root / "other"
            other.mkdir()
            short_config = config_with(config, root / "short.yaml", dataset=short, out=other)
            assert main(["ingest", "--config", str(short_config)]) == EXIT_OK
            [foreign] = self.caches(other)
            shutil.copy(other / foreign, cache)
        parsed = len(parses) + 1
        assert main(["forecast", "--config", str(config)]) == EXIT_OK
        assert len(parses) == parsed
        assert outputs(run) == expected
        assert self.caches(run) == [name]
        assert main(["forecast", "--config", str(config)]) == EXIT_OK
        assert len(parses) == parsed  # the fallback rewrote the cache whole

    def test_faulty_csv_in_a_warm_run_dir(self, inputs, capsys):
        root, config, run = inputs
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        lines = (root / "dataset.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "windy"  # wind_speed
        lines[3] = ",".join(cells)
        bad = root / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        cold_run = root / "cold"
        cold_run.mkdir()
        messages = []
        for out in (cold_run, run):
            moved = config_with(config, root / "bad.yaml", dataset=bad, out=out)
            capsys.readouterr()
            assert main(["ingest", "--config", str(moved)]) == EXIT_DATA
            messages.append(capsys.readouterr().err)
        assert "feature 'wind_speed' at " in messages[0]
        assert messages[0] == messages[1]
        assert sorted(p.name for p in cold_run.iterdir()) == []
        assert len(self.caches(run)) == 1

    def test_unwritable_cache_still_runs_the_command(self, inputs, parses, monkeypatch):
        _, config, run = inputs

        def refuse(path, arrays):
            raise PermissionError(f"read-only: {path}")

        monkeypatch.setattr(cli, "write_npz", refuse)
        assert main(["forecast", "--config", str(config)]) == EXIT_OK
        assert main(["forecast", "--config", str(config)]) == EXIT_OK
        assert len(parses) == 2
        assert self.caches(run) == []
        assert (run / "forecast.csv").exists()


class TestCheckpointVersion:
    def test_version_one_checkpoint_is_a_fingerprint_error(self, workspace, tmp_path, capsys):
        ws, config = workspace
        with np.load(ws / "run" / "checkpoint.npz") as data:
            meta = json.loads(bytes(data["meta"]).decode())
            vectors = {key: data[key] for key in ("params", "m", "v", "best") if key in data}
        # the version-1 layout: one zip member per array and store
        names, shapes = meta.pop("param_names"), meta.pop("shapes")
        old_meta = dict(meta, version=1, has_best="best" in vectors, param_names=names)
        arrays = {"meta": np.frombuffer(json.dumps(old_meta).encode(), dtype=np.uint8)}
        ends = np.cumsum([int(np.prod(s)) for s in shapes])[:-1]
        for key, letter in (("params", "p"), ("m", "m"), ("v", "v"), ("best", "b")):
            if key in vectors:
                for i, part in enumerate(np.split(vectors[key], ends)):
                    arrays[f"{letter}{i}"] = part.reshape(shapes[i])
        run = tmp_path / "run"
        run.mkdir()
        np.savez(run / "checkpoint.npz", **arrays)
        assert main(["evaluate", "--config", str(config), "--out", str(run)]) == EXIT_FINGERPRINT
        assert "checkpoint version 1, expected 2" in capsys.readouterr().err


class TestBrokenCheckpoint:
    """A checkpoint that cannot be read exits 4 and names its path; the file
    handle is closed, which warnings-as-errors would otherwise report."""

    def evaluate_with(self, workspace, tmp_path, capsys, content):
        _, config = workspace
        run = tmp_path / "run"
        run.mkdir()
        (run / "checkpoint.npz").write_bytes(content)
        code = main(["evaluate", "--config", str(config), "--out", str(run)])
        err = capsys.readouterr().err
        assert code == EXIT_FINGERPRINT, err
        assert f"checkpoint {run / 'checkpoint.npz'} cannot be read" in err
        assert "train the run again" in err

    def test_torn_zip(self, workspace, tmp_path, capsys):
        saved = (workspace[0] / "run" / "checkpoint.npz").read_bytes()
        self.evaluate_with(workspace, tmp_path, capsys, saved[: len(saved) // 2])

    def test_not_a_zip(self, workspace, tmp_path, capsys):
        self.evaluate_with(workspace, tmp_path, capsys, b"not a checkpoint\n" * 8)

    def test_npy_array(self, workspace, tmp_path, capsys):
        array = tmp_path / "array.npy"
        np.save(array, np.zeros((3, 3)))
        self.evaluate_with(workspace, tmp_path, capsys, array.read_bytes())

    def test_empty_file(self, workspace, tmp_path, capsys):
        self.evaluate_with(workspace, tmp_path, capsys, b"")

    def test_zip_without_params(self, workspace, tmp_path, capsys):
        with np.load(workspace[0] / "run" / "checkpoint.npz") as data:
            meta = data["meta"]
        partial = tmp_path / "partial.npz"
        np.savez(partial, meta=meta)
        self.evaluate_with(workspace, tmp_path, capsys, partial.read_bytes())


class TestImports:
    def test_cli_import_leaves_scipy_out(self):
        # every command imports the CLI module, so scipy there is start-up
        # time that every shell call pays
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = "import sys, loadcast.cli; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
