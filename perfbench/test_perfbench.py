"""Tests of the benchmark's own code: output checks, span tracing, metric names.

    python3 -m pytest perfbench/test_perfbench.py

Every check must pass on a correct output and reject a planted error.
"""
import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from loadcast import autodiff as ad  # noqa: E402
from loadcast.autodiff import Mat  # noqa: E402
from loadcast.evaluation import MetricsReport, write_report_json  # noqa: E402
from loadcast.explain import PanelSeries, SvdReport, write_panels, write_svd  # noqa: E402

HOUR = np.timedelta64(1, "h")
STAMPS = np.datetime64("2019-12-20T00", "h") + np.arange(24 * 20) * HOUR


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

# two ops; times are exact binary fractions so sums compare exactly
TREE = [
    ["op.train", 0.0, 10.0, -1],          # 0
    ["model.forward_batch", 1.0, 4.0, 0],  # 1
    ["model.encode", 2.0, 3.0, 1],        # 2
    ["autodiff.backward", 5.0, 9.0, 0],   # 3
    ["model.head", 6.0, 7.0, 3],          # 4
    ["model.head", 7.0, 7.5, 3],          # 5
    ["op.forecast", 11.0, 12.0, -1],      # 6
    ["model.forward_batch", 11.25, 11.5, 6],  # 7
]


def test_self_times_on_hand_made_tree():
    assert spans.self_times(TREE) == [3.0, 2.0, 1.0, 2.5, 1.0, 0.5, 0.75, 0.25]


def test_layer_totals_and_unclaimed():
    totals = spans.layer_totals(TREE)
    assert totals["model.forward_batch"] == {"calls": 2, "s": 3.25, "self_s": 2.25}
    assert totals["model.head"] == {"calls": 2, "s": 1.5, "self_s": 1.5}
    assert totals["autodiff.backward"] == {"calls": 1, "s": 4.0, "self_s": 2.5}
    assert spans.unclaimed_seconds(TREE) == 3.75


def test_install_rebinds_every_name_and_uninstall_restores(tmp_path):
    from loadcast import cli, evaluation, explain, frames
    from loadcast.synth import synth_generate

    original = frames.load_csv
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert cli.load_csv is frames.load_csv is not original
        assert explain.forecast_rollout is evaluation.forecast_rollout
        path = tmp_path / "d.csv"
        frame = synth_generate(14, 0)
        frames.write_csv(frame, path)  # outside an op: nothing recorded
        assert tracer.spans == []
        tracer.op("ingest", cli.load_csv, path, list(frame.specs))
    finally:
        spans.uninstall(undo)
    assert cli.load_csv is frames.load_csv is original
    assert [s[0] for s in tracer.spans] == ["op.ingest", "frames.load_csv"]
    assert tracer.spans[1][3] == 0
    assert tracer.quantities["frames.load_csv.rows"] == [14 * 24]


# ---------------------------------------------------------------------------
# training checks
# ---------------------------------------------------------------------------

def test_loss_falls():
    checks.check_loss_falls([{"train_loss": 2.0}, {"train_loss": 1.5}])
    with pytest.raises(CheckFailed):
        checks.check_loss_falls([{"train_loss": 2.0}, {"train_loss": 2.0}])
    with pytest.raises(CheckFailed):
        checks.check_loss_falls([{"train_loss": 2.0}])


def test_gradients_match_and_reject_a_wrong_one():
    w = Mat(np.array([[0.3, -1.2], [0.7, 2.0]]))
    x = np.array([[1.0, 2.0], [-0.5, 0.25]])
    params = {"w": w}

    def loss():
        return ad.mean(ad.mul(ad.matmul(Mat(x), w), ad.matmul(Mat(x), w)))

    ad.zero_grad([w])
    ad.backward(loss())
    entries = [("w", 0), ("w", 3)]
    analytic = [w.grad.flat[i] for _, i in entries]
    diffs = checks.finite_differences(lambda: loss().item(), params, entries)
    assert w.values.tolist() == [[0.3, -1.2], [0.7, 2.0]]  # restored exactly
    checks.check_gradients(entries, analytic, diffs)
    with pytest.raises(CheckFailed):
        checks.check_gradients(entries, [analytic[0] * 1.01, analytic[1]], diffs)


def test_gradient_check_survives_a_kink_on_one_side():
    # |x - 1| probed at x = 1 - 5e-8: the central and forward differences
    # straddle the kink, the backward difference does not
    x = Mat(np.array([[1.0 - 5e-8]]))

    def loss():
        return ad.absolute(ad.sub(x, Mat(np.array([[1.0]]))))

    ad.zero_grad([x])
    ad.backward(loss())
    diffs = checks.finite_differences(lambda: loss().item(), {"x": x}, [("x", 0)])
    assert abs(diffs[0][0] + 1.0) > 0.1
    checks.check_gradients([("x", 0)], [x.grad.flat[0]], diffs)
    with pytest.raises(CheckFailed):
        checks.check_gradients([("x", 0)], [1.0], diffs)


def test_mape_off_by_a_constant_factor_is_rejected():
    truth = np.array([[100.0, 200.0], [50.0, 80.0]])
    preds = np.array([[110.0, 190.0], [55.0, 80.0]])
    value = 100.0 * np.mean([np.mean([0.1, 0.05]), np.mean([0.1, 0.0])])
    checks.check_mape(value, truth, preds)
    with pytest.raises(CheckFailed):
        checks.check_mape(value * 1.01, truth, preds)


# ---------------------------------------------------------------------------
# forecast checks
# ---------------------------------------------------------------------------

def _forecast_rows(t0, horizon, load, shift=0):
    return [
        [checks.stamp(STAMPS[t0 + 1 + h + shift]), repr(1000.0 + h), repr(float(load[t0 + 1 + h]))]
        for h in range(horizon)
    ]


def test_forecast_shifted_by_one_hour_is_rejected(tmp_path):
    load = 900.0 + np.arange(len(STAMPS)) * 0.5
    path = tmp_path / "forecast.csv"
    header = ["timestamp", "forecast", "truth"]
    _write_csv(path, header, _forecast_rows(30, 168, load))
    column = checks.check_forecast_csv(path, STAMPS, load, 30, 168)
    assert column[0] == repr(1000.0)
    _write_csv(path, header, _forecast_rows(30, 168, load, shift=1))
    with pytest.raises(CheckFailed, match="expected"):
        checks.check_forecast_csv(path, STAMPS, load, 30, 168)
    _write_csv(path, header, _forecast_rows(30, 167, load))
    with pytest.raises(CheckFailed, match="167 rows"):
        checks.check_forecast_csv(path, STAMPS, load, 30, 168)
    rows = _forecast_rows(30, 168, load)
    rows[5][2] = repr(float(load[37]))
    _write_csv(path, header, rows)
    with pytest.raises(CheckFailed, match="truth"):
        checks.check_forecast_csv(path, STAMPS, load, 30, 168)
    rows = _forecast_rows(30, 168, load)
    rows[9][1] = "nan"
    _write_csv(path, header, rows)
    with pytest.raises(CheckFailed):
        checks.check_forecast_csv(path, STAMPS, load, 30, 168)


def test_forecast_that_moves_with_future_load_is_rejected():
    checks.check_same_forecast(["1.0", "2.0"], ["1.0", "2.0"])
    with pytest.raises(CheckFailed, match="hour 2"):
        checks.check_same_forecast(["1.0", "2.0"], ["1.0", "2.0000000000000004"])


# ---------------------------------------------------------------------------
# evaluate checks
# ---------------------------------------------------------------------------

def test_expected_cells_counts_anchors_and_holidays():
    # window 2019-12-22 .. 2020-01-09; holidays 12-25, 12-26 and 01-01
    window = (48, len(STAMPS))
    cells = checks.expected_cells(STAMPS, window, 24, (24, 168), ("full", "holidays", "noisy"))
    # day-ahead anchors at midnight of 12-22 .. 01-07 (row 432; row 456 would
    # need hour 480); each forecasts 01:00 of its day to 00:00 of the next, so
    # the anchors of 12-24, 12-25, 12-26, 12-31 and 01-01 touch a holiday
    assert cells[(24, "full")] == 17 and cells[(24, "noisy")] == 17
    assert cells[(24, "holidays")] == 5
    # week-ahead anchors at midnight of 12-22 .. 01-01 all reach 12-25 or 01-01
    assert cells[(168, "full")] == 11
    assert cells[(168, "holidays")] == 11


def _report(tmp_path, counts):
    report = MetricsReport(method="svd", fingerprint="f", param_counts={"total": 1})
    for key, n in counts.items():
        report.cells[key] = {"mape": 3.5 if n else None, "anchors": n}
    path = tmp_path / "report.json"
    write_report_json(path, report)
    return path


def test_report_with_a_wrong_count_is_rejected(tmp_path):
    expected = {(24, "full"): 18, (24, "holidays"): 3, (24, "noisy"): 18}
    mapes = checks.check_report(_report(tmp_path, expected), expected)
    assert mapes[(24, "full")] == 3.5
    with pytest.raises(CheckFailed, match="holidays"):
        checks.check_report(_report(tmp_path, {**expected, (24, "holidays"): 4}), expected)
    with pytest.raises(CheckFailed, match="noisy"):
        checks.check_report(_report(tmp_path, {**expected, (24, "noisy"): 17}), expected)
    with pytest.raises(CheckFailed, match="cells"):
        checks.check_report(_report(tmp_path, {(24, "full"): 18}), expected)


# ---------------------------------------------------------------------------
# explain checks
# ---------------------------------------------------------------------------

def _panels(tmp_path, combined, stamps, names=("combined", "weather")):
    write_panels(
        tmp_path,
        [PanelSeries(name, stamps, combined + i) for i, name in enumerate(names)],
    )


def test_panels_with_a_gap_or_a_wrong_combined_series_are_rejected(tmp_path):
    stamps = STAMPS[100:148]
    expected = [checks.stamp(t) for t in stamps]
    combined = 1000.0 + np.sin(np.arange(48))
    _panels(tmp_path, combined, stamps)
    checks.check_panels(tmp_path, expected, combined, 2)
    with pytest.raises(CheckFailed, match="2 panels"):
        checks.check_panels(tmp_path, expected, combined, 3)
    gap = np.concatenate([stamps[:20], stamps[21:], [stamps[-1] + HOUR]])
    _panels(tmp_path, combined, gap)
    with pytest.raises(CheckFailed, match="covers"):
        checks.check_panels(tmp_path, expected, combined, 2)
    _panels(tmp_path, combined * (1 + 1e-9), stamps)
    with pytest.raises(CheckFailed, match="combined"):
        checks.check_panels(tmp_path, expected, combined, 2)


def test_wrong_singular_values_are_rejected(tmp_path):
    rng = np.random.default_rng(0)
    tables = {"hour": rng.standard_normal((24, 1)), "load": rng.standard_normal((16, 1))}
    report = SvdReport()
    for name, matrix in {**tables, "stacked": np.vstack(list(tables.values()))}.items():
        s = np.linalg.svd(matrix, compute_uv=False)
        report.entries.append({"matrix": name, "singular_values": [float(v) for v in s]})
    write_svd(tmp_path, report)
    checks.check_svd(tmp_path / "svd.json", tables)
    report.entries[1]["singular_values"][0] *= 1.001
    write_svd(tmp_path, report)
    with pytest.raises(CheckFailed, match="load"):
        checks.check_svd(tmp_path / "svd.json", tables)


# ---------------------------------------------------------------------------
# ingest checks
# ---------------------------------------------------------------------------

def _ingested(path, values, hour_shift=0):
    rows = []
    for t, row in zip(STAMPS, values):
        text = checks.stamp(t)
        hour = (int(text[11:13]) + hour_shift) % 24
        weekday = int(((t.astype("datetime64[D]").astype(np.int64)) + 3) % 7)
        rows.append([text, repr(float(row[0])), str(int(row[1])), hour, weekday])
    _write_csv(path, ["timestamp", "load", "holiday_id", "hour", "weekday"], rows)


def test_ingested_file_with_a_changed_value_or_hour_is_rejected(tmp_path):
    values = np.column_stack([1000.0 + np.cos(np.arange(len(STAMPS))), np.arange(len(STAMPS)) % 3])
    path = tmp_path / "ingested.csv"
    _ingested(path, values)
    checks.check_ingested(path, STAMPS, ["load", "holiday_id"], values)
    changed = values.copy()
    changed[7, 0] = np.nextafter(changed[7, 0], 0.0)
    _ingested(path, changed)
    with pytest.raises(CheckFailed, match="row 7"):
        checks.check_ingested(path, STAMPS, ["load", "holiday_id"], values)
    _ingested(path, values, hour_shift=1)
    with pytest.raises(CheckFailed, match="hour"):
        checks.check_ingested(path, STAMPS, ["load", "holiday_id"], values)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints
# ---------------------------------------------------------------------------

def test_benchmark_json_names_match_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in workloads.PER_LAYER.items()
    }
    traced = {name for name, _, _ in spans.LAYERS}
    for w in workloads.WORKLOADS.values():
        assert set(w.layers) <= traced
