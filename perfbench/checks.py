"""Output checks the benchmark makes apart from the program.

Each check takes what the program wrote (a file or a returned value) and
what the benchmark worked out on its own, and raises :class:`CheckFailed`
when they disagree.  Expected values come from the benchmark's own
arithmetic: timestamps, anchor counts and holiday dates are computed here,
MAPE is recomputed with numpy, gradients by central finite differences,
singular values by ``np.linalg.svd``.
"""
from __future__ import annotations

import csv
import json
import math
import os
from datetime import datetime

import numpy as np

# the synthetic generator's fixed-date holidays, as (month, day)
HOLIDAYS = ((1, 1), (7, 1), (12, 25), (12, 26))

GRAD_RTOL = 1e-4
GRAD_FLOOR = 1e-3  # gradients below this are compared absolutely
MAPE_RTOL = 1e-9
PANEL_RTOL = 1e-12
SVD_RTOL = 1e-9


class CheckFailed(Exception):
    pass


def stamp(t) -> str:
    """The CSV text of an hourly ``datetime64`` timestamp."""
    return f"{np.datetime_as_string(np.datetime64(t, 's'))}Z"


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, [row for row in reader if row]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def check_loss_falls(history: list[dict]) -> None:
    if len(history) < 2:
        raise CheckFailed(f"need at least two epochs of history, got {len(history)}")
    first, last = history[0]["train_loss"], history[-1]["train_loss"]
    if not last < first:
        raise CheckFailed(f"training loss did not fall: epoch 0 {first!r}, last {last!r}")


def finite_differences(loss_value, params: dict, entries, eps: float = 1e-7) -> list[tuple]:
    """Central, forward and backward differences of the loss for each
    ``(param name, flat index)`` entry.

    ``loss_value()`` recomputes the scalar loss from the current parameter
    values; every perturbed entry is restored exactly.
    """
    base = loss_value()
    out = []
    for name, i in entries:
        values = params[name].values
        orig = values.flat[i]
        values.flat[i] = orig + eps
        hi = loss_value()
        values.flat[i] = orig - eps
        lo = loss_value()
        values.flat[i] = orig
        out.append(((hi - lo) / (2.0 * eps), (hi - base) / eps, (base - lo) / eps))
    return out


def check_gradients(entries, analytic, differences) -> None:
    """Each backward gradient matches one of its entry's differences.

    A ReLU or ``|x|`` input whose kink lies within ``eps`` of the probed
    value spoils the central difference and the one-sided difference on
    that side, but not the other side's as well; a wrong gradient misses
    all three.
    """
    for (name, i), a, diffs in zip(entries, analytic, differences):
        errs = [abs(a - n) / max(abs(a), abs(n), GRAD_FLOOR) for n in diffs]
        if not min(errs) <= GRAD_RTOL:
            raise CheckFailed(
                f"gradient of {name}[{i}]: backward {a!r}, central, forward and "
                f"backward differences {[float(n) for n in diffs]}"
            )


def numpy_mape(truth: np.ndarray, preds: np.ndarray) -> float:
    """Mean over anchors (rows) of each anchor's MAPE, in percent."""
    truth = np.asarray(truth, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    return float(np.mean(100.0 * np.mean(np.abs(truth - preds) / np.abs(truth), axis=1)))


def check_mape(reported: float, truth: np.ndarray, preds: np.ndarray) -> None:
    expected = numpy_mape(truth, preds)
    if not abs(reported - expected) <= MAPE_RTOL * abs(expected):
        raise CheckFailed(f"reported MAPE {reported!r}, numpy gives {expected!r}")


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def check_forecast_csv(path, timestamps: np.ndarray, load: np.ndarray, t0: int, horizon: int) -> list[str]:
    """Hours ``t0+1 .. t0+horizon`` in order, finite forecasts, exact truth.

    Returns the forecast column as written, for bitwise comparisons.
    """
    header, rows = read_rows(path)
    if header != ["timestamp", "forecast", "truth"]:
        raise CheckFailed(f"forecast header {header}")
    if len(rows) != horizon:
        raise CheckFailed(f"forecast has {len(rows)} rows, expected {horizon}")
    for h, (ts, forecast, truth) in enumerate(rows):
        row = t0 + 1 + h
        if ts != stamp(timestamps[row]):
            raise CheckFailed(f"forecast row {h} at {ts}, expected {stamp(timestamps[row])}")
        if not math.isfinite(float(forecast)):
            raise CheckFailed(f"forecast row {h} is {forecast}")
        if float(truth) != load[row]:
            raise CheckFailed(f"truth at {ts} is {truth}, generated load {load[row]!r}")
    return [forecast for _, forecast, _ in rows]


def check_same_forecast(original: list[str], altered: list[str]) -> None:
    if original != altered:
        diff = next(i for i, (a, b) in enumerate(zip(original, altered)) if a != b)
        raise CheckFailed(
            f"forecast changed when load after the anchor changed (hour {diff + 1}: "
            f"{original[diff]} vs {altered[diff]})"
        )


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def is_holiday(t) -> bool:
    d = datetime.fromisoformat(stamp(t)[:-1])
    return (d.month, d.day) in HOLIDAYS


def expected_cells(timestamps: np.ndarray, window: tuple[int, int], stride: int,
                   horizons, subsets) -> dict[tuple[int, str], int]:
    """Anchor count per (horizon, subset) for a frame without gaps.

    Anchors step by ``stride`` from the window start and keep their whole
    horizon inside the window; the holiday subset keeps anchors whose
    horizon touches a holiday date; the noisy subset reruns every anchor.
    """
    start, end = window
    holiday_row = np.array([is_holiday(t) for t in timestamps[start:end]])
    cells = {}
    for h in horizons:
        anchors = [t0 for t0 in range(start, end, stride) if t0 + h <= end - 1]
        touching = sum(
            bool(holiday_row[t0 + 1 - start : t0 + 1 + h - start].any()) for t0 in anchors
        )
        counts = {"full": len(anchors), "holidays": touching, "noisy": len(anchors)}
        for subset in subsets:
            cells[(h, subset)] = counts[subset]
    return cells


def check_report(path, expected: dict[tuple[int, str], int]) -> dict[tuple[int, str], float]:
    """Anchor counts per cell as expected, noisy anchors equal to full ones.

    Returns the MAPE of every cell.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    cells = {(c["horizon"], c["subset"]): c for c in doc["cells"]}
    if set(cells) != set(expected):
        raise CheckFailed(f"report cells {sorted(cells)}, expected {sorted(expected)}")
    for key, count in expected.items():
        if cells[key]["anchors"] != count:
            raise CheckFailed(f"cell {key}: {cells[key]['anchors']} anchors, expected {count}")
        if count and not math.isfinite(cells[key]["mape"]):
            raise CheckFailed(f"cell {key}: MAPE {cells[key]['mape']}")
    for h, subset in cells:
        if subset == "noisy" and (h, "full") in cells:
            if cells[(h, "noisy")]["anchors"] != cells[(h, "full")]["anchors"]:
                raise CheckFailed(f"horizon {h}: noisy and full anchors differ")
    return {key: cell["mape"] for key, cell in cells.items()}


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def check_panels(out_dir, expected_stamps: list[str], combined: np.ndarray, n_panels: int) -> None:
    """Every panel covers exactly the expected hours; the combined panel
    equals the benchmark's own unmasked rollouts."""
    with open(os.path.join(out_dir, "panels.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    series = manifest["series"]
    if len(series) != n_panels:
        raise CheckFailed(f"{len(series)} panels, expected {n_panels}")
    for entry in series:
        header, rows = read_rows(os.path.join(out_dir, entry["file"]))
        stamps = [r[0] for r in rows]
        if header != ["timestamp", "forecast"] or stamps != expected_stamps:
            first = stamps[0] if stamps else None
            raise CheckFailed(
                f"panel {entry['name']} covers {len(stamps)} hours from {first}, "
                f"expected {len(expected_stamps)} from {expected_stamps[0]}"
            )
        values = np.array([float(r[1]) for r in rows])
        if not np.isfinite(values).all():
            raise CheckFailed(f"panel {entry['name']} has non-finite forecasts")
        if entry["name"] == "combined" and not np.allclose(values, combined, rtol=PANEL_RTOL, atol=0.0):
            worst = int(np.argmax(np.abs(values - combined)))
            raise CheckFailed(
                f"combined panel hour {worst}: {values[worst]!r}, rollout gives {combined[worst]!r}"
            )


def check_svd(path, tables: dict[str, np.ndarray]) -> None:
    """Singular values of every table, and of all of them stacked, match
    ``np.linalg.svd``."""
    with open(path, encoding="utf-8") as fh:
        entries = {e["matrix"]: e for e in json.load(fh)["entries"]}
    wanted = dict(tables)
    wanted["stacked"] = np.vstack(list(tables.values()))
    if set(entries) != set(wanted):
        raise CheckFailed(f"svd matrices {sorted(entries)}, expected {sorted(wanted)}")
    for name, matrix in wanted.items():
        expected = np.linalg.svd(matrix, compute_uv=False)
        got = np.sort(np.array(entries[name]["singular_values"]))[::-1]
        scale = max(float(expected[0]), 1.0)
        if got.shape != expected.shape or np.abs(got - expected).max() > SVD_RTOL * scale:
            raise CheckFailed(f"singular values of {name}: {got.tolist()} vs {expected.tolist()}")


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def check_ingested(path, timestamps: np.ndarray, names: list[str], values: np.ndarray) -> None:
    """Raw columns round-trip exactly; hour and weekday follow the stamps."""
    header, rows = read_rows(path)
    if header[: 1 + len(names)] != ["timestamp"] + names:
        raise CheckFailed(f"ingested header {header}")
    if len(rows) != len(timestamps):
        raise CheckFailed(f"ingested {len(rows)} rows, expected {len(timestamps)}")
    hour_col, weekday_col = header.index("hour"), header.index("weekday")
    cells = np.array([[float(c) for c in r[1 : 1 + len(names)]] for r in rows])
    if not np.array_equal(cells, values):
        bad = np.argwhere(cells != values)[0]
        raise CheckFailed(
            f"ingested {names[bad[1]]} at row {bad[0]} is {cells[tuple(bad)]!r}, "
            f"generated {values[tuple(bad)]!r}"
        )
    for i, (row, t) in enumerate(zip(rows, timestamps)):
        text = stamp(t)
        when = datetime.fromisoformat(text[:-1])
        if row[0] != text or int(row[hour_col]) != when.hour or int(row[weekday_col]) != when.weekday():
            raise CheckFailed(
                f"ingested row {i}: {row[0]} hour {row[hour_col]} weekday {row[weekday_col]}, "
                f"expected {text} hour {when.hour} weekday {when.weekday()}"
            )
