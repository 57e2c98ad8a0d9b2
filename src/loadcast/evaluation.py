"""Recursive rollout evaluation and report shaping.

Forecasts beyond the model's chunk length are produced recursively.  Each
chunk gathers its lag rows from the scaled frame, then overwrites the load
cell of every row past the anchor with that anchor's earlier forecasts, so
deeper chunks' short lags read forecasts instead of the (unknown) truth.
The frame itself is never copied or written.  Exogenous and calendar
columns are taken as known over the forecast window.  Many anchors roll out
together, with each chunk of all of them as one batched forward; anchors
may stop at different horizons, and a chunk batches only the anchors that
still need it.  ``evaluate`` rolls each anchor out once per source, to the
longest horizon it is scored at, and every shorter horizon reads that
rollout's first hours.  Reports aggregate per-anchor relative error over
the full anchor set, the holiday-touching subset, and a noise-injected
rerun.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CoverageError, FrameTooShortError
from .frames import (
    Scaler,
    TimeSeriesFrame,
    apply_scaler,
    format_timestamp,
    inject_noise,
    write_json,
    write_table,
)
from .lags import LagSet, ScaledInput
from .model import Mode
from .training import check_targets

SUBSETS = ("full", "holidays", "noisy")
DEFAULT_STRIDE = 24


@dataclass(frozen=True)
class HorizonSpec:
    """Evaluation horizons in hours; each must be a multiple of the model's
    chunk length so rollouts tile exactly."""

    horizons: tuple[int, ...] = (24, 48, 168)

    def __post_init__(self):
        if not self.horizons:
            raise ConfigError("need at least one horizon")
        for h in self.horizons:
            if h < 1:
                raise ConfigError(f"horizon must be positive, got {h}")

    def validate_chunks(self, tau: int) -> None:
        for h in self.horizons:
            if h % tau:
                raise ConfigError(
                    f"horizon {h} is not a multiple of the chunk length {tau}"
                )


@dataclass
class MetricsReport:
    """Per (horizon, subset) error cells plus provenance."""

    method: str
    fingerprint: str
    param_counts: dict[str, int]
    # (horizon, subset) -> {"mape": float | None, "anchors": int}
    cells: dict = field(default_factory=dict)

    def cell(self, horizon: int, subset: str):
        return self.cells.get((horizon, subset))


def _history_reads(horizon: int, tau: int, lags: np.ndarray):
    """Every lag read a rollout takes from the frame itself, i.e. at or
    before its anchor, chunk by chunk and oldest lag first: the read's
    offset from the anchor, its chunk and its lag."""
    chunk = np.repeat(np.arange(math.ceil(horizon / tau)), len(lags))
    lag = np.tile(lags, len(chunk) // len(lags))
    offset = tau * chunk - lag
    past = offset <= 0
    return offset[past], chunk[past], lag[past]


def _exogenous(frame: TimeSeriesFrame) -> np.ndarray:
    """Column indices of the exogenous and calendar views."""
    return np.flatnonzero(np.arange(frame.n_features) != frame.target_index)


def _window_faults(
    frame: TimeSeriesFrame,
    anchors: np.ndarray,
    horizon: int,
    tau: int,
    lags: np.ndarray,
) -> np.ndarray:
    """Per-anchor faults of a rollout window, ``(5, anchors)`` masks.

    Rows 0-3 stop a rollout, in the order it checks them: the window runs
    past the frame; an exogenous or calendar value is missing inside the
    window; the deepest lag reaches before the frame; a lag row read from
    history has a gap.  Row 4 only stops scoring: a true load inside the
    window is missing.  A row's verdict only counts where every earlier
    row is clear.
    """
    n = frame.n_rows
    offset, _, _ = _history_reads(horizon, tau, lags)
    window = np.clip(anchors[:, None] + np.arange(1, horizon + 1), 0, n - 1)
    reads = np.clip(anchors[:, None] + offset, 0, n - 1)
    return np.stack(
        [
            anchors + horizon >= n,
            frame.missing[window[:, :, None], _exogenous(frame)].any(axis=(1, 2)),
            anchors - lags[0] < 0,
            frame.missing[reads].any(axis=(1, 2)),
            frame.missing[window, frame.target_index].any(axis=1),
        ]
    )


def _raise_first_fault(
    frame: TimeSeriesFrame,
    anchors: np.ndarray,
    horizons: np.ndarray,
    tau: int,
    lags: np.ndarray,
) -> None:
    """Raise what a rollout from the first failing anchor raises, if any;
    ``horizons`` holds each anchor's own horizon."""
    faults = np.zeros((4, len(anchors)), dtype=bool)
    for h in np.unique(horizons):
        at = horizons == h
        faults[:, at] = _window_faults(frame, anchors[at], int(h), tau, lags)[:4]
    failing = faults.any(axis=0)
    if not failing.any():
        return
    i = int(np.argmax(failing))
    t0 = int(anchors[i])
    horizon = int(horizons[i])
    fault = int(np.argmax(faults[:, i]))
    if fault == 0:
        raise FrameTooShortError(
            f"anchor {t0} with horizon {horizon} runs past the frame "
            f"({frame.n_rows} rows)"
        )
    if fault == 1:
        window = frame.missing[t0 + 1 : t0 + 1 + horizon][:, _exogenous(frame)]
        ts = frame.timestamps[t0 + 1 + int(np.argmax(window.any(axis=1)))]
        raise CoverageError(
            f"missing exogenous data at {format_timestamp(ts)} "
            f"inside the forecast window"
        )
    if fault == 2:
        raise FrameTooShortError(
            f"anchor {t0} reaches before the frame at lag {int(lags[0])}"
        )
    offset, chunk, lag = _history_reads(horizon, tau, lags)
    k = int(np.argmax(frame.missing[t0 + offset].any(axis=1)))
    raise CoverageError(
        f"missing data at {format_timestamp(frame.timestamps[t0 + offset[k]])} "
        f"(lag {int(lag[k])} of chunk {int(chunk[k])})"
    )


def _rollout(
    scaled: TimeSeriesFrame,
    anchors,
    horizon,
    lag_set: LagSet,
    scaler: Scaler,
    tau: int,
    predict,
) -> np.ndarray:
    """Forecasts ``(anchors, max horizon)`` in original load units.

    ``horizon`` is one int for every anchor or one per anchor.  Chunk ``c``
    runs only the anchors whose horizon reaches past ``c * tau``; a row's
    hours past its own horizon are NaN.  ``predict(c, x)`` maps chunk
    ``c``'s lag rows ``x`` ``(anchors, L, F)`` to scaled forecasts
    ``(anchors, tau)``.  Lag rows past an anchor read that anchor's earlier
    forecasts in the target column, never the true future load; their
    exogenous and calendar values are taken as known.
    """
    if np.any(np.asarray(horizon) < 1):
        raise ValueError(f"horizon must be >= 1, got {np.min(horizon)}")
    anchors = np.asarray(anchors, dtype=np.int64)
    horizons = np.broadcast_to(np.asarray(horizon, dtype=np.int64), anchors.shape)
    lags = np.array(lag_set.lags)
    _raise_first_fault(scaled, anchors, horizons, tau, lags)
    width = int(np.max(horizon, initial=0))
    if not len(anchors):
        return np.empty((0, width))
    tcol = scaled.target_index
    chunks = math.ceil(width / tau)
    out = np.full((len(anchors), chunks * tau), np.nan)
    for c in range(chunks):
        live = np.flatnonzero(horizons > c * tau)
        x = scaled.values[anchors[live, None] + c * tau - lags]
        ahead = c * tau - lags  # hours past the anchor of each lag row
        fed = ahead > 0
        x[:, fed, tcol] = out[live[:, None], ahead[fed] - 1]
        out[live, c * tau : (c + 1) * tau] = predict(c, x)
    stats = scaler.stats[scaled.target_name]
    return out[:, :width] * stats.std + stats.mean


def forecast_rollout(
    model,
    scaled: TimeSeriesFrame,
    t0: int,
    horizon: int,
    lag_set: LagSet,
    scaler: Scaler,
    mode: Mode = None,
) -> np.ndarray:
    """Forecast hours t0+1 .. t0+horizon, in original load units.

    Each chunk is one ``model.forward`` call on a :class:`ScaledInput`;
    lag reads landing past t0 see the earlier chunks' forecasts only.
    """
    tau = model.config.horizon

    def predict(c: int, x: np.ndarray) -> np.ndarray:
        chunk = ScaledInput(t0 + c * tau, lag_set.lags, x[0])
        return model.forward(chunk, mode).values

    return _rollout(scaled, [t0], horizon, lag_set, scaler, tau, predict)[0]


def forecast_rollout_batch(
    model,
    scaled: TimeSeriesFrame,
    anchors,
    horizon,
    lag_set: LagSet,
    scaler: Scaler,
    mode: Mode = None,
) -> np.ndarray:
    """Row ``i`` is ``forecast_rollout`` from ``anchors[i]``; each chunk of
    every anchor runs as one ``model.forward_batch`` call.  ``horizon`` is
    one int or one per anchor, as in :func:`_rollout`."""
    return _rollout(
        scaled,
        anchors,
        horizon,
        lag_set,
        scaler,
        model.config.horizon,
        lambda c, x: model.forward_batch(x, mode).values,
    )


def seasonal_naive(frame: TimeSeriesFrame, t0: int, horizon: int) -> np.ndarray:
    """Week-ago persistence: forecast(t0+h) = load(t0+h-168)."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    first = t0 + 1 - 168
    if first < 0:
        raise FrameTooShortError(
            f"anchor {t0} lacks a week of history for the persistence baseline"
        )
    rows = np.arange(first, first + horizon)
    col = frame.target_index
    gaps = np.nonzero(frame.missing[rows, col])[0]
    if gaps.size:
        ts = frame.timestamps[rows[int(gaps[0])]]
        raise CoverageError(f"missing load at {format_timestamp(ts)}")
    return frame.values[rows, col].copy()


def evaluation_anchors(
    frame: TimeSeriesFrame,
    rng: tuple[int, int],
    horizon: int,
    tau: int,
    lag_set: LagSet,
    stride: int = DEFAULT_STRIDE,
) -> np.ndarray:
    """Anchors inside [start, end), stepping by stride, whose window ends
    inside the range, whose rollout can run, and whose truth is observed."""
    start, end = rng
    anchors = np.arange(start, end, stride, dtype=np.int64)
    anchors = anchors[anchors + horizon <= end - 1]
    faults = _window_faults(frame, anchors, horizon, tau, np.array(lag_set.lags))
    return anchors[~faults.any(axis=0)]


def _holiday_column(frame: TimeSeriesFrame) -> np.ndarray | None:
    for name in ("holiday", "holiday_id"):
        if frame.has_feature(name):
            return frame.column(name)
    return None


def evaluate(
    model,
    frame: TimeSeriesFrame,
    scaler: Scaler,
    rng: tuple[int, int],
    horizons=(24, 48, 168),
    lag_set: LagSet | None = None,
    stride: int = DEFAULT_STRIDE,
    noise_seed: int = 0,
    subsets=SUBSETS,
    fingerprint: str = "",
) -> MetricsReport:
    """Score rollouts anchored through ``rng`` on the requested subsets.

    The noisy subset re-runs the full anchor set on a perturbed copy of the
    frame (exogenous continuous cells only), scaled by the same fitted
    scaler, scored against the clean truth.  Each anchor rolls out once per
    source, to the longest horizon whose anchor set holds it; a shorter
    horizon's cells read the first hours of that rollout.
    """
    if lag_set is None:
        from .lags import lag_set_for_history

        lag_set = lag_set_for_history(frame.n_rows)
    unknown = set(subsets) - set(SUBSETS)
    if unknown:
        raise ConfigError(f"unknown subsets: {sorted(unknown)}")
    tau = model.config.horizon
    spec = HorizonSpec(tuple(horizons))
    spec.validate_chunks(tau)

    raw_load = frame.values[:, frame.target_index]
    holiday_col = _holiday_column(frame)
    anchor_sets = {
        h: evaluation_anchors(frame, rng, h, tau, lag_set, stride)
        for h in spec.horizons
    }
    for horizon, anchors in anchor_sets.items():
        check_targets(frame, raw_load, anchors, horizon)

    # one rollout per anchor and source, as long as its longest horizon
    base = np.unique(np.concatenate(list(anchor_sets.values())))
    reach = np.max(
        [np.where(np.isin(base, a), h, 0) for h, a in anchor_sets.items()], axis=0
    )
    sources = {"full": apply_scaler(frame, scaler)}
    if "noisy" in subsets:
        sources["noisy"] = apply_scaler(inject_noise(frame, 0.5, noise_seed), scaler)
    preds = {
        name: forecast_rollout_batch(model, source, base, reach, lag_set, scaler)
        for name, source in sources.items()
    }

    n_params_fn = getattr(model, "n_params", None)
    total_params = int(n_params_fn()) if callable(n_params_fn) else 0
    report = MetricsReport(
        method=model.config.method,
        fingerprint=fingerprint,
        param_counts={"total": total_params},
    )

    for horizon, anchors in anchor_sets.items():
        window = anchors[:, None] + np.arange(1, horizon + 1)
        truth = raw_load[window]
        rows = np.searchsorted(base, anchors)

        def scores(source: str) -> np.ndarray:
            # per-anchor MAPE; check_targets has rejected near-zero truths
            if not len(anchors):
                return np.empty(0)
            rel = np.abs(truth - preds[source][rows, :horizon]) / np.abs(truth)
            return 100.0 * np.mean(rel, axis=1)

        def put(subset: str, values: np.ndarray) -> None:
            if len(values):
                report.cells[(horizon, subset)] = {
                    "mape": float(np.mean(values)),
                    "anchors": len(values),
                }
            else:
                report.cells[(horizon, subset)] = {"mape": None, "anchors": 0}

        full = scores("full")
        if "full" in subsets:
            put("full", full)
        if "holidays" in subsets:
            if holiday_col is None:
                put("holidays", np.empty(0))
            else:
                put("holidays", full[(holiday_col[window] != 0).any(axis=1)])
        if "noisy" in subsets:
            put("noisy", scores("noisy"))
    return report


# ---------------------------------------------------------------------------
# report files (byte-stable: no timestamps, fixed ordering, LF endings)
# ---------------------------------------------------------------------------

def _cell_rows(report: MetricsReport):
    for (horizon, subset) in sorted(report.cells):
        cell = report.cells[(horizon, subset)]
        yield horizon, subset, cell["mape"], cell["anchors"]


def write_report_csv(path, report: MetricsReport) -> None:
    write_table(
        path,
        ["method", "horizon", "subset", "mape", "anchors"],
        ([report.method, *row] for row in _cell_rows(report)),
    )


def write_report_json(path, report: MetricsReport) -> None:
    doc = {
        "method": report.method,
        "fingerprint": report.fingerprint,
        "param_counts": report.param_counts,
        "cells": [
            {"horizon": h, "subset": s, "mape": v, "anchors": a}
            for h, s, v, a in _cell_rows(report)
        ],
    }
    write_json(path, doc)
