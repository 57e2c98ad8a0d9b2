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
rollout's first hours; a non-finite forecast raises.  Reports aggregate
per-anchor relative error over the full anchor set, the holiday-touching
subset, and a noise-injected rerun.  The ``check_*`` rules of what may be
scored are shared with ``training.rolling_cv``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CoverageError, DivergenceError, FrameTooShortError, IntegrityError
from .frames import (
    Scaler,
    TimeSeriesFrame,
    apply_scaler,
    format_timestamp,
    inject_noise,
    write_json,
    write_table,
)
from .lags import LagSet, _history_reads, window_faults
from .model import Mode

SUBSETS = ("full", "holidays", "noisy")
DEFAULT_STRIDE = 24
# a true load at or below this magnitude has no relative error
MAPE_GUARD = 1e-6


def check_horizons(horizons, tau: int) -> tuple[int, ...]:
    """``horizons`` as a tuple: at least one, each a positive multiple of the
    chunk length ``tau`` so that rollouts tile exactly."""
    horizons = tuple(horizons)
    if not horizons:
        raise ConfigError("need at least one horizon")
    for h in horizons:
        if h < 1:
            raise ConfigError(f"horizon must be positive, got {h}")
    for h in horizons:
        if h % tau:
            raise ConfigError(f"horizon {h} is not a multiple of the chunk length {tau}")
    return horizons


def check_subsets(subsets) -> tuple[str, ...]:
    """``subsets`` as a tuple: at least one, each from ``SUBSETS``."""
    subsets = tuple(subsets)
    if not subsets:
        raise ConfigError("need at least one subset")
    unknown = set(subsets) - set(SUBSETS)
    if unknown:
        raise ConfigError(f"unknown subsets: {sorted(unknown)}")
    return subsets


def check_targets(
    frame: TimeSeriesFrame, raw_load: np.ndarray, anchors: np.ndarray, horizon: int
) -> None:
    """Raise a data error at the earliest hour of the anchors' target
    windows whose true load is too near zero for a relative error."""
    rows = np.unique(np.asarray(anchors)[:, None] + np.arange(1, horizon + 1))
    bad = np.abs(raw_load[rows]) <= MAPE_GUARD
    if bad.any():
        row = rows[bad.argmax()]
        raise IntegrityError(
            f"feature {frame.target_name!r} at {format_timestamp(frame.timestamps[row])}: "
            f"value {float(raw_load[row])!r} is not above {MAPE_GUARD}; "
            f"relative error undefined"
        )


@dataclass
class MetricsReport:
    """Per (horizon, subset) error cells plus provenance."""

    method: str
    fingerprint: str
    param_counts: dict[str, int]
    # (horizon, subset) -> {"mape": float | None, "anchors": int}
    cells: dict = field(default_factory=dict)


def _raise_first_fault(
    frame: TimeSeriesFrame,
    anchors: np.ndarray,
    horizons: np.ndarray,
    tau: int,
    lags: np.ndarray,
) -> None:
    """Raise what a rollout from the first failing anchor raises, if any;
    ``horizons`` holds each anchor's own horizon."""
    faults = window_faults(frame, anchors, horizons, lags, tau)[:4]
    if not faults.any():
        return
    i = int(np.argmax(faults.any(axis=0)))
    t0 = int(anchors[i])
    horizon = int(horizons[i])
    fault = int(np.argmax(faults[:, i]))
    if fault == 0:
        raise FrameTooShortError(
            f"anchor {t0} with horizon {horizon} runs past the frame "
            f"({frame.n_rows} rows)"
        )
    if fault == 1:
        first = max(t0 + 1, 0)  # an anchor before the frame: its window's rows in it
        window = np.delete(frame.missing[first : t0 + 1 + horizon], frame.target_index, axis=1)
        ts = frame.timestamps[first + int(np.argmax(window.any(axis=1)))]
        raise CoverageError(
            f"missing exogenous data at {format_timestamp(ts)} "
            f"inside the forecast window"
        )
    if fault == 2:
        raise FrameTooShortError(
            f"anchor {t0} reaches before the frame at lag {int(lags[0])}"
        )
    offset, chunk, lag = next(
        read for read in _history_reads(horizon, tau, lags)
        if frame.missing[t0 + read[0]].any()
    )
    raise CoverageError(
        f"missing data at {format_timestamp(frame.timestamps[t0 + offset])} "
        f"(lag {lag} of chunk {chunk})"
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
    hours past its own horizon are NaN.  ``predict(x)`` maps a chunk's lag
    rows ``x`` ``(anchors, L, F)`` to scaled forecasts ``(anchors, tau)``.
    Lag rows past an anchor read that anchor's earlier forecasts in the
    target column, never the true future load; their exogenous and calendar
    values are taken as known.  A non-finite forecast raises
    ``DivergenceError`` naming the first such anchor and hour.
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
    chunks = -(-width // tau)
    out = np.full((len(anchors), chunks * tau), np.nan)
    for c in range(chunks):
        live = np.flatnonzero(horizons > c * tau)
        x = scaled.values[anchors[live, None] + c * tau - lags]
        ahead = c * tau - lags  # hours past the anchor of each lag row
        fed = ahead > 0
        x[:, fed, tcol] = out[live[:, None], ahead[fed] - 1]
        pred = predict(x)
        if not np.isfinite(pred).all():
            i, j = np.argwhere(~np.isfinite(pred))[0]
            stamp = format_timestamp(scaled.timestamps[anchors[live[i]]])
            raise DivergenceError(
                f"non-finite forecast from anchor {stamp} at hour {c * tau + j + 1}"
            )
        out[live, c * tau : (c + 1) * tau] = pred
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

    Each chunk is one ``model.forward`` call on the chunk's ``(L, F)`` lag
    rows; lag reads landing past t0 see the earlier chunks' forecasts only.
    """
    return _rollout(
        scaled,
        [t0],
        horizon,
        lag_set,
        scaler,
        model.config.horizon,
        lambda x: model.forward(x[0], mode).values,
    )[0]


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
        lambda x: model.forward_batch(x, mode).values,
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
    return anchors[~window_faults(frame, anchors, horizon, lag_set.lags, tau).any(axis=0)]


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
    lag_set: LagSet,
    horizons=(24, 48, 168),
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
    subsets = check_subsets(subsets)
    tau = model.config.horizon
    horizons = check_horizons(horizons, tau)

    raw_load = frame.values[:, frame.target_index]
    holiday_col = _holiday_column(frame)
    anchor_sets = {
        h: evaluation_anchors(frame, rng, h, tau, lag_set, stride)
        for h in horizons
    }
    for horizon, anchors in anchor_sets.items():
        check_targets(frame, raw_load, anchors, horizon)

    # one rollout per anchor and source, as long as its longest horizon
    base = np.unique(np.concatenate(list(anchor_sets.values())))
    reach = np.max(
        [np.where(np.isin(base, a), h, 0) for h, a in anchor_sets.items()], axis=0
    )
    sources = {}
    if "full" in subsets or "holidays" in subsets:
        sources["full"] = apply_scaler(frame, scaler)
    if "noisy" in subsets:
        sources["noisy"] = apply_scaler(inject_noise(frame, 0.5, noise_seed), scaler)
    preds = {
        name: forecast_rollout_batch(model, source, base, reach, lag_set, scaler)
        for name, source in sources.items()
    }

    report = MetricsReport(
        method=model.config.method,
        fingerprint=fingerprint,
        param_counts={"total": model.n_params()},
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

        if "full" in subsets:
            put("full", scores("full"))
        if "holidays" in subsets:
            if holiday_col is None:
                put("holidays", np.empty(0))
            else:
                put("holidays", scores("full")[(holiday_col[window] != 0).any(axis=1)])
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
