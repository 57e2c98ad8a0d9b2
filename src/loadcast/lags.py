"""Lag-set input assembly.

Each forecast anchor t is summarised by a short stack of past rows taken at
a fixed set of hourly lags spanning one year down to one hour, ordered
oldest first.  Targets for an anchor are the ``horizon`` rows strictly
after it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameTooShortError
from .frames import TimeSeriesFrame

DEFAULT_LAGS = (8760, 168, 24, 12, 6, 5, 4, 3, 2, 1)

# a year-deep lag needs at least this much slack beyond itself to leave a
# useful anchor range; shorter histories fall back to the one-week cap
SHORT_HISTORY_SLACK = 720
SHORT_HISTORY_CAP = 168


@dataclass(frozen=True)
class LagSet:
    """Strictly decreasing tuple of positive hourly lags."""

    lags: tuple[int, ...] = DEFAULT_LAGS

    def __post_init__(self):
        if len(self.lags) == 0:
            raise ValueError("lag set is empty")
        for lag in self.lags:
            if not isinstance(lag, (int, np.integer)) or lag < 1:
                raise ValueError(f"lags must be positive integers, got {lag!r}")
        if any(a <= b for a, b in zip(self.lags, self.lags[1:])):
            raise ValueError(f"lags must be strictly decreasing, got {self.lags}")

    @property
    def max_lag(self) -> int:
        return self.lags[0]

    def __len__(self) -> int:
        return len(self.lags)

    def capped(self, max_lag: int) -> "LagSet":
        """Drop lags deeper than ``max_lag``, e.g. for short histories."""
        kept = tuple(lag for lag in self.lags if lag <= max_lag)
        if not kept:
            raise ValueError(f"no lags left under cap {max_lag}")
        return LagSet(kept)


def lag_set_for_history(n_rows: int, base: LagSet | None = None) -> "LagSet":
    """Default lag set, capped to a week when the history is too short to
    feed the one-year lag plus a month of anchors."""
    if base is None:
        base = LagSet()
    if n_rows < base.max_lag + SHORT_HISTORY_SLACK:
        return base.capped(SHORT_HISTORY_CAP)
    return base


@dataclass(frozen=True)
class ScaledInput:
    """One anchor's stacked lag rows, in scaled units, oldest lag first."""

    anchor: int
    lags: tuple[int, ...]
    values: np.ndarray  # (|lags|, n_features)

    def __post_init__(self):
        if self.values.shape[0] != len(self.lags):
            raise ValueError("one row per lag required")


def valid_timestamps(
    frame: TimeSeriesFrame, lag_set: LagSet, horizon: int
) -> np.ndarray:
    """Anchor indices with complete lag rows and observed targets.

    An anchor t is usable when every lag row t-lag exists with no missing
    cell and the target rows t+1..t+horizon all have an observed load.
    horizon 0 keeps only the lag-side constraints.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    n = frame.n_rows
    low = lag_set.max_lag
    high = n - 1 - horizon  # inclusive; last target row must exist
    if high < low:
        raise FrameTooShortError(
            f"frame has {n} rows; need more than {low + horizon} "
            f"for max lag {low} and horizon {horizon}"
        )
    candidates = np.arange(low, high + 1)
    row_clean = ~frame.missing.any(axis=1)
    load_seen = ~frame.missing[:, frame.target_index]
    keep = np.ones(len(candidates), dtype=bool)
    for lag in lag_set.lags:
        keep &= row_clean[candidates - lag]
    for step in range(1, horizon + 1):
        keep &= load_seen[candidates + step]
    anchors = candidates[keep]
    if len(anchors) == 0:
        raise FrameTooShortError(
            "no usable anchors: every candidate window touches missing data"
        )
    return anchors


def _gather(
    frame: TimeSeriesFrame, anchors: np.ndarray, lag_set: LagSet, horizon: int = 0
) -> np.ndarray:
    """Lag rows ``(anchors, L, F)``: rows t-lag for each anchor t, oldest
    lag first.

    Raises for the first anchor, in array order, that leaves no room for
    ``horizon`` target rows (when ``horizon`` > 0), reaches before the
    frame, or reads a row with missing data; an anchor's faults are
    checked in that order.
    """
    n = frame.n_rows
    rows = anchors[:, None] - np.array(lag_set.lags)
    gaps = frame.missing[np.clip(rows, 0, n - 1)].any(axis=2)
    faults = np.stack(
        [(horizon > 0) & (anchors + horizon >= n), rows[:, 0] < 0, gaps.any(axis=1)]
    )
    failing = faults.any(axis=0)
    if failing.any():
        i = int(np.argmax(failing))
        t = int(anchors[i])
        fault = int(np.argmax(faults[:, i]))
        if fault == 0:
            raise FrameTooShortError(f"anchor {t} has no room for horizon {horizon}")
        if fault == 1:
            raise FrameTooShortError(
                f"anchor {t} reaches before the frame at lag {lag_set.max_lag}"
            )
        lag = lag_set.lags[int(np.argmax(gaps[i]))]
        raise FrameTooShortError(f"anchor {t} hits missing data at lag {lag}")
    return frame.values[rows]


def build_input(frame: TimeSeriesFrame, t: int, lag_set: LagSet) -> ScaledInput:
    """Stack rows t-lag for each lag, oldest first, refusing missing data."""
    values = _gather(frame, np.array([t]), lag_set)[0]
    return ScaledInput(anchor=t, lags=lag_set.lags, values=values)


def build_batch(
    scaled: TimeSeriesFrame,
    anchors: np.ndarray,
    lag_set: LagSet,
    horizon: int,
    raw_load: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inputs ``(B, L, F)``, scaled targets ``(B, horizon)`` and raw targets
    ``(B, horizon)`` for a batch of anchor indices.

    ``raw_load`` is the unscaled load column of the same frame; targets are
    the ``horizon`` rows after each anchor, in both scaled and original
    units.
    """
    if len(raw_load) != scaled.n_rows:
        raise ValueError("raw_load length must match the frame")
    anchors = np.asarray(anchors, dtype=np.int64)
    inputs = _gather(scaled, anchors, lag_set, horizon)
    steps = anchors[:, None] + np.arange(1, horizon + 1)
    return inputs, scaled.values[steps, scaled.target_index], raw_load[steps]
