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


def lag_set_for_history(n_rows: int) -> "LagSet":
    """Default lag set, capped to a week when the history is too short to
    feed the one-year lag plus a month of anchors."""
    base = LagSet()
    if n_rows < base.max_lag + SHORT_HISTORY_SLACK:
        return base.capped(SHORT_HISTORY_CAP)
    return base


def _history_reads(horizon: int, tau: int, lags) -> list[tuple[int, int, int]]:
    """Every lag read a rollout takes from the frame itself, i.e. at or
    before its anchor, chunk by chunk and oldest lag first: the read's
    offset from the anchor, its chunk and its lag.  A window of at most
    ``tau`` hours, horizon 0 included, is one chunk."""
    chunks = range(max(1, -(-horizon // tau)))
    return [(tau * c - lag, c, lag) for c in chunks for lag in lags if tau * c <= lag]


def window_faults(
    frame: TimeSeriesFrame, anchors, horizon, lags, tau: int | None = None
) -> np.ndarray:
    """Per-anchor faults of a forecast window, ``(5, anchors)`` masks.

    ``horizon`` is one int or one per anchor.  Lag rows are read chunk by
    chunk, ``tau`` hours each (default: one chunk), as a rollout reads them.
    Rows 0-3 stop a rollout, in the order it checks them: the window runs
    past the frame; an exogenous or calendar value is missing inside it;
    the deepest lag reaches before the frame; a lag row read from history
    has a gap.  Row 4 only stops scoring: a true load inside the window is
    missing.  A row's verdict only counts where every earlier row is clear.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    horizons = np.asarray(horizon, dtype=np.int64)
    n = frame.n_rows
    width = int(horizons.max(initial=0))
    tau = max(width, 1) if tau is None else tau
    any_gap, others_gap, load_gap = frame.gap_counts
    faults = np.zeros((5, len(anchors)), dtype=bool)
    faults[0] = (horizons > 0) & (anchors + horizons >= n)
    faults[2] = anchors - lags[0] < 0
    # the window is rows first .. stop-1; np.clip costs more per call
    first = np.minimum(np.maximum(anchors + 1, 0), n)
    stop = np.minimum(np.maximum(anchors + horizons + 1, 0), n)
    faults[1] = others_gap[stop] > others_gap[first]
    faults[4] = load_gap[stop] > load_gap[first]
    # every history read of every anchor, (anchors, reads); an anchor before
    # the deepest lag already fails, so its reads may move into the frame
    offset, chunk, _ = np.array(_history_reads(width, tau, lags)).T
    rows = np.minimum(np.maximum(anchors, lags[0])[:, None] + offset, n - 1)
    hit = any_gap[rows + 1] > any_gap[rows]
    # a later chunk's reads count only where the window reaches that chunk
    hit &= (chunk == 0) | (horizons.reshape(-1, 1) > chunk * tau)
    faults[3] = hit.any(axis=1)
    return faults


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
    faults = window_faults(frame, candidates, horizon, lag_set.lags)
    anchors = candidates[~(faults[3] | faults[4])]
    if len(anchors) == 0:
        raise FrameTooShortError(
            "no usable anchors: every candidate window touches missing data"
        )
    return anchors


def build_batch(
    scaled: TimeSeriesFrame,
    anchors: np.ndarray,
    lag_set: LagSet,
    horizon: int,
    raw_load: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lag rows ``(B, L, F)``, scaled targets ``(B, horizon)`` and raw
    targets ``(B, horizon)`` for a batch of anchor indices.

    Anchor ``t``'s lag rows are rows t-lag, oldest lag first: the array
    :meth:`Model.forward_batch` takes.  ``raw_load`` is the unscaled load
    column of the same frame; targets are the ``horizon`` rows after each
    anchor, in both scaled and original units, and ``horizon`` 0 gives the
    lag rows alone.

    Raises for the first anchor, in array order, that leaves no room for
    ``horizon`` target rows (when ``horizon`` > 0), reaches before the
    frame, or reads a row with missing data; an anchor's faults are
    checked in that order.
    """
    if len(raw_load) != scaled.n_rows:
        raise ValueError("raw_load length must match the frame")
    anchors = np.asarray(anchors, dtype=np.int64)
    lags = np.array(lag_set.lags)
    faults = window_faults(scaled, anchors, horizon, lags)[[0, 2, 3]]
    if faults.any():
        i = int(np.argmax(faults.any(axis=0)))
        t = int(anchors[i])
        fault = int(np.argmax(faults[:, i]))
        if fault == 0:
            raise FrameTooShortError(f"anchor {t} has no room for horizon {horizon}")
        if fault == 1:
            raise FrameTooShortError(
                f"anchor {t} reaches before the frame at lag {lag_set.max_lag}"
            )
        lag = lags[int(np.argmax(scaled.missing[t - lags].any(axis=1)))]
        raise FrameTooShortError(f"anchor {t} hits missing data at lag {lag}")
    inputs = scaled.values[anchors[:, None] - lags]
    steps = anchors[:, None] + np.arange(1, horizon + 1)
    return inputs, scaled.values[steps, scaled.target_index], raw_load[steps]
