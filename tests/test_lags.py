"""Lag-set inputs: valid anchors, stacked matrices, aligned targets."""
import re

import numpy as np
import pytest

from loadcast.errors import FrameTooShortError
from loadcast.lags import (
    LagSet,
    _history_reads,
    build_batch,
    lag_set_for_history,
    valid_timestamps,
    window_faults,
)

from conftest import small_frame, target_only_frame

DEFAULT_LAGS = (8760, 168, 24, 12, 6, 5, 4, 3, 2, 1)


def lag_rows(frame, t, lag_set):
    """Anchor ``t``'s ``(L, F)`` lag rows, from ``build_batch`` with no targets."""
    return build_batch(frame, [t], lag_set, 0, frame.values[:, frame.target_index])[0][0]


def brute_force_anchors(frame, lags, horizon):
    """Reference filter: try every t, demand clean lag rows and targets."""
    out = []
    load = frame.target_index
    for t in range(frame.n_rows):
        ok = True
        for lag in lags:
            if t - lag < 0 or frame.missing[t - lag].any():
                ok = False
                break
        for step in range(1, horizon + 1):
            if not ok:
                break
            if t + step >= frame.n_rows or frame.missing[t + step, load]:
                ok = False
        if ok:
            out.append(t)
    return out


def window_faults_loop(frame, anchors, horizon, lags, tau=None):
    """Reference ``window_faults``: row 3 as a loop over the history reads,
    one array of anchors per read."""
    anchors = np.asarray(anchors, dtype=np.int64)
    horizons = np.asarray(horizon, dtype=np.int64)
    n = frame.n_rows
    width = int(horizons.max(initial=0))
    tau = max(width, 1) if tau is None else tau
    any_gap, others_gap, load_gap = frame.gap_counts
    faults = np.zeros((5, len(anchors)), dtype=bool)
    faults[0] = (horizons > 0) & (anchors + horizons >= n)
    faults[2] = anchors - lags[0] < 0
    first = np.minimum(np.maximum(anchors + 1, 0), n)
    stop = np.minimum(np.maximum(anchors + horizons + 1, 0), n)
    faults[1] = others_gap[stop] > others_gap[first]
    faults[4] = load_gap[stop] > load_gap[first]
    inside = np.maximum(anchors, lags[0])
    for offset, chunk, _ in _history_reads(width, tau, lags):
        rows = np.minimum(inside + offset, n - 1)
        hit = any_gap[rows + 1] > any_gap[rows]
        faults[3] |= hit & (horizons > chunk * tau) if chunk else hit
    return faults


class TestLagSet:
    def test_default_value(self):
        assert LagSet().lags == DEFAULT_LAGS

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            LagSet((24, 168))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            LagSet((24, 24, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LagSet((24, 0))

    def test_capped_drops_large_lags(self):
        assert LagSet().capped(168).lags == DEFAULT_LAGS[1:]
        assert LagSet().capped(8760).lags == DEFAULT_LAGS

    def test_auto_cap_for_short_history(self):
        assert lag_set_for_history(8760 + 720).lags == DEFAULT_LAGS
        assert lag_set_for_history(8760 + 719).lags == DEFAULT_LAGS[1:]
        assert lag_set_for_history(500).lags == DEFAULT_LAGS[1:]


class TestValidTimestamps:
    def test_minimal_frame_single_anchor(self):
        frame = target_only_frame(np.arange(8761))
        anchors = valid_timestamps(frame, LagSet(), 0)
        assert list(anchors) == [8760]

    def test_200_rows_capped_week(self):
        frame = target_only_frame(np.arange(200))
        anchors = valid_timestamps(frame, LagSet().capped(168), 24)
        assert list(anchors) == list(range(168, 176))
        assert len(anchors) == 200 - 168 - 24

    def test_missing_lag_row_excludes_anchor(self):
        missing = np.zeros((8765, 1), bool)
        missing[8762 - 24] = True
        frame = target_only_frame(np.arange(8765), missing=missing)
        anchors = valid_timestamps(frame, LagSet(), 0)
        assert 8762 not in anchors
        assert list(anchors) == [8760, 8761, 8763, 8764]

    def test_missing_target_excludes_anchor(self):
        missing = np.zeros((240, 1), bool)
        missing[200] = True
        frame = target_only_frame(np.arange(240), missing=missing)
        anchors = valid_timestamps(frame, LagSet((168, 1)), 2)
        # 198 and 199 lose a target row, 201 loses its 1h lag row
        for t in (198, 199, 201):
            assert t not in anchors
        assert 197 in anchors and 202 in anchors

    def test_too_short_raises_with_minimum(self):
        frame = target_only_frame(np.arange(100))
        with pytest.raises(FrameTooShortError, match="168"):
            valid_timestamps(frame, LagSet().capped(168), 24)

    def test_brute_force_equivalence(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(60, 400))
            missing = (rng.random((n, 1)) < 0.05)
            frame = target_only_frame(rng.uniform(50, 150, n), missing=missing)
            lags = (24, 12, 3, 1)
            horizon = int(rng.integers(1, 5))
            expected = brute_force_anchors(frame, lags, horizon)
            if not expected:
                with pytest.raises(FrameTooShortError):
                    valid_timestamps(frame, LagSet(lags), horizon)
            else:
                got = valid_timestamps(frame, LagSet(lags), horizon)
                assert list(got) == expected

    def test_smaller_lag_set_keeps_or_grows_anchor_set(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            missing = rng.random((300, 1)) < 0.03
            frame = target_only_frame(rng.uniform(50, 150, 300), missing=missing)
            wide = set(valid_timestamps(frame, LagSet((48, 24, 1)), 2))
            narrow = set(valid_timestamps(frame, LagSet((24, 1)), 2))
            assert wide <= narrow


class TestBuildInput:
    def test_index_identity_frame(self):
        frame = target_only_frame(np.arange(8761))
        x = lag_rows(frame, 8760, LagSet())
        expected = [0, 8592, 8736, 8748, 8754, 8755, 8756, 8757, 8758, 8759]
        np.testing.assert_array_equal(x[:, 0], expected)

    def test_rows_oldest_first(self):
        frame = small_frame(n=200)
        x = lag_rows(frame, 180, LagSet((168, 24, 1)))
        np.testing.assert_array_equal(x[0], frame.values[180 - 168])
        np.testing.assert_array_equal(x[1], frame.values[180 - 24])
        np.testing.assert_array_equal(x[2], frame.values[179])

    def test_single_lag_is_previous_row(self):
        frame = small_frame(n=50)
        x = lag_rows(frame, 10, LagSet((1,)))
        np.testing.assert_array_equal(x, frame.values[9:10])

    def test_deterministic(self):
        frame = small_frame(n=200)
        a = lag_rows(frame, 180, LagSet((168, 1)))
        b = lag_rows(frame, 180, LagSet((168, 1)))
        np.testing.assert_array_equal(a, b)

    def test_invalid_anchor_names_lag(self):
        frame = target_only_frame(np.arange(100))
        with pytest.raises(FrameTooShortError, match="lag 168"):
            lag_rows(frame, 100, LagSet((168, 1)))

    def test_missing_row_refused(self):
        missing = np.zeros((60, 1), bool)
        missing[30 - 24] = True
        frame = target_only_frame(np.arange(60), missing=missing)
        with pytest.raises(FrameTooShortError, match="lag 24"):
            lag_rows(frame, 30, LagSet((24, 1)))

    def test_random_cell_equality(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            frame = small_frame(n=300, seed=seed)
            lags = (72, 24, 5, 1)
            t = int(rng.integers(72, 299))
            x = lag_rows(frame, t, LagSet(lags))
            for j, lag in enumerate(lags):
                np.testing.assert_array_equal(x[j], frame.values[t - lag])


class TestWindowFaults:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_loop_over_reads(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(60, 400))
        frame = small_frame(n=n, seed=seed)
        missing = rng.random(frame.missing.shape) < rng.choice([0.0, 0.01, 0.04])
        frame = type(frame)(frame.timestamps, frame.specs, frame.values, missing)
        lags = np.sort(rng.choice(np.arange(1, 60), int(rng.integers(1, 8)), replace=False))[::-1]
        anchors = rng.integers(-30, n + 30, int(rng.integers(0, 200)))
        tau = None if rng.random() < 0.3 else int(rng.integers(1, 20))
        # per-anchor horizons include whole chunks, where a chunk's reads
        # start or stop counting
        horizon = rng.integers(0, 80, len(anchors))
        if tau is not None:
            whole = rng.random(len(anchors)) < 0.5
            horizon[whole] = tau * rng.integers(0, 6, whole.sum())
        if rng.random() < 0.3:
            horizon = int(horizon[0]) if len(horizon) else 5
        np.testing.assert_array_equal(
            window_faults(frame, anchors, horizon, lags, tau),
            window_faults_loop(frame, anchors, horizon, lags, tau),
        )


class TestBuildBatch:
    def test_targets_are_next_hours(self):
        frame = small_frame(n=120)
        anchors = np.arange(80, 90)
        _, targets_scaled, targets_raw = build_batch(
            frame, anchors, LagSet((72, 1)), 1, frame.column("load")
        )
        for i, t in enumerate(anchors):
            assert targets_scaled[i, 0] == frame.values[t + 1, 0]
            assert targets_raw[i, 0] == frame.values[t + 1, 0]

    def test_order_preserved(self):
        frame = small_frame(n=120)
        anchors = np.array([85, 80, 90])
        inputs, _, _ = build_batch(frame, anchors, LagSet((72, 1)), 2, frame.column("load"))
        for x, t in zip(inputs, anchors):
            np.testing.assert_array_equal(x, lag_rows(frame, t, LagSet((72, 1))))

    def test_empty_anchor_list(self):
        frame = small_frame(n=120)
        inputs, targets_scaled, targets_raw = build_batch(
            frame, np.array([], dtype=int), LagSet((72, 1)), 2, frame.column("load")
        )
        assert inputs.shape == (0, 2, frame.n_features)
        assert targets_scaled.shape == targets_raw.shape == (0, 2)

    def test_shapes(self):
        frame = small_frame(n=400)
        anchors = np.arange(200, 230)
        inputs, targets_scaled, targets_raw = build_batch(
            frame, anchors, LagSet((168, 24, 12, 6, 5, 4, 3, 2, 1)), 24, frame.column("load")
        )
        assert len(inputs) == 30
        assert inputs.shape == (30, 9, frame.n_features)
        assert targets_scaled.shape == targets_raw.shape == (30, 24)

    def test_invalid_anchor_reported(self):
        frame = small_frame(n=120)
        with pytest.raises(FrameTooShortError):
            build_batch(frame, np.array([10]), LagSet((72, 1)), 2, frame.column("load"))

    @pytest.mark.parametrize(
        "anchors, horizon, message",
        [
            ([60, 118, 10, 74], 2, "anchor 118 has no room for horizon 2"),
            ([60, 10, 118, 74], 2, "anchor 10 reaches before the frame at lag 24"),
            ([60, 74, 51, 10], 2, "anchor 74 hits missing data at lag 24"),
            ([60, 51, 74, 118], 2, "anchor 51 hits missing data at lag 1"),
            ([117, 10], 3, "anchor 117 has no room for horizon 3"),
        ],
    )
    def test_first_failing_anchor_in_array_order(self, anchors, horizon, message):
        # rows 50 and 93 are missing; anchor 117 reads row 93 at lag 24 and,
        # at horizon 3, also runs past the frame: the room check comes first
        missing = np.zeros((120, 1), bool)
        missing[[50, 93]] = True
        frame = target_only_frame(np.arange(120), missing=missing)
        with pytest.raises(FrameTooShortError, match=f"^{re.escape(message)}$"):
            build_batch(frame, np.array(anchors), LagSet((24, 1)), horizon, frame.column("load"))
