"""Lag-set inputs: valid anchors, stacked matrices, aligned targets."""
import re

import numpy as np
import pytest

from loadcast.errors import FrameTooShortError
from loadcast.lags import (
    LagSet,
    build_batch,
    build_input,
    lag_set_for_history,
    valid_timestamps,
)

from conftest import small_frame, target_only_frame

DEFAULT_LAGS = (8760, 168, 24, 12, 6, 5, 4, 3, 2, 1)


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
        x = build_input(frame, 8760, LagSet())
        expected = [0, 8592, 8736, 8748, 8754, 8755, 8756, 8757, 8758, 8759]
        np.testing.assert_array_equal(x.values[:, 0], expected)

    def test_rows_oldest_first(self):
        frame = small_frame(n=200)
        x = build_input(frame, 180, LagSet((168, 24, 1)))
        np.testing.assert_array_equal(x.values[0], frame.values[180 - 168])
        np.testing.assert_array_equal(x.values[1], frame.values[180 - 24])
        np.testing.assert_array_equal(x.values[2], frame.values[179])

    def test_single_lag_is_previous_row(self):
        frame = small_frame(n=50)
        x = build_input(frame, 10, LagSet((1,)))
        np.testing.assert_array_equal(x.values, frame.values[9:10])

    def test_deterministic(self):
        frame = small_frame(n=200)
        a = build_input(frame, 180, LagSet((168, 1)))
        b = build_input(frame, 180, LagSet((168, 1)))
        np.testing.assert_array_equal(a.values, b.values)

    def test_invalid_anchor_names_lag(self):
        frame = target_only_frame(np.arange(100))
        with pytest.raises(FrameTooShortError, match="lag 168"):
            build_input(frame, 100, LagSet((168, 1)))

    def test_missing_row_refused(self):
        missing = np.zeros((60, 1), bool)
        missing[30 - 24] = True
        frame = target_only_frame(np.arange(60), missing=missing)
        with pytest.raises(FrameTooShortError, match="lag 24"):
            build_input(frame, 30, LagSet((24, 1)))

    def test_random_cell_equality(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            frame = small_frame(n=300, seed=seed)
            lags = (72, 24, 5, 1)
            t = int(rng.integers(72, 299))
            x = build_input(frame, t, LagSet(lags))
            for j, lag in enumerate(lags):
                np.testing.assert_array_equal(x.values[j], frame.values[t - lag])


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
            np.testing.assert_array_equal(x, build_input(frame, t, LagSet((72, 1))).values)

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
