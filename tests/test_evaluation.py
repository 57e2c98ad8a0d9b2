"""Rollout mechanics, the persistence baseline, and report generation."""
import re
from types import SimpleNamespace

import numpy as np
import pytest

from loadcast.autodiff import Mat, RngStream
from loadcast.errors import ConfigError, CoverageError, DivergenceError, FrameTooShortError
from loadcast.evaluation import (
    check_horizons,
    evaluate,
    evaluation_anchors,
    forecast_rollout,
    forecast_rollout_batch,
    seasonal_naive,
    write_report_csv,
    write_report_json,
)
from loadcast.frames import (
    FeatureSpec,
    TimeSeriesFrame,
    apply_scaler,
    fit_scaler,
    format_timestamp,
)
from loadcast.lags import LagSet, window_faults
from loadcast.model import Model, ModelConfig, forced_keep
from loadcast.training import mape

from conftest import hourly_timestamps, small_frame, target_only_frame

LAGS = LagSet((24, 12, 1))


class StubModel:
    """Fixed-response stand-in exposing the forward/rollout contract."""

    def __init__(self, tau, fn, method="stub"):
        self.config = SimpleNamespace(horizon=tau, method=method)
        self.fn = fn
        self.calls = []

    def forward(self, x, directive=None):
        self.calls.append(x)
        out = np.asarray(self.fn(x, len(self.calls) - 1), dtype=float)
        return Mat(out.reshape(1, -1))

    def forward_batch(self, inputs, directive=None):
        rows = [self.forward(x, directive).values for x in inputs]
        return Mat(np.vstack(rows))

    def n_params(self):
        return 0


class CountingModel:
    """Wraps a model and records the row count of every ``forward_batch``."""

    def __init__(self, model):
        self.model = model
        self.config = model.config
        self.rows = []

    def forward_batch(self, inputs, directive=None):
        self.rows.append(len(inputs))
        return self.model.forward_batch(inputs, directive)

    def n_params(self):
        return self.model.n_params()


def frame_with_holiday(n=600, holiday_rows=(), seed=0):
    rng = np.random.default_rng(seed)
    specs = (
        FeatureSpec("load", "continuous", "target"),
        FeatureSpec("temperature", "continuous", "exogenous"),
        FeatureSpec("holiday", "categorical", "calendar", cardinality=2),
    )
    values = np.zeros((n, 3))
    values[:, 0] = 100.0 + 10.0 * rng.standard_normal(n)
    values[:, 1] = rng.standard_normal(n)
    values[list(holiday_rows), 2] = 1.0
    return TimeSeriesFrame(
        hourly_timestamps(n), specs, values, np.zeros((n, 3), dtype=bool)
    )


def row_mask(n, rows, cols=1):
    mask = np.zeros((n, cols), dtype=bool)
    mask[list(rows)] = True
    return mask


class TestHorizonSpec:
    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ConfigError):
            check_horizons((), 24)
        with pytest.raises(ConfigError):
            check_horizons((24, 0), 24)

    def test_chunk_tiling(self):
        check_horizons((24, 48, 168), 24)
        with pytest.raises(ConfigError, match="not a multiple"):
            check_horizons((30,), 24)


class TestSeasonalNaive:
    def test_weekly_periodic_is_exact(self):
        t = np.arange(6 * 168)
        frame = target_only_frame(100.0 + 30.0 * np.sin(2 * np.pi * t / 168.0))
        truth = frame.column("load")[500 + 1 : 500 + 1 + 24]
        pred = seasonal_naive(frame, 500, 24)
        np.testing.assert_allclose(pred, truth, atol=1e-9)

    def test_reads_week_old_rows(self):
        frame = target_only_frame(np.arange(400, dtype=float) + 50.0)
        pred = seasonal_naive(frame, 200, 6)
        np.testing.assert_array_equal(pred, frame.column("load")[33:39])

    def test_needs_a_week_of_history(self):
        frame = target_only_frame(np.linspace(60, 80, 400))
        with pytest.raises(FrameTooShortError):
            seasonal_naive(frame, 100, 24)

    def test_missing_source_hour_raises(self):
        frame = target_only_frame(
            np.linspace(60, 80, 400), missing=row_mask(400, [40])
        )
        with pytest.raises(CoverageError):
            seasonal_naive(frame, 200, 24)


class TestForecastRollout:
    def setup_rollout(self, n=300, tau=6, fn=None, **frame_kw):
        frame = small_frame(n=n, seed=3, **frame_kw)
        scaler = fit_scaler(frame, (0, n))
        scaled = apply_scaler(frame, scaler)
        model = StubModel(tau, fn or (lambda x, c: np.zeros(tau)))
        return frame, scaler, scaled, model

    def test_chunk_count(self):
        frame, scaler, scaled, model = self.setup_rollout(tau=24, n=400)
        forecast_rollout(model, scaled, 200, 168, LAGS, scaler)
        assert len(model.calls) == 7

    def test_single_chunk_when_horizon_equals_tau(self):
        frame, scaler, scaled, model = self.setup_rollout(tau=6)
        forecast_rollout(model, scaled, 100, 6, LAGS, scaler)
        assert len(model.calls) == 1

    def test_later_chunks_read_prior_forecasts(self):
        tau = 6
        constants = {}

        def fn(x, call):
            constants[call] = 0.1 * (call + 1)
            return np.full(tau, constants[call])

        frame, scaler, scaled, model = self.setup_rollout(tau=tau, fn=fn)
        forecast_rollout(model, scaled, 100, 18, LAGS, scaler)
        assert len(model.calls) == 3
        for call in (1, 2):
            lag1_row = model.calls[call][-1]  # lags ordered oldest first
            tcol = scaled.target_index
            assert lag1_row[tcol] == constants[call - 1]

    def test_true_future_loads_are_blanked(self):
        tau = 6
        seen = []

        def fn(x, call):
            seen.append(x.copy())
            return np.zeros(tau)

        frame, scaler, scaled, model = self.setup_rollout(tau=tau, fn=fn)
        forecast_rollout(model, scaled, 100, 12, LAGS, scaler)
        # chunk 1 anchors at 106; its 1h lag row sits in forecast territory
        tcol = scaled.target_index
        assert seen[1][-1, tcol] == 0.0
        assert seen[1][-1, tcol] != scaled.values[105, tcol]

    def test_output_in_original_units(self):
        frame, scaler, scaled, model = self.setup_rollout(tau=6)
        out = forecast_rollout(model, scaled, 100, 6, LAGS, scaler)
        stats = scaler.stats["load"]
        np.testing.assert_allclose(out, np.full(6, stats.mean), atol=1e-12)

    def test_matches_forward_for_one_chunk(self):
        frame = small_frame(n=300, seed=4)
        scaler = fit_scaler(frame, (0, 240))
        scaled = apply_scaler(frame, scaler)
        config = ModelConfig(
            method="additive", d=4, heads=2, encoder_layers=1,
            decoder_layers=1, horizon=6,
        )
        model = Model.build(config, frame.specs, RngStream(0).split(0), scaler)
        from loadcast.lags import build_batch

        x = build_batch(scaled, [150], LAGS, 0, scaled.values[:, scaled.target_index])[0][0]
        direct = model.forward(x).values[0]
        stats = scaler.stats["load"]
        rolled = forecast_rollout(model, scaled, 150, 6, LAGS, scaler)
        np.testing.assert_array_equal(rolled, direct * stats.std + stats.mean)

    def test_exogenous_gap_raises_coverage_error(self):
        clean = small_frame(n=300, seed=3)
        mask = np.zeros((300, 3), dtype=bool)
        mask[104, 1] = True  # temperature gap inside the forecast window
        gapped = TimeSeriesFrame(
            clean.timestamps, clean.specs, np.array(clean.values), mask
        )
        scaler = fit_scaler(clean, (0, 300))
        scaled = apply_scaler(gapped, scaler)
        model = StubModel(6, lambda x, c: np.zeros(6))
        with pytest.raises(CoverageError, match="missing exogenous"):
            forecast_rollout(model, scaled, 100, 6, LAGS, scaler)

    def test_window_past_frame_end_raises(self):
        frame, scaler, scaled, model = self.setup_rollout(n=300)
        with pytest.raises(FrameTooShortError):
            forecast_rollout(model, scaled, 296, 6, LAGS, scaler)

    def test_lag_before_frame_start_raises(self):
        frame, scaler, scaled, model = self.setup_rollout()
        with pytest.raises(FrameTooShortError):
            forecast_rollout(model, scaled, 10, 6, LAGS, scaler)


class TestEvaluationAnchors:
    def test_stride_stepping(self):
        frame = small_frame(n=400, seed=5)
        anchors = evaluation_anchors(frame, (100, 300), 6, 6, LAGS, stride=24)
        assert anchors[0] == 100
        assert set(np.diff(anchors)) == {24}
        assert np.all(anchors + 6 <= 299)

    def test_missing_row_never_touched(self):
        values = 100.0 + np.zeros(400)
        frame = target_only_frame(values, missing=row_mask(400, [130]))
        anchors = evaluation_anchors(frame, (100, 300), 6, 6, LAGS, stride=1)
        assert len(anchors)
        for t0 in anchors:
            assert not (124 <= t0 <= 129)  # truth window would cover the gap
            for lag in LAGS.lags:
                assert t0 - lag != 130  # lag reads skip it too


def feasible_by_loop(frame, t0, horizon, tau, lags):
    """Reference feasibility check, one anchor and one chunk at a time."""
    n = frame.n_rows
    if t0 + horizon >= n or t0 - int(lags.max()) < 0:
        return False
    tcol = frame.target_index
    future = np.arange(t0 + 1, t0 + 1 + horizon)
    if frame.missing[future, tcol].any():
        return False
    exo = np.ones(frame.n_features, dtype=bool)
    exo[tcol] = False
    if frame.missing[future][:, exo].any():
        return False
    for c in range(-(-horizon // tau)):
        rows = t0 + c * tau - lags
        if frame.missing[rows[rows <= t0]].any():
            return False
    return True


def scattered_gaps(n=600, seed=11, rate=0.01):
    """small_frame with cells missing at random in every column."""
    clean = small_frame(n=n, seed=seed)
    mask = np.random.default_rng(seed).random((n, 3)) < rate
    return TimeSeriesFrame(clean.timestamps, clean.specs, np.array(clean.values), mask)


class TestFeasibilityScan:
    @pytest.mark.parametrize(
        "rng, horizon, tau, stride, lags",
        [
            ((0, 600), 6, 6, 1, (24, 12, 1)),
            ((30, 580), 42, 6, 1, (24, 12, 1)),
            ((100, 600), 15, 6, 3, (24, 12, 1)),
            ((-5, 400), 24, 24, 1, (168, 24, 2, 1)),
            ((200, 599), 12, 4, 2, (48, 7, 3)),
        ],
    )
    def test_matches_brute_force_scan(self, rng, horizon, tau, stride, lags):
        frame = scattered_gaps()
        assert frame.missing.any(axis=0).all()  # gaps in every column
        lag_set = LagSet(lags)
        expected = [
            t0
            for t0 in range(rng[0], rng[1], stride)
            if t0 + horizon <= rng[1] - 1
            and feasible_by_loop(frame, t0, horizon, tau, np.array(lags))
        ]
        got = evaluation_anchors(frame, rng, horizon, tau, lag_set, stride)
        assert len(expected) > 0
        assert got.tolist() == expected

    def test_per_anchor_horizons_equal_per_horizon_calls(self):
        frame = scattered_gaps()
        anchors = np.arange(-5, 620, 7)  # some before and past the frame
        horizons = np.resize([6, 42, 15, 0, 24], len(anchors))
        got = window_faults(frame, anchors, horizons, LAGS.lags, 6)
        assert got[:, horizons > 0].any(axis=1).all()  # every fault occurs
        for h in np.unique(horizons):
            at = horizons == h
            expected = window_faults(frame, anchors[at], int(h), LAGS.lags, 6)
            np.testing.assert_array_equal(got[:, at], expected)


def build_model(method, frame, scaler, tau=6):
    config = ModelConfig(
        method=method, d=None if method == "svd" else 4,
        heads=1 if method == "svd" else 2,
        encoder_layers=1, decoder_layers=2, horizon=tau,
    )
    return Model.build(config, frame.specs, RngStream(0).split(0), scaler)


class TestBatchedRollout:
    ANCHORS = np.array([150, 163, 171, 200, 230])

    def built(self, method="additive"):
        frame = small_frame(n=300, seed=4)
        scaler = fit_scaler(frame, (0, 240))
        return build_model(method, frame, scaler), apply_scaler(frame, scaler), scaler

    @pytest.mark.parametrize("method", ["additive", "concatenative", "svd"])
    @pytest.mark.parametrize("horizon", [6, 12, 42, 15])
    @pytest.mark.parametrize("masked", [False, True])
    def test_equals_per_anchor_rollouts(self, method, horizon, masked):
        model, scaled, scaler = self.built(method)
        kw = {"mode": forced_keep(model.specs, ("hour",))} if masked else {}
        batch = forecast_rollout_batch(
            model, scaled, self.ANCHORS, horizon, LAGS, scaler, **kw
        )
        single = np.array(
            [
                forecast_rollout(model, scaled, int(t0), horizon, LAGS, scaler, **kw)
                for t0 in self.ANCHORS
            ]
        )
        assert batch.shape == (len(self.ANCHORS), horizon)
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)

    def test_empty_batch(self):
        model, scaled, scaler = self.built()
        out = forecast_rollout_batch(model, scaled, [], 12, LAGS, scaler)
        assert out.shape == (0, 12)

    def gapped(self, row, col):
        clean = small_frame(n=300, seed=4)
        mask = np.zeros((300, 3), dtype=bool)
        mask[row, col] = True
        scaler = fit_scaler(clean, (0, 240))
        frame = TimeSeriesFrame(
            clean.timestamps, clean.specs, np.array(clean.values), mask
        )
        model = build_model("additive", clean, scaler)
        return model, apply_scaler(frame, scaler), scaler

    # LAGS with tau 6 and horizon 18: anchor t reads rows t-24, t-12, t-1
    # in chunk 0, t-18, t-6 in chunk 1 and t-12, t in chunk 2 from history
    @pytest.mark.parametrize(
        "row, col, bad_anchor, message",
        [
            (151, 0, 163, "lag 12 of chunk 0"),
            (152, 2, 164, "lag 12 of chunk 0"),
            (164, 0, 170, "lag 12 of chunk 1"),
            (170, 0, 170, "lag 12 of chunk 2"),
            (165, 1, 163, "inside the forecast window"),
            (165, 2, 163, "inside the forecast window"),
        ],
    )
    def test_gap_raises_like_single_anchor(self, row, col, bad_anchor, message):
        model, scaled, scaler = self.gapped(row, col)
        with pytest.raises(CoverageError, match=message) as single:
            forecast_rollout(model, scaled, bad_anchor, 18, LAGS, scaler)
        with pytest.raises(CoverageError) as batch:
            forecast_rollout_batch(
                model, scaled, [130, bad_anchor, 250], 18, LAGS, scaler
            )
        assert str(batch.value) == str(single.value)

    def test_gap_in_window_of_anchor_before_frame_names_the_gap(self):
        # anchor -5 runs rows -4..13; the first check it fails is the gap at row 2
        model, scaled, scaler = self.gapped(2, 1)
        message = re.escape(f"missing exogenous data at {format_timestamp(scaled.timestamps[2])}")
        with pytest.raises(CoverageError, match=message):
            forecast_rollout(model, scaled, -5, 18, LAGS, scaler)
        with pytest.raises(CoverageError, match=message):
            forecast_rollout_batch(model, scaled, [-5], 18, LAGS, scaler)

    # each gap is inside the long anchor's window or reads, and would be
    # inside the short anchor's at horizon 18 but not at 6: past its window
    # (an exogenous gap) or in its chunk-1 read at lag 24 (a load gap)
    @pytest.mark.parametrize("row, col, short, long", [(160, 1, 150, 145), (164, 0, 182, 170)])
    def test_ragged_gap_counts_only_in_each_anchors_own_window(self, row, col, short, long):
        model, scaled, scaler = self.gapped(row, col)
        with pytest.raises(CoverageError) as single:
            forecast_rollout(model, scaled, long, 18, LAGS, scaler)
        with pytest.raises(CoverageError) as batch:
            forecast_rollout_batch(model, scaled, [short, long], [6, 18], LAGS, scaler)
        assert str(batch.value) == str(single.value)
        out = forecast_rollout_batch(model, scaled, [short, 130], [6, 18], LAGS, scaler)
        assert np.isfinite(out[0, :6]).all() and np.isfinite(out[1]).all()

    def test_future_load_gap_is_not_read(self):
        model, scaled, scaler = self.gapped(175, 0)
        batch = forecast_rollout_batch(model, scaled, [130, 170], 18, LAGS, scaler)
        single = forecast_rollout(model, scaled, 170, 18, LAGS, scaler)
        np.testing.assert_allclose(batch[1], single, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("anchors", [[150, 296, 10], [150, 10, 296]])
    def test_frame_bounds_report_first_failing_anchor(self, anchors):
        model, scaled, scaler = self.built()
        with pytest.raises(FrameTooShortError) as single:
            forecast_rollout(model, scaled, anchors[1], 6, LAGS, scaler)
        with pytest.raises(FrameTooShortError) as batch:
            forecast_rollout_batch(model, scaled, anchors, 6, LAGS, scaler)
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize("method", ["additive", "concatenative", "svd"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_ragged_rows_equal_own_horizon_rollouts(self, method, masked):
        model, scaled, scaler = self.built(method)
        kw = {"mode": forced_keep(model.specs, ("hour",))} if masked else {}
        horizons = np.array([6, 42, 15, 12, 6])
        batch = forecast_rollout_batch(
            model, scaled, self.ANCHORS, horizons, LAGS, scaler, **kw
        )
        assert batch.shape == (len(self.ANCHORS), 42)
        for row, t0, h in zip(batch, self.ANCHORS, horizons):
            single = forecast_rollout(model, scaled, int(t0), int(h), LAGS, scaler, **kw)
            np.testing.assert_allclose(row[:h], single, rtol=1e-12, atol=0)
            chunked = -(-h // 6) * 6  # the hours its chunks cover
            assert np.isfinite(row[:chunked]).all() and np.isnan(row[chunked:]).all()

    def test_ragged_fault_names_the_anchors_own_horizon(self):
        model, scaled, scaler = self.built()
        # 280 + 6 fits the 300-row frame, 280 + 24 does not
        out = forecast_rollout_batch(model, scaled, [150, 280], [42, 6], LAGS, scaler)
        assert out.shape == (2, 42)
        with pytest.raises(FrameTooShortError) as single:
            forecast_rollout(model, scaled, 280, 24, LAGS, scaler)
        with pytest.raises(FrameTooShortError) as batch:
            forecast_rollout_batch(model, scaled, [150, 280], [42, 24], LAGS, scaler)
        assert str(batch.value) == str(single.value)

    def test_ragged_horizon_must_be_positive(self):
        model, scaled, scaler = self.built()
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            forecast_rollout_batch(model, scaled, [150, 160], [6, 0], LAGS, scaler)

    def test_non_finite_forecast_names_anchor_and_hour(self):
        model, scaled, scaler = self.built()
        model.params["head/b"].values[0, -1] = np.nan  # hour 6 of every chunk
        with pytest.raises(DivergenceError) as info:
            forecast_rollout_batch(model, scaled, self.ANCHORS, 12, LAGS, scaler)
        stamp = format_timestamp(scaled.timestamps[self.ANCHORS[0]])
        assert str(info.value) == f"non-finite forecast from anchor {stamp} at hour 6"

    @pytest.mark.parametrize("method", ["additive", "svd"])
    def test_evaluate_rolls_each_anchor_once(self, method):
        frame = frame_with_holiday(600, holiday_rows=range(340, 361))
        scaler = fit_scaler(frame, (0, 600))
        model = CountingModel(build_model(method, frame, scaler))
        report = evaluate(
            model, frame, scaler, (300, 500), horizons=(6, 18),
            lag_set=LAGS, stride=12, noise_seed=2,
        )
        short = evaluation_anchors(frame, (300, 500), 6, 6, LAGS, 12)
        long = evaluation_anchors(frame, (300, 500), 18, 6, LAGS, 12)
        assert set(long) <= set(short) and len(long) < len(short)
        reach = np.where(np.isin(short, long), 18, 6)
        per_chunk = [int((reach > c * 6).sum()) for c in range(3)]
        # chunks 0-2 for the clean frame, then again for the noisy one
        assert model.rows == per_chunk * 2
        assert report.cells[(18, "noisy")]["anchors"] == len(long)

    @pytest.mark.parametrize("subsets", [("full",), ("noisy",), ("holidays",)])
    def test_evaluate_rolls_out_only_the_sources_it_scores(self, subsets):
        frame = frame_with_holiday(600, holiday_rows=range(340, 361))
        scaler = fit_scaler(frame, (0, 600))
        model = CountingModel(build_model("additive", frame, scaler))
        kw = dict(horizons=(6, 18), lag_set=LAGS, stride=12, noise_seed=2)
        report = evaluate(model, frame, scaler, (300, 500), subsets=subsets, **kw)
        assert (len(model.rows), sum(model.rows)) == (3, 49)  # one source
        every = evaluate(model.model, frame, scaler, (300, 500), **kw)
        assert report.cells == {k: v for k, v in every.cells.items() if k[1] in subsets}

    @pytest.mark.parametrize("method", ["additive", "svd"])
    def test_horizon_order_does_not_change_cells(self, method):
        frame = frame_with_holiday(600, holiday_rows=range(340, 361))
        scaler = fit_scaler(frame, (0, 600))
        model = build_model(method, frame, scaler)
        kw = dict(lag_set=LAGS, stride=12, noise_seed=2)
        ascending = evaluate(model, frame, scaler, (300, 500), horizons=(6, 18), **kw)
        descending = evaluate(model, frame, scaler, (300, 500), horizons=(18, 6), **kw)
        assert len(ascending.cells) == 6
        assert descending.cells == ascending.cells

    @pytest.mark.parametrize("method", ["additive", "svd"])
    def test_evaluate_equals_reference_loop(self, method):
        # the holiday ends on anchor 360, whose window it does not touch
        frame = frame_with_holiday(600, holiday_rows=range(340, 361))
        scaler = fit_scaler(frame, (0, 600))
        model = build_model(method, frame, scaler)
        report = evaluate(
            model, frame, scaler, (300, 500), horizons=(6, 18),
            lag_set=LAGS, stride=12, noise_seed=2,
        )
        from loadcast.frames import inject_noise

        sources = {
            "full": apply_scaler(frame, scaler),
            "noisy": apply_scaler(inject_noise(frame, 0.5, 2), scaler),
        }
        load, holiday = frame.column("load"), frame.column("holiday")
        for horizon in (6, 18):
            anchors = evaluation_anchors(frame, (300, 500), horizon, 6, LAGS, 12)
            scores = {}
            for subset, scaled in sources.items():
                scores[subset] = [
                    mape(
                        load[t0 + 1 : t0 + 1 + horizon],
                        forecast_rollout(model, scaled, int(t0), horizon, LAGS, scaler),
                    )
                    for t0 in anchors
                ]
            scores["holidays"] = [
                score
                for t0, score in zip(anchors, scores["full"])
                if (holiday[t0 + 1 : t0 + 1 + horizon] != 0).any()
            ]
            for subset, values in scores.items():
                cell = report.cells[(horizon, subset)]
                assert cell["anchors"] == len(values) > 0
                assert cell["mape"] == pytest.approx(np.mean(values), rel=1e-12)


class TestEvaluate:
    def oracle_model(self, frame, scaler, tau):
        clean = apply_scaler(frame, scaler)
        tcol = clean.target_index
        truth = clean.values[:, tcol].copy()
        lags = np.array(LAGS.lags)
        candidates = np.arange(LAGS.max_lag, len(truth))
        history = truth[candidates[:, None] - lags]

        def fn(x, call):
            # The oracle's forecasts are the truth, so the load column of the
            # lag rows is the truth too, and on these random-load frames it
            # matches exactly one anchor.
            (hit,) = np.flatnonzero((history == x[:, tcol]).all(axis=1))
            anchor = candidates[hit]
            return truth[anchor + 1 : anchor + 1 + tau]

        return StubModel(tau, fn)

    def test_perfect_oracle_scores_zero(self):
        frame = frame_with_holiday(600, holiday_rows=range(340, 364))
        scaler = fit_scaler(frame, (0, 600))
        model = self.oracle_model(frame, scaler, 6)
        report = evaluate(
            model, frame, scaler, (300, 500), horizons=(6, 12),
            lag_set=LAGS, stride=24,
        )
        for (horizon, subset), cell in report.cells.items():
            assert cell["anchors"] > 0, (horizon, subset)
            assert cell["mape"] == pytest.approx(0.0, abs=1e-9)

    def test_holiday_subset_selects_touching_windows(self):
        frame = frame_with_holiday(600, holiday_rows=range(340, 364))
        scaler = fit_scaler(frame, (0, 600))
        model = self.oracle_model(frame, scaler, 6)
        report = evaluate(
            model, frame, scaler, (300, 500), horizons=(6,),
            lag_set=LAGS, stride=24,
        )
        full = report.cells[(6, "full")]
        holidays = report.cells[(6, "holidays")]
        # anchors 300, 324, ... window [t0+1, t0+6]; only 348's window lands
        # inside rows 340..363
        assert holidays["anchors"] == 1
        assert 0 < holidays["anchors"] < full["anchors"]

    def test_absent_holiday_view_gives_empty_cell(self):
        frame = small_frame(n=600, seed=6)
        scaler = fit_scaler(frame, (0, 600))
        model = self.oracle_model(frame, scaler, 6)
        report = evaluate(
            model, frame, scaler, (300, 500), horizons=(6,),
            lag_set=LAGS, stride=24,
        )
        assert report.cells[(6, "holidays")] == {"mape": None, "anchors": 0}

    @pytest.mark.parametrize(
        "rng, horizons, scored",
        [((300, 500), (6, 240), (6,)), ((300, 305), (6, 12), ())],
    )
    def test_horizon_without_anchors_gives_empty_cells(self, rng, horizons, scored):
        frame = frame_with_holiday(600, holiday_rows=range(340, 364))
        scaler = fit_scaler(frame, (0, 600))
        model = self.oracle_model(frame, scaler, 6)
        report = evaluate(
            model, frame, scaler, rng, horizons=horizons, lag_set=LAGS, stride=24
        )
        for horizon in horizons:
            for subset in ("full", "noisy"):
                cell = report.cells[(horizon, subset)]
                if horizon in scored:
                    assert cell["anchors"] > 0
                    assert cell["mape"] == pytest.approx(0.0, abs=1e-9)
                else:
                    assert cell == {"mape": None, "anchors": 0}

    def test_noisy_subset_reuses_full_anchor_set(self):
        frame = frame_with_holiday(600, holiday_rows=range(340, 364))
        scaler = fit_scaler(frame, (0, 600))
        model = self.oracle_model(frame, scaler, 6)
        report = evaluate(
            model, frame, scaler, (300, 500), horizons=(6,),
            lag_set=LAGS, stride=24,
        )
        assert report.cells[(6, "noisy")]["anchors"] == report.cells[(6, "full")]["anchors"]

    def test_noise_perturbs_scores_of_an_input_sensitive_model(self):
        frame = frame_with_holiday(600, holiday_rows=(), seed=7)
        scaler = fit_scaler(frame, (0, 600))

        def fn(x, call):
            # leans on the temperature column, so injected noise shifts it
            return np.full(6, x[-1, 1])

        model = StubModel(6, fn)
        report = evaluate(
            model, frame, scaler, (300, 500), horizons=(6,),
            lag_set=LAGS, stride=24, noise_seed=3,
        )
        assert report.cells[(6, "noisy")]["mape"] != report.cells[(6, "full")]["mape"]

    def test_two_runs_identical(self):
        frame = frame_with_holiday(600, holiday_rows=range(340, 364))
        scaler = fit_scaler(frame, (0, 600))
        model = self.oracle_model(frame, scaler, 6)
        kw = dict(horizons=(6, 12), lag_set=LAGS, stride=24, noise_seed=1)
        a = evaluate(model, frame, scaler, (300, 500), **kw)
        b = evaluate(model, frame, scaler, (300, 500), **kw)
        assert a.cells == b.cells

    def test_unknown_subset_rejected(self):
        frame = small_frame(n=600)
        scaler = fit_scaler(frame, (0, 600))
        model = self.oracle_model(frame, scaler, 6)
        with pytest.raises(ConfigError, match="unknown subsets"):
            evaluate(
                model, frame, scaler, (300, 500), horizons=(6,),
                lag_set=LAGS, subsets=("full", "weekend"),
            )


class TestReportFiles:
    def sample_report(self):
        frame = frame_with_holiday(600, holiday_rows=range(340, 364))
        scaler = fit_scaler(frame, (0, 600))
        model = TestEvaluate().oracle_model(frame, scaler, 6)
        return evaluate(
            model, frame, scaler, (300, 500), horizons=(6, 12),
            lag_set=LAGS, stride=24, fingerprint="abc123",
        )

    def test_csv_byte_stable_with_blank_none(self, tmp_path):
        report = self.sample_report()
        report.cells[(12, "holidays")] = {"mape": None, "anchors": 0}
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(a, report)
        write_report_csv(b, report)
        data = a.read_bytes()
        assert data == b.read_bytes()
        assert b"\r" not in data
        lines = data.decode().splitlines()
        assert lines[0] == "method,horizon,subset,mape,anchors"
        none_rows = [l for l in lines if ",holidays,,0" in l]
        assert len(none_rows) == 1

    def test_json_byte_stable_and_complete(self, tmp_path):
        import json

        report = self.sample_report()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(a, report)
        write_report_json(b, report)
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["fingerprint"] == "abc123"
        assert len(doc["cells"]) == len(report.cells)
