"""Loss functions, optimizer, splits, the training loop, checkpoints, CV."""
import numpy as np
import pytest

from loadcast import autodiff as ad
from loadcast.autodiff import Mat, RngStream
from loadcast.errors import DivergenceError, FingerprintError, FrameTooShortError
from loadcast.frames import apply_scaler, fit_scaler
from loadcast.lags import LagSet, build_batch, valid_timestamps
from loadcast.model import Model, ModelConfig, forced_keep
from loadcast.synth import synth_generate
from loadcast.training import (
    AdamState,
    CvSpec,
    SplitSpec,
    TrainConfig,
    _batch_loss,
    adamw_step,
    config_fingerprint,
    cosine_lr,
    cv_folds,
    eval_anchors,
    fit,
    load_checkpoint,
    mape,
    mape_loss,
    mse_loss,
    rolling_cv,
    save_checkpoint,
    split_chronological,
    train,
    train_anchors,
)

from conftest import small_frame, target_only_frame

SMALL_SPLIT = SplitSpec(test_hours=60, val_hours=60, max_train_hours=240)
SMALL_LAGS = LagSet((24, 12, 1))


def small_train_config(**overrides):
    defaults = dict(
        epochs=3, batch_size=32, lr0=0.003, seed=0, split=SMALL_SPLIT
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def small_model_config(**overrides):
    defaults = dict(
        method="additive", d=4, heads=2, encoder_layers=1, decoder_layers=1,
        horizon=3,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


class TestMape:
    def test_frozen_pair(self):
        assert mape([100.0, 200.0], [110.0, 180.0]) == 10.0

    def test_perfect_forecast(self):
        assert mape([50.0, 60.0], [50.0, 60.0]) == 0.0

    def test_zero_target_raises_with_index(self):
        with pytest.raises(ValueError, match="index 1"):
            mape([10.0, 0.0], [10.0, 1.0])

    def test_matches_direct_formula(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 30))
            y = rng.uniform(10, 500, n) * rng.choice([-1.0, 1.0], n)
            y_hat = y + rng.normal(0, 20, n)
            direct = 100.0 / n * np.sum(np.abs(y - y_hat) / np.abs(y))
            assert abs(mape(y, y_hat) - direct) < 1e-12


class TestLossGradients:
    def test_mape_loss_value_and_gradient(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            y = rng.uniform(50, 150, n)
            pred = Mat((y + rng.uniform(1, 10, n) * rng.choice([-1, 1], n)).reshape(1, -1))
            loss = mape_loss(pred, y)
            assert loss.item() == pytest.approx(mape(y, pred.values[0]), abs=1e-12)
            worst, _ = ad.finite_diff_check(
                lambda: mape_loss(pred, y), [("pred", pred)]
            )
            assert worst < 1e-8

    def test_mse_loss_gradient(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            y = rng.standard_normal(n)
            pred = Mat(rng.standard_normal((1, n)))
            worst, _ = ad.finite_diff_check(
                lambda: mse_loss(pred, y), [("pred", pred)]
            )
            assert worst < 1e-8


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_lr(0, 0.001, 300) == 0.001
        assert cosine_lr(300, 0.001, 300) == pytest.approx(0.0, abs=1e-18)

    def test_midpoint(self):
        assert cosine_lr(150, 0.001, 300) == pytest.approx(0.0005)

    def test_monotone_decreasing(self):
        values = [cosine_lr(e, 0.001, 50) for e in range(51)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestAdamW:
    def make_param(self, values):
        p = Mat(np.asarray(values, dtype=float))
        return [("p", p)], p

    def test_zero_lr_freezes_parameters(self):
        params, p = self.make_param([[1.0, -2.0]])
        p.grad[...] = 5.0
        state = AdamState.for_params(params)
        adamw_step(params, state, lr=0.0, weight_decay=0.5)
        np.testing.assert_array_equal(p.values, [[1.0, -2.0]])

    def test_decay_is_decoupled_exact_factor(self):
        params, p = self.make_param([[2.0, -4.0]])
        state = AdamState.for_params(params)
        lr, wd = 0.1, 0.01
        for step in range(1, 4):
            adamw_step(params, state, lr=lr, weight_decay=wd)
            expected = np.array([[2.0, -4.0]]) * (1 - lr * wd) ** step
            np.testing.assert_allclose(p.values, expected, rtol=1e-15)

    def test_single_step_descends_quadratic(self):
        params, p = self.make_param([[1.0]])
        p.grad[...] = 1.0  # gradient of theta^2/2 at theta=1
        state = AdamState.for_params(params)
        adamw_step(params, state, lr=0.001, weight_decay=0.0)
        # bias-corrected first step moves by almost exactly lr
        assert p.values[0, 0] == pytest.approx(1.0 - 0.001, abs=1e-6)


class TestSplit:
    def test_six_years(self):
        frame = target_only_frame(np.linspace(50, 150, 6 * 8760))
        split = split_chronological(frame)
        assert split.train == (0, 4 * 8760)
        assert split.val == (4 * 8760, 5 * 8760)
        assert split.test == (5 * 8760, 6 * 8760)

    def test_seven_years_truncates_train(self):
        frame = target_only_frame(np.linspace(50, 150, 7 * 8760))
        split = split_chronological(frame)
        assert split.train == (8760, 5 * 8760)

    def test_two_years_too_short(self):
        frame = target_only_frame(np.linspace(50, 150, 2 * 8760))
        with pytest.raises(FrameTooShortError):
            split_chronological(frame)

    def test_ranges_disjoint_and_ordered(self, rng):
        for _ in range(20):
            n = int(rng.integers(150, 4000))
            spec = SplitSpec(
                test_hours=int(rng.integers(10, 50)),
                val_hours=int(rng.integers(10, 50)),
                max_train_hours=int(rng.integers(50, 400)),
            )
            frame = target_only_frame(np.linspace(50, 150, n))
            if n <= spec.test_hours + spec.val_hours:
                continue
            split = split_chronological(frame, spec)
            assert split.train[1] == split.val[0]
            assert split.val[1] == split.test[0]
            assert split.test[1] == n
            assert split.train[0] <= split.train[1]


class TestAnchors:
    def test_train_anchors_stay_inside_range(self, rng):
        frame = small_frame(n=400, seed=1)
        start, end = 100, 340
        anchors = train_anchors(frame, SMALL_LAGS, 3, start, end)
        assert np.all(anchors - SMALL_LAGS.max_lag >= start)
        assert np.all(anchors + 3 <= end - 1)

    def test_eval_anchors_may_reach_back(self):
        frame = small_frame(n=400, seed=1)
        start, end = 340, 400
        anchors = eval_anchors(frame, SMALL_LAGS, 3, start, end)
        assert np.all(anchors + 1 >= start)
        assert np.all(anchors + 3 <= end - 1)
        assert anchors.min() - SMALL_LAGS.max_lag < start

    def test_no_anchor_leaks(self):
        frame = small_frame(n=400, seed=2)
        anchors = train_anchors(frame, SMALL_LAGS, 3, 50, 300)
        for t in anchors:
            assert t - SMALL_LAGS.max_lag >= 50 and t + 3 < 300


class TestFingerprint:
    def test_stable_and_sensitive(self):
        frame = small_frame(n=60)
        mc, tc = small_model_config(), small_train_config()
        a = config_fingerprint(mc, tc, frame.specs, SMALL_LAGS)
        b = config_fingerprint(mc, tc, frame.specs, SMALL_LAGS)
        assert a == b
        c = config_fingerprint(
            small_model_config(method="svd", d=None, heads=1), tc, frame.specs, SMALL_LAGS
        )
        assert c != a
        d = config_fingerprint(mc, small_train_config(seed=1), frame.specs, SMALL_LAGS)
        assert d != a


class TestBatchedGraph:
    """One graph per batch gives the loss and every parameter gradient of
    separate per-example graphs, with the same dropout masks."""

    def make(self, method, head_reduce="last"):
        frame = small_frame(n=200, seed=9)
        scaler = fit_scaler(frame, (0, 200))
        scaled = apply_scaler(frame, scaler)
        config = small_model_config(
            method=method,
            d=None if method == "svd" else 4,
            heads=1 if method == "svd" else 2,
            decoder_layers=2,
            transformer_dropout=0.3,
            embedding_dropout=0.4,
            head_reduce=head_reduce,
        )
        model = Model.build(config, frame.specs, RngStream(2).split(0), scaler)
        anchors = np.array([40, 41, 77, 120, 150, 151, 190])
        batch = build_batch(scaled, anchors, SMALL_LAGS, 3, frame.column("load"))
        stats = scaler.stats["load"]
        return model, batch, stats.mean, stats.std

    @staticmethod
    def mape_of(pred, batch, mean, std):
        raw = ad.add(ad.scale(pred, std), Mat([[mean]]))
        return mape_loss(raw, batch[2])

    def per_example(self, model, batch, mean, std, mode):
        preds = [model.forward(x, mode) for x in batch[0]]
        return self.mape_of(ad.concat_rows(preds), batch, mean, std)

    @staticmethod
    def loss_and_grads(model, build):
        params = model.parameters()
        ad.zero_grad([p for _, p in params])
        loss = build()
        ad.backward(loss)
        return loss.item(), {name: p.grad.copy() for name, p in params}

    def assert_same(self, model, batched, reference):
        got_loss, got = self.loss_and_grads(model, batched)
        want_loss, want = self.loss_and_grads(model, reference)
        assert got_loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12, err_msg=name)
        return got_loss

    @pytest.mark.parametrize("method", ["additive", "concatenative", "svd"])
    def test_eval_mode(self, method):
        model, batch, mean, std = self.make(method)
        self.assert_same(
            model,
            lambda: _batch_loss(model, batch, "mape", mean, std, None),
            lambda: self.per_example(model, batch, mean, std, None),
        )

    def test_eval_mode_mean_head(self):
        model, batch, mean, std = self.make("additive", head_reduce="mean")
        self.assert_same(
            model,
            lambda: _batch_loss(model, batch, "mape", mean, std, None),
            lambda: self.per_example(model, batch, mean, std, None),
        )

    @pytest.mark.parametrize("method", ["additive", "concatenative", "svd"])
    def test_forced_mode(self, method):
        model, batch, mean, std = self.make(method)
        mode = forced_keep(model.specs, ["hour"])
        self.assert_same(
            model,
            lambda: self.mape_of(model.forward_batch(batch[0], mode), batch, mean, std),
            lambda: self.per_example(model, batch, mean, std, mode),
        )
        assert not model.params["gate/temperature"].grad.any()

    @pytest.mark.parametrize("method", ["additive", "concatenative", "svd"])
    def test_train_mode(self, method):
        model, batch, mean, std = self.make(method)
        batched_rng, reference_rng = RngStream(5, (1,), 3), RngStream(5, (1,), 3)
        loss = self.assert_same(
            model,
            lambda: _batch_loss(model, batch, "mape", mean, std, batched_rng),
            lambda: self.per_example(model, batch, mean, std, reference_rng),
        )
        assert batched_rng.state() == reference_rng.state()
        eval_loss = _batch_loss(model, batch, "mape", mean, std, None).item()
        assert loss != eval_loss  # dropout was live


class TestTrainLoop:
    def test_history_bookkeeping(self):
        frame = small_frame(n=400, seed=3)
        result = train(frame, small_model_config(), small_train_config(), lag_set=SMALL_LAGS)
        assert len(result.history) == 3
        for e, entry in enumerate(result.history):
            assert entry["epoch"] == e
            assert entry["lr"] == cosine_lr(e, 0.003, 3)
            assert entry["val_loss"] is not None
        assert result.best_epoch is not None

    def test_same_seed_bitwise_identical(self):
        frame = small_frame(n=400, seed=4)
        a = train(frame, small_model_config(), small_train_config(), lag_set=SMALL_LAGS)
        b = train(frame, small_model_config(), small_train_config(), lag_set=SMALL_LAGS)
        for name in a.final_params:
            np.testing.assert_array_equal(a.final_params[name], b.final_params[name])
        assert a.history == b.history

    def test_seed_changes_trajectory(self):
        frame = small_frame(n=400, seed=4)
        a = train(frame, small_model_config(), small_train_config(), lag_set=SMALL_LAGS)
        b = train(frame, small_model_config(), small_train_config(seed=7), lag_set=SMALL_LAGS)
        assert a.history != b.history

    def test_loss_decreases_on_realizable_target(self):
        # noiseless periodic load: targets are an exact function of the lags
        t = np.arange(400)
        frame = target_only_frame(100.0 + 20.0 * np.sin(2 * np.pi * t / 24.0))
        scaler = fit_scaler(frame, (0, 400))
        scaled = apply_scaler(frame, scaler)
        config = ModelConfig(
            method="additive", d=2, heads=1, encoder_layers=1, decoder_layers=1,
            horizon=2, transformer_dropout=0.0, embedding_dropout=0.0,
        )
        model = Model.build(config, frame.specs, RngStream(0).split(0), scaler)
        anchors = train_anchors(frame, SMALL_LAGS, 2, 0, 400)
        tc = TrainConfig(epochs=50, batch_size=512, lr0=0.01, loss="mse", seed=0, split=SMALL_SPLIT)
        _, history, _, _ = fit(
            scaled, frame.column("load"), model, anchors, None, tc,
            SMALL_LAGS, scaler, "fp",
        )
        losses = [h["train_loss"] for h in history]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.5 * losses[0]

    def test_divergence_reported_with_location(self):
        frame = small_frame(n=400, seed=5)
        scaler = fit_scaler(frame, (0, 280))
        scaled = apply_scaler(frame, scaler)
        config = small_model_config()
        model = Model.build(config, frame.specs, RngStream(0).split(0), scaler)
        model.params["head/w"].values[0, 0] = np.nan
        anchors = train_anchors(frame, SMALL_LAGS, 3, 0, 280)
        with pytest.raises(DivergenceError, match="epoch 0"):
            fit(
                scaled, frame.column("load"), model, anchors, None,
                small_train_config(), SMALL_LAGS, scaler, "fp",
            )


class TestCheckpoints:
    def test_round_trip_and_resume_bitwise(self, tmp_path):
        frame = small_frame(n=400, seed=6)
        mc, tc = small_model_config(), small_train_config(epochs=4)
        full_ck = tmp_path / "full.npz"
        part_ck = tmp_path / "part.npz"

        reference = train(frame, mc, tc, lag_set=SMALL_LAGS, checkpoint_path=str(full_ck))

        class Kill(Exception):
            pass

        def killer(line):
            if line.startswith("epoch    2"):
                raise Kill

        with pytest.raises(Kill):
            train(frame, mc, tc, lag_set=SMALL_LAGS, checkpoint_path=str(part_ck), log=killer)
        resumed = train(
            frame, mc, tc, lag_set=SMALL_LAGS,
            checkpoint_path=str(part_ck), resume_path=str(part_ck),
        )
        for name in reference.final_params:
            np.testing.assert_array_equal(
                reference.final_params[name], resumed.final_params[name]
            )
        assert reference.history == resumed.history
        assert reference.best_epoch == resumed.best_epoch

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        frame = small_frame(n=400, seed=7)
        ck = tmp_path / "a.npz"
        train(frame, small_model_config(), small_train_config(epochs=1),
              lag_set=SMALL_LAGS, checkpoint_path=str(ck))
        with pytest.raises(FingerprintError):
            load_checkpoint(str(ck), expected_fingerprint="something-else")

    def test_loaded_checkpoint_matches_saved_state(self, tmp_path):
        frame = small_frame(n=400, seed=8)
        ck = tmp_path / "a.npz"
        result = train(frame, small_model_config(), small_train_config(epochs=2),
                       lag_set=SMALL_LAGS, checkpoint_path=str(ck))
        loaded = load_checkpoint(str(ck))
        assert loaded.epoch == 2
        assert loaded.fingerprint == result.fingerprint
        for name in result.final_params:
            np.testing.assert_array_equal(loaded.params[name], result.final_params[name])


class TestCvGeometry:
    def test_twelve_usable_months_make_ten_folds(self):
        warmup = 168
        folds = cv_folds(warmup + 12 * 720, warmup, CvSpec())
        assert len(folds) == 10
        for k, (train_rng, test_rng) in enumerate(folds):
            assert train_rng == (warmup + 720 * k, warmup + 720 * k + 1440)
            assert test_rng[0] == train_rng[1]
            assert test_rng[1] - test_rng[0] == 720

    def test_three_usable_months_make_one_fold(self):
        folds = cv_folds(168 + 3 * 720, 168, CvSpec())
        assert len(folds) == 1

    def test_too_short_raises(self):
        with pytest.raises(FrameTooShortError):
            cv_folds(168 + 2 * 720, 168, CvSpec())

    def test_no_train_test_overlap(self):
        for folds in (cv_folds(10168, 168, CvSpec()),):
            for train_rng, test_rng in folds:
                assert train_rng[1] <= test_rng[0]


class TestRollingCv:
    def test_small_end_to_end(self):
        frame = small_frame(n=24 * 130, seed=9)
        mc = small_model_config(horizon=6)
        tc = small_train_config(epochs=1)
        result = rolling_cv(
            frame, mc, tc, cv=CvSpec(), lag_set=SMALL_LAGS,
            horizons=(6,), stride=48,
        )
        assert len(result.folds) == 2
        agg = result.aggregate[(6, "full")]
        assert agg["folds"] == 2
        fold_values = [f.report.cells[(6, "full")]["mape"] for f in result.folds]
        assert agg["mean"] == pytest.approx(np.mean(fold_values))
        # fresh model per fold: reports differ across folds
        assert fold_values[0] != fold_values[1]

    def test_year_lag_fold_reads_lags_from_the_warm_up(self):
        # an 8760-h lag never fits inside the 1440-h train window, so fold
        # anchors keep their targets there and read their lags before it
        frame = synth_generate(455, 0)
        mc = ModelConfig(
            method="svd", heads=1, encoder_layers=1, decoder_layers=1, horizon=24, ffn_width=4
        )
        tc = small_train_config(epochs=1, batch_size=256)
        result = rolling_cv(frame, mc, tc, lag_set=LagSet((8760, 24, 1)), horizons=(24,))
        assert [(f.train, f.test) for f in result.folds] == [((8760, 10200), (10200, 10920))]
        assert result.folds[0].report.cells[(24, "full")]["anchors"] > 0


class TestAtomicCheckpoint:
    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        frame = small_frame(n=400, seed=9)
        ck = tmp_path / "ck.npz"
        train(frame, small_model_config(), small_train_config(epochs=1),
              lag_set=SMALL_LAGS, checkpoint_path=str(ck))
        before = load_checkpoint(str(ck))
        saved = ck.read_bytes()

        real_savez = np.savez

        def savez_then_fail(file, **arrays):
            # a torn zip, as a kill during the save would leave
            if isinstance(file, str):
                with open(file, "wb") as fh:
                    fh.write(b"PK\x03\x04 partial")
            else:
                file.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(ck), before)
        monkeypatch.setattr(np, "savez", real_savez)

        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz"]
        assert ck.read_bytes() == saved
        after = load_checkpoint(str(ck))
        assert after.epoch == before.epoch
        for name in before.params:
            np.testing.assert_array_equal(after.params[name], before.params[name])

    def test_path_without_suffix_is_kept(self, tmp_path):
        frame = small_frame(n=400, seed=9)
        ck = tmp_path / "resume-point"
        train(frame, small_model_config(), small_train_config(epochs=1),
              lag_set=SMALL_LAGS, checkpoint_path=str(ck))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["resume-point"]
        assert load_checkpoint(str(ck)).epoch == 1
