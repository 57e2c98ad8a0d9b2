"""Go/no-go gate: twelve pipeline-wide checks, one verdict line each.

Run with -s to see the verdict lines as they complete; the slowest check
trains a real model on two years of synthetic data and is budgeted at ten
minutes of wall clock.
"""
import time

import numpy as np
import pytest

from loadcast import autodiff as ad
from loadcast.autodiff import Mat, RngStream
from loadcast.calendars import calendar_specs, derive_calendar_views
from loadcast.cli import EXIT_OK, main
from loadcast.errors import FrameTooShortError
from loadcast.evaluation import (
    evaluate,
    evaluation_anchors,
    forecast_rollout,
    seasonal_naive,
)
from loadcast.frames import (
    CALENDAR,
    CATEGORICAL,
    CONTINUOUS,
    EXOGENOUS,
    TARGET,
    FeatureSpec,
    TimeSeriesFrame,
    apply_scaler,
    fit_scaler,
    inject_noise,
    standard_schema,
)
from loadcast.lags import LagSet, build_batch, valid_timestamps
from loadcast.model import (
    Model,
    ModelConfig,
    ModelTrace,
    attention,
    forced_keep,
    param_count,
)
from loadcast.synth import synth_generate, synth_region
from loadcast.training import (
    CvSpec,
    SplitSpec,
    TrainConfig,
    _batch_loss,
    cv_folds,
    mape,
    train,
)

from conftest import hourly_timestamps


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


SPECS6 = (
    FeatureSpec("load", CONTINUOUS, TARGET),
    FeatureSpec("temperature", CONTINUOUS, EXOGENOUS),
    FeatureSpec("humidity", CONTINUOUS, EXOGENOUS),
    FeatureSpec("hour", CATEGORICAL, CALENDAR, cardinality=24),
    FeatureSpec("weekday", CATEGORICAL, CALENDAR, cardinality=7),
    FeatureSpec("holiday", CATEGORICAL, CALENDAR, cardinality=3),
)


def six_view_frame(n=300, seed=0):
    rng = np.random.default_rng(seed)
    values = np.column_stack(
        [
            100.0 + 10.0 * rng.standard_normal(n),
            5.0 * rng.standard_normal(n),
            50.0 + 8.0 * rng.standard_normal(n),
            np.arange(n) % 24,
            (np.arange(n) // 24) % 7,
            np.arange(n) % 3,
        ]
    ).astype(float)
    return TimeSeriesFrame(
        hourly_timestamps(n), SPECS6, values, np.zeros((n, 6), dtype=bool)
    )


def six_view_model(**overrides):
    frame = six_view_frame()
    scaler = fit_scaler(frame, (0, frame.n_rows))
    defaults = dict(
        method="additive", d=4, heads=2, encoder_layers=1, decoder_layers=2,
        horizon=4,
    )
    defaults.update(overrides)
    config = ModelConfig(**defaults)
    model = Model.build(config, frame.specs, RngStream(0).split(0), scaler)
    return model, frame, scaler


class TestAcceptance:
    def test_criterion_01_full_model_gradients(self):
        started = time.monotonic()
        model, frame, scaler = six_view_model()
        scaled = apply_scaler(frame, scaler)
        raw = frame.column("load")
        lag_set = LagSet((24, 12, 3, 1))
        examples = build_batch(scaled, np.array([50, 120]), lag_set, 4, raw)
        stats = scaler.stats["load"]

        def loss():
            return _batch_loss(
                model, examples, "mape", stats.mean, stats.std, None
            )

        worst, name = ad.finite_diff_check(loss, model.parameters(), eps=1e-4)
        elapsed = time.monotonic() - started
        _verdict(
            1,
            bool(worst < 1e-4 and elapsed < 30.0),
            f"all {model.n_params()} parameters: max rel err {worst:.3e} "
            f"(worst {name}) in {elapsed:.1f}s",
        )

    def test_criterion_02_attention_rows(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        identity_ok = True
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            width = int(rng.integers(1, 6))
            dv = int(rng.integers(1, 6))
            q = Mat(rng.standard_normal((n, width)))
            k = Mat(rng.standard_normal((m, width)))
            v = Mat(rng.standard_normal((m, dv)))
            trace = ModelTrace()
            out = attention(q, k, v, trace)
            weights = trace.attention[-1]
            worst = max(worst, float(np.abs(weights.sum(axis=1) - 1.0).max()))
            if n == 1 and m == 1 and not np.array_equal(out.values, v.values):
                identity_ok = False
        _verdict(
            2,
            bool(worst <= 1e-12 and identity_ok),
            f"1000 calls: worst row-sum error {worst:.2e}, "
            f"single-position output equals V: {identity_ok}",
        )

    def test_criterion_03_anchor_enumeration(self):
        rng = np.random.default_rng(3)
        mismatches = 0
        frames = 0
        while frames < 200:
            k = int(rng.integers(1, 6))
            lags = tuple(
                sorted(set(int(x) for x in rng.integers(1, 169, k)), reverse=True)
            )
            horizon = int(rng.integers(0, 7))
            n = int(rng.integers(lags[0] + horizon + 2, 10001))
            missing = rng.random((n, 1)) < 0.01
            values = 100.0 + rng.standard_normal((n, 1))
            frame = TimeSeriesFrame(
                hourly_timestamps(n),
                (FeatureSpec("load", CONTINUOUS, TARGET),),
                values,
                missing,
            )
            frames += 1
            miss = frame.missing[:, 0]
            expected = [
                t
                for t in range(lags[0], n - horizon)
                if not any(miss[t - lag] for lag in lags)
                and not any(miss[t + s] for s in range(1, horizon + 1))
            ]
            lag_set = LagSet(lags)
            try:
                got = list(valid_timestamps(frame, lag_set, horizon))
            except FrameTooShortError:
                got = []
            if got != expected:
                mismatches += 1
        _verdict(
            3, mismatches == 0, f"200 random frames, {mismatches} mismatches"
        )

    def test_criterion_04_mape_identity(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            y = rng.uniform(5, 500, n) * rng.choice([-1.0, 1.0], n)
            y_hat = y + rng.normal(0, 30, n)
            direct = 100.0 / n * float(np.sum(np.abs(y - y_hat) / np.abs(y)))
            worst = max(worst, abs(mape(y, y_hat) - direct))
        guard_ok = False
        try:
            mape([1.0, 0.0], [1.0, 1.0])
        except ValueError:
            guard_ok = True
        _verdict(
            4,
            bool(worst <= 1e-12 and guard_ok),
            f"1000 pairs: worst deviation {worst:.2e}, zero-target raises: {guard_ok}",
        )

    def test_criterion_05_ablation_equivalences(self):
        model, frame, scaler = six_view_model()
        scaled = apply_scaler(frame, scaler)
        lag_set = LagSet((24, 12, 3, 1))
        x = build_batch(scaled, np.array([60]), lag_set, 4, frame.column("load"))[0][0]

        ablated = model.forward(x, forced_keep(model.specs, ())).values
        zeroed, _, _ = six_view_model()
        for spec in zeroed.specs:
            if spec.role != TARGET:
                zeroed.params[f"gate/{spec.name}"].values[...] = 0.0
        hand = zeroed.forward(x).values
        ablation_ok = np.array_equal(ablated, hand)

        ad.zero_grad([p for _, p in model.parameters()])
        pred = model.forward(x, forced_keep(model.specs, ("temperature",)))
        ad.backward(ad.mean(ad.mul(pred, pred)))
        masked_ok = True
        for name in ("humidity", "hour", "weekday", "holiday"):
            for suffix in ("table", "w", "b"):
                key = f"embed/{name}/{suffix}"
                if key in model.params and model.params[key].grad.any():
                    masked_ok = False
            if model.params[f"gate/{name}"].grad.any():
                masked_ok = False
        kept_ok = bool(model.params["embed/temperature/w"].grad.any())

        nodrop, nd_frame, _ = six_view_model(
            transformer_dropout=0.0, embedding_dropout=0.0
        )
        train_out = nodrop.forward(x, RngStream(5))
        eval_out = nodrop.forward(x)
        zero_p_ok = np.array_equal(train_out.values, eval_out.values)

        _verdict(
            5,
            bool(ablation_ok and masked_ok and kept_ok and zero_p_ok),
            f"full ablation == zeroed gates: {ablation_ok}, masked grads zero: "
            f"{masked_ok}, kept grads live: {kept_ok}, p=0 training pass "
            f"bitwise equals eval: {zero_p_ok}",
        )

    def test_criterion_06_parameter_budgets(self):
        specs = tuple(standard_schema(16)) + tuple(calendar_specs(16))
        svd = param_count(ModelConfig(method="svd"), specs)["total"]
        add = param_count(ModelConfig(method="additive", d=32), specs)["total"]
        cat = param_count(ModelConfig(method="concatenative", d=32), specs)["total"]
        ok = svd < add < cat and svd < 0.35 * cat
        _verdict(
            6,
            bool(ok),
            f"svd {svd} < additive {add} < concatenative {cat}, "
            f"ratio {svd / cat:.4f} < 0.35",
        )

    def test_criterion_07_beats_baseline_on_synthetic(self):
        started = time.monotonic()
        frame = synth_generate(730, 1)
        first = int(str(frame.timestamps[0].astype("datetime64[Y]")))
        last = int(str(frame.timestamps[-1].astype("datetime64[Y]")))
        frame = derive_calendar_views(frame, synth_region(first, last))
        lag_set = LagSet().capped(168)
        config = ModelConfig(
            method="svd", heads=2, encoder_layers=1, decoder_layers=2,
            horizon=24, transformer_dropout=0.0, embedding_dropout=0.0,
            bins=32, ffn_width=128,
        )
        tc = TrainConfig(
            epochs=45,
            batch_size=32,
            lr0=0.003,
            loss="mse",
            seed=0,
            split=SplitSpec(test_hours=720, val_hours=720, max_train_hours=4380),
            val_stride=24,
        )
        result = train(frame, config, tc, lag_set=lag_set)
        report = evaluate(
            result.model, frame, result.scaler, result.split.test,
            horizons=(24,), lag_set=lag_set, stride=24, subsets=("full",),
        )
        model_mape = report.cells[(24, "full")]["mape"]
        anchors = evaluation_anchors(frame, result.split.test, 24, 24, lag_set, 24)
        raw = frame.column("load")
        naive = float(
            np.mean(
                [
                    mape(raw[t + 1 : t + 25], seasonal_naive(frame, t, 24))
                    for t in anchors
                ]
            )
        )
        elapsed = time.monotonic() - started
        _verdict(
            7,
            bool(model_mape < 5.0 and model_mape < naive and elapsed < 600.0),
            f"test-month mape {model_mape:.3f}% vs naive {naive:.3f}% over "
            f"{len(anchors)} anchors, {tc.epochs} epochs in {elapsed:.0f}s",
        )

    def test_criterion_08_rollout_feeds_itself(self):
        from types import SimpleNamespace

        rng = np.random.default_rng(8)
        n = 600
        specs = (FeatureSpec("load", CONTINUOUS, TARGET),)
        values = (100.0 + rng.standard_normal((n, 1))).astype(float)
        frame = TimeSeriesFrame(
            hourly_timestamps(n), specs, values, np.zeros((n, 1), dtype=bool)
        )
        scaler = fit_scaler(frame, (0, n))
        scaled = apply_scaler(frame, scaler)
        lag_set = LagSet((24, 12, 1))

        calls = []

        class Stub:
            config = SimpleNamespace(horizon=24, method="stub")

            def forward(self, x, directive=None):
                calls.append(x)
                return Mat(np.full((1, 24), 0.25 * (len(calls))))

        forecast_rollout(Stub(), scaled, 300, 168, lag_set, scaler)
        count_ok = len(calls) == 7
        feed_ok = all(
            calls[c][-1, 0] == 0.25 * c  # 1h lag row, written by chunk c-1
            for c in range(1, 7)
        )
        _verdict(
            8,
            bool(count_ok and feed_ok),
            f"168h rollout with 24h chunks: {len(calls)} forward calls, "
            f"later chunks read prior forecasts: {feed_ok}",
        )

    def test_criterion_09_noise_injection(self):
        rng = np.random.default_rng(9)
        n = 10000
        specs = (
            FeatureSpec("load", CONTINUOUS, TARGET),
            FeatureSpec("temperature", CONTINUOUS, EXOGENOUS),
            FeatureSpec("humidity", CONTINUOUS, EXOGENOUS),
            FeatureSpec("hour", CATEGORICAL, CALENDAR, cardinality=24),
        )
        values = np.column_stack(
            [
                100.0 + 10.0 * rng.standard_normal(n),
                12.0 * rng.standard_normal(n),
                50.0 + 9.0 * rng.standard_normal(n),
                np.arange(n) % 24,
            ]
        ).astype(float)
        frame = TimeSeriesFrame(
            hourly_timestamps(n), specs, values, np.zeros((n, 4), dtype=bool)
        )
        noisy = inject_noise(frame, 0.5, seed=0)

        changed = 0
        pool_ok = True
        for j in (1, 2):
            col = frame.values[:, j]
            pool = {col.min(), col.mean(), col.max()}
            replaced = noisy.values[:, j] != col
            changed += int(replaced.sum())
            if not all(v in pool for v in noisy.values[replaced, j]):
                pool_ok = False
        fraction = changed / (2 * n)
        untouched = np.array_equal(
            noisy.values[:, [0, 3]], frame.values[:, [0, 3]]
        )
        _verdict(
            9,
            bool(0.48 <= fraction <= 0.52 and pool_ok and untouched),
            f"replaced fraction {fraction:.4f}, replacements from min/mean/max: "
            f"{pool_ok}, target and calendar untouched: {untouched}",
        )

    def test_criterion_10_fold_geometry(self):
        warmup = 168
        folds = cv_folds(warmup + 12 * 720, warmup, CvSpec())
        count_ok = len(folds) == 10
        contiguous = all(test[0] == train[1] for train, test in folds)
        disjoint = all(train[1] <= test[0] for train, test in folds)
        _verdict(
            10,
            bool(count_ok and contiguous and disjoint),
            f"{len(folds)} folds from 12 usable months, test starts at train "
            f"end: {contiguous}, no overlap: {disjoint}",
        )

    def test_criterion_11_bitwise_repeatability(self, tmp_path):
        outputs = []
        for run in ("one", "two"):
            root = tmp_path / run
            data = root / "data"
            assert main(
                ["synth", "--days", "30", "--seed", "5", "--out", str(data)]
            ) == EXIT_OK
            config = root / "config.yaml"
            config.write_text(
                f"""\
dataset: {data / 'dataset.csv'}
region: {data / 'region.yaml'}
holiday_cardinality: 5
max_lag: 24
model: {{method: svd, heads: 2, encoder_layers: 1, decoder_layers: 1, horizon: 6}}
train:
  epochs: 5
  batch_size: 64
  lr0: 0.003
  split: {{test_hours: 96, val_hours: 96, max_train_hours: 360}}
  val_stride: 6
horizons: [6]
stride: 24
out: {root / 'run'}
"""
            )
            assert main(["train", "--config", str(config)]) == EXIT_OK
            assert main(["evaluate", "--config", str(config)]) == EXIT_OK
            outputs.append(
                {
                    name: (root / "run" / name).read_bytes()
                    for name in ("history.csv", "report.csv", "report.json")
                }
            )
        same = {name: outputs[0][name] == outputs[1][name] for name in outputs[0]}
        _verdict(
            11,
            all(same.values()),
            "independent reruns byte-identical: "
            + ", ".join(f"{k} {v}" for k, v in sorted(same.items())),
        )

    def test_criterion_12_svd_reconstruction(self):
        rng = np.random.default_rng(12)
        worst_recon = 0.0
        worst_sigma = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(1, 21))
            a = rng.standard_normal((m, n)) * float(rng.uniform(0.1, 10))
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            norm = float(np.linalg.norm(a))
            recon = float(np.linalg.norm(u @ np.diag(s) @ vt - a))
            worst_recon = max(worst_recon, recon / max(norm, 1e-300))
            k = min(m, n)
            gram = a.T @ a if n <= m else a @ a.T
            sigma = np.sqrt(np.clip(np.sort(np.linalg.eigvalsh(gram))[::-1], 0, None))
            worst_sigma = max(worst_sigma, float(np.abs(s[:k] - sigma[:k]).max()))
        _verdict(
            12,
            bool(worst_recon <= 1e-9 and worst_sigma <= 1e-8),
            f"100 matrices: worst relative reconstruction {worst_recon:.2e}, "
            f"worst singular-value deviation from Gram eigenvalues {worst_sigma:.2e}",
        )
