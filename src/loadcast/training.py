"""Losses, optimizer, chronological splits, the training loop, and rolling CV.

Training minimizes relative error on unscaled loads by default (squared
error on scaled loads is available as an alternative), with AdamW under a
cosine-annealed learning rate.  Batches sweep anchors in chronological
order with no shuffling.  Every stochastic choice flows through named
counter-based rng streams, so runs are reproducible bitwise and resumable
from checkpoints.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Mat, RngStream
from .errors import DivergenceError, FingerprintError, FrameTooShortError
from .frames import Scaler, TimeSeriesFrame, apply_scaler, fit_scaler
from .lags import LagSet, build_batch, lag_set_for_history, valid_timestamps
from .model import Mode, Model, ModelConfig

MAPE_GUARD = 1e-6
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# one nominal month / year, in hours, for window arithmetic
MONTH_HOURS = 720
YEAR_HOURS = 8760

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _guard_targets(y: np.ndarray) -> None:
    flat = np.abs(y.reshape(-1))
    bad = np.nonzero(flat <= MAPE_GUARD)[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"target magnitude {flat[i]!r} at index {i} is not above "
            f"{MAPE_GUARD}; relative error undefined"
        )


def mape(y, y_hat) -> float:
    """Mean absolute percentage error: (100/N) sum |y - y_hat| / |y|."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise ValueError("mape of empty arrays")
    _guard_targets(y)
    return float(100.0 * np.mean(np.abs(y - y_hat) / np.abs(y)))


def mape_loss(pred: Mat, y: np.ndarray) -> Mat:
    """Differentiable counterpart of :func:`mape`; ``y`` is constant."""
    y = np.asarray(y, dtype=np.float64).reshape(pred.shape)
    _guard_targets(y)
    rel = ad.mul(ad.absolute(ad.sub(pred, Mat(y))), Mat(1.0 / np.abs(y)))
    return ad.scale(ad.mean(rel), 100.0)


def mse_loss(pred: Mat, y: np.ndarray) -> Mat:
    y = np.asarray(y, dtype=np.float64).reshape(pred.shape)
    diff = ad.sub(pred, Mat(y))
    return ad.mean(ad.mul(diff, diff))


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moments per parameter plus the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    steps: int = 0

    @classmethod
    def for_params(cls, params: list[tuple[str, Mat]]) -> "AdamState":
        state = cls()
        for name, p in params:
            state.m[name] = np.zeros_like(p.values)
            state.v[name] = np.zeros_like(p.values)
        return state


def adamw_step(
    params: list[tuple[str, Mat]],
    state: AdamState,
    lr: float,
    weight_decay: float,
) -> None:
    """One AdamW update from the gradients currently held on the params.

    Weight decay is decoupled: the shrink is applied independently of the
    adaptive step, so lr=0 leaves parameters untouched and a zero gradient
    with fresh moments shrinks by exactly (1 - lr*wd).
    """
    state.steps += 1
    t = state.steps
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params:
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.values -= lr * weight_decay * p.values
        p.values -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def cosine_lr(epoch: int, lr0: float, epochs: int) -> float:
    """Cosine annealing from lr0 at epoch 0 down to 0 at ``epochs``."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    return lr0 * (1.0 + math.cos(math.pi * epoch / epochs)) / 2.0


# ---------------------------------------------------------------------------
# chronological splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Hold-out geometry in hours, newest data reserved for test."""

    test_hours: int = YEAR_HOURS
    val_hours: int = YEAR_HOURS
    max_train_hours: int = 4 * YEAR_HOURS

    def __post_init__(self):
        if min(self.test_hours, self.val_hours, self.max_train_hours) < 1:
            raise ValueError("all split windows must be at least one hour")


@dataclass(frozen=True)
class Split:
    """Half-open row-index ranges: train before validation before test."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]


def split_chronological(frame: TimeSeriesFrame, spec: SplitSpec = SplitSpec()) -> Split:
    n = frame.n_rows
    held = spec.test_hours + spec.val_hours
    if n <= held:
        raise FrameTooShortError(
            f"need more than {held} hours for the requested validation and "
            f"test windows, got {n}"
        )
    test_start = n - spec.test_hours
    val_start = test_start - spec.val_hours
    train_start = max(0, val_start - spec.max_train_hours)
    return Split(
        train=(train_start, val_start),
        val=(val_start, test_start),
        test=(test_start, n),
    )


def train_anchors(
    frame: TimeSeriesFrame, lag_set: LagSet, horizon: int, start: int, end: int
) -> np.ndarray:
    """Anchors whose lag window AND target window lie inside [start, end)."""
    anchors = valid_timestamps(frame, lag_set, horizon)
    keep = (anchors - lag_set.max_lag >= start) & (anchors + horizon <= end - 1)
    anchors = anchors[keep]
    if anchors.size == 0:
        raise FrameTooShortError(
            f"range [{start}, {end}) leaves no anchors with max lag "
            f"{lag_set.max_lag} and horizon {horizon}"
        )
    return anchors


def eval_anchors(
    frame: TimeSeriesFrame, lag_set: LagSet, horizon: int, start: int, end: int
) -> np.ndarray:
    """Anchors whose target window lies inside [start, end); lags may reach
    back into earlier history, which is ordinary forecasting."""
    anchors = valid_timestamps(frame, lag_set, horizon)
    keep = (anchors + 1 >= start) & (anchors + horizon <= end - 1)
    anchors = anchors[keep]
    if anchors.size == 0:
        raise FrameTooShortError(
            f"range [{start}, {end}) contains no usable evaluation anchors"
        )
    return anchors


# ---------------------------------------------------------------------------
# configuration and fingerprints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 30
    lr0: float = 0.001
    weight_decay: float = 0.0001
    loss: str = "mape"  # or "mse" on scaled targets
    seed: int = 0
    split: SplitSpec = SplitSpec()
    val_stride: int = 1  # subsample validation anchors for speed

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loss not in ("mape", "mse"):
            raise ValueError(f"loss must be 'mape' or 'mse', got {self.loss!r}")
        if self.val_stride < 1:
            raise ValueError("val_stride must be >= 1")


def config_fingerprint(
    model_config: ModelConfig,
    train_config: TrainConfig,
    specs,
    lag_set: LagSet,
) -> str:
    """Stable digest of everything that shapes a training run."""
    payload = {
        "model": asdict(model_config),
        "train": asdict(train_config),
        "specs": [
            [s.name, s.kind, s.role, s.cardinality, s.units] for s in specs
        ],
        "lags": list(lag_set.lags),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    fingerprint: str
    epoch: int  # completed epochs
    params: dict[str, np.ndarray]
    adam: AdamState
    rng_state: dict
    best_val: float | None
    best_epoch: int | None
    best_params: dict[str, np.ndarray] | None
    history: list[dict]


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    names = list(ckpt.params)
    meta = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": ckpt.fingerprint,
        "epoch": ckpt.epoch,
        "steps": ckpt.adam.steps,
        "rng": ckpt.rng_state,
        "best_val": ckpt.best_val,
        "best_epoch": ckpt.best_epoch,
        "has_best": ckpt.best_params is not None,
        "history": ckpt.history,
        "param_names": names,
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for i, name in enumerate(names):
        arrays[f"p{i}"] = ckpt.params[name]
        arrays[f"m{i}"] = ckpt.adam.m[name]
        arrays[f"v{i}"] = ckpt.adam.v[name]
        if ckpt.best_params is not None:
            arrays[f"b{i}"] = ckpt.best_params[name]
    # Write a sibling file and rename it into place, so that an interrupted
    # save leaves the previous checkpoint whole.  Through a file handle,
    # np.savez adds no ".npz" suffix to the temporary name.
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, expected_fingerprint: str | None = None) -> Checkpoint:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise FingerprintError(
                f"checkpoint version {meta.get('version')!r}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        if (
            expected_fingerprint is not None
            and meta["fingerprint"] != expected_fingerprint
        ):
            raise FingerprintError(
                "checkpoint was produced by a different configuration "
                f"(stored {meta['fingerprint'][:12]}..., "
                f"current {expected_fingerprint[:12]}...)"
            )
        names = meta["param_names"]
        params = {}
        adam = AdamState(steps=meta["steps"])
        best = {} if meta["has_best"] else None
        for i, name in enumerate(names):
            params[name] = data[f"p{i}"].copy()
            adam.m[name] = data[f"m{i}"].copy()
            adam.v[name] = data[f"v{i}"].copy()
            if best is not None:
                best[name] = data[f"b{i}"].copy()
    return Checkpoint(
        fingerprint=meta["fingerprint"],
        epoch=meta["epoch"],
        params=params,
        adam=adam,
        rng_state=meta["rng"],
        best_val=meta["best_val"],
        best_epoch=meta["best_epoch"],
        best_params=best,
        history=meta["history"],
    )


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: Model  # carries the best-validation parameters
    final_params: dict[str, np.ndarray]
    history: list[dict]
    scaler: Scaler
    lag_set: LagSet
    split: Split
    best_epoch: int | None
    best_val: float | None
    fingerprint: str


def _batch_loss(
    model: Model,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    loss_kind: str,
    load_mean: float,
    load_std: float,
    mode: Mode,
) -> Mat:
    """Loss over a :func:`build_batch` batch from one batched forward (a
    single graph); ``mode`` as in :meth:`Model.forward_batch`."""
    inputs, targets_scaled, targets_raw = batch
    pred = model.forward_batch(inputs, mode)
    if loss_kind == "mape":
        raw = ad.add(ad.scale(pred, load_std), Mat([[load_mean]]))
        return mape_loss(raw, targets_raw)
    return mse_loss(pred, targets_scaled)


def fit(
    scaled: TimeSeriesFrame,
    raw_load: np.ndarray,
    model: Model,
    anchors: np.ndarray,
    val_anchors: np.ndarray | None,
    train_config: TrainConfig,
    lag_set: LagSet,
    scaler: Scaler,
    fingerprint: str,
    checkpoint_path=None,
    resume: Checkpoint | None = None,
    dropout_rng: RngStream | None = None,
    log=None,
) -> tuple[dict[str, np.ndarray], list[dict], int | None, float | None]:
    """Inner loop over prepared anchors; returns (final params, history,
    best epoch, best val loss) and leaves the best params on ``model``."""
    tc = train_config
    horizon = model.config.horizon
    target = scaled.target_name
    load_mean = scaler.stats[target].mean
    load_std = scaler.stats[target].std
    params = model.parameters()

    if resume is not None:
        if resume.fingerprint != fingerprint:
            raise FingerprintError(
                "resume checkpoint was produced by a different configuration"
            )
        for name, p in params:
            p.values[...] = resume.params[name]
        adam = resume.adam
        dropout_rng = RngStream.from_state(resume.rng_state)
        start_epoch = resume.epoch
        history = list(resume.history)
        best_val = resume.best_val
        best_epoch = resume.best_epoch
        best_params = resume.best_params
    else:
        adam = AdamState.for_params(params)
        if dropout_rng is None:
            dropout_rng = RngStream(tc.seed).split(1)
        start_epoch = 0
        history = []
        best_val = None
        best_epoch = None
        best_params = None

    batches = [
        anchors[i : i + tc.batch_size]
        for i in range(0, len(anchors), tc.batch_size)
    ]

    for epoch in range(start_epoch, tc.epochs):
        lr = cosine_lr(epoch, tc.lr0, tc.epochs)
        weighted = 0.0
        count = 0
        for b, batch in enumerate(batches):
            arrays = build_batch(scaled, batch, lag_set, horizon, raw_load)
            ad.zero_grad([p for _, p in params])
            loss = _batch_loss(
                model, arrays, tc.loss, load_mean, load_std, dropout_rng
            )
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch {b}"
                )
            ad.backward(loss)
            adamw_step(params, adam, lr, tc.weight_decay)
            weighted += value * len(batch)
            count += len(batch)
        train_loss = weighted / count

        val_loss = None
        if val_anchors is not None and len(val_anchors):
            total = 0.0
            seen = 0
            for i in range(0, len(val_anchors), tc.batch_size):
                batch = val_anchors[i : i + tc.batch_size]
                arrays = build_batch(scaled, batch, lag_set, horizon, raw_load)
                loss = _batch_loss(model, arrays, tc.loss, load_mean, load_std, None)
                total += loss.item() * len(batch)
                seen += len(batch)
            val_loss = total / seen
            if best_val is None or val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_params = {n: p.values.copy() for n, p in params}

        history.append(
            {"epoch": epoch, "lr": lr, "train_loss": train_loss, "val_loss": val_loss}
        )
        if log is not None:
            tail = "" if val_loss is None else f" val {val_loss:.4f}"
            log(f"epoch {epoch:>4} lr {lr:.6f} train {train_loss:.4f}{tail}")

        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path,
                Checkpoint(
                    fingerprint=fingerprint,
                    epoch=epoch + 1,
                    params={n: p.values.copy() for n, p in params},
                    adam=adam,
                    rng_state=dropout_rng.state(),
                    best_val=best_val,
                    best_epoch=best_epoch,
                    best_params=best_params,
                    history=history,
                ),
            )

    final = {n: p.values.copy() for n, p in params}
    if best_params is not None:
        for name, p in params:
            p.values[...] = best_params[name]
    return final, history, best_epoch, best_val


def train(
    frame: TimeSeriesFrame,
    model_config: ModelConfig,
    train_config: TrainConfig,
    lag_set: LagSet | None = None,
    checkpoint_path=None,
    resume_path=None,
    log=None,
) -> TrainResult:
    """Split, scale, build, and fit a model on ``frame``.

    ``frame`` must already carry every view (calendar columns included).
    The returned model holds the best-validation parameters; the final
    parameters ride along for resumption and inspection.
    """
    tc = train_config
    split = split_chronological(frame, tc.split)
    if lag_set is None:
        lag_set = lag_set_for_history(frame.n_rows)
    horizon = model_config.horizon

    scaler = fit_scaler(frame, split.train)
    scaled = apply_scaler(frame, scaler)
    raw_load = frame.values[:, frame.target_index].copy()

    anchors = train_anchors(frame, lag_set, horizon, *split.train)
    val = eval_anchors(frame, lag_set, horizon, *split.val)
    val = val[:: tc.val_stride]

    fingerprint = config_fingerprint(model_config, tc, frame.specs, lag_set)
    model = Model.build(
        model_config, frame.specs, RngStream(tc.seed).split(0), scaler
    )
    resume = None
    if resume_path is not None:
        resume = load_checkpoint(resume_path, fingerprint)

    if log is not None:
        log(
            f"training {model_config.method}: {len(anchors)} anchors, "
            f"{len(val)} validation anchors, {model.n_params()} params"
        )
    final, history, best_epoch, best_val = fit(
        scaled,
        raw_load,
        model,
        anchors,
        val,
        tc,
        lag_set,
        scaler,
        fingerprint,
        checkpoint_path,
        resume,
        log=log,
    )
    return TrainResult(
        model=model,
        final_params=final,
        history=history,
        scaler=scaler,
        lag_set=lag_set,
        split=split,
        best_epoch=best_epoch,
        best_val=best_val,
        fingerprint=fingerprint,
    )


# ---------------------------------------------------------------------------
# rolling-window cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CvSpec:
    """Rolling-origin folds: short train window, test on the next month."""

    train_hours: int = 2 * MONTH_HOURS
    test_hours: int = MONTH_HOURS
    step_hours: int = MONTH_HOURS

    def __post_init__(self):
        if min(self.train_hours, self.test_hours, self.step_hours) < 1:
            raise ValueError("all fold windows must be at least one hour")


@dataclass
class Fold:
    index: int
    train: tuple[int, int]
    test: tuple[int, int]
    report: "object"  # MetricsReport; kept loose to avoid an import cycle


@dataclass
class CvResult:
    folds: list[Fold]
    # (horizon, subset) -> {"mean": .., "std": .., "folds": contributing count}
    aggregate: dict


def cv_folds(
    n_rows: int, warmup: int, spec: CvSpec = CvSpec()
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Fold geometry only: list of (train range, test range), half-open."""
    folds = []
    k = 0
    while True:
        train_start = warmup + k * spec.step_hours
        train_end = train_start + spec.train_hours
        test_end = train_end + spec.test_hours
        if test_end > n_rows:
            break
        folds.append(((train_start, train_end), (train_end, test_end)))
        k += 1
    if not folds:
        raise FrameTooShortError(
            f"history of {n_rows} hours after warm-up {warmup} yields 0 folds "
            f"(need {warmup + spec.train_hours + spec.test_hours})"
        )
    return folds


def rolling_cv(
    frame: TimeSeriesFrame,
    model_config: ModelConfig,
    train_config: TrainConfig,
    cv: CvSpec = CvSpec(),
    lag_set: LagSet | None = None,
    horizons=None,
    stride: int = 24,
    noise_seed: int = 0,
    log=None,
) -> CvResult:
    """Train a fresh model per fold and score it on the following month."""
    from .evaluation import evaluate  # circular at module level

    tc = train_config
    if lag_set is None:
        lag_set = lag_set_for_history(frame.n_rows)
    horizon = model_config.horizon
    if horizons is None:
        horizons = [horizon]
    geometry = cv_folds(frame.n_rows, lag_set.max_lag, cv)
    raw_load = frame.values[:, frame.target_index].copy()

    folds = []
    for k, (train_range, test_range) in enumerate(geometry):
        scaler = fit_scaler(frame, train_range)
        scaled = apply_scaler(frame, scaler)
        # targets inside the fold's train window; lags may read the warm-up
        anchors = eval_anchors(frame, lag_set, horizon, *train_range)
        fingerprint = config_fingerprint(model_config, tc, frame.specs, lag_set)
        model = Model.build(
            model_config, frame.specs, RngStream(tc.seed, (2, k)), scaler
        )
        if log is not None:
            log(f"fold {k}: train {train_range}, test {test_range}")
        fit(
            scaled,
            raw_load,
            model,
            anchors,
            None,
            tc,
            lag_set,
            scaler,
            fingerprint,
            dropout_rng=RngStream(tc.seed, (3, k)),
            log=log,
        )
        report = evaluate(
            model,
            frame,
            scaler,
            test_range,
            horizons=horizons,
            lag_set=lag_set,
            stride=stride,
            noise_seed=noise_seed,
        )
        folds.append(Fold(k, train_range, test_range, report))

    aggregate = {}
    for horizon_hours in horizons:
        for subset in ("full", "holidays", "noisy"):
            values = []
            for fold in folds:
                cell = fold.report.cells.get((horizon_hours, subset))
                if cell is not None and cell["mape"] is not None:
                    values.append(cell["mape"])
            if values:
                arr = np.array(values)
                aggregate[(horizon_hours, subset)] = {
                    "mean": float(arr.mean()),
                    "std": float(arr.std()),
                    "folds": len(values),
                }
    return CvResult(folds=folds, aggregate=aggregate)
