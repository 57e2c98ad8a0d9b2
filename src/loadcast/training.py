"""Losses, optimizer, chronological splits, the training loop, and rolling CV.

Training minimizes relative error on unscaled loads by default (squared
error on scaled loads is available as an alternative), with AdamW under a
cosine-annealed learning rate.  Batches sweep anchors in chronological
order with no shuffling.  Every stochastic choice flows through named
counter-based rng streams, so runs are reproducible bitwise and resumable
from checkpoints.  A run's set-up (scaler, initial model, fingerprint) is
made by :func:`_start` alone, for ``train``, each ``rolling_cv`` fold and
:func:`restore`, so a restored model is built as its run built it.
"""
from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Mat, RngStream
from .errors import DivergenceError, FingerprintError, FrameTooShortError
from .evaluation import (
    MAPE_GUARD, SUBSETS, MetricsReport, check_horizons, check_subsets, check_targets, evaluate,
)
from .frames import Scaler, TimeSeriesFrame, apply_scaler, fit_scaler, read_npz, write_npz
from .lags import LagSet, build_batch, valid_timestamps
from .model import Mode, Model, ModelConfig

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# one nominal month / year, in hours, for window arithmetic
MONTH_HOURS = 720
YEAR_HOURS = 8760

CHECKPOINT_VERSION = 3


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def mape(y, y_hat) -> float:
    """Mean absolute percentage error: (100/N) sum |y - y_hat| / |y|."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise ValueError("mape of empty arrays")
    flat = np.abs(y.reshape(-1))
    bad = np.nonzero(flat <= MAPE_GUARD)[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"target magnitude {flat[i]!r} at index {i} is not above "
            f"{MAPE_GUARD}; relative error undefined"
        )
    return float(100.0 * np.mean(np.abs(y - y_hat) / np.abs(y)))


def mape_loss(pred: Mat, y: np.ndarray) -> Mat:
    """Differentiable counterpart of :func:`mape`; ``y`` is constant.  Its
    targets must be above ``MAPE_GUARD``: ``fit`` clears every anchor's
    targets with ``evaluation.check_targets`` before training."""
    y = np.asarray(y, dtype=np.float64).reshape(pred.shape)
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
    """First and second moments, one entry per parameter scalar in the
    model's ``theta`` order, plus the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    steps: int = 0


def adamw_step(
    theta: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float,
) -> None:
    """One AdamW update of the parameter vector ``theta`` from ``grad``.

    Weight decay is decoupled: the shrink is applied independently of the
    adaptive step, so lr=0 leaves parameters untouched and a zero gradient
    with fresh moments shrinks by exactly (1 - lr*wd).
    """
    state.steps += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.steps
    bias2 = 1.0 - ADAM_BETA2 ** state.steps
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grad * grad
    theta -= lr * weight_decay * theta
    theta -= lr * (state.m / bias1) / (np.sqrt(state.v / bias2) + ADAM_EPS)


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    """A training run's state; every vector is in the model's ``theta``
    order, which ``shapes`` spells out as name and shape per parameter."""

    fingerprint: str
    epoch: int  # completed epochs
    shapes: dict[str, tuple[int, ...]]
    params: np.ndarray
    adam: AdamState
    rng_state: dict
    best_val: float | None
    best_epoch: int | None
    best_params: np.ndarray | None
    history: list[dict]


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` as its metadata plus one float64 vector each for the
    parameters, both Adam moments and, when there are any, the best
    parameters."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": ckpt.fingerprint,
        "epoch": ckpt.epoch,
        "steps": ckpt.adam.steps,
        "rng": ckpt.rng_state,
        "best_val": ckpt.best_val,
        "best_epoch": ckpt.best_epoch,
        "history": ckpt.history,
        "param_names": list(ckpt.shapes),
        "shapes": [list(shape) for shape in ckpt.shapes.values()],
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "params": ckpt.params,
        "m": ckpt.adam.m,
        "v": ckpt.adam.v,
    }
    if ckpt.best_params is not None:
        arrays["best"] = ckpt.best_params
    write_npz(path, arrays)


def load_checkpoint(path, expected_fingerprint: str | None = None) -> Checkpoint:
    """Read a :func:`save_checkpoint` file; one that is torn, foreign, of
    another version or of another configuration raises FingerprintError."""
    try:
        with read_npz(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta.get("version") != CHECKPOINT_VERSION:
                raise FingerprintError(
                    f"checkpoint version {meta.get('version')!r}, "
                    f"expected {CHECKPOINT_VERSION}; train the run again"
                )
            ckpt = Checkpoint(
                fingerprint=meta["fingerprint"],
                epoch=meta["epoch"],
                shapes=dict(zip(meta["param_names"], map(tuple, meta["shapes"]))),
                params=data["params"],
                adam=AdamState(data["m"], data["v"], meta["steps"]),
                rng_state=meta["rng"],
                best_val=meta["best_val"],
                best_epoch=meta["best_epoch"],
                best_params=data["best"] if "best" in data else None,
                history=meta["history"],
            )
    except (zipfile.BadZipFile, EOFError, ValueError, KeyError) as exc:
        raise FingerprintError(
            f"checkpoint {path} cannot be read ({exc}); train the run again"
        ) from exc
    if expected_fingerprint is not None and ckpt.fingerprint != expected_fingerprint:
        raise FingerprintError(
            "checkpoint was produced by a different configuration "
            f"(stored {ckpt.fingerprint[:12]}..., "
            f"current {expected_fingerprint[:12]}...)"
        )
    return ckpt


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: Model  # carries the best-validation parameters
    final_params: np.ndarray  # in the model's theta order
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
) -> tuple[np.ndarray, list[dict], int | None, float | None]:
    """Inner loop over prepared anchors; returns (final parameter vector,
    history, best epoch, best val loss) and leaves the best params on
    ``model``.  A ``resume`` checkpoint, already matched to ``fingerprint``,
    is trained on in place."""
    tc = train_config
    horizon = model.config.horizon
    target = scaled.target_name
    load_mean = scaler.stats[target].mean
    load_std = scaler.stats[target].std
    theta = model.theta
    state = resume  # carried on in place, epoch by epoch, and saved as it stands
    if state is None:  # a fresh run is a checkpoint at epoch 0
        shapes = {name: p.shape for name, p in model.params.items()}
        adam = AdamState(np.zeros_like(theta), np.zeros_like(theta))
        rng = (dropout_rng or RngStream(tc.seed).split(1)).state()
        state = Checkpoint(fingerprint, 0, shapes, theta, adam, rng, None, None, None, [])
    theta[...] = state.params
    state.params = theta
    dropout_rng = RngStream.from_state(state.rng_state)

    if tc.loss == "mape":
        check_targets(scaled, raw_load, anchors, horizon)
        if val_anchors is not None:
            check_targets(scaled, raw_load, val_anchors, horizon)

    batches = [
        anchors[i : i + tc.batch_size]
        for i in range(0, len(anchors), tc.batch_size)
    ]

    for epoch in range(state.epoch, tc.epochs):
        lr = cosine_lr(epoch, tc.lr0, tc.epochs)
        weighted = 0.0
        count = 0
        for b, batch in enumerate(batches):
            arrays = build_batch(scaled, batch, lag_set, horizon, raw_load)
            model.grad.fill(0.0)
            loss = _batch_loss(
                model, arrays, tc.loss, load_mean, load_std, dropout_rng
            )
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch {b}"
                )
            ad.backward(loss)
            adamw_step(theta, model.grad, state.adam, lr, tc.weight_decay)
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
            if not math.isfinite(val_loss):
                raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
            if state.best_val is None or val_loss < state.best_val:
                state.best_val, state.best_epoch, state.best_params = val_loss, epoch, theta.copy()

        state.history.append(
            {"epoch": epoch, "lr": lr, "train_loss": train_loss, "val_loss": val_loss}
        )
        if log is not None:
            tail = "" if val_loss is None else f" val {val_loss:.4f}"
            log(f"epoch {epoch:>4} lr {lr:.6f} train {train_loss:.4f}{tail}")

        state.epoch, state.rng_state = epoch + 1, dropout_rng.state()
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, state)

    final = theta.copy()
    if state.best_params is not None:
        theta[...] = state.best_params
    return final, state.history, state.best_epoch, state.best_val


def _start(
    frame: TimeSeriesFrame,
    model_config: ModelConfig,
    train_config: TrainConfig,
    lag_set: LagSet,
    rows: tuple[int, int],
    stream: tuple[int, ...] | None = (0,),
) -> tuple[Scaler, Model, str]:
    """A run's set-up: the scaler fitted on ``rows``, a fresh model drawn
    from the seed stream at ``stream`` (with ``stream`` None, undrawn, its
    weights zeros), and the run's fingerprint."""
    scaler = fit_scaler(frame, rows)
    rng = None if stream is None else RngStream(train_config.seed, stream)
    model = Model.build(model_config, frame.specs, rng, scaler)
    return scaler, model, config_fingerprint(model_config, train_config, frame.specs, lag_set)


def train(
    frame: TimeSeriesFrame,
    model_config: ModelConfig,
    train_config: TrainConfig,
    lag_set: LagSet,
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
    horizon = model_config.horizon
    scaler, model, fingerprint = _start(frame, model_config, tc, lag_set, split.train)
    scaled = apply_scaler(frame, scaler)
    raw_load = frame.values[:, frame.target_index].copy()

    try:
        anchors = train_anchors(frame, lag_set, horizon, *split.train)
    except FrameTooShortError:  # lags may read the warm-up, as in rolling_cv
        anchors = eval_anchors(frame, lag_set, horizon, *split.train)
    val = eval_anchors(frame, lag_set, horizon, *split.val)
    val = val[:: tc.val_stride]

    resume = None
    if resume_path is not None:
        resume = load_checkpoint(resume_path, fingerprint)

    if log is not None:
        log(
            f"training {model_config.method}: {len(anchors)} anchors, "
            f"{len(val)} validation anchors, {model.n_params()} params"
        )
    final, history, best_epoch, best_val = fit(
        scaled, raw_load, model, anchors, val, tc, lag_set, scaler, fingerprint,
        checkpoint_path, resume, log=log,
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


def restore(
    path,
    frame: TimeSeriesFrame,
    model_config: ModelConfig,
    train_config: TrainConfig,
    lag_set: LagSet,
) -> tuple[Model, Scaler, Split, str]:
    """(model, scaler, split, fingerprint) of the run :func:`train` saved at
    ``path``, set up as ``train`` set it up, with its best parameters (its
    last when it kept none); another configuration raises FingerprintError."""
    split = split_chronological(frame, train_config.split)
    scaler, model, fingerprint = _start(
        frame, model_config, train_config, lag_set, split.train, stream=None
    )
    ckpt = load_checkpoint(path, fingerprint)
    model.theta[...] = ckpt.best_params if ckpt.best_params is not None else ckpt.params
    return model, scaler, split, fingerprint


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
    report: MetricsReport


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
    lag_set: LagSet,
    cv: CvSpec = CvSpec(),
    horizons=None,
    stride: int = 24,
    noise_seed: int = 0,
    log=None,
    subsets=SUBSETS,
) -> CvResult:
    """Train a fresh model per fold and score it on the following month.

    ``horizons`` (default: the model's chunk length) and ``subsets`` are
    scored as :func:`evaluate` scores them, and checked by its rules before
    any fold trains.
    """
    tc = train_config
    horizon = model_config.horizon
    horizons = check_horizons((horizon,) if horizons is None else horizons, horizon)
    subsets = check_subsets(subsets)
    geometry = cv_folds(frame.n_rows, lag_set.max_lag, cv)
    raw_load = frame.values[:, frame.target_index].copy()

    folds = []
    for k, (train_range, test_range) in enumerate(geometry):
        scaler, model, fingerprint = _start(frame, model_config, tc, lag_set, train_range, (2, k))
        scaled = apply_scaler(frame, scaler)
        # targets inside the fold's train window; lags may read the warm-up
        anchors = eval_anchors(frame, lag_set, horizon, *train_range)
        if log is not None:
            log(f"fold {k}: train {train_range}, test {test_range}")
        fit(
            scaled, raw_load, model, anchors, None, tc, lag_set, scaler, fingerprint,
            dropout_rng=RngStream(tc.seed, (3, k)), log=log,
        )
        report = evaluate(
            model, frame, scaler, test_range, lag_set,
            horizons=horizons, stride=stride, noise_seed=noise_seed, subsets=subsets,
        )
        folds.append(Fold(k, train_range, test_range, report))

    aggregate = {}
    for horizon_hours in horizons:
        for subset in subsets:
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
