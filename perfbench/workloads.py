"""The benchmark's workloads: set-up, rounds of timed operations, checks.

A run sets up its inputs several times (the median is ``setup_s``), then
repeats whole rounds of the same operations until the next round would
overrun ``--seconds``.  The timed operations are the calls a user makes:
one ``training.train`` call, and the ``ingest``, ``forecast``,
``evaluate`` and ``explain`` commands run in-process through
``loadcast.cli.main`` on the trained run directory.  After each operation
the benchmark checks its output (see ``checks.py``); a failed check counts
the operation as failed.

Every workload runs every command, because every run reports every
end-to-end metric.  The two training workloads train once per round and
run each command once on the model they just trained; ``serve`` trains
its model during set-up and spends its rounds on the commands, with a long
evaluation and a long explain panel.

The dataset seed is fixed, so training and ``test_mape_pct`` repeat
exactly on every run; ``--seed`` moves the forecast anchors, the
leak-check perturbation and the finite-difference probes.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np
import yaml

from loadcast import autodiff as ad
from loadcast import cli, training
from loadcast.autodiff import Mat
from loadcast.calendars import derive_calendar_views, write_region
from loadcast.evaluation import forecast_rollout
from loadcast.frames import apply_scaler, write_csv
from loadcast.lags import LagSet, lag_set_for_history
from loadcast.model import ModelConfig
from loadcast.synth import synth_generate, synth_region
from loadcast.training import SplitSpec, TrainConfig

import checks
import spans

DATA_SEED = 1
SETUP_REPS = 3
FORECAST_HOURS = 168
STRIDE = 24
GRADIENT_PROBES = 6
# the five default view groups plus the combined panel
EXPLAIN_PANELS = 6
LEAK_FACTOR = 1.25

# the paper's svd model in the acceptance-criterion-7 set-up
SVD_MODEL = ModelConfig(
    method="svd", heads=2, encoder_layers=1, decoder_layers=2, horizon=24,
    transformer_dropout=0.0, embedding_dropout=0.0, bins=32, ffn_width=128,
)
SVD_TRAIN = dict(batch_size=32, lr0=0.003, loss="mse", seed=0, val_stride=24)


@dataclass(frozen=True)
class Workload:
    name: str
    days: int  # of synthetic data from 2018-01-01
    model: ModelConfig
    train: TrainConfig
    max_lag: int | None  # None: the lag set follows the history length
    train_per_round: bool  # False: the model is trained once, in set-up
    horizons: tuple[int, ...]
    subsets: tuple[str, ...]
    explain_hours: int
    forecasts: int  # forecast calls per round on the dataset itself
    layers: tuple[str, ...]  # spans the traced run must see


TRAIN_LAYERS = (
    "autodiff.backward", "model.forward_batch", "model.encode", "model.decode",
    "model.head", "lags.build_batch", "training.adamw_step", "training.save_checkpoint",
)
SERVE_LAYERS = (
    "model.forward", "model.forward_batch", "model.encode", "model.decode", "model.head",
    "evaluation.forecast_rollout", "evaluation.evaluation_anchors", "frames.apply_scaler",
    "frames.inject_noise", "frames.load_csv", "frames.write_csv",
    "calendars.derive_calendar_views", "training.load_checkpoint",
    "explain.isolation_panels", "explain.svd_embeddings",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-svd",
            days=730,
            model=SVD_MODEL,
            train=TrainConfig(epochs=2, split=SplitSpec(720, 720, 4380), **SVD_TRAIN),
            max_lag=168,
            train_per_round=True,
            horizons=(24,),
            subsets=("full",),
            explain_hours=48,
            forecasts=1,
            layers=TRAIN_LAYERS,
        ),
        Workload(
            name="train-additive",
            # a year and a half: room for the 8760-h lag, while the commands'
            # CSV parsing leaves several rounds per run
            days=548,
            model=ModelConfig(),
            # the train window holds the 8760-h lag plus 2160 h of anchors
            train=TrainConfig(epochs=2, split=SplitSpec(720, 720, 8760 + 2160), val_stride=24),
            max_lag=None,
            train_per_round=True,
            horizons=(24,),
            subsets=("full",),
            explain_hours=48,
            forecasts=1,
            layers=TRAIN_LAYERS + ("autodiff.RngStream.draw",),
        ),
        Workload(
            name="serve",
            days=365,
            model=SVD_MODEL,
            train=TrainConfig(epochs=3, split=SplitSpec(2160, 720, 1440), **SVD_TRAIN),
            max_lag=168,
            train_per_round=False,
            horizons=(24, 48, 168),
            subsets=("full", "holidays", "noisy"),
            explain_hours=720,
            forecasts=3,
            layers=SERVE_LAYERS,
        ),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "test_mape_pct": "%",
    "peak_rss_mb": "MB",
    "ingest_cmd_s": "s",
    "forecast_cmd_s": "s",
    "evaluate_cmd_s": "s",
    "explain_cmd_s": "s",
}

# metric -> (unit, span name, quantity); quantities are per round
PER_LAYER = {
    "autodiff.backward.s": ("s", "autodiff.backward", "s"),
    "autodiff.graph_nodes_per_batch": ("count", None, None),
    "autodiff.RngStream.draw.calls": ("count", "autodiff.RngStream.draw", "calls"),
    "autodiff.RngStream.draw.s": ("s", "autodiff.RngStream.draw", "s"),
    "model.forward_batch.self_s": ("s", "model.forward_batch", "self_s"),
    "model.encode.s": ("s", "model.encode", "s"),
    "model.decode.s": ("s", "model.decode", "s"),
    "model.head.s": ("s", "model.head", "s"),
    "lags.build_batch.s": ("s", "lags.build_batch", "s"),
    "training.adamw_step.s": ("s", "training.adamw_step", "s"),
    "training.save_checkpoint.s": ("s", "training.save_checkpoint", "s"),
    "training.save_checkpoint.bytes": ("bytes", None, None),
    "model.forward.calls": ("count", "model.forward", "calls"),
    "evaluation.forecast_rollout.calls": ("count", "evaluation.forecast_rollout", "calls"),
    "evaluation.forecast_rollout.self_s": ("s", "evaluation.forecast_rollout", "self_s"),
    "evaluation.evaluation_anchors.s": ("s", "evaluation.evaluation_anchors", "s"),
    "frames.apply_scaler.s": ("s", "frames.apply_scaler", "s"),
    "frames.inject_noise.s": ("s", "frames.inject_noise", "s"),
    "frames.load_csv.s": ("s", "frames.load_csv", "s"),
    "frames.load_csv.rows_per_s": ("rows/s", None, None),
    "calendars.derive_calendar_views.s": ("s", "calendars.derive_calendar_views", "s"),
    "training.load_checkpoint.s": ("s", "training.load_checkpoint", "s"),
    "frames.write_csv.s": ("s", "frames.write_csv", "s"),
    "explain.isolation_panels.self_s": ("s", "explain.isolation_panels", "self_s"),
    "explain.svd_embeddings.s": ("s", "explain.svd_embeddings", "s"),
    "unclaimed_s": ("s", None, None),
}


def _median(values):
    return statistics.median(values) if values else None


def _cli(*argv: str) -> None:
    """One in-process ``loadcast`` command; its console output is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"loadcast {argv[0]} exited {code}: {err.getvalue().strip()[-400:]}")


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, workload: Workload, seed: int, work_dir: str, tracer: spans.Tracer):
        self.w = workload
        self.seed = seed
        self.work = work_dir
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.run_dir = os.path.join(work_dir, "run")
        self.attempted = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.setup_seconds: list[float] = []
        self.rates: list[float] = []
        self.mapes: list[float] = []
        self.leak_rows = None
        self._refs = None

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------

    def setup(self) -> None:
        for _ in range(SETUP_REPS):
            started = time.perf_counter()
            self._setup_once()
            self.setup_seconds.append(time.perf_counter() - started)

    def _setup_once(self) -> None:
        w = self.w
        raw = synth_generate(w.days, DATA_SEED)
        years = raw.timestamps[[0, -1]].astype("datetime64[Y]").astype(int) + 1970
        region = synth_region(int(years[0]), int(years[1]))
        dataset = os.path.join(self.work, "dataset.csv")
        region_path = os.path.join(self.work, "region.yaml")
        write_csv(raw, dataset)
        write_region(region, region_path)
        frame = derive_calendar_views(raw, region)
        lag_set = LagSet().capped(w.max_lag) if w.max_lag else lag_set_for_history(frame.n_rows)
        split = training.split_chronological(frame, w.train.split)
        n = frame.n_rows
        # the leak-check anchor lies in the test window with room for a forecast
        leak_anchor = random.Random(self.seed).randrange(split.test[0], n - FORECAST_HOURS)
        leak_dataset = os.path.join(self.work, "dataset_leak.csv")
        altered = self._write_altered(dataset, leak_dataset, leak_anchor)

        os.makedirs(self.run_dir, exist_ok=True)
        config = self._write_config("config.yaml", dataset, region_path, region)
        leak_config = self._write_config("config_leak.yaml", leak_dataset, region_path, region)
        n_anchors = len(training.train_anchors(frame, lag_set, w.model.horizon, *split.train))

        self.raw, self.frame, self.lag_set, self.split = raw, frame, lag_set, split
        self.config, self.leak_config = config, leak_config
        self.leak_anchor, self.altered_load = leak_anchor, altered
        self.n_train_anchors = n_anchors
        if not w.train_per_round:
            started = time.perf_counter()
            self.result = self._train()
            seconds = time.perf_counter() - started
            self.rates.append(n_anchors * w.train.epochs / seconds)
            checks.check_loss_falls(self.result.history)

    @staticmethod
    def _write_altered(src: str, dst: str, anchor: int) -> np.ndarray:
        """Copy of the dataset with every load after ``anchor`` scaled up;
        returns the altered load column."""
        with open(src, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        load = []
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            value = float(cells[1])
            if i - 1 > anchor:
                value *= LEAK_FACTOR
                cells[1] = repr(value)
                lines[i] = ",".join(cells)
            load.append(value)
        with open(dst, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return np.array(load)

    def _write_config(self, name: str, dataset: str, region_path: str, region) -> str:
        w = self.w
        doc = {
            "dataset": dataset,
            "region": region_path,
            "holiday_cardinality": region.holiday_cardinality,
            "model": asdict(w.model),
            "train": asdict(w.train),
            "horizons": list(w.horizons),
            "stride": STRIDE,
            "subsets": list(w.subsets),
            "explain_hours": w.explain_hours,
            "max_lag": w.max_lag,
            "out": self.run_dir,
        }
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        return path

    def _train(self):
        return training.train(
            self.frame, self.w.model, self.w.train, lag_set=self.lag_set,
            checkpoint_path=os.path.join(self.run_dir, "checkpoint.npz"),
        )

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        started = time.perf_counter()
        while True:
            began = time.perf_counter()
            self.round()
            self.rounds += 1
            now = time.perf_counter()
            if now - started + (now - began) > seconds:
                break

    def _attempt(self, name: str, step) -> None:
        """Run one operation and its checks; a raise counts it as failed."""
        self.attempted += 1
        try:
            step()
        except Exception as exc:  # one failed operation must not end the run
            self.failures.append(f"round {self.rounds} {name}: {type(exc).__name__}: {exc}")

    def round(self) -> None:
        if self.w.train_per_round:
            self._attempt("train", self._train_step)
        self._attempt("ingest", self._ingest_step)
        anchors = [self.leak_anchor] + [
            self.rng.randrange(self.split.test[0], self.frame.n_rows - FORECAST_HOURS)
            for _ in range(self.w.forecasts - 1)
        ]
        for t0 in anchors:
            self._attempt("forecast", lambda t0=t0: self._forecast_step(t0))
        self._attempt("forecast-leak", self._leak_step)
        self._attempt("evaluate", self._evaluate_step)
        self._attempt("explain", self._explain_step)

    def _train_step(self) -> None:
        self.result, seconds = self.tracer.op("train", self._train)
        self.rates.append(self.n_train_anchors * self.w.train.epochs / seconds)
        self._refs = None
        checks.check_loss_falls(self.result.history)
        self._gradient_check()

    def _ingest_step(self) -> None:
        self.tracer.op("ingest", _cli, "ingest", "--config", self.config)
        raw = self.raw
        checks.check_ingested(
            os.path.join(self.run_dir, "ingested.csv"), raw.timestamps,
            [s.name for s in raw.specs], raw.values,
        )

    def _forecast(self, config: str, t0: int, load: np.ndarray) -> list[str]:
        at = checks.stamp(self.frame.timestamps[t0])
        self.tracer.op(
            "forecast", _cli, "forecast", "--config", config, "--at", at,
            "--horizon", str(FORECAST_HOURS),
        )
        return checks.check_forecast_csv(
            os.path.join(self.run_dir, "forecast.csv"), self.frame.timestamps, load,
            t0, FORECAST_HOURS,
        )

    def _forecast_step(self, t0: int) -> None:
        rows = self._forecast(self.config, t0, self.frame.column("load"))
        if t0 == self.leak_anchor:
            self.leak_rows = rows

    def _leak_step(self) -> None:
        self.leak_rows, original = None, self.leak_rows
        altered = self._forecast(self.leak_config, self.leak_anchor, self.altered_load)
        checks.check_same_forecast(original, altered)

    def _evaluate_step(self) -> None:
        self.tracer.op("evaluate", _cli, "evaluate", "--config", self.config)
        n = self.frame.n_rows
        expected = checks.expected_cells(
            self.frame.timestamps, (self.split.test[0], n), STRIDE, self.w.horizons, self.w.subsets
        )
        mapes = checks.check_report(os.path.join(self.run_dir, "report.json"), expected)
        truth, preds, _ = self._references()
        checks.check_mape(mapes[(24, "full")], truth, preds)
        self.mapes.append(mapes[(24, "full")])

    def _explain_step(self) -> None:
        self.tracer.op("explain", _cli, "explain", "--config", self.config)
        out = os.path.join(self.run_dir, "explain")
        _, _, (stamps, combined) = self._references()
        checks.check_panels(out, stamps, combined, EXPLAIN_PANELS)
        checks.check_svd(os.path.join(out, "svd.json"), self._tables())

    # ------------------------------------------------------------------
    # the benchmark's own reference values
    # ------------------------------------------------------------------

    def _references(self):
        """Day-ahead rollouts at the test anchors, and the explain tiles."""
        if self._refs is None:
            model, scaler, frame = self.result.model, self.result.scaler, self.frame
            scaled = apply_scaler(frame, scaler)
            n, tau = frame.n_rows, model.config.horizon
            load = frame.column("load")

            def rollout(t0, hours):
                return forecast_rollout(model, scaled, t0, hours, self.lag_set, scaler)

            anchors = [t0 for t0 in range(self.split.test[0], n, STRIDE) if t0 + 24 <= n - 1]
            truth = np.array([load[t0 + 1 : t0 + 25] for t0 in anchors])
            preds = np.array([rollout(t0, 24) for t0 in anchors])
            # explain tiles the last explain_hours hours with one chunk each
            hours = self.w.explain_hours
            tiles = range(n - hours - 1, n - tau, tau)
            combined = np.concatenate([rollout(t0, tau) for t0 in tiles])
            stamps = [checks.stamp(t) for t in frame.timestamps[n - hours :]]
            self._refs = truth, preds, (stamps, combined)
        return self._refs

    def _tables(self) -> dict[str, np.ndarray]:
        params, model = self.result.model.params, self.result.model
        tables = {}
        for spec in model.specs:
            if spec.kind == "categorical" or model.config.method == "svd":
                tables[spec.name] = params[f"embed/{spec.name}/table"].values
            else:
                tables[spec.name] = np.vstack(
                    [params[f"embed/{spec.name}/w"].values, params[f"embed/{spec.name}/b"].values]
                )
        return tables

    def _gradient_check(self) -> None:
        """Backward gradients of one eval-mode batch loss against finite
        differences of the same loss, on a few parameter entries."""
        model, scaler, frame = self.result.model, self.result.scaler, self.frame
        w, rng = self.w, np.random.default_rng([self.seed, self.rounds])
        scaled = apply_scaler(frame, scaler)
        h, lags = w.model.horizon, np.array(self.lag_set.lags)
        first = self.split.train[0] + self.lag_set.max_lag
        last = self.split.train[1] - 1 - h
        a0 = int(rng.integers(first, last - w.train.batch_size + 2))
        anchors = np.arange(a0, a0 + w.train.batch_size)
        x = scaled.values[anchors[:, None] - lags]
        steps = anchors[:, None] + 1 + np.arange(h)
        tcol = frame.target_index
        if w.train.loss == "mse":
            y = scaled.values[steps, tcol]

            def loss_mat(pred):
                return training.mse_loss(pred, y)

            def loss_np(pred):
                return float(np.mean((pred - y) ** 2))
        else:
            y = frame.values[steps, tcol]
            st = scaler.stats[frame.target_name]

            def loss_mat(pred):
                raw = ad.add(ad.scale(pred, st.std), Mat([[st.mean]]))
                return training.mape_loss(raw, y)

            def loss_np(pred):
                return float(100.0 * np.mean(np.abs(pred * st.std + st.mean - y) / np.abs(y)))

        params = dict(model.parameters())
        ad.zero_grad(params.values())
        ad.backward(loss_mat(model.forward_batch(x)))
        names = [n for n, p in params.items() if np.any(np.abs(p.grad) > 1e-8)]
        entries = []
        for name in rng.choice(names, size=min(GRADIENT_PROBES, len(names)), replace=False):
            nonzero = np.flatnonzero(np.abs(params[name].grad) > 1e-8)
            entries.append((str(name), int(rng.choice(nonzero))))
        analytic = [float(params[n].grad.flat[i]) for n, i in entries]
        ad.zero_grad(params.values())
        differences = checks.finite_differences(
            lambda: loss_np(model.forward_batch(x).values), params, entries
        )
        checks.check_gradients(entries, analytic, differences)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def samples(self) -> dict[str, list[float]]:
        """Every measured value behind the end-to-end medians."""
        out = {
            "setup_s": self.setup_seconds,
            "train_examples_per_s": self.rates,
            "test_mape_pct": self.mapes,
        }
        for name in ("ingest", "forecast", "evaluate", "explain"):
            out[f"{name}_cmd_s"] = self.tracer.op_seconds(name)
        return out

    def end_to_end(self) -> dict[str, float | None]:
        out = {name: _median(values) for name, values in self.samples().items()}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    def per_layer(self) -> dict[str, float]:
        """Per-round layer figures from the spans; fails when a layer the
        workload exercises never fired."""
        all_spans = self.tracer.spans
        totals = spans.layer_totals(all_spans)
        silent = [name for name in self.w.layers if name not in totals]
        if silent:
            raise RuntimeError(f"layer spans never fired on {self.w.name}: {silent}")
        q = self.tracer.quantities
        rounds = self.rounds
        out = {}
        for metric, (_, span, quantity) in PER_LAYER.items():
            if span is not None:
                out[metric] = totals.get(span, {}).get(quantity, 0) / rounds
        out["autodiff.graph_nodes_per_batch"] = _median(q["autodiff.graph_nodes_per_batch"]) or 0
        out["training.save_checkpoint.bytes"] = _median(q["training.save_checkpoint.bytes"]) or 0
        rows = sum(q["frames.load_csv.rows"])
        load_s = totals.get("frames.load_csv", {}).get("s", 0.0)
        out["frames.load_csv.rows_per_s"] = rows / load_s if load_s else 0
        out["unclaimed_s"] = spans.unclaimed_seconds(all_spans) / rounds
        return out

    def timed_seconds_per_round(self) -> float:
        return sum(
            e - s for n, s, e, _ in self.tracer.spans if n.startswith(spans.OP_PREFIX)
        ) / self.rounds
