"""Batch command-line surface for the forecasting pipeline.

One declarative config file drives every stage; command-line flags override
a handful of fields for sweeps.  All outputs are plain UTF-8 files with LF
line endings, written without wall-clock content so reruns under the same
config and seeds are byte-identical.

Exit codes: 0 success, 1 unexpected failure, 2 usage or bad configuration,
3 missing input file, 4 checkpoint/config fingerprint mismatch, 5 bad or
insufficient data.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .autodiff import RngStream
from .calendars import (
    calendar_specs,
    derive_calendar_views,
    load_region,
    write_region,
)
from .errors import (
    ConfigError,
    CoverageError,
    DegenerateFeatureError,
    DivergenceError,
    FingerprintError,
    FrameTooShortError,
    IntegrityError,
    ParseError,
    SchemaError,
)
from .evaluation import (
    evaluate,
    forecast_rollout,
    write_report_csv,
    write_report_json,
)
from .explain import (
    ViewGroup,
    default_groups,
    dump_embeddings,
    isolation_panels,
    svd_embeddings,
    validate_groups,
    write_embeddings,
    write_panels,
    write_svd,
)
from .frames import (
    HOUR,
    apply_scaler,
    fit_scaler,
    format_cells,
    format_timestamp,
    format_timestamps,
    inject_noise,
    load_csv,
    parse_timestamp,
    standard_schema,
    write_csv,
)
from .lags import LagSet, lag_set_for_history
from .model import Model, ModelConfig, param_count
from .synth import synth_generate, synth_region
from .training import (
    CvSpec,
    SplitSpec,
    TrainConfig,
    config_fingerprint,
    load_checkpoint,
    rolling_cv,
    split_chronological,
    train,
)

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_FINGERPRINT = 4
EXIT_DATA = 5

_DATA_ERRORS = (
    ParseError,
    SchemaError,
    IntegrityError,
    CoverageError,
    FrameTooShortError,
    DegenerateFeatureError,
    DivergenceError,
)


@dataclass
class RunConfig:
    """Everything a run needs, loadable from one config file."""

    dataset: str | None = None
    region: str | None = None
    holiday_cardinality: int = 16
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    cv: CvSpec = field(default_factory=CvSpec)
    horizons: tuple[int, ...] = (24, 48, 168)
    stride: int = 24
    noise_seed: int = 0
    subsets: tuple[str, ...] = ("full", "holidays", "noisy")
    explain_hours: int = 336
    explain_groups: dict | None = None
    max_lag: int | None = None
    out: str = "run"


def _build_section(cls, section: dict, name: str):
    try:
        return cls(**section)
    except TypeError as exc:
        raise ConfigError(f"bad {name} section: {exc}") from None


def load_run_config(path) -> RunConfig:
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a mapping at top level")

    known = {f for f in RunConfig.__dataclass_fields__}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    model = _build_section(ModelConfig, doc.get("model") or {}, "model")
    train_doc = dict(doc.get("train") or {})
    if "split" in train_doc:
        train_doc["split"] = _build_section(
            SplitSpec, train_doc["split"] or {}, "train.split"
        )
    train_cfg = _build_section(TrainConfig, train_doc, "train")
    cv_cfg = _build_section(CvSpec, doc.get("cv") or {}, "cv")

    cfg = RunConfig(model=model, train=train_cfg, cv=cv_cfg)
    for key in (
        "dataset",
        "region",
        "holiday_cardinality",
        "stride",
        "noise_seed",
        "explain_hours",
        "explain_groups",
        "max_lag",
        "out",
    ):
        if key in doc and doc[key] is not None:
            setattr(cfg, key, doc[key])
    if "horizons" in doc and doc["horizons"] is not None:
        cfg.horizons = tuple(int(h) for h in doc["horizons"])
    if "subsets" in doc and doc["subsets"] is not None:
        cfg.subsets = tuple(doc["subsets"])
    return cfg


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg.train = replace(cfg.train, seed=args.seed)
    if getattr(args, "method", None) is not None:
        d = None if args.method == "svd" else cfg.model.d
        cfg.model = replace(cfg.model, method=args.method, d=d)
    if getattr(args, "horizon", None) is not None:
        cfg.horizons = (args.horizon,)
    if getattr(args, "max_lag", None) is not None:
        cfg.max_lag = args.max_lag
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    return cfg


def _require_file(path, what: str) -> str:
    if path is None:
        raise ConfigError(f"config is missing the {what} path")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _load_frame(cfg: RunConfig):
    """Dataset plus derived calendar views, ready for the model."""
    dataset = _require_file(cfg.dataset, "dataset")
    region_path = _require_file(cfg.region, "region")
    schema = standard_schema(cfg.holiday_cardinality)
    frame = load_csv(dataset, schema)
    region = load_region(region_path)
    if region.holiday_cardinality > cfg.holiday_cardinality:
        raise SchemaError(
            f"region table has {region.holiday_cardinality} holiday ids, "
            f"schema allows {cfg.holiday_cardinality}"
        )
    return derive_calendar_views(frame, region), region


def _lag_set(cfg: RunConfig, n_rows: int) -> LagSet:
    if cfg.max_lag is not None:
        return LagSet().capped(cfg.max_lag)
    return lag_set_for_history(n_rows)


def _restore_model(cfg: RunConfig, frame, lag_set: LagSet):
    """Rebuild the trained model from the run directory's checkpoint."""
    path = os.path.join(cfg.out, "checkpoint.npz")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no checkpoint at {path}; run train first")
    split = split_chronological(frame, cfg.train.split)
    scaler = fit_scaler(frame, split.train)
    fingerprint = config_fingerprint(cfg.model, cfg.train, frame.specs, lag_set)
    ckpt = load_checkpoint(path, fingerprint)
    model = Model.build(
        cfg.model, frame.specs, RngStream(cfg.train.seed).split(0), scaler
    )
    source = ckpt.best_params if ckpt.best_params is not None else ckpt.params
    for name, p in model.parameters():
        p.values[...] = source[name]
    return model, scaler, split, fingerprint


def _write_history_csv(path, history) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "lr", "train_loss", "val_loss"])
        for entry in history:
            writer.writerow(
                [
                    entry["epoch"],
                    repr(entry["lr"]),
                    repr(entry["train_loss"]),
                    "" if entry["val_loss"] is None else repr(entry["val_loss"]),
                ]
            )


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    frame = synth_generate(args.days, args.seed)
    first = int(str(frame.timestamps[0].astype("datetime64[Y]")))
    last = int(str(frame.timestamps[-1].astype("datetime64[Y]")))
    dataset = os.path.join(out, "dataset.csv")
    region_path = os.path.join(out, "region.yaml")
    write_csv(frame, dataset)
    write_region(synth_region(first, last), region_path)
    print(f"wrote {dataset} ({frame.n_rows} rows) and {region_path}")
    return EXIT_OK


def cmd_ingest(cfg: RunConfig, args) -> int:
    frame, _ = _load_frame(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "ingested.csv")
    write_csv(frame, path)
    print(
        f"{frame.n_rows} rows, {frame.n_features} views, "
        f"{format_timestamp(frame.timestamps[0])} to "
        f"{format_timestamp(frame.timestamps[-1])} -> {path}"
    )
    return EXIT_OK


def cmd_train(cfg: RunConfig, args) -> int:
    frame, _ = _load_frame(cfg)
    lag_set = _lag_set(cfg, frame.n_rows)
    os.makedirs(cfg.out, exist_ok=True)
    checkpoint = os.path.join(cfg.out, "checkpoint.npz")
    resume = checkpoint if (args.resume and os.path.exists(checkpoint)) else None
    result = train(
        frame,
        cfg.model,
        cfg.train,
        lag_set=lag_set,
        checkpoint_path=checkpoint,
        resume_path=resume,
        log=_log,
    )
    _write_history_csv(os.path.join(cfg.out, "history.csv"), result.history)
    best = "" if result.best_val is None else f", best val {result.best_val:.4f}"
    print(f"trained {len(result.history)} epochs{best} -> {checkpoint}")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, args) -> int:
    frame, _ = _load_frame(cfg)
    lag_set = _lag_set(cfg, frame.n_rows)
    model, scaler, split, fingerprint = _restore_model(cfg, frame, lag_set)
    report = evaluate(
        model,
        frame,
        scaler,
        split.test,
        horizons=cfg.horizons,
        lag_set=lag_set,
        stride=cfg.stride,
        noise_seed=cfg.noise_seed,
        subsets=cfg.subsets,
        fingerprint=fingerprint,
    )
    write_report_csv(os.path.join(cfg.out, "report.csv"), report)
    write_report_json(os.path.join(cfg.out, "report.json"), report)
    for (horizon, subset), cell in sorted(report.cells.items()):
        value = "absent" if cell["mape"] is None else f"{cell['mape']:.4f}"
        _log(f"horizon {horizon:>4} {subset:<9} mape {value} ({cell['anchors']} anchors)")
    print(f"report -> {os.path.join(cfg.out, 'report.csv')}")
    return EXIT_OK


def cmd_forecast(cfg: RunConfig, args) -> int:
    frame, _ = _load_frame(cfg)
    lag_set = _lag_set(cfg, frame.n_rows)
    model, scaler, _, _ = _restore_model(cfg, frame, lag_set)
    horizon = args.horizon or cfg.horizons[0]
    if args.at is not None:
        ts = parse_timestamp(args.at)
        t0 = int((ts - frame.timestamps[0]) / HOUR)
        if not 0 <= t0 < frame.n_rows:
            raise ConfigError(f"anchor {args.at} outside the dataset range")
    else:
        t0 = frame.n_rows - 1 - horizon
    scaled = apply_scaler(frame, scaler)
    preds = forecast_rollout(model, scaled, t0, horizon, lag_set, scaler)
    rows = slice(t0 + 1, t0 + 1 + horizon)
    truth = format_cells(frame.column(frame.target_name)[rows])
    path = os.path.join(cfg.out, "forecast.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "forecast", "truth"])
        writer.writerows(
            zip(format_timestamps(frame.timestamps[rows]), map(repr, preds.tolist()), truth)
        )
    print(f"{horizon}h forecast from {format_timestamp(frame.timestamps[t0])} -> {path}")
    return EXIT_OK


def cmd_explain(cfg: RunConfig, args) -> int:
    frame, _ = _load_frame(cfg)
    lag_set = _lag_set(cfg, frame.n_rows)
    model, scaler, split, _ = _restore_model(cfg, frame, lag_set)
    if cfg.explain_groups:
        groups = tuple(
            ViewGroup(name, tuple(members))
            for name, members in cfg.explain_groups.items()
        )
    else:
        groups = default_groups(frame.specs)
    validate_groups(groups, frame.specs)
    test_start, test_end = split.test
    start = max(test_start, test_end - cfg.explain_hours - 1)
    out = os.path.join(cfg.out, "explain")
    os.makedirs(out, exist_ok=True)
    panels = isolation_panels(
        model, frame, scaler, groups, (start, test_end), cfg.model.horizon, lag_set
    )
    write_panels(out, panels)
    write_embeddings(out, dump_embeddings(model))
    write_svd(out, svd_embeddings(model))
    print(f"explain artifacts -> {out}")
    return EXIT_OK


def cmd_perturb(cfg: RunConfig | None, args) -> int:
    dataset = args.data or (cfg.dataset if cfg else None)
    dataset = _require_file(dataset, "dataset")
    cardinality = cfg.holiday_cardinality if cfg else 16
    frame = load_csv(dataset, standard_schema(cardinality))
    noisy = inject_noise(frame, args.probability, args.seed)
    write_csv(noisy, args.out_file)
    print(f"perturbed copy -> {args.out_file}")
    return EXIT_OK


def cmd_cv(cfg: RunConfig, args) -> int:
    frame, _ = _load_frame(cfg)
    lag_set = _lag_set(cfg, frame.n_rows)
    horizons = [h for h in cfg.horizons if h % cfg.model.horizon == 0]
    if not horizons:
        horizons = [cfg.model.horizon]
    result = rolling_cv(
        frame,
        cfg.model,
        cfg.train,
        cv=cfg.cv,
        lag_set=lag_set,
        horizons=horizons,
        stride=cfg.stride,
        noise_seed=cfg.noise_seed,
        log=_log,
    )
    os.makedirs(cfg.out, exist_ok=True)
    folds_path = os.path.join(cfg.out, "cv_folds.csv")
    with open(folds_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["fold", "train_start", "train_end", "test_start", "test_end",
             "horizon", "subset", "mape", "anchors"]
        )
        for fold in result.folds:
            for (horizon, subset) in sorted(fold.report.cells):
                cell = fold.report.cells[(horizon, subset)]
                writer.writerow(
                    [
                        fold.index,
                        fold.train[0],
                        fold.train[1],
                        fold.test[0],
                        fold.test[1],
                        horizon,
                        subset,
                        "" if cell["mape"] is None else repr(cell["mape"]),
                        cell["anchors"],
                    ]
                )
    agg_path = os.path.join(cfg.out, "cv_aggregate.csv")
    with open(agg_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["horizon", "subset", "mean_mape", "std_mape", "folds"])
        for (horizon, subset) in sorted(result.aggregate):
            agg = result.aggregate[(horizon, subset)]
            writer.writerow(
                [horizon, subset, repr(agg["mean"]), repr(agg["std"]), agg["folds"]]
            )
    print(f"{len(result.folds)} folds -> {folds_path}")
    return EXIT_OK


def cmd_params(cfg: RunConfig | None, args) -> int:
    base = cfg.model if cfg else ModelConfig()
    cardinality = cfg.holiday_cardinality if cfg else 16
    specs = tuple(standard_schema(cardinality) + calendar_specs(cardinality))
    methods = (
        ("svd", "additive", "concatenative")
        if args.method in (None, "all")
        else (args.method,)
    )
    for method in methods:
        d = None if method == "svd" else base.d
        counts = param_count(replace(base, method=method, d=d), specs)
        detail = ", ".join(
            f"{key} {counts[key]}"
            for key in ("embeddings", "gates", "encoder", "decoder", "head")
        )
        print(f"{method}: total {counts['total']} ({detail})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadcast",
        description="Multi-view short-term load forecasting pipeline.",
        epilog=(
            "exit codes: 0 ok, 1 unexpected, 2 usage/config, "
            "3 missing file, 4 fingerprint mismatch, 5 bad data"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, config_required: bool):
        p.add_argument(
            "--config", required=config_required, help="run config file (YAML)"
        )
        p.add_argument("--seed", type=int, help="override train.seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument(
            "--method",
            choices=("additive", "concatenative", "svd"),
            help="override model.method",
        )
        p.add_argument(
            "--horizon", type=int, help="override evaluation horizons to this one"
        )
        p.add_argument(
            "--max-lag", type=int, dest="max_lag",
            help="cap the lag set (short-history mode)",
        )

    p = sub.add_parser("synth", help="generate a synthetic dataset + region table")
    p.add_argument("--days", type=int, default=90)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (default: current)")

    for name, required in (
        ("ingest", True),
        ("train", True),
        ("evaluate", True),
        ("forecast", True),
        ("explain", True),
        ("cv", True),
    ):
        p = sub.add_parser(name, help=f"{name} per the config file")
        common(p, required)
        if name == "train":
            p.add_argument(
                "--resume", action="store_true",
                help="continue from the run directory's checkpoint",
            )
        if name == "forecast":
            p.add_argument("--at", help="anchor timestamp (default: latest possible)")

    p = sub.add_parser("perturb", help="write a noise-injected copy of a dataset")
    p.add_argument("--config", help="optional run config for schema defaults")
    p.add_argument("--data", help="dataset CSV (default: config dataset)")
    p.add_argument("--out-file", required=True, dest="out_file")
    p.add_argument("--probability", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("params", help="print parameter counts per method")
    p.add_argument("--config", help="optional run config")
    p.add_argument(
        "--method",
        choices=("additive", "concatenative", "svd", "all"),
        default="all",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "synth":
            return cmd_synth(args)
        cfg = None
        if getattr(args, "config", None) is not None:
            cfg = load_run_config(args.config)
            cfg = _apply_overrides(cfg, args)
        if args.command == "perturb":
            return cmd_perturb(cfg, args)
        if args.command == "params":
            return cmd_params(cfg, args)
        if cfg is None:
            raise ConfigError(f"{args.command} requires --config")
        handler = {
            "ingest": cmd_ingest,
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "forecast": cmd_forecast,
            "explain": cmd_explain,
            "cv": cmd_cv,
        }[args.command]
        return handler(cfg, args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except FingerprintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - last resort
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERIC


if __name__ == "__main__":
    sys.exit(main())
