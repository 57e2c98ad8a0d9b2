"""Hourly multi-feature time series: loading, validation, scaling, noise.

A frame is an immutable table on a continuous hourly UTC grid.  Gaps are
explicit rows with the missing mask set; missing cells store NaN.  All range
arguments in this package are half-open ``[start, end)`` in whole hours.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateFeatureError,
    IntegrityError,
    ParseError,
    SchemaError,
)

HOUR = np.timedelta64(1, "h")

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
TARGET = "target"
EXOGENOUS = "exogenous"
CALENDAR = "calendar"


# ---------------------------------------------------------------------------
# timestamps
# ---------------------------------------------------------------------------

def parse_timestamp(text: str) -> np.datetime64:
    """Parse an ISO-8601 timestamp with explicit offset to a UTC hour."""
    raw = text.strip()
    iso = raw.replace("Z", "+00:00") if raw.endswith("Z") else raw
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError as exc:
        raise ParseError(f"malformed timestamp {text!r}: {exc}") from None
    if dt.tzinfo is None:
        raise ParseError(f"timestamp {text!r} lacks a UTC offset")
    dt = dt.astimezone(timezone.utc)
    if dt.minute or dt.second or dt.microsecond:
        raise ParseError(f"timestamp {text!r} is not on an exact hour boundary")
    return np.datetime64(dt.replace(tzinfo=None), "h")


def format_timestamp(t: np.datetime64) -> str:
    return f"{np.datetime_as_string(np.datetime64(t, 's'))}Z"


def hours_between(later: np.datetime64, earlier: np.datetime64) -> int:
    return int((np.datetime64(later, "h") - np.datetime64(earlier, "h")) // HOUR)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str  # continuous | categorical
    role: str  # target | exogenous | calendar
    cardinality: int | None = None
    units: str = ""

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise SchemaError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.role not in (TARGET, EXOGENOUS, CALENDAR):
            raise SchemaError(f"unknown feature role {self.role!r} for {self.name!r}")
        if self.kind == CATEGORICAL:
            if not self.cardinality or self.cardinality < 1:
                raise SchemaError(
                    f"categorical feature {self.name!r} needs a positive cardinality"
                )
        elif self.cardinality is not None:
            raise SchemaError(
                f"continuous feature {self.name!r} must not declare a cardinality"
            )
        if self.role == TARGET and self.kind != CONTINUOUS:
            raise SchemaError("the target feature must be continuous")


def standard_schema(holiday_cardinality: int = 16) -> list[FeatureSpec]:
    """The canonical CSV schema: load plus weather and calendar indicators."""
    return [
        FeatureSpec("load", CONTINUOUS, TARGET, units="MW"),
        FeatureSpec("temperature", CONTINUOUS, EXOGENOUS, units="degC"),
        FeatureSpec("dewpoint", CONTINUOUS, EXOGENOUS, units="degC"),
        FeatureSpec("wind_speed", CONTINUOUS, EXOGENOUS, units="km/h"),
        FeatureSpec("humidity", CONTINUOUS, EXOGENOUS, units="%"),
        FeatureSpec("rainfall", CONTINUOUS, EXOGENOUS, units="mm"),
        FeatureSpec("holiday_id", CATEGORICAL, EXOGENOUS, cardinality=holiday_cardinality),
        FeatureSpec("school", CATEGORICAL, EXOGENOUS, cardinality=2),
    ]


# ---------------------------------------------------------------------------
# frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSeriesFrame:
    """Immutable hourly frame; values are float64 with NaN at missing cells."""

    timestamps: np.ndarray  # (T,) datetime64[h], contiguous hourly
    specs: tuple[FeatureSpec, ...]
    values: np.ndarray      # (T, F) float64
    missing: np.ndarray     # (T, F) bool
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[h]")
        vals = np.array(self.values, dtype=np.float64)
        miss = np.array(self.missing, dtype=bool)
        specs = tuple(self.specs)

        t = ts.shape[0]
        f = len(specs)
        if vals.shape != (t, f) or miss.shape != (t, f):
            raise IntegrityError(
                f"shape mismatch: {t} timestamps, {len(specs)} specs, "
                f"values {vals.shape}, missing {miss.shape}"
            )
        if t == 0:
            raise IntegrityError("empty frame")
        if t > 1 and not np.all(np.diff(ts) == HOUR):
            raise IntegrityError("timestamps must advance in exact 1-hour steps")

        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate feature names in schema: {names}")
        targets = [s for s in specs if s.role == TARGET]
        if len(targets) != 1:
            raise SchemaError(f"exactly one target feature required, got {len(targets)}")

        vals[miss] = np.nan
        present = ~miss
        if not np.all(np.isfinite(vals[present])):
            raise IntegrityError("non-missing cells must be finite")
        for j, spec in enumerate(specs):
            if spec.kind != CATEGORICAL:
                continue
            col = vals[present[:, j], j]
            if col.size == 0:
                continue
            if not np.all(col == np.rint(col)):
                raise SchemaError(f"categorical feature {spec.name!r} has non-integer values")
            if col.min() < 0 or col.max() >= spec.cardinality:
                raise SchemaError(
                    f"categorical feature {spec.name!r} outside [0, {spec.cardinality})"
                )

        for arr in (ts, vals, miss):
            arr.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "missing", miss)
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "_index", {s.name: i for i, s in enumerate(specs)})

    # -- basic accessors ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.timestamps.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.specs)

    @property
    def target_index(self) -> int:
        return next(i for i, s in enumerate(self.specs) if s.role == TARGET)

    @property
    def target_name(self) -> str:
        return self.specs[self.target_index].name

    def feature_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no feature named {name!r}") from None

    def has_feature(self, name: str) -> bool:
        return name in self._index

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_index(name)]

    # -- derived frames -----------------------------------------------------

    def with_values(self, values: np.ndarray, missing: np.ndarray | None = None) -> "TimeSeriesFrame":
        return TimeSeriesFrame(
            self.timestamps, self.specs, values,
            self.missing if missing is None else missing,
        )

    def with_appended(self, new_specs, new_values, new_missing) -> "TimeSeriesFrame":
        return TimeSeriesFrame(
            self.timestamps,
            self.specs + tuple(new_specs),
            np.concatenate([self.values, new_values], axis=1),
            np.concatenate([self.missing, new_missing], axis=1),
        )


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def _format_cell(value: float, spec: FeatureSpec) -> str:
    if np.isnan(value):
        return ""
    if spec.kind == CATEGORICAL:
        return str(int(value))
    return repr(float(value))


def forward_fill(frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """Copy the last observed value into missing cells, column by column.

    Leading missing cells (nothing observed yet) stay missing.  Off by
    default everywhere; input assembly refuses missing rows unless the
    caller opts into this imputation first.
    """
    values = frame.values.copy()
    missing = frame.missing.copy()
    for j in range(frame.n_features):
        last = None
        for i in range(frame.n_rows):
            if not missing[i, j]:
                last = values[i, j]
            elif last is not None:
                values[i, j] = last
                missing[i, j] = False
    return frame.with_values(values, missing)


def load_csv(path, schema: list[FeatureSpec], fill: bool = False) -> TimeSeriesFrame:
    """Load a frame from CSV, re-indexing onto a continuous hourly grid.

    The header must be ``timestamp`` followed by the schema names in order.
    Empty cells are missing; absent hours become fully missing rows.
    ``fill=True`` forward-fills those gaps after loading.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such dataset: {path}")
    expected = ["timestamp"] + [s.name for s in schema]
    rows: dict[np.datetime64, list[str]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise SchemaError(f"header {header} does not match schema {expected}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise ParseError(f"row {lineno}: expected {len(expected)} cells, got {len(row)}")
            try:
                t = parse_timestamp(row[0])
            except ParseError as exc:
                raise ParseError(f"row {lineno}: {exc}") from None
            if t in rows:
                raise IntegrityError(f"row {lineno}: duplicate timestamp {row[0]}")
            rows[t] = row[1:]

    if not rows:
        raise ParseError(f"{path} holds no data rows")

    stamps = np.array(sorted(rows), dtype="datetime64[h]")
    start, stop = stamps[0], stamps[-1]
    t_total = hours_between(stop, start) + 1
    grid = start + np.arange(t_total) * HOUR
    f = len(schema)
    values = np.full((t_total, f), np.nan)
    missing = np.ones((t_total, f), dtype=bool)

    for t, cells in rows.items():
        i = hours_between(t, start)
        for j, (cell, spec) in enumerate(zip(cells, schema)):
            text = cell.strip()
            if text == "":
                continue
            try:
                v = float(text)
            except ValueError:
                raise ParseError(
                    f"feature {spec.name!r} at {format_timestamp(t)}: bad number {cell!r}"
                ) from None
            if spec.kind == CATEGORICAL:
                if v != int(v) or not 0 <= v < spec.cardinality:
                    raise SchemaError(
                        f"feature {spec.name!r} at {format_timestamp(t)}: "
                        f"value {cell!r} outside [0, {spec.cardinality})"
                    )
            values[i, j] = v
            missing[i, j] = False

    frame = TimeSeriesFrame(grid, tuple(schema), values, missing)
    return forward_fill(frame) if fill else frame


def write_csv(frame: TimeSeriesFrame, path) -> None:
    """Write a frame as CSV; exact inverse of ``load_csv`` on valid frames."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp"] + [s.name for s in frame.specs])
        for i in range(frame.n_rows):
            cells = [format_timestamp(frame.timestamps[i])]
            cells += [
                _format_cell(frame.values[i, j], frame.specs[j])
                for j in range(frame.n_features)
            ]
            writer.writerow(cells)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureStats:
    mean: float
    std: float
    vmin: float
    vmax: float


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardisation statistics for continuous features."""

    stats: dict[str, FeatureStats]
    fitted_range: tuple[np.datetime64, np.datetime64]

    def to_dict(self) -> dict:
        return {
            "fitted_range": [format_timestamp(t) for t in self.fitted_range],
            "stats": {
                name: [s.mean, s.std, s.vmin, s.vmax] for name, s in self.stats.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        return cls(
            stats={k: FeatureStats(*v) for k, v in d["stats"].items()},
            fitted_range=tuple(parse_timestamp(t) for t in d["fitted_range"]),
        )


def fit_scaler(frame: TimeSeriesFrame, fit_rows: tuple[int, int]) -> Scaler:
    """Fit standardisation stats on the non-missing rows in ``fit_rows``.

    ``fit_rows`` is a half-open row index range, normally the training part
    of a chronological split so later rows never leak into the statistics.
    """
    lo = max(0, int(fit_rows[0]))
    hi = min(frame.n_rows, int(fit_rows[1]))
    if hi <= lo:
        raise ValueError("scaler fit range does not intersect the frame")
    stats: dict[str, FeatureStats] = {}
    for j, spec in enumerate(frame.specs):
        if spec.kind != CONTINUOUS:
            continue
        col = frame.values[lo:hi, j]
        col = col[~frame.missing[lo:hi, j]]
        if col.size < 2:
            raise DegenerateFeatureError(
                f"feature {spec.name!r}: need at least 2 values in the fit range"
            )
        std = float(col.std())
        if std == 0.0:
            raise DegenerateFeatureError(f"feature {spec.name!r} has zero variance")
        stats[spec.name] = FeatureStats(float(col.mean()), std, float(col.min()), float(col.max()))
    return Scaler(stats=stats, fitted_range=(frame.timestamps[lo], frame.timestamps[hi - 1]))


def apply_scaler(frame: TimeSeriesFrame, scaler: Scaler) -> TimeSeriesFrame:
    """Standardise continuous features; categorical pass through unchanged."""
    values = frame.values.copy()
    for j, spec in enumerate(frame.specs):
        if spec.name in scaler.stats:
            s = scaler.stats[spec.name]
            values[:, j] = (values[:, j] - s.mean) / s.std
    return frame.with_values(values)


def invert_scaler(frame: TimeSeriesFrame, scaler: Scaler) -> TimeSeriesFrame:
    values = frame.values.copy()
    for j, spec in enumerate(frame.specs):
        if spec.name in scaler.stats:
            s = scaler.stats[spec.name]
            values[:, j] = values[:, j] * s.std + s.mean
    return frame.with_values(values)


# ---------------------------------------------------------------------------
# noise protocol
# ---------------------------------------------------------------------------

def inject_noise(frame: TimeSeriesFrame, probability: float, seed: int) -> TimeSeriesFrame:
    """Replace exogenous continuous cells by their feature min/mean/max.

    Each non-missing cell is independently replaced with the given
    probability; the replacement is drawn uniformly from the feature's
    whole-frame minimum, mean and maximum.  The target and calendar views
    are never touched, and neither are categorical features (min/mean/max
    is undefined for category codes).
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"noise probability must be in [0, 1], got {probability}")
    rng = np.random.default_rng(seed)
    values = frame.values.copy()
    for j, spec in enumerate(frame.specs):
        if spec.role != EXOGENOUS or spec.kind != CONTINUOUS:
            continue
        present = ~frame.missing[:, j]
        col = values[present, j]
        if col.size == 0:
            continue
        pool = np.array([col.min(), col.mean(), col.max()])
        hit = rng.random(frame.n_rows) < probability
        pick = rng.integers(0, 3, size=frame.n_rows)
        sel = hit & present
        values[sel, j] = pool[pick[sel]]
    return frame.with_values(values)
