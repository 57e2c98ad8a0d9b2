"""Hourly multi-feature time series: loading, validation, scaling, noise.

A frame is an immutable table on a continuous hourly UTC grid.  Gaps are
explicit rows with the missing mask set; missing cells store NaN.  All range
arguments in this package are half-open ``[start, end)`` in whole hours.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import compress
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
            k = _first_bad_category(col, spec.cardinality)
            if k is None:
                continue
            if col[k] != np.trunc(col[k]):
                raise SchemaError(f"categorical feature {spec.name!r} has non-integer values")
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

# The timestamp form ``write_csv`` emits; "0" marks a digit slot.
_CANONICAL = np.frombuffer("0000-00-00T00:00:00Z".encode("utf-32-le"), dtype=np.uint32)
_DIGIT_SLOTS = _CANONICAL == ord("0")
_YEAR_ONE = np.datetime64("0001-01-01T00:00:00", "s")
_WRITE_BLOCK = 1024  # rows that write_csv formats at once


def format_timestamps(ts) -> list[str]:
    """``format_timestamp`` over an array of timestamps, in one numpy call."""
    text = np.datetime_as_string(np.asarray(ts, dtype="datetime64[s]"))
    return np.char.add(text, "Z").tolist()


def format_cells(col: np.ndarray, kind: str = CONTINUOUS) -> list[str]:
    """One column's CSV cells: ``repr``, or ``str(int(v))`` if categorical;
    NaN is an empty cell."""
    nan = np.isnan(col)
    if kind == CATEGORICAL:
        cells = list(map(str, np.where(nan, 0, col).astype(np.int64).tolist()))
    else:
        cells = list(map(repr, col.tolist()))
    for i in np.flatnonzero(nan).tolist():
        cells[i] = ""
    return cells


def forward_fill(frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """Copy the last observed value into missing cells, column by column.

    Leading missing cells (nothing observed yet) stay missing.  Off by
    default everywhere; input assembly refuses missing rows unless the
    caller opts into this imputation first.
    """
    rows = np.arange(frame.n_rows)[:, None]
    last = np.maximum.accumulate(np.where(frame.missing, -1, rows), axis=0)
    values = np.take_along_axis(frame.values, np.maximum(last, 0), axis=0)
    return frame.with_values(values, last < 0)


def _first_bad_category(col: np.ndarray, cardinality: int) -> int | None:
    """Index of the first value in ``col`` that is not an integer in [0, cardinality)."""
    bad = ~((col == np.trunc(col)) & (col >= 0) & (col < cardinality))
    return int(bad.argmax()) if bad.any() else None


def _parse_timestamps(texts) -> tuple[np.ndarray, int, ParseError | None]:
    """Parse a timestamp column; return its hours and its first fault.

    Texts in the canonical ``YYYY-MM-DDTHH:MM:SSZ`` form are parsed in one
    numpy call, without the ``Z`` that numpy would warn about.  Every other
    form goes through ``parse_timestamp``, and so does any canonical text
    that numpy rejects (a field out of range), that is off the hour, or that
    falls in year 0, which numpy accepts and ``datetime`` does not.  So both
    paths give the same hour and the same error.  Returns
    ``(hours, n, None)`` when every text parses, else the index of the first
    bad text and its error.
    """
    n = len(texts)
    hours = np.empty(n, dtype="datetime64[h]")
    fast = np.zeros(n, dtype=bool)
    sized = np.fromiter(map(len, texts), dtype=np.intp, count=n) == _CANONICAL.size
    if sized.any():
        where = np.flatnonzero(sized)
        text = np.array(list(compress(texts, sized)))
        codes = text.view(np.uint32).reshape(where.size, _CANONICAL.size)
        form = np.where(_DIGIT_SLOTS, codes - ord("0") < 10, codes == _CANONICAL).all(axis=1)
        where, text = where[form], text[form].astype(f"<U{_CANONICAL.size - 1}")
        try:
            stamps = text.astype("datetime64[s]")
        except ValueError:  # a field out of range: parse_timestamp names it
            pass
        else:
            ok = (stamps >= _YEAR_ONE) & (stamps.astype(np.int64) % 3600 == 0)
            hours[where[ok]] = stamps[ok].astype("datetime64[h]")
            fast[where[ok]] = True
    for i in np.flatnonzero(~fast).tolist():
        try:
            hours[i] = parse_timestamp(texts[i])
        except ParseError as exc:
            return hours, i, exc
    return hours, n, None


def _first_repeat(stamps: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one, else ``len(stamps)``."""
    order = np.argsort(stamps, kind="stable")
    later = order[1:][stamps[order[1:]] == stamps[order[:-1]]]
    return int(later.min()) if later.size else stamps.size


def _parse_cells(cells, spec: FeatureSpec):
    """Parse one column; return ``(values, blank, fault)``.

    Blank (empty or whitespace-only) cells are missing and hold NaN.
    ``fault`` is ``None`` or ``(row, error type, detail)`` for the column's
    first bad cell: a bad number, a non-finite value, or a categorical code
    outside the schema.  Cells past a bad number are left unparsed.
    """
    n = len(cells)
    texts = list(map(str.strip, cells))
    blank = np.fromiter(map(len, texts), dtype=np.intp, count=n) == 0
    rows = np.flatnonzero(~blank)
    filled = list(compress(texts, ~blank))
    values = np.full(n, np.nan)
    end = n  # rows from here on are past a bad number
    try:
        values[rows] = np.array(filled, dtype=np.float64)
    except ValueError:  # find the cell float() rejects; parse up to it
        parsed = []
        for text in filled:
            try:
                parsed.append(float(text))
            except ValueError:
                break
        values[rows[: len(parsed)]] = parsed
        if len(parsed) < len(filled):
            end = int(rows[len(parsed)])
    present = np.where(blank[:end], 0.0, values[:end])  # blanks pass every check
    if spec.kind == CATEGORICAL:
        k = _first_bad_category(present, spec.cardinality)
    else:
        finite = np.isfinite(present)
        k = None if finite.all() else int(finite.argmin())
    if k is not None and not np.isfinite(present[k]):
        return values, blank, (k, ParseError, f"non-finite value {cells[k]!r}")
    if k is not None:
        return values, blank, (
            k, SchemaError, f"value {cells[k]!r} outside [0, {spec.cardinality})"
        )
    if end < n:
        return values, blank, (end, ParseError, f"bad number {cells[end]!r}")
    return values, blank, None


def load_csv(path, schema: list[FeatureSpec], fill: bool = False) -> TimeSeriesFrame:
    """Load a frame from CSV, re-indexing onto a continuous hourly grid.

    The header must be ``timestamp`` followed by the schema names in order.
    Empty cells are missing; absent hours become fully missing rows.
    ``fill=True`` forward-fills those gaps after loading.  The first fault
    in file order is raised: row faults (cell count, timestamp, duplicate)
    before cell faults, and cell faults row by row, column by column.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such dataset: {path}")
    expected = ["timestamp"] + [s.name for s in schema]
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise SchemaError(f"header {header} does not match schema {expected}")
        rows = list(reader)
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    linenos = np.flatnonzero(widths) + 2  # the reader counts blank rows too
    rows = list(compress(rows, widths))
    widths = widths[widths > 0]
    if not rows:
        raise ParseError(f"{path} holds no data rows")

    short = np.flatnonzero(widths != len(expected))
    m = int(short[0]) if short.size else len(rows)  # rows before the first bad width
    columns = list(zip(*rows[:m])) or [()]
    del rows  # the columns hold the cells now
    stamps, bad, stamp_error = _parse_timestamps(columns[0])
    repeat = _first_repeat(stamps[:bad])
    if repeat < bad:
        raise IntegrityError(
            f"row {linenos[repeat]}: duplicate timestamp {columns[0][repeat]}"
        )
    if bad < m:
        raise ParseError(f"row {linenos[bad]}: {stamp_error}")
    if m < widths.size:
        raise ParseError(
            f"row {linenos[m]}: expected {len(expected)} cells, got {widths[m]}"
        )

    cols, blanks, faults = zip(*map(_parse_cells, columns[1:], schema))
    first = min(((f[0], j) for j, f in enumerate(faults) if f), default=None)
    if first is not None:
        row, j = first
        _, error, detail = faults[j]
        raise error(
            f"feature {schema[j].name!r} at {format_timestamp(stamps[row])}: {detail}"
        )

    start = stamps.min()
    grid = start + np.arange((stamps.max() - start) // HOUR + 1) * HOUR
    values = np.full((grid.size, len(schema)), np.nan)
    missing = np.ones((grid.size, len(schema)), dtype=bool)
    idx = (stamps - start) // HOUR
    values[idx] = np.column_stack(cols)
    missing[idx] = np.column_stack(blanks)
    frame = TimeSeriesFrame(grid, tuple(schema), values, missing)
    return forward_fill(frame) if fill else frame


def write_csv(frame: TimeSeriesFrame, path) -> None:
    """Write a frame as CSV; exact inverse of ``load_csv`` on valid frames."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp"] + [s.name for s in frame.specs])
        # a block of rows at a time, so that not every cell string lives at once
        for lo in range(0, frame.n_rows, _WRITE_BLOCK):
            rows = slice(lo, lo + _WRITE_BLOCK)
            cells = [
                format_cells(frame.values[rows, j], s.kind) for j, s in enumerate(frame.specs)
            ]
            writer.writerows(zip(format_timestamps(frame.timestamps[rows]), *cells))


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
