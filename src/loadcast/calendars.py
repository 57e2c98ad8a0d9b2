"""Calendar view derivation and region holiday tables.

The derived views are purely functions of the UTC timestamp plus a region
table mapping dates to holiday ids and date ranges to school periods.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, SchemaError
from .frames import (
    CALENDAR,
    CATEGORICAL,
    FeatureSpec,
    TimeSeriesFrame,
    read_yaml,
)

CALENDAR_VIEWS = ("hour", "weekday", "month", "season", "holiday", "school_period")

# meteorological seasons, ordered Spring..Winter
SPRING, SUMMER, FALL, WINTER = 0, 1, 2, 3


def _days(dates, key: str) -> np.ndarray:
    """ISO dates as whole UTC days; a bad one raises ``ConfigError`` naming
    ``key``.  numpy also reads a year, a month or a time as a day, so a
    date must print back as its own ``YYYY-MM-DD`` text."""
    try:
        days = np.array(dates, dtype="datetime64[D]")
    except ValueError as exc:
        raise ConfigError(f"{key}: bad date: {exc}") from None
    text = np.array(dates, dtype=str)
    bad = (np.datetime_as_string(days) != text) | np.isnat(days)
    if bad.any():
        raise ConfigError(f"{key}: bad date: {str(text[bad][0])!r} is not a YYYY-MM-DD day")
    return days


@dataclass(frozen=True)
class CalendarConfig:
    """Region table: holiday dates with ids 1..N, and school date ranges.

    Dates are ISO ``YYYY-MM-DD`` strings interpreted as whole UTC days;
    school ranges are inclusive on both ends.
    """

    holidays: dict[str, int] = field(default_factory=dict)
    school_periods: tuple[tuple[str, str], ...] = ()
    # the dates above, parsed once: holiday days and (start, end) day pairs
    _parsed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = set(self.holidays.values())
        if any(not isinstance(i, int) or i < 1 for i in ids):
            raise ConfigError("holiday ids must be positive integers")
        if ids and ids != set(range(1, len(ids) + 1)):
            raise ConfigError(f"holiday ids must be exactly 1..{len(ids)}, got {sorted(ids)}")
        periods = _days(self.school_periods, "school_periods").reshape(-1, 2)
        backwards = np.flatnonzero(periods[:, 1] < periods[:, 0])
        if backwards.size:
            start, end = self.school_periods[backwards[0]]
            raise ConfigError(f"school period {start}..{end} runs backwards")
        object.__setattr__(self, "_parsed", (_days(list(self.holidays), "holidays"), periods))

    @property
    def holiday_cardinality(self) -> int:
        """Distinct ids plus the id-0 "none" value."""
        return len(set(self.holidays.values())) + 1


def load_region(path) -> CalendarConfig:
    """Read a region table from a YAML (or JSON) config file.

    A section of the wrong shape or a bad date raises ``ConfigError`` naming
    the file and the key: ``holidays`` must map dates to ids, and
    ``school_periods`` must list mappings that each hold a ``start`` and an ``end``."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"region table not found: {path}")
    raw = read_yaml(path, "region table")
    try:
        holidays = raw.get("holidays") or {}
        if not isinstance(holidays, dict):
            raise ConfigError(f"holidays must map dates to ids, got {holidays!r}")
        try:
            ids = {str(k): int(v) for k, v in holidays.items()}
        except (TypeError, ValueError):
            raise ConfigError(f"holiday ids must be integers, got {holidays!r}") from None
        periods = raw.get("school_periods") or []
        if not (
            isinstance(periods, list)
            and all(isinstance(p, dict) and {"start", "end"} <= p.keys() for p in periods)
        ):
            raise ConfigError(
                f"school_periods must list mappings with a start and an end, got {periods!r}"
            )
        periods = tuple((str(p["start"]), str(p["end"])) for p in periods)
        return CalendarConfig(holidays=ids, school_periods=periods)
    except ConfigError as exc:
        raise ConfigError(f"region table {path}: {exc}") from None


def write_region(config: CalendarConfig, path) -> None:
    doc = {
        "holidays": dict(config.holidays),
        "school_periods": [
            {"start": s, "end": e} for s, e in config.school_periods
        ],
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")


def _calendar_columns(timestamps: np.ndarray, region: CalendarConfig):
    """Vectorised calendar fields for hourly datetime64 timestamps."""
    days = timestamps.astype("datetime64[D]")
    hour = (timestamps - days).astype(np.int64)
    # 1970-01-01 was a Thursday; Monday = 0
    weekday = (days.astype(np.int64) + 3) % 7
    month = timestamps.astype("datetime64[M]").astype(np.int64) % 12
    season = ((month - 2) % 12) // 3

    holiday_days, periods = region._parsed
    holiday = np.zeros(timestamps.shape[0], dtype=np.int64)
    for d, hid in zip(holiday_days, region.holidays.values()):
        holiday[days == d] = hid

    school = np.zeros(timestamps.shape[0], dtype=np.int64)
    for start, end in periods:
        school[(days >= start) & (days <= end)] = 1

    return hour, weekday, month, season, holiday, school


def calendar_specs(holiday_cardinality: int) -> list[FeatureSpec]:
    """Specs of the six derived calendar views, in derivation order."""
    return [
        FeatureSpec("hour", CATEGORICAL, CALENDAR, cardinality=24),
        FeatureSpec("weekday", CATEGORICAL, CALENDAR, cardinality=7),
        FeatureSpec("month", CATEGORICAL, CALENDAR, cardinality=12),
        FeatureSpec("season", CATEGORICAL, CALENDAR, cardinality=4),
        FeatureSpec("holiday", CATEGORICAL, CALENDAR, cardinality=holiday_cardinality),
        FeatureSpec("school_period", CATEGORICAL, CALENDAR, cardinality=2),
    ]


def derive_calendar_views(frame: TimeSeriesFrame, region: CalendarConfig) -> TimeSeriesFrame:
    """Append the six categorical calendar views to a frame.

    Raises if any derived view name is already present: silently re-deriving
    would corrupt the view count.
    """
    if region is None:
        raise ConfigError("a calendar region table is required")
    clash = [name for name in CALENDAR_VIEWS if frame.has_feature(name)]
    if clash:
        raise SchemaError(f"frame already has calendar views: {clash}")

    hour, weekday, month, season, holiday, school = _calendar_columns(
        frame.timestamps, region
    )
    specs = calendar_specs(region.holiday_cardinality)
    cols = np.stack([hour, weekday, month, season, holiday, school], axis=1).astype(np.float64)
    # calendar cells derive from the timestamp, so they are never missing
    miss = np.zeros_like(cols, dtype=bool)
    return frame.with_appended(specs, cols, miss)
