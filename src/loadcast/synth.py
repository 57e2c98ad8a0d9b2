"""Synthetic hourly load dataset with the standard feature schema.

A desk-scale stand-in for real utility exports: the load combines a daily
sinusoid, a weekday/weekend square modulation and a quadratic temperature
response.  Temperature carries multi-day weather swings, so week-ago
persistence is a decent but beatable baseline: a model that reads recent
temperatures can correct for weather the naive forecast cannot see.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .calendars import CalendarConfig
from .frames import HOUR, TimeSeriesFrame, standard_schema

SYNTH_START = np.datetime64("2018-01-01T00", "h")

BASE_LOAD = 1000.0
DAILY_AMP = 120.0
DAILY_PEAK_SHIFT = 9.0
WEEKDAY_LIFT = 45.0
WEEKEND_DROP = -65.0
SCHOOL_LIFT = 8.0
TEMP_COEFF = 0.22
TEMP_COMFORT = 18.0
OBS_SIGMA = 3.0

TEMP_MEAN = 8.0
TEMP_SEASON_AMP = 14.0
TEMP_DAILY_AMP = 4.0
TEMP_AR_PHI = 0.99
TEMP_AR_SIGMA = 0.65

_BURN_IN_HOURS = 720

# fixed-date holidays applied to every generated year, ids 1..4
_HOLIDAY_DATES = {"01-01": 1, "07-01": 2, "12-25": 3, "12-26": 4}


def synth_region(first_year: int, last_year: int) -> CalendarConfig:
    """Region table covering the generator's holidays and school breaks."""
    holidays = {}
    periods = []
    for year in range(first_year, last_year + 1):
        for monthday, hid in _HOLIDAY_DATES.items():
            holidays[f"{year}-{monthday}"] = hid
        periods.append((f"{year}-01-01", f"{year}-06-30"))
        periods.append((f"{year}-09-01", f"{year}-12-31"))
    return CalendarConfig(holidays=holidays, school_periods=tuple(periods))


def _ar1(rng: np.random.Generator, n: int, phi: float, sigma: float) -> np.ndarray:
    """AR(1) noise ``x[t] = phi * x[t-1] + eps[t]`` after a burn-in."""
    eps = rng.normal(0.0, sigma, size=n + _BURN_IN_HOURS)
    series = []
    acc = 0.0
    for e in eps.tolist():
        acc = e + phi * acc
        series.append(acc)
    return np.array(series[_BURN_IN_HOURS:])


def synth_generate(days: int, seed: int, noise_scale: float = 1.0) -> TimeSeriesFrame:
    """Generate ``days`` of hourly data starting 2018-01-01 UTC.

    Deterministic for a fixed seed.  ``noise_scale=0`` removes every
    stochastic term, leaving the closed-form generator.
    """
    if days < 14:
        raise ConfigError(f"need at least 14 days, got {days}")
    rng = np.random.default_rng(seed)
    t = days * 24
    timestamps = SYNTH_START + np.arange(t) * HOUR

    hours = np.arange(t) % 24
    day_index = np.arange(t) // 24
    day_of_year = day_index % 365
    days64 = timestamps.astype("datetime64[D]")
    weekday = (days64.astype(np.int64) + 3) % 7

    # weather with seasonal + daily structure and persistent noise
    temp = (
        TEMP_MEAN
        - TEMP_SEASON_AMP * np.cos(2 * np.pi * day_of_year / 365.0)
        + TEMP_DAILY_AMP * np.sin(2 * np.pi * (hours - 14) / 24.0)
        + noise_scale * _ar1(rng, t, TEMP_AR_PHI, TEMP_AR_SIGMA)
    )
    humidity = np.clip(
        70.0
        - 1.2 * TEMP_DAILY_AMP * np.sin(2 * np.pi * (hours - 14) / 24.0)
        + noise_scale * _ar1(rng, t, 0.98, 1.5),
        20.0,
        100.0,
    )
    dewpoint = temp - (100.0 - humidity) / 5.0
    wind = np.clip(
        12.0
        + 2.0 * np.sin(2 * np.pi * (hours - 12) / 24.0)
        + noise_scale * _ar1(rng, t, 0.97, 1.0),
        0.0,
        None,
    )
    rain_state = noise_scale * _ar1(rng, t, 0.95, 1.0)
    rainfall = np.maximum(0.0, rain_state - 1.2) * 2.0

    # calendar indicator columns, from the fixed region table
    year_first = int(str(days64[0])[:4])
    year_last = int(str(days64[-1])[:4])
    region = synth_region(year_first, year_last)
    holiday_id = np.zeros(t)
    for date, hid in region.holidays.items():
        holiday_id[days64 == np.datetime64(date, "D")] = hid
    school = np.zeros(t)
    for start, end in region.school_periods:
        inside = (days64 >= np.datetime64(start, "D")) & (days64 <= np.datetime64(end, "D"))
        school[inside] = 1.0

    off_day = (weekday >= 5) | (holiday_id > 0)
    weekly = np.where(off_day, WEEKEND_DROP, WEEKDAY_LIFT)

    load = (
        BASE_LOAD
        + DAILY_AMP * np.sin(2 * np.pi * (hours - DAILY_PEAK_SHIFT) / 24.0)
        + weekly
        + SCHOOL_LIFT * school
        + TEMP_COEFF * (temp - TEMP_COMFORT) ** 2
        + noise_scale * rng.normal(0.0, OBS_SIGMA, size=t)
    )

    schema = standard_schema(holiday_cardinality=region.holiday_cardinality)
    values = np.stack(
        [load, temp, dewpoint, wind, humidity, rainfall, holiday_id, school], axis=1
    )
    missing = np.zeros_like(values, dtype=bool)
    return TimeSeriesFrame(timestamps, tuple(schema), values, missing)
