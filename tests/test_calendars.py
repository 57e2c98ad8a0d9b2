"""Calendar view derivation, region tables, synthetic generator."""
import hashlib

import numpy as np
import pytest

from loadcast.calendars import (
    CalendarConfig,
    calendar_specs,
    derive_calendar_views,
    load_region,
    write_region,
)
from loadcast.errors import ConfigError, SchemaError
from loadcast.frames import HOUR, TimeSeriesFrame, standard_schema
from loadcast.synth import (
    BASE_LOAD,
    DAILY_AMP,
    DAILY_PEAK_SHIFT,
    SCHOOL_LIFT,
    TEMP_COEFF,
    TEMP_COMFORT,
    WEEKDAY_LIFT,
    WEEKEND_DROP,
    synth_generate,
    synth_region,
)

from conftest import small_frame


def frame_at(start, n=24):
    frame = small_frame(n=n)
    ts = np.datetime64(start, "h") + np.arange(n) * HOUR
    return TimeSeriesFrame(ts, frame.specs[:2], frame.values[:, :2], frame.missing[:, :2])


def region_2013():
    return CalendarConfig(
        holidays={"2013-01-01": 1, "2013-07-01": 2},
        school_periods=(("2013-01-07", "2013-06-28"),),
    )


class TestDeriveCalendarViews:
    def test_new_years_2013(self):
        # 2013-01-01 is a Tuesday
        frame = derive_calendar_views(frame_at("2013-01-01T00"), region_2013())
        assert frame.values[0, frame.feature_index("hour")] == 0
        assert frame.values[0, frame.feature_index("weekday")] == 1
        assert frame.values[0, frame.feature_index("month")] == 0
        assert frame.values[0, frame.feature_index("season")] == 3
        assert frame.values[0, frame.feature_index("holiday")] == 1

    def test_summer_weekday_afternoon(self):
        frame = derive_calendar_views(frame_at("2013-07-15T00"), region_2013())
        i = 13
        assert frame.values[i, frame.feature_index("hour")] == 13
        assert frame.values[i, frame.feature_index("season")] == 1
        assert frame.values[i, frame.feature_index("holiday")] == 0

    def test_monday_is_zero(self):
        frame = derive_calendar_views(frame_at("2013-01-07T00"), region_2013())
        assert frame.values[0, frame.feature_index("weekday")] == 0
        assert frame.values[0, frame.feature_index("school_period")] == 1

    def test_season_boundaries(self):
        for start, season in (
            ("2013-03-01T00", 0),
            ("2013-05-31T00", 0),
            ("2013-06-01T00", 1),
            ("2013-09-01T00", 2),
            ("2013-12-01T00", 3),
            ("2013-02-28T00", 3),
        ):
            frame = derive_calendar_views(frame_at(start), region_2013())
            assert frame.values[0, frame.feature_index("season")] == season, start

    def test_appends_six_views_in_order(self):
        base = frame_at("2013-01-01T00")
        frame = derive_calendar_views(base, region_2013())
        added = [s.name for s in frame.specs[base.n_features:]]
        assert added == ["hour", "weekday", "month", "season", "holiday", "school_period"]

    def test_second_call_raises(self):
        frame = derive_calendar_views(frame_at("2013-01-01T00"), region_2013())
        with pytest.raises(SchemaError):
            derive_calendar_views(frame, region_2013())

    def test_originals_untouched(self):
        base = frame_at("2013-01-01T00")
        frame = derive_calendar_views(base, region_2013())
        np.testing.assert_array_equal(frame.values[:, :2], base.values)

    def test_calendar_specs_cardinalities(self):
        specs = {s.name: s for s in calendar_specs(holiday_cardinality=7)}
        assert specs["hour"].cardinality == 24
        assert specs["weekday"].cardinality == 7
        assert specs["month"].cardinality == 12
        assert specs["season"].cardinality == 4
        assert specs["holiday"].cardinality == 7
        assert specs["school_period"].cardinality == 2


class TestCalendarConfig:
    def test_holiday_ids_must_be_compact(self):
        with pytest.raises(ConfigError):
            CalendarConfig(holidays={"2013-01-01": 2}, school_periods=())

    def test_cardinality_counts_distinct_ids(self):
        region = CalendarConfig(
            holidays={"2013-01-01": 1, "2013-12-25": 2, "2014-01-01": 1},
            school_periods=(),
        )
        assert region.holiday_cardinality == 3

    def test_yaml_round_trip(self, tmp_path):
        region = region_2013()
        path = tmp_path / "region.yaml"
        write_region(region, path)
        again = load_region(path)
        assert again.holidays == region.holidays
        assert tuple(again.school_periods) == tuple(region.school_periods)


class TestSynthGenerate:
    def test_deterministic(self):
        a = synth_generate(days=20, seed=4)
        b = synth_generate(days=20, seed=4)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        a = synth_generate(days=20, seed=4)
        b = synth_generate(days=20, seed=5)
        assert not np.array_equal(a.values, b.values)

    def test_schema_matches_standard(self):
        frame = synth_generate(days=15, seed=0)
        assert [s.name for s in frame.specs] == [s.name for s in standard_schema()]
        assert not frame.missing.any()

    def test_too_few_days(self):
        with pytest.raises(ConfigError):
            synth_generate(days=13, seed=0)

    # SHA-256 of the float64 values and the missing mask, as generated when
    # the AR(1) weather noise came from scipy.signal.lfilter
    @pytest.mark.parametrize(
        "days, seed, noise_scale, values, missing",
        [
            (730, 1, 1.0, "5732bc3f45ba44b06be5b4a9129ab9337d271590ef93959cb650ba57752bf7a7",
             "2e4c7ce4fec9c36bd425dd5ce48b51d22d12d20c827061e514c162fbb61c2dcb"),
            (365, 7, 1.0, "54720c4f6ecc8c4caa9fc42fbbc85c72045bfcd8151e50fc7c9311ff6055835c",
             "552174f2b8c10e2690611955d8f47cb536cc985d4b9e562e8cd03bf083bcd137"),
            (30, 0, 1.0, "762c28a8839df8a0b5cc60731718f7be15768dba6976cd2f5c71748b061ab151",
             "32ead73abab870ab0c7ba67a2337215e63ae49394d3c22dbf133e7ce1c7a2a0a"),
            (30, 0, 0.5, "3ab459197fa9888c4c2a715eda0525c1899fa0d4fb8e631246f9795baaaf8c42",
             "32ead73abab870ab0c7ba67a2337215e63ae49394d3c22dbf133e7ce1c7a2a0a"),
        ],
    )
    def test_pinned_digests(self, days, seed, noise_scale, values, missing):
        frame = synth_generate(days=days, seed=seed, noise_scale=noise_scale)
        assert frame.values.dtype == np.float64
        assert hashlib.sha256(frame.values.tobytes()).hexdigest() == values
        assert hashlib.sha256(frame.missing.tobytes()).hexdigest() == missing

    def test_zero_noise_matches_closed_form(self):
        frame = synth_generate(days=21, seed=8, noise_scale=0.0)
        hours = np.arange(frame.n_rows) % 24
        days64 = frame.timestamps.astype("datetime64[D]")
        weekday = (days64.astype(np.int64) + 3) % 7
        temp = frame.column("temperature")
        school = frame.column("school")
        off_day = (weekday >= 5) | (frame.column("holiday_id") > 0)
        weekly = np.where(off_day, WEEKEND_DROP, WEEKDAY_LIFT)
        expected = (
            BASE_LOAD
            + DAILY_AMP * np.sin(2 * np.pi * (hours - DAILY_PEAK_SHIFT) / 24.0)
            + weekly
            + SCHOOL_LIFT * school
            + TEMP_COEFF * (temp - TEMP_COMFORT) ** 2
        )
        np.testing.assert_allclose(frame.column("load"), expected, rtol=0, atol=1e-9)

    def test_weekly_autocorrelation(self):
        frame = synth_generate(days=365, seed=1)
        load = frame.column("load")
        a, b = load[168:], load[:-168]
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.8

    def test_region_covers_generated_years(self):
        frame = synth_generate(days=400, seed=0)
        region = synth_region(2018, 2019)
        full = derive_calendar_views(frame, region)
        holidays = full.column("holiday")
        # 400 days from 2018-01-01: four 2018 holidays plus 2019-01-01
        assert (holidays > 0).sum() == 5 * 24
        assert region.holiday_cardinality == 5
