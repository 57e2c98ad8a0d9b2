"""Frame container, CSV interchange, scaling, noise injection."""
import csv
import warnings

import numpy as np
import pytest

from loadcast.errors import (
    DegenerateFeatureError,
    IntegrityError,
    ParseError,
    SchemaError,
)
from loadcast.frames import (
    CATEGORICAL,
    CONTINUOUS,
    EXOGENOUS,
    HOUR,
    TARGET,
    FeatureSpec,
    TimeSeriesFrame,
    _first_bad_category,
    apply_scaler,
    fit_scaler,
    format_timestamp,
    forward_fill,
    inject_noise,
    load_csv,
    parse_timestamp,
    standard_schema,
    write_csv,
    write_json,
    write_table,
)
from loadcast.synth import synth_generate

from conftest import T0, hourly_timestamps, small_frame, small_schema

FIXTURE = "tests/data/hours_sample.csv"


class TestTimestamps:
    def test_parse_z_suffix(self):
        t = parse_timestamp("2013-01-01T05:00:00Z")
        assert t == np.datetime64("2013-01-01T05", "h")

    def test_format_round_trip(self):
        text = "2020-06-15T23:00:00Z"
        assert format_timestamp(parse_timestamp(text)) == text

    def test_rejects_non_hour_alignment(self):
        with pytest.raises(ParseError):
            parse_timestamp("2013-01-01T05:30:00Z")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_timestamp("yesterday")


class TestStandardSchema:
    def test_names_and_order(self):
        names = [s.name for s in standard_schema()]
        assert names == [
            "load", "temperature", "dewpoint", "wind_speed",
            "humidity", "rainfall", "holiday_id", "school",
        ]

    def test_single_target(self):
        schema = standard_schema()
        targets = [s for s in schema if s.role == TARGET]
        assert len(targets) == 1 and targets[0].name == "load"
        assert targets[0].kind == CONTINUOUS

    def test_holiday_cardinality_passthrough(self):
        schema = standard_schema(holiday_cardinality=9)
        byname = {s.name: s for s in schema}
        assert byname["holiday_id"].cardinality == 9
        assert byname["school"].cardinality == 2


class TestFrameInvariants:
    def test_rejects_gap_in_grid(self):
        ts = np.array(
            ["2020-01-01T00", "2020-01-01T01", "2020-01-01T03"], dtype="datetime64[h]"
        )
        specs = (FeatureSpec("load", CONTINUOUS, TARGET),)
        with pytest.raises(IntegrityError):
            TimeSeriesFrame(ts, specs, np.ones((3, 1)), np.zeros((3, 1), bool))

    def test_rejects_categorical_out_of_range(self):
        specs = small_schema()
        values = np.zeros((3, 3))
        values[:, 0] = 100.0
        values[1, 2] = 25.0  # hour cardinality is 24
        with pytest.raises(SchemaError):
            TimeSeriesFrame(
                hourly_timestamps(3), specs, values, np.zeros((3, 3), bool)
            )

    def test_rejects_two_targets(self):
        specs = (
            FeatureSpec("load", CONTINUOUS, TARGET),
            FeatureSpec("load2", CONTINUOUS, TARGET),
        )
        with pytest.raises(SchemaError):
            TimeSeriesFrame(
                hourly_timestamps(3), specs, np.ones((3, 2)), np.zeros((3, 2), bool)
            )

    def test_values_read_only(self):
        frame = small_frame(10)
        with pytest.raises(ValueError):
            frame.values[0, 0] = 1.0


class TestLoadCsv:
    def test_contiguous_identity(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "timestamp,load\n"
            "2020-01-01T00:00:00Z,10.0\n"
            "2020-01-01T01:00:00Z,11.0\n"
            "2020-01-01T02:00:00Z,12.0\n"
        )
        schema = [FeatureSpec("load", CONTINUOUS, TARGET)]
        frame = load_csv(path, schema)
        assert frame.n_rows == 3
        assert not frame.missing.any()
        np.testing.assert_array_equal(frame.column("load"), [10.0, 11.0, 12.0])

    def test_absent_hour_becomes_missing_row(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "timestamp,load\n"
            "2020-01-01T00:00:00Z,10.0\n"
            "2020-01-01T02:00:00Z,12.0\n"
        )
        frame = load_csv(path, [FeatureSpec("load", CONTINUOUS, TARGET)])
        assert frame.n_rows == 3
        assert frame.missing[1].all()
        assert not frame.missing[0].any() and not frame.missing[2].any()

    def test_fill_flag_forward_fills(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "timestamp,load\n"
            "2020-01-01T00:00:00Z,10.0\n"
            "2020-01-01T02:00:00Z,12.0\n"
        )
        frame = load_csv(path, [FeatureSpec("load", CONTINUOUS, TARGET)], fill=True)
        assert not frame.missing.any()
        np.testing.assert_array_equal(frame.column("load"), [10.0, 10.0, 12.0])

    def test_malformed_timestamp_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,load\nnot-a-time,10.0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path, [FeatureSpec("load", CONTINUOUS, TARGET)])

    def test_duplicate_timestamp(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "timestamp,load\n"
            "2020-01-01T00:00:00Z,10.0\n"
            "2020-01-01T00:00:00Z,11.0\n"
        )
        with pytest.raises(IntegrityError):
            load_csv(path, [FeatureSpec("load", CONTINUOUS, TARGET)])

    def test_categorical_out_of_range(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text(
            "timestamp,load,flag\n"
            "2020-01-01T00:00:00Z,10.0,2\n"
        )
        schema = [
            FeatureSpec("load", CONTINUOUS, TARGET),
            FeatureSpec("flag", CATEGORICAL, EXOGENOUS, cardinality=2),
        ]
        with pytest.raises(SchemaError):
            load_csv(path, schema)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("timestamp,demand\n2020-01-01T00:00:00Z,10.0\n")
        with pytest.raises(SchemaError):
            load_csv(path, [FeatureSpec("load", CONTINUOUS, TARGET)])

    def test_checked_in_sample(self):
        """Miniature stand-in for a real utility export: 2 days, 1 gap."""
        frame = load_csv(FIXTURE, standard_schema())
        assert frame.n_rows == 48
        assert frame.missing[2].all()  # the absent 02:00 row
        assert frame.missing[29, frame.target_index]  # empty load cell
        assert not frame.missing[29, frame.feature_index("temperature")]
        assert frame.column("holiday_id")[0] == 1.0
        assert frame.column("holiday_id")[30] == 0.0


class TestCsvRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        for seed in range(20):
            frame = small_frame(n=40, seed=seed)
            # knock out a few cells to exercise the missing path
            rng = np.random.default_rng(seed)
            missing = rng.random(frame.missing.shape) < 0.1
            values = frame.values.copy()
            values[missing] = np.nan
            frame = frame.with_values(values, missing)
            path = tmp_path / f"rt{seed}.csv"
            write_csv(frame, path)
            back = load_csv(path, list(frame.specs))
            np.testing.assert_array_equal(back.timestamps, frame.timestamps)
            np.testing.assert_array_equal(back.missing, frame.missing)
            ok = ~frame.missing
            np.testing.assert_array_equal(back.values[ok], frame.values[ok])

    def test_write_is_byte_stable(self, tmp_path):
        frame = small_frame(n=30, seed=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(frame, a)
        write_csv(frame, b)
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()


class TestScaler:
    def test_two_point_example(self):
        # mean 2, population std 1 -> scaled [-1, 1]
        frame = small_frame(n=2)
        values = frame.values.copy()
        values[:, 0] = [1.0, 3.0]
        frame = frame.with_values(values)
        scaler = fit_scaler(frame, (0, 2))
        scaled = apply_scaler(frame, scaler)
        np.testing.assert_allclose(scaled.column("load"), [-1.0, 1.0], atol=1e-15)

    def test_categorical_passthrough(self):
        frame = small_frame(n=30)
        scaler = fit_scaler(frame, (0, 30))
        scaled = apply_scaler(frame, scaler)
        np.testing.assert_array_equal(scaled.column("hour"), frame.column("hour"))

    def test_zero_variance_raises(self):
        frame = small_frame(n=20)
        values = frame.values.copy()
        values[:, 1] = 7.0
        frame = frame.with_values(values)
        with pytest.raises(DegenerateFeatureError, match="temperature"):
            fit_scaler(frame, (0, 20))

    def test_stats_only_from_fit_rows(self):
        frame = small_frame(n=60, seed=3)
        scaler = fit_scaler(frame, (0, 30))
        head = frame.values[:30, 0]
        assert scaler.stats["load"].mean == pytest.approx(float(head.mean()))
        assert scaler.stats["load"].std == pytest.approx(float(head.std()))

    def test_serialization_round_trip(self):
        from loadcast.frames import Scaler

        frame = small_frame(n=30)
        scaler = fit_scaler(frame, (0, 30))
        again = Scaler.from_dict(scaler.to_dict())
        assert again.stats == scaler.stats
        assert again.fitted_range == scaler.fitted_range


class TestForwardFill:
    def test_leading_missing_stays(self):
        frame = small_frame(n=5)
        missing = np.zeros((5, 3), bool)
        missing[0, 0] = True
        missing[2, 0] = True
        values = frame.values.copy()
        values[missing] = np.nan
        filled = forward_fill(frame.with_values(values, missing))
        assert filled.missing[0, 0]
        assert not filled.missing[2, 0]
        assert filled.values[2, 0] == filled.values[1, 0]


class TestInjectNoise:
    def test_probability_zero_is_identity(self):
        frame = small_frame(n=50, seed=2)
        out = inject_noise(frame, 0.0, seed=1)
        np.testing.assert_array_equal(out.values, frame.values)

    def test_probability_one_uses_pool_everywhere(self):
        frame = small_frame(n=80, seed=4)
        out = inject_noise(frame, 1.0, seed=1)
        col = frame.feature_index("temperature")
        src = frame.values[:, col]
        pool = {src.min(), src.max(), src.mean()}
        assert set(np.unique(out.values[:, col])) <= pool

    def test_target_and_calendar_untouched(self):
        frame = small_frame(n=80, seed=5)
        out = inject_noise(frame, 1.0, seed=2)
        np.testing.assert_array_equal(out.column("load"), frame.column("load"))
        np.testing.assert_array_equal(out.column("hour"), frame.column("hour"))

    def test_deterministic_under_seed(self):
        frame = small_frame(n=80, seed=6)
        a = inject_noise(frame, 0.5, seed=9)
        b = inject_noise(frame, 0.5, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_bad_probability(self):
        frame = small_frame(n=20)
        with pytest.raises(ValueError):
            inject_noise(frame, 1.5, seed=0)


FLAG_SCHEMA = [
    FeatureSpec("load", CONTINUOUS, TARGET),
    FeatureSpec("flag", CATEGORICAL, EXOGENOUS, cardinality=2),
]


def _load_text(tmp_path, body, schema=FLAG_SCHEMA):
    path = tmp_path / "data.csv"
    path.write_text("timestamp,load,flag\n" + body, encoding="utf-8")
    return load_csv(path, schema)


LOAD_ERRORS = {
    "short row": (
        "2020-01-01T00:00:00Z,1.0\n",
        ParseError, "row 2: expected 3 cells, got 2",
    ),
    "long row": (
        "2020-01-01T00:00:00Z,1.0,0\n2020-01-01T01:00:00Z,1.0,0,9\n",
        ParseError, "row 3: expected 3 cells, got 4",
    ),
    "blank line before off-hour stamp": (
        "\n2020-01-01T00:30:00Z,1.0,0\n",
        ParseError,
        "row 3: timestamp '2020-01-01T00:30:00Z' is not on an exact hour boundary",
    ),
    "off-hour offset stamp": (
        "2020-01-01T00:00:00Z,1.0,0\n2020-01-01T03:00:01+02:00,1.0,0\n",
        ParseError,
        "row 3: timestamp '2020-01-01T03:00:01+02:00' is not on an exact hour boundary",
    ),
    "no offset": (
        "2020-01-01T00:00:00,1.0,0\n",
        ParseError, "row 2: timestamp '2020-01-01T00:00:00' lacks a UTC offset",
    ),
    "garbage stamp": (
        "2020-01-01T00:00:00Z,1.0,0\nyesterday,1.0,0\n",
        ParseError,
        "row 3: malformed timestamp 'yesterday': Invalid isoformat string: "
        "'yesterday'",
    ),
    "canonical form, impossible date": (
        "2020-02-30T00:00:00Z,1.0,0\n",
        ParseError,
        "row 2: malformed timestamp '2020-02-30T00:00:00Z': "
        "day is out of range for month",
    ),
    "canonical form, year zero": (
        "0000-01-01T00:00:00Z,1.0,0\n",
        ParseError,
        "row 2: malformed timestamp '0000-01-01T00:00:00Z': "
        "year 0 is out of range",
    ),
    "duplicate in another form": (
        "2020-01-01T00:00:00Z,1.0,0\n"
        "2020-01-01T01:00:00Z,1.0,0\n"
        "2020-01-01T01:00:00+00:00,1.0,0\n",
        IntegrityError, "row 4: duplicate timestamp 2020-01-01T01:00:00+00:00",
    ),
    "duplicate across an offset": (
        "2020-01-01T03:00:00+02:00,1.0,0\n"
        "2020-01-01T02:00:00Z,1.0,0\n"
        "2020-01-01T01:00:00Z,1.0,0\n",
        IntegrityError, "row 4: duplicate timestamp 2020-01-01T01:00:00Z",
    ),
    "two duplicates, the first named": (
        "2020-01-01T00:00:00Z,1.0,0\n"
        "2020-01-01T01:00:00Z,1.0,0\n"
        "2020-01-01T02:00:00+01:00,1.0,0\n"
        "2020-01-01T00:00:00Z,1.0,0\n",
        IntegrityError, "row 4: duplicate timestamp 2020-01-01T02:00:00+01:00",
    ),
    "bad number": (
        "2020-01-01T00:00:00Z,abc,0\n",
        ParseError, "feature 'load' at 2020-01-01T00:00:00Z: bad number 'abc'",
    ),
    "bad number keeps its spaces": (
        "2020-01-01T00:00:00Z,1.0,0\n2020-01-01T01:00:00Z, 1.5x ,0\n",
        ParseError, "feature 'load' at 2020-01-01T01:00:00Z: bad number ' 1.5x '",
    ),
    "bad number in a categorical": (
        "2020-01-01T00:00:00Z,1.0,yes\n",
        ParseError, "feature 'flag' at 2020-01-01T00:00:00Z: bad number 'yes'",
    ),
    "fractional categorical": (
        "2020-01-01T00:00:00Z,1.0,0.5\n",
        SchemaError,
        "feature 'flag' at 2020-01-01T00:00:00Z: value '0.5' outside [0, 2)",
    ),
    "categorical above range": (
        "2020-01-01T00:00:00Z,1.0,1\n2020-01-01T01:00:00Z,1.0,2\n",
        SchemaError,
        "feature 'flag' at 2020-01-01T01:00:00Z: value '2' outside [0, 2)",
    ),
    "negative categorical": (
        "2020-01-01T00:00:00Z,1.0,-1\n",
        SchemaError,
        "feature 'flag' at 2020-01-01T00:00:00Z: value '-1' outside [0, 2)",
    ),
    "row fault after a cell fault": (
        "2020-01-01T00:00:00Z,abc,0\n2020-01-01T01:00,1.0,0\n",
        ParseError, "row 3: timestamp '2020-01-01T01:00' lacks a UTC offset",
    ),
    "short row after a duplicate": (
        "2020-01-01T00:00:00Z,1.0,0\n2020-01-01T00:00:00Z,1.0,0\n2020-01-01T01:00:00Z\n",
        IntegrityError, "row 3: duplicate timestamp 2020-01-01T00:00:00Z",
    ),
    "bad stamp before a short row": (
        "2020-01-01T00:00:00Z,1.0,0\nnoon,1.0,0\n2020-01-01T01:00:00Z\n",
        ParseError,
        "row 3: malformed timestamp 'noon': Invalid isoformat string: 'noon'",
    ),
    "cell faults in two columns, earlier row wins": (
        "2020-01-01T00:00:00Z,1.0,0\n"
        "2020-01-01T01:00:00Z,1.0,7\n"
        "2020-01-01T02:00:00Z,abc,0\n",
        SchemaError,
        "feature 'flag' at 2020-01-01T01:00:00Z: value '7' outside [0, 2)",
    ),
    "cell faults in one column, earlier row wins": (
        "2020-01-01T00:00:00Z,1.0,7\n2020-01-01T01:00:00Z,1.0,x\n",
        SchemaError,
        "feature 'flag' at 2020-01-01T00:00:00Z: value '7' outside [0, 2)",
    ),
    "cell faults in one row, earlier column wins": (
        "2020-01-01T00:00:00Z,abc,7\n",
        ParseError, "feature 'load' at 2020-01-01T00:00:00Z: bad number 'abc'",
    ),
    "cell faults follow file order, not time order": (
        "2020-01-01T05:00:00Z,1.0,9\n2020-01-01T01:00:00Z,abc,0\n",
        SchemaError,
        "feature 'flag' at 2020-01-01T05:00:00Z: value '9' outside [0, 2)",
    ),
}


class TestLoadCsvErrors:
    """Each fault raises its type and exact message, first fault first."""

    @pytest.mark.parametrize("case", sorted(LOAD_ERRORS))
    def test_type_and_message(self, tmp_path, case):
        body, exc_type, message = LOAD_ERRORS[case]
        with pytest.raises(exc_type) as info:
            _load_text(tmp_path, body)
        assert str(info.value) == message

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,load,flag\n\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_csv(path, FLAG_SCHEMA)
        assert str(info.value) == f"{path} holds no data rows"


class TestNonFiniteCells:
    """A NaN or infinite cell is a data error that names its feature and hour."""

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", " NaN ", "-Infinity"])
    @pytest.mark.parametrize("column", ["load", "flag"])
    def test_named_parse_error(self, tmp_path, text, column):
        cells = {"load": "1.0", "flag": "0"}
        cells[column] = text
        body = (
            "2020-01-01T00:00:00Z,1.0,0\n"
            f"2020-01-01T01:00:00Z,{cells['load']},{cells['flag']}\n"
        )
        with pytest.raises(ParseError) as info:
            _load_text(tmp_path, body)
        assert str(info.value) == (
            f"feature {column!r} at 2020-01-01T01:00:00Z: non-finite value {text!r}"
        )

    def test_earlier_cell_fault_wins(self, tmp_path):
        body = "2020-01-01T00:00:00Z,1.0,5\n2020-01-01T01:00:00Z,nan,0\n"
        with pytest.raises(SchemaError, match="value '5' outside"):
            _load_text(tmp_path, body)


class TestTimestampForms:
    def test_offsets_and_order_give_the_canonical_frame(self, tmp_path):
        canonical = (
            "timestamp,load,flag\n"
            "2020-01-01T00:00:00Z,10.5,1\n"
            "2020-01-01T01:00:00Z,11.0,0\n"
            "2020-01-01T03:00:00Z,,1\n"
            "2020-01-01T04:00:00Z,13.25,\n"
            "2020-01-01T07:00:00Z,14.0,0\n"
        )
        mixed = (
            "timestamp,load,flag\n"
            "2020-01-01T09:00:00+02:00,14.0,0\n"
            "2020-01-01T01:00:00+00:00,11.0,0\n"
            "\n"
            "2020-01-01T04:00:00Z,13.25,\n"
            "2019-12-31T23:00:00-01:00,10.5,1\n"
            " 2020-01-01T03:00:00Z ,,1\n"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(canonical, encoding="utf-8")
        b.write_text(mixed, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = load_csv(a, FLAG_SCHEMA)
            got = load_csv(b, FLAG_SCHEMA)
        assert want.n_rows == 8
        assert got.timestamps.tobytes() == want.timestamps.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert got.missing.tobytes() == want.missing.tobytes()


def _forward_fill_reference(values, missing):
    """The per-cell loop ``forward_fill`` replaced, kept as its reference."""
    values, missing = values.copy(), missing.copy()
    for j in range(values.shape[1]):
        last = None
        for i in range(values.shape[0]):
            if not missing[i, j]:
                last = values[i, j]
            elif last is not None:
                values[i, j] = last
                missing[i, j] = False
    return values, missing


class TestForwardFillMatchesLoop:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        frame = small_frame(n=120, seed=seed)
        missing = rng.random(frame.missing.shape) < [0.1, 0.5, 0.9][seed % 3]
        missing[: seed % 4, seed % 3] = True  # leading gap in one column
        values = frame.values.copy()
        values[missing] = np.nan
        self._check(frame.with_values(values, missing))

    def test_column_missing_from_the_start_and_all_missing_column(self):
        frame = small_frame(n=50, seed=7)
        missing = np.zeros(frame.missing.shape, bool)
        missing[:20, 0] = True  # missing from the start
        missing[:, 1] = True  # never observed
        missing[30:, 2] = True  # missing to the end
        values = frame.values.copy()
        values[missing] = np.nan
        filled = self._check(frame.with_values(values, missing))
        assert filled.missing[:20, 0].all() and not filled.missing[20:, 0].any()
        assert filled.missing[:, 1].all()
        assert (filled.values[30:, 2] == values[29, 2]).all()

    @staticmethod
    def _check(frame):
        want_values, want_missing = _forward_fill_reference(frame.values, frame.missing)
        got = forward_fill(frame)
        assert got.values.tobytes() == want_values.tobytes()
        assert got.missing.tobytes() == want_missing.tobytes()
        return got


def _write_csv_reference(frame, path):
    """The per-cell writer ``write_csv`` replaced, kept as its reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp"] + [s.name for s in frame.specs])
        for i in range(frame.n_rows):
            cells = [format_timestamp(frame.timestamps[i])]
            for j, spec in enumerate(frame.specs):
                v = frame.values[i, j]
                if np.isnan(v):
                    cells.append("")
                elif spec.kind == CATEGORICAL:
                    cells.append(str(int(v)))
                else:
                    cells.append(repr(float(v)))
            writer.writerow(cells)


class TestWriteCsvMatchesLoop:
    def _check(self, frame, tmp_path):
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        _write_csv_reference(frame, want)
        write_csv(frame, got)
        assert got.read_bytes() == want.read_bytes()

    def test_synthetic_year(self, tmp_path):
        self._check(synth_generate(365, 1), tmp_path)

    def test_missing_cells_in_every_column(self, tmp_path):
        frame = synth_generate(20, 2)
        missing = np.random.default_rng(2).random(frame.missing.shape) < 0.3
        missing[0] = True
        missing[-1] = True
        values = frame.values.copy()
        values[missing] = np.nan
        self._check(frame.with_values(values, missing), tmp_path)

    def test_extreme_floats(self, tmp_path):
        frame = small_frame(n=6)
        values = frame.values.copy()
        values[:, 1] = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 1e16, -2.5e-7]
        self._check(frame.with_values(values), tmp_path)

    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    def test_block_edges(self, tmp_path, n):
        frame = small_frame(n=n)
        missing = frame.missing.copy()
        missing[1021:1027:2, 0] = True  # blanks on both sides of the edge at row 1024
        missing[1022:1026, 2] = True
        self._check(frame.with_values(frame.values, missing), tmp_path)

    def test_one_row(self, tmp_path):
        self._check(small_frame(n=1), tmp_path)

    def test_column_missing_in_every_row(self, tmp_path):
        frame = small_frame(n=50)
        missing = frame.missing.copy()
        missing[:, 1:] = True  # a continuous and a categorical column
        self._check(frame.with_values(frame.values, missing), tmp_path)

    def test_category_at_cardinality_minus_one(self, tmp_path):
        frame = small_frame(n=30)
        values = frame.values.copy()
        values[::2, 2] = 23.0  # hour's cardinality is 24
        self._check(frame.with_values(values), tmp_path)

    def test_name_that_needs_quoting(self, tmp_path):
        frame = small_frame(n=5)
        specs = (frame.specs[0], FeatureSpec("a,b", CONTINUOUS, EXOGENOUS), frame.specs[2])
        self._check(TimeSeriesFrame(frame.timestamps, specs, frame.values, frame.missing), tmp_path)
        header = (tmp_path / "got.csv").read_text().splitlines()[0]
        assert header == 'timestamp,load,"a,b",hour'


class TestWriteTable:
    def test_table_bytes(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = (row for row in [["[0.1, 0.2)", None, 0.1], ["x", 1e-300, 7]])
        write_table(path, ["label", "a", "b"], rows)
        assert path.read_bytes() == b'label,a,b\n"[0.1, 0.2)",,0.1\nx,1e-300,7\n'

    def test_json_bytes(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"b": [0.1, None], "a": 1e-300, "label": "[0.1, 0.2)", "n": 7})
        assert path.read_bytes() == (
            b'{\n  "a": 1e-300,\n  "b": [\n    0.1,\n    null\n  ],\n'
            b'  "label": "[0.1, 0.2)",\n  "n": 7\n}\n'
        )


class TestCategoricalCheck:
    def test_first_bad_category(self):
        assert _first_bad_category(np.array([0.0, 1.0, 2.0]), 3) is None
        assert _first_bad_category(np.array([], dtype=float), 3) is None
        assert _first_bad_category(np.array([0.0, 3.0, 0.5]), 3) == 1
        assert _first_bad_category(np.array([1.0, 0.5, -1.0]), 3) == 1
        assert _first_bad_category(np.array([1.0, 2.0, -1.0]), 3) == 2
        assert _first_bad_category(np.array([1.0, np.inf]), 3) == 1
        assert _first_bad_category(np.array([np.nan, 1.0]), 3) == 0

    @pytest.mark.parametrize(
        "cell, message",
        [
            (2.5, "categorical feature 'hour' has non-integer values"),
            (24.0, "categorical feature 'hour' outside [0, 24)"),
            (-1.0, "categorical feature 'hour' outside [0, 24)"),
        ],
    )
    def test_frame_messages(self, cell, message):
        frame = small_frame(n=5)
        values = frame.values.copy()
        values[3, 2] = cell
        with pytest.raises(SchemaError) as info:
            frame.with_values(values)
        assert str(info.value) == message


def _loop_fault(specs, values, missing):
    """The frame check written cell by cell, column by column: the reference
    the vectorised check in ``TimeSeriesFrame`` must agree with."""
    for j in range(len(specs)):
        for i in range(len(values)):
            if not missing[i, j] and not np.isfinite(values[i, j]):
                return IntegrityError, "non-missing cells must be finite"
    for j, spec in enumerate(specs):
        if spec.kind != CATEGORICAL:
            continue
        for i in range(len(values)):
            v = values[i, j]
            if missing[i, j] or (v == int(v) and 0 <= v < spec.cardinality):
                continue
            if v != int(v):
                return SchemaError, f"categorical feature {spec.name!r} has non-integer values"
            k = spec.cardinality
            return SchemaError, f"categorical feature {spec.name!r} outside [0, {k})"
    return None


class TestVectorisedFrameCheck:
    SPECS = (
        FeatureSpec("load", CONTINUOUS, TARGET),
        FeatureSpec("day", CATEGORICAL, EXOGENOUS, cardinality=7),
        FeatureSpec("temperature", CONTINUOUS, EXOGENOUS),
        FeatureSpec("flag", CATEGORICAL, EXOGENOUS, cardinality=2),
    )

    def build(self, values, missing=None):
        values = np.asarray(values, dtype=float)
        if missing is None:
            missing = np.zeros(values.shape, dtype=bool)
        return TimeSeriesFrame(hourly_timestamps(len(values)), self.SPECS, values, missing)

    def clean(self, n=6):
        return np.column_stack(
            [np.full(n, 10.0), np.arange(n) % 7, np.linspace(-1, 1, n), np.arange(n) % 2]
        ).astype(float)

    def test_first_bad_column_in_spec_order_wins(self):
        values = self.clean()
        values[1, 3] = 5.0  # flag: an earlier row, a later column
        values[4, 1] = 0.5  # day
        with pytest.raises(SchemaError) as info:
            self.build(values)
        assert str(info.value) == "categorical feature 'day' has non-integer values"

    @pytest.mark.parametrize(
        "first, second, message",
        [
            (2.5, 9.0, "categorical feature 'day' has non-integer values"),
            (9.0, 2.5, "categorical feature 'day' outside [0, 7)"),
            (-1.0, 0.5, "categorical feature 'day' outside [0, 7)"),
        ],
    )
    def test_first_bad_row_picks_the_message(self, first, second, message):
        values = self.clean()
        values[2, 1] = first
        values[4, 1] = second
        with pytest.raises(SchemaError) as info:
            self.build(values)
        assert str(info.value) == message

    @pytest.mark.parametrize("junk", [np.nan, np.inf, -np.inf, 0.5, 99.0, -3.0])
    def test_junk_under_a_missing_cell_passes(self, junk):
        values = self.clean()
        missing = np.zeros(values.shape, dtype=bool)
        values[3, :] = junk
        missing[3, :] = True
        frame = self.build(values, missing)
        assert np.isnan(frame.values[3]).all()
        np.testing.assert_array_equal(frame.values[:3], self.clean()[:3])

    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_present_cell_raises(self, column, cell):
        values = self.clean()
        values[2, column] = cell
        with pytest.raises(IntegrityError, match="^non-missing cells must be finite$"):
            self.build(values)

    def test_matches_the_loop_on_random_faults(self):
        rng = np.random.default_rng(7)
        junk = np.array([np.nan, np.inf, -1.0, 0.5, 2.0, 7.0, 1.5, 3.0])
        outcomes = set()
        for _ in range(300):
            values = self.clean(8)
            missing = rng.random(values.shape) < 0.2
            faults = rng.random(values.shape) < 0.08
            values[faults] = rng.choice(junk, size=int(faults.sum()))
            expected = _loop_fault(self.SPECS, values, missing)
            outcomes.add(expected)
            if expected is None:
                self.build(values, missing)
                continue
            with pytest.raises(expected[0]) as info:
                self.build(values, missing)
            assert str(info.value) == expected[1]
        assert len(outcomes) == 6  # no fault, non-finite, and each message for both columns
