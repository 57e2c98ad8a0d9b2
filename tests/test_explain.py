"""View isolation, embedding dumps, hand-rolled SVD, and artifact files."""
import json

import numpy as np
import pytest

from loadcast.autodiff import RngStream
from loadcast.errors import ConfigError
from loadcast.evaluation import forecast_rollout
from loadcast.explain import (
    EmbeddingDump,
    ViewGroup,
    default_groups,
    dump_embeddings,
    isolate_view,
    isolation_panels,
    jacobi_svd,
    svd_embeddings,
    validate_groups,
    write_embeddings,
    write_panels,
    write_svd,
)
from loadcast.frames import apply_scaler, fit_scaler, standard_schema
from loadcast.lags import LagSet
from loadcast.model import Model, ModelConfig, forced_keep

from conftest import small_frame, small_schema

LAGS = LagSet((24, 12, 1))


def built(method="additive", n=300, seed=2, **overrides):
    frame = small_frame(n=n, seed=seed)
    scaler = fit_scaler(frame, (0, n))
    defaults = dict(
        method=method, heads=1, encoder_layers=1, decoder_layers=1, horizon=6,
        transformer_dropout=0.0, embedding_dropout=0.0,
    )
    if method != "svd":
        defaults["d"] = 4
    defaults.update(overrides)
    config = ModelConfig(**defaults)
    model = Model.build(config, frame.specs, RngStream(0).split(0), scaler)
    return model, frame, scaler


class TestDefaultGroups:
    def test_standard_schema_partition(self):
        from loadcast.calendars import calendar_specs

        specs = tuple(standard_schema(holiday_cardinality=16)) + tuple(
            calendar_specs(16)
        )
        groups = default_groups(specs)
        by_name = {g.name: g.members for g in groups}
        assert by_name == {
            "long_term": ("month", "season"),
            "short_term": ("hour", "weekday"),
            "temperature": ("temperature", "dewpoint"),
            "weather": ("wind_speed", "humidity", "rainfall"),
            "holiday": ("holiday_id", "school", "holiday", "school_period"),
        }
        validate_groups(groups, specs)

    def test_trims_to_present_views(self):
        groups = default_groups(small_schema())
        by_name = {g.name: g.members for g in groups}
        assert by_name == {
            "short_term": ("hour",),
            "temperature": ("temperature",),
        }
        validate_groups(groups, small_schema())

    def test_unrecognised_views_fall_into_other(self):
        from loadcast.frames import CONTINUOUS, EXOGENOUS, FeatureSpec

        specs = small_schema() + (
            FeatureSpec("cloud_cover", CONTINUOUS, EXOGENOUS),
        )
        groups = default_groups(specs)
        assert groups[-1] == ViewGroup("other", ("cloud_cover",))
        validate_groups(groups, specs)


class TestValidateGroups:
    def test_unknown_member(self):
        with pytest.raises(ConfigError, match="unknown or target"):
            validate_groups((ViewGroup("a", ("nope",)),), small_schema())

    def test_target_not_allowed(self):
        with pytest.raises(ConfigError, match="unknown or target"):
            validate_groups(
                (ViewGroup("a", ("load", "temperature", "hour")),), small_schema()
            )

    def test_duplicate_member(self):
        groups = (
            ViewGroup("a", ("temperature",)),
            ViewGroup("b", ("temperature", "hour")),
        )
        with pytest.raises(ConfigError, match="appears in groups"):
            validate_groups(groups, small_schema())

    def test_uncovered_view(self):
        with pytest.raises(ConfigError, match="not covered"):
            validate_groups((ViewGroup("a", ("temperature",)),), small_schema())


class TestIsolateView:
    def test_all_views_kept_equals_combined(self):
        model, frame, scaler = built()
        rng = (200, 250)
        combined = isolate_view(model, frame, scaler, None, rng, 6, LAGS)
        everything = ViewGroup("everything", ("temperature", "hour"))
        kept = isolate_view(model, frame, scaler, everything, rng, 6, LAGS)
        np.testing.assert_array_equal(combined.values, kept.values)

    def test_empty_group_equals_zeroed_gates(self):
        model, frame, scaler = built()
        rng = (200, 250)
        nothing = isolate_view(
            model, frame, scaler, ViewGroup("nothing", ()), rng, 6, LAGS
        )
        zeroed, _, _ = built()
        for spec in zeroed.specs:
            if spec.role != "target":
                zeroed.params[f"gate/{spec.name}"].values[...] = 0.0
        bare = isolate_view(zeroed, frame, scaler, None, rng, 6, LAGS)
        np.testing.assert_array_equal(nothing.values, bare.values)

    def test_single_view_panel_differs_from_combined(self):
        model, frame, scaler = built()
        rng = (200, 250)
        combined = isolate_view(model, frame, scaler, None, rng, 6, LAGS)
        only_temp = isolate_view(
            model, frame, scaler, ViewGroup("temperature", ("temperature",)),
            rng, 6, LAGS,
        )
        assert not np.array_equal(combined.values, only_temp.values)

    def test_tiling_is_contiguous(self):
        model, frame, scaler = built()
        panel = isolate_view(model, frame, scaler, None, (200, 226), 6, LAGS)
        # anchors 200, 206, 212, 218 fit; 224 would run past the range
        assert len(panel.values) == 24
        assert panel.timestamps[0] == frame.timestamps[201]
        steps = np.diff(panel.timestamps).astype("timedelta64[h]").astype(int)
        assert set(steps) == {1}

    def test_range_shorter_than_horizon_rejected(self):
        model, frame, scaler = built()
        with pytest.raises(ConfigError, match="shorter than one horizon"):
            isolate_view(model, frame, scaler, None, (200, 205), 6, LAGS)


class TestBatchedRollout:
    @pytest.mark.parametrize("method", ["additive", "concatenative", "svd"])
    @pytest.mark.parametrize(
        "group", [None, ViewGroup("temperature", ("temperature",))]
    )
    def test_panel_equals_tiled_rollouts(self, method, group):
        model, frame, scaler = built(method)
        panel = isolate_view(model, frame, scaler, group, (200, 250), 6, LAGS)
        scaled = apply_scaler(frame, scaler)
        kw = {}
        if group is not None:
            kw["mode"] = forced_keep(model.specs, group.members)
        tiles = np.concatenate(
            [
                forecast_rollout(model, scaled, t0, 6, LAGS, scaler, **kw)
                for t0 in range(200, 244, 6)
            ]
        )
        np.testing.assert_allclose(panel.values, tiles, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(panel.timestamps, frame.timestamps[201:249])

    def test_panels_equal_separate_isolations(self):
        model, frame, scaler = built()
        groups = default_groups(frame.specs)
        panels = isolation_panels(model, frame, scaler, groups, (200, 226), 6, LAGS)
        for panel, group in zip(panels, (None, *groups)):
            alone = isolate_view(model, frame, scaler, group, (200, 226), 6, LAGS)
            np.testing.assert_array_equal(panel.values, alone.values)


class TestIsolationPanels:
    def test_combined_plus_one_per_group(self):
        model, frame, scaler = built()
        groups = default_groups(frame.specs)
        panels = isolation_panels(model, frame, scaler, groups, (200, 226), 6, LAGS)
        assert [p.name for p in panels] == [
            "combined", "short_term", "temperature"
        ]

    def test_groups_validated_first(self):
        model, frame, scaler = built()
        with pytest.raises(ConfigError):
            isolation_panels(
                model, frame, scaler, (ViewGroup("a", ("temperature",)),),
                (200, 226), 6, LAGS,
            )


class TestDumpEmbeddings:
    def test_fresh_gates_are_one(self):
        model, _, _ = built()
        dump = dump_embeddings(model)
        assert set(dump.gates) == {"load", "temperature", "hour"}
        assert all(g == 1.0 for g in dump.gates.values())

    def test_categorical_cells_ordered_by_category(self):
        model, _, _ = built()
        entries = {e["view"]: e for e in dump_embeddings(model).views}
        hour = entries["hour"]
        assert hour["labels"] == [str(i) for i in range(24)]
        table = model.params["embed/hour/table"].values
        expected = [float(np.linalg.norm(row)) for row in table]
        assert hour["cells"] == expected

    def test_additive_continuous_views_report_norms(self):
        model, _, _ = built()
        entries = {e["view"]: e for e in dump_embeddings(model).views}
        temp = entries["temperature"]
        assert "cells" not in temp
        assert temp["weight_norm"] > 0.0
        assert "bias_norm" in temp

    def test_quantized_continuous_views_report_bins(self):
        model, _, _ = built(method="svd")
        entries = {e["view"]: e for e in dump_embeddings(model).views}
        temp = entries["temperature"]
        bins = model.quantizers["temperature"].bins
        assert len(temp["cells"]) == bins
        assert temp["labels"][0].startswith("[")
        assert temp["units"] == "scaled"

    def test_dict_round_trip(self):
        model, _, _ = built()
        dump = dump_embeddings(model)
        again = EmbeddingDump.from_dict(dump.to_dict())
        assert again == dump


class TestJacobiSvd:
    def test_diagonal(self):
        u, s, vt = jacobi_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0], atol=1e-12)

    def test_rank_one(self, rng):
        u_vec = rng.standard_normal(7)
        v_vec = rng.standard_normal(4)
        a = np.outer(u_vec, v_vec)
        _, s, _ = jacobi_svd(a)
        expected = np.linalg.norm(u_vec) * np.linalg.norm(v_vec)
        assert s[0] == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(s[1:], 0.0, atol=1e-10 * expected)

    def test_reconstruction_and_gram_eigenvalues(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 12))
            n = int(rng.integers(1, 12))
            a = rng.standard_normal((m, n))
            u, s, vt = jacobi_svd(a)
            recon = u @ np.diag(s) @ vt
            assert np.linalg.norm(recon - a) <= 1e-9 * max(np.linalg.norm(a), 1e-30)
            k = min(m, n)
            gram = a.T @ a if n <= m else a @ a.T
            eigs = np.sort(np.linalg.eigvalsh(gram))[::-1]
            sigma = np.sqrt(np.clip(eigs, 0.0, None))[:k]
            np.testing.assert_allclose(s[:k], sigma, atol=1e-8)

    def test_orthogonal_factors(self, rng):
        a = rng.standard_normal((9, 5))
        u, s, vt = jacobi_svd(a)
        np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(vt @ vt.T, np.eye(5), atol=1e-10)

    def test_descending_order(self, rng):
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            _, s, _ = jacobi_svd(a)
            assert np.all(np.diff(s) <= 1e-12)

    def test_row_permutation_invariance(self, rng):
        a = rng.standard_normal((8, 4))
        _, s1, _ = jacobi_svd(a)
        _, s2, _ = jacobi_svd(a[::-1].copy())
        np.testing.assert_allclose(s1, s2, atol=1e-10)

    def test_wide_matrix(self, rng):
        a = rng.standard_normal((3, 10))
        u, s, vt = jacobi_svd(a)
        assert u.shape == (3, 3) and s.shape == (3,) and vt.shape == (3, 10)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-10)

    def test_zero_matrix(self):
        u, s, vt = jacobi_svd(np.zeros((4, 3)))
        np.testing.assert_array_equal(s, np.zeros(3))
        np.testing.assert_array_equal(u @ np.diag(s) @ vt, np.zeros((4, 3)))

    def test_one_by_one(self):
        _, s, _ = jacobi_svd(np.array([[-2.5]]))
        np.testing.assert_allclose(s, [2.5])

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            jacobi_svd(np.zeros(3))


class TestSvdEmbeddings:
    def test_one_entry_per_view_plus_stack(self):
        model, _, _ = built()
        report = svd_embeddings(model)
        names = [e["matrix"] for e in report.entries]
        assert names == ["load", "temperature", "hour", "stacked"]
        for entry in report.entries:
            assert entry["reconstruction_error"] <= 1e-9 * (
                1.0 + max(entry["singular_values"], default=0.0)
            )

    def test_stacked_rows_are_the_sum(self):
        model, _, _ = built()
        report = svd_embeddings(model)
        entries = {e["matrix"]: e for e in report.entries}
        per_view = sum(
            entries[v]["shape"][0] for v in ("load", "temperature", "hour")
        )
        assert entries["stacked"]["shape"][0] == per_view


class TestArtifactFiles:
    def test_panels_written_with_manifest(self, tmp_path):
        model, frame, scaler = built()
        groups = default_groups(frame.specs)
        panels = isolation_panels(model, frame, scaler, groups, (200, 226), 6, LAGS)
        write_panels(tmp_path, panels)
        manifest = json.loads((tmp_path / "panels.json").read_text())
        files = {s["file"] for s in manifest["series"]}
        assert files == {
            "panel_combined.csv", "panel_short_term.csv", "panel_temperature.csv"
        }
        for name in files:
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "timestamp,forecast"
            assert len(lines) == 25

    def test_writers_byte_stable(self, tmp_path):
        model, frame, scaler = built()
        groups = default_groups(frame.specs)
        panels = isolation_panels(model, frame, scaler, groups, (200, 226), 6, LAGS)
        dump = dump_embeddings(model)
        svd = svd_embeddings(model)
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            write_panels(d, panels)
            write_embeddings(d, dump)
            write_svd(d, svd)
        for name in (
            "panels.json", "panel_combined.csv", "embeddings.csv", "gates.csv",
            "embeddings.json", "svd.csv", "svd.json",
        ):
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes()
            assert b"\r" not in a
