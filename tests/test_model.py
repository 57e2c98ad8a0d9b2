"""Embedding strategies, attention blocks, and the assembled forecaster."""
import numpy as np
import pytest

from loadcast import autodiff as ad
from loadcast.autodiff import Mat, RngStream
from loadcast.errors import ConfigError
from loadcast.frames import apply_scaler, fit_scaler
from loadcast.lags import LagSet, build_input
from loadcast.model import (
    Model,
    ModelConfig,
    ModelTrace,
    Quantizer,
    attention,
    forced_keep,
    param_count,
)

from conftest import small_frame, small_schema

LAGS = LagSet((24, 12, 3, 1))


def built_model(method="additive", **overrides):
    defaults = dict(
        method=method,
        d=4 if method != "svd" else None,
        heads=1 if method == "svd" else 2,
        encoder_layers=1,
        decoder_layers=2,
        horizon=4,
    )
    defaults.update(overrides)
    config = ModelConfig(**defaults)
    frame = small_frame(n=120, seed=0)
    scaler = fit_scaler(frame, (0, 120))
    scaled = apply_scaler(frame, scaler)
    model = Model.build(config, frame.specs, RngStream(3).split(0), scaler)
    x = build_input(scaled, 60, LAGS)
    return model, x, scaled, scaler


class TestModelConfig:
    def test_defaults(self):
        config = ModelConfig()
        assert config.method == "additive"
        assert config.embed_dim == 32
        assert config.heads == 2
        assert config.encoder_layers == 2
        assert config.decoder_layers == 2
        assert config.transformer_dropout == 0.1
        assert config.embedding_dropout == 0.2
        assert config.horizon == 24
        assert config.bins == 16

    def test_svd_forces_scalar_embeddings(self):
        assert ModelConfig(method="svd").embed_dim == 1
        with pytest.raises(ConfigError):
            ModelConfig(method="svd", d=32)

    def test_width_by_method(self):
        assert ModelConfig(method="additive", d=4).width(3) == 4
        assert ModelConfig(method="svd").width(3) == 3
        assert ModelConfig(method="concatenative", d=4).width(3) == 12

    def test_decoder_needs_a_layer(self):
        with pytest.raises(ConfigError):
            ModelConfig(decoder_layers=0)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            ModelConfig(method="stacked")

    def test_heads_must_divide_width(self):
        frame = small_frame(n=60)
        scaler = fit_scaler(frame, (0, 60))
        config = ModelConfig(method="additive", d=4, heads=3)
        with pytest.raises(ConfigError):
            Model.build(config, frame.specs, RngStream(0), scaler)


class TestAttention:
    def test_single_row_returns_v(self, rng):
        for _ in range(50):
            q = Mat(rng.standard_normal((1, 5)))
            k = Mat(rng.standard_normal((1, 5)))
            v = Mat(rng.standard_normal((1, 3)))
            out = attention(q, k, v)
            np.testing.assert_array_equal(out.values, v.values)

    def test_identical_keys_average_values(self, rng):
        q = Mat(rng.standard_normal((2, 4)))
        k = Mat(np.tile(rng.standard_normal((1, 4)), (5, 1)))
        v = Mat(rng.standard_normal((5, 3)))
        out = attention(q, k, v)
        expected = np.tile(v.values.mean(axis=0), (2, 1))
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_three_step_oracle(self, rng):
        q = Mat(rng.standard_normal((4, 8)))
        k = Mat(rng.standard_normal((6, 8)))
        v = Mat(rng.standard_normal((6, 5)))
        out = attention(q, k, v)
        scores = q.values @ k.values.T / np.sqrt(8)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.values, weights @ v.values, atol=1e-12)

    def test_trace_rows_sum_to_one(self, rng):
        trace = ModelTrace()
        attention(
            Mat(rng.standard_normal((3, 4))),
            Mat(rng.standard_normal((5, 4))),
            Mat(rng.standard_normal((5, 4))),
            trace,
        )
        assert len(trace.attention) == 1
        np.testing.assert_allclose(trace.attention[0].sum(axis=1), 1.0, atol=1e-12)

    def test_blocks_and_heads_match_separate_calls(self, rng):
        # 2 blocks of 3 query / 4 key rows, 2 heads of width 2 (values 3)
        q = Mat(rng.standard_normal((6, 4)))
        k = Mat(rng.standard_normal((8, 4)))
        v = Mat(rng.standard_normal((8, 6)))
        trace = ModelTrace()
        out = attention(q, k, v, trace, blocks=2, heads=2)
        assert [w.shape for w in trace.attention] == [(6, 4), (6, 4)]
        for b in range(2):
            qr, kr = slice(3 * b, 3 * b + 3), slice(4 * b, 4 * b + 4)
            for h in range(2):
                alone = ModelTrace()
                ref = attention(
                    Mat(q.values[qr, 2 * h : 2 * h + 2]),
                    Mat(k.values[kr, 2 * h : 2 * h + 2]),
                    Mat(v.values[kr, 3 * h : 3 * h + 3]),
                    alone,
                )
                np.testing.assert_allclose(
                    out.values[qr, 3 * h : 3 * h + 3], ref.values, atol=1e-12
                )
                np.testing.assert_allclose(
                    trace.attention[h][qr], alone.attention[0], atol=1e-12
                )

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ConfigError):
            attention(
                Mat(rng.standard_normal((2, 4))),
                Mat(rng.standard_normal((3, 5))),
                Mat(rng.standard_normal((3, 2))),
            )


class TestEmbedViews:
    def test_forced_target_only_zeroes_other_columns(self):
        model, x, _, _ = built_model("concatenative")
        z = model.embed_views(x, forced_keep(model.specs, []))
        d = model.config.embed_dim
        target_cols = slice(model.target_view * d, (model.target_view + 1) * d)
        other = np.delete(z.values, np.arange(*target_cols.indices(z.shape[1])), axis=1)
        np.testing.assert_array_equal(other, 0.0)
        assert np.any(z.values[:, target_cols] != 0.0)

    def test_additive_cancellation(self):
        model, x, scaled, _ = built_model("additive")
        # identical input columns with negated embedding maps cancel
        values = x.values.copy()
        values[:, 1] = values[:, 0]
        hour_table = model.params["embed/hour/table"]
        hour_table.values[...] = 0.0
        for name in ("w", "b"):
            model.params[f"embed/temperature/{name}"].values[...] = -(
                model.params[f"embed/load/{name}"].values
            )
        z = model.embed_views(values)
        np.testing.assert_allclose(z.values, 0.0, atol=1e-15)

    def test_svd_bin_center_hits_table_entry(self):
        model, x, _, scaler = built_model("svd", bins=4)
        q = model.quantizers["temperature"]
        values = x.values.copy()
        k = 2
        center = q.lo + (k + 0.5) * q.bin_width
        values[:, 1] = center
        z = model.embed_views(values)
        col = 1  # svd columns follow spec order, one per view
        table = model.params["embed/temperature/table"].values
        np.testing.assert_array_equal(z.values[:, col], np.full(len(values), table[k, 0]))

    def test_gates_scale_embeddings(self):
        model, x, _, _ = built_model("concatenative")
        base = model.embed_views(x).values.copy()
        model.params["gate/temperature"].values[...] = 2.0
        doubled = model.embed_views(x).values
        d = model.config.embed_dim
        cols = slice(d, 2 * d)  # temperature is the second view
        np.testing.assert_allclose(doubled[:, cols], 2.0 * base[:, cols], rtol=1e-12)

    def test_zero_rate_train_matches_eval_bitwise(self):
        model, x, _, _ = built_model("additive", embedding_dropout=0.0)
        a = model.embed_views(x, RngStream(0))
        b = model.embed_views(x, None)
        np.testing.assert_array_equal(a.values, b.values)

    def test_forced_mask_length_checked(self):
        model, x, _, _ = built_model("additive")
        with pytest.raises(ConfigError):
            model.embed_views(x, (True, False))


class TestMaskedGradients:
    def test_masked_view_gets_zero_parameter_gradient(self):
        model, x, _, _ = built_model("concatenative")
        mode = forced_keep(model.specs, ["hour"])  # temperature masked
        loss = ad.mean(model.forward(x, mode))
        ad.backward(loss)
        np.testing.assert_array_equal(
            model.params["embed/temperature/w"].grad, 0.0
        )
        np.testing.assert_array_equal(
            model.params["embed/temperature/b"].grad, 0.0
        )
        assert np.any(model.params["embed/load/w"].grad != 0.0)

    def test_full_ablation_equals_hand_zeroed_model(self):
        model, x, _, scaler = built_model("concatenative")
        masked = model.forward(x, forced_keep(model.specs, [])).values

        zeroed = Model.build(
            model.config, model.specs, RngStream(3).split(0), scaler
        )
        for name, p in model.parameters():
            zeroed.params[name].values[...] = p.values
        for spec in model.specs:
            if spec.name == "load":
                continue
            for suffix in ("table", "w", "b"):
                key = f"embed/{spec.name}/{suffix}"
                if key in zeroed.params:
                    zeroed.params[key].values[...] = 0.0
        np.testing.assert_array_equal(masked, zeroed.forward(x).values)


class TestEncoderDecoder:
    def test_zero_encoder_layers_is_identity(self):
        model, x, _, _ = built_model("additive", encoder_layers=0)
        z = model.embed_views(x)
        h = model.encode(z)
        np.testing.assert_array_equal(h.values, z.values)

    def test_eval_forward_deterministic(self):
        model, x, _, _ = built_model("concatenative")
        a = model.forward(x).values
        b = model.forward(x).values
        np.testing.assert_array_equal(a, b)

    def test_output_shape_is_one_by_horizon(self):
        for method in ("additive", "svd", "concatenative"):
            model, x, _, _ = built_model(method)
            out = model.forward(x)
            assert out.shape == (1, model.config.horizon)

    def test_mean_head_reduces_all_rows(self):
        model, x, _, _ = built_model("additive", head_reduce="mean")
        out = model.forward(x)
        assert out.shape == (1, model.config.horizon)

    def test_train_dropout_changes_output(self):
        model, x, _, _ = built_model("additive")
        a = model.forward(x, RngStream(1)).values
        b = model.forward(x, None).values
        assert not np.array_equal(a, b)

    def test_trace_collects_per_head_per_layer(self):
        model, x, _, _ = built_model("additive")  # 1 enc + 2 dec layers, 2 heads
        trace = ModelTrace()
        model.forward(x, trace=trace)
        assert len(trace.attention) == 2 * (1 + 2)


class TestDropoutDraws:
    """A training forward draws each example's view mask, then one factor
    per sublayer; each draw advances the stream's counter by one."""

    @pytest.mark.parametrize("encoder_layers, decoder_layers", [(1, 2), (0, 1), (2, 1)])
    def test_both_dropouts(self, encoder_layers, decoder_layers):
        model, x, _, _ = built_model(
            "additive", encoder_layers=encoder_layers, decoder_layers=decoder_layers
        )
        rng = RngStream(7)
        model.forward_batch(np.stack([x.values] * 5), rng)
        assert rng.counter == 5 * (1 + 2 * (encoder_layers + decoder_layers))

    def test_embedding_dropout_only(self):
        model, x, _, _ = built_model("additive", transformer_dropout=0.0)
        rng = RngStream(7)
        model.forward_batch(np.stack([x.values] * 5), rng)
        assert rng.counter == 5

    def test_embed_views_draws_view_mask_only(self):
        model, x, _, _ = built_model("additive")
        rng = RngStream(7)
        model.embed_views(x, rng)
        assert rng.counter == 1


class TestQuantizer:
    def test_piecewise_constant_within_bin(self):
        q = Quantizer(lo=-2.0, hi=2.0, bins=4)
        inside = np.array([-1.9, -1.5, -1.01])
        np.testing.assert_array_equal(q.index(inside), 0)

    def test_clamps_outside_range(self):
        q = Quantizer(lo=-2.0, hi=2.0, bins=4)
        assert q.index(np.array([-99.0]))[0] == 0
        assert q.index(np.array([99.0]))[0] == 3

    def test_edges_span_range(self):
        q = Quantizer(lo=0.0, hi=8.0, bins=4)
        np.testing.assert_allclose(q.edges(), [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_degenerate_range_rejected(self):
        with pytest.raises(ConfigError):
            Quantizer(lo=1.0, hi=1.0, bins=4)


class TestParamCount:
    def test_matches_live_enumeration(self):
        frame = small_frame(n=120)
        scaler = fit_scaler(frame, (0, 120))
        for method in ("additive", "svd", "concatenative"):
            config = ModelConfig(
                method=method,
                d=4 if method != "svd" else None,
                heads=1,
                encoder_layers=2,
                decoder_layers=2,
                horizon=6,
            )
            model = Model.build(config, frame.specs, RngStream(0), scaler)
            assert param_count(config, frame.specs)["total"] == model.n_params()

    def test_extra_decoder_layer_adds_constant_amount(self):
        specs = small_schema()

        def total(layers):
            config = ModelConfig(method="additive", d=4, heads=2, decoder_layers=layers, horizon=4)
            return param_count(config, specs)["total"]

        assert total(2) - total(1) == total(3) - total(2)

    def test_component_sum(self):
        specs = small_schema()
        counts = param_count(ModelConfig(method="svd", horizon=4), specs)
        parts = counts["embeddings"] + counts["gates"] + counts["encoder"] + counts["decoder"] + counts["head"]
        assert parts == counts["total"]
