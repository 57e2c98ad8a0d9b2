"""Embedding strategies, attention blocks, and the assembled forecaster."""
import hashlib

import numpy as np
import pytest

from loadcast import autodiff as ad
from loadcast.autodiff import Mat, RngStream
from loadcast.errors import ConfigError
from loadcast.frames import CONTINUOUS, TimeSeriesFrame, apply_scaler, fit_scaler
from loadcast.lags import LagSet, build_batch
from loadcast.model import (
    METHODS,
    Model,
    ModelConfig,
    ModelTrace,
    Quantizer,
    attention,
    forced_keep,
    param_count,
)
from loadcast.training import SplitSpec, TrainConfig, train

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
    x = lag_rows(scaled, [60])[0]
    return model, x, scaled, scaler


def lag_rows(scaled, anchors):
    """``(anchors, L, F)`` lag rows, from ``build_batch`` with no targets."""
    return build_batch(scaled, anchors, LAGS, 0, scaled.values[:, scaled.target_index])[0]


def embed_one(model, x, mode=None):
    """One example's embedding, drawing only the view mask under ``mode``."""
    return model._embed(x, model._draw_masks(mode, 1, len(x), 0)[0])


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
        z = embed_one(model, x, forced_keep(model.specs, []))
        d = model.config.embed_dim
        target_cols = slice(model.target_view * d, (model.target_view + 1) * d)
        other = np.delete(z.values, np.arange(*target_cols.indices(z.shape[1])), axis=1)
        np.testing.assert_array_equal(other, 0.0)
        assert np.any(z.values[:, target_cols] != 0.0)

    def test_additive_cancellation(self):
        model, x, scaled, _ = built_model("additive")
        # identical input columns with negated embedding maps cancel
        values = x.copy()
        values[:, 1] = values[:, 0]
        hour_table = model.params["embed/hour/table"]
        hour_table.values[...] = 0.0
        for name in ("w", "b"):
            model.params[f"embed/temperature/{name}"].values[...] = -(
                model.params[f"embed/load/{name}"].values
            )
        z = embed_one(model, values)
        np.testing.assert_allclose(z.values, 0.0, atol=1e-15)

    def test_svd_bin_center_hits_table_entry(self):
        model, x, _, scaler = built_model("svd", bins=4)
        q = model.quantizers["temperature"]
        values = x.copy()
        k = 2
        center = q.lo + (k + 0.5) * q.bin_width
        values[:, 1] = center
        z = embed_one(model, values)
        col = 1  # svd columns follow spec order, one per view
        table = model.params["embed/temperature/table"].values
        np.testing.assert_array_equal(z.values[:, col], np.full(len(values), table[k, 0]))

    def test_gates_scale_embeddings(self):
        model, x, _, _ = built_model("concatenative")
        base = embed_one(model, x).values.copy()
        model.params["gate/temperature"].values[...] = 2.0
        doubled = embed_one(model, x).values
        d = model.config.embed_dim
        cols = slice(d, 2 * d)  # temperature is the second view
        np.testing.assert_allclose(doubled[:, cols], 2.0 * base[:, cols], rtol=1e-12)

    def test_zero_rate_train_matches_eval_bitwise(self):
        model, x, _, _ = built_model("additive", embedding_dropout=0.0)
        a = embed_one(model, x, RngStream(0))
        b = embed_one(model, x, None)
        np.testing.assert_array_equal(a.values, b.values)

    def test_forced_mask_length_checked(self):
        model, x, _, _ = built_model("additive")
        with pytest.raises(ConfigError):
            embed_one(model, x, (True, False))


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


def op_nodes(out):
    """Nodes with parents in the graph under ``out``."""
    seen, todo, ops = set(), [out], 0
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += bool(node._parents)
            todo.extend(node._parents)
    return ops


def per_view_embedding(model, x, keep):
    """The embedding as a chain of nodes per view: a lookup or affine map,
    the gate, the mask where a block drops the view, then a running sum or,
    for the side-by-side methods, a 0/1 matmul that places the view in its
    own columns.  Same arithmetic as ``ad.embed``, one step at a time."""
    rows, d, f = len(x) // len(keep), model.config.embed_dim, model.n_views
    out = None
    for i, spec in enumerate(model.specs):
        prefix = f"embed/{spec.name}/"
        p = {k[len(prefix):]: v for k, v in model.params.items() if k.startswith(prefix)}
        if "table" in p:
            codes = x[:, i]
            if spec.kind == CONTINUOUS:
                codes = model.quantizers[spec.name].index(codes)
            z = ad.take_rows(p["table"], codes.astype(np.int64))
        else:
            z = ad.affine(Mat(x[:, i].reshape(-1, 1)), p["w"], p["b"])
        z = ad.mul(z, model.params[f"gate/{spec.name}"])
        if not keep[:, i].all():
            z = ad.mul(z, Mat(np.repeat(keep[:, i], rows)[:, None]))
        if model.config.method != "additive":
            place = np.zeros((d, f * d))
            place[:, i * d : (i + 1) * d] = np.eye(d)
            z = z @ Mat(place)
        out = z if out is None else ad.add(out, z)
    return out


class TestEmbedNode:
    """Every view embeds in one tape node, which keeps the lookup checks."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("train", [False, True])
    def test_calendar_view_adds_no_op_node(self, method, train):
        full = small_frame(n=120)
        plain = TimeSeriesFrame(
            full.timestamps, full.specs[:2], full.values[:, :2], full.missing[:, :2]
        )
        counts = []
        for frame in (full, plain):
            scaler = fit_scaler(frame, (0, 120))
            config = ModelConfig(
                method=method,
                d=4 if method != "svd" else None,
                heads=1,
                encoder_layers=1,
                horizon=4,
                embedding_dropout=0.5,
            )
            model = Model.build(config, frame.specs, RngStream(3).split(0), scaler)
            batch = stacked_batch(apply_scaler(frame, scaler))
            out = model.forward_batch(batch, RngStream(1) if train else None)
            counts.append(op_nodes(out))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("dropped", [False, True])
    def test_equals_per_view_reference(self, method, dropped):
        model, _, scaled, _ = built_model(method)
        model.theta[:] += np.random.default_rng(5).normal(0.0, 0.3, model.theta.size)
        batch = stacked_batch(scaled)
        flat = batch.reshape(-1, model.n_views)
        keep = np.ones((len(batch), model.n_views), dtype=bool)
        if dropped:
            keep[[0, 2, 3], [1, 2, 1]] = False
        results = []
        for embed in (model._embed, lambda x, k: per_view_embedding(model, x, k)):
            model.grad.fill(0.0)
            z = embed(flat, keep)
            weights = np.random.default_rng(6).normal(size=z.shape)
            ad.backward(ad.mean(ad.mul(z, Mat(weights))))
            results.append((z.values, model.grad.copy()))
        (z, grad), (z_ref, grad_ref) = results
        np.testing.assert_array_equal(z, z_ref)
        np.testing.assert_array_equal(grad, grad_ref)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("code", [24, -1])
    def test_out_of_table_code_raises(self, method, code):
        model, x, _, _ = built_model(method)
        values = x.copy()
        values[3, 2] = code  # hour, a 24-row table
        with pytest.raises(IndexError, match=f"embedding index {code} outside table of size 24"):
            model.forward(values)

    @pytest.mark.parametrize("method", METHODS)
    def test_fractional_code_raises(self, method):
        model, x, _, _ = built_model(method)
        values = x.copy()
        values[0, 2] = 3.5
        with pytest.raises(ValueError, match="embedding indices must be integral"):
            model.forward(values)


class TestGraphSize:
    """One op node per sublayer: a ``forward_batch`` graph holds one embed
    node, four per encoder layer (attention, residual norm, feed-forward,
    residual norm), four per decoder layer (attention, norm, feed-forward,
    residual norm), the tail's ``take_rows`` and the head, with or without
    dropout."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("layers", [(1, 2), (2, 1), (0, 3)])
    @pytest.mark.parametrize("train", [False, True])
    def test_op_nodes_per_batch(self, method, layers, train):
        encoder_layers, decoder_layers = layers
        model, _, scaled, _ = built_model(
            method, encoder_layers=encoder_layers, decoder_layers=decoder_layers
        )
        out = model.forward_batch(stacked_batch(scaled), RngStream(1) if train else None)
        assert op_nodes(out) == 1 + 4 * encoder_layers + 4 * decoder_layers + 1 + 1


class TestEncoderDecoder:
    def test_zero_encoder_layers_is_identity(self):
        model, x, _, _ = built_model("additive", encoder_layers=0)
        z = embed_one(model, x)
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


class TestInputContract:
    """The model's one input is the lag-row array: ``(L, F)`` for
    ``forward``, ``(B, L, F)`` for ``forward_batch``."""

    @pytest.mark.parametrize("method", METHODS)
    def test_forward_is_a_batch_of_one(self, method):
        model, x, _, _ = built_model(method)
        assert isinstance(x, np.ndarray) and x.shape == (len(LAGS), model.n_views)
        got = model.forward(x).values
        np.testing.assert_array_equal(got, model.forward_batch(x[None]).values)
        assert got.shape == (1, model.config.horizon)

    @pytest.mark.parametrize(
        "shape", [(12,), (1, 4, 3), (4, 2), (4, 4)], ids=["1d", "3d", "2_views", "4_views"]
    )
    def test_wrong_shape_names_the_view_count(self, shape):
        model, _, _, _ = built_model("additive")
        assert model.n_views == 3
        with pytest.raises(ConfigError, match="3 views"):
            model.forward(np.zeros(shape))


class TestDropoutDraws:
    """A training forward makes one draw per example, whatever the layer
    count, and reads the example's view mask and then every sublayer's
    factor from it."""

    @pytest.mark.parametrize("encoder_layers, decoder_layers", [(1, 2), (0, 1), (2, 1)])
    def test_both_dropouts(self, encoder_layers, decoder_layers):
        model, x, _, _ = built_model(
            "additive", encoder_layers=encoder_layers, decoder_layers=decoder_layers
        )
        rng = RngStream(7)
        model.forward_batch(np.stack([x] * 5), rng)
        assert rng.counter == 5

    def test_embedding_dropout_only(self):
        model, x, _, _ = built_model("additive", transformer_dropout=0.0)
        rng = RngStream(7)
        model.forward_batch(np.stack([x] * 5), rng)
        assert rng.counter == 5

    def test_embed_draws_view_mask_only(self):
        model, x, _, _ = built_model("additive")
        rng = RngStream(7)
        embed_one(model, x, rng)
        assert rng.counter == 1

    DROPOUTS = pytest.mark.parametrize(
        "transformer_dropout, embedding_dropout",
        [(0.3, 0.4), (0.0, 0.4), (0.3, 0.0)],
        ids=["both", "embedding_only", "transformer_only"],
    )

    @staticmethod
    def assert_same_masks(got, want):
        (keep, drops), (want_keep, want_drops) = got, want
        np.testing.assert_array_equal(keep, want_keep)
        assert len(drops) == len(want_drops)
        for g, w in zip(drops, want_drops):
            if w is None:
                assert g is None
            else:
                np.testing.assert_array_equal(g, w)

    @DROPOUTS
    def test_batched_draws_equal_per_example_draws(self, transformer_dropout, embedding_dropout):
        model, _, _, _ = built_model(
            "additive",
            transformer_dropout=transformer_dropout,
            embedding_dropout=embedding_dropout,
        )
        blocks, rows, sites = 6, len(LAGS.lags), 2 * (1 + 2)
        rng, reference = RngStream(7, (1,), 3), RngStream(7, (1,), 3)
        keep, drops = model._draw_masks(rng, blocks, rows, sites)
        want = one_draw_per_example(model, reference, blocks, rows, sites)
        assert rng.counter == reference.counter == 3 + blocks
        self.assert_same_masks((keep, drops), want)
        assert (~keep).any() == (embedding_dropout > 0)
        assert all(d is None for d in drops) == (transformer_dropout == 0)
        assert all(d is None or d.shape == (blocks * rows, model.width) for d in drops)

    @DROPOUTS
    def test_batch_draws_what_single_examples_draw(
        self, transformer_dropout, embedding_dropout
    ):
        # bitwise, mask by mask; test_train_mode compares the losses
        model, _, _, _ = built_model(
            "additive",
            transformer_dropout=transformer_dropout,
            embedding_dropout=embedding_dropout,
        )
        blocks, rows, sites = 4, len(LAGS.lags), 2 * (1 + 2)
        rng, single = RngStream(3, (2,), 9), RngStream(3, (2,), 9)
        keep, drops = model._draw_masks(rng, blocks, rows, sites)
        each = [model._draw_masks(single, 1, rows, sites) for _ in range(blocks)]
        assert rng.state() == single.state()
        want_drops = [
            None if parts[0] is None else np.concatenate(parts)
            for parts in zip(*(d for _, d in each))
        ]
        self.assert_same_masks((keep, drops), (np.concatenate([k for k, _ in each]), want_drops))

    def test_embedding_only_masks_are_unchanged(self):
        # with no transformer dropout an example's one draw holds only its
        # view mask, as in the earlier layout of one draw per mask and factor
        model, _, _, _ = built_model("additive", transformer_dropout=0.0)
        blocks, rows, sites = 6, len(LAGS.lags), 2 * (1 + 2)
        rng, reference = RngStream(7, (1,), 3), RngStream(7, (1,), 3)
        got = model._draw_masks(rng, blocks, rows, sites)
        self.assert_same_masks(got, one_draw_per_mask(model, reference, blocks, rows, sites))
        assert rng.state() == reference.state()

    def test_small_training_run_is_pinned(self):
        # final parameters of a short additive run with both dropouts live,
        # as one draw per example gives them
        frame = small_frame(n=400, seed=4)
        model_config = ModelConfig(
            method="additive", d=4, heads=2, encoder_layers=1, decoder_layers=1,
            horizon=3, transformer_dropout=0.1, embedding_dropout=0.2,
        )
        train_config = TrainConfig(
            epochs=2, batch_size=32, lr0=0.003, seed=0,
            split=SplitSpec(test_hours=60, val_hours=60, max_train_hours=240),
        )
        result = train(frame, model_config, train_config, lag_set=LAGS)
        assert (
            hashlib.sha256(result.final_params.tobytes()).hexdigest()
            == "be0d04d98db926a9ae79af2d162678da95eb96da6aef13dc67ee15466543165d"
        )


def one_draw_per_example(model, rng, blocks, rows, sites):
    """``_draw_masks`` under an RngStream by hand: one ``draw().random``
    per example, split into the view mask's F values (under embedding
    dropout) and one ``(rows, width)`` block per sublayer (under
    transformer dropout), in that order."""
    p_e, p = model.config.embedding_dropout, model.config.transformer_dropout
    f, width = model.n_views, model.width
    views = f if p_e > 0.0 else 0
    units = sites if p > 0.0 else 0
    keep = np.ones((blocks, f), dtype=bool)
    factors = []
    for b in range(blocks):
        u = rng.draw().random(views + units * rows * width)
        if views:
            keep[b] = u[:f] >= p_e
        parts = u[views:].reshape(units, rows, width)
        factors.append([(part >= p) / (1.0 - p) for part in parts])
    keep[:, model.target_view] = True
    drops = [np.concatenate(site) for site in zip(*factors)] if units else [None] * sites
    return keep, drops


def one_draw_per_mask(model, rng, blocks, rows, sites):
    """``_draw_masks`` under an RngStream in its earlier layout: one
    ``draw`` per example's view mask and per sublayer factor, example by
    example, each thresholded on its own."""
    p_e, p = model.config.embedding_dropout, model.config.transformer_dropout
    keep = np.ones((blocks, model.n_views), dtype=bool)
    factors = []
    for b in range(blocks):
        if p_e > 0.0:
            keep[b] = rng.draw().random(model.n_views) >= p_e
        if p > 0.0:
            factors.append(
                [(rng.draw().random((rows, model.width)) >= p) / (1.0 - p) for _ in range(sites)]
            )
    keep[:, model.target_view] = True
    drops = [np.concatenate(site) for site in zip(*factors)] if factors else [None] * sites
    return keep, drops


def all_rows_forward(model, inputs, mode=None, trace=None):
    """``forward_batch`` as it was before the one-row decoder tail: every
    decoder layer and the head run on all B*L rows, and ``take_rows`` then
    keeps each block's last row (or the mean head averages them)."""
    blocks, rows, _ = inputs.shape
    flat = inputs.reshape(blocks * rows, -1)
    cfg, p = model.config, model.params
    sites = 2 * (cfg.encoder_layers + cfg.decoder_layers)
    keep, drops = model._draw_masks(mode, blocks, rows, sites)
    drops = iter(drops)
    h = model.encode(model._embed(flat, keep), blocks, drops, trace)
    y = Mat(flat)
    for i in range(1, cfg.decoder_layers + 1):
        attn = model._dropped(model._multi_head(f"dec{i}", h, h, y, blocks, trace), next(drops))
        a = ad.layer_norm_rows(attn, p[f"dec{i}/norm1/gain"], p[f"dec{i}/norm1/bias"])
        f = model._dropped(model._ffn(f"dec{i}", a), next(drops))
        y = ad.layer_norm_rows(ad.add(a, f), p[f"dec{i}/norm2/gain"], p[f"dec{i}/norm2/bias"])
    out = ad.affine(y, p["head/w"], p["head/b"])
    if cfg.head_reduce == "last":
        return ad.take_rows(out, np.arange(1, blocks + 1) * rows - 1)
    return Mat(np.kron(np.eye(blocks), np.full((1, rows), 1.0 / rows))) @ out


def stacked_batch(scaled, anchors=(30, 47, 60, 88, 101)):
    return lag_rows(scaled, anchors)


class TestDecoderTail:
    """Under ``head_reduce: last`` the last decoder layer runs only the rows
    the head reads; forecasts and gradients match the all-rows decoder."""

    MODES = {
        "eval": lambda model: None,
        "forced": lambda model: forced_keep(model.specs, ["hour"]),
        "dropout": lambda model: RngStream(5),
    }

    @staticmethod
    def values_and_grads(model, build):
        model.grad.fill(0.0)
        out = build()
        ad.backward(ad.mean(ad.mul(out, out)))
        return out.values, model.grad.copy()

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("method", ["additive", "concatenative", "svd"])
    def test_matches_all_rows_decoder(self, method, mode):
        model, _, scaled, _ = built_model(method)
        assert model.config.transformer_dropout > 0 and model.config.embedding_dropout > 0
        x = stacked_batch(scaled)
        got_mode, want_mode = self.MODES[mode](model), self.MODES[mode](model)
        got, got_grad = self.values_and_grads(model, lambda: model.forward_batch(x, got_mode))
        want, want_grad = self.values_and_grads(model, lambda: all_rows_forward(model, x, want_mode))
        assert got.shape == (len(x), model.config.horizon)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=1e-12)
        if mode == "dropout":
            assert got_mode.counter == want_mode.counter > 0

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_mean_head_is_the_all_rows_decoder_bitwise(self, mode):
        model, _, scaled, _ = built_model("additive", head_reduce="mean")
        x = stacked_batch(scaled)
        got = model.forward_batch(x, self.MODES[mode](model)).values
        want = all_rows_forward(model, x, self.MODES[mode](model)).values
        np.testing.assert_array_equal(got, want)

    def test_trace_keeps_one_map_per_head_per_layer(self):
        model, _, scaled, _ = built_model("additive")  # 1 enc + 2 dec layers, 2 heads
        x = stacked_batch(scaled)
        blocks, rows, _ = x.shape
        got, want = ModelTrace(), ModelTrace()
        model.forward_batch(x, trace=got)
        all_rows_forward(model, x, trace=want)
        assert [w.shape for w in got.attention] == (
            [(blocks * rows, rows)] * 4 + [(blocks, rows)] * 2
        )
        tail = np.arange(1, blocks + 1) * rows - 1
        for g, w in zip(got.attention, want.attention[:4] + [w[tail] for w in want.attention[4:]]):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


class TestLazyGrads:
    def test_eval_forward_allocates_no_grad_buffers(self):
        model, _, scaled, _ = built_model("additive")
        out = model.forward_batch(stacked_batch(scaled))
        params = {id(p) for _, p in model.parameters()}
        seen, todo = set(), [out]
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            todo.extend(node._parents)
            if id(node) not in params:
                assert node._grad is None, node
        assert params < seen  # the walk reached every parameter
        assert not model.grad.any()
        ad.backward(ad.mean(out))
        assert model.grad.any()


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


class TestParameterStore:
    @pytest.mark.parametrize("method", ["additive", "concatenative", "svd"])
    def test_named_parameters_are_views_of_the_vectors(self, method):
        model, _, _, _ = built_model(method)
        sizes = [p.values.size for _, p in model.parameters()]
        assert model.theta.shape == model.grad.shape == (sum(sizes),)
        for name, p in model.parameters():
            assert np.shares_memory(p.values, model.theta), name
            assert np.shares_memory(p.grad, model.grad), name

    def test_write_to_theta_shows_in_named_parameters(self):
        model, _, _, _ = built_model("svd")
        model.theta[...] = np.arange(model.theta.size)
        start = 0
        for name, p in model.parameters():  # slices in parameter order
            expected = np.arange(start, start + p.values.size).reshape(p.shape)
            np.testing.assert_array_equal(p.values, expected, err_msg=name)
            start += p.values.size

    def test_one_backward_fills_the_gradient_vector(self):
        model, x, _, _ = built_model("additive")
        assert not model.grad.any()
        ad.backward(ad.mean(model.forward(x)))
        assert model.grad.any()
        flat = np.concatenate([p.grad.ravel() for _, p in model.parameters()])
        np.testing.assert_array_equal(model.grad, flat)
        model.grad.fill(0.0)
        assert not any(p.grad.any() for _, p in model.parameters())


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
