"""Gradient engine: primitive rules against finite differences."""
import numpy as np
import pytest

from loadcast import autodiff as ad
from loadcast.autodiff import Mat, RngStream


def check_grads(build, params, tol=1e-4, eps=1e-5):
    """build() recomputes a 1x1 loss from the current parameter values."""
    worst, name = ad.finite_diff_check(build, params, eps=eps)
    assert worst < tol, f"{name}: relative error {worst}"


def rand_mat(rng, rows, cols, lo=-2.0, hi=2.0):
    return Mat(rng.uniform(lo, hi, size=(rows, cols)))


class TestScalarRules:
    def test_square_gradient(self):
        x = Mat(np.array([[3.0]]))
        loss = ad.mul(x, x)
        ad.backward(loss)
        assert x.grad[0, 0] == 6.0

    def test_affine_bias_gradient_is_mean_weight(self):
        rng = np.random.default_rng(0)
        x = rand_mat(rng, 5, 3)
        w = rand_mat(rng, 3, 2)
        b = rand_mat(rng, 1, 2)
        loss = ad.mean(ad.affine(x, w, b))
        ad.backward(loss)
        # each bias entry reaches 5 of the 10 averaged cells
        np.testing.assert_allclose(b.grad, np.full((1, 2), 0.5), atol=1e-15)

    def test_backward_requires_scalar(self):
        x = Mat(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.backward(ad.absolute(x))

    def test_gradient_accumulates_until_cleared(self):
        x = Mat(np.array([[2.0]]))
        for _ in range(2):
            ad.backward(ad.mul(x, x))
        assert x.grad[0, 0] == 8.0
        ad.zero_grad([x])
        assert x.grad[0, 0] == 0.0

    def test_fresh_leaf_grad_reads_zeros(self):
        x = Mat(np.ones((2, 3)))
        ad.zero_grad([x])
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))


class TestPrimitiveGradients:
    """Every differentiation rule against central differences, 100 seeds."""

    def run_cases(self, make_loss, n_inputs, shapes, seeds=100, lo=-2.0, hi=2.0):
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            mats = [rand_mat(rng, r, c, lo, hi) for r, c in shapes[:n_inputs]]
            params = [(f"m{i}", m) for i, m in enumerate(mats)]
            check_grads(lambda: make_loss(*mats), params)

    def test_add(self):
        self.run_cases(lambda a, b: ad.mean(ad.add(a, b)), 2, [(3, 4), (3, 4)])

    def test_add_broadcast_row(self):
        self.run_cases(lambda a, b: ad.mean(ad.add(a, b)), 2, [(3, 4), (1, 4)])

    def test_sub(self):
        self.run_cases(lambda a, b: ad.mean(ad.mul(ad.sub(a, b), ad.sub(a, b))), 2, [(3, 4), (3, 4)])

    def test_mul(self):
        self.run_cases(lambda a, b: ad.mean(ad.mul(a, b)), 2, [(4, 3), (4, 3)])

    def test_scale(self):
        self.run_cases(lambda a: ad.mean(ad.scale(a, -1.7)), 1, [(3, 5)])

    def test_matmul(self):
        self.run_cases(lambda a, b: ad.mean(ad.matmul(a, b)), 2, [(3, 4), (4, 2)])

    def test_affine(self):
        self.run_cases(
            lambda x, w, b: ad.mean(ad.mul(ad.affine(x, w, b), ad.affine(x, w, b))),
            3,
            [(3, 4), (4, 2), (1, 2)],
        )

    def test_relu(self):
        # ffn's relu alone: identity weights, zero biases; keep values away
        # from the kink at 0
        eye, zero = Mat(np.eye(4)), Mat(np.zeros((1, 4)))

        def loss(a):
            return ad.mean(ad.ffn(a, eye, zero, eye, zero))

        for seed in range(100):
            rng = np.random.default_rng(seed)
            vals = rng.uniform(0.2, 2.0, size=(3, 4))
            vals[rng.random((3, 4)) < 0.5] *= -1.0
            a = Mat(vals)
            check_grads(lambda: loss(a), [("a", a)])

    def test_absolute(self):
        def loss(a):
            return ad.mean(ad.absolute(a))

        for seed in range(100):
            rng = np.random.default_rng(seed)
            vals = rng.uniform(0.2, 2.0, size=(3, 4))
            vals[rng.random((3, 4)) < 0.5] *= -1.0
            a = Mat(vals)
            check_grads(lambda: loss(a), [("a", a)])

    def test_block_attention(self):
        # 2 blocks of 3 query / 4 key rows, 2 heads of width 2 (values 3)
        def loss(q, k, v, w):
            out, _ = ad.block_attention(q, k, v, blocks=2, heads=2)
            return ad.mean(ad.mul(out, w))

        self.run_cases(loss, 4, [(6, 4), (8, 4), (8, 6), (6, 6)])

    def test_layer_norm_rows(self):
        def loss(x, g, b):
            return ad.mean(ad.mul(ad.layer_norm_rows(x, g, b), ad.layer_norm_rows(x, g, b)))

        self.run_cases(loss, 3, [(4, 6), (1, 6), (1, 6)])

    # five rows of three views: 0 and 2 affine, 1 a lookup into a 3-row
    # table whose code 2 repeats; row 1 drops view 0 and row 3 view 2
    EMBED_X = np.array(
        [[0.5, 2, -1.0], [1.5, 0, 0.3], [-0.7, 2, 2.0], [0.1, 1, -0.4], [1.1, 2, 0.9]]
    )
    EMBED_KEEP = np.array([[1, 1, 1], [0, 1, 1], [1, 1, 1], [1, 1, 0], [1, 1, 1]], dtype=bool)
    EMBED_SHAPES = [(1, 2), (1, 2), (3, 2), (1, 2), (1, 2), (1, 1), (1, 1), (1, 1)]

    def embed_mixed(self, summed):
        def loss(w0, b0, table, w2, b2, g0, g1, g2):
            z = ad.embed(
                self.EMBED_X, [(w0, b0), (table,), (w2, b2)], [g0, g1, g2], self.EMBED_KEEP, summed
            )
            return ad.mean(ad.mul(z, z))

        self.run_cases(loss, 8, self.EMBED_SHAPES)

    def test_embed_summed(self):
        self.embed_mixed(summed=True)

    def test_embed_side_by_side(self):
        self.embed_mixed(summed=False)

    def test_embed_lookups_only(self):
        # two one-column tables, as under svd; repeated codes sum their gradients
        codes = np.array([[0, 3], [2, 3], [0, 1], [0, 0]])

        def loss(t0, t1, g0, g1, w):
            z = ad.embed(codes, [(t0,), (t1,)], [g0, g1], summed=False)
            return ad.mean(ad.mul(z, w))

        self.run_cases(loss, 5, [(3, 1), (4, 1), (1, 1), (1, 1), (4, 2)])

    def test_concat_rows(self):
        self.run_cases(
            lambda a, b: ad.mean(ad.mul(ad.concat_rows([a, b]), ad.concat_rows([a, b]))),
            2,
            [(2, 4), (3, 4)],
        )

    def test_take_rows(self):
        rows = np.array([3, 0, 2, 0])  # a repeated row sums its gradients
        self.run_cases(lambda a: ad.mean(ad.mul(ad.take_rows(a, rows), ad.take_rows(a, rows))), 1, [(4, 3)])

    def test_mean(self):
        self.run_cases(lambda a: ad.mul(ad.mean(a), ad.mean(a)), 1, [(4, 5)])

    def test_three_layer_composition(self):
        def loss(x, w1, w2, g, b):
            h = ad.ffn(x, w1, Mat(np.zeros((1, 6))), w2, Mat(np.zeros((1, 5))))
            h = ad.layer_norm_rows(h, g, b)
            return ad.mean(ad.mul(h, h))

        self.run_cases(loss, 5, [(3, 4), (4, 6), (6, 5), (1, 5), (1, 5)], seeds=30)

    def test_corrupted_rule_is_detected(self):
        # negative control: a wrong vjp must blow past the tolerance
        def bad_square(x):
            out = Mat(x.values**2, (x,))

            def vjp(g):
                x.grad += 3.0 * g  # wrong on purpose

            out._vjp = vjp
            return out

        x = Mat(np.array([[2.0]]))
        worst, _ = ad.finite_diff_check(lambda: ad.mean(bad_square(x)), [("x", x)], eps=1e-5)
        assert worst > 1e-2

    def test_quadratic_tight_error(self):
        x = Mat(np.array([[1.25]]))
        worst, _ = ad.finite_diff_check(lambda: ad.mul(x, x), [("x", x)], eps=1e-5)
        assert worst < 1e-9


class TestDropout:
    def test_expectation_matches_input(self):
        p = 0.3
        n = 4000
        acc = np.zeros((4, 4))
        for seed in range(n):
            acc += 2.0 * ad.dropout_factor(RngStream(seed).draw().random((4, 4)), p)
        acc /= n
        # kept entries are rescaled by 1/(1-p), so the estimator is unbiased;
        # 3 sigma of the per-cell Monte-Carlo error
        sigma = 2.0 * np.sqrt(p / (1 - p)) / np.sqrt(n)
        assert np.all(np.abs(acc - 2.0) < 3.1 * sigma)

    def test_mask_zeroes_gradients(self):
        x = Mat(np.ones((6, 4)))
        out = ad.mul(x, Mat(ad.dropout_factor(RngStream(11).draw().random(x.shape), 0.5)))
        dropped = out.values == 0.0
        assert dropped.any() and not dropped.all()
        ad.backward(ad.mean(out))
        np.testing.assert_array_equal(x.grad[dropped], 0.0)
        assert np.all(x.grad[~dropped] != 0.0)

    def test_same_stream_same_mask(self):
        a = ad.dropout_factor(RngStream(7, path=(1, 2)).draw().random((8, 8)), 0.4)
        b = ad.dropout_factor(RngStream(7, path=(1, 2)).draw().random((8, 8)), 0.4)
        np.testing.assert_array_equal(a, b)


class TestRngStream:
    def test_counter_advances_and_replays(self):
        s = RngStream(5)
        first = s.draw().random(10)
        second = s.draw().random(10)
        assert not np.array_equal(first, second)
        replay = RngStream(5)
        np.testing.assert_array_equal(replay.draw().random(10), first)
        np.testing.assert_array_equal(replay.draw().random(10), second)

    def test_state_round_trip(self):
        s = RngStream(9, path=(4,))
        s.draw().random(3)
        restored = RngStream.from_state(s.state())
        np.testing.assert_array_equal(s.draw().random(5), restored.draw().random(5))

    def test_split_streams_differ(self):
        s = RngStream(1)
        a = s.split(0).draw().random(6)
        b = s.split(1).draw().random(6)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, path, counter",
        [
            (0, (), 0),
            (5, (1,), 17),
            (7, (3, 2**33), 4),
            (2**40 + 1, (2,), 2**32 + 6),
            (6, (2,), 2**64 + 3),  # a counter past 64 bits
        ],
    )
    def test_draw_is_numpys_seed_sequence(self, seed, path, counter):
        s = RngStream(seed, path, counter)
        want = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path + (counter,)))
        ).random(9)
        np.testing.assert_array_equal(s.draw().random(9), want)
        assert s.counter == counter + 1


def relu(x):
    """The elementwise relu primitive that ``ad.ffn`` took in, kept as the
    reference of its bitwise test."""
    x = ad.as_mat(x)
    out = Mat(np.maximum(x.values, 0.0), (x,))

    def vjp(g):
        x.grad += g * (x.values > 0)

    out._vjp = vjp
    return out


def layer_norm_by_mean(x, gain, bias):
    """``ad.layer_norm_rows`` with ``ndarray.mean`` for its means, as it
    was written before its reductions went through ``np.add.reduce``."""
    x, gain, bias = ad.as_mat(x), ad.as_mat(gain), ad.as_mat(bias)
    v = x.values
    d = v.shape[1]
    centered = v - v.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((centered**2).mean(axis=1, keepdims=True) + ad.LAYER_NORM_EPS)
    xhat = centered * inv
    out = Mat(xhat * gain.values + bias.values, (x, gain, bias))

    def vjp(g):
        gain.grad += ad._unbroadcast(g * xhat, gain.values.shape)
        bias.grad += ad._unbroadcast(g, bias.values.shape)
        gx = g * gain.values
        x.grad += inv * (
            gx
            - gx.mean(axis=1, keepdims=True)
            - xhat * (gx * xhat).sum(axis=1, keepdims=True) / d
        )

    out._vjp = vjp
    return out


def post_order_backward(loss):
    """``ad.backward`` as a depth-first post-order walk of the graph: the
    order in which the composed primitives added into a shared input's
    gradient before each sublayer became one node."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = loss.grad + 1.0
    for node in reversed(topo):
        if node._vjp is not None:
            node._vjp(node.grad)


# attention sublayer inputs, two blocks of rows: self-attention on one
# input; the decoder's first layer, whose values are a constant array three
# columns wide; the decoder's tail, one query row per block
def attention_case(case, rng):
    """``(xq, xk, xv, [wq, wk, wv, wo], differentiable inputs)``."""
    if case == "self":
        x = rand_mat(rng, 6, 4)
        xq = xk = xv = x
        inputs, v_width = [x], 4
    elif case == "constant values":
        xq, xk = rand_mat(rng, 6, 4), rand_mat(rng, 6, 4)
        xv = rng.uniform(-2.0, 2.0, (6, 3))
        inputs, v_width = [xq, xk], 3
    else:
        xq, xk, xv = rand_mat(rng, 2, 4), rand_mat(rng, 8, 4), rand_mat(rng, 8, 4)
        inputs, v_width = [xq, xk, xv], 4
    weights = [rand_mat(rng, r, 4) for r in (4, 4, v_width, 4)]
    return xq, xk, xv, weights, inputs


def fused_and_composed(kind, rng, dropout):
    """One sublayer node and the composition of primitives it replaces, as
    two functions of the same inputs, each returning the node and a 1x1
    loss over it: ``(fused, composed, named inputs)``."""
    if kind == "ffn":
        args = [rand_mat(rng, r, c) for r, c in [(5, 4), (4, 6), (1, 6), (6, 3), (1, 3)]]
        shape = (5, 3)

        def fused():
            return ad.ffn(*args, factor)

        def composed():
            x, w1, b1, w2, b2 = args
            return ad.affine(relu(ad.affine(x, w1, b1)), w2, b2)

    elif kind == "residual_norm":
        args = [rand_mat(rng, r, 6) for r in (4, 4, 1, 1)]
        shape = (4, 6)

        def fused():
            return ad.residual_norm(*args)

        def composed():
            x, r, gain, bias = args
            return layer_norm_by_mean(ad.add(x, r), gain, bias)

    else:
        xq, xk, xv, weights, inputs = attention_case(kind, rng)
        args = inputs + weights
        shape = (xq.shape[0], 4)

        def fused():
            return ad.attention_sublayer(xq, xk, xv, *weights, 2, 2, factor)[0]

        def composed():
            wq, wk, wv, wo = weights
            q, k, v = ad.matmul(xq, wq), ad.matmul(xk, wk), ad.matmul(xv, wv)
            return ad.matmul(ad.block_attention(q, k, v, 2, 2)[0], wo)

    probe = Mat(rng.uniform(-2.0, 2.0, shape))
    factor = ad.dropout_factor(rng.random(shape), 0.4) if dropout else None

    def with_loss(node, dropped):
        def run():
            out = node()
            if dropped and factor is not None:  # the separate dropout node
                out = ad.mul(out, Mat(factor))
            return out, ad.mean(ad.mul(out, probe))

        return run

    named = [(f"m{i}", m) for i, m in enumerate(args)]
    return with_loss(fused, False), with_loss(composed, True), named


# (node, with a dropout factor); the norm takes none
FUSED_CASES = [("ffn", False), ("ffn", True), ("residual_norm", False)] + [
    (case, dropout) for case in ("self", "constant values", "tail") for dropout in (False, True)
]
FUSED_IDS = [f"{kind}-{'dropout' if dropout else 'plain'}" for kind, dropout in FUSED_CASES]


class TestFusedPrimitives:
    """Each sublayer node against central differences over 100 seeds, and
    bitwise against the primitives it replaces: its value and the gradient
    of every input and parameter."""

    @pytest.mark.parametrize("kind, dropout", FUSED_CASES, ids=FUSED_IDS)
    def test_finite_differences(self, kind, dropout):
        for seed in range(100):
            fused, _, params = fused_and_composed(kind, np.random.default_rng(seed), dropout)
            check_grads(lambda: fused()[1], params)

    @pytest.mark.parametrize("kind, dropout", FUSED_CASES, ids=FUSED_IDS)
    def test_equals_composition_bitwise(self, kind, dropout):
        for seed in range(20):
            fused, composed, params = fused_and_composed(kind, np.random.default_rng(seed), dropout)
            mats = [m for _, m in params]
            results = []
            for run, backward in ((fused, ad.backward), (composed, post_order_backward)):
                ad.zero_grad(mats)
                value, loss = run()
                backward(loss)
                results.append([value.values.tobytes()] + [m.grad.tobytes() for m in mats])
            assert results[0] == results[1]

    def test_attention_weights_are_block_attentions(self):
        xq, xk, xv, (wq, wk, wv, wo), _ = attention_case("tail", np.random.default_rng(3))
        _, weights = ad.attention_sublayer(xq, xk, xv, wq, wk, wv, wo, 2, 2)
        _, want = ad.block_attention(xq @ wq, xk @ wk, xv @ wv, 2, 2)
        assert weights.tobytes() == want.tobytes()

    def test_constant_values_are_not_a_parent(self):
        xq, xk, xv, weights, inputs = attention_case("constant values", np.random.default_rng(4))
        out, _ = ad.attention_sublayer(xq, xk, xv, *weights, 2, 2)
        assert out._parents == tuple(inputs + weights)
