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
            ad.backward(ad.relu(x))

    def test_gradient_accumulates_until_cleared(self):
        x = Mat(np.array([[2.0]]))
        for _ in range(2):
            ad.backward(ad.mul(x, x))
        assert x.grad[0, 0] == 8.0
        ad.zero_grad([x])
        assert x.grad[0, 0] == 0.0


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
        # keep values away from the kink at 0
        def loss(a):
            return ad.mean(ad.relu(a))

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

    def test_embedding_lookup(self):
        idx = np.array([0, 2, 1, 2])

        def loss(table, w):
            return ad.mean(ad.mul(ad.embedding_lookup(table, idx), w))

        self.run_cases(loss, 2, [(3, 4), (4, 4)])

    def test_concat_cols(self):
        self.run_cases(
            lambda a, b: ad.mean(ad.mul(ad.concat_cols([a, b]), ad.concat_cols([a, b]))),
            2,
            [(3, 2), (3, 4)],
        )

    def test_concat_rows(self):
        self.run_cases(
            lambda a, b: ad.mean(ad.mul(ad.concat_rows([a, b]), ad.concat_rows([a, b]))),
            2,
            [(2, 4), (3, 4)],
        )

    def test_sum_terms(self):
        self.run_cases(
            lambda a, b, c: ad.mean(ad.mul(ad.sum_terms([a, b, c]), a)),
            3,
            [(3, 4), (3, 4), (3, 4)],
        )

    def test_take_rows(self):
        rows = np.array([3, 0, 2, 0])  # a repeated row sums its gradients
        self.run_cases(lambda a: ad.mean(ad.mul(ad.take_rows(a, rows), ad.take_rows(a, rows))), 1, [(4, 3)])

    def test_mean(self):
        self.run_cases(lambda a: ad.mul(ad.mean(a), ad.mean(a)), 1, [(4, 5)])

    def test_three_layer_composition(self):
        def loss(x, w1, w2, g, b):
            h = ad.relu(ad.matmul(x, w1))
            h = ad.layer_norm_rows(ad.matmul(h, w2), g, b)
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
    def test_p_zero_is_identity(self, rng):
        x = rand_mat(rng, 5, 5)
        out = ad.dropout(x, 0.0, RngStream(0))
        assert out is x

    def test_expectation_matches_input(self):
        x = Mat(np.full((4, 4), 2.0))
        p = 0.3
        n = 4000
        acc = np.zeros((4, 4))
        for seed in range(n):
            acc += ad.dropout(x, p, RngStream(seed)).values
        acc /= n
        # kept entries are rescaled by 1/(1-p), so the estimator is unbiased;
        # 3 sigma of the per-cell Monte-Carlo error
        sigma = 2.0 * np.sqrt(p / (1 - p)) / np.sqrt(n)
        assert np.all(np.abs(acc - 2.0) < 3.1 * sigma)

    def test_keep_form_skips_rescale(self):
        x = Mat(np.full((50, 4), 1.0))
        out = ad.dropout(x, 0.5, RngStream(3), rescale=False)
        kept = out.values[out.values != 0.0]
        np.testing.assert_array_equal(kept, 1.0)

    def test_mask_zeroes_gradients(self):
        x = Mat(np.ones((6, 4)))
        out = ad.dropout(x, 0.5, RngStream(11))
        dropped = out.values == 0.0
        assert dropped.any() and not dropped.all()
        ad.backward(ad.mean(out))
        np.testing.assert_array_equal(x.grad[dropped], 0.0)
        assert np.all(x.grad[~dropped] != 0.0)

    def test_same_stream_same_mask(self):
        x = Mat(np.ones((8, 8)))
        a = ad.dropout(x, 0.4, RngStream(7, path=(1, 2)))
        b = ad.dropout(x, 0.4, RngStream(7, path=(1, 2)))
        np.testing.assert_array_equal(a.values, b.values)


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
