"""Forward/backward correctness of the network building blocks."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    central_diff,
    max_rel_err,
    naive_conv2d,
    naive_conv2d_backward,
    naive_maxpool2,
)
from tumorkit import nn
from tumorkit.errors import BadTargets, InvalidProbability, OddSpatialDim, ShapeMismatch
from tumorkit.nn import (
    AdamState,
    ConvLayer,
    DenseLayer,
    adam_step,
    conv2d_backward,
    conv2d_forward,
    conv2d_param_grads,
    dense_backward,
    dense_forward,
    dense_param_grads,
    dropout,
    dropout_backward,
    gap_backward,
    global_avg_pool,
    maxpool2,
    maxpool2_backward,
    relu,
    relu_backward,
    softmax,
    softmax_ce_loss,
)
from tumorkit.rng import Rng


def conv_layer(out_c, in_c, g, frozen=False) -> ConvLayer:
    return ConvLayer(
        weight=g.normal(size=(out_c, in_c, 3, 3)),
        bias=g.normal(size=(out_c,)),
        frozen=frozen,
    )


class TestConv:
    def test_center_tap_identity(self):
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        layer = ConvLayer(weight=w, bias=np.zeros(1))
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        assert np.array_equal(conv2d_forward(x, layer), x)

    def test_zero_kernel_emits_bias(self):
        layer = ConvLayer(weight=np.zeros((2, 1, 3, 3)), bias=np.array([3.0, -1.0]))
        x = np.ones((1, 1, 2, 2))
        y = conv2d_forward(x, layer)
        assert (y[0, 0] == 3.0).all() and (y[0, 1] == -1.0).all()

    def test_matches_naive_loops(self):
        g = np.random.default_rng(81)
        for _ in range(6):
            n, cin, cout = (int(g.integers(1, 3)) for _ in range(3))
            h, w = int(g.integers(2, 7)), int(g.integers(2, 7))
            x = g.normal(size=(n, cin, h, w))
            layer = conv_layer(cout, cin, g)
            got = conv2d_forward(x, layer)
            want = naive_conv2d(x, layer.weight, layer.bias)
            assert max_rel_err(got, want) < 1e-12

    def test_backward_formulas(self):
        g = np.random.default_rng(82)
        x = g.normal(size=(2, 3, 5, 4))
        layer = conv_layer(4, 3, g)
        dy = g.normal(size=(2, 4, 5, 4))
        dx, dw, db = conv2d_backward(x, layer, dy)
        assert dx.shape == x.shape
        assert dw.shape == layer.weight.shape
        assert np.allclose(db, dy.sum(axis=(0, 2, 3)))

    def test_backward_against_finite_differences(self):
        g = np.random.default_rng(83)
        x = g.normal(size=(1, 2, 4, 4))
        layer = conv_layer(2, 2, g)
        r = g.normal(size=(1, 2, 4, 4))  # random cotangent
        dx, dw, db = conv2d_backward(x, layer, r)

        num_dx = central_diff(lambda v: float((conv2d_forward(v, layer) * r).sum()), x)
        assert max_rel_err(dx, num_dx) < 1e-6

        def loss_of_w(wv):
            probe = ConvLayer(weight=wv, bias=layer.bias)
            return float((conv2d_forward(x, probe) * r).sum())

        num_dw = central_diff(loss_of_w, layer.weight)
        assert max_rel_err(dw, num_dw) < 1e-6

    def test_backward_matches_nested_loops(self):
        g = np.random.default_rng(87)
        # (n, c, out, h, w): general, H = 1, W = 1, N = C = 1
        for n, c, out, h, w in [(2, 3, 4, 5, 4), (2, 2, 3, 1, 5), (2, 3, 2, 4, 1), (1, 1, 3, 4, 4)]:
            x = g.normal(size=(n, c, h, w))
            layer = conv_layer(out, c, g)
            dy = g.normal(size=(n, out, h, w))
            self.check_backward(x, layer, dy)

    def test_backward_of_strided_x_and_broadcast_dy(self):
        g = np.random.default_rng(88)
        x = g.normal(size=(2, 3, 6, 5)).transpose(0, 1, 3, 2)  # a non-contiguous view
        layer = conv_layer(4, 3, g)
        assert max_rel_err(conv2d_forward(x, layer), naive_conv2d(x, layer.weight, layer.bias)) < 1e-12
        self.check_backward(x, layer, g.normal(size=(2, 4, 5, 6)))
        dy = np.broadcast_to(g.normal(size=(1, 4, 1, 6)), (2, 4, 5, 6))
        self.check_backward(x, layer, dy)

    @staticmethod
    def check_backward(x, layer, dy):
        dx, dw, db = conv2d_backward(x, layer, dy)
        want_dx, want_dw, want_db = naive_conv2d_backward(x, layer.weight, dy)
        assert dx.shape == x.shape and dw.shape == layer.weight.shape
        assert np.abs(dx - want_dx).max() < 1e-10
        assert np.abs(dw - want_dw).max() < 1e-10
        assert np.abs(db - want_db).max() < 1e-10

    def test_param_grads_are_the_bits_of_the_full_backward(self):
        g = np.random.default_rng(86)
        x = g.normal(size=(3, 2, 6, 6)).astype(np.float32)
        layer = conv_layer(5, 2, g)
        layer.weight = layer.weight.astype(np.float32)
        layer.bias = layer.bias.astype(np.float32)
        dy = g.normal(size=(3, 5, 6, 6)).astype(np.float32)
        _, dw, db = conv2d_backward(x, layer, dy)
        dw_only, db_only = conv2d_param_grads(x, layer, dy)
        assert dw_only.dtype == dw.dtype and dw_only.tobytes() == dw.tobytes()
        assert db_only.dtype == db.dtype and db_only.tobytes() == db.tobytes()
        with pytest.raises(ShapeMismatch):
            conv2d_param_grads(x, layer, dy[:, :4])

    def test_zero_cotangent_zero_grads(self):
        g = np.random.default_rng(84)
        x = g.normal(size=(1, 1, 3, 3))
        layer = conv_layer(1, 1, g)
        dx, dw, db = conv2d_backward(x, layer, np.zeros((1, 1, 3, 3)))
        assert not dx.any() and not dw.any() and not db.any()

    def test_channel_mismatch_rejected(self):
        g = np.random.default_rng(85)
        layer = conv_layer(1, 2, g)
        with pytest.raises(ShapeMismatch):
            conv2d_forward(np.zeros((1, 3, 4, 4)), layer)


class TestBlockedPatchProduct:
    """Built and multiplied block by block, the patch product gives the
    bytes of one product over the whole patch matrix."""

    @staticmethod
    def check(monkeypatch, shape, dtype, out_c, block_bytes, seed):
        """Compare the blocked forward and dx with one-shot products;
        return the blocks of the forward input."""
        monkeypatch.setattr(nn, "BLOCK_BYTES", block_bytes)
        g = np.random.default_rng(seed)
        n, c, h, w = shape
        x = g.normal(size=shape).astype(dtype)
        layer = ConvLayer(weight=g.normal(size=(out_c, c, 3, 3)).astype(dtype),
                          bias=g.normal(size=(out_c,)).astype(dtype))
        want = layer.weight.reshape(out_c, -1) @ nn._columns(x)
        want += layer.bias[:, None]
        want = want.reshape(out_c, n, h, w).transpose(1, 0, 2, 3)
        assert conv2d_forward(x, layer).tobytes() == np.ascontiguousarray(want).tobytes()

        dy = g.normal(size=(n, out_c, h, w)).astype(dtype)
        w_flip = layer.weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        want_dx = (w_flip @ nn._columns(dy)).reshape(c, n, h, w).transpose(1, 0, 2, 3)
        dx, _, _ = conv2d_backward(x, layer, dy)
        assert dx.tobytes() == np.ascontiguousarray(want_dx).tobytes()
        assert len(nn._blocks(dy)) > 1
        return nn._blocks(x)

    def test_row_blocks_inside_one_image(self, monkeypatch):
        # 5 rows of 48 columns per block: 8 full blocks and one of 2 rows per image
        blocks = self.check(monkeypatch, (2, 16, 42, 48), np.float32, 32, 16 * 9 * 48 * 4 * 5, 61)
        assert [b for b in blocks if b[0] == 1] == [
            (1, 2, r, min(r + 5, 42)) for r in range(0, 42, 5)
        ]
        assert len(blocks) == 18

    def test_several_images_per_block_with_a_short_last_group(self, monkeypatch):
        blocks = self.check(monkeypatch, (7, 8, 24, 24), np.float32, 16, 8 * 9 * 24 * 24 * 4 * 3, 62)
        assert blocks == [(0, 3, 0, 24), (3, 6, 0, 24), (6, 7, 0, 24)]

    def test_single_input_channel(self, monkeypatch):
        blocks = self.check(monkeypatch, (3, 1, 48, 48), np.float32, 8, 9 * 48 * 4 * 7, 63)
        assert len(blocks) == 3 * 7 and blocks[-1] == (2, 3, 42, 48)

    def test_float64(self, monkeypatch):
        blocks = self.check(monkeypatch, (2, 8, 32, 32), np.float64, 16, 8 * 9 * 32 * 8 * 6, 64)
        assert len(blocks) == 2 * 6 and blocks[5] == (0, 1, 30, 32)

    def test_a_row_larger_than_a_block_is_a_block(self, monkeypatch):
        monkeypatch.setattr(nn, "BLOCK_BYTES", 1)
        blocks = nn._blocks(np.zeros((2, 3, 4, 5), dtype=np.float32))
        assert blocks == [(i, i + 1, r, r + 1) for i in range(2) for r in range(4)]

    def test_vgg_tiny_products_are_one_block(self):
        # (channels in, size) of every conv input and dy in a 16-image vgg_tiny@64 batch
        for c, size in [(1, 64), (8, 32), (16, 16), (16, 32), (32, 16)]:
            assert len(nn._blocks(np.empty((16, c, size, size), dtype=np.float32))) == 1

    def test_forward_peak_memory_stays_near_input_plus_output(self):
        g = np.random.default_rng(65)
        x = g.normal(size=(1, 64, 112, 112)).astype(np.float32)
        layer = ConvLayer(weight=g.normal(size=(64, 64, 3, 3)).astype(np.float32),
                          bias=np.zeros(64, dtype=np.float32))
        tracemalloc.start()
        try:
            y = conv2d_forward(x, layer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (x.nbytes + y.nbytes)


class TestMaxPool:
    def test_known_windows(self):
        x = np.array([[1.0, 2.0], [4.0, 3.0]]).reshape(1, 1, 2, 2)
        y, routing = maxpool2(x)
        assert y.reshape(()) == 4.0
        assert routing.reshape(()) == 2  # row-major window position of the 4

    def test_matches_naive_loops(self):
        g = np.random.default_rng(91)
        for _ in range(8):
            x = g.normal(size=(2, 3, 2 * int(g.integers(1, 5)), 2 * int(g.integers(1, 5))))
            y, _ = maxpool2(x)
            assert np.array_equal(y, naive_maxpool2(x))

    def test_tie_picks_first_in_row_major_order(self):
        x = np.full((1, 1, 2, 2), 7.0)
        y, routing = maxpool2(x)
        assert y.reshape(()) == 7.0
        assert routing.reshape(()) == 0
        dx = maxpool2_backward(routing, np.array([[[[5.0]]]]))
        assert dx[0, 0].tolist() == [[5.0, 0.0], [0.0, 0.0]]

    def test_backward_routes_to_argmax(self):
        x = np.array([[9.0, 2.0], [4.0, 3.0]]).reshape(1, 1, 2, 2)
        _, routing = maxpool2(x)
        dx = maxpool2_backward(routing, np.array([[[[1.5]]]]))
        assert dx[0, 0].tolist() == [[1.5, 0.0], [0.0, 0.0]]

    def test_backward_conserves_mass(self):
        g = np.random.default_rng(92)
        x = g.normal(size=(2, 2, 6, 8))
        _, routing = maxpool2(x)
        dy = g.normal(size=(2, 2, 3, 4))
        dx = maxpool2_backward(routing, dy)
        assert math.isclose(float(dx.sum()), float(dy.sum()), rel_tol=1e-12)

    def test_every_window_over_three_levels(self):
        # all 81 2x2 windows over {0, 1, 2}, laid out as [3, 3, 6, 6]
        windows = np.array(list(itertools.product((0.0, 1.0, 2.0), repeat=4)))
        x = windows.reshape(3, 3, 3, 3, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(3, 3, 6, 6)
        first_argmax = [list(v).index(max(v)) for v in windows]
        dy = np.arange(1.0, 82.0).reshape(3, 3, 3, 3)
        want_dx = np.zeros((81, 4))
        want_dx[np.arange(81), first_argmax] = dy.reshape(-1)
        want_dx = want_dx.reshape(3, 3, 3, 3, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)

        y, routing = maxpool2(x)
        assert np.array_equal(y, naive_maxpool2(x))
        assert routing.reshape(-1).tolist() == first_argmax
        assert np.array_equal(maxpool2_backward(routing, dy), want_dx)

    def test_all_zero_windows_after_relu(self):
        g = np.random.default_rng(93)
        x = relu(-np.abs(g.normal(size=(2, 3, 4, 6))))
        y, routing = maxpool2(x)
        assert not y.any() and not routing.any()
        dy = g.normal(size=y.shape)
        dx = maxpool2_backward(routing, dy)
        assert np.array_equal(dx[:, :, 0::2, 0::2], dy)
        assert not dx[:, :, 1::2].any() and not dx[:, :, :, 1::2].any()

    def test_odd_size_rejected(self):
        with pytest.raises(OddSpatialDim):
            maxpool2(np.zeros((1, 1, 3, 4)))

    def test_without_routing_the_output_is_the_same(self):
        g = np.random.default_rng(94)
        x = g.normal(size=(2, 3, 6, 8)).astype(np.float32)
        x[0, 0, :2, :2] = 1.0  # a tied window
        y, routing = maxpool2(x, routing=False)
        assert routing is None
        assert y.dtype == x.dtype and y.tobytes() == maxpool2(x)[0].tobytes()


class TestGlobalAvgPool:
    def test_known_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert global_avg_pool(x).reshape(()) == 2.5

    def test_backward_spreads_uniformly(self):
        dy = np.array([[6.0]])
        dx = gap_backward(dy, 2, 3)
        assert dx.shape == (1, 1, 2, 3)
        assert (dx == 1.0).all()

    def test_backward_against_finite_differences(self):
        g = np.random.default_rng(101)
        x = g.normal(size=(2, 3, 4, 4))
        r = g.normal(size=(2, 3))
        num = central_diff(lambda v: float((global_avg_pool(v) * r).sum()), x)
        assert max_rel_err(gap_backward(r, 4, 4), num) < 1e-6


class TestRelu:
    def test_values(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert relu(x).tolist() == [0.0, 0.0, 2.0]

    def test_backward_gates_on_strictly_positive(self):
        x = np.array([-1.0, 0.0, 2.0])
        dy = np.array([5.0, 5.0, 5.0])
        assert relu_backward(x, dy).tolist() == [0.0, 0.0, 5.0]


class TestDense:
    def test_identity_weight(self):
        layer = DenseLayer(weight=np.eye(3), bias=np.zeros(3))
        x = np.array([[1.0, 2.0, 3.0]])
        assert dense_forward(x, layer).tolist() == [[1.0, 2.0, 3.0]]

    def test_known_affine(self):
        layer = DenseLayer(weight=np.array([[1.0, 2.0], [0.0, -1.0]]), bias=np.array([10.0, 0.0]))
        y = dense_forward(np.array([[3.0, 4.0]]), layer)
        assert y.tolist() == [[21.0, -4.0]]

    def test_backward_formulas(self):
        g = np.random.default_rng(111)
        x = g.normal(size=(5, 4))
        layer = DenseLayer(weight=g.normal(size=(3, 4)), bias=g.normal(size=(3,)))
        dy = g.normal(size=(5, 3))
        dx, dw, db = dense_backward(x, layer, dy)
        assert np.allclose(dx, dy @ layer.weight)
        assert np.allclose(dw, dy.T @ x)
        assert np.allclose(db, dy.sum(axis=0))

    def test_backward_against_finite_differences(self):
        g = np.random.default_rng(112)
        x = g.normal(size=(2, 3))
        layer = DenseLayer(weight=g.normal(size=(4, 3)), bias=g.normal(size=(4,)))
        r = g.normal(size=(2, 4))
        dx, dw, db = dense_backward(x, layer, r)
        num_dx = central_diff(lambda v: float((dense_forward(v, layer) * r).sum()), x)
        assert max_rel_err(dx, num_dx) < 1e-6

    def test_param_grads_are_the_bits_of_the_full_backward(self):
        g = np.random.default_rng(113)
        x = g.normal(size=(5, 4)).astype(np.float32)
        layer = DenseLayer(weight=g.normal(size=(3, 4)).astype(np.float32),
                           bias=g.normal(size=(3,)).astype(np.float32))
        dy = g.normal(size=(5, 3)).astype(np.float32)
        _, dw, db = dense_backward(x, layer, dy)
        dw_only, db_only = dense_param_grads(x, layer, dy)
        assert dw_only.tobytes() == dw.tobytes() and db_only.tobytes() == db.tobytes()

    def test_feature_mismatch_rejected(self):
        layer = DenseLayer(weight=np.eye(2), bias=np.zeros(2))
        with pytest.raises(ShapeMismatch):
            dense_forward(np.zeros((1, 3)), layer)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        out, mask = dropout(x, 0.5, "eval")
        assert mask is None
        assert np.array_equal(out, x)

    def test_p_zero_is_identity(self):
        x = np.ones((4, 4), dtype=np.float32)
        out, mask = dropout(x, 0.0, "train", Rng(0))
        assert mask is None
        assert np.array_equal(out, x)

    def test_train_statistics(self):
        n = 1_000_000
        p = 0.7
        x = np.ones(n, dtype=np.float64)
        out, mask = dropout(x, p, "train", Rng(202))
        keep_rate = mask.mean()
        assert abs(keep_rate - (1 - p)) < 0.005
        # inverted scaling keeps the expectation near 1
        assert abs(out.mean() - 1.0) < 0.01
        # survivors carry exactly 1/(1-p)
        assert np.allclose(out[mask], 1.0 / (1 - p))
        assert not out[~mask].any()

    def test_deterministic_from_seed(self):
        x = np.ones(1000)
        a, mask_a = dropout(x, 0.3, "train", Rng(7))
        b, mask_b = dropout(x, 0.3, "train", Rng(7))
        assert np.array_equal(mask_a, mask_b)
        assert np.array_equal(a, b)

    def test_backward_reuses_mask(self):
        x = np.ones((3, 3))
        out, mask = dropout(x, 0.4, "train", Rng(9))
        dy = np.full((3, 3), 2.0)
        dx = dropout_backward(dy, mask, 0.4)
        assert np.array_equal(dx, dy * mask / 0.6)
        assert np.array_equal(dropout_backward(dy, None, 0.4), dy)

    def test_invalid_probability(self):
        x = np.ones(3)
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(InvalidProbability):
                dropout(x, p, "train", Rng(0))

    def test_train_without_rng_rejected(self):
        with pytest.raises(ValueError):
            dropout(np.ones(3), 0.5, "train", None)


class TestSoftmax:
    def test_uniform_logits(self):
        assert softmax(np.array([[0.0, 0.0]])).tolist() == [[0.5, 0.5]]

    def test_known_values(self):
        got = softmax(np.array([1.0, 2.0, 3.0]))
        want = [0.090031, 0.244728, 0.665241]
        assert np.allclose(got, want, atol=1e-6)

    def test_shift_invariance(self):
        z = np.array([[0.3, -1.2, 4.0]])
        assert np.allclose(softmax(z), softmax(z + 1000.0))

    def test_rows_sum_to_one(self):
        g = np.random.default_rng(121)
        z = g.normal(size=(10, 5)) * 20
        s = softmax(z)
        assert np.allclose(s.sum(axis=1), 1.0)
        assert (s > 0).all()


class TestCrossEntropy:
    def test_uniform_pair_gives_ln2(self):
        loss, dlogits = softmax_ce_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)
        assert np.allclose(dlogits, [[-0.5, 0.5]])

    def test_batch_mean_scales_gradient(self):
        logits = np.zeros((2, 2))
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, dlogits = softmax_ce_loss(logits, targets)
        assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)
        assert np.allclose(dlogits, [[-0.25, 0.25], [0.25, -0.25]])

    def test_gradient_against_finite_differences(self):
        g = np.random.default_rng(131)
        logits = g.normal(size=(4, 3))
        targets = np.eye(3)[g.integers(0, 3, size=4)]
        _, dlogits = softmax_ce_loss(logits, targets)
        num = central_diff(lambda z: softmax_ce_loss(z, targets)[0], logits)
        assert max_rel_err(dlogits, num) < 1e-6

    def test_confident_correct_prediction_has_small_loss(self):
        loss, _ = softmax_ce_loss(np.array([[30.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert loss < 1e-9

    def test_rejects_non_onehot_targets(self):
        logits = np.zeros((1, 2))
        for bad in ([[0.5, 0.5]], [[1.0, 1.0]], [[0.0, 0.0]]):
            with pytest.raises(BadTargets):
                softmax_ce_loss(logits, np.array(bad))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            softmax_ce_loss(np.zeros((1, 2)), np.zeros((2, 2)))


def reference_adam(params, grads, steps, lr=1e-4, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam, scalar loops, applied for a fixed number of steps."""
    out = {k: v.astype(np.float64).copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in out.items()}
    v = {k: np.zeros_like(val) for k, val in out.items()}
    for t in range(1, steps + 1):
        for k in out:
            g = grads[k]
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            out[k] = out[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


class TestAdam:
    def test_first_step_moves_by_lr_against_sign(self):
        params = {"w": np.array([1.0, -2.0, 0.5])}
        grads = {"w": np.array([0.3, -4.0, 1e-3])}
        state = AdamState(lr=1e-4)
        adam_step(params, grads, state)
        move = params["w"] - np.array([1.0, -2.0, 0.5])
        assert np.allclose(move, -1e-4 * np.sign(grads["w"]), rtol=1e-4)

    def test_matches_reference_over_many_steps(self):
        g = np.random.default_rng(141)
        start = {"a": g.normal(size=(3, 4)), "b": g.normal(size=(5,))}
        grads = {"a": g.normal(size=(3, 4)), "b": g.normal(size=(5,))}
        params = {k: v.copy() for k, v in start.items()}
        state = AdamState(lr=1e-2)
        for _ in range(10):
            adam_step(params, grads, state)
        want = reference_adam(start, grads, steps=10, lr=1e-2)
        for k in params:
            assert max_rel_err(params[k], want[k]) < 1e-12

    def test_zero_gradient_means_no_movement(self):
        params = {"w": np.array([3.0, -1.0])}
        state = AdamState()
        adam_step(params, {"w": np.zeros(2)}, state)
        assert params["w"].tolist() == [3.0, -1.0]

    def test_frozen_parameters_untouched(self):
        # a frozen layer has no entry in grads; Adam skips what grads omits
        params = {"w": np.array([1.0]), "frozen": np.array([5.0])}
        grads = {"w": np.array([1.0])}
        state = AdamState()
        before = params["frozen"].tobytes()
        adam_step(params, grads, state)
        assert params["frozen"].tobytes() == before
        assert "frozen" not in state.m and "frozen" not in state.v
        assert params["w"][0] != 1.0

    def test_updates_happen_in_place(self):
        w = np.array([1.0])
        state = AdamState()
        adam_step({"w": w}, {"w": np.array([1.0])}, state)
        assert w[0] != 1.0  # caller's array moved, no copy swap

    def test_gradient_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState())
