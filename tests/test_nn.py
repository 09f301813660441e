"""Forward/backward correctness of the network building blocks."""

import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (
    central_diff,
    max_rel_err,
    naive_conv2d,
    naive_conv2d_backward,
    naive_maxpool2,
    sliced_columns,
)
import tumorkit
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
from tumorkit.model import build_vgg16, build_vgg_tiny, init_weights
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

    @pytest.mark.parametrize("shape", [(0, 2, 4, 4), (1, 2, 0, 4), (2, 2, 4, 0)])
    def test_empty_input_rejected(self, shape):
        layer = conv_layer(3, 2, np.random.default_rng(80))
        x, dy = np.zeros(shape), np.zeros((shape[0], 3) + shape[2:])
        for call in (lambda: conv2d_forward(x, layer), lambda: conv2d_param_grads(x, layer, dy),
                     lambda: conv2d_backward(x, layer, dy)):
            with pytest.raises(ShapeMismatch, match="non-empty"):
                call()


def patch_bytes(x: np.ndarray, block: tuple[int, int, int, int]) -> int:
    """Bytes of the patches of one block of ``x``."""
    n0, n1, r0, r1 = block
    return x.shape[1] * 9 * (n1 - n0) * (r1 - r0) * x.shape[3] * x.itemsize


@pytest.fixture
def blocks_used(monkeypatch):
    """Record (input, weight bytes, blocks) of every blocked product."""
    calls = []
    blocks = nn._blocks

    def spy(x, weight):
        calls.append((x, weight.nbytes, blocks(x, weight)))
        return calls[-1][2]

    monkeypatch.setattr(nn, "_blocks", spy)
    return calls


def image_slices(blocks: list[tuple[int, int, int, int]], h: int, w: int):
    """Column range (start, stop) of each image's part of each block, in
    column order: the columns one product multiplies."""
    for n0, n1, r0, r1 in blocks:
        for i in range(n0, n1):
            yield (i * h + r0) * w, (i * h + r1) * w


def sliced_product(weight: np.ndarray, x: np.ndarray, bias=None) -> np.ndarray:
    """The oracle of a patch product as [N, O, H, W]: ``weight`` times each
    image's columns of each block of ``x``, one product each, over the
    columns of the sliced builder of the test helpers."""
    n, _, h, w = x.shape
    cols = sliced_columns(x)
    y = np.empty((weight.shape[0], n * h * w), dtype=np.result_type(weight, x))
    for start, stop in image_slices(nn._blocks(x, weight), h, w):
        y[:, start:stop] = weight @ np.ascontiguousarray(cols[:, start:stop])
    if bias is not None:
        y += bias[:, None]
    return np.ascontiguousarray(y.reshape(-1, n, h, w).transpose(1, 0, 2, 3))


def nonfinite_borders(x: np.ndarray) -> np.ndarray:
    """``x`` with NaN first in one of every five rows of each image and
    +-inf last in the next, so a patch that reads across a row end into
    them shows."""
    x = x.copy()
    n, _, h, _ = x.shape
    for i in range(n):
        for r in range(h):
            if (i + r) % 5 == 0:
                x[i, :, r, 0] = np.nan
            elif (i + r) % 5 == 1:
                x[i, :, r, -1] = -np.inf if i % 2 else np.inf
    return x


class TestPatchMatrix:
    """The patch matrix is the one the sliced builder of the test helpers
    makes, bit for bit, whatever the shape and values."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (1, 1, 1, 1), (2, 3, 1, 1), (3, 2, 1, 5), (2, 3, 4, 1), (3, 4, 5, 6), (2, 16, 17, 9),
    ])
    def test_columns_match_the_sliced_oracle(self, shape, dtype):
        # the whole input as one block, then each image and each row of it
        x = nonfinite_borders(np.random.default_rng(66).normal(size=shape).astype(dtype))
        n, c, h, w = shape
        xp = nn._pad(x)
        want = sliced_columns(x).reshape(c * 9, n, h, w)
        blocks = [(0, n, 0, h)] + [(i, i + 1, 0, h) for i in range(n)] + [
            (i, i + 1, r, r + 1) for i in range(n) for r in range(h)
        ]
        for n0, n1, r0, r1 in blocks:
            out = np.empty(c * 9 * (n1 - n0) * (r1 - r0) * w, dtype=dtype)
            cols = nn._patches(xp, x.shape, (n0, n1, r0, r1), out)
            assert cols.flags.c_contiguous
            part = np.ascontiguousarray(want[:, n0:n1, r0:r1]).reshape(c * 9, -1)
            assert cols.tobytes() == part.tobytes()

    @pytest.mark.parametrize("shape, dtype, block", [
        ((3, 4, 6, 7), np.float32, 4 * 9 * 7 * 4 * 2),  # row blocks: 3 per image
        ((1, 4, 5, 1), np.float64, 4 * 9 * 8 * 2),  # W=1, row blocks of 2
        ((5, 2, 1, 1), np.float32, 2 * 9 * 4 * 2),  # H=W=1, runs of 2 images
        ((4, 3, 1, 6), np.float64, 3 * 9 * 6 * 8 * 3),  # H=1, runs of 3 images
    ])
    @np.errstate(invalid="ignore")  # inf - inf in the products
    def test_blocked_product_matches_the_sliced_oracle(
        self, monkeypatch, blocks_used, shape, dtype, block
    ):
        # each image's columns of each block against the same product of
        # the oracle's columns: BLAS may round a narrower product differently
        monkeypatch.setattr(nn, "BLOCK_BYTES", block)
        g = np.random.default_rng(67)
        x = nonfinite_borders(g.normal(size=shape).astype(dtype))
        weight = g.normal(size=(2, shape[1] * 9)).astype(dtype)
        got = nn._patch_product(weight, x)
        [(_, _, blocks)] = blocks_used
        assert len(blocks) > 1
        cols = sliced_columns(x)
        want = np.concatenate([
            weight @ np.ascontiguousarray(cols[:, start:stop])
            for start, stop in image_slices(blocks, shape[2], shape[3])
        ], axis=1)
        assert np.isfinite(want).any() and not np.isfinite(want).all()
        np.testing.assert_array_equal(got, want)


class TestBlockedPatchProduct:
    """Built block by block, the patch product gives the bytes of one
    product per image's columns of each block over the sliced oracle."""

    @staticmethod
    def check(monkeypatch, shape, dtype, out_c, block_bytes, seed):
        """Compare the blocked forward and dx with the sliced oracle;
        return the blocks of the forward input."""
        monkeypatch.setattr(nn, "BLOCK_BYTES", block_bytes)
        g = np.random.default_rng(seed)
        n, c, h, w = shape
        x = g.normal(size=shape).astype(dtype)
        layer = ConvLayer(weight=g.normal(size=(out_c, c, 3, 3)).astype(dtype),
                          bias=g.normal(size=(out_c,)).astype(dtype))
        weight = layer.weight.reshape(out_c, -1)
        assert conv2d_forward(x, layer).tobytes() == sliced_product(weight, x, layer.bias).tobytes()

        dy = g.normal(size=(n, out_c, h, w)).astype(dtype)
        w_flip = layer.weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        dx, _, _ = conv2d_backward(x, layer, dy)
        assert dx.tobytes() == sliced_product(w_flip, dy).tobytes()
        assert len(nn._blocks(dy, w_flip)) > 1
        assert layer.weight.nbytes <= block_bytes  # the budget alone sets the blocks
        return nn._blocks(x, weight)

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
        blocks = nn._blocks(np.zeros((2, 3, 4, 5), dtype=np.float32), np.zeros((1, 27)))
        assert blocks == [(i, i + 1, r, r + 1) for i in range(2) for r in range(4)]

    def test_vgg_tiny_blocks_stay_within_the_budget(self, blocks_used):
        # a 16-image vgg_tiny@64 training step: three forward products,
        # then the dw and dx products of conv3 and conv2 and the dw of conv1
        m = init_weights(build_vgg_tiny(input_size=64), Rng(68))
        x = np.random.default_rng(69).normal(size=(16, 1, 64, 64)).astype(np.float32)
        targets = np.tile(np.array([[1.0, 0.0]], dtype=np.float32), (16, 1))
        logits, trace = m.forward_logits(x, "train", Rng(70))
        m.backward(trace, softmax_ce_loss(logits, targets)[1])
        assert [tuple(x.shape[1:]) for x, _, _ in blocks_used] == [
            (1, 64, 64), (8, 32, 32), (16, 16, 16),
            (16, 16, 16), (32, 16, 16), (8, 32, 32), (16, 32, 32), (1, 64, 64),
        ]
        for x, weight_bytes, blocks in blocks_used:
            assert weight_bytes <= nn.BLOCK_BYTES
            assert all(patch_bytes(x, b) <= nn.BLOCK_BYTES for b in blocks)
        assert any(len(blocks) > 1 for _, _, blocks in blocks_used)

    def test_deep_layer_blocks_are_the_size_of_the_weight(self, monkeypatch, blocks_used):
        # 512->512@28: a 9 MiB weight, 14 MiB of patches, 504 KiB per row
        g = np.random.default_rng(71)
        x = g.normal(size=(1, 512, 28, 28)).astype(np.float32)
        layer = ConvLayer(weight=g.normal(size=(512, 512, 3, 3)).astype(np.float32),
                          bias=np.zeros(512, dtype=np.float32))
        conv2d_forward(x, layer)
        [(_, weight_bytes, blocks)] = blocks_used
        assert weight_bytes == layer.weight.nbytes > nn.BLOCK_BYTES
        row = patch_bytes(x, (0, 1, 0, 1))
        # an image product of 1.85 G multiply-adds is cut in halves, each
        # smaller than the weight, so that it can be split
        assert blocks == [(0, 1, 0, 14), (0, 1, 14, 28)]
        assert all(patch_bytes(x, b) <= weight_bytes for b in blocks)
        # too small to split, it gets whole rows: each block but the last
        # holds the weight's bytes to within one row, and none holds more
        monkeypatch.setattr(nn, "SPLIT_MACS", 2**40)
        blocks = nn._blocks(x, layer.weight)
        assert blocks == [(0, 1, 0, 18), (0, 1, 18, 28)]
        assert all(patch_bytes(x, b) <= weight_bytes for b in blocks)
        assert all(patch_bytes(x, b) > weight_bytes - row for b in blocks[:-1])
        bare = nn._blocks(x, np.zeros(0, dtype=np.float32))
        assert len(bare) == 14  # two rows per block on the bare budget

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


class TestBlockedWeightGradient:
    """dw sums the products of the same patch blocks as the forward pass,
    in block order on the calling thread, one block of dy rows at a time."""

    @pytest.mark.parametrize("block_bytes, want_blocks", [
        (2**20, [(0, 3, 0, 6)]),  # one block holds the batch
        (2 * 9 * 6 * 5 * 8 * 2, [(0, 2, 0, 6), (2, 3, 0, 6)]),  # runs of whole images
        (2 * 9 * 2 * 5 * 8, [(i, i + 1, r, r + 2) for i in range(3) for r in (0, 2, 4)]),
        # the weight (576 bytes) above the budget: blocks of its size, one row
        (288, [(i, i + 1, r, r + 1) for i in range(3) for r in range(6)]),
    ])
    def test_matches_the_nested_loops(self, monkeypatch, blocks_used, block_bytes, want_blocks):
        monkeypatch.setattr(nn, "BLOCK_BYTES", block_bytes)
        g = np.random.default_rng(89)
        x = g.normal(size=(3, 2, 6, 5))
        layer = conv_layer(4, 2, g)
        dy = g.normal(size=(3, 4, 6, 5))
        dw, db = conv2d_param_grads(x, layer, dy)
        [(_, _, blocks)] = blocks_used
        assert blocks == want_blocks
        _, want_dw, want_db = naive_conv2d_backward(x, layer.weight, dy)
        assert dw.shape == layer.weight.shape and dw.flags.c_contiguous
        assert np.abs(dw - want_dw).max() < 1e-10
        assert np.abs(db - want_db).max() < 1e-10

    def test_bytes_do_not_depend_on_the_worker_count(self, monkeypatch, submitted):
        monkeypatch.setattr(nn, "BLOCK_BYTES", 8 * 9 * 16 * 4 * 3)  # 3 rows per block
        g = np.random.default_rng(90)
        x = g.normal(size=(4, 8, 16, 16)).astype(np.float32)
        layer = ConvLayer(weight=g.normal(size=(16, 8, 3, 3)).astype(np.float32),
                          bias=np.zeros(16, dtype=np.float32))
        dy = g.normal(size=(4, 16, 16, 16)).astype(np.float32)
        got = []
        for workers in (1, 2):
            split_everything(monkeypatch, workers)
            dw, db = conv2d_param_grads(x, layer, dy)
            got.append((dw.tobytes(), db.tobytes()))
        assert got[0] == got[1]
        assert submitted == []  # dw runs on the calling thread


def global_rows(block: tuple[int, int, int, int], h: int) -> range:
    """Rows (image * h + row) of one block."""
    n0, n1, r0, r1 = block
    return range(n0 * h + r0, (n1 - 1) * h + r1)


@pytest.fixture
def submitted(monkeypatch):
    """Record each share handed to the pool, then run it there."""
    calls = []
    pool = nn._executor()
    submit = pool.submit

    def spy(fn, *args):
        calls.append(args[4])
        return submit(fn, *args)

    monkeypatch.setattr(pool, "submit", spy)
    return calls


def split_everything(monkeypatch, workers: int) -> None:
    """Run every product on ``workers`` shares, however small."""
    monkeypatch.setattr(nn, "WORKERS", workers)
    monkeypatch.setattr(nn, "SPLIT_MACS", 1)


class TestSplitProduct:
    """A product cut into shares that run on several threads gives the
    bytes of the product on one thread: its blocks, and so its products,
    do not depend on the worker count."""

    @pytest.mark.parametrize("n, c, out_c, size, dtype", [
        # vgg16 channel counts at reduced sizes
        (1, 1, 64, 56, np.float32), (2, 64, 64, 32, np.float32), (1, 64, 128, 28, np.float32),
        (1, 128, 128, 28, np.float32), (2, 128, 256, 14, np.float32),
        (3, 256, 512, 14, np.float32), (1, 512, 512, 14, np.float32),
        (1, 64, 64, 28, np.float64),
        # the vgg_tiny@64 products
        (16, 1, 8, 64, np.float32), (16, 8, 16, 32, np.float32), (16, 16, 32, 16, np.float32),
        (7, 8, 16, 32, np.float32), (1, 16, 32, 16, np.float32),
    ])
    def test_split_forward_and_dx_keep_their_bytes(self, monkeypatch, submitted, n, c, out_c,
                                                    size, dtype):
        g = np.random.default_rng(90)
        x = g.normal(size=(n, c, size, size)).astype(dtype)
        layer = ConvLayer(weight=(g.normal(size=(out_c, c, 3, 3)) * 0.05).astype(dtype),
                          bias=g.normal(size=(out_c,)).astype(dtype))
        dy = g.normal(size=(n, out_c, size, size)).astype(dtype)
        weight = layer.weight.reshape(out_c, -1)
        w_flip = layer.weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        got = []
        for workers in (1, 2, 3):
            split_everything(monkeypatch, workers)
            submitted.clear()
            y = conv2d_forward(x, layer)
            assert len(submitted) == min(workers, len(nn._blocks(x, weight))) - 1
            got.append((y.tobytes(), conv2d_backward(x, layer, dy)[0].tobytes()))
        assert got[1] == got[0] and got[2] == got[0]
        # and each image's columns of each block have the bytes of their own product
        assert got[0][0] == sliced_product(weight, x, layer.bias).tobytes()
        assert got[0][1] == sliced_product(w_flip, dy).tobytes()

    def test_vgg16_predicts_the_same_bytes_on_two_workers(self, monkeypatch, submitted):
        m = build_vgg16()
        g = np.random.default_rng(91)
        for param in m.parameters().values():
            fan_in = np.prod(param.shape[1:]) if param.ndim > 1 else 1e4  # small biases
            param[...] = g.standard_normal(param.shape, dtype=np.float32) * np.sqrt(2 / fan_in)
        x = g.normal(size=(1, 1, 224, 224)).astype(np.float32)
        monkeypatch.setattr(nn, "WORKERS", 1)
        alone = m.forward(x)
        assert submitted == []
        monkeypatch.setattr(nn, "WORKERS", 2)
        assert m.forward(x).tobytes() == alone.tobytes()
        assert len(submitted) == 13  # every conv, the first at 28.9 M multiply-adds

    @pytest.mark.parametrize("shape, budget", [
        ((3, 4, 6, 7), 4 * 9 * 7 * 4 * 2),  # two-row blocks
        ((2, 16, 42, 48), 16 * 9 * 48 * 4 * 5),  # five-row blocks, a short last one
        ((1, 512, 28, 28), 512 * 9 * 28 * 4 * 18),  # blocks of 18 and 10 rows, or halves
        ((1, 512, 14, 14), 2**24),  # one block, or halves
        ((7, 8, 24, 24), 8 * 9 * 24 * 24 * 4 * 3),  # three images per block
        ((64, 32, 14, 14), 32 * 9 * 14 * 14 * 4 * 4),  # four images per block
        ((5, 2, 1, 1), 2 * 9 * 4 * 2),  # H = 1: a row is never cut
        ((5, 1, 9, 3), 2**20),  # an odd number of rows
    ])
    @pytest.mark.parametrize("parts", [2, 3, 5])
    def test_blocks_depend_only_on_the_layer_and_one_image(self, monkeypatch, shape, budget,
                                                           parts):
        monkeypatch.setattr(nn, "BLOCK_BYTES", budget)
        n, c, h, w = shape
        x = np.zeros(shape, dtype=np.float32)
        weight = np.zeros((8, c * 9), dtype=np.float32)
        budget = max(budget, weight.nbytes)
        for split_macs in (nn.SPLIT_MACS, 1):
            monkeypatch.setattr(nn, "SPLIT_MACS", split_macs)
            blocks = nn._blocks(x, weight)
            # the even runs of blocks a product split ``parts`` ways hands
            # out cover every row once, in order
            count = len(blocks)
            runs = [blocks[count * k // parts : count * (k + 1) // parts] for k in range(parts)]
            assert [r for run in runs for b in run for r in global_rows(b, h)] == list(range(n * h))
            for n0, n1, r0, r1 in blocks:
                assert n1 > n0 and r1 > r0
                assert n1 - n0 == 1 or (r0, r1) == (0, h)  # whole images or rows of one image
                assert patch_bytes(x, (n0, n1, r0, r1)) <= budget
            # the blocks of the first k images are those of the batch, cut at image k
            for k in range(1, n):
                want = [(n0, min(n1, k), r0, r1) for n0, n1, r0, r1 in blocks if n0 < k]
                assert nn._blocks(x[:k], weight) == want
            image, row = patch_bytes(x, (0, 1, 0, h)), patch_bytes(x, (0, 1, 0, 1))
            if weight.size * h * w >= 2 * split_macs:
                # an image whose own product can split is two blocks or more, if it has two rows
                assert all(sum(b[0] == i for b in blocks) >= min(2, h) for i in range(n))
                continue
            # otherwise the blocks the budget alone gives, as full as it allows
            if image <= budget:
                per = budget // image
                want = [(i, min(i + per, n), 0, h) for i in range(0, n, per)]
            else:
                per = max(1, budget // row)
                want = [(i, i + 1, r, min(r + per, h)) for i in range(n) for r in range(0, h, per)]
            assert blocks == want

    def test_small_products_stay_on_the_calling_thread(self, monkeypatch, submitted):
        monkeypatch.setattr(nn, "WORKERS", 2)
        g = np.random.default_rng(92)
        layer = conv_layer(16, 8, g)
        # an 18.9 M multiply-add product of a 16-image vgg_tiny@64 step
        x = g.normal(size=(16, 8, 32, 32)).astype(np.float32)
        conv2d_backward(x, layer, conv2d_forward(x, layer))
        assert submitted == []
        # 24 images take it past 2 * SPLIT_MACS
        x = g.normal(size=(24, 8, 32, 32)).astype(np.float32)
        conv2d_forward(x, layer)
        assert len(submitted) == 1

    @pytest.mark.parametrize("env, blas", [
        ({}, "cores"),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "cores", "OMP_NUM_THREADS": "1"}, "cores"),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "1000"}, "cores"),
    ])
    def test_workers_are_the_cores_blas_leaves_idle(self, monkeypatch, submitted, env, blas):
        cores = len(os.sched_getaffinity(0))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, str(cores) if value == "cores" else value)
        workers = nn._workers()
        assert workers == cores // (cores if blas == "cores" else blas)
        if blas == "cores":  # BLAS has every core: nothing is split
            monkeypatch.setattr(nn, "WORKERS", workers)
            g = np.random.default_rng(93)
            conv2d_forward(g.normal(size=(1, 64, 112, 112)).astype(np.float32),
                           conv_layer(64, 64, g))
            assert submitted == []

    @pytest.mark.parametrize("blas", ["mkl", "accelerate", ""])
    def test_other_blas_libraries_get_one_worker(self, monkeypatch, blas):
        # these variables need not set the threads of any other BLAS
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setattr(nn, "_blas", lambda: blas)
        assert nn._workers() == 1

    def test_no_more_than_workers_minus_one_threads_start(self, monkeypatch):
        monkeypatch.setattr(nn, "WORKERS", 2)
        g = np.random.default_rng(94)
        x = g.normal(size=(1, 64, 112, 112)).astype(np.float32)
        layer = ConvLayer(weight=g.normal(size=(64, 64, 3, 3)).astype(np.float32),
                          bias=np.zeros(64, dtype=np.float32))
        before = threading.active_count()
        for _ in range(4):
            conv2d_backward(x, layer, conv2d_forward(x, layer))
        assert threading.active_count() - before <= 1

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_failing_share_raises_after_every_share_has_ended(self, monkeypatch, failing):
        split_everything(monkeypatch, 2)
        patches = nn._patches
        built = []

        def flaky(xp, shape, block, out):
            caller = threading.current_thread() is threading.main_thread()
            if caller == (failing == "caller"):
                raise RuntimeError(f"{failing} share")
            time.sleep(0.2)  # still running when the failing share raises
            built.append(block)
            return patches(xp, shape, block, out)

        monkeypatch.setattr(nn, "_patches", flaky)
        g = np.random.default_rng(95)
        with pytest.raises(RuntimeError, match=f"{failing} share"):
            nn._patch_product(g.normal(size=(16, 72)), g.normal(size=(1, 8, 16, 16)))
        assert built == [(0, 1, 8, 16) if failing == "caller" else (0, 1, 0, 8)]


def dynamic_openblas_on_avx2() -> bool:
    """Whether numpy's OpenBLAS picks its kernels at run time (so that
    ``OPENBLAS_CORETYPE`` can choose them) on a CPU that has AVX2."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        with open("/proc/cpuinfo") as cpuinfo:
            flags = cpuinfo.read().split()
    except (TypeError, KeyError, OSError):  # an older numpy, no BLAS listed, not Linux
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "") and "avx2" in flags


# Run with OpenBLAS's AVX2 kernels, which round a column by its place in
# a product and the product's width; prints whether each image's GAP row
# of a batch is its one-image row, and whether a split forward keeps the
# one-thread bytes.
HASWELL_CHECK = """
import numpy as np
from tumorkit import nn
from tumorkit.model import build_vgg_tiny, init_weights
from tumorkit.rng import Rng

m = init_weights(build_vgg_tiny(input_size=64), Rng(96))
specs = m.specs[: [spec.kind for spec in m.specs].index("gap") + 1]
x = np.random.default_rng(97).normal(size=(16, 1, 64, 64)).astype(np.float32)
rows = m._run(x, specs, "eval", None)
print(all(rows[i].tobytes() == m._run(x[i : i + 1], specs, "eval", None).tobytes()
          for i in range(16)))
# vgg16's first layer, one image, on one worker and on two
g = np.random.default_rng(98)
x = g.normal(size=(1, 1, 224, 224)).astype(np.float32)
layer = nn.ConvLayer(weight=g.normal(size=(64, 1, 3, 3)).astype(np.float32),
                     bias=g.normal(size=64).astype(np.float32))
got = []
for workers in (1, 2):
    nn.WORKERS = workers
    got.append(nn.conv2d_forward(x, layer).tobytes())
print(got[0] == got[1])
"""


@pytest.mark.skipif(not dynamic_openblas_on_avx2(),
                    reason="needs a DYNAMIC_ARCH OpenBLAS on an AVX2 CPU")
def test_rows_and_split_bytes_hold_on_the_avx2_kernels():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(tumorkit.__file__))}
    done = subprocess.run([sys.executable, "-c", HASWELL_CHECK], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_routing_matches_first_argmax_on_ties(self, dtype):
        g = np.random.default_rng(94)
        # three levels plus signed zeros, so most windows hold a tie
        x = g.choice(np.array([0.0, -0.0, 1.0, 2.0]), size=(3, 4, 12, 16)).astype(dtype)
        x[0] = 1.5  # plateaus: every window of a whole image ties four ways
        x[1, :2] = 0.0  # all-zero windows
        windows = x.reshape(3, 4, 6, 2, 8, 2).transpose(0, 1, 2, 4, 3, 5).reshape(3, 4, 6, 8, 4)
        y, routing = maxpool2(x)
        assert routing.dtype == np.int8
        assert np.array_equal(routing, windows.argmax(axis=-1))  # argmax takes the first
        assert np.array_equal(y, windows.max(axis=-1))

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
