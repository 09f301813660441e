"""From-scratch differentiable layer kernels and the Adam update.

Tensors are plain numpy arrays in [N, C, H, W] (or [N, features]) layout,
float32 for training and float64 when checking gradients.  Every kernel
is a pure function of its inputs: forward passes return outputs (plus
whatever the backward pass needs), backward passes take the forward
inputs and the output cotangent and return exact gradients.

Convolution is cross-correlation (no kernel flip) with a fixed 3x3
kernel, stride 1, and zero padding 1, so spatial size is preserved.
Every convolution product is one matrix multiply against a patch matrix
(im2col; Chellapilla, Puri & Simard 2006): the zero-padded 3x3 patches
of an [N, C, H, W] input laid out channel-major as a C-contiguous
[C*9, N*H*W] matrix, rows ordered (c, ky, kx) and columns (n, h, w).
It is filled by nine shifted copies whose innermost runs are whole image
rows.  The forward pass is weight [O, C*9] times the patches of x, the
weight gradient is dy [O, N*H*W] times their transpose, and the input
gradient is the flipped, channel-swapped weight [C, O*9] times the
patches of dy.

The forward pass and the input gradient build and multiply the patch
matrix in blocks of at most ``BLOCK_BYTES`` (low-memory im2col; Anderson
et al. 2017): runs of whole images, or runs of whole rows of one image
when an image's patches do not fit.  Each block's product goes straight
into its columns of the [O, N*H*W] result, so the full patch matrix
(115 MB for the second VGG16 layer) is never built.  Every column is
still one dot product over the same C*9 terms; with OpenBLAS, blocking
leaves the bits of every layer shape of both built-in networks as they
were.  The weight gradient reduces over the columns, so it keeps the
one-shot patch matrix.

Pooling is 2x2 max with stride 2, taken pairwise over the four strided
phases of the input.  The routing code of a window is its argmax in
row-major order (0 top-left, 1 top-right, 2 bottom-left, 3 bottom-right)
and ties go to the first position: the bottom row wins only if its max
is strictly greater than the top row's, and within a row the right
element wins only if it is strictly greater than the left.  Dropout is
inverted (survivors are scaled at train time; evaluation is the
identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import BadTargets, InvalidProbability, OddSpatialDim, ShapeMismatch
from .rng import Rng

KERNEL = 3
PAD = 1
# Largest patch block, in bytes: the smallest round size that keeps every
# vgg_tiny@64 product of a 16-image batch (forward and dx, at most 9 MiB
# of patches) one block.  vgg16@224 splits its layers at 56x56 and up
# into runs of rows; fresh-process vgg16 predicts timed with blocks of 2
# to 32 MiB differed by less than their run-to-run spread.
BLOCK_BYTES = 10 * 2**20


@dataclass
class ConvLayer:
    """3x3 stride-1 pad-1 convolution parameters."""

    weight: np.ndarray  # [out, in, 3, 3]
    bias: np.ndarray  # [out]
    frozen: bool = False

    def __post_init__(self):
        if self.weight.ndim != 4 or self.weight.shape[2:] != (KERNEL, KERNEL):
            raise ShapeMismatch(f"conv weight must be [out, in, 3, 3], got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeMismatch(f"conv bias {self.bias.shape} vs weight {self.weight.shape}")

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]


@dataclass
class DenseLayer:
    """Fully connected layer parameters, y = x W^T + b."""

    weight: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]
    frozen: bool = False

    def __post_init__(self):
        if self.weight.ndim != 2:
            raise ShapeMismatch(f"dense weight must be 2-d, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeMismatch(f"dense bias {self.bias.shape} vs weight {self.weight.shape}")

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]


def _check_nchw(x: np.ndarray, channels: int, op: str) -> None:
    if x.ndim != 4:
        raise ShapeMismatch(f"{op} expects [N, C, H, W], got {x.shape}")
    if x.shape[1] != channels:
        raise ShapeMismatch(f"{op} expects {channels} channels, got {x.shape[1]}")


def _pad(x: np.ndarray) -> np.ndarray:
    """``x`` [N, C, H, W] as a zero-padded channel-major [C, N, H+2, W+2] copy."""
    n, c, h, w = x.shape
    xp = np.zeros((c, n, h + 2 * PAD, w + 2 * PAD), dtype=x.dtype)
    xp[:, :, PAD : PAD + h, PAD : PAD + w] = x.transpose(1, 0, 2, 3)
    return xp


def _patches(xp: np.ndarray, block: tuple[int, int, int, int], out: np.ndarray) -> np.ndarray:
    """Fill ``out`` [C, 3, 3, n, r, W] with the patches of output rows
    ``r0:r1`` of images ``n0:n1``, ``block = (n0, n1, r0, r1)``, from the
    padded input ``xp``; return it as a [C*9, n*r*W] matrix."""
    n0, n1, r0, r1 = block
    w = xp.shape[3] - 2 * PAD
    for ky in range(KERNEL):
        for kx in range(KERNEL):
            out[:, ky, kx] = xp[:, n0:n1, r0 + ky : r1 + ky, kx : kx + w]
    return out.reshape(out.shape[0] * KERNEL * KERNEL, math.prod(out.shape[3:]))


def _columns(x: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 patches of ``x`` [N, C, H, W] as a C-contiguous
    [C*9, N*H*W] matrix: rows ordered (c, ky, kx), columns (n, h, w)."""
    n, c, h, w = x.shape
    cols = np.empty((c, KERNEL, KERNEL, n, h, w), dtype=x.dtype)
    return _patches(_pad(x), (0, n, 0, h), cols)


def _blocks(x: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(n0, n1, r0, r1) of each patch block of ``x``, in column order.

    A block is a run of whole images if one image's patches fit in
    :data:`BLOCK_BYTES`, else a run of whole rows of one image (at least
    one row).
    """
    n, c, h, w = x.shape
    image_bytes = c * KERNEL * KERNEL * h * w * x.itemsize
    if image_bytes <= BLOCK_BYTES:
        per = BLOCK_BYTES // max(image_bytes, 1)
        return [(i, min(i + per, n), 0, h) for i in range(0, n, per)]
    per = max(1, BLOCK_BYTES // (image_bytes // h))
    return [(i, i + 1, r, min(r + per, h)) for i in range(n) for r in range(0, h, per)]


def _patch_product(
    weight: np.ndarray, x: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """``weight`` [O, C*9] times the patch matrix of ``x`` [N, C, H, W],
    plus ``bias`` per row if given, as an [O, N*H*W] array.

    The patch matrix is built and multiplied one block (see
    :func:`_blocks`) at a time in one reused buffer; each product is
    written straight into its columns of the result, and the bias is
    added while they are still in cache.
    """
    n, c, h, w = x.shape
    xp = _pad(x)
    blocks = _blocks(x)
    y = buf = None
    start = 0
    for i, block in enumerate(blocks):
        n0, n1, r0, r1 = block
        shape = (c, KERNEL, KERNEL, n1 - n0, r1 - r0, w)
        if buf is None:  # no later block is larger than the first
            buf = np.empty(math.prod(shape), dtype=x.dtype)
        cols = _patches(xp, block, buf[: math.prod(shape)].reshape(shape))
        if i == len(blocks) - 1:
            del xp  # not read again: free it before a one-block result is made
        if y is None:
            y = np.empty((weight.shape[0], n * h * w), dtype=np.result_type(weight, x))
        out = y[:, start : start + cols.shape[1]]
        np.matmul(weight, cols, out=out)
        if bias is not None:
            out += bias[:, None]
        start += cols.shape[1]
    return y


def _to_nchw(y: np.ndarray, n: int, h: int, w: int, dtype) -> np.ndarray:
    """[C, N*H*W] kernel output back to a contiguous [N, C, H, W] array."""
    y = y.reshape(-1, n, h, w).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(y).astype(dtype, copy=False)


def conv2d_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Cross-correlate ``x`` [N, C, H, W] with the layer kernel, add bias."""
    _check_nchw(x, layer.in_channels, "conv2d")
    n, _, h, w = x.shape
    y = _patch_product(layer.weight.reshape(layer.out_channels, -1), x, layer.bias)
    return _to_nchw(y, n, h, w, x.dtype)


def conv2d_param_grads(
    x: np.ndarray, layer: ConvLayer, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter gradients (dw, db) of :func:`conv2d_forward`, without dx.

    This is all a network's first trainable layer needs: nothing reads
    the gradient of its input.
    """
    _check_nchw(x, layer.in_channels, "conv2d_backward")
    expected = (x.shape[0], layer.out_channels, x.shape[2], x.shape[3])
    if dy.shape != expected:
        raise ShapeMismatch(f"dy shape {dy.shape}, expected {expected}")
    dy_rows = dy.transpose(1, 0, 2, 3).reshape(layer.out_channels, -1)  # [out, N*H*W]
    dw = (dy_rows @ _columns(x).T).reshape(layer.weight.shape)
    db = dy.sum(axis=(0, 2, 3))
    return dw.astype(layer.weight.dtype, copy=False), db.astype(layer.bias.dtype, copy=False)


def conv2d_backward(
    x: np.ndarray, layer: ConvLayer, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of :func:`conv2d_forward`.

    dw and db come from :func:`conv2d_param_grads`, so they are the same
    bits whether or not dx is wanted.  dx is the correlation of dy,
    padded by 1, with the flipped kernel, channels in and out swapped.
    """
    dw, db = conv2d_param_grads(x, layer, dy)
    n, c, h, w = x.shape
    w_flip = layer.weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    dx = _patch_product(w_flip, dy)  # [C, N*H*W]
    return _to_nchw(dx, n, h, w, x.dtype), dw, db


def maxpool2(x: np.ndarray, routing: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """2x2 stride-2 max pool; returns (output, routing).

    ``routing`` holds each window's argmax position in row-major window
    order (ties go to the first), which is all the backward pass needs;
    with ``routing=False`` it is not computed and None is returned.
    """
    if x.ndim != 4:
        raise ShapeMismatch(f"maxpool2 expects [N, C, H, W], got {x.shape}")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise OddSpatialDim(f"spatial dims must be even, got {h}x{w}")
    a, b = x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]
    c, d = x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]
    top, bottom = np.maximum(a, b), np.maximum(c, d)
    if not routing:
        return np.maximum(top, bottom), None
    # strict comparisons send ties to the earlier position
    low = bottom > top
    codes = (2 * low + np.where(low, d > c, b > a)).astype(np.int8)
    return np.maximum(top, bottom), codes


def maxpool2_backward(routing: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Route each dy element back to its window's argmax position."""
    if dy.shape != routing.shape:
        raise ShapeMismatch(f"dy shape {dy.shape} vs routing {routing.shape}")
    n, c, h2, w2 = dy.shape
    dx = np.empty((n, c, h2, 2, w2, 2), dtype=dy.dtype)
    for k in range(4):
        np.multiply(dy, routing == k, out=dx[:, :, :, k // 2, :, k % 2])
    return dx.reshape(n, c, h2 * 2, w2 * 2)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Per-channel spatial mean: [N, C, H, W] -> [N, C]."""
    if x.ndim != 4:
        raise ShapeMismatch(f"global_avg_pool expects [N, C, H, W], got {x.shape}")
    return x.mean(axis=(2, 3))


def gap_backward(dy: np.ndarray, h: int, w: int) -> np.ndarray:
    """Spread dy / (h * w) uniformly over the pooled window."""
    scale = dy / (h * w)
    return np.broadcast_to(scale[:, :, None, None], dy.shape + (h, w)).astype(dy.dtype)


def relu(x: np.ndarray) -> np.ndarray:
    """max(0, x) elementwise."""
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Pass dy where x > 0; the subgradient at exactly 0 is taken as 0."""
    if x.shape != dy.shape:
        raise ShapeMismatch(f"x shape {x.shape} vs dy {dy.shape}")
    return dy * (x > 0)


def dense_forward(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    """y = x W^T + b for x of shape [N, in]."""
    if x.ndim != 2 or x.shape[1] != layer.in_features:
        raise ShapeMismatch(f"dense expects [N, {layer.in_features}], got {x.shape}")
    return x @ layer.weight.T + layer.bias


def dense_param_grads(
    x: np.ndarray, layer: DenseLayer, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter gradients (dw, db) of :func:`dense_forward`, without dx."""
    if x.ndim != 2 or x.shape[1] != layer.in_features:
        raise ShapeMismatch(f"dense expects [N, {layer.in_features}], got {x.shape}")
    if dy.shape != (x.shape[0], layer.out_features):
        raise ShapeMismatch(f"dy shape {dy.shape} vs [{x.shape[0]}, {layer.out_features}]")
    return dy.T @ x, dy.sum(axis=0)


def dense_backward(
    x: np.ndarray, layer: DenseLayer, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of :func:`dense_forward`."""
    dw, db = dense_param_grads(x, layer, dy)
    return dy @ layer.weight, dw, db


def dropout(
    x: np.ndarray, p: float, mode: str, rng: Rng | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; returns (output, keep mask).

    Train mode zeroes each element with probability ``p`` and scales
    survivors by 1/(1-p); eval mode is the identity (mask is None).
    Mask elements are drawn from ``rng`` in row-major order.
    """
    if not 0 <= p < 1:
        raise InvalidProbability(f"dropout probability {p} not in [0, 1)")
    if mode == "eval" or p == 0.0:
        return x, None
    if mode != "train":
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    draws = rng.randoms(x.size).reshape(x.shape)
    mask = draws >= p
    return (x * mask / (1.0 - p)).astype(x.dtype, copy=False), mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray | None, p: float) -> np.ndarray:
    """Apply the forward mask and scale to the cotangent."""
    if mask is None:
        return dy
    return (dy * mask / (1.0 - p)).astype(dy.dtype, copy=False)


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max subtraction."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_ce_loss(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean categorical cross-entropy and its fused gradient wrt logits.

    ``targets`` must be one-hot rows.  Probabilities are clamped at 1e-12
    inside the log; the gradient is (softmax(logits) - targets) / N.
    """
    if logits.shape != targets.shape or logits.ndim != 2:
        raise ShapeMismatch(f"logits {logits.shape} vs targets {targets.shape}")
    is01 = (targets == 0) | (targets == 1)
    if not is01.all() or not (targets.sum(axis=1) == 1).all():
        raise BadTargets("each target row must be one-hot")
    n = logits.shape[0]
    probs = softmax(logits)
    picked = np.clip((probs * targets).sum(axis=1), 1e-12, None)
    loss = float(-np.log(picked).mean())
    dlogits = ((probs - targets) / n).astype(logits.dtype, copy=False)
    return loss, dlogits


@dataclass
class AdamState:
    """Adam moments and step counter, keyed by parameter name."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> None:
    """One Adam update, in place on the ``params`` named in ``grads``.

    A parameter without a gradient (a frozen layer's) is skipped
    entirely: no moment is allocated or updated for it.  Moments are
    lazily zero-initialized on first use.
    """
    state.t += 1
    t = state.t
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient {name} has shape {g.shape}, param {p.shape}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * np.square(g)
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        p -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.dtype, copy=False)
