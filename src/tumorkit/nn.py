"""From-scratch differentiable layer kernels and the Adam update.

Tensors are numpy arrays indexed [N, C, H, W] (or [N, features]),
float32 for training and float64 when checking gradients.  A conv's
output and dx, and a max-pool's dx, are channel-major in memory: views
of C-contiguous [C, N, H, W] buffers, which the next conv reads without
a copy to NCHW and back; max-pool and ReLU keep their input's order.
Every kernel is a pure function of its inputs' values, whatever their
memory order: forward passes return outputs (plus whatever the
backward pass needs), backward passes take the forward inputs and the
output cotangent and return exact gradients.

Convolution is cross-correlation (no kernel flip) with a fixed 3x3
kernel, stride 1, and zero padding 1, so spatial size is preserved.
Every convolution product is one matrix multiply against a patch matrix
(im2col; Chellapilla, Puri & Simard 2006): the zero-padded 3x3 patches
of an [N, C, H, W] input laid out channel-major as a C-contiguous
[C*9, N*H*W] matrix, rows ordered (c, ky, kx) and columns (n, h, w).
The input is first copied channel-major with one zero row above and
below each image and one guard element at each end of a channel, so a
patch row (c, ky, kx) of one image is one contiguous run of that copy,
ky rows down and kx - 1 elements along.  A block of patches is then one
copy from a strided view, after which the two columns that read across
a row end (w = 0 of the kx = 0 rows, w = W-1 of the kx = 2 rows) are
zeroed; the matrix is the one nine shifted slices of a padded copy
would give.  The forward pass is weight [O, C*9] times the patches of x,
the weight gradient is dy [O, N*H*W] times their transpose, and the
input gradient is the flipped, channel-swapped weight [C, O*9] times
the patches of dy.

Every one of these products builds the patch matrix in cache-sized
blocks (low-memory im2col, Anderson et al. 2017; cache blocking, Goto &
van de Geijn 2008): runs of whole images, or runs of whole rows of one
image when an image's patches do not fit.  A block holds at most
``max(BLOCK_BYTES, weight bytes)`` of patches: 1 MiB keeps the patch
operand in L2 for the early, wide layers, and the deep layers, whose
weight BLAS packs again for every block, get blocks the size of their
weight.  So neither the full patch matrix (115 MB for the second VGG16
layer at one image) nor a channel-major copy of all of dy is built.  An
image whose own product has at least ``2 * SPLIT_MACS`` multiply-adds is
cut into two blocks or more, so that it can be split (below).

The forward and input-gradient products multiply each image's columns
of a block as a product of their own, straight from the block's buffer,
and write it into its columns of the [O, N*H*W] result.  The cuts inside
an image depend only on the layer and the image's size, so an image's
products, and its conv outputs, do not depend on the batch it is in or
on ``WORKERS``, on any BLAS kernel whose products are deterministic.
That matters: a BLAS kernel may round a column by its place in a
product and by the product's width, as OpenBLAS's AVX2 kernels do.  The
weight gradient adds the products of the blocks and their rows of dy in
block order, on the calling thread: the block list fixes the order of
its float sums, so its bits do not depend on ``WORKERS``.

A large product also uses the other cores.  The entry points call
:func:`own_cores`, which sets numpy's OpenBLAS to one thread, whatever
the environment says, and ``WORKERS`` to the cores this process may
use.  Before that (importing sets nothing), ``WORKERS`` is those cores
divided by the threads OpenBLAS reports; under another BLAS it is 1,
and nothing is set.  A product of at least ``2 * SPLIT_MACS``
multiply-adds is cut into
``min(WORKERS, blocks, multiply-adds // SPLIT_MACS)`` shares, even runs
of its blocks: one runs on the calling thread and the others on a
module pool of at most ``WORKERS - 1`` threads, while numpy's copies
and BLAS release the GIL.  Each share builds its blocks in its own
buffer and writes their products and bias into its own columns of the
result, so a split product holds at most one more block buffer per
extra worker.  ``WORKERS`` decides only which thread multiplies which
block, never the blocks.

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

import ctypes
import os
import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import BadTargets, InvalidProbability, OddSpatialDim, ShapeMismatch
from .rng import Rng

KERNEL = 3
# Smallest patch block budget, in bytes: small enough that a block stays
# in a 2 MiB per-core L2 while BLAS multiplies it.  A product whose weight
# is larger gets blocks of the weight's size (see _blocks), so deep
# layers do not pay for packing the weight again for many small blocks.
# Single-image forward medians (Xeon, 2 MiB L2 per core, OpenBLAS 0.3.31,
# one thread), one 10 MiB budget for every layer -> one 1 MiB budget:
# 64->64@224 116 -> 90 ms and 128->128@112 83 -> 68 ms, but 512->512@28
# 52 -> 64-72 ms and @14 13 -> 18-19 ms; with the weight setting the
# size, the deep layers keep their 10 MiB times.  With one size for all
# layers the two cancel, which is why vgg16 predicts timed with one
# budget of 2 to 32 MiB differed by less than their spread.
BLOCK_BYTES = 2**20
# Least multiply-adds a share of a split product holds (see
# _patch_product).  Handing a share to a worker costs ~0.3 ms.  Two-share
# product medians against one thread (2-core Xeon, OpenBLAS 0.3.31 pinned
# to one thread): 4.7-9.4 M multiply-adds 0.58-0.98x; the 18.9 M products
# of a 16-image vgg_tiny@64 step 0.94-1.22x alone, and slower end to end;
# 21-38 M 1.13-2.17x (vgg16's first layer, 28.9 M, 2.17x); the other
# vgg16@224 products, 0.46-1.85 G, 1.5x.  So a product splits from
# 2 * SPLIT_MACS (25.2 M): above the vgg_tiny step's products, below
# vgg16's first layer.
SPLIT_MACS = 12 * 2**20


def _openblas():
    """The OpenBLAS numpy loaded, as a lookup of its functions by bare name
    (numpy 2's wheels name them ``scipy_openblas_*64_``), or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line]
    except OSError:  # not Linux
        return None
    for lib in map(ctypes.CDLL, paths):
        for name in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            if hasattr(lib, name.format("get_num_threads")):
                return lambda function: getattr(lib, name.format(function))
    return None


def _workers() -> int:
    """The cores this process may use that BLAS leaves idle; 1 without OpenBLAS."""
    if _BLAS is None:
        return 1
    return max(1, len(os.sched_getaffinity(0)) // _BLAS("get_num_threads")())


def own_cores() -> None:
    """Run BLAS on one thread and split products over every core this process may use."""
    global WORKERS
    if _BLAS is not None:
        _BLAS("set_num_threads")(1)
        WORKERS = _workers()


_BLAS = _openblas()
WORKERS = _workers()
_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The thread pool that runs the shares of split products, made at the
    first split: importing ``concurrent.futures`` imports ``logging``, 0.6 MB
    of resident memory that a process which never splits does not pay."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="nn-share")
    return _pool


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
    if x.size == 0:
        raise ShapeMismatch(f"{op} expects a non-empty input, got {x.shape}")


def _pad(x: np.ndarray) -> np.ndarray:
    """``x`` [N, C, H, W] as a channel-major [C, N*(H+2)*W + 2] copy.

    Each channel is one guard element, then each image's H rows framed by
    one zero row above and one below, then a second guard element.  Only
    the zero rows and guards are written besides the copy of ``x``.
    """
    n, c, h, w = x.shape
    xp = np.empty((c, n * (h + 2) * w + 2), dtype=x.dtype)
    xp[:, 0] = xp[:, -1] = 0
    rows = xp[:, 1:-1].reshape(c, n, h + 2, w)
    rows[:, :, 0] = rows[:, :, -1] = 0
    rows[:, :, 1:-1] = x.transpose(1, 0, 2, 3)
    return xp


def _patches(
    xp: np.ndarray, shape: tuple[int, int, int, int], block: tuple[int, int, int, int],
    out: np.ndarray,
) -> np.ndarray:
    """Fill ``out`` with the patches of output rows ``r0:r1`` of images
    ``n0:n1``, ``block = (n0, n1, r0, r1)``, from ``xp``, the :func:`_pad`
    layout of an input of ``shape`` [N, C, H, W]; return them as a
    [C*9, n*r*W] matrix.

    Row (c, ky, kx) of one image is the run of r*W elements that starts
    ky rows down and kx - 1 elements along from the image's first output
    row, so the whole block is one copy from a strided view.  At w = 0 a
    kx = 0 run reads the last element of the row above, and at w = W-1 a
    kx = 2 run the first element of the row below; those columns are the
    left and right zero padding, and are zeroed after the copy.
    """
    _, c, h, w = shape
    n0, n1, r0, r1 = block
    n, r = n1 - n0, r1 - r0
    item = xp.itemsize
    window = np.ndarray(
        (c, KERNEL, KERNEL, n, r * w), xp.dtype, xp, (n0 * (h + 2) + r0) * w * item,
        (xp.strides[0], w * item, item, (h + 2) * w * item, item),
    )
    window.flags.writeable = False
    cols = out.reshape(c, KERNEL, KERNEL, n, r * w)
    np.copyto(cols, window)
    edges = out.reshape(c, KERNEL, KERNEL, n * r, w)
    edges[:, :, 0, :, 0] = 0
    edges[:, :, KERNEL - 1, :, w - 1] = 0
    return out.reshape(c * KERNEL * KERNEL, n * r * w)


def _blocks(x: np.ndarray, weight: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(n0, n1, r0, r1) of each patch block of ``x``, in column order,
    for a product with ``weight``.

    Blocks hold at most ``max(BLOCK_BYTES, weight bytes)`` of patches: a
    product's blocks are never smaller than its weight, which BLAS packs
    again for every block.  A block is a run of whole images if one
    image's patches fit, else a run of whole rows of one image (at least
    one row).  An image whose own product has at least ``2 * SPLIT_MACS``
    multiply-adds is cut into at least two blocks (if it has two rows),
    so that it can be split.  The cuts inside an image depend only on the
    layer and the image's size: the blocks of ``x[:k]`` are those of
    ``x`` up to image k.
    """
    n, c, h, w = x.shape
    image_bytes = c * KERNEL * KERNEL * h * w * x.itemsize
    budget = max(BLOCK_BYTES, weight.nbytes)
    if weight.size * h * w >= 2 * SPLIT_MACS:
        budget = min(budget, -(-image_bytes // 2))
    if image_bytes <= budget:
        per = max(1, budget // max(image_bytes, 1))
        return [(i, min(i + per, n), 0, h) for i in range(0, n, per)]
    per = max(1, budget // (image_bytes // h))
    return [(i, i + 1, r, min(r + per, h)) for i in range(n) for r in range(0, h, per)]


def _each_block(
    xp: np.ndarray, shape: tuple[int, int, int, int], blocks: list[tuple[int, int, int, int]]
):
    """Yield each of ``blocks`` with its patches (see :func:`_patches`),
    built in turn in one reused buffer."""
    _, c, _, w = shape
    sizes = [c * KERNEL * KERNEL * (n1 - n0) * (r1 - r0) * w for n0, n1, r0, r1 in blocks]
    buf = np.empty(max(sizes), dtype=xp.dtype)
    for block, size in zip(blocks, sizes):
        yield block, _patches(xp, shape, block, buf[:size])


def _fill(
    y: np.ndarray, weight: np.ndarray, xp: np.ndarray, shape: tuple[int, int, int, int],
    blocks: list[tuple[int, int, int, int]], bias: np.ndarray | None,
) -> None:
    """Build ``blocks`` of the :func:`_pad` layout ``xp`` in one buffer
    and multiply each image's columns of a block by ``weight`` as their
    own product, writing it, plus ``bias``, into its columns of ``y``."""
    _, _, h, w = shape
    for (n0, _, r0, r1), cols in _each_block(xp, shape, blocks):
        width = (r1 - r0) * w
        start = (n0 * h + r0) * w
        for k in range(0, cols.shape[1], width):
            out = y[:, start + k : start + k + width]
            np.matmul(weight, cols[:, k : k + width], out=out)
            if bias is not None:
                out += bias[:, None]


def _patch_product(
    weight: np.ndarray, x: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """``weight`` [O, C*9] times the patch matrix of ``x`` [N, C, H, W],
    plus ``bias`` per row if given, as an [O, N*H*W] array built block by
    block (see :func:`_fill`).  A product of at least ``2 * SPLIT_MACS``
    multiply-adds is cut into up to ``WORKERS`` shares, even runs of its
    blocks, one on the calling thread and the rest on the pool; every
    share has finished, or failed, before this returns or raises.
    """
    n, _, h, w = x.shape
    xp = _pad(x)
    blocks = _blocks(x, weight)
    count = len(blocks)
    parts = max(1, min(WORKERS, count, weight.size * n * h * w // SPLIT_MACS))
    y = np.empty((weight.shape[0], n * h * w), dtype=np.result_type(weight, x))
    first, *rest = [blocks[count * k // parts : count * (k + 1) // parts] for k in range(parts)]
    futures = [_executor().submit(_fill, y, weight, xp, x.shape, share, bias) for share in rest]
    try:
        _fill(y, weight, xp, x.shape, first, bias)
    finally:
        for future in futures:
            future.exception()  # waits for the share without raising
    for future in futures:
        future.result()
    return y


def _to_nchw(y: np.ndarray, n: int, h: int, w: int, dtype) -> np.ndarray:
    """[C, N*H*W] kernel output, uncopied, indexed [N, C, H, W] and
    channel-major in memory (its transpose (1, 0, 2, 3) is C-contiguous)."""
    return y.reshape(-1, n, h, w).transpose(1, 0, 2, 3).astype(dtype, copy=False)


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
    the gradient of its input.  dw sums the products of the patch blocks
    of ``x`` (:func:`_blocks`), one per block, in block order, on the
    calling thread.
    """
    _check_nchw(x, layer.in_channels, "conv2d_backward")
    expected = (x.shape[0], layer.out_channels, x.shape[2], x.shape[3])
    if dy.shape != expected:
        raise ShapeMismatch(f"dy shape {dy.shape}, expected {expected}")
    o = layer.out_channels
    dw = np.empty((o, layer.weight[0].size), dtype=np.result_type(x, dy))  # [O, C*9]
    part = np.empty_like(dw)
    blocks = _blocks(x, layer.weight)
    for k, ((n0, n1, r0, r1), cols) in enumerate(_each_block(_pad(x), x.shape, blocks)):
        rows = dy[n0:n1, :, r0:r1].transpose(1, 0, 2, 3).reshape(o, -1)  # [O, block columns]
        np.matmul(rows, cols.T, out=part if k else dw)
        if k:
            dw += part
    dw = dw.reshape(layer.weight.shape)
    # each (n, c), then over n in C order: the same sums whatever dy's memory order
    db = np.ascontiguousarray(dy.sum(axis=(2, 3))).sum(axis=0)
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
    # strict comparisons send ties to the earlier position; codes are
    # 2 * low + right, built from bool operations viewed as int8
    low = bottom > top
    right = (d > c) & low | (b > a) & ~low
    codes = low.view(np.int8) << 1 | right.view(np.int8)
    return np.maximum(top, bottom), codes


def maxpool2_backward(routing: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Route each dy element back to its window's argmax position."""
    if dy.shape != routing.shape:
        raise ShapeMismatch(f"dy shape {dy.shape} vs routing {routing.shape}")
    n, c, h2, w2 = dy.shape
    dx = np.empty((c, n, h2, 2, w2, 2), dtype=dy.dtype).transpose(1, 0, 2, 3, 4, 5)
    for k in range(4):
        np.multiply(dy, routing == k, out=dx[:, :, :, k // 2, :, k % 2])
    return dx.reshape(n, c, h2 * 2, w2 * 2)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Per-channel spatial mean: [N, C, H, W] -> [N, C]."""
    if x.ndim != 4:
        raise ShapeMismatch(f"global_avg_pool expects [N, C, H, W], got {x.shape}")
    return np.ascontiguousarray(x.mean(axis=(2, 3)))  # C-contiguous for the dense product


def gap_backward(dy: np.ndarray, h: int, w: int) -> np.ndarray:
    """Spread dy / (h * w) uniformly over the pooled window."""
    scale = dy / (h * w)
    return np.broadcast_to(scale[:, :, None, None], dy.shape + (h, w)).astype(dy.dtype)


def relu(x: np.ndarray) -> np.ndarray:
    """max(0, x) elementwise."""
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Pass dy where x > 0; the subgradient at exactly 0 is taken as 0.
    ``x`` is the forward input or its traced mask ``relu(x) > 0``, used
    as is, since comparing a bool array with 0 widens it first."""
    if x.shape != dy.shape:
        raise ShapeMismatch(f"x shape {x.shape} vs dy {dy.shape}")
    return dy * (x if x.dtype == np.bool_ else x > 0)


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


# Adam's fixed decay rates and guard, Kingma & Ba's defaults (ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments and step counter, keyed by parameter name."""

    lr: float = 1e-4
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
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * np.square(g)
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        p -= (state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype, copy=False)
