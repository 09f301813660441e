"""Scan normalization: threshold, open, crop to the brain, resize, z-score.

The chain applied to every scan, in order:

1. threshold at 45 (strict ``pixel > t``),
2. 2 erosions then 2 dilations with a 3x3 square element (an opening that
   removes speckles smaller than a 5x5 square),
3. find the largest 8-connected foreground component,
4. crop to the component's top/bottom/left/right extreme points,
5. bilinear resize to the model input size,
6. per-image z-score so the mean tends to 0 and the deviation to 1.

Steps 3 and 4 are one labelling pass over the mask's row runs
(:func:`largest_component`), which yields the crop box directly.
Steps 1-5 stay in 8-bit space; step 6 produces the float tensor fed to
the network.  Training augmentation slots between 5 and 6, which is why
:func:`crop_and_resize` is exposed separately from the full
:func:`preprocess_image`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NoForeground
from .pgm import GrayImage8, image_to_tensor

DEFAULT_THRESHOLD = 45
DEFAULT_MORPH_ITERS = 2
DEFAULT_SIZE = 224

# population std below this is treated as a constant image
DEGENERATE_STD = 1e-8


class BinaryMask:
    """Boolean raster stored as a (height, width) bool array.

    ``bits`` and ``height`` are what ``bench/tracing.py`` reads from
    :func:`largest_component`'s argument.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray):
        arr = np.asarray(bits)
        if arr.ndim != 2 or arr.dtype != np.bool_:
            raise ValueError(f"expected a 2-d bool array, got {arr.dtype} {arr.shape}")
        self.bits = arr

    @property
    def height(self) -> int:
        return self.bits.shape[0]


@dataclass(frozen=True)
class CropBox:
    """Inclusive pixel bounds of a foreground region."""

    top: int
    bottom: int
    left: int
    right: int

    def __post_init__(self):
        if not (0 <= self.top <= self.bottom and 0 <= self.left <= self.right):
            raise ValueError(f"invalid crop box {self}")

    @property
    def width(self) -> int:
        return self.right - self.left + 1

    @property
    def height(self) -> int:
        return self.bottom - self.top + 1


def threshold(img: GrayImage8, t: int = DEFAULT_THRESHOLD) -> BinaryMask:
    """Foreground wherever ``pixel > t`` (strictly)."""
    if not 0 <= t <= 255:
        raise ValueError(f"threshold {t} out of [0, 255]")
    return BinaryMask(img.pixels > t)


def _window_reduce(mask: BinaryMask, iterations: int, combine) -> BinaryMask:
    """Combine (``&`` or ``|``) every 3x3 window, ``iterations`` times, as a
    1x3 pass then a 3x1 pass; pixels outside the image are background."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    bits = mask.bits
    h, w = bits.shape
    for _ in range(iterations):
        padded = np.zeros((h + 2, w + 2), dtype=bool)
        padded[1:-1, 1:-1] = bits
        rows = combine(combine(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
        bits = combine(combine(rows[:-2], rows[1:-1]), rows[2:])
    return BinaryMask(bits)


def erode(mask: BinaryMask, iterations: int = 1) -> BinaryMask:
    """Erode with a fixed 3x3 square element, ``iterations`` times."""
    return _window_reduce(mask, iterations, operator.and_)


def dilate(mask: BinaryMask, iterations: int = 1) -> BinaryMask:
    """Dilate with a fixed 3x3 square element, ``iterations`` times."""
    return _window_reduce(mask, iterations, operator.or_)


def largest_component(mask: BinaryMask) -> CropBox:
    """Bounding box of the largest 8-connected foreground component.

    Run-based labelling (He, Chao & Suzuki, IEEE TIP 2008): the
    foreground is cut into row runs, runs in adjacent rows that touch
    (diagonals included) are joined, and joined runs are merged by
    hooking each root onto the smallest root it touches until no join
    crosses two roots.  A component's root is its first run in
    row-major order, so ties go to the component containing the first
    foreground pixel in row-major order.
    """
    bits = mask.bits
    stride = bits.shape[1] + 1
    # flat index r * stride + c of each run's first column and of the
    # column just past its end; both come out in row-major order
    edges = np.diff(np.pad(bits, ((0, 0), (1, 1))).view(np.int8), axis=1)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    if starts.size == 0:
        raise NoForeground("mask has no foreground pixels")

    # runs in the next row touching run i are the index range [lo, hi):
    # those ending at or after i's start and starting at or before i's end
    lo = np.searchsorted(ends, starts + stride, side="left")
    hi = np.searchsorted(starts, ends + stride, side="right")
    fan = np.maximum(hi - lo, 0)
    first = np.cumsum(fan) - fan
    upper = np.repeat(np.arange(starts.size), fan)
    lower = np.repeat(lo - first, fan) + np.arange(upper.size)

    root = np.arange(starts.size)
    while True:
        a, b = root[upper], root[lower]
        split = a != b
        if not split.any():
            break
        np.minimum.at(root, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while True:  # pointer jumping: every run points straight at its root
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped

    area = np.bincount(root, weights=ends - starts, minlength=starts.size)
    members = root == np.argmax(area)  # argmax takes the smallest root on ties
    rows = starts[members] // stride
    return CropBox(
        top=int(rows[0]),
        bottom=int(rows[-1]),
        left=int((starts[members] % stride).min()),
        right=int((ends[members] % stride).max()) - 1,
    )


def resize_bilinear(img: GrayImage8, out_w: int, out_h: int) -> GrayImage8:
    """Bilinear resize with half-pixel-center mapping.

    Each output pixel samples the source at ``(dst + 0.5) * scale - 0.5``
    per axis; coordinates past the edges replicate the border pixel, and
    results are rounded half up into 8 bits.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    src = img.pixels.astype(np.float64)
    h, w = src.shape

    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    fy = ys - y0
    fx = xs - x0
    y0c = np.clip(y0, 0, h - 1).astype(np.intp)
    y1c = np.clip(y0 + 1, 0, h - 1).astype(np.intp)
    x0c = np.clip(x0, 0, w - 1).astype(np.intp)
    x1c = np.clip(x0 + 1, 0, w - 1).astype(np.intp)

    top = src[y0c[:, None], x0c] * (1 - fx) + src[y0c[:, None], x1c] * fx
    bot = src[y1c[:, None], x0c] * (1 - fx) + src[y1c[:, None], x1c] * fx
    values = top * (1 - fy[:, None]) + bot * fy[:, None]
    rounded = np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)
    return GrayImage8(rounded)


def normalize_zscore(t: np.ndarray, degenerate_std: float = DEGENERATE_STD) -> np.ndarray:
    """Subtract the mean and divide by the population std, per image.

    A (near-)constant input maps to the all-zero tensor instead of blowing
    up, so constant tiles cannot crash a batch job.
    """
    arr = np.asarray(t)
    if arr.size == 0:
        raise ValueError("cannot normalize an empty tensor")
    dtype = arr.dtype if np.issubdtype(arr.dtype, np.floating) else np.float32
    mean = float(arr.mean(dtype=np.float64))
    std = float(arr.std(dtype=np.float64))  # population (divide by N)
    if std < degenerate_std:
        return np.zeros(arr.shape, dtype=dtype)
    return ((arr.astype(np.float64) - mean) / std).astype(dtype)


def compute_crop_box(
    img: GrayImage8,
    t: int = DEFAULT_THRESHOLD,
    iters: int = DEFAULT_MORPH_ITERS,
) -> CropBox:
    """Crop box after threshold, opening, and largest-component selection."""
    return largest_component(dilate(erode(threshold(img, t), iters), iters))


def crop_and_resize(
    img: GrayImage8,
    t: int = DEFAULT_THRESHOLD,
    iters: int = DEFAULT_MORPH_ITERS,
    out_size: int = DEFAULT_SIZE,
) -> GrayImage8:
    """The 8-bit part of the chain: steps 1-5, no normalization yet."""
    box = compute_crop_box(img, t, iters)
    cropped = GrayImage8(img.pixels[box.top : box.bottom + 1, box.left : box.right + 1])
    return resize_bilinear(cropped, out_size, out_size)


def preprocess_image(
    img: GrayImage8,
    t: int = DEFAULT_THRESHOLD,
    iters: int = DEFAULT_MORPH_ITERS,
    out_size: int = DEFAULT_SIZE,
    dtype=np.float32,
) -> np.ndarray:
    """Full chain; returns a normalized [1, out_size, out_size] tensor."""
    resized = crop_and_resize(img, t, iters, out_size)
    return normalize_zscore(image_to_tensor(resized, dtype=dtype))
