"""Scan normalization: threshold, open, crop to the brain, resize, z-score.

The chain applied to every scan, in order:

1. threshold at 45 (strict ``pixel > t``),
2. 2 erosions then 2 dilations with a 3x3 square element (an opening that
   removes speckles smaller than a 5x5 square); k erosions are one
   (2k+1)-wide window, a row pass then a column pass, and so are k dilations,
3. find the largest 8-connected foreground component,
4. crop to the component's top/bottom/left/right extreme points,
5. bilinear resize to the model input size, separably: across each row,
   then down the columns, from per-axis taps cached by size,
6. per-image z-score so the mean tends to 0 and the deviation to 1.

Steps 3 and 4 are one labelling pass over the mask's row runs
(:func:`largest_component`), which yields the crop box directly.
The threshold and the opening are the paper's and fixed
(:data:`DEFAULT_THRESHOLD`, :data:`DEFAULT_MORPH_ITERS`); only the output
size is a parameter.  Steps 1-5 stay in 8-bit space; step 6 produces the
float tensor fed to the network.  Training augmentation slots between 5
and 6, which is why :func:`crop_and_resize` is exposed separately from
the full :func:`preprocess_image`.
"""

from __future__ import annotations

import functools
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


def threshold(img: GrayImage8) -> BinaryMask:
    """Foreground wherever ``pixel > DEFAULT_THRESHOLD`` (strictly)."""
    return BinaryMask(img.pixels > DEFAULT_THRESHOLD)


def _window_reduce(mask: BinaryMask, combine) -> BinaryMask:
    """Combine (``&`` or ``|``) every 3x3 window, ``DEFAULT_MORPH_ITERS`` times.

    ``k`` passes of a 3x3 window are one (2k+1)-wide window when pixels
    outside the image are background (van Herk, Pattern Recognit. Lett.
    1992), so the mask is padded by ``k`` once and reduced along rows,
    then along columns."""
    k = DEFAULT_MORPH_ITERS
    h, w = mask.bits.shape
    padded = np.zeros((h + 2 * k, w + 2 * k), dtype=bool)
    padded[k:-k, k:-k] = mask.bits
    rows = padded[:, :w]
    for j in range(1, 2 * k + 1):
        rows = combine(rows, padded[:, j : j + w])
    bits = rows[:h]
    for i in range(1, 2 * k + 1):
        bits = combine(bits, rows[i : i + h])
    return BinaryMask(bits)


def erode(mask: BinaryMask) -> BinaryMask:
    """Erode with a 3x3 square element, ``DEFAULT_MORPH_ITERS`` times."""
    return _window_reduce(mask, operator.and_)


def dilate(mask: BinaryMask) -> BinaryMask:
    """Dilate with a 3x3 square element, ``DEFAULT_MORPH_ITERS`` times."""
    return _window_reduce(mask, operator.or_)


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
    h, w = mask.bits.shape
    stride = w + 1
    # flat index r * stride + c of each run's first column and of the
    # column just past its end: the edges of a zero-framed row alternate
    # start, end, so both come out in row-major order
    frame = np.zeros((h, w + 2), dtype=np.int8)
    frame[:, 1:-1] = mask.bits
    edges = (frame[:, 1:] != frame[:, :-1]).ravel().nonzero()[0]
    if edges.size == 0:
        raise NoForeground("mask has no foreground pixels")
    starts, ends = edges[0::2], edges[1::2]

    # runs in the next row touching run i are the index range [lo, hi):
    # those ending at or after i's start and starting at or before i's end
    lo = ends.searchsorted(starts + stride, side="left")
    hi = starts.searchsorted(ends + stride, side="right")
    fan = np.maximum(hi - lo, 0)
    first = fan.cumsum() - fan
    upper = np.arange(starts.size).repeat(fan)
    lower = (lo - first).repeat(fan) + np.arange(upper.size)

    root = np.arange(starts.size)
    while True:
        a, b = root[upper], root[lower]
        split = a != b
        if not split.any():
            break
        np.minimum.at(root, np.maximum(a, b)[split], np.minimum(a, b)[split])
        # pointer jumping: every run points at a run of smaller index, so a
        # chain has fewer than 2**bit_length(runs) links and this many
        # doublings leave each run pointing straight at its root
        for _ in range(starts.size.bit_length()):
            root = root[root]

    area = np.bincount(root, weights=ends - starts, minlength=starts.size)
    members = root == np.argmax(area)  # argmax takes the smallest root on ties
    rows = starts[members] // stride
    return CropBox(
        top=int(rows[0]),
        bottom=int(rows[-1]),
        left=int((starts[members] % stride).min()),
        right=int((ends[members] % stride).max()) - 1,
    )


@functools.lru_cache(maxsize=64)
def _taps(n_in: int, n_out: int) -> tuple[np.ndarray, ...]:
    """Bilinear taps along one axis: source indices ``i0`` and ``i1``
    (clamped to the border) and weights ``f`` and ``1 - f``, for output
    positions sampling the source at ``(dst + 0.5) * n_in / n_out - 0.5``.
    Cached, so the arrays are read-only."""
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    start = np.floor(pos)
    f = pos - start
    taps = (
        np.clip(start, 0, n_in - 1).astype(np.intp),
        np.clip(start + 1, 0, n_in - 1).astype(np.intp),
        f,
        1 - f,
    )
    for a in taps:
        a.flags.writeable = False
    return taps


def resize_bilinear(img: GrayImage8, out_w: int, out_h: int) -> GrayImage8:
    """Bilinear resize with half-pixel-center mapping.

    Each output pixel samples the source at ``(dst + 0.5) * scale - 0.5``
    per axis; coordinates past the edges replicate the border pixel, and
    results are rounded half up into 8 bits.  The two axes are separable:
    every source row is interpolated across, then the rows are
    interpolated down, which is the same float64 arithmetic, in the same
    order, as interpolating each output pixel from its four neighbours.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    src = img.pixels
    h, w = src.shape
    y0, y1, fy, gy = _taps(h, out_h)
    x0, x1, fx, gx = _taps(w, out_w)
    rows = src[:, x0] * gx + src[:, x1] * fx
    values = rows[y0] * gy[:, None] + rows[y1] * fy[:, None]
    rounded = np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)
    return GrayImage8(rounded)


def normalize_zscore(t: np.ndarray) -> np.ndarray:
    """Subtract the mean and divide by the population std, per image.

    An input whose std is below ``DEGENERATE_STD`` maps to the all-zero
    tensor instead of blowing up, so constant tiles cannot crash a batch job.
    """
    arr = np.asarray(t)
    if arr.size == 0:
        raise ValueError("cannot normalize an empty tensor")
    dtype = arr.dtype if np.issubdtype(arr.dtype, np.floating) else np.float32
    mean = float(arr.mean(dtype=np.float64))
    std = float(arr.std(dtype=np.float64))  # population (divide by N)
    if std < DEGENERATE_STD:
        return np.zeros(arr.shape, dtype=dtype)
    return ((arr.astype(np.float64) - mean) / std).astype(dtype)


def compute_crop_box(img: GrayImage8) -> CropBox:
    """Crop box after threshold, opening, and largest-component selection."""
    return largest_component(dilate(erode(threshold(img))))


def crop_and_resize(img: GrayImage8, out_size: int = DEFAULT_SIZE) -> GrayImage8:
    """The 8-bit part of the chain: steps 1-5, no normalization yet."""
    box = compute_crop_box(img)
    cropped = GrayImage8(img.pixels[box.top : box.bottom + 1, box.left : box.right + 1])
    return resize_bilinear(cropped, out_size, out_size)


def preprocess_image(img: GrayImage8, out_size: int = DEFAULT_SIZE) -> np.ndarray:
    """Full chain; returns a normalized float32 [1, out_size, out_size] tensor."""
    resized = crop_and_resize(img, out_size)
    return normalize_zscore(image_to_tensor(resized))
