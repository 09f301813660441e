"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (nested
loops, pair counting, exact rational arithmetic) and shares no code
with the package under test.
"""

from __future__ import annotations

import struct
import zlib
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# --- convolution / pooling -------------------------------------------------

def naive_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct 3x3 stride-1 pad-1 cross-correlation, six nested loops."""
    n, c, h, wd = x.shape
    out_ch = w.shape[0]
    y = np.zeros((n, out_ch, h, wd), dtype=np.float64)
    for ni in range(n):
        for oc in range(out_ch):
            for yy in range(h):
                for xx in range(wd):
                    acc = float(b[oc])
                    for ci in range(c):
                        for ky in range(3):
                            for kx in range(3):
                                sy = yy + ky - 1
                                sx = xx + kx - 1
                                if 0 <= sy < h and 0 <= sx < wd:
                                    acc += float(x[ni, ci, sy, sx]) * float(w[oc, ci, ky, kx])
                    y[ni, oc, yy, xx] = acc
    return y


def naive_conv2d_backward(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dw, db) of :func:`naive_conv2d`, scattering each output's
    cotangent over the taps that produced it."""
    n, c, h, wd = x.shape
    out_ch = w.shape[0]
    dx = np.zeros(x.shape, dtype=np.float64)
    dw = np.zeros(w.shape, dtype=np.float64)
    db = np.zeros(out_ch, dtype=np.float64)
    for ni in range(n):
        for oc in range(out_ch):
            for yy in range(h):
                for xx in range(wd):
                    g = float(dy[ni, oc, yy, xx])
                    db[oc] += g
                    for ci in range(c):
                        for ky in range(3):
                            for kx in range(3):
                                sy = yy + ky - 1
                                sx = xx + kx - 1
                                if 0 <= sy < h and 0 <= sx < wd:
                                    dx[ni, ci, sy, sx] += g * float(w[oc, ci, ky, kx])
                                    dw[oc, ci, ky, kx] += g * float(x[ni, ci, sy, sx])
    return dx, dw, db


def sliced_columns(x: np.ndarray) -> np.ndarray:
    """The [C*9, N*H*W] patch matrix of ``x`` [N, C, H, W], rows ordered
    (c, ky, kx) and columns (n, h, w), from ``np.pad`` and nine shifted
    slices of the padded input."""
    n, c, h, w = x.shape
    xp = np.pad(x.transpose(1, 0, 2, 3), ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((c, 3, 3, n, h, w), dtype=x.dtype)
    for ky in range(3):
        for kx in range(3):
            cols[:, ky, kx] = xp[:, :, ky : ky + h, kx : kx + w]
    return cols.reshape(c * 9, n * h * w)


def naive_maxpool2(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    y = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yy in range(h // 2):
                for xx in range(w // 2):
                    y[ni, ci, yy, xx] = x[ni, ci, 2 * yy : 2 * yy + 2, 2 * xx : 2 * xx + 2].max()
    return y


# --- finite differences ----------------------------------------------------

def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Numeric gradient of scalar-valued f at x, one element at a time."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(1, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float((np.abs(a - n) / np.maximum(1.0, np.abs(n))).max())


# --- binary morphology / components ---------------------------------------

def loop_erode(mask: np.ndarray, iterations: int = 1) -> np.ndarray:
    out = mask.astype(bool).copy()
    h, w = out.shape
    for _ in range(iterations):
        src = out
        out = np.zeros_like(src)
        for y in range(h):
            for x in range(w):
                keep = True
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = y + dy, x + dx
                        if not (0 <= yy < h and 0 <= xx < w) or not src[yy, xx]:
                            keep = False
                out[y, x] = keep
    return out


def loop_dilate(mask: np.ndarray, iterations: int = 1) -> np.ndarray:
    out = mask.astype(bool).copy()
    h, w = out.shape
    for _ in range(iterations):
        src = out
        out = np.zeros_like(src)
        for y in range(h):
            for x in range(w):
                hit = False
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < h and 0 <= xx < w and src[yy, xx]:
                            hit = True
                out[y, x] = hit
    return out


def window_reduce(mask: np.ndarray, iterations: int, reduce) -> np.ndarray:
    """``reduce`` (``np.all`` erodes, ``np.any`` dilates) over every 3x3
    window of the False-padded mask, ``iterations`` times."""
    bits = mask.astype(bool)
    for _ in range(iterations):
        padded = np.pad(bits, 1, constant_values=False)
        bits = reduce(sliding_window_view(padded, (3, 3)), axis=(-2, -1))
    return bits


def bfs_components(mask: np.ndarray) -> list[np.ndarray]:
    """All 8-connected components as boolean masks, BFS, scan order."""
    mask = mask.astype(bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    comps = []
    for y in range(h):
        for x in range(w):
            if mask[y, x] and not seen[y, x]:
                comp = np.zeros_like(mask)
                queue = [(y, x)]
                seen[y, x] = True
                while queue:
                    cy, cx = queue.pop(0)
                    comp[cy, cx] = True
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            yy, xx = cy + dy, cx + dx
                            if 0 <= yy < h and 0 <= xx < w and mask[yy, xx] and not seen[yy, xx]:
                                seen[yy, xx] = True
                                queue.append((yy, xx))
                comps.append(comp)
    return comps


def bbox_of(mask: np.ndarray) -> tuple[int, int, int, int]:
    """(top, bottom, left, right), inclusive, of the true pixels."""
    ys, xs = np.nonzero(mask)
    return int(ys.min()), int(ys.max()), int(xs.min()), int(xs.max())


# --- PGM -------------------------------------------------------------------

_PGM_SPACE = b" \t\n\r\x0b\x0c"


def _decimal(tok: bytes | None) -> int | None:
    """The value of ``tok`` if it is one or more ASCII digits 0-9 and
    nothing else; None otherwise, and for more digits than ``int()``
    converts."""
    if not tok or not all(0x30 <= byte <= 0x39 for byte in tok):
        return None
    try:
        return int(tok)
    except ValueError:
        return None


def tokenwise_read_p2(data: bytes) -> tuple[str, np.ndarray | None]:
    """Decode a P2 file one token at a time, scanning byte by byte.

    Returns ("ok", pixels) or (error class name, None).  Tokens end at
    whitespace or ``#``; a ``#`` starts a comment that runs to the end
    of the line; a number is ASCII digits only; tokens after the last
    sample are ignored.
    """
    pos = 2

    def token():
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            elif ch in _PGM_SPACE:
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos : pos + 1] not in _PGM_SPACE + b"#":
            pos += 1
        return data[start:pos] or None

    if data[:2] != b"P2":
        return "BadMagic", None
    header = []
    for _ in range(3):
        tok = token()
        value = _decimal(tok)
        if value is None:
            return "HeaderParse", None
        header.append(value)
    width, height, maxval = header
    if width < 1 or height < 1 or maxval != 255:
        return "HeaderParse", None
    values = []
    for _ in range(width * height):
        tok = token()
        if tok is None:
            return "Truncated", None
        v = _decimal(tok)
        if v is None or not 0 <= v <= 255:
            return "HeaderParse", None
        values.append(v)
    return "ok", np.array(values, dtype=np.uint8).reshape(height, width)


# --- checkpoint files ------------------------------------------------------

def sliced_read_nnck(data: bytes) -> tuple[str, dict[str, np.ndarray] | None]:
    """Decode a whole .nnck byte string by slicing it, field by field.

    Returns ("ok", name -> float32 table) or (error class name, None).
    Checks go magic, version, structure (the last 4 bytes are the CRC
    trailer, never tensor data), trailing bytes, then the CRC.
    """
    if len(data) < 4:
        return "Truncated", None
    if data[:4] != b"NNCK":
        return "BadMagic", None
    end = max(len(data) - 4, 4)
    fields = [4]  # read position

    def take(n):
        start = fields[0]
        if start + n > end:
            raise EOFError
        fields[0] = start + n
        return data[start : start + n]

    try:
        if struct.unpack("<I", take(4))[0] != 1:
            return "BadVersion", None
        count = struct.unpack("<I", take(4))[0]
        raw = []
        for _ in range(count):
            name_bytes = take(struct.unpack("<H", take(2))[0])
            try:
                name = name_bytes.decode("utf-8")
            except UnicodeDecodeError:
                return "HeaderParse", None
            if name in [r[0] for r in raw]:
                return "HeaderParse", None
            ndim = take(1)[0]
            shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
            size = 1
            for extent in shape:
                size *= extent
            raw.append((name, shape, take(4 * size)))
    except EOFError:
        return "Truncated", None
    if fields[0] != len(data) - 4:
        return "HeaderParse", None
    if struct.unpack("<I", data[-4:])[0] != zlib.crc32(data[:-4]):
        return "ChecksumMismatch", None
    return "ok", {
        name: np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        for name, shape, payload in raw
    }


# --- image resampling ------------------------------------------------------

def loop_resize_bilinear(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Per-pixel bilinear resize with half-pixel centers, border clamp,
    round half up."""
    h, w = pixels.shape
    out = np.zeros((out_h, out_w), dtype=np.uint8)
    for oy in range(out_h):
        sy = (oy + 0.5) * (h / out_h) - 0.5
        y0 = int(np.floor(sy))
        fy = sy - y0
        y0c = min(max(y0, 0), h - 1)
        y1c = min(max(y0 + 1, 0), h - 1)
        for ox in range(out_w):
            sx = (ox + 0.5) * (w / out_w) - 0.5
            x0 = int(np.floor(sx))
            fx = sx - x0
            x0c = min(max(x0, 0), w - 1)
            x1c = min(max(x0 + 1, 0), w - 1)
            top = pixels[y0c, x0c] * (1 - fx) + pixels[y0c, x1c] * fx
            bot = pixels[y1c, x0c] * (1 - fx) + pixels[y1c, x1c] * fx
            v = top * (1 - fy) + bot * fy
            out[oy, ox] = min(max(int(np.floor(v + 0.5)), 0), 255)
    return out


def gather_resize_bilinear(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """The same resize as :func:`loop_resize_bilinear`, each output pixel
    gathered from its four source neighbours at once (2-d fancy indexing),
    in the float64 arithmetic, and order, that the package must match
    bit for bit."""
    src = pixels.astype(np.float64)
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
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def loop_affine_nearest(pixels: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Inverse-warp with nearest-neighbor sampling and border replicate."""
    h, w = pixels.shape
    out = np.zeros_like(pixels)
    for y in range(h):
        for x in range(w):
            sx = matrix[0, 0] * x + matrix[0, 1] * y + matrix[0, 2]
            sy = matrix[1, 0] * x + matrix[1, 1] * y + matrix[1, 2]
            ix = min(max(int(np.floor(sx + 0.5)), 0), w - 1)
            iy = min(max(int(np.floor(sy + 0.5)), 0), h - 1)
            out[y, x] = pixels[iy, ix]
    return out


# --- ranking metrics -------------------------------------------------------

def mann_whitney_auc(labels: list[str], scores: list[float], positive: str) -> float:
    """Pair statistic: P(pos outranks neg), ties counted half."""
    pos = [s for l, s in zip(labels, scores) if l == positive]
    neg = [s for l, s in zip(labels, scores) if l != positive]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_roc(labels: list[str], scores: list[float], positive: str):
    """(threshold, fpr, tpr) by re-counting the whole set per threshold."""
    pos_total = sum(1 for l in labels if l == positive)
    neg_total = len(labels) - pos_total
    points = [(float("inf"), 0.0, 0.0)]
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for l, s in zip(labels, scores) if l == positive and s >= t)
        fp = sum(1 for l, s in zip(labels, scores) if l != positive and s >= t)
        points.append((t, fp / neg_total, tp / pos_total))
    return points


def brute_kappa(tp: int, fn: int, fp: int, tn: int) -> Fraction | None:
    """Cohen's kappa in exact rational arithmetic."""
    n = tp + fn + fp + tn
    p0 = Fraction(tp + tn, n)
    pe = (
        Fraction(tp + fn, n) * Fraction(tp + fp, n)
        + Fraction(fp + tn, n) * Fraction(fn + tn, n)
    )
    if pe == 1:
        return None
    return (p0 - pe) / (1 - pe)


def brute_average_precision(labels: list[str], scores: list[float], positive: str) -> Fraction:
    """AP by re-counting tp/fp from scratch at every distinct threshold."""
    pos_total = sum(1 for l in labels if l == positive)
    ap = Fraction(0)
    prev_recall = Fraction(0)
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for l, s in zip(labels, scores) if l == positive and s >= t)
        fp = sum(1 for l, s in zip(labels, scores) if l != positive and s >= t)
        precision = Fraction(tp, tp + fp)
        recall = Fraction(tp, pos_total)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def best_threshold_accuracy(values: list[float], labels: list[str], positive: str) -> float:
    """Best achievable accuracy of a single threshold on scalar values.

    Tries both orientations (predict positive above or below the cut)
    at every candidate threshold.
    """
    n = len(values)
    best = 0
    candidates = sorted(set(values))
    cuts = [candidates[0] - 1.0] + [
        (a + b) / 2.0 for a, b in zip(candidates, candidates[1:])
    ] + [candidates[-1] + 1.0]
    for cut in cuts:
        above = sum(
            1 for v, l in zip(values, labels) if (v > cut) == (l == positive)
        )
        best = max(best, above, n - above)
    return best / n
