"""Grayscale raster type and PGM codec.

Scans enter the pipeline as 8-bit grayscale PGM files (binary ``P5`` or
ASCII ``P2``).  Only maxval 255 is accepted: anything else would need a
rescale and the pipeline's intensity semantics are meant to be bit-exact.
Source archives in other formats (JPG and friends) are expected to be
converted to PGM externally.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import BadMagic, HeaderParse, Truncated

_WHITESPACE = b" \t\n\r\x0b\x0c"  # the bytes ``bytes.split()`` splits on
_COMMENT = re.compile(rb"#[^\n]*")


class GrayImage8:
    """8-bit grayscale raster stored as a (height, width) uint8 array."""

    __slots__ = ("pixels",)

    def __init__(self, pixels: np.ndarray):
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d pixel array, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            raise ValueError(f"expected uint8 pixels, got {arr.dtype}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dimensions must be >= 1, got {arr.shape}")
        self.pixels = arr

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrayImage8):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            (self.pixels == other.pixels).all()
        )

    def __repr__(self) -> str:
        return f"GrayImage8({self.width}x{self.height})"


class _Tokenizer:
    """Walks PGM header tokens, skipping whitespace and # comments."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def next_token(self) -> bytes | None:
        data, i = self.data, self.pos
        n = len(data)
        while i < n:
            c = data[i : i + 1]
            if c == b"#":
                while i < n and data[i : i + 1] != b"\n":
                    i += 1
            elif c in _WHITESPACE:
                i += 1
            else:
                break
        if i >= n:
            return None
        start = i
        while i < n and data[i : i + 1] not in _WHITESPACE and data[i : i + 1] != b"#":
            i += 1
        self.pos = i
        return data[start:i]

    def next_int(self, what: str) -> int:
        tok = self.next_token()
        if tok is None:
            raise HeaderParse(f"missing {what}")
        try:
            value = int(tok)
        except ValueError:
            raise HeaderParse(f"invalid {what}: {tok!r}") from None
        return value


def read_pgm(data: bytes) -> GrayImage8:
    """Decode a P5 (binary) or P2 (ASCII) PGM byte string."""
    if len(data) < 2:
        raise BadMagic("file too short for a PGM magic")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"not a P2/P5 PGM file (magic {magic!r})")

    tok = _Tokenizer(data)
    tok.pos = 2
    width = tok.next_int("width")
    height = tok.next_int("height")
    maxval = tok.next_int("maxval")
    if width < 1 or height < 1:
        raise HeaderParse(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise HeaderParse(f"unsupported maxval {maxval} (only 255 accepted)")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the payload
        start = tok.pos + 1
        payload = data[start : start + count]
        if len(payload) < count:
            raise Truncated(f"payload has {len(payload)} of {count} bytes")
        pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
        return GrayImage8(pixels.copy())

    # comments run from '#' to the end of the line; tokens past ``count`` are ignored
    tokens = _COMMENT.sub(b" ", data[tok.pos :]).split()[:count]
    values = np.array([_sample(token) for token in tokens], dtype=np.uint8)
    if len(values) < count:
        raise Truncated(f"payload has {len(values)} of {count} samples")
    return GrayImage8(values.reshape(height, width))


def _sample(token: bytes) -> int:
    try:
        value = int(token)
    except ValueError:
        raise HeaderParse(f"invalid pixel: {token!r}") from None
    if not 0 <= value <= 255:
        raise HeaderParse(f"sample value {value} out of range [0, 255]")
    return value


def write_pgm(img: GrayImage8) -> bytes:
    """Encode as binary P5 with maxval 255; inverse of :func:`read_pgm`."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def image_to_tensor(img: GrayImage8, dtype=np.float32) -> np.ndarray:
    """Copy intensities into a [1, height, width] float tensor, unscaled."""
    return img.pixels.astype(dtype)[np.newaxis, :, :]
