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

# one header token after any whitespace and # comments; in a bytes pattern
# \s is the six bytes ``bytes.split()`` splits on
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")
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


def read_pgm(data: bytes) -> GrayImage8:
    """Decode a P5 (binary) or P2 (ASCII) PGM byte string."""
    if len(data) < 2:
        raise BadMagic("file too short for a PGM magic")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"not a P2/P5 PGM file (magic {magic!r})")

    pos = 2
    header = []
    for what in ("width", "height", "maxval"):
        match = _HEADER_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise HeaderParse(f"missing {what}")
        header.append(_decimal(token, f"invalid {what}"))
    width, height, maxval = header
    if width < 1 or height < 1:
        raise HeaderParse(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise HeaderParse(f"unsupported maxval {maxval} (only 255 accepted)")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the payload
        start = pos + 1
        payload = data[start : start + count]
        if len(payload) < count:
            raise Truncated(f"payload has {len(payload)} of {count} bytes")
        pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
        return GrayImage8(pixels.copy())

    # comments run from '#' to the end of the line; tokens past ``count`` are ignored
    tokens = _COMMENT.sub(b" ", data[pos:]).split()[:count]
    values = np.array([_sample(token) for token in tokens], dtype=np.uint8)
    if len(values) < count:
        raise Truncated(f"payload has {len(values)} of {count} samples")
    return GrayImage8(values.reshape(height, width))


def _decimal(token: bytes, error: str) -> int:
    """The value of an ASCII-digit token; ``HeaderParse`` for any other
    spelling or for more digits than ``int()`` converts."""
    if not token.isdigit():
        raise HeaderParse(f"{error}: {token!r}")
    try:
        return int(token)
    except ValueError:
        raise HeaderParse(f"{error}: {len(token)}-digit number") from None


def _sample(token: bytes) -> int:
    value = _decimal(token, "invalid pixel")
    if not 0 <= value <= 255:
        raise HeaderParse(f"sample value {value} out of range [0, 255]")
    return value


def write_pgm(img: GrayImage8) -> bytes:
    """Encode as binary P5 with maxval 255; inverse of :func:`read_pgm`."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def image_to_tensor(img: GrayImage8) -> np.ndarray:
    """Copy intensities into a [1, height, width] float32 tensor, unscaled."""
    return img.pixels.astype(np.float32)[np.newaxis, :, :]
