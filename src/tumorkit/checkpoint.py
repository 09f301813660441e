"""Bit-exact weight files (extension ``.nnck``).

Layout, all little-endian:

    magic "NNCK" | u32 version=1 | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 ndim | u32 dims[ndim]
                | raw 32-bit float data
    trailer: u32 CRC-32 of every preceding byte

Tensors are stored in insertion order and parsed back in file order, so
save -> load -> save reproduces the original bytes exactly.  Writing
streams each header piece and tensor buffer once, with a running CRC;
parsing reads through a memoryview, so neither side copies the payload
more than the one copy each returned tensor owns.  Files are written to
a temporary sibling and moved into place, so a failed save leaves the
previous file intact.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    BadMagic,
    BadVersion,
    ChecksumMismatch,
    HeaderParse,
    ShapeMismatch,
    Truncated,
)
from .model import Model

MAGIC = b"NNCK"
VERSION = 1
EXTENSION = ".nnck"


def _write_weights(table: Mapping[str, np.ndarray], write) -> None:
    """Stream a name -> tensor table to ``write``, CRC trailer last."""
    crc = 0

    def put(chunk) -> None:
        nonlocal crc
        crc = zlib.crc32(chunk, crc)
        write(chunk)

    put(MAGIC + struct.pack("<II", VERSION, len(table)))
    for name, tensor in table.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name[:40]}...")
        # the header takes the shape from asarray, because ascontiguousarray
        # may promote a 0-d tensor to 1-d; the payload is the same bytes
        data = np.asarray(tensor, dtype="<f4")
        put(struct.pack(f"<H{len(encoded)}sB{data.ndim}I",
                        len(encoded), encoded, data.ndim, *data.shape))
        put(np.ascontiguousarray(data))
    write(struct.pack("<I", crc))


def dump_weights(table: Mapping[str, np.ndarray]) -> bytes:
    """Serialize a name -> tensor table to checkpoint bytes."""
    out = io.BytesIO()
    _write_weights(table, out.write)
    return out.getvalue()


def save_weights(table: Mapping[str, np.ndarray], path: str | Path) -> None:
    """Write a name -> tensor table to ``path`` atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``; if anything fails first, the temporary file is
    removed and whatever was at ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            _write_weights(table, handle.write)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Cursor:
    """Sequential reader that converts overruns into Truncated."""

    def __init__(self, view: memoryview, limit: int):
        self.view = view
        self.pos = 0
        self.limit = limit

    def take(self, n: int) -> memoryview:
        if self.pos + n > self.limit:
            raise Truncated(f"needed {n} bytes at offset {self.pos}, have {self.limit - self.pos}")
        chunk = self.view[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def parse_weights(data: bytes | bytearray | memoryview) -> dict[str, np.ndarray]:
    """Parse checkpoint bytes into a name -> float32 tensor table.

    Check order: magic, version, structure (Truncated on overrun),
    then the CRC trailer, so a clean cut raises Truncated while a
    flipped payload byte raises ChecksumMismatch.  Each returned tensor
    is a writable copy that shares no memory with ``data``.
    """
    view = memoryview(data).cast("B")
    size = len(view)
    if size < len(MAGIC):
        raise Truncated(f"{size} bytes is too short for the magic marker")
    if view[: len(MAGIC)] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, found {bytes(view[:4])!r}")
    cur = _Cursor(view, max(size - 4, len(MAGIC)))
    cur.pos = len(MAGIC)
    version = cur.u32()
    if version != VERSION:
        raise BadVersion(f"version {version}, supported {VERSION}")
    count = cur.u32()
    raw: list[tuple[str, tuple[int, ...], memoryview]] = []
    seen: set[str] = set()
    for _ in range(count):
        try:
            name = str(cur.take(cur.u16()), "utf-8")
        except UnicodeDecodeError as exc:
            raise HeaderParse(f"tensor name is not UTF-8: {exc}") from None
        if name in seen:
            raise HeaderParse(f"duplicate tensor name {name!r}")
        seen.add(name)
        ndim = cur.u8()
        shape = tuple(cur.u32() for _ in range(ndim))
        n_values = 1
        for extent in shape:
            n_values *= extent
        raw.append((name, shape, cur.take(4 * n_values)))
    if cur.pos != size - 4:
        raise HeaderParse(f"{size - 4 - cur.pos} unexpected bytes after the last tensor")
    stored = struct.unpack("<I", view[-4:])[0]
    actual = zlib.crc32(view[:-4])
    if stored != actual:
        raise ChecksumMismatch(f"stored {stored:#010x}, computed {actual:#010x}")
    return {
        name: np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        for name, shape, payload in raw
    }


def save_checkpoint(model: Model, path: str | Path) -> None:
    """Write the model's parameter table to ``path`` (see :func:`save_weights`)."""
    save_weights(model.parameters(), path)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint file into a name -> tensor table."""
    return parse_weights(Path(path).read_bytes())


def apply_weights(model: Model, table: Mapping[str, np.ndarray]) -> Model:
    """Copy a weight table into the model, validating before mutating.

    The first tensor whose name is unknown or whose shape disagrees is
    reported; a tensor the model needs but the table lacks is reported
    after that.  Nothing is written unless every check passes.
    """
    params = model.parameters()
    for name, tensor in table.items():
        if name not in params:
            raise ShapeMismatch(f"checkpoint tensor {name!r} has no counterpart in the model")
        if tuple(tensor.shape) != params[name].shape:
            raise ShapeMismatch(
                f"tensor {name!r}: checkpoint shape {tuple(tensor.shape)}, "
                f"model shape {params[name].shape}"
            )
    for name in params:
        if name not in table:
            raise ShapeMismatch(f"model tensor {name!r} missing from checkpoint")
    for name, tensor in table.items():
        params[name][...] = tensor
    return model
