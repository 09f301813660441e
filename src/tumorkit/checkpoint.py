"""Bit-exact weight files (extension ``.nnck``).

Layout, all little-endian:

    magic "NNCK" | u32 version=1 | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 ndim | u32 dims[ndim]
                | raw 32-bit float data
    trailer: u32 CRC-32 of every preceding byte

Tensors are stored in insertion order and parsed back in file order, so
save -> load -> save reproduces the original bytes exactly.  Writing
streams each header piece and tensor buffer once, with a running CRC.
Files are written to a temporary sibling and moved into place, so a
failed save leaves the previous file intact.

Reading is one streaming decoder: it reads the file once, front to
back, and puts each payload straight into a destination array, with a
running CRC.  :func:`parse_weights` and :func:`load_checkpoint` give it
fresh arrays; :func:`load_model` gives it the tensors of a newly built
model, so a checkpoint is read into the model without an intermediate
table.
"""

from __future__ import annotations

import io
import math
import os
import struct
import zlib
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataset import atomic_write, reading, remove_stale_temporaries
from .errors import (
    BadMagic,
    BadVersion,
    ChecksumMismatch,
    HeaderParse,
    ShapeMismatch,
    Truncated,
)
from .model import Model, build_model

MAGIC = b"NNCK"
VERSION = 1


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
    """Write a name -> tensor table to ``path`` atomically (see
    :func:`~tumorkit.dataset.atomic_write`), first removing what a killed
    earlier save of ``path`` left (see
    :func:`~tumorkit.dataset.remove_stale_temporaries`)."""
    remove_stale_temporaries(path)
    with atomic_write(path) as handle:
        _write_weights(table, handle.write)


# payloads are read and checksummed in pieces of this many bytes, each
# while it is still in cache
_CHUNK = 1 << 20


class _Reader:
    """Reads the ``size``-byte checkpoint in ``stream`` front to back,
    keeping a running CRC of every byte read; reading into the last 4
    bytes (the trailer) raises Truncated."""

    def __init__(self, stream, size: int):
        self.stream = stream
        self.limit = max(size - 4, len(MAGIC))
        self.pos = 0
        self.crc = 0

    def require(self, n: int) -> None:
        if self.pos + n > self.limit:
            raise Truncated(f"needed {n} bytes at offset {self.pos}, have {self.limit - self.pos}")

    def fill(self, out: memoryview) -> None:
        """Read the next ``len(out)`` bytes into ``out``."""
        self.require(len(out))
        for start in range(0, len(out), _CHUNK):
            piece = out[start : start + _CHUNK]
            got = self.stream.readinto(piece)
            if got != len(piece):
                raise Truncated(f"file ended at offset {self.pos + got} while being read")
            self.pos += got
            self.crc = zlib.crc32(piece, self.crc)

    def take(self, n: int) -> bytes:
        chunk = bytearray(n)
        self.fill(memoryview(chunk))
        return bytes(chunk)

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _fresh(name: str, shape: tuple[int, ...]) -> np.ndarray:
    return np.empty(shape, dtype="<f4")


def _decode(stream, size: int, destination=_fresh) -> dict[str, np.ndarray]:
    """Read the ``size``-byte checkpoint in ``stream`` in one pass into a
    name -> tensor table, in file order.

    ``destination(name, shape)`` gives the C-contiguous float32 array
    each payload is read into; it is called once per tensor, after the
    payload is known to fit in the file.  Check order: magic, version,
    structure (Truncated on overrun, HeaderParse for a bad name, a shape
    numpy cannot hold, or trailing bytes), then the CRC trailer, so a
    clean cut raises Truncated while a flipped payload byte raises
    ChecksumMismatch.
    """
    if size < len(MAGIC):
        raise Truncated(f"{size} bytes is too short for the magic marker")
    reader = _Reader(stream, size)
    magic = reader.take(len(MAGIC))
    if magic != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, found {magic!r}")
    version = reader.u32()
    if version != VERSION:
        raise BadVersion(f"version {version}, supported {VERSION}")
    table: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        try:
            name = str(reader.take(reader.u16()), "utf-8")
        except UnicodeDecodeError as exc:
            raise HeaderParse(f"tensor name is not UTF-8: {exc}") from None
        if name in table:
            raise HeaderParse(f"duplicate tensor name {name!r}")
        shape = tuple(reader.u32() for _ in range(reader.u8()))
        reader.require(4 * math.prod(shape))
        try:
            table[name] = destination(name, shape)
        except ValueError as exc:  # more dimensions, or elements, than numpy allows
            raise HeaderParse(f"tensor {name!r} shape {shape}: {exc}") from None
        if table[name].size:  # a memoryview of an empty array cannot be cast to bytes
            reader.fill(memoryview(table[name]).cast("B"))
    if reader.pos != size - 4:
        raise HeaderParse(f"{size - 4 - reader.pos} unexpected bytes after the last tensor")
    trailer = stream.read(4)
    if len(trailer) != 4:
        raise Truncated(f"file ended at offset {size - 4 + len(trailer)} while being read")
    (stored,) = struct.unpack("<I", trailer)
    if stored != reader.crc:
        raise ChecksumMismatch(f"stored {stored:#010x}, computed {reader.crc:#010x}")
    return table


def _decode_file(path: str | Path, destination=_fresh) -> dict[str, np.ndarray]:
    """:func:`_decode` the file at ``path``; a failed read is Unreadable."""
    with reading(path, "checkpoint") as stream:
        return _decode(stream, os.fstat(stream.fileno()).st_size, destination)


def parse_weights(data: bytes | bytearray | memoryview) -> dict[str, np.ndarray]:
    """Parse checkpoint bytes into a name -> float32 tensor table.

    Checks as :func:`_decode`; each returned tensor is a writable array
    that shares no memory with ``data``.
    """
    return _decode(io.BytesIO(data), memoryview(data).nbytes)


def save_checkpoint(model: Model, path: str | Path) -> None:
    """Write the model's parameter table to ``path`` (see :func:`save_weights`)."""
    save_weights(model.parameters(), path)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint file into a name -> tensor table."""
    return _decode_file(path)


def load_model(arch: str, input_size: int, path: str | Path) -> Model:
    """A new ``arch`` model holding the weights of the checkpoint at ``path``.

    Each payload is read straight into the model's own tensor; one whose
    name or shape does not fit the model is read into a throwaway array,
    and once the whole file has passed every check the error of
    :func:`apply_weights` is raised.  So a corrupted file reports the
    corruption, and a model is returned only if every check passes.
    """
    model = build_model(arch, input_size)
    params = model.parameters()

    def into_model(name: str, shape: tuple[int, ...]) -> np.ndarray:
        param = params.get(name)
        return param if param is not None and param.shape == shape else _fresh(name, shape)

    _check_fit(params, _decode_file(path, into_model))
    return model


def _check_fit(params: Mapping[str, np.ndarray], table: Mapping[str, np.ndarray]) -> None:
    """Raise ShapeMismatch for the first tensor of ``table`` whose name is
    unknown or whose shape disagrees with ``params``, then for the first
    parameter ``table`` lacks."""
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


def apply_weights(model: Model, table: Mapping[str, np.ndarray]) -> Model:
    """Copy a weight table into the model, validating before mutating.

    The first tensor whose name is unknown or whose shape disagrees is
    reported; a tensor the model needs but the table lacks is reported
    after that.  Nothing is written unless every check passes.
    """
    params = model.parameters()
    _check_fit(params, table)
    for name, tensor in table.items():
        params[name][...] = tensor
    return model
