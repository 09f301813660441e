"""Weight file round-trips and corruption detection."""

import struct
import zlib

import numpy as np
import pytest

from tumorkit.checkpoint import (
    MAGIC,
    VERSION,
    apply_weights,
    dump_weights,
    load_checkpoint,
    parse_weights,
    save_checkpoint,
    save_weights,
)
from tumorkit.errors import (
    BadMagic,
    BadVersion,
    ChecksumMismatch,
    HeaderParse,
    ShapeMismatch,
    Truncated,
)
from tumorkit.model import build_vgg_tiny, init_weights
from tumorkit.rng import Rng


def sample_table():
    g = np.random.default_rng(171)
    return {
        "conv1.weight": g.normal(size=(4, 1, 3, 3)).astype(np.float32),
        "conv1.bias": g.normal(size=(4,)).astype(np.float32),
        "dense1.weight": g.normal(size=(2, 4)).astype(np.float32),
    }


class TestRoundTrip:
    def test_values_and_names_survive(self):
        table = sample_table()
        back = parse_weights(dump_weights(table))
        assert list(back) == list(table)
        for name in table:
            assert back[name].dtype == np.float32
            assert np.array_equal(back[name], table[name])

    def test_parse_then_dump_reproduces_bytes(self):
        blob = dump_weights(sample_table())
        assert dump_weights(parse_weights(blob)) == blob

    def test_scalar_tensor(self):
        back = parse_weights(dump_weights({"t": np.float32(2.5)}))
        assert back["t"].shape == ()
        assert back["t"] == np.float32(2.5)

    def test_empty_table(self):
        assert parse_weights(dump_weights({})) == {}

    def test_file_round_trip(self, tmp_path):
        model = init_weights(build_vgg_tiny(input_size=16), Rng(8))
        path = tmp_path / "weights.nnck"
        save_checkpoint(model, path)
        table = load_checkpoint(path)
        for name, tensor in model.parameters().items():
            assert np.array_equal(table[name], tensor)

    def test_any_layout_of_float_data_dumps_its_c_order_bytes(self):
        g = np.random.default_rng(172)
        base = g.normal(size=(3, 4)).astype(np.float32)
        table = {"t": base.T, "be": base.astype(">f4"), "f64": base.astype(np.float64),
                 "s": np.float32(1.5), "e": np.zeros((0, 3), dtype=np.float32)}
        body = MAGIC + struct.pack("<II", VERSION, len(table))
        for name, tensor in table.items():
            data = np.asarray(tensor, dtype="<f4")
            body += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", data.ndim)
            body += struct.pack(f"<{data.ndim}I", *data.shape) + data.tobytes()
        assert dump_weights(table) == body + struct.pack("<I", zlib.crc32(body))

    def test_parse_returns_owned_writable_tensors(self):
        blob = bytearray(dump_weights(sample_table()))
        original = bytes(blob)
        back = parse_weights(blob)
        for name, tensor in back.items():
            assert tensor.flags.writeable and tensor.flags.owndata, name
            assert not np.shares_memory(tensor, np.frombuffer(blob, dtype=np.uint8)), name
            tensor += 1
        assert bytes(blob) == original
        assert parse_weights(memoryview(blob)).keys() == back.keys()

    def test_saved_file_holds_the_dumped_bytes(self, tmp_path):
        model = init_weights(build_vgg_tiny(input_size=16), Rng(9))
        path = tmp_path / "weights.nnck"
        save_checkpoint(model, path)
        assert path.read_bytes() == dump_weights(model.parameters())

    def test_layout_of_minimal_file(self):
        blob = dump_weights({"b": np.zeros(2, dtype=np.float32)})
        body = (
            MAGIC
            + struct.pack("<II", VERSION, 1)
            + struct.pack("<H", 1)
            + b"b"
            + struct.pack("<B", 1)
            + struct.pack("<I", 2)
            + b"\x00" * 8
        )
        assert blob == body + struct.pack("<I", zlib.crc32(body))


class TestParseErrors:
    def test_bad_magic(self):
        blob = bytearray(dump_weights(sample_table()))
        blob[:4] = b"XXCK"
        with pytest.raises(BadMagic):
            parse_weights(bytes(blob))

    def test_bad_version(self):
        table = sample_table()
        body = MAGIC + struct.pack("<II", 9, 0)
        blob = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(BadVersion):
            parse_weights(blob)

    def test_truncation_anywhere_in_the_tail(self):
        blob = dump_weights({"w": np.ones((2, 2), dtype=np.float32)})
        for cut in (3, 7, 11, 14, 20, len(blob) - 5, len(blob) - 1):
            with pytest.raises(Truncated):
                parse_weights(blob[:cut])

    def test_flipped_payload_byte_fails_checksum(self):
        blob = bytearray(dump_weights(sample_table()))
        blob[-10] ^= 0x01  # inside the last tensor's float data
        with pytest.raises(ChecksumMismatch):
            parse_weights(bytes(blob))

    def test_flipped_name_byte_fails_checksum(self):
        blob = bytearray(dump_weights({"abcdef": np.zeros(1, dtype=np.float32)}))
        idx = blob.index(b"abcdef")
        blob[idx] = ord("z")
        with pytest.raises(ChecksumMismatch):
            parse_weights(bytes(blob))

    def test_trailing_garbage_rejected(self):
        table = {"w": np.ones(3, dtype=np.float32)}
        body = dump_weights(table)[:-4] + b"\x99\x99"
        blob = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(HeaderParse):
            parse_weights(blob)

    def test_duplicate_names_rejected(self):
        one = struct.pack("<H", 1) + b"w" + struct.pack("<B", 1) + struct.pack("<I", 1) + b"\x00" * 4
        body = MAGIC + struct.pack("<II", VERSION, 2) + one + one
        blob = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(HeaderParse):
            parse_weights(blob)

    def test_any_single_byte_flip_raises_a_parse_error(self):
        # no corruption may slip through as a successful parse
        blob = dump_weights({"w": np.ones((2, 2), dtype=np.float32)})
        expected = (BadMagic, BadVersion, Truncated, HeaderParse, ChecksumMismatch)
        for pos in range(len(blob)):
            for flip in (0x01, 0xFF):
                broken = bytearray(blob)
                broken[pos] ^= flip
                with pytest.raises(expected):
                    parse_weights(bytes(broken))


class TestApplyWeights:
    def test_applies_all_tensors(self):
        m = init_weights(build_vgg_tiny(input_size=16), Rng(4))
        table = {k: np.full_like(v, 0.5) for k, v in m.parameters().items()}
        apply_weights(m, table)
        for tensor in m.parameters().values():
            assert (tensor == 0.5).all()

    def test_unknown_name_rejected(self):
        m = build_vgg_tiny(input_size=16)
        table = dict(m.parameters())
        table["conv9.weight"] = np.zeros((1, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeMismatch):
            apply_weights(m, table)

    def test_wrong_shape_rejected(self):
        m = build_vgg_tiny(input_size=16)
        table = dict(m.parameters())
        table["conv1.bias"] = np.zeros(9, dtype=np.float32)
        with pytest.raises(ShapeMismatch):
            apply_weights(m, table)

    def test_missing_tensor_rejected(self):
        m = build_vgg_tiny(input_size=16)
        table = dict(m.parameters())
        del table["dense1.weight"]
        with pytest.raises(ShapeMismatch):
            apply_weights(m, table)

    def test_validation_happens_before_any_write(self):
        m = init_weights(build_vgg_tiny(input_size=16), Rng(5))
        before = {k: v.copy() for k, v in m.parameters().items()}
        table = {k: np.zeros_like(v) for k, v in m.parameters().items()}
        table["dense1.weight"] = np.zeros((1, 1), dtype=np.float32)  # poison one entry
        with pytest.raises(ShapeMismatch):
            apply_weights(m, table)
        for name, tensor in m.parameters().items():
            assert np.array_equal(tensor, before[name]), name

    def test_load_weights_round_trip(self, tmp_path):
        src = init_weights(build_vgg_tiny(input_size=16), Rng(12))
        path = tmp_path / "w.nnck"
        save_checkpoint(src, path)
        dst = build_vgg_tiny(input_size=16)
        apply_weights(dst, load_checkpoint(path))
        for name, tensor in src.parameters().items():
            assert np.array_equal(dst.parameters()[name], tensor)


class TestAtomicSave:
    def test_failed_save_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "weights.nnck"
        save_weights(sample_table(), path)
        before = path.read_bytes()
        # the second name is too long to encode, so the write fails after
        # the header and the first tensor have gone to the temporary file
        table = {"first": np.ones(1000, dtype=np.float32), "x" * 0x10000: np.zeros(1)}
        with pytest.raises(ValueError, match="too long"):
            save_weights(table, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_save_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "weights.nnck"
        path.write_bytes(b"stale")
        save_weights(sample_table(), path)
        assert path.read_bytes() == dump_weights(sample_table())
        assert list(tmp_path.iterdir()) == [path]
