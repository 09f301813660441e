"""Weight file round-trips and corruption detection."""

import os
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from helpers import sliced_read_nnck
from tumorkit import checkpoint, dataset
from tumorkit.checkpoint import (
    MAGIC,
    VERSION,
    apply_weights,
    dump_weights,
    load_checkpoint,
    load_model,
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
    TumorkitError,
    Unreadable,
)
from tumorkit.model import _assemble, build_vgg_tiny, init_weights
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

    @pytest.mark.parametrize("shape", [(0,) + (1,) * 64, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)],
                             ids=["65-dims", "too-many-elements"])
    def test_empty_tensor_numpy_cannot_hold(self, tmp_path, shape):
        # no payload, so the file is complete, but numpy refuses the shape
        tensor = (struct.pack("<H", 1) + b"w" + struct.pack("<B", len(shape))
                  + struct.pack(f"<{len(shape)}I", *shape))
        path = tmp_path / "w.nnck"
        path.write_bytes(framed(tensor))
        for load in (lambda: parse_weights(framed(tensor)), lambda: load_checkpoint(path)):
            with pytest.raises(HeaderParse, match="tensor 'w' shape"):
                load()

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

    def test_a_save_removes_only_a_killed_saves_temporary_file(self, tmp_path):
        path = tmp_path / "best.nnck"
        dead, dead2 = 2**22 + 1, 2**22 + 2  # above every Linux pid_max
        old = time.time() - dataset.STALE_AFTER_S - 60
        gone = f".best.nnck.{dead}.tmp"
        kept = [
            f".best.nnck.{dead2}.tmp",  # fresh: maybe a live writer on another host
            f".best.nnck.{os.getppid()}.tmp",  # a live writer here, however old
            f".final.nnck.{dead}.tmp",  # another target's
            ".best.nnck.abc.tmp", "best.nnck.tmp", f"best.nnck.{dead}.tmp",
        ]
        for name in [gone] + kept:
            (tmp_path / name).write_bytes(b"half")
            if name != kept[0]:
                os.utime(tmp_path / name, (old, old))
        save_weights(sample_table(), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept + ["best.nnck"])


def framed(*tensors: bytes) -> bytes:
    """A checkpoint of the given encoded tensors with a valid CRC trailer."""
    body = MAGIC + struct.pack("<II", VERSION, len(tensors)) + b"".join(tensors)
    return body + struct.pack("<I", zlib.crc32(body))


def encoded(name: str, tensor: np.ndarray) -> bytes:
    """One tensor's header and payload, as the file lays them out."""
    data = np.asarray(tensor, dtype="<f4")
    return (struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", data.ndim)
            + struct.pack(f"<{data.ndim}I", *data.shape) + data.tobytes())


def outcome(load):
    """The error class a load raises, or the bytes of what it returned."""
    try:
        table = load()
    except TumorkitError as exc:
        return type(exc).__name__
    return {name: tensor.tobytes() for name, tensor in table.items()}


class TestLoadModel:
    """``load_model`` reads a file straight into a new model and fails
    exactly as ``apply_weights(model, parse_weights(data))`` does."""

    @staticmethod
    def mini(arch="mini", input_size=4):
        # conv1 [2, 1, 3, 3] and dense1 [2, 2]: a file of about 170 bytes
        return _assemble([[2]], False, [], input_size)

    @pytest.fixture
    def mini_builder(self, monkeypatch):
        monkeypatch.setattr(checkpoint, "build_model", self.mini)

    @pytest.fixture
    def blob(self):
        m = self.mini()
        g = np.random.default_rng(173)
        for tensor in m.parameters().values():
            tensor[...] = g.normal(size=tensor.shape)
        return dump_weights(m.parameters())

    def check_same_as_parse_and_apply(self, data: bytes, path):
        path.write_bytes(data)
        want = outcome(lambda: apply_weights(self.mini(), parse_weights(data)).parameters())
        got = outcome(lambda: load_model("mini", 4, path).parameters())
        assert got == want
        status, table = sliced_read_nnck(data)
        parsed = outcome(lambda: parse_weights(data))
        assert parsed == (status if table is None else outcome(lambda: table))
        return got

    def test_round_trip_resaves_byte_identically(self, tmp_path):
        src = init_weights(build_vgg_tiny(input_size=16), Rng(13))
        path = tmp_path / "w.nnck"
        save_checkpoint(src, path)
        m = load_model("vgg_tiny", 16, path)
        assert m.input_size == 16
        for name, tensor in src.parameters().items():
            assert np.array_equal(m.parameters()[name], tensor)
        save_checkpoint(m, tmp_path / "again.nnck")
        assert (tmp_path / "again.nnck").read_bytes() == path.read_bytes()

    def test_reads_into_the_model_without_a_second_copy(self, tmp_path, monkeypatch):
        def wide(arch, input_size):  # about 2.6 MB of weights, most in conv2
            return _assemble([[256, 256]], False, [256], input_size)

        src = wide("wide", 8)
        g = np.random.default_rng(174)
        for tensor in src.parameters().values():
            tensor[...] = g.normal(size=tensor.shape)
        path = tmp_path / "w.nnck"
        save_checkpoint(src, path)
        monkeypatch.setattr(checkpoint, "build_model", wide)
        weights = sum(t.nbytes for t in src.parameters().values())
        tracemalloc.start()
        try:
            m = load_model("wide", 8, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * weights  # the model's own tensors, and no table or file copy
        for name, tensor in src.parameters().items():
            assert m.parameters()[name].tobytes() == tensor.tobytes()

    def test_every_byte_flip(self, mini_builder, blob, tmp_path):
        assert isinstance(self.check_same_as_parse_and_apply(blob, tmp_path / "w"), dict)
        for pos in range(len(blob)):
            for flip in (0x01, 0xFF):
                broken = bytearray(blob)
                broken[pos] ^= flip
                got = self.check_same_as_parse_and_apply(bytes(broken), tmp_path / "w")
                assert isinstance(got, str), (pos, flip)

    def test_every_clean_cut(self, mini_builder, blob, tmp_path):
        for cut in range(len(blob)):
            got = self.check_same_as_parse_and_apply(blob[:cut], tmp_path / "w")
            assert got in ("Truncated", "HeaderParse", "ChecksumMismatch"), cut

    def test_trailing_bytes(self, mini_builder, blob, tmp_path):
        data = blob[:-4] + b"\x99\x99"
        data += struct.pack("<I", zlib.crc32(data))
        assert self.check_same_as_parse_and_apply(data, tmp_path / "w") == "HeaderParse"

    def test_duplicate_name(self, mini_builder, tmp_path):
        params = self.mini().parameters()
        tensors = [encoded(name, t) for name, t in params.items()]
        data = framed(*tensors, tensors[0])
        assert self.check_same_as_parse_and_apply(data, tmp_path / "w") == "HeaderParse"

    @pytest.mark.parametrize("change", ["unknown", "wrong shape", "missing", "extra"])
    def test_table_that_does_not_fit_the_model(self, mini_builder, tmp_path, change):
        params = dict(self.mini().parameters())
        if change == "unknown":
            params["conv9.weight"] = np.zeros((1, 1, 3, 3), dtype=np.float32)
        elif change == "wrong shape":
            params["conv1.bias"] = np.zeros(9, dtype=np.float32)
        elif change == "missing":
            del params["dense1.weight"]
        else:  # an unknown name first, then a wrong shape: the first is reported
            params = {"zzz": np.zeros(3, dtype=np.float32), **params,
                      "dense1.bias": np.zeros(5, dtype=np.float32)}
        data = framed(*(encoded(name, t) for name, t in params.items()))
        path = tmp_path / "w"
        assert self.check_same_as_parse_and_apply(data, path) == "ShapeMismatch"
        with pytest.raises(ShapeMismatch) as loaded:
            load_model("mini", 4, path)
        with pytest.raises(ShapeMismatch) as applied:
            apply_weights(self.mini(), parse_weights(data))
        assert str(loaded.value) == str(applied.value)
        # a corrupted file that also does not fit reports the corruption
        broken = bytearray(data)
        broken[-6] ^= 0x01
        assert self.check_same_as_parse_and_apply(bytes(broken), path) == "ChecksumMismatch"

    def test_unreadable_path(self, tmp_path):
        for path in (tmp_path / "missing.nnck", tmp_path):
            with pytest.raises(Unreadable, match=str(path)):
                load_model("vgg_tiny", 16, path)
            with pytest.raises(Unreadable, match=str(path)):
                load_checkpoint(path)
