"""PGM codec and tensor conversion."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import tokenwise_read_p2
from tumorkit.errors import BadMagic, HeaderParse, Truncated
from tumorkit.pgm import GrayImage8, image_to_tensor, read_pgm, write_pgm


def make(pixels) -> GrayImage8:
    return GrayImage8(np.array(pixels, dtype=np.uint8))


class TestReadBinary:
    def test_minimal(self):
        img = read_pgm(b"P5\n2 3\n255\n" + bytes([0, 1, 2, 3, 4, 5]))
        assert img.width == 2 and img.height == 3
        assert img.pixels.tolist() == [[0, 1], [2, 3], [4, 5]]

    def test_comments_and_whitespace(self):
        data = b"P5 # binary\n# size next\n 2\t2 #w h\n255\x0c" + bytes([9, 8, 7, 6])
        img = read_pgm(data)
        assert img.pixels.tolist() == [[9, 8], [7, 6]]

    def test_pixel_bytes_not_tokenized(self):
        # 0x23 is '#': as payload it must be data, not a comment start
        img = read_pgm(b"P5\n1 2\n255\n" + bytes([0x23, 0x0A]))
        assert img.pixels.tolist() == [[0x23], [0x0A]]

    def test_truncated_payload(self):
        with pytest.raises(Truncated):
            read_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_truncated_header(self):
        with pytest.raises(HeaderParse):
            read_pgm(b"P5\n2")

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_pgm(b"P6\n1 1\n255\n\x00")

    def test_maxval_must_be_255(self):
        for maxval in (b"254", b"65535", b"1"):
            with pytest.raises(HeaderParse):
                read_pgm(b"P5\n1 1\n" + maxval + b"\n\x00")

    def test_zero_dimension_rejected(self):
        with pytest.raises(HeaderParse):
            read_pgm(b"P5\n0 2\n255\n")

    @pytest.mark.parametrize("fields", [
        b"+2 +2 255", b"2 2 +255", b"1_0 1 255", b"1 1_0 255", b"1 1 2_55",
        b"-0 1 255", b"\x1c1 1 255", b"1 1 0x1", b"1 1 255.0",
    ])
    def test_header_numbers_are_ascii_digits_only(self, fields):
        with pytest.raises(HeaderParse, match="invalid"):
            read_pgm(b"P5 " + fields + b"\n" + bytes(100))

    # longer than the 4300 digits int() converts by default; each field is
    # invalid under any limit, so a raised limit cannot turn it into Truncated
    @pytest.mark.parametrize("fields", [
        b"0" * 5000 + b" 1 255", b"1 " + b"0" * 5000 + b" 255", b"1 1 " + b"9" * 5000,
    ], ids=["width", "height", "maxval"])
    def test_header_numbers_too_long_for_int(self, fields):
        with pytest.raises(HeaderParse):
            read_pgm(b"P5 " + fields + b"\n\x00")


class TestReadAscii:
    def test_minimal(self):
        img = read_pgm(b"P2\n3 1\n255\n0 128 255\n")
        assert img.pixels.tolist() == [[0, 128, 255]]

    def test_arbitrary_whitespace(self):
        img = read_pgm(b"P2 2 2 255 1\n2\t3    4")
        assert img.pixels.tolist() == [[1, 2], [3, 4]]

    def test_comment_between_samples(self):
        img = read_pgm(b"P2\n1 2\n255\n7 # mid\n9\n")
        assert img.pixels.tolist() == [[7], [9]]

    def test_sample_out_of_range(self):
        with pytest.raises(HeaderParse):
            read_pgm(b"P2\n1 1\n255\n256\n")

    def test_missing_samples(self):
        with pytest.raises(Truncated):
            read_pgm(b"P2\n2 2\n255\n1 2 3\n")

    def test_non_numeric_sample(self):
        with pytest.raises(HeaderParse):
            read_pgm(b"P2\n1 1\n255\nabc\n")

    @pytest.mark.parametrize("sample", [b"+5", b"1_0", b"-0", b"\x1f7", b"\xd9\xa3"])
    def test_samples_are_ascii_digits_only(self, sample):
        with pytest.raises(HeaderParse, match="invalid pixel"):
            read_pgm(b"P2\n2 1\n255\n1 " + sample + b"\n")

    def test_sample_too_long_for_int(self):
        with pytest.raises(HeaderParse):
            read_pgm(b"P2\n2 1\n255\n1 " + b"9" * 5000 + b"\n")

    def test_leading_zeros_are_decimal(self):
        img = read_pgm(b"P2 02 1 0255 007 010\n")
        assert img.pixels.tolist() == [[7, 10]]

    def test_trailing_tokens_ignored(self):
        img = read_pgm(b"P2\n1 1\n255\n5 junk 999\n")
        assert img.pixels.tolist() == [[5]]


# a raster token is a valid sample, a sign or digit separator that
# Python's int() would accept but the format does not, a value out of
# range, or garbage
SAMPLE = st.one_of(
    st.integers(0, 255).map(lambda v: str(v).encode()),
    st.sampled_from([b"+5", b"1_0", b"-0", b"007", b"256", b"999", b"-1", b"abc", b"0x1", b"1.0"]),
)
# separators: whitespace runs, or comments that end at a newline
SEPARATOR = st.one_of(
    st.lists(st.sampled_from(list(b" \t\n\r\x0b\x0c")), min_size=1, max_size=3).map(bytes),
    st.sampled_from([b"#\n", b" # note 12 34\n", b"#x#y\r\n", b"\n#  \n\n"]),
)


def header(
    draw, magic: bytes, width: int, height: int, maxvals: list[bytes], signs: bool
) -> bytes:
    """Magic, then width, height and maxval tokens, each after a drawn
    separator; the width and height tokens may carry leading zeros or,
    when ``signs`` is set, a sign the format rejects."""
    spellings = [b"%d", b"0%d", b"+%d"] if signs else [b"%d", b"0%d"]
    data = magic
    for value in (width, height):
        data += draw(SEPARATOR) + draw(st.sampled_from(spellings)) % value
    return data + draw(SEPARATOR) + draw(st.sampled_from(maxvals))


@st.composite
def p2_files(draw):
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tokens = draw(st.lists(SAMPLE, max_size=width * height + 3))
    data = header(draw, b"P2", width, height, [b"255", b"0255", b"+255", b"254"], True)
    for token in tokens:
        data += draw(SEPARATOR) + token
    return data + draw(st.sampled_from([b"", b"\n", b" #tail"]))


@st.composite
def p5_files(draw):
    """(file, payload): the one byte after maxval is whitespace or '#',
    and the payload may start with either."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    data = header(draw, b"P5", width, height, [b"255", b"0255"], False)
    payload = draw(st.binary(min_size=width * height, max_size=width * height))
    return data + draw(st.sampled_from([b" ", b"\n", b"\r", b"\x0c", b"#"])) + payload, payload


class TestAsciiAgainstTokenwiseDecoder:
    @settings(max_examples=400, deadline=None)
    @given(p2_files())
    @example(b"P2\n2 1\n255\n+5 1_0")
    @example(b"P2\n2 2\n255\n1#c\n2 3")
    @example(b"P2\n1 1\n255 #c")
    @example(b"P2\n1 1\n255\n" + b"9" * 5000)
    @example(b"P2 " + b"0" * 5000 + b" 1 255 7")
    def test_same_pixels_or_same_error(self, data):
        outcome, pixels = tokenwise_read_p2(data)
        if outcome == "ok":
            assert np.array_equal(read_pgm(data).pixels, pixels)
        else:
            with pytest.raises((HeaderParse, Truncated)) as caught:
                read_pgm(data)
            assert type(caught.value).__name__ == outcome


class TestBinaryHeaderTokens:
    @settings(max_examples=200, deadline=None)
    @given(p5_files())
    @example((b"P5\n1 2\n255#" + bytes([0x23, 0x0A]), bytes([0x23, 0x0A])))
    @example((b"P5 #c\n2#d\n1\t255\n  ", b"  "))
    def test_payload_starts_one_byte_after_maxval(self, case):
        data, payload = case
        assert read_pgm(data).pixels.tobytes() == payload


class TestWrite:
    def test_round_trip(self):
        img = make([[0, 255, 17], [4, 5, 6]])
        assert read_pgm(write_pgm(img)) == img

    def test_exact_bytes(self):
        img = make([[1, 2], [3, 4]])
        assert write_pgm(img) == b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])

    def test_ascii_binary_agree(self):
        ascii_img = read_pgm(b"P2\n2 2\n255\n10 20 30 40\n")
        binary_img = read_pgm(b"P5\n2 2\n255\n" + bytes([10, 20, 30, 40]))
        assert ascii_img == binary_img


class TestImageToTensor:
    def test_shape_dtype_values(self):
        img = make([[0, 128], [255, 7]])
        t = image_to_tensor(img)
        assert t.shape == (1, 2, 2)
        assert t.dtype == np.float32
        assert t[0].tolist() == [[0.0, 128.0], [255.0, 7.0]]

    def test_no_rescaling(self):
        img = make([[255]])
        assert image_to_tensor(img)[0, 0, 0] == 255.0


class TestGrayImage8:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrayImage8(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            GrayImage8(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage8(np.zeros((0, 4), dtype=np.uint8))

    def test_equality(self):
        a = make([[1, 2]])
        assert a == make([[1, 2]])
        assert a != make([[1, 3]])
        assert a != "not an image"
