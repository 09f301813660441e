"""Threshold, morphology, component labeling, crop, resize, z-score."""

import hashlib

import numpy as np
import pytest

from helpers import (
    bbox_of,
    bfs_components,
    gather_resize_bilinear,
    loop_dilate,
    loop_erode,
    loop_resize_bilinear,
    window_reduce,
)
from synth import blob_image, crop_case
from tumorkit import preprocess
from tumorkit.errors import NoForeground
from tumorkit.pgm import GrayImage8
from tumorkit.preprocess import (
    DEFAULT_MORPH_ITERS,
    BinaryMask,
    CropBox,
    compute_crop_box,
    crop_and_resize,
    dilate,
    erode,
    largest_component,
    normalize_zscore,
    preprocess_image,
    resize_bilinear,
    threshold,
)


def gray(pixels) -> GrayImage8:
    return GrayImage8(np.array(pixels, dtype=np.uint8))


def mask_of(bits) -> BinaryMask:
    return BinaryMask(np.array(bits, dtype=bool))


class TestThreshold:
    def test_strictly_greater(self):
        img = gray([[44, 45, 46, 255]])
        assert threshold(img).bits.tolist() == [[False, False, True, True]]


class TestMorphology:
    def test_erode_matches_loop_oracle(self):
        g = np.random.default_rng(11)
        for _ in range(20):
            bits = g.random((13, 17)) < 0.55
            got = erode(BinaryMask(bits)).bits
            assert np.array_equal(got, loop_erode(bits, DEFAULT_MORPH_ITERS))

    def test_dilate_matches_loop_oracle(self):
        g = np.random.default_rng(12)
        for _ in range(20):
            bits = g.random((17, 13)) < 0.25
            got = dilate(BinaryMask(bits)).bits
            assert np.array_equal(got, loop_dilate(bits, DEFAULT_MORPH_ITERS))

    def test_matches_sliding_window_form(self):
        g = np.random.default_rng(13)
        k = DEFAULT_MORPH_ITERS
        for _ in range(150):
            h, w = (int(v) for v in g.integers(1, 41, size=2))
            bits = g.random((h, w)) < g.uniform(0.2, 0.9)
            assert np.array_equal(erode(BinaryMask(bits)).bits, window_reduce(bits, k, np.all))
            assert np.array_equal(dilate(BinaryMask(bits)).bits, window_reduce(bits, k, np.any))
        # masks one pixel thin along either axis, where the (2k+1)-wide
        # window is wider than the image
        thin = [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1), (2, 17), (17, 2)]
        for i in range(120):
            h, w = thin[i % len(thin)] if i < 70 else (int(v) for v in g.integers(1, 41, size=2))
            bits = g.random((h, w)) < g.uniform(0.2, 0.95)
            assert np.array_equal(erode(BinaryMask(bits)).bits, window_reduce(bits, k, np.all))
            assert np.array_equal(dilate(BinaryMask(bits)).bits, window_reduce(bits, k, np.any))

    def test_outside_counts_as_background(self):
        # a lone corner pixel touches the border, so erosion kills it
        bits = np.zeros((5, 5), dtype=bool)
        bits[0, 0] = True
        assert not erode(BinaryMask(bits)).bits.any()
        # two dilations fill only the in-bounds 3x3 corner
        grown = dilate(BinaryMask(bits)).bits
        assert grown.sum() == 9 and grown[:3, :3].all()

    def test_opening_restores_big_square_and_kills_small(self):
        big = np.zeros((11, 11), dtype=bool)
        big[3:8, 3:8] = True  # 5x5 survives two erosions as one pixel
        opened = dilate(erode(BinaryMask(big)))
        assert np.array_equal(opened.bits, big)

        small = np.zeros((11, 11), dtype=bool)
        small[3:7, 3:7] = True  # 4x4 is gone after two erosions
        assert not erode(BinaryMask(small)).bits.any()


def oracle_box(bits: np.ndarray) -> CropBox:
    """Box of the first-largest BFS component; ``max`` keeps the first of
    equal sizes, and the oracle lists components in row-major order."""
    best = max(bfs_components(bits), key=lambda c: int(c.sum()))
    top, bottom, left, right = bbox_of(best)
    return CropBox(top=top, bottom=bottom, left=left, right=right)


def serpentine(size: int = 256, corridor: int = 5) -> np.ndarray:
    """Vertical corridors ``corridor`` px wide and apart, joined alternately
    at the bottom and the top: one component whose row runs only merge
    at the far ends of the scan."""
    bits = np.zeros((size, size), dtype=bool)
    pitch = 2 * corridor
    lefts = range(0, size - corridor + 1, pitch)
    for k, left in enumerate(lefts):
        bits[:, left : left + corridor] = True
        if left + pitch + corridor <= size:
            rows = slice(size - corridor, size) if k % 2 == 0 else slice(0, corridor)
            bits[rows, left : left + pitch + corridor] = True
    return bits


class TestLargestComponent:
    def test_matches_bfs_oracle(self):
        g = np.random.default_rng(21)
        checked = ties = 0
        for _ in range(200):
            h, w = (int(v) for v in g.integers(1, 16, size=2))
            bits = g.random((h, w)) < g.uniform(0.1, 0.9)
            if not bits.any():
                continue
            sizes = sorted(int(c.sum()) for c in bfs_components(bits))
            ties += len(sizes) >= 2 and sizes[-1] == sizes[-2]
            assert largest_component(BinaryMask(bits)) == oracle_box(bits), bits.astype(int)
            checked += 1
        assert checked >= 150 and ties >= 10

    @pytest.mark.parametrize(
        "bits",
        [
            np.array([[0, 1, 1, 0, 1, 1, 1, 0, 1]], dtype=bool),  # 1xN
            np.array([[1], [1], [0], [1], [1], [1], [0]], dtype=bool),  # Nx1
            np.ones((6, 9), dtype=bool),  # all foreground
            np.pad(np.ones((1, 1), dtype=bool), ((0, 3), (4, 0))),  # one corner pixel
        ],
        ids=["1xN", "Nx1", "full", "corner"],
    )
    def test_degenerate_shapes(self, bits):
        assert largest_component(BinaryMask(bits)) == oracle_box(bits)

    def test_border_touching_components(self):
        bits = np.zeros((7, 8), dtype=bool)
        bits[0, :3] = True  # top edge
        bits[2:, 0] = True  # left edge, five pixels
        bits[6, 3:] = True  # bottom edge, five pixels, joined to nothing
        bits[1:5, 7] = True  # right edge
        assert largest_component(BinaryMask(bits)) == oracle_box(bits)
        assert largest_component(BinaryMask(bits)) == CropBox(top=2, bottom=6, left=0, right=0)

    def test_serpentine_is_one_component(self):
        bits = serpentine()
        box = largest_component(BinaryMask(bits))
        assert box == oracle_box(bits)
        assert box == CropBox(top=0, bottom=255, left=0, right=254)

    def test_tie_goes_to_first_in_row_major_order(self):
        bits = np.zeros((5, 9), dtype=bool)
        bits[1, 1:3] = True  # first 2-pixel component
        bits[3, 6:8] = True  # second, same size, later scan position
        assert largest_component(BinaryMask(bits)) == CropBox(top=1, bottom=1, left=1, right=2)

    def test_diagonal_pixels_are_one_component(self):
        bits = np.zeros((4, 6), dtype=bool)
        bits[:, :4] = np.eye(4, dtype=bool)
        bits[0, 5] = True  # isolated, and outside the chain's box
        # 4-connectivity would give (0, 0, 0, 0), the whole foreground (0, 3, 0, 5)
        assert largest_component(BinaryMask(bits)) == CropBox(top=0, bottom=3, left=0, right=3)

    def test_empty_mask_raises(self):
        with pytest.raises(NoForeground):
            largest_component(mask_of(np.zeros((3, 3), dtype=bool)))


class TestCrop:
    def test_foreground_box_extremes(self):
        # a diamond plus a pixel joined to it diagonally: top, bottom, left
        # and right each come from a different row run
        bits = np.zeros((7, 9), dtype=bool)
        for r, half in enumerate((0, 1, 2, 3, 2, 1, 0)):
            bits[r, 4 - half : 5 + half] = True
        bits[4, 0] = True  # touches (3, 1) only at a corner
        assert largest_component(BinaryMask(bits)) == CropBox(top=0, bottom=6, left=0, right=7)

    def test_crop_to_extremes(self):
        img = gray(np.zeros((12, 14)))
        inside = 60 + np.arange(64).reshape(8, 8)  # above the threshold, survives the opening
        img.pixels[2:10, 5:13] = inside
        assert compute_crop_box(img) == CropBox(top=2, bottom=9, left=5, right=12)
        # resizing to the box's own size is the identity, so this is the crop itself
        assert np.array_equal(crop_and_resize(img, out_size=8).pixels, inside)

    def test_crop_box_validation(self):
        with pytest.raises(ValueError):
            CropBox(top=3, bottom=2, left=0, right=0)


class TestResize:
    def test_same_size_is_identity(self):
        g = np.random.default_rng(31)
        px = g.integers(0, 256, size=(9, 7), dtype=np.uint8)
        out = resize_bilinear(GrayImage8(px), 7, 9)
        assert np.array_equal(out.pixels, px)

    def test_single_pixel_blows_up_to_constant(self):
        out = resize_bilinear(gray([[137]]), 8, 5)
        assert out.width == 8 and out.height == 5
        assert (out.pixels == 137).all()

    def test_matches_loop_oracle(self):
        g = np.random.default_rng(32)
        for _ in range(12):
            h = int(g.integers(1, 12))
            w = int(g.integers(1, 12))
            px = g.integers(0, 256, size=(h, w), dtype=np.uint8)
            for out_w, out_h in ((5, 5), (13, 7), (2, 9)):
                got = resize_bilinear(GrayImage8(px), out_w, out_h).pixels
                want = loop_resize_bilinear(px, out_w, out_h)
                assert np.array_equal(got, want), (h, w, out_w, out_h)

    def test_matches_gather_form(self):
        # crops of every shape seen in practice, to the model sizes and to
        # arbitrary sizes: the separable form must give the same bytes
        g = np.random.default_rng(33)
        for i in range(2100):
            h, w = (int(v) for v in g.integers(1, 81, size=2))
            px = g.integers(0, 256, size=(h, w), dtype=np.uint8)
            if i % 3 < 2:
                out_w = out_h = (64, 224)[i % 3]
            else:
                out_w, out_h = (int(v) for v in g.integers(1, 257, size=2))
            got = resize_bilinear(GrayImage8(px), out_w, out_h).pixels
            want = gather_resize_bilinear(px, out_w, out_h)
            assert np.array_equal(got, want), (h, w, out_w, out_h)

    def test_crops_to_model_size_match_loop_oracle(self):
        g = np.random.default_rng(34)
        for _ in range(4):
            h, w = (int(v) for v in g.integers(30, 61, size=2))
            px = g.integers(0, 256, size=(h, w), dtype=np.uint8)
            got = resize_bilinear(GrayImage8(px), 64, 64).pixels
            assert np.array_equal(got, loop_resize_bilinear(px, 64, 64)), (h, w)

    def test_cached_taps_are_read_only(self):
        resize_bilinear(gray(np.zeros((5, 7))), 3, 4)
        for taps in (preprocess._taps(5, 4), preprocess._taps(7, 3)):
            for array in taps:
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_constant_image_stays_constant(self):
        out = resize_bilinear(gray(np.full((6, 6), 200)), 224, 224)
        assert (out.pixels == 200).all()

    def test_rejects_empty_output(self):
        with pytest.raises(ValueError):
            resize_bilinear(gray([[1]]), 0, 4)


class TestZScore:
    def test_mean_zero_std_one(self):
        g = np.random.default_rng(41)
        arr = g.integers(0, 256, size=(1, 32, 32)).astype(np.float64)
        out = normalize_zscore(arr)
        assert abs(float(out.mean())) < 1e-9
        assert abs(float(out.std()) - 1.0) < 1e-9

    def test_known_values(self):
        out = normalize_zscore(np.array([0.0, 2.0], dtype=np.float64))
        assert out.tolist() == [-1.0, 1.0]

    def test_constant_input_maps_to_zeros(self):
        out = normalize_zscore(np.full((1, 4, 4), 93, dtype=np.float32))
        assert out.dtype == np.float32
        assert not out.any()

    def test_integer_input_becomes_float32(self):
        out = normalize_zscore(np.array([1, 2, 3], dtype=np.uint8))
        assert out.dtype == np.float32

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_zscore(np.zeros((0,)))


class TestFullChain:
    def test_crop_box_matches_clean_shape_oracle(self):
        g = np.random.default_rng(51)
        checked = 0
        for _ in range(15):
            img, shape, _ = crop_case(g)
            opened = loop_dilate(loop_erode(shape, 2), 2)
            if not opened.any():
                continue  # shape too thin for the opening; not this test's concern
            box = compute_crop_box(img)
            assert (box.top, box.bottom, box.left, box.right) == bbox_of(opened)
            checked += 1
        assert checked >= 10

    # SHA-256 of the crop_and_resize outputs of 200 blob images, as the
    # straightforward per-pixel gather resize and iterated 3x3 opening made them
    PINNED_CROPS = {
        64: "1adf5141c26175abd338046d43423f9415e7592a99256f733f062083d92e1d9d",
        224: "d2338fcda8e5e6c34a7818bb709ab927949d53dcf55a7162020f73c1f5851063",
    }

    @pytest.mark.parametrize("size", sorted(PINNED_CROPS))
    def test_crop_and_resize_bytes_are_pinned(self, size):
        g = np.random.default_rng(8)
        digest = hashlib.sha256()
        for i in range(200):
            img = blob_image(g, with_blob=i % 2 == 0)
            digest.update(crop_and_resize(img, out_size=size).pixels.tobytes())
        assert digest.hexdigest() == self.PINNED_CROPS[size]

    def test_crop_and_resize_shape(self):
        g = np.random.default_rng(52)
        img, _, _ = crop_case(g)
        out = crop_and_resize(img, out_size=64)
        assert (out.height, out.width) == (64, 64)
        assert out.pixels.dtype == np.uint8

    def test_preprocess_tensor_contract(self):
        g = np.random.default_rng(53)
        img, _, _ = crop_case(g)
        t = preprocess_image(img, out_size=32)
        assert t.shape == (1, 32, 32)
        assert t.dtype == np.float32
        assert abs(float(t.mean())) < 1e-5

    def test_black_image_has_no_foreground(self):
        img = gray(np.zeros((20, 20)))
        with pytest.raises(NoForeground):
            compute_crop_box(img)

    def test_speckles_do_not_move_the_box(self):
        # same shape with and without speckles must crop identically
        g = np.random.default_rng(54)
        found = False
        for _ in range(30):
            img, shape, n_speckles = crop_case(g)
            if n_speckles == 0:
                continue
            clean = np.zeros_like(img.pixels)
            clean[shape] = img.pixels[shape]
            if not loop_erode(shape, 2).any():
                continue
            assert compute_crop_box(img) == compute_crop_box(GrayImage8(clean))
            found = True
        assert found
