"""Affine warps, brightness, flips, and the seeded parameter sampler."""

import numpy as np
import pytest

from helpers import loop_affine_nearest
from tumorkit.augment import (
    AugmentParams,
    adjust_brightness,
    apply_affine,
    augment_image,
    build_affine,
    flip,
    sample_params,
)
from tumorkit.pgm import GrayImage8
from tumorkit.rng import Rng


def gray(pixels) -> GrayImage8:
    return GrayImage8(np.array(pixels, dtype=np.uint8))


class TestSampleParams:
    def test_ranges_and_coverage(self):
        rng = Rng(7)
        seen_shear = set()
        seen_hflip = set()
        seen_vflip = set()
        for _ in range(500):
            p = sample_params(100, 80, rng)
            assert 0.0 <= p.rotation_deg <= 15.0
            assert abs(p.dx_px) <= 10.0
            assert abs(p.dy_px) <= 8.0
            assert 0.5 <= p.brightness_factor <= 1.5
            assert p.shear_rad_applied in (0.0, 0.1)
            seen_shear.add(p.shear_rad_applied)
            seen_hflip.add(p.hflip)
            seen_vflip.add(p.vflip)
        assert seen_shear == {0.0, 0.1}
        assert seen_hflip == {False, True}
        assert seen_vflip == {False, True}

    def test_consumes_exactly_seven_draws(self):
        a = Rng(123)
        sample_params(64, 64, a)
        b = Rng(123)
        for _ in range(7):
            b.random()
        assert a.random() == b.random()

    def test_deterministic_from_seed(self):
        p1 = sample_params(64, 48, Rng(99))
        p2 = sample_params(64, 48, Rng(99))
        assert p1 == p2


class TestBuildAffine:
    def test_identity_params_give_identity_matrix(self):
        m = build_affine(0.0, 0.0, 0.0, 0.0, center=(3.5, 3.5))
        assert m.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

    def test_pure_translation_inverts_the_shift(self):
        m = build_affine(0.0, 0.0, 3.0, -2.0, center=(10.0, 10.0))
        assert m.tolist() == [[1.0, 0.0, -3.0], [0.0, 1.0, 2.0]]

    def test_quarter_turn_is_clockwise_on_screen(self):
        img = gray(np.arange(9).reshape(3, 3))
        m = build_affine(90.0, 0.0, 0.0, 0.0, center=(1.0, 1.0))
        out = apply_affine(img, m)
        assert np.array_equal(out.pixels, np.rot90(img.pixels, k=-1))

    def test_rotation_preserves_center_pixel(self):
        img = gray(np.arange(25).reshape(5, 5))
        for deg in (10.0, 45.0, 133.0):
            m = build_affine(deg, 0.0, 0.0, 0.0, center=(2.0, 2.0))
            assert apply_affine(img, m).pixels[2, 2] == img.pixels[2, 2]


class TestApplyAffine:
    def test_matches_loop_oracle(self):
        g = np.random.default_rng(61)
        for _ in range(15):
            h = int(g.integers(3, 12))
            w = int(g.integers(3, 12))
            px = g.integers(0, 256, size=(h, w), dtype=np.uint8)
            m = np.array(
                [
                    [1 + g.uniform(-0.3, 0.3), g.uniform(-0.3, 0.3), g.uniform(-3, 3)],
                    [g.uniform(-0.3, 0.3), 1 + g.uniform(-0.3, 0.3), g.uniform(-3, 3)],
                ]
            )
            got = apply_affine(GrayImage8(px), m).pixels
            assert np.array_equal(got, loop_affine_nearest(px, m))

    def test_border_replication(self):
        img = gray([[1, 2, 3], [4, 5, 6]])
        # inverse matrix shifts sampling far left: every column reads column 0
        m = np.array([[1.0, 0.0, -10.0], [0.0, 1.0, 0.0]])
        out = apply_affine(img, m)
        assert out.pixels.tolist() == [[1, 1, 1], [4, 4, 4]]

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            apply_affine(gray([[1]]), np.eye(3))


class TestBrightness:
    def test_scale_and_round_half_up(self):
        img = gray([[5, 10, 255]])
        out = adjust_brightness(img, 0.5)
        assert out.pixels.tolist() == [[3, 5, 128]]  # 2.5 and 127.5 round up

    def test_clamps_at_255(self):
        out = adjust_brightness(gray([[200]]), 1.5)
        assert out.pixels.tolist() == [[255]]

    def test_factor_one_is_identity(self):
        px = np.arange(12, dtype=np.uint8).reshape(3, 4)
        assert np.array_equal(adjust_brightness(GrayImage8(px), 1.0).pixels, px)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            adjust_brightness(gray([[1]]), 0.0)


class TestFlip:
    def test_matches_numpy(self):
        px = np.arange(12, dtype=np.uint8).reshape(3, 4)
        assert np.array_equal(flip(GrayImage8(px), "horizontal").pixels, px[:, ::-1])
        assert np.array_equal(flip(GrayImage8(px), "vertical").pixels, px[::-1, :])

    def test_double_flip_is_identity(self):
        px = np.arange(20, dtype=np.uint8).reshape(4, 5)
        for axis in ("horizontal", "vertical"):
            twice = flip(flip(GrayImage8(px), axis), axis)
            assert np.array_equal(twice.pixels, px)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            flip(gray([[1]]), "diagonal")


class TestAugmentImage:
    def test_identity_params_copy_the_image(self):
        g = np.random.default_rng(71)
        px = g.integers(0, 256, size=(16, 16), dtype=np.uint8)
        out = augment_image(GrayImage8(px), AugmentParams())
        assert np.array_equal(out.pixels, px)

    def test_order_is_affine_then_brightness_then_flips(self):
        g = np.random.default_rng(72)
        px = g.integers(0, 256, size=(20, 20), dtype=np.uint8)
        img = GrayImage8(px)
        p = AugmentParams(
            rotation_deg=12.0,
            dx_px=1.5,
            dy_px=-2.0,
            brightness_factor=1.3,
            shear_rad_applied=0.1,
            hflip=True,
            vflip=True,
        )
        center = ((img.width - 1) / 2.0, (img.height - 1) / 2.0)
        m = build_affine(p.rotation_deg, p.shear_rad_applied, p.dx_px, p.dy_px, center)
        want = apply_affine(img, m)
        want = adjust_brightness(want, p.brightness_factor)
        want = flip(flip(want, "horizontal"), "vertical")
        got = augment_image(img, p)
        assert np.array_equal(got.pixels, want.pixels)

    def test_deterministic_with_same_params(self):
        g = np.random.default_rng(73)
        px = g.integers(0, 256, size=(12, 12), dtype=np.uint8)
        p = sample_params(12, 12, Rng(17))
        a = augment_image(GrayImage8(px), p)
        b = augment_image(GrayImage8(px), p)
        assert np.array_equal(a.pixels, b.pixels)

    def test_output_shape_matches_input(self):
        rng = Rng(1)
        img = gray(np.full((9, 13), 80))
        p = sample_params(13, 9, rng)
        out = augment_image(img, p)
        assert (out.height, out.width) == (9, 13)
