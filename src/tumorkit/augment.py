"""Seeded training-time augmentation on 8-bit images.

Recipe: random clockwise rotation up to 15 degrees, shifts up to 10% of
each dimension, brightness scaling between 50% darker and 50% brighter,
a fixed 0.1 rad shear applied half the time, and fair-coin horizontal and
vertical flips.  Everything runs on 8-bit images before z-score
normalization so brightness clamping has well-defined semantics.

Geometry conventions (x = column, y = row, y grows downward):

* rotation is about the pixel-center of the image, positive = clockwise
  on screen;
* shear skews x by ``tan(angle) * (y - cy)``, positive = counter-clockwise;
* the affine matrix produced by :func:`build_affine` maps *output*
  coordinates to *input* coordinates (inverse warp);
* warps sample nearest-neighbor, rounding half up, and replicate the
  nearest border pixel for out-of-bounds coordinates.

:func:`sample_params` always consumes exactly seven uniform draws per
call (rotation, dx, dy, brightness, shear coin, hflip coin, vflip coin),
in that order, so parameter streams are reproducible from a seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig
from .pgm import GrayImage8
from .rng import Rng


@dataclass(frozen=True)
class AugmentConfig:
    """Bounds for one augmentation sample; defaults follow the recipe above."""

    max_rotation_deg: float = 15.0
    shift_fraction: float = 0.10
    brightness_lo: float = 0.5
    brightness_hi: float = 1.5
    shear_rad: float = 0.1
    allow_hflip: bool = True
    allow_vflip: bool = True
    symmetric_rotation: bool = False  # sample [-max, +max] instead of [0, max]

    def __post_init__(self):
        for name in ("max_rotation_deg", "shift_fraction", "brightness_lo", "brightness_hi",
                     "shear_rad"):
            if not math.isfinite(getattr(self, name)):
                raise BadConfig(f"{name} must be finite, got {getattr(self, name)}")
        if self.max_rotation_deg < 0:
            raise BadConfig(f"max_rotation_deg must be >= 0, got {self.max_rotation_deg}")
        if not 0 <= self.shift_fraction < 1:
            raise BadConfig(f"shift_fraction must be in [0, 1), got {self.shift_fraction}")
        if not 0 < self.brightness_lo <= self.brightness_hi:
            raise BadConfig(
                f"need 0 < brightness_lo <= brightness_hi, got {self.brightness_lo}"
                f" and {self.brightness_hi}"
            )
        if self.shear_rad < 0:
            raise BadConfig(f"shear_rad must be >= 0, got {self.shear_rad}")


@dataclass(frozen=True)
class AugmentParams:
    """One concrete augmentation sample."""

    rotation_deg: float = 0.0
    dx_px: float = 0.0
    dy_px: float = 0.0
    brightness_factor: float = 1.0
    shear_rad_applied: float = 0.0
    hflip: bool = False
    vflip: bool = False


def build_affine(
    rotation_deg: float,
    shear_rad: float,
    dx_px: float,
    dy_px: float,
    center: tuple[float, float],
) -> np.ndarray:
    """Inverse-warp 2x3 matrix for rotation, then shear, then translation.

    The forward transform rotates about ``center`` (positive = clockwise),
    shears about the same center (positive = counter-clockwise), then
    translates by ``(dx_px, dy_px)``.  The returned matrix is its inverse,
    acting on (x, y, 1) output coordinates.
    """
    theta = math.radians(rotation_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    # inverse rotation (by -theta) and inverse shear
    rot_inv = np.array([[cos_t, sin_t], [-sin_t, cos_t]], dtype=np.float64)
    shear_inv = np.array([[1.0, -math.tan(shear_rad)], [0.0, 1.0]], dtype=np.float64)
    lin = rot_inv @ shear_inv

    cx, cy = center
    c = np.array([cx, cy], dtype=np.float64)
    t = np.array([dx_px, dy_px], dtype=np.float64)
    offset = c - lin @ (c + t)
    return np.hstack([lin, offset[:, None]])


def apply_affine(img: GrayImage8, m: np.ndarray) -> GrayImage8:
    """Warp with nearest-neighbor sampling and replicate border fill."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (2, 3):
        raise ValueError(f"expected a 2x3 matrix, got {m.shape}")
    h, w = img.pixels.shape
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    src_x = m[0, 0] * xs[None, :] + m[0, 1] * ys[:, None] + m[0, 2]
    src_y = m[1, 0] * xs[None, :] + m[1, 1] * ys[:, None] + m[1, 2]
    ix = np.clip(np.floor(src_x + 0.5), 0, w - 1).astype(np.intp)
    iy = np.clip(np.floor(src_y + 0.5), 0, h - 1).astype(np.intp)
    return GrayImage8(img.pixels[iy, ix])


def adjust_brightness(img: GrayImage8, factor: float) -> GrayImage8:
    """Scale intensities by ``factor``, round half up, clamp to [0, 255]."""
    if factor <= 0:
        raise ValueError("brightness factor must be positive")
    scaled = np.floor(img.pixels.astype(np.float64) * factor + 0.5)
    return GrayImage8(np.clip(scaled, 0, 255).astype(np.uint8))


def flip(img: GrayImage8, axis: str) -> GrayImage8:
    """Reverse columns ("horizontal") or rows ("vertical")."""
    if axis == "horizontal":
        return GrayImage8(img.pixels[:, ::-1].copy())
    if axis == "vertical":
        return GrayImage8(img.pixels[::-1, :].copy())
    raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")


def sample_params(cfg: AugmentConfig, width: int, height: int, rng: Rng) -> AugmentParams:
    """Draw one parameter set; always consumes exactly 7 uniform draws."""
    u_rot = rng.random()
    u_dx = rng.random()
    u_dy = rng.random()
    u_bright = rng.random()
    u_shear = rng.random()
    u_hflip = rng.random()
    u_vflip = rng.random()

    if cfg.symmetric_rotation:
        rotation = (2.0 * u_rot - 1.0) * cfg.max_rotation_deg
    else:
        rotation = u_rot * cfg.max_rotation_deg
    return AugmentParams(
        rotation_deg=rotation,
        dx_px=(2.0 * u_dx - 1.0) * cfg.shift_fraction * width,
        dy_px=(2.0 * u_dy - 1.0) * cfg.shift_fraction * height,
        brightness_factor=cfg.brightness_lo + u_bright * (cfg.brightness_hi - cfg.brightness_lo),
        shear_rad_applied=cfg.shear_rad if u_shear < 0.5 else 0.0,
        hflip=cfg.allow_hflip and u_hflip < 0.5,
        vflip=cfg.allow_vflip and u_vflip < 0.5,
    )


def augment_image(img: GrayImage8, p: AugmentParams) -> GrayImage8:
    """Apply affine (rotation, shear, shift), then brightness, then flips."""
    center = ((img.width - 1) / 2.0, (img.height - 1) / 2.0)
    m = build_affine(p.rotation_deg, p.shear_rad_applied, p.dx_px, p.dy_px, center)
    out = apply_affine(img, m)
    out = adjust_brightness(out, p.brightness_factor)
    if p.hflip:
        out = flip(out, "horizontal")
    if p.vflip:
        out = flip(out, "vertical")
    return out
