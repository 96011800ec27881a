"""Grayscale image container and scale pyramid.

ORB feature extraction runs on an image pyramid so features are matched
across scale changes; the pyramid layout (scale factor 1.2, 8 levels)
mirrors ORB-SLAM3's defaults.  :func:`downsample` blends every source
row once along x and then picks rows ``y0`` / ``y1`` for the y blend;
each output pixel is the same expression as the four-gather bilinear
body in ``tests/oracles.py`` (``downsample_reference``), so the bytes
are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

DEFAULT_SCALE_FACTOR = 1.2
DEFAULT_N_LEVELS = 8


@dataclass
class Image:
    """A single-channel uint8 image with a timestamp."""

    pixels: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels)
        if pixels.ndim != 2:
            raise ValueError(f"expected a 2-D grayscale array, got shape {pixels.shape}")
        if pixels.dtype != np.uint8:
            pixels = np.clip(pixels, 0, 255).astype(np.uint8)
        self.pixels = pixels

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def shape(self) -> tuple:
        return self.pixels.shape

    def nbytes(self) -> int:
        return int(self.pixels.nbytes)


def downsample(pixels: np.ndarray, scale: float) -> np.ndarray:
    """Resize an image by ``1/scale`` using bilinear interpolation."""
    if scale <= 1.0:
        return pixels.copy()
    h, w = pixels.shape
    new_h = max(int(round(h / scale)), 8)
    new_w = max(int(round(w / scale)), 8)
    # Bilinear sample at the centers of the destination grid.
    ys = (np.arange(new_h) + 0.5) * (h / new_h) - 0.5
    xs = (np.arange(new_w) + 0.5) * (w / new_w) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    # Blend every source row once along x, then pick rows y0 / y1.
    img = pixels.astype(np.float32)
    rows = img[:, x0] * (1 - wx) + img[:, x1] * wx
    out = rows[y0] * (1 - wy) + rows[y1] * wy
    return np.clip(out, 0, 255).astype(np.uint8)


class ImagePyramid:
    """A list of progressively downscaled copies of one image."""

    def __init__(
        self,
        image: Image,
        n_levels: int = DEFAULT_N_LEVELS,
        scale_factor: float = DEFAULT_SCALE_FACTOR,
    ) -> None:
        if n_levels < 1:
            raise ValueError("pyramid needs at least one level")
        if scale_factor <= 1.0:
            raise ValueError("scale factor must exceed 1")
        self.scale_factor = float(scale_factor)
        self.levels: List[np.ndarray] = []
        self.scales: List[float] = []
        for level in range(n_levels):
            scale = scale_factor ** level
            self.scales.append(scale)
            self.levels.append(downsample(image.pixels, scale))
            # Stop early once the image is too small to host a FAST ring.
            if min(self.levels[-1].shape) <= 16 and level + 1 < n_levels:
                break

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level_scale(self, level: int) -> float:
        return self.scales[level]

    def to_base_coords(self, uv: np.ndarray, level: int) -> np.ndarray:
        """Map level-``level`` pixel coordinates back to level-0 pixels."""
        return np.asarray(uv, dtype=float) * self.scales[level]
