"""FAST-9/16 corner detection.

:func:`detect_fast_vectorized` is a fully data-parallel numpy
formulation: 16 whole-image shifted views compared against centre ± t
and OR-ed into two ``uint16`` ring masks, the arc test one lookup in a
65 536-entry table, the score gathered at corner pixels only.  This is
the "GPU kernel" of §4.2.1: every pixel's segment test is independent,
which is exactly the parallelism SLAM-Share exploits on the GPU.

The per-pixel loop it replaced (the "CPU sequential" path of the
paper's Fig. 5) is the oracle in ``tests/oracles.py``; both return
identical keypoints in identical order, and tests assert this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

# Bresenham circle of radius 3: 16 (dy, dx) offsets in ring order.
CIRCLE_OFFSETS = np.array(
    [
        (-3, 0), (-3, 1), (-2, 2), (-1, 3),
        (0, 3), (1, 3), (2, 2), (3, 1),
        (3, 0), (3, -1), (2, -2), (1, -3),
        (0, -3), (-1, -3), (-2, -2), (-3, -1),
    ]
)

ARC_LENGTH = 9  # FAST-9: nine contiguous ring pixels
BORDER = 3


@dataclass
class Keypoint:
    """A detected corner: level-0 pixel position, response and scale level."""

    u: float
    v: float
    response: float
    level: int = 0
    angle: float = 0.0


def _build_arc_table() -> np.ndarray:
    """``table[m]``: has ring mask ``m`` (bit ``k`` = ring pixel ``k``) an arc of 9?

    Rotate-and-AND doubling: bit ``k`` of ``run`` ends up saying bits
    ``k .. k+7`` are all set; the mask rotated by 8 supplies the ninth.
    """
    masks = np.arange(1 << 16, dtype=np.uint32)

    def rotated(m: np.ndarray, by: int) -> np.ndarray:
        return ((m >> by) | (m << (16 - by))) & 0xFFFF

    run = masks
    for by in (1, 2, 4):
        run = run & rotated(run, by)
    return (run & rotated(masks, ARC_LENGTH - 1)) != 0


_ARC_TABLE = _build_arc_table()


def detect_fast_vectorized(
    pixels: np.ndarray, threshold: int = 20, nonmax: bool = True
) -> List[Keypoint]:
    """Data-parallel FAST-9 detector (the GPU-kernel formulation)."""
    pixels = np.asarray(pixels)
    h, w = pixels.shape
    if h <= 2 * BORDER or w <= 2 * BORDER:
        return []
    inner_h, inner_w = h - 2 * BORDER, w - 2 * BORDER
    center = pixels[BORDER : h - BORDER, BORDER : w - BORDER].astype(np.int16)
    upper, lower = center + threshold, center - threshold
    brighter = np.zeros((inner_h, inner_w), dtype=np.uint16)
    darker = np.zeros((inner_h, inner_w), dtype=np.uint16)
    for k, (dy, dx) in enumerate(CIRCLE_OFFSETS):
        ring = pixels[BORDER + dy : BORDER + dy + inner_h, BORDER + dx : BORDER + dx + inner_w]
        bit = np.uint16(1 << k)
        brighter |= (ring > upper) * bit
        darker |= (ring < lower) * bit
    corner = np.zeros((h, w), dtype=bool)
    corner[BORDER : h - BORDER, BORDER : w - BORDER] = _ARC_TABLE.take(brighter)
    corner[BORDER : h - BORDER, BORDER : w - BORDER] |= _ARC_TABLE.take(darker)
    # Score = sum |ring - centre|, gathered at the corner pixels only.
    at = np.flatnonzero(corner)
    flat = pixels.reshape(-1)
    ring_at = flat.take(at[:, None] + (CIRCLE_OFFSETS[:, 0] * w + CIRCLE_OFFSETS[:, 1]))
    spread = ring_at.astype(np.int16) - flat.take(at).astype(np.int16)[:, None]
    scores = np.zeros(h * w, dtype=np.float32)
    scores[at] = np.abs(spread).sum(axis=1)
    return _collect_keypoints(scores.reshape(h, w), nonmax)


def _collect_keypoints(scores: np.ndarray, nonmax: bool) -> List[Keypoint]:
    """Apply 3x3 non-maximum suppression and build keypoint objects.

    Single-pass formulation: one zero-padded copy of the score map, and
    the eight neighbour comparisons reduce over *views* of it — no
    per-shift array allocation.  Ties survive against neighbours that
    precede the pixel in raster order and lose against the ones that
    follow it, exactly matching the shift-loop reference in
    ``tests/oracles.py`` (tests assert bit-for-bit identical keypoints).
    """
    if nonmax:
        h, w = scores.shape
        padded = np.zeros((h + 2, w + 2), dtype=scores.dtype)
        padded[1:-1, 1:-1] = scores

        def nbr(dy: int, dx: int) -> np.ndarray:
            return padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]

        # Max over raster-earlier neighbours (row above + left), then
        # over raster-later ones (right + row below), accumulated
        # in-place into a single scratch buffer.
        keep = scores > 0
        buf = np.empty_like(scores)
        np.maximum(nbr(-1, -1), nbr(-1, 0), out=buf)
        np.maximum(buf, nbr(-1, 1), out=buf)
        np.maximum(buf, nbr(0, -1), out=buf)
        keep &= scores >= buf
        np.maximum(nbr(0, 1), nbr(1, -1), out=buf)
        np.maximum(buf, nbr(1, 0), out=buf)
        np.maximum(buf, nbr(1, 1), out=buf)
        keep &= scores > buf
        vs, us = np.nonzero(keep)
    else:
        vs, us = np.nonzero(scores > 0)
    responses = scores[vs, us].astype(np.float64)
    us, vs = us.astype(np.float64).tolist(), vs.astype(np.float64).tolist()
    return list(map(Keypoint, us, vs, responses.tolist()))
