"""FAST-9/16 corner detection.

:func:`detect_fast_vectorized` is a data-parallel numpy formulation
whose cost follows its candidates, not its pixels.  A compass pre-test
over whole-image views (ring pixels 0, 4, 8 and 12 against centre ± t —
an arc of 9 always covers two neighbouring compass points) keeps about
one pixel in ten; at those, one ``(16, n)`` gather of the ring feeds the
two ``uint16`` ring masks, the arc test (one lookup in a 65 536-entry
table) and the score; non-maximum suppression reads a zero-padded score
map at the corners only.  The result is an ``(n, 3)`` float64 array of
``u, v, response`` rows in raster order.  This is the "GPU kernel" of
§4.2.1: every pixel's segment test is independent, which is exactly the
parallelism SLAM-Share exploits on the GPU.

The per-pixel loop it replaced (the "CPU sequential" path of the
paper's Fig. 5) is the oracle in ``tests/oracles.py``; both return
identical rows in identical order, and tests assert this.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Ring indices of the four compass points: north, east, south, west.
_COMPASS = (0, 4, 8, 12)
_RING_BITS = (1 << np.arange(16, dtype=np.uint16))[:, None]
# The 8 neighbours as (dy, dx): the four earlier in raster order, then the four later.
_NEIGHBOUR_STEPS = np.array([(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)])


def detect_fast_vectorized(
    pixels: np.ndarray, threshold: int = 20, nonmax: bool = True
) -> np.ndarray:
    """Data-parallel FAST-9 detector (the GPU-kernel formulation).

    Returns an ``(n, 3)`` float64 array of ``u, v, response`` rows in
    raster order.
    """
    pixels = np.asarray(pixels)
    h, w = pixels.shape
    if h <= 2 * BORDER or w <= 2 * BORDER:
        return np.zeros((0, 3))
    inner_h, inner_w = h - 2 * BORDER, w - 2 * BORDER
    center = pixels[BORDER : h - BORDER, BORDER : w - BORDER].astype(np.int16)
    upper, lower = center + threshold, center - threshold

    def compass(k: int) -> np.ndarray:
        dy, dx = CIRCLE_OFFSETS[k]
        return pixels[BORDER + dy : BORDER + dy + inner_h, BORDER + dx : BORDER + dx + inner_w]

    # Compass pre-test: an arc of 9 covers two neighbouring compass points.
    north, east, south, west = (compass(k) for k in _COMPASS)
    candidate = np.zeros((h, w), dtype=bool)
    inner = candidate[BORDER : h - BORDER, BORDER : w - BORDER]
    np.logical_and((north > upper) | (south > upper), (east > upper) | (west > upper), out=inner)
    inner |= ((north < lower) | (south < lower)) & ((east < lower) | (west < lower))
    at = np.flatnonzero(candidate)
    # Segment test at the candidates: one (16, n) gather of the ring.
    flat = pixels.reshape(-1)
    ring = flat.take(CIRCLE_OFFSETS[:, :1] * w + CIRCLE_OFFSETS[:, 1:] + at)
    centre = flat.take(at).astype(np.int16)
    brighter = (_RING_BITS * (ring > centre + threshold)).sum(axis=0, dtype=np.uint16)
    darker = (_RING_BITS * (ring < centre - threshold)).sum(axis=0, dtype=np.uint16)
    is_corner = _ARC_TABLE.take(brighter) | _ARC_TABLE.take(darker)
    # Score = sum |ring - centre|, from the same gather; a corner scores
    # > 0 unless the threshold is negative.
    spread = ring.astype(np.int16)
    spread -= centre
    scores = np.abs(spread, out=spread).sum(axis=0, dtype=np.int32).astype(np.float32)
    is_corner &= scores > 0
    return _suppress(at.compress(is_corner), scores.compress(is_corner), h, w, nonmax)


def _suppress(at: np.ndarray, scores: np.ndarray, h: int, w: int,
              nonmax: bool) -> np.ndarray:
    """3x3 non-maximum suppression over the positive scores at flat pixels ``at``.

    ``at`` is ascending; the neighbours are read from a 1-pixel
    zero-padded score map, so every pixel not in ``at`` counts as score
    0.  Ties survive against neighbours that precede the pixel in raster
    order and lose against the ones that follow it, exactly matching the
    shift-loop reference in ``tests/oracles.py``.  Returns the
    survivors' ``u, v, response`` rows, in raster order.
    """
    if nonmax:
        stride = w + 2
        padded = np.zeros((h + 2) * stride, dtype=scores.dtype)
        at_padded = at + 2 * (at // w) + (stride + 1)
        padded[at_padded] = scores
        neighbours = padded.take(_NEIGHBOUR_STEPS[:, :1] * stride + _NEIGHBOUR_STEPS[:, 1:]
                                 + at_padded)
        keep = scores >= np.maximum.reduce(neighbours[:4])
        keep &= scores > np.maximum.reduce(neighbours[4:])
        at, scores = at.compress(keep), scores.compress(keep)
    rows = np.empty((3, len(at)))
    rows[1], rows[0] = np.divmod(at, w)
    rows[2] = scores
    return rows.T


def _collect_keypoints(scores: np.ndarray, nonmax: bool) -> np.ndarray:
    """:func:`_suppress` over a dense ``(h, w)`` score map (the scalar oracle's entry)."""
    h, w = scores.shape
    at = np.flatnonzero(scores > 0)
    return _suppress(at, scores.reshape(-1)[at], h, w, nonmax)
