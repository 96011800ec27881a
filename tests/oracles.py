"""Reference implementations kept out of ``src/`` as test oracles.

Each body here is frozen from the commit before the batch front end
(PR 17): the per-keypoint rBRIEF, the dict-of-lists grid cull, the
per-keypoint ``extract`` loop and the shift-loop NMS.  The kernels in
``repro.vision`` must reproduce them bit for bit; nothing in ``src/``
imports this module.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.vision.brief import DESCRIPTOR_BYTES, PATCH_RADIUS, sampling_pattern
from repro.vision.fast import Keypoint, detect_fast_vectorized
from repro.vision.image import Image, ImagePyramid
from repro.vision.orb import FeatureSet, OrbExtractorConfig

_PATTERN = sampling_pattern()


# ------------------------------------------------------------------ rBRIEF
def intensity_centroid_angle(pixels: np.ndarray, u: float, v: float,
                             radius: int = 7) -> float:
    """Orientation of the patch by the intensity-centroid method (radians)."""
    h, w = pixels.shape
    ui, vi = int(round(u)), int(round(v))
    y0, y1 = max(vi - radius, 0), min(vi + radius + 1, h)
    x0, x1 = max(ui - radius, 0), min(ui + radius + 1, w)
    patch = pixels[y0:y1, x0:x1].astype(np.float64)
    ys = np.arange(y0, y1)[:, None] - vi
    xs = np.arange(x0, x1)[None, :] - ui
    m01 = float((patch * ys).sum())
    m10 = float((patch * xs).sum())
    return float(np.arctan2(m01, m10))


def compute_descriptor(
    pixels: np.ndarray, keypoint: Keypoint, angle: Optional[float] = None
) -> Optional[np.ndarray]:
    """Compute one packed rBRIEF descriptor, or None near the border."""
    h, w = pixels.shape
    u, v = keypoint.u, keypoint.v
    margin = PATCH_RADIUS + 2
    if not (margin <= u < w - margin and margin <= v < h - margin):
        return None
    if angle is None:
        angle = intensity_centroid_angle(pixels, u, v)
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    # Rotate the whole test pattern by the patch orientation.
    y1 = _PATTERN[:, 0] * cos_a + _PATTERN[:, 1] * sin_a
    x1 = -_PATTERN[:, 0] * sin_a + _PATTERN[:, 1] * cos_a
    y2 = _PATTERN[:, 2] * cos_a + _PATTERN[:, 3] * sin_a
    x2 = -_PATTERN[:, 2] * sin_a + _PATTERN[:, 3] * cos_a
    p1 = pixels[
        np.clip(np.round(v + y1).astype(int), 0, h - 1),
        np.clip(np.round(u + x1).astype(int), 0, w - 1),
    ]
    p2 = pixels[
        np.clip(np.round(v + y2).astype(int), 0, h - 1),
        np.clip(np.round(u + x2).astype(int), 0, w - 1),
    ]
    bits = (p1 < p2).astype(np.uint8)
    return np.packbits(bits)


# --------------------------------------------------------------- extractor
def grid_cull(config: OrbExtractorConfig, keypoints: List[Keypoint],
              width: int, height: int, budget: int) -> List[Keypoint]:
    """Keep the strongest corners per grid cell for spatial spread."""
    cfg = config
    if not keypoints or budget <= 0:
        return []
    per_cell_budget = max(budget // (cfg.grid_cols * cfg.grid_rows), 1)
    cells = {}
    for kp in keypoints:
        col = min(int(kp.u * cfg.grid_cols / width), cfg.grid_cols - 1)
        row = min(int(kp.v * cfg.grid_rows / height), cfg.grid_rows - 1)
        cells.setdefault((row, col), []).append(kp)
    kept: List[Keypoint] = []
    leftovers: List[Keypoint] = []
    for cell_kps in cells.values():
        cell_kps.sort(key=lambda k: -k.response)
        kept.extend(cell_kps[:per_cell_budget])
        leftovers.extend(cell_kps[per_cell_budget:])
    if len(kept) < budget:
        leftovers.sort(key=lambda k: -k.response)
        kept.extend(leftovers[: budget - len(kept)])
    kept.sort(key=lambda k: -k.response)
    return kept[:budget]


def extract(image: Image, config: Optional[OrbExtractorConfig] = None,
            detect=detect_fast_vectorized) -> FeatureSet:
    """The per-keypoint extractor loop; ``detect`` is the FAST tier."""
    cfg = config or OrbExtractorConfig()
    pyramid = ImagePyramid(image, cfg.n_levels, cfg.scale_factor)
    all_kps: List[Keypoint] = []
    descriptors: List[np.ndarray] = []
    # Distribute the feature budget across levels proportionally to area.
    areas = np.array([lvl.size for lvl in pyramid.levels], dtype=float)
    budgets = np.maximum((cfg.n_features * areas / areas.sum()).astype(int), 1)
    for level, pixels in enumerate(pyramid.levels):
        kps = detect(pixels, cfg.fast_threshold)
        if not kps:
            kps = detect(pixels, cfg.min_fast_threshold)
        kps = grid_cull(cfg, kps, pixels.shape[1], pixels.shape[0],
                        int(budgets[level]))
        for kp in kps:
            angle = intensity_centroid_angle(pixels, kp.u, kp.v)
            descriptor = compute_descriptor(pixels, kp, angle)
            if descriptor is None:
                continue
            scale = pyramid.level_scale(level)
            all_kps.append(
                Keypoint(
                    u=kp.u * scale,
                    v=kp.v * scale,
                    response=kp.response,
                    level=level,
                    angle=angle,
                )
            )
            descriptors.append(descriptor)
    if len(all_kps) > cfg.n_features:
        order = np.argsort([-kp.response for kp in all_kps])[: cfg.n_features]
        all_kps = [all_kps[i] for i in order]
        descriptors = [descriptors[i] for i in order]
    if not descriptors:
        return FeatureSet(all_kps,
                          np.zeros((0, DESCRIPTOR_BYTES), dtype=np.uint8))
    return FeatureSet(all_kps, np.stack(descriptors).astype(np.uint8))


# --------------------------------------------------------------------- NMS
def _collect_keypoints_reference(scores: np.ndarray, nonmax: bool) -> List[Keypoint]:
    """Original shift-loop NMS, kept as the equivalence reference."""
    if nonmax:
        keep = scores > 0
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                shifted = np.zeros_like(scores)
                ys = slice(max(dy, 0), scores.shape[0] + min(dy, 0))
                xs = slice(max(dx, 0), scores.shape[1] + min(dx, 0))
                ys_src = slice(max(-dy, 0), scores.shape[0] + min(-dy, 0))
                xs_src = slice(max(-dx, 0), scores.shape[1] + min(-dx, 0))
                shifted[ys, xs] = scores[ys_src, xs_src]
                # Strictly-greater on one side breaks ties deterministically.
                if _tie_break(dy, dx):
                    keep &= scores >= shifted
                else:
                    keep &= scores > shifted
        vs, us = np.nonzero(keep)
    else:
        vs, us = np.nonzero(scores > 0)
    return [
        Keypoint(u=float(u), v=float(v), response=float(scores[v, u]))
        for v, u in zip(vs, us)
    ]


def _tie_break(dy: int, dx: int) -> bool:
    """Whether a tie against the neighbour shifted by ``(dy, dx)`` is kept.

    The shifted map holds the neighbour at ``(v - dy, u - dx)``; ties
    are kept exactly when that neighbour precedes the pixel in raster
    order, so one pixel of every tied plateau survives deterministically.
    """
    return dy > 0 or (dy == 0 and dx > 0)
