"""ORB feature extraction: pyramid FAST + oriented BRIEF + grid culling.

The extractor mirrors ORB-SLAM3's frontend: detect FAST corners on every
pyramid level, keep responses spatially spread with a grid-based cull,
compute the intensity-centroid orientation and a steered BRIEF
descriptor for every survivor, and report everything in level-0 pixel
coordinates.

FAST runs as the data-parallel formulation of §4.2.1
(:func:`~repro.vision.fast.detect_fast_vectorized`), whose ``u, v,
response`` columns feed the grid cull and rBRIEF directly; the only
``Keypoint`` objects built are the ones :class:`FeatureSet` hands out.
The per-keypoint extractor loop it must reproduce bit for bit, over
either FAST, is ``tests/oracles.py::extract``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import brief
from .fast import Keypoint, detect_fast_vectorized
from .image import Image, ImagePyramid


@dataclass
class FeatureSet:
    """Extracted features of one frame, in level-0 pixel coordinates."""

    keypoints: List[Keypoint] = field(default_factory=list)
    descriptors: np.ndarray = field(
        default_factory=lambda: np.zeros((0, brief.DESCRIPTOR_BYTES), dtype=np.uint8)
    )

    #: ``(n, 2)`` positions, when the producer already holds them as an array.
    positions: Optional[np.ndarray] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.keypoints)

    @property
    def uv(self) -> np.ndarray:
        if self.positions is not None:
            return self.positions
        if not self.keypoints:
            return np.zeros((0, 2))
        return np.array([[kp.u, kp.v] for kp in self.keypoints])


@dataclass
class OrbExtractorConfig:
    n_features: int = 500
    n_levels: int = 4
    scale_factor: float = 1.2
    fast_threshold: int = 20
    min_fast_threshold: int = 7
    grid_cols: int = 16
    grid_rows: int = 12


class OrbExtractor:
    """Pyramid ORB extractor."""

    def __init__(self, config: Optional[OrbExtractorConfig] = None) -> None:
        self.config = config or OrbExtractorConfig()

    def _grid_cull(self, u: np.ndarray, v: np.ndarray, response: np.ndarray,
                   width: int, height: int, budget: int) -> np.ndarray:
        """Indices of the strongest corners per grid cell, for spatial spread.

        Responses are small integers, so ties are everywhere and the order
        is part of the result: every sort is stable, cells rank by first
        appearance, leftovers fill the budget strongest first.
        """
        cfg = self.config
        if len(u) == 0 or budget <= 0:
            return np.zeros(0, dtype=np.intp)
        per_cell_budget = max(budget // (cfg.grid_cols * cfg.grid_rows), 1)
        col = np.minimum((u * cfg.grid_cols / width).astype(np.intp), cfg.grid_cols - 1)
        row = np.minimum((v * cfg.grid_rows / height).astype(np.intp), cfg.grid_rows - 1)
        _, first, cell, counts = np.unique(
            row * cfg.grid_cols + col, return_index=True, return_inverse=True, return_counts=True
        )
        by_cell = np.lexsort((-response, first[cell]))
        counts = counts[np.argsort(first)]
        rank_in_cell = np.arange(len(u)) - np.repeat(np.cumsum(counts) - counts, counts)
        top = rank_in_cell < per_cell_budget
        kept, leftovers = by_cell[top], by_cell[~top]
        if len(kept) < budget:
            strongest = np.argsort(-response[leftovers], kind="stable")
            kept = np.concatenate([kept, leftovers[strongest[: budget - len(kept)]]])
        return kept[np.argsort(-response[kept], kind="stable")][:budget]

    def extract(self, image: Image) -> FeatureSet:
        """Detect and describe up to ``n_features`` ORB features."""
        cfg = self.config
        pyramid = ImagePyramid(image, cfg.n_levels, cfg.scale_factor)
        # Distribute the feature budget across levels proportionally to area.
        areas = np.array([lvl.size for lvl in pyramid.levels], dtype=float)
        budgets = np.maximum((cfg.n_features * areas / areas.sum()).astype(int), 1)
        blocks = []  # per level: u, v, response, level, angle rows
        descriptors = []
        for level, pixels in enumerate(pyramid.levels):
            corners = detect_fast_vectorized(pixels, cfg.fast_threshold)
            if not len(corners):
                # Retry with a permissive threshold in low-texture frames,
                # matching ORB-SLAM3's two-threshold strategy.
                corners = detect_fast_vectorized(pixels, cfg.min_fast_threshold)
            u, v, response = corners.T
            kept = self._grid_cull(u, v, response, *pixels.shape[::-1], int(budgets[level]))
            inside, angles, described = brief.describe(pixels, u[kept], v[kept])
            kept = kept[inside]
            scale = pyramid.level_scale(level)
            u, v, levels = u[kept] * scale, v[kept] * scale, np.full(len(kept), float(level))
            blocks.append(np.stack([u, v, response[kept], levels, angles]))
            descriptors.append(described)
        rows, descriptors = np.concatenate(blocks, axis=1), np.concatenate(descriptors)
        if rows.shape[1] > cfg.n_features:
            order = np.argsort(-rows[2])[: cfg.n_features]
            rows, descriptors = rows[:, order], descriptors[order]
        u, v, response, level, angle = rows.tolist()
        keypoints = list(map(Keypoint, u, v, response, map(int, level), angle))
        return FeatureSet(keypoints, descriptors, rows[:2].T.copy())
