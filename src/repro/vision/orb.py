"""ORB feature extraction: pyramid FAST + oriented BRIEF + grid culling.

The extractor mirrors ORB-SLAM3's frontend: detect FAST corners on every
pyramid level, keep responses spatially spread with a grid-based cull,
compute the intensity-centroid orientation and a steered BRIEF
descriptor for every survivor, and report everything in level-0 pixel
coordinates.

FAST runs as the data-parallel formulation of §4.2.1
(:func:`~repro.vision.fast.detect_fast_vectorized`), whose ``u, v,
response`` columns feed the grid cull and rBRIEF directly.  The
survivors leave as the columns of one :class:`FeatureSet` (``uv``,
``descriptors``, ``response``, ``level``, ``angle``), the same batch the
feature oracle returns and a ``Frame`` holds; no ``Keypoint`` is built
per frame.  The per-keypoint extractor loop it must reproduce bit for
bit, over either FAST, is ``tests/oracles.py::extract``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import brief
from .fast import detect_fast_vectorized
from .image import Image, ImagePyramid


#: Each column's dtype, row shape and fill when the producer leaves it out
#: (level and angle fill as a ``Keypoint``'s defaults do).
_COLUMNS = (
    ("uv", np.float64, (2,), None),
    ("descriptors", np.uint8, (brief.DESCRIPTOR_BYTES,), None),
    ("depths", np.float64, (), -1.0),
    ("landmark_ids", np.int64, (), -1),
    ("response", np.float64, (), 0.0),
    ("level", np.int64, (), 0),
    ("angle", np.float64, (), 0.0),
)


@dataclass(eq=False)
class FeatureSet:
    """One frame's features as parallel columns, in level-0 pixel coordinates.

    The one feature batch from sensor to tracker: :meth:`OrbExtractor.extract`
    and :meth:`repro.vision.FeatureOracle.observe` both return it, and a
    :class:`repro.slam.Frame` holds it as is.  A producer leaves out the
    columns it cannot measure; they fill with their "unknown" value.
    """

    uv: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    descriptors: np.ndarray = field(
        default_factory=lambda: np.zeros((0, brief.DESCRIPTOR_BYTES), dtype=np.uint8)
    )
    depths: Optional[np.ndarray] = None        # metric depth; <= 0 when unknown
    landmark_ids: Optional[np.ndarray] = None  # ground truth; -1 when unknown
    response: Optional[np.ndarray] = None      # FAST score
    level: Optional[np.ndarray] = None         # pyramid level
    angle: Optional[np.ndarray] = None         # orientation, radians

    def __post_init__(self) -> None:
        n = len(self.uv)
        for name, dtype, row, fill in _COLUMNS:
            value = getattr(self, name)
            column = np.full(n, fill, dtype) if value is None else np.asarray(value, dtype)
            if column.shape != (n, *row):
                raise ValueError(f"{name} must have shape {(n, *row)}, got {column.shape}")
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.uv)


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
        return FeatureSet(rows[:2].T.copy(), descriptors,
                          response=rows[2], level=rows[3], angle=rows[4])
