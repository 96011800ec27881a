"""Synthetic frame rendering and the feature oracle.

Real SLAM datasets (EuRoC, KITTI) provide camera images; we have none,
so two substitutes exercise the same code paths (see DESIGN.md §2):

* :func:`render_frame` draws every visible landmark as a deterministic
  high-contrast patch on a noisy background (all patches in one pass,
  a later landmark on top where two overlap).  The *real* FAST/ORB
  pipeline runs on these images — used by the vision tests and the
  kernel benchmarks.  A patch is a pure function of its landmark id, so
  :func:`landmark_patch` computes each once per process and hands out
  the same read-only array (81 bytes of pixels per landmark ever seen).
* :class:`FeatureOracle` skips photometric rendering and directly
  produces each frame's :class:`~repro.vision.orb.FeatureSet` (pixel +
  noise, packed descriptor with a few flipped bits, noisy stereo depth,
  and the landmark id as ground truth) — the batch the ORB extractor
  returns, so the SLAM pipeline consumes it exactly like extractor
  output; the large multi-client experiments use this frontend for
  speed and determinism.  Its generator calls, a fixed number of
  whole-array blocks per frame in a fixed order, are the seeded contract
  every session digest rests on (DESIGN.md §9, "Input side").  A
  landmark's descriptor comes from its :class:`DescriptorBank`, one per
  world, so two worlds that number their landmarks alike still look
  different.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from ..geometry import SE3
from . import brief
from .camera import PinholeCamera
from .image import Image
from .orb import FeatureSet

PATCH_SIZE = 9
#: The machine hall's descriptor-bank seed: landmark ``id`` of that world
#: has the descriptor drawn by ``default_rng(DESCRIPTOR_SEED + id)``.
DESCRIPTOR_SEED = 0xD5C


@functools.cache
def landmark_patch(landmark_id: int, size: int = PATCH_SIZE) -> np.ndarray:
    """Deterministic high-contrast patch for a landmark (read-only).

    The same landmark always renders the same pattern, so its appearance
    (and hence its BRIEF descriptor) is consistent across views — the
    property real-world corners have that makes them matchable.  The
    binary pattern is mildly band-limited (binomial blur), like any
    optically captured texture; without this, sub-candidate motion
    misalignments would make video residuals unrealistically large.
    """
    rng = np.random.default_rng(0xC0FFEE + int(landmark_id))
    pattern = rng.integers(0, 2, size=(size, size)).astype(np.float64) * 200 + 30
    # Separable [1, 2, 1] / 4 with zeros beyond the edge: down the rows,
    # then (transposed) along them.  Every term is a multiple of 1/16, so
    # the sums are exact in any order.
    for _ in range(2):
        blurred = pattern / 2
        blurred[1:] += pattern[:-1] / 4
        blurred[:-1] += pattern[1:] / 4
        pattern = blurred.T
    patch = np.clip(pattern, 0, 255).astype(np.uint8)
    patch.setflags(write=False)
    return patch


def _paste_patches(pixels: np.ndarray, ids: np.ndarray, y0: np.ndarray,
                   x0: np.ndarray) -> None:
    """Paste each id's patch at its top-left corner, in one pass.

    Where patches overlap the later one wins, as if pasted in order: each
    pixel takes the value of the last patch pixel that covers it (patch
    pixels are numbered patch by patch), so repeated writes agree.
    """
    offsets = np.arange(PATCH_SIZE)
    # Flat image index of every patch pixel, numbered patch by patch.
    flat = ((y0 * pixels.shape[1] + x0)[:, None]
            + (offsets[:, None] * pixels.shape[1] + offsets).ravel()).ravel()
    last = np.full(pixels.size, -1, dtype=np.int32)
    np.maximum.at(last, flat, np.arange(flat.size, dtype=np.int32))
    patches = np.concatenate([landmark_patch(i) for i in ids.astype(np.int64).tolist()])
    pixels.reshape(-1)[flat] = patches.reshape(-1)[last[flat]]


def render_frame(
    positions: np.ndarray,
    landmark_ids: np.ndarray,
    camera: PinholeCamera,
    pose_cw: SE3,
    background: int = 110,
    noise_sigma: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    timestamp: float = 0.0,
) -> Image:
    """Render a grayscale frame of the landmark field from ``pose_cw``."""
    rng = rng or np.random.default_rng(0)
    pixels = np.full((camera.height, camera.width), background, dtype=np.float32)
    if noise_sigma > 0:
        pixels += rng.normal(scale=noise_sigma, size=pixels.shape)
    if len(positions):
        uv, _depth, valid = camera.project_world(positions, pose_cw)
        drawn = np.flatnonzero(valid)
        # Patch corners from the rounded (half-to-even) centres; a patch
        # that would cross the border is not drawn.
        x0, y0 = (np.rint(uv[drawn]).astype(np.int64) - PATCH_SIZE // 2).T
        inside = ((y0 >= 0) & (x0 >= 0) & (y0 + PATCH_SIZE <= camera.height)
                  & (x0 + PATCH_SIZE <= camera.width))
        drawn, x0, y0 = drawn[inside], x0[inside], y0[inside]
        if len(drawn):
            _paste_patches(pixels, np.asarray(landmark_ids)[drawn], y0, x0)
    return Image(np.clip(pixels, 0, 255).astype(np.uint8), timestamp)


class DescriptorBank:
    """Canonical packed descriptor per landmark id of one world.

    Row ``id`` is drawn from ``default_rng(seed + id)`` the first time it
    is asked for and kept in one table, so a frame's rows are one gather.
    Each world has its own ``seed`` (``repro.datasets`` derives it from
    the trace); the default is the machine hall's.
    """

    def __init__(self, seed: int = DESCRIPTOR_SEED) -> None:
        self._seed = seed
        self._table = np.zeros((0, brief.DESCRIPTOR_BYTES), dtype=np.uint8)
        self._filled = np.zeros(0, dtype=bool)

    def rows(self, landmark_ids: np.ndarray) -> np.ndarray:
        """The descriptors of ``landmark_ids`` (ids >= 0), as a new array."""
        ids = np.asarray(landmark_ids, dtype=np.int64)
        if len(ids) and ids.min() < 0:
            raise ValueError("landmark ids must be non-negative")
        size = int(ids.max()) + 1 if len(ids) else 0
        if size > len(self._filled):
            grow = size - len(self._filled)
            empty = np.zeros((grow, brief.DESCRIPTOR_BYTES), dtype=np.uint8)
            self._table = np.vstack([self._table, empty])
            self._filled = np.concatenate([self._filled, np.zeros(grow, dtype=bool)])
        for i in np.unique(ids[~self._filled[ids]]).tolist():
            self._table[i] = brief.random_descriptor(np.random.default_rng(self._seed + i))
            self._filled[i] = True
        return self._table[ids]


class FeatureOracle:
    """Simulated feature frontend with controlled noise.

    Parameters
    ----------
    pixel_sigma:
        std-dev of keypoint localization noise, in pixels.
    descriptor_flip_bits:
        how many of the 256 descriptor bits flip per observation
        (viewpoint/photometric variation).
    dropout:
        probability that a visible landmark is missed in a frame.
    max_features:
        per-frame cap (uniform subsample when exceeded).
    depth_sigma_rel:
        relative noise on the reported depth (stereo triangulation
        error grows with range; a constant relative factor is a fair
        first-order model).
    """

    def __init__(
        self,
        camera: PinholeCamera,
        pixel_sigma: float = 0.4,
        descriptor_flip_bits: int = 8,
        dropout: float = 0.05,
        max_features: int = 300,
        depth_sigma_rel: float = 0.01,
        seed: int = 7,
        descriptor_bank: Optional[DescriptorBank] = None,
    ) -> None:
        self.camera = camera
        self.pixel_sigma = pixel_sigma
        self.descriptor_flip_bits = descriptor_flip_bits
        self.dropout = dropout
        self.max_features = max_features
        self.depth_sigma_rel = depth_sigma_rel
        self.bank = descriptor_bank or DescriptorBank()
        self._rng = np.random.default_rng(seed)

    def observe(
        self,
        positions: np.ndarray,
        landmark_ids: np.ndarray,
        pose_cw: SE3,
    ) -> FeatureSet:
        """Observe the landmark field from one camera pose."""
        if len(positions) == 0:
            return FeatureSet()
        uv, depth, valid = self.camera.project_world(positions, pose_cw)
        visible = np.flatnonzero(valid)
        if len(visible) == 0:
            return FeatureSet()
        # The seeded contract: per frame, in this order, the dropout draw,
        # the over-budget subsample, one (n, 2) block of pixel noise, then
        # for the features whose noisy pixel stays in the image the k
        # columns of flipped bits and one block of depth noise.  The
        # number of calls does not depend on the number of features.
        rng = self._rng
        if self.dropout > 0:
            visible = visible[rng.random(len(visible)) >= self.dropout]
        # Subsample uniformly when over budget.  (Selecting the *nearest*
        # landmarks instead is tempting but degenerate: close to a wall
        # the whole feature set becomes coplanar and PnP turns ambiguous.
        # Real FAST responses are not depth-ordered either.)
        if len(visible) > self.max_features:
            visible = np.sort(rng.choice(visible, size=self.max_features, replace=False))
        noisy_uv = uv[visible] + rng.normal(scale=self.pixel_sigma, size=(len(visible), 2))
        u, v = noisy_uv.T
        inside = (u >= 0.0) & (u < self.camera.width) & (v >= 0.0) & (v < self.camera.height)
        kept = visible[inside]
        if len(kept) == 0:
            return FeatureSet()
        ids = np.asarray(landmark_ids)[kept].astype(np.int64)
        descriptors = self.bank.rows(ids)
        flipped = brief.random_bit_subsets(rng, len(kept), self.descriptor_flip_bits)
        row_bits = np.arange(len(kept))[:, None] * brief.DESCRIPTOR_BITS
        brief.flip_packed_bits(descriptors, (row_bits + flipped).ravel())
        depth_noise = rng.normal(scale=self.depth_sigma_rel, size=len(kept))
        noisy_depth = np.maximum(depth[kept] * (1.0 + depth_noise), 1e-3)
        return FeatureSet(noisy_uv[inside], descriptors, noisy_depth, ids)
