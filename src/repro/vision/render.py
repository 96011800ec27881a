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
  speed and determinism.  Its generator calls, made per feature in a
  fixed order, are the seeded contract every session digest rests on;
  all the arithmetic around them is done once per frame on arrays
  (DESIGN.md §9, "Input side").
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

import numpy as np

from ..geometry import SE3
from . import brief
from .camera import PinholeCamera, StereoRig
from .image import Image
from .orb import FeatureSet

PATCH_SIZE = 9


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
    """Canonical packed descriptor per landmark id (lazily generated)."""

    def __init__(self, seed: int = 0xD5C) -> None:
        self._seed = seed
        self._bank: Dict[int, np.ndarray] = {}

    def descriptor(self, landmark_id: int) -> np.ndarray:
        cached = self._bank.get(landmark_id)
        if cached is None:
            rng = np.random.default_rng(self._seed + int(landmark_id))
            cached = brief.random_descriptor(rng)
            self._bank[landmark_id] = cached
        return cached


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
        stereo: Optional[StereoRig] = None,
        pixel_sigma: float = 0.4,
        descriptor_flip_bits: int = 8,
        dropout: float = 0.05,
        max_features: int = 300,
        depth_sigma_rel: float = 0.01,
        seed: int = 7,
        descriptor_bank: Optional[DescriptorBank] = None,
    ) -> None:
        self.camera = camera
        self.stereo = stereo
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
        visible = np.nonzero(valid)[0]
        if len(visible) == 0:
            return FeatureSet()
        if self.dropout > 0:
            keep = self._rng.random(len(visible)) >= self.dropout
            visible = visible[keep]
        # Subsample uniformly when over budget.  (Selecting the *nearest*
        # landmarks instead is tempting but degenerate: close to a wall
        # the whole feature set becomes coplanar and PnP turns ambiguous.
        # Real FAST responses are not depth-ordered either.)
        if len(visible) > self.max_features:
            visible = self._rng.choice(visible, size=self.max_features, replace=False)
            visible = np.sort(visible)
        # The generator calls below, per feature and in this order, are the
        # seeded contract: the uv noise, then (only for a feature that
        # stays in the image) the flipped bits, the depth noise and the
        # stereo noise.  Everything else is one array expression per frame.
        # The stereo draw once jittered a right-image column that nothing
        # read; the column is gone, but the draw stays, since every seeded
        # digest downstream rests on the generator's sequence.
        rng = self._rng
        sigma = self.pixel_sigma
        width, height = self.camera.width, self.camera.height
        n_flip = min(self.descriptor_flip_bits, brief.DESCRIPTOR_BITS)
        kept: List[int] = []
        noisy_uv: List[List[float]] = []
        flipped: List[np.ndarray] = []
        depth_noise: List[float] = []
        for idx, (u, v) in zip(visible.tolist(), uv[visible].tolist()):
            du, dv = rng.normal(scale=sigma, size=2).tolist()
            u, v = u + du, v + dv
            if not (0.0 <= u < width and 0.0 <= v < height):  # in_image
                continue
            kept.append(idx)
            noisy_uv.append([u, v])
            if n_flip > 0:
                flipped.append(rng.choice(brief.DESCRIPTOR_BITS, size=n_flip, replace=False))
            depth_noise.append(rng.normal(scale=self.depth_sigma_rel))
            if self.stereo is not None:
                rng.normal(scale=sigma)
        if not kept:
            return FeatureSet()

        ids = np.asarray(landmark_ids)[kept].astype(np.int64)
        descriptors = np.array([self.bank.descriptor(i) for i in ids.tolist()])
        if flipped:
            row_bits = np.arange(len(kept)) * brief.DESCRIPTOR_BITS
            brief.flip_packed_bits(
                descriptors, (row_bits[:, None] + np.array(flipped)).ravel()
            )
        noisy_depth = np.maximum(depth[kept] * (1.0 + np.array(depth_noise)), 1e-3)
        return FeatureSet(np.array(noisy_uv), descriptors, noisy_depth, ids)
