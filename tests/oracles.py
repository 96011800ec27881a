"""Reference implementations kept out of ``src/`` as test oracles.

Each body here is frozen from the commit that retired it from the
runtime: the per-keypoint rBRIEF, the dict-of-lists grid cull, the
per-keypoint ``extract`` loop and the shift-loop NMS from before the
batch front end (PR 17); the per-point bundle adjustment, the per-edge
pose-graph relaxation and the all-pairs projection search from before
``backend`` lost its ``"scalar"`` name (PR 19); the CPU-sequential side
of ablation A4 — per-pixel FAST (``detect_fast_scalar`` with
``_ring_values_scalar`` / ``_has_arc``), the point-by-point projection
search and the one-pair ``hamming_distance`` — once
``benchmarks/bench_ablation_kernels.py`` was its only caller outside the
tests (PR 22); the device half from before the padded-reference codec —
``shift_image`` with the ``np.roll`` / ``np.kron`` block predictor, and
the ``apply_along_axis`` landmark patch (PR 24).  The kernels in
``repro.vision`` and ``repro.video`` must reproduce the front-end and
device bodies bit for bit and the ones in ``repro.slam`` the back-end
bodies to 1e-9; nothing in ``src/`` imports this module.

``solve_pnp_reference`` (with ``_project_with_jacobian``,
``_classify_reference``, ``_whitening_sigmas_reference`` and
``_huber_weights_reference``) is the Levenberg–Marquardt PnP that built a
Jacobian for every damping trial and tried the damping ladder one trial
at a time, stepping with ``perturb_reference`` (``SE3.exp`` from before
it shared its Rodrigues terms with ``so3.exp``: the rotation from
``so3.exp``, V built again, then composed).  ``repro.slam.pnp``, which
linearises only the poses it steps from and scores the rest of a
rejected ladder in one stacked pass, must reproduce it bit for bit, and
``SE3.perturb`` must equal ``perturb_reference``.

``downsample_reference`` is the bilinear pyramid resize with one
``np.ix_`` gather per corner, from before ``repro.vision.image.downsample``
blended each source row once; the two must return the same bytes.

The session's input side, from before it was batched:
``synthesize_imu_reference`` is the per-sample IMU noise loop and
``sample_reference`` the ``np.searchsorted`` trajectory lookup.  The live
bodies must return the same bytes *and* leave the generator in the same
state, since the call sequence is the seeded contract.
``assert_same_batch`` compares two feature batches column by column.

The device half's loops, from before it ran in whole-array passes:
``estimate_global_shift_reference`` scores the global motion search one
(dy, dx) window at a time, and ``render_frame_reference`` pastes one
landmark patch at a time.  ``repro.video.h264_like.estimate_global_shift``
must return the same tuple, and ``repro.vision.render_frame`` the same
pixels with the generator left in the same state.

``H264LikeCodecReference`` is ``H264LikeCodec`` with the ``encode`` /
``decode`` bodies from before planes were packed at their quantizer's
width: every plane as little-endian ``int16`` under zlib's default
strategy.  The live codec must decode every stream to the same frames,
and its q <= 2 P-frames, still 16-bit, to the same bytes.

``word_of_reference`` descends the vocabulary tree one descriptor at a
time, and ``transform_reference`` is ``Vocabulary.transform`` over the
recursive descent (one ``hamming_distance_matrix`` argmin per node) from
before the level-by-level one; ``Vocabulary.words_of`` must pick the
same leaf for every row, and ``transform`` return the same dict.

The keyframe path from before it ran in array passes:
``insert_keyframe_reference`` creates and refines map points one feature
at a time (``fuse_unmatched_reference`` reads point objects and scans
the keyframe once per match), and ``local_bundle_adjustment_arrays_reference``
is local BA with ``refine_points_reference`` (depth rows spliced in by an
``argsort``) and a point lookup per resected keyframe.  The live bodies
must leave the same bytes; ``assert_same_map`` compares two maps.

The projection search's oracles return plain ``(point, feature,
distance)`` tuples; ``as_tuples`` reads a live ``Matches`` the same way
and ``as_matches`` builds one from tuples.  ``candidate_pairs_reference``
is ``FrameGrid.candidate_pairs`` from before it read every search box in
one broadcast: one pass per (dv, du) cell offset of the box.  The two
must return the same pair set.
"""

from __future__ import annotations

import time
import zlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.geometry import SE3, Trajectory, TrajectoryPoint, quaternion, se3_batch, so3
from repro.imu.model import GRAVITY_W, ImuNoiseModel, ImuSample, _angular_velocity_body
from repro.slam import bundle_adjustment as ba_module
from repro.slam.bundle_adjustment import BAStats
from repro.slam.keyframe import KeyFrame
from repro.slam.local_mapping import BA_WINDOW, MAX_DEPTH, MIN_DEPTH
from repro.slam.map import SlamMap
from repro.slam.mappoint import MapPoint
from repro.slam.pnp import (
    DEFAULT_DEPTH_SIGMA_REL,
    DEFAULT_HUBER_DELTA,
    DEFAULT_INLIER_SIGMA,
    DEFAULT_PIXEL_SIGMA,
    DEFAULT_POINT_SIGMA,
    PnPResult,
    solve_pnp,
)
from repro.slam.pose_graph import PoseGraphEdge, PoseGraphStats
from repro.video.codec import EncodedFrame
from repro.video.h264_like import (
    _SHIFT_HEADER,
    H264LikeCodec,
    _candidate_offsets,
    estimate_global_shift,
)
from repro.vision.brief import (
    DESCRIPTOR_BYTES,
    PATCH_RADIUS,
    hamming_distance_matrix,
    sampling_pattern,
)
from repro.vision.camera import PinholeCamera
from repro.vision.fast import (
    ARC_LENGTH,
    BORDER,
    CIRCLE_OFFSETS,
    Keypoint,
    _collect_keypoints,
    detect_fast_vectorized,
)
from repro.vision.image import Image, ImagePyramid
from repro.vision.matching import (
    DEFAULT_MATCH_THRESHOLD,
    FrameGrid,
    Matches,
    search_by_projection_vectorized,
)
from repro.vision.orb import FeatureSet, OrbExtractorConfig
from repro.vision.render import PATCH_SIZE

_PATTERN = sampling_pattern()
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_INF_COST = np.int32(1 << 30)


# -------------------------------------------------------------------- FAST
def _ring_values_scalar(pixels: np.ndarray, v: int, u: int) -> np.ndarray:
    return np.array(
        [int(pixels[v + dy, u + dx]) for dy, dx in CIRCLE_OFFSETS], dtype=np.int32
    )


def _has_arc(flags: np.ndarray, arc: int) -> bool:
    """Check for ``arc`` contiguous True values on the circular ring."""
    doubled = np.concatenate([flags, flags])
    run = 0
    for value in doubled:
        run = run + 1 if value else 0
        if run >= arc:
            return True
    return False


def detect_fast_scalar(
    pixels: np.ndarray, threshold: int = 20, nonmax: bool = True
) -> np.ndarray:
    """Reference (sequential) FAST-9 detector: ``(n, 3)`` ``u, v, response`` rows."""
    pixels = np.asarray(pixels)
    h, w = pixels.shape
    scores = np.zeros((h, w), dtype=np.float32)
    for v in range(BORDER, h - BORDER):
        for u in range(BORDER, w - BORDER):
            center = int(pixels[v, u])
            ring = _ring_values_scalar(pixels, v, u)
            brighter = ring > center + threshold
            darker = ring < center - threshold
            if _has_arc(brighter, ARC_LENGTH) or _has_arc(darker, ARC_LENGTH):
                scores[v, u] = float(np.abs(ring - center).sum())
    return _collect_keypoints(scores, nonmax)


# ------------------------------------------------------------------ rBRIEF
def hamming_distance(desc_a: np.ndarray, desc_b: np.ndarray) -> int:
    """Number of differing bits between two packed descriptors."""
    return int(_POPCOUNT[np.bitwise_xor(desc_a, desc_b)].sum())


def _children(vocabulary, node: int) -> range:
    first = int(vocabulary._first_child[node])
    return range(first, first + int(vocabulary._n_children[node]))


def word_of_reference(vocabulary, descriptor: np.ndarray) -> int:
    """One descriptor's leaf word: the per-descriptor tree descent that
    ``Vocabulary.words_of`` batches."""
    node = 0
    desc = descriptor[None]
    while len(_children(vocabulary, node)):
        children = _children(vocabulary, node)
        centers = vocabulary._centers[children.start:children.stop]
        node = children[int(hamming_distance_matrix(desc, centers)[0].argmin())]
    return int(vocabulary._word[node])


def transform_reference(vocabulary, descriptors: np.ndarray) -> Dict[int, float]:
    """``Vocabulary.transform`` over the recursive descent: each node
    splits its descriptors by one ``hamming_distance_matrix`` argmin
    against its children and recurses into each child in turn."""
    if len(descriptors) == 0:
        return {}
    descriptors = np.atleast_2d(np.asarray(descriptors, dtype=np.uint8))
    words = np.empty(len(descriptors), dtype=np.int64)

    def descend(node: int, idx: np.ndarray) -> None:
        children = _children(vocabulary, node)
        if not len(children):
            words[idx] = vocabulary._word[node]
            return
        centers = np.stack([vocabulary._centers[c] for c in children])
        choice = hamming_distance_matrix(descriptors[idx], centers).argmin(axis=1)
        for c, child in enumerate(children):
            sub = idx[choice == c]
            if len(sub):
                descend(child, sub)

    descend(0, np.arange(len(descriptors)))
    unique, counts = np.unique(words, return_counts=True)
    total = float(counts.sum())
    return {int(w): float(c) / total for w, c in zip(unique, counts)}


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
        kps = [Keypoint(*row) for row in detect(pixels, cfg.fast_threshold).tolist()]
        if not kps:
            kps = [Keypoint(*row) for row in detect(pixels, cfg.min_fast_threshold).tolist()]
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
    return FeatureSet(
        np.array([[kp.u, kp.v] for kp in all_kps]).reshape(-1, 2),
        np.array(descriptors, dtype=np.uint8).reshape(-1, DESCRIPTOR_BYTES),
        response=[kp.response for kp in all_kps],
        level=[kp.level for kp in all_kps],
        angle=[kp.angle for kp in all_kps],
    )


FEATURE_COLUMNS = ("uv", "descriptors", "depths", "landmark_ids",
                   "response", "level", "angle")


def assert_same_batch(got: FeatureSet, want: FeatureSet) -> None:
    """Every column of two feature batches: same dtype, shape and bytes."""
    for name in FEATURE_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# ----------------------------------------------------------------- pyramid
def downsample_reference(pixels: np.ndarray, scale: float) -> np.ndarray:
    """Bilinear resize by ``1/scale`` with one ``np.ix_`` gather per corner."""
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
    img = pixels.astype(np.float32)
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    out = top * (1 - wy) + bot * wy
    return np.clip(out, 0, 255).astype(np.uint8)


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


# ------------------------------------------------------- projection search
MatchTuple = Tuple[int, int, int]


def as_tuples(matches: Matches) -> List[MatchTuple]:
    """A live ``Matches`` as the oracles' ordered ``(q, t, d)`` tuples."""
    return list(zip(matches.query_idx.tolist(), matches.train_idx.tolist(),
                    matches.distance.tolist()))


def as_matches(tuples: List[MatchTuple]) -> Matches:
    """The oracles' tuples as a live ``Matches`` (for patched callers)."""
    columns = np.array(tuples, dtype=np.intp).reshape(-1, 3)
    return Matches(columns[:, 0].copy(), columns[:, 1].copy(),
                   columns[:, 2].copy())


def candidate_pairs_reference(
    grid: FrameGrid, centers: np.ndarray, radius: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``FrameGrid.candidate_pairs`` one (dv, du) cell offset at a time."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    n_centers = len(centers)
    empty = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
    if n_centers == 0 or grid.n_features == 0:
        return empty
    cs = grid.cell_size
    u0, v0 = grid.origin
    counts_of_cell = np.diff(grid.starts)
    cu_lo = np.floor((centers[:, 0] - radius - u0) / cs).astype(np.intp)
    cu_hi = np.floor((centers[:, 0] + radius - u0) / cs).astype(np.intp)
    cv_lo = np.floor((centers[:, 1] - radius - v0) / cs).astype(np.intp)
    cv_hi = np.floor((centers[:, 1] + radius - v0) / cs).astype(np.intp)
    np.clip(cu_lo, 0, grid.n_cu - 1, out=cu_lo)
    np.clip(cv_lo, 0, grid.n_cv - 1, out=cv_lo)
    cu_hi_c = np.minimum(cu_hi, grid.n_cu - 1)
    cv_hi_c = np.minimum(cv_hi, grid.n_cv - 1)
    span = int(np.ceil(2.0 * radius / cs)) + 1
    pts_parts: List[np.ndarray] = []
    starts_parts: List[np.ndarray] = []
    counts_parts: List[np.ndarray] = []
    center_idx = np.arange(n_centers, dtype=np.intp)
    for dv in range(span):
        cv = cv_lo + dv
        for du in range(span):
            cu = cu_lo + du
            ok = (cu <= cu_hi_c) & (cv <= cv_hi_c) & (cu_hi >= 0) & (cv_hi >= 0)
            if not ok.any():
                continue
            cells = cv[ok] * grid.n_cu + cu[ok]
            counts = counts_of_cell[cells]
            nonempty = counts > 0
            if not nonempty.any():
                continue
            pts_parts.append(center_idx[ok][nonempty])
            starts_parts.append(grid.starts[cells][nonempty])
            counts_parts.append(counts[nonempty])
    if not pts_parts:
        return empty
    pts = np.concatenate(pts_parts)
    starts = np.concatenate(starts_parts)
    counts = np.concatenate(counts_parts)
    total = int(counts.sum())
    ends = np.cumsum(counts)
    begins = ends - counts
    flat = (
        np.arange(total, dtype=np.intp)
        - np.repeat(begins, counts)
        + np.repeat(starts, counts)
    )
    return np.repeat(pts, counts), grid.order[flat]


def search_by_projection_scalar(
    projected_uv: np.ndarray,
    point_descriptors: np.ndarray,
    frame_uv: np.ndarray,
    frame_descriptors: np.ndarray,
    radius: float = 8.0,
    max_distance: int = DEFAULT_MATCH_THRESHOLD,
) -> List[MatchTuple]:
    """Sequential search-local-points: loop over map points one by one."""
    matches: List[MatchTuple] = []
    used = set()
    for pi in range(len(projected_uv)):
        best_dist = max_distance + 1
        best_fi = -1
        for fi in range(len(frame_uv)):
            if fi in used:
                continue
            du = frame_uv[fi, 0] - projected_uv[pi, 0]
            dv = frame_uv[fi, 1] - projected_uv[pi, 1]
            if du * du + dv * dv > radius * radius:
                continue
            dist = hamming_distance(point_descriptors[pi], frame_descriptors[fi])
            if dist < best_dist:
                best_dist = dist
                best_fi = fi
        if best_fi >= 0:
            used.add(best_fi)
            matches.append((pi, best_fi, int(best_dist)))
    return matches


def search_by_projection_dense(
    projected_uv: np.ndarray,
    point_descriptors: np.ndarray,
    frame_uv: np.ndarray,
    frame_descriptors: np.ndarray,
    radius: float = 8.0,
    max_distance: int = DEFAULT_MATCH_THRESHOLD,
) -> List[MatchTuple]:
    """The pre-grid dense formulation (all-pairs matrices, per-point loop):
    a second reference, beside ``search_by_projection_scalar``, for
    ``repro.vision.matching.search_by_projection_vectorized``."""
    n_points = len(projected_uv)
    n_feats = len(frame_uv)
    if n_points == 0 or n_feats == 0:
        return []
    diff = projected_uv[:, None, :] - frame_uv[None, :, :]
    within = (diff ** 2).sum(axis=2) <= radius * radius
    hamming = hamming_distance_matrix(point_descriptors, frame_descriptors)
    cost = np.where(within & (hamming <= max_distance), hamming, _INF_COST)
    matches: List[MatchTuple] = []
    used = np.zeros(n_feats, dtype=bool)
    # Same greedy order as the scalar loop: by ascending point index.
    for pi in range(n_points):
        row = np.where(used, _INF_COST, cost[pi])
        fi = int(row.argmin())
        if row[fi] >= _INF_COST:
            continue
        used[fi] = True
        matches.append((pi, fi, int(row[fi])))
    return matches


# --------------------------------------------------------------------- PnP
def perturb_reference(pose: SE3, xi: np.ndarray) -> SE3:
    """``SE3.exp(xi) * pose`` with the exponential computed as before it
    shared its Rodrigues terms: ``so3.exp`` for the rotation, V again."""
    xi = np.asarray(xi, dtype=float)
    rho, omega = xi[:3], xi[3:]
    theta = np.linalg.norm(omega)
    rotation = so3.exp(omega)
    if theta < 1e-10:
        v = np.eye(3) + 0.5 * so3.hat(omega)
    else:
        k = so3.hat(omega / theta)
        v = (
            np.eye(3)
            + ((1.0 - np.cos(theta)) / theta) * k
            + ((theta - np.sin(theta)) / theta) * (k @ k)
        )
    return SE3(rotation, v @ rho) * pose


def _whitening_sigmas_reference(
    depths: np.ndarray,
    camera: PinholeCamera,
    pixel_sigma: float,
    point_sigma: float,
) -> np.ndarray:
    """Per-correspondence residual std-dev (px), repeated for u and v."""
    leverage = camera.fx / np.maximum(depths, 1e-3)
    sigma = np.sqrt(pixel_sigma ** 2 + (leverage * point_sigma) ** 2)
    return np.repeat(sigma, 2)


def _huber_weights_reference(whitened: np.ndarray, delta: float) -> np.ndarray:
    abs_r = np.abs(whitened)
    weights = np.ones_like(whitened)
    outside = abs_r > delta
    weights[outside] = delta / abs_r[outside]
    return weights


def _project_with_jacobian(
    pose_cw: SE3, points_w: np.ndarray, uv: np.ndarray, camera: PinholeCamera
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals (2n,), Jacobian (2n, 6) wrt a left twist, depths (n,).

    Twist ordering is (translation, rotation), matching
    :meth:`repro.geometry.SE3.exp`.
    """
    pts_cam = pose_cw.apply(points_w)
    x, y, z = pts_cam[:, 0], pts_cam[:, 1], pts_cam[:, 2]
    z_safe = np.maximum(z, 1e-6)
    u_hat = camera.fx * x / z_safe + camera.cx
    v_hat = camera.fy * y / z_safe + camera.cy
    residual = np.column_stack([u_hat - uv[:, 0], v_hat - uv[:, 1]])

    inv_z = 1.0 / z_safe
    inv_z2 = inv_z * inv_z
    n = len(points_w)
    jac = np.zeros((n, 2, 6))
    du_dp = np.stack([camera.fx * inv_z, np.zeros(n), -camera.fx * x * inv_z2], axis=1)
    dv_dp = np.stack([np.zeros(n), camera.fy * inv_z, -camera.fy * y * inv_z2], axis=1)
    # Left perturbation: p_cam' = p_cam + rho + omega x p_cam, so
    # d p_cam / d rho = I and d p_cam / d omega = -[p_cam]x.
    # For a row vector a: -a @ hat(p) = cross(p, a).
    jac[:, 0, :3] = du_dp
    jac[:, 0, 3:] = np.cross(pts_cam, du_dp)
    jac[:, 1, :3] = dv_dp
    jac[:, 1, 3:] = np.cross(pts_cam, dv_dp)
    return residual.reshape(-1), jac.reshape(-1, 6), z


def _classify_reference(
    pose: SE3,
    points_w: np.ndarray,
    uv: np.ndarray,
    camera: PinholeCamera,
    pixel_sigma: float,
    point_sigma: float,
    inlier_sigma: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """(inlier mask, per-point pixel errors) under a pose."""
    residual, _, depth = _project_with_jacobian(pose, points_w, uv, camera)
    err_px = np.linalg.norm(residual.reshape(-1, 2), axis=1)
    sigma = _whitening_sigmas_reference(depth, camera, pixel_sigma, point_sigma)[::2]
    inliers = (err_px / sigma < inlier_sigma) & (depth > 1e-6)
    return inliers, err_px


def solve_pnp_reference(
    points_w: np.ndarray,
    uv: np.ndarray,
    camera: PinholeCamera,
    initial_pose: SE3,
    depths: Optional[np.ndarray] = None,
    max_iterations: int = 10,
    pixel_sigma: float = DEFAULT_PIXEL_SIGMA,
    point_sigma: float = DEFAULT_POINT_SIGMA,
    depth_sigma_rel: float = DEFAULT_DEPTH_SIGMA_REL,
    huber_delta: float = DEFAULT_HUBER_DELTA,
    inlier_sigma: float = DEFAULT_INLIER_SIGMA,
    convergence_tol: float = 1e-8,
) -> PnPResult:
    """Whitened, Huber-robust Gauss-Newton PnP from an initial pose.

    ``depths`` (optional, one per correspondence, <=0 where missing)
    are stereo/RGB-D depth measurements; they add a depth residual per
    point.  Without them the forward (optical-axis) translation is
    only weakly observable from central points and drifts.
    """
    points_w = np.asarray(points_w, dtype=float)
    uv = np.asarray(uv, dtype=float)
    if len(points_w) < 4:
        return PnPResult(initial_pose, np.zeros(len(points_w), dtype=bool),
                         float("inf"), 0, False)
    have_depth = None
    if depths is not None:
        depths = np.asarray(depths, dtype=float)
        have_depth = depths > 0
        if not have_depth.any():
            have_depth = None

    def _huber_cost(whitened: np.ndarray) -> float:
        a = np.abs(whitened)
        return float(
            np.where(a <= huber_delta, 0.5 * a * a,
                     huber_delta * (a - 0.5 * huber_delta)).sum()
        )

    def _evaluate(pose: SE3):
        """Robust cost, IRLS hessian and gradient at a pose."""
        residual, jac, z = _project_with_jacobian(pose, points_w, uv, camera)
        sigma = _whitening_sigmas_reference(z, camera, pixel_sigma, point_sigma)
        whitened = residual / sigma
        valid = np.repeat(z > 1e-6, 2)
        cost = _huber_cost(whitened[valid])
        weights = _huber_weights_reference(whitened, huber_delta) / (sigma ** 2)
        weights[~valid] = 0.0
        jw = jac * weights[:, None]
        hessian = jw.T @ jac
        gradient = jw.T @ residual
        if have_depth is not None:
            mask = have_depth & (z > 1e-6)
            if mask.any():
                pts_cam = pose.apply(points_w[mask])
                sigma_d = np.maximum(depth_sigma_rel * depths[mask], 1e-3)
                r_d = z[mask] - depths[mask]
                whitened_d = r_d / sigma_d
                cost += _huber_cost(whitened_d)
                # d z / d (rho, omega) for a left twist:
                # [0, 0, 1, p_y, -p_x, 0].
                n_d = int(mask.sum())
                j_d = np.zeros((n_d, 6))
                j_d[:, 2] = 1.0
                j_d[:, 3] = pts_cam[:, 1]
                j_d[:, 4] = -pts_cam[:, 0]
                w_d = _huber_weights_reference(whitened_d, huber_delta) / (sigma_d ** 2)
                jw_d = j_d * w_d[:, None]
                hessian += jw_d.T @ j_d
                gradient += jw_d.T @ r_d
        return cost, hessian, gradient

    # Levenberg-Marquardt: accept a step only if the robust cost drops.
    # (Plain Gauss-Newton on the IRLS normal equations can stall at
    # non-minima of the robust cost; we hit exactly that in tracking.)
    pose = initial_pose
    cost, hessian, gradient = _evaluate(pose)
    lam = 1e-4
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        accepted = False
        for _ in range(8):
            damped = hessian + lam * np.diag(np.maximum(np.diag(hessian), 1e-9))
            try:
                step = np.linalg.solve(damped, -gradient)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = perturb_reference(pose, step)
            new_cost, new_h, new_g = _evaluate(candidate)
            if new_cost < cost:
                pose, cost, hessian, gradient = candidate, new_cost, new_h, new_g
                lam = max(lam * 0.3, 1e-9)
                accepted = True
                if np.linalg.norm(step) < convergence_tol:
                    converged = True
                break
            lam *= 10.0
        if not accepted or converged:
            converged = converged or not accepted
            break
    inliers, err_px = _classify_reference(
        pose, points_w, uv, camera, pixel_sigma, point_sigma, inlier_sigma
    )
    mean_err = float(err_px[inliers].mean()) if inliers.any() else float("inf")
    return PnPResult(pose, inliers, mean_err, iterations, converged)


# ------------------------------------------------------- bundle adjustment
def set_point_position(slam_map: SlamMap, point_id: int, position: np.ndarray) -> None:
    """Move one point: the one-point write-back the per-item bodies make."""
    slam_map.set_point_positions([point_id], np.reshape(position, (1, 3)),
                                 slam_map.lookup_point_rows([point_id]))


def _collect_observations(
    slam_map: SlamMap, keyframe_ids: Iterable[int]
) -> Dict[int, List]:
    """point_id -> list of (keyframe_id, uv, depth) among the keyframes.

    ``depth`` is the measured (stereo/RGB-D) depth of the observing
    feature, or <= 0 when unavailable.
    """
    observations: Dict[int, List] = {}
    for kf_id in keyframe_ids:
        kf = slam_map.keyframes.get(kf_id)
        if kf is None:
            continue
        for feat_idx, pid in enumerate(kf.point_ids):
            pid = int(pid)
            if pid < 0 or pid not in slam_map.mappoints:
                continue
            observations.setdefault(pid, []).append(
                (kf_id, kf.uv[feat_idx], float(kf.depths[feat_idx]))
            )
    return observations


def _mean_reprojection_error(
    slam_map: SlamMap,
    camera: PinholeCamera,
    observations: Dict[int, List],
) -> float:
    """Mean reprojection error, one projection per observation."""
    errors = []
    for pid, obs in observations.items():
        point = slam_map.mappoints[pid]
        for kf_id, uv, _depth in obs:
            kf = slam_map.keyframes[kf_id]
            proj, _, valid = camera.project_world(point.position[None], kf.pose_cw)
            if valid[0]:
                errors.append(float(np.linalg.norm(proj[0] - uv)))
    return float(np.mean(errors)) if errors else 0.0


def _triangulate_point(
    position: np.ndarray,
    observations: List,
    slam_map: SlamMap,
    camera: PinholeCamera,
) -> Optional[np.ndarray]:
    """Refine one point by Gauss-Newton on reprojection (+ depth) residuals.

    Reprojection alone leaves the point free to slide along the viewing
    ray when the observing baselines are short; the stereo/RGB-D depth
    residual (expressed in disparity-like pixel units so the two terms
    are commensurable) pins it down, exactly as ORB-SLAM3's stereo BA
    edges do.
    """
    point = position.copy()
    for _ in range(3):
        h = np.zeros((3, 3))
        g = np.zeros(3)
        for kf_id, uv, depth_meas in observations:
            kf = slam_map.keyframes.get(kf_id)
            if kf is None:
                continue
            pose = kf.pose_cw
            p_cam = pose.apply(point)
            z = max(p_cam[2], 1e-6)
            u_hat = camera.fx * p_cam[0] / z + camera.cx
            v_hat = camera.fy * p_cam[1] / z + camera.cy
            r = np.array([u_hat - uv[0], v_hat - uv[1]])
            j_proj = np.array(
                [
                    [camera.fx / z, 0.0, -camera.fx * p_cam[0] / (z * z)],
                    [0.0, camera.fy / z, -camera.fy * p_cam[1] / (z * z)],
                ]
            )
            j = j_proj @ pose.rotation
            h += j.T @ j
            g += j.T @ r
            if depth_meas > 0 and np.isfinite(depth_meas):
                # Depth residual in pixel-like units: d(fx/z) ~ disparity.
                r_d = (z - depth_meas) * camera.fx / max(depth_meas, 1e-6)
                j_d = (camera.fx / max(depth_meas, 1e-6)) * pose.rotation[2]
                h += np.outer(j_d, j_d)
                g += j_d * r_d
        try:
            step = np.linalg.solve(h + 1e-6 * np.eye(3), -g)
        except np.linalg.LinAlgError:
            return None
        point = point + step
        if np.linalg.norm(step) < 1e-10:
            break
    return point


def _resect_keyframes(
    slam_map: SlamMap,
    camera: PinholeCamera,
    keyframe_ids: List[int],
    fixed: Set[int],
) -> None:
    """Refine each free keyframe pose by PnP against the current points."""
    for kf_id in keyframe_ids:
        if kf_id in fixed:
            continue
        kf = slam_map.keyframes[kf_id]
        pids = kf.point_ids
        mask = pids >= 0
        if mask.sum() < 6:
            continue
        pts_list, uvs_list = [], []
        for feat_idx in np.nonzero(mask)[0]:
            point = slam_map.mappoints.get(int(pids[feat_idx]))
            if point is None:
                continue
            pts_list.append(point.position)
            uvs_list.append(kf.uv[feat_idx])
        if len(pts_list) < 6:
            continue
        pts = np.array(pts_list)
        uvs = np.array(uvs_list)
        result = solve_pnp(pts, uvs, camera, kf.pose_cw, max_iterations=5)
        if result.n_inliers >= 6:
            kf.pose_cw = result.pose_cw


def local_bundle_adjustment(
    slam_map: SlamMap,
    camera: PinholeCamera,
    keyframe_ids: Iterable[int],
    fixed_keyframe_ids: Optional[Set[int]] = None,
    iterations: int = 3,
    min_observations: int = 2,
) -> BAStats:
    """The per-point, per-observation loops of the retired scalar tier."""
    keyframe_ids = [k for k in keyframe_ids if k in slam_map.keyframes]
    fixed = set(fixed_keyframe_ids or ())
    if not keyframe_ids:
        return BAStats(0, 0.0, 0.0, 0, 0)
    observations = _collect_observations(slam_map, keyframe_ids)
    initial_error = _mean_reprojection_error(slam_map, camera, observations)
    for _ in range(iterations):
        for pid, obs_list in observations.items():
            if len(obs_list) < min_observations:
                continue
            point = slam_map.mappoints[pid]
            refined = _triangulate_point(
                point.position, obs_list, slam_map, camera
            )
            if refined is not None and np.isfinite(refined).all():
                set_point_position(slam_map, pid, refined)
        _resect_keyframes(slam_map, camera, keyframe_ids, fixed)
    final_error = _mean_reprojection_error(slam_map, camera, observations)
    return BAStats(
        iterations=iterations,
        initial_error_px=initial_error,
        final_error_px=final_error,
        n_keyframes=len(keyframe_ids),
        n_points=len(observations),
    )


def local_bundle_adjustment_arrays_reference(
    slam_map: SlamMap,
    camera: PinholeCamera,
    keyframe_ids: Iterable[int],
    fixed_keyframe_ids: Optional[Set[int]] = None,
    iterations: int = 3,
    min_observations: int = 2,
) -> BAStats:
    """``local_bundle_adjustment`` from before its intersection wrote
    entries into interleaved slots and its resection reused the
    observation blocks: :func:`refine_points_reference`, then
    :func:`_resect_keyframes` with its per-keyframe point lookups."""
    keyframe_ids = [k for k in keyframe_ids if k in slam_map.keyframes]
    fixed = set(fixed_keyframe_ids or ())
    if not keyframe_ids:
        return BAStats(0, 0.0, 0.0, 0, 0)
    obs = ba_module._collect_observation_arrays(slam_map, keyframe_ids)
    initial_error = ba_module._mean_reprojection_error(slam_map, camera, obs)
    for _ in range(iterations):
        refine_points_reference(slam_map, camera, obs, min_observations)
        _resect_keyframes(slam_map, camera, keyframe_ids, fixed)
    final_error = ba_module._mean_reprojection_error(slam_map, camera, obs)
    return BAStats(
        iterations=iterations,
        initial_error_px=initial_error,
        final_error_px=final_error,
        n_keyframes=len(keyframe_ids),
        n_points=len(obs.point_ids),
    )


def refine_points_reference(
    slam_map: SlamMap,
    camera: PinholeCamera,
    obs: ba_module._ObsArrays,
    min_observations: int,
) -> None:
    """``_refine_points`` with its depth rows spliced in by an ``argsort``
    over interleaved keys, ``rot_g[m]`` gathered three times an
    iteration, and its positions written back one point at a time."""
    n_points = len(obs.point_ids)
    if n_points == 0 or obs.n_obs == 0:
        return
    active = obs.counts >= min_observations
    if not active.any():
        return
    rot, trans = ba_module._window_pose_stack(slam_map, obs.kf_ids)
    fx, fy, cx, cy = camera.fx, camera.fy, camera.cx, camera.cy
    seg = np.asarray(obs.seg, dtype=np.int64)
    uv = np.asarray(obs.uv, dtype=np.float64)
    depth = np.asarray(obs.depth, dtype=np.float64)
    rot_g = rot[obs.kf_idx]
    trans_g = trans[obs.kf_idx]
    positions = slam_map.packed_positions()[obs.point_rows].copy()
    dep_ok = (obs.depth > 0) & np.isfinite(obs.depth)
    inv_d = 1.0 / np.maximum(obs.depth, 1e-6)
    frozen = ~active
    failed = np.zeros(n_points, dtype=bool)
    for _ in range(3):
        live = ~frozen & ~failed
        if not live.any():
            break
        m = live[seg]
        seg_m = seg[m]
        p_cam = se3_batch.apply(rot_g[m], trans_g[m], positions[seg_m])
        x, y = p_cam[:, 0], p_cam[:, 1]
        z = np.maximum(p_cam[:, 2], 1e-6)
        uv_m = uv[m]
        r = np.stack(
            [fx * x / z + cx - uv_m[:, 0], fy * y / z + cy - uv_m[:, 1]],
            axis=1,
        )
        n_m = len(z)
        j_proj = np.zeros((n_m, 2, 3))
        j_proj[:, 0, 0] = fx / z
        j_proj[:, 0, 2] = -fx * x / (z * z)
        j_proj[:, 1, 1] = fy / z
        j_proj[:, 1, 2] = -fy * y / (z * z)
        j = j_proj @ rot_g[m]
        h_rows = np.einsum("nki,nkj->nij", j, j)
        g_rows = np.einsum("nki,nk->ni", j, r)
        dm = dep_ok[m]
        if dm.any():
            # Depth rows are spliced in directly after their
            # reprojection row so the segment sums accumulate in the
            # oracle loop's order (reproj_1, depth_1, reproj_2, ...),
            # not grouped.
            inv_dm = inv_d[m][dm]
            j_d = (fx * inv_dm)[:, None] * rot_g[m][dm][:, 2, :]
            # Depth residual in pixel-like units: d(fx/z) ~ disparity.
            r_d = (z[dm] - depth[m][dm]) * fx * inv_dm
            h_depth = np.einsum("ni,nj->nij", j_d, j_d)
            g_depth = j_d * r_d[:, None]
            keys = np.concatenate(
                [np.arange(n_m) * 2, np.nonzero(dm)[0] * 2 + 1]
            )
            order = np.argsort(keys, kind="stable")
            h_entries = np.concatenate([h_rows, h_depth])[order]
            g_entries = np.concatenate([g_rows, g_depth])[order]
            entry_seg = np.concatenate([seg_m, seg_m[dm]])[order]
        else:
            h_entries, g_entries, entry_seg = h_rows, g_rows, seg_m
        h = ba_module._segment_sum(h_entries, entry_seg, n_points)
        g = ba_module._segment_sum(g_entries, entry_seg, n_points)
        h += 1e-6 * np.eye(3)
        det = np.linalg.det(h)
        bad = ~np.isfinite(det) | (det == 0.0)
        if bad.any():
            h[bad] = np.eye(3)
            failed = failed | (bad & live)
        step = np.linalg.solve(h, -g[..., None])[..., 0]
        update = live & ~bad
        positions[update] += step[update]
        frozen = frozen | (update & (np.linalg.norm(step, axis=1) < 1e-10))
    good = active & ~failed & np.isfinite(positions).all(axis=1)
    if good.any():
        for pid, pos in zip(obs.point_ids[good], positions[good]):
            set_point_position(slam_map, int(pid), pos)


# ------------------------------------------------------ keyframe insertion
def fuse_unmatched_reference(mapper, keyframe: KeyFrame) -> int:
    """``LocalMapper._fuse_unmatched`` reading positions and descriptors
    off the point objects, with a membership scan per match."""
    unmatched = np.nonzero(keyframe.point_ids < 0)[0]
    if len(unmatched) == 0:
        return 0
    neighbor_ids = [keyframe.keyframe_id]
    if mapper.last_keyframe_id is not None:
        neighbor_ids.append(mapper.last_keyframe_id)
        neighbor_ids += mapper.map.covisible_keyframes(mapper.last_keyframe_id)[:8]
    points = mapper.map.local_map_points(neighbor_ids)
    if not points:
        return 0
    positions = np.array([p.position for p in points])
    uv, _, valid = mapper.camera.project_world(positions, keyframe.pose_cw)
    visible = np.nonzero(valid)[0]
    if len(visible) == 0:
        return 0
    proj_uv = uv[visible]
    descs = np.stack([points[i].descriptor for i in visible])
    matches = search_by_projection_vectorized(
        proj_uv,
        descs,
        keyframe.uv[unmatched],
        keyframe.descriptors[unmatched],
        radius=6.0,
    )
    fused = 0
    for feat_idx, row in zip(unmatched[matches.train_idx].tolist(),
                             visible[matches.query_idx].tolist()):
        point = points[row]
        if point.point_id in keyframe.point_ids:
            continue  # already observed by another feature
        keyframe.point_ids[feat_idx] = point.point_id
        fused += 1
    return fused


def insert_keyframe_reference(mapper, frame, depth_scale: float = 1.0) -> KeyFrame:
    """``LocalMapper.insert_keyframe`` with one-feature-at-a-time point
    creation and refinement, the recursive BoW descent
    (:func:`transform_reference`) and
    :func:`local_bundle_adjustment_arrays_reference` over the window
    ``LocalMapper.run_local_ba`` picks."""
    keyframe = KeyFrame.from_frame(
        mapper.kf_allocator.allocate(), frame, client_id=mapper.client_id
    )
    if depth_scale != 1.0:
        keyframe.depths = keyframe.depths * depth_scale
    fuse_unmatched_reference(mapper, keyframe)
    pose_wc = keyframe.pose_cw.inverse()
    for feat_idx in range(len(keyframe)):
        if keyframe.point_ids[feat_idx] >= 0:
            continue
        depth = float(keyframe.depths[feat_idx])
        if not (MIN_DEPTH <= depth <= MAX_DEPTH):
            continue
        point_cam = mapper.camera.unproject(
            keyframe.uv[feat_idx][None], np.array([depth])
        )[0]
        point = MapPoint(
            point_id=mapper.point_allocator.allocate(),
            position=pose_wc.apply(point_cam),
            descriptor=keyframe.descriptors[feat_idx].copy(),
            client_id=mapper.client_id,
        )
        point.add_observation(keyframe.keyframe_id, feat_idx)
        keyframe.point_ids[feat_idx] = point.point_id
        mapper.map.add_mappoint(point)
    for feat_idx, pid in enumerate(keyframe.point_ids):
        pid = int(pid)
        if pid < 0 or pid not in mapper.map.mappoints:
            continue
        point = mapper.map.mappoints[pid]
        point.add_observation(keyframe.keyframe_id, feat_idx)
        depth = float(keyframe.depths[feat_idx])
        if MIN_DEPTH <= depth <= MAX_DEPTH:
            observed = pose_wc.apply(
                mapper.camera.unproject(
                    keyframe.uv[feat_idx][None], np.array([depth])
                )[0]
            )
            n = max(point.n_observations, 1)
            weight = 1.0 / (n + 1.0)
            if np.linalg.norm(observed - point.position) < 1.0:
                set_point_position(
                    mapper.map, pid, (1.0 - weight) * point.position + weight * observed
                )
    keyframe.bow_vector = transform_reference(mapper.vocabulary, keyframe.descriptors)
    mapper.map.add_keyframe(keyframe)
    mapper.database.add(keyframe.keyframe_id, keyframe.bow_vector)
    mapper.last_keyframe_id = keyframe.keyframe_id
    window = [keyframe.keyframe_id] + mapper.map.covisible_keyframes(
        keyframe.keyframe_id
    )[: BA_WINDOW - 1]
    for kf_id in window:
        mapper.map.touch_keyframe(kf_id)
    fixed = {min(window)} if len(window) > 1 else set()
    local_bundle_adjustment_arrays_reference(
        mapper.map, mapper.camera, window, fixed_keyframe_ids=fixed, iterations=2,
    )
    mapper.enforce_budgets(keyframe)
    return keyframe


def assert_same_map(got: SlamMap, want: SlamMap) -> None:
    """Two maps hold the same bytes: ids in the same order, positions,
    descriptors, observations, keyframe poses, BoW vectors, feature
    associations, covisibility and the packed mirror."""
    assert list(got.mappoints) == list(want.mappoints)
    for pid, point in got.mappoints.items():
        other = want.mappoints[pid]
        assert (point.client_id, point.times_visible, point.times_found) == \
            (other.client_id, other.times_visible, other.times_found), pid
        assert point.position.tobytes() == other.position.tobytes(), pid
        assert point.descriptor.tobytes() == other.descriptor.tobytes(), pid
        assert list(point.observations.items()) == list(other.observations.items()), pid
    assert list(got.keyframes) == list(want.keyframes)
    for kf_id, kf in got.keyframes.items():
        other = want.keyframes[kf_id]
        assert kf.pose_cw.rotation.tobytes() == other.pose_cw.rotation.tobytes(), kf_id
        assert kf.pose_cw.translation.tobytes() == other.pose_cw.translation.tobytes(), kf_id
        assert kf.point_ids.tobytes() == other.point_ids.tobytes(), kf_id
        assert ([(w, np.float64(x).tobytes()) for w, x in kf.bow_vector.items()]
                == [(w, np.float64(x).tobytes()) for w, x in other.bow_vector.items()]), kf_id
    assert got.covisibility == want.covisibility
    assert got.packed_positions().tobytes() == want.packed_positions().tobytes()
    assert got._packed.ids == want._packed.ids


# -------------------------------------------------------------- pose graph
def _total_residual(poses: Dict[int, SE3], edges: List[PoseGraphEdge]) -> float:
    """Weighted squared-twist residual over the edges whose endpoints exist.

    Edges naming keyframes absent from ``poses`` (e.g. an ``extra_edges``
    loop edge referencing a culled keyframe) are skipped, matching the
    optimization loop — they used to crash this pass with a KeyError.
    """
    total = 0.0
    for edge in edges:
        if edge.kf_a not in poses or edge.kf_b not in poses:
            continue
        delta = edge.relative.inverse() * (
            poses[edge.kf_a] * poses[edge.kf_b].inverse()
        )
        total += float(edge.weight) * float(np.sum(delta.log() ** 2))
    return total


def _optimize_scalar(
    poses: Dict[int, SE3],
    edges: List[PoseGraphEdge],
    fixed: Set[int],
    iterations: int,
    step_scale: float,
) -> None:
    """The Jacobi schedule of ``repro.slam.pose_graph``, per-edge SE3 math."""
    by_node: Dict[int, List[Tuple[PoseGraphEdge, bool]]] = {}
    for edge in edges:
        by_node.setdefault(edge.kf_a, []).append((edge, True))
        by_node.setdefault(edge.kf_b, []).append((edge, False))
    for _ in range(iterations):
        steps: Dict[int, np.ndarray] = {}
        for node, node_edges in by_node.items():
            if node in fixed:
                continue
            twist_sum = np.zeros(6)
            weight_sum = 0.0
            for edge, node_is_a in node_edges:
                if node_is_a:
                    # Predicted pose of a: T_ab_meas * T_b.
                    predicted = edge.relative * poses[edge.kf_b]
                else:
                    predicted = edge.relative.inverse() * poses[edge.kf_a]
                delta = predicted * poses[node].inverse()
                twist_sum += edge.weight * delta.log()
                weight_sum += edge.weight
            if weight_sum > 0:
                steps[node] = step_scale * twist_sum / weight_sum
        for node, step in steps.items():
            poses[node] = SE3.exp(step) * poses[node]


def optimize_pose_graph(
    slam_map: SlamMap,
    edges: List[PoseGraphEdge],
    fixed: Optional[Set[int]] = None,
    iterations: int = 12,
    step_scale: float = 0.7,
) -> PoseGraphStats:
    """The per-edge ``SE3`` relaxation of the retired scalar tier."""
    fixed = set(fixed or ())
    poses: Dict[int, SE3] = {
        kf_id: kf.pose_cw for kf_id, kf in slam_map.keyframes.items()
    }
    valid_edges = [
        e for e in edges if e.kf_a in poses and e.kf_b in poses
    ]
    old_poses = dict(poses)
    initial = _total_residual(poses, valid_edges)
    _optimize_scalar(poses, valid_edges, fixed, iterations, step_scale)
    final = _total_residual(poses, valid_edges)
    # Write poses back and drag each map point with its anchor keyframe.
    corrections: Dict[int, SE3] = {}
    for kf_id, new_pose in poses.items():
        corrections[kf_id] = new_pose.inverse() * old_poses[kf_id]
        slam_map.keyframes[kf_id].pose_cw = new_pose
    for point in slam_map.mappoints.values():
        anchor = None
        for kf_id in point.observations:
            if kf_id in corrections:
                anchor = kf_id
                break
        if anchor is None:
            continue
        # x_w' = T_new^-1 * T_old * x_w keeps the point rigid
        # w.r.t. its anchor camera.
        point.position = corrections[anchor].apply(point.position)
    # Bulk position edit: invalidate packed matrices and search caches.
    slam_map.touch()
    return PoseGraphStats(
        iterations=iterations,
        initial_residual=initial,
        final_residual=final,
        n_edges=len(valid_edges),
        n_poses=len(poses),
    )


# ------------------------------------------------------------- device half
def estimate_global_shift_reference(
    reference: np.ndarray, frame: np.ndarray, search_range: int = 8,
    downsample: int = 2,
) -> Tuple[int, int]:
    """``estimate_global_shift`` as it was: one int16 ``abs(...).sum()``
    per (dy, dx) window, strict ``<`` so the first minimum wins."""
    ref = reference[::downsample, ::downsample].astype(np.int16)
    cur = frame[::downsample, ::downsample].astype(np.int16)
    r = max(search_range // downsample, 1)
    h, w = cur.shape
    margin = r
    core = cur[margin : h - margin, margin : w - margin]
    if core.size == 0:   # frame too small to search: no global motion
        return 0, 0
    best = (0, 0)
    best_sad = None
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            window = ref[
                margin - dy : h - margin - dy, margin - dx : w - margin - dx
            ]
            sad = int(np.abs(core - window).sum())
            if best_sad is None or sad < best_sad:
                best_sad = sad
                best = (dy, dx)
    return best[0] * downsample, best[1] * downsample


def render_frame_reference(
    positions: np.ndarray,
    landmark_ids: np.ndarray,
    camera: PinholeCamera,
    pose_cw: SE3,
    background: int = 110,
    noise_sigma: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    timestamp: float = 0.0,
) -> Image:
    """``render_frame`` as it was: one slice assignment per landmark, in
    landmark order, so a later patch overwrites an earlier one."""
    rng = rng or np.random.default_rng(0)
    pixels = np.full((camera.height, camera.width), background, dtype=np.float32)
    if noise_sigma > 0:
        pixels += rng.normal(scale=noise_sigma, size=pixels.shape)
    if len(positions):
        uv, _depth, valid = camera.project_world(positions, pose_cw)
        half = PATCH_SIZE // 2
        for idx in np.nonzero(valid)[0]:
            u, v = int(round(uv[idx, 0])), int(round(uv[idx, 1]))
            y0, y1 = v - half, v + half + 1
            x0, x1 = u - half, u + half + 1
            if y0 < 0 or x0 < 0 or y1 > camera.height or x1 > camera.width:
                continue
            pixels[y0:y1, x0:x1] = landmark_patch(int(landmark_ids[idx]))
    return Image(np.clip(pixels, 0, 255).astype(np.uint8), timestamp)


def shift_image(image: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift with edge replication (motion-compensated reference)."""
    shifted = np.roll(np.roll(image, dy, axis=0), dx, axis=1)
    if dy > 0:
        shifted[:dy, :] = shifted[dy : dy + 1, :] if dy < shifted.shape[0] else 0
    elif dy < 0:
        shifted[dy:, :] = shifted[dy - 1 : dy, :]
    if dx > 0:
        shifted[:, :dx] = shifted[:, dx : dx + 1]
    elif dx < 0:
        shifted[:, dx:] = shifted[:, dx - 1 : dx]
    return shifted


def predict_from_mvs(reference: np.ndarray, global_shift, mv_idx,
                     frame=None, block: int = 16) -> tuple:
    """``H264LikeCodec._predict_from_mvs`` as it was: one shifted copy per
    candidate, int16 SAD over a 4-D reshape, strict ``<`` so the first
    minimum wins, one ``np.kron`` mask per distinct vector."""
    h, w = reference.shape
    bh, bw = h // block, w // block
    crop_h, crop_w = bh * block, bw * block
    candidates = _candidate_offsets(tuple(global_shift))
    predicted = shift_image(reference, *global_shift).copy()
    if mv_idx is None:
        cur = frame[:crop_h, :crop_w].astype(np.int16)
        best_sad = None
        mv_idx = np.zeros((bh, bw), dtype=np.int8)
        shifted_cache = {}
        for idx, (dy, dx) in enumerate(candidates):
            shifted = shift_image(reference, dy, dx)[:crop_h, :crop_w]
            shifted_cache[idx] = shifted
            sad = (
                np.abs(cur - shifted.astype(np.int16))
                .reshape(bh, block, bw, block)
                .sum(axis=(1, 3))
            )
            if best_sad is None:
                best_sad = sad
                mv_idx[:] = idx
            else:
                better = sad < best_sad
                best_sad = np.where(better, sad, best_sad)
                mv_idx[better] = idx
    else:
        shifted_cache = {
            idx: shift_image(reference, dy, dx)[:crop_h, :crop_w]
            for idx, (dy, dx) in enumerate(candidates)
            if idx in np.unique(mv_idx)
        }
    for idx in np.unique(mv_idx):
        mask = np.kron(mv_idx == idx, np.ones((block, block), dtype=bool))
        predicted[:crop_h, :crop_w][mask] = shifted_cache[int(idx)][mask]
    return predicted, mv_idx


class H264LikeCodecReference(H264LikeCodec):
    """The codec with its ``int16`` / default-strategy entropy stage."""

    def encode(self, frame: np.ndarray) -> EncodedFrame:
        frame = np.ascontiguousarray(frame, dtype=np.uint8)
        start = time.perf_counter()
        if self._reference is not None and frame.shape != self._reference.shape:
            self._frame_index = 0   # a new resolution opens a new GOP
        intra = self._reference is None or self._frame_index % self.gop == 0
        if intra:
            quantized = self._quantize(frame, intra=True)
            reconstructed = np.clip(
                self._dequantize(quantized, intra=True), 0, 255
            ).astype(np.uint8)
            header = _SHIFT_HEADER.pack(0, 0)
            frame_type = "I"
        else:
            global_shift = estimate_global_shift(
                self._reference, frame, self.search_range
            )
            predicted, mv_idx = self._predict(self._reference, global_shift, frame=frame)
            residual = frame.astype(np.int16) - predicted.astype(np.int16)
            quantized = self._quantize(residual)
            reconstructed = np.clip(
                predicted.astype(np.int16) + self._dequantize(quantized), 0, 255
            ).astype(np.uint8)
            header = _SHIFT_HEADER.pack(*global_shift) + mv_idx.tobytes()
            frame_type = "P"
        data = header + zlib.compress(
            quantized.astype("<i2").tobytes(), self.compression_level
        )
        self._reference = reconstructed
        self._frame_index += 1
        return EncodedFrame(
            data=data,
            frame_type=frame_type,
            encode_time_s=time.perf_counter() - start,
            original_shape=frame.shape,
        )

    def decode(self, encoded: EncodedFrame) -> np.ndarray:
        dy, dx = _SHIFT_HEADER.unpack_from(encoded.data, 0)
        offset = _SHIFT_HEADER.size
        if encoded.frame_type == "P":
            n_mv = self._mv_bytes(encoded.original_shape)
            mv_idx = np.frombuffer(
                encoded.data, dtype=np.int8, count=n_mv, offset=offset
            ).reshape(
                encoded.original_shape[0] // self.block,
                encoded.original_shape[1] // self.block,
            )
            offset += n_mv
        quantized = np.frombuffer(
            zlib.decompress(encoded.data[offset:]), dtype="<i2"
        ).reshape(encoded.original_shape)
        if encoded.frame_type == "I":
            frame = np.clip(self._dequantize(quantized, intra=True), 0, 255).astype(
                np.uint8
            )
        else:
            if self._decoded_reference is None:
                raise ValueError("P-frame received before any I-frame")
            if self._decoded_reference.shape != encoded.original_shape:
                raise ValueError(
                    f"P-frame of shape {encoded.original_shape} does not match "
                    f"the decoded reference of shape {self._decoded_reference.shape}"
                )
            predicted, _ = self._predict(self._decoded_reference, (dy, dx), mv_idx)
            frame = np.clip(
                predicted.astype(np.int16) + self._dequantize(quantized), 0, 255
            ).astype(np.uint8)
        self._decoded_reference = frame
        return frame


_BINOMIAL = np.array([1.0, 2.0, 1.0]) / 4.0


def landmark_patch(landmark_id: int, size: int = PATCH_SIZE) -> np.ndarray:
    """The per-call landmark patch: ``np.convolve`` along every row, then
    every column, of a freshly drawn binary pattern."""
    rng = np.random.default_rng(0xC0FFEE + int(landmark_id))
    pattern = rng.integers(0, 2, size=(size, size)).astype(np.float64) * 200 + 30
    for axis in (0, 1):
        pattern = np.apply_along_axis(
            lambda row: np.convolve(row, _BINOMIAL, mode="same"), axis, pattern
        )
    return np.clip(pattern, 0, 255).astype(np.uint8)


# --------------------------------------------------------------- input side
def sample_reference(trajectory: Trajectory, timestamp: float) -> TrajectoryPoint:
    """``Trajectory.sample`` through ``np.searchsorted`` on a fresh time array."""
    times = trajectory.timestamps
    if not len(times):
        raise ValueError("cannot sample an empty trajectory")
    if timestamp <= times[0]:
        return trajectory[0]
    if timestamp >= times[-1]:
        return trajectory[len(trajectory) - 1]
    hi = int(np.searchsorted(times, timestamp))
    lo = hi - 1
    span = times[hi] - times[lo]
    alpha = float((timestamp - times[lo]) / span)
    a, b = trajectory[lo], trajectory[hi]
    return TrajectoryPoint(
        timestamp,
        (1.0 - alpha) * a.position + alpha * b.position,
        quaternion.slerp(a.orientation, b.orientation, alpha),
    )


def synthesize_imu_reference(
    trajectory: Trajectory,
    rate_hz: float = 200.0,
    noise: ImuNoiseModel = ImuNoiseModel(),
    seed: int = 11,
    with_noise: bool = True,
) -> List[ImuSample]:
    """``synthesize_imu`` drawing four size-3 normals per sample."""
    if len(trajectory) < 3:
        raise ValueError("need at least 3 trajectory samples for IMU synthesis")
    rng = np.random.default_rng(seed)
    knot_times = trajectory.timestamps
    positions = trajectory.positions
    orientations = trajectory.orientations
    t0, t1 = float(knot_times[0]), float(knot_times[-1])
    dt = 1.0 / rate_hz
    seg_dt = np.diff(knot_times)
    mid_times = (knot_times[:-1] + knot_times[1:]) / 2.0
    mid_vel = np.diff(positions, axis=0) / seg_dt[:, None]
    acc_times = knot_times[1:-1]
    acc = (mid_vel[1:] - mid_vel[:-1]) / (mid_times[1:] - mid_times[:-1])[:, None]
    omega_mid = np.stack(
        [
            _angular_velocity_body(orientations[k], orientations[k + 1], seg_dt[k])
            for k in range(len(seg_dt))
        ]
    )

    def interp_rows(query: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
        return np.column_stack(
            [np.interp(query, xp, fp[:, axis]) for axis in range(3)]
        )

    times = np.arange(t0, t1 - dt, dt)
    a_w_samples = interp_rows(times, acc_times, acc) if len(acc) else np.zeros(
        (len(times), 3)
    )
    omega_samples = interp_rows(times, mid_times, omega_mid)

    gyro_bias = np.zeros(3)
    accel_bias = np.zeros(3)
    gyro_sigma = noise.gyro_sigma(rate_hz) if with_noise else 0.0
    accel_sigma = noise.accel_sigma(rate_hz) if with_noise else 0.0

    samples: List[ImuSample] = []
    for i, t in enumerate(times):
        r_wb = quaternion.to_matrix(sample_reference(trajectory, float(t)).orientation)
        specific_force = r_wb.T @ (a_w_samples[i] - GRAVITY_W)
        omega = omega_samples[i].copy()
        if with_noise:
            gyro_bias = gyro_bias + rng.normal(
                scale=noise.gyro_bias_walk * np.sqrt(dt), size=3
            )
            accel_bias = accel_bias + rng.normal(
                scale=noise.accel_bias_walk * np.sqrt(dt), size=3
            )
            omega = omega + gyro_bias + rng.normal(scale=gyro_sigma, size=3)
            specific_force = (
                specific_force + accel_bias + rng.normal(scale=accel_sigma, size=3)
            )
        samples.append(ImuSample(float(t), omega, specific_force))
    return samples

