"""Bundle adjustment by alternating resection and intersection.

Local BA refines keyframe poses and map-point positions to minimize
reprojection error.  Rather than a monolithic sparse solver we alternate

* **resection**: re-solve each keyframe pose by Gauss-Newton PnP against
  the current points (poses are independent given points), and
* **intersection**: re-solve each point position by linear least squares
  against the current poses (points are independent given poses).

This block-coordinate descent converges to the same stationary points as
joint Gauss-Newton for these bipartite problems and is simple, robust
and easily bounded — which matters because the paper's architecture
point (§4.2.1) is precisely that BA-style serial refinement does *not*
benefit from GPU parallelism and stays on the CPU.

The intersection step flattens every (point, observation) pair into
packed arrays, accumulates the per-point 3x3 normal equations with
segment sums (``np.bincount`` in observation order, each depth row in
the slot right after its reprojection row, so floating-point
accumulation follows the per-point loop it replaced), solves all points
with one batched ``np.linalg.solve`` and writes them back through their
packed rows.  Resection solves each free keyframe's PnP on its block of
the same arrays.  The per-point loop lives on as
``tests/oracles.py::local_bundle_adjustment``, which the equivalence
suite holds this module to within 1e-9; the array body from before the
slots and blocks is ``local_bundle_adjustment_arrays_reference``, which
it must match byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

import numpy as np

from ..geometry import se3_batch
from ..obs import get_metrics, get_tracer
from ..vision.camera import PinholeCamera
from .map import SlamMap
from .pnp import solve_pnp

_tracer = get_tracer()
_metrics = get_metrics()
_ba_wall = _metrics.histogram(
    "ba.wall_ms", "wall-clock time per bundle-adjustment call", unit="ms"
)


@dataclass
class BAStats:
    iterations: int
    initial_error_px: float
    final_error_px: float
    n_keyframes: int
    n_points: int


@dataclass
class _ObsArrays:
    """All (point, observation) pairs of a BA window, flattened.

    ``seg[i]`` indexes ``point_ids``/``point_rows`` and ``kf_idx[i]``
    indexes ``kf_ids`` for observation ``i``; observations appear in
    window order (keyframe, then feature), which is exactly the order
    the per-point oracle accumulates them in.  Keyframe ``k``'s
    observations are the block ``kf_starts[k]:kf_starts[k + 1]``.
    """

    kf_ids: List[int]
    point_ids: np.ndarray     # (P,) unique map-point ids (ascending)
    point_rows: np.ndarray    # (P,) rows into the map's packed matrices
    seg: np.ndarray           # (M,) observation -> point index
    kf_idx: np.ndarray        # (M,) observation -> window keyframe index
    uv: np.ndarray            # (M, 2) observed pixels
    depth: np.ndarray         # (M,) measured depth (<= 0 when absent)
    counts: np.ndarray        # (P,) observations per point
    kf_starts: np.ndarray     # (K + 1,) block offsets per window keyframe

    @property
    def n_obs(self) -> int:
        return len(self.seg)


def _collect_observation_arrays(
    slam_map: SlamMap, keyframe_ids: List[int]
) -> _ObsArrays:
    """Single array pass over the window's features (no per-point dicts)."""
    pid_parts: List[np.ndarray] = []
    row_parts: List[np.ndarray] = []
    kf_parts: List[np.ndarray] = []
    uv_parts: List[np.ndarray] = []
    depth_parts: List[np.ndarray] = []
    kf_starts = np.zeros(len(keyframe_ids) + 1, dtype=np.intp)
    for kf_i, kf_id in enumerate(keyframe_ids):
        kf_starts[kf_i + 1] = kf_starts[kf_i]
        kf = slam_map.keyframes[kf_id]
        sel = np.nonzero(kf.point_ids >= 0)[0]
        if len(sel) == 0:
            continue
        rows = slam_map.lookup_point_rows(kf.point_ids[sel])
        ok = rows >= 0
        if not ok.any():
            continue
        sel = sel[ok]
        kf_starts[kf_i + 1] += len(sel)
        pid_parts.append(kf.point_ids[sel].astype(np.int64))
        row_parts.append(rows[ok])
        kf_parts.append(np.full(len(sel), kf_i, dtype=np.intp))
        uv_parts.append(np.asarray(kf.uv[sel], dtype=float))
        depth_parts.append(np.asarray(kf.depths[sel], dtype=float))
    if not pid_parts:
        empty = np.zeros(0, dtype=np.int64)
        return _ObsArrays(
            list(keyframe_ids), empty, np.zeros(0, dtype=np.intp),
            np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
            np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=np.intp),
            kf_starts,
        )
    pids = np.concatenate(pid_parts)
    rows = np.concatenate(row_parts)
    unique_pids, seg = np.unique(pids, return_inverse=True)
    point_rows = np.zeros(len(unique_pids), dtype=np.intp)
    point_rows[seg] = rows
    counts = np.bincount(seg, minlength=len(unique_pids))
    return _ObsArrays(
        kf_ids=list(keyframe_ids),
        point_ids=unique_pids,
        point_rows=point_rows,
        seg=seg.astype(np.intp),
        kf_idx=np.concatenate(kf_parts),
        uv=np.concatenate(uv_parts),
        depth=np.concatenate(depth_parts),
        counts=counts,
        kf_starts=kf_starts,
    )


def _segment_sum(values: np.ndarray, seg: np.ndarray, n: int) -> np.ndarray:
    """Sum ``values`` rows into ``n`` segments, in input order per segment.

    ``np.bincount`` accumulates sequentially over its input, so each
    segment's partial sums are formed in exactly the order the rows
    appear — the property that keeps the batched normal equations
    bit-compatible with the per-point oracle loop.
    """
    flat = values.reshape((len(values), -1))
    out = np.empty((n, flat.shape[1]))
    for col in range(flat.shape[1]):
        out[:, col] = np.bincount(seg, weights=flat[:, col], minlength=n)
    return out.reshape((n,) + tuple(values.shape[1:]))


def _window_pose_stack(slam_map: SlamMap, kf_ids: List[int]):
    return se3_batch.pack([slam_map.keyframes[k].pose_cw for k in kf_ids])


def _mean_reprojection_error(
    slam_map: SlamMap, camera: PinholeCamera, obs: _ObsArrays
) -> float:
    """One batched projection over every (point, observation) pair."""
    if obs.n_obs == 0:
        return 0.0
    rot, trans = _window_pose_stack(slam_map, obs.kf_ids)
    positions = slam_map.packed_positions()[obs.point_rows]
    p_cam = se3_batch.apply(rot[obs.kf_idx], trans[obs.kf_idx], positions[obs.seg])
    uv_hat, valid = camera.project(p_cam)
    if not valid.any():
        return 0.0
    err = np.linalg.norm(uv_hat - obs.uv, axis=1)
    return float(err[valid].mean())


def _refine_points(
    slam_map: SlamMap,
    camera: PinholeCamera,
    obs: _ObsArrays,
    min_observations: int,
) -> None:
    """Batched intersection: all points' normal equations at once.

    Reprojection alone leaves a point free to slide along the viewing
    ray when the observing baselines are short; the stereo/RGB-D depth
    residual (expressed in disparity-like pixel units so the two terms
    are commensurable) pins it down, exactly as ORB-SLAM3's stereo BA
    edges do.

    Per Gauss-Newton iteration the (point, observation) residual rows —
    reprojection plus, where measured, the depth row — are accumulated
    into per-point 3x3 systems by segment sums and solved with a single
    batched ``np.linalg.solve``.  Convergence/failure bookkeeping mirrors
    the oracle loop: a point whose step drops below 1e-10 freezes, a
    point whose system is singular reverts to its original position.
    """
    n_points = len(obs.point_ids)
    if n_points == 0 or obs.n_obs == 0:
        return
    active = obs.counts >= min_observations
    if not active.any():
        return
    rot, trans = _window_pose_stack(slam_map, obs.kf_ids)
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
        rot_m = rot_g[m]
        p_cam = se3_batch.apply(rot_m, trans_g[m], positions[seg_m])
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
        j = j_proj @ rot_m
        h_rows = np.einsum("nki,nkj->nij", j, j)
        g_rows = np.einsum("nki,nk->ni", j, r)
        dm = dep_ok[m]
        if dm.any():
            # Each depth row takes the slot right after its reprojection
            # row, so the segment sums accumulate in the oracle loop's
            # order (reproj_1, depth_1, reproj_2, ...), not grouped.
            inv_dm = inv_d[m][dm]
            j_d = (fx * inv_dm)[:, None] * rot_m[dm][:, 2, :]
            # Depth residual in pixel-like units: d(fx/z) ~ disparity.
            r_d = (z[dm] - depth[m][dm]) * fx * inv_dm
            slot = np.arange(n_m) + np.cumsum(dm) - dm
            depth_slot = slot[dm] + 1
            n_entries = n_m + len(depth_slot)
            h_entries = np.empty((n_entries, 3, 3))
            h_entries[slot] = h_rows
            h_entries[depth_slot] = np.einsum("ni,nj->nij", j_d, j_d)
            g_entries = np.empty((n_entries, 3))
            g_entries[slot] = g_rows
            g_entries[depth_slot] = j_d * r_d[:, None]
            entry_seg = np.empty(n_entries, dtype=seg.dtype)
            entry_seg[slot] = seg_m
            entry_seg[depth_slot] = seg_m[dm]
        else:
            h_entries, g_entries, entry_seg = h_rows, g_rows, seg_m
        h = _segment_sum(h_entries, entry_seg, n_points)
        g = _segment_sum(g_entries, entry_seg, n_points)
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
        slam_map.set_point_positions(obs.point_ids[good], positions[good],
                                     obs.point_rows[good])


def _resect_keyframes(
    slam_map: SlamMap,
    camera: PinholeCamera,
    obs: _ObsArrays,
    fixed: Set[int],
) -> None:
    """Refine each free keyframe pose by PnP against the current points.

    A keyframe's correspondences are its block of ``obs``: its features
    whose point is in the map, in feature order, with the points'
    packed rows (no point is added or removed during BA).
    """
    positions = slam_map.packed_positions()
    for kf_i, kf_id in enumerate(obs.kf_ids):
        start, stop = obs.kf_starts[kf_i], obs.kf_starts[kf_i + 1]
        if kf_id in fixed or stop - start < 6:
            continue
        kf = slam_map.keyframes[kf_id]
        pts = positions[obs.point_rows[obs.seg[start:stop]]]
        result = solve_pnp(pts, obs.uv[start:stop], camera, kf.pose_cw,
                           max_iterations=5)
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
    """Refine the given keyframes and the points they observe.

    ``fixed_keyframe_ids`` are included in the error terms but their
    poses are held constant (the standard local-BA gauge anchor).
    """
    keyframe_ids = [k for k in keyframe_ids if k in slam_map.keyframes]
    fixed = set(fixed_keyframe_ids or ())
    if not keyframe_ids:
        return BAStats(0, 0.0, 0.0, 0, 0)
    start = time.perf_counter()
    with _tracer.span("local_ba", n_keyframes=len(keyframe_ids)):
        with _tracer.span("ba.collect"):
            obs = _collect_observation_arrays(slam_map, keyframe_ids)
        initial_error = _mean_reprojection_error(slam_map, camera, obs)
        for _ in range(iterations):
            with _tracer.span("ba.intersection"):
                _refine_points(slam_map, camera, obs, min_observations)
            with _tracer.span("ba.resection"):
                _resect_keyframes(slam_map, camera, obs, fixed)
        final_error = _mean_reprojection_error(slam_map, camera, obs)
    _ba_wall.record((time.perf_counter() - start) * 1e3)
    return BAStats(
        iterations=iterations,
        initial_error_px=initial_error,
        final_error_px=final_error,
        n_keyframes=len(keyframe_ids),
        n_points=len(obs.point_ids),
    )


def global_bundle_adjustment(
    slam_map: SlamMap,
    camera: PinholeCamera,
    iterations: int = 3,
) -> BAStats:
    """BA over the entire map, anchoring the oldest keyframe."""
    all_ids = sorted(slam_map.keyframes)
    fixed = {all_ids[0]} if all_ids else set()
    return local_bundle_adjustment(
        slam_map,
        camera,
        all_ids,
        fixed_keyframe_ids=fixed,
        iterations=iterations,
    )
