"""Pose estimation from 3D-2D correspondences (PnP).

Gauss-Newton minimization of robust (Huber) reprojection error over an
SE(3) pose, with an optional RANSAC wrapper for outlier rejection.
This is the *pose optimization* step of tracking: given map points
matched to pixels in the current frame, solve for the camera pose.

Residuals are whitened per-correspondence: the measurement noise of a
match is pixel noise *plus* the map point's own position uncertainty
projected into the image, which scales as ``fx / z``.  Without this,
one very close landmark (huge leverage) with a centimeter-level map
error can drag the pose estimate tens of centimeters — exactly the
failure mode we observed on close-clutter fly-bys.

The Levenberg–Marquardt loop linearises lazily: a damping trial costs
one projection and its robust cost, and only a pose the loop steps from
gets a Jacobian and normal equations — most trials are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..geometry import SE3
from ..vision.camera import PinholeCamera

DEFAULT_PIXEL_SIGMA = 0.6       # px, keypoint localization noise
DEFAULT_POINT_SIGMA = 0.02      # m, map-point position noise
DEFAULT_DEPTH_SIGMA_REL = 0.02  # relative stereo-depth noise
DEFAULT_HUBER_DELTA = 2.0       # in whitened (sigma) units
DEFAULT_INLIER_SIGMA = 4.0      # whitened inlier gate


@dataclass
class PnPResult:
    pose_cw: SE3
    inliers: np.ndarray          # boolean mask over the input correspondences
    mean_error_px: float
    iterations: int
    converged: bool

    @property
    def n_inliers(self) -> int:
        return int(self.inliers.sum())


def _project(
    pose_cw: SE3, points_w: np.ndarray, uv: np.ndarray, camera: PinholeCamera
) -> Tuple[np.ndarray, np.ndarray]:
    """Camera-frame points (n, 3) and pixel residuals (2n,) under a pose."""
    pts_cam = pose_cw.apply(points_w)
    z_safe = np.maximum(pts_cam[:, 2], 1e-6)
    u_hat = camera.fx * pts_cam[:, 0] / z_safe + camera.cx
    v_hat = camera.fy * pts_cam[:, 1] / z_safe + camera.cy
    residual = np.column_stack([u_hat - uv[:, 0], v_hat - uv[:, 1]])
    return pts_cam, residual.reshape(-1)


def _jacobian(pts_cam: np.ndarray, camera: PinholeCamera) -> np.ndarray:
    """Jacobian (2n, 6) of the pixel residuals wrt a left twist.

    Twist ordering is (translation, rotation), matching
    :meth:`repro.geometry.SE3.exp`.
    """
    n = len(pts_cam)
    inv_z = 1.0 / np.maximum(pts_cam[:, 2], 1e-6)
    inv_z2 = inv_z * inv_z
    jac = np.zeros((n, 2, 6))
    jac[:, 0, 0] = camera.fx * inv_z
    jac[:, 0, 2] = -camera.fx * pts_cam[:, 0] * inv_z2
    jac[:, 1, 1] = camera.fy * inv_z
    jac[:, 1, 2] = -camera.fy * pts_cam[:, 1] * inv_z2
    # Left perturbation: p_cam' = p_cam + rho + omega x p_cam, so
    # d p_cam / d rho = I and d p_cam / d omega = -[p_cam]x.
    # For a row vector a: -a @ hat(p) = p x a, written out term for
    # term in the order numpy's cross product evaluates it (zero terms
    # too, so even signed zeros agree with it).
    a0, a1, a2 = jac[:, :, 0], jac[:, :, 1], jac[:, :, 2]
    x, y, z = pts_cam[:, 0:1], pts_cam[:, 1:2], pts_cam[:, 2:3]
    jac[:, :, 3] = y * a2 - z * a1
    jac[:, :, 4] = z * a0 - x * a2
    jac[:, :, 5] = x * a1 - y * a0
    return jac.reshape(-1, 6)


def _whitening_sigmas(
    depths: np.ndarray,
    camera: PinholeCamera,
    pixel_sigma: float,
    point_sigma: float,
) -> np.ndarray:
    """Per-correspondence residual std-dev (px), repeated for u and v."""
    leverage = camera.fx / np.maximum(depths, 1e-3)
    sigma = np.sqrt(pixel_sigma ** 2 + (leverage * point_sigma) ** 2)
    return np.repeat(sigma, 2)


def _huber_weights(whitened: np.ndarray, delta: float) -> np.ndarray:
    abs_r = np.abs(whitened)
    weights = np.ones_like(whitened)
    outside = abs_r > delta
    weights[outside] = delta / abs_r[outside]
    return weights


def _classify(
    pose: SE3,
    points_w: np.ndarray,
    uv: np.ndarray,
    camera: PinholeCamera,
    pixel_sigma: float,
    point_sigma: float,
    inlier_sigma: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """(inlier mask, per-point pixel errors) under a pose."""
    pts_cam, residual = _project(pose, points_w, uv, camera)
    depth = pts_cam[:, 2]
    err_px = np.linalg.norm(residual.reshape(-1, 2), axis=1)
    sigma = _whitening_sigmas(depth, camera, pixel_sigma, point_sigma)[::2]
    inliers = (err_px / sigma < inlier_sigma) & (depth > 1e-6)
    return inliers, err_px


def solve_pnp(
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

    def _cost(pose: SE3):
        """Robust cost at a pose, and the state that linearises it there."""
        pts_cam, residual = _project(pose, points_w, uv, camera)
        z = pts_cam[:, 2]
        sigma = _whitening_sigmas(z, camera, pixel_sigma, point_sigma)
        whitened = residual / sigma
        valid = np.repeat(z > 1e-6, 2)
        cost = _huber_cost(whitened[valid])
        depth_term = None
        if have_depth is not None:
            mask = have_depth & (z > 1e-6)
            if mask.any():
                sigma_d = np.maximum(depth_sigma_rel * depths[mask], 1e-3)
                r_d = z[mask] - depths[mask]
                whitened_d = r_d / sigma_d
                cost += _huber_cost(whitened_d)
                depth_term = (mask, sigma_d, r_d, whitened_d)
        return cost, (pose, pts_cam, residual, sigma, whitened, valid, depth_term)

    def _linearise(state):
        """IRLS hessian and gradient from a :func:`_cost` state."""
        pose, pts_cam, residual, sigma, whitened, valid, depth_term = state
        jac = _jacobian(pts_cam, camera)
        weights = _huber_weights(whitened, huber_delta) / (sigma ** 2)
        weights[~valid] = 0.0
        jw = jac * weights[:, None]
        hessian = jw.T @ jac
        gradient = jw.T @ residual
        if depth_term is not None:
            mask, sigma_d, r_d, whitened_d = depth_term
            # Transformed again rather than sliced from pts_cam: a matmul
            # over fewer rows need not round the same, and this is the
            # product the pinned poses were computed with.
            pts_cam_d = pose.apply(points_w[mask])
            # d z / d (rho, omega) for a left twist:
            # [0, 0, 1, p_y, -p_x, 0].
            j_d = np.zeros((len(r_d), 6))
            j_d[:, 2] = 1.0
            j_d[:, 3] = pts_cam_d[:, 1]
            j_d[:, 4] = -pts_cam_d[:, 0]
            w_d = _huber_weights(whitened_d, huber_delta) / (sigma_d ** 2)
            jw_d = j_d * w_d[:, None]
            hessian += jw_d.T @ j_d
            gradient += jw_d.T @ r_d
        return hessian, gradient

    # Levenberg-Marquardt: accept a step only if the robust cost drops.
    # (Plain Gauss-Newton on the IRLS normal equations can stall at
    # non-minima of the robust cost; we hit exactly that in tracking.)
    # Each iteration linearises the pose it starts from; a damping
    # trial only evaluates its cost.
    pose = initial_pose
    cost, state = _cost(pose)
    lam = 1e-4
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        hessian, gradient = _linearise(state)
        damping = np.diag(np.maximum(np.diag(hessian), 1e-9))
        accepted = False
        for _ in range(8):
            damped = hessian + lam * damping
            try:
                step = np.linalg.solve(damped, -gradient)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = pose.perturb(step)
            new_cost, new_state = _cost(candidate)
            if new_cost < cost:
                pose, cost, state = candidate, new_cost, new_state
                lam = max(lam * 0.3, 1e-9)
                accepted = True
                if np.linalg.norm(step) < convergence_tol:
                    converged = True
                break
            lam *= 10.0
        if not accepted or converged:
            converged = converged or not accepted
            break
    inliers, err_px = _classify(
        pose, points_w, uv, camera, pixel_sigma, point_sigma, inlier_sigma
    )
    mean_err = float(err_px[inliers].mean()) if inliers.any() else float("inf")
    return PnPResult(pose, inliers, mean_err, iterations, converged)


def solve_pnp_ransac(
    points_w: np.ndarray,
    uv: np.ndarray,
    camera: PinholeCamera,
    initial_pose: SE3,
    rng: np.random.Generator,
    ransac_iterations: int = 30,
    sample_size: int = 6,
    inlier_sigma: float = DEFAULT_INLIER_SIGMA,
    min_inliers: int = 8,
    pixel_sigma: float = DEFAULT_PIXEL_SIGMA,
    point_sigma: float = DEFAULT_POINT_SIGMA,
) -> Optional[PnPResult]:
    """RANSAC-wrapped PnP for heavily contaminated matches.

    The initial pose seeds every hypothesis (tracking always has a
    motion-model prior), so few iterations suffice.
    """
    points_w = np.asarray(points_w, dtype=float)
    uv = np.asarray(uv, dtype=float)
    n = len(points_w)
    if n < sample_size:
        return None
    best: Optional[PnPResult] = None
    for _ in range(ransac_iterations):
        idx = rng.choice(n, size=sample_size, replace=False)
        candidate = solve_pnp(
            points_w[idx], uv[idx], camera, initial_pose, max_iterations=5,
            pixel_sigma=pixel_sigma, point_sigma=point_sigma,
        )
        inliers, err_px = _classify(
            candidate.pose_cw, points_w, uv, camera,
            pixel_sigma, point_sigma, inlier_sigma,
        )
        if best is None or inliers.sum() > best.n_inliers:
            best = PnPResult(
                candidate.pose_cw, inliers,
                float(err_px[inliers].mean()) if inliers.any() else float("inf"),
                candidate.iterations, candidate.converged,
            )
            if best.n_inliers > 0.9 * n:
                break
    if best is None or best.n_inliers < min_inliers:
        return None
    refined = solve_pnp(
        points_w[best.inliers], uv[best.inliers], camera, best.pose_cw,
        pixel_sigma=pixel_sigma, point_sigma=point_sigma,
    )
    inliers, err_px = _classify(
        refined.pose_cw, points_w, uv, camera,
        pixel_sigma, point_sigma, inlier_sigma,
    )
    if inliers.sum() < min_inliers:
        return None
    return PnPResult(
        refined.pose_cw, inliers,
        float(err_px[inliers].mean()) if inliers.any() else float("inf"),
        refined.iterations, refined.converged,
    )
