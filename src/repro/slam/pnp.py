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
gets a Jacobian and normal equations — most trials are rejected.  Each
iteration tries its first damping trial alone; if that is rejected, the
other seven rungs of the ladder are solved, perturbed, projected and
scored in one stacked pass.  The final inlier test reads the projection
the kept pose was scored with; RANSAC classifies its hypotheses with
the same projection and inlier test.  Every result is the
one-trial-at-a-time loop's to the bit
(``tests/oracles.py::solve_pnp_reference``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..geometry import SE3, so3
from ..geometry.se3 import _EPS as _EXP_EPS, _I3
from ..vision.camera import PinholeCamera

DEFAULT_PIXEL_SIGMA = 0.6       # px, keypoint localization noise
DEFAULT_POINT_SIGMA = 0.02      # m, map-point position noise
DEFAULT_DEPTH_SIGMA_REL = 0.02  # relative stereo-depth noise
DEFAULT_HUBER_DELTA = 2.0       # in whitened (sigma) units
DEFAULT_INLIER_SIGMA = 4.0      # whitened inlier gate

_sum = np.add.reduce   # what ndarray.sum() runs, without its wrapper


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
    points_w: np.ndarray,
    uv_rows: np.ndarray,
    rotations: np.ndarray,
    translations: np.ndarray,
    camera: PinholeCamera,
) -> Tuple[np.ndarray, np.ndarray]:
    """Camera-frame coordinates ``(k, 3, n)`` and pixel residuals
    ``(k, 2, n)`` under each pose of a ``(k, 3, 3)`` / ``(k, 3)`` stack.

    ``uv_rows`` holds the measured pixels as rows ``(2, n)``.  One row
    per coordinate, so every operation runs along points; each pose's
    product is :meth:`SE3.apply`'s ``points @ R.T``.
    """
    cam = np.add((points_w @ rotations.transpose(0, 2, 1)).transpose(0, 2, 1),
                 translations[:, :, None],
                 out=np.empty((len(rotations), 3, len(points_w))))
    focal = np.array([[camera.fx], [camera.fy]])
    centre = np.array([[camera.cx], [camera.cy]])
    residual = cam[:, :2] * focal / np.maximum(cam[:, 2], 1e-6)[:, None] + centre
    residual -= uv_rows
    return cam, residual


def _jacobian(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, camera: PinholeCamera
) -> np.ndarray:
    """Jacobian (2n, 6) of the pixel residuals wrt a left twist, at
    camera-frame points with coordinates ``x``, ``y``, ``z`` (n,).

    Twist ordering is (translation, rotation), matching
    :meth:`repro.geometry.SE3.exp`.  Rows alternate u, v per point.
    """
    inv_z = 1.0 / np.maximum(z, 1e-6)
    inv_z2 = inv_z * inv_z
    # jac[c] is column c, one (u row, v row) pair per point.
    jac = np.zeros((6, 2, len(z)))
    np.multiply(camera.fx, inv_z, out=jac[0, 0])
    np.multiply(-camera.fx * x, inv_z2, out=jac[2, 0])
    np.multiply(camera.fy, inv_z, out=jac[1, 1])
    np.multiply(-camera.fy * y, inv_z2, out=jac[2, 1])
    # Left perturbation: p_cam' = p_cam + rho + omega x p_cam, so
    # d p_cam / d rho = I and d p_cam / d omega = -[p_cam]x.
    # For a row vector a: -a @ hat(p) = p x a, written out term for
    # term in the order numpy's cross product evaluates it (zero terms
    # too, so even signed zeros agree with it).
    a0, a1, a2 = jac[0], jac[1], jac[2]
    np.subtract(y * a2, z * a1, out=jac[3])
    np.subtract(z * a0, x * a2, out=jac[4])
    np.subtract(x * a1, y * a0, out=jac[5])
    return jac.transpose(2, 1, 0).reshape(-1, 6)


def _whitening_sigmas(
    depths: np.ndarray,
    camera: PinholeCamera,
    pixel_sigma: float,
    point_sigma: float,
) -> np.ndarray:
    """Residual std-dev (px) per correspondence, shaped like ``depths``."""
    leverage = camera.fx / np.maximum(depths, 1e-3)
    return np.sqrt(pixel_sigma ** 2 + (leverage * point_sigma) ** 2)


def _huber_weights(whitened: np.ndarray, delta: float) -> np.ndarray:
    """IRLS weights: 1 inside ``delta``, ``delta / |r|`` beyond it."""
    return delta / np.fmax(np.abs(whitened), delta)


def _inliers(
    cam: np.ndarray, residual: np.ndarray, sigma: np.ndarray, inlier_sigma: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(inlier mask, per-point pixel errors) of one pose's :func:`_project`
    rows, ``(3, n)`` and ``(2, n)``, with its whitening sigmas ``(n,)``."""
    err_px = np.linalg.norm(residual.T, axis=1)
    inliers = (err_px / sigma < inlier_sigma) & (cam[2] > 1e-6)
    return inliers, err_px


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
    cam, residual = _project(points_w, np.ascontiguousarray(uv.T),
                             pose.rotation[None], pose.translation[None], camera)
    sigma = _whitening_sigmas(cam[0, 2], camera, pixel_sigma, point_sigma)
    return _inliers(cam[0], residual[0], sigma, inlier_sigma)


def _perturb_stack(
    pose: SE3, steps: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Rotations ``(k, 3, 3)`` and translations ``(k, 3)`` of
    ``pose.perturb(step)`` for each row of a ``(k, 6)`` step stack.

    Row ``i`` equals :meth:`SE3.perturb` to the bit.  Each product keeps
    the form of the scalar one: ``theta`` squared as a 1x1 product (the
    1-D norm's dot), matrix times vector as a ``(3, 3) @ (3, 1)`` product
    (a row-vector ``t @ R.T`` need not round as ``R @ t`` does).  Rows
    with ``theta < 1e-10`` take the scalar map's first-order branch.
    """
    rho, omega = steps[:, :3], steps[:, 3:]
    theta = np.sqrt((omega[:, None, :] @ omega[:, :, None])[:, 0, 0])
    small = theta < _EXP_EPS
    theta = np.where(small, 1.0, theta)[:, None, None]
    hat = so3.hat_batch(omega)
    k = hat / theta          # hat(omega / theta): negation commutes
    kk = k @ k
    sin, one_minus_cos = np.sin(theta), 1.0 - np.cos(theta)
    rotation = _I3 + sin * k + one_minus_cos * kk
    v = _I3 + (one_minus_cos / theta) * k + ((theta - sin) / theta) * kk
    if small.any():
        small = small[:, None, None]
        rotation = np.where(small, _I3 + hat, rotation)
        v = np.where(small, _I3 + 0.5 * hat, v)
    translation = (
        (rotation @ pose.translation[:, None])[:, :, 0]
        + (v @ rho[:, :, None])[:, :, 0]
    )
    return rotation @ pose.rotation, translation


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
    n = len(points_w)
    have_depth = None
    n_d = 0
    if depths is not None:
        depths = np.asarray(depths, dtype=float)
        have_depth = depths > 0
        if not have_depth.any():
            have_depth = None
        else:
            depths = depths[have_depth]
            sigma_d = np.maximum(depth_sigma_rel * depths, 1e-3)
            sigma_d2 = sigma_d ** 2
            points_d = points_w[have_depth]
            n_d = len(depths)
            if n_d == n:
                have_depth = slice(None)   # the same columns, as views
    uv_rows = np.ascontiguousarray(uv.T)

    def _score(rotations: np.ndarray, translations: np.ndarray):
        """Robust cost of each pose of a (k, 3, 3) / (k, 3) stack, and
        the state that linearises it there.

        Element for element this is the one-pose evaluation, and each
        cost is summed as the same 1-D arrays, in the same order, as
        that evaluation summed it.  A point counts only in front of the
        camera (z > 1e-6).
        """
        k = len(rotations)
        cam, residual = _project(points_w, uv_rows, rotations, translations, camera)
        z = cam[:, 2]
        sigma = _whitening_sigmas(z, camera, pixel_sigma, point_sigma)
        # Whitened residuals interleaved u, v per point, as the per-pose
        # evaluation laid them out, then the depth residuals.
        whitened = np.empty((k, 2 * n + n_d))
        np.divide(residual[:, 0], sigma, out=whitened[:, 0:2 * n:2])
        np.divide(residual[:, 1], sigma, out=whitened[:, 1:2 * n:2])
        r_d = None
        if have_depth is not None:
            r_d = z[:, have_depth] - depths
            np.divide(r_d, sigma_d, out=whitened[:, 2 * n:])
        # Huber: 0.5 a^2 within delta, delta (a - delta / 2) beyond.
        # With q = min(a, delta) both are q (a - q / 2): halving is
        # exact, so this is 0.5 * a * a and delta * (a - 0.5 * delta)
        # to the bit.
        a = np.abs(whitened)
        q = np.minimum(a, huber_delta)
        huber = q * (a - 0.5 * q)
        all_front = z.min(axis=1) > 1e-6
        costs = []
        for i in range(k):
            if all_front[i]:
                cost = float(_sum(huber[i, :2 * n]))
                if n_d:
                    cost += float(_sum(huber[i, 2 * n:]))
            else:
                front = z[i] > 1e-6
                cost = float(_sum(huber[i, :2 * n].reshape(n, 2)[front].reshape(-1)))
                if n_d:
                    in_front = front[have_depth]
                    if in_front.any():
                        cost += float(_sum(huber[i, 2 * n:][in_front]))
            costs.append(cost)
        return costs, (cam, residual, sigma, whitened, all_front, r_d)

    def _linearise(pose: SE3, scored, i: int):
        """IRLS hessian and gradient at row ``i`` of a :func:`_score` state."""
        cam, residual, sigma, whitened, all_front, r_d = scored
        x, y, z = cam[i]
        jac = _jacobian(x, y, z, camera)
        weights = _huber_weights(whitened[i, :2 * n].reshape(n, 2), huber_delta)
        weights /= (sigma[i] ** 2)[:, None]
        front = None
        if not all_front[i]:
            front = z > 1e-6
            weights[~front] = 0.0
        jw = jac * weights.reshape(-1, 1)
        hessian = jw.T @ jac
        gradient = jw.T @ residual[i].T.reshape(-1)
        if not n_d:
            return hessian, gradient
        points, r_d, whitened_d, s_d2 = (
            points_d, r_d[i], whitened[i, 2 * n:], sigma_d2)
        if front is not None:
            in_front = front[have_depth]
            if not in_front.any():
                return hessian, gradient
            points, r_d, whitened_d, s_d2 = (
                points[in_front], r_d[in_front], whitened_d[in_front],
                s_d2[in_front])
        # d z / d (rho, omega) for a left twist:
        # [0, 0, 1, p_y, -p_x, 0].
        j_d = np.zeros((len(r_d), 6))
        j_d[:, 2] = 1.0
        if front is None and n_d == n:
            # Every point: the scored coordinates are this product.
            j_d[:, 3] = y
            np.negative(x, out=j_d[:, 4])
        else:
            # Transformed again rather than sliced from the scored
            # points: a matmul over fewer rows need not round the same,
            # and this is the product the pinned poses were computed with.
            rotated = points @ pose.rotation.T
            np.add(rotated[:, 1], pose.translation[1], out=j_d[:, 3])
            np.add(rotated[:, 0], pose.translation[0], out=j_d[:, 4])
            np.negative(j_d[:, 4], out=j_d[:, 4])
        w_d = _huber_weights(whitened_d, huber_delta)
        w_d /= s_d2
        jw_d = j_d * w_d[:, None]
        hessian += jw_d.T @ j_d
        gradient += jw_d.T @ r_d
        return hessian, gradient

    # Levenberg-Marquardt: accept a step only if the robust cost drops.
    # (Plain Gauss-Newton on the IRLS normal equations can stall at
    # non-minima of the robust cost; we hit exactly that in tracking.)
    # Each iteration linearises the pose it starts from and tries the
    # damping ladder lam, 10 lam, ..., 10**7 lam from it: the first
    # trial alone (an iteration that is not the last mostly keeps it),
    # the other seven solved, perturbed and scored in one stacked pass,
    # of which the first in ladder order that lowers the cost is kept.
    pose = initial_pose
    costs, scored = _score(pose.rotation[None], pose.translation[None])
    cost, row = costs[0], 0
    lam = 1e-4
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        hessian, gradient = _linearise(pose, scored, row)
        damping = np.diag(np.maximum(np.diag(hessian), 1e-9))
        accepted = False
        for n_trials in (1, 7):
            lams = []
            for _ in range(n_trials):
                lams.append(lam)
                lam *= 10.0
            damped = hessian + np.array(lams)[:, None, None] * damping
            try:
                # The right-hand side as one (6, 1) column broadcast over
                # the stack: numpy 1.x and 2.x both read that as a matrix
                # per system (a 1-D one against a stack is an error
                # before numpy 2).
                steps = np.linalg.solve(damped, -gradient[None, :, None])[..., 0]
            except np.linalg.LinAlgError:
                # Skip the trials whose own solve fails, as a ladder
                # solved one trial at a time does.
                kept = []
                for i in range(n_trials):
                    try:
                        kept.append((lams[i], np.linalg.solve(damped[i], -gradient)))
                    except np.linalg.LinAlgError:
                        pass
                if not kept:
                    continue
                lams = [lam_i for lam_i, _ in kept]
                steps = np.stack([step for _, step in kept])
            if n_trials == 1:
                # One step: the scalar map costs two thirds of a stack of one.
                candidate = pose.perturb(steps[0])
                rotations = candidate.rotation[None]
                translations = candidate.translation[None]
            else:
                rotations, translations = _perturb_stack(pose, steps)
            new_costs, new_scored = _score(rotations, translations)
            for i, new_cost in enumerate(new_costs):
                if new_cost < cost:
                    if n_trials > 1:
                        candidate = SE3(rotations[i], translations[i])
                    pose, cost, scored, row = candidate, new_cost, new_scored, i
                    lam = max(lams[i] * 0.3, 1e-9)
                    accepted = True
                    if np.linalg.norm(steps[i]) < convergence_tol:
                        converged = True
                    break
            if accepted:
                break
        if not accepted or converged:
            converged = converged or not accepted
            break
    # Inliers under the last kept pose, from the projection its cost
    # was scored with.
    inliers, err_px = _inliers(*(part[row] for part in scored[:3]), inlier_sigma)
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
