"""Point-set alignment (Horn / Umeyama) and trajectory alignment.

Two uses in this repo:

* **Map merging** (Alg. 2's ``3DAlign``): estimate the Sim(3) between the
  matched map points of a client map and the global map.
* **ATE evaluation**: before computing absolute trajectory error, the
  estimated trajectory is aligned to ground truth the same way the
  standard TUM evaluation scripts do.
"""

from __future__ import annotations

import numpy as np

from .se3 import SE3
from .sim3 import Sim3


def umeyama(
    source: np.ndarray, target: np.ndarray, with_scale: bool = True
) -> Sim3:
    """Least-squares similarity aligning ``source`` points onto ``target``.

    Solves ``min sum ||target_i - (s R source_i + t)||^2`` using the
    closed form of Umeyama (1991).  Both inputs are ``(n, 3)`` arrays with
    row correspondence; ``n >= 3`` non-degenerate points are required.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 3:
        raise ValueError(f"point sets must both be (n, 3); got {source.shape} vs {target.shape}")
    n = source.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 correspondences, got {n}")

    mu_src = source.mean(axis=0)
    mu_tgt = target.mean(axis=0)
    src_c = source - mu_src
    tgt_c = target - mu_tgt

    cov = tgt_c.T @ src_c / n
    u, d, vt = np.linalg.svd(cov)
    s_fix = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s_fix[2, 2] = -1.0
    rotation = u @ s_fix @ vt

    if with_scale:
        var_src = (src_c ** 2).sum() / n
        if var_src <= 0:
            raise ValueError("degenerate source point set (zero variance)")
        scale = float((d * np.diag(s_fix)).sum() / var_src)
        if scale <= 0:
            raise ValueError("alignment produced non-positive scale")
    else:
        scale = 1.0

    translation = mu_tgt - scale * (rotation @ mu_src)
    return Sim3(rotation, translation, scale)


def horn_se3(source: np.ndarray, target: np.ndarray) -> SE3:
    """Rigid (no scale) least-squares alignment of ``source`` onto ``target``."""
    sim = umeyama(source, target, with_scale=False)
    return SE3(sim.rotation, sim.translation)


def alignment_rmse(source: np.ndarray, target: np.ndarray, transform: Sim3) -> float:
    """Root-mean-square residual of ``transform`` applied to ``source``."""
    residual = np.asarray(target, dtype=float) - transform.apply(source)
    return float(np.sqrt((residual ** 2).sum(axis=1).mean()))


def _umeyama_batch(source: np.ndarray, target: np.ndarray, with_scale: bool):
    """:func:`umeyama` over a stack of ``(h, k, 3)`` sample sets at once.

    Returns ``(rotation (h,3,3), translation (h,3), scale (h,), valid (h,))``;
    ``valid`` is False exactly where :func:`umeyama` would have raised
    (zero source variance, non-positive scale, non-finite covariance).
    """
    k = source.shape[1]
    mu_src = source.mean(axis=1)
    mu_tgt = target.mean(axis=1)
    src_c = source - mu_src[:, None, :]
    tgt_c = target - mu_tgt[:, None, :]

    cov = tgt_c.transpose(0, 2, 1) @ src_c / k
    valid = np.isfinite(cov).all(axis=(1, 2))
    # One non-finite matrix would make the whole batched SVD raise.
    cov[~valid] = np.eye(3)
    u, d, vt = np.linalg.svd(cov)
    sign = np.ones_like(d)
    sign[np.linalg.det(u) * np.linalg.det(vt) < 0, 2] = -1.0
    rotation = (u * sign[:, None, :]) @ vt

    if with_scale:
        var_src = (src_c ** 2).sum(axis=(1, 2)) / k
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = (d * sign).sum(axis=1) / var_src
        valid &= (var_src > 0) & (scale > 0)
    else:
        scale = np.ones(len(cov))
    translation = mu_tgt - scale[:, None] * (rotation @ mu_src[:, :, None])[:, :, 0]
    return rotation, translation, scale, valid


def ransac_umeyama(
    source: np.ndarray,
    target: np.ndarray,
    rng: np.random.Generator,
    with_scale: bool = True,
    iterations: int = 100,
    inlier_threshold: float = 0.25,
    min_inliers: int = 6,
) -> tuple:
    """Robust alignment tolerating outlier correspondences.

    Returns ``(Sim3, inlier_mask)`` or ``(None, None)`` when no model with
    at least ``min_inliers`` support is found.  Used by map merging where
    BoW feature matches contain wrong associations.

    The minimal samples are drawn one ``rng.choice`` at a time (the
    generator's stream is part of a seeded run's contract) and then all
    hypotheses are fitted and scored in one batch.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    n = source.shape[0]
    if n < 3 or iterations < 1:
        return None, None

    samples = np.array(
        [rng.choice(n, size=3, replace=False) for _ in range(iterations)]
    )
    rotation, translation, scale, valid = _umeyama_batch(
        source[samples], target[samples], with_scale
    )
    with np.errstate(invalid="ignore"):
        mapped = (
            scale[:, None, None] * (source @ rotation.transpose(0, 2, 1))
            + translation[:, None, :]
        )
        masks = np.linalg.norm(target - mapped, axis=2) < inlier_threshold
    counts = np.where(valid, masks.sum(axis=1), 0)
    # argmax keeps the first of equal counts, as a strict ``>`` scan would.
    best = int(np.argmax(counts))
    if counts[best] < max(min_inliers, 3):
        return None, None
    best_mask = masks[best]

    # Refit on all inliers for the final estimate.
    refined = umeyama(source[best_mask], target[best_mask], with_scale=with_scale)
    residual = np.linalg.norm(target - refined.apply(source), axis=1)
    final_mask = residual < inlier_threshold
    if final_mask.sum() < max(min_inliers, 3):
        return None, None
    return refined, final_mask
