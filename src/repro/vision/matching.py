"""Feature matching: brute-force Hamming and search-by-projection.

``search_by_projection`` is the *search local points* step the paper
identifies as ~30% of tracking latency (Fig. 5): every map point in the
local map is projected into the current frame and matched against the
frame's descriptors inside a window.  The system runs
:func:`search_by_projection_vectorized`: prune candidate pairs with a
spatial frame grid (ORB-SLAM's ``GetFeaturesInArea``) before any Hamming
work, then resolve the greedy one-to-one assignment from the pruned pair
list (the GPU kernel of §4.2.1).  The point-by-point loop of default
ORB-SLAM3 — the CPU-sequential side of the paper's A4 kernel comparison
(``benchmarks/bench_ablation_kernels.py``) and the reference the
vectorized output must equal — is the oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .brief import hamming_distance_matrix, hamming_distance_pairs

DEFAULT_MATCH_THRESHOLD = 64  # bits out of 256
DEFAULT_RATIO = 0.8


@dataclass
class Match:
    """A correspondence between a query index and a train index."""

    query_idx: int
    train_idx: int
    distance: int


def match_descriptors(
    query: np.ndarray,
    train: np.ndarray,
    max_distance: int = DEFAULT_MATCH_THRESHOLD,
    ratio: float = DEFAULT_RATIO,
    cross_check: bool = True,
    am=None,  # unread; kept while the perf ledger pins it (ROADMAP 21)
) -> List[Match]:
    """Brute-force Hamming matching with Lowe ratio and cross check."""
    if len(query) == 0 or len(train) == 0:
        return []
    qi_all = np.arange(len(query))
    distances = hamming_distance_matrix(query, train)
    best = np.argmin(distances, axis=1)
    best_dist = distances[qi_all, best]
    keep = best_dist <= max_distance
    if len(train) > 1:
        # Second-smallest per row in one partition (ties with the best
        # value keep the same semantics as masking the best column).
        second = np.partition(distances, 1, axis=1)[:, 1]
        keep &= ~((second > 0) & (best_dist > ratio * second))
    if cross_check:
        keep &= np.argmin(distances, axis=0)[best] == qi_all
    return [
        Match(int(qi), int(best[qi]), int(best_dist[qi]))
        for qi in np.nonzero(keep)[0]
    ]


class FrameGrid:
    """Spatial hash of frame features (ORB-SLAM-style ``mGrid``).

    Features are binned once into square cells; a radius query returns
    the candidate features of every cell overlapping the search window,
    so the exact radius test (and all Hamming work) runs only on a
    small candidate set instead of the full ``points x features`` cross
    product.  Build it once per frame and reuse it across the
    narrow/wide/refine searches of one tracked frame.
    """

    def __init__(self, uv: np.ndarray, cell_size: float = 16.0) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        uv = np.atleast_2d(np.asarray(uv, dtype=float))
        self.n_features = len(uv)
        if self.n_features == 0:
            self.u0 = self.v0 = 0.0
            self.n_cu = self.n_cv = 1
            self.order = np.zeros(0, dtype=np.intp)
            self.starts = np.zeros(1, dtype=np.intp)
            self.counts = np.zeros(1, dtype=np.intp)
            return
        self.u0 = float(uv[:, 0].min())
        self.v0 = float(uv[:, 1].min())
        cu = ((uv[:, 0] - self.u0) / self.cell_size).astype(np.intp)
        cv = ((uv[:, 1] - self.v0) / self.cell_size).astype(np.intp)
        self.n_cu = int(cu.max()) + 1
        self.n_cv = int(cv.max()) + 1
        cells = cv * self.n_cu + cu
        # CSR layout: features sorted by cell, plus per-cell offsets.
        self.order = np.argsort(cells, kind="stable").astype(np.intp)
        self.counts = np.bincount(cells, minlength=self.n_cu * self.n_cv).astype(
            np.intp
        )
        self.starts = np.concatenate(
            [[0], np.cumsum(self.counts)[:-1]]
        ).astype(np.intp)

    def candidate_pairs(
        self, centers: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All (center index, feature index) pairs within cell-box range.

        The returned pairs cover every feature whose cell overlaps the
        ``2 radius`` square around each center — a superset of the true
        radius neighbours; callers apply the exact circular test.
        """
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        n_centers = len(centers)
        empty = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
        if n_centers == 0 or self.n_features == 0:
            return empty
        cs = self.cell_size
        cu_lo = np.floor((centers[:, 0] - radius - self.u0) / cs).astype(np.intp)
        cu_hi = np.floor((centers[:, 0] + radius - self.u0) / cs).astype(np.intp)
        cv_lo = np.floor((centers[:, 1] - radius - self.v0) / cs).astype(np.intp)
        cv_hi = np.floor((centers[:, 1] + radius - self.v0) / cs).astype(np.intp)
        np.clip(cu_lo, 0, self.n_cu - 1, out=cu_lo)
        np.clip(cv_lo, 0, self.n_cv - 1, out=cv_lo)
        cu_hi_c = np.minimum(cu_hi, self.n_cu - 1)
        cv_hi_c = np.minimum(cv_hi, self.n_cv - 1)
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
                cells = cv[ok] * self.n_cu + cu[ok]
                counts = self.counts[cells]
                nonempty = counts > 0
                if not nonempty.any():
                    continue
                pts_parts.append(center_idx[ok][nonempty])
                starts_parts.append(self.starts[cells][nonempty])
                counts_parts.append(counts[nonempty])
        if not pts_parts:
            return empty
        pts = np.concatenate(pts_parts)
        starts = np.concatenate(starts_parts)
        counts = np.concatenate(counts_parts)
        # Expand the CSR ranges into flat (center, feature) pairs.
        total = int(counts.sum())
        ends = np.cumsum(counts)
        begins = ends - counts
        flat = (
            np.arange(total, dtype=np.intp)
            - np.repeat(begins, counts)
            + np.repeat(starts, counts)
        )
        return np.repeat(pts, counts), self.order[flat]


def _greedy_assign(
    pair_point: np.ndarray,
    pair_feat: np.ndarray,
    pair_dist: np.ndarray,
    n_points: int,
    n_feats: int,
) -> List[Match]:
    """One-to-one greedy assignment identical to the sequential reference.

    Pairs are sorted by ``(point, distance, feature)``; walking that
    order reproduces the point-by-point loop exactly: points claim
    features in ascending point order, each taking its lowest-distance unused
    candidate (ties to the lowest feature index).  When every point's
    first choice is distinct — the common tracking case — the whole
    assignment resolves without the walk.
    """
    if len(pair_point) == 0:
        return []
    order = np.lexsort((pair_feat, pair_dist, pair_point))
    pp = pair_point[order]
    pf = pair_feat[order]
    pd = pair_dist[order]
    uniq_points, first_idx = np.unique(pp, return_index=True)
    best_feats = pf[first_idx]
    if len(np.unique(best_feats)) == len(best_feats):
        return [
            Match(int(pi), int(fi), int(di))
            for pi, fi, di in zip(uniq_points, best_feats, pd[first_idx])
        ]
    matches: List[Match] = []
    assigned = np.zeros(n_points, dtype=bool)
    used = np.zeros(n_feats, dtype=bool)
    for pi, fi, di in zip(pp.tolist(), pf.tolist(), pd.tolist()):
        if assigned[pi] or used[fi]:
            continue
        assigned[pi] = True
        used[fi] = True
        matches.append(Match(int(pi), int(fi), int(di)))
    return matches


def search_by_projection_vectorized(
    projected_uv: np.ndarray,
    point_descriptors: np.ndarray,
    frame_uv: np.ndarray,
    frame_descriptors: np.ndarray,
    radius: float = 8.0,
    max_distance: int = DEFAULT_MATCH_THRESHOLD,
    grid: Optional[FrameGrid] = None,
    point_words: Optional[np.ndarray] = None,
    frame_words: Optional[np.ndarray] = None,
    point_rows: Optional[np.ndarray] = None,
) -> List[Match]:
    """Data-parallel search-local-points (the GPU kernel formulation).

    The frame grid prunes the ``points x features`` cross product to
    the pairs whose cells overlap the search window; the exact radius
    test, pair-sparse Hamming popcount and argsort-based greedy
    assignment then run only on the survivors.  Output is identical to
    the point-by-point oracle in ``tests/oracles.py`` (tests assert
    this).  Pass a prebuilt ``grid`` to amortize binning across
    repeated searches of one frame.

    ``point_words`` / ``frame_words`` are optional descriptor blocks
    already in the Hamming word layout
    (:func:`repro.vision.brief.descriptor_words`), so the tracker builds
    them once per local-map pack and once per frame, shared across the
    narrow / wide-retry / refine searches.  When ``point_words`` holds a
    superset of ``point_descriptors`` (the tracker views the full
    local-map pack once), ``point_rows[i]`` gives its row of point row
    ``i``.
    """
    n_points = len(projected_uv)
    n_feats = len(frame_uv)
    if n_points == 0 or n_feats == 0:
        return []
    projected_uv = np.atleast_2d(np.asarray(projected_uv, dtype=float))
    frame_uv = np.atleast_2d(np.asarray(frame_uv, dtype=float))
    if grid is None:
        grid = FrameGrid(frame_uv)
    pair_point, pair_feat = grid.candidate_pairs(projected_uv, radius)
    if len(pair_point) == 0:
        return []
    diff = projected_uv[pair_point] - frame_uv[pair_feat]
    within = (diff * diff).sum(axis=1) <= radius * radius
    pair_point = pair_point[within]
    pair_feat = pair_feat[within]
    if len(pair_point) == 0:
        return []
    idx_a = pair_point
    if point_rows is not None and point_words is not None:
        # The word block covers the whole local-map pack; translate
        # subset rows to its rows before the gather.
        idx_a = np.asarray(point_rows, dtype=np.intp)[pair_point]
    dist = hamming_distance_pairs(
        point_descriptors,
        frame_descriptors,
        idx_a,
        pair_feat,
        words_a=point_words,
        words_b=frame_words,
    )
    close = dist <= max_distance
    return _greedy_assign(
        pair_point[close], pair_feat[close], dist[close], n_points, n_feats
    )

