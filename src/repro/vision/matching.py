"""Feature matching: brute-force Hamming and search-by-projection.

``search_by_projection`` is the *search local points* step the paper
identifies as ~30% of tracking latency (Fig. 5): every map point in the
local map is projected into the current frame and matched against the
frame's descriptors inside a window.  The system runs
:func:`search_by_projection_vectorized`: prune candidate pairs with a
spatial frame grid (ORB-SLAM's ``GetFeaturesInArea``, one broadcast over
every centre's cell box) before any Hamming work, then resolve the
greedy one-to-one assignment from the pruned pair list (the GPU kernel
of §4.2.1).  Both matchers return one :class:`Matches`: parallel int
arrays, never one object per match, so the tracker gathers PnP's inputs
straight from them.  The point-by-point loop of default ORB-SLAM3 — the
CPU-sequential side of the paper's A4 kernel comparison
(``benchmarks/bench_ablation_kernels.py``) and the reference the
vectorized output must equal — is the oracle in ``tests/oracles.py``,
beside the per-cell span loop the grid replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .brief import hamming_distance_matrix, hamming_distance_pairs

DEFAULT_MATCH_THRESHOLD = 64  # bits out of 256
DEFAULT_RATIO = 0.8


@dataclass
class Matches:
    """Correspondences as parallel int arrays, in ascending query order.

    Row ``i`` matches query (map point) ``query_idx[i]`` to train
    (frame feature) ``train_idx[i]`` at Hamming ``distance[i]``;
    ``len()`` is the number of matches.
    """

    query_idx: np.ndarray
    train_idx: np.ndarray
    distance: np.ndarray

    def __len__(self) -> int:
        return len(self.query_idx)


_NONE = np.zeros(0, dtype=np.intp)
NO_MATCHES = Matches(_NONE, _NONE, _NONE)


def match_descriptors(
    query: np.ndarray,
    train: np.ndarray,
    max_distance: int = DEFAULT_MATCH_THRESHOLD,
    ratio: float = DEFAULT_RATIO,
    cross_check: bool = True,
    am=None,  # unread; kept while the perf ledger pins it (ROADMAP 21)
) -> Matches:
    """Brute-force Hamming matching with Lowe ratio and cross check."""
    if len(query) == 0 or len(train) == 0:
        return NO_MATCHES
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
    rows = np.flatnonzero(keep)
    return Matches(rows, best[rows], best_dist[rows])


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
            self.origin = np.zeros(2)
            self.n_cu = self.n_cv = 1
            self.order = np.zeros(0, dtype=np.intp)
            self.starts = np.zeros(2, dtype=np.intp)
            return
        self.origin = uv.min(axis=0)
        cu = ((uv[:, 0] - self.origin[0]) / self.cell_size).astype(np.intp)
        cv = ((uv[:, 1] - self.origin[1]) / self.cell_size).astype(np.intp)
        self.n_cu = int(cu.max()) + 1
        self.n_cv = int(cv.max()) + 1
        cells = cv * self.n_cu + cu
        # CSR layout: features sorted by cell (row-major), and cell c's
        # features at order[starts[c]:starts[c + 1]].
        self.order = np.argsort(cells, kind="stable").astype(np.intp)
        counts = np.bincount(cells, minlength=self.n_cu * self.n_cv)
        self.starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)

    def candidate_pairs(
        self, centers: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All (center index, feature index) pairs within cell-box range.

        The returned pairs cover every feature whose cell overlaps the
        ``2 radius`` square around each center — a superset of the true
        radius neighbours; callers apply the exact circular test.  Each
        pair occurs once; their order is unspecified.
        """
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        n_centers = len(centers)
        empty = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
        if n_centers == 0 or self.n_features == 0:
            return empty
        cs = self.cell_size
        span = int(np.ceil(2.0 * radius / cs)) + 1
        last = np.array([self.n_cu - 1, self.n_cv - 1])
        # Each center's box of cells, as (u, v) columns: first cell
        # clipped into the grid, last cell at most span - 1 past it.
        lo = np.floor((centers - radius - self.origin) / cs).astype(np.intp)
        hi = np.floor((centers + radius - self.origin) / cs).astype(np.intp)
        off = (hi < 0).any(axis=1)  # wholly before the grid on an axis
        np.clip(lo, 0, last, out=lo)
        np.minimum(hi, np.minimum(lo + (span - 1), last), out=hi)
        np.maximum(hi, lo, out=hi)
        # One broadcast over every (center, dv) row of every box: a box
        # row's cells are adjacent in the row-major CSR, so it is one
        # range of ``order``; rows past the box's end are empty.
        rows = lo[:, 1, None] + np.arange(span, dtype=np.intp)
        inside = rows <= hi[:, 1, None]
        inside[off] = False
        row_first = np.minimum(rows, hi[:, 1, None]) * self.n_cu + lo[:, 0, None]
        begins = self.starts[row_first].ravel()
        ends = self.starts[row_first + (hi[:, 0, None] - lo[:, 0, None] + 1)]
        counts = ((ends.ravel() - begins) * inside.ravel())
        # Expand the CSR ranges into flat (center, feature) pairs.
        offsets = np.cumsum(counts)
        total = int(offsets[-1])
        if total == 0:
            return empty
        flat = np.arange(total, dtype=np.intp) + np.repeat(
            begins - (offsets - counts), counts
        )
        center_of_row = np.arange(n_centers * span, dtype=np.intp) // span
        return np.repeat(center_of_row, counts), self.order[flat]


def _walk_conflicts(
    pair_feat: np.ndarray, begins: np.ndarray, ends: np.ndarray, n_feats: int
) -> list:
    """The sequential greedy walk over the given point runs, in order.

    ``begins[j]:ends[j]`` are one point's pair rows, best first; the
    point keeps its first row whose feature no earlier walked point
    took.  Returns the kept rows.
    """
    feats = pair_feat.tolist()
    used = bytearray(n_feats)
    kept = []
    for lo, hi in zip(begins.tolist(), ends.tolist()):
        for k in range(lo, hi):
            if not used[feats[k]]:
                used[feats[k]] = 1
                kept.append(k)
                break
    return kept


def _greedy_assign(
    pair_point: np.ndarray,
    pair_feat: np.ndarray,
    pair_dist: np.ndarray,
    n_feats: int,
) -> Matches:
    """One-to-one greedy assignment identical to the sequential reference.

    Pairs are sorted by ``(point, distance, feature)``; walking that
    order reproduces the point-by-point loop exactly: points claim
    features in ascending point order, each taking its lowest-distance unused
    candidate (ties to the lowest feature index).  When every point's
    first choice is distinct — the common tracking case — the whole
    assignment resolves without the walk.  Otherwise a point whose first
    choice no other point lists keeps it and touches no other point, so
    only the rest are walked.
    """
    if len(pair_point) == 0:
        return NO_MATCHES
    # The pairs are unique, so one sort of a packed key is the full
    # (point, distance, feature) order.
    n_dist = int(pair_dist.max()) + 1
    key = (pair_point.astype(np.int64) * n_dist + pair_dist) * n_feats + pair_feat
    order = np.argsort(key, kind="stable")
    pp = pair_point[order]
    pf = pair_feat[order]
    pd = pair_dist[order]
    begins = np.flatnonzero(np.diff(pp, prepend=-1))  # each point's first row
    best_feats = pf[begins]
    if np.bincount(best_feats).max() == 1:
        return Matches(pp[begins], best_feats, pd[begins])
    contested = np.bincount(pf, minlength=n_feats)[best_feats] > 1
    ends = np.append(begins[1:], len(pp))
    walked = _walk_conflicts(pf, begins[contested], ends[contested], n_feats)
    kept = np.sort(
        np.concatenate([begins[~contested], np.asarray(walked, dtype=np.intp)])
    )
    return Matches(pp[kept], pf[kept], pd[kept])


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
) -> Matches:
    """Data-parallel search-local-points (the GPU kernel formulation).

    The frame grid prunes the ``points x features`` cross product to
    the pairs whose cells overlap the search window; the exact radius
    test, pair-sparse Hamming popcount and sort-based greedy
    assignment then run only on the survivors.  Output is identical to
    the point-by-point oracle in ``tests/oracles.py`` (tests assert
    this): a :class:`Matches` in ascending point order.  Pass a
    prebuilt ``grid`` to amortize binning across repeated searches of
    one frame.

    ``point_words`` / ``frame_words`` are optional descriptor blocks
    already in the Hamming word layout
    (:func:`repro.vision.brief.descriptor_words`), so the tracker builds
    them once per local-map pack and once per frame, shared across the
    narrow / wide-retry / refine searches.  When ``point_descriptors``
    (and ``point_words``) hold more rows than ``projected_uv`` (the
    tracker passes the full local-map pack), ``point_rows[i]`` gives the
    descriptor row of projected point ``i``.
    """
    n_points = len(projected_uv)
    n_feats = len(frame_uv)
    if n_points == 0 or n_feats == 0:
        return NO_MATCHES
    projected_uv = np.atleast_2d(np.asarray(projected_uv, dtype=float))
    frame_uv = np.atleast_2d(np.asarray(frame_uv, dtype=float))
    if grid is None:
        grid = FrameGrid(frame_uv)
    pair_point, pair_feat = grid.candidate_pairs(projected_uv, radius)
    if len(pair_point) == 0:
        return NO_MATCHES
    # 1-D gathers per axis; du² + dv² is the row sum of squares to the bit.
    du = projected_uv[:, 0][pair_point] - frame_uv[:, 0][pair_feat]
    dv = projected_uv[:, 1][pair_point] - frame_uv[:, 1][pair_feat]
    within = du * du + dv * dv <= radius * radius
    pair_point = pair_point[within]
    pair_feat = pair_feat[within]
    if len(pair_point) == 0:
        return NO_MATCHES
    idx_a = pair_point
    if point_rows is not None:
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
        pair_point[close], pair_feat[close], dist[close], n_feats
    )
