"""Pose-graph (essential-graph) optimization.

After a loop closure or a map merge, ORB-SLAM3 distributes the loop
correction over the keyframe graph by optimizing relative-pose
constraints (the *essential graph*: covisibility edges above a weight
threshold plus loop edges).  We relax the standard residual

    r_ij = log( T_ij_measured^-1 * (T_i * T_j^-1) )

where T_i are world->camera poses and T_ij_measured the relative poses
captured when the edge was created.  Map points are then corrected by
re-expressing them relative to their anchor keyframe.

The solver is damped Jacobi relaxation: every sweep computes, for each
free pose, the weighted average twist its neighbours' constraints
predict for it — against the sweep-start poses — and applies all the
updates together.  The schedule is order-independent, which is what
makes batching possible: one sweep is two pose-stack composes, one
batched log over every edge and a pair of segment sums.  The same
schedule in per-edge :class:`~repro.geometry.SE3` arithmetic lives on as
``tests/oracles.py::optimize_pose_graph``, which the equivalence suite
holds this module to within 1e-9.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..geometry import SE3, se3_batch
from ..obs import get_metrics, get_tracer
from .bundle_adjustment import _segment_sum
from .map import SlamMap

MIN_ESSENTIAL_WEIGHT = 20  # covisibility weight for essential-graph edges

_tracer = get_tracer()
_metrics = get_metrics()
_pg_wall = _metrics.histogram(
    "pose_graph.wall_ms", "wall-clock time per pose-graph optimization", unit="ms"
)


@dataclass
class PoseGraphEdge:
    """A relative-pose constraint between two keyframes."""

    kf_a: int
    kf_b: int
    relative: SE3          # T_a * T_b^-1 at edge creation
    weight: float = 1.0
    is_loop_edge: bool = False


@dataclass
class PoseGraphStats:
    iterations: int
    initial_residual: float
    final_residual: float
    n_edges: int
    n_poses: int


def build_essential_graph(
    slam_map: SlamMap,
    min_weight: int = MIN_ESSENTIAL_WEIGHT,
    extra_edges: Optional[List[PoseGraphEdge]] = None,
) -> List[PoseGraphEdge]:
    """Covisibility edges above the weight threshold, plus sequential
    odometry edges (so the graph stays connected) and any loop edges."""
    edges: List[PoseGraphEdge] = []
    seen: Set[Tuple[int, int]] = set()

    def add(kf_a: int, kf_b: int, weight: float, loop: bool = False) -> None:
        key = (min(kf_a, kf_b), max(kf_a, kf_b))
        if key in seen or kf_a == kf_b:
            return
        pose_a = slam_map.keyframes[kf_a].pose_cw
        pose_b = slam_map.keyframes[kf_b].pose_cw
        edges.append(
            PoseGraphEdge(kf_a, kf_b, pose_a * pose_b.inverse(), weight, loop)
        )
        seen.add(key)

    ordered = sorted(slam_map.keyframes)
    for a, b in zip(ordered, ordered[1:]):
        add(a, b, weight=float(MIN_ESSENTIAL_WEIGHT))
    # Each undirected covisibility edge once, seen from whichever of its
    # endpoints entered the graph first: edge order is insertion order.
    done = set()
    for kf_a, neighbours in slam_map.covisibility.items():
        for kf_b, weight in neighbours.items():
            if kf_b not in done and weight >= min_weight:
                add(kf_a, kf_b, weight=float(weight))
        done.add(kf_a)
    for edge in extra_edges or []:
        key = (min(edge.kf_a, edge.kf_b), max(edge.kf_a, edge.kf_b))
        if key not in seen:
            edges.append(edge)
            seen.add(key)
    return edges


class _EdgeArrays:
    """Edges of a pose graph packed for the batched sweeps."""

    def __init__(
        self, edges: List[PoseGraphEdge], index: Dict[int, int]
    ) -> None:
        self.n = len(edges)
        self.a_idx = np.fromiter(
            (index[e.kf_a] for e in edges), dtype=np.intp, count=self.n
        )
        self.b_idx = np.fromiter(
            (index[e.kf_b] for e in edges), dtype=np.intp, count=self.n
        )
        self.rel_rot, self.rel_trans = se3_batch.pack(
            [e.relative for e in edges]
        )
        self.inv_rot, self.inv_trans = se3_batch.inverse(
            self.rel_rot, self.rel_trans
        )
        self.weight = np.fromiter(
            (e.weight for e in edges), dtype=float, count=self.n
        )
        # Interleaved (a, b) contribution layout: per-node accumulation
        # order in the segment sums matches the per-edge oracle's
        # edge-scan order exactly.
        self.seg = np.empty(2 * self.n, dtype=np.intp)
        self.seg[0::2] = self.a_idx
        self.seg[1::2] = self.b_idx
        self.weight2 = np.repeat(self.weight, 2)

    def residual(self, rot: np.ndarray, trans: np.ndarray) -> float:
        if self.n == 0:
            return 0.0
        rb_inv, tb_inv = se3_batch.inverse(rot[self.b_idx], trans[self.b_idx])
        rab, tab = se3_batch.compose(
            rot[self.a_idx], trans[self.a_idx], rb_inv, tb_inv
        )
        dr, dt = se3_batch.compose(self.inv_rot, self.inv_trans, rab, tab)
        twists = se3_batch.log(dr, dt)
        return float(np.sum(self.weight * np.sum(twists ** 2, axis=1)))


def _sweeps(
    rot: np.ndarray,
    trans: np.ndarray,
    edges: _EdgeArrays,
    free: np.ndarray,
    iterations: int,
    step_scale: float,
) -> None:
    """Run the relaxation sweeps in place on the packed pose stack."""
    n_nodes = len(rot)
    if edges.n == 0 or not free.any():
        return
    weight_sum = np.bincount(edges.seg, weights=edges.weight2, minlength=n_nodes)
    update = free & (weight_sum > 0)
    if not update.any():
        return
    twists = np.empty((2 * edges.n, 6))
    for _ in range(iterations):
        # Node a's prediction from each edge: rel * T_b, and node b's:
        # rel^-1 * T_a; the residual twist is log(predicted * T_node^-1).
        pr, pt = se3_batch.compose(
            edges.rel_rot, edges.rel_trans, rot[edges.b_idx], trans[edges.b_idx]
        )
        ira, ita = se3_batch.inverse(rot[edges.a_idx], trans[edges.a_idx])
        dra, dta = se3_batch.compose(pr, pt, ira, ita)
        qr, qt = se3_batch.compose(
            edges.inv_rot, edges.inv_trans, rot[edges.a_idx], trans[edges.a_idx]
        )
        irb, itb = se3_batch.inverse(rot[edges.b_idx], trans[edges.b_idx])
        drb, dtb = se3_batch.compose(qr, qt, irb, itb)
        twists[0::2] = edges.weight[:, None] * se3_batch.log(dra, dta)
        twists[1::2] = edges.weight[:, None] * se3_batch.log(drb, dtb)
        twist_sum = _segment_sum(twists, edges.seg, n_nodes)
        steps = step_scale * twist_sum[update] / weight_sum[update][:, None]
        er, et = se3_batch.exp(steps)
        nr, nt = se3_batch.compose(er, et, rot[update], trans[update])
        rot[update] = nr
        trans[update] = nt


def optimize_pose_graph(
    slam_map: SlamMap,
    edges: List[PoseGraphEdge],
    fixed: Optional[Set[int]] = None,
    iterations: int = 12,
    step_scale: float = 0.7,
) -> PoseGraphStats:
    """Distribute corrections over the graph by damped relaxation sweeps.

    Each sweep moves every free pose toward the weighted average of what
    its neighbours' constraints predict for it (see the module
    docstring for the schedule).  Map points follow their anchor
    keyframe's correction.  Edges naming keyframes that are not in the
    map are skipped and excluded from the reported ``n_edges``.
    """
    fixed = set(fixed or ())
    poses: Dict[int, SE3] = {
        kf_id: kf.pose_cw for kf_id, kf in slam_map.keyframes.items()
    }
    valid_edges = [
        e for e in edges if e.kf_a in poses and e.kf_b in poses
    ]
    start = time.perf_counter()
    with _tracer.span(
        "pose_graph", n_edges=len(valid_edges), n_poses=len(poses)
    ):
        node_ids = list(poses)
        index = {kf_id: i for i, kf_id in enumerate(node_ids)}
        rot, trans = se3_batch.pack([poses[k] for k in node_ids])
        old_rot, old_trans = rot.copy(), trans.copy()
        edge_arrays = _EdgeArrays(valid_edges, index)
        free = np.fromiter(
            (k not in fixed for k in node_ids), dtype=bool,
            count=len(node_ids),
        )
        initial = edge_arrays.residual(rot, trans)
        with _tracer.span("pg.sweeps", iterations=iterations):
            _sweeps(rot, trans, edge_arrays, free, iterations, step_scale)
        final = edge_arrays.residual(rot, trans)
        with _tracer.span("pg.anchor_correction"):
            # Per-node correction new^-1 * old (x_w' = T_new^-1 * T_old *
            # x_w keeps a point rigid w.r.t. its anchor camera), applied
            # to each point's anchor group via one gathered matmul.
            ir, it = se3_batch.inverse(rot, trans)
            corr_rot, corr_trans = se3_batch.compose(
                ir, it, old_rot, old_trans
            )
            for i, kf_id in enumerate(node_ids):
                slam_map.keyframes[kf_id].pose_cw = SE3(rot[i], trans[i])
            pids: List[int] = []
            anchor_rows: List[int] = []
            pos_rows: List[np.ndarray] = []
            for pid, point in slam_map.mappoints.items():
                for kf_id in point.observations:
                    row = index.get(kf_id)
                    if row is not None:
                        pids.append(pid)
                        anchor_rows.append(row)
                        pos_rows.append(point.position)
                        break
            if pids:
                rows = np.asarray(anchor_rows, dtype=np.intp)
                new_pos = se3_batch.apply(
                    corr_rot[rows], corr_trans[rows], np.array(pos_rows)
                )
                for pid, pos in zip(pids, new_pos):
                    slam_map.mappoints[pid].position = np.array(
                        pos, dtype=float
                    )
        # Bulk position edit: invalidate packed matrices and search caches.
        slam_map.touch()
    _pg_wall.record((time.perf_counter() - start) * 1e3)
    return PoseGraphStats(
        iterations=iterations,
        initial_residual=initial,
        final_residual=final,
        n_edges=len(valid_edges),
        n_poses=len(poses),
    )
