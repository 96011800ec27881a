"""The SLAM map: keyframes, map points and the covisibility graph.

One :class:`SlamMap` instance is a client's local map in single-user
operation, or the *global map* shared by all clients in SLAM-Share.
Multi-client id management follows §4.3.1 of the paper: each client is
assigned a disjoint id range so keyframe/map-point indices never collide
when maps are merged.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..geometry import Trajectory, TrajectoryPoint, quaternion
from .keyframe import KeyFrame
from .mappoint import MapPoint

# Id space carved per client: client c allocates ids in
# [c * CLIENT_ID_STRIDE, (c+1) * CLIENT_ID_STRIDE).
CLIENT_ID_STRIDE = 10_000_000


class IdAllocator:
    """Collision-free id allocation across clients (paper §4.3.1)."""

    def __init__(self, client_id: int = 0) -> None:
        if client_id < 0:
            raise ValueError("client_id must be non-negative")
        self.client_id = client_id
        self._next = client_id * CLIENT_ID_STRIDE

    def allocate(self) -> int:
        value = self._next
        self._next += 1
        if self._next >= (self.client_id + 1) * CLIENT_ID_STRIDE:
            raise RuntimeError(f"id space exhausted for client {self.client_id}")
        return value

    def reserve_until(self, next_id: int) -> None:
        """Skip ids below ``next_id`` within this client's range.

        A restored map may already hold entities this client id minted
        in a previous session; reserving past them keeps fresh
        allocations collision-free across sessions.
        """
        if next_id <= self._next:
            return
        if next_id > (self.client_id + 1) * CLIENT_ID_STRIDE:
            raise ValueError(
                f"id {next_id} outside client {self.client_id}'s range"
            )
        self._next = next_id

    @staticmethod
    def owner_of(entity_id: int) -> int:
        """Which client id range an id belongs to."""
        return entity_id // CLIENT_ID_STRIDE


class _PackedPointArrays:
    """Dense ``(n, 3)`` / ``(n, 32)`` mirrors of a map's point table.

    The matching kernels want matrix inputs; rebuilding them from the
    Python object table on every search is the dominant per-frame cost
    the paper's Fig. 5 attributes to *search local points*.  The mirror
    is maintained incrementally: point insertions append (amortized via
    capacity doubling), position refinements overwrite their rows, and
    only out-of-band bulk edits (``touch``) force a rebuild.
    """

    def __init__(self) -> None:
        self.positions = np.zeros((0, 3), dtype=float)
        self.descriptors = np.zeros((0, 0), dtype=np.uint8)
        self.row_of: Dict[int, int] = {}
        self.ids: List[int] = []  # row -> point id (inverse of row_of)
        self.n = 0

    def rebuild(self, mappoints: Dict[int, MapPoint]) -> None:
        self.n = len(mappoints)
        self.row_of = {pid: row for row, pid in enumerate(mappoints)}
        self.ids = list(mappoints)
        if self.n == 0:
            self.positions = np.zeros((0, 3), dtype=float)
            self.descriptors = np.zeros((0, 0), dtype=np.uint8)
            return
        self.positions = np.array(
            [p.position for p in mappoints.values()], dtype=float
        )
        self.descriptors = np.stack(
            [p.descriptor for p in mappoints.values()]
        ).astype(np.uint8)

    def _grow(self, desc_width: int) -> None:
        capacity = max(2 * max(len(self.positions), 1), self.n + 1)
        new_pos = np.zeros((capacity, 3), dtype=float)
        new_pos[: self.n] = self.positions[: self.n]
        self.positions = new_pos
        new_desc = np.zeros((capacity, desc_width), dtype=np.uint8)
        new_desc[: self.n, : self.descriptors.shape[1]] = self.descriptors[: self.n]
        self.descriptors = new_desc

    def append(self, point: MapPoint) -> None:
        width = len(point.descriptor)
        if self.n >= len(self.positions) or self.descriptors.shape[1] != width:
            self._grow(width)
        self.positions[self.n] = point.position
        self.descriptors[self.n] = point.descriptor
        self.row_of[point.point_id] = self.n
        self.ids.append(point.point_id)
        self.n += 1

    def remove(self, point_id: int) -> None:
        """O(1) swap-remove: the last row moves into the freed slot.

        Eviction and fusion delete points one at a time; rebuilding the
        whole mirror per deletion would make every eviction pass O(n)
        in the map size, which is exactly the cost cliff the budgets
        exist to avoid.  Row order is not part of the contract (callers
        address rows through ``row_of``), so swapping is safe.
        """
        row = self.row_of.pop(point_id, None)
        if row is None:
            return
        last = self.n - 1
        if row != last:
            moved_id = self.ids[last]
            self.positions[row] = self.positions[last]
            self.descriptors[row] = self.descriptors[last]
            self.ids[row] = moved_id
            self.row_of[moved_id] = row
        self.ids.pop()
        self.n = last

    def gather(self, point_ids: List[int]) -> "Tuple[np.ndarray, np.ndarray]":
        rows = np.fromiter(
            (self.row_of[pid] for pid in point_ids), dtype=np.intp,
            count=len(point_ids),
        )
        return self.positions[rows], self.descriptors[rows]


class SlamMap:
    """Keyframes + map points + covisibility, with basic bookkeeping.

    ``covisibility`` is the undirected covisibility graph as an
    adjacency dict, ``{kf_id: {other_kf_id: shared_points}}``, with
    both directions stored.  Nodes and neighbours keep insertion order.

    Every mutation bumps ``version``; caches keyed on it (packed point
    matrices here, the tracker's local-map cache) invalidate exactly
    when the map actually changed rather than once per query.
    """

    def __init__(self, map_id: int = 0) -> None:
        self.map_id = map_id
        self.keyframes: Dict[int, KeyFrame] = {}
        self.mappoints: Dict[int, MapPoint] = {}
        self.covisibility: Dict[int, Dict[int, int]] = {}
        self._version = 0
        self._packed = _PackedPointArrays()
        self._packed_dirty = True
        # LRU bookkeeping for eviction: keyframe id -> last-use tick.
        self._use_tick = 0
        self._kf_last_use: Dict[int, int] = {}
        # Entities evicted since the last drain; the serving layer
        # reconciles these against the shared store and BoW database.
        self._evicted_keyframes: List[int] = []
        self._evicted_points: List[int] = []

    # --------------------------------------------------------------- caching
    @property
    def version(self) -> int:
        """Monotonic counter bumped on every map mutation."""
        return self._version

    def touch(self) -> None:
        """Record an out-of-band mutation (positions edited in bulk)."""
        self._version += 1
        self._packed_dirty = True

    def _packed_arrays(self) -> _PackedPointArrays:
        if self._packed_dirty:
            self._packed.rebuild(self.mappoints)
            self._packed_dirty = False
        return self._packed

    def packed_positions(self) -> np.ndarray:
        """The ``(n_mappoints, 3)`` position matrix (insertion order)."""
        pk = self._packed_arrays()
        return pk.positions[: pk.n]

    def gather_point_arrays(self, point_ids) -> "Tuple[np.ndarray, np.ndarray]":
        """Packed ``(positions, descriptors)`` rows for the given ids."""
        ids = [int(pid) for pid in point_ids]
        return self._packed_arrays().gather(ids)

    def lookup_point_rows(self, point_ids) -> np.ndarray:
        """Packed-matrix row for each id, ``-1`` where the point is absent.

        The vectorized back-end kernels gather positions through this
        instead of per-feature ``mappoints.get`` calls: one dict probe
        per id, then a single fancy-index into the packed matrix.
        """
        get = self._packed_arrays().row_of.get
        ids = np.asarray(point_ids).ravel().tolist()
        return np.fromiter(map(get, ids, repeat(-1, len(ids))), dtype=np.intp,
                           count=len(ids))

    def set_point_positions(self, point_ids, positions: np.ndarray,
                            rows: np.ndarray) -> None:
        """Move points, keeping the packed mirror and caches coherent.

        Refinement loops (local BA, running-average updates) must use
        this instead of assigning ``point.position`` directly.  ``rows``
        are the points' packed rows (:meth:`lookup_point_rows`, with no
        point added or removed since), so every id is present and the
        mirror is written in one pass; the batch bumps the version once.
        Each point gets its own copy of its row, so map points never
        alias the caller's (often reused) scratch matrix.
        """
        positions = np.asarray(positions, dtype=float)
        mappoints = self.mappoints
        for pid, pos in zip(np.asarray(point_ids).tolist(), positions):
            mappoints[pid].position = pos.copy()
        if not self._packed_dirty:
            self._packed.positions[rows] = positions
        self._version += 1

    # ---------------------------------------------------------------- insert
    def add_keyframe(self, keyframe: KeyFrame) -> None:
        if keyframe.keyframe_id in self.keyframes:
            raise ValueError(f"duplicate keyframe id {keyframe.keyframe_id}")
        self.keyframes[keyframe.keyframe_id] = keyframe
        self.covisibility.setdefault(keyframe.keyframe_id, {})
        self._update_covisibility(keyframe)
        self._use_tick += 1
        self._kf_last_use[keyframe.keyframe_id] = self._use_tick
        self._version += 1

    def add_mappoint(self, point: MapPoint) -> None:
        if point.point_id in self.mappoints:
            raise ValueError(f"duplicate map-point id {point.point_id}")
        self.mappoints[point.point_id] = point
        self._version += 1
        if not self._packed_dirty:
            self._packed.append(point)

    def _update_covisibility(self, keyframe: KeyFrame) -> None:
        """Add covisibility edges weighted by shared map-point count."""
        shared: Dict[int, int] = {}
        for pid in keyframe.observed_point_ids():
            point = self.mappoints.get(int(pid))
            if point is None:
                continue
            for other_kf in point.observations:
                if other_kf != keyframe.keyframe_id and other_kf in self.keyframes:
                    shared[other_kf] = shared.get(other_kf, 0) + 1
        covis = self.covisibility
        kf_id = keyframe.keyframe_id
        for other_kf, weight in shared.items():
            covis.setdefault(kf_id, {})[other_kf] = weight
            covis.setdefault(other_kf, {})[kf_id] = weight

    def rebuild_covisibility(self) -> None:
        """Recompute the whole covisibility graph from observations."""
        self.covisibility = {kf_id: {} for kf_id in self.keyframes}
        for kf in self.keyframes.values():
            self._update_covisibility(kf)
        self._version += 1

    # ---------------------------------------------------------------- remove
    def remove_keyframe(self, keyframe_id: int) -> None:
        kf = self.keyframes.pop(keyframe_id, None)
        if kf is None:
            return
        for pid in kf.observed_point_ids():
            point = self.mappoints.get(int(pid))
            if point is not None:
                point.remove_observation(keyframe_id)
        for other in self.covisibility.pop(keyframe_id, {}):
            del self.covisibility[other][keyframe_id]
        self._kf_last_use.pop(keyframe_id, None)
        self._version += 1

    def remove_mappoint(self, point_id: int) -> None:
        point = self.mappoints.pop(point_id, None)
        if point is None:
            return
        for kf_id in list(point.observations):
            kf = self.keyframes.get(kf_id)
            if kf is not None:
                kf.point_ids[kf.point_ids == point_id] = -1
        self._version += 1
        if not self._packed_dirty:
            self._packed.remove(point_id)

    def replace_mappoint(self, old_id: int, new_id: int) -> None:
        """Fuse ``old_id`` into ``new_id`` (duplicate landmarks after merge)."""
        if old_id == new_id:
            return
        old = self.mappoints.get(old_id)
        new = self.mappoints.get(new_id)
        if old is None or new is None:
            return
        for kf_id, feat_idx in old.observations.items():
            kf = self.keyframes.get(kf_id)
            if kf is None:
                continue
            if kf_id in new.observations or new_id in kf.point_ids:
                # The keyframe already observes the winning point through
                # another feature.  Relabeling would leave two feature
                # slots aliasing one landmark while ``observations``
                # keeps a single index — covisibility weights and BA
                # observation counts would double-count it.  The losing
                # slot reverts to unmatched instead.
                kf.point_ids[kf.point_ids == old_id] = -1
            else:
                kf.point_ids[kf.point_ids == old_id] = new_id
                new.add_observation(kf_id, feat_idx)
        new.times_visible += old.times_visible
        new.times_found += old.times_found
        del self.mappoints[old_id]
        self._version += 1
        if not self._packed_dirty:
            self._packed.remove(old_id)

    # -------------------------------------------------------------- eviction
    def touch_keyframe(self, keyframe_id: int) -> None:
        """Record a use of ``keyframe_id`` for LRU eviction ordering.

        Tracking references, covisibility walks and BA windows call this
        so that actively used keyframes stay resident even when their
        covisibility degree is low.
        """
        if keyframe_id in self.keyframes:
            self._use_tick += 1
            self._kf_last_use[keyframe_id] = self._use_tick

    def _eviction_order(self, candidates: List[int]) -> List[int]:
        """Least-covisible, least-recently-used first."""

        def score(kf_id: int):
            weight = sum(self.covisibility.get(kf_id, {}).values())
            return (weight, self._kf_last_use.get(kf_id, 0), kf_id)

        return sorted(candidates, key=score)

    def _evict_keyframe(self, keyframe_id: int) -> None:
        kf = self.keyframes.get(keyframe_id)
        if kf is None:
            return
        observed = [int(pid) for pid in kf.observed_point_ids()]
        self.remove_keyframe(keyframe_id)
        self._evicted_keyframes.append(keyframe_id)
        # Points whose last observer just left would survive as anchorless
        # landmarks: pose-graph correction could no longer re-anchor them
        # and merge fusion would weld against stale geometry.  They leave
        # with their keyframe.
        for pid in observed:
            point = self.mappoints.get(pid)
            if point is not None and point.n_observations == 0:
                self.remove_mappoint(pid)
                self._evicted_points.append(pid)

    def evict_keyframes(
        self,
        max_keyframes: int,
        protect: Iterable[int] = (),
    ) -> List[int]:
        """Evict keyframes down to ``max_keyframes``; returns evicted ids.

        Victims are the least-covisible (lowest summed edge weight),
        least-recently-used keyframes.  Each client's newest keyframe is
        always protected — it is the tracking reference the client's
        next frame localizes against — as is anything in ``protect``.
        Points observed only by an evicted keyframe are removed with it,
        which keeps the pose-graph invariant that every surviving point
        has at least one surviving observer.
        """
        excess = self.n_keyframes - max_keyframes
        if excess <= 0:
            return []
        protected = set(protect)
        newest: Dict[int, int] = {}
        for kf_id, kf in self.keyframes.items():
            tick = self._kf_last_use.get(kf_id, 0)
            current = newest.get(kf.client_id)
            if current is None or tick > self._kf_last_use.get(current, 0):
                newest[kf.client_id] = kf_id
        protected |= set(newest.values())
        candidates = [k for k in self.keyframes if k not in protected]
        evicted = self._eviction_order(candidates)[:excess]
        for kf_id in evicted:
            self._evict_keyframe(kf_id)
        return evicted

    def compact_mappoints(
        self,
        max_mappoints: int,
        protect: Iterable[int] = (),
    ) -> List[int]:
        """Remove the least-valuable points down to ``max_mappoints``.

        Value order: points observed by fewer keyframes go first, ties
        broken by lowest found ratio, then youngest id — long-established
        well-observed landmarks are the drift anchors and leave last.
        """
        excess = self.n_mappoints - max_mappoints
        if excess <= 0:
            return []
        protected = set(int(pid) for pid in protect)

        def score(pid: int):
            point = self.mappoints[pid]
            return (point.n_observations, point.found_ratio(), -pid)

        candidates = sorted(
            (pid for pid in self.mappoints if pid not in protected), key=score
        )
        doomed = candidates[:excess]
        for pid in doomed:
            self.remove_mappoint(pid)
            self._evicted_points.append(pid)
        return doomed

    def enforce_budgets(
        self,
        max_keyframes: Optional[int] = None,
        max_mappoints: Optional[int] = None,
        protect_keyframes: Iterable[int] = (),
        protect_points: Iterable[int] = (),
    ) -> "Tuple[List[int], List[int]]":
        """Apply both budgets; returns (evicted keyframe ids, point ids)."""
        evicted_kfs: List[int] = []
        evicted_points: List[int] = []
        before = len(self._evicted_points)
        if max_keyframes is not None:
            evicted_kfs = self.evict_keyframes(
                max_keyframes, protect=protect_keyframes
            )
        if max_mappoints is not None:
            self.compact_mappoints(max_mappoints, protect=protect_points)
        evicted_points = self._evicted_points[before:]
        return evicted_kfs, evicted_points

    def drain_evictions(self) -> "Tuple[List[int], List[int]]":
        """Hand off (and clear) the evicted-entity backlog.

        The serving layer calls this after each frame to mirror map
        evictions into the shared store (tombstones) and the BoW
        database; draining is what keeps store bytes bounded rather than
        merely the in-process map.
        """
        kfs, self._evicted_keyframes = self._evicted_keyframes, []
        points, self._evicted_points = self._evicted_points, []
        return kfs, points

    # ---------------------------------------------------------------- access
    @property
    def n_keyframes(self) -> int:
        return len(self.keyframes)

    @property
    def n_mappoints(self) -> int:
        return len(self.mappoints)

    def keyframes_of_client(self, client_id: int) -> List[KeyFrame]:
        return [kf for kf in self.keyframes.values() if kf.client_id == client_id]

    def covisible_keyframes(self, keyframe_id: int, min_weight: int = 1) -> List[int]:
        """Keyframe ids sharing at least ``min_weight`` points, best first."""
        neighbors = [
            (other, weight)
            for other, weight in self.covisibility.get(keyframe_id, {}).items()
            if weight >= min_weight
        ]
        neighbors.sort(key=lambda item: -item[1])
        return [other for other, _ in neighbors]

    def local_map_points(
        self, keyframe_ids: Iterable[int], limit: Optional[int] = None
    ) -> List[MapPoint]:
        """Union of points observed by the given keyframes.

        Returned oldest-first (ascending point id): tracking and fusion
        greedily assign features to candidates in list order, and
        long-established points are the accurate, drift-anchoring ones.
        Preferring freshly-minted points instead lets the map 'follow'
        its own pose drift — a positive feedback we explicitly avoid.
        """
        parts = [kf.point_ids for kf in map(self.keyframes.get, keyframe_ids)
                 if kf is not None]
        ids = np.unique(np.concatenate(parts)) if parts else np.zeros(0, np.int64)
        points = [point for point in map(self.mappoints.get, ids[ids >= 0].tolist())
                  if point is not None and not point.is_bad]
        return points if limit is None else points[:limit]

    def keyframe_trajectory(self, client_id: Optional[int] = None) -> Trajectory:
        """Camera-center trajectory of (one client's) keyframes."""
        kfs = sorted(
            (
                kf
                for kf in self.keyframes.values()
                if client_id is None or kf.client_id == client_id
            ),
            key=lambda kf: kf.timestamp,
        )
        points = []
        last_t = None
        for kf in kfs:
            if last_t is not None and kf.timestamp <= last_t:
                continue
            pose_wc = kf.pose_cw.inverse()
            points.append(
                TrajectoryPoint(
                    kf.timestamp,
                    pose_wc.translation,
                    quaternion.from_matrix(pose_wc.rotation),
                )
            )
            last_t = kf.timestamp
        return Trajectory(points)

    def apply_transform_to_client(self, transform, client_id: int) -> None:
        """Apply a Sim3 to every keyframe/point a client contributed.

        Used by map merging (Alg. 2 line 10-12) to snap a client map into
        the global frame.
        """
        for point in self.mappoints.values():
            if point.client_id == client_id:
                point.position = transform.apply(point.position)
        for kf in self.keyframes.values():
            if kf.client_id == client_id:
                kf.pose_cw = transform.transform_pose(kf.pose_cw)
        self.touch()

    def nbytes(self) -> int:
        """Approximate total footprint (Table 1 map-size accounting)."""
        return sum(kf.nbytes() for kf in self.keyframes.values()) + sum(
            p.nbytes() for p in self.mappoints.values()
        )

    def summary(self) -> str:
        return (
            f"SlamMap(id={self.map_id}, keyframes={self.n_keyframes}, "
            f"mappoints={self.n_mappoints}, ~{self.nbytes() / 1e6:.2f} MB)"
        )
