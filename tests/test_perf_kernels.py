"""Equivalence and cache-invalidation tests for the vectorized hot path.

Every fast kernel introduced by the wall-clock overhaul must produce
bit-for-bit the same answer as its naive reference; the packed-matrix
caches must invalidate whenever the map changes under them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import euroc_dataset
from repro.slam import SlamMap
from repro.slam.mappoint import MapPoint
from repro.vision import brief
from repro.vision.brief import (
    DESCRIPTOR_BYTES,
    hamming_distance_matrix,
    hamming_distance_matrix_lut,
    hamming_distance_pairs,
)
from repro.vision.fast import (
    _collect_keypoints,
    detect_fast_vectorized,
)
from repro.vision import matching
from repro.vision.matching import (
    FrameGrid,
    match_descriptors,
    search_by_projection_vectorized,
)
from tests.oracles import (
    _collect_keypoints_reference,
    as_tuples,
    candidate_pairs_reference,
    search_by_projection_dense,
    search_by_projection_scalar,
)
from tests.test_slam_system import run_system


def _descriptors(rng, n, width=DESCRIPTOR_BYTES, low=0, high=256):
    return rng.integers(low, high, (n, width), dtype=np.uint8)


# --------------------------------------------------------------- hamming
class TestHammingEquivalence:
    @pytest.mark.parametrize("m,n", [(1, 1), (7, 13), (64, 64), (120, 250)])
    def test_fast_matches_lut(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        a, b = _descriptors(rng, m), _descriptors(rng, n)
        np.testing.assert_array_equal(
            hamming_distance_matrix(a, b),
            hamming_distance_matrix_lut(a, b),
        )

    def test_one_dimensional_input(self):
        rng = np.random.default_rng(3)
        a = _descriptors(rng, 1)[0]
        b = _descriptors(rng, 9)
        np.testing.assert_array_equal(
            hamming_distance_matrix(a, b),
            hamming_distance_matrix_lut(a, b),
        )

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(4)
        big = _descriptors(rng, 40, width=64)
        a = big[::2, ::2]  # non-contiguous view, still 32 bytes wide
        b = _descriptors(rng, 11)
        np.testing.assert_array_equal(
            hamming_distance_matrix(a, b),
            hamming_distance_matrix_lut(a, b),
        )

    def test_odd_width_falls_back(self):
        rng = np.random.default_rng(5)
        a = _descriptors(rng, 6, width=5)
        b = _descriptors(rng, 8, width=5)
        np.testing.assert_array_equal(
            hamming_distance_matrix(a, b),
            hamming_distance_matrix_lut(a, b),
        )

    def test_extreme_values(self):
        a = np.array([[0] * 32, [255] * 32], dtype=np.uint8)
        np.testing.assert_array_equal(
            hamming_distance_matrix(a, a), [[0, 256], [256, 0]]
        )

    def test_pairs_match_dense(self):
        rng = np.random.default_rng(6)
        a, b = _descriptors(rng, 20), _descriptors(rng, 30)
        idx_a = rng.integers(0, 20, 50)
        idx_b = rng.integers(0, 30, 50)
        dense = hamming_distance_matrix_lut(a, b)
        np.testing.assert_array_equal(
            hamming_distance_pairs(a, b, idx_a, idx_b),
            dense[idx_a, idx_b],
        )

    def test_pairs_empty(self):
        rng = np.random.default_rng(7)
        a, b = _descriptors(rng, 4), _descriptors(rng, 4)
        empty = np.zeros(0, dtype=np.intp)
        assert hamming_distance_pairs(a, b, empty, empty).shape == (0,)


class TestHammingEquivalenceWithoutBitwiseCount(TestHammingEquivalence):
    """The numpy < 2 path: the bit-matrix product and the byte-LUT pairs."""

    @pytest.fixture(autouse=True)
    def _no_bitwise_count(self, monkeypatch):
        monkeypatch.setattr(brief, "HAMMING_DTYPE", np.uint8)


# ---------------------------------------------------------------- search
class TestSearchEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("radius", [3.0, 10.0, 30.0])
    def test_scalar_dense_grid_agree(self, seed, radius):
        rng = np.random.default_rng(seed)
        n_pts, n_feats = 60, 40
        proj_uv = rng.uniform(0, 100, (n_pts, 2))
        frame_uv = rng.uniform(0, 100, (n_feats, 2))
        # Tiny descriptor alphabet forces heavy distance ties, the case
        # where greedy-assignment order matters most.
        point_desc = _descriptors(rng, n_pts, high=4)
        frame_desc = _descriptors(rng, n_feats, high=4)
        kwargs = dict(radius=radius, max_distance=300)
        scalar = search_by_projection_scalar(
            proj_uv, point_desc, frame_uv, frame_desc, **kwargs)
        dense = search_by_projection_dense(
            proj_uv, point_desc, frame_uv, frame_desc, **kwargs)
        vec = as_tuples(search_by_projection_vectorized(
            proj_uv, point_desc, frame_uv, frame_desc, **kwargs))
        grid = FrameGrid(frame_uv)
        vec_grid = as_tuples(search_by_projection_vectorized(
            proj_uv, point_desc, frame_uv, frame_desc, grid=grid, **kwargs))
        assert scalar == dense == vec == vec_grid

    def test_empty_inputs(self):
        rng = np.random.default_rng(0)
        empty_uv = np.zeros((0, 2))
        empty_desc = np.zeros((0, DESCRIPTOR_BYTES), dtype=np.uint8)
        uv = rng.uniform(0, 50, (5, 2))
        desc = _descriptors(rng, 5)
        assert len(search_by_projection_vectorized(
            empty_uv, empty_desc, uv, desc, radius=10.0)) == 0
        assert len(search_by_projection_vectorized(
            uv, desc, empty_uv, empty_desc, radius=10.0)) == 0

    def test_max_distance_filter(self):
        rng = np.random.default_rng(1)
        proj_uv = rng.uniform(0, 50, (10, 2))
        point_desc = _descriptors(rng, 10)
        frame_desc = _descriptors(rng, 10)
        loose = search_by_projection_vectorized(
            proj_uv, point_desc, proj_uv, frame_desc,
            radius=5.0, max_distance=256)
        tight = search_by_projection_vectorized(
            proj_uv, point_desc, proj_uv, frame_desc,
            radius=5.0, max_distance=80)
        assert (tight.distance <= 80).all()
        assert len(tight) <= len(loose)

    def test_grid_candidate_pairs_superset_of_radius(self):
        rng = np.random.default_rng(2)
        frame_uv = rng.uniform(0, 200, (80, 2))
        centers = rng.uniform(0, 200, (30, 2))
        radius = 12.0
        grid = FrameGrid(frame_uv)
        q_idx, t_idx = grid.candidate_pairs(centers, radius)
        candidate = set(zip(q_idx.tolist(), t_idx.tolist()))
        d2 = ((centers[:, None, :] - frame_uv[None, :, :]) ** 2).sum(axis=2)
        qs, ts = np.nonzero(d2 <= radius * radius)
        for pair in zip(qs.tolist(), ts.tolist()):
            assert pair in candidate


    def test_box_ends_at_its_span_when_rounding_adds_a_cell(self):
        # (u + r) / cell rounds up to 26.0 here although the box's real
        # end, 259.99..., lies in cell 25: the box is cells 23..25, as in
        # the span loop.
        frame_uv = np.array([[0.0, 5.0], [235.0, 5.0], [245.0, 5.0],
                             [255.0, 5.0], [265.0, 5.0]])
        grid = FrameGrid(frame_uv, cell_size=10.0)
        center = np.array([[249.99999999999997, 5.0]])
        assert np.floor((center[0, 0] + 10.0) / 10.0) == 26.0
        got = grid.candidate_pairs(center, 10.0)
        want = candidate_pairs_reference(grid, center, 10.0)
        assert sorted(got[1].tolist()) == sorted(want[1].tolist()) == [1, 2, 3]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_feats=st.integers(0, 60),
        n_centers=st.integers(0, 40),
        cell_size=st.sampled_from([1.0, 5.5, 16.0, 37.0]),
        radius_cells=st.sampled_from([0.0, 0.3, 1.0, 1.5, 2.0, 3.7]),
    )
    def test_property_candidate_pairs_equal_the_span_loop(
        self, seed, n_feats, n_centers, cell_size, radius_cells
    ):
        # Centres lie partly outside the grid, before its first cell and
        # past its last on both axes; the radius is below, at and above
        # one cell.
        rng = np.random.default_rng(seed)
        frame_uv = rng.uniform(0.0, 200.0, (n_feats, 2))
        centers = rng.uniform(-120.0, 320.0, (n_centers, 2))
        grid = FrameGrid(frame_uv, cell_size=cell_size)
        radius = radius_cells * cell_size
        got = grid.candidate_pairs(centers, radius)
        want = candidate_pairs_reference(grid, centers, radius)
        pairs = list(zip(got[0].tolist(), got[1].tolist()))
        assert len(set(pairs)) == len(pairs)
        assert sorted(pairs) == sorted(zip(want[0].tolist(), want[1].tolist()))

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(2, 50),
        n_feats=st.integers(1, 12),
        alphabet=st.sampled_from([1, 2, 4]),
        radius=st.sampled_from([4.0, 12.0, 40.0]),
    )
    def test_property_greedy_conflicts_equal_the_scalar_loop(
        self, seed, n_points, n_feats, alphabet, radius
    ):
        # Many points crowd a few features with a tiny descriptor
        # alphabet, so first choices collide.  Points i < j sit on one
        # feature with the same descriptor, so they always do, and the
        # points before i keep their first choices.
        rng = np.random.default_rng(seed)
        proj_uv = rng.uniform(0.0, 30.0, (n_points, 2))
        frame_uv = rng.uniform(0.0, 30.0, (n_feats, 2))
        point_desc = _descriptors(rng, n_points, high=alphabet)
        frame_desc = _descriptors(rng, n_feats, high=alphabet)
        i, j = np.sort(rng.choice(n_points, 2, replace=False))
        proj_uv[[i, j]] = frame_uv[rng.integers(n_feats)]
        point_desc[j] = point_desc[i]
        walks = []
        walk = matching._walk_conflicts
        kwargs = dict(radius=radius, max_distance=300)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matching, "_walk_conflicts",
                          lambda *args: walks.append(1) or walk(*args))
            got = as_tuples(search_by_projection_vectorized(
                proj_uv, point_desc, frame_uv, frame_desc, **kwargs))
        assert walks
        assert got == search_by_projection_scalar(
            proj_uv, point_desc, frame_uv, frame_desc, **kwargs)


class TestShadowSession:
    """Every projection search of the short scenario, the tracker's and
    local mapping's fuse, returns the scalar oracle's matches in order."""

    def test_every_search_matches_the_scalar_oracle(self, monkeypatch):
        from repro.slam import local_mapping, tracking
        from tests.test_core_session import _short_default, _short_session

        live = matching.search_by_projection_vectorized
        calls = {"tracking": 0, "local_mapping": 0}

        def shadowed(caller):
            def search(projected_uv, point_descriptors, frame_uv,
                       frame_descriptors, radius=8.0,
                       max_distance=matching.DEFAULT_MATCH_THRESHOLD,
                       point_rows=None, **kwargs):
                result = live(projected_uv, point_descriptors, frame_uv,
                              frame_descriptors, radius=radius,
                              max_distance=max_distance,
                              point_rows=point_rows, **kwargs)
                rows = (point_descriptors if point_rows is None
                        else point_descriptors[point_rows])
                assert as_tuples(result) == search_by_projection_scalar(
                    projected_uv, rows, frame_uv, frame_descriptors,
                    radius=radius, max_distance=max_distance)
                calls[caller] += 1
                return result
            return search

        monkeypatch.setattr(tracking, "search_by_projection_vectorized",
                            shadowed("tracking"))
        monkeypatch.setattr(local_mapping, "search_by_projection_vectorized",
                            shadowed("local_mapping"))
        digest = _short_session().run().digest()
        assert calls["tracking"] > 100 and calls["local_mapping"] > 10
        assert digest == _short_default()[1].digest()


# ------------------------------------------------------------------- nms
class TestNmsEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_plateau_heavy_maps(self, seed):
        # Few distinct score values -> many tied plateaus.
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 5, (37, 43)).astype(np.float32)
        for nonmax in (True, False):
            new = _collect_keypoints(scores, nonmax)
            ref = _collect_keypoints_reference(scores, nonmax)
            assert new.tolist() == [[k.u, k.v, k.response] for k in ref]

    def test_uniform_plateau_keeps_exactly_last(self):
        scores = np.full((5, 5), 2.0, dtype=np.float32)
        kps = _collect_keypoints(scores, True)
        ref = _collect_keypoints_reference(scores, True)
        assert kps[:, :2].tolist() == [[k.u, k.v] for k in ref]

    def test_full_detector_unchanged(self):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, (40, 56), dtype=np.uint8)
        kps = detect_fast_vectorized(img)
        # the detector routes through the new NMS; reference agrees
        scores = np.zeros((40, 56), dtype=np.float32)
        u, v, response = kps.T
        scores[v.astype(int), u.astype(int)] = response
        assert kps.dtype == np.float64
        assert len(kps) == len(_collect_keypoints(scores, True))


# ------------------------------------------------------------- matching
class TestMatchDescriptorsEquivalence:
    @staticmethod
    def _reference(query, train, max_distance=64, ratio=0.8, cross_check=True):
        if len(query) == 0 or len(train) == 0:
            return []
        distances = hamming_distance_matrix_lut(query, train)
        best = distances.argmin(axis=1)
        reverse = distances.argmin(axis=0)
        out = []
        for qi in range(len(query)):
            ti = int(best[qi])
            dist = int(distances[qi, ti])
            if dist > max_distance:
                continue
            if len(train) > 1:
                row = distances[qi].astype(np.int64).copy()
                row[ti] = np.iinfo(np.int64).max
                second = int(row.min())
                if second > 0 and dist > ratio * second:
                    continue
            if cross_check and int(reverse[ti]) != qi:
                continue
            out.append((qi, ti, dist))
        return out

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("cross_check", [True, False])
    def test_vectorized_matches_reference(self, seed, cross_check):
        rng = np.random.default_rng(seed)
        query = _descriptors(rng, 25, high=8)  # tie-heavy
        train = _descriptors(rng, 30, high=8)
        got = as_tuples(match_descriptors(
            query, train, max_distance=200, cross_check=cross_check))
        want = self._reference(
            query, train, max_distance=200, cross_check=cross_check)
        assert got == want

    def test_single_train_descriptor(self):
        rng = np.random.default_rng(20)
        query = _descriptors(rng, 5)
        train = query[:1].copy()
        got = as_tuples(match_descriptors(query, train, max_distance=256))
        assert self._reference(query, train, max_distance=256) == got


# -------------------------------------------------- packed-matrix caches
def _point(pid, rng):
    return MapPoint(
        pid, rng.uniform(-1, 1, 3),
        rng.integers(0, 256, DESCRIPTOR_BYTES, dtype=np.uint8),
    )


class TestPackedMapArrays:
    def test_add_mappoint_bumps_version_and_extends(self):
        rng = np.random.default_rng(0)
        m = SlamMap()
        v0 = m.version
        for pid in range(5):
            m.add_mappoint(_point(pid, rng))
        assert m.version > v0
        assert m.packed_positions().shape == (5, 3)
        for pid in range(5):
            pos, desc = m.gather_point_arrays([pid])
            np.testing.assert_allclose(pos[0], m.mappoints[pid].position)
            np.testing.assert_array_equal(desc[0], m.mappoints[pid].descriptor)

    def test_remove_mappoint_invalidates(self):
        rng = np.random.default_rng(1)
        m = SlamMap()
        for pid in range(4):
            m.add_mappoint(_point(pid, rng))
        m.packed_positions()  # force a build
        v = m.version
        m.remove_mappoint(2)
        assert m.version > v
        assert m.packed_positions().shape == (3, 3)
        pos, _ = m.gather_point_arrays([3])
        np.testing.assert_allclose(pos[0], m.mappoints[3].position)

    def test_set_point_position_updates_in_place(self):
        rng = np.random.default_rng(2)
        m = SlamMap()
        for pid in range(3):
            m.add_mappoint(_point(pid, rng))
        m.packed_positions()
        v = m.version
        target = np.array([9.0, 8.0, 7.0])
        m.set_point_positions([1], target[None], m.lookup_point_rows([1]))
        assert m.version > v
        np.testing.assert_allclose(m.mappoints[1].position, target)
        pos, _ = m.gather_point_arrays([1])
        np.testing.assert_allclose(pos[0], target)

    def test_touch_forces_rebuild(self):
        rng = np.random.default_rng(3)
        m = SlamMap()
        m.add_mappoint(_point(0, rng))
        m.packed_positions()
        # Out-of-band mutation (the pattern touch() exists for).
        m.mappoints[0].position = np.array([4.0, 4.0, 4.0])
        m.touch()
        np.testing.assert_allclose(m.packed_positions()[0], [4.0, 4.0, 4.0])


class TestTrackerLocalMapCache:
    @pytest.fixture(scope="class")
    def mapped(self):
        ds = euroc_dataset("MH04", duration=6.0, rate=10.0)
        system, _ = run_system(ds)
        return ds, system

    def test_cache_hit_on_same_key(self, mapped):
        _, system = mapped
        tracker = system.tracker
        pack1 = tracker._local_map_pack()
        pack2 = tracker._local_map_pack()
        assert pack1 is pack2
        assert pack1.positions.shape == (len(pack1.points), 3)

    def test_map_mutation_rebuilds_pack(self, mapped):
        _, system = mapped
        tracker = system.tracker
        pack1 = tracker._local_map_pack()
        pid = pack1.points[0].point_id
        moved = pack1.points[0].position + np.array([0.5, 0.0, 0.0])
        system.map.set_point_positions([pid], moved[None],
                                       system.map.lookup_point_rows([pid]))
        pack2 = tracker._local_map_pack()
        assert pack2 is not pack1
        row = [p.point_id for p in pack2.points].index(pid)
        np.testing.assert_allclose(pack2.positions[row], moved)

    def test_mid_track_map_growth_rebuilds(self, mapped):
        _, system = mapped
        tracker = system.tracker
        pack1 = tracker._local_map_pack()
        rng = np.random.default_rng(9)
        new_id = max(system.map.mappoints) + 1
        system.map.add_mappoint(_point(new_id, rng))
        assert tracker._local_map_pack() is not pack1

    def test_reference_keyframe_change_rebuilds(self, mapped):
        _, system = mapped
        tracker = system.tracker
        pack1 = tracker._local_map_pack()
        old_ref = tracker.reference_keyframe_id
        other = [k for k in system.map.keyframes if k != old_ref]
        if not other:
            pytest.skip("map has a single keyframe")
        tracker.reference_keyframe_id = other[0]
        try:
            assert tracker._local_map_pack() is not pack1
        finally:
            tracker.reference_keyframe_id = old_ref
            tracker._local_pack = None
