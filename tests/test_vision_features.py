"""Tests for BRIEF descriptors, ORB extraction and matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import SE3
from repro.vision import (
    DescriptorBank,
    FeatureOracle,
    Image,
    ImagePyramid,
    OrbExtractor,
    OrbExtractorConfig,
    PinholeCamera,
    StereoRig,
    hamming_distance_matrix,
    match_descriptors,
    perturb_descriptor,
    random_descriptor,
    render_frame,
    search_by_projection_vectorized,
)
from repro.vision.brief import DESCRIPTOR_BYTES, compute_descriptor
from repro.vision.fast import Keypoint
from repro.vision.render import landmark_patch
from tests import oracles
from tests.oracles import (
    detect_fast_scalar,
    hamming_distance,
    search_by_projection_scalar,
)


class TestBrief:
    def test_descriptor_shape(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        desc = compute_descriptor(img, Keypoint(32, 32, 1.0))
        assert desc is not None and desc.shape == (DESCRIPTOR_BYTES,)

    def test_descriptor_none_near_border(self):
        img = np.zeros((64, 64), dtype=np.uint8)
        assert compute_descriptor(img, Keypoint(2, 2, 1.0)) is None

    def test_hamming_identity_is_zero(self):
        rng = np.random.default_rng(1)
        d = random_descriptor(rng)
        assert hamming_distance(d, d) == 0

    def test_hamming_complement_is_all_bits(self):
        d = np.zeros(DESCRIPTOR_BYTES, dtype=np.uint8)
        assert hamming_distance(d, ~d) == 256

    def test_perturb_flips_exact_bits(self):
        rng = np.random.default_rng(2)
        d = random_descriptor(rng)
        assert hamming_distance(d, perturb_descriptor(d, rng, 12)) == 12

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(3)
        a = np.stack([random_descriptor(rng) for _ in range(4)])
        b = np.stack([random_descriptor(rng) for _ in range(5)])
        mat = hamming_distance_matrix(a, b)
        for i in range(4):
            for j in range(5):
                assert mat[i, j] == hamming_distance(a[i], b[j])

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=20, deadline=None)
    def test_hamming_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_descriptor(rng), random_descriptor(rng)
        assert hamming_distance(a, b) == hamming_distance(b, a)

    def test_descriptor_stable_across_identical_patches(self):
        rng = np.random.default_rng(4)
        patch = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        d1 = compute_descriptor(patch, Keypoint(30, 30, 1.0))
        d2 = compute_descriptor(patch.copy(), Keypoint(30, 30, 1.0))
        assert hamming_distance(d1, d2) == 0


class TestOrbExtractor:
    def _scene(self):
        cam = PinholeCamera.ideal(160, 120)
        rng = np.random.default_rng(5)
        pts = np.column_stack(
            [rng.uniform(-2, 2, 40), rng.uniform(-1.5, 1.5, 40), rng.uniform(4, 8, 40)]
        )
        ids = np.arange(40)
        return render_frame(pts, ids, cam, SE3.identity(), rng=rng), pts, ids, cam

    def test_extracts_features_on_synthetic_frame(self):
        img, _, _, _ = self._scene()
        feats = OrbExtractor(OrbExtractorConfig(n_features=100, n_levels=2)).extract(img)
        assert len(feats) > 10
        assert feats.descriptors.shape == (len(feats), DESCRIPTOR_BYTES)

    def test_respects_feature_budget(self):
        img, _, _, _ = self._scene()
        feats = OrbExtractor(OrbExtractorConfig(n_features=20, n_levels=2)).extract(img)
        assert len(feats) <= 20

    def test_backends_agree(self):
        img, _, _, _ = self._scene()
        for n_levels in (2, 4):
            cfg = OrbExtractorConfig(n_features=60, n_levels=n_levels)
            a = oracles.extract(img, cfg, detect=detect_fast_scalar)
            b = OrbExtractor(cfg).extract(img)
            oracles.assert_same_batch(b, a)

    def test_features_near_landmarks(self):
        img, pts, ids, cam = self._scene()
        feats = OrbExtractor(OrbExtractorConfig(n_features=120, n_levels=1)).extract(img)
        uv_true, _, valid = cam.project_world(pts, SE3.identity())
        uv_true = uv_true[valid]
        hits = 0
        for kp_uv in feats.uv:
            if np.min(np.linalg.norm(uv_true - kp_uv, axis=1)) < 5.0:
                hits += 1
        assert hits >= len(feats) * 0.5


class TestLandmarkPatch:
    def test_matches_the_per_call_convolve_patch(self):
        ids = list(range(300)) + [10_000_000, 20_000_123]
        for landmark_id in ids:
            got = landmark_patch(landmark_id)
            want = oracles.landmark_patch(landmark_id)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for size in (3, 5, 12):
            assert np.array_equal(landmark_patch(7, size),
                                  oracles.landmark_patch(7, size))

    def test_patches_are_shared_and_read_only(self):
        patch = landmark_patch(42)
        assert landmark_patch(42) is patch
        with pytest.raises(ValueError):
            patch[0, 0] = 0


class TestRenderFrame:
    """``render_frame`` against the per-patch paste it replaced: same pixels,
    and the generator left in the same state."""

    # fx = fy = 1, no principal-point offset: a landmark at (u, v, 1)
    # projects to exactly (u, v), so tests place patch centres directly.
    CAMERA = PinholeCamera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=40, height=30)

    def _assert_same(self, uv, ids, noise_sigma=1.0, seed=0, depth=1.0):
        positions = np.column_stack([uv, np.full(len(uv), depth)]).reshape(-1, 3)
        live_rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
        got = render_frame(positions, ids, self.CAMERA, SE3.identity(),
                           noise_sigma=noise_sigma, rng=live_rng)
        want = oracles.render_frame_reference(
            positions, ids, self.CAMERA, SE3.identity(),
            noise_sigma=noise_sigma, rng=reference_rng)
        assert got.pixels.dtype == want.pixels.dtype == np.uint8
        assert np.array_equal(got.pixels, want.pixels)
        assert live_rng.bit_generator.state == reference_rng.bit_generator.state
        return got.pixels

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           spread=st.sampled_from([1.0, 3.0, 25.0]), halves=st.booleans(),
           noise_sigma=st.sampled_from([0.0, 1.0, 300.0]))
    @settings(max_examples=40, deadline=None)
    def test_packed_landmarks_overlap_in_landmark_order(
            self, seed, n, spread, halves, noise_sigma):
        # Centres a few pixels apart overlap heavily, so which patch lands
        # on top decides the pixels; half-pixel centres make ``rint`` break
        # ties, and sigma 300 drives the background into both clip rails.
        rng = np.random.default_rng(seed)
        centre = rng.uniform((0, 0), (self.CAMERA.width, self.CAMERA.height))
        uv = centre + rng.uniform(-spread, spread, size=(n, 2))
        if halves:
            uv = np.round(uv * 2) / 2
        ids = rng.integers(0, 12, size=n)    # repeated ids too
        self._assert_same(uv, ids, noise_sigma, seed)

    def test_patches_touching_every_border(self):
        w, h = self.CAMERA.width, self.CAMERA.height
        # A 9-pixel patch centred at 4 or at size - 5 is flush with a
        # border; 3.5 and 4.5 round (half to even) to 4, size - 4.5 to
        # size - 4, which crosses it like 3 and size - 4 do.
        us = [3.0, 3.5, 4.0, 4.5, 20.0, w - 5.5, w - 5.0, w - 4.5, w - 4.0]
        vs = [3.0, 3.5, 4.0, 4.5, 15.0, h - 5.5, h - 5.0, h - 4.5, h - 4.0]
        uv = np.array([(u, v) for u in us for v in vs])
        pixels = self._assert_same(uv, np.arange(len(uv)), noise_sigma=0.0)
        blank = np.full_like(pixels, 110)
        for edge in (pixels[0], pixels[-1], pixels[:, 0], pixels[:, -1]):
            assert not np.array_equal(edge, blank[0, : len(edge)])

    def test_no_landmarks(self):
        pixels = self._assert_same(np.zeros((0, 2)), np.zeros(0, dtype=int))
        assert pixels.shape == (self.CAMERA.height, self.CAMERA.width)

    def test_no_landmark_drawn(self):
        # Behind the camera, outside the image, or inside it but too close
        # to the border for a whole patch.
        uv = np.array([(10.0, 10.0), (-6.0, 10.0), (10.0, 31.0), (1.0, 1.0),
                       (39.0, 29.0)])
        self._assert_same(uv[:1], [5], depth=-1.0)
        self._assert_same(uv[1:], [1, 2, 3, 4])
        assert np.all(self._assert_same(uv[1:], [1, 2, 3, 4], noise_sigma=0.0) == 110)


class TestPyramid:
    def test_level_sizes_shrink(self):
        img = Image(np.zeros((120, 160), dtype=np.uint8))
        pyr = ImagePyramid(img, n_levels=4, scale_factor=1.5)
        sizes = [lvl.shape[0] for lvl in pyr.levels]
        assert sizes == sorted(sizes, reverse=True)

    def test_to_base_coords(self):
        img = Image(np.zeros((120, 160), dtype=np.uint8))
        pyr = ImagePyramid(img, n_levels=3, scale_factor=2.0)
        assert np.allclose(pyr.to_base_coords(np.array([10.0, 5.0]), 1), [20.0, 10.0])

    def test_invalid_args(self):
        img = Image(np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(ValueError):
            ImagePyramid(img, n_levels=0)
        with pytest.raises(ValueError):
            ImagePyramid(img, scale_factor=0.9)


class TestMatching:
    def _descriptor_sets(self, n=30, flips=6):
        rng = np.random.default_rng(6)
        base = np.stack([random_descriptor(rng) for _ in range(n)])
        noisy = np.stack([perturb_descriptor(d, rng, flips) for d in base])
        return base, noisy

    def test_match_recovers_identity_permutation(self):
        base, noisy = self._descriptor_sets()
        matches = match_descriptors(base, noisy)
        assert len(matches) >= 25
        for m in matches:
            assert m.query_idx == m.train_idx

    def test_empty_inputs(self):
        base, _ = self._descriptor_sets(5)
        assert match_descriptors(base, np.zeros((0, DESCRIPTOR_BYTES), np.uint8)) == []
        assert match_descriptors(np.zeros((0, DESCRIPTOR_BYTES), np.uint8), base) == []

    def test_max_distance_filters(self):
        rng = np.random.default_rng(7)
        a = np.stack([random_descriptor(rng) for _ in range(10)])
        b = np.stack([random_descriptor(rng) for _ in range(10)])
        # Random 256-bit strings differ by ~128 bits on average.
        assert match_descriptors(a, b, max_distance=40) == []

    def test_search_by_projection_variants_agree(self):
        rng = np.random.default_rng(8)
        n = 40
        base = np.stack([random_descriptor(rng) for _ in range(n)])
        proj_uv = rng.uniform(20, 200, size=(n, 2))
        frame_uv = proj_uv + rng.normal(scale=2.0, size=(n, 2))
        frame_desc = np.stack([perturb_descriptor(d, rng, 5) for d in base])
        scalar = search_by_projection_scalar(proj_uv, base, frame_uv, frame_desc)
        vector = search_by_projection_vectorized(proj_uv, base, frame_uv, frame_desc)
        assert [(m.query_idx, m.train_idx, m.distance) for m in scalar] == [
            (m.query_idx, m.train_idx, m.distance) for m in vector
        ]
        assert len(scalar) >= n * 0.8

    def test_search_radius_enforced(self):
        rng = np.random.default_rng(9)
        base = np.stack([random_descriptor(rng)])
        proj_uv = np.array([[50.0, 50.0]])
        frame_uv = np.array([[80.0, 80.0]])  # 42 px away
        out = search_by_projection_vectorized(proj_uv, base, frame_uv, base, radius=8.0)
        assert out == []


class TestFeatureOracle:
    def _setup(self):
        cam = PinholeCamera.ideal(320, 240)
        rng = np.random.default_rng(10)
        pts = np.column_stack(
            [rng.uniform(-3, 3, 200), rng.uniform(-2, 2, 200), rng.uniform(3, 10, 200)]
        )
        return cam, pts, np.arange(200)

    def test_observations_project_correctly(self):
        cam, pts, ids = self._setup()
        oracle = FeatureOracle(cam, pixel_sigma=0.0, dropout=0.0, seed=1)
        obs = oracle.observe(pts, ids, SE3.identity())
        assert len(obs) > 50
        uv, _, valid = cam.project_world(pts[obs.landmark_ids], SE3.identity())
        assert valid.all()
        assert np.allclose(uv, obs.uv, atol=1e-9)

    def test_descriptors_match_bank(self):
        cam, pts, ids = self._setup()
        bank = DescriptorBank()
        oracle = FeatureOracle(cam, descriptor_flip_bits=4, dropout=0.0,
                               descriptor_bank=bank, seed=2)
        obs = oracle.observe(pts, ids, SE3.identity())
        assert len(obs) > 20
        for descriptor, row in zip(obs.descriptors, bank.rows(obs.landmark_ids)):
            assert hamming_distance(descriptor, row) == 4

    def test_max_features_uniform_subsample(self):
        cam, pts, ids = self._setup()
        oracle = FeatureOracle(cam, max_features=30, dropout=0.0, seed=3)
        obs = oracle.observe(pts, ids, SE3.identity())
        assert len(obs) <= 30
        # Subsampling is uniform over the visible set, not depth-biased
        # (depth-ordered selection degenerates to coplanar feature sets).
        assert np.mean(obs.depths) > 0

    def test_empty_world(self):
        cam, _, _ = self._setup()
        oracle = FeatureOracle(cam)
        assert len(oracle.observe(np.zeros((0, 3)), np.zeros(0), SE3.identity())) == 0


class TestCamera:
    def test_project_unproject_roundtrip(self):
        cam = PinholeCamera.ideal()
        pts = np.array([[0.5, -0.2, 3.0], [1.0, 1.0, 10.0]])
        uv, valid = cam.project(pts)
        assert valid.all()
        back = cam.unproject(uv, pts[:, 2])
        assert np.allclose(back, pts, atol=1e-9)

    def test_behind_camera_invalid(self):
        cam = PinholeCamera.ideal()
        _, valid = cam.project(np.array([[0.0, 0.0, -1.0]]))
        assert not valid[0]

    def test_out_of_frame_invalid(self):
        cam = PinholeCamera.ideal()
        _, valid = cam.project(np.array([[100.0, 0.0, 1.0]]))
        assert not valid[0]

    def test_bearing_unit_norm(self):
        cam = PinholeCamera.ideal()
        b = cam.bearing(np.array([[10.0, 20.0], [300.0, 200.0]]))
        assert np.allclose(np.linalg.norm(b, axis=1), 1.0)

    def test_stereo_depth_disparity_roundtrip(self):
        rig = StereoRig(PinholeCamera.ideal(), baseline=0.1)
        depth = np.array([1.0, 5.0, 20.0])
        assert np.allclose(rig.depth_from_disparity(rig.disparity(depth)), depth)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PinholeCamera(fx=-1, fy=1, cx=0, cy=0, width=10, height=10)
        with pytest.raises(ValueError):
            StereoRig(PinholeCamera.ideal(), baseline=0.0)
