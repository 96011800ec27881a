"""Tests for FAST detection: correctness and scalar/vectorized equivalence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vision.fast import CIRCLE_OFFSETS, detect_fast_vectorized
from tests.oracles import detect_fast_scalar


def _blank(h=40, w=40, value=100):
    return np.full((h, w), value, dtype=np.uint8)


def _bright_dot(img, v, u, value=255, size=2):
    img[v - size // 2 : v + size // 2 + 1, u - size // 2 : u + size // 2 + 1] = value
    return img


class TestCircleGeometry:
    def test_sixteen_unique_offsets(self):
        assert CIRCLE_OFFSETS.shape == (16, 2)
        assert len({tuple(o) for o in CIRCLE_OFFSETS}) == 16

    def test_offsets_lie_on_radius3_ring(self):
        radii = np.linalg.norm(CIRCLE_OFFSETS, axis=1)
        assert np.all(radii >= 2.8)
        assert np.all(radii <= 3.2)

    def test_ring_order_is_contiguous(self):
        # Adjacent ring points must be neighbors (distance <= sqrt(2)).
        for a, b in zip(CIRCLE_OFFSETS, np.roll(CIRCLE_OFFSETS, -1, axis=0)):
            assert np.linalg.norm(a - b) <= np.sqrt(2) + 1e-9


class TestDetection:
    def test_flat_image_has_no_corners(self):
        assert detect_fast_vectorized(_blank()).shape == (0, 3)
        assert detect_fast_scalar(_blank()).shape == (0, 3)

    def test_single_bright_dot_detected(self):
        img = _bright_dot(_blank(), 20, 20)
        kps = detect_fast_vectorized(img, threshold=20)
        assert len(kps) >= 1
        u, v, _ = kps[np.argmax(kps[:, 2])]
        assert abs(u - 20) <= 2 and abs(v - 20) <= 2

    def test_dark_dot_detected(self):
        img = _blank(value=200)
        img[20, 20] = 0
        kps = detect_fast_vectorized(img, threshold=40)
        assert len(kps) >= 1

    def test_threshold_suppresses_weak_corners(self):
        img = _blank()
        img[20, 20] = 115  # only 15 above background
        assert detect_fast_vectorized(img, threshold=20).shape == (0, 3)
        assert len(detect_fast_vectorized(img, threshold=5)) >= 1

    def test_edge_is_not_a_corner(self):
        # A long straight step edge has at most ~8 contiguous ring pixels
        # on one side, so FAST-9 must reject its interior points.
        img = _blank()
        img[:, 20:] = 200
        u, v, _ = detect_fast_vectorized(img, threshold=20).T
        # No detection far from the image border along the edge interior.
        assert not np.any((10 < v) & (v < 30) & (18 <= u) & (u <= 21))

    def test_no_detections_inside_border(self):
        img = _bright_dot(_blank(), 3, 3, size=1)
        u, v, _ = detect_fast_vectorized(img, threshold=10).T
        assert np.all(u >= 3) and np.all(v >= 3)

    def test_tiny_image_returns_empty(self):
        assert detect_fast_vectorized(np.zeros((5, 5), dtype=np.uint8)).shape == (0, 3)

    def test_nonmax_reduces_count(self):
        rng = np.random.default_rng(0)
        img = np.clip(rng.normal(128, 60, size=(48, 48)), 0, 255).astype(np.uint8)
        with_nms = detect_fast_vectorized(img, threshold=15, nonmax=True)
        without = detect_fast_vectorized(img, threshold=15, nonmax=False)
        assert len(with_nms) <= len(without)


class TestScalarVectorizedEquivalence:
    def _assert_same(self, img, threshold=20, nonmax=True):
        scalar = detect_fast_scalar(img, threshold, nonmax)
        vector = detect_fast_vectorized(img, threshold, nonmax)
        assert vector.dtype == np.float64 and vector.shape == (len(vector), 3)
        # Row for row, in order: raster order is part of the contract.
        assert vector.tolist() == scalar.tolist()

    def test_dots(self):
        img = _bright_dot(_bright_dot(_blank(), 12, 12), 28, 30)
        self._assert_same(img)

    def test_random_noise_images(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            img = np.clip(rng.normal(128, 50, size=(32, 32)), 0, 255).astype(np.uint8)
            self._assert_same(img, threshold=25)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_property_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
        self._assert_same(img, threshold=30)

    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([0, 1, 5, 20, 100, 254, 255]),
        st.booleans(),
        st.sampled_from([np.uint8, np.int16, np.int32]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_shapes_thresholds_and_dtypes(self, h, w, threshold, nonmax, dtype, seed):
        rng = np.random.default_rng(seed)
        # Few grey levels, so rings tie with the threshold and scores tie in NMS.
        levels = rng.choice(256, size=int(rng.integers(2, 9)), replace=False)
        img = rng.choice(levels, size=(h, w)).astype(dtype)
        self._assert_same(img, threshold, nonmax)
        if min(h, w) <= 6:
            assert detect_fast_vectorized(img, threshold, nonmax).shape == (0, 3)
