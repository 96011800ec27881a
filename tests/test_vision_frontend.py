"""The batch pixel front end returns the per-keypoint front end's bits.

``repro.vision``'s FAST-9 (ring masks + arc table), rBRIEF (one gather
per pyramid level) and grid cull (on arrays) are held, element for
element, to the bodies they replaced, which live on in
``tests/oracles.py``.
"""

import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import euroc_dataset
from repro.vision import brief, fast, matching, orb
from repro.vision.fast import Keypoint, detect_fast_vectorized
from repro.vision.image import Image, ImagePyramid, downsample
from repro.vision.orb import FeatureSet, OrbExtractor, OrbExtractorConfig
from repro.vision.render import render_frame
from tests import oracles


@pytest.fixture(scope="module")
def rendered():
    """Six MH04 frames, rendered the way the ``frontend_pixels`` workload does."""
    dataset = euroc_dataset("MH04", duration=0.6, rate=10.0)
    return [
        render_frame(
            dataset.world.positions, dataset.world.ids, dataset.camera,
            dataset.pose_cw(i), rng=np.random.default_rng(1000 + i),
        )
        for i in range(6)
    ]


def _noise(seed, shape=(96, 128)):
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


# ------------------------------------------------------------------ FAST
class TestFast:
    def test_arc_table_is_the_run_test_for_every_mask(self):
        bits = (np.arange(1 << 16)[:, None] >> np.arange(16)) & 1
        expected = [oracles._has_arc(row, fast.ARC_LENGTH) for row in bits.astype(bool)]
        assert fast._ARC_TABLE.dtype == bool
        assert fast._ARC_TABLE.tolist() == expected

    def test_compass_pretest_passes_every_arc(self):
        # An arc of 9 covers two neighbouring compass points (ring pixels
        # 0, 4, 8, 12), so the pre-test never drops a corner.
        masks = np.arange(1 << 16)
        north, east, south, west = ((masks >> k) & 1 == 1 for k in fast._COMPASS)
        neighbouring_pair = (north | south) & (east | west)
        assert fast._ARC_TABLE.any()
        assert not np.any(fast._ARC_TABLE & ~neighbouring_pair)

    @pytest.mark.parametrize("threshold", [5, 20, 40])
    @pytest.mark.parametrize("shape", [(19, 31), (26, 17)])
    def test_vectorized_is_scalar_in_order(self, threshold, shape):
        image = _noise(threshold + shape[0], shape)
        for nonmax in (True, False):
            got = detect_fast_vectorized(image, threshold, nonmax)
            assert got.dtype == np.float64 and got.shape[1:] == (3,)
            assert np.array_equal(got, oracles.detect_fast_scalar(image, threshold, nonmax))

    @pytest.mark.parametrize("shape", [(6, 6), (6, 40), (40, 5), (3, 3)])
    def test_no_room_for_a_ring(self, shape):
        assert detect_fast_vectorized(np.full(shape, 255, dtype=np.uint8)).shape == (0, 3)


# --------------------------------------------------------------- pyramid
class TestDownsample:
    @given(
        st.integers(1, 70),
        st.integers(1, 70),
        st.sampled_from([0.5, 1.0] + [1.2 ** k for k in range(1, 8)] + [2.5]),
        st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_four_gather_body(self, h, w, scale, seed):
        # Small shapes make the max(..., 8) clamp upsample.
        pixels = _noise(seed, (h, w))
        got = downsample(pixels, scale)
        assert got.dtype == np.uint8
        assert np.array_equal(got, oracles.downsample_reference(pixels, scale))

    @pytest.mark.parametrize("shape", [(3, 5), (7, 7), (9, 40), (240, 320)])
    @pytest.mark.parametrize("scale", [1.2 ** k for k in range(1, 8)] + [2.5])
    def test_clamp_and_rendered_sizes(self, shape, scale):
        pixels = _noise(shape[0] * shape[1], shape)
        assert np.array_equal(downsample(pixels, scale),
                              oracles.downsample_reference(pixels, scale))


# ---------------------------------------------------------------- rBRIEF
def _assert_describe_matches_oracle(pixels, u, v):
    inside, angles, descriptors = brief.describe(pixels, u, v)
    expected = [
        (
            oracles.intensity_centroid_angle(pixels, ui, vi),
            oracles.compute_descriptor(pixels, Keypoint(ui, vi, 1.0)),
        )
        for ui, vi in zip(u.tolist(), v.tolist())
    ]
    assert inside.tolist() == [d is not None for _, d in expected]
    kept = [(a, d) for a, d in expected if d is not None]
    assert angles.tolist() == [a for a, _ in kept]
    assert descriptors.dtype == np.uint8
    assert descriptors.shape == (len(kept), brief.DESCRIPTOR_BYTES)
    assert np.array_equal(descriptors, np.array([d for _, d in kept]).reshape(-1, 32))


def _boundary_keypoints(pixels, seed):
    """Random positions plus every combination on the descriptor margin."""
    h, w = pixels.shape
    rng = np.random.default_rng(seed)
    edge_u = [16, 17, w - 18, w - 17]
    edge_v = [16, 17, h - 18, h - 17]
    u = np.concatenate([rng.integers(0, w, 40), np.repeat(edge_u, 4), rng.integers(0, w, 4)])
    v = np.concatenate([rng.integers(0, h, 40), np.tile(edge_v, 4), edge_v])
    return u.astype(np.float64), v.astype(np.float64)


class TestDescribe:
    def test_rendered_frames_every_level(self, rendered):
        for seed, image in enumerate(rendered[:2]):
            for pixels in ImagePyramid(image, 4, 1.2).levels:
                _assert_describe_matches_oracle(pixels, *_boundary_keypoints(pixels, seed))

    def test_noise_every_level(self):
        for seed in range(2):
            for pixels in ImagePyramid(Image(_noise(seed, (120, 160))), 4, 1.2).levels:
                _assert_describe_matches_oracle(pixels, *_boundary_keypoints(pixels, seed))

    @given(
        st.integers(0, 10_000),
        st.lists(st.tuples(st.integers(0, 79), st.integers(0, 59)), max_size=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_keypoint_sets(self, seed, positions):
        uv = np.array(positions, dtype=np.float64).reshape(-1, 2)
        _assert_describe_matches_oracle(_noise(seed, (60, 80)), uv[:, 0], uv[:, 1])

    def test_single_keypoint_forms(self):
        pixels = _noise(3, (64, 80))
        for u, v in [(40.0, 30.0), (2.0, 2.0), (0.0, 63.0), (79.0, 0.0), (17.0, 46.0), (20.4, 33.5)]:
            assert brief.intensity_centroid_angle(pixels, u, v) == oracles.intensity_centroid_angle(
                pixels, u, v
            )
            for angle in (None, 0.7):
                got = brief.compute_descriptor(pixels, Keypoint(u, v, 1.0), angle)
                want = oracles.compute_descriptor(pixels, Keypoint(u, v, 1.0), angle)
                assert (got is None) == (want is None)
                assert got is None or np.array_equal(got, want)

    def test_image_too_small_for_a_patch(self):
        inside, angles, descriptors = brief.describe(_noise(0, (9, 12)), [4.0], [4.0])
        assert inside.tolist() == [False] and len(angles) == 0
        assert descriptors.shape == (0, brief.DESCRIPTOR_BYTES)


# ------------------------------------------------------------------ cull
class TestGridCull:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("budget", [0, 1, 7, 12, 13, 48, 49, 400, 5000])
    def test_matches_oracle_on_ties(self, seed, budget):
        # 4 x 3 grid = 12 cells, ~40 keypoints per cell, three response values.
        config = OrbExtractorConfig(grid_cols=4, grid_rows=3)
        rng = np.random.default_rng(seed)
        n, width, height = 480, 97, 61
        flat = np.sort(rng.choice(width * height, n, replace=False))  # raster order
        u, v = (flat % width).astype(np.float64), (flat // width).astype(np.float64)
        response = rng.choice([10.0, 20.0, 30.0], n)
        keypoints = [Keypoint(*row) for row in zip(u.tolist(), v.tolist(), response.tolist())]
        kept = OrbExtractor(config)._grid_cull(u, v, response, width, height, budget)
        expected = oracles.grid_cull(config, keypoints, width, height, budget)
        assert [keypoints[i] for i in kept] == expected

    def test_budget_equal_to_cell_count_and_few_cells(self):
        config = OrbExtractorConfig(grid_cols=4, grid_rows=3)
        u = np.array([1.0, 2.0, 90.0, 3.0, 91.0])
        v = np.array([1.0, 1.0, 1.0, 2.0, 58.0])
        response = np.array([5.0, 5.0, 9.0, 5.0, 9.0])
        keypoints = [Keypoint(*row) for row in zip(u, v, response)]
        for budget in (2, 3, 12):
            kept = OrbExtractor(config)._grid_cull(u, v, response, 97, 61, budget)
            assert [keypoints[i] for i in kept] == oracles.grid_cull(
                config, keypoints, 97, 61, budget
            )

    def test_empty_input(self):
        empty = np.zeros(0)
        assert len(OrbExtractor()._grid_cull(empty, empty, empty, 320, 240, 100)) == 0


# ------------------------------------------------------------- extractor
#: SHA-256 of six extractions, computed on the commit before the batch
#: kernels (d70ea4e).  It covers float64 bytes of ``arctan2`` output, so a
#: numpy build with different libm rounding may legitimately disagree; the
#: oracle comparison below then tells which of the two it is.
GOLDEN_DIGEST = "67ad490c08088abbb4803bced5e884cf2b09918944d5f5b09bbdddbb87a0dbee"


class TestExtract:
    def test_golden_digest(self, rendered):
        digest = hashlib.sha256()
        extractor = OrbExtractor()
        for image in rendered:
            features = extractor.extract(image)
            rows = np.column_stack([features.uv, features.response,
                                    features.level, features.angle])
            digest.update(rows.astype(np.float64).tobytes())
            digest.update(features.descriptors.tobytes())
        assert digest.hexdigest() == GOLDEN_DIGEST

    def test_matches_per_keypoint_extractor(self, rendered):
        for config in (None, OrbExtractorConfig(n_features=40, n_levels=3, grid_cols=5)):
            got = OrbExtractor(config).extract(rendered[0])
            want = oracles.extract(rendered[0], config)
            assert len(got) > 0
            oracles.assert_same_batch(got, want)
            assert got.level.dtype == np.int64 and got.angle.dtype == np.float64

    def test_over_budget_truncation(self):
        # Texture only in the middle, so no corner falls to the descriptor
        # margin: every level then yields its floor budget of one feature,
        # three in all, and n_features=1 has to cut by response.
        pixels = np.full((120, 160), 128, dtype=np.uint8)
        pixels[30:90, 40:120] = _noise(8, (60, 80))
        image = Image(pixels)
        assert len(OrbExtractor(OrbExtractorConfig(n_features=3, n_levels=3)).extract(image)) == 3
        config = OrbExtractorConfig(n_features=1, n_levels=3)
        got, want = OrbExtractor(config).extract(image), oracles.extract(image, config)
        assert len(got) == 1
        oracles.assert_same_batch(got, want)

    def test_blank_and_tiny_images(self):
        for pixels in (np.full((48, 64), 90, dtype=np.uint8), _noise(1, (12, 12))):
            features = OrbExtractor().extract(Image(pixels))
            assert len(features) == 0
            oracles.assert_same_batch(features, FeatureSet())

    def test_describes_once_per_level(self, rendered, monkeypatch):
        calls = []
        describe = brief.describe
        monkeypatch.setattr(
            brief, "describe", lambda *a, **k: calls.append(len(a[1])) or describe(*a, **k)
        )
        for name in ("intensity_centroid_angle", "compute_descriptor"):
            monkeypatch.setattr(brief, name, lambda *a, **k: pytest.fail("per-keypoint call"))
        features = OrbExtractor().extract(rendered[0])
        assert len(calls) == 4 and sum(calls) >= len(features) > 100


class TestFeatureSetUv:
    def test_extract_hands_over_the_array(self, rendered):
        features = OrbExtractor().extract(rendered[0])
        assert features.uv is features.uv  # no rebuild per access
        assert features.uv.shape == (len(features), 2) and features.uv.flags.c_contiguous
        assert np.array_equal(features.uv, oracles.extract(rendered[0]).uv)
        # The pixel front end measures no depth and knows no landmark.
        assert (features.depths < 0).all() and (features.landmark_ids == -1).all()

    def test_columns_are_validated_once(self):
        uv = np.array([[1.0, 2.0], [4.5, 5.5]])
        features = FeatureSet(uv, np.zeros((2, 32), dtype=np.uint8), depths=[3.0, 0.0])
        assert features.uv is uv
        assert features.depths.dtype == np.float64 and features.depths.tolist() == [3.0, 0.0]
        assert features.landmark_ids.tolist() == [-1, -1]
        assert features.level.dtype == np.int64
        with pytest.raises(ValueError, match="descriptors"):
            FeatureSet(uv, np.zeros((3, 32), dtype=np.uint8))
        with pytest.raises(ValueError, match="landmark_ids"):
            FeatureSet(uv, np.zeros((2, 32), dtype=np.uint8), landmark_ids=[7])
        assert len(FeatureSet()) == 0 and FeatureSet().uv.shape == (0, 2)


class TestLedgerSeam:
    """``benchmarks/perf`` wraps these names from outside; a rename must fail here."""

    @pytest.mark.parametrize(
        "function, parameters",
        [
            (fast.detect_fast_vectorized, ["pixels", "threshold", "nonmax"]),
            (brief.intensity_centroid_angle, ["pixels", "u", "v", "radius"]),
            (brief.compute_descriptor, ["pixels", "keypoint", "angle"]),
            (matching.match_descriptors,
             ["query", "train", "max_distance", "ratio", "cross_check", "am"]),
            (OrbExtractor.extract, ["self", "image"]),
            (OrbExtractor.__init__, ["self", "config"]),
        ],
    )
    def test_signatures(self, function, parameters):
        assert list(inspect.signature(function).parameters) == parameters

    def test_config_fields(self):
        assert list(OrbExtractorConfig.__dataclass_fields__) == [
            "n_features", "n_levels", "scale_factor", "fast_threshold",
            "min_fast_threshold", "grid_cols", "grid_rows",
        ]

    def test_extract_enters_fast_through_the_module_name(self, rendered, monkeypatch):
        seen = []
        original = orb.detect_fast_vectorized

        def traced(pixels, threshold=20, nonmax=True):
            seen.append(pixels.shape)
            return original(pixels, threshold, nonmax)

        monkeypatch.setattr(orb, "detect_fast_vectorized", traced)
        OrbExtractor().extract(rendered[0])
        assert seen == [lvl.shape for lvl in ImagePyramid(rendered[0], 4, 1.2).levels]
