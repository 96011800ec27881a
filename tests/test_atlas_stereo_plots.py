"""Tests for real stereo matching and the terminal trajectory plot."""

import numpy as np
import pytest

from repro.datasets import euroc_dataset
from repro.metrics import ascii_xy_plot
from repro.vision import StereoMatcher, StereoRig, render_stereo_pair


class TestStereoMatcher:
    @pytest.fixture(scope="class")
    def scene(self):
        ds = euroc_dataset("MH04", duration=1.0, rate=10.0)
        rig = StereoRig(ds.camera, baseline=0.11)
        left, right = render_stereo_pair(
            ds.world.positions, ds.world.ids, rig, ds.pose_cw(0),
            rng=np.random.default_rng(3),
        )
        return ds, rig, left, right

    def test_matches_found(self, scene):
        ds, rig, left, right = scene
        matches = StereoMatcher(rig).match(left, right)
        assert len(matches) > 10

    def test_depths_match_geometry(self, scene):
        """Recovered depths agree with the true landmark depths."""
        ds, rig, left, right = scene
        matches = StereoMatcher(rig).match(left, right)
        uv_true, depth_true, valid = ds.camera.project_world(
            ds.world.positions, ds.pose_cw(0)
        )
        uv_true = uv_true[valid]
        depth_true = depth_true[valid]
        errors = []
        for m in matches:
            d = np.linalg.norm(uv_true - m.uv_left, axis=1)
            nearest = int(np.argmin(d))
            if d[nearest] < 3.0:
                errors.append(
                    abs(m.depth - depth_true[nearest]) / depth_true[nearest]
                )
        assert len(errors) > 5
        assert np.median(errors) < 0.15  # ~1 px disparity quantization

    def test_disparity_positive(self, scene):
        ds, rig, left, right = scene
        for m in StereoMatcher(rig).match(left, right):
            assert m.disparity > 0
            assert m.depth > 0

    def test_empty_images(self, scene):
        ds, rig, _, _ = scene
        from repro.vision import Image

        blank = Image(np.full((120, 160), 110, dtype=np.uint8))
        assert StereoMatcher(rig).match(blank, blank) == []


class TestAsciiPlots:
    def test_xy_plot_renders_all_labels(self):
        rng = np.random.default_rng(0)
        art = ascii_xy_plot(
            {"a": rng.normal(size=(20, 2)), "b": rng.normal(size=(10, 2))}
        )
        assert "* a" in art and "o b" in art
        assert art.count("\n") > 10

    def test_xy_plot_empty(self):
        assert ascii_xy_plot({}) == "(no data)"
