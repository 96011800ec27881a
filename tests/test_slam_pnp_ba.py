"""Tests for PnP pose solving and bundle adjustment."""

import copy
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import SE3, so3
from repro.geometry.se3 import random_se3
from repro.slam import pnp, solve_pnp, solve_pnp_ransac
from repro.slam.bundle_adjustment import (
    global_bundle_adjustment,
    local_bundle_adjustment,
)
from repro.vision import PinholeCamera
from tests import oracles


def _scene(n=80, seed=0, pose_scale=0.3):
    rng = np.random.default_rng(seed)
    cam = PinholeCamera.ideal(320, 240)
    true_pose = SE3(so3.exp(rng.normal(scale=0.2, size=3)),
                    rng.normal(scale=pose_scale, size=3))
    pts_cam = np.column_stack(
        [rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n), rng.uniform(2, 15, n)]
    )
    pts_w = true_pose.inverse().apply(pts_cam)
    uv, valid = cam.project(pts_cam)
    return cam, true_pose, pts_w[valid], uv[valid], pts_cam[valid, 2]


class TestSolvePnP:
    def test_converges_from_far_prior(self):
        cam, truth, pts_w, uv, _ = _scene()
        rng = np.random.default_rng(1)
        prior = truth.perturb(rng.normal(scale=0.2, size=6))
        result = solve_pnp(pts_w, uv, cam, prior)
        rot_err, trans_err = result.pose_cw.distance(truth)
        assert trans_err < 1e-6 and rot_err < 1e-8
        assert result.n_inliers == len(uv)

    def test_noisy_pixels(self):
        cam, truth, pts_w, uv, _ = _scene(n=150, seed=2)
        rng = np.random.default_rng(3)
        noisy_uv = uv + rng.normal(scale=0.5, size=uv.shape)
        result = solve_pnp(pts_w, noisy_uv, cam, truth.perturb(np.full(6, 0.05)))
        _, trans_err = result.pose_cw.distance(truth)
        assert trans_err < 0.02

    def test_too_few_points(self):
        cam, truth, pts_w, uv, _ = _scene()
        result = solve_pnp(pts_w[:3], uv[:3], cam, truth)
        assert not result.converged
        assert result.n_inliers == 0

    def test_huber_downweights_outliers(self):
        cam, truth, pts_w, uv, _ = _scene(n=120, seed=4)
        rng = np.random.default_rng(5)
        corrupted = uv.copy()
        bad = rng.choice(len(uv), size=len(uv) // 5, replace=False)
        corrupted[bad] += rng.normal(scale=40.0, size=(len(bad), 2))
        result = solve_pnp(pts_w, corrupted, cam, truth.perturb(np.full(6, 0.02)))
        _, trans_err = result.pose_cw.distance(truth)
        assert trans_err < 0.02
        assert result.n_inliers <= len(uv) - len(bad) + 5

    def test_depth_residual_pins_forward_translation(self):
        # Only central, distant points: reprojection alone barely
        # constrains z; the depth term must.
        rng = np.random.default_rng(6)
        cam = PinholeCamera.ideal(320, 240)
        truth = SE3.identity()
        pts_cam = np.column_stack(
            [rng.uniform(-0.4, 0.4, 60), rng.uniform(-0.3, 0.3, 60),
             rng.uniform(9, 11, 60)]
        )
        uv, valid = cam.project(pts_cam)
        pts_w = pts_cam[valid]
        prior = SE3(np.eye(3), np.array([0.0, 0.0, 0.3]))  # 30 cm forward error
        no_depth = solve_pnp(pts_w, uv[valid], cam, prior)
        with_depth = solve_pnp(pts_w, uv[valid], cam, prior, depths=pts_w[:, 2])
        _, err_no = no_depth.pose_cw.distance(truth)
        _, err_yes = with_depth.pose_cw.distance(truth)
        assert err_yes < err_no
        assert err_yes < 0.05

    def test_lm_descends_robust_cost(self):
        # Regression for the GN-stall bug: from a moderately wrong prior
        # the solver must land at the same optimum as from the truth.
        cam, truth, pts_w, uv, _ = _scene(n=200, seed=7)
        rng = np.random.default_rng(8)
        noisy_uv = uv + rng.normal(scale=0.5, size=uv.shape)
        from_truth = solve_pnp(pts_w, noisy_uv, cam, truth)
        from_prior = solve_pnp(
            pts_w, noisy_uv, cam, truth.perturb(rng.normal(scale=0.1, size=6))
        )
        rot_gap, trans_gap = from_truth.pose_cw.distance(from_prior.pose_cw)
        assert trans_gap < 5e-3 and rot_gap < 5e-4

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_property_clean_data_exact(self, seed):
        cam, truth, pts_w, uv, _ = _scene(n=60, seed=seed)
        if len(uv) < 10:
            return
        result = solve_pnp(pts_w, uv, cam, truth.perturb(np.full(6, 0.03)))
        _, trans_err = result.pose_cw.distance(truth)
        assert trans_err < 1e-4


class TestSolvePnPRansac:
    def test_survives_heavy_contamination(self):
        cam, truth, pts_w, uv, _ = _scene(n=150, seed=9)
        rng = np.random.default_rng(10)
        corrupted = uv.copy()
        bad = rng.choice(len(uv), size=int(len(uv) * 0.4), replace=False)
        corrupted[bad] = rng.uniform(0, 300, size=(len(bad), 2))
        result = solve_pnp_ransac(
            pts_w, corrupted, cam, truth.perturb(np.full(6, 0.05)), rng
        )
        assert result is not None
        _, trans_err = result.pose_cw.distance(truth)
        assert trans_err < 0.05

    def test_returns_none_on_garbage(self):
        cam, truth, pts_w, uv, _ = _scene(n=40, seed=11)
        rng = np.random.default_rng(12)
        garbage = rng.uniform(0, 300, size=uv.shape)
        assert solve_pnp_ransac(pts_w, garbage, cam, truth, rng,
                                min_inliers=15) is None

    def test_too_few_points_none(self):
        cam, truth, pts_w, uv, _ = _scene()
        rng = np.random.default_rng(13)
        assert solve_pnp_ransac(pts_w[:4], uv[:4], cam, truth, rng) is None


def _pnp_case(name):
    """(points_w, uv, camera, prior, kwargs) for one seeded PnP problem."""
    cam, truth, pts_w, uv, z = _scene(n=150, seed=2)
    rng = np.random.default_rng(3)
    uv = uv + rng.normal(scale=0.5, size=uv.shape)
    prior = truth.perturb(rng.normal(scale=0.05, size=6))
    kwargs = {}
    if name == "depths":
        depths = z.copy()
        depths[::3] = 0.0
        depths[1::7] = -1.0
        kwargs["depths"] = depths
    elif name == "depths_all_missing":
        kwargs["depths"] = np.zeros(len(z))
    elif name == "outliers_30":
        bad = rng.choice(len(uv), size=int(0.3 * len(uv)), replace=False)
        uv[bad] += rng.normal(scale=40.0, size=(len(bad), 2))
        kwargs["depths"] = z
    elif name == "behind_camera":
        # A fifth of the points pushed behind the camera along its axis.
        behind = np.arange(0, len(z), 5)
        pts_cam = truth.apply(pts_w)
        pts_cam[behind, 2] = -pts_cam[behind, 2]
        pts_w = truth.inverse().apply(pts_cam)
        kwargs["depths"] = z
    elif name == "depths_only_behind":
        # The only points with a depth sit behind the camera, so no
        # pose scores or linearises a depth residual.
        behind = np.arange(0, len(z), 5)
        pts_cam = truth.apply(pts_w)
        pts_cam[behind, 2] = -pts_cam[behind, 2]
        pts_w = truth.inverse().apply(pts_cam)
        depths = np.zeros(len(z))
        depths[behind] = z[behind]
        kwargs["depths"] = depths
    elif name == "four_points":
        pts_w, uv = pts_w[:4], uv[:4]
    elif name == "three_points":
        pts_w, uv = pts_w[:3], uv[:3]
    elif name == "max_iterations_5":
        # Far enough out that five iterations end the solve unconverged.
        prior = truth.perturb(rng.normal(scale=0.5, size=6))
        kwargs["max_iterations"] = 5
    elif name == "identical_points":
        pts_w = np.repeat(pts_w[:1], 10, axis=0)
        uv = np.repeat(uv[:1], 10, axis=0)
    elif name == "late_acceptance":
        # An iteration keeps its sixth damping trial, the fifth row of
        # the stacked pass.
        prior = truth.perturb(np.random.default_rng(101).normal(scale=0.1, size=6))
        kwargs["depths"] = z
    elif name == "first_order_tail":
        # The last rejected ladder ends in steps below theta = 1e-10,
        # which exp takes to first order.
        prior = truth.perturb(np.random.default_rng(102).normal(scale=0.05, size=6))
    elif name == "front_in_some_rows":
        # Four points a few millimetres in front of the prior's image
        # plane: the long steps of a ladder carry some of them behind
        # the camera, the short ones do not.
        rng = np.random.default_rng(1)
        uv = _scene(n=150, seed=2)[3] + rng.normal(scale=0.5, size=uv.shape)
        prior = truth.perturb(rng.normal(scale=0.05, size=6))
        grazing = np.column_stack([rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4),
                                   rng.uniform(2e-6, 1e-2, 4)])
        pts_w = np.vstack([pts_w, prior.inverse().apply(grazing)])
        uv = np.vstack([uv, rng.uniform(0, 320, size=(4, 2))])
        depths = np.concatenate([z, np.ones(4)])
        depths[::5] = 0.0
        kwargs["depths"] = depths
    else:
        assert name == "plain"
    return pts_w, uv, cam, prior, kwargs


PNP_CASES = ("plain", "depths", "depths_all_missing", "outliers_30",
             "behind_camera", "four_points", "three_points",
             "max_iterations_5", "identical_points", "late_acceptance",
             "first_order_tail", "front_in_some_rows", "depths_only_behind")


def _assert_same_result(live, ref):
    assert live.pose_cw.rotation.tobytes() == ref.pose_cw.rotation.tobytes()
    assert live.pose_cw.translation.tobytes() == ref.pose_cw.translation.tobytes()
    assert live.inliers.dtype == ref.inliers.dtype
    assert live.inliers.tobytes() == ref.inliers.tobytes()
    assert live.iterations == ref.iterations
    assert live.converged == ref.converged
    assert (np.float64(live.mean_error_px).tobytes()
            == np.float64(ref.mean_error_px).tobytes())


def _refusing_solve(refuse, refused):
    """``np.linalg.solve`` that raises ``LinAlgError`` for every stack
    holding a matrix ``refuse`` picks, as LAPACK does for a singular one.

    The choice depends only on a matrix's bytes, so the live solver and
    the reference lose the same damping trials, however they batch them.
    """
    solve = np.linalg.solve

    def refusing(a, b):
        matrices = np.asarray(a).reshape(-1, 6, 6)
        if any(refuse(m) for m in matrices):
            refused.append(len(matrices))
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)
    return refusing


def _ladder_paths(monkeypatch, pts_w, uv, cam, prior, kwargs):
    """What a solve's damping ladders did.

    ``late``: the latest trial (0 = the first) that a reference
    iteration kept; ``tail``: a stacked pass mixed steps below and above
    theta = 1e-10; ``front``: a stacked pass put a point in front of the
    camera in some rows only.
    """
    stacks = []
    perturb_stack = pnp._perturb_stack

    def recording_stack(pose, steps):
        rotations, translations = perturb_stack(pose, steps)
        stacks.append((steps, rotations, translations))
        return rotations, translations

    bases = []  # the pose each reference trial steps from
    perturb = oracles.perturb_reference

    def recording_perturb(pose, xi):
        bases.append(pose)
        return perturb(pose, xi)

    monkeypatch.setattr(pnp, "_perturb_stack", recording_stack)
    monkeypatch.setattr(oracles, "perturb_reference", recording_perturb)
    pnp.solve_pnp(pts_w, uv, cam, prior, **kwargs)
    ref = oracles.solve_pnp_reference(pts_w, uv, cam, prior, **kwargs)
    ladders = []
    for base in bases:
        if not ladders or ladders[-1][0] is not base:
            ladders.append([base, 0])
        ladders[-1][1] += 1
    kept = [n - 1 for base, n in ladders[:-1]]
    if ladders and ref.pose_cw is not ladders[-1][0]:
        kept.append(ladders[-1][1] - 1)
    tail = front = False
    for steps, rotations, translations in stacks:
        first_order = np.linalg.norm(steps[:, 3:], axis=1) < 1e-10
        tail |= bool(first_order.any() and not first_order.all())
        z = (pts_w @ rotations.transpose(0, 2, 1) + translations[:, None])[:, :, 2]
        in_front = z > 1e-6
        front |= bool((in_front.any(axis=0) & ~in_front.all(axis=0)).any())
    return {"late": max(kept, default=-1), "tail": tail, "front": front}


class TestSolvePnPMatchesReference:
    """Linearising only the kept steps and scoring the rest of a
    rejected damping ladder in one stacked pass change no bit of any
    result."""

    @pytest.mark.parametrize("name", PNP_CASES)
    def test_byte_equal_result(self, name):
        pts_w, uv, cam, prior, kwargs = _pnp_case(name)
        _assert_same_result(
            solve_pnp(pts_w, uv, cam, prior, **kwargs),
            oracles.solve_pnp_reference(pts_w, uv, cam, prior, **kwargs),
        )

    @pytest.mark.parametrize("name, path", [
        ("late_acceptance", "late"), ("first_order_tail", "tail"),
        ("front_in_some_rows", "front"),
    ])
    def test_case_takes_its_path(self, monkeypatch, name, path):
        pts_w, uv, cam, prior, kwargs = _pnp_case(name)
        paths = _ladder_paths(monkeypatch, pts_w, uv, cam, prior, kwargs)
        assert paths["late"] >= 2 if path == "late" else paths[path]

    def test_byte_equal_through_singular_solves(self, monkeypatch):
        # Damping keeps the normal equations positive definite for any
        # finite input, so the LinAlgError branch is reached by a solve
        # that refuses chosen matrices: all of them, or about a third.
        # A refused stack falls back to one solve per trial.
        for name in ("plain", "depths", "late_acceptance"):
            for every in (1, 3):
                def refuse(matrix):
                    return zlib.crc32(matrix.tobytes()) % every == 0

                pts_w, uv, cam, prior, kwargs = _pnp_case(name)
                live_refused, ref_refused = [], []
                monkeypatch.setattr(np.linalg, "solve",
                                    _refusing_solve(refuse, live_refused))
                live = solve_pnp(pts_w, uv, cam, prior, **kwargs)
                monkeypatch.setattr(np.linalg, "solve",
                                    _refusing_solve(refuse, ref_refused))
                ref = oracles.solve_pnp_reference(pts_w, uv, cam, prior, **kwargs)
                _assert_same_result(live, ref)
                assert ref_refused
                assert 1 in live_refused and max(live_refused) == 7
                if every == 1:
                    assert live.pose_cw is prior and live.iterations == 1

    @pytest.mark.parametrize("name", ("plain", "depths", "late_acceptance",
                                      "first_order_tail", "behind_camera"))
    def test_byte_equal_under_numpy1_solve(self, monkeypatch, name):
        # Before numpy 2, ``np.linalg.solve`` reads ``b`` as a stack of
        # vectors only when ``b.ndim == a.ndim - 1`` and as a stack of
        # matrices otherwise, so a 1-D ``b`` against a stack of matrices
        # is a ValueError there.  The stacked ladder must pass a form
        # both majors read alike.
        solve = np.linalg.solve
        stacked = []

        def numpy1_solve(a, b):
            a, b = np.asarray(a), np.asarray(b)
            if a.ndim > 2:
                stacked.append(len(a))
            if b.ndim == a.ndim - 1:
                return solve(a, b[..., None])[..., 0]
            if b.ndim < 2:
                raise ValueError("solve: Input operand 1 does not have "
                                 "enough dimensions")
            return solve(a, b)

        pts_w, uv, cam, prior, kwargs = _pnp_case(name)
        ref = oracles.solve_pnp_reference(pts_w, uv, cam, prior, **kwargs)
        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        _assert_same_result(solve_pnp(pts_w, uv, cam, prior, **kwargs), ref)
        assert 7 in stacked

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=4, max_value=120),
        noise_px=st.sampled_from([0.0, 0.5, 3.0]),
        outliers=st.sampled_from([0.0, 0.2, 0.5]),
        missing=st.sampled_from([None, 0.0, 0.3, 1.0]),
        behind=st.sampled_from([0.0, 0.2]),
        max_iterations=st.sampled_from([5, 10]),
    )
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_property_byte_equal_over_random_scenes(
            self, seed, n, noise_px, outliers, missing, behind, max_iterations):
        cam, truth, pts_w, uv, z = _scene(n=n, seed=seed)
        rng = np.random.default_rng(seed + 1)
        # Some points mirrored behind the camera along its axis.
        pts_cam = truth.apply(pts_w)
        flip = rng.random(len(z)) < behind
        pts_cam[flip, 2] = -pts_cam[flip, 2]
        pts_w = truth.inverse().apply(pts_cam)
        uv = uv + rng.normal(scale=noise_px, size=uv.shape)
        bad = rng.random(len(uv)) < outliers
        uv[bad] = rng.uniform(0, 320, size=(int(bad.sum()), 2))
        prior = truth.perturb(rng.normal(scale=rng.choice([0.01, 0.1, 0.4]), size=6))
        kwargs = {"max_iterations": max_iterations}
        if missing is not None:
            kwargs["depths"] = np.where(rng.random(len(z)) < missing, 0.0, z)
        _assert_same_result(
            solve_pnp(pts_w, uv, cam, prior, **kwargs),
            oracles.solve_pnp_reference(pts_w, uv, cam, prior, **kwargs),
        )

    @pytest.mark.parametrize("seed", [10, 12])
    def test_ransac_same_rng_same_result(self, monkeypatch, seed):
        cam, truth, pts_w, uv, _ = _scene(n=150, seed=9)
        rng = np.random.default_rng(seed)
        bad = rng.choice(len(uv), size=int(len(uv) * 0.4), replace=False)
        uv[bad] = rng.uniform(0, 300, size=(len(bad), 2))
        prior = truth.perturb(np.full(6, 0.05))
        live = solve_pnp_ransac(pts_w, uv, cam, prior,
                                np.random.default_rng(seed))
        monkeypatch.setattr(pnp, "solve_pnp", oracles.solve_pnp_reference)
        monkeypatch.setattr(pnp, "_classify", oracles._classify_reference)
        ref = solve_pnp_ransac(pts_w, uv, cam, prior,
                               np.random.default_rng(seed))
        assert live is not None and ref is not None
        _assert_same_result(live, ref)

    def test_ba_reference_resects_through_the_live_solver(self):
        assert oracles.solve_pnp is pnp.solve_pnp
        assert oracles.solve_pnp is not oracles.solve_pnp_reference

    @given(seed=st.integers(min_value=0, max_value=10_000),
           log_scale=st.lists(st.floats(min_value=-14.0, max_value=0.0),
                              min_size=1, max_size=8))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_property_stacked_perturbation_is_perturb(self, seed, log_scale):
        # Row i of the stacked pass is pose.perturb(step i) to the bit,
        # first-order rows (theta < 1e-10) included.
        rng = np.random.default_rng(seed)
        pose = random_se3(rng)
        steps = rng.normal(size=(len(log_scale), 6)) * 10.0 ** np.array(log_scale)[:, None]
        rotations, translations = pnp._perturb_stack(pose, steps)
        for step, rotation, translation in zip(steps, rotations, translations):
            want = pose.perturb(step)
            assert rotation.tobytes() == want.rotation.tobytes()
            assert translation.tobytes() == want.translation.tobytes()


class TestShadowSession:
    """Every PnP call of the short scenario, the tracker's two per frame
    and the keyframe resections of local BA, returns the reference's
    bytes."""

    def test_every_call_matches_the_reference(self, monkeypatch):
        from repro.slam import bundle_adjustment, tracking
        from tests.test_core_session import _short_default, _short_session

        live = pnp.solve_pnp
        calls = {"tracking": 0, "bundle_adjustment": 0, "pnp": 0}

        def shadowed(caller):
            def solve(points_w, uv, camera, initial_pose, **kwargs):
                result = live(points_w, uv, camera, initial_pose, **kwargs)
                _assert_same_result(result, oracles.solve_pnp_reference(
                    points_w, uv, camera, initial_pose, **kwargs))
                calls[caller] += 1
                return result
            return solve

        monkeypatch.setattr(tracking, "solve_pnp", shadowed("tracking"))
        monkeypatch.setattr(bundle_adjustment, "solve_pnp",
                            shadowed("bundle_adjustment"))
        monkeypatch.setattr(pnp, "solve_pnp", shadowed("pnp"))
        digest = _short_session().run().digest()
        assert calls["tracking"] > 100 and calls["bundle_adjustment"] > 10
        assert digest == _short_default()[1].digest()


def _twin(mapper):
    """A deep copy of a local mapper that shares its vocabulary and camera."""
    return copy.deepcopy(mapper, {id(mapper.vocabulary): mapper.vocabulary,
                                  id(mapper.camera): mapper.camera})


class TestKeyframeShadowSession:
    """Every keyframe insertion and every local BA of the short scenario
    leaves the same bytes as the bodies they replaced, each run on a
    deep copy of the map it started from."""

    def test_every_insertion_and_ba_matches_the_reference(self, monkeypatch):
        from repro.slam import local_mapping
        from tests.test_core_session import _short_default, _short_session

        live_insert = local_mapping.LocalMapper.insert_keyframe
        live_ba = local_mapping.local_bundle_adjustment
        calls = {"insert_keyframe": 0, "local_ba": 0}

        def insert_keyframe(mapper, frame, depth_scale=1.0):
            twin = _twin(mapper)
            got = live_insert(mapper, frame, depth_scale)
            want = oracles.insert_keyframe_reference(twin, frame, depth_scale)
            assert got.keyframe_id == want.keyframe_id
            oracles.assert_same_map(mapper.map, twin.map)
            assert mapper.point_allocator._next == twin.point_allocator._next
            assert mapper.database._vectors == twin.database._vectors
            calls["insert_keyframe"] += 1
            return got

        def local_bundle_adjustment(slam_map, camera, keyframe_ids, **kwargs):
            twin = copy.deepcopy(slam_map)
            got = live_ba(slam_map, camera, keyframe_ids, **kwargs)
            want = oracles.local_bundle_adjustment_arrays_reference(
                twin, camera, keyframe_ids, **kwargs)
            assert got == want
            oracles.assert_same_map(slam_map, twin)
            calls["local_ba"] += 1
            return got

        monkeypatch.setattr(local_mapping.LocalMapper, "insert_keyframe",
                            insert_keyframe)
        monkeypatch.setattr(local_mapping, "local_bundle_adjustment",
                            local_bundle_adjustment)
        digest = _short_session().run().digest()
        assert calls["insert_keyframe"] > 10 and calls["local_ba"] > 10
        assert digest == _short_default()[1].digest()


class TestLinearisationCount:
    """Only a pose the solve steps from is linearised."""

    def test_jacobians_built_only_for_kept_poses(self, monkeypatch):
        counts = {"jacobian": 0, "reference": 0}

        def counting(key, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        bases = []  # the pose each reference trial steps from
        perturb = oracles.perturb_reference

        def recording_perturb(pose, xi):
            bases.append(pose)
            return perturb(pose, xi)

        monkeypatch.setattr(pnp, "_jacobian", counting("jacobian", pnp._jacobian))
        monkeypatch.setattr(oracles, "_project_with_jacobian",
                            counting("reference", oracles._project_with_jacobian))
        monkeypatch.setattr(oracles, "perturb_reference", recording_perturb)
        for name in ("depths", "late_acceptance", "front_in_some_rows"):
            counts["jacobian"] = counts["reference"] = 0
            bases.clear()
            pts_w, uv, cam, prior, kwargs = _pnp_case(name)
            live = solve_pnp(pts_w, uv, cam, prior, **kwargs)
            ref = oracles.solve_pnp_reference(pts_w, uv, cam, prior, **kwargs)
            _assert_same_result(live, ref)
            # A base the reference stepped from other than the first is
            # a step it kept, and so is a last step that ends the solve
            # (out of iterations, or converged).
            ends_on_kept = ref.pose_cw is not bases[-1]
            accepted = len({id(b) for b in bases}) - 1 + ends_on_kept
            assert accepted >= 1
            # One Jacobian at the start and one after each kept step
            # but a last one.
            assert counts["jacobian"] == accepted + 1 - ends_on_kept
            # The reference built a Jacobian for every trial it scored.
            assert counts["reference"] >= counts["jacobian"] + 8


class TestBundleAdjustment:
    def _slam_scene(self, seed=0, pose_noise=0.02, point_noise=0.05):
        """Three keyframes viewing a shared cloud, with injected noise."""
        from repro.slam import IdAllocator, SlamMap
        from repro.slam.keyframe import KeyFrame
        from repro.slam.mappoint import MapPoint
        from repro.vision.brief import DESCRIPTOR_BYTES

        rng = np.random.default_rng(seed)
        cam = PinholeCamera.ideal(320, 240)
        world = np.column_stack(
            [rng.uniform(-3, 3, 120), rng.uniform(-2, 2, 120), rng.uniform(4, 12, 120)]
        )
        slam_map = SlamMap()
        kf_alloc, pt_alloc = IdAllocator(0), IdAllocator(0)
        true_poses = [
            SE3(so3.exp(np.array([0, 0.05 * k, 0])), np.array([0.3 * k, 0, 0]))
            for k in range(3)
        ]
        point_ids = []
        for i in range(120):
            point = MapPoint(
                point_id=pt_alloc.allocate(),
                position=world[i] + rng.normal(scale=point_noise, size=3),
                descriptor=rng.integers(0, 256, DESCRIPTOR_BYTES, dtype=np.uint8),
            )
            slam_map.add_mappoint(point)
            point_ids.append(point.point_id)
        for k, pose in enumerate(true_poses):
            uv, depth, valid = cam.project_world(world, pose)
            idx = np.nonzero(valid)[0]
            kf = KeyFrame(
                keyframe_id=kf_alloc.allocate(),
                timestamp=float(k),
                pose_cw=pose.perturb(rng.normal(scale=pose_noise, size=6))
                if k > 0 else pose,
                uv=uv[idx],
                descriptors=np.zeros((len(idx), DESCRIPTOR_BYTES), dtype=np.uint8),
                depths=depth[idx],
                point_ids=np.array([point_ids[i] for i in idx], dtype=np.int64),
            )
            for feat_i, world_i in enumerate(idx):
                slam_map.mappoints[point_ids[world_i]].add_observation(
                    kf.keyframe_id, feat_i
                )
            slam_map.add_keyframe(kf)
        return slam_map, cam, world, true_poses

    def test_reduces_reprojection_error(self):
        slam_map, cam, _, _ = self._slam_scene()
        stats = local_bundle_adjustment(
            slam_map, cam, list(slam_map.keyframes), fixed_keyframe_ids={0}
        )
        assert stats.final_error_px < stats.initial_error_px

    def test_improves_point_positions(self):
        slam_map, cam, world, _ = self._slam_scene(seed=1)
        before = np.mean(
            [
                np.linalg.norm(slam_map.mappoints[pid].position - world[i])
                for i, pid in enumerate(sorted(slam_map.mappoints))
            ]
        )
        local_bundle_adjustment(
            slam_map, cam, list(slam_map.keyframes), fixed_keyframe_ids={0}
        )
        after = np.mean(
            [
                np.linalg.norm(slam_map.mappoints[pid].position - world[i])
                for i, pid in enumerate(sorted(slam_map.mappoints))
            ]
        )
        assert after < before

    def test_fixed_keyframes_unchanged(self):
        slam_map, cam, _, true_poses = self._slam_scene(seed=2)
        anchor_pose = slam_map.keyframes[0].pose_cw
        local_bundle_adjustment(
            slam_map, cam, list(slam_map.keyframes), fixed_keyframe_ids={0}
        )
        assert slam_map.keyframes[0].pose_cw.almost_equal(anchor_pose, 1e-12, 1e-12)

    def test_empty_window(self):
        slam_map, cam, _, _ = self._slam_scene(seed=3)
        stats = local_bundle_adjustment(slam_map, cam, [])
        assert stats.n_keyframes == 0

    def test_matches_the_arrays_reference(self):
        """Byte-equal to the argsort-splice body, with depth rows on only
        some observations, a point too few keyframes see to move, and a
        feature whose point has left the map."""
        slam_map, cam, _, _ = self._slam_scene(seed=5)
        for kf in slam_map.keyframes.values():
            kf.depths[::3] = -1.0
        slam_map.remove_mappoint(int(slam_map.keyframes[1].point_ids[4]))
        slam_map.keyframes[2].point_ids[7] = 10**6
        twin = copy.deepcopy(slam_map)
        got = local_bundle_adjustment(slam_map, cam, list(slam_map.keyframes),
                                      fixed_keyframe_ids={0})
        want = oracles.local_bundle_adjustment_arrays_reference(
            twin, cam, list(twin.keyframes), fixed_keyframe_ids={0})
        assert got == want
        oracles.assert_same_map(slam_map, twin)

    def test_global_ba_runs(self):
        slam_map, cam, _, _ = self._slam_scene(seed=4)
        stats = global_bundle_adjustment(slam_map, cam)
        assert stats.n_keyframes == 3
        assert np.isfinite(stats.final_error_px)


class TestInsertKeyframe:
    """One insertion on a small map against the per-feature body."""

    @pytest.mark.parametrize("depth_scale", [1.0, 0.8])
    def test_matches_the_reference(self, depth_scale):
        from repro.slam import IdAllocator, KeyframeDatabase, default_vocabulary
        from repro.slam.frame import Frame
        from repro.slam.local_mapping import LocalMapper
        from repro.vision.brief import DESCRIPTOR_BYTES
        from repro.vision.orb import FeatureSet

        slam_map, cam, world, poses = TestBundleAdjustment()._slam_scene(seed=6)
        vocabulary = default_vocabulary()
        kf_alloc, pt_alloc = IdAllocator(0), IdAllocator(0)
        kf_alloc.reserve_until(max(slam_map.keyframes) + 1)
        pt_alloc.reserve_until(max(slam_map.mappoints) + 1)
        mapper = LocalMapper(slam_map, cam, vocabulary, KeyframeDatabase(vocabulary),
                             kf_alloc, pt_alloc)
        mapper.last_keyframe_id = max(slam_map.keyframes)
        rng = np.random.default_rng(7)
        pose = SE3(so3.exp(np.array([0.0, 0.12, 0.0])), np.array([0.5, 0.0, 0.0]))
        extra = np.column_stack([rng.uniform(-3, 3, 40), rng.uniform(-2, 2, 40),
                                 rng.uniform(4, 12, 40)])
        uv, depth, valid = cam.project_world(np.vstack([world, extra]), pose)
        idx = np.flatnonzero(valid)
        depth = depth[idx] + rng.normal(scale=0.02, size=len(idx))
        ids = sorted(slam_map.mappoints)
        matched = np.array([ids[i] if i < len(world) and i % 4 else -1 for i in idx],
                           dtype=np.int64)
        matched[5] = matched[9] = matched[13]     # one point, three features
        matched[17] = 10**6                        # a point no longer in the map
        depth[[2, 21]] = [-1.0, np.nan]            # no depth
        depth[30] = 200.0                          # out of range
        descriptors = rng.integers(0, 256, (len(idx), DESCRIPTOR_BYTES), dtype=np.uint8)
        frame = Frame(0, 9.0, FeatureSet(uv=uv[idx] + rng.normal(scale=0.5, size=(len(idx), 2)),
                                         descriptors=descriptors, depths=depth),
                      pose_cw=pose, matched_point_ids=matched)
        twin = _twin(mapper)
        got = mapper.insert_keyframe(frame, depth_scale)
        want = oracles.insert_keyframe_reference(twin, frame, depth_scale)
        assert got.point_ids.tobytes() == want.point_ids.tobytes()
        assert (got.point_ids[[5, 9, 13]] == matched[13]).all()
        assert len(mapper.map.mappoints) > len(ids)          # points were created
        oracles.assert_same_map(mapper.map, twin.map)
        assert mapper.point_allocator._next == twin.point_allocator._next

