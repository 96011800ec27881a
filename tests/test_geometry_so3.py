"""Unit and property tests for SO(3) utilities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import so3


def _is_rotation(matrix, tol=1e-6):
    """Orthonormal with unit determinant."""
    return (np.allclose(matrix @ matrix.T, np.eye(3), atol=tol)
            and abs(np.linalg.det(matrix) - 1.0) < tol)


finite_vec3 = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=3, max_size=3
).map(np.array)


def test_hat_matches_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = rng.normal(size=3)
        v = rng.normal(size=3)
        assert np.allclose(so3.hat(w) @ v, np.cross(w, v))


def test_vee_inverts_hat():
    w = np.array([0.1, -2.0, 3.5])
    assert np.allclose(so3.vee(so3.hat(w)), w)


def test_exp_identity():
    assert np.allclose(so3.exp(np.zeros(3)), np.eye(3))


def test_exp_quarter_turn_z():
    r = so3.exp(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_log_of_identity_is_zero():
    assert np.allclose(so3.log(np.eye(3)), np.zeros(3))


@given(finite_vec3)
@settings(max_examples=50, deadline=None)
def test_exp_produces_valid_rotation(omega):
    assert _is_rotation(so3.exp(omega))


@given(finite_vec3)
@settings(max_examples=50, deadline=None)
def test_log_inverts_exp(omega):
    # Keep |omega| < pi so the log branch is unique.
    theta = np.linalg.norm(omega)
    if theta >= np.pi - 1e-3:
        omega = omega / theta * (np.pi - 0.1)
    recovered = so3.log(so3.exp(omega))
    assert np.allclose(recovered, omega, atol=1e-7)


def test_log_near_pi():
    axis = np.array([1.0, 0.0, 0.0])
    omega = axis * (np.pi - 1e-8)
    recovered = so3.log(so3.exp(omega))
    assert abs(np.linalg.norm(recovered) - (np.pi - 1e-8)) < 1e-5


def test_random_rotation_is_valid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert _is_rotation(so3.random_rotation(rng))


@given(finite_vec3, finite_vec3)
@settings(max_examples=30, deadline=None)
def test_composition_is_rotation(w1, w2):
    assert _is_rotation(so3.exp(w1) @ so3.exp(w2))
