import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallsense.orientation import (
    DEG,
    WORLD_UP,
    FilterConfig,
    FilterState,
    OrientationError,
    angular_derivative,
    estimate_orientation,
    init_state,
    predict_step,
    quat_from_rotvec,
    quat_to_matrix,
    tilt_angles,
    update_step,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def _tilt(q) -> float:
    """Tilt of one quaternion, as a one-row series."""
    return float(tilt_angles(np.asarray(q)[None, :])[0])


# ---------------------------------------------------------------------------
# Matrix-form reference of the filter: F P F^T + Q for the prediction, the
# Joseph form with a linear solve for the gain in the update.
# ---------------------------------------------------------------------------

def _ref_compose(q, dq):
    """Normalized, sign-canonical q * dq through the left-product matrix."""
    w, x, y, z = q
    left = np.array([[w, -x, -y, -z],
                     [x, w, -z, y],
                     [y, z, w, -x],
                     [z, -y, x, w]])
    out = left @ dq
    out = out / np.linalg.norm(out)
    return -out if out[0] < 0 else out


def _ref_predict(state, omega_dps, dt):
    dq = quat_from_rotvec(np.asarray(omega_dps, dtype=float) * (DEG * dt))
    F = quat_to_matrix(dq).T
    P = F @ state.P @ F.T + state.config.gyro_noise * dt * np.eye(3)
    return _ref_compose(state.q, dq), 0.5 * (P + P.T)


def _ref_update(state, accel_g):
    a = np.asarray(accel_g, dtype=float)
    v = quat_to_matrix(state.q).T @ WORLD_UP
    H = np.array([[0.0, -v[2], v[1]],
                  [v[2], 0.0, -v[0]],
                  [-v[1], v[0], 0.0]])
    R = state.config.accel_noise * np.eye(3)
    S = H @ state.P @ H.T + R
    K = np.linalg.solve(S.T, (state.P @ H.T).T).T
    dtheta = K @ (a / np.linalg.norm(a) - v)
    IKH = np.eye(3) - K @ H
    P = IKH @ state.P @ IKH.T + K @ R @ K.T
    return _ref_compose(state.q, quat_from_rotvec(dtheta)), 0.5 * (P + P.T)


_unit = st.floats(-1.0, 1.0)
_vec3 = st.tuples(_unit, _unit, _unit)


@st.composite
def filter_states(draw):
    """Unit attitude anywhere; covariance A A^T + floor with eigenvalues
    between about 1e-6 and 3 rad^2 (the filter starts at 1 rad^2 at
    most)."""
    rotvec = np.array(draw(_vec3)) * math.pi
    q = quat_from_rotvec(rotvec)
    q = q / np.linalg.norm(q)
    A = np.array([draw(_vec3) for _ in range(3)])
    scale = 10.0 ** draw(st.floats(-6.0, 0.0))
    floor = 10.0 ** draw(st.floats(-6.0, -2.0))
    P = scale * (A @ A.T) + floor * np.eye(3)
    return FilterState(q=-q if q[0] < 0 else q, P=P)


def _accel(direction, magnitude):
    d = np.asarray(direction, dtype=float)
    n = np.linalg.norm(d)
    if n < 1e-3:
        d, n = np.array([0.0, 0.0, 1.0]), 1.0
    return d / n * magnitude


class TestClosedFormMatchesMatrixForm:
    @given(filter_states(), _vec3)
    @settings(max_examples=300, deadline=None)
    def test_predict(self, state, rate):
        omega = np.array(rate) * 2000.0          # up to +-2000 dps
        out = predict_step(state, omega, 0.005)
        q_ref, P_ref = _ref_predict(state, omega, 0.005)
        assert np.abs(out.q - q_ref).max() <= 1e-12
        assert np.abs(out.P - P_ref).max() <= 1e-12
        assert np.array_equal(out.P, out.P.T)
        assert out.q.shape == (4,) and out.P.shape == (3, 3)

    @given(filter_states(), _vec3, st.floats(0.71, 1.29))
    @settings(max_examples=300, deadline=None)
    def test_update_inside_gate(self, state, direction, magnitude):
        accel = _accel(direction, magnitude)
        out = update_step(state, accel)
        assert out is not state
        q_ref, P_ref = _ref_update(state, accel)
        assert np.abs(out.q - q_ref).max() <= 1e-12
        assert np.abs(out.P - P_ref).max() <= 1e-12
        assert np.array_equal(out.P, out.P.T)
        assert out.q.shape == (4,) and out.P.shape == (3, 3)

    @given(filter_states(), _vec3,
           st.one_of(st.floats(0.0, 0.69), st.floats(1.31, 16.0)))
    @settings(max_examples=100, deadline=None)
    def test_update_outside_gate_returns_same_state(self, state, direction,
                                                    magnitude):
        assert update_step(state, _accel(direction, magnitude)) is state

    @given(filter_states(), st.integers(0, 2),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=50, deadline=None)
    def test_non_finite_sample_raises(self, state, axis, bad):
        sample = np.array([0.0, 0.0, 1.0])
        sample[axis] = bad
        with pytest.raises(OrientationError):
            update_step(state, sample)
        with pytest.raises(OrientationError):
            predict_step(state, sample, 0.005)


class TestFilterConfig:
    def test_defaults_valid(self):
        FilterConfig()
        FilterConfig(gyro_noise=0.0, gate_low_g=1.0, gate_high_g=1.0)

    @pytest.mark.parametrize("bad", [
        {"accel_noise": 0.0},
        {"accel_noise": -0.05},
        {"accel_noise": math.nan},
        {"gyro_noise": -0.01},
        {"gyro_noise": math.nan},
        {"gate_low_g": 0.0},
        {"gate_low_g": -0.5},
        {"gate_low_g": 1.4},                    # above gate_high_g
        {"gate_high_g": 0.6},
        {"gate_high_g": math.nan},
        {"init_window_s": 0.0},
        {"init_window_s": -1.0},
        {"init_att_std_rad": 0.0},
        {"dynamic_init_std_rad": 0.0},
        {"dynamic_init_std_rad": math.nan},
    ])
    def test_rejects_unrunnable(self, bad):
        with pytest.raises(OrientationError):
            FilterConfig(**bad)


def _state(P_scale=0.01, **cfg):
    return FilterState(q=IDENTITY.copy(), P=np.eye(3) * P_scale,
                       config=FilterConfig(**cfg))


def _tilted_accel(phi, axis=(1.0, 0.0, 0.0)):
    """Body-frame gravity-up reading for a tilt of phi about the axis."""
    q = quat_from_rotvec(np.asarray(axis) * phi)
    return quat_to_matrix(q).T @ np.array([0.0, 0.0, 1.0])


class TestPredict:
    def test_zero_rate_keeps_quaternion(self):
        s0 = _state()
        s1 = predict_step(s0, np.zeros(3), 0.005)
        assert np.allclose(s1.q, s0.q)
        # covariance grows by process noise
        assert np.all(np.diag(s1.P) > np.diag(s0.P))

    def test_ninety_degrees_about_z(self):
        s1 = predict_step(_state(), np.array([0.0, 0.0, 90.0]), 1.0)
        expected = np.array([math.cos(math.pi / 4), 0, 0,
                             math.sin(math.pi / 4)])
        assert np.allclose(s1.q, expected, atol=1e-12)

    def test_rejects_bad_dt(self):
        with pytest.raises(OrientationError):
            predict_step(_state(), np.zeros(3), 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(OrientationError):
            predict_step(_state(), np.array([np.nan, 0, 0]), 0.005)

    def test_norm_preserved_over_random_steps(self):
        rng = np.random.default_rng(0)
        s = _state()
        for _ in range(2000):
            s = predict_step(s, rng.uniform(-500, 500, 3),
                             rng.uniform(1e-4, 0.02))
            assert abs(np.linalg.norm(s.q) - 1.0) < 1e-9


class TestUpdate:
    def test_zero_innovation_keeps_quaternion(self):
        s = _state()
        s2 = update_step(s, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(s2.q, s.q, atol=1e-15)

    def test_gating_skips_dynamic_samples(self):
        s = _state()
        s2 = update_step(s, np.array([0.0, 0.0, 3.0]))  # 3 g transient
        assert s2 is s

    @pytest.mark.parametrize("mag", [0.69, 1.31, 0.2, 2.0])
    def test_gating_band_boundaries(self, mag):
        s = _state()
        assert update_step(s, np.array([0.0, 0.0, mag])) is s

    def test_static_tilt_converges(self):
        # repeated updates on a constant tilted reading: within 0.5 degrees
        # after 2 s worth of samples
        a = _tilted_accel(math.radians(30.0))
        s = _state(P_scale=1.0)
        for _ in range(400):
            s = predict_step(s, np.zeros(3), 0.005)
            s = update_step(s, a)
        assert abs(math.degrees(_tilt(s.q)) - 30.0) < 0.5

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(3)
        s = _state(P_scale=0.5)
        for _ in range(500):
            s = predict_step(s, rng.uniform(-300, 300, 3), 0.005)
            s = update_step(s, rng.normal(0, 0.3, 3) + [0, 0, 1.0])
            assert np.abs(s.P - s.P.T).max() < 1e-12
            assert np.linalg.eigvalsh(s.P).min() > -1e-12


class TestEstimateOrientation:
    def test_static_upright(self):
        n = 600
        accel = np.tile([0.0, 0.0, 1.0], (n, 1))
        quats = estimate_orientation(accel, np.zeros((n, 3)))
        assert quats.shape == (n, 4)
        theta = tilt_angles(quats)
        assert np.all(theta < math.radians(0.1))

    def test_static_on_side(self):
        n = 600
        accel = np.tile(_tilted_accel(math.pi / 2), (n, 1))
        quats = estimate_orientation(accel, np.zeros((n, 3)))
        theta = tilt_angles(quats)
        # converged to 90 degrees within 1 degree
        assert abs(math.degrees(theta[-1]) - 90.0) < 1.0

    def test_output_length_matches_input(self):
        n = 123
        accel = np.tile([0.0, 0.0, 1.0], (n, 1))
        assert estimate_orientation(accel, np.zeros((n, 3))).shape == (n, 4)

    def test_known_tilt_converges_fast(self):
        # noiseless static data at a known tilt: within 0.1 degree inside 1 s
        phi = math.radians(25.0)
        n = 300
        accel = np.tile(_tilted_accel(phi), (n, 1))
        quats = estimate_orientation(accel, np.zeros((n, 3)))
        theta = tilt_angles(quats)
        assert abs(math.degrees(theta[200]) - 25.0) < 0.1
        assert np.all(theta >= 0) and np.all(theta <= math.pi)

    def test_dynamic_start_falls_back_to_identity(self):
        state = init_state(np.array([0.0, 0.0, 3.0]))
        assert np.allclose(state.q, IDENTITY)
        assert state.P[0, 0] >= 1.0

    def test_empty_trial_rejected(self):
        with pytest.raises(OrientationError):
            estimate_orientation(np.empty((0, 3)), np.empty((0, 3)))


class TestTiltAngle:
    def test_identity_is_zero(self):
        assert _tilt(IDENTITY) == 0.0

    def test_quarter_turn_about_x(self):
        q = quat_from_rotvec(np.array([math.pi / 2, 0, 0]))
        assert _tilt(q) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_sign_symmetry(self):
        q = quat_from_rotvec(np.array([0.3, -0.2, 0.9]))
        assert _tilt(q) == pytest.approx(_tilt(-q))

    def test_batch_matches_scalar(self):
        # The angle between R(q) u and the world up: acos((R(q) u)_z), for
        # the default u = e_z and an oblique mounting.
        rng = np.random.default_rng(5)
        quats = np.array([quat_from_rotvec(rng.normal(size=3))
                          for _ in range(50)])
        for body_up in (None, (0.3, -0.8, 0.5)):
            u = np.array(body_up or (0.0, 0.0, 1.0))
            u = u / np.linalg.norm(u)
            want = [math.acos(min(1.0, max(-1.0,
                                           (quat_to_matrix(q) @ u)[2])))
                    for q in quats]
            batch = tilt_angles(quats, body_up)
            assert np.allclose(batch, want)
            assert np.all(batch >= 0) and np.all(batch <= math.pi)


    @pytest.mark.parametrize("body_up", [
        (0.0, 0.0, 0.0), (1.0, 2.0), (math.nan, 0.0, 1.0),
        (0.0, math.inf, 1.0), ((0.0, 0.0, 1.0),)])
    def test_body_up_without_a_tilt_rejected(self, body_up):
        with pytest.raises(OrientationError, match="body_up"):
            tilt_angles(IDENTITY[None, :], body_up)

    def test_body_up_scale_does_not_matter(self):
        q = quat_from_rotvec(np.array([0.3, -0.2, 0.9]))[None, :]
        want = tilt_angles(q, (0.0, 0.0, 1.0))
        for body_up in ((0.0, 0.0, 1e-200), (0.0, 0.0, 1e200)):
            assert np.array_equal(tilt_angles(q, body_up), want)


class TestAngularDerivative:
    def test_constant_series_is_zero(self):
        series = np.full(50, 0.7)
        assert np.allclose(angular_derivative(series, 0.005, 1), 0.0)
        assert np.allclose(angular_derivative(series, 0.005, 2), 0.0)

    def test_linear_ramp(self):
        # causal: entry k reads samples k-order..k; the first `order`
        # entries have no full history and are exactly 0
        t = np.arange(100) * 0.005
        series = 4.2 * t
        d1 = angular_derivative(series, 0.005, 1)
        assert d1[0] == 0.0
        assert np.allclose(d1[1:], 4.2)
        d2 = angular_derivative(series, 0.005, 2)
        assert np.array_equal(d2[:2], [0.0, 0.0])
        assert np.allclose(d2[2:], 0.0, atol=1e-9)

    def test_quadratic_second_derivative(self):
        t = np.arange(200) * 0.005
        d2 = angular_derivative(t ** 2, 0.005, 2)
        assert np.array_equal(d2[:2], [0.0, 0.0])
        assert np.abs(d2[2:] - 2.0).max() < 1e-6

    def test_too_short(self):
        with pytest.raises(OrientationError):
            angular_derivative(np.array([1.0, 2.0]), 0.005, 2)
        with pytest.raises(OrientationError):
            angular_derivative(np.array([1.0]), 0.005, 1)
