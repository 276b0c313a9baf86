import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fallsense import orientation
from fallsense.orientation import (
    DEG,
    WORLD_UP,
    FilterConfig,
    FilterState,
    OrientationError,
    UnitAxis,
    angular_derivative,
    estimate_orientation,
    init_state,
    predict_step,
    quat_from_rotvec,
    quat_normalize,
    quat_to_matrix,
    tilt,
    tilt_angles,
    unit_body_up,
    update_step,
)
from test_synthetic import digest_in_child

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


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


# ---------------------------------------------------------------------------
# The steps as they were composed of helpers before their bodies were
# inlined, kept as the bit-for-bit reference: the exponential, the product
# and the normalization as three calls, the third row read off all nine
# entries of R(q), the congruence M P M^T as a call, and a state built by
# its own constructor.  The inlined steps give the same bits.
# ---------------------------------------------------------------------------

def _ref_rotvec_quat(vx, vy, vz):
    angle = math.sqrt(vx * vx + vy * vy + vz * vz)
    if angle < 1e-12:
        return (1.0, 0.5 * vx, 0.5 * vy, 0.5 * vz)
    s = math.sin(0.5 * angle) / angle
    return (math.cos(0.5 * angle), vx * s, vy * s, vz * s)


def _ref_quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _ref_rotate(q, vx, vy, vz):
    dq = _ref_rotvec_quat(vx, vy, vz)
    return quat_normalize(_ref_quat_multiply(q, dq)), dq


def _ref_rotation(q):
    w, x, y, z = q
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def _ref_up_row(q):
    return _ref_rotation(q)[6:]


def _ref_congruence(m, p):
    """Upper triangle of M P M^T; M is a row-major 9-tuple, P an upper
    triangle."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
    p00, p01, p02, p11, p12, p22 = p
    a00 = m00 * p00 + m01 * p01 + m02 * p02     # A = M P
    a01 = m00 * p01 + m01 * p11 + m02 * p12
    a02 = m00 * p02 + m01 * p12 + m02 * p22
    a10 = m10 * p00 + m11 * p01 + m12 * p02
    a11 = m10 * p01 + m11 * p11 + m12 * p12
    a12 = m10 * p02 + m11 * p12 + m12 * p22
    a20 = m20 * p00 + m21 * p01 + m22 * p02
    a21 = m20 * p01 + m21 * p11 + m22 * p12
    a22 = m20 * p02 + m21 * p12 + m22 * p22
    return (a00 * m00 + a01 * m01 + a02 * m02,
            a00 * m10 + a01 * m11 + a02 * m12,
            a00 * m20 + a01 * m21 + a02 * m22,
            a10 * m10 + a11 * m11 + a12 * m12,
            a10 * m20 + a11 * m21 + a12 * m22,
            a20 * m20 + a21 * m21 + a22 * m22)


def _ref_state(quat, cov, config):
    state = object.__new__(FilterState)
    state.quat = quat
    state.cov = cov
    state.config = config
    return state


def _ref_floats(values):
    return values.tolist() if isinstance(values, np.ndarray) else values


def _ref_predict_step(state, omega_dps, dt):
    if not 0.0 < dt < math.inf:
        raise OrientationError(f"dt must be positive and finite, got {dt}")
    wx, wy, wz = _ref_floats(omega_dps)
    if not (math.isfinite(wx) and math.isfinite(wy) and math.isfinite(wz)):
        raise OrientationError("non-finite gyro sample")
    scale = DEG * dt
    q, dq = _ref_rotate(state.quat, wx * scale, wy * scale, wz * scale)
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = _ref_rotation(dq)
    p00, p01, p02, p11, p12, p22 = _ref_congruence(
        (r00, r10, r20, r01, r11, r21, r02, r12, r22), state.cov)
    qn = state.config.gyro_noise * dt
    return _ref_state(q, (p00 + qn, p01, p02, p11 + qn, p12, p22 + qn),
                      state.config)


def _ref_update_step(state, accel_g):
    ax, ay, az = _ref_floats(accel_g)
    if not (math.isfinite(ax) and math.isfinite(ay) and math.isfinite(az)):
        raise OrientationError("non-finite accelerometer sample")
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    cfg = state.config
    if not (cfg.gate_low_g <= norm <= cfg.gate_high_g):
        return state
    vx, vy, vz = _ref_up_row(state.quat)
    ex, ey, ez = ax / norm - vx, ay / norm - vy, az / norm - vz
    p00, p01, p02, p11, p12, p22 = p = state.cov
    b00 = p02 * vy - p01 * vz
    b01 = p00 * vz - p02 * vx
    b02 = p01 * vx - p00 * vy
    b10 = p12 * vy - p11 * vz
    b11 = p01 * vz - p12 * vx
    b12 = p11 * vx - p01 * vy
    b20 = p22 * vy - p12 * vz
    b21 = p02 * vz - p22 * vx
    b22 = p12 * vx - p02 * vy
    r = cfg.accel_noise
    s00 = b20 * vy - b10 * vz + r
    s01 = b21 * vy - b11 * vz
    s02 = b22 * vy - b12 * vz
    s11 = b01 * vz - b21 * vx + r
    s12 = b02 * vz - b22 * vx
    s22 = b12 * vx - b02 * vy + r
    c00 = s11 * s22 - s12 * s12
    c01 = s02 * s12 - s01 * s22
    c02 = s01 * s12 - s02 * s11
    c11 = s00 * s22 - s02 * s02
    c12 = s01 * s02 - s00 * s12
    c22 = s00 * s11 - s01 * s01
    inv_det = 1.0 / (s00 * c00 + s01 * c01 + s02 * c02)
    c00 *= inv_det
    c01 *= inv_det
    c02 *= inv_det
    c11 *= inv_det
    c12 *= inv_det
    c22 *= inv_det
    k00 = b00 * c00 + b01 * c01 + b02 * c02
    k01 = b00 * c01 + b01 * c11 + b02 * c12
    k02 = b00 * c02 + b01 * c12 + b02 * c22
    k10 = b10 * c00 + b11 * c01 + b12 * c02
    k11 = b10 * c01 + b11 * c11 + b12 * c12
    k12 = b10 * c02 + b11 * c12 + b12 * c22
    k20 = b20 * c00 + b21 * c01 + b22 * c02
    k21 = b20 * c01 + b21 * c11 + b22 * c12
    k22 = b20 * c02 + b21 * c12 + b22 * c22
    q = _ref_rotate(state.quat, k00 * ex + k01 * ey + k02 * ez,
                    k10 * ex + k11 * ey + k12 * ez,
                    k20 * ex + k21 * ey + k22 * ez)[0]
    j00, j01, j02, j11, j12, j22 = _ref_congruence(
        (1.0 - k01 * vz + k02 * vy, k00 * vz - k02 * vx, k01 * vx - k00 * vy,
         k12 * vy - k11 * vz, 1.0 + k10 * vz - k12 * vx, k11 * vx - k10 * vy,
         k22 * vy - k21 * vz, k20 * vz - k22 * vx, 1.0 + k21 * vx - k20 * vy),
        p)
    return _ref_state(q, (
        j00 + r * (k00 * k00 + k01 * k01 + k02 * k02),
        j01 + r * (k00 * k10 + k01 * k11 + k02 * k12),
        j02 + r * (k00 * k20 + k01 * k21 + k02 * k22),
        j11 + r * (k10 * k10 + k11 * k11 + k12 * k12),
        j12 + r * (k10 * k20 + k11 * k21 + k12 * k22),
        j22 + r * (k20 * k20 + k21 * k21 + k22 * k22)), cfg)


def _same_step(out, ref, state):
    """The same bits, and a gated sample leaves the same object, which
    the benchmark's rejection counter reads."""
    assert (out is state) == (ref is state)
    assert out.quat == ref.quat and out.cov == ref.cov
    assert out.config is ref.config


# Rotation vectors down to 1e-16 rad, so the first-order branch
# (|v| < 1e-12) is drawn too.
_rotvecs = st.builds(lambda d, e: tuple((np.array(d) * 10.0 ** e).tolist()),
                     _vec3, st.floats(-16.0, 0.5))
# q about pi about x turned further about x: the product's w is negative,
# so the normalization flips the sign.
_FLIP = (tuple(quat_normalize((0.01, 1.0, 0.0, 0.0))), (0.5, 0.0, 0.0))
_FLIP_STATE = FilterState(np.array(_FLIP[0]), np.eye(3))
# An accelerometer sample that turns _FLIP_STATE's attitude through
# w < 0 in the update.
_FLIP_ACCEL = (0.0, -1.0, 0.0)
# Gates whose bounds are exact square roots, so a sample can sit on them.
_EXACT_GATES = FilterConfig(gate_low_g=0.5, gate_high_g=2.0)


class TestFusedStepsMatchComposedChain:
    @given(filter_states(), _rotvecs)
    @example(_FLIP_STATE, _FLIP[1])
    @example(_FLIP_STATE, (1e-13, 0.0, 0.0))
    @example(_FLIP_STATE, (0.0, 0.0, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_rotate_and_up_row(self, state, v):
        assert tuple(quat_from_rotvec(np.array(v)).tolist()) == \
            _ref_rotvec_quat(*v)
        assert orientation._up_row(state.quat) == _ref_up_row(state.quat)
        assert orientation._rotation(state.quat) == _ref_rotation(state.quat)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rotvec_non_finite_raises(self, bad):
        with pytest.raises(OrientationError, match="non-finite rotation"):
            quat_from_rotvec(np.array([0.1, bad, 0.0]))

    def test_flip_example_has_a_negative_product(self):
        q, v = _FLIP
        assert _ref_quat_multiply(q, _ref_rotvec_quat(*v))[0] < 0.0

    def test_update_flip_example_has_a_negative_product(self):
        # the same correction, recomputed through the matrix form: q * dq
        # has w < 0 before the normalization flips it
        state = _FLIP_STATE
        v = quat_to_matrix(state.q).T @ WORLD_UP
        H = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]],
                      [-v[1], v[0], 0.0]])
        S = H @ state.P @ H.T + state.config.accel_noise * np.eye(3)
        dtheta = state.P @ H.T @ np.linalg.solve(S, np.array(_FLIP_ACCEL)
                                                 - v)
        assert _ref_quat_multiply(
            state.quat, _ref_rotvec_quat(*dtheta.tolist()))[0] < 0.0

    @given(filter_states(), _rotvecs)
    @example(_FLIP_STATE, _FLIP[1])                     # w < 0 flip
    @example(_FLIP_STATE, (1e-13, 0.0, 0.0))            # first order
    @example(_FLIP_STATE, (0.0, 0.0, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_predict_bits(self, state, v):
        omega = np.array(v) / (DEG * 0.005)
        for sample in (omega, omega.tolist()):          # array or list
            _same_step(predict_step(state, sample, 0.005),
                       _ref_predict_step(state, sample, 0.005), state)

    @given(filter_states(), _vec3, st.floats(0.0, 2.0), st.booleans())
    @example(_FLIP_STATE, _FLIP_ACCEL, 1.0, False)      # w < 0 flip
    @example(FilterState(IDENTITY, np.eye(3)), (0.0, 0.0, 1.0), 1.0, False)
    @settings(max_examples=300, deadline=None)
    def test_update_bits(self, state, direction, magnitude, along_up):
        # along the predicted up, the innovation (so dtheta) is ~1e-16;
        # exactly along it, dtheta is 0 (the first-order branch)
        accel = (np.array(_ref_up_row(state.quat)) * magnitude if along_up
                 else _accel(direction, magnitude))
        for sample in (accel, accel.tolist()):          # array or list
            out = update_step(state, sample)
            _same_step(out, _ref_update_step(state, sample), state)
        ax, ay, az = accel.tolist()
        gated = not 0.7 <= math.sqrt(ax * ax + ay * ay + az * az) <= 1.3
        assert (out is state) == gated

    @pytest.mark.parametrize("g", [0.5, 2.0])
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_update_at_the_gate_bounds(self, g, nudge):
        # a sample on a bound is trusted, one ulp outside it is gated
        state = FilterState(np.array(_FLIP[0]), np.eye(3) * 0.01,
                            _EXACT_GATES)
        az = g if nudge == 0 else math.nextafter(g, g + nudge)
        accel = (0.0, 0.0, az)
        out = update_step(state, accel)
        _same_step(out, _ref_update_step(state, accel), state)
        outside = (nudge < 0) if g == 0.5 else (nudge > 0)
        assert (out is state) == outside

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_raise_the_same_messages(self, axis, bad):
        state = FilterState(IDENTITY, np.eye(3))
        sample = [0.0, 0.0, 1.0]
        sample[axis] = bad
        cases = [(predict_step, _ref_predict_step, (sample, 0.005)),
                 (update_step, _ref_update_step, (sample,)),
                 (predict_step, _ref_predict_step, (np.array(sample), 0.005)),
                 (update_step, _ref_update_step, (np.array(sample),)),
                 (predict_step, _ref_predict_step, ([0.0] * 3, bad)),
                 (predict_step, _ref_predict_step, ([0.0] * 3, -0.005))]
        for step, ref, args in cases:
            with pytest.raises(OrientationError) as got:
                step(state, *args)
            with pytest.raises(OrientationError) as want:
                ref(state, *args)
            assert str(got.value) == str(want.value)

    def test_non_finite_attitude_raises_the_same_message(self):
        state = FilterState(IDENTITY, np.eye(3))
        state.quat = (math.inf, 0.0, 0.0, 0.0)
        for step, ref, args in ((predict_step, _ref_predict_step,
                                 ((0.0, 0.0, 0.0), 0.005)),
                                (update_step, _ref_update_step,
                                 ((0.0, 0.0, 1.0),))):
            with pytest.raises(OrientationError) as got:
                step(state, *args)
            with pytest.raises(OrientationError) as want:
                ref(state, *args)
            assert str(got.value) == str(want.value)


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

    @pytest.mark.parametrize("dt", [-0.005, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_dt(self, dt):
        with pytest.raises(OrientationError, match="dt must be"):
            predict_step(_state(), np.zeros(3), dt)

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
        assert abs(math.degrees(tilt(s.q)) - 30.0) < 0.5

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

    def test_is_the_two_steps_scanned_over_array_rows(self):
        rng = np.random.default_rng(7)
        n = 300
        accel = rng.normal(0.0, 0.4, (n, 3)) + [0.0, 0.0, 1.0]
        gyro = rng.uniform(-200.0, 200.0, (n, 3))
        config = FilterConfig(init_window_s=0.1)
        state = init_state(accel[:20].mean(axis=0), config)
        state = update_step(state, accel[0])
        want = [state.q]
        for k in range(1, n):
            state = predict_step(state, gyro[k], 0.005)
            state = update_step(state, accel[k])
            want.append(state.q)
        got = estimate_orientation(accel, gyro, config)
        assert np.array_equal(got, np.array(want))


def ref_tilt_angles(quats, body_up=None):
    """The vectorised tilt: np.arccos of the clipped cosine, the third
    row of R(q) dotted with the unit body-up axis."""
    quats = np.asarray(quats, dtype=float)
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    cosang = 1 - 2 * (x * x + y * y)
    if body_up is not None:
        u = np.asarray(body_up, dtype=float)
        ux, uy, uz = u / math.hypot(*u.tolist())
        cosang = (2 * (x * z - w * y) * ux + 2 * (y * z + w * x) * uy
                  + cosang * uz)
    return np.arccos(np.clip(cosang, -1.0, 1.0))


class TestTiltAngle:
    @given(st.lists(st.tuples(_unit, _unit, _unit, _unit), min_size=1,
                    max_size=20),
           st.one_of(st.none(), _vec3))
    @settings(max_examples=300, deadline=None)
    def test_matches_vectorised_form(self, raw, body_up):
        # math.acos and np.arccos may differ in the last bit only
        quats = np.array(raw)
        norms = np.linalg.norm(quats, axis=1)
        assume(norms.min() > 1e-3)
        assume(body_up is None or math.hypot(*body_up) > 1e-3)
        quats /= norms[:, None]
        got = tilt_angles(quats, body_up)
        assert np.abs(got - ref_tilt_angles(quats, body_up)).max() <= 1e-15

    @pytest.mark.parametrize("body_up, index", [
        (None, 1), (None, 2), (None, slice(None)), ((0.3, -0.9, 0.1), 0),
        ((0.3, -0.9, 0.1), 3)], ids=["x", "y", "all", "oblique_w",
                                     "oblique_z"])
    def test_nan_quaternion_gives_nan(self, body_up, index):
        # the default tilt reads x and y only; an oblique one all four
        q = IDENTITY.copy()
        q[index] = math.nan
        assert np.isnan(tilt_angles(q[None, :], body_up)[0])

    def test_cosine_rounded_past_one_clamps_exactly(self):
        s = 0.7071067811865476          # 1/sqrt(2) rounded up
        assert 2 * (s * s) > 1.0
        half_turn = np.array([[s, s, 0.0, 0.0]])
        assert tilt_angles(half_turn, (0.0, 1.0, 0.0))[0] == 0.0
        assert tilt_angles(half_turn, (0.0, -1.0, 0.0))[0] == math.pi
        flipped = np.array([[0.0, 1.0000000000000002, 0.0, 0.0]])
        assert tilt_angles(flipped)[0] == math.pi

    def test_identity_is_zero(self):
        assert tilt(IDENTITY) == 0.0

    def test_quarter_turn_about_x(self):
        q = quat_from_rotvec(np.array([math.pi / 2, 0, 0]))
        assert tilt(q) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_sign_symmetry(self):
        q = quat_from_rotvec(np.array([0.3, -0.2, 0.9]))
        assert tilt(q) == pytest.approx(tilt(-q))

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


    def test_unit_axis_is_handed_back_as_it_is(self):
        # the stream scales its axis once per trial and gives the result
        # to every tick's tilt_angles, which must not scale it again
        axis = unit_body_up((0.3, -2.0, 0.7))
        assert isinstance(axis, UnitAxis)
        assert unit_body_up(axis) is axis

    @pytest.mark.parametrize("body_up", [
        (0.3, -2.0, 0.7), np.array([1e-3, 2.0, -5.0]), [0.0, -1.0, 0.0]])
    def test_unit_body_up_is_one_normalization(self, body_up):
        ux, uy, uz = (float(v) for v in body_up)
        norm = math.hypot(ux, uy, uz)
        assert unit_body_up(body_up) == (ux / norm, uy / norm, uz / norm)

    @pytest.mark.parametrize("body_up", [
        (0.3, -2.0, 0.7), (0.0, -1.0, 0.0), (0.0, 0.0, 1e-200),
        (-4.0, 1e-3, 2.5)])
    def test_unit_axis_gives_the_same_tilts(self, body_up):
        rng = np.random.default_rng(8)
        quats = np.array([quat_from_rotvec(rng.normal(size=3))
                          for _ in range(50)])
        assert np.array_equal(tilt_angles(quats, body_up),
                              tilt_angles(quats, unit_body_up(body_up)))


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


def _is_float_tuple(values, size):
    return (type(values) is tuple and len(values) == size
            and all(type(v) is float for v in values))


class TestFloatState:
    def test_arrays_round_trip_exactly(self):
        rng = np.random.default_rng(1)
        q = quat_from_rotvec(rng.uniform(-1.0, 1.0, 3))
        A = rng.normal(size=(3, 3))
        P = A @ A.T
        P = np.triu(P) + np.triu(P, 1).T        # exactly symmetric
        state = FilterState(q, P)
        assert np.array_equal(state.q, q) and np.array_equal(state.P, P)
        assert state.config == FilterConfig()
        assert _is_float_tuple(state.quat, 4) and _is_float_tuple(state.cov, 6)

    def test_array_properties_are_read_only(self):
        state = _state()
        with pytest.raises(AttributeError):
            state.q = IDENTITY
        with pytest.raises(AttributeError):
            state.P = np.eye(3)

    @given(filter_states(), _vec3, _vec3, st.floats(0.71, 1.29))
    @settings(max_examples=100, deadline=None)
    def test_array_and_list_rows_give_identical_bits(self, state, rate,
                                                     direction, magnitude):
        omega = np.array(rate) * 2000.0
        accel = _accel(direction, magnitude)
        from_array = predict_step(state, omega, 0.005)
        from_list = predict_step(state, omega.tolist(), 0.005)
        assert from_array.quat == from_list.quat
        assert from_array.cov == from_list.cov
        from_array = update_step(from_array, accel)
        from_list = update_step(from_list, accel.tolist())
        assert from_array.quat == from_list.quat
        assert from_array.cov == from_list.cov

    def test_steps_keep_python_float_tuples(self):
        rng = np.random.default_rng(5)
        s = _state(P_scale=0.5)
        for k in range(200):
            omega = rng.uniform(-300, 300, 3)
            accel = rng.normal(0, 0.3, 3) + [0, 0, 1.0]
            if k % 2:                       # list rows as the stream feeds
                omega, accel = omega.tolist(), accel.tolist()
            s = predict_step(s, omega, 0.005)
            assert _is_float_tuple(s.quat, 4) and _is_float_tuple(s.cov, 6)
            s = update_step(s, accel)
            assert _is_float_tuple(s.quat, 4) and _is_float_tuple(s.cov, 6)

    def test_gated_update_returns_same_object_for_list_row(self):
        s = _state()
        assert update_step(s, [0.0, 0.0, 3.0]) is s


# ---------------------------------------------------------------------------
# The filter's start does not depend on the BLAS kernel
# ---------------------------------------------------------------------------

def start_digest() -> str:
    """Digest of ``init_state``'s quaternion for 20 000 seeded resting
    means of 0.6-1.4 g in every direction, and for means along the
    world axes (upright, upside down, level)."""
    rng = np.random.default_rng(13)
    means = rng.normal(size=(20_000, 3))
    means *= rng.uniform(0.6, 1.4, (20_000, 1)) / np.sqrt(
        (means * means).sum(axis=1, keepdims=True))
    axes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
                     [0.0, -1.0, 0.0], [1e-13, 0.0, 1.0]])
    digest = hashlib.sha256()
    for mean in np.concatenate([means, axes]):
        digest.update(init_state(mean).q.tobytes())
    return digest.hexdigest()


@pytest.mark.bitexact
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_start_bits_do_not_depend_on_the_blas_kernel(coretype):
    # the accelerometer mean's norm, its dot with the world up and the
    # norm of their cross product are float arithmetic, not BLAS calls
    assert (digest_in_child("test_orientation.start_digest", coretype)
            == start_digest())
