"""Body orientation from gyro + accelerometer, and the gravity tilt angle.

An error-state Kalman filter with a 3-dimensional attitude-error state:
gyro rates drive the prediction, the accelerometer corrects toward the
measured gravity direction whenever its magnitude is close enough to 1 g
to be trusted.  No magnetometer, so yaw is unobservable and drifts; the
tilt angle does not depend on yaw.

Quaternions are scalar-first [w, x, y, z], unit norm, canonical sign
(w >= 0), and rotate body-frame vectors into the world frame.  The world
z axis points up (opposite gravity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORLD_UP = np.array([0.0, 0.0, 1.0])
DEG = math.pi / 180.0


class OrientationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Quaternion helpers
# ---------------------------------------------------------------------------

def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Unit norm and canonical sign (scalar component >= 0)."""
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    if n == 0.0 or not math.isfinite(n):
        raise OrientationError("cannot normalize zero/non-finite quaternion")
    q = q / n
    if q[0] < 0.0:
        q = -q
    return q


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Exact exponential map of a rotation vector (radians)."""
    angle = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if angle < 1e-12:
        # First-order expansion; renormalized by the caller.
        return np.array([1.0, 0.5 * v[0], 0.5 * v[1], 0.5 * v[2]])
    s = math.sin(0.5 * angle) / angle
    return np.array(
        [math.cos(0.5 * angle), v[0] * s, v[1] * s, v[2] * s])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (body -> world) of a unit quaternion."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return quat_to_matrix(q) @ v


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def tilt_angle(q: np.ndarray, body_up: np.ndarray | None = None) -> float:
    """Angle in [0, pi] between the rotated body-up axis and the world up.

    Insensitive to the quaternion sign.  Raises if the quaternion is not
    unit norm (beyond 1e-6).
    """
    q = np.asarray(q, dtype=float)
    norm = float(np.linalg.norm(q))
    if abs(norm - 1.0) > 1e-6:
        raise OrientationError(f"tilt_angle needs a unit quaternion, |q|={norm}")
    u = WORLD_UP if body_up is None else np.asarray(body_up, dtype=float)
    u = u / np.linalg.norm(u)
    up_world = quat_rotate(q, u)
    return math.acos(min(1.0, max(-1.0, float(up_world @ WORLD_UP))))


def tilt_angles(quats: np.ndarray, body_up: np.ndarray | None = None) -> np.ndarray:
    """Vectorized tilt over an (N, 4) quaternion series."""
    quats = np.asarray(quats, dtype=float)
    u = WORLD_UP if body_up is None else np.asarray(body_up, dtype=float)
    u = u / np.linalg.norm(u)
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    # Third row of R(q) dotted with u: the world-z component of R(q) @ u.
    r20 = 2 * (x * z - w * y)
    r21 = 2 * (y * z + w * x)
    r22 = 1 - 2 * (x * x + y * y)
    cosang = r20 * u[0] + r21 * u[1] + r22 * u[2]
    return np.arccos(np.clip(cosang, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterConfig:
    gyro_noise: float = 0.01        # process noise density, rad^2/s
    accel_noise: float = 0.05       # measurement noise, g^2
    gate_low_g: float = 0.7         # accelerometer trust band
    gate_high_g: float = 1.3
    init_window_s: float = 0.5      # accelerometer mean used to initialize
    init_att_std_rad: float = 5.0 * DEG
    dynamic_init_std_rad: float = 1.0  # fallback when the trial starts moving


@dataclass
class FilterState:
    q: np.ndarray               # (4,) unit quaternion, body -> world
    P: np.ndarray               # (3, 3) attitude-error covariance, rad^2
    config: FilterConfig = field(default_factory=FilterConfig)


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def predict_step(state: FilterState, omega_dps: np.ndarray,
                 dt: float) -> FilterState:
    """Advance the attitude by the exact exponential of the body rates."""
    if dt <= 0:
        raise OrientationError(f"dt must be positive, got {dt}")
    w = np.asarray(omega_dps, dtype=float)
    if not np.all(np.isfinite(w)):
        raise OrientationError("non-finite gyro sample")
    rotvec = w * (DEG * dt)
    dq = quat_from_rotvec(rotvec)
    q = quat_normalize(quat_multiply(state.q, dq))
    # Body-side error state: delta_next = R(dq)^T delta + noise.
    F = quat_to_matrix(dq).T
    Q = state.config.gyro_noise * dt * np.eye(3)
    P = _symmetrize(F @ state.P @ F.T + Q)
    return FilterState(q=q, P=P, config=state.config)


def update_step(state: FilterState, accel_g: np.ndarray) -> FilterState:
    """Correct toward the measured gravity direction, if trustworthy.

    Samples whose magnitude falls outside the gating band around 1 g are
    dynamic motion and leave the state untouched.
    """
    a = np.asarray(accel_g, dtype=float)
    if not np.all(np.isfinite(a)):
        raise OrientationError("non-finite accelerometer sample")
    norm = float(np.linalg.norm(a))
    cfg = state.config
    if not (cfg.gate_low_g <= norm <= cfg.gate_high_g):
        return state

    a_hat = a / norm
    v_hat = quat_to_matrix(state.q).T @ WORLD_UP  # predicted up, body frame
    innovation = a_hat - v_hat
    # h(dtheta) ~ v_hat + [v_hat]_x dtheta
    H = np.array([
        [0.0, -v_hat[2], v_hat[1]],
        [v_hat[2], 0.0, -v_hat[0]],
        [-v_hat[1], v_hat[0], 0.0],
    ])
    R = cfg.accel_noise * np.eye(3)
    S = H @ state.P @ H.T + R
    K = np.linalg.solve(S.T, (state.P @ H.T).T).T
    dtheta = K @ innovation
    q = quat_normalize(quat_multiply(state.q, quat_from_rotvec(dtheta)))
    IKH = np.eye(3) - K @ H
    P = _symmetrize(IKH @ state.P @ IKH.T + K @ R @ K.T)  # Joseph form
    return FilterState(q=q, P=P, config=cfg)


def init_state(accel_mean_g: np.ndarray,
               config: FilterConfig | None = None) -> FilterState:
    """Initial state from a resting accelerometer mean.

    If the mean magnitude is far from 1 g the trial starts in motion:
    fall back to identity attitude with inflated covariance.
    """
    config = config or FilterConfig()
    a = np.asarray(accel_mean_g, dtype=float)
    norm = float(np.linalg.norm(a))
    if not np.all(np.isfinite(a)) or not (0.5 <= norm <= 1.5):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        P = config.dynamic_init_std_rad ** 2 * np.eye(3)
        return FilterState(q=q, P=P, config=config)

    a_hat = a / norm
    # Rotation taking the measured body-frame up onto the world up.
    c = float(a_hat @ WORLD_UP)
    axis = np.cross(a_hat, WORLD_UP)
    s = float(np.linalg.norm(axis))
    if s < 1e-12:
        if c > 0:
            q = np.array([1.0, 0.0, 0.0, 0.0])
        else:
            q = np.array([0.0, 1.0, 0.0, 0.0])  # upside down: flip about x
    else:
        angle = math.atan2(s, c)
        q = quat_from_rotvec(axis / s * angle)
    # World-frame rotation applied on the left: v_w = R(q_rot) a_hat = e_z.
    q = quat_normalize(q)
    P = config.init_att_std_rad ** 2 * np.eye(3)
    return FilterState(q=q, P=P, config=config)


def estimate_orientation(accel_g: np.ndarray, gyro_dps: np.ndarray,
                         config: FilterConfig | None = None,
                         dt: float = 1.0 / 200.0) -> np.ndarray:
    """Quaternion per sample for one trial.

    Initializes from the accelerometer mean over the first
    ``config.init_window_s`` seconds, then runs predict (gyro) + update
    (accelerometer) for every sample.  Returns an (N, 4) array.
    """
    config = config or FilterConfig()
    accel = np.atleast_2d(np.asarray(accel_g, dtype=float))
    gyro = np.atleast_2d(np.asarray(gyro_dps, dtype=float))
    n = accel.shape[0]
    if n == 0:
        raise OrientationError("estimate_orientation needs at least 1 sample")
    if gyro.shape[0] != n:
        raise OrientationError("accelerometer/gyro length mismatch")

    window = max(1, min(n, int(round(config.init_window_s / dt))))
    state = init_state(accel[:window].mean(axis=0), config)

    out = np.empty((n, 4))
    state = update_step(state, accel[0])
    out[0] = state.q
    for k in range(1, n):
        state = predict_step(state, gyro[k], dt)
        state = update_step(state, accel[k])
        out[k] = state.q
    return out


# ---------------------------------------------------------------------------
# Tilt derivative
# ---------------------------------------------------------------------------

def backward_difference(now, prev, prev2, dt: float, order: int):
    """Causal finite difference of the tilt at one sample k.

    Takes theta_k, theta_(k-1) and theta_(k-2) as floats (one sample, as
    the stream calls it) or as aligned arrays (a whole series); ``prev2``
    is unused for ``order=1``.  Elementwise, so both give identical bits.
    """
    if order == 1:
        return (now - prev) / dt
    return (now - 2.0 * prev + prev2) / (dt * dt)


def angular_derivative(theta: np.ndarray, dt: float,
                       order: int = 2) -> np.ndarray:
    """Causal (backward) finite-difference derivative of the tilt series.

    Entry k reads samples k-order..k only, so the series matches what a
    device computes sample by sample; entries 0..order-1 are 0.
    ``order=1`` gives the angular rate (rad/s), ``order=2`` the angular
    acceleration (rad/s^2, the default).
    """
    theta = np.asarray(theta, dtype=float)
    if order not in (1, 2):
        raise OrientationError(f"derivative order must be 1 or 2, got {order}")
    if theta.shape[0] < order + 1:
        raise OrientationError(
            f"order-{order} derivative needs >= {order + 1} samples")
    out = np.zeros_like(theta)
    out[order:] = backward_difference(theta[order:], theta[order - 1:-1],
                                      theta[:-2], dt, order)
    return out
