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
# The filter runs once per sample on 3-vectors and 3x3 matrices, where
# NumPy's per-call overhead dwarfs the arithmetic, so it works on Python
# floats: ``quat_normalize`` and ``quat_multiply`` take any 4-sequence and
# return a 4-tuple, and ``quat_from_rotvec``/``quat_to_matrix`` wrap the
# scalar ``_rotvec_quat``/``_rotation`` in arrays for other callers.

def quat_normalize(q) -> tuple[float, float, float, float]:
    """Unit norm and canonical sign (scalar component >= 0)."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise OrientationError("cannot normalize zero/non-finite quaternion")
    if w < 0.0:
        n = -n
    return (w / n, x / n, y / n, z / n)


def quat_multiply(a, b) -> tuple[float, float, float, float]:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _rotvec_quat(vx: float, vy: float,
                 vz: float) -> tuple[float, float, float, float]:
    angle = math.sqrt(vx * vx + vy * vy + vz * vz)
    if angle < 1e-12:
        # First-order expansion; renormalized by the caller.
        return (1.0, 0.5 * vx, 0.5 * vy, 0.5 * vz)
    s = math.sin(0.5 * angle) / angle
    return (math.cos(0.5 * angle), vx * s, vy * s, vz * s)


def _rotation(q) -> tuple[float, ...]:
    """Row-major entries of R(q), body -> world."""
    w, x, y, z = q
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Exact exponential map of a rotation vector (radians)."""
    return np.array(_rotvec_quat(v[0], v[1], v[2]))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (body -> world) of a unit quaternion."""
    return np.array(_rotation(q)).reshape(3, 3)


def unit_body_up(body_up) -> tuple[float, float, float]:
    """The body-up axis scaled to unit length.  Raises OrientationError
    unless it has 3 finite entries and a non-zero (finite) norm: any other
    axis gives no tilt."""
    u = np.asarray(body_up, dtype=float)
    norm = math.hypot(*u.tolist()) if u.shape == (3,) else math.nan
    if not 0.0 < norm < math.inf:
        raise OrientationError(
            f"body_up must be 3 finite numbers with a non-zero norm, "
            f"got {body_up!r}")
    return tuple((u / norm).tolist())


def tilt_angles(quats: np.ndarray, body_up: np.ndarray | None = None) -> np.ndarray:
    """Tilt per row of an (N, 4) quaternion series: the angle in [0, pi]
    between the rotated body-up axis (default e_z) and the world up.

    Insensitive to the quaternion sign.
    """
    quats = np.asarray(quats, dtype=float)
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    # Third row of R(q) dotted with the unit body-up u: the world-z
    # component of R(q) @ u, which is R22 alone for the default u = e_z.
    cosang = 1 - 2 * (x * x + y * y)
    if body_up is not None:
        ux, uy, uz = unit_body_up(body_up)
        cosang = (2 * (x * z - w * y) * ux + 2 * (y * z + w * x) * uy
                  + cosang * uz)
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

    def __post_init__(self):
        # Written as "not (valid)" so that NaN is rejected too.  A zero
        # accel_noise would make the innovation covariance singular (H has
        # rank 2) at the first accepted accelerometer sample.
        if not self.accel_noise > 0:
            raise OrientationError(
                f"accel_noise must be > 0, got {self.accel_noise}")
        if not self.gyro_noise >= 0:
            raise OrientationError(
                f"gyro_noise must be >= 0, got {self.gyro_noise}")
        if not 0 < self.gate_low_g <= self.gate_high_g:
            raise OrientationError(
                "accelerometer gate needs 0 < gate_low_g <= gate_high_g, got "
                f"[{self.gate_low_g}, {self.gate_high_g}]")
        if not self.init_window_s > 0:
            raise OrientationError(
                f"init_window_s must be > 0, got {self.init_window_s}")
        if not (self.init_att_std_rad > 0 and self.dynamic_init_std_rad > 0):
            raise OrientationError(
                "initial attitude standard deviations must be > 0, got "
                f"{self.init_att_std_rad} and {self.dynamic_init_std_rad}")


@dataclass
class FilterState:
    q: np.ndarray               # (4,) unit quaternion, body -> world
    P: np.ndarray               # (3, 3) attitude-error covariance, rad^2
    config: FilterConfig = field(default_factory=FilterConfig)


# The covariance is handled as its upper triangle (P00, P01, P02, P11,
# P12, P22) and rebuilt from those six entries, so it stays exactly
# symmetric.

def _upper(P: np.ndarray) -> tuple[float, ...]:
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = P.tolist()
    return (p00, p01, p02, p11, p12, p22)


def _symmetric(p00, p01, p02, p11, p12, p22) -> np.ndarray:
    return np.array([[p00, p01, p02], [p01, p11, p12], [p02, p12, p22]])


def _congruence(m, p) -> tuple[float, ...]:
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


def predict_step(state: FilterState, omega_dps: np.ndarray,
                 dt: float) -> FilterState:
    """Advance the attitude by the exact exponential of the body rates."""
    if dt <= 0:
        raise OrientationError(f"dt must be positive, got {dt}")
    wx, wy, wz = np.asarray(omega_dps, dtype=float).tolist()
    if not (math.isfinite(wx) and math.isfinite(wy) and math.isfinite(wz)):
        raise OrientationError("non-finite gyro sample")
    scale = DEG * dt
    dq = _rotvec_quat(wx * scale, wy * scale, wz * scale)
    q = quat_normalize(quat_multiply(state.q.tolist(), dq))
    # Body-side error state: delta_next = R(dq)^T delta + noise, so
    # P <- F P F^T + Q with F = R(dq)^T and Q = gyro_noise dt I.
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = _rotation(dq)
    p00, p01, p02, p11, p12, p22 = _congruence(
        (r00, r10, r20, r01, r11, r21, r02, r12, r22), _upper(state.P))
    qn = state.config.gyro_noise * dt
    P = _symmetric(p00 + qn, p01, p02, p11 + qn, p12, p22 + qn)
    return FilterState(q=np.array(q), P=P, config=state.config)


def update_step(state: FilterState, accel_g: np.ndarray) -> FilterState:
    """Correct toward the measured gravity direction, if trustworthy.

    Samples whose magnitude falls outside the gating band around 1 g are
    dynamic motion and leave the state untouched (the same object is
    returned).
    """
    ax, ay, az = np.asarray(accel_g, dtype=float).tolist()
    if not (math.isfinite(ax) and math.isfinite(ay) and math.isfinite(az)):
        raise OrientationError("non-finite accelerometer sample")
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    cfg = state.config
    if not (cfg.gate_low_g <= norm <= cfg.gate_high_g):
        return state

    q = state.q.tolist()
    # Predicted up in the body frame: R(q)^T e_z, the third row of R(q).
    vx, vy, vz = _rotation(q)[6:]
    ex, ey, ez = ax / norm - vx, ay / norm - vy, az / norm - vz  # innovation
    # h(dtheta) ~ v + [v]_x dtheta, so H = [v]_x = [[0, -vz, vy],
    # [vz, 0, -vx], [-vy, vx, 0]] and R = accel_noise I.
    p00, p01, p02, p11, p12, p22 = p = _upper(state.P)
    b00 = p02 * vy - p01 * vz                   # B = P H^T
    b01 = p00 * vz - p02 * vx
    b02 = p01 * vx - p00 * vy
    b10 = p12 * vy - p11 * vz
    b11 = p01 * vz - p12 * vx
    b12 = p11 * vx - p01 * vy
    b20 = p22 * vy - p12 * vz
    b21 = p02 * vz - p22 * vx
    b22 = p12 * vx - p02 * vy
    r = cfg.accel_noise
    s00 = b20 * vy - b10 * vz + r               # S = H B + R
    s01 = b21 * vy - b11 * vz
    s02 = b22 * vy - b12 * vz
    s11 = b01 * vz - b21 * vx + r
    s12 = b02 * vz - b22 * vx
    s22 = b12 * vx - b02 * vy + r
    # S is symmetric positive definite (accel_noise > 0): invert it by
    # its cofactors.
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
    k00 = b00 * c00 + b01 * c01 + b02 * c02     # K = B S^-1
    k01 = b00 * c01 + b01 * c11 + b02 * c12
    k02 = b00 * c02 + b01 * c12 + b02 * c22
    k10 = b10 * c00 + b11 * c01 + b12 * c02
    k11 = b10 * c01 + b11 * c11 + b12 * c12
    k12 = b10 * c02 + b11 * c12 + b12 * c22
    k20 = b20 * c00 + b21 * c01 + b22 * c02
    k21 = b20 * c01 + b21 * c11 + b22 * c12
    k22 = b20 * c02 + b21 * c12 + b22 * c22

    dtheta = (k00 * ex + k01 * ey + k02 * ez,
              k10 * ex + k11 * ey + k12 * ez,
              k20 * ex + k21 * ey + k22 * ez)
    q = quat_normalize(quat_multiply(q, _rotvec_quat(*dtheta)))

    # Joseph form: P <- (I - K H) P (I - K H)^T + K R K^T.
    j00, j01, j02, j11, j12, j22 = _congruence(
        (1.0 - k01 * vz + k02 * vy, k00 * vz - k02 * vx, k01 * vx - k00 * vy,
         k12 * vy - k11 * vz, 1.0 + k10 * vz - k12 * vx, k11 * vx - k10 * vy,
         k22 * vy - k21 * vz, k20 * vz - k22 * vx, 1.0 + k21 * vx - k20 * vy),
        p)
    P = _symmetric(
        j00 + r * (k00 * k00 + k01 * k01 + k02 * k02),
        j01 + r * (k00 * k10 + k01 * k11 + k02 * k12),
        j02 + r * (k00 * k20 + k01 * k21 + k02 * k22),
        j11 + r * (k10 * k10 + k11 * k11 + k12 * k12),
        j12 + r * (k10 * k20 + k11 * k21 + k12 * k22),
        j22 + r * (k20 * k20 + k21 * k21 + k22 * k22))
    return FilterState(q=np.array(q), P=P, config=cfg)


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
    q = np.array(quat_normalize(q))
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
