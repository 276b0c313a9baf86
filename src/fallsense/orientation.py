"""Body orientation from gyro + accelerometer, and the gravity tilt angle.

An error-state Kalman filter with a 3-dimensional attitude-error state:
gyro rates drive the prediction, the accelerometer corrects toward the
measured gravity direction whenever its magnitude is close enough to 1 g
to be trusted.  No magnetometer, so yaw is unobservable and drifts; the
tilt angle does not depend on yaw.

The filter has one step pair, ``predict_step`` and ``update_step``, on a
``FilterState`` that carries the attitude and the covariance as tuples
of Python floats: at one 3-vector per call, NumPy's per-call overhead
would dwarf the arithmetic.  The stream takes the two steps once per
sample, and ``estimate_orientation`` scans them over a trial's rows, so
batch frames and streamed frames share one filter definition.

Each step is one function body.  The rotation-vector exponential (as
``quat_from_rotvec`` takes it), the quaternion product and its
normalization (as ``quat_normalize`` takes it), the rotation matrix
entries (``_rotation``, ``_up_row``), the congruence M P M^T and the new
state's construction are written out inline: at this size a Python call
and its argument tuples cost as much as the arithmetic they wrap, and the
steps run twice per sample.  The tests keep helper-composed steps as the
bit-for-bit reference, so every float operation here stays in their
order.

Quaternions are scalar-first [w, x, y, z], unit norm, canonical sign
(w >= 0), and rotate body-frame vectors into the world frame.  The world
z axis points up (opposite gravity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sisfall import SAMPLE_PERIOD_S

WORLD_UP = np.array([0.0, 0.0, 1.0])
DEG = math.pi / 180.0
# Initial attitude-error standard deviation: from a resting accelerometer
# mean, and the fallback when the trial starts moving.
INIT_ATT_STD_RAD = 5.0 * DEG
DYNAMIC_INIT_STD_RAD = 1.0


class OrientationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Quaternion helpers
# ---------------------------------------------------------------------------
# The filter runs once per sample on 3-vectors and 3x3 matrices, where
# NumPy's per-call overhead dwarfs the arithmetic, so it works on Python
# floats: ``quat_normalize`` takes any 4-sequence and returns a 4-tuple,
# and ``quat_to_matrix`` wraps the scalar ``_rotation`` in an array for
# other callers.


def quat_normalize(q) -> tuple[float, float, float, float]:
    """Unit norm and canonical sign (scalar component >= 0)."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise OrientationError("cannot normalize zero/non-finite quaternion")
    if w < 0.0:
        n = -n
    return (w / n, x / n, y / n, z / n)


def _rotation(q) -> tuple[float, ...]:
    """Row-major entries of R(q), body -> world."""
    w, x, y, z = q
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def _up_row(q) -> tuple[float, float, float]:
    """Third row of R(q): the world up seen in the body frame,
    R(q)^T e_z.  The same entries as ``_rotation(q)[6:]``."""
    w, x, y, z = q
    return (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y))


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Exact exponential map of a rotation vector (radians)."""
    vx, vy, vz = v[0], v[1], v[2]
    if not (math.isfinite(vx) and math.isfinite(vy) and math.isfinite(vz)):
        raise OrientationError("non-finite rotation vector")
    angle = math.sqrt(vx * vx + vy * vy + vz * vz)
    if angle < 1e-12:
        # First-order expansion, unit norm to double precision.
        return np.array([1.0, 0.5 * vx, 0.5 * vy, 0.5 * vz])
    half = 0.5 * angle
    s = math.sin(half) / angle
    return np.array([math.cos(half), vx * s, vy * s, vz * s])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (body -> world) of a unit quaternion."""
    return np.array(_rotation(q)).reshape(3, 3)


class UnitAxis(tuple):
    """A body-up axis that ``unit_body_up`` has already scaled to unit
    length, so that passing it again costs no second normalization."""

    __slots__ = ()


def unit_body_up(body_up) -> UnitAxis:
    """The body-up axis scaled to unit length; a ``UnitAxis`` is returned
    as it is.  Raises OrientationError unless it has 3 finite entries and
    a non-zero (finite) norm: any other axis gives no tilt."""
    if isinstance(body_up, UnitAxis):
        return body_up
    try:
        ux, uy, uz = map(float, body_up.tolist()
                         if isinstance(body_up, np.ndarray) else body_up)
    except (TypeError, ValueError):
        ux = uy = uz = math.nan
    norm = math.hypot(ux, uy, uz)
    if not 0.0 < norm < math.inf:
        raise OrientationError(
            f"body_up must be 3 finite numbers with a non-zero norm, "
            f"got {body_up!r}")
    return UnitAxis((ux / norm, uy / norm, uz / norm))


def tilt(q, up: tuple[float, float, float] | None = None) -> float:
    """Tilt of one quaternion [w, x, y, z]: the angle in [0, pi] between
    the rotated unit body-up axis ``up`` (default e_z) and the world up.

    The only tilt definition; ``tilt_angles`` maps it over a series.
    Insensitive to the quaternion sign.  A NaN entry gives NaN.
    """
    # Third row of R(q) dotted with u: the world-z component of R(q) @ u,
    # which is R22 alone for the default u = e_z (``_up_row``'s last entry,
    # written out here to spare the call).
    if up is None:
        w, x, y, z = q
        c = 1 - 2 * (x * x + y * y)
    else:
        rx, ry, rz = _up_row(q)
        ux, uy, uz = up
        c = rx * ux + ry * uy + rz * uz
    # Clamp rounding past +-1; NaN fails both tests and stays NaN.
    if c > 1.0:
        c = 1.0
    elif c < -1.0:
        c = -1.0
    return math.acos(c)


def tilt_angles(quats, body_up: np.ndarray | None = None) -> np.ndarray:
    """``tilt`` per row of an (N, 4) quaternion series (an array or a
    sequence of 4-sequences), with ``body_up`` scaled to unit length
    once per call, or not at all if it is a ``UnitAxis``."""
    # Tested inline, so the stream's one-row call runs no helper.
    up = (body_up if body_up is None or isinstance(body_up, UnitAxis)
          else unit_body_up(body_up))
    if isinstance(quats, np.ndarray):
        quats = quats.tolist()
    return np.array([tilt(q, up) for q in quats], dtype=float)


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
        if not 0 < self.init_window_s < math.inf:
            raise OrientationError(f"init_window_s must be > 0 and finite, "
                                   f"got {self.init_window_s}")


class FilterState:
    """Attitude and covariance carried as Python floats.

    ``quat`` is the attitude [w, x, y, z] (unit, body -> world) as a
    4-tuple, ``cov`` the attitude-error covariance (rad^2) as the six
    entries (P00, P01, P02, P11, P12, P22) of its upper triangle, so the
    matrix stays exactly symmetric.  Built from a (4,) quaternion and a
    (3, 3) covariance, of which the upper triangle is read; ``q`` and
    ``P`` give them back as arrays.
    """

    __slots__ = ("quat", "cov", "config")

    def __init__(self, q: np.ndarray, P: np.ndarray,
                 config: FilterConfig | None = None):
        w, x, y, z = np.asarray(q, dtype=float).tolist()
        (p00, p01, p02), (_, p11, p12), (_, _, p22) = np.asarray(
            P, dtype=float).tolist()
        self.quat = (w, x, y, z)
        self.cov = (p00, p01, p02, p11, p12, p22)
        self.config = FilterConfig() if config is None else config

    def __repr__(self) -> str:
        return (f"FilterState(quat={self.quat}, cov={self.cov}, "
                f"config={self.config})")

    @property
    def q(self) -> np.ndarray:
        """(4,) unit quaternion, body -> world."""
        return np.array(self.quat)

    @property
    def P(self) -> np.ndarray:
        """(3, 3) attitude-error covariance, rad^2."""
        p00, p01, p02, p11, p12, p22 = self.cov
        return np.array([[p00, p01, p02], [p01, p11, p12], [p02, p12, p22]])


def predict_step(state: FilterState, omega_dps,
                 dt: float) -> FilterState:
    """Advance the attitude by the exact exponential of the body rates
    (deg/s, an array row or a 3-sequence of floats)."""
    # Written as "not (valid)" so that NaN is rejected too.
    if not 0.0 < dt < math.inf:
        raise OrientationError(f"dt must be positive and finite, got {dt}")
    wx, wy, wz = (omega_dps.tolist() if isinstance(omega_dps, np.ndarray)
                  else omega_dps)
    if not (math.isfinite(wx) and math.isfinite(wy) and math.isfinite(wz)):
        raise OrientationError("non-finite gyro sample")
    scale = DEG * dt
    vx, vy, vz = wx * scale, wy * scale, wz * scale
    # dq = exp(v), as ``quat_from_rotvec`` takes it.
    angle = math.sqrt(vx * vx + vy * vy + vz * vz)
    if angle < 1e-12:
        dw, dx, dy, dz = 1.0, 0.5 * vx, 0.5 * vy, 0.5 * vz
    else:
        half = 0.5 * angle
        s = math.sin(half) / angle
        dw, dx, dy, dz = math.cos(half), vx * s, vy * s, vz * s
    qw, qx, qy, qz = state.quat
    w = qw * dw - qx * dx - qy * dy - qz * dz   # q * dq
    x = qw * dx + qx * dw + qy * dz - qz * dy
    y = qw * dy - qx * dz + qy * dw + qz * dx
    z = qw * dz + qx * dy - qy * dx + qz * dw
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise OrientationError("cannot normalize zero/non-finite quaternion")
    if w < 0.0:
        n = -n
    # Body-side error state: delta_next = R(dq)^T delta + noise, so
    # P <- F P F^T + Q with F = R(dq)^T and Q = gyro_noise dt I.
    f00 = 1 - 2 * (dy * dy + dz * dz)
    f01 = 2 * (dx * dy + dw * dz)
    f02 = 2 * (dx * dz - dw * dy)
    f10 = 2 * (dx * dy - dw * dz)
    f11 = 1 - 2 * (dx * dx + dz * dz)
    f12 = 2 * (dy * dz + dw * dx)
    f20 = 2 * (dx * dz + dw * dy)
    f21 = 2 * (dy * dz - dw * dx)
    f22 = 1 - 2 * (dx * dx + dy * dy)
    p00, p01, p02, p11, p12, p22 = state.cov
    a00 = f00 * p00 + f01 * p01 + f02 * p02     # A = F P
    a01 = f00 * p01 + f01 * p11 + f02 * p12
    a02 = f00 * p02 + f01 * p12 + f02 * p22
    a10 = f10 * p00 + f11 * p01 + f12 * p02
    a11 = f10 * p01 + f11 * p11 + f12 * p12
    a12 = f10 * p02 + f11 * p12 + f12 * p22
    a20 = f20 * p00 + f21 * p01 + f22 * p02
    a21 = f20 * p01 + f21 * p11 + f22 * p12
    a22 = f20 * p02 + f21 * p12 + f22 * p22
    cfg = state.config
    qn = cfg.gyro_noise * dt
    out = object.__new__(FilterState)   # not __init__, which reads arrays
    out.quat = (w / n, x / n, y / n, z / n)
    out.cov = (a00 * f00 + a01 * f01 + a02 * f02 + qn,     # A F^T + Q
               a00 * f10 + a01 * f11 + a02 * f12,
               a00 * f20 + a01 * f21 + a02 * f22,
               a10 * f10 + a11 * f11 + a12 * f12 + qn,
               a10 * f20 + a11 * f21 + a12 * f22,
               a20 * f20 + a21 * f21 + a22 * f22 + qn)
    out.config = cfg
    return out


def update_step(state: FilterState, accel_g) -> FilterState:
    """Correct toward the measured gravity direction (g, an array row or a
    3-sequence of floats), if trustworthy.

    Samples whose magnitude falls outside the gating band around 1 g are
    dynamic motion and leave the state untouched (the same object is
    returned).
    """
    ax, ay, az = (accel_g.tolist() if isinstance(accel_g, np.ndarray)
                  else accel_g)
    if not (math.isfinite(ax) and math.isfinite(ay) and math.isfinite(az)):
        raise OrientationError("non-finite accelerometer sample")
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    cfg = state.config
    if not (cfg.gate_low_g <= norm <= cfg.gate_high_g):
        return state

    # Predicted up in the body frame: R(q)^T e_z, the third row of R(q),
    # as ``_up_row`` reads it.
    qw, qx, qy, qz = state.quat
    vx = 2 * (qx * qz - qw * qy)
    vy = 2 * (qy * qz + qw * qx)
    vz = 1 - 2 * (qx * qx + qy * qy)
    ex, ey, ez = ax / norm - vx, ay / norm - vy, az / norm - vz  # innovation
    # h(dtheta) ~ v + [v]_x dtheta, so H = [v]_x = [[0, -vz, vy],
    # [vz, 0, -vx], [-vy, vx, 0]] and R = accel_noise I.
    p00, p01, p02, p11, p12, p22 = state.cov
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

    # q turned by dtheta = K e: q * exp(dtheta), normalized.
    tx = k00 * ex + k01 * ey + k02 * ez
    ty = k10 * ex + k11 * ey + k12 * ez
    tz = k20 * ex + k21 * ey + k22 * ez
    angle = math.sqrt(tx * tx + ty * ty + tz * tz)
    if angle < 1e-12:
        dw, dx, dy, dz = 1.0, 0.5 * tx, 0.5 * ty, 0.5 * tz
    else:
        half = 0.5 * angle
        s = math.sin(half) / angle
        dw, dx, dy, dz = math.cos(half), tx * s, ty * s, tz * s
    w = qw * dw - qx * dx - qy * dy - qz * dz   # q * dq
    x = qw * dx + qx * dw + qy * dz - qz * dy
    y = qw * dy - qx * dz + qy * dw + qz * dx
    z = qw * dz + qx * dy - qy * dx + qz * dw
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise OrientationError("cannot normalize zero/non-finite quaternion")
    if w < 0.0:
        n = -n

    # Joseph form: P <- M P M^T + K R K^T with M = I - K H.
    m00 = 1.0 - k01 * vz + k02 * vy
    m01 = k00 * vz - k02 * vx
    m02 = k01 * vx - k00 * vy
    m10 = k12 * vy - k11 * vz
    m11 = 1.0 + k10 * vz - k12 * vx
    m12 = k11 * vx - k10 * vy
    m20 = k22 * vy - k21 * vz
    m21 = k20 * vz - k22 * vx
    m22 = 1.0 + k21 * vx - k20 * vy
    a00 = m00 * p00 + m01 * p01 + m02 * p02     # A = M P
    a01 = m00 * p01 + m01 * p11 + m02 * p12
    a02 = m00 * p02 + m01 * p12 + m02 * p22
    a10 = m10 * p00 + m11 * p01 + m12 * p02
    a11 = m10 * p01 + m11 * p11 + m12 * p12
    a12 = m10 * p02 + m11 * p12 + m12 * p22
    a20 = m20 * p00 + m21 * p01 + m22 * p02
    a21 = m20 * p01 + m21 * p11 + m22 * p12
    a22 = m20 * p02 + m21 * p12 + m22 * p22
    out = object.__new__(FilterState)   # not __init__, which reads arrays
    out.quat = (w / n, x / n, y / n, z / n)
    out.cov = (
        a00 * m00 + a01 * m01 + a02 * m02
        + r * (k00 * k00 + k01 * k01 + k02 * k02),
        a00 * m10 + a01 * m11 + a02 * m12
        + r * (k00 * k10 + k01 * k11 + k02 * k12),
        a00 * m20 + a01 * m21 + a02 * m22
        + r * (k00 * k20 + k01 * k21 + k02 * k22),
        a10 * m10 + a11 * m11 + a12 * m12
        + r * (k10 * k10 + k11 * k11 + k12 * k12),
        a10 * m20 + a11 * m21 + a12 * m22
        + r * (k10 * k20 + k11 * k21 + k12 * k22),
        a20 * m20 + a21 * m21 + a22 * m22
        + r * (k20 * k20 + k21 * k21 + k22 * k22))
    out.config = cfg
    return out


def init_state(accel_mean_g: np.ndarray,
               config: FilterConfig | None = None) -> FilterState:
    """Initial state from a resting accelerometer mean.

    If the mean magnitude is far from 1 g the trial starts in motion:
    fall back to identity attitude with inflated covariance.
    """
    config = config or FilterConfig()
    # Norms, dot and cross in float arithmetic, added left to right:
    # np.linalg.norm and ``@`` are BLAS calls whose last bits depend on
    # the BLAS kernel.  A non-finite mean gives a non-finite norm.
    ax, ay, az = np.asarray(accel_mean_g, dtype=float).tolist()
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    if not 0.5 <= norm <= 1.5:
        q = np.array([1.0, 0.0, 0.0, 0.0])
        P = DYNAMIC_INIT_STD_RAD ** 2 * np.eye(3)
        return FilterState(q=q, P=P, config=config)

    hx, hy, hz = ax / norm, ay / norm, az / norm
    ux, uy, uz = WORLD_UP.tolist()
    # Rotation taking the measured body-frame up onto the world up.
    c = hx * ux + hy * uy + hz * uz
    sx, sy, sz = hy * uz - hz * uy, hz * ux - hx * uz, hx * uy - hy * ux
    s = math.sqrt(sx * sx + sy * sy + sz * sz)
    if s < 1e-12:
        if c > 0:
            q = np.array([1.0, 0.0, 0.0, 0.0])
        else:
            q = np.array([0.0, 1.0, 0.0, 0.0])  # upside down: flip about x
    else:
        angle = math.atan2(s, c)
        q = quat_from_rotvec((sx / s * angle, sy / s * angle, sz / s * angle))
    # World-frame rotation applied on the left: v_w = R(q_rot) a_hat = e_z.
    q = np.array(quat_normalize(q))
    P = INIT_ATT_STD_RAD ** 2 * np.eye(3)
    return FilterState(q=q, P=P, config=config)


def filter_start(accel_g: np.ndarray, config: FilterConfig | None = None,
                 dt: float = SAMPLE_PERIOD_S) -> tuple[FilterState, int]:
    """The start state, ``init_state`` of the accelerometer mean over the
    first ``init_window_s`` seconds (1 to all samples), and their count."""
    config = config or FilterConfig()
    window = max(1, min(len(accel_g), int(round(config.init_window_s / dt))))
    return init_state(accel_g[:window].mean(axis=0), config), window


def estimate_orientation(accel_g: np.ndarray, gyro_dps: np.ndarray,
                         config: FilterConfig | None = None) -> np.ndarray:
    """Quaternion per sample for one trial.

    Starts with ``filter_start``, then runs predict (gyro) + update
    (accelerometer) for every sample: the start and the two steps the
    stream takes, on the same float rows.  Returns an (N, 4) array.
    """
    accel = np.atleast_2d(np.asarray(accel_g, dtype=float))
    gyro = np.atleast_2d(np.asarray(gyro_dps, dtype=float))
    n = accel.shape[0]
    if n == 0:
        raise OrientationError("estimate_orientation needs at least 1 sample")
    if gyro.shape[0] != n:
        raise OrientationError("accelerometer/gyro length mismatch")

    state, _ = filter_start(accel, config)
    accel_rows, gyro_rows = accel.tolist(), gyro.tolist()
    state = update_step(state, accel_rows[0])
    quats = [state.quat]
    for k in range(1, n):
        state = predict_step(state, gyro_rows[k], SAMPLE_PERIOD_S)
        state = update_step(state, accel_rows[k])
        quats.append(state.quat)
    return np.array(quats)


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
