"""Matrix Lie-group primitives for SO(2), SO(3), SE(2) and SE(3).

Conventions used throughout the package:

* Twists are plain 1-D numpy arrays stacked translation-first.  An SE(2)
  twist is ``(rho_x, rho_y, phi)``, an SE(3) twist is ``(rho, phi)`` with
  both halves in R^3.  Translations are meters, angles radians.
* A :class:`Pose` maps local coordinates into its parent frame and is
  stored as a rotation matrix plus a translation vector.
* Uncertain quantities elsewhere in the package perturb poses on the
  left, ``T = exp(hat(xi)) @ T_bar``; every covariance is expressed in
  the twist ordering above.

The scalar entry points (:func:`exp_map`, :func:`log_map`, ...) operate on
:class:`Pose` objects; the ``*_many`` helpers operate on stacks of
homogeneous matrices and exist so Monte-Carlo code can stay vectorized.
"""

from __future__ import annotations

import numpy as np

# Orthonormality residual accepted without renormalization.
ORTHONORMALITY_TOL = 1e-9
# Beyond this the matrix is considered "not a rotation" rather than drifted.
_RENORMALIZABLE_TOL = 1e-3
# Switch to Taylor expansions below this rotation angle to avoid 0/0.
_SMALL_ANGLE = 1e-6
# log() is rejected when the rotation angle is within this margin of pi,
# where the principal branch is ambiguous.
_PI_MARGIN = 1e-9


class SingularLogError(ValueError):
    """Raised when a logarithm is requested at the rotation angle pi.

    The principal branch is ambiguous there, and silently picking an axis
    (or a sign in the planar case) would corrupt any covariance expressed
    in the resulting twist coordinates.
    """

    def __init__(self, angle: float, row: int | None = None):
        self.angle = float(angle)
        # Index of the offending row when raised by a stack helper.
        self.row = row
        super().__init__(
            f"rotation angle {self.angle!r} is numerically at the branch "
            f"boundary pi; the principal logarithm is not defined"
        )


def skew(v) -> np.ndarray:
    """3x3 skew-symmetric matrix of a 3-vector: skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _skew2(w: float) -> np.ndarray:
    return np.array([[0.0, -w], [w, 0.0]])


def project_rotation(M: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (Frobenius) via polar decomposition."""
    M = np.asarray(M, dtype=float)
    u, _, vt = np.linalg.svd(M)
    d = np.sign(np.linalg.det(u @ vt))
    if d <= 0:
        raise ValueError("matrix is orientation-reversing; no nearby rotation")
    fix = np.ones(M.shape[0])
    fix[-1] = d
    return u @ np.diag(fix) @ vt


class Pose:
    """Element of SE(2) or SE(3): rotation matrix ``R`` plus translation ``t``.

    Immutable value type.  The constructor validates orthonormality of the
    rotation block and renormalizes (polar projection) when accumulated
    float drift exceeds ``ORTHONORMALITY_TOL``; genuinely non-rotational
    input raises ``ValueError``.
    """

    __slots__ = ("R", "t")

    def __init__(self, R, t):
        R = np.array(R, dtype=float)
        t = np.array(t, dtype=float).reshape(-1)
        d = t.shape[0]
        if d not in (2, 3) or R.shape != (d, d):
            raise ValueError(f"expected 2D or 3D rotation+translation, got R{R.shape} t{t.shape}")
        if not (np.isfinite(R).all() and np.isfinite(t).all()):
            raise ValueError("pose entries must be finite")
        residual = np.linalg.norm(R.T @ R - np.eye(d))
        if residual > ORTHONORMALITY_TOL:
            if residual > _RENORMALIZABLE_TOL:
                raise ValueError(f"rotation block is not orthonormal (residual {residual:.3e})")
            R = project_rotation(R)
        if np.linalg.det(R) < 0.0:
            raise ValueError("rotation block has determinant -1")
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Pose is immutable")

    @property
    def dim(self) -> int:
        """Ambient dimension: 2 or 3."""
        return self.t.shape[0]

    @property
    def twist_dim(self) -> int:
        """Dimension of the associated twist space: 3 (SE(2)) or 6 (SE(3))."""
        return 3 if self.dim == 2 else 6

    @classmethod
    def identity(cls, dim: int) -> "Pose":
        return cls(np.eye(dim), np.zeros(dim))

    @classmethod
    def planar(cls, x: float, y: float, theta: float) -> "Pose":
        """SE(2) pose from position and heading."""
        c, s = np.cos(theta), np.sin(theta)
        return cls(np.array([[c, -s], [s, c]]), np.array([x, y], dtype=float))

    @classmethod
    def from_matrix(cls, M) -> "Pose":
        M = np.asarray(M, dtype=float)
        n = M.shape[0]
        if M.shape != (n, n) or n not in (3, 4):
            raise ValueError(f"expected 3x3 or 4x4 homogeneous matrix, got {M.shape}")
        bottom = np.zeros(n)
        bottom[-1] = 1.0
        if not np.array_equal(M[-1], bottom):
            if not np.allclose(M[-1], bottom, atol=1e-12):
                raise ValueError("bottom row of a homogeneous matrix must be (0,...,0,1)")
        return cls(M[: n - 1, : n - 1], M[: n - 1, -1])

    def matrix(self) -> np.ndarray:
        """Homogeneous (d+1)x(d+1) matrix with exact (0,...,0,1) bottom row."""
        d = self.dim
        M = np.zeros((d + 1, d + 1))
        M[:d, :d] = self.R
        M[:d, d] = self.t
        M[d, d] = 1.0
        return M

    def inverse(self) -> "Pose":
        Rt = self.R.T
        return Pose(Rt, -(Rt @ self.t))

    def __matmul__(self, other: "Pose") -> "Pose":
        if not isinstance(other, Pose):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("cannot compose poses of different dimension")
        return Pose(self.R @ other.R, self.R @ other.t + self.t)

    def apply(self, p) -> np.ndarray:
        """Map a point from the local frame into the parent frame."""
        return self.R @ np.asarray(p, dtype=float) + self.t

    def __repr__(self) -> str:
        return f"Pose(R={self.R.tolist()}, t={self.t.tolist()})"


def checked_pose_blocks(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Stack version of the :class:`Pose` constructor's checks.

    ``R`` is an (M, d, d) rotation stack and ``t`` the matching (M, d)
    translations.  The thresholds and exception types are those of
    ``Pose(R[k], t[k])`` on every row: non-finite entries, residuals beyond
    ``_RENORMALIZABLE_TOL`` and reflections raise ``ValueError``, and rows
    drifted beyond ``ORTHONORMALITY_TOL`` are projected back onto the
    rotations.  Returns the rotation stack, copied only if a row was repaired.
    """
    if not (np.isfinite(R).all() and np.isfinite(t).all()):
        raise ValueError("pose entries must be finite")
    d = R.shape[-1]
    residual = np.linalg.norm(np.swapaxes(R, 1, 2) @ R - np.eye(d), axis=(1, 2))
    drifted = np.flatnonzero(residual > ORTHONORMALITY_TOL)
    if drifted.size:
        worst = float(residual[drifted].max())
        if worst > _RENORMALIZABLE_TOL:
            raise ValueError(f"rotation block is not orthonormal (residual {worst:.3e})")
        R = R.copy()
        for k in drifted:
            R[k] = project_rotation(R[k])
    if (np.linalg.det(R) < 0.0).any():
        raise ValueError("rotation block has determinant -1")
    return R


# Rotation and translation stacks compose like Pose objects, bit for bit:
# R1 @ R2 and R1 @ t2 + t1 with stacked matmul, R^T and -(R^T t) for an
# inverse, and every result checked like a Pose.  An inverse keeps R^T as a
# transposed view, as Pose.inverse does, because matmul rounds products with
# R^T differently when R^T is a C-ordered copy.

def compose_blocks(R1, t1, R2, t2) -> tuple[np.ndarray, np.ndarray]:
    """Checked (R, t) stacks of the row-wise products ``T1[k] @ T2[k]``."""
    t = (R1 @ t2[:, :, None])[:, :, 0] + t1
    return checked_pose_blocks(R1 @ R2, t), t


def invert_blocks(R, t) -> tuple[np.ndarray, np.ndarray]:
    """Checked (R, t) stacks of the row-wise inverses ``T[k]^-1``."""
    Rt = np.swapaxes(R, 1, 2)
    t_inv = -(Rt @ t[:, :, None])[:, :, 0]
    return checked_pose_blocks(Rt, t_inv), t_inv


def adjoint_blocks(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row-wise :func:`adjoint` of (M, d, d) rotation and (M, d) translation stacks."""
    k, d = t.shape
    if d == 2:
        Ad = np.zeros((k, 3, 3))
        Ad[:, :2, :2] = R
        Ad[:, 0, 2] = t[:, 1]
        Ad[:, 1, 2] = -t[:, 0]
        Ad[:, 2, 2] = 1.0
        return Ad
    Ad = np.zeros((k, 6, 6))
    Ad[:, :3, :3] = R
    Ad[:, 3:, 3:] = R
    Ad[:, :3, 3:] = _skew_many(t) @ R
    return Ad


def _check_twist(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] not in (3, 6):
        raise ValueError(f"twist must have length 3 (SE(2)) or 6 (SE(3)), got {xi.shape[0]}")
    if not np.isfinite(xi).all():
        raise ValueError("twist entries must be finite")
    return xi


def hat(xi) -> np.ndarray:
    """Algebra matrix of a twist: 3x3 for SE(2), 4x4 for SE(3)."""
    xi = _check_twist(xi)
    if xi.shape[0] == 3:
        M = np.zeros((3, 3))
        M[:2, :2] = _skew2(xi[2])
        M[:2, 2] = xi[:2]
        return M
    M = np.zeros((4, 4))
    M[:3, :3] = skew(xi[3:])
    M[:3, 3] = xi[:3]
    return M


def vee(M) -> np.ndarray:
    """Inverse of :func:`hat`; exact (pure element picking)."""
    M = np.asarray(M, dtype=float)
    if M.shape == (3, 3):
        return np.array([M[0, 2], M[1, 2], M[1, 0]])
    if M.shape == (4, 4):
        return np.array([M[0, 3], M[1, 3], M[2, 3], M[2, 1], M[0, 2], M[1, 0]])
    raise ValueError(f"expected 3x3 or 4x4 algebra matrix, got {M.shape}")


def curly_hat(xi) -> np.ndarray:
    """Adjoint-algebra operator of a twist: ``curly_hat(a) @ b == bracket(a, b)``.

    SE(3): ``[[skew(phi), skew(rho)], [0, skew(phi)]]``.  SE(2) follows the
    same block pattern with the scalar rotation generator, which collapses
    the translation block to the column ``(rho_y, -rho_x)`` and the
    rotation-rotation block to zero.
    """
    xi = _check_twist(xi)
    if xi.shape[0] == 3:
        M = np.zeros((3, 3))
        M[:2, :2] = _skew2(xi[2])
        M[0, 2] = xi[1]
        M[1, 2] = -xi[0]
        return M
    M = np.zeros((6, 6))
    ph = skew(xi[3:])
    M[:3, :3] = ph
    M[3:, 3:] = ph
    M[:3, 3:] = skew(xi[:3])
    return M


# ---------------------------------------------------------------------------
# Rotation-only groups
# ---------------------------------------------------------------------------

def so2_exp(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def so2_log(R) -> float:
    R = np.asarray(R, dtype=float)
    theta = float(np.arctan2(R[1, 0], R[0, 0]))
    if np.pi - abs(theta) <= _PI_MARGIN:
        raise SingularLogError(theta)
    return theta


# Rotation angles closer than this to pi recover the log's axis from the
# symmetric part of R (the antisymmetric part is nearly annihilated there).
_AXIS_BRANCH = 1e-4
# Taylor switch points: below _COEFF_CUTOFF the 1-cos/t^2-style ratios are
# evaluated by series (the direct forms lose ~eps/theta^2 to cancellation);
# the V-inverse curvature coefficient amplifies that loss by another 1/t^2
# and gets the wider _VINV_CUTOFF window.
_COEFF_CUTOFF = 1e-4
_VINV_CUTOFF = 1e-2


def _sinc_coeffs(theta: float) -> tuple[float, float, float]:
    """(sin t / t, (1-cos t)/t^2, (t - sin t)/t^3) with small-angle Taylor."""
    if theta < _COEFF_CUTOFF:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        s, co = np.sin(theta), np.cos(theta)
        a = s / theta
        b = (1.0 - co) / (theta * theta)
        c = (theta - s) / (theta ** 3)
    return a, b, c


def so3_exp(phi) -> np.ndarray:
    """Rodrigues formula; Taylor fallback below ``_SMALL_ANGLE``."""
    phi = np.asarray(phi, dtype=float).reshape(3)
    theta = float(np.linalg.norm(phi))
    a, b, _ = _sinc_coeffs(theta)
    K = skew(phi)
    return np.eye(3) + a * K + b * (K @ K)


def so3_log(R) -> np.ndarray:
    """Principal rotation vector of R; raises :class:`SingularLogError` at pi."""
    R = np.asarray(R, dtype=float)
    w = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    s = float(np.linalg.norm(w))
    c = float(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
    theta = float(np.arctan2(s, c))
    if np.pi - theta <= _PI_MARGIN:
        raise SingularLogError(theta)
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        return w * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0)
    if np.pi - theta < _AXIS_BRANCH:
        # The antisymmetric part is nearly annihilated; recover the axis from
        # the symmetric part and use w only to resolve the overall sign.
        nn = np.clip((np.diag(R) - c) / (1.0 - c), 0.0, 1.0)
        n = np.sqrt(nn)
        k = int(np.argmax(n))
        A = 0.5 * (R + R.T)
        for idx in range(3):
            if idx != k:
                n[idx] = np.copysign(n[idx], A[k, idx])
        if np.dot(n, w) < 0:
            n = -n
        return theta * n
    return (theta / s) * w


def _se3_V(phi) -> np.ndarray:
    theta = float(np.linalg.norm(phi))
    _, b, c = _sinc_coeffs(theta)
    K = skew(phi)
    return np.eye(3) + b * K + c * (K @ K)


def _se3_V_inv(phi) -> np.ndarray:
    theta = float(np.linalg.norm(phi))
    if theta < _VINV_CUTOFF:
        t2 = theta * theta
        d = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    else:
        d = (1.0 - theta * np.sin(theta) / (2.0 * (1.0 - np.cos(theta)))) / (theta * theta)
    K = skew(phi)
    return np.eye(3) - 0.5 * K + d * (K @ K)


def _dot_rows(v: np.ndarray) -> np.ndarray:
    """Squared norms of (M, 3) rows, rounded as ``np.linalg.norm`` rounds one row."""
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _se3_log_blocks(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Stack version of :func:`log_map` on SE(3) blocks, exact to the last bit.

    ``R`` is an (M, 3, 3) rotation stack and ``t`` the matching (M, 3)
    translations; row k equals ``log_map(Pose(R[k], t[k]))`` bit for bit,
    which :func:`log_many` does not.  Each row repeats the scalar operations
    in their order: vector norms are matmul dot products, as
    ``np.linalg.norm`` takes them, and V^-1 is built as a matrix before it
    is applied.  Rows within ``_AXIS_BRANCH`` of pi go through
    :func:`log_map` and its axis branch; the first singular one raises
    :class:`SingularLogError` carrying its ``row``.
    """
    w = 0.5 * np.stack(
        [R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]], axis=1
    )
    s = np.sqrt(_dot_rows(w))
    c = np.clip((np.trace(R, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arctan2(s, c)
    small = angle < _SMALL_ANGLE
    t2 = angle * angle
    phi = w * np.where(
        small,
        1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0,
        angle / np.where(small | (s == 0.0), 1.0, s),
    )[:, None]
    theta = np.sqrt(_dot_rows(phi))
    small = theta < _VINV_CUTOFF
    t2 = theta * theta
    safe = np.where(small, 1.0, theta)
    d = np.where(
        small,
        1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
        (1.0 - safe * np.sin(safe) / (2.0 * (1.0 - np.cos(safe)))) / (safe * safe),
    )
    K = _skew_many(phi)
    V_inv = np.eye(3) - 0.5 * K + d[:, None, None] * (K @ K)
    out = np.empty((R.shape[0], 6))
    out[:, :3] = (V_inv @ t[:, :, None])[:, :, 0]
    out[:, 3:] = phi
    for r in np.flatnonzero(np.pi - angle < _AXIS_BRANCH):
        try:
            out[r] = log_map(Pose(R[r], t[r]))
        except SingularLogError as e:
            raise SingularLogError(e.angle, row=int(r)) from None
    return out


def _se2_ab(theta: float) -> tuple[float, float]:
    """sin(t)/t and (1-cos(t))/t with small-angle Taylor."""
    if abs(theta) < _COEFF_CUTOFF:
        t2 = theta * theta
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0, theta * (0.5 - t2 / 24.0 + t2 * t2 / 720.0)
    return np.sin(theta) / theta, (1.0 - np.cos(theta)) / theta


# ---------------------------------------------------------------------------
# exp / log / adjoint / BCH on poses
# ---------------------------------------------------------------------------

def exp_map(xi) -> Pose:
    """Group element of a twist (closed form, Taylor fallback near zero)."""
    xi = _check_twist(xi)
    if xi.shape[0] == 3:
        theta = xi[2]
        a, b = _se2_ab(theta)
        V = np.array([[a, -b], [b, a]])
        return Pose(so2_exp(theta), V @ xi[:2])
    phi = xi[3:]
    return Pose(so3_exp(phi), _se3_V(phi) @ xi[:3])


def log_map(T: Pose) -> np.ndarray:
    """Principal twist of a pose; raises :class:`SingularLogError` at angle pi."""
    if T.dim == 2:
        theta = so2_log(T.R)
        a, b = _se2_ab(theta)
        Vinv = np.array([[a, b], [-b, a]]) / (a * a + b * b)
        rho = Vinv @ T.t
        return np.array([rho[0], rho[1], theta])
    phi = so3_log(T.R)
    rho = _se3_V_inv(phi) @ T.t
    return np.concatenate([rho, phi])


def adjoint(T: Pose) -> np.ndarray:
    """Matrix of the adjoint action: ``T @ exp_map(xi) == exp_map(adjoint(T) @ xi) @ T``."""
    return adjoint_blocks(T.R[None], T.t[None])[0]


def bch_approx(xi1, xi2, order: int) -> np.ndarray:
    """Truncated Baker-Campbell-Hausdorff series for ``log(exp(xi1) exp(xi2))``.

    order 1: ``xi1 + xi2``; order 2 adds ``bracket(xi1, xi2)/2``; order 3 adds
    the two 1/12 double-bracket terms.
    """
    xi1 = _check_twist(xi1)
    xi2 = _check_twist(xi2)
    if xi1.shape != xi2.shape:
        raise ValueError("twists must share a group")
    if order not in (1, 2, 3):
        raise ValueError(f"unsupported BCH truncation order {order!r}")
    out = xi1 + xi2
    if order >= 2:
        c1 = curly_hat(xi1)
        out = out + 0.5 * (c1 @ xi2)
    if order == 3:
        c2 = curly_hat(xi2)
        out = out + (c1 @ (c1 @ xi2) + c2 @ (c2 @ xi1)) / 12.0
    return out


# ---------------------------------------------------------------------------
# Vectorized kernels on homogeneous-matrix stacks
# ---------------------------------------------------------------------------

def _se2_coeffs_many(theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """cos t, sin t, sin(t)/t and (1-cos t)/t of an angle stack.

    The last two are the entries of the SE(2) V(t) = [[a, -b], [b, a]] and
    take the small-angle Taylor branch below ``_COEFF_CUTOFF``.
    """
    c, s = np.cos(theta), np.sin(theta)
    small = np.flatnonzero(np.abs(theta) < _COEFF_CUTOFF)
    safe = theta.copy()
    safe[small] = 1.0
    a = s / safe
    b = (1.0 - c) / safe
    # the series only where it is used: small angles are rare in a stack
    t = theta[small]
    t2 = t * t
    a[small] = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    b[small] = t * (0.5 - t2 / 24.0 + t2 * t2 / 720.0)
    return c, s, a, b


def _se2_log_rows(theta, tx, ty) -> np.ndarray:
    """(M, 3) SE(2) twists (V(theta)^-1 t, theta) of principal angles and translations."""
    a, b = _se2_coeffs_many(theta)[2:]
    det = a * a + b * b
    out = np.empty((theta.shape[0], 3))
    out[:, 0] = (a * tx + b * ty) / det
    out[:, 1] = (-b * tx + a * ty) / det
    out[:, 2] = theta
    return out


def _skew_many(v: np.ndarray) -> np.ndarray:
    M = np.zeros(v.shape[:-1] + (3, 3))
    M[..., 0, 1] = -v[..., 2]
    M[..., 0, 2] = v[..., 1]
    M[..., 1, 0] = v[..., 2]
    M[..., 1, 2] = -v[..., 0]
    M[..., 2, 0] = -v[..., 1]
    M[..., 2, 1] = v[..., 0]
    return M


def exp_many(xis: np.ndarray) -> np.ndarray:
    """Stack version of :func:`exp_map`: (M, 3) -> (M, 3, 3) or (M, 6) -> (M, 4, 4)."""
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] not in (3, 6):
        raise ValueError(f"expected (M, 3) or (M, 6) twists, got {xis.shape}")
    m = xis.shape[0]
    if xis.shape[1] == 3:
        c, s, a, b = _se2_coeffs_many(xis[:, 2])
        out = np.zeros((m, 3, 3))
        out[:, 0, 0] = c
        out[:, 0, 1] = -s
        out[:, 1, 0] = s
        out[:, 1, 1] = c
        out[:, 0, 2] = a * xis[:, 0] - b * xis[:, 1]
        out[:, 1, 2] = b * xis[:, 0] + a * xis[:, 1]
        out[:, 2, 2] = 1.0
        return out
    rho, phi = xis[:, :3], xis[:, 3:]
    theta = np.linalg.norm(phi, axis=1)
    small = theta < _COEFF_CUTOFF
    safe = np.where(small, 1.0, theta)
    t2 = theta * theta
    a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(theta) / safe)
    b = np.where(
        small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - np.cos(theta)) / (safe * safe)
    )
    cc = np.where(
        small,
        1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
        (theta - np.sin(theta)) / (safe ** 3),
    )
    K = _skew_many(phi)
    K2 = K @ K
    eye = np.broadcast_to(np.eye(3), (m, 3, 3))
    R = eye + a[:, None, None] * K + b[:, None, None] * K2
    V = eye + b[:, None, None] * K + cc[:, None, None] * K2
    out = np.zeros((m, 4, 4))
    out[:, :3, :3] = R
    out[:, :3, 3] = np.einsum("mij,mj->mi", V, rho)
    out[:, 3, 3] = 1.0
    return out


def log_many_masked(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack logarithm with a validity mask instead of raising.

    Rows whose rotation angle falls within ``_PI_MARGIN`` of pi are flagged
    False and their twist content is unspecified.  Entries in the band just
    below the cutoff lose precision; scalar :func:`log_map` has the robust
    branch and should be preferred for isolated evaluations.
    """
    out, ok, _ = _log_stack(mats)
    return out, ok


def log_between_many(xi1: np.ndarray, xi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twists ``log(exp(xi1)^-1 exp(xi2))`` of two (M, m) twist stacks, row by row.

    Returns the twists and the mask of :func:`log_many_masked`: rows whose
    relative rotation angle falls within ``_PI_MARGIN`` of pi are False and
    their twists unspecified.  SE(2) rows take a closed form on the twist
    columns, with no 3x3 matrices: theta = wrap(theta2 - theta1),
    t = R(theta1)^T (V(theta2) rho2 - V(theta1) rho1) and rho = V(theta)^-1 t
    (Sola et al., arXiv 1812.01537), with the Taylor branches of
    :func:`exp_many`.  SE(3) rows go through :func:`exp_many`,
    :func:`inv_many`, one stacked product and :func:`log_many_masked`.
    """
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    if xi1.shape != xi2.shape or xi1.ndim != 2 or xi1.shape[1] not in (3, 6):
        raise ValueError(f"expected two (M, 3) or (M, 6) twist stacks, got {xi1.shape} "
                         f"and {xi2.shape}")
    if xi1.shape[1] == 6:
        return log_many_masked(inv_many(exp_many(xi1)) @ exp_many(xi2))
    theta = xi2[:, 2] - xi1[:, 2]
    theta -= 2.0 * np.pi * np.round(theta / (2.0 * np.pi))
    ok = (np.pi - np.abs(theta)) > _PI_MARGIN
    return _se2_log_rows(theta, *_se2_between_translation(xi1, xi2)), ok


def _se2_between_translation(xi1, xi2) -> tuple[np.ndarray, np.ndarray]:
    """Translation columns R(theta1)^T (V(theta2) rho2 - V(theta1) rho1) of
    ``exp(xi1)^-1 exp(xi2)``; its temporaries die on return."""
    c1, s1, a1, b1 = _se2_coeffs_many(xi1[:, 2])
    _, _, a2, b2 = _se2_coeffs_many(xi2[:, 2])
    ux = (a2 * xi2[:, 0] - b2 * xi2[:, 1]) - (a1 * xi1[:, 0] - b1 * xi1[:, 1])
    uy = (b2 * xi2[:, 0] + a2 * xi2[:, 1]) - (b1 * xi1[:, 0] + a1 * xi1[:, 1])
    return c1 * ux + s1 * uy, c1 * uy - s1 * ux


def _log_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twists, validity mask and rotation angles of a homogeneous stack."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] not in (3, 4):
        raise ValueError(f"expected (M, 3, 3) or (M, 4, 4) stacks, got {mats.shape}")
    m = mats.shape[0]
    if mats.shape[1] == 3:
        theta = np.arctan2(mats[:, 1, 0], mats[:, 0, 0])
        ok = (np.pi - np.abs(theta)) > _PI_MARGIN
        return _se2_log_rows(theta, mats[:, 0, 2], mats[:, 1, 2]), ok, theta
    R = mats[:, :3, :3]
    t = mats[:, :3, 3]
    w = 0.5 * np.stack(
        [R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]], axis=1
    )
    s = np.linalg.norm(w, axis=1)
    c = np.clip((np.trace(R, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arctan2(s, c)
    ok = (np.pi - theta) > _PI_MARGIN
    small = theta < _SMALL_ANGLE
    t2 = theta * theta
    factor = np.where(
        small,
        1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0,
        theta / np.where(s == 0.0, 1.0, s),
    )
    phi = w * factor[:, None]
    small_d = theta < _VINV_CUTOFF
    safe = np.where(small_d, 1.0, theta)
    denom = 2.0 * (1.0 - c)
    d = np.where(
        small_d,
        1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
        (1.0 - theta * s / np.where(denom == 0.0, 1.0, denom)) / (safe * safe),
    )
    K = _skew_many(phi)
    K2 = K @ K
    rho = t - 0.5 * np.einsum("mij,mj->mi", K, t) + d[:, None] * np.einsum("mij,mj->mi", K2, t)
    return np.concatenate([rho, phi], axis=1), ok, theta


def log_many(mats: np.ndarray) -> np.ndarray:
    """Stack version of :func:`log_map`; raises if any row is at the pi boundary.

    The raised :class:`SingularLogError` carries the angle of the first
    offending row.
    """
    out, ok, theta = _log_stack(mats)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise SingularLogError(theta[bad])
    return out


def inv_many(mats: np.ndarray) -> np.ndarray:
    """Stack inverse of homogeneous transforms (exploits the group structure)."""
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[1] - 1
    Rt = np.swapaxes(mats[:, :d, :d], 1, 2)
    out = np.zeros_like(mats)
    out[:, :d, :d] = Rt
    out[:, :d, d] = -np.einsum("mij,mj->mi", Rt, mats[:, :d, d])
    out[:, d, d] = 1.0
    return out
