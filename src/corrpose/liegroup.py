"""Matrix Lie-group primitives for SE(2) and SE(3).

Conventions used throughout the package:

* Twists are plain 1-D numpy arrays stacked translation-first.  An SE(2)
  twist is ``(rho_x, rho_y, phi)``, an SE(3) twist is ``(rho, phi)`` with
  both halves in R^3.  Translations are meters, angles radians.
* A :class:`Pose` maps local coordinates into its parent frame and is
  stored as a rotation matrix plus a translation vector.
* Uncertain quantities elsewhere in the package perturb poses on the
  left, ``T = exp(hat(xi)) @ T_bar``; every covariance is expressed in
  the twist ordering above.

Each group has one exponential, :func:`exp_many`, and one logarithm,
``_log_stack`` behind :func:`log_many` and :func:`log_many_masked`, all on
stacks of twists and homogeneous matrices.  The :class:`Pose` entry points
:func:`exp_map` and :func:`log_map` are one-row calls of them.  These
kernels take no sine or cosine: every angle coefficient comes from one
tan(t/2) per angle (:func:`_angle_coeffs`, :func:`_vinv_coeff`), and SE(3)
rows are formed entry by entry, without 3x3 matrix products.  Each pose
operation likewise has one kernel on rotation and translation stacks, and a
:class:`Pose` is a one-row view of these checked block kernels.
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
    return _skew_many(np.asarray(v, dtype=float).reshape(3)[None])[0]


def _skew_many(v: np.ndarray) -> np.ndarray:
    M = np.zeros(v.shape[:-1] + (3, 3))
    M[..., 0, 1] = -v[..., 2]
    M[..., 0, 2] = v[..., 1]
    M[..., 1, 0] = v[..., 2]
    M[..., 1, 2] = -v[..., 0]
    M[..., 2, 0] = -v[..., 1]
    M[..., 2, 1] = v[..., 0]
    return M


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

    Immutable value type and a one-row view of the checked block kernels: the
    constructor runs :func:`checked_pose_blocks` (drift is repaired, other
    non-rotations raise ``ValueError``), and ``planar``, ``matrix``,
    ``inverse`` and ``@`` call the matching kernel on one row.  Rows a
    kernel has already checked are held by :meth:`_of_checked` unchecked.
    """

    __slots__ = ("R", "t")

    def __init__(self, R, t):
        # the order-'K' copy keeps an inverse's R^T a transposed view, whose
        # products matmul rounds differently from those of a C-ordered copy
        R = np.array(R, dtype=float)
        t = np.array(t, dtype=float).reshape(-1)
        d = t.shape[0]
        if d not in (2, 3) or R.shape != (d, d):
            raise ValueError(f"expected 2D or 3D rotation+translation, got R{R.shape} t{t.shape}")
        self._hold(checked_pose_blocks(R[None], t[None])[0], t)

    @classmethod
    def _of_checked(cls, R: np.ndarray, t: np.ndarray) -> "Pose":
        """The pose of a row that :func:`checked_pose_blocks` has already
        returned, copied as the constructor copies and not checked again."""
        pose = object.__new__(cls)
        pose._hold(np.array(R, dtype=float), np.array(t, dtype=float))
        return pose

    def _hold(self, R: np.ndarray, t: np.ndarray) -> None:
        R.flags.writeable = t.flags.writeable = False
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
        R, t = planar_blocks(*np.array([[x], [y], [theta]], dtype=float))
        return cls(R[0], t[0])

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
        return homogeneous(self.R[None], self.t[None])[0]

    def inverse(self) -> "Pose":
        R, t = invert_blocks(self.R[None], self.t[None])
        return Pose._of_checked(R[0], t[0])

    def __matmul__(self, other: "Pose") -> "Pose":
        if not isinstance(other, Pose):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("cannot compose poses of different dimension")
        R, t = compose_blocks(self.R[None], self.t[None], other.R[None], other.t[None])
        return Pose._of_checked(R[0], t[0])

    def __repr__(self) -> str:
        return f"Pose(R={self.R.tolist()}, t={self.t.tolist()})"


def checked_pose_blocks(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The pose checks, on (M, d, d) rotation and (M, d) translation stacks.

    Non-finite entries, residuals beyond ``_RENORMALIZABLE_TOL`` and
    reflections raise ``ValueError``, and rows drifted beyond
    ``ORTHONORMALITY_TOL`` are projected back onto the rotations.  Returns
    the rotation stack, copied only if a row was repaired.
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


def compose_blocks(R1, t1, R2, t2) -> tuple[np.ndarray, np.ndarray]:
    """Checked (R, t) stacks of the row-wise products ``T1[k] @ T2[k]``."""
    t = (R1 @ t2[:, :, None])[:, :, 0] + t1
    return checked_pose_blocks(R1 @ R2, t), t


def invert_blocks(R, t) -> tuple[np.ndarray, np.ndarray]:
    """Checked (R, t) stacks of the row-wise inverses ``T[k]^-1`` (R^T a transposed view)."""
    Rt = np.swapaxes(R, 1, 2)
    t_inv = -(Rt @ t[:, :, None])[:, :, 0]
    return checked_pose_blocks(Rt, t_inv), t_inv


def planar_blocks(x, y, theta) -> tuple[np.ndarray, np.ndarray]:
    """(M, 2, 2) rotations and (M, 2) translations of planar poses (x, y, theta)."""
    c, s = np.cos(theta), np.sin(theta)
    R = np.empty((c.shape[0], 2, 2))
    R[:, 0, 0] = c
    R[:, 0, 1] = -s
    R[:, 1, 0] = s
    R[:, 1, 1] = c
    return R, np.column_stack([x, y])


def homogeneous(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(M, d+1, d+1) homogeneous matrices of (M, d, d) rotations and (M, d) translations."""
    m, d = t.shape
    out = np.zeros((m, d + 1, d + 1))
    out[:, :d, :d] = R
    out[:, :d, d] = t
    out[:, d, d] = 1.0
    return out


def adjoint_blocks(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row-wise :func:`adjoint` of (M, d, d) rotation and (M, d) translation stacks."""
    k, d = t.shape
    if d == 2:  # [[R, (t_y, -t_x)], [0, 1]], laid out as a homogeneous matrix
        return homogeneous(R, np.column_stack([t[:, 1], -t[:, 0]]))
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


# Rotation angles closer than this to pi recover the log's axis from the
# symmetric part of R (the antisymmetric part is nearly annihilated there).
_AXIS_BRANCH = 1e-4
# Taylor switch points: below _COEFF_CUTOFF the sin(t)/t-style ratios are
# evaluated by series (their closed forms are 0/0 at t = 0, and
# (t - sin t)/t^3 loses ~eps/t^2 to cancellation); the V-inverse curvature
# coefficient loses ~12 eps/t^2 and gets the wider _VINV_CUTOFF window.
_COEFF_CUTOFF = 1e-4
_VINV_CUTOFF = 1e-2


# ---------------------------------------------------------------------------
# exp / log / adjoint / BCH on poses
# ---------------------------------------------------------------------------

def exp_map(xi) -> Pose:
    """Group element of a twist: one row of :func:`exp_many`."""
    return Pose.from_matrix(exp_many(_check_twist(xi)[None])[0])


def log_map(T: Pose) -> np.ndarray:
    """Principal twist of a pose: one row of :func:`log_many`, which raises
    :class:`SingularLogError` at angle pi."""
    return log_many(T.matrix()[None])[0]


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

def _angle_coeffs(theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """cos t, sin t, a = sin(t)/t and b = (1-cos t)/t of an angle stack.

    All four come from u = tan(t/2), the one transcendental taken: c =
    (1-u^2)/(1+u^2), s = 2u/(1+u^2), a = s/t and b = s u/t, free of
    cancellation.  a and b, the entries of the SE(2) V(t) = [[a, -b], [b, a]],
    take the Taylor branch below ``_COEFF_CUTOFF``.
    """
    u = np.tan(0.5 * theta)
    u2 = u * u
    c = (1.0 - u2) / (1.0 + u2)
    s = 2.0 * u / (1.0 + u2)
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 takes the series
        a = s / theta
    b = a * u
    # the series only where it is used: small angles are rare in a stack
    small = np.flatnonzero(np.abs(theta) < _COEFF_CUTOFF)
    t = theta[small]
    t2 = t * t
    a[small] = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    b[small] = t * (0.5 - t2 / 24.0 + t2 * t2 / 720.0)
    return c, s, a, b


def _vinv_coeff(theta: np.ndarray) -> np.ndarray:
    """d = (1 - (t/2) cot(t/2)) / t^2 of angles |t| <= pi, as (1 - t/(2u)) / t^2
    with u = tan(t/2): the curvature coefficient of the SE(3) V(t)^-1 =
    I - K/2 + d K^2 and of the SE(2) inverse right Jacobian."""
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 takes the series
        d = (1.0 - 0.5 * theta / np.tan(0.5 * theta)) / (theta * theta)
    small = np.flatnonzero(np.abs(theta) < _VINV_CUTOFF)
    t2 = theta[small] ** 2
    d[small] = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    return d


def _se2_log_rows(theta, tx, ty, a, b) -> np.ndarray:
    """(M, 3) SE(2) twists (V(theta)^-1 t, theta) of principal angles and
    translations, given a = sin(theta)/theta and b = (1-cos theta)/theta."""
    det = a * a + b * b
    out = np.empty((theta.shape[0], 3))
    out[:, 0] = (a * tx + b * ty) / det
    out[:, 1] = (-b * tx + a * ty) / det
    out[:, 2] = theta
    return out


def exp_many(xis: np.ndarray) -> np.ndarray:
    """Exponentials of a twist stack: (M, 3) -> (M, 3, 3) or (M, 6) -> (M, 4, 4).

    The one exponential of the package (:func:`exp_map` is a one-row call),
    in the closed forms of Sola et al. (arXiv 1812.01537) with the Taylor
    branches below ``_COEFF_CUTOFF``; every angle coefficient comes from
    tan(t/2) (:func:`_angle_coeffs`).  SE(3) rows are formed entry by entry,
    with K = skew(phi): R = cI + (s/t) K + ((1-c)/t^2) phi phi^T and
    V rho = (s/t) rho + ((1-c)/t^2) phi x rho + ((t-s)/t^3) phi (phi . rho).

    The SE(3) stack is computed on component rows: the twists are copied
    once into six contiguous (M,) rows, each of the 16 entries is filled as
    one contiguous row of a (4, 4, M) buffer, and ``b phi_i phi_j`` is
    formed once for both R[i, j] and R[j, i].  The buffer is returned as a
    C-contiguous (M, 4, 4) copy, the layout the stacked ``@`` of the callers
    rounds in.  Every entry is the same elementwise expression, evaluated in
    the same order, as an entry-by-entry fill of the (M, 4, 4) stack, so a
    strided view, its contiguous copy and one-row calls give the same bits.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] not in (3, 6):
        raise ValueError(f"expected (M, 3) or (M, 6) twists, got {xis.shape}")
    m = xis.shape[0]
    if xis.shape[1] == 3:
        c, s, a, b = _angle_coeffs(xis[:, 2])
        out = np.zeros((m, 3, 3))
        out[:, 0, 0] = c
        out[:, 0, 1] = -s
        out[:, 1, 0] = s
        out[:, 1, 1] = c
        out[:, 0, 2] = a * xis[:, 0] - b * xis[:, 1]
        out[:, 1, 2] = b * xis[:, 0] + a * xis[:, 1]
        out[:, 2, 2] = 1.0
        return out
    rho_phi = xis.T.copy()
    rho, phi = rho_phi[:3], rho_phi[3:]
    theta = np.sqrt(phi[0] ** 2 + phi[1] ** 2 + phi[2] ** 2)
    c, s, a, b = _angle_coeffs(theta)
    t2 = theta * theta
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 takes the series
        b = b / theta
        cc = (theta - s) / (theta * t2)
    small = np.flatnonzero(theta < _COEFF_CUTOFF)
    t2 = t2[small]
    b[small] = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    cc[small] = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    cc *= phi[0] * rho[0] + phi[1] * rho[1] + phi[2] * rho[2]
    out = np.empty((4, 4, m))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # cyclic: K[j, i] = phi_k
        bi = b * phi[i]
        np.add(bi * phi[i], c, out=out[i, i])
        bij = bi * phi[j]
        ak = a * phi[k]
        np.subtract(bij, ak, out=out[i, j])
        np.add(bij, ak, out=out[j, i])
        np.add(a * rho[i] + b * (phi[j] * rho[k] - phi[k] * rho[j]), cc * phi[i], out=out[i, 3])
    out[3, :3] = 0.0
    out[3, 3] = 1.0
    # rows freed before the copy: traced peak 3.8 -> 2.8 MB at M = 10,000
    del rho_phi, rho, phi, theta, c, s, a, b, cc, bi, bij, ak
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def log_many_masked(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack logarithm with a validity mask instead of raising.

    Rows whose rotation angle falls within ``_PI_MARGIN`` of pi are flagged
    False and their twist content is unspecified.  The arithmetic is that of
    :func:`log_many`, axis branch near pi included, so rows just outside the
    margin keep full precision.
    """
    out, ok, _ = _log_stack(mats)
    return out, ok


def log_between_many(xi1: np.ndarray, xi2: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twists ``log(exp(xi1)^-1 exp(xi2))`` of two (M, m) twist stacks, row by row.

    Returns the twists, the mask of :func:`log_many_masked` (rows whose
    relative rotation angle falls within ``_PI_MARGIN`` of pi are False and
    their twists unspecified) and the angle coefficients.  SE(2) rows take a
    closed form on the twist columns, with no 3x3 matrices: theta =
    wrap(theta2 - theta1), t = R(theta1)^T (V(theta2) rho2 - V(theta1) rho1)
    and rho = V(theta)^-1 t (Sola et al., arXiv 1812.01537), with the Taylor
    branches of :func:`exp_many` and one tan(t/2) per angle; the coefficients
    are the (4, M) rows cos, sin, sin(t)/t and (1-cos t)/t of each relative
    angle t that V(theta)^-1 was formed from (:func:`_angle_coeffs`).  SE(3)
    rows go through :func:`exp_many`, :func:`inv_many`, one stacked product
    and :func:`log_many_masked`, and have no coefficient rows.
    """
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    if xi1.shape != xi2.shape or xi1.ndim != 2 or xi1.shape[1] not in (3, 6):
        raise ValueError(f"expected two (M, 3) or (M, 6) twist stacks, got {xi1.shape} "
                         f"and {xi2.shape}")
    if xi1.shape[1] == 6:
        out, ok = log_many_masked(inv_many(exp_many(xi1)) @ exp_many(xi2))
        return out, ok, np.empty((0, xi1.shape[0]))
    theta = xi2[:, 2] - xi1[:, 2]
    theta -= 2.0 * np.pi * np.round(theta / (2.0 * np.pi))
    ok = (np.pi - np.abs(theta)) > _PI_MARGIN
    tx, ty = _se2_between_translation(xi1, xi2)
    coeffs = np.stack(_angle_coeffs(theta))
    return _se2_log_rows(theta, tx, ty, *coeffs[2:]), ok, coeffs


def _se2_between_translation(xi1, xi2) -> tuple[np.ndarray, np.ndarray]:
    """Translation columns R(theta1)^T (V(theta2) rho2 - V(theta1) rho1) of
    ``exp(xi1)^-1 exp(xi2)``; its temporaries die on return."""
    c1, s1, a1, b1 = _angle_coeffs(xi1[:, 2])
    _, _, a2, b2 = _angle_coeffs(xi2[:, 2])
    ux = (a2 * xi2[:, 0] - b2 * xi2[:, 1]) - (a1 * xi1[:, 0] - b1 * xi1[:, 1])
    uy = (b2 * xi2[:, 0] + a2 * xi2[:, 1]) - (b1 * xi1[:, 0] + a1 * xi1[:, 1])
    return c1 * ux + s1 * uy, c1 * uy - s1 * ux


def _log_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twists, validity mask and rotation angles of a homogeneous stack.

    The one logarithm of the package, in the closed forms of Sola et al.
    (arXiv 1812.01537).  Rows within ``_PI_MARGIN`` of pi are masked False
    and their twists unspecified; no row raises.  The SE(3) translation is
    rho = t - phi x t / 2 + d phi x (phi x t), formed on columns, with d of
    the angle alone (:func:`_vinv_coeff`).
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] not in (3, 4):
        raise ValueError(f"expected (M, 3, 3) or (M, 4, 4) stacks, got {mats.shape}")
    if mats.shape[1] == 3:
        theta = np.arctan2(mats[:, 1, 0], mats[:, 0, 0])
        ok = (np.pi - np.abs(theta)) > _PI_MARGIN
        _, _, a, b = _angle_coeffs(theta)
        return _se2_log_rows(theta, mats[:, 0, 2], mats[:, 1, 2], a, b), ok, theta
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
    near = np.flatnonzero(np.pi - theta < _AXIS_BRANCH)
    if near.size:
        phi[near] = theta[near, None] * _near_pi_axes(R[near], c[near], w[near])
    out = np.empty((mats.shape[0], 6))
    out[:, 3:] = phi
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    p = [phi[:, j] * t[:, k] - phi[:, k] * t[:, j] for _, j, k in cyclic]  # phi x t
    d = _vinv_coeff(theta)
    for i, j, k in cyclic:
        out[:, i] = t[:, i] - 0.5 * p[i] + d * (phi[:, j] * p[k] - phi[:, k] * p[j])
    return out, ok, theta


def _near_pi_axes(R: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit rotation axes of (M, 3, 3) rotations with angles near pi.

    The antisymmetric part ``w`` is nearly annihilated there, so the axis
    comes from the symmetric part: n_i^2 = (R_ii - c) / (1 - c), the signs
    relative to the largest component from row k of R + R^T, and ``w``
    resolves only the overall sign.
    """
    n = np.sqrt(np.clip((np.diagonal(R, axis1=1, axis2=2) - c[:, None])
                        / (1.0 - c[:, None]), 0.0, 1.0))
    rows = np.arange(n.shape[0])
    k = np.argmax(n, axis=1)
    ref = R[rows, k, :] + R[rows, :, k]
    ref[rows, k] = 1.0  # the largest component keeps its sign
    n = np.copysign(n, ref)
    return np.where(((n * w).sum(axis=1) < 0.0)[:, None], -n, n)


def log_many(mats: np.ndarray) -> np.ndarray:
    """Principal twists of a homogeneous stack; raises if any row is at pi.

    The raised :class:`SingularLogError` carries the angle and the ``row``
    of the first offending row.
    """
    out, ok, theta = _log_stack(mats)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise SingularLogError(theta[bad], row=bad)
    return out


def inv_many(mats: np.ndarray) -> np.ndarray:
    """Stack inverse of homogeneous transforms, unchecked unlike
    :func:`invert_blocks`: the solver's Gauss-Newton iterates drift until
    the solved graph checks them once."""
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[1] - 1
    Rt = np.swapaxes(mats[:, :d, :d], 1, 2)
    return homogeneous(Rt, -np.einsum("mij,mj->mi", Rt, mats[:, :d, d]))
