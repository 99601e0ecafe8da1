"""Euler-coordinate pose beliefs and the classical compounding operations.

This is the coordinate-based baseline: a pose is a 6-vector
``(x, y, z, phi, theta, psi)`` of translation and Euler angles, beliefs are
Gaussians over stacked parameter vectors, and uncertainty is propagated to
first order through numerical Jacobians of the head-to-tail, inverse and
tail-to-tail maps.  Each Jacobian is a central difference evaluated as one
stack: the mean and its ``2n`` perturbed copies go through a row-wise stack
version of the map in a single call, with the checks of the :class:`Pose`
constructor applied to every row.

Euler convention is fixed to Z-Y-X: ``R = Rz(psi) @ Ry(theta) @ Rx(phi)``.
Only internal consistency matters here (all comparisons against the
twist-space operations go through homogeneous matrices), but the convention
is load-bearing for anyone interpreting the raw parameter vectors.
"""

from __future__ import annotations

import numpy as np

from .belief import checked_covs
from .liegroup import Pose, checked_pose_blocks, compose_blocks, invert_blocks

# Central-difference step for all parameter-space Jacobians.
_JAC_STEP = 1e-6
# |theta| closer than this to pi/2 is treated as gimbal lock.
_GIMBAL_TOL = 1e-6


class GimbalLockError(ArithmeticError):
    """Euler extraction/propagation attempted at |theta| ~ pi/2."""


def wrap_angle(a):
    """Wrap angles into (-pi, pi]; works on scalars and arrays."""
    out = np.arctan2(np.sin(a), np.cos(a))
    out = np.where(out == -np.pi, np.pi, out)  # fold the open end
    return float(out) if out.ndim == 0 else out


def normalize_params(x) -> np.ndarray:
    """Validated copy of a 6-parameter vector with wrapped angles."""
    return _normalized_rows(_param_row(x)[None])[0]


def _param_row(x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != 6:
        raise ValueError(f"parameter vector must have 6 entries, got {x.shape[0]}")
    return x


def _normalized_rows(x: np.ndarray) -> np.ndarray:
    """Copy of an (M, 6) parameter stack with wrapped angles; entries must be finite."""
    if not np.isfinite(x).all():
        raise ValueError("parameter entries must be finite")
    out = x.copy()
    out[:, 3:] = wrap_angle(x[:, 3:])
    return out


def _euler_rotations(angles: np.ndarray) -> np.ndarray:
    """Rotation stack (M, 3, 3) of (M, 3) angles (phi, theta, psi)."""
    cph, sph = np.cos(angles[:, 0]), np.sin(angles[:, 0])
    cth, sth = np.cos(angles[:, 1]), np.sin(angles[:, 1])
    cps, sps = np.cos(angles[:, 2]), np.sin(angles[:, 2])
    R = np.empty((angles.shape[0], 3, 3))
    R[:, 0, 0] = cps * cth
    R[:, 0, 1] = cps * sth * sph - sps * cph
    R[:, 0, 2] = cps * sth * cph + sps * sph
    R[:, 1, 0] = sps * cth
    R[:, 1, 1] = sps * sth * sph + cps * cph
    R[:, 1, 2] = sps * sth * cph - cps * sph
    R[:, 2, 0] = -sth
    R[:, 2, 1] = cth * sph
    R[:, 2, 2] = cth * cph
    return R


def _params_of_blocks(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Parameter rows of rotation/translation stacks; raises at gimbal lock."""
    theta = np.arcsin(np.clip(-R[:, 2, 0], -1.0, 1.0))
    locked = np.pi / 2 - np.abs(theta) < _GIMBAL_TOL
    if locked.any():
        pitch = float(theta[np.argmax(locked)])
        raise GimbalLockError(f"pitch {pitch!r} is numerically at gimbal lock")
    out = np.empty((R.shape[0], 6))
    out[:, :3] = t
    out[:, 3] = np.arctan2(R[:, 2, 1], R[:, 2, 2])
    out[:, 4] = theta
    out[:, 5] = np.arctan2(R[:, 1, 0], R[:, 0, 0])
    return out


def ssc_to_pose(x) -> Pose:
    """Pose of a parameter vector: R = Rz(psi) Ry(theta) Rx(phi), t = (x, y, z).

    A one-row call of the stack map behind every operation of this module.
    """
    R, t = _pose_blocks(_param_row(x)[None])
    return Pose(R[0], t[0])


def pose_to_ssc(T: Pose) -> np.ndarray:
    """Parameter vector of a pose; raises :class:`GimbalLockError` near |theta| = pi/2.

    A one-row call of :func:`params_many`'s stack map.
    """
    if T.dim != 3:
        raise ValueError("parameter extraction needs an SE(3) pose")
    return _params_of_blocks(T.R[None], T.t[None])[0]


def params_many(mats: np.ndarray) -> np.ndarray:
    """Vectorized :func:`pose_to_ssc` on a stack of homogeneous matrices."""
    mats = np.asarray(mats, dtype=float)
    return _params_of_blocks(mats[:, :3, :3], mats[:, :3, 3])


# ---------------------------------------------------------------------------
# Row-wise stack maps
# ---------------------------------------------------------------------------
#
# Each row reproduces the Pose arithmetic of the scalar map bit for bit: the
# poses go through liegroup.compose_blocks / invert_blocks, which compose
# rotation and translation blocks like Pose objects and check every result.

def _pose_blocks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked (R, t) stacks of an (M, 6) parameter stack."""
    x = _normalized_rows(x)
    t = np.ascontiguousarray(x[:, :3])
    return checked_pose_blocks(_euler_rotations(x[:, 3:]), t), t


def _compound_rows(z: np.ndarray) -> np.ndarray:
    """Head-to-tail on (M, 12) rows (x1, x2): parameters of T(x1) @ T(x2)."""
    return _params_of_blocks(*compose_blocks(*_pose_blocks(z[:, :6]), *_pose_blocks(z[:, 6:])))


def _inverse_rows(z: np.ndarray) -> np.ndarray:
    """Inverse on (M, 6) rows: parameters of T(x)^-1."""
    return _params_of_blocks(*invert_blocks(*_pose_blocks(z)))


def _relative_rows(z: np.ndarray) -> np.ndarray:
    """Tail-to-tail on (M, 12) rows (x1, x2): parameters of T(x1)^-1 @ T(x2)."""
    base = invert_blocks(*_pose_blocks(z[:, :6]))
    return _params_of_blocks(*compose_blocks(*base, *_pose_blocks(z[:, 6:])))


class SscBelief:
    """Gaussian over one or more stacked 6-parameter pose vectors."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float).reshape(-1)
        if mean.shape[0] == 0 or mean.shape[0] % 6:
            raise ValueError("mean must stack whole 6-parameter vectors")
        cov = np.asarray(cov, dtype=float)
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ValueError(f"covariance must be {n}x{n}, got {cov.shape}")
        mean, cov = (a[0] for a in _checked_beliefs(mean[None], cov[None]))
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("SscBelief is immutable")

    @property
    def n(self) -> int:
        return self.mean.shape[0] // 6

    def pose_mean(self, i: int) -> np.ndarray:
        return self.mean[6 * i : 6 * i + 6]

    @classmethod
    def pair(cls, b1: "SscBelief", b2: "SscBelief", cross=None) -> "SscBelief":
        """Stack two single-pose beliefs (optionally with a 6x6 cross block)."""
        if b1.n != 1 or b2.n != 1:
            raise ValueError("pair() expects single-pose beliefs")
        cov = np.zeros((12, 12))
        cov[:6, :6] = b1.cov
        cov[6:, 6:] = b2.cov
        if cross is not None:
            cov[:6, 6:] = cross
            cov[6:, :6] = np.asarray(cross, dtype=float).T
        return cls(np.concatenate([b1.mean, b2.mean]), cov)


def _checked_beliefs(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :class:`SscBelief` checks on k beliefs stacked as (k, 6n) means and
    (k, 6n, 6n) covariances: wrapped means, symmetrized read-only covariances."""
    mean = _normalized_rows(mean.reshape(-1, 6)).reshape(mean.shape)
    return mean, checked_covs(cov, what="covariance")


def _stack_jacobian(f, x: np.ndarray, h: float = _JAC_STEP) -> tuple[np.ndarray, np.ndarray]:
    """Values and central-difference Jacobians of a row-wise map at k points, in one call.

    ``f`` maps an (M, n) input stack to (M, 6) parameter rows.  For each of
    the (k, n) points ``x`` the stack holds x, then x + h e_i and x - h e_i
    for every unit vector e_i; angle differences are wrapped before the
    division by 2h.  Returns (k, 6) values and (k, 6, n) Jacobians.
    """
    k, n = x.shape
    step = h * np.eye(n)
    X = np.concatenate([x[:, None], x[:, None] + step, x[:, None] - step], axis=1)
    F = f(X.reshape(-1, n)).reshape(k, 2 * n + 1, 6)
    d = F[:, 1 : n + 1] - F[:, n + 1 :]
    d[:, :, 3:] = wrap_angle(d[:, :, 3:])
    return F[:, 0], np.ascontiguousarray(np.swapaxes(d / (2 * h), 1, 2))


def _propagated(f, mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked first-order pushforward of k stacked beliefs through a row-wise map."""
    F, J = _stack_jacobian(f, mean)
    return F, J @ cov @ np.swapaxes(J, 1, 2)


def _propagate(f, b: SscBelief) -> SscBelief:
    mean, cov = _propagated(f, b.mean[None], b.cov[None])
    return SscBelief(mean[0], cov[0])


def tail_to_tail_many(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`tail_to_tail` of k pair beliefs in one stacked evaluation.

    ``mean`` is (k, 12) and ``cov`` (k, 12, 12); each pair is checked as
    ``SscBelief(mean[r], cov[r])`` would check it, and so is each result.
    Returns the (k, 6) means and (k, 6, 6) covariances, identical bit for
    bit to the one-pair calls.
    """
    return _checked_beliefs(*_propagated(_relative_rows, *_checked_beliefs(mean, cov)))


def _require_pair(b: SscBelief, op: str) -> None:
    if b.n != 2:
        raise ValueError(f"{op} expects a stacked pair belief, got n={b.n}")


def head_to_tail(b: SscBelief) -> SscBelief:
    """Compose a correlated parameter-vector pair (x_ij, x_jk) -> x_ik.

    Mean goes through the pose blocks; covariance is the first-order
    congruence by the 6x12 numerical Jacobian of the compounding map,
    including the cross-covariance blocks of the stacked input.
    """
    _require_pair(b, "head_to_tail")
    return _propagate(_compound_rows, b)


def ssc_inverse(b: SscBelief) -> SscBelief:
    """Invert a single-pose parameter belief (frame swap)."""
    if b.n != 1:
        raise ValueError("ssc_inverse expects a single-pose belief")
    return _propagate(_inverse_rows, b)


def tail_to_tail(b: SscBelief) -> SscBelief:
    """Relative pose of a correlated parameter-vector pair (x_ij, x_ik) -> x_jk."""
    _require_pair(b, "tail_to_tail")
    return _propagate(_relative_rows, b)
