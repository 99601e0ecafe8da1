"""Euler-coordinate pose beliefs and the classical compounding operations.

This is the coordinate-based baseline: a pose is a 6-vector
``(x, y, z, phi, theta, psi)`` of translation and Euler angles, beliefs are
Gaussians over stacked parameter vectors, and uncertainty is propagated to
first order through the closed-form Jacobians of the head-to-tail, inverse
and tail-to-tail maps, by the chain rule through the group.  Each map works
on a stack of rows, with the checks of the :class:`Pose` constructor
applied to every pose it builds.

Euler convention is fixed to Z-Y-X: ``R = Rz(psi) @ Ry(theta) @ Rx(phi)``.
Only internal consistency matters here (all comparisons against the
twist-space operations go through homogeneous matrices), but the convention
is load-bearing for anyone interpreting the raw parameter vectors.
"""

from __future__ import annotations

import numpy as np

from .belief import checked_covs
from .liegroup import Pose, adjoint_blocks, checked_pose_blocks, compose_blocks, invert_blocks
from .liegroup import _skew_many

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


def param_residuals(mats: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """``params_many(mats) - x_hat`` with angle differences wrapped by arctan2."""
    r = params_many(mats) - x_hat
    r[:, 3:] = np.arctan2(np.sin(r[:, 3:]), np.cos(r[:, 3:]))
    return r


def _euler_rates(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """D(x) = [[I, [t]x E], [0, E]] of (M, 6) parameter rows, as (M, 6, 6), or D(x)^-1 =
    [[I, -[t]x], [0, E^-1]].  D maps parameter perturbations to left twists, E the Z-Y-X
    angle rates to world-frame angular velocity; E^-1 is singular only at gimbal lock."""
    cth, sth = np.cos(x[:, 4]), np.sin(x[:, 4])
    cps, sps = np.cos(x[:, 5]), np.sin(x[:, 5])
    D = np.zeros((x.shape[0], 6, 6))
    D[:, [0, 1, 2, 5], [0, 1, 2, 5]] = 1.0
    E = D[:, 3:, 3:]
    if inverse:
        E[:, 0, 0], E[:, 0, 1] = cps / cth, sps / cth
        E[:, 1, 0], E[:, 1, 1] = -sps, cps
        E[:, 2, 0], E[:, 2, 1] = cps * sth / cth, sps * sth / cth
        D[:, :3, 3:] = -_skew_many(x[:, :3])
    else:
        E[:, 0, 0], E[:, 0, 1] = cps * cth, -sps
        E[:, 1, 0], E[:, 1, 1] = sps * cth, cps
        E[:, 2, 0] = -sth
        D[:, :3, 3:] = _skew_many(x[:, :3]) @ E
    return D


# ---------------------------------------------------------------------------
# Row-wise stack maps and their Jacobians
# ---------------------------------------------------------------------------
#
# Each row reproduces the Pose arithmetic of the scalar map bit for bit: the
# poses go through liegroup.compose_blocks / invert_blocks, whose one-row
# calls are Pose's @ and inverse, and every result is checked.

def _pose_blocks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked (R, t) stacks of an (M, 6) parameter stack."""
    x = _normalized_rows(x)
    t = np.ascontiguousarray(x[:, :3])
    return checked_pose_blocks(_euler_rotations(x[:, 3:]), t), t


def _pushforward(out, z: np.ndarray, cov: np.ndarray, *G) -> tuple[np.ndarray, np.ndarray]:
    """Parameters x of the output blocks ``out`` of a map of the p-pose rows
    ``z``, and the first-order pushforward of ``cov`` by its Jacobians
    D(x)^-1 [G_1 D(z_1), ..., G_p D(z_p)], G_i its twist Jacobian for pose i."""
    x = _params_of_blocks(*out)
    D = _euler_rates(z.reshape(-1, 6)).reshape(z.shape[0], len(G), 6, 6)
    J = _euler_rates(x, inverse=True) @ np.concatenate([g @ D[:, i] for i, g in enumerate(G)], 2)
    return x, J @ cov @ np.swapaxes(J, 1, 2)


def _compound_rows(z: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Head-to-tail on (M, 12) rows (x1, x2): T(x1) @ T(x2), twist Jacobians I, Ad(T1)."""
    R1, t1 = _pose_blocks(z[:, :6])
    out = compose_blocks(R1, t1, *_pose_blocks(z[:, 6:]))
    return _pushforward(out, z, cov, np.eye(6), adjoint_blocks(R1, t1))


def _inverse_rows(z: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse on (M, 6) rows: T(x)^-1, twist Jacobian -Ad(T^-1)."""
    inv = invert_blocks(*_pose_blocks(z))
    return _pushforward(inv, z, cov, -adjoint_blocks(*inv))


def _relative_rows(z: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tail-to-tail on (M, 12) rows (x1, x2): T(x1)^-1 @ T(x2), twist Jacobians -+Ad(T1^-1)."""
    base = invert_blocks(*_pose_blocks(z[:, :6]))
    Ad = adjoint_blocks(*base)
    return _pushforward(compose_blocks(*base, *_pose_blocks(z[:, 6:])), z, cov, -Ad, Ad)


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


def tail_to_tail_many(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`tail_to_tail` of k pair beliefs in one stacked evaluation.

    ``mean`` is (k, 12) and ``cov`` (k, 12, 12); each pair is checked as
    ``SscBelief(mean[r], cov[r])`` would check it, and so is each result.
    Returns the (k, 6) means and (k, 6, 6) covariances, identical bit for
    bit to the one-pair calls.
    """
    return _checked_beliefs(*_relative_rows(*_checked_beliefs(mean, cov)))


def _require_pair(b: SscBelief, op: str) -> None:
    if b.n != 2:
        raise ValueError(f"{op} expects a stacked pair belief, got n={b.n}")


def head_to_tail(b: SscBelief) -> SscBelief:
    """Compose a correlated parameter-vector pair (x_ij, x_jk) -> x_ik.

    Mean goes through the pose blocks; covariance is the first-order
    congruence by the closed-form 6x12 Jacobian of the compounding map,
    including the cross-covariance blocks of the stacked input.
    """
    _require_pair(b, "head_to_tail")
    return SscBelief(*(a[0] for a in _compound_rows(b.mean[None], b.cov[None])))


def ssc_inverse(b: SscBelief) -> SscBelief:
    """Invert a single-pose parameter belief (frame swap)."""
    if b.n != 1:
        raise ValueError("ssc_inverse expects a single-pose belief")
    return SscBelief(*(a[0] for a in _inverse_rows(b.mean[None], b.cov[None])))


def tail_to_tail(b: SscBelief) -> SscBelief:
    """Relative pose of a correlated parameter-vector pair (x_ij, x_ik) -> x_jk."""
    _require_pair(b, "tail_to_tail")
    return SscBelief(*(a[0] for a in _relative_rows(b.mean[None], b.cov[None])))
