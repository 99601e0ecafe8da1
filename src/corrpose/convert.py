"""Unscented conversion from Euler-coordinate beliefs to twist-space beliefs.

The map from a parameter vector to the group element is nonlinear, so the
conversion runs sigma points of the coordinate Gaussian through

    l_i(x_i) = log( f(x_i) @ f(x_hat_i)^-1 )

which centers each pose block on the identity and lands in the Lie algebra,
then rebuilds the stacked covariance from the weighted outer products.  With
n poses the input space has dimension 6n and the point set has 12n + 1
members.

All (sigma point, pose block) pairs are evaluated as one matrix stack: the
coordinate-to-group map and the product with the mean inverse run with the
checks of the :class:`Pose` constructor on every row, and one
:func:`log_many` call takes every logarithm.  The stack kernels are row by
row, so the result is identical to converting one point and one pose at a
time; the weighted sums keep that per-point order.
"""

from __future__ import annotations

import numpy as np

from .belief import JointPoseBelief
from .liegroup import SingularLogError, compose_blocks, homogeneous, invert_blocks, log_many
from .mc import _sqrt_factor
from .ssc import SscBelief, _pose_blocks, ssc_to_pose


class ConversionError(RuntimeError):
    """The input coordinate covariance is indefinite beyond float noise."""


class SigmaPointSingularityError(RuntimeError):
    """A sigma point landed on the logarithm branch boundary."""

    def __init__(self, index: int, pose: int, angle: float):
        self.index = index
        self.pose = pose
        self.angle = angle
        super().__init__(
            f"sigma point {index} (pose block {pose}) hit the logarithm "
            f"singularity at rotation angle {angle!r}"
        )


def sigma_points(mean: np.ndarray, cov: np.ndarray, kappa: float = 0.0):
    """Sigma points and Julier's weights for a Gaussian, which need
    ``dim + kappa > 0``, spread along the columns of the principal square
    root of ``cov`` (:func:`~corrpose.mc._sqrt_factor`), so the points and
    the result are continuous in ``cov``, singular ``cov`` included (an
    indefinite one raises :class:`ConversionError`).

    The default ``kappa = 0`` keeps every weight nonnegative for any stacked
    dimension (``kappa = 3 - dim`` goes negative for dim >= 3 and can produce
    indefinite outputs).  The scaled transform at ``(alpha, kappa)`` is
    ``kappa' = alpha^2 (dim + kappa) - dim`` here, but for the centre point's
    covariance weight, which :func:`ut_convert` drops.

    Far from the linear range the converted covariance depends on which
    square root spreads the points: on the ``convert-demo`` default, a
    Cholesky factor in place of the principal root moves it by 37% of its
    largest entry.
    """
    dim = mean.shape[0]
    spread = dim + kappa
    if spread <= 0:
        raise ValueError(f"dim + kappa must be positive, got {spread}")
    w = np.full(2 * dim + 1, 1.0 / (2.0 * spread))
    w[0] = kappa / spread
    offsets = np.sqrt(spread) * _sqrt_factor(cov, err=ConversionError)
    points = np.empty((2 * dim + 1, dim))
    points[0] = mean
    points[1 : dim + 1] = mean[None, :] + offsets.T
    points[dim + 1 :] = mean[None, :] - offsets.T
    return points, w


def _centered_logs(b: SscBelief, points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(rows), 6n) identity-centered logs ``l(x_k)`` of ``points[rows]``.

    Raises :class:`SigmaPointSingularityError` for the first offending sigma
    point and, within it, the first offending pose block.
    """
    n = b.n
    R_mean, t_mean = _pose_blocks(b.mean.reshape(n, 6))
    # invert the tiled means so every right operand is a transposed view of
    # R, the layout Pose.inverse gives the per-point product
    R_inv, t_inv = invert_blocks(
        np.tile(R_mean, (rows.size, 1, 1)), np.tile(t_mean, (rows.size, 1))
    )
    R, t = compose_blocks(*_pose_blocks(points[rows].reshape(-1, 6)), R_inv, t_inv)
    try:
        logs = log_many(homogeneous(R, t))
    except SingularLogError as e:
        k, i = divmod(e.row, n)
        raise SigmaPointSingularityError(int(rows[k]), i, e.angle) from None
    return logs.reshape(rows.size, 6 * n)


def ut_convert(b: SscBelief, kappa: float = 0.0) -> JointPoseBelief:
    """Twist-space joint belief of an Euler-coordinate belief.

    Means map pose-wise through the coordinate-to-group function; the stacked
    covariance is the weighted outer-product sum of the identity-centered
    logs of the sigma points, taken about zero.  It drops the central point,
    whose log is zero but for rounding; :func:`ut_residual_mean` keeps it
    when ``kappa != 0`` and gives the size of the neglected weighted mean.
    """
    points, w = sigma_points(b.mean, b.cov, kappa)
    means = [ssc_to_pose(b.pose_mean(i)) for i in range(b.n)]
    # l of the central point is zero but for rounding, and it is dropped
    rows = np.flatnonzero((w != 0.0) & (points != points[0]).any(axis=1))
    dim = 6 * b.n
    cov = np.zeros((dim, dim))
    for wk, ell in zip(w[rows], _centered_logs(b, points, rows)):
        cov += wk * np.outer(ell, ell)
    cov = 0.5 * (cov + cov.T)
    return JointPoseBelief(tuple(range(b.n)), means, cov)


def ut_residual_mean(b: SscBelief, kappa: float = 0.0) -> np.ndarray:
    """Weighted mean of the sigma-point logs (diagnostic).

    The covariance formula does not subtract this residual; its norm bounds
    the resulting bias and shrinks with the input covariance.
    """
    points, w = sigma_points(b.mean, b.cov, kappa)
    rows = np.flatnonzero(w != 0.0)
    out = np.zeros(6 * b.n)
    for wk, ell in zip(w[rows], _centered_logs(b, points, rows)):
        out += wk * ell
    return out
