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

from dataclasses import dataclass

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


@dataclass(frozen=True)
class UtConfig:
    """Unscented-transform weighting.

    ``standard`` follows Julier's original weights and needs ``dim + kappa >
    0``.  The default ``kappa = 0`` keeps every weight nonnegative for any
    stacked dimension (the classical ``kappa = 3 - dim`` choice goes negative
    for dim >= 3 and can produce indefinite outputs).  ``scaled`` uses the
    scaled-transform weights driven by ``alpha``/``beta`` on top of kappa.
    """

    kappa: float = 0.0
    mode: str = "standard"
    alpha: float = 1.0
    beta: float = 2.0

    def __post_init__(self):
        if self.mode not in ("standard", "scaled"):
            raise ValueError(f"unknown UT mode {self.mode!r}")
        if self.mode == "scaled" and self.alpha <= 0:
            raise ValueError("scaled mode needs alpha > 0")

    def spread_and_weights(self, dim: int) -> tuple[float, np.ndarray, np.ndarray]:
        """(squared point spread, mean weights, covariance weights) for ``dim``."""
        if self.mode == "standard":
            denom = dim + self.kappa
            if denom <= 0:
                raise ValueError(f"dim + kappa must be positive, got {denom}")
            w = np.full(2 * dim + 1, 1.0 / (2.0 * denom))
            w[0] = self.kappa / denom
            return denom, w, w.copy()
        lam = self.alpha ** 2 * (dim + self.kappa) - dim
        denom = dim + lam
        if denom <= 0:
            raise ValueError("alpha/kappa leave a non-positive point spread")
        wm = np.full(2 * dim + 1, 1.0 / (2.0 * denom))
        wc = wm.copy()
        wm[0] = lam / denom
        wc[0] = lam / denom + (1.0 - self.alpha ** 2 + self.beta)
        return denom, wm, wc


def sigma_points(mean: np.ndarray, cov: np.ndarray, cfg: UtConfig):
    """Sigma point set and (mean, covariance) weights for a Gaussian, spread
    along the columns of the principal square root of ``cov``
    (:func:`~corrpose.mc._sqrt_factor`), so the points and the result are
    continuous in ``cov``, singular ``cov`` included (an indefinite one
    raises :class:`ConversionError`)."""
    dim = mean.shape[0]
    spread, wm, wc = cfg.spread_and_weights(dim)
    L = _sqrt_factor(cov, err=ConversionError)
    offsets = np.sqrt(spread) * L
    points = np.empty((2 * dim + 1, dim))
    points[0] = mean
    points[1 : dim + 1] = mean[None, :] + offsets.T
    points[dim + 1 :] = mean[None, :] - offsets.T
    return points, wm, wc


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


def ut_convert(b: SscBelief, cfg: UtConfig = UtConfig()) -> JointPoseBelief:
    """Twist-space joint belief of an Euler-coordinate belief.

    Means map pose-wise through the coordinate-to-group function; the stacked
    covariance is the weighted outer-product sum of the identity-centered
    logs of all 12n + 1 sigma points.  The covariance sum is taken about zero
    (the central point maps to zero exactly); use :func:`ut_residual_mean` to
    inspect the size of the neglected weighted mean.
    """
    points, _, wc = sigma_points(b.mean, b.cov, cfg)
    means = [ssc_to_pose(b.pose_mean(i)) for i in range(b.n)]
    # l of the central point (and of any copy of it) is zero by construction
    rows = np.flatnonzero((wc != 0.0) & (points != points[0]).any(axis=1))
    dim = 6 * b.n
    cov = np.zeros((dim, dim))
    for w, ell in zip(wc[rows], _centered_logs(b, points, rows)):
        cov += w * np.outer(ell, ell)
    cov = 0.5 * (cov + cov.T)
    return JointPoseBelief(tuple(range(b.n)), means, cov)


def ut_residual_mean(b: SscBelief, cfg: UtConfig = UtConfig()) -> np.ndarray:
    """Weighted mean of the sigma-point logs (diagnostic).

    The covariance formula does not subtract this residual; its norm bounds
    the resulting bias and shrinks with the input covariance.
    """
    points, wm, _ = sigma_points(b.mean, b.cov, cfg)
    rows = np.flatnonzero(wm != 0.0)
    out = np.zeros(6 * b.n)
    for w, ell in zip(wm[rows], _centered_logs(b, points, rows)):
        out += w * ell
    return out
