"""Uncertain poses with twist-space Gaussian perturbations, single and joint.

A single uncertain pose is a mean group element ``T_bar`` plus the covariance
of a zero-mean Gaussian twist ``xi`` with ``T = exp(hat(xi)) @ T_bar``.  A set
of correlated poses keeps one stacked covariance over the concatenated twists.
The three SSC-style operations (compose, inverse, between) propagate both the
marginal blocks and the cross-covariance block, so correlation between the
inputs is carried into the result instead of being silently dropped.

:func:`between_covs` gives the ``between`` covariances of many pairs in one
stacked evaluation, and :func:`between` is a one-pair call of the same code,
so both agree bit for bit.  The stack is as large as the caller makes it;
``slam-relpose`` passes all its pairs at once.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .liegroup import Pose, adjoint, adjoint_blocks, compose_blocks, invert_blocks

# Construction-time tolerances for user-supplied covariances.
_SYM_TOL = 1e-10
_PSD_TOL = -1e-10
# Propagated results may be slightly more indefinite before we call it an error.
_DEGENERACY_TOL = -1e-8


class NumericalDegeneracyError(ArithmeticError):
    """A propagated covariance came out indefinite beyond float-noise level."""


def _validated_cov(cov, dim: int, *, what: str) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {cov.shape}")
    return checked_covs(cov[None], what=what)[0]


def checked_covs(cov: np.ndarray, *, what: str) -> np.ndarray:
    """Covariance checks on a (k, n, n) stack, each matrix on its own scale.

    Entries must be finite, each matrix symmetric within ``_SYM_TOL`` and
    positive semi-definite within ``_PSD_TOL`` times ``max(1, max |entry|)``;
    violations raise ``ValueError`` naming ``what``.  Returns the
    symmetrized, read-only stack.
    """
    if not np.isfinite(cov).all():
        raise ValueError(f"{what} entries must be finite")
    scale = np.maximum(1.0, np.abs(cov).max(axis=(1, 2)))
    cov_t = np.swapaxes(cov, 1, 2)
    if (np.abs(cov - cov_t).max(axis=(1, 2)) > _SYM_TOL * scale).any():
        raise ValueError(f"{what} is not symmetric within tolerance")
    cov = 0.5 * (cov + cov_t)
    if (np.linalg.eigvalsh(cov).min(axis=1) < _PSD_TOL * scale).any():
        raise ValueError(f"{what} is not positive semi-definite within tolerance")
    cov.flags.writeable = False
    return cov


def finalize_propagated_cov(cov: np.ndarray) -> np.ndarray:
    """Symmetrize a propagated covariance and repair benign float negativity.

    Eigenvalues below ``_DEGENERACY_TOL`` raise
    :class:`NumericalDegeneracyError`; anything in the float-noise band is
    clipped to zero so downstream invariants hold.
    """
    return _finalized_covs(cov[None])[0]


def _finalized_covs(cov: np.ndarray) -> np.ndarray:
    """:func:`finalize_propagated_cov` of each matrix of a (k, n, n) stack."""
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    w, V = np.linalg.eigh(cov)
    w_min = w.min(axis=1)
    bad = np.flatnonzero(w_min < _DEGENERACY_TOL)
    if bad.size:
        raise NumericalDegeneracyError(
            f"propagated covariance has eigenvalue {w_min[bad[0]]:.3e} beyond tolerance"
        )
    clip = np.flatnonzero(w_min < 0.0)
    if clip.size:
        Vc = V[clip]
        repaired = (Vc * np.clip(w[clip], 0.0, None)[:, None, :]) @ np.swapaxes(Vc, 1, 2)
        cov[clip] = 0.5 * (repaired + np.swapaxes(repaired, 1, 2))
    return cov


class UncertainPose:
    """Mean pose plus twist-space covariance (symmetrized, PSD-checked)."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean: Pose, cov):
        if not isinstance(mean, Pose):
            raise TypeError("mean must be a Pose")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _validated_cov(cov, mean.twist_dim, what="covariance"))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("UncertainPose is immutable")

    @property
    def twist_dim(self) -> int:
        return self.mean.twist_dim

    def __repr__(self) -> str:
        return f"UncertainPose(mean={self.mean!r}, trace={np.trace(self.cov):.3e})"


class JointPoseBelief:
    """Ordered poses with one stacked covariance over their concatenated twists."""

    __slots__ = ("keys", "means", "cov")

    def __init__(self, keys: Sequence[Hashable], means: Sequence[Pose], cov):
        keys = tuple(keys)
        means = tuple(means)
        if len(keys) != len(means) or not means:
            raise ValueError("keys and means must be equal-length and non-empty")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys in joint belief")
        dims = {m.twist_dim for m in means}
        if len(dims) != 1:
            raise ValueError("all poses in a joint belief must share a group")
        m = dims.pop()
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "means", means)
        object.__setattr__(
            self, "cov", _validated_cov(cov, m * len(means), what="joint covariance")
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("JointPoseBelief is immutable")

    @classmethod
    def _of_checked(cls, keys: tuple, means: tuple[Pose, ...], cov: np.ndarray
                    ) -> "JointPoseBelief":
        """The belief of distinct keys, means of one group and a read-only
        symmetric covariance known to pass :func:`checked_covs`, not checked again."""
        joint = object.__new__(cls)
        object.__setattr__(joint, "keys", keys)
        object.__setattr__(joint, "means", means)
        object.__setattr__(joint, "cov", cov)
        return joint

    @property
    def n(self) -> int:
        return len(self.means)

    @property
    def block_dim(self) -> int:
        return self.means[0].twist_dim

    def index(self, key: Hashable) -> int:
        try:
            return self.keys.index(key)
        except ValueError:
            raise KeyError(f"unknown pose key {key!r}") from None

    def block(self, a: int, b: int) -> np.ndarray:
        """Covariance block between poses at positions a and b."""
        m = self.block_dim
        return self.cov[a * m : (a + 1) * m, b * m : (b + 1) * m]

    def marginal(self, key: Hashable) -> UncertainPose:
        i = self.index(key)
        return UncertainPose(self.means[i], self.block(i, i))


class PosePairBelief:
    """Two poses with a full 2m x 2m joint covariance (named blocks)."""

    __slots__ = ("means", "cov")

    def __init__(self, means: Sequence[Pose], cov):
        means = tuple(means)
        if len(means) != 2:
            raise ValueError("pair belief needs exactly two poses")
        if means[0].twist_dim != means[1].twist_dim:
            raise ValueError("pair poses must share a group")
        object.__setattr__(self, "means", means)
        object.__setattr__(
            self, "cov", _validated_cov(cov, 2 * means[0].twist_dim, what="pair covariance")
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("PosePairBelief is immutable")

    @classmethod
    def _of_checked(cls, means: tuple[Pose, Pose], cov: np.ndarray) -> "PosePairBelief":
        """The belief of two planar or spatial means and a covariance that
        :func:`checked_covs` has already returned, without checking it again."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "means", means)
        object.__setattr__(pair, "cov", cov)
        return pair

    @classmethod
    def from_blocks(cls, mean1: Pose, mean2: Pose, sigma1, sigma2, cross=None) -> "PosePairBelief":
        m = mean1.twist_dim
        cov = np.zeros((2 * m, 2 * m))
        cov[:m, :m] = sigma1
        cov[m:, m:] = sigma2
        if cross is not None:
            cov[:m, m:] = cross
            cov[m:, :m] = np.asarray(cross, dtype=float).T
        return cls((mean1, mean2), cov)

    @property
    def block_dim(self) -> int:
        return self.means[0].twist_dim

    @property
    def sigma1(self) -> np.ndarray:
        m = self.block_dim
        return self.cov[:m, :m]

    @property
    def sigma2(self) -> np.ndarray:
        m = self.block_dim
        return self.cov[m:, m:]

    @property
    def cross(self) -> np.ndarray:
        """Cross-covariance E[xi_1 xi_2^T]."""
        m = self.block_dim
        return self.cov[:m, m:]

    def marginal(self, which: int) -> UncertainPose:
        m = self.block_dim
        s = slice(which * m, (which + 1) * m)
        return UncertainPose(self.means[which], self.cov[s, s])


def marginal_pair(b: JointPoseBelief, i: Hashable, j: Hashable) -> PosePairBelief:
    """Extract the pair (means + 2m x 2m sub-covariance) for keys i and j."""
    if i == j:
        raise ValueError("a pose pair needs two distinct keys")
    a, c = b.index(i), b.index(j)
    m = b.block_dim
    cov = np.zeros((2 * m, 2 * m))
    cov[:m, :m] = b.block(a, a)
    cov[:m, m:] = b.block(a, c)
    cov[m:, :m] = b.block(c, a)
    cov[m:, m:] = b.block(c, c)
    return PosePairBelief((b.means[a], b.means[c]), cov)


def compose(p: PosePairBelief) -> UncertainPose:
    """Head-to-tail composition of a correlated pair (T_ij, T_jk).

    Mean is the group product; covariance is the first-order pushforward
    ``S_ij + Ad S_jk Ad^T + C Ad^T + Ad C^T`` with ``Ad`` the adjoint of the
    first mean and ``C`` the cross block.  With a zero cross block this is
    exactly the independent first-order form.
    """
    T_ij, T_jk = p.means
    Ad = adjoint(T_ij)
    cov = p.sigma1 + Ad @ p.sigma2 @ Ad.T + p.cross @ Ad.T + Ad @ p.cross.T
    return UncertainPose(T_ij @ T_jk, finalize_propagated_cov(cov))


def compose_chain(b: JointPoseBelief) -> UncertainPose:
    """Compose N chained poses at once, keeping all cross-correlations.

    The covariance is ``J Sigma J^T`` where block k of ``J`` is the adjoint of
    the partial product ``T_1 ... T_{k-1}`` (identity for k = 1).  For N = 2
    this routes through :func:`compose`.
    """
    n = b.n
    if n == 1:
        return UncertainPose(b.means[0], b.cov)
    if n == 2:
        return compose(marginal_pair(b, b.keys[0], b.keys[1]))
    m = b.block_dim
    J = np.zeros((m, m * n))
    prefix = Pose.identity(b.means[0].dim)
    for k, T in enumerate(b.means):
        J[:, k * m : (k + 1) * m] = adjoint(prefix)
        prefix = prefix @ T
    cov = J @ b.cov @ J.T
    return UncertainPose(prefix, finalize_propagated_cov(cov))


def inverse(u: UncertainPose) -> UncertainPose:
    """Uncertain pose of the inverted frame: mean inverts, covariance is
    congruent by the adjoint of the inverted mean."""
    T_inv = u.mean.inverse()
    Ad = adjoint(T_inv)
    return UncertainPose(T_inv, finalize_propagated_cov(Ad @ u.cov @ Ad.T))


def _inverse_first_means(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Checked (R, t) stacks of ``T_ij^-1`` of k pairs."""
    return invert_blocks(np.stack([p.means[0].R for p in pairs]),
                         np.stack([p.means[0].t for p in pairs]))


def relative_mean_blocks(pairs: Sequence[PosePairBelief]):
    """Adjoints ``Ad(T_ij^-1)`` (k, m, m) and checked (R, t) stacks of the
    relative means ``T_ij^-1 T_ik`` of k pairs sharing a group."""
    R_inv, t_inv = _inverse_first_means(pairs)
    R, t = compose_blocks(
        R_inv, t_inv,
        np.stack([p.means[1].R for p in pairs]), np.stack([p.means[1].t for p in pairs]),
    )
    return adjoint_blocks(R_inv, t_inv), R, t


def _between_covs(pairs, *, use_cross: bool) -> np.ndarray:
    """Unfinalized (k, m, m) between covariances of k pairs."""
    Ad = adjoint_blocks(*_inverse_first_means(pairs))
    cov = np.stack([p.cov for p in pairs])
    m = pairs[0].block_dim
    inner = cov[:, :m, :m] + cov[:, m:, m:]
    if use_cross:
        # Both cross terms carry a minus sign: the first perturbation enters
        # the relative pose as -Ad xi_ij, the second as +Ad xi_ik.
        cross = cov[:, :m, m:]
        inner = inner - cross - np.swapaxes(cross, 1, 2)
    return Ad @ inner @ np.swapaxes(Ad, 1, 2)


def _between_blocks(pairs, *, use_cross: bool):
    """Mean blocks (R, t) of ``T_ij^-1 T_ik`` and unfinalized covariances of k pairs."""
    _, R, t = relative_mean_blocks(pairs)
    return R, t, _between_covs(pairs, use_cross=use_cross)


def between_covs(pairs: Sequence[PosePairBelief], *, use_cross: bool = True) -> np.ndarray:
    """(k, m, m) stack of ``between(p).cov`` for k pairs sharing a group.

    With ``use_cross=False`` it is ``between_ignoring_correlation(p).cov``.
    One stacked evaluation, identical bit for bit to the one-pair calls and
    with their checks and exception types; if any pair fails, the whole
    call raises.  The relative means are not formed.
    """
    return checked_covs(_finalized_covs(_between_covs(pairs, use_cross=use_cross)),
                        what="covariance")


def between(p: PosePairBelief) -> UncertainPose:
    """Relative pose of a correlated pair sharing a base frame: (T_ij, T_ik) -> T_jk.

    Mean is ``T_ij^-1 T_ik``; covariance is
    ``Ad (S_ij + S_ik - C - C^T) Ad^T`` with ``Ad`` the adjoint of
    ``T_ij^-1``.  Positive correlation therefore *shrinks* the relative-pose
    uncertainty, which is what ignoring the cross block gets wrong.
    """
    R, t, cov = _between_blocks([p], use_cross=True)
    return UncertainPose(Pose(R[0], t[0]), finalize_propagated_cov(cov[0]))


def between_ignoring_correlation(p: PosePairBelief) -> UncertainPose:
    """:func:`between` with the cross block forced to zero (baseline)."""
    R, t, cov = _between_blocks([p], use_cross=False)
    return UncertainPose(Pose(R[0], t[0]), finalize_propagated_cov(cov[0]))
