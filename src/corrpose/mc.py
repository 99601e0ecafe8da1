"""Monte-Carlo machinery and covariance metrics.

Provides correlated twist sampling from joint beliefs, the sample-covariance
estimator used as ground truth for the relative-pose operation, the
(normalized) Frobenius covariance-error metric, and chi-square ellipsoid
containment counting.  Everything is deterministic per seed.

The relative-pose oracle, :func:`relative_samples`, takes a list of pairs:
their draws go through one conjugated relative-twist kernel,
``Ad(T_bar_1^-1) log(exp(xi_1)^-1 exp(xi_2))``, with no pose matrix per
draw.  :func:`mc_relative_cov` is its one-pair call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy import linalg as sla
from scipy import special

from .belief import JointPoseBelief, PosePairBelief, UncertainPose, relative_mean_blocks
from .liegroup import Pose, exp_many, log_between_many, log_many_masked

# Fraction of singular-logarithm samples tolerated before the estimate is
# considered unusable.
_MAX_SINGULAR_FRACTION = 1e-3


class InvalidSpecError(ValueError):
    """A chain-noise specification implies a non-PSD joint covariance."""


class SamplingError(RuntimeError):
    """Sampling failed (unfactorizable covariance or too many singular draws)."""


def _sqrt_factor(cov: np.ndarray, *, err=SamplingError) -> np.ndarray:
    """Factor L with L @ L.T == cov for sampling.

    Cholesky when the matrix is positive definite; PSD-singular input
    (pinned channels, perfectly correlated blocks) falls back to an exact
    eigendecomposition square root rather than diagonal jitter, so singular
    directions stay *exactly* noise-free.  Indefinite input beyond float
    noise raises.
    """
    cov = np.asarray(cov, dtype=float)
    if not cov.any():
        return np.zeros_like(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(cov)
    if w.min() < -1e-10 * max(1.0, w.max()):
        raise err(f"covariance is indefinite (eigenvalue {w.min():.3e})")
    return V * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class SampleBatch:
    """Twist draws for a joint belief; realized poses are built on demand."""

    twists: np.ndarray  # (M, block_dim * n)
    block_dim: int
    means: tuple[Pose, ...] = field(default=())
    seed: object = None

    def __post_init__(self):
        t = np.asarray(self.twists, dtype=float)
        if t.ndim != 2 or t.shape[0] < 2:
            raise ValueError("a sample batch needs at least two (M, dim) draws")
        if t.shape[1] % self.block_dim:
            raise ValueError("twist width is not a multiple of the block dimension")
        object.__setattr__(self, "twists", t)

    @property
    def M(self) -> int:
        return self.twists.shape[0]

    @property
    def n_poses(self) -> int:
        return self.twists.shape[1] // self.block_dim

    def block(self, i: int) -> np.ndarray:
        m = self.block_dim
        return self.twists[:, i * m : (i + 1) * m]

    def pose_matrices(self, i: int) -> np.ndarray:
        """Realized homogeneous matrices exp(hat(xi_i)) @ T_bar_i, shape (M, d+1, d+1)."""
        if not self.means:
            raise ValueError("batch carries no mean poses")
        return exp_many(self.block(i)) @ self.means[i].matrix()


@dataclass(frozen=True)
class ChainNoiseSpec:
    """Homogeneous noisy chain: one step mean/covariance repeated N times,
    consecutive steps correlated with coefficient rho (lag-1 only)."""

    step_mean: Pose
    step_cov: np.ndarray
    n_steps: int
    rho: float = 0.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("chain needs at least one step")
        cov = np.asarray(self.step_cov, dtype=float)
        m = self.step_mean.twist_dim
        if cov.shape != (m, m):
            raise ValueError(f"step covariance must be {m}x{m}")
        object.__setattr__(self, "step_cov", cov)
        _chain_cov_checked(self)  # fail fast on a non-PSD implied joint


def _chain_cov_checked(spec: ChainNoiseSpec) -> np.ndarray:
    m = spec.step_mean.twist_dim
    n = spec.n_steps
    cov = np.zeros((m * n, m * n))
    off = spec.rho * spec.step_cov
    for k in range(n):
        cov[k * m : (k + 1) * m, k * m : (k + 1) * m] = spec.step_cov
        if k + 1 < n:
            cov[k * m : (k + 1) * m, (k + 1) * m : (k + 2) * m] = off
            cov[(k + 1) * m : (k + 2) * m, k * m : (k + 1) * m] = off.T
    if cov.any():
        try:
            # scipy reports the failing pivot (leading minor) in its message.
            sla.cholesky(cov + 1e-15 * np.trace(cov) * np.eye(m * n), lower=True)
        except np.linalg.LinAlgError as e:
            raise InvalidSpecError(
                f"implied joint covariance is not PSD (rho={spec.rho}, N={n}): {e}"
            ) from None
    return cov


def build_chain_joint(spec: ChainNoiseSpec) -> JointPoseBelief:
    """Joint belief of the N chained steps implied by a :class:`ChainNoiseSpec`.

    Diagonal blocks are the step covariance, lag-1 off-diagonal blocks are
    ``rho * step_cov``, everything beyond lag 1 is zero.  PSD of the joint is
    decided by factorization, not by an analytic bound on rho.
    """
    cov = _chain_cov_checked(spec)
    keys = tuple(range(spec.n_steps))
    means = (spec.step_mean,) * spec.n_steps
    return JointPoseBelief(keys, means, cov)


def sample_joint(b, M: int, seed) -> SampleBatch:
    """Draw M joint twist vectors ~ N(0, Sigma) for a belief.

    ``b`` may be a :class:`JointPoseBelief`, :class:`PosePairBelief` or
    :class:`UncertainPose`.  Identical seeds give bit-identical batches.
    """
    if isinstance(b, UncertainPose):
        means, cov = (b.mean,), b.cov
    elif isinstance(b, (JointPoseBelief, PosePairBelief)):
        means, cov = tuple(b.means), b.cov
    else:
        raise TypeError(f"cannot sample from {type(b).__name__}")
    if M < 2:
        raise ValueError("M must be at least 2")
    L = _sqrt_factor(cov)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(M), cov.shape[0]))
    return SampleBatch(z @ L.T, means[0].twist_dim, means, seed)


class RelativeSamples(NamedTuple):
    """Monte-Carlo relative poses of k pair beliefs (see :func:`relative_samples`).

    Row r belongs to pair r.  The sampled relative poses are not formed:
    sample m of pair r is ``exp(hat(twists[r, m])) @ T_bar_12``.
    """

    R: np.ndarray  # (k, d, d) rotations of the predicted means T_bar_12 = T_bar_1^-1 T_bar_2
    t: np.ndarray  # (k, d) their translations
    twists: np.ndarray  # (k, M, m) log(T_m T_bar_12^-1), unspecified where not kept
    kept: np.ndarray  # (k, M) False where the logarithm hit its branch boundary


def relative_samples(pairs: Sequence[PosePairBelief], M: int, seeds) -> RelativeSamples:
    """Relative poses of M correlated draws per pair, the ground-truth oracle's samples.

    Pair r draws its M joint twists (xi_1, xi_2) as :func:`sample_joint`
    does, from its own ``_sqrt_factor`` and ``default_rng(seeds[r])``.  Its
    relative poses ``T_m = (exp(xi_1) T_bar_1)^-1 exp(xi_2) T_bar_2`` are
    mapped about the predicted mean through the identity

        log(T_m T_bar_12^-1) = Ad(T_bar_1^-1) log(exp(xi_1)^-1 exp(xi_2)),

    so one :func:`log_between_many` call serves every draw of every pair,
    without the realized poses T_1, T_2 and T_m.  Row r depends on pair r alone, so a one-pair
    call gives the same bits as a block.  A pair that cannot be sampled, or
    that loses more than 0.1% of its draws to the logarithm's branch
    boundary, raises :class:`SamplingError` for the whole call.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    M = int(M)
    m = pairs[0].block_dim
    draws = np.empty((len(pairs) * M, 2 * m))
    for r, (p, seed) in enumerate(zip(pairs, seeds, strict=True)):
        z = np.random.default_rng(seed).standard_normal((M, 2 * m))
        np.matmul(z, _sqrt_factor(p.cov).T, out=draws[r * M : (r + 1) * M])
    xis, ok = log_between_many(draws[:, :m], draws[:, m:])
    ok = ok.reshape(len(pairs), M)
    for row in ok:
        _check_branch_budget(row)
    Ad, R, t = relative_mean_blocks(pairs)
    twists = xis.reshape(len(pairs), M, m) @ np.swapaxes(Ad, 1, 2)
    return RelativeSamples(R, t, twists, ok)


def _check_branch_budget(ok: np.ndarray) -> None:
    """Raise :class:`SamplingError` if more than 0.1% of the samples were not kept."""
    excluded = int(ok.shape[0] - ok.sum())
    if excluded > _MAX_SINGULAR_FRACTION * ok.shape[0]:
        raise SamplingError(
            f"{excluded} of {ok.shape[0]} samples hit the logarithm branch boundary"
        )


def twists_about(mats: np.ndarray, mean: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Twists ``log(T_m mean^-1)`` of M sampled poses and the mask of those kept.

    Samples at the logarithm branch boundary are masked out (their twists
    are unspecified); more than 0.1% of them raises :class:`SamplingError`.
    """
    xis, ok = log_many_masked(mats @ mean.inverse().matrix())
    _check_branch_budget(ok)
    return xis, ok


def mc_relative_cov(b: PosePairBelief, M: int, seed) -> np.ndarray:
    """Sample covariance of the relative-pose twist, the ground-truth oracle.

    Averages ``xi_m xi_m^T`` over the kept samples of a one-pair
    :func:`relative_samples` call.
    """
    s = relative_samples([b], M, [seed])
    kept = s.twists[0][s.kept[0]]
    return (kept.T @ kept) / kept.shape[0]


def cov_error(sigma, sigma_mc) -> float:
    """Frobenius norm of the difference between two covariance matrices."""
    sigma = np.asarray(sigma, dtype=float)
    sigma_mc = np.asarray(sigma_mc, dtype=float)
    if sigma.shape != sigma_mc.shape or sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"shape mismatch: {sigma.shape} vs {sigma_mc.shape}")
    return float(np.linalg.norm(sigma - sigma_mc, "fro"))


def normalized_cov_error(sigma, sigma_mc) -> float:
    """Covariance error after scaling both matrices by ||Sigma_mc||_F."""
    sigma_mc = np.asarray(sigma_mc, dtype=float)
    nrm = float(np.linalg.norm(sigma_mc, "fro"))
    if nrm == 0.0:
        raise ValueError("Monte-Carlo covariance is zero; normalization undefined")
    return cov_error(np.asarray(sigma, dtype=float) / nrm, sigma_mc / nrm)


def chi2_quantile(dof: int, p: float) -> float:
    """Quantile of the chi-square distribution by bisection on the
    regularized incomplete gamma function."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if dof < 1:
        raise ValueError("dof must be positive")
    lo, hi = 0.0, float(dof)
    while special.gammainc(dof / 2.0, hi / 2.0) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if special.gammainc(dof / 2.0, mid / 2.0) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def containment_fraction(batch, sigma, p: float, dof_mode: str = "full") -> float:
    """Fraction of twist samples inside the chi-square(p) ellipsoid of ``sigma``.

    ``dof_mode='full'`` uses all twist channels, ``'position_only'`` only the
    translational ones (leading d entries).  ``batch`` may be a
    :class:`SampleBatch` or a plain (M, m) array of twists.
    """
    twists = batch.twists if isinstance(batch, SampleBatch) else np.asarray(batch, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    if twists.ndim != 2 or twists.shape[1] != m:
        raise ValueError(f"samples of width {twists.shape} do not match a {m}x{m} covariance")
    if dof_mode == "full":
        sel = slice(None)
        dof = m
    elif dof_mode == "position_only":
        dof = 2 if m == 3 else 3
        sel = slice(0, dof)
    else:
        raise ValueError(f"unknown dof_mode {dof_mode!r}")
    S = sigma[sel, sel]
    x = twists[:, sel]
    try:
        Si = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        raise ValueError("covariance is singular on the selected channels") from None
    d2 = np.einsum("mi,ij,mj->m", x, Si, x)
    return float(np.mean(d2 <= chi2_quantile(dof, p)))
