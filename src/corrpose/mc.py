"""Monte-Carlo machinery and covariance metrics.

Provides correlated twist sampling from joint beliefs, the sample-covariance
estimator used as ground truth for the relative-pose operation, the
(normalized) Frobenius covariance-error metric, and chi-square ellipsoid
containment counting.  Everything is deterministic per seed.

Containment, :func:`containment_fraction`, counts the samples x whose
squared Mahalanobis distance ``x^T Sigma^-1 x``, taken for the whole stack
as one product ``X @ Sigma^-1`` and the row sums of its elementwise product
with X, is at most the chi-square(p) quantile of the channels counted.

Every draw is one step, :func:`_draws`: seeded standard normals times the
principal square root of the covariance, :func:`_sqrt_factor`, which is also
the package's root for sigma points, ellipse loci and the solver's whitener.

The relative-pose oracle, :func:`relative_samples`, takes a list of pairs:
their draws go through one conjugated relative-twist kernel,
``Ad(T_bar_1^-1) log(exp(xi_1)^-1 exp(xi_2))``, with no pose matrix per
draw.  :func:`mc_relative_cov` is its one-pair call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

from .belief import _PSD_TOL, JointPoseBelief, PosePairBelief, UncertainPose, relative_mean_blocks
from .liegroup import Pose, exp_many, log_between_many, log_many_masked

# Fraction of singular-logarithm samples tolerated before the estimate is
# considered unusable.
_MAX_SINGULAR_FRACTION = 1e-3


class InvalidSpecError(ValueError):
    """The step covariance and rho given to :func:`chain_joint` imply a non-PSD joint."""


class SamplingError(RuntimeError):
    """Sampling failed (indefinite covariance or too many singular draws)."""


def _sqrt_factor(cov: np.ndarray, *, err=SamplingError) -> np.ndarray:
    """Principal square root ``V sqrt(max(w, 0)) V^T`` of each PSD matrix of
    an (..., n, n) stack, from one ``eigh`` (Higham, *Functions of
    Matrices*, ch. 6): the package's one PSD square root, for draws, sigma
    points, ellipse loci and the solver's edge whitener.

    The root S is symmetric and S @ S.T == cov, both up to rounding.  It is
    continuous in ``cov``, singular input included (pinned channels,
    perfectly correlated blocks), and one matrix of a stack gets the bits of
    its one-matrix call.  Input that :func:`~corrpose.belief.checked_covs`
    would call indefinite (an eigenvalue below ``_PSD_TOL`` times
    ``max(1, max |entry|)`` of its own matrix) raises ``err``.
    """
    cov = np.asarray(cov, dtype=float)
    w, V = np.linalg.eigh(cov)
    w_min = w.min(axis=-1)
    bad = w_min < _PSD_TOL * np.maximum(1.0, np.abs(cov).max(axis=(-2, -1)))
    if bad.any():
        raise err(f"covariance is indefinite (eigenvalue {w_min[bad].flat[0]:.3e})")
    return (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(V, -1, -2)


# Rows of normals per product in :func:`_draws` (an (M, n) temporary held
# 9.6 MB at M = 10,000, n = 120).  The last product takes the rest, since a
# product of a few rows goes to gemv or other kernels that round differently.
_DRAW_ROWS = 1024


def _draws(covs: np.ndarray, M: int, seeds) -> np.ndarray:
    """(k, M, n) draws ``z @ S_r^T`` of N(0, covs[r]) for a (k, n, n) stack,
    z from ``default_rng(seeds[r])`` in chunks of ``_DRAW_ROWS`` rows and S_r
    the :func:`_sqrt_factor` of the stack; row r depends on covs[r] and
    seeds[r] alone."""
    S = _sqrt_factor(covs)
    k, n = S.shape[:2]
    edges = [a * _DRAW_ROWS for a in range(max(1, M // _DRAW_ROWS))] + [M]
    draws = np.empty((k, M, n))
    for S_r, seed, out in zip(S, seeds, draws, strict=True):
        rng = np.random.default_rng(seed)
        for a, b in zip(edges, edges[1:]):
            np.matmul(rng.standard_normal((b - a, n)), S_r.T, out=out[a:b])
    return draws


@dataclass(frozen=True)
class SampleBatch:
    """Twist draws for a joint belief; realized poses are built on demand."""

    twists: np.ndarray  # (M, block_dim * n)
    block_dim: int
    means: tuple[Pose, ...]

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
        return exp_many(self.block(i)) @ self.means[i].matrix()


def chain_joint(step_mean: Pose, step_cov, n_steps: int, rho: float = 0.0) -> JointPoseBelief:
    """Joint belief of a homogeneous noisy chain: ``n_steps`` steps of mean
    ``step_mean`` and covariance ``step_cov``, consecutive steps correlated
    with coefficient ``rho`` (lag 1 only).

    Diagonal blocks are the step covariance, lag-1 off-diagonal blocks are
    ``rho * step_cov``, everything beyond lag 1 is zero.  PSD is decided by
    the belief checks (:func:`~corrpose.belief.checked_covs`), not by an
    analytic bound on rho; a joint that fails them raises
    :class:`InvalidSpecError`.
    """
    if n_steps < 1:
        raise ValueError("chain needs at least one step")
    step_cov = np.asarray(step_cov, dtype=float)
    m, k = step_mean.twist_dim, np.arange(n_steps)
    if step_cov.shape != (m, m):
        raise ValueError(f"step covariance must be {m}x{m}")
    cov = np.zeros((n_steps, m, n_steps, m))
    off = rho * step_cov
    cov[k, :, k] = step_cov
    cov[k[:-1], :, k[1:]] = off
    cov[k[1:], :, k[:-1]] = off.T
    try:
        return JointPoseBelief(
            range(n_steps), (step_mean,) * n_steps, cov.reshape(n_steps * m, n_steps * m)
        )
    except ValueError as e:
        raise InvalidSpecError(f"implied {e} (rho={rho}, N={n_steps})") from None


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
    return SampleBatch(_draws(cov[None], int(M), [seed])[0], means[0].twist_dim, means)


class RelativeSamples(NamedTuple):
    """Monte-Carlo relative poses of k pair beliefs (see :func:`relative_samples`).

    Row r belongs to pair r.  The sampled relative poses are not formed:
    sample m of pair r is ``exp(hat(twists[r, m])) @ T_bar_12``.
    """

    t: np.ndarray  # (k, d) translations of the predicted means T_bar_12 = T_bar_1^-1 T_bar_2
    twists: np.ndarray  # (k, M, m) log(T_m T_bar_12^-1), unspecified where not kept
    kept: np.ndarray  # (k, M) False where the logarithm hit its branch boundary
    # (k, 4, M) cos t, sin t, sin(t)/t and (1 - cos t)/t of each SE(2) twist's
    # angle t, from the kernel's V(t)^-1 (no rows for SE(3))
    coeffs: np.ndarray


def relative_samples(pairs: Sequence[PosePairBelief], M: int, seeds) -> RelativeSamples:
    """Relative poses of M correlated draws per pair, the ground-truth oracle's samples.

    Pair r draws its M joint twists (xi_1, xi_2) as :func:`sample_joint`
    does, from ``default_rng(seeds[r])`` and its principal root, which one
    :func:`_sqrt_factor` call takes for every pair of the block.  Its
    relative poses ``T_m = (exp(xi_1) T_bar_1)^-1 exp(xi_2) T_bar_2`` are
    mapped about the predicted mean through the identity

        log(T_m T_bar_12^-1) = Ad(T_bar_1^-1) log(exp(xi_1)^-1 exp(xi_2)),

    so one :func:`log_between_many` call serves every draw of every pair,
    without the realized poses T_1, T_2 and T_m.  The conjugation leaves an
    SE(2) twist's angle as it is, so the kernel's coefficients of that angle
    are handed on in ``coeffs``.  Row r depends on pair r alone, so a one-pair
    call gives the same bits as a block.  A pair that cannot be sampled, or
    that loses more than 0.1% of its draws to the logarithm's branch
    boundary, raises :class:`SamplingError` for the whole call.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    M = int(M)
    m = pairs[0].block_dim
    draws = _draws(np.array([p.cov for p in pairs]), M, seeds).reshape(-1, 2 * m)
    xis, ok, coeffs = log_between_many(draws[:, :m], draws[:, m:])
    ok = ok.reshape(len(pairs), M)
    for row in ok:
        _check_branch_budget(row)
    Ad, _, t = relative_mean_blocks(pairs)
    twists = xis.reshape(len(pairs), M, m) @ np.swapaxes(Ad, 1, 2)
    coeffs = coeffs.reshape(-1, len(pairs), M).swapaxes(0, 1)
    return RelativeSamples(t, twists, ok, coeffs)


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
    return _sample_covs(s.twists, s.kept)[0]


def _sample_covs(rows: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """(k, w, w) mean outer products ``x^T x / n`` of the n kept rows x of
    each of k C-ordered (M, w) sample stacks."""
    covs = np.empty(rows.shape[:1] + rows.shape[2:] * 2)
    for out, x, ok in zip(covs, rows, kept):
        x = x if ok.all() else x[ok]
        out[...] = x.T @ x / x.shape[0]
    return covs


def cov_error(sigma, sigma_mc):
    """Frobenius norm of the difference between two covariance matrices, or
    the (k,) norms of two (k, m, m) stacks, each the bits of its one-matrix
    call: the square root of the difference's own dot product, as
    ``np.linalg.norm(., 'fro')`` rounds it."""
    sigma = np.asarray(sigma, dtype=float)
    sigma_mc = np.asarray(sigma_mc, dtype=float)
    shape = sigma.shape
    if shape != sigma_mc.shape or len(shape) not in (2, 3) or shape[-1] != shape[-2]:
        raise ValueError(f"shape mismatch: {shape} vs {sigma_mc.shape}")
    d = (sigma - sigma_mc).reshape(-1, shape[-1] ** 2)
    err = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    return float(err[0]) if len(shape) == 2 else err


def normalized_cov_error(sigma, sigma_mc):
    """Covariance error after scaling both matrices by ||Sigma_mc||_F, its
    distance from zero; on stacks as :func:`cov_error`, where any zero
    Sigma_mc raises."""
    sigma_mc = np.asarray(sigma_mc, dtype=float)
    nrm = cov_error(sigma_mc, np.zeros_like(sigma_mc))
    if not np.all(nrm):
        raise ValueError("Monte-Carlo covariance is zero; normalization undefined")
    nrm = np.reshape(nrm, sigma_mc.shape[:-2] + (1, 1))
    return cov_error(np.asarray(sigma, dtype=float) / nrm, sigma_mc / nrm)


def chi2_quantile(dof: int, p: float) -> float:
    """Quantile of the chi-square distribution, from the inverse of the
    regularized incomplete gamma function."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if dof < 1:
        raise ValueError("dof must be positive")
    return 2.0 * float(special.gammaincinv(dof / 2.0, p))


def containment_fraction(twists, sigma, p: float, dof_mode: str = "full") -> float:
    """Fraction of the rows of an (M, m) twist array inside the chi-square(p)
    ellipsoid of ``sigma``.

    ``dof_mode='full'`` uses all twist channels, ``'position_only'`` only the
    translational ones (leading d entries).
    """
    twists = np.asarray(twists, dtype=float)
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
    d2 = np.einsum("mi,mi->m", x @ Si, x)
    return float(np.mean(d2 <= chi2_quantile(dof, p)))
