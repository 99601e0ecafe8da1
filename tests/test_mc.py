"""Tests for sampling, the Monte-Carlo covariance oracle and the metrics."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

import corrpose as cp
from oracles import random_pose, random_psd


STEP = cp.Pose(np.eye(3), [1.0, 0.0, 0.0])
STEP_SIG = np.diag([0.003, 3e-5, 1e-5, 1e-5, 1e-5, 0.009])


# ---------------------------------------------------------------------------
# chain joint construction
# ---------------------------------------------------------------------------

def test_chain_joint_uncorrelated_is_block_diagonal():
    joint = cp.build_chain_joint(cp.ChainNoiseSpec(STEP, STEP_SIG, 4, rho=0.0))
    for a in range(4):
        for b in range(4):
            blk = joint.block(a, b)
            if a == b:
                npt.assert_array_equal(blk, STEP_SIG)
            else:
                assert not blk.any()


def test_chain_joint_lag_structure():
    joint = cp.build_chain_joint(cp.ChainNoiseSpec(STEP, STEP_SIG, 5, rho=0.4))
    npt.assert_array_equal(joint.block(1, 2), 0.4 * STEP_SIG)
    assert not joint.block(0, 2).any()  # zero beyond lag 1


def test_chain_joint_psd_boundary_by_factorization():
    # For equal marginals with lag-1 blocks rho*Sigma the joint is a Kronecker
    # product with the tridiagonal Toeplitz(1, rho); rho >= 1/2 loses PSD as N
    # grows.  The factorization places the rho = 0.6 boundary at N = 5.
    cp.build_chain_joint(cp.ChainNoiseSpec(STEP, STEP_SIG, 10, rho=0.4))
    cp.build_chain_joint(cp.ChainNoiseSpec(STEP, STEP_SIG, 3, rho=0.6))
    with pytest.raises(cp.InvalidSpecError, match="leading minor"):
        cp.ChainNoiseSpec(STEP, STEP_SIG, 5, rho=0.6)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_zero_covariance_gives_zero_draws():
    u = cp.UncertainPose(STEP, np.zeros((6, 6)))
    batch = cp.sample_joint(u, 100, 0)
    assert not batch.twists.any()


def test_sample_covariance_law_of_large_numbers():
    sig = np.diag([0.4, 0.3, 0.2, 0.05, 0.04, 0.03])
    u = cp.UncertainPose(cp.Pose.identity(3), sig)
    batch = cp.sample_joint(u, 1_000_000, 31415)
    est = batch.twists.T @ batch.twists / batch.M
    npt.assert_allclose(np.diag(est), np.diag(sig), rtol=0.01)


def test_sample_determinism_bitwise():
    pair = cp.PosePairBelief(
        (STEP, STEP), random_psd(np.random.default_rng(0), 12, 0.01)
    )
    a = cp.sample_joint(pair, 1000, 12345)
    b = cp.sample_joint(pair, 1000, 12345)
    assert np.array_equal(a.twists, b.twists)
    c = cp.sample_joint(pair, 1000, 12346)
    assert not np.array_equal(a.twists, c.twists)


def test_sample_rank_deficient_covariance_ok():
    # pinned channels (zero rows/columns) must factor via the jitter policy
    sig = np.diag([0.01, 0.01, 0.0, 0.0, 0.0, 0.02])
    u = cp.UncertainPose(cp.Pose.identity(3), sig)
    batch = cp.sample_joint(u, 5000, 7)
    assert np.abs(batch.twists[:, 2:5]).max() < 1e-4


def test_estimator_consistency_rate():
    # Frobenius error of the sample covariance must shrink like 1/sqrt(M)
    sig = random_psd(np.random.default_rng(1), 6, 0.01)
    u = cp.UncertainPose(cp.Pose.identity(3), sig)
    errs = {}
    for M in (2_000, 200_000):
        batch = cp.sample_joint(u, M, 42)
        est = batch.twists.T @ batch.twists / M
        errs[M] = np.linalg.norm(est - sig)
    # expected ratio 10; leave slack for noise
    assert errs[2_000] / errs[200_000] > 3.0


# ---------------------------------------------------------------------------
# mc_relative_cov
# ---------------------------------------------------------------------------

def test_mc_relative_cov_zero_noise():
    pair = cp.PosePairBelief.from_blocks(
        STEP, cp.Pose(np.eye(3), [2.0, 1.0, 0.0]), np.zeros((6, 6)), np.zeros((6, 6))
    )
    npt.assert_array_equal(cp.mc_relative_cov(pair, 100, 0), np.zeros((6, 6)))


def test_mc_relative_cov_perfect_correlation_cancels():
    rng = np.random.default_rng(2)
    T = random_pose(rng, 3)
    sig = random_psd(rng, 6, 0.01)
    pair = cp.PosePairBelief.from_blocks(T, T, sig, sig, sig)
    mc = cp.mc_relative_cov(pair, 1000, 3)
    assert np.trace(mc) < 1e-12


def test_mc_relative_cov_planar_perfect_correlation_is_exactly_zero():
    # both poses take the same draw (the factor's halves are equal), so every
    # relative twist log(exp(xi)^-1 exp(xi)) is exactly zero
    from corrpose.mc import _sqrt_factor, relative_samples

    sig = np.diag([0.25, 0.0625, 0.015625])
    pair = cp.PosePairBelief.from_blocks(
        cp.Pose.planar(1, 2, 0.3), cp.Pose.planar(4, -1, 2.5), sig, sig, sig
    )
    L = _sqrt_factor(pair.cov)
    assert np.array_equal(L[:3], L[3:])
    assert not relative_samples([pair], 1000, [3]).twists.any()
    npt.assert_array_equal(cp.mc_relative_cov(pair, 1000, 3), np.zeros((3, 3)))


def test_mc_relative_cov_planar_zero_noise():
    pair = cp.PosePairBelief.from_blocks(
        cp.Pose.planar(1, 2, 0.3), cp.Pose.planar(4, -1, 2.5), np.zeros((3, 3)),
        np.zeros((3, 3)),
    )
    npt.assert_array_equal(cp.mc_relative_cov(pair, 100, 0), np.zeros((3, 3)))


def _oracle_pairs(dim, n=5, seed=11):
    rng = np.random.default_rng(seed)
    m = 3 if dim == 2 else 6
    return [
        cp.PosePairBelief((random_pose(rng, dim), random_pose(rng, dim)),
                          random_psd(rng, 2 * m, 0.02))
        for _ in range(n)
    ]


@pytest.mark.parametrize("dim", [2, 3])
def test_relative_samples_one_pair_calls_equal_block(dim):
    from corrpose.mc import relative_samples

    pairs = _oracle_pairs(dim)
    seeds = [[7, k] for k in range(len(pairs))]
    block = relative_samples(pairs, 500, seeds)
    for r, (pair, seed) in enumerate(zip(pairs, seeds)):
        one = relative_samples([pair], 500, [seed])
        for got, want in zip(one, block):
            assert np.array_equal(got[0], want[r])


# Largest twist difference from the matrix oracle, relative to 1 + |xi|,
# measured on the pairs of seeds 11-13: 7.5e-15 (SE(2)) and 1.1e-12 (SE(3),
# mostly the matrix route's own rounding, see the 40-digit test below).
@pytest.mark.parametrize("dim,bound", [(2, 1e-13), (3, 1e-11)])
def test_relative_samples_match_matrix_oracle(dim, bound):
    from oracles import matrix_relative_samples

    from corrpose.mc import relative_samples

    pairs = _oracle_pairs(dim)
    s = relative_samples(pairs, 2000, [[5, k] for k in range(len(pairs))])
    for r, pair in enumerate(pairs):
        old = matrix_relative_samples(pair, 2000, [5, r])
        # the relative means are Pose products, bit for bit
        assert np.array_equal(s.R[r], old.mean.R) and np.array_equal(s.t[r], old.mean.t)
        assert np.array_equal(s.kept[r], old.kept) and old.kept.all()
        err = np.abs(s.twists[r] - old.twists) / (1.0 + np.abs(old.twists))
        assert err.max() < bound


@pytest.mark.parametrize("planar", [True, False])
def test_relative_samples_at_least_as_accurate_as_matrix_oracle(planar):
    # against the matrix definition at 40 digits, 40 draws: the conjugated
    # route skips three 3x3 (4x4) products and, in SE(2), every matrix
    from oracles import matrix_relative_samples, mp_relative_twists

    from corrpose.experiments import relpose_pair
    from corrpose.mc import relative_samples

    if planar:
        sig, cross = np.diag([0.005, 0.005, 0.006]), np.diag([0.0005, 0.0005, 0.005])
        pair = cp.PosePairBelief.from_blocks(
            cp.Pose.planar(3, 3, np.pi / 4), cp.Pose.planar(4.5, 4.5, np.pi / 4),
            sig, sig, cross,
        )
    else:
        pair = relpose_pair(1.0)
    ref = mp_relative_twists(pair, cp.sample_joint(pair, 40, 0).twists)
    scale = np.abs(ref).max(axis=1)
    new = np.abs(relative_samples([pair], 40, [0]).twists[0] - ref).max(axis=1) / scale
    old = np.abs(matrix_relative_samples(pair, 40, 0).twists - ref).max(axis=1) / scale
    assert np.median(new) < np.median(old)
    assert new.max() <= old.max()


def test_sqrt_factor_rejects_indefinite():
    with pytest.raises(cp.SamplingError):
        from corrpose.mc import _sqrt_factor

        _sqrt_factor(np.diag([1.0, -0.5]))


def test_mc_relative_cov_singular_budget(monkeypatch):
    # deviations from the predicted mean cannot reach the branch cut with
    # Gaussian noise, so the exclusion budget is exercised through the seam,
    # the relative-twist kernel's mask: flag 1% of rows singular and the
    # estimator must refuse
    import corrpose.mc as mcmod

    real = mcmod.log_between_many

    def flaky(xi1, xi2):
        xis, ok = real(xi1, xi2)
        ok = ok.copy()
        ok[:: 100] = False
        return xis, ok

    monkeypatch.setattr(mcmod, "log_between_many", flaky)
    pair = cp.PosePairBelief.from_blocks(
        cp.Pose.planar(0, 0, 0),
        cp.Pose.planar(1, 0, 0.5),
        np.diag([1e-4, 1e-4, 1e-4]),
        np.diag([1e-4, 1e-4, 1e-4]),
    )
    with pytest.raises(cp.SamplingError, match="branch boundary"):
        cp.mc_relative_cov(pair, 1000, 0)


def test_mc_relative_cov_planar_pair_properties():
    sig = np.diag([0.005, 0.005, 0.006])
    cross = np.diag([0.0005, 0.0005, 0.005])
    pair = cp.PosePairBelief.from_blocks(
        cp.Pose.planar(3, 3, np.pi / 4), cp.Pose.planar(4.5, 4.5, np.pi / 4),
        sig, sig, cross,
    )
    mc = cp.mc_relative_cov(pair, 10_000, 4)
    npt.assert_array_equal(mc, mc.T)
    assert np.trace(mc) > 0
    # determinism through the seed
    npt.assert_array_equal(mc, cp.mc_relative_cov(pair, 10_000, 4))


# ---------------------------------------------------------------------------
# covariance error metrics
# ---------------------------------------------------------------------------

def test_cov_error_basics():
    sig = random_psd(np.random.default_rng(3), 6)
    assert cp.cov_error(sig, sig) == 0.0
    npt.assert_allclose(cp.cov_error(sig + np.eye(6), sig), np.sqrt(6.0))
    with pytest.raises(ValueError):
        cp.cov_error(np.eye(3), np.eye(6))


def test_cov_error_is_a_metric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b, c = (random_psd(rng, 6) for _ in range(3))
        assert cp.cov_error(a, b) >= 0
        assert cp.cov_error(a, b) == cp.cov_error(b, a)
        assert cp.cov_error(a, c) <= cp.cov_error(a, b) + cp.cov_error(b, c) + 1e-12


def test_normalized_cov_error():
    sig = random_psd(np.random.default_rng(5), 6)
    assert cp.normalized_cov_error(sig, sig) == 0.0
    npt.assert_allclose(cp.normalized_cov_error(2 * sig, sig), 1.0)
    with pytest.raises(ValueError):
        cp.normalized_cov_error(sig, np.zeros((6, 6)))


# ---------------------------------------------------------------------------
# chi-square containment
# ---------------------------------------------------------------------------

def test_chi2_quantiles_match_oracle():
    # frozen values cross-checked against the scipy ppf oracle
    npt.assert_allclose(cp.chi2_quantile(6, 0.999), 22.4577, atol=2e-4)
    npt.assert_allclose(cp.chi2_quantile(3, 0.95), 7.8147, atol=2e-4)
    for dof, p in ((1, 0.5), (2, 0.9), (3, 0.95), (6, 0.999), (12, 0.01)):
        npt.assert_allclose(
            cp.chi2_quantile(dof, p), stats.chi2.ppf(p, dof), rtol=1e-9
        )


def test_containment_calibration():
    # samples of N(0, Sigma) against Sigma itself must contain ~p
    sig = random_psd(np.random.default_rng(6), 6, 0.01)
    u = cp.UncertainPose(cp.Pose.identity(3), sig)
    batch = cp.sample_joint(u, 100_000, 8)
    frac = cp.containment_fraction(batch, sig, 0.999)
    assert abs(frac - 0.999) <= 0.002
    frac3 = cp.containment_fraction(batch, sig, 0.95, dof_mode="position_only")
    assert abs(frac3 - 0.95) <= 0.01


def test_containment_shrinks_for_underestimated_covariance():
    sig = np.eye(6) * 0.01
    u = cp.UncertainPose(cp.Pose.identity(3), sig)
    batch = cp.sample_joint(u, 20_000, 9)
    assert cp.containment_fraction(batch, 0.25 * sig, 0.999) < 0.95


def test_containment_rejects_singular_selection():
    batch = np.zeros((10, 6))
    batch[:, 0] = 1.0
    with pytest.raises(ValueError):
        cp.containment_fraction(batch, np.zeros((6, 6)), 0.999)


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(10)
    twists = rng.normal(0, 0.1, (500, 6))
    sig = np.eye(6) * 0.01
    f1 = cp.containment_fraction(twists, sig, 0.999)
    f2 = cp.containment_fraction(twists[::-1], sig, 0.999)
    assert f1 == f2
