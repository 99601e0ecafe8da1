"""Tests for correlated uncertain-pose operations.

Ground truth throughout is the Monte-Carlo estimator: sample correlated
twists, realize the perturbed poses, apply the deterministic group operation
and average the outer products of the resulting twists about the predicted
mean.
"""

import numpy as np
import numpy.testing as npt
import pytest

import corrpose as cp
from corrpose.liegroup import log_many_masked
from oracles import random_pose, random_psd


def _mc_compose_cov(pair, M, seed):
    batch = cp.sample_joint(pair, M, seed)
    Tm = batch.pose_matrices(0) @ batch.pose_matrices(1)
    mean_inv = (pair.means[0] @ pair.means[1]).inverse().matrix()
    xis, ok = log_many_masked(Tm @ mean_inv)
    kept = xis[ok]
    return kept.T @ kept / kept.shape[0]


def _mc_inverse_cov(u, M, seed):
    batch = cp.sample_joint(u, M, seed)
    Tm = cp.inv_many(batch.pose_matrices(0))
    xis, ok = log_many_masked(Tm @ u.mean.matrix())
    kept = xis[ok]
    return kept.T @ kept / kept.shape[0]


def rel_frob(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def paper_pair(alpha=1.0):
    """The 45-degree relative-pose setup with correlated marginals."""
    T_g1 = cp.Pose.from_matrix(
        np.array(
            [
                [0.707107, -0.707107, 0, 3],
                [0.707107, 0.707107, 0, 3],
                [-0.0, 0, 1, 0],
                [0, 0, 0, 1.0],
            ]
        )
    )
    T_g2 = cp.Pose.from_matrix(
        np.array(
            [
                [0.707107, -0.707107, 0, 4.5],
                [0.707107, 0.707107, 0, 4.5],
                [-0.0, 0, 1, 0],
                [0, 0, 0, 1.0],
            ]
        )
    )
    sig = alpha * np.diag([0.005, 0.005, 1e-5, 1e-5, 1e-5, 0.006])
    cross = alpha * np.diag([0.0005, 0.0005, 0, 0, 0, 0.005])
    return cp.PosePairBelief.from_blocks(T_g1, T_g2, sig, sig, cross)


# ---------------------------------------------------------------------------
# types and marginal extraction
# ---------------------------------------------------------------------------

def test_uncertain_pose_symmetrizes_and_checks():
    T = cp.Pose.identity(3)
    cov = np.diag([1.0, 2, 3, 4, 5, 6.0])
    cov[0, 1] = 5e-11  # below tolerance: symmetrized away
    u = cp.UncertainPose(T, cov)
    npt.assert_array_equal(u.cov, u.cov.T)
    with pytest.raises(ValueError):
        cp.UncertainPose(T, -1e-3 * np.eye(6))  # indefinite
    bad = cov.copy()
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        cp.UncertainPose(T, bad)  # grossly asymmetric


def test_joint_belief_rejects_duplicates():
    T = cp.Pose.identity(2)
    with pytest.raises(ValueError):
        cp.JointPoseBelief(["a", "a"], [T, T], np.eye(6))


def test_marginal_pair_full_and_blocks():
    rng = np.random.default_rng(0)
    means = [random_pose(rng, 3) for _ in range(3)]
    cov = random_psd(rng, 18)
    b = cp.JointPoseBelief(["a", "b", "c"], means, cov)
    pair = cp.marginal_pair(b, "a", "c")
    npt.assert_array_equal(pair.sigma1, b.block(0, 0))
    npt.assert_array_equal(pair.sigma2, b.block(2, 2))
    npt.assert_array_equal(pair.cross, b.block(0, 2))

    two = cp.JointPoseBelief(["a", "b"], means[:2], cov[:12, :12])
    npt.assert_array_equal(cp.marginal_pair(two, "a", "b").cov, two.cov)

    with pytest.raises(ValueError):
        cp.marginal_pair(b, "a", "a")
    with pytest.raises(KeyError):
        cp.marginal_pair(b, "a", "zzz")


def test_marginal_pair_block_diagonal_has_zero_cross():
    rng = np.random.default_rng(1)
    means = [random_pose(rng, 2) for _ in range(2)]
    cov = np.kron(np.eye(2), random_psd(rng, 3))
    pair = cp.marginal_pair(cp.JointPoseBelief([0, 1], means, cov), 0, 1)
    assert not pair.cross.any()


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_zero_covariance_is_deterministic():
    rng = np.random.default_rng(2)
    A, B = random_pose(rng, 3), random_pose(rng, 3)
    pair = cp.PosePairBelief.from_blocks(A, B, np.zeros((6, 6)), np.zeros((6, 6)))
    out = cp.compose(pair)
    npt.assert_allclose(out.mean.matrix(), (A @ B).matrix(), atol=1e-12)
    assert not out.cov.any()
    assert not cp.inverse(pair.marginal(0)).cov.any()
    assert not cp.between(pair).cov.any()


def test_compose_identity_mean_adds_covariances():
    rng = np.random.default_rng(3)
    s1, s2 = random_psd(rng, 6), random_psd(rng, 6)
    pair = cp.PosePairBelief.from_blocks(
        cp.Pose.identity(3), random_pose(rng, 3), s1, s2
    )
    npt.assert_allclose(cp.compose(pair).cov, s1 + s2, atol=1e-12)


def test_compose_single_step_matches_monte_carlo():
    # translation-(1,0,0) step, cross block 0.4 * marginal, 1e6 samples, <5%
    T_ab = cp.Pose(np.eye(3), [1.0, 0.0, 0.0])
    sig = np.diag([0.001, 1e-5, 1e-5, 1e-5, 1e-5, 0.003])
    pair = cp.PosePairBelief.from_blocks(T_ab, T_ab, sig, sig, 0.4 * sig)
    out = cp.compose(pair)
    mc = _mc_compose_cov(pair, 1_000_000, 12345)
    assert rel_frob(out.cov, mc) < 0.05


def test_compose_reduces_to_independent_form_without_cross():
    rng = np.random.default_rng(4)
    A, B = random_pose(rng, 3), random_pose(rng, 3)
    s1, s2 = random_psd(rng, 6, 0.01), random_psd(rng, 6, 0.01)
    pair = cp.PosePairBelief.from_blocks(A, B, s1, s2)
    Ad = cp.adjoint(A)
    npt.assert_allclose(cp.compose(pair).cov, s1 + Ad @ s2 @ Ad.T, atol=1e-12)


# ---------------------------------------------------------------------------
# compose_chain
# ---------------------------------------------------------------------------

def test_chain_single_pose_unchanged():
    rng = np.random.default_rng(5)
    T = random_pose(rng, 3)
    cov = random_psd(rng, 6)
    b = cp.JointPoseBelief([0], [T], cov)
    out = cp.compose_chain(b)
    assert out.mean is T
    npt.assert_array_equal(out.cov, b.cov)


def test_chain_of_two_equals_compose():
    rng = np.random.default_rng(6)
    means = [random_pose(rng, 3) for _ in range(2)]
    cov = random_psd(rng, 12, 0.01)
    b = cp.JointPoseBelief([0, 1], means, cov)
    via_chain = cp.compose_chain(b)
    via_pair = cp.compose(cp.marginal_pair(b, 0, 1))
    npt.assert_array_equal(via_chain.cov, via_pair.cov)
    npt.assert_array_equal(via_chain.mean.matrix(), via_pair.mean.matrix())


def test_chain_ten_steps_matches_monte_carlo():
    # scale-3 noise, rho = 0.4, mean translation must reach (10, 0, 0)
    step = cp.Pose(np.eye(3), [1.0, 0.0, 0.0])
    sig = np.diag([0.003, 3e-5, 1e-5, 1e-5, 1e-5, 0.009])
    joint = cp.build_chain_joint(cp.ChainNoiseSpec(step, sig, 10, 0.4))
    out = cp.compose_chain(joint)
    npt.assert_allclose(out.mean.t, [10.0, 0.0, 0.0], atol=1e-12)

    batch = cp.sample_joint(joint, 10_000, 999)
    acc = batch.pose_matrices(0)
    for k in range(1, 10):
        acc = acc @ batch.pose_matrices(k)
    xis, ok = log_many_masked(acc @ out.mean.inverse().matrix())
    mc = xis[ok].T @ xis[ok] / ok.sum()
    assert rel_frob(out.cov, mc) < 0.10


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

def test_inverse_identity_mean_keeps_covariance():
    cov = random_psd(np.random.default_rng(7), 6)
    u = cp.UncertainPose(cp.Pose.identity(3), cov)
    npt.assert_allclose(cp.inverse(u).cov, cov, atol=1e-12)


def test_inverse_is_involution():
    rng = np.random.default_rng(8)
    for dim in (2, 3):
        u = cp.UncertainPose(
            random_pose(rng, dim), random_psd(rng, 3 if dim == 2 else 6, 0.1)
        )
        twice = cp.inverse(cp.inverse(u))
        npt.assert_allclose(twice.mean.matrix(), u.mean.matrix(), atol=1e-12)
        npt.assert_allclose(twice.cov, u.cov, atol=1e-12)


def test_inverse_matches_monte_carlo():
    # pure-rotation mean, diagonal covariance at the alpha = 0.1 noise level
    R = cp.exp_map([0.0, 0.0, 0.0, 0.3, -0.4, 0.2]).R
    sig = 0.1 * np.diag([0.01, 0.01, 0.01, 0.002, 0.002, 0.002])
    u = cp.UncertainPose(cp.Pose(R, np.zeros(3)), sig)
    mc = _mc_inverse_cov(u, 200_000, 2024)
    assert rel_frob(cp.inverse(u).cov, mc) < 0.02


# ---------------------------------------------------------------------------
# between
# ---------------------------------------------------------------------------

def test_between_perfect_correlation_cancels():
    rng = np.random.default_rng(9)
    T = random_pose(rng, 3)
    sig = random_psd(rng, 6, 0.01)
    pair = cp.PosePairBelief.from_blocks(T, T, sig, sig, sig)
    out = cp.between(pair)
    npt.assert_allclose(out.mean.matrix(), np.eye(4), atol=1e-12)
    npt.assert_allclose(out.cov, 0, atol=1e-12)


def test_between_identity_base_zero_cross_adds():
    rng = np.random.default_rng(10)
    s1, s2 = random_psd(rng, 6), random_psd(rng, 6)
    pair = cp.PosePairBelief.from_blocks(
        cp.Pose.identity(3), random_pose(rng, 3), s1, s2
    )
    npt.assert_allclose(cp.between(pair).cov, s1 + s2, atol=1e-12)


def test_between_paper_setup_mean_and_monte_carlo():
    pair = paper_pair(alpha=1.0)
    out = cp.between(pair)
    npt.assert_allclose(out.mean.t, [2.12132, 0.0, 0.0], atol=1e-5)
    npt.assert_allclose(out.mean.R, np.eye(3), atol=1e-6)
    mc = cp.mc_relative_cov(pair, 10_000, 77)
    assert rel_frob(out.cov, mc) < 0.10


def test_between_ignoring_correlation_overestimates_here():
    pair = paper_pair(alpha=1.0)
    aware = cp.between(pair)
    naive = cp.between_ignoring_correlation(pair)
    assert np.trace(naive.cov) > np.trace(aware.cov)
    # and it is further from the Monte-Carlo truth
    mc = cp.mc_relative_cov(pair, 10_000, 78)
    assert cp.cov_error(naive.cov, mc) > cp.cov_error(aware.cov, mc)


def test_between_ignoring_correlation_equals_between_when_uncorrelated():
    rng = np.random.default_rng(11)
    pair = cp.PosePairBelief.from_blocks(
        random_pose(rng, 3), random_pose(rng, 3),
        random_psd(rng, 6, 0.01), random_psd(rng, 6, 0.01),
    )
    npt.assert_array_equal(
        cp.between(pair).cov, cp.between_ignoring_correlation(pair).cov
    )


def test_between_alpha_zero_is_exact():
    pair = paper_pair(alpha=0.0)
    assert not cp.between(pair).cov.any()
    assert not cp.between_ignoring_correlation(pair).cov.any()


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_outputs_are_symmetric_psd():
    rng = np.random.default_rng(12)
    for _ in range(20):
        # a random PSD 12x12 carved into blocks is a valid correlated pair
        pair = cp.PosePairBelief(
            (random_pose(rng, 3), random_pose(rng, 3)), random_psd(rng, 12, 0.01)
        )
        for out in (cp.compose(pair), cp.between(pair)):
            npt.assert_array_equal(out.cov, out.cov.T)
            assert np.linalg.eigvalsh(out.cov).min() >= -1e-10


def test_consistency_triangle_recovers_independent_step():
    # pose pair built by composing T_ij with an independent T_jk: between()
    # on (T_ij, T_ik) with cross block Sigma_ij recovers Sigma_jk exactly
    # at first order.
    rng = np.random.default_rng(13)
    T_ij, T_jk = random_pose(rng, 3), random_pose(rng, 3)
    s_ij, s_jk = random_psd(rng, 6, 0.005), random_psd(rng, 6, 0.005)
    Ad = cp.adjoint(T_ij)
    s_ik = s_ij + Ad @ s_jk @ Ad.T
    pair = cp.PosePairBelief.from_blocks(T_ij, T_ij @ T_jk, s_ij, s_ik, s_ij)
    npt.assert_allclose(cp.between(pair).cov, s_jk, atol=1e-12)


def test_correlation_monotonicity():
    # adding a PSD increment to the cross block shrinks between() and grows
    # compose() in the Loewner order
    rng = np.random.default_rng(14)
    T1, T2 = random_pose(rng, 3), random_pose(rng, 3)
    s = np.eye(6) * 0.02
    weak = cp.PosePairBelief.from_blocks(T1, T2, s, s, 0.1 * np.eye(6) * 0.02)
    strong = cp.PosePairBelief.from_blocks(T1, T2, s, s, 0.5 * np.eye(6) * 0.02)
    d_between = cp.between(weak).cov - cp.between(strong).cov
    assert np.linalg.eigvalsh(d_between).min() >= -1e-12
    d_compose = cp.compose(strong).cov - cp.compose(weak).cov
    assert np.linalg.eigvalsh(d_compose).min() >= -1e-12


def test_monte_carlo_consistency_all_operations_small_noise():
    # the module-level ground truth: 10% relative Frobenius at trace <= 0.05
    rng = np.random.default_rng(15)
    T1, T2 = random_pose(rng, 3), random_pose(rng, 3)
    joint = random_psd(rng, 12)
    joint *= 0.04 / np.trace(joint)
    pair = cp.PosePairBelief((T1, T2), joint)
    assert np.trace(pair.cov) <= 0.05
    M = 100_000

    mc = _mc_compose_cov(pair, M, 5150)
    assert rel_frob(cp.compose(pair).cov, mc) < 0.10

    mc = cp.mc_relative_cov(pair, M, 5151)
    assert rel_frob(cp.between(pair).cov, mc) < 0.10

    u = pair.marginal(0)
    mc = _mc_inverse_cov(u, M, 5152)
    assert rel_frob(cp.inverse(u).cov, mc) < 0.10


def test_degenerate_propagation_raises():
    with pytest.raises(cp.NumericalDegeneracyError):
        cp.belief.finalize_propagated_cov(np.diag([1.0, -1e-6]))


# ---------------------------------------------------------------------------
# stacked between
# ---------------------------------------------------------------------------

def _random_pairs(rng, dim, n):
    """Random pairs; every fifth one has a rank-2 joint covariance, so its
    relative covariance lands in the clipping band of finalize."""
    m = 3 if dim == 2 else 6
    pairs = []
    for k in range(n):
        means = (random_pose(rng, dim, angle_scale=3.0, trans_scale=5.0),
                 random_pose(rng, dim, angle_scale=3.0, trans_scale=5.0))
        if k % 5 == 0:
            B = 0.03 * rng.normal(size=(2 * m, 2))
            cov = B @ B.T
        else:
            cov = random_psd(rng, 2 * m, 1e-3)
        pairs.append(cp.PosePairBelief(means, cov))
    return pairs


@pytest.mark.parametrize("dim", [2, 3])
def test_between_covs_bit_identical_to_one_pair_calls(dim):
    from oracles import point_between

    pairs = _random_pairs(np.random.default_rng(10 + dim), dim, 70)
    clipped = 0
    for use_cross, op in ((True, cp.between), (False, cp.between_ignoring_correlation)):
        stacked = cp.belief.between_covs(pairs, use_cross=use_cross)
        assert stacked.shape == (70, 3 if dim == 2 else 6, 3 if dim == 2 else 6)
        assert not stacked.flags.writeable
        for pb, got in zip(pairs, stacked):
            want_mean, want = point_between(pb, use_cross=use_cross)
            one = op(pb)
            assert np.array_equal(got, want)
            assert np.array_equal(one.cov, want)
            assert np.array_equal(one.mean.R, want_mean.R)
            assert np.array_equal(one.mean.t, want_mean.t)
            raw = cp.belief._between_blocks([pb], use_cross=use_cross)[2][0]
            clipped += np.linalg.eigh(0.5 * (raw + raw.T))[0].min() < 0.0
    assert clipped  # the clipping branch was exercised


def test_between_covs_form_each_adjoint_once_and_no_means(monkeypatch):
    # the two predictions and the oracle of a block share each pair's
    # Ad(T_ij^-1); between_covs never composes the relative means
    import corrpose.belief as bel

    pairs = _random_pairs(np.random.default_rng(12), 2, 20)
    real = bel.adjoint_blocks
    calls = []
    monkeypatch.setattr(bel, "adjoint_blocks", lambda R, t: calls.append(len(t)) or real(R, t))
    monkeypatch.setattr(bel, "compose_blocks", None)  # any call raises TypeError
    bel.between_covs(pairs[:16], use_cross=True)
    bel.between_covs(pairs, use_cross=False)
    assert calls == [16, 4]
    monkeypatch.setattr(bel, "compose_blocks", cp.liegroup.compose_blocks)
    assert bel.relative_mean_blocks(pairs)[0].shape == (20, 3, 3)
    assert calls == [16, 4]


def test_stacked_cov_checks_raise_like_one_matrix():
    from corrpose.belief import _finalized_covs, checked_covs

    good = np.eye(3)
    degenerate = np.diag([1.0, -1e-6, 0.0])
    with pytest.raises(cp.NumericalDegeneracyError) as one:
        cp.belief.finalize_propagated_cov(degenerate)
    with pytest.raises(cp.NumericalDegeneracyError) as stacked:
        _finalized_covs(np.stack([good, degenerate, good]))
    assert str(stacked.value) == str(one.value)
    asym = np.eye(3)
    asym[0, 1] = 1e-3
    for bad, match in ((asym, "symmetric"), (-np.eye(3), "semi-definite"),
                       (np.full((3, 3), np.nan), "finite")):
        with pytest.raises(ValueError, match=match):
            cp.UncertainPose(cp.Pose.identity(2), bad)
        with pytest.raises(ValueError, match=match):
            checked_covs(np.stack([good, bad]), what="covariance")
