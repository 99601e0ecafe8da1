"""Tests for the unscented coordinate-to-twist conversion."""

import numpy as np
import numpy.testing as npt
import pytest

import corrpose as cp
from corrpose import convert, ssc
from corrpose.liegroup import log_many_masked
from oracles import point_ut_convert, point_ut_residual_mean, random_psd, ssc_matrices

DEMO_MEAN = np.array([3.0, 3.0, 0.0, 0.0, 0.0, np.pi / 4])
DEMO_COV = np.diag([0.005, 0.005, 1e-5, 1e-5, 1e-5, 0.006])


def linearized_conversion(b: ssc.SscBelief, h=1e-5) -> np.ndarray:
    """First-order pushforward through the identity-centered log (oracle)."""
    T_inv = ssc.ssc_to_pose(b.mean).inverse()

    def ell(z):
        return cp.log_map(ssc.ssc_to_pose(z) @ T_inv)

    J = np.zeros((6, 6))
    for k in range(6):
        dx = np.zeros(6)
        dx[k] = h
        J[:, k] = (ell(b.mean + dx) - ell(b.mean - dx)) / (2 * h)
    return J @ b.cov @ J.T


def sampled_conversion(b: ssc.SscBelief, M, seed) -> np.ndarray:
    """Brute-force oracle: sample coordinates, push each through ell, average."""
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(b.mean, b.cov, M)
    mats = ssc_matrices(draws)
    Tbar_inv = ssc.ssc_to_pose(b.mean).inverse().matrix()
    ells, ok = log_many_masked(mats @ Tbar_inv)
    kept = ells[ok]
    return kept.T @ kept / kept.shape[0]


# ---------------------------------------------------------------------------
# weights and point sets
# ---------------------------------------------------------------------------

def test_sigma_point_count_and_weight_sum():
    for n in (1, 2, 3):
        mean = np.tile(DEMO_MEAN, n)
        cov = np.kron(np.eye(n), DEMO_COV)
        b = ssc.SscBelief(mean, cov)
        points, wm, wc = convert.sigma_points(b.mean, b.cov, convert.UtConfig())
        assert points.shape == (12 * n + 1, 6 * n)
        npt.assert_allclose(wm.sum(), 1.0, atol=1e-12)
        npt.assert_allclose(wc.sum(), 1.0, atol=1e-12)
        assert (wm >= 0).all()


def test_scaled_mode_mean_weights_sum_to_one():
    cfg = convert.UtConfig(kappa=0.0, mode="scaled", alpha=0.5, beta=2.0)
    spread, wm, wc = cfg.spread_and_weights(6)
    npt.assert_allclose(wm.sum(), 1.0, atol=1e-12)
    assert spread > 0


def test_bad_configs_rejected():
    with pytest.raises(ValueError):
        convert.UtConfig(mode="cubature")
    with pytest.raises(ValueError):
        convert.UtConfig(kappa=-6.0).spread_and_weights(6)


# ---------------------------------------------------------------------------
# conversion behavior
# ---------------------------------------------------------------------------

def test_zero_covariance_fixed_point():
    b = ssc.SscBelief(DEMO_MEAN, np.zeros((6, 6)))
    out = convert.ut_convert(b)
    assert not out.cov.any()
    npt.assert_allclose(
        out.means[0].matrix(), ssc.ssc_to_pose(DEMO_MEAN).matrix(), atol=1e-15
    )


def test_near_identity_small_covariance_passthrough():
    # at the identity the parameter ordering matches the twist ordering and
    # the map's Jacobian is the identity to first order
    b = ssc.SscBelief(np.zeros(6), 1e-6 * np.eye(6))
    out = convert.ut_convert(b)
    assert np.abs(out.cov - b.cov).max() / 1e-6 < 1e-3
    mc = sampled_conversion(b, 200_000, 0)
    assert np.linalg.norm(out.cov - mc) / np.linalg.norm(mc) < 0.02


def test_demo_covariance_matches_sampling_oracle():
    b = ssc.SscBelief(DEMO_MEAN, DEMO_COV)
    out = convert.ut_convert(b)
    mc = sampled_conversion(b, 1_000_000, 4242)
    assert np.linalg.norm(out.cov - mc) / np.linalg.norm(mc) < 0.05


def test_residual_mean_is_diagnostic_scale():
    b = ssc.SscBelief(DEMO_MEAN, DEMO_COV)
    res = convert.ut_residual_mean(b)
    assert np.linalg.norm(res) < 1e-3  # second-order small


def test_joint_conversion_keeps_cross_blocks():
    rng = np.random.default_rng(1)
    mean = np.concatenate([DEMO_MEAN, DEMO_MEAN + [1.0, 0.5, 0, 0, 0, 0.2]])
    cov = random_psd(rng, 12, 1e-3)
    out = convert.ut_convert(ssc.SscBelief(mean, cov))
    assert out.n == 2
    assert out.block(0, 1).any()
    # joint output must remain consistent with converting the marginals
    b0 = ssc.SscBelief(mean[:6], cov[:6, :6])
    solo = convert.ut_convert(b0)
    npt.assert_allclose(out.block(0, 0), solo.cov, rtol=0.05, atol=1e-6)


def test_agreement_with_linearization_as_cov_shrinks():
    # discrepancy against the first-order conversion must drop superlinearly
    # (>= 3x) when the covariance is scaled by 1/4
    rng = np.random.default_rng(20)
    cov = random_psd(rng, 6, 0.01)
    b1 = ssc.SscBelief(DEMO_MEAN, cov)
    b4 = ssc.SscBelief(DEMO_MEAN, cov / 4)
    d1 = np.linalg.norm(convert.ut_convert(b1).cov - linearized_conversion(b1))
    d4 = np.linalg.norm(convert.ut_convert(b4).cov - linearized_conversion(b4))
    assert d1 / d4 >= 3.0


def test_output_psd_with_default_weights():
    rng = np.random.default_rng(2)
    for _ in range(10):
        b = ssc.SscBelief(DEMO_MEAN, random_psd(rng, 6, 0.02))
        out = convert.ut_convert(b)
        assert np.linalg.eigvalsh(out.cov).min() >= -1e-12


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_rank_deficient_covariance_converts():
    cov = DEMO_COV.copy()
    cov[2:5, 2:5] = 0.0  # pinned z / roll / pitch
    out = convert.ut_convert(ssc.SscBelief(DEMO_MEAN, cov))
    assert np.abs(np.diag(out.cov)[2:5]).max() < 1e-9


def test_converts_every_covariance_the_belief_accepts():
    # eigenvalues 2e-3 ... 5e-5 and -5e-11, within the belief checks' PSD
    # tolerance: the sigma points spread along the principal square root,
    # which drops only the clipped eigenvalue (measured 2.0e-11), and the
    # result stays near the first-order pushforward (measured 1.2e-4)
    w = np.array([2e-3, 1e-3, 5e-4, 2e-4, 5e-5, -5e-11])
    Q = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 6)))[0]
    b = ssc.SscBelief(DEMO_MEAN, (Q * w) @ Q.T)
    assert np.linalg.eigvalsh(b.cov).min() < 0.0
    points, _, wc = convert.sigma_points(b.mean, b.cov, convert.UtConfig())
    d = points - b.mean
    assert np.abs(np.einsum("k,ki,kj->ij", wc, d, d) - b.cov).max() < 1e-10
    out = convert.ut_convert(b).cov
    lin = linearized_conversion(b)
    assert np.abs(out - lin).max() < 1e-3 * np.abs(lin).max()


def test_ut_convert_continuous_across_a_clipped_eigenvalue():
    # the covariance above and the same one with its -5e-11 eigenvalue set
    # to 0 differ by 2.5e-8 of their largest entry; both sigma point sets
    # spread along the principal root, continuous in the covariance, so the
    # results agree to rounding (a Cholesky factor of the PSD one put them
    # 1.3e-4 apart, about the UT's whole distance from first order)
    Q = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 6)))[0]
    outs = []
    for least in (-5e-11, 0.0):
        w = np.array([2e-3, 1e-3, 5e-4, 2e-4, 5e-5, least])
        outs.append(convert.ut_convert(ssc.SscBelief(DEMO_MEAN, (Q * w) @ Q.T)).cov)
    assert np.abs(outs[0] - outs[1]).max() < 1e-9 * np.abs(outs[1]).max()


def test_unfactorizable_covariance_raises():
    bad = np.eye(6)
    with pytest.raises(convert.ConversionError, match="indefinite"):
        convert.sigma_points(DEMO_MEAN, bad - 2 * np.eye(6), convert.UtConfig())


def _singularity(f, b):
    with pytest.raises(convert.SigmaPointSingularityError) as exc:
        f(b)
    return exc.value.index, exc.value.pose, exc.value.angle, str(exc.value)


SINGULARITY_ORACLES = (
    (convert.ut_convert, point_ut_convert),
    (convert.ut_residual_mean, point_ut_residual_mean),
)


def test_sigma_point_singularity_named():
    # the yaw offsets of sigma points 6 (+) and 12 (-) are exactly pi
    cov = np.diag([1e-8, 1e-8, 1e-8, 1e-8, 1e-8, np.pi ** 2 / 6.0])
    b = ssc.SscBelief(np.zeros(6), cov)
    for f, oracle in SINGULARITY_ORACLES:
        got = _singularity(f, b)
        assert got[:2] == (6, 0)
        assert got == _singularity(oracle, b)


def test_sigma_point_singularity_in_second_pose_block():
    # only block 1's yaw reaches pi: sigma point 12 (+) is the first to hit it
    cov = np.diag([1e-4] * 6 + [1e-8] * 5 + [np.pi ** 2 / 12.0])
    mean = np.concatenate([DEMO_MEAN, DEMO_MEAN + [1.0, 0.5, 0, 0, 0, 0.2]])
    b = ssc.SscBelief(mean, cov)
    for f, oracle in SINGULARITY_ORACLES:
        got = _singularity(f, b)
        assert got[:2] == (12, 1)
        assert got == _singularity(oracle, b)


# ---------------------------------------------------------------------------
# bit identity with the per-point conversion
# ---------------------------------------------------------------------------

UT_CONFIGS = {
    "standard": convert.UtConfig(),
    "kappa1": convert.UtConfig(kappa=1.0),
    "scaled": convert.UtConfig(mode="scaled", alpha=0.5, beta=2.0),
}


def joint_belief(n, seed):
    """Seeded n-pose Euler belief with correlated blocks, angles within 0.5 rad."""
    rng = np.random.default_rng([seed, n])
    mean = np.concatenate(
        [np.r_[rng.uniform(-5, 5, 3), rng.uniform(-0.5, 0.5, 3)] for _ in range(n)]
    )
    dim = 6 * n
    A = 0.02 * rng.standard_normal((dim, dim))
    cov = A @ A.T / dim + np.diag(np.tile([1e-3] * 3 + [1e-4] * 3, n))
    return ssc.SscBelief(mean, cov)


def assert_matches_point_oracle(b, cfg):
    got, want = convert.ut_convert(b, cfg), point_ut_convert(b, cfg)
    assert np.array_equal(got.cov, want.cov)
    for T, T_want in zip(got.means, want.means):
        assert np.array_equal(T.R, T_want.R) and np.array_equal(T.t, T_want.t)
    assert np.array_equal(convert.ut_residual_mean(b, cfg), point_ut_residual_mean(b, cfg))


@pytest.mark.parametrize("cfg", UT_CONFIGS.values(), ids=UT_CONFIGS.keys())
@pytest.mark.parametrize("n", [1, 2, 3, 20])
def test_bit_identical_to_point_oracle(n, cfg):
    for seed in range(3 if n < 20 else 1):
        assert_matches_point_oracle(joint_belief(n, seed), cfg)


@pytest.mark.parametrize("cfg", UT_CONFIGS.values(), ids=UT_CONFIGS.keys())
def test_bit_identical_near_branch_cut(cfg):
    # yaw spreads put sigma-point rotations near 3 rad in block 0 and within
    # the log's near-pi axis branch in block 1
    spread = cfg.spread_and_weights(12)[0]
    rng = np.random.default_rng(21)
    cov = np.zeros((12, 12))
    cov[:3, :3] = random_psd(rng, 3, 0.1)
    cov[6:9, 6:9] = random_psd(rng, 3, 0.1)
    cov[3:5, 3:5] = cov[9:11, 9:11] = 1e-6 * np.eye(2)
    cov[5, 5] = 3.0 ** 2 / spread
    cov[11, 11] = (np.pi - 5e-5) ** 2 / spread
    mean = np.concatenate([DEMO_MEAN, DEMO_MEAN + [1.0, 0.5, 0, 0.1, -0.2, 0.2]])
    assert_matches_point_oracle(ssc.SscBelief(mean, cov), cfg)

