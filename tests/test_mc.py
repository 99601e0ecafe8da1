"""Tests for sampling, the Monte-Carlo covariance oracle and the metrics."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

import corrpose as cp
from oracles import chain_pose_matrices, random_pose, random_psd


STEP = cp.Pose(np.eye(3), [1.0, 0.0, 0.0])
STEP_SIG = np.diag([0.003, 3e-5, 1e-5, 1e-5, 1e-5, 0.009])


# ---------------------------------------------------------------------------
# chain joint construction
# ---------------------------------------------------------------------------

def test_chain_joint_uncorrelated_is_block_diagonal():
    joint = cp.chain_joint(STEP, STEP_SIG, 4)
    for a in range(4):
        for b in range(4):
            blk = joint.block(a, b)
            if a == b:
                npt.assert_array_equal(blk, STEP_SIG)
            else:
                assert not blk.any()


def test_chain_joint_lag_structure():
    joint = cp.chain_joint(STEP, STEP_SIG, 5, rho=0.4)
    npt.assert_array_equal(joint.block(1, 2), 0.4 * STEP_SIG)
    assert not joint.block(0, 2).any()  # zero beyond lag 1


def test_chain_joint_psd_boundary_by_belief_checks():
    # For equal marginals with lag-1 blocks rho*Sigma the joint is a Kronecker
    # product with the tridiagonal Toeplitz(1, rho); rho >= 1/2 loses PSD as N
    # grows.  The belief checks place the rho = 0.6 boundary at N = 5.
    cp.chain_joint(STEP, STEP_SIG, 10, rho=0.4)
    cp.chain_joint(STEP, STEP_SIG, 3, rho=0.6)
    with pytest.raises(cp.InvalidSpecError,
                       match=r"not positive semi-definite .*\(rho=0.6, N=5\)"):
        cp.chain_joint(STEP, STEP_SIG, 5, rho=0.6)


@pytest.mark.parametrize("n_steps, step_cov, message", [
    (0, STEP_SIG, "^chain needs at least one step$"),
    (3, STEP_SIG[:3, :3], "^step covariance must be 6x6$"),
])
def test_chain_joint_input_checks(n_steps, step_cov, message):
    # plain ValueErrors, not InvalidSpecError: the input is malformed, not
    # a chain whose joint fails the PSD check
    with pytest.raises(ValueError, match=message) as exc:
        cp.chain_joint(STEP, step_cov, n_steps)
    assert not isinstance(exc.value, cp.InvalidSpecError)


@pytest.mark.parametrize("rho,N,accepted", [(1 + 1e-8, 2, True), (0.6, 5, False)])
def test_chain_spec_and_joint_belief_agree(rho, N, accepted):
    # the compose-sweep step covariance: at rho = 1 + 1e-8 the joint's least
    # eigenvalue is -1e-8 times the largest step variance, inside the belief
    # checks' tolerance; at rho = 0.6, N = 5 it is -0.039 times it
    from corrpose.experiments import _STEP_MEAN, _step_cov

    sig = _step_cov(3.0, 3.0)
    cov = np.kron(np.eye(N), sig) + np.kron(np.eye(N, k=1) + np.eye(N, k=-1), rho * sig)
    verdicts = []
    for make in (lambda: cp.JointPoseBelief(range(N), (_STEP_MEAN,) * N, cov),
                 lambda: cp.chain_joint(_STEP_MEAN, sig, N, rho)):
        try:
            make()
            verdicts.append(True)
        except ValueError:
            verdicts.append(False)
    assert verdicts == [accepted, accepted]
    if accepted:
        joint = cp.chain_joint(_STEP_MEAN, sig, N, rho)
        assert np.array_equal(joint.cov, cov)


def test_one_psd_square_root():
    # mc._sqrt_factor is the package's only PSD square root: no module takes
    # a Cholesky factor, the solver's whitener is not an eigh root of its
    # own, and no module imports scipy.linalg
    import inspect
    import re
    from pathlib import Path

    for path in Path(cp.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert not re.search(r"scipy\.linalg|from scipy import\s[^\n]*\blinalg\b", source)
        assert "cholesky(" not in source, path.name
    assert "eigh(" not in inspect.getsource(cp.graph)
    assert "_sqrt_factor(graph.information" in inspect.getsource(cp.graph._System)


def test_sqrt_factor_stack_is_per_matrix_bits():
    # each matrix of a stack gets its one-matrix root bit for bit, singular
    # and zero members included, and is tested for PSD on its own scale
    from corrpose.mc import _sqrt_factor

    rng = np.random.default_rng(8)
    sig = np.diag([0.25, 0.0625, 0.015625])
    covs = np.array(
        [random_psd(rng, 6, s) for s in (1e-4, 1e-2, 1.0, 1e3)]
        + [np.block([[sig, sig], [sig, sig]]), np.zeros((6, 6))]
    )
    S = _sqrt_factor(covs)
    for S_r, cov in zip(S, covs):
        assert np.array_equal(S_r, _sqrt_factor(cov))
        npt.assert_allclose(S_r @ S_r.T, cov, atol=1e-12 * max(1.0, np.abs(cov).max()))
    # -5e-9 is inside the tolerance of a matrix of scale 1e3, not of scale 1
    big, small = np.diag([1e3, -5e-9]), np.diag([1.0, -5e-9])
    _sqrt_factor(np.array([big, big]))
    with pytest.raises(cp.SamplingError, match="indefinite"):
        _sqrt_factor(np.array([big, small, big]))


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


@pytest.mark.parametrize("n", [6, 12, 18, 30, 60, 90, 120])
def test_chunked_draws_equal_one_shot_draws(n):
    # normals drawn and multiplied _DRAW_ROWS rows at a time, the last chunk
    # taking the rest, against one (M, n) draw and one product: one chunk,
    # a chunk and one row, two chunks and one row, four chunks and 7 rows,
    # and the compose-sweep's M
    from corrpose.mc import _DRAW_ROWS, _draws, _sqrt_factor

    cov = random_psd(np.random.default_rng(n), n, 0.01)
    for M in (2, _DRAW_ROWS + 1, 2 * _DRAW_ROWS + 1, 4 * _DRAW_ROWS + 7, 10_000):
        got = _draws(cov[None], M, [[n, M]])[0]
        want = np.random.default_rng([n, M]).standard_normal((M, n)) @ _sqrt_factor(cov).T
        assert np.array_equal(got, want), M


def test_pair_block_draws_equal_one_shot_draws():
    # a 16-pair oracle block of 1000 draws each, every pair with its own seed
    from corrpose.mc import _draws, _sqrt_factor

    rng = np.random.default_rng(3)
    covs = np.array([random_psd(rng, 6, 0.01) for _ in range(16)])
    seeds = [[0, 1, r] for r in range(16)]
    got = _draws(covs, 1000, seeds)
    for cov, seed, row in zip(covs, seeds, got):
        want = np.random.default_rng(seed).standard_normal((1000, 6)) @ _sqrt_factor(cov).T
        assert np.array_equal(row, want)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_sample_chain_equals_per_step_loop(dim, n):
    # the composed poses of sample_joint's draws, each step one exp_many, one
    # product with its mean and one stacked product over all M rows, byte for
    # byte: M around the _DRAW_ROWS and _CHAIN_ROWS edges, one block, two
    # blocks with the last taking seven rows more, and compose-sweep's M
    rng = np.random.default_rng([dim, n])
    means = [random_pose(rng, dim) for _ in range(n)]
    cov = random_psd(rng, n * (3 if dim == 2 else 6), 0.05)
    if n == 1:
        b = cp.UncertainPose(means[0], cov)
    elif n == 2:
        b = cp.PosePairBelief(means, cov)
    else:
        b = cp.JointPoseBelief(range(n), means, cov)
    for M in (2, 3, 1023, 1024, 1025, 2047, 2049, 4103, 10_000):
        got = cp.sample_chain(b, M, [n, M])
        assert got.shape == (M, dim + 1, dim + 1)
        assert got.tobytes() == chain_pose_matrices(b, M, [n, M]).tobytes(), M


@pytest.mark.parametrize("dim", [2, 3])
def test_blocked_twists_about_equals_one_shot_log(dim):
    # the logarithm over the row blocks into preallocated outputs against one
    # log_many_masked call; rows at pi, inside the 0.1% budget, are masked
    from corrpose.mc import twists_about

    rng = np.random.default_rng(dim)
    mean = random_pose(rng, dim)
    m = 3 if dim == 2 else 6
    for M in (2, 2047, 2049, 4103, 10_000):
        xis = rng.normal(0, 0.5, (M, m))
        if M > 2000:
            xis[[5, -3], m - 1] = np.pi  # angle pi about the last axis
            xis[[5, -3], dim:m - 1] = 0.0
        mats = cp.exp_many(xis) @ mean.matrix()
        got, ok = twists_about(mats, mean)
        want, want_ok = cp.liegroup.log_many_masked(mats @ mean.inverse().matrix())
        assert ok.tobytes() == want_ok.tobytes()
        assert (~ok).sum() == (2 if M > 2000 else 0)
        assert got.tobytes() == want.tobytes(), M
    with pytest.raises(cp.SamplingError, match="branch boundary"):
        twists_about(mats[:500], mean)  # 1 of 500 rows at pi


def test_compose_point_peak_memory(tmp_path, monkeypatch):
    # one N = 20, M = 10,000 compose-sweep point, SSC baseline included,
    # holds its (M, 4, 4) chain and one row block of draws, never the (M, 120)
    # draw matrix (9.6 MB): measured 5.5 MB, and 14.3 MB when the point drew,
    # exponentiated and logged all M rows at once
    import tracemalloc

    from corrpose import experiments

    real = experiments._chain_point
    peaks = []

    def chain_point(*args):
        tracemalloc.start()
        try:
            rows = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return rows

    monkeypatch.setattr(experiments, "_chain_point", chain_point)
    experiments.run_experiment("compose-sweep", {
        "sweep": "N", "values": [20], "M": 10_000, "out": str(tmp_path), "seed": 0,
    })
    [peak] = peaks
    assert peak < 7e6


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
        # the relative mean translations are Pose products, bit for bit
        assert np.array_equal(s.t[r], old.mean.t)
        assert np.array_equal(s.kept[r], old.kept) and old.kept.all()
        err = np.abs(s.twists[r] - old.twists) / (1.0 + np.abs(old.twists))
        assert err.max() < bound


@pytest.mark.parametrize("planar", [True, False])
def test_relative_samples_at_least_as_accurate_as_matrix_oracle(planar):
    # against the matrix definition at 40 digits, 40 draws: the conjugated
    # route skips three 3x3 (4x4) products and, in SE(2), every matrix.  In
    # SE(3) both routes are exact to about 1e-14, where neither is reliably
    # ahead (medians 8.0e-15 conjugated and 5.6e-15 matrix, maxima 4.9e-14
    # and 1.8e-14), so the conjugated route is held to twice its own figures
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
    if planar:
        assert np.median(new) < np.median(old)
        assert new.max() <= old.max()
    else:
        assert np.median(new) <= 1.6e-14
        assert new.max() <= 1e-13


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
        xis, ok, coeffs = real(xi1, xi2)
        ok = ok.copy()
        ok[:: 100] = False
        return xis, ok, coeffs

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


@pytest.mark.parametrize("m", [3, 6])
def test_stacked_cov_errors_bit_identical_to_one_matrix_calls(m):
    rng = np.random.default_rng(m)
    a, b = (rng.standard_normal((2000, m, m)) * rng.uniform(1e-3, 1e2, (2000, 1, 1))
            for _ in range(2))
    for metric in (cp.cov_error, cp.normalized_cov_error):
        stacked = metric(a, b)
        assert stacked.shape == (2000,)
        assert np.array_equal(stacked, [metric(x, y) for x, y in zip(a, b)])
    # the one-matrix call keeps the rounding of np.linalg.norm
    assert all(cp.cov_error(x, y) == np.linalg.norm(x - y, "fro") for x, y in zip(a, b))
    with pytest.raises(ValueError, match="shape mismatch"):
        cp.cov_error(a, b[:, :2, :2])


def test_stacked_normalized_cov_error_raises_like_one_matrix():
    rng = np.random.default_rng(6)
    a, b = (np.stack([random_psd(rng, 6) for _ in range(5)]) for _ in range(2))
    b[3] = 0.0
    with pytest.raises(ValueError, match="Monte-Carlo covariance is zero") as one:
        cp.normalized_cov_error(a[3], b[3])
    with pytest.raises(ValueError) as stacked:
        cp.normalized_cov_error(a, b)
    assert str(stacked.value) == str(one.value)


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


def test_chi2_quantile_against_mpmath():
    # the quantile x solves P(dof / 2, x / 2) = p for the regularized lower
    # incomplete gamma function P, here to 40 digits
    import mpmath as mp

    worst = 0.0
    with mp.workdps(40):
        for dof in range(1, 13):
            for p in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999):
                a, target = mp.mpf(dof) / 2, mp.mpf(p)
                want = 2 * mp.findroot(
                    lambda y: mp.gammainc(a, 0, y, regularized=True) - target,
                    mp.mpf(stats.chi2.ppf(p, dof)) / 2)
                got = cp.chi2_quantile(dof, p)
                worst = max(worst, float(abs((got - want) / want)))
    assert worst <= 1e-14


def test_containment_calibration():
    # samples of N(0, Sigma) against Sigma itself must contain ~p
    sig = random_psd(np.random.default_rng(6), 6, 0.01)
    u = cp.UncertainPose(cp.Pose.identity(3), sig)
    batch = cp.sample_joint(u, 100_000, 8)
    frac = cp.containment_fraction(batch.twists, sig, 0.999)
    assert abs(frac - 0.999) <= 0.002
    frac3 = cp.containment_fraction(batch.twists, sig, 0.95, dof_mode="position_only")
    assert abs(frac3 - 0.95) <= 0.01


@pytest.mark.parametrize("width", [3, 6])
@pytest.mark.parametrize("dof_mode", ["full", "position_only"])
def test_containment_is_a_per_row_mahalanobis_count(width, dof_mode):
    # the stacked form against one np.dot per sample, graded by half the
    # covariance drawn from so that the count is not near M.  The two forms
    # round d2 differently, so a sample within 1e-12 of q (relative) may be
    # counted on either side.
    rng = np.random.default_rng(46 + width)
    u = cp.UncertainPose(cp.Pose.identity(width // 3 + 1), random_psd(rng, width, 0.01))
    batch = cp.sample_joint(u, 2000, 12)
    sig = 0.5 * u.cov
    dof = width if dof_mode == "full" else width // 3 + 1
    S, q = sig[:dof, :dof], cp.chi2_quantile(dof, 0.9)
    d2 = np.array([np.dot(x, np.linalg.solve(S, x)) for x in batch.twists[:, :dof]])
    inside, ties = np.sum(d2 <= q), np.sum(np.abs(d2 - q) <= 1e-12 * q)
    assert 0.2 < inside / 2000 < 0.8
    got = round(cp.containment_fraction(batch.twists, sig, 0.9, dof_mode) * 2000)
    assert abs(got - inside) <= ties


def test_containment_shrinks_for_underestimated_covariance():
    sig = np.eye(6) * 0.01
    u = cp.UncertainPose(cp.Pose.identity(3), sig)
    batch = cp.sample_joint(u, 20_000, 9)
    assert cp.containment_fraction(batch.twists, 0.25 * sig, 0.999) < 0.95


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
