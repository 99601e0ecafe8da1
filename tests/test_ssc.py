"""Tests for the Euler-coordinate baseline operations."""

import numpy as np
import numpy.testing as npt
import pytest

import corrpose as cp
from corrpose import ssc
from oracles import (
    point_compound,
    point_head_to_tail,
    point_inverse,
    point_relative,
    point_ssc_inverse,
    point_tail_to_tail,
    random_psd,
    ssc_point_jacobian,
)


def _pair_mean(op, x1, x2):
    """Mean of a pair operation on the deterministic pair (x1, x2)."""
    return op(ssc.SscBelief(np.concatenate([x1, x2]), np.zeros((12, 12)))).mean


def _inverse_mean(x):
    return ssc.ssc_inverse(ssc.SscBelief(x, np.zeros((6, 6)))).mean


def random_params(rng, pitch_margin=0.1):
    x = rng.normal(0, 1.0, 6)
    x[3] = rng.uniform(-np.pi + 0.05, np.pi - 0.05)
    x[4] = rng.uniform(-(np.pi / 2 - pitch_margin), np.pi / 2 - pitch_margin)
    x[5] = rng.uniform(-np.pi + 0.05, np.pi - 0.05)
    return x


# ---------------------------------------------------------------------------
# parameter <-> pose conversion
# ---------------------------------------------------------------------------

def test_zero_vector_is_identity():
    npt.assert_array_equal(ssc.ssc_to_pose(np.zeros(6)).matrix(), np.eye(4))


def test_pure_translation():
    T = ssc.ssc_to_pose([1.0, 2.0, 3.0, 0, 0, 0])
    npt.assert_array_equal(T.R, np.eye(3))
    npt.assert_array_equal(T.t, [1.0, 2.0, 3.0])


def test_convention_is_zyx():
    # R must equal Rz(psi) @ Ry(theta) @ Rx(phi)
    phi, theta, psi = 0.3, -0.4, 1.1
    cx, sx = np.cos(phi), np.sin(phi)
    cy, sy = np.cos(theta), np.sin(theta)
    cz, sz = np.cos(psi), np.sin(psi)
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    T = ssc.ssc_to_pose([0, 0, 0, phi, theta, psi])
    npt.assert_allclose(T.R, Rz @ Ry @ Rx, atol=1e-12)


def test_roundtrip_away_from_gimbal():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        x = random_params(rng)
        back = ssc.pose_to_ssc(ssc.ssc_to_pose(x))
        worst = max(worst, np.abs(back - x).max())
    assert worst < 1e-9


def test_gimbal_lock_raises():
    T = ssc.ssc_to_pose([0, 0, 0, 0.2, np.pi / 2 - 1e-9, 0.1])
    with pytest.raises(ssc.GimbalLockError):
        ssc.pose_to_ssc(T)


def test_params_many_matches_scalar():
    rng = np.random.default_rng(1)
    mats = np.stack([ssc.ssc_to_pose(random_params(rng)).matrix() for _ in range(50)])
    batch = ssc.params_many(mats)
    for k in (0, 13, 49):
        npt.assert_allclose(batch[k], ssc.pose_to_ssc(cp.Pose.from_matrix(mats[k])), atol=1e-12)


def test_conversions_are_one_row_calls_bit_identical_to_point_oracle():
    # ssc_to_pose / pose_to_ssc are one-row calls of the stack maps; they
    # reproduce the per-point formulas exactly, wrapping included
    from oracles import point_pose_to_ssc, point_ssc_to_pose

    rng = np.random.default_rng(5)
    for _ in range(2000):
        x = rng.normal(0, 2.0, 6)
        x[3:] = rng.uniform(-3 * np.pi, 3 * np.pi, 3)
        T = ssc.ssc_to_pose(x)
        want = point_ssc_to_pose(x)
        assert np.array_equal(T.R, want.R) and np.array_equal(T.t, want.t)
        assert np.array_equal(ssc.pose_to_ssc(T), point_pose_to_ssc(T))
    for x in ([0, 0, 0, 0.2, np.pi / 2 - 1e-9, 0.1], [1, 2, 3, -0.4, -np.pi / 2 + 1e-8, 2.0]):
        with pytest.raises(ssc.GimbalLockError) as got:
            ssc.pose_to_ssc(point_ssc_to_pose(x))
        with pytest.raises(ssc.GimbalLockError) as want:
            point_pose_to_ssc(point_ssc_to_pose(x))
        assert str(got.value) == str(want.value)


def test_angles_normalized_on_construction():
    b = ssc.SscBelief([0, 0, 0, 0, 0, 2 * np.pi + 0.3], np.eye(6) * 1e-4)
    npt.assert_allclose(b.mean[5], 0.3, atol=1e-12)


# ---------------------------------------------------------------------------
# head_to_tail
# ---------------------------------------------------------------------------

def test_head_to_tail_zero_second_operand():
    rng = np.random.default_rng(2)
    x = random_params(rng)
    cov = np.zeros((12, 12))
    cov[:6, :6] = random_psd(rng, 6, 1e-4)
    b = ssc.SscBelief(np.concatenate([x, np.zeros(6)]), cov)
    out = ssc.head_to_tail(b)
    npt.assert_allclose(out.mean, ssc.normalize_params(x), atol=1e-12)
    npt.assert_allclose(out.cov, cov[:6, :6], atol=1e-6)


def test_head_to_tail_planar_matches_2d_compounding():
    # z = phi = theta = 0: textbook planar composition in closed form
    rng = np.random.default_rng(3)
    for _ in range(20):
        x1 = np.array([rng.normal(), rng.normal(), 0.0, 0.0, 0.0, rng.uniform(-2, 2)])
        x2 = np.array([rng.normal(), rng.normal(), 0.0, 0.0, 0.0, rng.uniform(-1, 1)])
        out = _pair_mean(ssc.head_to_tail, x1, x2)
        c, s = np.cos(x1[5]), np.sin(x1[5])
        expect = np.array(
            [
                x1[0] + c * x2[0] - s * x2[1],
                x1[1] + s * x2[0] + c * x2[1],
                0.0,
                0.0,
                0.0,
                ssc.wrap_angle(x1[5] + x2[5]),
            ]
        )
        npt.assert_allclose(out, expect, atol=1e-9)


def test_head_to_tail_gimbal_lock_at_result():
    x1 = np.array([0.0, 0, 0, 0, np.pi / 4, 0])
    x2 = np.array([1.0, 0, 0, 0, np.pi / 4, 0])  # pitches add up to pi/2
    b = ssc.SscBelief(np.concatenate([x1, x2]), 1e-6 * np.eye(12))
    with pytest.raises(ssc.GimbalLockError):
        ssc.head_to_tail(b)


def test_head_to_tail_covariance_vs_euler_monte_carlo():
    rng = np.random.default_rng(4)
    x1, x2 = random_params(rng, 0.4), random_params(rng, 0.4)
    cov = np.zeros((12, 12))
    cov[:6, :6] = random_psd(rng, 6, 2e-5)
    cov[6:, 6:] = random_psd(rng, 6, 2e-5)
    b = ssc.SscBelief(np.concatenate([x1, x2]), cov)
    out = ssc.head_to_tail(b)

    draws = np.random.default_rng(5).multivariate_normal(b.mean, b.cov, 100_000)
    res = np.stack([point_compound(z[:6], z[6:]) for z in draws[:20_000]])
    r = res - out.mean
    r[:, 3:] = np.arctan2(np.sin(r[:, 3:]), np.cos(r[:, 3:]))
    mc = r.T @ r / r.shape[0]
    assert np.linalg.norm(out.cov - mc) / np.linalg.norm(mc) < 0.05


# ---------------------------------------------------------------------------
# ssc_inverse
# ---------------------------------------------------------------------------

def test_inverse_zero_mean():
    cov = random_psd(np.random.default_rng(6), 6, 1e-4)
    out = ssc.ssc_inverse(ssc.SscBelief(np.zeros(6), cov))
    npt.assert_allclose(out.mean, np.zeros(6), atol=1e-12)
    # at the identity the inverse map has Jacobian -I-ish structure; just
    # require a valid congruence result
    assert out.cov.shape == (6, 6)
    npt.assert_array_equal(out.cov, out.cov.T)


def test_inverse_mean_involution():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = random_params(rng)
        npt.assert_allclose(_inverse_mean(_inverse_mean(x)), x, atol=1e-9)


def test_inverse_covariance_vs_euler_monte_carlo():
    rng = np.random.default_rng(8)
    x = random_params(rng, 0.4)
    cov = random_psd(rng, 6, 2e-5)
    out = ssc.ssc_inverse(ssc.SscBelief(x, cov))
    draws = np.random.default_rng(9).multivariate_normal(x, cov, 20_000)
    res = np.stack([point_inverse(z) for z in draws])
    r = res - out.mean
    r[:, 3:] = np.arctan2(np.sin(r[:, 3:]), np.cos(r[:, 3:]))
    mc = r.T @ r / r.shape[0]
    assert np.linalg.norm(out.cov - mc) / np.linalg.norm(mc) < 0.05


# ---------------------------------------------------------------------------
# tail_to_tail
# ---------------------------------------------------------------------------

def test_tail_to_tail_perfect_correlation():
    rng = np.random.default_rng(10)
    x = random_params(rng)
    s = random_psd(rng, 6, 1e-4)
    cov = np.block([[s, s], [s, s]])
    out = ssc.tail_to_tail(ssc.SscBelief(np.concatenate([x, x]), cov))
    npt.assert_allclose(out.mean, np.zeros(6), atol=1e-9)
    npt.assert_allclose(out.cov, np.zeros((6, 6)), atol=1e-9)


def test_tail_to_tail_identity_base_adds():
    rng = np.random.default_rng(11)
    x2 = random_params(rng)
    s1, s2 = random_psd(rng, 6, 1e-5), random_psd(rng, 6, 1e-5)
    cov = np.zeros((12, 12))
    cov[:6, :6] = s1
    cov[6:, 6:] = s2
    out = ssc.tail_to_tail(ssc.SscBelief(np.concatenate([np.zeros(6), x2]), cov))
    # with x_ij = 0 the map is (x1, x2) -> inverse(x1) (+) x2; the covariance
    # is J1 s1 J1' + s2 where J1 is the Jacobian through the inverse branch
    J = ssc_point_jacobian(
        lambda z: point_relative(z[:6], z[6:]), np.concatenate([np.zeros(6), x2])
    )
    expect = J[:, :6] @ s1 @ J[:, :6].T + s2
    npt.assert_allclose(out.cov, expect, atol=1e-6)
    npt.assert_allclose(J[:, 6:], np.eye(6), atol=1e-6)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_means_agree_with_group_operations():
    rng = np.random.default_rng(12)
    for _ in range(50):
        x1, x2 = random_params(rng), random_params(rng)
        T1, T2 = ssc.ssc_to_pose(x1), ssc.ssc_to_pose(x2)
        npt.assert_allclose(
            ssc.ssc_to_pose(_pair_mean(ssc.head_to_tail, x1, x2)).matrix(),
            (T1 @ T2).matrix(),
            atol=1e-9,
        )
        npt.assert_allclose(
            ssc.ssc_to_pose(_inverse_mean(x1)).matrix(),
            T1.inverse().matrix(),
            atol=1e-9,
        )
        npt.assert_allclose(
            ssc.ssc_to_pose(_pair_mean(ssc.tail_to_tail, x1, x2)).matrix(),
            (T1.inverse() @ T2).matrix(),
            atol=1e-9,
        )


def test_jacobian_step_halving_converges():
    rng = np.random.default_rng(13)
    z = np.concatenate([random_params(rng), random_params(rng)])
    f = lambda v: point_compound(v[:6], v[6:])
    J1 = ssc_point_jacobian(f, z, h=1e-6)
    J2 = ssc_point_jacobian(f, z, h=5e-7)
    assert np.abs(J1 - J2).max() < 1e-5


def test_outputs_symmetric_psd():
    rng = np.random.default_rng(14)
    joint = random_psd(rng, 12, 1e-5)
    b = ssc.SscBelief(np.concatenate([random_params(rng), random_params(rng)]), joint)
    for op in (ssc.head_to_tail, ssc.tail_to_tail):
        out = op(b)
        npt.assert_array_equal(out.cov, out.cov.T)
        assert np.linalg.eigvalsh(out.cov).min() >= -1e-10


# ---------------------------------------------------------------------------
# stacked Jacobians against the per-point oracle
# ---------------------------------------------------------------------------

def _random_pair_belief(rng, planar):
    x1, x2 = random_params(rng), random_params(rng)
    if planar:  # SE(2) embedded: z = roll = pitch = 0
        x1[2:5] = 0.0
        x2[2:5] = 0.0
    return ssc.SscBelief(np.concatenate([x1, x2]), random_psd(rng, 12, 1e-4))


@pytest.mark.parametrize("planar", [True, False], ids=["se2-embedded", "se3"])
def test_stacked_operations_bit_identical_to_point_oracle(planar):
    rng = np.random.default_rng(15 if planar else 16)
    for _ in range(60):
        b = _random_pair_belief(rng, planar)
        for op, oracle in (
            (ssc.head_to_tail, point_head_to_tail),
            (ssc.tail_to_tail, point_tail_to_tail),
        ):
            got, want = op(b), oracle(b)
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.cov, want.cov)
        single = ssc.SscBelief(b.pose_mean(0), b.cov[:6, :6])
        got, want = ssc.ssc_inverse(single), point_ssc_inverse(single)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.cov, want.cov)


def test_stacked_jacobian_raises_like_point_oracle():
    # a perturbed point beyond the mean crosses gimbal lock: same error type
    x1 = np.array([0.0, 0, 0, 0, np.pi / 4, 0])
    x2 = np.array([1.0, 0, 0, 0, np.pi / 4 - 1.5e-6, 0])
    b = ssc.SscBelief(np.concatenate([x1, x2]), 1e-6 * np.eye(12))
    point_compound(x1, x2)  # the mean itself is clear of the lock
    with pytest.raises(ssc.GimbalLockError):
        point_head_to_tail(b)
    with pytest.raises(ssc.GimbalLockError):
        ssc.head_to_tail(b)


def test_non_finite_parameters_rejected():
    with pytest.raises(ValueError, match="finite"):
        _pair_mean(ssc.head_to_tail, [0, 0, np.nan, 0, 0, 0], np.zeros(6))
    with pytest.raises(ValueError, match="6 entries"):
        ssc.normalize_params(np.zeros(5))
