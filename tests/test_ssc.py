"""Tests for the Euler-coordinate baseline operations."""

import numpy as np
import numpy.testing as npt
import pytest

import corrpose as cp
from corrpose import ssc
from oracles import (
    MP_SSC_MAPS,
    gap,
    mp_jacobian,
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
# closed-form Jacobians against the per-point oracle and a 40-digit reference
# ---------------------------------------------------------------------------

def _random_pair_belief(rng, planar, pitch_margin=0.1):
    x1, x2 = random_params(rng, pitch_margin), random_params(rng, pitch_margin)
    if planar:  # SE(2) embedded: z = roll = pitch = 0
        x1[2:5] = 0.0
        x2[2:5] = 0.0
    return ssc.SscBelief(np.concatenate([x1, x2]), random_psd(rng, 12, 1e-4))


# (row map, the rows of a pair mean it reads)
_ROW_MAPS = (
    (ssc._compound_rows, slice(None)),
    (ssc._relative_rows, slice(None)),
    (ssc._inverse_rows, slice(0, 6)),
)


@pytest.mark.parametrize("planar", [True, False], ids=["se2-embedded", "se3"])
def test_stacked_operations_bit_identical_to_point_oracle(planar):
    # Means are bit-identical to the per-point oracle, and a stack of rows is
    # bit-identical to its one-row calls.  Covariances come from closed-form
    # Jacobians; the oracle's are central differences (h = 1e-6), so the two
    # agree only to the differences' truncation error: largest measured gap
    # 2.9e-10 (se2-embedded) and 3.8e-10 (se3) of the largest entry.
    rng = np.random.default_rng(15 if planar else 16)
    beliefs = [_random_pair_belief(rng, planar) for _ in range(60)]
    z = np.stack([b.mean for b in beliefs])
    covs = np.stack([b.cov for b in beliefs])
    for rows, cols in _ROW_MAPS:
        x, c = rows(z[:, cols], covs[:, cols, cols])
        for r in range(len(z)):
            one = rows(z[r : r + 1, cols], covs[r : r + 1, cols, cols])
            assert np.array_equal(one[0][0], x[r]) and np.array_equal(one[1][0], c[r])
    worst = 0.0
    for b in beliefs:
        single = ssc.SscBelief(b.pose_mean(0), b.cov[:6, :6])
        for got, want in (
            (ssc.head_to_tail(b), point_head_to_tail(b)),
            (ssc.tail_to_tail(b), point_tail_to_tail(b)),
            (ssc.ssc_inverse(single), point_ssc_inverse(single)),
        ):
            assert np.array_equal(got.mean, want.mean)
            worst = max(worst, gap(got.cov, want.cov))
    assert worst < 2e-9


@pytest.mark.parametrize("planar", [True, False], ids=["se2-embedded", "se3"])
def test_covariances_match_40_digit_reference(planar):
    # Each covariance against its congruence by the 40-digit reference
    # Jacobian.  Largest measured gap: 5.0e-16 (se2-embedded) and 4.3e-14
    # (se3) of the largest entry.  The h = 1e-6 central difference that the
    # closed form replaced reads 3.0e-10 and 4.0e-10 here.
    rng = np.random.default_rng(17 if planar else 18)
    worst = 0.0
    for _ in range(15):
        b = _random_pair_belief(rng, planar, pitch_margin=0.4)
        single = ssc.SscBelief(b.pose_mean(0), b.cov[:6, :6])
        for op, name, arg in ((ssc.head_to_tail, "compound", b),
                              (ssc.tail_to_tail, "relative", b),
                              (ssc.ssc_inverse, "inverse", single)):
            J = mp_jacobian(MP_SSC_MAPS[name], arg.mean)
            worst = max(worst, gap(op(arg).cov, J @ arg.cov @ J.T))
    assert worst < 1e-12


def test_one_parameter_row_per_output(monkeypatch):
    # the closed form converts each output mean once; the central difference
    # converted 2n + 1 rows per mean
    from corrpose import PosePairBelief, experiments
    from oracles import random_pose

    rows = []
    real = ssc._params_of_blocks
    monkeypatch.setattr(ssc, "_params_of_blocks", lambda R, t: rows.append(len(t)) or real(R, t))
    rng = np.random.default_rng(19)
    b = _random_pair_belief(rng, planar=False)
    for op, arg in ((ssc.head_to_tail, b), (ssc.tail_to_tail, b),
                    (ssc.ssc_inverse, ssc.SscBelief(b.pose_mean(0), b.cov[:6, :6]))):
        rows.clear()
        op(arg)
        assert rows == [1]
    k = 5
    mean = np.stack([_random_pair_belief(rng, planar=False).mean for _ in range(k)])
    rows.clear()
    ssc.tail_to_tail_many(mean, np.stack([random_psd(rng, 12, 1e-4) for _ in range(k)]))
    assert rows == [k]
    pairs = [PosePairBelief((random_pose(rng, 2), random_pose(rng, 2)), random_psd(rng, 6, 1e-3))
             for _ in range(k)]
    rows.clear()
    experiments._lie_pairs_to_ssc(pairs)
    assert rows == [2 * k]


def _near_lock(op, tol):
    """Beliefs whose output pitch sits ``tol`` from pi/2, for each operation."""
    cov = 1e-6 * np.eye(12)
    quarter = np.pi / 4
    x0 = np.array([0.3, -0.2, 0.1, 0.0, quarter, 0.0])
    x1 = np.array([1.0, 0.5, -0.4, 0.0, quarter - tol, 0.0])
    if op is ssc.ssc_inverse:
        return ssc.SscBelief([0.0, 1.0, 0.0, 0.0, np.pi / 2 - tol, 0.0], cov[:6, :6])
    if op is ssc.tail_to_tail:
        x0 = x0 * [1, 1, 1, 1, -1, 1]
    return ssc.SscBelief(np.concatenate([x0, x1]), cov)


@pytest.mark.parametrize("op", [ssc.head_to_tail, ssc.ssc_inverse, ssc.tail_to_tail],
                         ids=["head_to_tail", "ssc_inverse", "tail_to_tail"])
def test_operations_raise_only_at_gimbal_lock(op):
    # An output pitch within _GIMBAL_TOL of pi/2 raises; one just outside
    # gives a finite, symmetric covariance.  (The central difference raised
    # up to a step h beyond the tolerance, wherever a perturbed point
    # crossed it.)
    tol = ssc._GIMBAL_TOL
    with pytest.raises(ssc.GimbalLockError):
        op(_near_lock(op, tol / 2))
    out = op(_near_lock(op, 2 * tol))
    assert np.pi / 2 - abs(out.mean[4]) < 3 * tol
    assert np.isfinite(out.cov).all() and np.array_equal(out.cov, out.cov.T)
    if op is ssc.tail_to_tail:  # and its stacked form
        clear, locked = _near_lock(op, 2 * tol), _near_lock(op, tol / 2)
        mean, cov = ssc.tail_to_tail_many(np.stack([clear.mean] * 2), np.stack([clear.cov] * 2))
        assert np.array_equal(mean[1], out.mean) and np.array_equal(cov[1], out.cov)
        with pytest.raises(ssc.GimbalLockError):
            ssc.tail_to_tail_many(np.stack([clear.mean, locked.mean]),
                                  np.stack([clear.cov, locked.cov]))


def test_non_finite_parameters_rejected():
    with pytest.raises(ValueError, match="finite"):
        _pair_mean(ssc.head_to_tail, [0, 0, np.nan, 0, 0, 0], np.zeros(6))
    with pytest.raises(ValueError, match="6 entries"):
        ssc.normalize_params(np.zeros(5))
