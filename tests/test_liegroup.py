"""Tests for the SO/SE group primitives."""

import numpy as np
import numpy.testing as npt
import pytest

from corrpose import (
    Pose,
    SingularLogError,
    adjoint,
    bch_approx,
    curly_hat,
    exp_map,
    exp_many,
    hat,
    inv_many,
    log_many,
    log_map,
    vee,
)
from oracles import random_pose, series_exp


def rotation(phi):
    """SO(3) matrix of a rotation vector."""
    return exp_map(np.r_[np.zeros(3), phi]).R


# ---------------------------------------------------------------------------
# hat / vee / curly_hat
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [3, 6])
def test_hat_zero_is_zero_matrix(m):
    assert not hat(np.zeros(m)).any()


def test_hat_se3_layout():
    # unit rotational generator about x: skew block [[0,0,0],[0,0,-1],[0,1,0]]
    M = hat([0, 0, 0, 1, 0, 0])
    npt.assert_array_equal(M[:3, :3], [[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    npt.assert_array_equal(M[:3, 3], [0, 0, 0])
    npt.assert_array_equal(M[3], [0, 0, 0, 0])


def test_hat_se2_layout():
    M = hat([1.0, 2.0, 0.5])
    npt.assert_array_equal(M, [[0, -0.5, 1], [0.5, 0, 2], [0, 0, 0]])


@pytest.mark.parametrize("m", [3, 6])
def test_vee_hat_roundtrip_exact(m):
    rng = np.random.default_rng(1)
    for _ in range(100):
        xi = rng.normal(size=m)
        npt.assert_array_equal(vee(hat(xi)), xi)


def test_hat_rejects_bad_dimension():
    with pytest.raises(ValueError):
        hat(np.zeros(4))
    with pytest.raises(ValueError):
        vee(np.zeros((5, 5)))


@pytest.mark.parametrize("m", [3, 6])
def test_curly_hat_zero(m):
    assert not curly_hat(np.zeros(m)).any()


def test_curly_hat_pure_translation_block():
    M = curly_hat([1.0, 2.0, 3.0, 0, 0, 0])
    assert not M[:3, :3].any() and not M[3:, 3:].any() and not M[3:, :3].any()
    npt.assert_array_equal(M[:3, 3:], [[0, -3, 2], [3, 0, -1], [-2, 1, 0]])


@pytest.mark.parametrize("m", [3, 6])
def test_curly_hat_is_lie_bracket(m):
    # curly_hat(a) @ b must equal the quadratic term of log(exp(sa) exp(sb)):
    # 2/s^2 * (log(exp(sa)exp(sb)) - s(a+b)) -> bracket(a, b) as s -> 0.
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.normal(size=m), rng.normal(size=m)
        s = 1e-4
        lhs = curly_hat(a) @ b
        comp = log_map(exp_map(s * a) @ exp_map(s * b))
        approx = (comp - s * (a + b)) * 2.0 / s ** 2
        npt.assert_allclose(approx, lhs, atol=5e-3 * max(1.0, np.abs(lhs).max()))


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [3, 6])
def test_exp_zero_is_identity(m):
    T = exp_map(np.zeros(m))
    npt.assert_array_equal(T.matrix(), np.eye(T.dim + 1))


def test_exp_pure_translation_se2():
    T = exp_map([1.0, 0.0, 0.0])
    npt.assert_allclose(T.t, [1.0, 0.0])
    npt.assert_array_equal(T.R, np.eye(2))


def test_exp_quarter_turn_matches_series():
    xi = np.array([0, 0, 0, 0, 0, np.pi / 2])
    T = exp_map(xi)
    npt.assert_allclose(T.matrix(), series_exp(xi), atol=1e-12)
    npt.assert_allclose(T.R, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)
    npt.assert_allclose(T.t, 0, atol=1e-15)


@pytest.mark.parametrize("m", [3, 6])
def test_exp_agrees_with_power_series(m):
    rng = np.random.default_rng(3)
    for _ in range(50):
        xi = rng.normal(size=m)
        xi *= rng.uniform(0, 1.0) / max(np.linalg.norm(xi), 1e-12)
        npt.assert_allclose(exp_map(xi).matrix(), series_exp(xi), atol=1e-9)


@pytest.mark.parametrize("m", [3, 6])
def test_log_roundtrip_principal_branch(m):
    # random twists with rotation magnitude up to 3.0 (inside the branch cut)
    rng = np.random.default_rng(4)
    rot = slice(2, 3) if m == 3 else slice(3, 6)
    worst = 0.0
    for _ in range(300):
        xi = rng.normal(size=m)
        ang = np.linalg.norm(xi[rot])
        xi[rot] *= rng.uniform(0.0, 3.0) / max(ang, 1e-12)
        T = exp_map(xi)
        worst = max(worst, np.abs(log_map(T) - xi).max())
        worst = max(
            worst, np.abs(exp_map(log_map(T)).matrix() - T.matrix()).max()
        )
    assert worst < 1e-9


def test_log_identity_is_zero():
    npt.assert_array_equal(log_map(Pose.identity(3)), np.zeros(6))
    npt.assert_array_equal(log_map(Pose.identity(2)), np.zeros(3))


def test_log_rejects_pi_rotation():
    T = Pose(np.diag([-1.0, -1.0, 1.0]), np.zeros(3))  # 180 deg about z
    with pytest.raises(SingularLogError):
        log_map(T)
    with pytest.raises(SingularLogError):
        log_map(Pose.planar(0.0, 0.0, np.pi))


def test_log_near_pi_axis_extraction():
    # just inside the rejected boundary the axis comes from the symmetric
    # part; round-trip must stay tight all the way down to the margin
    rng = np.random.default_rng(44)
    for gap in (9e-5, 1e-6, 2e-9):
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            xi = np.concatenate([rng.normal(0, 1, 3), (np.pi - gap) * axis])
            npt.assert_allclose(log_map(exp_map(xi)), xi, atol=1e-12)


def test_log_small_angle_stability():
    # sweep across every Taylor-switch band, including the 1e-6..1e-3 range
    # where the direct V-inverse coefficient loses digits to cancellation
    for scale in (1e-2, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 1e-7, 1e-10, 0.0):
        xi = np.array([0.3, -0.2, 0.1, scale, -scale, scale])
        npt.assert_allclose(log_map(exp_map(xi)), xi, atol=1e-12)
        xi2 = np.array([0.4, -0.8, scale])
        npt.assert_allclose(log_map(exp_map(xi2)), xi2, atol=1e-12)


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------

def test_adjoint_identity():
    npt.assert_array_equal(adjoint(Pose.identity(3)), np.eye(6))
    npt.assert_array_equal(adjoint(Pose.identity(2)), np.eye(3))


def test_adjoint_pure_rotation_block_diagonal():
    R = rotation([0.2, -0.5, 0.8])
    Ad = adjoint(Pose(R, np.zeros(3)))
    npt.assert_allclose(Ad[:3, :3], R)
    npt.assert_allclose(Ad[3:, 3:], R)
    npt.assert_array_equal(Ad[:3, 3:], np.zeros((3, 3)))


@pytest.mark.parametrize("dim", [2, 3])
def test_adjoint_defining_property(dim):
    # T exp(xi) == exp(Ad_T xi) T on 1000 random pairs, residual < 1e-9.
    rng = np.random.default_rng(5)
    m = 3 if dim == 2 else 6
    worst = 0.0
    for _ in range(1000):
        T = random_pose(rng, dim, angle_scale=2.5, trans_scale=2.0)
        xi = rng.normal(size=m)
        xi *= rng.uniform(0, 1.0) / max(np.linalg.norm(xi), 1e-12)
        lhs = (T @ exp_map(xi)).matrix()
        rhs = (exp_map(adjoint(T) @ xi) @ T).matrix()
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-9


def test_adjoint_of_inverse_is_inverse():
    rng = np.random.default_rng(6)
    for dim in (2, 3):
        for _ in range(50):
            T = random_pose(rng, dim, angle_scale=2.0)
            prod = adjoint(T) @ adjoint(T.inverse())
            npt.assert_allclose(prod, np.eye(T.twist_dim), atol=1e-9)


def test_adjoint_homomorphism():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        for _ in range(50):
            T1 = random_pose(rng, dim)
            T2 = random_pose(rng, dim)
            npt.assert_allclose(
                adjoint(T1 @ T2), adjoint(T1) @ adjoint(T2), atol=1e-9
            )


# ---------------------------------------------------------------------------
# BCH truncations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [1, 2, 3])
def test_bch_second_operand_zero(order):
    rng = np.random.default_rng(8)
    for m in (3, 6):
        xi = rng.normal(size=m)
        npt.assert_array_equal(bch_approx(xi, np.zeros(m), order), xi)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_bch_commuting_translations(order):
    a = np.array([0.3, -0.1, 0.7, 0, 0, 0])
    b = np.array([-0.2, 0.5, 0.1, 0, 0, 0])
    npt.assert_allclose(bch_approx(a, b, order), a + b, atol=1e-15)


def test_bch_rejects_bad_order():
    with pytest.raises(ValueError):
        bch_approx(np.zeros(6), np.zeros(6), 4)


def test_bch_order2_truncation_slope():
    # ||bch2(s a, s b) - log(exp exp)|| must scale like s^3: log-log slope >= 2.7.
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=6), rng.normal(size=6)
    scales = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = []
    for s in scales:
        truth = log_map(exp_map(s * a) @ exp_map(s * b))
        errs.append(np.linalg.norm(bch_approx(s * a, s * b, 2) - truth))
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert slope >= 2.7


def test_bch_order3_beats_order2():
    rng = np.random.default_rng(10)
    for m in (3, 6):
        a, b = 0.2 * rng.normal(size=m), 0.2 * rng.normal(size=m)
        truth = log_map(exp_map(a) @ exp_map(b))
        e2 = np.linalg.norm(bch_approx(a, b, 2) - truth)
        e3 = np.linalg.norm(bch_approx(a, b, 3) - truth)
        assert e3 < e2


# ---------------------------------------------------------------------------
# Pose type and group axioms
# ---------------------------------------------------------------------------

def test_pose_group_axioms():
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        for _ in range(100):
            A = random_pose(rng, dim)
            B = random_pose(rng, dim)
            C = random_pose(rng, dim)
            npt.assert_allclose(
                ((A @ B) @ C).matrix(), (A @ (B @ C)).matrix(), atol=1e-12
            )
            npt.assert_allclose(
                (A @ A.inverse()).matrix(), np.eye(dim + 1), atol=1e-12
            )


def test_pose_homogeneous_bottom_row_exact():
    T = random_pose(np.random.default_rng(12), 3)
    npt.assert_array_equal(T.matrix()[3], [0.0, 0.0, 0.0, 1.0])


def test_pose_renormalizes_drifted_rotation():
    R = rotation([0.1, 0.2, 0.3])
    T = Pose(R + 1e-6 * np.ones((3, 3)), np.zeros(3))
    npt.assert_allclose(T.R.T @ T.R, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(T.R) - 1.0) < 1e-9


def test_pose_rejects_garbage_rotation():
    with pytest.raises(ValueError):
        Pose(np.ones((3, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_pose_long_chain_stays_orthonormal():
    rng = np.random.default_rng(13)
    T = Pose.identity(3)
    step = random_pose(rng, 3, angle_scale=0.3)
    for _ in range(2000):
        T = T @ step
    npt.assert_allclose(T.R.T @ T.R, np.eye(3), atol=1e-9)


def test_pose_is_immutable():
    T = Pose.identity(3)
    with pytest.raises(AttributeError):
        T.t = np.zeros(3)
    with pytest.raises(ValueError):
        T.R[0, 0] = 2.0  # read-only array


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [3, 6])
def test_batch_matches_scalar(m):
    rng = np.random.default_rng(14)
    xis = rng.normal(0, 0.7, size=(200, m))
    mats = exp_many(xis)
    for k in (0, 57, 199):
        npt.assert_allclose(mats[k], exp_map(xis[k]).matrix(), atol=1e-12)
    npt.assert_allclose(log_many(mats), xis, atol=1e-9)
    eye = np.broadcast_to(np.eye(mats.shape[1]), mats.shape)
    npt.assert_allclose(inv_many(mats) @ mats, eye, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_log_many_reports_offending_angle(dim, sign):
    # one row 1e-12 short of pi among ordinary rows: the error names its angle
    angle = sign * (np.pi - 1e-12)
    rng = np.random.default_rng(15)
    xis = rng.normal(0, 0.3, size=(5, 3 if dim == 2 else 6))
    mats = exp_many(xis)
    if dim == 2:
        mats[3] = Pose.planar(0.5, -0.2, angle).matrix()
    else:
        mats[3] = Pose(rotation(angle * np.array([0.0, 0.6, 0.8])), [0.5, -0.2, 1.0]).matrix()
    with pytest.raises(SingularLogError) as info:
        log_many(mats)
    expected = angle if dim == 2 else abs(angle)  # SO(3) angles are nonnegative
    assert info.value.angle != np.pi
    assert abs(info.value.angle - expected) < 1e-14


# ---------------------------------------------------------------------------
# stacked Pose checks
# ---------------------------------------------------------------------------

def test_checked_pose_blocks_follow_pose_constructor(monkeypatch):
    import sys

    import corrpose.liegroup as lg
    from corrpose.liegroup import checked_pose_blocks

    # Pose is a one-row view of the block kernels, bit for bit
    rng = np.random.default_rng(16)
    for _ in range(50):
        x, y, theta = rng.normal(0.0, 3.0, size=3)
        P = Pose.planar(x, y, theta)
        R, t = lg.planar_blocks(np.array([x]), np.array([y]), np.array([theta]))
        npt.assert_array_equal(P.R, R[0])
        npt.assert_array_equal(P.t, t[0])
        for A, B in ((P, Pose.planar(*rng.normal(size=3))),
                     (exp_map(rng.normal(size=6)), exp_map(rng.normal(size=6)))):
            for got, (R, t) in ((A.inverse(), lg.invert_blocks(A.R[None], A.t[None])),
                                (A @ B, lg.compose_blocks(A.R[None], A.t[None],
                                                          B.R[None], B.t[None])),
                                (A.inverse() @ B, lg.compose_blocks(
                                    *lg.invert_blocks(A.R[None], A.t[None]),
                                    B.R[None], B.t[None]))):
                npt.assert_array_equal(got.R, R[0])
                npt.assert_array_equal(got.t, t[0])
            npt.assert_array_equal(A.matrix(), lg.homogeneous(A.R[None], A.t[None])[0])
        v = rng.normal(size=3)
        npt.assert_array_equal(lg.skew(v), lg._skew_many(v[None])[0])

    # a drifted Pose is repaired once, by checked_pose_blocks
    R0 = rotation(rng.normal(size=3))
    checks, repairs = [], []
    real_check, real_project = lg.checked_pose_blocks, lg.project_rotation
    monkeypatch.setattr(lg, "checked_pose_blocks",
                        lambda R, t: checks.append(R.shape) or real_check(R, t))
    monkeypatch.setattr(lg, "project_rotation", lambda R: repairs.append(
        sys._getframe(1).f_code.co_name) or real_project(R))
    P = Pose(R0 * (1.0 + 1e-6), [1.0, 2.0, 3.0])
    assert checks == [(1, 3, 3)] and repairs == ["checked_pose_blocks"]
    assert np.linalg.norm(P.R.T @ P.R - np.eye(3)) < 1e-14
    monkeypatch.undo()

    R = np.stack([rotation(rng.normal(size=3)) for _ in range(4)])
    t = rng.normal(size=(4, 3))
    assert checked_pose_blocks(R, t) is R  # nothing to repair: no copy
    drifted = R.copy()
    drifted[2] = drifted[2] * (1.0 + 1e-6)  # renormalizable drift
    out = checked_pose_blocks(drifted, t)
    npt.assert_array_equal(out[2], Pose(drifted[2], t[2]).R)
    npt.assert_array_equal(out[[0, 1, 3]], R[[0, 1, 3]])
    scaled = R.copy()
    scaled[1] *= 2.0
    reflected = R.copy()
    reflected[2] *= -1.0
    for broken, row, message in ((scaled, 1, "not orthonormal"), (reflected, 2, "determinant")):
        with pytest.raises(ValueError, match=message):
            Pose(broken[row], t[row])
        with pytest.raises(ValueError, match=message):
            checked_pose_blocks(broken, t)
    bad_t = t.copy()
    bad_t[0, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        checked_pose_blocks(R, bad_t)


# ---------------------------------------------------------------------------
# the one SE(3) log against 40-digit exponentials
# ---------------------------------------------------------------------------

# Largest error against the twist of a 40-digit exponential rounded to floats
# (rho of size up to ~10): 3.4e-15 in the random band, 1.8e-15 around
# _SMALL_ANGLE and 8.9e-16 around _VINV_CUTOFF, with V^-1's curvature
# coefficient of the angle alone (it took 1 - cos from the matrix trace and
# read 9.4e-12 and 1.5e-11 there); 6.7e-12 near pi, from the rows just
# outside _AXIS_BRANCH, where w carries eps / (pi - angle) relative error.
def test_log_many_against_mpmath_exponentials():
    from oracles import mp_exp_many

    from corrpose.liegroup import _AXIS_BRANCH, _SMALL_ANGLE, _VINV_CUTOFF

    rng = np.random.default_rng(17)
    bands = [
        np.concatenate([[0.0, 0.0], np.exp(rng.uniform(np.log(1e-9), np.log(3.0), 2000))]),
        _SMALL_ANGLE * np.exp(rng.uniform(-0.1, 0.1, 200)),
        _VINV_CUTOFF * np.exp(rng.uniform(-0.1, 0.1, 200)),
        np.pi - _AXIS_BRANCH * np.exp(rng.uniform(-2.0, 0.5, 200)),
    ]
    for angles, bound in zip(bands, (1e-14, 1e-14, 5e-15, 2e-11)):
        axes = rng.normal(size=(angles.size, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        xis = np.column_stack([rng.normal(0, 3.0, size=(angles.size, 3)), angles[:, None] * axes])
        got = log_many(mp_exp_many(xis))
        assert np.abs(got - xis).max() <= bound


def test_log_many_names_first_singular_row():
    rng = np.random.default_rng(18)
    R = np.stack([rotation(rng.normal(0, 0.3, 3)) for _ in range(6)])
    t = rng.normal(size=(6, 3))
    for row, angle in ((2, np.pi - 1e-12), (4, np.pi)):
        R[row] = rotation(angle * np.array([0.0, 0.6, 0.8]))
    mats = np.stack([Pose(Rk, tk).matrix() for Rk, tk in zip(R, t)])
    with pytest.raises(SingularLogError) as info:
        log_many(mats)
    with pytest.raises(SingularLogError) as one:
        log_map(Pose(R[2], t[2]))
    assert info.value.row == 2
    assert info.value.angle == one.value.angle


def test_log_many_masked_near_pi_axis_branch():
    # the masked log has the axis branch too: same bound as log_map near pi
    from corrpose.liegroup import log_many_masked

    rng = np.random.default_rng(44)
    for gap in (9e-5, 1e-6, 2e-9):
        axes = rng.normal(size=(20, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        xis = np.column_stack([rng.normal(0, 1, (20, 3)), (np.pi - gap) * axes])
        got, ok = log_many_masked(exp_many(xis))
        assert ok.all()
        npt.assert_allclose(got, xis, atol=1e-12)


def test_log_many_masked_pi_rows_do_not_raise():
    from corrpose.liegroup import log_many_masked

    mats = exp_many(np.array([[0.1, 0.2, 0.3, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]))
    mats[1, :3, :3] = np.diag([-1.0, -1.0, 1.0])
    with np.errstate(all="raise"):
        out, ok = log_many_masked(mats)
    assert ok.tolist() == [True, False]
    npt.assert_allclose(out[0], [0.1, 0.2, 0.3, 0.0, 0.0, 0.5], atol=1e-15)


# (1 - cos t)/t against 40 digits: sin(t) tan(t/2)/t has no cancellation
# just above _COEFF_CUTOFF, where 1 - cos t lost up to 2.7e-9 relative
@pytest.mark.parametrize("t", [1.0001e-4, 2e-4, 1e-3, 0.1, 3.0])
def test_one_minus_cos_coefficient_against_mpmath(t):
    import mpmath as mp

    from corrpose.liegroup import _angle_coeffs

    with mp.workdps(40):
        want = float((1 - mp.cos(mp.mpf(t))) / mp.mpf(t))
    got = [
        _angle_coeffs(np.array([t]))[3][0],
        exp_many(np.array([[1.0, 0.0, t]]))[0, 1, 2],  # b rho_x in V rho
        exp_many(np.array([[1.0, 0.0, 0.0, 0.0, 0.0, t]]))[0, 1, 3],
    ]
    assert np.abs(np.array(got) / want - 1.0).max() <= 1e-15


# The angle coefficients from tan(t/2) against 40 digits.  Largest errors
# measured: 3.3e-16 absolute for c, s, a and b, 4.3e-16 relative for s, a and
# b (over |t| in [1e-12, pi] and unwrapped up to 20).  d cancels to
# ~12 eps/t^2 relative just above _VINV_CUTOFF (1.4e-11), but its term of V^-1
# weighs it by t^2: that error is at most 1.6e-16; inside the window and near
# pi d is exact to 1.7e-16 relative.
def test_angle_coefficients_against_mpmath():
    from oracles import mp_angle_coeffs

    from corrpose.liegroup import _COEFF_CUTOFF, _VINV_CUTOFF, _angle_coeffs, _vinv_coeff

    rng = np.random.default_rng(23)
    edges = np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])
    theta = np.concatenate([
        [0.0],
        np.exp(rng.uniform(np.log(1e-12), np.log(np.pi - 1e-9), 1500)),
        np.pi - np.exp(rng.uniform(np.log(1e-9), np.log(1e-2), 200)),
        _COEFF_CUTOFF * np.concatenate([edges, np.exp(rng.uniform(-0.1, 0.1, 200))]),
        _VINV_CUTOFF * np.concatenate([edges, np.exp(rng.uniform(-0.1, 0.1, 200))]),
    ])
    theta = np.concatenate([theta, -theta])
    unwrapped = rng.uniform(-20.0, 20.0, 500)
    for angles in (theta, unwrapped):
        want = mp_angle_coeffs(angles)
        got = np.stack(_angle_coeffs(angles))
        assert np.abs(got - want[:4]).max() <= 4e-16
        nonzero = angles != 0.0
        rel = np.abs(got[1:] - want[1:4])[:, nonzero] / np.abs(want[1:4, nonzero])
        assert rel.max() <= 5e-16
    d, want = _vinv_coeff(theta), mp_angle_coeffs(theta)[4]
    assert (np.abs(d - want) * theta * theta).max() <= 2e-16
    exact = (np.abs(theta) < _VINV_CUTOFF) | (np.abs(theta) > 3.1)
    assert (np.abs(d - want) / want)[exact].max() <= 2e-16


# The SE(3) exponential on columns against 40-digit exponentials (rho of size
# ~3, up to ~10).  Largest errors measured: 3.9e-16 in R and 3.6e-15 in V rho
# for angles up to 3 (2.2e-16 and 1.8e-15 around _COEFF_CUTOFF); unwrapped
# angles up to 20 carry the rounding of |phi| into R: 2.4e-15, and 2.7e-15 in
# V rho.
def test_exp_many_se3_against_mpmath():
    from oracles import mp_exp_many

    from corrpose.liegroup import _COEFF_CUTOFF

    rng = np.random.default_rng(29)
    bands = [
        np.concatenate([[0.0], np.exp(rng.uniform(np.log(1e-9), np.log(3.0), 400))]),
        _COEFF_CUTOFF * np.exp(rng.uniform(-0.1, 0.1, 200)),
        rng.uniform(3.0, 20.0, 200),
    ]
    for angles, bound_R in zip(bands, (1e-15, 1e-15, 5e-15)):
        axes = rng.normal(size=(angles.size, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        xis = np.column_stack([rng.normal(0, 3.0, (angles.size, 3)), angles[:, None] * axes])
        err = np.abs(exp_many(xis) - mp_exp_many(xis))
        assert err[:, :3, :3].max() <= bound_R
        assert err[:, :3, 3].max() <= 8e-15
        assert not err[:, 3].any()


# exp_many computes SE(3) rows on contiguous component rows; neither the
# layout of its input nor the row count may move a bit, and the bits are
# those of the entry-by-entry fill on the twist columns.  The (M, 4, 4)
# result must be C-contiguous float64, the layout the callers' stacked @
# rounds in.
def test_exp_many_se3_bits_do_not_depend_on_layout():
    from oracles import entrywise_se3_exp, pose_matrices

    from corrpose import SampleBatch
    from corrpose.liegroup import _COEFF_CUTOFF as c

    rng = np.random.default_rng(43)
    # zero angles, angles around the Taylor switch and random angles up to 20
    angles = np.concatenate([
        [0.0, 0.0],
        c * np.array([1e-6, 0.01, 0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0]),
        np.exp(rng.uniform(np.log(1e-9), np.log(20.0), 500)),
    ])
    axes = rng.normal(size=(angles.size, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    xis = np.column_stack([rng.normal(0, 3.0, (angles.size, 3)), angles[:, None] * axes])
    xis[0, :3] = 0.0  # the identity
    draws = rng.normal(size=(xis.shape[0], 18))
    draws[:, 6:12] = xis
    view = draws[:, 6:12]
    assert not view.flags.c_contiguous
    got = exp_many(view)
    assert got.dtype == np.float64 and got.shape == (xis.shape[0], 4, 4)
    assert got.flags.c_contiguous
    assert got.tobytes() == exp_many(xis).tobytes()
    assert got.tobytes() == entrywise_se3_exp(view).tobytes()
    rows = np.array([exp_map(xi).matrix() for xi in xis])
    assert got.tobytes() == rows.tobytes()
    assert not (got[0] - np.eye(4)).any()
    # a batch's realized poses are this stack times the block's mean
    means = tuple(random_pose(rng, 3) for _ in range(3))
    poses = pose_matrices(SampleBatch(draws, 6, means), 1)
    assert poses.tobytes() == (exp_many(xis) @ means[1].matrix()).tobytes()


def test_stack_kernels_take_no_sine_or_cosine(monkeypatch):
    # every angle coefficient of the stack kernels comes from tan(t/2)
    import corrpose.graph as gr
    import corrpose.liegroup as lg

    class NoSineOrCosine:
        def __getattr__(self, name):
            if name in ("sin", "cos"):
                raise AssertionError(f"np.{name} called")
            return getattr(np, name)

    rng = np.random.default_rng(31)
    xi2, xi3 = rng.normal(0, 1, (50, 3)), rng.normal(0, 1, (50, 6))
    xi3[0, 3:] = [0.0, 0.0, np.pi - 1e-6]  # the log's axis branch near pi
    mats = [exp_many(xi2), exp_many(xi3)]
    monkeypatch.setattr(lg, "np", NoSineOrCosine())
    monkeypatch.setattr(gr, "np", NoSineOrCosine())
    for xi, M in zip((xi2, xi3), mats):
        lg.exp_many(xi)
        lg.log_many_masked(M)
        lg.log_between_many(xi, xi[::-1])
    gr._inv_right_jacobian_many(xi2)


# ---------------------------------------------------------------------------
# log_between_many: log(exp(xi1)^-1 exp(xi2)) on twist stacks
# ---------------------------------------------------------------------------

def _planar_between_cases(rng):
    """(theta1, theta2) at the kernel's switch points, with random rho."""
    from corrpose.liegroup import _COEFF_CUTOFF as c

    pi = np.pi
    angles = np.array([
        (0.0, 0.0),  # theta = 0
        (0.5 * c, 0.0), (2 * c, 0.0), (0.0, 0.5 * c), (0.0, 2 * c),  # input Taylor switch
        (-0.5 * c, 0.3 * c), (0.3, 0.3 + 0.5 * c), (0.3, 0.3 - 2 * c),  # relative switch
        (1.0, 1.0 + c),
        (3.0, -3.0), (-3.1, 3.1), (2.9, -2.9), (3.1, -0.1),  # theta2 - theta1 across +-pi
        (-0.5, pi - 0.5 - 1e-10), (0.2, 0.2 - pi + 1e-10),  # inside _PI_MARGIN
        (0.0, pi - 1e-7), (0.0, -pi + 1e-7), (1.0, 1.0 + pi - 5e-9),  # just outside
    ])
    n = angles.shape[0]
    xi1 = np.column_stack([rng.normal(0, 2, (n, 2)), angles[:, 0]])
    xi2 = np.column_stack([rng.normal(0, 2, (n, 2)), angles[:, 1]])
    return xi1, xi2


# Largest difference from the matrix route (entries of size ~2): 1.3e-15 on
# the switch-point cases and 2.7e-15 on the random rows.  With (1 - cos t)/t
# taken as sin(t) tan(t/2)/t neither route loses digits just above
# _COEFF_CUTOFF, where the difference was 7.2e-13 with 1 - cos t.
# The SE(3) kernel is the matrix route.
def test_log_between_many_matches_matrix_route():
    from oracles import matrix_log_between

    from corrpose.liegroup import _angle_coeffs, log_between_many

    rng = np.random.default_rng(40)
    xi1, xi2 = _planar_between_cases(rng)
    cases = [
        (xi1, xi2),
        (rng.normal(0, 1, (20_000, 3)), rng.normal(0, 1, (20_000, 3))),
        (rng.normal(0, 0.5, (20_000, 6)), rng.normal(0, 0.5, (20_000, 6))),
    ]
    for a, b in cases:
        got, ok, coeffs = log_between_many(a, b)
        want, ok_want = matrix_log_between(a, b)
        assert np.array_equal(ok, ok_want)
        assert np.abs(got - want)[ok].max() <= 1e-12
        # the planar kernel's coefficients are those of the angles it returns
        want_coeffs = np.stack(_angle_coeffs(got[:, 2])) if a.shape[1] == 3 else []
        assert np.array_equal(coeffs, np.reshape(want_coeffs, (-1, a.shape[0])))
    _, ok, _ = log_between_many(xi1, xi2)
    assert ok.tolist() == [True] * 13 + [False, False] + [True] * 3


@pytest.mark.parametrize("m", [3, 6])
def test_log_between_many_equal_twists_give_exact_zeros(m):
    from corrpose.liegroup import log_between_many

    xi = np.random.default_rng(41).normal(0, 1, (500, m))
    for a in (xi, np.zeros_like(xi)):
        out, ok, _ = log_between_many(a, a)
        assert ok.all()
        if m == 3:  # the closed form cancels exactly; matrices round
            assert not out.any()
        else:
            assert np.abs(out).max() < 1e-14
    assert not log_between_many(np.zeros((4, m)), np.zeros((4, m)))[0].any()


def test_log_between_many_rejects_mismatched_stacks():
    from corrpose.liegroup import log_between_many

    with pytest.raises(ValueError):
        log_between_many(np.zeros((4, 3)), np.zeros((4, 6)))
    with pytest.raises(ValueError):
        log_between_many(np.zeros(3), np.zeros(3))
