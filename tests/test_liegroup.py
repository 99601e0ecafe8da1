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
    so3_exp,
    vee,
)
from oracles import random_pose, series_exp


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
    R = so3_exp([0.2, -0.5, 0.8])
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
    R = so3_exp([0.1, 0.2, 0.3])
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
        mats[3] = Pose(so3_exp(angle * np.array([0.0, 0.6, 0.8])), [0.5, -0.2, 1.0]).matrix()
    with pytest.raises(SingularLogError) as info:
        log_many(mats)
    expected = angle if dim == 2 else abs(angle)  # SO(3) angles are nonnegative
    assert info.value.angle != np.pi
    assert abs(info.value.angle - expected) < 1e-14


# ---------------------------------------------------------------------------
# stacked Pose checks
# ---------------------------------------------------------------------------

def test_checked_pose_blocks_follow_pose_constructor():
    from corrpose.liegroup import checked_pose_blocks

    rng = np.random.default_rng(16)
    R = np.stack([so3_exp(rng.normal(size=3)) for _ in range(4)])
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
# row-exact stacked SE(3) log
# ---------------------------------------------------------------------------

def test_se3_log_blocks_row_exact_against_log_map():
    from corrpose.liegroup import _AXIS_BRANCH, _SMALL_ANGLE, _VINV_CUTOFF, _se3_log_blocks

    rng = np.random.default_rng(17)
    angles = np.concatenate([
        [0.0, 0.0],
        np.exp(rng.uniform(np.log(1e-9), np.log(3.0), 2000)),
        _SMALL_ANGLE * np.exp(rng.uniform(-0.1, 0.1, 200)),
        _VINV_CUTOFF * np.exp(rng.uniform(-0.1, 0.1, 200)),
        np.pi - _AXIS_BRANCH * np.exp(rng.uniform(-2.0, 0.5, 200)),
    ])
    axes = rng.normal(size=(angles.size, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    R = np.stack([so3_exp(a * u) for a, u in zip(angles, axes)])
    t = rng.normal(0, 3.0, size=(angles.size, 3))
    got = _se3_log_blocks(R, t)
    want = np.stack([log_map(Pose(Rk, tk)) for Rk, tk in zip(R, t)])
    assert np.array_equal(got, want)


def test_se3_log_blocks_names_first_singular_row():
    from corrpose.liegroup import _se3_log_blocks

    rng = np.random.default_rng(18)
    R = np.stack([so3_exp(rng.normal(0, 0.3, 3)) for _ in range(6)])
    t = rng.normal(size=(6, 3))
    for row, angle in ((2, np.pi - 1e-12), (4, np.pi)):
        R[row] = so3_exp(angle * np.array([0.0, 0.6, 0.8]))
    with pytest.raises(SingularLogError) as info:
        _se3_log_blocks(R, t)
    with pytest.raises(SingularLogError) as scalar:
        log_map(Pose(R[2], t[2]))
    assert info.value.row == 2
    assert info.value.angle == scalar.value.angle


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


# Largest difference from the matrix route (entries of size ~2): 4.7e-13 at
# theta just above _COEFF_CUTOFF, where the angle the matrix route recovers
# from a rotation product carries 1e-12 relative error; 3.5e-14 on 1e5
# random rows.  The SE(3) kernel is the matrix route.
def test_log_between_many_matches_matrix_route():
    from oracles import matrix_log_between

    from corrpose.liegroup import log_between_many

    rng = np.random.default_rng(40)
    xi1, xi2 = _planar_between_cases(rng)
    cases = [
        (xi1, xi2),
        (rng.normal(0, 1, (20_000, 3)), rng.normal(0, 1, (20_000, 3))),
        (rng.normal(0, 0.5, (20_000, 6)), rng.normal(0, 0.5, (20_000, 6))),
    ]
    for a, b in cases:
        got, ok = log_between_many(a, b)
        want, ok_want = matrix_log_between(a, b)
        assert np.array_equal(ok, ok_want)
        assert np.abs(got - want)[ok].max() <= 1e-12
    _, ok = log_between_many(xi1, xi2)
    assert ok.tolist() == [True] * 13 + [False, False] + [True] * 3


@pytest.mark.parametrize("m", [3, 6])
def test_log_between_many_equal_twists_give_exact_zeros(m):
    from corrpose.liegroup import log_between_many

    xi = np.random.default_rng(41).normal(0, 1, (500, m))
    for a in (xi, np.zeros_like(xi)):
        out, ok = log_between_many(a, a)
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
