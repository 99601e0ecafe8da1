"""Independent oracles shared by the test modules.

These deliberately avoid the closed forms under test: the exponential is a
truncated matrix power series, logs go through composition identities, and
sample covariances come from raw averaging.
"""

from typing import NamedTuple

import numpy as np

from corrpose import Pose, hat
from corrpose.belief import between, between_ignoring_correlation
from corrpose.experiments import _embed3_many, _log, _ssc_relative_cov, lie_pair_to_ssc
from corrpose.liegroup import exp_many, inv_many, log_many_masked
from corrpose.mc import (
    cov_error,
    normalized_cov_error,
    relative_samples,
    sample_joint,
    twists_about,
)
from corrpose.ssc import params_many, tail_to_tail


def series_exp(xi, max_terms=40, tol=1e-16):
    """Matrix power series exp(hat(xi)) truncated when the term norm < tol."""
    A = hat(xi)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, max_terms):
        term = term @ A / k
        out = out + term
        if np.linalg.norm(term) < tol:
            break
    return out


def series_log(M, max_terms=60):
    """Matrix logarithm series sum (-1)^(k+1) (M - I)^k / k (needs ||M-I|| < 1)."""
    D = np.asarray(M, dtype=float) - np.eye(M.shape[0])
    out = np.zeros_like(D)
    term = np.eye(M.shape[0])
    for k in range(1, max_terms):
        term = term @ D
        out = out + ((-1.0) ** (k + 1)) * term / k
    return out


def numeric_jacobian(f, x, h=1e-6):
    """Central-difference Jacobian of a vector function at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    J = np.zeros((f0.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        dx = np.zeros_like(x)
        dx[k] = h
        J[:, k] = (np.asarray(f(x + dx)) - np.asarray(f(x - dx))) / (2 * h)
    return J


def random_pose(rng, dim, *, angle_scale=1.0, trans_scale=1.0):
    if dim == 2:
        return Pose.planar(
            rng.normal(0, trans_scale), rng.normal(0, trans_scale),
            rng.uniform(-angle_scale, angle_scale),
        )
    from corrpose import so3_exp

    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    R = so3_exp(axis * rng.uniform(-angle_scale, angle_scale))
    return Pose(R, rng.normal(0, trans_scale, 3))


def random_psd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T) / n


def dense_information(solved) -> np.ndarray:
    """Slow, independent assembly of a solved planar graph's twist-space
    information matrix (per-edge scalar central differences + gauge prior)."""
    import scipy.linalg

    from corrpose import exp_map, log_map
    from corrpose.graph import _GAUGE_INFO

    keys = sorted(solved.vertices)
    idx = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    info = np.zeros((3 * n, 3 * n))
    h = 1e-6

    def edge_block(e, which):
        Ti, Tj = solved.vertices[e.i], solved.vertices[e.j]
        J = np.zeros((3, 3))
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            if which == "i":
                rp = log_map(e.measurement.inverse() @ (exp_map(d) @ Ti).inverse() @ Tj)
                rm = log_map(e.measurement.inverse() @ (exp_map(-d) @ Ti).inverse() @ Tj)
            else:
                rp = log_map(e.measurement.inverse() @ Ti.inverse() @ (exp_map(d) @ Tj))
                rm = log_map(e.measurement.inverse() @ Ti.inverse() @ (exp_map(-d) @ Tj))
            diff = rp - rm
            diff[2] = np.arctan2(np.sin(diff[2]), np.cos(diff[2]))
            J[:, k] = diff / (2 * h)
        return J

    for e in solved.edges:
        L = scipy.linalg.cholesky(e.information, lower=True)
        Ji = L.T @ edge_block(e, "i")
        Jj = L.T @ edge_block(e, "j")
        bi, bj = 3 * idx[e.i], 3 * idx[e.j]
        info[bi : bi + 3, bi : bi + 3] += Ji.T @ Ji
        info[bi : bi + 3, bj : bj + 3] += Ji.T @ Jj
        info[bj : bj + 3, bi : bi + 3] += Jj.T @ Ji
        info[bj : bj + 3, bj : bj + 3] += Jj.T @ Jj
    # gauge prior: identity Jacobian at the solution
    info[:3, :3] += _GAUGE_INFO * np.eye(3)
    return info


def six_column_pair_belief(marg, i, j):
    """Pair marginal from a solve of the pair's own six columns on the factor
    of ``marg``: one query at a time, the reference for
    ``Marginals.pair_beliefs``."""
    from corrpose import PosePairBelief

    index = marg._sys.index
    cols = np.concatenate([3 * index[i] + np.arange(3), 3 * index[j] + np.arange(3)])
    E = np.zeros((marg._nvars, 6))
    E[cols, np.arange(6)] = 1.0
    cov = marg._lu.solve(E)[cols, :]
    cov = 0.5 * (cov + cov.T)
    return PosePairBelief((marg._graph.vertices[i], marg._graph.vertices[j]), cov)


def _wrap(a):
    return np.arctan2(np.sin(a), np.cos(a))


def numeric_edge_jacobians(sys_, T, h=1e-6):
    """Central-difference residual Jacobians (Ji, Jj, Jp) of a graph
    ``_System`` at T, perturbing each twist channel by +-h: the solver's
    Jacobian before the closed form, the reference for ``_System.jacobians``."""
    from corrpose.liegroup import exp_many, inv_many, log_many

    E = sys_.ii.shape[0]
    Ji = np.empty((E, 3, 3))
    Jj = np.empty((E, 3, 3))
    Jp = np.empty((3, 3))
    Ti, Tj = T[sys_.ii], T[sys_.jj]
    Ta = T[sys_.anchor]
    for k in range(3):
        d = np.zeros(3)
        d[k] = h
        Ep = exp_many(d[None])[0]
        Em = exp_many(-d[None])[0]
        rp_ = log_many(sys_.Zinv @ inv_many(Ep @ Ti) @ Tj)
        rm_ = log_many(sys_.Zinv @ inv_many(Em @ Ti) @ Tj)
        diff = rp_ - rm_
        diff[:, 2] = _wrap(diff[:, 2])
        Ji[:, :, k] = diff / (2 * h)
        rp_ = log_many(sys_.Zinv @ inv_many(Ti) @ (Ep @ Tj))
        rm_ = log_many(sys_.Zinv @ inv_many(Ti) @ (Em @ Tj))
        diff = rp_ - rm_
        diff[:, 2] = _wrap(diff[:, 2])
        Jj[:, :, k] = diff / (2 * h)
        pp = log_many((Ep @ Ta @ sys_.prior_target_inv)[None])[0]
        pm = log_many((Em @ Ta @ sys_.prior_target_inv)[None])[0]
        dpr = pp - pm
        dpr[2] = _wrap(dpr[2])
        Jp[:, k] = dpr / (2 * h)
    return Ji, Jj, Jp


def series_inv_right_jacobian(xi, terms=14):
    """SE(2) inverse right Jacobian of an (E, 3) twist stack through the
    truncated series Jr = sum (-ad)^k / (k+1)! and a matrix inverse.  Exact
    to rounding for |theta| below about 1; its truncation error reaches 1e-5
    near pi."""
    ad = np.zeros((xi.shape[0], 3, 3))
    ad[:, 0, 1] = -xi[:, 2]
    ad[:, 1, 0] = xi[:, 2]
    ad[:, 0, 2] = xi[:, 1]
    ad[:, 1, 2] = -xi[:, 0]
    J = np.broadcast_to(np.eye(3), ad.shape).copy()
    term = np.broadcast_to(np.eye(3), ad.shape).copy()
    for k in range(1, terms):
        term = term @ (-ad) / (k + 1.0)
        J = J + term
    return np.linalg.inv(J)


# ---------------------------------------------------------------------------
# per-point SSC baseline: the reference for the stacked Jacobians
# ---------------------------------------------------------------------------
#
# One perturbed point at a time through validated Pose objects, exactly as
# the coordinate baseline was first written.  The stack maps in
# corrpose.ssc and corrpose.experiments must match these bit for bit.

def point_ssc_to_pose(x):
    """Pose of a parameter vector: R = Rz(psi) Ry(theta) Rx(phi), t = (x, y, z)."""
    from corrpose.ssc import normalize_params

    x = normalize_params(x)
    cph, sph = np.cos(x[3]), np.sin(x[3])
    cth, sth = np.cos(x[4]), np.sin(x[4])
    cps, sps = np.cos(x[5]), np.sin(x[5])
    R = np.array(
        [
            [cps * cth, cps * sth * sph - sps * cph, cps * sth * cph + sps * sph],
            [sps * cth, sps * sth * sph + cps * cph, sps * sth * cph - cps * sph],
            [-sth, cth * sph, cth * cph],
        ]
    )
    return Pose(R, x[:3])


def point_pose_to_ssc(T):
    """Parameter vector of an SE(3) pose; raises GimbalLockError near |theta| = pi/2."""
    from corrpose.ssc import _GIMBAL_TOL, GimbalLockError

    R = T.R
    theta = float(np.arcsin(np.clip(-float(R[2, 0]), -1.0, 1.0)))
    if np.pi / 2 - abs(theta) < _GIMBAL_TOL:
        raise GimbalLockError(f"pitch {theta!r} is numerically at gimbal lock")
    psi = float(np.arctan2(R[1, 0], R[0, 0]))
    phi = float(np.arctan2(R[2, 1], R[2, 2]))
    return np.array([T.t[0], T.t[1], T.t[2], phi, theta, psi])


def point_compound(x1, x2):
    return point_pose_to_ssc(point_ssc_to_pose(x1) @ point_ssc_to_pose(x2))


def point_inverse(x):
    return point_pose_to_ssc(point_ssc_to_pose(x).inverse())


def point_relative(x1, x2):
    return point_pose_to_ssc(point_ssc_to_pose(x1).inverse() @ point_ssc_to_pose(x2))


def ssc_point_jacobian(f, x, h=1e-6):
    """Central-difference Jacobian with angle-wrapped output differences,
    evaluating f at one perturbed point at a time."""
    from corrpose.ssc import wrap_angle

    x = np.asarray(x, dtype=float)
    J = np.zeros((6, x.shape[0]))
    for k in range(x.shape[0]):
        dx = np.zeros_like(x)
        dx[k] = h
        d = np.asarray(f(x + dx)) - np.asarray(f(x - dx))
        d[3:] = wrap_angle(d[3:])
        J[:, k] = d / (2 * h)
    return J


def _point_propagate(f, b):
    from corrpose.ssc import SscBelief

    J = ssc_point_jacobian(f, b.mean)
    return SscBelief(f(b.mean), J @ b.cov @ J.T)


def point_head_to_tail(b):
    return _point_propagate(lambda z: point_compound(z[:6], z[6:]), b)


def point_ssc_inverse(b):
    return _point_propagate(point_inverse, b)


def point_tail_to_tail(b):
    return _point_propagate(lambda z: point_relative(z[:6], z[6:]), b)


def _point_embed3(T):
    if T.dim == 3:
        return T
    R = np.eye(3)
    R[:2, :2] = T.R
    return Pose(R, np.array([T.t[0], T.t[1], 0.0]))


def point_params_jacobian(T_bar, h=1e-6):
    """d params(exp(hat(xi)) T_bar) / d xi at xi = 0, one twist at a time."""
    from corrpose import exp_map
    from corrpose.ssc import wrap_angle

    m = T_bar.twist_dim
    J = np.zeros((6, m))
    for k in range(m):
        d = np.zeros(m)
        d[k] = h
        xp = point_pose_to_ssc(_point_embed3(exp_map(d) @ T_bar))
        xm = point_pose_to_ssc(_point_embed3(exp_map(-d) @ T_bar))
        diff = xp - xm
        diff[3:] = wrap_angle(diff[3:])
        J[:, k] = diff / (2 * h)
    return J


def point_lie_to_ssc(u):
    from corrpose.ssc import SscBelief

    J = point_params_jacobian(u.mean)
    return SscBelief(point_pose_to_ssc(_point_embed3(u.mean)), J @ u.cov @ J.T)


def point_lie_pair_to_ssc(p):
    from corrpose.ssc import SscBelief

    m = p.block_dim
    J = np.zeros((12, 2 * m))
    J[:6, :m] = point_params_jacobian(p.means[0])
    J[6:, m:] = point_params_jacobian(p.means[1])
    mean = np.concatenate([point_pose_to_ssc(_point_embed3(T)) for T in p.means])
    return SscBelief(mean, J @ p.cov @ J.T)


# ---------------------------------------------------------------------------
# per-point unscented conversion: the reference for the stacked logs
# ---------------------------------------------------------------------------
#
# One sigma point and one pose block at a time through ssc_to_pose, Pose
# products and log_map, as the conversion was first written.  The stacked
# ut_convert / ut_residual_mean must match these bit for bit.

def _point_stacked_log(point, mean_inverses, k):
    from corrpose import log_map
    from corrpose.convert import SigmaPointSingularityError
    from corrpose.liegroup import SingularLogError
    from corrpose.ssc import ssc_to_pose

    n = len(mean_inverses)
    out = np.empty(6 * n)
    for i in range(n):
        block = point[6 * i : 6 * i + 6]
        try:
            out[6 * i : 6 * i + 6] = log_map(ssc_to_pose(block) @ mean_inverses[i])
        except SingularLogError as e:
            raise SigmaPointSingularityError(k, i, e.angle) from None
    return out


def point_ut_convert(b, cfg=None):
    from corrpose.belief import JointPoseBelief
    from corrpose.convert import UtConfig, sigma_points
    from corrpose.ssc import ssc_to_pose

    points, _, wc = sigma_points(b.mean, b.cov, cfg or UtConfig())
    means = [ssc_to_pose(b.pose_mean(i)) for i in range(b.n)]
    mean_inverses = [T.inverse() for T in means]
    dim = 6 * b.n
    cov = np.zeros((dim, dim))
    for k, (w, point) in enumerate(zip(wc, points)):
        if w == 0.0 or np.array_equal(point, points[0]):
            continue  # l of the central point is zero by construction
        ell = _point_stacked_log(point, mean_inverses, k)
        cov += w * np.outer(ell, ell)
    cov = 0.5 * (cov + cov.T)
    return JointPoseBelief(tuple(range(b.n)), means, cov)


def point_ut_residual_mean(b, cfg=None):
    from corrpose.convert import UtConfig, sigma_points
    from corrpose.ssc import ssc_to_pose

    points, wm, _ = sigma_points(b.mean, b.cov, cfg or UtConfig())
    means = [ssc_to_pose(b.pose_mean(i)) for i in range(b.n)]
    mean_inverses = [T.inverse() for T in means]
    out = np.zeros(6 * b.n)
    for k, (w, point) in enumerate(zip(wm, points)):
        if w == 0.0:
            continue
        out += w * _point_stacked_log(point, mean_inverses, k)
    return out


# ---------------------------------------------------------------------------
# per-pair first-order predictions: the reference for the stacked blocks
# ---------------------------------------------------------------------------
#
# One pair at a time through Pose objects and 2-D matrices, as between() and
# slam-relpose were first written.  belief.between_covs and the stacked
# slam-relpose rows must match these bit for bit.

def point_adjoint(T):
    from corrpose import skew

    if T.dim == 2:
        Ad = np.zeros((3, 3))
        Ad[:2, :2] = T.R
        Ad[0, 2] = T.t[1]
        Ad[1, 2] = -T.t[0]
        Ad[2, 2] = 1.0
        return Ad
    Ad = np.zeros((6, 6))
    Ad[:3, :3] = T.R
    Ad[3:, 3:] = T.R
    Ad[:3, 3:] = skew(T.t) @ T.R
    return Ad


def point_finalize(cov):
    from corrpose.belief import _DEGENERACY_TOL, NumericalDegeneracyError

    cov = 0.5 * (cov + cov.T)
    w, V = np.linalg.eigh(cov)
    if w.min() < _DEGENERACY_TOL:
        raise NumericalDegeneracyError(
            f"propagated covariance has eigenvalue {w.min():.3e} beyond tolerance"
        )
    if w.min() < 0.0:
        cov = (V * np.clip(w, 0.0, None)) @ V.T
        cov = 0.5 * (cov + cov.T)
    return cov


def point_validated_cov(cov, what="covariance"):
    from corrpose.belief import _PSD_TOL, _SYM_TOL

    cov = np.asarray(cov, dtype=float)
    if not np.isfinite(cov).all():
        raise ValueError(f"{what} entries must be finite")
    scale = max(1.0, float(np.abs(cov).max()))
    if np.abs(cov - cov.T).max() > _SYM_TOL * scale:
        raise ValueError(f"{what} is not symmetric within tolerance")
    cov = 0.5 * (cov + cov.T)
    if np.linalg.eigvalsh(cov).min() < _PSD_TOL * scale:
        raise ValueError(f"{what} is not positive semi-definite within tolerance")
    return cov


def point_between(p, *, use_cross=True):
    """(mean, cov) of between(p), or of between_ignoring_correlation(p)."""
    T_ij, T_ik = p.means
    T_ij_inv = T_ij.inverse()
    Ad = point_adjoint(T_ij_inv)
    inner = p.sigma1 + p.sigma2
    if use_cross:
        inner = inner - p.cross - p.cross.T
    return T_ij_inv @ T_ik, point_validated_cov(point_finalize(Ad @ inner @ Ad.T))


def _pair_rows_against(pb, offset, i, j, methods, oracle):
    """slam-relpose CSV rows of one pair against ``oracle() -> (twist
    covariance, function giving the parameter-space covariance)``."""
    try:
        mc_twist, mc_params = oracle()

        s1, s2, cross = pb.sigma1, pb.sigma2, pb.cross
        corr = [
            cross[c, c] / np.sqrt(s1[c, c] * s2[c, c]) if s1[c, c] * s2[c, c] > 0 else 0.0
            for c in range(3)
        ]

        rows = []
        for method in methods:
            if method == "lie-correlated":
                pred = between(pb).cov
                err = cov_error(pred, mc_twist)
                nerr = normalized_cov_error(pred, mc_twist)
            elif method == "lie-independent":
                pred = between_ignoring_correlation(pb).cov
                err = cov_error(pred, mc_twist)
                nerr = normalized_cov_error(pred, mc_twist)
            else:
                pred = tail_to_tail(lie_pair_to_ssc(pb)).cov
                mc_par = mc_params()
                err = cov_error(pred, mc_par)
                nerr = normalized_cov_error(pred, mc_par)
            rows.append((offset, i, j, method, err, nerr, *corr, 0))
        return rows
    except (ArithmeticError, ValueError, RuntimeError) as e:
        _log(f"slam-relpose pair ({i},{j}) failed: {e}")
        return [(offset, i, j, m, "", "", "", "", "", 1) for m in methods]


def point_pair_rows(pb, offset, i, j, M, methods, seed):
    """slam-relpose CSV rows of one pair, everything computed for that pair
    alone; the samples come from a one-pair ``mc.relative_samples`` call."""

    def oracle():
        s = relative_samples([pb], M, [seed])
        xis = s.twists[0][s.kept[0]]
        return xis.T @ xis / xis.shape[0], lambda: _ssc_relative_cov(s.t[0], xis)

    return _pair_rows_against(pb, offset, i, j, methods, oracle)


# ---------------------------------------------------------------------------
# per-pair Monte-Carlo relative poses through matrices: the reference for the
# conjugated relative-twist oracle
# ---------------------------------------------------------------------------
#
# The oracle as it was first written: realized pose matrices of each draw,
# their relative poses, and one logarithm about the predicted mean, one
# pair at a time.  mc.relative_samples and its SSC parameter truth must
# agree with these to rounding.

class MatrixRelativeSamples(NamedTuple):
    mean: Pose  # predicted relative pose T_bar_12 = T_bar_1^-1 T_bar_2
    mats: np.ndarray  # (M, d+1, d+1) sampled relative poses T_m
    twists: np.ndarray  # (M, m) log(T_m T_bar_12^-1), unspecified where not kept
    kept: np.ndarray  # (M,) False where the logarithm hit its branch boundary


def matrix_relative_samples(b, M, seed):
    batch = sample_joint(b, M, seed)
    T1 = batch.pose_matrices(0)
    T2 = batch.pose_matrices(1)
    Tm = inv_many(T1) @ T2
    rel = b.means[0].inverse() @ b.means[1]
    xis, ok = twists_about(Tm, rel)
    return MatrixRelativeSamples(rel, Tm, xis, ok)


def matrix_log_between(xi1, xi2):
    """log(exp(xi1)^-1 exp(xi2)) and its mask through homogeneous matrices."""
    return log_many_masked(inv_many(exp_many(xi1)) @ exp_many(xi2))


def matrix_pair_rows(pb, offset, i, j, M, methods, seed):
    """point_pair_rows with the matrix oracle and its params_many parameter truth."""

    def oracle():
        samples = matrix_relative_samples(pb, M, seed)
        xis = samples.twists[samples.kept]

        def mc_params():
            # parameter-space ground truth from the same relative samples
            T_ok = samples.mats[samples.kept]
            rel = samples.mean
            r = params_many(_embed3_many(T_ok[:, :2, :2], T_ok[:, :2, 2]))
            r -= params_many(_embed3_many(rel.R[None], rel.t[None]))[0]
            r[:, 3:] = np.arctan2(np.sin(r[:, 3:]), np.cos(r[:, 3:]))
            return r.T @ r / r.shape[0]

        return xis.T @ xis / xis.shape[0], mc_params

    return _pair_rows_against(pb, offset, i, j, methods, oracle)


def patch_point_pair_rows(monkeypatch, pair_rows=point_pair_rows):
    """Make slam-relpose compute every pair alone through ``pair_rows``
    (point_pair_rows or matrix_pair_rows), with the per-point predictions
    above."""
    import sys

    from corrpose import experiments
    from corrpose.belief import UncertainPose

    oracles = sys.modules[__name__]
    monkeypatch.setattr(experiments, "_block_predictions", lambda block, methods: block)
    monkeypatch.setattr(
        experiments, "_block_oracles", lambda block, M, seeds: [(M, s) for s in seeds]
    )
    monkeypatch.setattr(
        experiments, "_pair_rows",
        lambda pb, pred, drawn, offset, i, j, methods: pair_rows(
            pb, offset, i, j, drawn[0], methods, drawn[1]
        ),
    )
    monkeypatch.setattr(oracles, "between", lambda p: UncertainPose(*point_between(p)))
    monkeypatch.setattr(
        oracles, "between_ignoring_correlation",
        lambda p: UncertainPose(*point_between(p, use_cross=False)),
    )
    monkeypatch.setattr(oracles, "tail_to_tail", point_tail_to_tail)
    monkeypatch.setattr(oracles, "lie_pair_to_ssc", point_lie_pair_to_ssc)


# ---------------------------------------------------------------------------
# 40-digit relative twists: the accuracy reference for both oracle routes
# ---------------------------------------------------------------------------

def _mp_skew(v):
    import mpmath as mp

    return mp.matrix([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


def _mp_pose(R, t):
    import mpmath as mp

    n = len(t)
    T = mp.eye(n + 1)
    for i in range(n):
        for j in range(n):
            T[i, j] = R[i, j]
        T[i, n] = t[i]
    return T


def _mp_exp(xi):
    import mpmath as mp

    if len(xi) == 3:
        th = xi[2]
        a, b = (mp.sin(th) / th, (1 - mp.cos(th)) / th) if th else (mp.mpf(1), mp.mpf(0))
        R = mp.matrix([[mp.cos(th), -mp.sin(th)], [mp.sin(th), mp.cos(th)]])
        return _mp_pose(R, [a * xi[0] - b * xi[1], b * xi[0] + a * xi[1]])
    phi = xi[3:]
    th = mp.sqrt(sum(p * p for p in phi))
    K = _mp_skew(phi)
    A, B, C = mp.sin(th) / th, (1 - mp.cos(th)) / th**2, (th - mp.sin(th)) / th**3
    V = mp.eye(3) + B * K + C * K * K
    return _mp_pose(mp.eye(3) + A * K + B * K * K, V * mp.matrix(xi[:3]))


def _mp_log(T):
    import mpmath as mp

    if T.rows == 3:
        th = mp.atan2(T[1, 0], T[0, 0])
        a, b = mp.sin(th) / th, (1 - mp.cos(th)) / th
        det = a * a + b * b
        return [(a * T[0, 2] + b * T[1, 2]) / det, (-b * T[0, 2] + a * T[1, 2]) / det, th]
    th = mp.acos((T[0, 0] + T[1, 1] + T[2, 2] - 1) / 2)
    w = [(T[2, 1] - T[1, 2]) / 2, (T[0, 2] - T[2, 0]) / 2, (T[1, 0] - T[0, 1]) / 2]
    phi = [x * th / mp.sin(th) for x in w]
    K = _mp_skew(phi)
    d = (1 - th * mp.sin(th) / (2 * (1 - mp.cos(th)))) / th**2
    rho = (mp.eye(3) - K / 2 + d * K * K) * mp.matrix([T[0, 3], T[1, 3], T[2, 3]])
    return [rho[0], rho[1], rho[2]] + phi


def _mp_inv(T):
    n = T.rows - 1
    Rt = T[:n, :n].T
    return _mp_pose(Rt, -(Rt * T[:n, n]))


def mp_relative_twists(pair, draws, dps=40):
    """log(T_m T_bar_12^-1) of each joint draw (xi_1, xi_2) of a pair, the
    matrix definition evaluated with ``dps`` digits and rounded to floats.
    The draws and the mean poses' float entries are taken as exact; angles
    must stay away from 0 and pi."""
    import mpmath as mp

    m = pair.block_dim
    with mp.workdps(dps):
        T1, T2 = (_mp_pose(mp.matrix(T.R.tolist()), T.t.tolist()) for T in pair.means)
        rel_inv = _mp_inv(_mp_inv(T1) * T2)
        out = []
        for z in draws:
            xi = [mp.mpf(float(v)) for v in z]
            Tm = _mp_inv(_mp_exp(xi[:m]) * T1) * (_mp_exp(xi[m:]) * T2)
            out.append([float(v) for v in _mp_log(Tm * rel_inv)])
    return np.array(out)
