"""Independent oracles shared by the test modules.

These deliberately avoid the closed forms under test: the exponential is a
truncated matrix power series, logs go through composition identities, and
sample covariances come from raw averaging.
"""

from typing import NamedTuple

import numpy as np

from corrpose import Pose, hat
from corrpose.belief import between, between_ignoring_correlation
from corrpose.experiments import _PLANAR_BLOCK, _embed3, _log, lie_pair_to_ssc
from corrpose.liegroup import _angle_coeffs, exp_many, homogeneous, inv_many, log_many_masked
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
    from corrpose import exp_map

    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    R = exp_map(np.r_[np.zeros(3), axis * rng.uniform(-angle_scale, angle_scale)]).R
    return Pose(R, rng.normal(0, trans_scale, 3))


def random_psd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T) / n


def dense_information(solved) -> np.ndarray:
    """Slow, independent assembly of a solved planar graph's 3n x 3n
    twist-space information matrix from per-edge scalar central
    differences, every vertex included: singular by the gauge freedom."""
    import scipy.linalg

    from corrpose import exp_map, log_map

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
    return info


def dense_covariance(solved) -> np.ndarray:
    """3n x 3n twist covariance of a solved planar graph with its
    lowest-keyed vertex held fixed: the dense inverse of
    :func:`dense_information` without that vertex's rows and columns, and
    zeros in them."""
    info = dense_information(solved)
    cov = np.zeros_like(info)
    cov[3:, 3:] = np.linalg.inv(info[3:, 3:])
    return cov


def six_column_pair_belief(marg, i, j):
    """Pair marginal from a solve of the pair's own six columns on the factor
    of ``marg`` (three when one vertex is the fixed vertex 0, whose blocks
    are zero): one query at a time, the reference for
    ``Marginals.pair_beliefs``."""
    from corrpose import PosePairBelief

    index = marg._sys.index
    cols = (3 * (np.array([index[i], index[j]])[:, None] - 1) + np.arange(3)).ravel()
    free = np.flatnonzero(cols >= 0)
    E = np.zeros((marg._lu.shape[0], free.shape[0]))
    E[cols[free], np.arange(free.shape[0])] = 1.0
    cov = np.zeros((6, 6))
    cov[np.ix_(free, free)] = marg._lu.solve(E)[cols[free], :]
    cov = 0.5 * (cov + cov.T)
    return PosePairBelief((marg._graph.vertices[i], marg._graph.vertices[j]), cov)


def point_generate_grid_world(n_poses=500, seed=0, *, trans_sigma=0.14, rot_sigma=0.1,
                              loop_prob=0.5, min_loop_gap=20, step_length=1.0):
    """``graph.generate_grid_world`` with one noise draw and one exp_map per
    edge, as it was first written: the reference for the one-call edge noise."""
    from corrpose import exp_map
    from corrpose.graph import Edge, PoseGraph

    rng = np.random.default_rng(seed)
    q = np.array([trans_sigma, trans_sigma, rot_sigma])
    info = np.diag(1.0 / q ** 2)

    gt = [Pose.identity(2)]
    cells = {(0, 0): [0]}
    loops = []
    for k in range(1, n_poses):
        turn = rng.choice([0.0, np.pi / 2, -np.pi / 2], p=[0.6, 0.2, 0.2])
        motion = Pose.planar(
            step_length * np.cos(turn), step_length * np.sin(turn), turn
        )
        pose = gt[-1] @ motion
        gt.append(pose)
        cell = (int(round(pose.t[0])), int(round(pose.t[1])))
        for prev in cells.get(cell, []):
            if k - prev >= min_loop_gap and rng.uniform() < loop_prob:
                loops.append((prev, k))
                break
        cells.setdefault(cell, []).append(k)

    def noisy(rel):
        return exp_map(rng.normal(0.0, q)) @ rel

    edges = []
    for k in range(n_poses - 1):
        rel = gt[k].inverse() @ gt[k + 1]
        edges.append(Edge(k, k + 1, noisy(rel), info))
    for a, b in loops:
        rel = gt[a].inverse() @ gt[b]
        edges.append(Edge(a, b, noisy(rel), info))

    vertices = {0: gt[0]}
    odo = {(e.i, e.j): e.measurement for e in edges[: n_poses - 1]}
    for k in range(1, n_poses):
        vertices[k] = vertices[k - 1] @ odo[(k - 1, k)]
    return PoseGraph(vertices, edges)


def point_load_graph(path):
    """``graph.load_graph`` one line at a time, a ``Pose`` and an ``Edge`` per
    record, as it was first written: the reference for the array loader."""
    from corrpose.graph import (
        _EDGE_TAGS,
        _VERTEX_TAGS,
        Edge,
        GraphParseError,
        GraphValidationError,
        PoseGraph,
    )

    vertices = {}
    edges = []
    skipped = 0
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.split()
            tag = tok[0]
            try:
                if tag in _VERTEX_TAGS:
                    if len(tok) != 5:
                        raise ValueError(f"expected 4 fields after {tag}, got {len(tok) - 1}")
                    key = int(tok[1])
                    x, y, th = (float(v) for v in tok[2:5])
                    vertices[key] = Pose.planar(x, y, th)
                elif tag in _EDGE_TAGS:
                    if len(tok) != 12:
                        raise ValueError(f"expected 11 fields after {tag}, got {len(tok) - 1}")
                    i, j = int(tok[1]), int(tok[2])
                    dx, dy, dth = (float(v) for v in tok[3:6])
                    u = [float(v) for v in tok[6:12]]
                    info = np.array(
                        [[u[0], u[1], u[2]], [u[1], u[3], u[4]], [u[2], u[4], u[5]]]
                    )
                    edges.append(Edge(i, j, Pose.planar(dx, dy, dth), info))
                else:
                    skipped += 1
            except (ValueError, OverflowError) as e:
                if isinstance(e, GraphValidationError):
                    raise
                raise GraphParseError(line_no, str(e)) from None
    return PoseGraph(vertices, edges, skipped_lines=skipped)


def _wrap(a):
    return np.arctan2(np.sin(a), np.cos(a))


def numeric_edge_jacobians(sys_, T, h=1e-6):
    """Central-difference residual Jacobians (Ji, Jj) of a graph ``_System``
    at T, perturbing each twist channel by +-h: the solver's Jacobian before
    the closed form, the reference for ``_System.jacobians`` (which is Jj,
    with Ji = -Jj)."""
    from corrpose.liegroup import exp_many, inv_many, log_many

    E = sys_.ii.shape[0]
    Ji = np.empty((E, 3, 3))
    Jj = np.empty((E, 3, 3))
    Ti, Tj = T[sys_.ii], T[sys_.jj]
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
    return Ji, Jj


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
# the coordinate baseline was first written.  The means of the stack maps in
# corrpose.ssc and corrpose.experiments must match these bit for bit; their
# closed-form Jacobians must agree with these central differences to the
# differences' truncation error.

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


def ssc_matrices(params):
    """(M, 4, 4) homogeneous matrices of an (M, 6) parameter stack."""
    from corrpose.ssc import _pose_blocks

    return homogeneous(*_pose_blocks(np.asarray(params, dtype=float)))


def point_compound(x1, x2):
    return point_pose_to_ssc(point_ssc_to_pose(x1) @ point_ssc_to_pose(x2))


def point_inverse(x):
    return point_pose_to_ssc(point_ssc_to_pose(x).inverse())


def point_relative(x1, x2):
    return point_pose_to_ssc(point_ssc_to_pose(x1).inverse() @ point_ssc_to_pose(x2))


def gap(got, want):
    """Largest entry of |got - want| relative to the largest entry of |want|."""
    return np.abs(got - want).max() / np.abs(want).max()


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


def _ssc_relative_cov(t_bar, xis):
    """(6, 6) Euler-parameter sample covariance of one pair's kept planar
    relative samples, its residuals ((R(theta) - I) t_bar + V(theta) rho,
    theta) formed from the twists alone: the per-pair reference for
    ``experiments._ssc_relative_covs``."""
    c, s, a, b = _angle_coeffs(xis[:, 2])
    rx, ry = xis[:, 0], xis[:, 1]
    r = np.empty((xis.shape[0], 3))
    r[:, 0] = (c - 1.0) * t_bar[0] - s * t_bar[1] + (a * rx - b * ry)
    r[:, 1] = s * t_bar[0] + (c - 1.0) * t_bar[1] + (b * rx + a * ry)
    r[:, 2] = xis[:, 2]
    mc = np.zeros((6, 6))
    mc[_PLANAR_BLOCK] = r.T @ r / r.shape[0]
    return mc


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
            r = params_many(homogeneous(*_embed3(T_ok[:, :2, :2], T_ok[:, :2, 2])))
            r -= params_many(homogeneous(*_embed3(rel.R[None], rel.t[None])))[0]
            r[:, 3:] = np.arctan2(np.sin(r[:, 3:]), np.cos(r[:, 3:]))
            return r.T @ r / r.shape[0]

        return xis.T @ xis / xis.shape[0], mc_params

    return _pair_rows_against(pb, offset, i, j, methods, oracle)


def patch_point_pair_rows(monkeypatch, pair_rows=point_pair_rows):
    """Make slam-relpose compute every pair alone through ``pair_rows``
    (point_pair_rows or matrix_pair_rows), with the per-point twist-space
    predictions above and the package's one-pair SSC prediction.  The
    oracle pass only hands each pair's draw count to the row pass, which
    runs ``pair_rows``, oracle included, on one pair at a time."""
    import sys

    from corrpose import experiments
    from corrpose.belief import UncertainPose

    oracles = sys.modules[__name__]
    monkeypatch.setattr(experiments, "_oracle_moments",
                        lambda items, M, methods: [M] * len(items))
    monkeypatch.setattr(
        experiments, "_pair_rows",
        lambda items, draws, methods: [pair_rows(pb, *key, M, methods, seed)
                                       for (pb, seed, key), M in zip(items, draws)],
    )
    monkeypatch.setattr(oracles, "between", lambda p: UncertainPose(*point_between(p)))
    monkeypatch.setattr(
        oracles, "between_ignoring_correlation",
        lambda p: UncertainPose(*point_between(p, use_cross=False)),
    )


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
    if th:
        A, B, C = mp.sin(th) / th, (1 - mp.cos(th)) / th**2, (th - mp.sin(th)) / th**3
    else:
        A, B, C = mp.mpf(1), mp.mpf(1) / 2, mp.mpf(1) / 6
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


def _mp_euler_pose(x):
    """Pose of a parameter vector: R = Rz(psi) Ry(theta) Rx(phi), t = (x, y, z)."""
    import mpmath as mp

    cph, sph = mp.cos(x[3]), mp.sin(x[3])
    cth, sth = mp.cos(x[4]), mp.sin(x[4])
    cps, sps = mp.cos(x[5]), mp.sin(x[5])
    R = mp.matrix(
        [
            [cps * cth, cps * sth * sph - sps * cph, cps * sth * cph + sps * sph],
            [sps * cth, sps * sth * sph + cps * cph, sps * sth * cph - cps * sph],
            [-sth, cth * sph, cth * cph],
        ]
    )
    return _mp_pose(R, x[:3])


def _mp_params(T):
    """Parameter vector of an SE(3) pose, or of an SE(2) pose embedded with
    z = roll = pitch = 0."""
    import mpmath as mp

    if T.rows == 3:
        return [T[0, 2], T[1, 2], mp.mpf(0), mp.mpf(0), mp.mpf(0), mp.atan2(T[1, 0], T[0, 0])]
    return [T[0, 3], T[1, 3], T[2, 3], mp.atan2(T[2, 1], T[2, 2]), mp.asin(-T[2, 0]),
            mp.atan2(T[1, 0], T[0, 0])]


# The coordinate baseline's maps on 40-digit parameter vectors.
MP_SSC_MAPS = {
    "compound": lambda z: _mp_params(_mp_euler_pose(z[:6]) * _mp_euler_pose(z[6:])),
    "inverse": lambda x: _mp_params(_mp_inv(_mp_euler_pose(x))),
    "relative": lambda z: _mp_params(_mp_inv(_mp_euler_pose(z[:6])) * _mp_euler_pose(z[6:])),
}


def mp_jacobian(f, x, dps=40):
    """Jacobian at the float vector ``x`` of ``f``, which maps lists of mpf
    to parameter vectors, rounded to floats.  A central difference with
    step 1e-15 evaluated with ``dps`` digits: its truncation error is near
    1e-30 and its rounding error near 1e-25, so every float digit is
    exact.  Angle differences are wrapped into (-pi, pi]."""
    import mpmath as mp

    with mp.workdps(dps):
        h = mp.mpf("1e-15")
        x = [mp.mpf(float(v)) for v in x]
        cols = []
        for k in range(len(x)):
            up, down = list(x), list(x)
            up[k] += h
            down[k] -= h
            d = [a - b for a, b in zip(f(up), f(down))]
            d[3:] = [a - 2 * mp.pi * mp.nint(a / (2 * mp.pi)) for a in d[3:]]
            cols.append([float(v / (2 * h)) for v in d])
    return np.array(cols).T


def mp_params_jacobian(T_bar, dps=40):
    """d params(exp(hat(xi)) T_bar) / d xi at xi = 0, with 40-digit reference
    arithmetic; T_bar's float entries are taken as exact."""
    import mpmath as mp

    R, t = T_bar.R.tolist(), T_bar.t.tolist()
    return mp_jacobian(lambda xi: _mp_params(_mp_exp(xi) * _mp_pose(mp.matrix(R), t)),
                       np.zeros(T_bar.twist_dim), dps)


def entrywise_se3_exp(xis):
    """SE(3) exponentials of an (M, 6) twist stack, filled entry by entry into
    an (M, 4, 4) stack on the twist columns: the expressions of
    ``exp_many`` in their order, without its row copy, buffer or shared
    product.  The two agree bit for bit."""
    from corrpose.liegroup import _COEFF_CUTOFF

    rho, phi = xis[:, :3], xis[:, 3:]
    theta = np.sqrt(phi[:, 0] ** 2 + phi[:, 1] ** 2 + phi[:, 2] ** 2)
    c, s, a, b = _angle_coeffs(theta)
    t2 = theta * theta
    with np.errstate(divide="ignore", invalid="ignore"):
        b = b / theta
        cc = (theta - s) / (theta * t2)
    small = np.flatnonzero(theta < _COEFF_CUTOFF)
    t2 = t2[small]
    b[small] = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    cc[small] = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    cc *= phi[:, 0] * rho[:, 0] + phi[:, 1] * rho[:, 1] + phi[:, 2] * rho[:, 2]
    out = np.zeros((xis.shape[0], 4, 4))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[:, i, i] = b * phi[:, i] * phi[:, i] + c
        out[:, i, j] = b * phi[:, i] * phi[:, j] - a * phi[:, k]
        out[:, j, i] = b * phi[:, i] * phi[:, j] + a * phi[:, k]
        out[:, i, 3] = (a * rho[:, i] + b * (phi[:, j] * rho[:, k] - phi[:, k] * rho[:, j])
                        + cc * phi[:, i])
    out[:, 3, 3] = 1.0
    return out


def mp_angle_coeffs(theta, dps=40):
    """(5, M) rows cos t, sin t, sin(t)/t, (1 - cos t)/t and
    (1 - (t/2) cot(t/2))/t^2 of float angles, evaluated with ``dps`` digits
    and rounded to floats; t = 0 takes the limits 1, 0, 1, 0 and 1/12."""
    import mpmath as mp

    out = []
    with mp.workdps(dps):
        for v in theta:
            t = mp.mpf(float(v))
            if t == 0:
                out.append([1.0, 0.0, 1.0, 0.0, 1.0 / 12.0])
                continue
            c, s = mp.cos(t), mp.sin(t)
            out.append([float(c), float(s), float(s / t), float((1 - c) / t),
                        float((1 - t / 2 * mp.cot(t / 2)) / t ** 2)])
    return np.array(out).T


def mp_exp_many(xis, dps=40):
    """exp(hat(xi)) of each float twist row, evaluated with ``dps`` digits
    and rounded to floats."""
    import mpmath as mp

    with mp.workdps(dps):
        return np.array([mp.matrix(_mp_exp([mp.mpf(float(v)) for v in xi])).tolist()
                         for xi in xis], dtype=float)


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
