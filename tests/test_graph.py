"""Tests for pose-graph ingestion, solving and marginal extraction."""

import functools
import os
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import corrpose as cp
from corrpose import graph as gr
from corrpose.liegroup import homogeneous
from oracles import (
    dense_covariance,
    dense_information,
    numeric_edge_jacobians,
    series_inv_right_jacobian,
    six_column_pair_belief,
)

MANHATTAN = os.environ.get("CORRPOSE_MANHATTAN", "data/manhattan3500.g2o")
needs_manhattan = pytest.mark.skipif(
    not os.path.exists(MANHATTAN), reason="Manhattan3500 dataset not available"
)

INFO = np.diag([100.0, 100.0, 400.0])


def triangle_ground_truth():
    gt = [
        cp.Pose.planar(0, 0, 0),
        cp.Pose.planar(1, 0, np.pi / 3),
        cp.Pose.planar(1.5, 1.2, -0.4),
    ]
    edges = [
        gr.Edge(0, 1, gt[0].inverse() @ gt[1], INFO),
        gr.Edge(1, 2, gt[1].inverse() @ gt[2], INFO),
        gr.Edge(0, 2, gt[0].inverse() @ gt[2], INFO),
    ]
    return gt, edges


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_minimal_graph(tmp_path):
    p = tmp_path / "g.g2o"
    p.write_text(
        "# comment line\n"
        "VERTEX_SE2 0 0.0 0.0 0.0\n"
        "VERTEX_SE2 1 1.0 0.0 0.1\n"
        "EDGE_SE2 0 1 1.0 0.0 0.1 1 0 0 1 0 1\n"
    )
    g = gr.load_graph(p)
    assert g.n_vertices == 2 and g.n_edges == 1
    npt.assert_array_equal(g.edges[0].information, np.eye(3))
    assert g.skipped_lines == 0


def test_load_toro_aliases_and_unknown_lines(tmp_path):
    p = tmp_path / "g.g2o"
    p.write_text(
        "VERTEX_SE2 0 0 0 0\n"
        "VERTEX_SE2 1 2 0 0\n"
        "EDGE_SE2 0 1 2 0 0 1 0 0 1 0 1\n"
        "EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 1\n"  # unknown type, skipped
    )
    g = gr.load_graph(p)
    assert g.n_vertices == 2 and g.n_edges == 1
    assert g.skipped_lines == 1
    npt.assert_allclose(g.edges[0].measurement.t, [2.0, 0.0])
    # TORO's EDGE2 information is I11 I12 I22 I33 I13 I23, not g2o's order:
    # read as g2o, this PSD one would be refused as not PSD
    for line in ("VERTEX2 1 2 0 0", "EDGE2 0 1 1 0 0 100 0 100 400 0 0"):
        p.write_text("VERTEX_SE2 0 0 0 0\n# TORO\n" + line + "\n")
        with pytest.raises(gr.GraphParseError, match=r"^line 3: .* is a TORO record") as exc:
            gr.load_graph(p)
        assert exc.value.line_no == 3


def test_load_information_upper_triangular_order(tmp_path):
    p = tmp_path / "g.g2o"
    p.write_text(
        "VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\n"
        "EDGE_SE2 0 1 1 0 0 11 12 13 22 23 33\n"
    )
    g = gr.load_graph(p)
    npt.assert_array_equal(
        g.edges[0].information, [[11, 12, 13], [12, 22, 23], [13, 23, 33]]
    )


def test_load_malformed_number_reports_line(tmp_path):
    p = tmp_path / "g.g2o"
    p.write_text("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 oops 0 0\n")
    with pytest.raises(gr.GraphParseError, match="line 2"):
        gr.load_graph(p)


@pytest.mark.parametrize("line", [b"# caf\xc3\xa9", b"VERTEX_SE2 1 1 0 0 # caf\xc3\xa9"],
                         ids=["comment", "vertex"])
def test_load_non_ascii_byte_reports_line(tmp_path, line):
    # the file used to be decoded outside the per-line checks, so a
    # non-ASCII byte raised a bare UnicodeDecodeError with no line number
    p = tmp_path / "g.g2o"
    p.write_bytes(b"VERTEX_SE2 0 0 0 0\r\n" + line + b"\r\nVERTEX_SE2 2 2 0 0\n")
    message = "^line 2: 'ascii' codec can't decode byte 0xc3"
    with pytest.raises(gr.GraphParseError, match=message) as exc:
        gr.load_graph(p)
    assert exc.value.line_no == 2


def test_load_missing_endpoint_is_validation_error(tmp_path):
    p = tmp_path / "g.g2o"
    p.write_text("VERTEX_SE2 0 0 0 0\nEDGE_SE2 0 7 1 0 0 1 0 0 1 0 1\n")
    with pytest.raises(gr.GraphValidationError, match="missing vertex 7"):
        gr.load_graph(p)


_INDEFINITE = [1.0, 0.0, 0.0, 1.0, 0.0, -5.0]


def _write_g2o(path, g, bad_info_edge=None, tail="", bad_upper=_INDEFINITE):
    """g as g2o text with repr floats; edge ``bad_info_edge`` gets the
    information entries ``bad_upper`` (upper triangle, row-major)."""
    lines = ["# generated", "VERTEX_SE2 3 9.0 9.0 0.5"]  # overridden by its later line
    for k, R, t in zip(g.keys.tolist(), g.R, g.t):
        theta = float(np.arctan2(R[1, 0], R[0, 0]))
        lines.append(f"VERTEX_SE2 {k} {float(t[0])!r} {float(t[1])!r} {theta!r}")
    lines.append("EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 1")  # unknown type, skipped
    for e, ((i, j), R, t, info) in enumerate(zip(g.ends.tolist(), g.Z_R, g.Z_t, g.information)):
        upper = info[np.triu_indices(3)]
        if e == bad_info_edge:
            upper = np.array(bad_upper)
        theta = float(np.arctan2(R[1, 0], R[0, 0]))
        lines.append(f"EDGE_SE2 {i} {j} {float(t[0])!r} {float(t[1])!r} {theta!r} "
                     + " ".join(repr(float(v)) for v in upper))
    path.write_text("\n".join(lines) + "\n" + tail)


def test_load_graph_matches_per_line_loader(tmp_path):
    from oracles import point_load_graph

    p = tmp_path / "g.g2o"
    _write_g2o(p, gr.generate_grid_world(500, seed=3))
    got, want = gr.load_graph(p), point_load_graph(p)
    assert got.skipped_lines == want.skipped_lines == 1
    for name in ("keys", "R", "t", "ends", "Z_R", "Z_t", "information"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.n_vertices == 500 and got.n_edges == want.n_edges


@pytest.mark.parametrize("tail", ["", "VERTEX_SE2 9999 oops 0 0\n"])
@pytest.mark.parametrize("bad_upper, what", [
    (_INDEFINITE, "information not PSD"),
    ([1.0, 0.0, float("nan"), 1.0, 0.0, 1.0], "information entries must be finite"),
], ids=["indefinite", "nan"])
def test_load_graph_names_the_bad_information_edge(tmp_path, tail, bad_upper, what):
    # one bad information matrix among hundreds of valid ones; a malformed line
    # after it does not hide it
    from oracles import point_load_graph

    g = gr.generate_grid_world(500, seed=3)
    p = tmp_path / "g.g2o"
    _write_g2o(p, g, bad_info_edge=321, tail=tail, bad_upper=bad_upper)
    i, j = g.ends[321].tolist()
    message = rf"^edge \({i},{j}\): {what}$"
    for load in (gr.load_graph, point_load_graph):
        with pytest.raises(gr.GraphValidationError, match=message):
            load(p)


def test_graph_errors_name_the_first_bad_edge():
    T = cp.Pose.planar(0, 0, 0)
    vertices = {k: T for k in range(4)}
    good = [gr.Edge(k, k + 1, T, INFO) for k in range(3)]
    with pytest.raises(gr.GraphValidationError, match="^self-loop edge on vertex 2$"):
        gr.PoseGraph(vertices, good + [gr.Edge(2, 2, T, INFO), gr.Edge(0, 9, T, INFO)])
    with pytest.raises(gr.GraphValidationError, match="^edge references missing vertex 8$"):
        gr.PoseGraph(vertices, good + [gr.Edge(8, 1, T, INFO), gr.Edge(0, 9, T, INFO)])
    with pytest.raises(gr.GraphValidationError, match="^edge references missing vertex 9$"):
        gr.PoseGraph(vertices, good + [gr.Edge(0, 9, T, INFO)])
    with pytest.raises(gr.GraphValidationError, match=r"^edge \(1,2\): information not symmetric$"):
        gr.Edge(1, 2, T, INFO + np.triu(np.ones((3, 3)), 1))


def test_information_psd_tolerance_is_the_whiteners():
    # the edge check refuses an information matrix below belief._PSD_TOL of
    # its scale, where the whitener's root would: an accepted edge (here a
    # heading eigenvalue 0.75 of the way to the bound) gets its whitener
    from corrpose.belief import _PSD_TOL

    T = cp.Pose.planar(0, 0, 0)
    bound = _PSD_TOL * 400.0
    edge = gr.Edge(0, 1, T, np.diag([400.0, 100.0, 0.75 * bound]))
    W = gr._System(gr.PoseGraph({0: T, 1: T}, [edge])).W[0]
    npt.assert_allclose(W @ W.T, np.diag([400.0, 100.0, 0.0]), atol=1e-12)
    with pytest.raises(gr.GraphValidationError, match=r"^edge \(0,1\): information not PSD$"):
        gr.Edge(0, 1, T, np.diag([400.0, 100.0, 1.25 * bound]))


def test_graph_views_are_read_only_and_built_when_read():
    g = gr.generate_grid_world(30, seed=2)
    assert g._vertices is None and g._edges is None
    T = g.vertices[7]
    assert g.vertices[7] is T and len(g._vertices) == 30
    assert np.array_equal(T.R, g.R[7]) and np.array_equal(T.t, g.t[7])
    assert list(g.vertices) == list(range(30)) and 7 in g.vertices and 30 not in g.vertices
    with pytest.raises(KeyError):
        g.vertices[30]
    with pytest.raises(TypeError):
        g.vertices[7] = T
    assert isinstance(g.edges, tuple) and g.edges[0].measurement.R.tolist() == g.Z_R[0].tolist()
    for name in ("keys", "R", "t", "ends", "Z_R", "Z_t", "information"):
        assert not getattr(g, name).flags.writeable, name


def test_information_checked_once(monkeypatch):
    # an Edge checks its information when made, and a solved copy shares the
    # input's checked edge arrays; neither is checked again
    g = gr.generate_grid_world(30, seed=2)
    edges = g.edges
    calls = []
    monkeypatch.setattr(gr, "_checked_information", lambda *a: calls.append(a))
    rebuilt = gr.PoseGraph(g.vertices, edges)
    assert np.array_equal(rebuilt.information, g.information)
    solved, _ = gr.solve(g)
    assert calls == []
    for name in ("ends", "Z_R", "Z_t", "information", "_edge_rows"):
        assert getattr(solved, name) is getattr(g, name), name


@needs_manhattan
def test_load_manhattan_counts():
    g = gr.load_graph(MANHATTAN)
    assert g.n_vertices == 3500
    assert g.n_edges == 5598


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def test_solve_consistent_chain_immediately():
    gt, edges = triangle_ground_truth()
    g = gr.PoseGraph({k: T for k, T in enumerate(gt)}, edges[:2])
    solved, rep = gr.solve(g)
    assert rep.iterations <= 1
    assert rep.final_chi2 < 1e-12
    assert rep.converged


def test_solve_triangle_recovers_configuration():
    gt, edges = triangle_ground_truth()
    rng = np.random.default_rng(1)
    verts = {
        k: (cp.exp_map(rng.normal(0, 0.1, 3)) @ T if k else T)
        for k, T in enumerate(gt)
    }
    solved, rep = gr.solve(gr.PoseGraph(verts, edges))
    assert rep.converged and rep.final_chi2 <= rep.initial_chi2
    for k in range(3):
        assert np.abs(solved.vertices[k].matrix() - gt[k].matrix()).max() < 1e-6


def test_rank_deficient_normal_equations_raise():
    # an edge that never constrains the second vertex's heading leaves a
    # zero column in the normal equations
    T0, T1 = cp.Pose.planar(0, 0, 0), cp.Pose.planar(1, 0, 0)
    partial = np.diag([100.0, 100.0, 0.0])
    g = gr.PoseGraph(
        {0: T0, 1: T1}, [gr.Edge(0, 1, cp.Pose.planar(2, 0, 0), partial)]
    )
    with pytest.raises(gr.RankDeficiencyError):
        gr.solve(g)
    # a zero-information edge constrains nothing at all: solving is a no-op
    # but extraction must refuse the singular information matrix
    consistent = gr.PoseGraph(
        {0: T0, 1: T1}, [gr.Edge(0, 1, T0.inverse() @ T1, np.zeros((3, 3)))],
        solved=True,
    )
    with pytest.raises(gr.RankDeficiencyError):
        gr.Marginals(consistent)


def _with_unconstrained_heading(g, info, heading_info=0.0):
    """g plus one vertex whose only edge leaves its heading unconstrained
    (or constrained only by ``heading_info``)."""
    k = max(g.vertices) + 1
    step = cp.Pose.planar(1.0, 0.0, 0.0)
    vertices = dict(g.vertices)
    vertices[k] = vertices[k - 1] @ step
    edges = list(g.edges) + [gr.Edge(k - 1, k, step, np.diag([info, info, heading_info]))]
    return vertices, edges


def test_sparse_rank_deficient_information_raises():
    # SuperLU factors the singular matrix without complaint (its smallest
    # pivot is rounding noise, some pivots negative), so the pivot-ratio
    # check must refuse it: the smallest D_jj over its own H_jj is at most
    # 8.4e-16 at edge information 1e2-1e8, against 6.4e-8 or more on
    # healthy graphs.
    g = gr.generate_grid_world(250, seed=12)
    for info in (1e2, 1e6, 1e7, 1e8):
        vertices, edges = _with_unconstrained_heading(g, info)
        with pytest.raises(gr.RankDeficiencyError, match="pivot"):
            gr.solve(gr.PoseGraph(vertices, edges))
        with pytest.raises(gr.RankDeficiencyError, match="pivot"):
            gr.Marginals(gr.PoseGraph(vertices, edges, solved=True))
    # the healthy graph it was built from still factors
    solved, report = gr.solve(g)
    assert report.converged and gr.Marginals(solved)._lu is not None


def test_nearly_unconstrained_heading_raises():
    # heading information 1e-8 against 1e2 on the other channels: the pivot
    # ratio, 2.3e-13, is above machine epsilon but far below the 6.4e-8 or
    # more of healthy graphs, so the information is refused as singular
    g = gr.generate_grid_world(250, seed=12)
    vertices, edges = _with_unconstrained_heading(g, 1e2, heading_info=1e-8)
    with pytest.raises(gr.RankDeficiencyError, match="pivot"):
        gr.solve(gr.PoseGraph(vertices, edges))
    with pytest.raises(gr.RankDeficiencyError, match="pivot"):
        gr.Marginals(gr.PoseGraph(vertices, edges, solved=True))


def test_solve_rejects_disconnected():
    gt, edges = triangle_ground_truth()
    verts = {k: T for k, T in enumerate(gt)}
    verts[9] = cp.Pose.planar(5, 5, 0)
    with pytest.raises(gr.GraphValidationError, match="connected"):
        gr.solve(gr.PoseGraph(verts, edges))


def test_is_connected_edge_cases():
    gt, edges = triangle_ground_truth()
    verts = {k: T for k, T in enumerate(gt)}
    assert not gr.PoseGraph({}, []).is_connected()
    assert gr.PoseGraph({7: gt[0]}, []).is_connected()
    # a repeated edge and a reversed one join nothing new
    more = edges[:2] + [edges[0], gr.Edge(2, 1, gt[2].inverse() @ gt[1], INFO)]
    assert gr.PoseGraph(verts, more).is_connected()
    assert not gr.PoseGraph(verts, edges[:1] + [edges[0]]).is_connected()
    assert not gr.PoseGraph({**verts, 9: cp.Pose.planar(5, 5, 0)}, more).is_connected()


def test_solve_grid_world_converges():
    g = gr.generate_grid_world(120, seed=3)
    solved, rep = gr.solve(g)
    assert rep.converged
    assert rep.final_chi2 < rep.initial_chi2
    assert solved.solved


def test_analytic_jacobians_match_numeric():
    g = gr.generate_grid_world(60, seed=5)
    solved, _ = gr.solve(g)
    sys_ = gr._System(solved)
    T = homogeneous(solved.R, solved.t)
    Ji_n, Jj_n = numeric_edge_jacobians(sys_, T)
    Jj_a = sys_.jacobians(T, sys_.residuals(T))
    assert np.abs(Ji_n + Jj_a).max() < 1e-6
    assert np.abs(Jj_n - Jj_a).max() < 1e-6


def test_analytic_jacobians_match_numeric_at_large_residual_angles():
    # the unsolved 3500-pose graph has residual headings up to 3.13 rad,
    # where a 14-term series for Jr^-1 was off by 2.5e-3.  The bound is
    # relative to each block's largest entry: the central difference itself
    # rounds to eps |t| / h, 5.9e-8 absolute at translations of 186 m
    g = gr.generate_grid_world(3500, seed=0)
    sys_ = gr._System(g)
    T = homogeneous(g.R, g.t)
    r = sys_.residuals(T)
    assert np.abs(r[:, 2]).max() > 3.1
    Jj = sys_.jacobians(T, r)
    for got, want in zip((-Jj, Jj), numeric_edge_jacobians(sys_, T)):
        got, want = got.reshape(-1, 3, 3), want.reshape(-1, 3, 3)
        scale = np.maximum(1.0, np.abs(want).max(axis=(1, 2)))
        assert (np.abs(got - want).max(axis=(1, 2)) / scale).max() < 1e-8


def test_inv_right_jacobian_matches_series():
    # the closed form against the series it replaced, where the series is
    # exact to rounding: theta = 0, both sides of each Taylor cutoff, |theta| <= 1
    from corrpose.liegroup import _COEFF_CUTOFF, _VINV_CUTOFF

    rng = np.random.default_rng(17)
    cuts = [c * f for c in (_COEFF_CUTOFF, _VINV_CUTOFF) for f in (1 - 1e-6, 1 + 1e-6)]
    theta = np.concatenate([[0.0, 1e-12], cuts, rng.uniform(-1, 1, 200), [-1.0, 1.0]])
    theta = np.concatenate([theta, -theta])
    xi = np.column_stack([rng.uniform(-1, 1, (theta.shape[0], 2)), theta])
    got = gr._inv_right_jacobian_many(xi)
    assert np.abs(got - series_inv_right_jacobian(xi)).max() < 1e-12
    npt.assert_array_equal(got[0], np.eye(3) + 0.5 * np.array(
        [[0.0, 0.0, xi[0, 1]], [0.0, 0.0, -xi[0, 0]], [0.0, 0.0, 0.0]]))


def test_solve_evaluates_residuals_once_per_iterate(monkeypatch):
    # the initial graph's residuals, then one evaluation per iteration: each
    # iterate's serve both its chi2 and the next linearization
    calls = []
    real = gr._System.residuals
    monkeypatch.setattr(gr._System, "residuals",
                        lambda self, T: calls.append(1) or real(self, T))
    _, report = gr.solve(gr.generate_grid_world(120, seed=3))
    assert report.iterations > 2
    assert len(calls) == report.iterations + 1


def _assembled(graph, sys_=None):
    """Information matrix and gradient of ``sys_`` (by default the graph's
    own) at the graph's vertex poses."""
    sys_ = sys_ or gr._System(graph)
    T = homogeneous(graph.R, graph.t)
    return sys_.assemble(T, sys_.residuals(T))


def test_assemble_keeps_its_pattern():
    g = gr.generate_grid_world(120, seed=3)
    solved, _ = gr.solve(g)
    sys_ = gr._System(g)
    (H0, _), (H1, _) = _assembled(g, sys_), _assembled(solved, sys_)
    assert not np.array_equal(H0.data, H1.data)
    assert np.array_equal(H0.indices, H1.indices)
    assert np.array_equal(H0.indptr, H1.indptr)


def test_assemble_sums_repeated_edges():
    # the last edge, a loop closure, twice against once with twice its
    # information: the same H and gradient (measured 4.6e-17 and 1.5e-16 of
    # the largest entry)
    g = gr.generate_grid_world(120, seed=3)
    assert g.ends[-1, 1] - g.ends[-1, 0] > 1
    once = gr.PoseGraph._of_arrays(
        g.keys, g.R, g.t, g.ends, g.Z_R, g.Z_t,
        np.concatenate([g.information[:-1], 2 * g.information[-1:]]))
    twice = gr.PoseGraph._of_arrays(
        g.keys, g.R, g.t, np.concatenate([g.ends, g.ends[-1:]]),
        np.concatenate([g.Z_R, g.Z_R[-1:]]), np.concatenate([g.Z_t, g.Z_t[-1:]]),
        np.concatenate([g.information, g.information[-1:]]))
    (H1, g1), (H2, g2) = _assembled(once), _assembled(twice)
    assert H1.nnz == H2.nnz
    H1, H2 = H1.toarray(), H2.toarray()
    assert np.abs(H1 - H2).max() < 1e-15 * np.abs(H1).max()
    assert np.abs(g1 - g2).max() < 1e-15 * np.abs(g1).max()


def test_information_matches_dense_oracle():
    # vertex 0 is held fixed: H is the dense central-difference information
    # without its rows and columns (measured 9.5e-11 of the largest entry),
    # and exactly symmetric
    solved, _ = gr.solve(gr.generate_grid_world(50, seed=11))
    H = _assembled(solved)[0].toarray()
    want = dense_information(solved)[3:, 3:]
    assert np.array_equal(H, H.T)
    assert np.abs(H - want).max() < 1e-9 * np.abs(want).max()


@needs_manhattan
def test_solve_manhattan_converges():
    g = gr.load_graph(MANHATTAN)
    solved, rep = gr.solve(g)
    assert rep.converged
    assert np.isfinite(rep.final_chi2)
    assert rep.final_chi2 < rep.initial_chi2


# ---------------------------------------------------------------------------
# marginal extraction
# ---------------------------------------------------------------------------

def test_two_pose_closed_form():
    # pose 0 held fixed plus a single odometry edge: the information is the
    # edge's Jw1' Jw1 on pose 1 alone, pose 0's blocks and the cross block
    # of the pair marginal are zero and pose 1's block is the dense inverse
    T0 = cp.Pose.planar(0, 0, 0)
    T1 = cp.Pose.planar(1, 0, 0.3)
    T2 = cp.Pose.planar(1.5, 0.8, -0.5)
    W = np.diag([50.0, 40.0, 200.0])
    g = gr.PoseGraph({0: T0, 1: T1}, [gr.Edge(0, 1, T0.inverse() @ T1, W)])
    solved, _ = gr.solve(g)
    pair = gr.Marginals(solved).pair_belief(0, 1)
    expect = dense_covariance(solved)
    assert not pair.cov[:3].any() and not pair.cov[:, :3].any()
    npt.assert_allclose(pair.cov[3:, 3:], expect[3:, 3:], rtol=1e-6, atol=1e-12)
    # a third pose: the free pair (1, 2) has a nonzero cross block
    g = gr.PoseGraph({0: T0, 1: T1, 2: T2}, [
        gr.Edge(0, 1, T0.inverse() @ T1, W), gr.Edge(1, 2, T1.inverse() @ T2, W)])
    solved, _ = gr.solve(g)
    pair = gr.Marginals(solved).pair_belief(1, 2)
    expect = dense_covariance(solved)[3:, 3:]
    assert np.abs(pair.cross).max() > 1e-3
    npt.assert_allclose(pair.cov, expect, rtol=1e-6, atol=1e-12)
    # a star around the fixed pose: 1 and 2 lie in separate trees of the
    # elimination forest, so their paths share no row and the cross block is zero
    g = gr.PoseGraph({0: T0, 1: T1, 2: T2}, [
        gr.Edge(0, 1, T0.inverse() @ T1, W), gr.Edge(0, 2, T0.inverse() @ T2, W)])
    solved, _ = gr.solve(g)
    pair = gr.Marginals(solved).pair_belief(1, 2)
    assert not pair.cross.any()
    npt.assert_allclose(pair.cov, dense_covariance(solved)[3:, 3:], rtol=1e-6, atol=1e-12)


def test_pair_marginals_match_dense_inverse():
    g = gr.generate_grid_world(50, seed=11)
    solved, _ = gr.solve(g)
    dense_cov = dense_covariance(solved)
    marg = gr.Marginals(solved)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        i, j = rng.choice(50, size=2, replace=False)
        pair = marg.pair_belief(int(i), int(j))
        rows = np.concatenate([3 * i + np.arange(3), 3 * j + np.arange(3)])
        expect = dense_cov[np.ix_(rows, rows)]
        worst = max(
            worst, np.linalg.norm(pair.cov - expect) / np.linalg.norm(expect)
        )
    assert worst < 1e-6


def test_sparse_pair_marginals_match_dense_inverse():
    # 250 poses: forward solves on the elimination tree of a sparse factor
    g = gr.generate_grid_world(250, seed=12)
    solved, _ = gr.solve(g)
    marg = gr.Marginals(solved)
    assert marg._lu is not None
    dense_cov = dense_covariance(solved)
    for i, j in ((10, 20), (0, 249), (180, 120)):
        pair = marg.pair_belief(i, j)
        rows = np.concatenate([3 * i + np.arange(3), 3 * j + np.arange(3)])
        expect = dense_cov[np.ix_(rows, rows)]
        assert np.linalg.norm(pair.cov - expect) / np.linalg.norm(expect) < 1e-6


@functools.lru_cache(maxsize=None)
def _solved_marginals(n_poses, seed):
    solved, _ = gr.solve(gr.generate_grid_world(n_poses, seed=seed))
    return gr.Marginals(solved)


def _slam_pairs(n_poses):
    """The pairs of a default slam-relpose run: offsets 10, 50 and 100, at
    most 200 evenly spread starts each (600 pairs from 300 poses up)."""
    pairs = []
    for offset in (10, 50, 100):
        starts = np.linspace(0, n_poses - offset - 1, 200).round().astype(int)
        pairs += [(int(i), int(i) + offset) for i in dict.fromkeys(starts)]
    return pairs


# a test-sized graph and twelve 500-pose ones: the pair beliefs of one block
# of 642 pairs (the slam-relpose pairs plus repeats and reversals) equal
# one-pair calls bit for bit, as the pivot order comes from H's pattern alone
@pytest.mark.parametrize("n_poses,seed", [(120, 12)] + [(500, s) for s in range(12)])
def test_pair_beliefs_bit_identical_to_one_pair_calls(n_poses, seed):
    marg = _solved_marginals(n_poses, seed)
    pairs = [(i, i + 10) for i in range(0, 100, 3)]
    pairs += [(5, 17), (17, 5), (5, 60), (60, 17), (100, 101), (101, 100)]  # repeats
    pairs += [(180 % n_poses, 120 % n_poses), (n_poses - 1, 0)]  # reversed
    got = marg.pair_beliefs(_slam_pairs(n_poses) + pairs)[-len(pairs):]
    for (i, j), pb in zip(pairs, got):
        one = marg.pair_belief(i, j)
        assert pb.means == one.means
        assert pb.cov.tobytes() == one.cov.tobytes()
    assert marg.pair_beliefs([]) == []


# the symmetric factor's forward solves against a pair's six columns solved
# forward and back on the same factor: measured at most 1.5e-11, 9.6e-11,
# 1.1e-11, 2.6e-11 and 9.3e-12 of the pair's largest entry (500-pose seeds 4,
# 7, 9 and 10, 1000-pose seed 4; 2.7e-12 at seed 5); every pair differs at
# rounding level
@pytest.mark.parametrize("n_poses,seed",
                         [(500, 4), (500, 7), (1000, 4), (500, 5), (500, 9), (500, 10)])
def test_pair_beliefs_near_six_column_solves(n_poses, seed):
    marg = _solved_marginals(n_poses, seed)
    pairs = _slam_pairs(n_poses)
    got = marg.pair_beliefs(pairs)
    worst = 0.0
    for (i, j), pb in zip(pairs, got):
        want = six_column_pair_belief(marg, i, j)
        assert pb.means == want.means
        worst = max(worst, np.abs(pb.cov - want.cov).max() / np.abs(want.cov).max())
    assert worst < 1e-9


# the slam-relpose pairs and the pair (479, 489), against columns of a dense
# inverse information.  The central-difference oracle's information differs
# from the assembled H by about 1e-10 of its largest entry (measured 1.0e-10
# to 2.0e-10), which H's conditioning amplifies to at most 2.0e-7 (500 poses,
# seed 0) and 3.2e-7 (1000 poses, seed 4) of the pair's largest entry; so the
# oracle checks assembly, and the dense inverse of the assembled H itself
# checks the marginals, where they agreed to 2.4e-10 to 7.7e-10
@pytest.mark.parametrize("n_poses,seed,source", [
    (500, 0, "oracle"), (1000, 4, "oracle"), (500, 0, "assembled"), (1000, 4, "assembled"),
], ids=["500-0", "1000-4", "500-0-assembled", "1000-4-assembled"])
def test_pair_beliefs_match_dense_inverse(n_poses, seed, source):
    marg = _solved_marginals(n_poses, seed)
    pairs = _slam_pairs(n_poses) + [(479, 489)]
    verts = np.unique([k for pair in pairs for k in pair if k])
    cols = (3 * verts[:, None] - 3 + np.arange(3)).ravel()
    info = dense_information(marg._graph)[3:, 3:]
    if source == "assembled":
        H = _assembled(marg._graph, marg._sys)[0].toarray()
        assert np.abs(H - info).max() < 1e-9 * np.abs(info).max()
        info = H
    E = np.zeros((info.shape[0], cols.shape[0]))
    E[cols, np.arange(cols.shape[0])] = 1.0
    X = np.zeros((info.shape[0] + 3, cols.shape[0]))
    X[3:] = scipy.linalg.cho_solve(scipy.linalg.cho_factor(info, overwrite_a=True), E)
    del info, E
    place = {int(v): 3 * k for k, v in enumerate(verts)}
    worst = 0.0
    for (i, j), pb in zip(pairs, marg.pair_beliefs(pairs)):
        rows = np.r_[3 * i:3 * i + 3, 3 * j:3 * j + 3]
        want = np.zeros((6, 6))
        for side, k in ((0, i), (3, j)):
            if k:
                want[:, side:side + 3] = X[rows, place[k]:place[k] + 3]
        worst = max(worst, np.abs(pb.cov - want).max() / np.abs(want).max())
    assert worst < {"oracle": 1e-6, "assembled": 5e-9}[source]


def _uncovered_columns(L, parent):
    """Columns of the unit lower-triangular L whose full forward solve
    L^-1 e_k has a nonzero off the path from k to its root in ``parent``."""
    m = L.shape[0]
    Y = scipy.linalg.solve_triangular(L.toarray(), np.eye(m), lower=True, unit_diagonal=True)
    bad = 0
    for k in range(m):
        path, q = set(), k
        while q < m:
            path.add(q)
            q = parent[q]
        bad += not set(np.flatnonzero(Y[:, k]).tolist()) <= path
    return bad


@pytest.mark.parametrize("seed", [0, 7])
def test_elimination_tree_paths_cover_forward_solves(seed):
    marg = _solved_marginals(500, seed)
    L = marg._lu.L
    L.sort_indices()
    assert _uncovered_columns(L, marg._parent) == 0
    if seed == 0:
        # parents taken from L's first entry below the diagonal: L's stored
        # pattern is not closed, and such paths miss nonzeros (11 of 1,497
        # parents differ from the elimination tree's on this graph, leaving
        # 101 columns uncovered)
        m = L.shape[0]
        first_below = [m] * (m + 1)
        for k in range(m):
            rows = L.indices[L.indptr[k]:L.indptr[k + 1]]
            if (rows > k).any():
                first_below[k] = int(rows[rows > k].min())
        assert _uncovered_columns(L, first_below) > 0


def test_factor_refuses_off_diagonal_pivots(monkeypatch):
    import types

    import scipy.sparse.linalg

    marg = _solved_marginals(120, 12)
    T = homogeneous(marg._graph.R, marg._graph.t)
    info, _ = marg._sys.assemble(T, marg._sys.residuals(T))
    real = scipy.sparse.linalg.splu

    def swapped(*args, **kwargs):
        lu = real(*args, **kwargs)
        perm_r = lu.perm_r.copy()
        perm_r[[0, 1]] = perm_r[[1, 0]]
        return types.SimpleNamespace(perm_r=perm_r, perm_c=lu.perm_c, L=lu.L, U=lu.U)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", swapped)
    with pytest.raises(gr.RankDeficiencyError, match="pivot left the diagonal"):
        gr._factor(info)


def test_one_factor_path(monkeypatch):
    import inspect

    import scipy.sparse.linalg

    source = inspect.getsource(gr)
    assert source.count("splu(") == 1 and "COLAMD" not in source
    assert "scipy.sparse.linalg.splu(" in inspect.getsource(gr._factor)
    calls = []
    real = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
    solved, report = gr.solve(gr.generate_grid_world(120, seed=12))
    assert len(calls) == report.iterations > 0
    gr.Marginals(solved)
    assert len(calls) == report.iterations + 1


def test_solve_repairs_rotations_once(monkeypatch):
    # iterates are exp(delta) @ T as they come: no rotation is rebuilt from
    # its angle, and the rotations are checked (and repaired if drifted) once,
    # when the solved copy is made
    import corrpose.liegroup as lg

    class NoAngles:
        def __getattr__(self, name):
            if name in ("arctan2", "sin", "cos"):
                raise AssertionError(f"np.{name} called")
            return getattr(np, name)

    g = gr.generate_grid_world(120, seed=12)
    checks, repairs = [], []
    real_check, real_project = gr.checked_pose_blocks, lg.project_rotation
    monkeypatch.setattr(gr, "np", NoAngles())
    monkeypatch.setattr(gr, "checked_pose_blocks",
                        lambda R, t: checks.append(R.shape) or real_check(R, t))
    monkeypatch.setattr(lg, "project_rotation", lambda R: repairs.append(1) or real_project(R))
    solved, report = gr.solve(g)
    assert report.iterations > 2
    assert checks == [(120, 2, 2)] and repairs == []
    assert np.abs(np.swapaxes(solved.R, 1, 2) @ solved.R - np.eye(2)).max() < 1e-14


def test_pair_beliefs_solve_each_vertex_once(monkeypatch):
    marg = _solved_marginals(120, 12)
    pairs = [(3, 40), (40, 3), (3, 40), (7, 8), (100, 7), (119, 0)] + [
        (i, i + 10) for i in range(0, 100, 7)]
    want = marg.pair_beliefs(pairs)
    solves = []
    real = marg._forward_solves
    monkeypatch.setattr(marg, "_forward_solves", lambda nodes: solves.append(nodes) or real(nodes))
    monkeypatch.setattr(gr, "_WORK_BYTES", 24 * marg._height * 5)  # five vertices per solve
    got = marg.pair_beliefs(pairs)
    verts = np.array(sorted({k for pair in pairs for k in pair} - {0}))  # keys equal indices here
    cols = marg._lu.perm_c[3 * verts[:, None] - 3 + np.arange(3)]
    nodes = np.concatenate(solves)
    # each free vertex's three columns once, vertex 0's never, in the
    # postorder of each vertex's lowest node
    assert sorted(map(tuple, nodes.tolist())) == sorted(map(tuple, cols.tolist()))
    assert (np.diff(marg._last[nodes.min(axis=1)]) > 0).all()
    assert len(solves) == -(-len(verts) // 5) and all(c.shape[0] <= 5 for c in solves)
    for a, b in zip(got, want):
        assert np.array_equal(a.cov, b.cov)


def test_pair_beliefs_reversed_and_duplicate_pairs():
    marg = _solved_marginals(120, 12)
    pairs = [(5, 17), (17, 5), (5, 17), (90, 30), (30, 90), (60, 17)]
    got = marg.pair_beliefs(pairs)
    swap = np.r_[3:6, 0:3]
    for (i, j), pb in zip(pairs, got):
        rev = marg.pair_beliefs([(j, i)])[0]
        assert rev.means == pb.means[::-1]
        assert np.array_equal(rev.cov, pb.cov[np.ix_(swap, swap)])
        assert np.array_equal(rev.cross, pb.cross.T)
    assert np.array_equal(got[0].cov, got[2].cov)
    assert marg.pair_beliefs([]) == []
    assert marg.pair_beliefs(iter([])) == []


def test_pair_belief_is_one_pair_call_of_pair_beliefs():
    marg = _solved_marginals(120, 12)
    for i, j in ((0, 1), (1, 0), (17, 90), (119, 3), (60, 61)):
        one = marg.pair_belief(i, j)
        many = marg.pair_beliefs([(i, j)])[0]
        assert one.means == many.means
        assert one.cov.tobytes() == many.cov.tobytes()


def test_pair_beliefs_peak_memory():
    # path rows of the 455 solved vertices (1.7 MB on this graph, whose
    # elimination tree is 609 deep) plus one work array of _WORK_BYTES
    marg = _solved_marginals(500, 4)
    pairs = _slam_pairs(500)
    tracemalloc.start()
    try:
        beliefs = marg.pair_beliefs(pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(beliefs) == 600
    assert peak < 4e6  # measured 3.3 MB


def test_pair_beliefs_checks_every_pair_before_solving(monkeypatch):
    solved, _ = gr.solve(gr.generate_grid_world(30, seed=2))
    marg = gr.Marginals(solved)
    solves = []
    monkeypatch.setattr(marg, "_forward_solves", lambda nodes: solves.append(nodes))
    with pytest.raises(KeyError):
        marg.pair_beliefs([(0, 5), (1, 6), (0, 999)])
    with pytest.raises(ValueError):
        marg.pair_beliefs([(0, 5), (4, 4)])
    assert solves == []


def test_extraction_requires_solved_graph():
    g = gr.generate_grid_world(30, seed=2)
    with pytest.raises(gr.GraphStateError):
        gr.Marginals(g).pair_belief(0, 5)
    solved, _ = gr.solve(g)
    with pytest.raises(ValueError):
        gr.Marginals(solved).pair_belief(4, 4)
    with pytest.raises(KeyError):
        gr.Marginals(solved).pair_belief(0, 999)


def test_gauge_invariance_of_between():
    g = gr.generate_grid_world(40, seed=13)
    solved, _ = gr.solve(g)
    marg = gr.Marginals(solved)

    G = cp.Pose.planar(5.0, -3.0, 0.8)
    moved = gr.PoseGraph({k: G @ T for k, T in g.vertices.items()}, g.edges)
    solved2, _ = gr.solve(moved)
    marg2 = gr.Marginals(solved2)

    for i, j in ((0, 20), (5, 35), (12, 13)):
        b1 = cp.between(marg.pair_belief(i, j))
        b2 = cp.between(marg2.pair_belief(i, j))
        assert np.abs(b1.mean.matrix() - b2.mean.matrix()).max() < 1e-6
        assert np.abs(b1.cov - b2.cov).max() < 1e-6
        # means themselves moved rigidly
        moved_mean = (G @ solved.vertices[i]).matrix()
        assert np.abs(moved_mean - solved2.vertices[i].matrix()).max() < 1e-5


def test_extraction_step_halving_stable(monkeypatch):
    # marginals of the analytic information against those of the numeric
    # oracle's Jacobians at two central-difference steps
    g = gr.generate_grid_world(30, seed=4)
    solved, _ = gr.solve(g)
    sys_ = gr._System(solved)
    T = homogeneous(solved.R, solved.t)
    r = sys_.residuals(T)
    H, _ = sys_.assemble(T, r)
    i1 = np.linalg.inv(H.toarray())
    for h in (1e-6, 5e-7):
        monkeypatch.setattr(sys_, "jacobians",
                            lambda T, r: numeric_edge_jacobians(sys_, T, h)[1])
        H2, _ = sys_.assemble(T, r)
        i2 = np.linalg.inv(H2.toarray())
        assert np.linalg.norm(i1 - i2) / np.linalg.norm(i1) < 1e-4


def test_marginals_match_monte_carlo_resolves():
    # consistent 14-pose graph; empirical covariance of twist errors across
    # noisy re-solves must match the extracted pair marginal
    rng = np.random.default_rng(21)
    gt = [cp.Pose.identity(2)]
    for k in range(13):
        turn = rng.choice([0.0, np.pi / 2, -np.pi / 2])
        gt.append(gt[-1] @ cp.Pose.planar(np.cos(turn), np.sin(turn), turn))
    q = np.array([0.03, 0.03, 0.01])
    info = np.diag(1.0 / q ** 2)
    pairs = [(k, k + 1) for k in range(13)] + [(0, 5), (3, 10), (6, 13)]
    edges = [gr.Edge(a, b, gt[a].inverse() @ gt[b], info) for a, b in pairs]
    base = gr.PoseGraph({k: T for k, T in enumerate(gt)}, edges)
    solved, _ = gr.solve(base)
    pair = gr.Marginals(solved).pair_belief(4, 11)

    draws = []
    for trial in range(500):
        trial_rng = np.random.default_rng((21, trial))
        noisy = [
            gr.Edge(e.i, e.j, cp.exp_map(trial_rng.normal(0, q)) @ e.measurement, info)
            for e in edges
        ]
        s, _ = gr.solve(gr.PoseGraph({k: T for k, T in enumerate(gt)}, noisy))
        xi4 = cp.log_map(s.vertices[4] @ gt[4].inverse())
        xi11 = cp.log_map(s.vertices[11] @ gt[11].inverse())
        draws.append(np.concatenate([xi4, xi11]))
    draws = np.asarray(draws)
    emp = draws.T @ draws / draws.shape[0]
    assert np.linalg.norm(pair.cov - emp) / np.linalg.norm(emp) < 0.15


def test_solve_single_vertex_graph():
    # one vertex, held fixed: no variables, and a 0 x 0 information matrix
    g = gr.PoseGraph({0: cp.Pose.planar(1, 2, 0.3)}, [])
    solved, rep = gr.solve(g)
    assert rep.converged and rep.final_chi2 < 1e-15
    assert np.abs(solved.vertices[0].matrix() - g.vertices[0].matrix()).max() < 1e-12
    marg = gr.Marginals(solved)
    assert marg.pair_beliefs([]) == []
    with pytest.raises(ValueError):
        marg.pair_belief(0, 0)


def test_generate_grid_world_deterministic():
    a = gr.generate_grid_world(60, seed=9)
    b = gr.generate_grid_world(60, seed=9)
    assert a.n_edges == b.n_edges
    for ea, eb in zip(a.edges, b.edges):
        npt.assert_array_equal(ea.measurement.matrix(), eb.measurement.matrix())


# all edge noise from one draw and one exp_many call: the same random stream
# and the same matrices as one draw and one exp_map per edge
@pytest.mark.parametrize("n_poses,seed", [(30, 0), (30, 5), (250, 1), (250, 12),
                                          (500, 0), (500, 7), (3500, 0)])
def test_generate_grid_world_matches_per_edge_noise(n_poses, seed):
    from oracles import point_generate_grid_world

    got = gr.generate_grid_world(n_poses, seed=seed)
    want = point_generate_grid_world(n_poses, seed=seed)
    assert sorted(got.vertices) == sorted(want.vertices)
    for k, T in want.vertices.items():
        assert np.array_equal(got.vertices[k].matrix(), T.matrix())
    assert [(e.i, e.j) for e in got.edges] == [(e.i, e.j) for e in want.edges]
    for eg, ew in zip(got.edges, want.edges):
        assert np.array_equal(eg.measurement.matrix(), ew.measurement.matrix())
        assert np.array_equal(eg.information, ew.information)
