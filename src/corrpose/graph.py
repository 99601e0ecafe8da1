"""Planar pose graphs: text-format ingestion, Gauss-Newton solving and
twist-space marginal covariance extraction.

The solver works on-manifold: vertex updates are left perturbations
``T <- exp(hat(delta)) @ T`` and edge residuals are
``log(Z^-1 (T_i^-1 T_j))`` whitened by the square root of the edge
information, with closed-form analytic Jacobians.  The lowest-keyed vertex
is held fixed, which fixes the gauge: its twist is not a variable, and its
marginal covariance is zero.  Marginals are recovered from the information
matrix assembled in the same twist coordinates, so extracted pair beliefs
feed the belief module's between() directly.  The solver's steps and the
marginals share one symmetric factor P H P' = L D L'; a pair marginal takes
forward solves only, each vertex's on its path of the elimination tree.

A :class:`PoseGraph` is held as arrays: sorted keys, vertex rotation and
translation stacks, edge endpoints, measurement stacks and information
matrices, checked when the graph is made (a solved copy checks only its
new vertex stacks).  The generator, the loader, :func:`solve` and
:class:`Marginals` make and read these arrays with no :class:`Pose` or
:class:`Edge` per vertex or edge; ``vertices`` and ``edges`` are read-only
views built whole on first read.  The stacked products are those a Pose
would form, so the arrays equal the per-object results bit for bit.

scipy is imported by the functions that call it, not by the module:
``scipy.sparse`` at a graph's first assembly, ``scipy.sparse.linalg`` at
its first factor and ``scipy.sparse.csgraph`` at its first connectivity
check, so importing corrpose loads no scipy.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .belief import _PSD_TOL, PosePairBelief, checked_covs
from .liegroup import (
    Pose,
    _vinv_coeff,
    adjoint_blocks,
    checked_pose_blocks,
    compose_blocks,
    exp_many,
    homogeneous,
    inv_many,
    invert_blocks,
    log_many,
    planar_blocks,
)
from .mc import _sqrt_factor

if TYPE_CHECKING:
    import scipy.sparse

# Gauss-Newton stops once chi2 falls by less than this fraction, or after
# this many iterations.
_REL_TOL = 1e-9
_MAX_ITERATIONS = 100
# An information matrix is singular when some pivot D_jj of its symmetric
# factor is not positive or is at most this fraction of its diagonal entry
# H_jj.  Over every Gauss-Newton step and Marginals, generated graphs give
# at least 2.5e-3 (30 poses), 1.1e-5 (250), 1.5e-6 (500, seeds 0-9), 4.5e-7
# (1000) and 6.4e-8 (3500); an unconstrained heading at most 8.4e-16 (edge
# information 1e2-1e8, some pivots negative), heading information 1e-8 2.3e-13.
_MIN_PIVOT_RATIO = 1e-10
# Bytes of one Marginals.pair_beliefs work array: the (height, 3 c) forward
# solve of c vertices, and the rows of one block of pair products.  No array
# of a query is larger: freeing larger ones raises glibc's mmap threshold,
# and with it the peak RSS of later work (slam-500 +1.9% with one array of
# all path rows).
_WORK_BYTES = 1 << 19
# Fewest steps between two visits of a grid cell that close a loop.
_MIN_LOOP_GAP = 20


class GraphParseError(ValueError):
    """Malformed graph file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class GraphValidationError(ValueError):
    """Structurally invalid graph (dangling edges, bad information, ...)."""


class GraphStateError(RuntimeError):
    """Operation requires a solved graph."""


class RankDeficiencyError(ArithmeticError):
    """Normal equations are singular."""


class DivergenceError(ArithmeticError):
    """Gauss-Newton chi2 increased three iterations in a row."""


def _checked_information(ends: np.ndarray, info: np.ndarray) -> np.ndarray:
    """Symmetrized (E, 3, 3) information stack of edges with (E, 2) endpoint keys.

    Each matrix must have finite entries, be symmetric within 1e-9 and PSD
    within ``belief._PSD_TOL`` times ``max(1, max |entry|)``, the tolerance
    of the whitener's root.  The first edge that does not raises
    :class:`GraphValidationError` naming it, the tests in that order.
    """
    finite = np.isfinite(info).all(axis=(1, 2))
    info = np.where(finite[:, None, None], info, 0.0)
    info_t = np.swapaxes(info, 1, 2)
    scale = np.maximum(1.0, np.abs(info).max(axis=(1, 2)))
    asym = np.abs(info - info_t).max(axis=(1, 2)) > 1e-9 * scale
    info = 0.5 * (info + info_t)
    scale = np.maximum(1.0, np.abs(info).max(axis=(1, 2)))
    indefinite = np.linalg.eigvalsh(info).min(axis=1) < _PSD_TOL * scale
    bad = np.flatnonzero(~finite | asym | indefinite)
    if bad.size:
        k = bad[0]
        edge = f"edge ({ends[k, 0]},{ends[k, 1]})"
        if not finite[k]:
            raise GraphValidationError(f"{edge}: information entries must be finite")
        what = "not symmetric" if asym[k] else "not PSD"
        raise GraphValidationError(f"{edge}: information {what}")
    info.flags.writeable = False
    return info


@dataclass(frozen=True)
class Edge:
    i: int
    j: int
    measurement: Pose
    information: np.ndarray

    def __post_init__(self):
        info = np.asarray(self.information, dtype=float)
        if info.shape != (3, 3):
            raise GraphValidationError(f"edge ({self.i},{self.j}): information must be 3x3")
        info = _checked_information(np.array([[self.i, self.j]]), info[None])[0]
        object.__setattr__(self, "information", info)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    initial_chi2: float
    final_chi2: float
    converged: bool


def _frozen(a) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _endpoint_rows(keys: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(E, 2) rows in sorted ``keys`` of the edge endpoints ``ends``; the
    first edge that is a self-loop or names a missing vertex raises."""
    rows = np.searchsorted(keys, ends)
    found = np.zeros(ends.shape, dtype=bool)
    inside = rows < keys.shape[0]
    found[inside] = keys[rows[inside]] == ends[inside]
    loop = ends[:, 0] == ends[:, 1]
    bad = np.flatnonzero(loop | ~found.all(axis=1))
    if bad.size:
        i, j = ends[bad[0]].tolist()
        if i == j:
            raise GraphValidationError(f"self-loop edge on vertex {i}")
        missing = i if not found[bad[0], 0] else j
        raise GraphValidationError(f"edge references missing vertex {missing}")
    return rows


class PoseGraph:
    """Keyed SE(2) vertices plus relative-pose edges with information matrices.

    The graph is held as arrays, checked when it is made: the sorted vertex
    ``keys`` (n,) with their rotations ``R`` (n, 2, 2) and translations
    ``t`` (n, 2), and per edge its endpoint keys ``ends`` (E, 2), its
    measurement's rotation ``Z_R`` (E, 2, 2) and translation ``Z_t``
    (E, 2), and its symmetrized ``information`` (E, 3, 3).  ``vertices``
    (key -> :class:`Pose`, in key order) and ``edges`` (:class:`Edge`
    tuple) are read-only views of them, each built whole on first read.
    """

    def __init__(self, vertices: Mapping[int, Pose], edges: Sequence[Edge], *,
                 skipped_lines: int = 0, solved: bool = False):
        vertices, edges = dict(vertices), list(edges)
        for k, T in vertices.items():
            if T.dim != 2:
                raise GraphValidationError(f"vertex {k} is not planar")
        for e in edges:
            if e.measurement.dim != 2:
                raise GraphValidationError(f"edge ({e.i},{e.j}): measurement is not planar")
        # each Pose and Edge was checked when it was made; only the endpoints are left
        keys = np.array(sorted(vertices), dtype=np.int64).reshape(-1)
        ends = np.array([(e.i, e.j) for e in edges], dtype=np.int64).reshape(-1, 2)
        self._store(
            keys,
            np.array([vertices[k].R for k in keys.tolist()]).reshape(-1, 2, 2),
            np.array([vertices[k].t for k in keys.tolist()]).reshape(-1, 2),
            ends, _endpoint_rows(keys, ends),
            np.array([e.measurement.R for e in edges]).reshape(-1, 2, 2),
            np.array([e.measurement.t for e in edges]).reshape(-1, 2),
            np.array([e.information for e in edges]).reshape(-1, 3, 3),
            skipped_lines, solved,
        )

    @classmethod
    def _of_arrays(cls, keys, R, t, ends, Z_R, Z_t, information, *,
                   skipped_lines: int = 0) -> "PoseGraph":
        """The graph of sorted unique keys and the stacks named in the class
        docstring, checked as a :class:`Pose` and an :class:`Edge` check
        theirs: vertex poses, endpoints, measurements, then information."""
        graph = cls.__new__(cls)
        graph._store(
            keys, checked_pose_blocks(R, t), t, ends, _endpoint_rows(keys, ends),
            checked_pose_blocks(Z_R, Z_t), Z_t,
            _checked_information(ends, np.asarray(information, dtype=float)),
            skipped_lines, False,
        )
        return graph

    def _solved_at(self, R, t) -> "PoseGraph":
        """A solved copy of this graph at vertex stacks ``R``, ``t``; only they
        are checked, the edge arrays are shared."""
        graph = PoseGraph.__new__(PoseGraph)
        graph._store(self.keys, checked_pose_blocks(R, t), t, self.ends, self._edge_rows,
                     self.Z_R, self.Z_t, self.information, self.skipped_lines, True)
        return graph

    def _store(self, keys, R, t, ends, edge_rows, Z_R, Z_t, information, skipped_lines, solved):
        """Keep checked arrays, read-only, and start the views empty."""
        self.keys = _frozen(keys)
        self._rows = dict(zip(self.keys.tolist(), range(self.keys.shape[0])))
        self.R, self.t = _frozen(R), _frozen(t)
        self.ends, self._edge_rows = _frozen(ends), _frozen(edge_rows)
        self.Z_R, self.Z_t = _frozen(Z_R), _frozen(Z_t)
        self.information = _frozen(information)
        self.skipped_lines = int(skipped_lines)
        self.solved = bool(solved)
        self._vertices = self._edges = None

    @property
    def vertices(self) -> Mapping[int, Pose]:
        if self._vertices is None:
            self._vertices = MappingProxyType({
                k: Pose._of_checked(R, t) for k, R, t in zip(self.keys.tolist(), self.R, self.t)
            })
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            self._edges = tuple(
                Edge(i, j, Pose(R, t), info) for (i, j), R, t, info
                in zip(self.ends.tolist(), self.Z_R, self.Z_t, self.information)
            )
        return self._edges

    @property
    def n_vertices(self) -> int:
        return self.keys.shape[0]

    @property
    def n_edges(self) -> int:
        return self.ends.shape[0]

    def is_connected(self) -> bool:
        """Whether the edges join every vertex; an empty graph is not connected."""
        n, (i, j) = self.n_vertices, self._edge_rows.T
        if not n:
            return False
        # imported here, so that importing corrpose loads no scipy
        import scipy.sparse.csgraph
        adjacency = scipy.sparse.coo_array((np.ones(i.shape[0]), (i, j)), shape=(n, n))
        return scipy.sparse.csgraph.connected_components(
            adjacency, directed=False, return_labels=False) == 1


# TORO writes EDGE2 information as I11 I12 I22 I33 I13 I23, not in g2o's
# order; with no TORO file to test its edge direction on, its records are
# refused rather than read
_TORO_TAGS = ("VERTEX2", "EDGE2")
# information entries in the upper-triangular, row-major order of the file
_UPPER = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def load_graph(path) -> PoseGraph:
    """Parse a planar g2o text file.

    ``VERTEX_SE2 id x y theta`` and ``EDGE_SE2 i j dx dy dtheta I11 I12 I13
    I22 I23 I33`` (upper-triangular information, row-major).  A TORO
    ``VERTEX2`` or ``EDGE2`` line raises :class:`GraphParseError`.  Lines
    starting with ``#`` are comments; unknown record types are skipped and
    counted on the returned graph.  A repeated vertex id keeps its last line.
    A line that is not ASCII, comments included, raises :class:`GraphParseError`.
    The lines are read into lists and the graph is made from their arrays;
    an edge whose information is not symmetric PSD is still reported before
    a malformed line after it.
    """
    vertices: dict[int, tuple[float, float, float]] = {}
    ends: list[tuple[int, int]] = []
    edges: list[list[float]] = []
    skipped = 0
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                tok = raw.decode("ascii").split()
                if not tok or tok[0].startswith("#"):
                    continue
                tag = tok[0]
                if tag in _TORO_TAGS:
                    raise ValueError(f"{tag} is a TORO record, which is not read; "
                                     "write the graph as g2o VERTEX_SE2/EDGE_SE2")
                if tag == "VERTEX_SE2":
                    if len(tok) != 5:
                        raise ValueError(f"expected 4 fields after {tag}, got {len(tok) - 1}")
                    key = int(tok[1])
                    pose = [float(v) for v in tok[2:5]]
                    if not all(map(math.isfinite, pose)):
                        raise ValueError("pose entries must be finite")
                    vertices[key] = pose
                elif tag == "EDGE_SE2":
                    if len(tok) != 12:
                        raise ValueError(f"expected 11 fields after {tag}, got {len(tok) - 1}")
                    i, j = int(tok[1]), int(tok[2])
                    values = [float(v) for v in tok[3:12]]
                    if not all(map(math.isfinite, values[:3])):
                        raise ValueError("pose entries must be finite")
                    ends.append((i, j))
                    edges.append(values)
                else:
                    skipped += 1
            except (ValueError, OverflowError) as e:
                bad_ends, *_, info = _edge_arrays(ends, edges)
                _checked_information(bad_ends, info)  # an earlier bad information comes first
                raise GraphParseError(line_no, str(e)) from None
    keys = sorted(vertices)
    pose = np.array([vertices[k] for k in keys], dtype=float).reshape(-1, 3)
    R, t = planar_blocks(*pose.T)
    return PoseGraph._of_arrays(np.array(keys, dtype=np.int64), R, t, *_edge_arrays(ends, edges),
                                skipped_lines=skipped)


def _edge_arrays(ends, edges):
    """Endpoint, measurement and (unchecked) information stacks of parsed edge lines."""
    ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
    values = np.array(edges, dtype=float).reshape(-1, 9)
    return (ends, *planar_blocks(*values[:, :3].T), values[:, 3:][:, _UPPER].reshape(-1, 3, 3))


# ---------------------------------------------------------------------------
# linearization machinery shared by the solver and the marginal extraction
# ---------------------------------------------------------------------------

class _System:
    """Residuals, Jacobians and information matrix in per-vertex twist
    coordinates.  Vertex 0 is held fixed, which fixes the gauge by
    elimination: vertex k > 0 owns columns 3 (k - 1) to 3 k - 1.  The CSC
    pattern, a 3x3 block per vertex and per adjacent pair, is built once."""

    def __init__(self, graph: PoseGraph):
        self.index = graph._rows
        self.n = graph.n_vertices
        self.ii, self.jj = graph._edge_rows.T
        self.Zinv = homogeneous(*invert_blocks(graph.Z_R, graph.Z_t))
        # symmetric whitener W with r' info r == ||W r||^2: the principal
        # root, which also takes PSD-singular information (pinned channels)
        self.W = _sqrt_factor(graph.information, err=GraphValidationError)
        # the pattern's 3x3 blocks, keyed v n + u for block row u and column v,
        # from each edge's (i, i), (j, j), (i, j) and (j, i) blocks: repeated
        # edges share theirs, vertex 0's sort last.  Column b of block column
        # v holds three rows of each of its blocks, block s's from slot start[s, b]
        n, three, ii, jj = self.n, np.arange(3), self.ii, self.jj
        u, v = np.stack([ii, jj, ii, jj]), np.stack([ii, jj, jj, ii])
        blocks, slot = np.unique(np.where((u > 0) & (v > 0), v * n + u, n * n), return_inverse=True)
        cols, rows = np.divmod(blocks[blocks < n * n], n)
        nb, before = cols.shape[0], np.searchsorted(cols, np.arange(1, n + 1))
        count, rank = np.diff(before), np.arange(nb) - before[cols - 1]  # rank in block column
        self._indptr = np.append(9 * before[:-1, None] + 3 * count[:, None] * three, 9 * nb)
        start = self._indptr[3 * cols[:, None] - 3 + three] + 3 * rank[:, None]
        a = three[:, None]  # an entry's row in its block
        self._indices = np.empty(9 * nb, dtype=np.int64)
        self._indices[start[:, None] + a] = (3 * rows - 3)[:, None, None] + a
        # each edge entry's slot: the (j, i) block mirrors the (i, j) entries,
        # and vertex 0's share one slot past the end, which is dropped
        slot = slot.reshape(u.shape)
        slots = start[np.minimum(slot, nb - 1)][:, :, None, :] + a
        slots[3] = np.swapaxes(slots[3], 1, 2).copy()
        slots[slot == nb] = 9 * nb
        self._slots = slots.ravel()
        self._grad_rows = (3 * np.concatenate([self.ii, self.jj])[:, None] + three).ravel()

    def residuals(self, T: np.ndarray) -> np.ndarray:
        """Raw (unwhitened) edge residuals (E, 3)."""
        return log_many(self.Zinv @ inv_many(T[self.ii]) @ T[self.jj])

    def chi2(self, r: np.ndarray) -> float:
        """Sum of squared whitened residuals of the edge residuals ``r``."""
        return float((np.einsum("eab,eb->ea", self.W, r) ** 2).sum())

    def jacobians(self, T: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Residual Jacobians dr/dxi_j = Jr^-1(r) Ad(T_j^-1) (E, 3, 3) at T,
        given its residuals r; dr/dxi_i = -dr/dxi_j."""
        Tj_inv = inv_many(T[self.jj])
        return _inv_right_jacobian_many(r) @ adjoint_blocks(Tj_inv[:, :2, :2], Tj_inv[:, :2, 2])

    def assemble(self, T: np.ndarray, r: np.ndarray
                 ) -> tuple[scipy.sparse.csc_matrix, np.ndarray]:
        """Information H = sum J' W' W J on the fixed pattern and gradient
        g = J' W' W r at T, given its residuals r.  With B = (W J_j)' (W J_j),
        each edge adds B to its (i, i) and (j, j) blocks, -B to (i, j) and
        -B' to (j, i)."""
        WJ = self.W @ self.jacobians(T, r)
        B = (np.swapaxes(WJ, 1, 2) @ WJ).ravel()
        data = np.bincount(self._slots, np.concatenate([B, B, -B, -B]),
                           minlength=self._indices.shape[0] + 1)[:-1]
        m = 3 * self.n - 3
        # imported here, so that scipy.sparse loads at a graph's first solve only
        import scipy.sparse
        H = scipy.sparse.csc_matrix((data, self._indices, self._indptr), shape=(m, m))
        gj = np.einsum("eba,eb->ea", WJ, np.einsum("eab,eb->ea", self.W, r)).ravel()
        g = np.bincount(self._grad_rows, np.concatenate([-gj, gj]), minlength=3 * self.n)[3:]
        return H, g


def _inv_right_jacobian_many(xi: np.ndarray) -> np.ndarray:
    """Closed-form SE(2) inverse right Jacobian of an (E, 3) twist stack.

    Jr = [[A, c], [0, 1]], A = [[a, b], [-b, a]], a = sin(t)/t, b = (1 - cos t)/t
    (Sola et al., arXiv 1812.01537, eq. 163).  [[A^-1, -A^-1 c], [0, 1]] reduces
    to I + ad/2 + d ad^2 with d = (1 - (t/2) cot(t/2)) / t^2, the coefficient of
    the SE(3) V^-1 in the stack log, of the angle alone (``liegroup._vinv_coeff``).
    """
    theta = xi[:, 2]
    t2 = theta * theta
    d = _vinv_coeff(theta)
    out = np.zeros((xi.shape[0], 3, 3))
    out[:, 0, 0] = out[:, 1, 1] = 1.0 - t2 * d
    out[:, 0, 1] = -0.5 * theta
    out[:, 1, 0] = 0.5 * theta
    out[:, 0, 2] = theta * d * xi[:, 0] + 0.5 * xi[:, 1]
    out[:, 1, 2] = theta * d * xi[:, 1] - 0.5 * xi[:, 0]
    out[:, 2, 2] = 1.0
    return out


def _factor(info: scipy.sparse.csc_matrix):
    """P H P' = L D L' of an information matrix H: symmetric-mode SuperLU on
    a minimum-degree order of H + H' with diagonal pivots, so perm_r == perm_c
    and U = D L'.  Singular matrices raise, also when a pivot D_jj is not
    positive or is only rounding (SuperLU stops on an exact zero alone)."""
    # imported here, so that scipy.sparse.linalg loads at a graph's first factor only
    import scipy.sparse.linalg
    try:
        lu = scipy.sparse.linalg.splu(info, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                      options=dict(SymmetricMode=True, Equil=False))
    except RuntimeError as e:
        raise RankDeficiencyError(str(e)) from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RankDeficiencyError("singular information: a pivot left the diagonal")
    # U row j holds the pivot of column k of info where perm_c[k] == j
    pivots = lu.U.diagonal()[lu.perm_c]
    diag = info.diagonal()
    ratio = np.divide(pivots, diag, out=np.zeros_like(pivots), where=diag > 0).min()
    if not ratio > _MIN_PIVOT_RATIO:
        raise RankDeficiencyError(f"singular information: pivot ratio {ratio:.3g}")
    return lu


def _segment_products(A: np.ndarray, B: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(k, 3, 3) sums of A_r' B_r over consecutive segments of ``lengths``
    rows (all positive) of (rows, 3) arrays: elementwise products summed by
    ``np.add.reduceat``, so a sum depends on its own rows alone and swapping
    A and B transposes it exactly."""
    first = np.cumsum(lengths) - lengths
    return np.stack([np.add.reduceat(A[:, i, None] * B, first) for i in range(3)], axis=1)


def solve(graph: PoseGraph) -> tuple[PoseGraph, SolveReport]:
    """Gauss-Newton with on-manifold updates, the lowest-keyed vertex held fixed.

    Returns a solved copy of the graph plus a report.  Terminates on relative
    chi2 decrease below ``_REL_TOL`` or after ``_MAX_ITERATIONS``; three
    consecutive chi2 increases raise :class:`DivergenceError`.  Each iterate's
    residuals are evaluated once, for its chi2 and the next step.  Iterates
    are ``exp(hat(delta)) @ T`` as they come; rotation drift beyond
    ``ORTHONORMALITY_TOL`` is repaired once, by the checks of the solved copy.
    """
    if not graph.is_connected():
        raise GraphValidationError("graph is not connected")
    sys_ = _System(graph)
    T = homogeneous(graph.R, graph.t)
    r = sys_.residuals(T)
    chi2 = sys_.chi2(r)
    initial = chi2
    best_chi2, best_T = chi2, T
    converged = chi2 < 1e-15
    iterations = 0
    increases = 0
    while not converged and iterations < _MAX_ITERATIONS:
        H, g = sys_.assemble(T, r)
        delta = _factor(H).solve(-g)
        T = np.concatenate([T[:1], exp_many(delta.reshape(-1, 3)) @ T[1:]])
        iterations += 1
        r = sys_.residuals(T)
        new_chi2 = sys_.chi2(r)
        if new_chi2 > chi2:
            increases += 1
            if increases >= 3:
                raise DivergenceError(
                    f"chi2 rose three consecutive iterations (now {new_chi2:.6e})"
                )
        else:
            increases = 0
        if new_chi2 < best_chi2:
            best_chi2, best_T = new_chi2, T
        rel_decrease = (chi2 - new_chi2) / max(chi2, 1e-300)
        chi2 = new_chi2
        if 0.0 <= rel_decrease < _REL_TOL or new_chi2 < 1e-15:
            converged = True
    solved = graph._solved_at(best_T[:, :2, :2], best_T[:, :2, 2])
    report = SolveReport(iterations, initial, best_chi2, converged)
    return solved, report


class Marginals:
    """Shared factor of the twist-space information matrix.

    Build once per solved graph, then query any number of pair marginals.
    With P H P' = L D L' (:func:`_factor`), the covariance block of vertices
    a and b is Z_a' Z_b, Z = D^-1/2 L^-1 P E for their columns E: forward
    solves only (Kaess and Dellaert, RAS 2009).  L^-1 e_k is nonzero only on
    the path from k to its root in the elimination tree of P H P', so a
    vertex is solved on its path alone, and a and b share the rows from
    their paths' lowest common ancestor up.  The lowest-keyed vertex is held
    fixed, so its rows and columns of the covariance are zero.
    """

    def __init__(self, graph: PoseGraph):
        if not graph.solved:
            raise GraphStateError("marginals need a solved graph; call solve() first")
        self._graph = graph
        self._sys = _System(graph)
        T = homogeneous(graph.R, graph.t)
        info, _ = self._sys.assemble(T, self._sys.residuals(T))
        m = info.shape[0]
        # a one-vertex graph has no variables and no pair to query
        self._lu = lu = _factor(info) if m else None
        if lu is None:
            return
        # elimination tree of H's pattern, m the roots' parent, by Liu's
        # algorithm with path compression (Davis, Direct Methods for Sparse
        # Linear Systems, 2006, sec. 4.1); a parent comes after its children.
        # Loops read arrays through memoryview: no list of ints is built
        H = info.tocoo()
        r, c = lu.perm_c[H.row], lu.perm_c[H.col]
        order = np.argsort(c[r < c], kind="stable")
        parent, ancestor = [m] * (m + 1), [m] * m
        for i, k in zip(memoryview(r[r < c][order]), memoryview(c[r < c][order])):
            while i < k:
                up, ancestor[i] = ancestor[i], k
                if up == m:
                    parent[i] = k
                i = up
        # each node's depth and its subtree's postorder interval [first, last]
        size, depth, first, free = [1] * (m + 1), [-1] * (m + 1), [0] * m, [0] * (m + 1)
        for k in range(m):
            size[parent[k]] += size[k]
        for k in range(m - 1, -1, -1):
            depth[k] = depth[parent[k]] + 1
            first[k] = free[k] = free[parent[k]]
            free[parent[k]] += size[k]
        self._parent, self._depth, self._height = np.array(parent), np.array(depth), max(depth) + 1
        self._first = first = np.array(first)
        self._last = last = first + np.array(size[:m]) - 1
        # L's entries below the diagonal, each on its column's path: Z starts
        # at D^-1/2 on each column's node and steps by D^-1/2 L D^1/2
        L = lu.L
        col = np.repeat(np.arange(m), np.diff(L.indptr))
        below = (L.indices > col) & (L.data != 0)
        row, col = L.indices[below], col[below]
        if not ((first[row] <= first[col]) & (first[col] <= last[row])).all():
            raise RuntimeError("factor has an entry off its elimination tree")
        scale = self._scale = 1.0 / np.sqrt(lu.U.diagonal())
        rows, steps = self._depth[row], (L.data[below] * scale[row] / scale[col])[:, None]
        self._rows, self._steps, self._cut = rows, steps, np.searchsorted(col, np.arange(m + 1))

    def _forward_solves(self, nodes: np.ndarray) -> np.ndarray:
        """Path rows of Z for the vertices whose permuted columns are the rows
        of ``nodes`` (c, 3), in the postorder of each row's lowest node: each
        vertex's three columns at each node of its path, root first.  Node by
        node in elimination order, on rows by depth; the columns under a node
        are one slice, so a column takes the same steps in any batch."""
        low = nodes.min(axis=1)
        W = np.zeros((self._height, nodes.size))
        W[self._depth[nodes.ravel()], np.arange(nodes.size)] = self._scale[nodes.ravel()]
        lo = 3 * np.searchsorted(self._last[low], self._first)
        hi = 3 * np.searchsorted(self._last[low], self._last, "right")
        on = np.flatnonzero(hi > lo)  # the nodes some column's path passes
        rows, steps, cut = self._rows, self._steps, self._cut
        for d, a, b, u, v in zip(*(memoryview(x[on]) for x in (self._depth, lo, hi, cut, cut[1:]))):
            W[rows[u:v], a:b] -= steps[u:v] * W[d, a:b]
        on_path = np.arange(self._height) <= self._depth[low][:, None]
        return np.swapaxes(W.reshape(self._height, -1, 3), 0, 1)[on_path]

    def _check_pair(self, i: int, j: int) -> None:
        if i == j:
            raise ValueError("a pose pair needs two distinct vertices")
        for k in (i, j):
            if k not in self._sys.index:
                raise KeyError(f"unknown vertex {k}")

    def pair_belief(self, i: int, j: int) -> PosePairBelief:
        """Joint 6x6 twist covariance (and means) of vertices i and j: the
        one-pair call of :meth:`pair_beliefs`."""
        return self.pair_beliefs([(i, j)])[0]

    def pair_beliefs(self, pairs) -> list[PosePairBelief]:
        """Joint 6x6 twist covariance (and means) of each pair (i, j), in
        order; every pair is checked before anything is solved.

        Each distinct vertex is solved once (:meth:`_forward_solves`), as many
        per solve as ``_WORK_BYTES`` holds.  Sigma_ii sums Z_i' Z_i over i's
        path and Sigma_ij sums Z_i' Z_j over the rows both paths share
        (:func:`_segment_products`), so a pair's matrix has the same bits in
        any query, and its reverse is its blocks swapped and transposed.
        """
        pairs = list(pairs)
        for i, j in pairs:
            self._check_pair(i, j)
        index = self._sys.index
        idx = np.array([[index[i], index[j]] for i, j in pairs], dtype=int).reshape(-1, 2)
        cov = np.zeros((len(pairs), 6, 6))
        verts = np.unique(idx[idx > 0])
        if verts.size:
            nodes = self._lu.perm_c[3 * verts[:, None] - 3 + np.arange(3)]
            order = np.argsort(self._last[nodes.min(axis=1)])  # postorder of lowest nodes
            verts, nodes, low = verts[order], nodes[order], nodes.min(axis=1)[order]
            step, lengths = max(1, _WORK_BYTES // (24 * self._height)), self._depth[low] + 1
            # each vertex's path rows, kept as views of the solves' results:
            # no array larger than a work array
            Z, S = [], np.empty((verts.shape[0], 3, 3))
            for j in range(0, verts.shape[0], step):
                k = slice(j, j + step)
                rows, ends = self._forward_solves(nodes[k]), np.cumsum(lengths[k]).tolist()
                S[k] = _segment_products(rows, rows, lengths[k])
                Z += [rows[u:v] for u, v in zip([0] + ends, ends)]
            place = np.full(self._sys.n, -1)
            place[verts] = np.arange(verts.shape[0])
            a, b = place[idx].T
            cov[a >= 0, :3, :3], cov[b >= 0, 3:, 3:] = S[a[a >= 0]], S[b[b >= 0]]
            # shared rows: the depth of the paths' lowest common ancestor plus
            # one (0 in separate trees); the lower of two nodes steps up
            both = np.flatnonzero((a >= 0) & (b >= 0))
            x, y = low[a[both]], low[b[both]]
            while (apart := x != y).any():
                x, y = np.where(apart, self._parent[np.minimum(x, y)], x), np.maximum(x, y)
            shared = self._depth[x] + 1
            both, shared = both[shared > 0], shared[shared > 0]
            for j in range(0, both.shape[0], step):
                p, n = both[j:j + step], shared[j:j + step]
                A, B = (np.concatenate([Z[v][:r] for v, r in zip(w[p].tolist(), n.tolist())])
                        for w in (a, b))
                X = _segment_products(A, B, n)
                cov[p, :3, 3:], cov[p, 3:, :3] = X, np.swapaxes(X, 1, 2)
        cov = checked_covs(cov, what="pair covariance")
        vertices = self._graph.vertices
        return [PosePairBelief._of_checked((vertices[i], vertices[j]), c)
                for (i, j), c in zip(pairs, cov)]


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def generate_grid_world(n_poses: int = 500, seed=0, *, trans_sigma: float = 0.14,
                        rot_sigma: float = 0.1, loop_prob: float = 0.5) -> PoseGraph:
    """Manhattan-style random-walk pose graph with odometry and loop closures.

    Ground-truth motion takes unit steps on an integer grid with 90-degree
    turns; a revisited cell closes a loop with probability ``loop_prob`` if
    the earlier visit is at least ``_MIN_LOOP_GAP`` steps back.  Every
    measurement is the true relative pose left-perturbed by Gaussian noise
    drawn from the edge's noise model (default sigmas match the public
    Manhattan benchmark's information matrices); vertex initial values
    integrate the noisy odometry.  Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    q = np.array([trans_sigma, trans_sigma, rot_sigma])

    # ground truth: one turn draw per step, each step a product of the 2x2
    # blocks Pose.planar and Pose.__matmul__ would form
    turn = np.array([0.0, np.pi / 2, -np.pi / 2])
    R_turn, t_turn = planar_blocks(np.cos(turn), np.sin(turn), turn)
    R = np.empty((n_poses, 2, 2))
    t = np.empty((n_poses, 2))
    R[0], t[0] = np.eye(2), 0.0
    cells = {(0, 0): [0]}
    loops: list[tuple[int, int]] = []
    for k in range(1, n_poses):
        m = rng.choice(3, p=[0.6, 0.2, 0.2])
        R[k] = R[k - 1] @ R_turn[m]
        t[k] = R[k - 1] @ t_turn[m] + t[k - 1]
        x, y = t[k].tolist()
        cell = (round(x), round(y))
        for prev in cells.get(cell, []):
            if k - prev >= _MIN_LOOP_GAP and rng.uniform() < loop_prob:
                loops.append((prev, k))
                break
        cells.setdefault(cell, []).append(k)

    # odometry edges, then loop closures: all edge noise in one draw, in the
    # order that one draw per edge would take it
    ends = np.array([(k, k + 1) for k in range(n_poses - 1)] + loops, dtype=np.int64)
    ends = ends.reshape(-1, 2)
    noise = exp_many(rng.normal(0.0, q, size=(ends.shape[0], 3)))
    a, b = ends.T
    rel = compose_blocks(*invert_blocks(R[a], t[a]), R[b], t[b])
    Z_R, Z_t = compose_blocks(np.ascontiguousarray(noise[:, :2, :2]),
                              np.ascontiguousarray(noise[:, :2, 2]), *rel)

    # initial values integrate the noisy odometry, one product at a time
    V_R = np.empty_like(R)
    V_t = np.empty_like(t)
    V_R[0], V_t[0] = R[0], t[0]
    for k in range(1, n_poses):
        V_R[k] = V_R[k - 1] @ Z_R[k - 1]
        V_t[k] = V_R[k - 1] @ Z_t[k - 1] + V_t[k - 1]
    info = np.broadcast_to(np.diag(1.0 / q ** 2), (ends.shape[0], 3, 3))
    return PoseGraph._of_arrays(np.arange(n_poses), V_R, V_t, ends, Z_R, Z_t, info)
