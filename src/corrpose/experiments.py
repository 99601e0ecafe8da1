"""Batch experiments behind the command-line interface.

Each runner takes a merged configuration mapping (JSON file contents with
command-line overrides applied), writes CSV tables (plus a plot script where
it helps) into the output directory and returns the written paths.  All
randomness derives from the configured seed, per-work-item, so re-running a
configuration reproduces every output byte for byte.  Timings go to stderr,
never into the deterministic CSVs.

Config keys shared by all experiments: ``seed`` (int), ``out`` (directory).
``jobs`` must be a positive integer (checked by :func:`run_experiment`) but
has no effect: per-item work is small numpy calls holding the interpreter
lock, so a thread pool only slowed runs down (500-pose ``slam-relpose`` on
two cores: 4.6-8.0 s with two workers, 3.8-4.4 s with one).
Experiment-specific keys are documented on the runners and default to the
desk-scale setups.

``slam-relpose`` works on blocks of ``_PAIR_BLOCK`` = 16 pairs.  Each block
is one stacked evaluation of the first-order predictions (``between``,
``between_ignoring_correlation`` and the SSC baseline) and one call of the
Monte-Carlo oracle :func:`~corrpose.mc.relative_samples`, each pair still
drawing from its own seed.  Both are identical bit for bit to one pair at a
time.  A block that raises is evaluated again one pair at a time through
the same code, so a failing pair still flags only its own rows.  The SSC
baseline's parameter-space truth comes from the oracle's twists in closed
form (:func:`_ssc_relative_cov`).  The block size is a constant, not an
option: it trades the per-call overhead of small numpy calls against the
peak memory of one stack of every pair, and 16 is the largest block that
keeps peak memory within 2 MB of a pair-at-a-time oracle (measurements at
``_PAIR_BLOCK``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from . import graph as graphmod
from .belief import (
    PosePairBelief,
    UncertainPose,
    between,
    between_covs,
    between_ignoring_correlation,
    compose_chain,
)
from .convert import UtConfig, ut_convert
from .liegroup import Pose, _se2_coeffs_many, checked_pose_blocks, exp_many
from .mc import (
    ChainNoiseSpec,
    build_chain_joint,
    chi2_quantile,
    containment_fraction,
    cov_error,
    mc_relative_cov,
    normalized_cov_error,
    relative_samples,
    sample_joint,
    twists_about,
)
from .ssc import (
    SscBelief,
    head_to_tail,
    params_many,
    pose_to_ssc,
    ssc_to_pose,
    tail_to_tail_many,
    wrap_angle,
)

KNOWN_METHODS = ("lie-correlated", "lie-independent", "ssc")

# Pairs per block of slam-relpose, for the predictions and the Monte-Carlo
# oracle alike (module docstring).  It bounds peak memory, which the oracle
# sets: about 165 bytes per draw, 2.6 MB for 16 pairs at M = 1000.  On a
# 500-pose run (600 pairs, M = 1000, two x86_64 cores, one BLAS thread) the
# predictions took 0.21 / 0.16 / 0.12 / 0.10 s with 8 / 16 / 32 / 64-pair
# blocks and the oracle 0.25 / 0.24 / 0.23 / 0.25 s, while the benchmark's
# peak RSS rose by 0.4 / 2.0 / 5.3 / 10.9 MB over the pair-at-a-time
# oracle.  16 is the largest block that stays within 2 MB; it is 0.05 s
# slower than the fastest.
_PAIR_BLOCK = 16


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _cfg_get(cfg, key, default, kind):
    value = cfg.get(key, default)
    try:
        if kind is float:
            return float(value)
        if kind is int:
            out = int(value)
            if out != float(value):
                raise ValueError
            return out
        if kind is str:
            return str(value)
        if kind is list and isinstance(value, (list, tuple)):
            return list(value)  # a string would split into characters
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"config key {key!r}: expected {kind.__name__}, got {value!r}")


def _cfg_methods(cfg):
    methods = _cfg_get(cfg, "methods", list(KNOWN_METHODS), list)
    bad = [m for m in methods if m not in KNOWN_METHODS]
    if bad:
        raise ConfigError(f"unknown methods {bad}; choose from {list(KNOWN_METHODS)}")
    return methods


def _positive(cfg, key, default, kind=float):
    v = _cfg_get(cfg, key, default, kind)
    if v <= 0:
        raise ConfigError(f"config key {key!r} must be positive, got {v}")
    return v


def _out_dir(cfg) -> Path:
    out = Path(_cfg_get(cfg, "out", "results", str))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# twist <-> Euler bridging (planar poses embed as z = roll = pitch = 0)
# ---------------------------------------------------------------------------

def _embed3_many(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Homogeneous SE(3) stack of (M, d, d) rotations and (M, d) translations.

    Planar blocks embed with z = roll = pitch = 0.
    """
    m, d = t.shape
    out = np.zeros((m, 4, 4))
    out[:, :d, :d] = R
    out[:, :d, 3] = t
    if d == 2:
        out[:, 2, 2] = 1.0
    out[:, 3, 3] = 1.0
    return out


def _ssc_linearization(means, h: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Euler parameters of each mean and d params(exp(hat(xi)) T_bar) / d xi at 0.

    One stack serves all means: each contributes T_bar, exp(h e_k) T_bar and
    exp(-h e_k) T_bar, composed as rotation and translation blocks, checked
    like Pose products and converted by a single :func:`params_many` call.
    Returns the (n, 6) parameter rows and the (n, 6, m) central-difference
    Jacobians.
    """
    m = means[0].twist_dim
    step = h * np.eye(m)
    E = exp_many(np.concatenate([step, -step]))
    d = E.shape[1] - 1
    ER, Et = E[:, :d, :d], E[:, :d, d]
    checked_pose_blocks(ER, Et)
    R = np.concatenate([np.concatenate([T.R[None], ER @ T.R]) for T in means])
    t = np.concatenate([np.concatenate([T.t[None], ER @ T.t + Et]) for T in means])
    R = checked_pose_blocks(R, t)
    P = params_many(_embed3_many(R, t)).reshape(len(means), 2 * m + 1, 6)
    diff = P[:, 1 : m + 1] - P[:, m + 1 :]
    diff[:, :, 3:] = wrap_angle(diff[:, :, 3:])
    return P[:, 0], np.ascontiguousarray(np.swapaxes(diff / (2 * h), 1, 2))


def lie_to_ssc(u: UncertainPose) -> SscBelief:
    """First-order Euler-coordinate rendering of a twist-space belief.

    Means convert exactly; the covariance is pushed through the numerical
    Jacobian of the parameter map at the mean.  Planar beliefs embed with
    z = roll = pitch pinned to zero.
    """
    P, J = _ssc_linearization([u.mean])
    return SscBelief(P[0], J[0] @ u.cov @ J[0].T)


def _lie_pairs_to_ssc(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked (k, 12) means and (k, 12, 12) covariances of
    :func:`lie_pair_to_ssc` for k pairs, all 2k means linearized in one stack."""
    P, Js = _ssc_linearization([T for p in pairs for T in p.means])
    k, m = len(pairs), pairs[0].block_dim
    J = np.zeros((k, 12, 2 * m))
    J[:, :6, :m] = Js[0::2]
    J[:, 6:, m:] = Js[1::2]
    cov = np.stack([p.cov for p in pairs])
    return P.reshape(k, 12), J @ cov @ np.swapaxes(J, 1, 2)


def lie_pair_to_ssc(p: PosePairBelief) -> SscBelief:
    """Pair version of :func:`lie_to_ssc`, keeping the cross block."""
    mean, cov = _lie_pairs_to_ssc([p])
    return SscBelief(mean[0], cov[0])


# ---------------------------------------------------------------------------
# compose-sweep
# ---------------------------------------------------------------------------

def _step_cov(sigma_t: float, sigma_r: float) -> np.ndarray:
    return np.diag([1e-3 * sigma_t, 1e-5 * sigma_t, 1e-5, 1e-5, 1e-5, 3e-3 * sigma_r])


_STEP_MEAN = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))


def _ssc_chain_cov(step_belief: SscBelief, n_steps: int) -> SscBelief:
    acc = step_belief
    for _ in range(n_steps - 1):
        acc = head_to_tail(SscBelief.pair(acc, step_belief))
    return acc


def _chain_point(sweep, value, n_steps, sigma_t, sigma_r, rho, M, p, dof_mode, methods, seed):
    t0 = time.perf_counter()
    cov = _step_cov(sigma_t, sigma_r)
    joint = build_chain_joint(ChainNoiseSpec(_STEP_MEAN, cov, n_steps, rho))
    chain = compose_chain(joint)
    predicted = {}
    if "lie-correlated" in methods:
        predicted["lie-correlated"] = chain.cov
    if "lie-independent" in methods:
        ind = build_chain_joint(ChainNoiseSpec(_STEP_MEAN, cov, n_steps, 0.0))
        predicted["lie-independent"] = compose_chain(ind).cov
    mean_final = chain.mean

    batch = sample_joint(joint, M, seed)
    acc = batch.pose_matrices(0)
    for k in range(1, n_steps):
        acc = acc @ batch.pose_matrices(k)
    xis, ok = twists_about(acc, mean_final)
    xis = xis[ok]
    mc_twist = xis.T @ xis / xis.shape[0]

    rows = []
    for method in methods:
        if method == "ssc":
            step_ssc = lie_to_ssc(UncertainPose(_STEP_MEAN, cov))
            pred = _ssc_chain_cov(step_ssc, n_steps)
            x_hat = pose_to_ssc(mean_final)
            r = params_many(acc[ok]) - x_hat
            r[:, 3:] = np.arctan2(np.sin(r[:, 3:]), np.cos(r[:, 3:]))
            mc = r.T @ r / r.shape[0]
            containment = containment_fraction(r, pred.cov, p, dof_mode)
            err = cov_error(pred.cov, mc)
        else:
            containment = containment_fraction(xis, predicted[method], p, dof_mode)
            err = cov_error(predicted[method], mc_twist)
        rows.append((sweep, value, method, containment, err))
    _log(
        f"compose-sweep {sweep}={value}: {len(methods)} methods "
        f"in {1e3 * (time.perf_counter() - t0):.0f} ms"
    )
    return rows


def run_compose_sweep(cfg) -> list[Path]:
    """Chained-odometry containment sweep over N / sigma_r / sigma_t.

    Keys: sweep ("N" | "sigma_r" | "sigma_t"), values (list), N, sigma_t,
    sigma_r, rho, M, p, dof_mode, methods, seed, out.
    """
    sweep = _cfg_get(cfg, "sweep", "N", str)
    if sweep not in ("N", "sigma_r", "sigma_t"):
        raise ConfigError(f"sweep must be one of N, sigma_r, sigma_t, got {sweep!r}")
    default_values = [2, 5, 10, 15, 20] if sweep == "N" else [1.0, 2.0, 3.0, 4.0, 5.0]
    values = _cfg_get(cfg, "values", default_values, list)
    if not values or any(float(v) <= 0 for v in values):
        raise ConfigError("sweep values must be positive")
    n_steps = _positive(cfg, "N", 10, int)
    sigma_t = _positive(cfg, "sigma_t", 3.0, float)
    sigma_r = _positive(cfg, "sigma_r", 3.0, float)
    rho = _cfg_get(cfg, "rho", 0.4, float)
    M = _positive(cfg, "M", 10_000, int)
    p = _positive(cfg, "p", 0.999, float)
    dof_mode = _cfg_get(cfg, "dof_mode", "full", str)
    methods = _cfg_methods(cfg)
    seed = _cfg_get(cfg, "seed", 0, int)
    out = _out_dir(cfg)

    rows = []
    for idx, v in enumerate(values):
        n, st, sr = n_steps, sigma_t, sigma_r
        if sweep == "N":
            n = int(v)
        elif sweep == "sigma_r":
            sr = float(v)
        else:
            st = float(v)
        rows += _chain_point(sweep, v, n, st, sr, rho, M, p, dof_mode, methods, [seed, idx])
    path = _write_csv(
        out / "compose_sweep.csv",
        ["sweep_var", "value", "method", "containment", "cov_error"],
        rows,
    )
    return [path]


# ---------------------------------------------------------------------------
# relpose-alpha-sweep
# ---------------------------------------------------------------------------

_RELPOSE_MEAN_1 = Pose(
    np.array(
        [
            [0.707107, -0.707107, 0.0],
            [0.707107, 0.707107, 0.0],
            [0.0, 0.0, 1.0],
        ]
    ),
    np.array([3.0, 3.0, 0.0]),
)
_RELPOSE_MEAN_2 = Pose(_RELPOSE_MEAN_1.R, np.array([4.5, 4.5, 0.0]))
_RELPOSE_SIGMA = np.diag([0.005, 0.005, 1e-5, 1e-5, 1e-5, 0.006])
_RELPOSE_CROSS = np.diag([0.0005, 0.0005, 0.0, 0.0, 0.0, 0.005])


def relpose_pair(alpha: float) -> PosePairBelief:
    """The correlated 45-degree pose pair at correlation scale alpha."""
    return PosePairBelief.from_blocks(
        _RELPOSE_MEAN_1,
        _RELPOSE_MEAN_2,
        alpha * _RELPOSE_SIGMA,
        alpha * _RELPOSE_SIGMA,
        alpha * _RELPOSE_CROSS,
    )


def run_relpose_alpha_sweep(cfg) -> list[Path]:
    """Relative-pose covariance error vs Monte-Carlo across noise scales.

    Keys: alphas (list), M, seed, out.
    """
    alphas = _cfg_get(cfg, "alphas", [0.5, 1.0, 2.0, 4.0], list)
    if any(float(a) < 0 for a in alphas):
        raise ConfigError("alphas must be nonnegative")
    M = _positive(cfg, "M", 10_000, int)
    seed = _cfg_get(cfg, "seed", 0, int)
    out = _out_dir(cfg)

    rows = []
    for idx, alpha in enumerate(alphas):
        alpha = float(alpha)
        pair = relpose_pair(alpha)
        aware = between(pair)
        naive = between_ignoring_correlation(pair)
        if alpha == 0.0:
            mc = np.zeros((6, 6))
        else:
            mc = mc_relative_cov(pair, M, [seed, idx])
        rows.append((alpha, "lie-correlated", cov_error(aware.cov, mc)))
        rows.append((alpha, "lie-independent", cov_error(naive.cov, mc)))
    path = _write_csv(out / "relpose_alpha_sweep.csv", ["alpha", "method", "cov_error"], rows)
    return [path]


# ---------------------------------------------------------------------------
# slam-relpose
# ---------------------------------------------------------------------------

def _graph_source(cfg):
    """A function that loads or generates the configured graph.

    Every key is checked here, before any graph work: the ``graph`` path
    must exist, and the ``generate`` keys follow the int/float rules of the
    other config keys (``n_poses`` a positive int, ``seed`` an int,
    ``trans_sigma`` and ``rot_sigma`` positive, ``loop_prob`` a float).
    """
    path = cfg.get("graph")
    if path is not None:
        p = Path(str(path))
        if not p.exists():
            raise FileNotFoundError(f"graph file not found: {p}")
        return lambda: graphmod.load_graph(p)
    gen = cfg.get("generate", {})
    if not isinstance(gen, dict):
        raise ConfigError("'generate' must be a mapping")
    gen = {f"generate.{key}": value for key, value in gen.items()}
    n_poses = _positive(gen, "generate.n_poses", 500, int)
    kwargs = {
        "seed": _cfg_get(gen, "generate.seed", 0, int),
        "trans_sigma": _positive(gen, "generate.trans_sigma", 0.14),
        "rot_sigma": _positive(gen, "generate.rot_sigma", 0.1),
        "loop_prob": _cfg_get(gen, "generate.loop_prob", 0.5, float),
    }
    return lambda: graphmod.generate_grid_world(n_poses, **kwargs)


# Errors that fail one pair's rows (error=1) instead of the whole run.
_PAIR_ERRORS = (ArithmeticError, ValueError, RuntimeError)


def _predict(block, method: str) -> np.ndarray:
    """(k, m, m) predicted relative-pose covariances of one method for k pairs."""
    if method == "lie-correlated":
        return between_covs(block, use_cross=True)
    if method == "lie-independent":
        return between_covs(block, use_cross=False)
    return tail_to_tail_many(*_lie_pairs_to_ssc(block))[1]


def _by_pair(evaluate, items) -> list:
    """``evaluate(items)``: one stacked evaluation of a block, one result per pair.

    If it raises, each pair runs again alone through the same code, so only
    a failing pair is lost: its entry is the error that stopped it.
    """
    try:
        return evaluate(items)
    except _PAIR_ERRORS as e:
        if len(items) == 1:
            return [e]
        return [out for item in items for out in _by_pair(evaluate, [item])]


def _block_predictions(block, methods) -> list:
    """Each pair's {method: predicted covariance}, or the error that stopped it."""

    def evaluate(pairs):
        covs = {method: _predict(pairs, method) for method in dict.fromkeys(methods)}
        return [{method: c[r] for method, c in covs.items()} for r in range(len(pairs))]

    return _by_pair(evaluate, block)


def _block_oracles(block, M, seeds) -> list:
    """Each pair's Monte-Carlo samples ``(t_bar_12, twists, kept)`` from one
    :func:`relative_samples` call, or the error that stopped the pair."""

    def evaluate(items):
        s = relative_samples([pb for pb, _ in items], M, [seed for _, seed in items])
        return list(zip(s.t, s.twists, s.kept))

    return _by_pair(evaluate, list(zip(block, seeds)))


# Euler-parameter channels (x, y, yaw) a planar relative sample can move.
_PLANAR_PARAMS = [0, 1, 5]


def _ssc_relative_cov(t_bar: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """(6, 6) Euler-parameter sample covariance of planar relative samples.

    Sample m is ``exp(hat(xi_m)) T_bar`` about a planar mean with translation
    ``t_bar``.  Its parameter residual ``params(exp(xi) T_bar) - params(T_bar)``,
    angles wrapped, is ``((R(theta) - I) t_bar + V(theta) rho, 0, 0, 0, theta)``,
    so it is taken from the twists with no pose or rotation matrix.
    """
    c, s, a, b = _se2_coeffs_many(xis[:, 2])
    rx, ry = xis[:, 0], xis[:, 1]
    r = np.empty((xis.shape[0], 3))
    r[:, 0] = (c - 1.0) * t_bar[0] - s * t_bar[1] + (a * rx - b * ry)
    r[:, 1] = s * t_bar[0] + (c - 1.0) * t_bar[1] + (b * rx + a * ry)
    r[:, 2] = xis[:, 2]
    mc = np.zeros((6, 6))
    mc[np.ix_(_PLANAR_PARAMS, _PLANAR_PARAMS)] = r.T @ r / r.shape[0]
    return mc


def _pair_rows(pb, pred, samples, offset, i, j, methods):
    """CSV rows of one pair: its predictions against its own Monte-Carlo
    samples, or error rows naming the oracle's error, else the first failing
    method's."""
    try:
        for outcome in (samples, pred):
            if isinstance(outcome, Exception):
                raise outcome
        t_bar, twists, kept = samples
        xis = twists[kept]
        mc_twist = xis.T @ xis / xis.shape[0]

        s1, s2, cross = pb.sigma1, pb.sigma2, pb.cross
        corr = [
            cross[c, c] / np.sqrt(s1[c, c] * s2[c, c]) if s1[c, c] * s2[c, c] > 0 else 0.0
            for c in range(3)
        ]
        rows = []
        for method in methods:
            # the SSC baseline is graded in parameter space, from the same samples
            mc = _ssc_relative_cov(t_bar, xis) if method == "ssc" else mc_twist
            err = cov_error(pred[method], mc)
            nerr = normalized_cov_error(pred[method], mc)
            rows.append((offset, i, j, method, err, nerr, *corr, 0))
        return rows
    except _PAIR_ERRORS as e:
        _log(f"slam-relpose pair ({i},{j}) failed: {e}")
        return [(offset, i, j, m, "", "", "", "", "", 1) for m in methods]


def run_slam_relpose(cfg) -> list[Path]:
    """Relative-pose covariance accuracy on marginals of a solved pose graph.

    Keys: graph (path) or generate ({n_poses, seed, ...}), offsets (list),
    pairs_per_offset, M, methods, seed, out.  Every key is checked before
    the graph is loaded or generated.  All pair marginals come from one
    :meth:`Marginals.pair_beliefs` call; the predictions and the Monte-Carlo
    oracle run per block of ``_PAIR_BLOCK`` pairs.
    """
    offsets = _cfg_get(cfg, "offsets", [10, 50, 100], list)
    offsets = [_positive({"offsets": v}, "offsets", None, int) for v in offsets]
    cap = _positive(cfg, "pairs_per_offset", 200, int)
    M = _positive(cfg, "M", 1_000, int)
    methods = _cfg_methods(cfg)
    seed = _cfg_get(cfg, "seed", 0, int)
    load = _graph_source(cfg)
    out = _out_dir(cfg)

    t0 = time.perf_counter()
    g = load()
    solved, report = graphmod.solve(g)
    _log(
        f"slam-relpose: solved {g.n_vertices} poses / {g.n_edges} edges "
        f"in {report.iterations} iterations "
        f"(chi2 {report.initial_chi2:.4g} -> {report.final_chi2:.4g}, "
        f"{time.perf_counter() - t0:.1f} s)"
    )
    marg = graphmod.Marginals(solved)
    keys = sorted(solved.vertices)

    pairs, keyed, seeds = [], [], []
    for oidx, offset in enumerate(offsets):
        starts = [k for k in keys if k + offset in solved.vertices]
        if len(starts) > cap:
            sel = np.linspace(0, len(starts) - 1, cap).round().astype(int)
            starts = [starts[s] for s in dict.fromkeys(sel)]
        for pidx, i in enumerate(starts):
            pairs.append((i, i + offset))
            keyed.append((offset, i, i + offset))
            seeds.append([seed, oidx, pidx])

    beliefs = marg.pair_beliefs(pairs)
    rows = []
    for start in range(0, len(beliefs), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        preds = _block_predictions(beliefs[block], methods)
        oracles = _block_oracles(beliefs[block], M, seeds[block])
        for pb, pred, samples, key in zip(beliefs[block], preds, oracles, keyed[block]):
            rows += _pair_rows(pb, pred, samples, *key, methods)
    header = [
        "offset", "i", "j", "method", "cov_error", "normalized_cov_error",
        "corr_coeff_x", "corr_coeff_y", "corr_coeff_theta", "error",
    ]
    paths = [_write_csv(out / "slam_relpose.csv", header, rows)]

    summary = []
    for method in methods:
        for col, name in ((4, "cov_error"), (5, "normalized_cov_error")):
            vals = np.array([r[col] for r in rows if r[3] == method and not r[9]])
            n = vals.shape[0]
            mean = float(vals.mean()) if n else float("nan")
            std = float(vals.std(ddof=1)) if n > 1 else float("nan")
            se = std / np.sqrt(n) if n > 1 else float("nan")
            summary.append((method, name, mean, se, std, n))
    paths.append(
        _write_csv(
            out / "slam_relpose_summary.csv",
            ["method", "metric", "mean", "standard_error", "std_dev", "n_pairs"],
            summary,
        )
    )
    return paths


# ---------------------------------------------------------------------------
# convert-demo
# ---------------------------------------------------------------------------

_DEMO_PLOT = """\
# Plots the 95% position ellipses written by the convert-demo experiment.
# Usage: python plot_ellipses.py [results_dir]
import csv
import sys
from collections import defaultdict

import matplotlib.pyplot as plt

base = sys.argv[1] if len(sys.argv) > 1 else "."
loci = defaultdict(lambda: ([], []))
with open(f"{base}/ellipses.csv") as fh:
    for row in csv.DictReader(fh):
        loci[row["locus"]][0].append(float(row["x"]))
        loci[row["locus"]][1].append(float(row["y"]))
xs, ys = [], []
with open(f"{base}/samples.csv") as fh:
    for row in csv.DictReader(fh):
        xs.append(float(row["x"]))
        ys.append(float(row["y"]))
plt.figure(figsize=(6, 6))
plt.plot(xs, ys, ".", ms=1, alpha=0.3, color="pink", label="true samples")
colors = {"true": "deeppink", "ssc": "red", "converted": "green"}
for name, (lx, ly) in loci.items():
    plt.plot(lx, ly, color=colors.get(name, "k"), label=name)
plt.axis("equal")
plt.legend()
plt.xlabel("x [m]")
plt.ylabel("y [m]")
plt.title("95% position ellipses: true vs coordinate vs converted")
plt.savefig(f"{base}/ellipses.png", dpi=150)
print(f"wrote {base}/ellipses.png")
"""


def _ellipse_locus(mean, cov, p=0.95, n_points=128):
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    t = np.linspace(0.0, 2 * np.pi, n_points + 1)
    circle = np.stack([np.cos(t), np.sin(t)])
    if not cov.any():
        return np.tile(mean, (n_points + 1, 1))
    L = np.linalg.cholesky(cov + 1e-300 * np.eye(2))
    radius = np.sqrt(chi2_quantile(2, p))
    return (mean[:, None] + radius * (L @ circle)).T


def _fraction_inside(points, mean, cov, thr):
    d = points - np.asarray(mean)
    if not np.asarray(cov).any():
        return float(np.mean(~d.any(axis=1)))
    sol = np.linalg.solve(cov, d.T).T
    return float(np.mean(np.einsum("mi,mi->m", d, sol) <= thr))


def run_convert_demo(cfg) -> list[Path]:
    """Round-trip demonstration: twist Gaussian -> coordinate fit -> unscented back.

    Keys: mean_params (6 floats), cov_lie_diag (6 floats), M, p, kappa, seed,
    out.  Emits 95% position-ellipse loci for the true / coordinate /
    converted representations, a capped sample cloud, containment counts and
    a plot script.
    """
    mean_params = np.asarray(
        _cfg_get(cfg, "mean_params", [3.0, 3.0, 0.0, 0.0, 0.0, np.pi / 4], list),
        dtype=float,
    )
    diag = np.asarray(
        _cfg_get(cfg, "cov_lie_diag", [0.005, 0.005, 1e-5, 1e-5, 1e-5, 0.09], list),
        dtype=float,
    )
    if mean_params.shape != (6,) or diag.shape != (6,) or (diag < 0).any():
        raise ConfigError("mean_params and cov_lie_diag must be 6-vectors (diag >= 0)")
    M = _positive(cfg, "M", 20_000, int)
    p = _positive(cfg, "p", 0.95, float)
    kappa = _cfg_get(cfg, "kappa", 0.0, float)
    seed = _cfg_get(cfg, "seed", 0, int)
    out = _out_dir(cfg)

    T_bar = ssc_to_pose(mean_params)
    true_belief = UncertainPose(T_bar, np.diag(diag))
    mats = sample_joint(true_belief, M, [seed, 0]).pose_matrices(0)
    pos = mats[:, :2, 3]
    x_hat = pose_to_ssc(T_bar)
    r = params_many(mats) - x_hat
    r[:, 3:] = np.arctan2(np.sin(r[:, 3:]), np.cos(r[:, 3:]))
    coord_cov = r.T @ r / M
    coord_belief = SscBelief(x_hat, coord_cov)

    converted = ut_convert(coord_belief, UtConfig(kappa=kappa))
    conv_belief = UncertainPose(converted.means[0], converted.cov)
    conv_pos = sample_joint(conv_belief, M, [seed, 1]).pose_matrices(0)[:, :2, 3]

    loci = {
        "true": (pos.mean(axis=0), np.cov(pos.T) if diag.any() else np.zeros((2, 2))),
        "ssc": (x_hat[:2], coord_cov[:2, :2]),
        "converted": (
            conv_pos.mean(axis=0),
            np.cov(conv_pos.T) if diag.any() else np.zeros((2, 2)),
        ),
    }
    thr = chi2_quantile(2, p)
    ellipse_rows = []
    count_rows = []
    for name, (mean2, cov2) in loci.items():
        for k, (x, y) in enumerate(_ellipse_locus(mean2, cov2, p)):
            ellipse_rows.append((name, k, x, y))
        count_rows.append((name, _fraction_inside(pos, mean2, cov2, thr)))

    paths = [
        _write_csv(out / "ellipses.csv", ["locus", "point_index", "x", "y"], ellipse_rows),
        _write_csv(
            out / "samples.csv", ["x", "y"],
            [(float(a), float(b)) for a, b in pos[: min(M, 2000)]],
        ),
        _write_csv(out / "containment.csv", ["locus", "fraction_true_inside"], count_rows),
    ]
    script = out / "plot_ellipses.py"
    script.write_text(_DEMO_PLOT, encoding="ascii")
    paths.append(script)
    return paths


# ---------------------------------------------------------------------------
# solve-graph
# ---------------------------------------------------------------------------

def run_solve_graph(cfg) -> list[Path]:
    """Load (or generate), solve, and dump the per-vertex solution.

    Keys: graph (path) or generate mapping, out.
    """
    load = _graph_source(cfg)
    out = _out_dir(cfg)
    g = load()
    t0 = time.perf_counter()
    solved, report = graphmod.solve(g)
    _log(f"solve-graph: {report} ({time.perf_counter() - t0:.1f} s)")
    rows = []
    for k in sorted(solved.vertices):
        T = solved.vertices[k]
        rows.append((k, T.t[0], T.t[1], float(np.arctan2(T.R[1, 0], T.R[0, 0]))))
    paths = [
        _write_csv(out / "solution.csv", ["key", "x", "y", "theta"], rows),
        _write_csv(
            out / "solve_report.csv",
            ["iterations", "initial_chi2", "final_chi2", "converged"],
            [(report.iterations, report.initial_chi2, report.final_chi2, report.converged)],
        ),
    ]
    return paths


EXPERIMENTS = {
    "compose-sweep": run_compose_sweep,
    "relpose-alpha-sweep": run_relpose_alpha_sweep,
    "slam-relpose": run_slam_relpose,
    "convert-demo": run_convert_demo,
    "solve-graph": run_solve_graph,
}


def run_experiment(name: str, cfg) -> list[Path]:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    _positive(cfg, "jobs", 1, int)  # validated, no effect (module docstring)
    return EXPERIMENTS[name](dict(cfg))


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        with open(p, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return cfg
