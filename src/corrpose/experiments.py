"""Batch experiments behind the command-line interface.

Each runner takes its resolved configuration, writes CSV tables (plus a
plot script where it helps) into the output directory and returns the
written paths.  All randomness derives from the configured seed,
per-work-item, so re-running a configuration reproduces every output byte
for byte.  Timings go to stderr, never into the deterministic CSVs.

Each experiment's keys, with their defaults (the desk-scale setups) and
rules, are one table in :data:`TABLES`; the README lists the same tables.
:func:`run_experiment` resolves the whole configuration against it before
any work (:func:`resolve_config`).  ``jobs`` must be a positive integer but
has no effect: per-item work is small numpy calls holding the interpreter
lock, so every experiment runs on one thread.

``slam-relpose`` grades its pairs in two passes.  The Monte-Carlo oracle
:func:`~corrpose.mc.relative_samples` runs on blocks of ``_PAIR_BLOCK`` = 16
pairs, each drawing from its own seed, and keeps only each pair's twist
and, for the SSC baseline, parameter-space sample covariances, the latter
in closed form from the oracle's twists and the coefficients its kernel
took of their angles (:func:`_oracle_moments`, :func:`_ssc_relative_covs`).
Then each first-order prediction runs once over every pair, and every pair
and method is graded at once by the stacked :func:`~corrpose.mc.cov_error`
and :func:`~corrpose.mc.normalized_cov_error` (:func:`_pair_rows`).  All of
it is identical bit for bit to one pair at a time.  A stack that raises is
evaluated again by halves, down to single pairs (:func:`_by_pair`), so a
failing pair still flags only its own rows.  The block size is a constant,
not a config key: it bounds the oracle's peak memory (``_PAIR_BLOCK``).
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path
from types import MappingProxyType

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
from .convert import ut_convert
from .liegroup import Pose, homogeneous
from .mc import (
    InvalidSpecError,
    _sample_covs,
    _sqrt_factor,
    chain_joint,
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
    _euler_rates,
    head_to_tail,
    param_residuals,
    params_many,
    pose_to_ssc,
    ssc_to_pose,
    tail_to_tail_many,
)

KNOWN_METHODS = ("lie-correlated", "lie-independent", "ssc")

# Pairs per call of the slam-relpose Monte-Carlo oracle (module docstring).
# It bounds the peak memory of the oracle's samples: about 165 bytes per
# draw, 2.6 MB for 16 pairs at M = 1000.  On a 500-pose run (600 pairs,
# M = 1000, two x86_64 cores, one BLAS thread) the oracle took 0.25 / 0.24 /
# 0.23 / 0.25 s with 8 / 16 / 32 / 64-pair blocks, while the benchmark's
# peak RSS rose by 0.4 / 2.0 / 5.3 / 10.9 MB over one pair at a time.
_PAIR_BLOCK = 16


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# config rules: each takes a key's dotted name and its given value and returns
# the value the runner reads, or raises ConfigError (tables: :data:`TABLES`)
# ---------------------------------------------------------------------------

def _as(kind, key, value):
    """``value`` converted by ``kind``.  Only a str converts to str, only an
    integral value to int, and a JSON boolean to nothing."""
    try:
        if not isinstance(value, bool) and (kind is not str or isinstance(value, str)):
            out = kind(value)
            if kind is not int or out == float(value):
                return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"config key {key!r}: expected {kind.__name__}, got {value!r}")


def _rule(kind, test=None, claim=""):
    """A rule: the value as ``kind``, of which ``test`` must hold."""

    def check(key, value):
        v = _as(kind, key, value)
        if test is not None and not test(v):
            raise ConfigError(f"config key {key!r} must be {claim}, got {v!r}")
        return v

    return check


def _one_of(*options):
    return _rule(str, lambda v: v in options, f"one of {list(options)}")


def _list_of(rule, length=None):
    """A rule: a vector of ``length`` items if given, else a non-empty list of
    distinct items (each keys its own output rows), each obeying ``rule``."""

    def check(key, value):
        if not isinstance(value, (list, tuple)):  # a string would split into characters
            raise ConfigError(f"config key {key!r}: expected list, got {value!r}")
        if not value or length not in (None, len(value)):
            want = length or "one or more"
            raise ConfigError(f"config key {key!r} must hold {want} items, got {len(value)}")
        items = tuple(rule(key, v) for v in value)
        if length is None and len(set(items)) < len(items):
            repeat = next(v for k, v in enumerate(items) if v in items[:k])
            raise ConfigError(f"config key {key!r} repeats {repeat!r}")
        return items

    return check


_SEED = _rule(int, lambda v: v >= 0, ">= 0")  # numpy takes no negative seed
_POSITIVE_INT = _rule(int, lambda v: v > 0, "positive")
_POSITIVE = _rule(float, lambda v: v > 0, "positive")
_NONNEGATIVE = _rule(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_FINITE = _rule(float, math.isfinite, "finite")
_DRAWS = _rule(int, lambda v: v >= 2, "at least 2")  # a sample covariance needs two
_PROBABILITY = _rule(float, lambda v: 0 < v < 1, "in (0, 1)")
_METHODS = _list_of(_one_of(*KNOWN_METHODS))


def _resolve(table, raw, prefix=""):
    unknown = sorted(raw.keys() - table.keys())
    if unknown:
        known = ", ".join(prefix + key for key in sorted(table))
        raise ConfigError(f"unknown config key {prefix + unknown[0]!r}; known keys: {known}")
    resolved = {}
    for key, entry in table.items():
        name = prefix + key
        if isinstance(entry, dict):
            value = raw.get(key, {})
            if not isinstance(value, dict):
                raise ConfigError(f"config key {name!r} must be a mapping, got {value!r}")
            resolved[key] = _resolve(entry, value, name + ".")
        else:
            default, rule = entry(resolved) if callable(entry) else entry
            resolved[key] = rule(name, raw[key]) if key in raw else default
    return MappingProxyType(resolved)


def resolve_config(name: str, cfg) -> MappingProxyType:
    """``cfg`` checked against experiment ``name``'s table: a read-only mapping of
    exactly the table's keys, defaults filled in.  Raises before any work."""
    if name not in TABLES:
        raise ConfigError(f"unknown experiment {name!r}; choose from {sorted(TABLES)}")
    resolved = _resolve(TABLES[name], cfg)
    if "graph" in cfg and "generate" in cfg:
        raise ConfigError("config keys 'graph' and 'generate' exclude each other; give one")
    if name == "compose-sweep":
        _check_chain_joints(resolved)
    return resolved


def _cells(column) -> list[str]:
    """One CSV column's cells in one format: decimal if all its numbers are
    integers or booleans (1 and 0), else 17 significant digits.  Strings,
    such as the empty numeric cells of a failed row, stay as they are."""
    numbers = {type(v) for v in column if not isinstance(v, str)}
    integral = all(issubclass(k, (int, np.integer, np.bool_)) for k in numbers)
    fmt = ("{:d}" if integral else "{:.17g}").format
    return [v if isinstance(v, str) else fmt(v) for v in column]


def _write_csv(path: Path, header, rows) -> Path:
    columns = [_cells(column) for column in zip(*rows)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))
    return path


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# twist <-> Euler bridging (planar poses embed as z = roll = pitch = 0)
# ---------------------------------------------------------------------------

def _embed3(R: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SE(3) blocks of (M, d, d) rotations and (M, d) translations; planar
    blocks embed with z = roll = pitch = 0."""
    m, d = t.shape
    if d == 3:
        return R, t
    R3 = np.zeros((m, 3, 3))
    R3[:, :2, :2] = R
    R3[:, 2, 2] = 1.0
    return R3, np.column_stack([t, np.zeros(m)])


# Euler-parameter channels (x, y, yaw) a planar pose can move, and their
# block of a 6x6 parameter covariance.
_PLANAR_PARAMS = [0, 1, 5]
_PLANAR_BLOCK = np.ix_(_PLANAR_PARAMS, _PLANAR_PARAMS)


def _ssc_linearization(means) -> tuple[np.ndarray, np.ndarray]:
    """(n, 6) Euler parameters of n means and (n, 6, m) Jacobians
    d params(exp(hat(xi)) T_bar) / d xi at 0: D(x_bar)^-1, whose x, y and yaw
    columns a planar twist (rho_x, rho_y, phi) moves."""
    R, t = _embed3(np.stack([T.R for T in means]), np.stack([T.t for T in means]))
    P = params_many(homogeneous(R, t))
    J = _euler_rates(P, inverse=True)
    return P, J[:, :, _PLANAR_PARAMS] if means[0].dim == 2 else J


def lie_to_ssc(u: UncertainPose) -> SscBelief:
    """First-order Euler-coordinate rendering of a twist-space belief.

    Means convert exactly; the covariance is pushed through the closed-form
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


def _sweep_chain(cfg, value, rho):
    """Chain joint of one sweep point, ``cfg`` with the key that ``sweep``
    names set to ``value``, its steps correlated by ``rho``; one that is not
    PSD raises :class:`InvalidSpecError`."""
    point = {**cfg, cfg["sweep"]: value}
    cov = _step_cov(point["sigma_t"], point["sigma_r"])
    return chain_joint(_STEP_MEAN, cov, point["N"], rho)


def _check_chain_joints(cfg) -> None:
    """Check every sweep point's chain joint at resolution, so a ``rho`` that
    makes one of them not PSD exits 2 before any sampling."""
    for value in cfg["values"]:
        try:
            _sweep_chain(cfg, value, cfg["rho"])
        except InvalidSpecError as e:
            raise ConfigError(f"config key 'rho': {e}") from None


def _chain_point(cfg, value, seed):
    """Rows of one sweep point: ``cfg`` with the key that ``sweep`` names set to ``value``."""
    t0 = time.perf_counter()
    sweep, methods, p, dof_mode = cfg["sweep"], cfg["methods"], cfg["p"], cfg["dof_mode"]
    joint = _sweep_chain(cfg, value, cfg["rho"])
    chain = compose_chain(joint)
    predicted = {}
    if "lie-correlated" in methods:
        predicted["lie-correlated"] = chain.cov
    if "lie-independent" in methods:
        predicted["lie-independent"] = compose_chain(_sweep_chain(cfg, value, 0.0)).cov
    mean_final = chain.mean

    batch = sample_joint(joint, cfg["M"], seed)
    acc = batch.pose_matrices(0)
    for k in range(1, joint.n):
        acc = acc @ batch.pose_matrices(k)
    xis, ok = twists_about(acc, mean_final)
    mc_twist = _sample_covs(xis[None], ok[None])[0]
    xis = xis[ok]

    rows = []
    for method in methods:
        if method == "ssc":
            pred = _ssc_chain_cov(lie_to_ssc(joint.marginal(0)), joint.n)
            r = param_residuals(acc[ok], pose_to_ssc(mean_final))
            mc = _sample_covs(r[None], np.ones((1, r.shape[0]), dtype=bool))[0]
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

    Keys: ``TABLES["compose-sweep"]``.
    """
    rows = [row for idx, value in enumerate(cfg["values"])
            for row in _chain_point(cfg, value, [cfg["seed"], idx])]
    header = ["sweep_var", "value", "method", "containment", "cov_error"]
    return [_write_csv(cfg["out"] / "compose_sweep.csv", header, rows)]


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

    Keys: ``TABLES["relpose-alpha-sweep"]``.
    """
    rows = []
    for idx, alpha in enumerate(cfg["alphas"]):
        pair = relpose_pair(alpha)
        aware = between(pair)
        naive = between_ignoring_correlation(pair)
        mc = mc_relative_cov(pair, cfg["M"], [cfg["seed"], idx])
        rows.append((alpha, "lie-correlated", cov_error(aware.cov, mc)))
        rows.append((alpha, "lie-independent", cov_error(naive.cov, mc)))
    header = ["alpha", "method", "cov_error"]
    return [_write_csv(cfg["out"] / "relpose_alpha_sweep.csv", header, rows)]


# ---------------------------------------------------------------------------
# slam-relpose
# ---------------------------------------------------------------------------

def _load_graph(cfg) -> graphmod.PoseGraph:
    """The ``graph`` file, or a ``generate`` graph; a bad file is a config error."""
    if cfg["graph"] is None:
        return graphmod.generate_grid_world(**cfg["generate"])
    try:
        return graphmod.load_graph(cfg["graph"])
    except (graphmod.GraphParseError, graphmod.GraphValidationError) as e:
        raise ConfigError(f"config key 'graph': {cfg['graph']}: {e}") from None


# Errors that fail one pair's rows (error=1) instead of the whole run.
_PAIR_ERRORS = (ArithmeticError, ValueError, RuntimeError)


def _predict(pairs, method: str) -> np.ndarray:
    """(k, m, m) predicted relative-pose covariances of one method for k pairs."""
    if method == "lie-correlated":
        return between_covs(pairs, use_cross=True)
    if method == "lie-independent":
        return between_covs(pairs, use_cross=False)
    return tail_to_tail_many(*_lie_pairs_to_ssc(pairs))[1]


def _by_pair(evaluate, items) -> list:
    """``evaluate(items)``: one stacked evaluation, one result per item.

    If it raises, each half is evaluated again the same way, down to single
    items, so only a failing item is lost: its entry is the error that
    stopped it.  A failing item of k costs O(log k) re-evaluations.
    """
    try:
        return evaluate(items)
    except _PAIR_ERRORS as e:
        if len(items) == 1:
            return [e]
        half = len(items) // 2
        return _by_pair(evaluate, items[:half]) + _by_pair(evaluate, items[half:])


def _oracle_moments(items, M: int, methods) -> list:
    """Per ``(pair belief, seed, (offset, i, j))`` item, the oracle's twist and
    parameter-space (None without ``ssc``) sample covariances, or the error
    that stopped it; one oracle call per ``_PAIR_BLOCK`` pairs."""

    def moments(block):
        s = relative_samples([pb for pb, _, _ in block], M, [seed for _, seed, _ in block])
        params = _ssc_relative_covs(s) if "ssc" in methods else [None] * len(block)
        return list(zip(_sample_covs(s.twists, s.kept), params))

    return [out for start in range(0, len(items), _PAIR_BLOCK)
            for out in _by_pair(moments, items[start : start + _PAIR_BLOCK])]


def _pair_rows(items, moments, methods) -> list:
    """CSV rows of the items of :func:`_oracle_moments`, one list per pair,
    each method predicted once over every pair the oracle served.  A failing
    pair logs the oracle's error, else its first failing method's, and gets
    ``error=1`` rows."""

    def grade(block):
        pairs, grades = [pb for pb, _ in block], []
        for method in methods:
            pred = _predict(pairs, method)
            mc = np.stack([params if method == "ssc" else twist for _, (twist, params) in block])
            grades.append(zip(cov_error(pred, mc).tolist(), normalized_cov_error(pred, mc).tolist()))
        # correlation coefficients of the x, y and heading channels
        cov, m, c = np.stack([pb.cov for pb in pairs]), pairs[0].block_dim, np.arange(3)
        var = cov[:, c, c] * cov[:, m + c, m + c]
        on = var > 0
        corr = np.where(on, cov[:, c, m + c] / np.sqrt(np.where(on, var, 1.0)), 0.0).tolist()
        return list(zip(zip(*grades), corr))

    served = [(pb, mc) for (pb, _, _), mc in zip(items, moments) if not isinstance(mc, Exception)]
    graded = iter(_by_pair(grade, served) if served else [])
    rows = []
    for (_, _, (offset, i, j)), mc in zip(items, moments):
        out = mc if isinstance(mc, Exception) else next(graded)
        if isinstance(out, Exception):
            _log(f"slam-relpose pair ({i},{j}) failed: {out}")
            rows.append([(offset, i, j, m, "", "", "", "", "", 1) for m in methods])
            continue
        grades, corr = out
        rows.append([(offset, i, j, method, err, nerr, *corr, 0)
                     for method, (err, nerr) in zip(methods, grades)])
    return rows


def _ssc_relative_covs(s) -> np.ndarray:
    """(k, 6, 6) Euler-parameter sample covariances of k pairs' planar
    relative samples ``s``, over the kept samples of each.

    Sample m of a pair is ``exp(hat(xi_m)) T_bar`` about a planar mean with
    translation ``t_bar``.  Its parameter residual ``params(exp(xi) T_bar) -
    params(T_bar)``, angles wrapped, is ``((R(theta) - I) t_bar + V(theta)
    rho, 0, 0, 0, theta)``, so it is taken from the twists and the kernel's
    coefficients of their angles, one stacked expression for all k pairs,
    with no pose or rotation matrix.
    """
    c, sn, a, b = np.swapaxes(s.coeffs, 0, 1)
    c = c - 1.0
    t0, t1 = s.t[:, :1], s.t[:, 1:]
    rx, ry = s.twists[..., 0], s.twists[..., 1]
    r = np.empty(s.twists.shape)
    r[..., 0] = c * t0 - sn * t1 + (a * rx - b * ry)
    r[..., 1] = sn * t0 + c * t1 + (b * rx + a * ry)
    r[..., 2] = s.twists[..., 2]
    mc = np.zeros((r.shape[0], 6, 6))
    mc[(slice(None), *_PLANAR_BLOCK)] = _sample_covs(r, s.kept)
    return mc


def run_slam_relpose(cfg) -> list[Path]:
    """Relative-pose covariance accuracy on marginals of a solved pose graph.

    Keys: ``TABLES["slam-relpose"]``.  All pair marginals come from one
    :meth:`Marginals.pair_beliefs` call, then the oracle and the predictions
    (module docstring); the stage times go to stderr.
    """
    methods, cap = cfg["methods"], cfg["pairs_per_offset"]
    t0 = time.perf_counter()
    g = _load_graph(cfg)
    solved, report = graphmod.solve(g)
    solve_s = time.perf_counter() - t0
    marg = graphmod.Marginals(solved)
    keys = solved.keys.tolist()
    keyset = set(keys)

    keyed, seeds = [], []
    for oidx, offset in enumerate(cfg["offsets"]):
        starts = [k for k in keys if k + offset in keyset]
        if len(starts) > cap:
            sel = np.linspace(0, len(starts) - 1, cap).round().astype(int)
            starts = [starts[s] for s in dict.fromkeys(sel)]
        for pidx, i in enumerate(starts):
            keyed.append((offset, i, i + offset))
            seeds.append([cfg["seed"], oidx, pidx])

    beliefs = marg.pair_beliefs([key[1:] for key in keyed])
    items = list(zip(beliefs, seeds, keyed))
    t1 = time.perf_counter()
    moments = _oracle_moments(items, cfg["M"], methods)
    t2 = time.perf_counter()
    rows = [row for out in _pair_rows(items, moments, methods) for row in out]
    t3 = time.perf_counter()
    header = [
        "offset", "i", "j", "method", "cov_error", "normalized_cov_error",
        "corr_coeff_x", "corr_coeff_y", "corr_coeff_theta", "error",
    ]
    paths = [_write_csv(cfg["out"] / "slam_relpose.csv", header, rows)]

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
            cfg["out"] / "slam_relpose_summary.csv",
            ["method", "metric", "mean", "standard_error", "std_dev", "n_pairs"],
            summary,
        )
    )
    _log(
        f"slam-relpose: solved {g.n_vertices} poses / {g.n_edges} edges in {report.iterations} "
        f"iterations (chi2 {report.initial_chi2:.4g} -> {report.final_chi2:.4g}, {solve_s:.1f} s); "
        f"oracle {t2 - t1:.3f} s, predictions {t3 - t2:.3f} s, CSV {time.perf_counter() - t3:.3f} s"
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


def _ellipse(points, mean, cov, p, n_points=128):
    """The p-ellipse of ``mean`` and the PSD 2x2 ``cov``: its locus, the
    unit circle through the :func:`~corrpose.mc._sqrt_factor` of ``cov``,
    and the share of ``points`` inside it.  Both take the chi-square
    p-quantile of as many degrees of freedom as the range of ``cov`` (its
    eigenvalues above n eps times the largest) has dimensions, so a rank-1
    locus is the segment counted.  A point is inside when its squared
    Mahalanobis distance, by the pseudo-inverse on the range, is within the
    quantile and it is off the range by at most the rounding's standard
    deviation; a zero ``cov`` holds only the points at ``mean``."""
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    w, V = np.linalg.eigh(cov)
    cut = w.shape[0] * np.finfo(float).eps * w.max()
    on = w > cut
    q = chi2_quantile(max(1, int(on.sum())), p)
    t = np.linspace(0.0, 2 * np.pi, n_points + 1)
    locus = mean + np.sqrt(q) * (_sqrt_factor(cov) @ np.stack([np.cos(t), np.sin(t)])).T
    y = (points - mean) @ V
    inside = (np.abs(y[:, ~on]) <= np.sqrt(cut)).all(axis=1)
    inside &= (y[:, on] ** 2 / w[on]).sum(axis=1) <= q
    return locus, float(np.mean(inside))


def run_convert_demo(cfg) -> list[Path]:
    """Round-trip demonstration: twist Gaussian -> coordinate fit -> unscented back.

    Keys: ``TABLES["convert-demo"]``.  Emits 95% position-ellipse loci for
    the true / coordinate / converted representations, a capped sample
    cloud, containment counts (the chi-square p-quantile takes its degrees
    of freedom from each locus covariance's rank) and a plot script.
    """
    M, p, seed, out = cfg["M"], cfg["p"], cfg["seed"], cfg["out"]
    diag = np.asarray(cfg["cov_lie_diag"], dtype=float)
    T_bar = ssc_to_pose(np.asarray(cfg["mean_params"], dtype=float))
    true_belief = UncertainPose(T_bar, np.diag(diag))
    mats = sample_joint(true_belief, M, [seed, 0]).pose_matrices(0)
    pos = mats[:, :2, 3]
    x_hat = pose_to_ssc(T_bar)
    r = param_residuals(mats, x_hat)
    coord_cov = _sample_covs(r[None], np.ones((1, M), dtype=bool))[0]
    coord_belief = SscBelief(x_hat, coord_cov)

    converted = ut_convert(coord_belief, cfg["kappa"])
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
    ellipse_rows = []
    count_rows = []
    for name, (mean2, cov2) in loci.items():
        locus, inside = _ellipse(pos, mean2, cov2, p)
        ellipse_rows += [(name, k, x, y) for k, (x, y) in enumerate(locus)]
        count_rows.append((name, inside))

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

    Keys: ``TABLES["solve-graph"]``.
    """
    g = _load_graph(cfg)
    t0 = time.perf_counter()
    solved, report = graphmod.solve(g)
    _log(f"solve-graph: {report} ({time.perf_counter() - t0:.1f} s)")
    # one heading at a time: arctan2 of a stack can round differently
    rows = [(k, t[0], t[1], float(np.arctan2(R[1, 0], R[0, 0])))
            for k, R, t in zip(solved.keys.tolist(), solved.R, solved.t)]
    return [
        _write_csv(cfg["out"] / "solution.csv", ["key", "x", "y", "theta"], rows),
        _write_csv(
            cfg["out"] / "solve_report.csv",
            ["iterations", "initial_chi2", "final_chi2", "converged"],
            [(report.iterations, report.initial_chi2, report.final_chi2, report.converged)],
        ),
    ]


EXPERIMENTS = {
    "compose-sweep": run_compose_sweep,
    "relpose-alpha-sweep": run_relpose_alpha_sweep,
    "slam-relpose": run_slam_relpose,
    "convert-demo": run_convert_demo,
    "solve-graph": run_solve_graph,
}

# Keys of every experiment; ``jobs`` has no effect (module docstring).
_SHARED = {"seed": (0, _SEED), "out": (Path("results"), _rule(Path)), "jobs": (1, _POSITIVE_INT)}
# Where both graph experiments get their graph: ``graph`` or ``generate``, not both.
_GRAPH_SOURCE = {
    "graph": (None, _rule(str, lambda v: Path(v).is_file(), "an existing file")),
    "generate": {  # keyword arguments of graph.generate_grid_world
        "n_poses": (500, _POSITIVE_INT),
        "seed": (0, _SEED),
        "trans_sigma": (0.14, _POSITIVE),
        "rot_sigma": (0.1, _POSITIVE),
        "loop_prob": (0.5, _rule(float, lambda v: 0 <= v <= 1, "in [0, 1]")),
    },
}

# Each experiment's table: key -> (default, rule), or a nested table.  An
# entry may instead be a function of the keys resolved before it that
# returns (default, rule).  Defaults are in the form the runners read.
TABLES = {
    "compose-sweep": {
        "sweep": ("N", _one_of("N", "sigma_r", "sigma_t")),
        # each value obeys the rule of the key that ``sweep`` names
        "values": lambda r: (
            (2, 5, 10, 15, 20) if r["sweep"] == "N" else (1.0, 2.0, 3.0, 4.0, 5.0),
            _list_of(TABLES["compose-sweep"][r["sweep"]][1]),
        ),
        "N": (10, _POSITIVE_INT),
        "sigma_t": (3.0, _POSITIVE),
        "sigma_r": (3.0, _POSITIVE),
        # every sweep point's chain joint is checked at resolution
        "rho": (0.4, _FINITE),
        "M": (10_000, _DRAWS),
        "p": (0.999, _PROBABILITY),
        "dof_mode": ("full", _one_of("full", "position_only")),
        "methods": (KNOWN_METHODS, _METHODS),
        **_SHARED,
    },
    "relpose-alpha-sweep": {
        "alphas": ((0.5, 1.0, 2.0, 4.0), _list_of(_NONNEGATIVE)),
        "M": (10_000, _DRAWS),
        **_SHARED,
    },
    "slam-relpose": {
        "offsets": ((10, 50, 100), _list_of(_POSITIVE_INT)),
        "pairs_per_offset": (200, _POSITIVE_INT),
        "M": (1_000, _DRAWS),
        "methods": (KNOWN_METHODS, _METHODS),
        **_GRAPH_SOURCE,
        **_SHARED,
    },
    "convert-demo": {
        "mean_params": ((3.0, 3.0, 0.0, 0.0, 0.0, np.pi / 4), _list_of(_FINITE, 6)),
        "cov_lie_diag": ((0.005, 0.005, 1e-5, 1e-5, 1e-5, 0.09), _list_of(_NONNEGATIVE, 6)),
        "M": (20_000, _DRAWS),
        "p": (0.95, _PROBABILITY),
        # the unscented transform needs dim + kappa > 0, and the belief has dim 6
        "kappa": (0.0, _rule(float, lambda v: v > -6, "> -6")),
        **_SHARED,
    },
    "solve-graph": {**_GRAPH_SOURCE, **_SHARED},
}


def run_experiment(name: str, cfg) -> list[Path]:
    """Run experiment ``name`` on ``cfg`` once :func:`resolve_config` accepts it."""
    resolved = resolve_config(name, cfg)
    resolved["out"].mkdir(parents=True, exist_ok=True)
    return EXPERIMENTS[name](resolved)


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
