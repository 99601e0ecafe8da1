"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np

import corrpose as cp
from corrpose import experiments, graph as gr, ssc
from corrpose.convert import sigma_points, ut_convert
from corrpose.liegroup import log_many_masked
from oracles import dense_covariance, random_pose, random_psd, ssc_matrices


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} {status} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


PAPER_MEAN_1 = np.array(
    [
        [0.707107, -0.707107, 0, 3],
        [0.707107, 0.707107, 0, 3],
        [-0.0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
)
PAPER_MEAN_2 = np.array(
    [
        [0.707107, -0.707107, 0, 4.5],
        [0.707107, 0.707107, 0, 4.5],
        [-0.0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
)
PAPER_SIGMA = np.diag([0.005, 0.005, 1e-5, 1e-5, 1e-5, 0.006])
PAPER_CROSS = np.diag([0.0005, 0.0005, 0.0, 0.0, 0.0, 0.005])


def paper_pair(alpha: float) -> cp.PosePairBelief:
    return cp.PosePairBelief.from_blocks(
        cp.Pose.from_matrix(PAPER_MEAN_1),
        cp.Pose.from_matrix(PAPER_MEAN_2),
        alpha * PAPER_SIGMA,
        alpha * PAPER_SIGMA,
        alpha * PAPER_CROSS,
    )


def test_criterion_1_lie_core_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    worst_rt = 0.0
    for _ in range(1000):
        dim = 2 if rng.uniform() < 0.5 else 3
        m = 3 if dim == 2 else 6
        rot = slice(2, 3) if m == 3 else slice(3, 6)
        xi = rng.normal(size=m)
        xi[rot] *= rng.uniform(0, 3.0) / max(np.linalg.norm(xi[rot]), 1e-12)
        T = cp.exp_map(xi)
        worst_rt = max(worst_rt, np.abs(cp.log_map(T) - xi).max())

    worst_adj = 0.0
    for _ in range(1000):
        dim = 2 if rng.uniform() < 0.5 else 3
        m = 3 if dim == 2 else 6
        T = random_pose(rng, dim, angle_scale=2.5, trans_scale=2.0)
        xi = rng.normal(size=m)
        xi *= rng.uniform(0, 1.0) / max(np.linalg.norm(xi), 1e-12)
        lhs = (T @ cp.exp_map(xi)).matrix()
        rhs = (cp.exp_map(cp.adjoint(T) @ xi) @ T).matrix()
        worst_adj = max(worst_adj, np.abs(lhs - rhs).max())

    a, b = rng.normal(size=6), rng.normal(size=6)
    scales = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = [
        np.linalg.norm(
            cp.bch_approx(s * a, s * b, 2)
            - cp.log_map(cp.exp_map(s * a) @ cp.exp_map(s * b))
        )
        for s in scales
    ]
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]

    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "lie-core: exp/log round-trip <= 1e-9, adjoint identity <= 1e-9 "
        "(1000 cases), BCH order-2 slope >= 2.7",
        worst_rt <= 1e-9 and worst_adj <= 1e-9 and slope >= 2.7 and elapsed < 10,
        f"roundtrip {worst_rt:.2e}, adjoint {worst_adj:.2e}, "
        f"slope {slope:.2f}, {elapsed:.1f} s",
    )


def test_criterion_2_monte_carlo_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    T1, T2 = random_pose(rng, 3), random_pose(rng, 3)
    joint = random_psd(rng, 12)
    joint *= 0.04 / np.trace(joint)
    pair = cp.PosePairBelief((T1, T2), joint)
    assert np.trace(pair.cov) <= 0.05
    M = 100_000

    batch = cp.sample_joint(pair, M, 2021)
    Tm = batch.pose_matrices(0) @ batch.pose_matrices(1)
    mean_inv = (pair.means[0] @ pair.means[1]).inverse().matrix()
    xis, ok = log_many_masked(Tm @ mean_inv)
    mc = xis[ok].T @ xis[ok] / ok.sum()
    e_compose = np.linalg.norm(cp.compose(pair).cov - mc) / np.linalg.norm(mc)

    mc = cp.mc_relative_cov(pair, M, 2022)
    e_between = np.linalg.norm(cp.between(pair).cov - mc) / np.linalg.norm(mc)

    u = pair.marginal(0)
    batch = cp.sample_joint(u, M, 2023)
    Tm = cp.inv_many(batch.pose_matrices(0))
    xis, ok = log_many_masked(Tm @ u.mean.matrix())
    mc = xis[ok].T @ xis[ok] / ok.sum()
    e_inverse = np.linalg.norm(cp.inverse(u).cov - mc) / np.linalg.norm(mc)

    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "compose / inverse / between within 10% of the M=1e5 sample "
        "covariance at trace <= 0.05",
        max(e_compose, e_between, e_inverse) < 0.10 and elapsed < 60,
        f"compose {e_compose:.3f}, inverse {e_inverse:.3f}, "
        f"between {e_between:.3f}, {elapsed:.1f} s",
    )


def test_criterion_3_relative_pose_reproduction():
    t0 = time.perf_counter()
    out = cp.between(paper_pair(1.0))
    mean_ok = np.abs(out.mean.t - np.array([2.12132, 0.0, 0.0])).max() <= 1e-5

    errors = {}
    for idx, alpha in enumerate((0.5, 1.0, 2.0, 4.0)):
        pair = paper_pair(alpha)
        mc = cp.mc_relative_cov(pair, 10_000, [303, idx])
        errors[alpha] = (
            cp.cov_error(cp.between(pair).cov, mc),
            cp.cov_error(cp.between_ignoring_correlation(pair).cov, mc),
        )
    aware_wins = all(a < n for a, n in errors.values())
    naive = [errors[a][1] for a in (0.5, 1.0, 2.0, 4.0)]
    naive_grows = all(b > a for a, b in zip(naive, naive[1:]))

    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        "mean translation (2.12132, 0, 0) +- 1e-5; correlated beats "
        "ignoring at every alpha; ignoring-correlation error grows",
        mean_ok and aware_wins and naive_grows and elapsed < 60,
        f"mean {out.mean.t.round(6)}, naive errors {np.round(naive, 3)}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_4_compounding_sweep_orderings(tmp_path):
    t0 = time.perf_counter()

    def containments(sweep, values):
        cfg = {
            "sweep": sweep,
            "values": values,
            "rho": 0.4,
            "M": 10_000,
            "seed": 404,
            "out": str(tmp_path / sweep),
        }
        experiments.run_experiment("compose-sweep", cfg)
        import csv

        with open(tmp_path / sweep / "compose_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        out = {}
        for r in rows:
            out.setdefault(float(r["value"]), {})[r["method"]] = float(r["containment"])
        return out

    n_values = [2, 5, 10, 15, 20]
    by_n = containments("N", n_values)
    by_sr = containments("sigma_r", [1.0, 2.0, 3.0, 4.0, 5.0])

    ordered = all(
        point["lie-correlated"] >= point["lie-independent"] >= point["ssc"]
        for point in list(by_n.values()) + list(by_sr.values())
    )
    corr_series = [by_n[float(v)]["lie-correlated"] for v in n_values]
    monotone = all(b <= a for a, b in zip(corr_series, corr_series[1:]))

    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        "containment ordering lie-correlated >= lie-independent >= ssc at "
        "every N- and sigma_r-sweep point; monotone degradation with N",
        ordered and monotone and elapsed < 600,
        f"N-sweep correlated {np.round(corr_series, 4)}, {elapsed:.1f} s",
    )


def test_criterion_5_marginal_extraction():
    t0 = time.perf_counter()
    g = gr.generate_grid_world(50, seed=505)
    solved, _ = gr.solve(g)
    dense_cov = dense_covariance(solved)
    marg = gr.Marginals(solved)
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        i, j = (int(v) for v in rng.choice(50, size=2, replace=False))
        pair = marg.pair_belief(i, j)
        rows = np.concatenate([3 * i + np.arange(3), 3 * j + np.arange(3)])
        expect = dense_cov[np.ix_(rows, rows)]
        worst = max(worst, np.linalg.norm(pair.cov - expect) / np.linalg.norm(expect))

    G = cp.Pose.planar(4.0, -2.0, 1.1)
    moved = gr.PoseGraph({k: G @ T for k, T in g.vertices.items()}, g.edges)
    solved2, _ = gr.solve(moved)
    marg2 = gr.Marginals(solved2)
    worst_gauge = 0.0
    for i, j in ((0, 25), (10, 40), (17, 18)):
        b1 = cp.between(marg.pair_belief(i, j))
        b2 = cp.between(marg2.pair_belief(i, j))
        worst_gauge = max(
            worst_gauge,
            np.abs(b1.mean.matrix() - b2.mean.matrix()).max(),
            np.abs(b1.cov - b2.cov).max(),
        )

    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        "pair marginals match the dense information inverse within 1e-6 "
        "(100 pairs, 50 poses); between() gauge-invariant within 1e-6",
        worst < 1e-6 and worst_gauge < 1e-6 and elapsed < 60,
        f"dense {worst:.2e}, gauge {worst_gauge:.2e}, {elapsed:.1f} s",
    )


def test_criterion_6_desk_scale_relpose_tables(tmp_path):
    t0 = time.perf_counter()
    import csv
    import os

    cfg = {
        "offsets": [10, 50, 100],
        "pairs_per_offset": 200,
        "M": 1000,
        "seed": 606,
        "out": str(tmp_path),
        "generate": {"n_poses": 500, "seed": 606},
    }
    manhattan = os.environ.get("CORRPOSE_MANHATTAN", "data/manhattan3500.g2o")
    if os.path.exists(manhattan):
        cfg["graph"] = manhattan
        cfg.pop("generate")
    experiments.run_experiment("slam-relpose", cfg)
    with open(tmp_path / "slam_relpose_summary.csv") as fh:
        summary = {(r["method"], r["metric"]): float(r["mean"])
                   for r in csv.DictReader(fh)}
    ratio = summary[("lie-independent", "cov_error")] / summary[
        ("lie-correlated", "cov_error")
    ]
    proposed = summary[("lie-correlated", "normalized_cov_error")]
    ssc_err = summary[("ssc", "normalized_cov_error")]

    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        "desk-scale tables: mean cov_error ratio ignoring/correlated >= 10; "
        "mean normalized error proposed < SSC",
        ratio >= 10.0 and proposed < ssc_err and elapsed < 900,
        f"ratio {ratio:.1f}, proposed {proposed:.4f} vs ssc {ssc_err:.4f}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_7_ut_conversion():
    t0 = time.perf_counter()
    mean = np.array([3.0, 3.0, 0.0, 0.0, 0.0, np.pi / 4])
    cov = np.diag([0.005, 0.005, 1e-5, 1e-5, 1e-5, 0.006])

    zero = ut_convert(ssc.SscBelief(mean, np.zeros((6, 6))))
    zero_ok = not zero.cov.any()

    b = ssc.SscBelief(mean, cov)
    out = ut_convert(b)
    rng = np.random.default_rng(707)
    draws = rng.multivariate_normal(mean, cov, 1_000_000)
    mats = ssc_matrices(draws)
    ells, ok = log_many_masked(mats @ ssc.ssc_to_pose(mean).inverse().matrix())
    mc = ells[ok].T @ ells[ok] / ok.sum()
    rel = np.linalg.norm(out.cov - mc) / np.linalg.norm(mc)

    counts_ok = True
    for n in (1, 2):
        bb = ssc.SscBelief(np.tile(mean, n), np.kron(np.eye(n), cov))
        points, w = sigma_points(bb.mean, bb.cov)
        counts_ok &= points.shape[0] == 12 * n + 1
        counts_ok &= abs(w.sum() - 1.0) < 1e-12

    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        "UT conversion: zero-covariance fixed point exact; demo covariance "
        "within 5% of the sampling oracle; 12n+1 points, weights sum to 1",
        zero_ok and rel < 0.05 and counts_ok and elapsed < 60,
        f"oracle gap {rel:.4f}, {elapsed:.1f} s",
    )


def test_criterion_8_cli_byte_determinism(tmp_path):
    runs = {
        "compose-sweep": {"values": [2, 5], "M": 1500},
        "relpose-alpha-sweep": {"alphas": [0.5, 1.0], "M": 1500},
        "slam-relpose": {
            "generate": {"n_poses": 80, "seed": 1},
            "offsets": [5, 15],
            "pairs_per_offset": 10,
            "M": 300,
        },
        "convert-demo": {"M": 2000},
        "solve-graph": {"generate": {"n_poses": 60, "seed": 2}},
    }
    identical = True
    for name, cfg in runs.items():
        outputs = []
        for attempt, jobs in (("a", 1), ("b", 2)):
            out = tmp_path / name / attempt
            full = dict(cfg, seed=808, out=str(out), jobs=jobs)
            paths = experiments.run_experiment(name, full)
            outputs.append(
                {p.name: p.read_bytes() for p in paths if p.suffix == ".csv"}
            )
        identical &= outputs[0] == outputs[1]
    _verdict(
        8,
        "every CLI experiment reproduces byte-identical CSV for a fixed "
        "config and seed (independent of worker count)",
        identical,
    )
