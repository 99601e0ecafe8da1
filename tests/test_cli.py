"""End-to-end tests of the experiment CLI and runners."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrpose import cli, experiments


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# plumbing: exit codes, config handling, determinism
# ---------------------------------------------------------------------------

def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = run_cli("solve-graph", "--config", str(tmp_path / "nope.json"))
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_missing_graph_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"graph": str(tmp_path / "absent.g2o")}))
    rc = run_cli("solve-graph", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert "absent.g2o" in capsys.readouterr().err


def test_invalid_method_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"methods": ["lie-correlated", "bogus"]}))
    rc = run_cli("compose-sweep", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    assert run_cli("compose-sweep", "--config", str(cfg)) == 2


def test_unknown_experiment_raises_config_error():
    with pytest.raises(experiments.ConfigError):
        experiments.run_experiment("frobnicate", {})


def test_flag_overrides_config_field(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"alphas": [1.0], "M": 500, "seed": 1}))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("relpose-alpha-sweep", "--config", str(cfg), "--out", str(out1)) == 0
    assert (
        run_cli(
            "relpose-alpha-sweep", "--config", str(cfg), "--out", str(out2),
            "--seed", "2",
        )
        == 0
    )
    a = (out1 / "relpose_alpha_sweep.csv").read_bytes()
    b = (out2 / "relpose_alpha_sweep.csv").read_bytes()
    assert a != b  # seed override took effect


def test_byte_determinism_and_jobs_independence(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"values": [2, 5], "M": 2000}))
    outs = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r3", "3")):
        out = tmp_path / name
        assert (
            run_cli(
                "compose-sweep", "--config", str(cfg), "--out", str(out),
                "--seed", "7", "--jobs", jobs,
            )
            == 0
        )
        outs.append((out / "compose_sweep.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("experiment", sorted(experiments.EXPERIMENTS))
def test_jobs_zero_exits_2(tmp_path, capsys, experiment):
    # --jobs has no effect, but every experiment still validates it
    rc = run_cli(experiment, "--out", str(tmp_path), "--jobs", "0")
    assert rc == 2
    assert "'jobs' must be positive" in capsys.readouterr().err


def test_python_m_corrpose_runs_from_source_tree(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    cfg = _write_cfg(
        tmp_path,
        {"generate": {"n_poses": 30, "seed": 1}, "offsets": [5],
         "pairs_per_offset": 3, "M": 100, "methods": ["lie-correlated"]},
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "corrpose", "slam-relpose", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--seed", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(read_csv(tmp_path / "out" / "slam_relpose.csv")) == 3


def test_csv_has_header_and_17_digit_floats(tmp_path):
    assert (
        run_cli(
            "relpose-alpha-sweep", "--out", str(tmp_path), "--seed", "0",
            "--config", str(_write_cfg(tmp_path, {"alphas": [1.0], "M": 500})),
        )
        == 0
    )
    lines = (tmp_path / "relpose_alpha_sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,method,cov_error"
    value = lines[1].split(",")[2]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15


def _write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


# ---------------------------------------------------------------------------
# compose-sweep behavior
# ---------------------------------------------------------------------------

def test_compose_sweep_orderings_small(tmp_path):
    cfg = _write_cfg(tmp_path, {"values": [2, 10], "M": 4000, "rho": 0.4})
    assert run_cli("compose-sweep", "--config", str(cfg), "--out", str(tmp_path),
                   "--seed", "3") == 0
    rows = read_csv(tmp_path / "compose_sweep.csv")
    by_point = {}
    errs = {}
    for r in rows:
        by_point.setdefault(r["value"], {})[r["method"]] = float(r["containment"])
        errs.setdefault(r["value"], {})[r["method"]] = float(r["cov_error"])
    for value, methods in by_point.items():
        assert methods["lie-correlated"] >= methods["lie-independent"]
        assert methods["lie-independent"] >= methods["ssc"]
    assert by_point["2"]["lie-correlated"] >= by_point["10"]["lie-correlated"]
    # the coordinate baseline's 10-step covariance is further from its own
    # Monte-Carlo truth than the twist-space result is from its
    assert errs["10"]["ssc"] > errs["10"]["lie-correlated"]


def test_compose_sweep_single_step_calibrated(tmp_path):
    # N = 1 with tiny noise: every method must sit at the nominal 0.999 level
    cfg = _write_cfg(
        tmp_path,
        {"sweep": "N", "values": [1], "sigma_t": 0.01, "sigma_r": 0.01,
         "rho": 0.0, "M": 20000},
    )
    assert run_cli("compose-sweep", "--config", str(cfg), "--out", str(tmp_path),
                   "--seed", "1") == 0
    for r in read_csv(tmp_path / "compose_sweep.csv"):
        assert abs(float(r["containment"]) - 0.999) <= 0.002


def test_compose_sweep_rotation_noise_hurts_more(tmp_path):
    # matched sweeps: raising sigma_r degrades containment more than sigma_t
    out_r = tmp_path / "r"
    out_t = tmp_path / "t"
    common = {"values": [1.0, 5.0], "M": 4000, "rho": 0.4, "N": 10}
    cfg_r = _write_cfg(tmp_path, {**common, "sweep": "sigma_r"}, "r.json")
    cfg_t = _write_cfg(tmp_path, {**common, "sweep": "sigma_t"}, "t.json")
    assert run_cli("compose-sweep", "--config", str(cfg_r), "--out", str(out_r),
                   "--seed", "2") == 0
    assert run_cli("compose-sweep", "--config", str(cfg_t), "--out", str(out_t),
                   "--seed", "2") == 0

    def drop(path):
        rows = [r for r in read_csv(path) if r["method"] == "lie-correlated"]
        c = {float(r["value"]): float(r["containment"]) for r in rows}
        return c[1.0] - c[5.0]

    assert drop(out_r / "compose_sweep.csv") > drop(out_t / "compose_sweep.csv")


# ---------------------------------------------------------------------------
# relpose-alpha-sweep behavior
# ---------------------------------------------------------------------------

def test_relpose_alpha_sweep_correlated_wins_everywhere(tmp_path):
    cfg = _write_cfg(tmp_path, {"alphas": [0.0, 0.5, 1.0, 2.0, 4.0], "M": 4000})
    assert run_cli("relpose-alpha-sweep", "--config", str(cfg), "--out",
                   str(tmp_path), "--seed", "0") == 0
    rows = read_csv(tmp_path / "relpose_alpha_sweep.csv")
    errs = {(r["method"], float(r["alpha"])): float(r["cov_error"]) for r in rows}
    assert errs[("lie-correlated", 0.0)] == 0.0
    assert errs[("lie-independent", 0.0)] == 0.0
    naive = []
    for alpha in (0.5, 1.0, 2.0, 4.0):
        assert errs[("lie-correlated", alpha)] < errs[("lie-independent", alpha)]
        naive.append(errs[("lie-independent", alpha)])
    assert all(b >= a for a, b in zip(naive, naive[1:]))  # grows with alpha


# ---------------------------------------------------------------------------
# slam-relpose behavior
# ---------------------------------------------------------------------------

def test_slam_relpose_small_graph(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        {
            "generate": {"n_poses": 120, "seed": 4},
            "offsets": [5, 20],
            "pairs_per_offset": 15,
            "M": 500,
            "jacobian_mode": "analytic",
        },
    )
    assert run_cli("slam-relpose", "--config", str(cfg), "--out", str(tmp_path),
                   "--seed", "4") == 0
    rows = read_csv(tmp_path / "slam_relpose.csv")
    assert rows and all(r["error"] == "0" for r in rows)
    methods = {r["method"] for r in rows}
    assert methods == {"lie-correlated", "lie-independent", "ssc"}
    # correlation coefficients are genuine correlations
    for r in rows:
        if r["method"] == "lie-correlated":
            for c in ("corr_coeff_x", "corr_coeff_y", "corr_coeff_theta"):
                assert -1.0001 <= float(r[c]) <= 1.0001

    summary = read_csv(tmp_path / "slam_relpose_summary.csv")
    by = {(r["method"], r["metric"]): r for r in summary}
    mean_aware = float(by[("lie-correlated", "cov_error")]["mean"])
    mean_naive = float(by[("lie-independent", "cov_error")]["mean"])
    assert mean_naive > mean_aware
    n = int(by[("lie-correlated", "cov_error")]["n_pairs"])
    se = float(by[("lie-correlated", "cov_error")]["standard_error"])
    std = float(by[("lie-correlated", "cov_error")]["std_dev"])
    assert abs(se - std / np.sqrt(n)) < 1e-12


def test_slam_relpose_adjacent_pairs_more_correlated(tmp_path):
    # offset-5 pairs must show higher heading correlation than offset-60 pairs
    cfg = _write_cfg(
        tmp_path,
        {
            "generate": {"n_poses": 150, "seed": 8},
            "offsets": [5, 60],
            "pairs_per_offset": 12,
            "M": 300,
            "methods": ["lie-correlated"],
            "jacobian_mode": "analytic",
        },
    )
    assert run_cli("slam-relpose", "--config", str(cfg), "--out", str(tmp_path),
                   "--seed", "8") == 0
    rows = read_csv(tmp_path / "slam_relpose.csv")
    near = [float(r["corr_coeff_theta"]) for r in rows if r["offset"] == "5"]
    far = [float(r["corr_coeff_theta"]) for r in rows if r["offset"] == "60"]
    assert np.mean(near) > np.mean(far)


@pytest.mark.parametrize("dim", [2, 3])
def test_lie_to_ssc_bit_identical_to_point_oracle(dim):
    from corrpose import PosePairBelief, UncertainPose
    from oracles import point_lie_pair_to_ssc, point_lie_to_ssc, random_pose, random_psd

    rng = np.random.default_rng(dim)
    m = 3 if dim == 2 else 6
    for _ in range(40):
        means = (random_pose(rng, dim, angle_scale=3.0, trans_scale=5.0),
                 random_pose(rng, dim, angle_scale=3.0, trans_scale=5.0))
        cov = random_psd(rng, 2 * m, 1e-3)
        for got, want in (
            (experiments.lie_to_ssc(UncertainPose(means[0], cov[:m, :m])),
             point_lie_to_ssc(UncertainPose(means[0], cov[:m, :m]))),
            (experiments.lie_pair_to_ssc(PosePairBelief(means, cov)),
             point_lie_pair_to_ssc(PosePairBelief(means, cov))),
        ):
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.cov, want.cov)


def test_slam_relpose_csv_bytes_match_point_oracle(tmp_path, monkeypatch):
    from oracles import point_lie_pair_to_ssc, point_tail_to_tail

    cfg = _write_cfg(
        tmp_path,
        {"generate": {"n_poses": 120, "seed": 3}, "offsets": [5, 40],
         "pairs_per_offset": 10, "M": 200, "methods": ["ssc"]},
    )

    def run(out):
        assert run_cli("slam-relpose", "--config", str(cfg), "--out", str(out),
                       "--seed", "3") == 0
        return [(out / name).read_bytes()
                for name in ("slam_relpose.csv", "slam_relpose_summary.csv")]

    stacked = run(tmp_path / "stacked")
    monkeypatch.setattr(experiments, "tail_to_tail", point_tail_to_tail)
    monkeypatch.setattr(experiments, "lie_pair_to_ssc", point_lie_pair_to_ssc)
    assert run(tmp_path / "oracle") == stacked
    assert b",ssc," in stacked[0] and b",1\n" not in stacked[0]


def test_slam_relpose_csv_bytes_match_six_column_oracle(tmp_path, monkeypatch):
    from oracles import six_column_pair_belief

    from corrpose import graph

    cfg = _write_cfg(
        tmp_path,
        {"generate": {"n_poses": 120, "seed": 5}, "offsets": [3, 10, 40],
         "pairs_per_offset": 12, "M": 200},
    )

    def run(out, jobs="1"):
        assert run_cli("slam-relpose", "--config", str(cfg), "--out", str(out),
                       "--seed", "5", "--jobs", jobs) == 0
        return [(out / name).read_bytes()
                for name in ("slam_relpose.csv", "slam_relpose_summary.csv")]

    got = run(tmp_path / "got")
    assert run(tmp_path / "jobs2", jobs="2") == got
    monkeypatch.setattr(
        graph.Marginals, "pair_beliefs",
        lambda self, pairs: [six_column_pair_belief(self, i, j) for i, j in pairs],
    )
    assert run(tmp_path / "oracle") == got
    assert b",1\n" not in got[0]


# ---------------------------------------------------------------------------
# convert-demo behavior
# ---------------------------------------------------------------------------

def test_convert_demo_zero_covariance_collapses(tmp_path):
    cfg = _write_cfg(tmp_path, {"cov_lie_diag": [0, 0, 0, 0, 0, 0], "M": 200})
    assert run_cli("convert-demo", "--config", str(cfg), "--out", str(tmp_path),
                   "--seed", "0") == 0
    pts = read_csv(tmp_path / "ellipses.csv")
    xs = {r["locus"]: set() for r in pts}
    for r in pts:
        xs[r["locus"]].add((r["x"], r["y"]))
    for locus, uniq in xs.items():
        assert len(uniq) == 1  # collapsed to a point
    assert len({next(iter(v)) for v in xs.values()}) == 1  # same location


@pytest.mark.parametrize("seed", [0, 9])
def test_convert_demo_csv_bytes_match_point_oracle(tmp_path, monkeypatch, seed):
    from oracles import point_ut_convert

    def run(out):
        assert run_cli("convert-demo", "--out", str(out), "--seed", str(seed)) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    stacked = run(tmp_path / "stacked")
    monkeypatch.setattr(experiments, "ut_convert", point_ut_convert)
    assert run(tmp_path / "oracle") == stacked
    assert "ellipses.csv" in stacked


def test_convert_demo_containment_ordering(tmp_path):
    assert run_cli("convert-demo", "--out", str(tmp_path), "--seed", "9") == 0
    counts = {r["locus"]: float(r["fraction_true_inside"])
              for r in read_csv(tmp_path / "containment.csv")}
    assert counts["converted"] >= 0.93
    assert counts["ssc"] < counts["converted"]
    assert (tmp_path / "plot_ellipses.py").exists()


# ---------------------------------------------------------------------------
# solve-graph behavior
# ---------------------------------------------------------------------------

def test_runtime_failure_exits_1(tmp_path, capsys):
    # structurally valid file but a disconnected graph: solving fails at runtime
    g2o = tmp_path / "disc.g2o"
    g2o.write_text(
        "VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\nVERTEX_SE2 2 9 9 0\n"
        "EDGE_SE2 0 1 1 0 0 1 0 0 1 0 1\n"
    )
    cfg = _write_cfg(tmp_path, {"graph": str(g2o)})
    rc = run_cli("solve-graph", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 1
    assert "connected" in capsys.readouterr().err


def test_solve_graph_consistent_triangle(tmp_path):
    g2o = tmp_path / "tri.g2o"
    g2o.write_text(
        "VERTEX_SE2 0 0 0 0\n"
        "VERTEX_SE2 1 1 0 0\n"
        "VERTEX_SE2 2 1 1 1.5707963267948966\n"
        "EDGE_SE2 0 1 1 0 0 100 0 0 100 0 400\n"
        "EDGE_SE2 1 2 0 1 1.5707963267948966 100 0 0 100 0 400\n"
        "EDGE_SE2 0 2 1 1 1.5707963267948966 100 0 0 100 0 400\n"
    )
    cfg = _write_cfg(tmp_path, {"graph": str(g2o)})
    assert run_cli("solve-graph", "--config", str(cfg), "--out", str(tmp_path)) == 0
    report = read_csv(tmp_path / "solve_report.csv")[0]
    assert float(report["final_chi2"]) < 1e-12
    assert report["converged"] == "1"
    sol = read_csv(tmp_path / "solution.csv")
    assert len(sol) == 3
