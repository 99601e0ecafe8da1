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


@pytest.mark.parametrize("experiment,payload", [
    ("slam-relpose", {"offsets": [2.5]}),
    ("slam-relpose", {"offsets": ["x"]}),
    ("slam-relpose", {"offsets": [10, 0]}),
    ("slam-relpose", {"offsets": "55"}),
    ("slam-relpose", {"generate": {"n_poses": 2.5}}),
    ("slam-relpose", {"generate": {"seed": 2.5}}),
    ("slam-relpose", {"generate": {"rot_sigma": "x"}}),
    ("solve-graph", {"generate": {"n_poses": 0}}),
    ("solve-graph", {"generate": {"trans_sigma": -0.1}}),
    ("solve-graph", {"generate": {"loop_prob": "x"}}),
    ("solve-graph", {"generate": [30]}),
])
def test_graph_config_checked_before_graph_work(tmp_path, monkeypatch, capsys, experiment,
                                               payload):
    calls = []
    monkeypatch.setattr(experiments.graphmod, "generate_grid_world",
                        lambda *a, **k: calls.append((a, k)))
    cfg = _write_cfg(tmp_path, {"generate": {"n_poses": 30}, **payload})
    assert run_cli(experiment, "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: ")


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


def test_compose_sweep_branch_cut_budget_exits_1(tmp_path, monkeypatch, capsys):
    # chain samples past the 0.1% branch-cut budget fail the run rather than
    # being dropped silently.  A chained rotation within 1e-9 of pi is too
    # rare to provoke, so 1% of rows are flagged through the seam
    import corrpose.mc as mcmod

    real = mcmod.log_many_masked

    def flaky(mats):
        xis, ok = real(mats)
        ok = ok.copy()
        ok[::100] = False
        return xis, ok

    monkeypatch.setattr(mcmod, "log_many_masked", flaky)
    cfg = _write_cfg(tmp_path, {"values": [2], "M": 1000, "methods": ["lie-correlated"]})
    assert run_cli("compose-sweep", "--config", str(cfg), "--out", str(tmp_path)) == 1
    assert "branch boundary" in capsys.readouterr().err


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


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_ssc_predictions_bit_identical(dim):
    from oracles import point_lie_pair_to_ssc, point_tail_to_tail, random_pose, random_psd

    from corrpose import PosePairBelief
    from corrpose.ssc import tail_to_tail, tail_to_tail_many

    rng = np.random.default_rng(20 + dim)
    m = 3 if dim == 2 else 6
    pairs = [
        PosePairBelief((random_pose(rng, dim, angle_scale=1.2, trans_scale=5.0),
                        random_pose(rng, dim, angle_scale=1.2, trans_scale=5.0)),
                       random_psd(rng, 2 * m, 1e-3))
        for _ in range(30)
    ]
    mean, cov = tail_to_tail_many(*experiments._lie_pairs_to_ssc(pairs))
    assert mean.shape == (30, 6) and cov.shape == (30, 6, 6)
    for r, pb in enumerate(pairs):
        one = tail_to_tail(experiments.lie_pair_to_ssc(pb))
        point = point_tail_to_tail(point_lie_pair_to_ssc(pb))
        assert np.array_equal(mean[r], one.mean) and np.array_equal(cov[r], one.cov)
        assert np.array_equal(mean[r], point.mean) and np.array_equal(cov[r], point.cov)


def test_stacked_ssc_predictions_raise_like_one_pair():
    from corrpose import Pose, PosePairBelief, so3_exp
    from corrpose.ssc import GimbalLockError, tail_to_tail, tail_to_tail_many

    ok = PosePairBelief.from_blocks(Pose.identity(3), Pose.identity(3),
                                    1e-4 * np.eye(6), 1e-4 * np.eye(6))
    # both means pitch by pi/4, their relative pose by pi/2: gimbal lock
    locked = PosePairBelief.from_blocks(
        Pose(so3_exp([0.0, -np.pi / 4, 0.0]), np.zeros(3)),
        Pose(so3_exp([0.0, np.pi / 4, 0.0]), np.zeros(3)),
        1e-4 * np.eye(6), 1e-4 * np.eye(6),
    )
    pair_belief = experiments.lie_pair_to_ssc(locked)
    with pytest.raises(GimbalLockError):
        tail_to_tail(pair_belief)
    with pytest.raises(GimbalLockError):
        tail_to_tail_many(*experiments._lie_pairs_to_ssc([ok, locked, ok]))


def _slam_csvs(cfg, out, seed):
    assert run_cli("slam-relpose", "--config", str(cfg), "--out", str(out),
                   "--seed", str(seed)) == 0
    return [(out / name).read_bytes()
            for name in ("slam_relpose.csv", "slam_relpose_summary.csv")]


def test_slam_relpose_csv_bytes_match_point_oracle(tmp_path, monkeypatch):
    from oracles import patch_point_pair_rows

    cfg = _write_cfg(
        tmp_path,
        {"generate": {"n_poses": 120, "seed": 3}, "offsets": [5, 40],
         "pairs_per_offset": 10, "M": 200, "methods": ["ssc"]},
    )
    stacked = _slam_csvs(cfg, tmp_path / "stacked", 3)
    patch_point_pair_rows(monkeypatch)
    assert _slam_csvs(cfg, tmp_path / "oracle", 3) == stacked
    assert b",ssc," in stacked[0] and b",1\n" not in stacked[0]


# the 120-pose test config, and the 500-pose seed-7 graph whose marginals
# round differently under grouped solves (600 pairs: ten blocks, the last
# one short)
@pytest.mark.parametrize("generate,offsets,cap,M", [
    ({"n_poses": 120, "seed": 5}, [3, 10, 40], 12, 200),
    ({"n_poses": 500, "seed": 7}, [10, 50, 100], 200, 1000),
])
def test_slam_relpose_rows_match_point_pair_rows(tmp_path, monkeypatch, generate, offsets,
                                                 cap, M):
    from oracles import patch_point_pair_rows

    cfg = _write_cfg(
        tmp_path, {"generate": generate, "offsets": offsets, "pairs_per_offset": cap, "M": M},
    )
    seed = generate["seed"]
    rows = []
    real = experiments._pair_rows
    monkeypatch.setattr(
        experiments, "_pair_rows", lambda *a: rows.append(real(*a)) or rows[-1]
    )
    stacked = _slam_csvs(cfg, tmp_path / "stacked", seed)
    patch_point_pair_rows(monkeypatch)
    oracle_rows = []
    real_oracle = experiments._pair_rows
    monkeypatch.setattr(
        experiments, "_pair_rows",
        lambda *a: oracle_rows.append(real_oracle(*a)) or oracle_rows[-1],
    )
    assert _slam_csvs(cfg, tmp_path / "oracle", seed) == stacked
    assert len(rows) == len(oracle_rows) == len(offsets) * cap
    for got, want in zip(rows, oracle_rows):
        assert [r[:4] for r in got] == [r[:4] for r in want]
        assert np.array_equal(np.array([r[4:] for r in got], dtype=float),
                              np.array([r[4:] for r in want], dtype=float))
    assert b",1\n" not in stacked[0]


def test_slam_relpose_rows_near_matrix_oracle(tmp_path, monkeypatch):
    # the conjugated relative-twist oracle against the per-pair matrix route
    # it replaced, with its params_many parameter truth, on the 500-pose
    # seed-7 graph (600 pairs).  Largest relative change measured: 1.2e-14
    # here, 4.3e-14 over seeds 0-9.
    from oracles import matrix_pair_rows, patch_point_pair_rows

    cfg = _write_cfg(
        tmp_path,
        {"generate": {"n_poses": 500, "seed": 7}, "offsets": [10, 50, 100],
         "pairs_per_offset": 200, "M": 1000},
    )
    _slam_csvs(cfg, tmp_path / "new", 7)
    patch_point_pair_rows(monkeypatch, matrix_pair_rows)
    _slam_csvs(cfg, tmp_path / "matrix", 7)
    new = read_csv(tmp_path / "new" / "slam_relpose.csv")
    old = read_csv(tmp_path / "matrix" / "slam_relpose.csv")
    assert len(new) == len(old) == 1800
    values = ["cov_error", "normalized_cov_error", "corr_coeff_x", "corr_coeff_y",
              "corr_coeff_theta"]
    for a, b in zip(new, old):
        assert [a[k] for k in a if k not in values] == [b[k] for k in b if k not in values]
        assert a["error"] == "0"
        x = np.array([float(a[k]) for k in values])
        y = np.array([float(b[k]) for k in values])
        assert (np.abs(x - y) <= 1e-12 * np.abs(y)).all()


@pytest.mark.parametrize("method", ["lie-correlated", "lie-independent", "ssc"])
def test_slam_relpose_partial_block_single_method(tmp_path, monkeypatch, method):
    from oracles import patch_point_pair_rows

    n_pairs = experiments._PAIR_BLOCK + 9  # one full block, one short one
    cfg = _write_cfg(
        tmp_path,
        {"generate": {"n_poses": 120, "seed": 6}, "offsets": [4, 30],
         "pairs_per_offset": n_pairs // 2 + 1, "M": 100, "methods": [method]},
    )
    stacked = _slam_csvs(cfg, tmp_path / "stacked", 6)
    assert stacked[0].count(b"\n") - 1 == 2 * (n_pairs // 2 + 1)
    patch_point_pair_rows(monkeypatch)
    assert _slam_csvs(cfg, tmp_path / "oracle", 6) == stacked


def _pair_key(line):
    return tuple(line.split(",")[:3])


def _assert_only_pair_failed(good, got, key):
    """Rows of pair ``key`` (offset, i, j) carry error=1, all others are unchanged."""
    assert len(got) == len(good)
    flagged = [line for line in got if line.endswith(",,,,,,1")]
    assert len(flagged) == 3 and {_pair_key(line) for line in flagged} == {key}
    assert [g for g in good if _pair_key(g) != key] == [b for b in got if _pair_key(b) != key]


def test_slam_relpose_failing_pair_flags_only_its_rows(tmp_path, monkeypatch, capsys):
    from corrpose import NumericalDegeneracyError

    cfg = _write_cfg(
        tmp_path,
        {"generate": {"n_poses": 120, "seed": 5}, "offsets": [3, 10],
         "pairs_per_offset": 40, "M": 100},
    )
    good = _slam_csvs(cfg, tmp_path / "good", 5)[0].decode().splitlines()

    real_beliefs = experiments.graphmod.Marginals.pair_beliefs
    pair_of = {}

    def pair_beliefs(self, pairs):
        beliefs = real_beliefs(self, pairs)
        pair_of.update((id(pb), ij) for pb, ij in zip(beliefs, pairs))
        return beliefs

    real_covs = experiments.between_covs
    calls = []

    def between_covs(block, *, use_cross=True):
        # pair 50 of 80 sits in a full block
        calls.append(len(block))
        if not use_cross and any(pair_of[id(pb)] == bad for pb in block):
            raise NumericalDegeneracyError("injected")
        return real_covs(block, use_cross=use_cross)

    monkeypatch.setattr(experiments.graphmod.Marginals, "pair_beliefs", pair_beliefs)
    monkeypatch.setattr(experiments, "between_covs", between_covs)
    lines = good[1:]
    bad = tuple(int(v) for v in _pair_key(lines[3 * 50])[1:])
    capsys.readouterr()
    got = _slam_csvs(cfg, tmp_path / "bad", 5)[0].decode().splitlines()
    err = capsys.readouterr().err
    assert err.count("failed") == 1
    assert f"slam-relpose pair ({bad[0]},{bad[1]}) failed: injected" in err
    B = experiments._PAIR_BLOCK
    assert calls[:2] == [B, B] and calls.count(1) == 2 * B  # then one pair at a time
    _assert_only_pair_failed(good, got, ("10", str(bad[0]), str(bad[1])))


def test_slam_relpose_branch_cut_budget_fails_one_pair(tmp_path, monkeypatch, capsys):
    # a pair whose oracle loses 2 of 1000 samples to the logarithm's branch
    # cut (0.2%, beyond the 0.1% budget) fails alone
    import corrpose.mc as mcmod

    cfg = _write_cfg(
        tmp_path,
        {"generate": {"n_poses": 120, "seed": 5}, "offsets": [3, 10],
         "pairs_per_offset": 12, "M": 1000},
    )
    good = _slam_csvs(cfg, tmp_path / "good", 5)[0].decode().splitlines()
    real = mcmod.log_between_many
    B, M, bad = experiments._PAIR_BLOCK, 1000, 15  # pair 15: the fourth one of offset 10
    blocks = [min(B, 24 - start) * M for start in range(0, 24, B)]
    k = bad // B
    # the block holding the pair raises, then runs again one pair at a time
    expected = blocks[: k + 1] + [M] * (blocks[k] // M) + blocks[k + 1 :]
    flagged_rows = {k + 1: (bad % B) * M, k + 2 + bad % B: 0}  # call number -> pair's first row
    calls = []

    def lossy(xi1, xi2):
        xis, ok = real(xi1, xi2)
        calls.append(xi1.shape[0])
        if len(calls) in flagged_rows:
            ok = ok.copy()
            ok[flagged_rows[len(calls)] + np.array([17, 400])] = False
        return xis, ok

    monkeypatch.setattr(mcmod, "log_between_many", lossy)
    capsys.readouterr()
    got = _slam_csvs(cfg, tmp_path / "lossy", 5)[0].decode().splitlines()
    err = capsys.readouterr().err
    assert calls == expected
    assert err.count("failed") == 1 and "2 of 1000 samples" in err
    _assert_only_pair_failed(good, got, _pair_key(good[1 + 3 * 15]))


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
