"""End-to-end tests of the experiment CLI and runners."""

import csv
import json
import os
import re
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


@pytest.mark.parametrize("experiment", ["solve-graph", "slam-relpose"])
@pytest.mark.parametrize("body, message", [
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\nEDGE_SE2 0 1 1 0 0 1 0 0 1 0 1\n"
     "VERTEX_SE2 x 0 0\n", "line 4: "),
    ("VERTEX_SE2 0 0 0 0\nEDGE_SE2 0 1 1 0 0 1 0 0 1 0 1\n", "missing vertex 1"),
], ids=["malformed-line", "dangling-edge"])
def test_malformed_graph_file_exits_2(tmp_path, capsys, experiment, body, message):
    # a file that does not parse or validate is a config error, like a
    # missing one; a graph that only fails to solve exits 1 (below)
    g2o = tmp_path / "bad.g2o"
    g2o.write_text(body)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"graph": str(g2o)}))
    assert run_cli(experiment, "--config", str(cfg), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "config key 'graph'" in err and "bad.g2o" in err and message in err


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
    ("slam-relpose", {"offsets": []}),
    ("slam-relpose", {"pairs_per_offset": True}),
    ("slam-relpose", {"seed": -1}),
    ("slam-relpose", {"generate": {"seed": -1}}),
    ("solve-graph", {"generate": {"loop_prob": 7}}),
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


def _assert_config_exit_2(tmp_path, monkeypatch, capsys, experiment, payload, message,
                          never_called, owner=experiments, flags=()):
    # owner.never_called must not run: the key is refused before any work
    calls = []
    monkeypatch.setattr(owner, never_called, lambda *a, **k: calls.append(a))
    cfg = _write_cfg(tmp_path, payload)
    assert run_cli(experiment, "--config", str(cfg), "--out", str(tmp_path / "out"),
                   *flags) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert message in err
    return err


@pytest.mark.parametrize("payload,message", [
    ({"M": 1}, "'M' must be at least 2, got 1"),
    ({"M": 0}, "'M' must be at least 2, got 0"),
    ({"p": 1.5}, "'p' must be in (0, 1), got 1.5"),
    ({"p": 1}, "'p' must be in (0, 1), got 1.0"),
    ({"p": 0.0}, "'p' must be in (0, 1), got 0.0"),
    ({"M": True}, "config key 'M': expected int, got True"),
    ({"p": True}, "config key 'p': expected float, got True"),
    # the other value rules: these used to run, or to fail after sampling
    ({"dof_mode": "bogus"},
     "config key 'dof_mode' must be one of ['full', 'position_only'], got 'bogus'"),
    ({"methods": []}, "config key 'methods' must hold one or more items, got 0"),
    # a repeated method used to write its rows twice
    ({"methods": ["ssc", "lie-correlated", "ssc"]}, "config key 'methods' repeats 'ssc'"),
])
def test_compose_sweep_m_and_p_checked_before_sampling(tmp_path, monkeypatch, capsys, payload,
                                                       message):
    _assert_config_exit_2(tmp_path, monkeypatch, capsys, "compose-sweep",
                          {"values": [2], **payload}, message, "sample_joint")


# rho = 0.9 gives a PSD joint at N = 2 but not at N = 5 (lag-1 correlation
# needs |rho| <= 1 / (2 cos(pi / (N + 1)))): the first point used to sample
# before the second one exited 1
@pytest.mark.parametrize("payload,message", [
    ({"sweep": "N", "values": [2, 5], "rho": 0.9}, "(rho=0.9, N=5)"),
    ({"sweep": "sigma_r", "values": [1.0, 2.0], "N": 4, "rho": -0.7}, "(rho=-0.7, N=4)"),
    ({"values": [2], "rho": float("nan")}, "config key 'rho' must be finite, got nan"),
])
def test_compose_sweep_rho_checked_before_sampling(tmp_path, monkeypatch, capsys, payload,
                                                   message):
    err = _assert_config_exit_2(tmp_path, monkeypatch, capsys, "compose-sweep", payload,
                                message, "sample_joint")
    assert "config key 'rho'" in err


@pytest.mark.parametrize("M", [1, -3])
def test_relpose_alpha_sweep_m_checked_before_sampling(tmp_path, monkeypatch, capsys, M):
    _assert_config_exit_2(tmp_path, monkeypatch, capsys, "relpose-alpha-sweep",
                          {"alphas": [1.0], "M": M}, f"'M' must be at least 2, got {M}",
                          "mc_relative_cov")


# each sweep value obeys the rule of the key it sweeps; 2.5 steps used to run
# as 2 and write 2.5, a string used to exit 1 with a bare ValueError
@pytest.mark.parametrize("payload,message", [
    ({"sweep": "N", "values": [2, 2.5]}, "config key 'values': expected int, got 2.5"),
    ({"sweep": "N", "values": [5, "x"]}, "config key 'values': expected int, got 'x'"),
    ({"sweep": "N", "values": [0]}, "config key 'values' must be positive, got 0"),
    ({"sweep": "sigma_r", "values": ["x"]}, "config key 'values': expected float, got 'x'"),
    ({"sweep": "sigma_t", "values": [1.0, None]},
     "config key 'values': expected float, got None"),
    ({"sweep": "sigma_t", "values": [-1.0]}, "config key 'values' must be positive, got -1.0"),
    ({"sweep": "N", "values": [5, 2, 5.0]}, "config key 'values' repeats 5"),
])
def test_compose_sweep_values_checked_before_sampling(tmp_path, monkeypatch, capsys, payload,
                                                      message):
    _assert_config_exit_2(tmp_path, monkeypatch, capsys, "compose-sweep", payload, message,
                          "sample_joint")


@pytest.mark.parametrize("alphas,message", [
    ([1.0, "x"], "config key 'alphas': expected float, got 'x'"),
    ([[0.5]], "config key 'alphas': expected float, got [0.5]"),
    ([], "config key 'alphas' must hold one or more items, got 0"),
    ([1.0, 2, 1], "config key 'alphas' repeats 1.0"),
])
def test_relpose_alpha_sweep_alphas_checked_before_sampling(tmp_path, monkeypatch, capsys,
                                                            alphas, message):
    _assert_config_exit_2(tmp_path, monkeypatch, capsys, "relpose-alpha-sweep",
                          {"alphas": alphas}, message, "mc_relative_cov")


@pytest.mark.parametrize("payload,message", [
    ({"M": 1}, "'M' must be at least 2, got 1"),
    ({"p": 1.0}, "'p' must be in (0, 1), got 1.0"),
    ({"p": -0.5}, "'p' must be in (0, 1), got -0.5"),
    # the other value rules: each of these used to fail only after sampling,
    # or with a bare ValueError
    ({"kappa": -7}, "config key 'kappa' must be > -6, got -7.0"),
    ({"mean_params": ["a", 0, 0, 0, 0, 0]}, "config key 'mean_params': expected float, got 'a'"),
    ({"cov_lie_diag": [0.005, "x", 0, 0, 0, 0.09]},
     "config key 'cov_lie_diag': expected float, got 'x'"),
])
def test_convert_demo_m_and_p_checked_before_sampling(tmp_path, monkeypatch, capsys, payload,
                                                      message):
    _assert_config_exit_2(tmp_path, monkeypatch, capsys, "convert-demo", payload, message,
                          "sample_joint")


def test_slam_relpose_m_checked_before_graph_work(tmp_path, monkeypatch, capsys):
    # M = 1 used to pass the positivity check and flag every pair's rows
    _assert_config_exit_2(tmp_path, monkeypatch, capsys, "slam-relpose",
                          {"generate": {"n_poses": 30}, "M": 1},
                          "'M' must be at least 2, got 1", "generate_grid_world",
                          owner=experiments.graphmod)


# a repeated offset used to write each (offset, i, j) key twice, with
# different Monte-Carlo values, and a repeated method every row twice, which
# doubled the summary's n_pairs
@pytest.mark.parametrize("payload,message", [
    ({"offsets": [10, 50, 10]}, "config key 'offsets' repeats 10"),
    ({"offsets": [5, 5.0]}, "config key 'offsets' repeats 5"),
    ({"methods": ["ssc", "ssc"]}, "config key 'methods' repeats 'ssc'"),
])
def test_slam_relpose_repeats_checked_before_graph_work(tmp_path, monkeypatch, capsys, payload,
                                                        message):
    _assert_config_exit_2(tmp_path, monkeypatch, capsys, "slam-relpose",
                          {"generate": {"n_poses": 30}, **payload}, message,
                          "generate_grid_world", owner=experiments.graphmod)


@pytest.mark.parametrize("payload,flags", [({"seed": -1}, ()), ({}, ("--seed", "-1"))])
def test_negative_seed_checked_before_sampling(tmp_path, monkeypatch, capsys, payload, flags):
    # a negative seed used to reach numpy and exit 1 after the work had begun
    _assert_config_exit_2(tmp_path, monkeypatch, capsys, "relpose-alpha-sweep",
                          {"alphas": [1.0], **payload}, "config key 'seed' must be >= 0, got -1",
                          "mc_relative_cov", flags=flags)


_GRAPH = experiments.graphmod


# a typo, a removed key or another experiment's key used to be ignored silently
@pytest.mark.parametrize("experiment,payload,key,known,never_called,owner", [
    ("slam-relpose", {"generate": {"n_poses": 30}, "pairs_per_ofset": 2}, "pairs_per_ofset",
     "pairs_per_offset", "generate_grid_world", _GRAPH),
    ("slam-relpose", {"generate": {"n_pose": 30}}, "generate.n_pose", "generate.n_poses",
     "generate_grid_world", _GRAPH),
    ("solve-graph", {"generate": {"n_pose": 30}}, "generate.n_pose", "generate.n_poses",
     "generate_grid_world", _GRAPH),
    ("solve-graph", {"generate": {"n_poses": 30}, "jacobian_mode": "numeric"}, "jacobian_mode",
     "graph", "generate_grid_world", _GRAPH),
    ("solve-graph", {"generate": {"n_poses": 30}, "M": 100}, "M", "generate",
     "generate_grid_world", _GRAPH),
    ("relpose-alpha-sweep", {"alphas": [1.0], "methods": ["ssc"]}, "methods", "alphas",
     "mc_relative_cov", experiments),
    ("compose-sweep", {"values": [2], "sigma": 1.0}, "sigma", "sigma_t", "sample_joint",
     experiments),
    ("convert-demo", {"kapa": 1.0}, "kapa", "kappa", "sample_joint", experiments),
])
def test_unknown_key_exits_2(tmp_path, monkeypatch, capsys, experiment, payload, key, known,
                             never_called, owner):
    err = _assert_config_exit_2(tmp_path, monkeypatch, capsys, experiment, payload,
                                f"unknown config key {key!r}; known keys: ", never_called,
                                owner=owner)
    assert known in err.split("known keys: ")[1].split(", ")


def test_graph_and_generate_together_exit_2(tmp_path, monkeypatch, capsys):
    # the graph file used to win and the generate block to be ignored
    (tmp_path / "g.g2o").write_text("")
    _assert_config_exit_2(tmp_path, monkeypatch, capsys, "solve-graph",
                          {"graph": str(tmp_path / "g.g2o"), "generate": {"n_poses": 30}},
                          "config keys 'graph' and 'generate' exclude each other",
                          "load_graph", owner=_GRAPH)


def test_resolved_config_is_complete_and_read_only():
    cfg = experiments.resolve_config("slam-relpose", {"generate": {"n_poses": 30}, "M": 2.0})
    assert list(cfg) == list(experiments.TABLES["slam-relpose"])
    assert cfg["M"] == 2 and type(cfg["M"]) is int
    assert cfg["pairs_per_offset"] == 200 and cfg["graph"] is None
    assert dict(cfg["generate"]) == {"n_poses": 30, "seed": 0, "trans_sigma": 0.14,
                                     "rot_sigma": 0.1, "loop_prob": 0.5}
    with pytest.raises(KeyError):
        cfg["pairs_per_ofset"]
    with pytest.raises(TypeError):
        cfg["M"] = 3
    with pytest.raises(TypeError):
        cfg["generate"]["seed"] = 1
    # the sweep values default and rule follow the key that ``sweep`` names
    sweep = experiments.resolve_config("compose-sweep", {"sweep": "sigma_r"})
    assert sweep["values"] == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert experiments.resolve_config("compose-sweep", {"values": [2.0]})["values"] == (2,)


def test_benchmark_configs_resolve(tmp_path, monkeypatch):
    # every config the benchmark runs, with its flags, must pass the tables:
    # a table change that would make the benchmark exit 2 fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))  # run.py sets them on import
    import run

    # the CLI merges config file and flags, then resolves without running
    resolved = []

    def resolve_only(name, cfg):
        resolved.append(experiments.resolve_config(name, cfg))
        return []

    monkeypatch.setattr(cli, "run_experiment", resolve_only)
    monkeypatch.chdir(tmp_path)
    for name in run.WORKLOADS:
        for tiny in (False, True):
            wl = run.make_workload(name, seed=3, tiny=tiny)
            for fname, cfg in wl.configs.items():
                (tmp_path / fname).write_text(json.dumps(cfg))
            for step in wl.steps:
                assert cli.main(step.argv) == 0, (name, tiny, step.argv)
    assert len(resolved) == 2 * (1 + 1 + 3)
    assert {cfg["seed"] for cfg in resolved} == {3}


def test_readme_key_tables_match_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n### Config keys\n")[1].split("\n## ")[0]
    tables, label = {}, None
    for line in section.splitlines():
        if line.startswith("#### "):
            named = re.search(r"`([^`]+)`", line)
            label = named.group(1) if named else "every experiment"
            tables[label] = []
        elif line.startswith("| `"):
            tables[label].append(re.match(r"\| `([^`]+)`", line).group(1))
    assert set(tables) == {*experiments.TABLES, "every experiment", "generate"}

    def flat(table, prefix=""):
        for key, entry in table.items():
            if isinstance(entry, dict):
                yield from flat(entry, prefix + key + ".")
            else:
                yield prefix + key

    for name, table in experiments.TABLES.items():
        keys = tables[name] + tables["every experiment"]
        if "generate" in keys:
            keys = [k for k in keys if k != "generate"] + tables["generate"]
        assert sorted(keys) == sorted(flat(table)), name


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
    # Means are bit-identical to the per-point oracle, and one stacked
    # linearization is bit-identical to one-mean calls.  The closed-form
    # Jacobian D(x)^-1 and the oracle's central difference (h = 1e-6) agree
    # to the difference's truncation error: largest measured covariance gap
    # 2.8e-10 (SE(2)) and 1.4e-10 (SE(3)) of the largest entry.
    from corrpose import PosePairBelief, UncertainPose
    from oracles import gap, point_lie_pair_to_ssc, point_lie_to_ssc, random_pose, random_psd

    rng = np.random.default_rng(dim)
    m = 3 if dim == 2 else 6
    worst = 0.0
    means = []
    for _ in range(40):
        pair = (random_pose(rng, dim, angle_scale=3.0, trans_scale=5.0),
                random_pose(rng, dim, angle_scale=3.0, trans_scale=5.0))
        means.extend(pair)
        cov = random_psd(rng, 2 * m, 1e-3)
        for got, want in (
            (experiments.lie_to_ssc(UncertainPose(pair[0], cov[:m, :m])),
             point_lie_to_ssc(UncertainPose(pair[0], cov[:m, :m]))),
            (experiments.lie_pair_to_ssc(PosePairBelief(pair, cov)),
             point_lie_pair_to_ssc(PosePairBelief(pair, cov))),
        ):
            assert np.array_equal(got.mean, want.mean)
            worst = max(worst, gap(got.cov, want.cov))
    assert worst < 2e-9
    P, J = experiments._ssc_linearization(means)
    for r, T in enumerate(means):
        one = experiments._ssc_linearization([T])
        assert np.array_equal(one[0][0], P[r]) and np.array_equal(one[1][0], J[r])


@pytest.mark.parametrize("dim", [2, 3])
def test_lie_to_ssc_matches_40_digit_reference(dim):
    # The covariance against its congruence by the 40-digit reference
    # Jacobian of params(exp(hat(xi)) T_bar).  Largest measured gap 1.4e-16
    # (SE(2)) and 1.5e-16 (SE(3)) of the largest entry; the h = 1e-6 central
    # difference that the closed form replaced reads 1.4e-10 for both.
    from corrpose import UncertainPose
    from oracles import gap, mp_params_jacobian, random_pose, random_psd

    rng = np.random.default_rng(30 + dim)
    m = 3 if dim == 2 else 6
    worst = 0.0
    for _ in range(30):
        u = UncertainPose(random_pose(rng, dim, angle_scale=1.2, trans_scale=5.0),
                          random_psd(rng, m, 1e-3))
        J = mp_params_jacobian(u.mean)
        worst = max(worst, gap(experiments.lie_to_ssc(u).cov, J @ u.cov @ J.T))
    assert worst < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_ssc_predictions_bit_identical(dim):
    # stacked and one-pair predictions are bit-identical, and so are the
    # means of the per-point oracle; its central-difference covariances
    # agree to a largest measured gap of 7.3e-9 (SE(2)) and 1.8e-9 (SE(3))
    # of the largest entry
    from oracles import gap, point_lie_pair_to_ssc, point_tail_to_tail, random_pose, random_psd

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
    worst = 0.0
    for r, pb in enumerate(pairs):
        one = tail_to_tail(experiments.lie_pair_to_ssc(pb))
        point = point_tail_to_tail(point_lie_pair_to_ssc(pb))
        assert np.array_equal(mean[r], one.mean) and np.array_equal(cov[r], one.cov)
        assert np.array_equal(mean[r], point.mean)
        worst = max(worst, gap(cov[r], point.cov))
    assert worst < 3e-8


def test_lie_to_ssc_raises_only_at_gimbal_lock():
    # a mean pitched within _GIMBAL_TOL of pi/2 raises; one just outside
    # gives a finite, symmetric covariance (the stacked call's is unchecked,
    # so symmetric only to rounding)
    from corrpose import PosePairBelief, UncertainPose
    from corrpose.ssc import _GIMBAL_TOL, GimbalLockError, ssc_to_pose
    from oracles import gap

    def pitched(margin):
        return ssc_to_pose([1.0, -2.0, 0.5, 0.3, np.pi / 2 - margin, -0.7])

    cov = 1e-4 * np.eye(12)
    level = PosePairBelief.from_blocks(pitched(1.0), pitched(1.0), cov[:6, :6], cov[:6, :6])
    for margin in (_GIMBAL_TOL / 2, 2 * _GIMBAL_TOL):
        pair = PosePairBelief((pitched(1.0), pitched(margin)), cov)
        calls = (
            lambda: experiments.lie_to_ssc(UncertainPose(pitched(margin), cov[:6, :6])).cov,
            lambda: experiments.lie_pair_to_ssc(pair).cov,
            lambda: experiments._lie_pairs_to_ssc([level, pair])[1][1],
        )
        for call in calls:
            if margin < _GIMBAL_TOL:
                with pytest.raises(GimbalLockError):
                    call()
            else:
                out = call()
                assert np.isfinite(out).all() and gap(out.T, out) < 1e-15


def test_stacked_ssc_predictions_raise_like_one_pair():
    from corrpose import Pose, PosePairBelief, exp_map
    from corrpose.ssc import GimbalLockError, tail_to_tail, tail_to_tail_many

    ok = PosePairBelief.from_blocks(Pose.identity(3), Pose.identity(3),
                                    1e-4 * np.eye(6), 1e-4 * np.eye(6))
    # both means pitch by pi/4, their relative pose by pi/2: gimbal lock
    locked = PosePairBelief.from_blocks(
        Pose(exp_map([0.0, 0.0, 0.0, 0.0, -np.pi / 4, 0.0]).R, np.zeros(3)),
        Pose(exp_map([0.0, 0.0, 0.0, 0.0, np.pi / 4, 0.0]).R, np.zeros(3)),
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


def test_slam_relpose_ssc_truth_bit_identical_to_per_pair_oracle(tmp_path, monkeypatch):
    # the per-block parameter-space truth, from the coefficients the oracle's
    # kernel took of each relative angle, against the per-pair closed form
    # that takes them again from the twists, on the 600 pairs of a 500-pose run
    from oracles import _ssc_relative_cov

    real = experiments._ssc_relative_covs
    seen = []
    monkeypatch.setattr(experiments, "_ssc_relative_covs",
                        lambda s: seen.append((s, real(s))) or seen[-1][1])
    cfg = _write_cfg(tmp_path, {"generate": {"n_poses": 500, "seed": 0}})
    _slam_csvs(cfg, tmp_path / "out", 0)
    assert sum(got.shape[0] for _, got in seen) == 600
    for s, got in seen:
        assert s.coeffs.shape == (got.shape[0], 4, 1000)
        for r, cov in enumerate(got):
            want = _ssc_relative_cov(s.t[r], s.twists[r][s.kept[r]])
            assert np.array_equal(cov, want)


def test_slam_relpose_pose_budget(tmp_path, monkeypatch):
    # a 500-pose run builds a Pose only for each vertex its pairs touch (456
    # here), the generator none.  Both constructors count: the checking one
    # and the one for rows a block kernel has already checked
    import functools

    from corrpose import Pose, graph

    real, real_checked = Pose.__init__, Pose._of_checked.__func__
    count = [0]

    @functools.wraps(real)
    def counted(self, R, t):
        count[0] += 1
        real(self, R, t)

    def counted_checked(cls, R, t):
        count[0] += 1
        return real_checked(cls, R, t)

    monkeypatch.setattr(Pose, "__init__", counted)
    monkeypatch.setattr(Pose, "_of_checked", classmethod(counted_checked))
    graph.generate_grid_world(3500, seed=0)
    assert count[0] == 0
    cfg = _write_cfg(tmp_path, {"generate": {"n_poses": 500, "seed": 0}})
    _slam_csvs(cfg, tmp_path / "out", 0)
    assert 0 < count[0] <= 600


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

    def collect(rows):
        # each pair's rows, as the row pass returns them
        real = experiments._pair_rows

        def pair_rows(*args):
            out = real(*args)
            rows.extend(out)
            return out

        monkeypatch.setattr(experiments, "_pair_rows", pair_rows)

    rows, oracle_rows = [], []
    collect(rows)
    stacked = _slam_csvs(cfg, tmp_path / "stacked", seed)
    patch_point_pair_rows(monkeypatch)
    collect(oracle_rows)
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


def _assert_only_pair_failed(good, got, *keys):
    """Rows of the pairs ``keys`` (offset, i, j) carry error=1, all others are unchanged."""
    assert len(got) == len(good)
    flagged = [line for line in got if line.endswith(",,,,,,1")]
    assert len(flagged) == 3 * len(keys) and {_pair_key(line) for line in flagged} == set(keys)
    assert ([g for g in good if _pair_key(g) not in keys]
            == [b for b in got if _pair_key(b) not in keys])


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
    # all 80 pairs at once, then halves down to the pair: each size twice,
    # once per lie method
    assert calls == [n for n in (80, 40, 40, 20, 10, 10, 5, 2, 1, 1, 3, 5, 20) for _ in range(2)]
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
    # the block of pairs 0-15 raises, then runs again by halves: 0-7, 8-15,
    # 8-11, 12-15, 12-13, 14-15, 14 and 15; then the block of pairs 16-23
    expected = [n * M for n in (B, 8, 8, 4, 4, 2, 2, 1, 1, 24 - B)]
    flagged_rows = {1: 15 * M, 3: 7 * M, 5: 3 * M, 7: M, 9: 0}  # call number -> pair's first row
    calls = []

    def lossy(xi1, xi2):
        xis, ok, coeffs = real(xi1, xi2)
        calls.append(xi1.shape[0])
        if len(calls) in flagged_rows:
            ok = ok.copy()
            ok[flagged_rows[len(calls)] + np.array([17, 400])] = False
        return xis, ok, coeffs

    monkeypatch.setattr(mcmod, "log_between_many", lossy)
    capsys.readouterr()
    got = _slam_csvs(cfg, tmp_path / "lossy", 5)[0].decode().splitlines()
    err = capsys.readouterr().err
    assert calls == expected
    assert err.count("failed") == 1 and "2 of 1000 samples" in err
    _assert_only_pair_failed(good, got, _pair_key(good[1 + 3 * 15]))


def _failing_pairs_setup(tmp_path, monkeypatch):
    """The 80-pair failure config, its good CSV lines, and a map from each
    pair belief the run makes to its (i, j)."""
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

    monkeypatch.setattr(experiments.graphmod.Marginals, "pair_beliefs", pair_beliefs)
    return cfg, good, pair_of


def test_slam_relpose_bisection_flags_two_failing_pairs(tmp_path, monkeypatch, capsys):
    from corrpose import NumericalDegeneracyError

    cfg, good, pair_of = _failing_pairs_setup(tmp_path, monkeypatch)
    keys = [_pair_key(good[1 + 3 * r]) for r in (10, 50)]  # one in each half
    bad = {(int(i), int(j)) for _, i, j in keys}
    real_covs = experiments.between_covs
    calls = []

    def between_covs(pairs, *, use_cross=True):
        if not use_cross:
            calls.append(len(pairs))
            if any(pair_of[id(pb)] in bad for pb in pairs):
                raise NumericalDegeneracyError("injected")
        return real_covs(pairs, use_cross=use_cross)

    monkeypatch.setattr(experiments, "between_covs", between_covs)
    capsys.readouterr()
    got = _slam_csvs(cfg, tmp_path / "bad", 5)[0].decode().splitlines()
    err = capsys.readouterr().err
    # each half bisected down to its failing pair: 22 re-evaluations of the
    # stack, where one pair at a time took 80
    half = [40, 20, 10, 10, 5, 2, 1, 1, 3, 5, 20]
    assert calls == [80] + half + half and len(calls) - 1 == 22
    assert err.count("failed: injected") == 2
    _assert_only_pair_failed(good, got, *keys)


def test_slam_relpose_oracle_error_reported_before_method_error(tmp_path, monkeypatch, capsys):
    # a pair whose oracle and lie-independent prediction both fail reports
    # the oracle's error, and the prediction pass never sees it
    from corrpose import NumericalDegeneracyError, SamplingError

    cfg, good, pair_of = _failing_pairs_setup(tmp_path, monkeypatch)
    key = _pair_key(good[1 + 3 * 50])
    bad = (int(key[1]), int(key[2]))
    real_samples, real_covs = experiments.relative_samples, experiments.between_covs
    predicted = set()

    def relative_samples(pairs, M, seeds):
        if any(pair_of[id(pb)] == bad for pb in pairs):
            raise SamplingError("injected oracle")
        return real_samples(pairs, M, seeds)

    def between_covs(pairs, *, use_cross=True):
        predicted.update(pair_of[id(pb)] for pb in pairs)
        if not use_cross and any(pair_of[id(pb)] == bad for pb in pairs):
            raise NumericalDegeneracyError("injected method")
        return real_covs(pairs, use_cross=use_cross)

    monkeypatch.setattr(experiments, "relative_samples", relative_samples)
    monkeypatch.setattr(experiments, "between_covs", between_covs)
    capsys.readouterr()
    got = _slam_csvs(cfg, tmp_path / "bad", 5)[0].decode().splitlines()
    err = capsys.readouterr().err
    assert err.count("failed") == 1
    assert f"slam-relpose pair ({bad[0]},{bad[1]}) failed: injected oracle" in err
    assert bad not in predicted and len(predicted) == 79
    _assert_only_pair_failed(good, got, key)


def test_slam_relpose_predicts_each_method_once_over_all_pairs(tmp_path, monkeypatch):
    # a healthy 500-pose run: the oracle in 16-pair blocks, each method's
    # prediction in one stack of all 600 pairs
    real_predict, real_samples = experiments._predict, experiments.relative_samples
    predictions, blocks = [], []

    def predict(pairs, method):
        predictions.append((len(pairs), method))
        return real_predict(pairs, method)

    def relative_samples(pairs, M, seeds):
        blocks.append(len(pairs))
        return real_samples(pairs, M, seeds)

    monkeypatch.setattr(experiments, "_predict", predict)
    monkeypatch.setattr(experiments, "relative_samples", relative_samples)
    cfg = _write_cfg(tmp_path, {"generate": {"n_poses": 500, "seed": 0}})
    _slam_csvs(cfg, tmp_path / "out", 0)
    assert predictions == [(600, method) for method in experiments.KNOWN_METHODS]
    assert blocks == [experiments._PAIR_BLOCK] * 37 + [8]


def test_slam_relpose_prediction_pass_peak_memory(tmp_path, monkeypatch):
    # the prediction and grading pass over the 600 pairs of a 500-pose run,
    # every method at once: its stacks and the 1,800 rows
    import tracemalloc

    real = experiments._pair_rows
    peaks = []

    def pair_rows(items, moments, methods):
        tracemalloc.start()
        try:
            out = real(items, moments, methods)
            peaks.append((len(items), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(experiments, "_pair_rows", pair_rows)
    cfg = _write_cfg(tmp_path, {"generate": {"n_poses": 500, "seed": 0}})
    _slam_csvs(cfg, tmp_path / "out", 0)
    [(n_pairs, peak)] = peaks
    assert n_pairs == 600
    assert peak < 4e6  # measured 3.4 MB (seeds 0-5)


def test_slam_relpose_csv_bytes_match_one_pair_calls(tmp_path, monkeypatch):
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
    block = graph.Marginals.pair_beliefs
    monkeypatch.setattr(graph.Marginals, "pair_beliefs",
                        lambda self, pairs: [block(self, [pair])[0] for pair in pairs])
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


def test_convert_demo_singular_covariance_counts_containment(tmp_path):
    # one noisy channel makes every position covariance singular (rank 1);
    # the containment count used to exit 1 on a singular solve, then counted
    # against the chi2(2) threshold, about 98.5% of a one-dimensional
    # Gaussian.  Samples lie on the covariances' ranges, and the threshold
    # takes its dof from the rank, so each locus holds about p = 95%
    cfg = _write_cfg(tmp_path, {"cov_lie_diag": [0.005, 0, 0, 0, 0, 0], "M": 2000})
    assert run_cli("convert-demo", "--config", str(cfg), "--out", str(tmp_path),
                   "--seed", "0") == 0
    counts = {r["locus"]: float(r["fraction_true_inside"])
              for r in read_csv(tmp_path / "containment.csv")}
    assert set(counts) == {"true", "ssc", "converted"}
    for fraction in counts.values():
        assert abs(fraction - 0.95) < 0.01


def test_convert_demo_singular_locus_is_the_counted_region(tmp_path):
    # rank-1 position covariances: each locus is a segment along x, drawn at
    # the chi2 quantile of the rank that the count uses (chi2(2) drew it
    # sqrt(q2 / q1) = 1.25 times too long), so the samples on the segment
    # are the samples counted inside (all M = 2000 are in samples.csv)
    cfg = _write_cfg(tmp_path, {"cov_lie_diag": [0.005, 0, 0, 0, 0, 0], "M": 2000})
    assert run_cli("convert-demo", "--config", str(cfg), "--out", str(tmp_path),
                   "--seed", "0") == 0
    x = np.array([float(r["x"]) for r in read_csv(tmp_path / "samples.csv")])
    assert x.size == 2000
    counts = {r["locus"]: float(r["fraction_true_inside"])
              for r in read_csv(tmp_path / "containment.csv")}
    for locus, count in counts.items():
        ends = [float(r["x"]) for r in read_csv(tmp_path / "ellipses.csv") if r["locus"] == locus]
        on_segment = np.mean((x >= min(ends)) & (x <= max(ends)))
        assert abs(on_segment - count) <= 1 / x.size, locus


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


def test_benchmark_trace_targets_exist(monkeypatch):
    # the benchmark's traced runs wrap these attributes; a rename or deletion
    # in the package must fail here, not only in the benchmark's own self-test
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracing

    targets = tracing._targets()
    assert targets
    for owner, attr, _, _ in targets:
        assert callable(owner.__dict__.get(attr)), (owner, attr)
