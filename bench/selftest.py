"""Smoke test of the benchmark itself, on tiny inputs (about 20 seconds).

Usage::

    python3 bench/selftest.py

Runs every workload at smoke-test size, untraced and traced, and checks that
every named metric appears with its unit, that self times add up to the
traced wall time, that counts and CSV digests repeat for one seed, and that
the benchmark refuses to run where the program's sources are missing.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
DETAILS = {"cov_err_correlated": "frobenius", "failed_frac": "ratio", "claim_margin": "normalized"}
PER_LAYER = {
    **{f"{name}_s": "s" for name in run.LAYER_SPANS},
    "graph.solve.iterations": "count",
    "graph.solve.final_chi2": "chi2",
    "graph.factor.nnz": "count",
    "graph.pair_belief.count": "count",
    "graph.pair_belief_ms.p50": "ms",
    "graph.pair_belief_ms.p98": "ms",
    "liegroup.pose_init.count": "count",
    "liegroup.exp_many.mats": "count",
    "liegroup.log_many.mats": "count",
    "mc.log_kept_ratio": "ratio",
    "convert.sigma_points.count": "count",
    "experiments.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.thread_overlap_s": "s",
}


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def check_spec(spec):
    for section, wanted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        units = {m["name"]: m["unit"] for m in spec[section]}
        check(units == wanted, f"BENCHMARK.json {section} differs: {sorted(set(units) ^ set(wanted))}")
    listed = [w["name"] for w in spec["workloads"]]
    check(set(listed) <= set(run.WORKLOADS), f"unknown workloads in BENCHMARK.json: {listed}")


def smoke(workload, spec):
    seed = 3
    res0, det0 = run.run_benchmark(workload, seed, 0.0, False, tiny=True, setup_repeats=1)
    check(res0["correct"] and res0["failed"] == 0 and res0["attempted"] > 0, f"{workload}: {res0}")
    shown = run.with_units(res0["metrics"], spec["end_to_end"])
    check(set(res0["metrics"]) == set(END_TO_END), f"{workload}: end-to-end names")
    for name, unit in END_TO_END.items():
        check(shown[name]["unit"] == unit and shown[name]["value"] > 0, f"{workload}: {name}")
    for name, unit in DETAILS.items():
        if name == "claim_margin" and not workload.startswith("slam"):
            continue
        check(det0["accuracy"][name]["unit"] == unit, f"{workload}: detail {name}")
        check(math.isfinite(det0["accuracy"][name]["value"]), f"{workload}: detail {name}")
    for key in ("seed", "nproc", "python", "numpy", "scipy", "blas_threads"):
        check(key in det0["context"], f"{workload}: context {key}")
    # a probe before the first iteration and after each, only with a pool
    probes = det0["iterations"] + 1 if run.make_workload(workload, seed).jobs > 1 else 0
    check(len(det0["probe_s_all"]) == probes, f"{workload}: probes")

    res1, det1 = run.run_benchmark(workload, seed, 0.0, True, tiny=True, setup_repeats=1)
    res2, det2 = run.run_benchmark(workload, seed, 0.0, True, tiny=True, setup_repeats=1)
    m = res1["metrics"]
    check(set(m) == set(PER_LAYER), f"{workload}: per-layer names {sorted(set(m) ^ set(PER_LAYER))}")
    busy = sum(m[f"{name}_s"] for name in run.LAYER_SPANS) + m["experiments.self_s"]
    check(math.isclose(busy, m["trace.wall_s"] + m["trace.thread_overlap_s"], rel_tol=1e-9),
          f"{workload}: self times do not add up")
    if workload != "slam-500":  # one thread: self times sum to the wall time
        check(abs(m["trace.thread_overlap_s"]) < 1e-9 * m["trace.wall_s"], f"{workload}: overlap")
    for key in run.EXACT_COUNTS:
        check(m[key] == res2["metrics"][key], f"{workload}: {key} does not repeat")
    check(det0["digests"] == det1["digests"] == det2["digests"], f"{workload}: digests differ")
    if workload.startswith("slam"):
        check(m["graph.solve.iterations"] > 0 and m["graph.factor.nnz"] > 0, f"{workload}: graph")
    else:
        # the direct 3-pose conversion plus convert-demo's single pose
        check(m["convert.sigma_points.count"] == (12 * 3 + 1) + (12 + 1),
              f"{workload}: sigma points")
    print(f"ok {workload}: wall {res0['metrics']['wall_s']:.3f} s, "
          f"traced {m['trace.wall_s']:.3f} s, {len(det0['digests'])} outputs hashed")


def refuses_without_program():
    """The benchmark alone (no src/) must exit non-zero without a result."""
    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copytree(run.BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "slam-500", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(), "ran without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_ROOT.rmdir()
    print("ok refuses to run without the program's sources")


def main():
    run.import_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in run.WORKLOADS:
        smoke(workload, spec)
    refuses_without_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
