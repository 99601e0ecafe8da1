"""corrpose benchmark: whole CLI runs timed end to end, layers timed by tracing.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of the
same checkout and driven in-process through ``corrpose.cli.main``, writing
its CSVs under ``.bench_build/``.  One run is a closed loop on one thread of
control: the workload's experiments run back to back, iteration after
iteration, until ``S`` seconds have passed (at least two iterations, so every
run repeats its seed).  On a workload that runs a thread pool, iteration
times are scaled by host-contention probes taken between iterations
(``speed.py``).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics.  The last line of standard output is the result object;
the line before it holds the run's details (accuracy figures, CSV digests,
machine context).  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread per interpreter thread: with the slam-500 pool of two
# workers the process then uses at most nproc = 2 threads.  Must be set
# before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_build"
SETUP_REPEATS = 5
MIN_ITERATIONS = 2

SLAM_METHODS = ["lie-correlated", "lie-independent", "ssc"]


class ProgramMissing(RuntimeError):
    """The checkout does not hold the corrpose sources."""


class CheckFailed(RuntimeError):
    """The program's outputs are wrong or not reproducible."""


def import_program():
    """Import corrpose from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "corrpose" / "__init__.py").is_file():
        raise ProgramMissing(f"no corrpose package under {src}")
    sys.path.insert(0, str(src))
    import corrpose
    import corrpose.cli

    if Path(corrpose.__file__).resolve().parent != (src / "corrpose").resolve():
        raise ProgramMissing(f"imported corrpose from {corrpose.__file__}, not {src}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Step:
    """One CLI invocation and the CSV whose data rows are its operations."""

    argv: list[str]
    rows_csv: str
    expected_rows: int


@dataclass
class Workload:
    steps: list[Step]
    ut_poses: int = 0          # size of the direct ut_convert belief, 0 = none
    jobs: int = 1              # pool threads; above 1, a jobs=1 determinism reference
                               # is made at set-up and wall_s is scaled by speed.probe
    configs: dict = field(default_factory=dict)


def _slam_pairs(n_poses: int, offsets, cap: int) -> int:
    return sum(min(cap, n_poses - off) for off in offsets if off < n_poses)


def _slam(n_poses, jobs, seed, tiny):
    cfg = {
        "generate": {"n_poses": 120 if tiny else n_poses, "seed": seed},
        "offsets": [10, 50, 100],
        "pairs_per_offset": 4 if tiny else 200,
        "M": 200 if tiny else 1000,
        "methods": SLAM_METHODS,
    }
    pairs = _slam_pairs(cfg["generate"]["n_poses"], cfg["offsets"], cfg["pairs_per_offset"])
    argv = ["slam-relpose", "--config", "slam.json", "--seed", str(seed), "--jobs", str(jobs)]
    return Workload(
        [Step(argv, "slam_relpose.csv", pairs * len(SLAM_METHODS))],
        jobs=jobs,
        configs={"slam.json": cfg},
    )


def _se3(seed, tiny):
    m = 500 if tiny else None
    configs = {
        "compose.json": {"sweep": "N", "values": [2, 5, 10, 15, 20], "M": m or 10_000},
        "relpose.json": {"alphas": [0.5, 1.0, 2.0, 4.0], "M": m or 10_000},
        "convert.json": {"M": m or 20_000},
    }
    steps = [
        Step(["compose-sweep", "--config", "compose.json", "--seed", str(seed)],
             "compose_sweep.csv", 5 * 3),
        Step(["relpose-alpha-sweep", "--config", "relpose.json", "--seed", str(seed)],
             "relpose_alpha_sweep.csv", 4 * 2),
        Step(["convert-demo", "--config", "convert.json", "--seed", str(seed)],
             "containment.csv", 3),
    ]
    return Workload(steps, ut_poses=3 if tiny else 20, configs=configs)


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The named workload at full size, or at smoke-test size with ``tiny``."""
    if name == "slam-3500":
        return _slam(3500, 1, seed, tiny)
    if name == "slam-500":
        return _slam(500, 2, seed, tiny)
    if name == "se3-sweeps":
        return _se3(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("slam-3500", "slam-500", "se3-sweeps")


def ut_belief(n_poses: int, seed: int):
    """Seeded joint Euler-coordinate belief over ``n_poses`` poses.

    Angles stay within 0.5 rad and the sigma points within about 0.2 rad of
    them, far from gimbal lock and from the logarithm's branch cut.
    """
    from corrpose.ssc import SscBelief

    rng = np.random.default_rng([seed, 20])
    dim = 6 * n_poses
    mean = np.concatenate(
        [np.r_[rng.uniform(-5, 5, 3), rng.uniform(-0.5, 0.5, 3)] for _ in range(n_poses)]
    )
    A = 0.02 * rng.standard_normal((dim, dim))
    cov = A @ A.T / dim + np.diag(np.tile([1e-3] * 3 + [1e-4] * 3, n_poses))
    return SscBelief(mean, cov)


def prepare_inputs(wl: Workload, seed: int, workdir: Path):
    """Input generation: config files plus the direct ut_convert belief."""
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, cfg in wl.configs.items():
        (workdir / fname).write_text(json.dumps(cfg), encoding="ascii")
    return ut_belief(wl.ut_poses, seed) if wl.ut_poses else None


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------

@dataclass
class Iteration:
    """What one iteration leaves behind; its outputs are checked and dropped."""

    wall_s: float
    digests: dict       # output name -> SHA-256
    attempted: int
    failed: int
    accuracy: dict      # see accuracy()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_iteration(wl: Workload, workdir: Path, belief, out: Path, jobs=None,
                  tracer=None) -> Iteration:
    """Run every step once into ``out``; time it, then hash and check outputs.

    With a tracer, the timed part runs with the layer wrappers installed
    and inside the tracer's root span.  Raises CheckFailed on wrong outputs.
    """
    from corrpose import cli, convert

    out.mkdir(parents=True)
    gc.collect()  # every iteration starts from a collected heap
    codes, logs = [], []
    converted = None
    with contextlib.ExitStack() as timed:
        if tracer is not None:
            timed.enter_context(tracing.traced(tracer))
            timed.enter_context(tracer.root_span())
        start = time.perf_counter()
        for step in wl.steps:
            argv = [a if not a.endswith(".json") else str(workdir / a) for a in step.argv]
            if jobs is not None:
                argv[argv.index("--jobs") + 1] = str(jobs)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                codes.append(cli.main(argv + ["--out", str(out)]))
            logs.append(err.getvalue())
        if belief is not None:
            try:
                converted = convert.ut_convert(belief)
            except (ArithmeticError, ValueError, RuntimeError) as e:
                print(f"ut_convert failed: {type(e).__name__}: {e}", file=sys.stderr)
        wall = time.perf_counter() - start

    digests, rows = {}, {}
    for path in sorted(out.iterdir()):
        digests[path.name] = _digest(path.read_bytes())
        if path.suffix == ".csv":
            rows[path.name] = _read_rows(path)
    attempted = failed = 0
    for step, code, log in zip(wl.steps, codes, logs):
        attempted += step.expected_rows
        if code != 0:
            failed += step.expected_rows
            print(f"{step.argv[0]} exited {code}: {log.strip()[-500:]}", file=sys.stderr)
        else:
            failed += sum(r.get("error") == "1" for r in rows.get(step.rows_csv, []))
    if belief is not None:
        attempted += 1
        if converted is None:
            failed += 1
        else:
            digests["ut_convert.cov"] = _digest(converted.cov.tobytes())
    shutil.rmtree(out)
    check_outputs(wl, codes, rows, converted)
    return Iteration(wall, digests, attempted, failed, accuracy(wl, rows))


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _finite(rows, col):
    vals = [float(r[col]) for r in rows]
    if not all(math.isfinite(v) for v in vals):
        raise CheckFailed(f"non-finite {col}")
    return vals


def check_outputs(wl: Workload, codes: list, csvs: dict, converted) -> None:
    """Structural checks on one iteration's outputs; raises CheckFailed.

    A step that exits non-zero has reported its failure; its operations
    count as failed and its (absent) outputs are not checked.
    """
    for step, code in zip(wl.steps, codes):
        if code != 0:
            continue
        rows = csvs.get(step.rows_csv)
        if rows is None or len(rows) != step.expected_rows:
            got = None if rows is None else len(rows)
            raise CheckFailed(f"{step.rows_csv}: expected {step.expected_rows} rows, got {got}")
    if "slam_relpose_summary.csv" in csvs:
        rows = [r for r in csvs["slam_relpose.csv"] if r["error"] == "0"]
        summary = csvs["slam_relpose_summary.csv"]
        if len(summary) != 2 * len(SLAM_METHODS):
            raise CheckFailed("slam summary: wrong row count")
        for s in summary:
            vals = _finite([r for r in rows if r["method"] == s["method"]], s["metric"])
            if int(s["n_pairs"]) != len(vals):
                raise CheckFailed(f"slam summary n_pairs mismatch for {s['method']}")
            if vals and not np.isclose(float(s["mean"]), np.mean(vals), rtol=1e-12, atol=0):
                raise CheckFailed(f"slam summary mean mismatch for {s['method']}/{s['metric']}")
    if "compose_sweep.csv" in csvs:
        rows = csvs["compose_sweep.csv"]
        frac = _finite(rows, "containment")
        if min(frac) < 0 or max(frac) > 1 or min(_finite(rows, "cov_error")) < 0:
            raise CheckFailed("compose-sweep values out of range")
    if "relpose_alpha_sweep.csv" in csvs:
        if min(_finite(csvs["relpose_alpha_sweep.csv"], "cov_error")) < 0:
            raise CheckFailed("relpose-alpha-sweep: negative error")
    if "containment.csv" in csvs:
        frac = _finite(csvs["containment.csv"], "fraction_true_inside")
        if min(frac) < 0 or max(frac) > 1:
            raise CheckFailed("convert-demo containment out of range")
    if converted is not None:
        cov = converted.cov
        if cov.shape != (6 * wl.ut_poses,) * 2 or not np.isfinite(cov).all():
            raise CheckFailed("ut_convert: bad covariance shape or entries")
        if not np.array_equal(cov, cov.T) or np.linalg.eigvalsh(cov).min() < -1e-12 * np.trace(cov):
            raise CheckFailed("ut_convert: covariance not symmetric PSD")


def check_repeats(iterations: list[Iteration], reference: dict | None) -> None:
    """Every iteration (and the set-up reference) wrote identical bytes."""
    first = iterations[0].digests
    for k, it in enumerate(iterations[1:], start=1):
        if it.digests != first:
            diff = sorted(n for n in first.keys() | it.digests.keys()
                          if first.get(n) != it.digests.get(n))
            raise CheckFailed(f"iteration {k} differs from iteration 0 with one seed: {diff}")
    if reference is not None and reference != first:
        raise CheckFailed("jobs=2 output differs from the jobs=1 reference")


# ---------------------------------------------------------------------------
# accuracy figures (reported, not gated; they depend on the seed)
# ---------------------------------------------------------------------------

def accuracy(wl: Workload, csvs: dict) -> dict:
    """Accuracy figures of one iteration's CSV rows (None where all failed)."""
    def values(rows, method, col):
        return [float(r[col]) for r in rows
                if r["method"] == method and r.get("error", "0") == "0"]

    def mean(vals):
        return statistics.fmean(vals) if vals else None

    corr = []
    for name in ("slam_relpose.csv", "compose_sweep.csv", "relpose_alpha_sweep.csv"):
        corr += values(csvs.get(name, []), "lie-correlated", "cov_error")
    out = {"cov_err_correlated": {"value": mean(corr), "unit": "frobenius"}}
    if any(step.argv[0] == "slam-relpose" for step in wl.steps):
        slam = csvs.get("slam_relpose.csv", [])
        ssc = mean(values(slam, "ssc", "normalized_cov_error"))
        lie = mean(values(slam, "lie-correlated", "normalized_cov_error"))
        margin = ssc - lie if ssc is not None and lie is not None else None
        out["claim_margin"] = {"value": margin, "unit": "normalized"}
    return out


# ---------------------------------------------------------------------------
# set-up timing
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, workdir: Path, repeats: int) -> list[float]:
    """Seconds from a fresh interpreter start to generated inputs, repeated.

    One unmeasured start first, so every measured one finds compiled
    bytecode, as an installed program would.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times[1:]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def blas_threads():
    """Threads OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def context(seed: int) -> dict:
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def _median(xs):
    return float(statistics.median(xs))


def _percentile(xs, q):
    return float(np.percentile(xs, q)) if xs else 0.0


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer figures of one traced iteration (before units are attached)."""
    busy = tracing.self_times(tracer)
    c = tracer.counts
    pair_ms = tracing.inclusive_ms(tracer, "graph.pair_belief")
    out = {f"{name}_s": busy.get(name, 0.0) for name in LAYER_SPANS}
    out["experiments.self_s"] = busy[tracing.ROOT_NAME]
    out.update({
        "graph.solve.iterations": c["graph.solve.iterations"],
        "graph.solve.final_chi2": max(tracer.final_chi2, default=0.0),
        "graph.factor.nnz": max(tracer.factor_nnz, default=0),
        "graph.pair_belief.count": c["graph.pair_belief.count"],
        "graph.pair_belief_ms.p50": _percentile(pair_ms, 50),
        "graph.pair_belief_ms.p98": _percentile(pair_ms, 98),
        "liegroup.pose_init.count": c["liegroup.pose_init.count"],
        "liegroup.exp_many.mats": c["liegroup.exp_many.mats"],
        "liegroup.log_many.mats": c["liegroup.log_many.mats"],
        "mc.log_kept_ratio": (c["log_masked.kept"] / c["log_masked.attempted"]
                              if c["log_masked.attempted"] else 1.0),
        "convert.sigma_points.count": c["convert.sigma_points.count"],
        "trace.wall_s": wall,
        "trace.thread_overlap_s": sum(busy.values()) - wall,
    })
    return out


LAYER_SPANS = (
    "graph.generate", "graph.solve", "graph.assemble", "graph.factor",
    "graph.marginals_build", "graph.pair_belief",
    "ssc.tail_to_tail", "ssc.head_to_tail", "ssc.params_many",
    "experiments.lie_pair_to_ssc",
    "liegroup.exp_many", "liegroup.log_many", "liegroup.inv_many",
    "mc.sample_joint", "mc.mc_relative_cov", "mc.containment_fraction",
    "belief.between", "belief.between_ignoring_correlation", "belief.compose_chain",
    "convert.ut_convert",
)

# Counts that must repeat exactly between traced iterations of one seed.
EXACT_COUNTS = (
    "graph.solve.iterations", "graph.factor.nnz", "graph.pair_belief.count",
    "liegroup.pose_init.count", "liegroup.exp_many.mats", "liegroup.log_many.mats",
    "mc.log_kept_ratio", "convert.sigma_points.count",
)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns (result object, details).

    ``seconds`` counts from the start, set-up timing and the determinism
    reference included; the last iteration may run past it, and at least
    ``MIN_ITERATIONS`` untraced iterations (one traced pair) always run.
    """
    start = time.perf_counter()
    wl = make_workload(workload, seed, tiny)
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    details = {"workload": workload, "trace": int(trace), "context": context(seed)}
    try:
        # a traced run reports no setup_s, so it does not time set-up
        setup_times = [] if trace else measure_setup(workload, seed, run_dir / "setup",
                                                     setup_repeats)
        workdir = run_dir / "inputs"
        belief = prepare_inputs(wl, seed, workdir)

        reference = None
        if wl.jobs > 1:
            ref = run_iteration(wl, workdir, belief, run_dir / "reference", jobs=1)
            details["reference_wall_s"] = ref.wall_s
            reference = ref.digests

        plain, traced_its, layers = [], [], []
        min_iterations = 1 if trace else MIN_ITERATIONS
        probes = [speed.probe()] if wl.jobs > 1 and not trace else []
        while len(plain) < min_iterations or time.perf_counter() - start < seconds:
            plain.append(run_iteration(wl, workdir, belief, run_dir / f"it{len(plain)}"))
            if probes:
                probes.append(speed.probe())
            if trace:
                tracer = tracing.Tracer()
                traced_its.append(run_iteration(wl, workdir, belief,
                                                run_dir / f"tr{len(traced_its)}", tracer=tracer))
                layers.append(layer_metrics(tracer, tracer.root_end - tracer.root_start))
        check_repeats(plain + traced_its, reference)
        for key in EXACT_COUNTS:
            if len({lm[key] for lm in layers}) > 1:
                raise CheckFailed(f"{key} differs between traced iterations")

        attempted = sum(it.attempted for it in plain + traced_its)
        failed = sum(it.failed for it in plain + traced_its)
        raw = [it.wall_s for it in plain]
        walls = ([speed.scaled(w, probes[i], probes[i + 1]) for i, w in enumerate(raw)]
                 if probes else raw)
        details.update({
            "iterations": len(plain),
            "wall_s_all": walls,
            "raw_wall_s_all": raw,
            "probe_s_all": probes,
            "traced_wall_s_all": [it.wall_s for it in traced_its],
            "setup_s_all": setup_times,
            "accuracy": {**plain[0].accuracy,
                         "failed_frac": {"value": failed / attempted, "unit": "ratio"}},
            "digests": plain[0].digests,
        })
        if trace:
            # every figure from one traced iteration, the one of median wall
            # time, so that its self times add up to its wall time
            metrics = sorted(layers, key=lambda lm: lm["trace.wall_s"])[(len(layers) - 1) // 2]
            metrics["trace.overhead_s"] = (_median([it.wall_s for it in traced_its])
                                           - _median([it.wall_s for it in plain]))
            details["layer_share"] = layer_share(metrics)
        else:
            metrics = {
                "setup_s": _median(setup_times),
                "wall_s": _median(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        result = {"correct": True, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return result, details
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_ROOT.rmdir()


def layer_share(metrics: dict) -> dict:
    """Share of the traced wall time spent in each package module."""
    wall = metrics["trace.wall_s"]
    share = {}
    for name in LAYER_SPANS + ("experiments.self",):
        module = name.split(".")[0]
        share[module] = share.get(module, 0.0) + metrics[f"{name}_s"] / wall
    return share


def with_units(metrics: dict, specs: list[dict]) -> dict:
    """Attach BENCHMARK.json units; keeps exactly the listed metrics."""
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        prepare_inputs(make_workload(args.workload, args.seed), args.seed, Path(args.workdir))
        return 0

    try:
        result, details = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as e:
        print(f"CORRECTNESS FAILURE: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    result["metrics"] = with_units(result["metrics"],
                                   spec["per_layer"] if args.trace else spec["end_to_end"])
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
