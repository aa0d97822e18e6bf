#!/usr/bin/env python3
"""Closed-loop benchmark of ldpma: one job at a time, from one process.

    python3 bench/run.py --workload gibbs-exact --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
The run first times SETUP_STARTS fresh processes that import the package
and build the workload's inputs (setup_s is their median). It then builds
the seeded round of jobs itself and repeats the round until --seconds have
passed, always finishing the round. Each job's output is checked outside
its timed region; a job that raises or fails its check counts as failed.

The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(spans written to .bench_out/). See bench/README.md.
"""

import os

# the program's defaults: LDPMA_THREADS unset, BLAS threads at their default
for _var in ("LDPMA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ.pop(_var, None)

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("gibbs-exact", "ma-path", "verify-sweep")
SETUP_STARTS = 7


def require_package():
    if not (SRC / "ldpma" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'ldpma'}; run from the root "
                 "of an ldpma checkout")


def import_program():
    """Import every ldpma layer from ./src; returns the seconds it took."""
    require_package()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ldpma.cli  # noqa: F401  (pulls in every other layer)
    seconds = time.perf_counter() - start
    import ldpma
    if Path(ldpma.__file__).resolve().parent != SRC / "ldpma":
        sys.exit(f"error: imported ldpma from {ldpma.__file__}, not {SRC}")
    return seconds


def build_round(workload, seed, outdir):
    import workloads
    outdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, outdir)


def setup_child(args):
    import_s = import_program()
    build_round(args.workload, args.seed, Path(args.outdir))
    print(json.dumps({"import_s": import_s}))


def time_setup(args, run_dir):
    walls, imports = [], []
    for i in range(SETUP_STARTS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--outdir", str(run_dir / f"setup-{i}")]
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=False)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.exit(f"error: setup process failed:\n{done.stderr}")
        last = done.stdout.strip().splitlines()[-1]
        imports.append(json.loads(last)["import_s"])
    return statistics.median(walls), statistics.median(imports)


def _theta_bytes(args, kwargs, result, error):
    # the (shift, centre, point) exponent array it allocates, from the shapes;
    # numpy loads late so that the set-up processes time its import
    import numpy as np
    params, centers, points = args
    centers, points = np.atleast_2d(centers), np.atleast_2d(points)
    shifts = (2 * params.truncation_radius + 1) ** centers.shape[1]
    return {"bytes": 8 * shifts * len(centers) * len(points)}


def _solver_iterations(args, kwargs, result, error):
    trace = result.log if error is None else getattr(error, "residuals", ())
    return {"iterations": max(len(trace) - 1, 0)}


TRACED = {
    "measures.entropy": None,
    "measures.log_mgf": None,
    "measures.GridMeasure.density_at": None,
    "legendre.ent_dual_check": None,
    "legendre.conjugate_at": None,
    "transport.hungarian": None,
    "transport.kantorovich_lp": None,
    "torus_theta.log_theta_grid": _theta_bytes,
    "hamiltonian_gibbs.permanent": None,
    "hamiltonian_gibbs.hamiltonian": None,
    "hamiltonian_gibbs.gibbs_exact": None,
    "hamiltonian_gibbs.local_rate": None,
    "monge_ampere.solve_master": _solver_iterations,
    "monge_ampere.f_gradient_residual": None,
    "monge_ampere.w2_circle": None,
    "monge_ampere.ma_operator": None,
    "monge_ampere.j_functional": None,
    "experiments.run_experiment": None,
    "cli.main": None,
}
CALL_COUNTS = ("hamiltonian_gibbs.permanent", "hamiltonian_gibbs.hamiltonian",
               "measures.GridMeasure.density_at", "measures.entropy",
               "measures.log_mgf", "transport.kantorovich_lp",
               "transport.hungarian", "torus_theta.log_theta_grid",
               "monge_ampere.w2_circle", "monge_ampere.ma_operator",
               "legendre.conjugate_at")
SELF_TIMES = ("hamiltonian_gibbs.gibbs_exact", "hamiltonian_gibbs.local_rate",
              "hamiltonian_gibbs.hamiltonian", "measures.entropy",
              "measures.log_mgf", "transport.kantorovich_lp",
              "transport.hungarian", "torus_theta.log_theta_grid",
              "monge_ampere.solve_master", "monge_ampere.w2_circle",
              "monge_ampere.ma_operator", "monge_ampere.j_functional",
              "legendre.ent_dual_check", "experiments.run_experiment",
              "cli.main")


def layer_metrics(tracer, jobs, busy_s, cpu_s, import_s):
    """Per-layer figures, each per job attempted unless named otherwise."""
    self_s = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name in CALL_COUNTS:
        out[name + ".calls"] = (counts[name + ".calls"] / jobs, "count")
    for name in SELF_TIMES:
        out[name + ".self_s"] = (self_s[name] / jobs, "s")
    out["torus_theta.log_theta_grid.bytes"] = (
        counts["torus_theta.log_theta_grid.bytes"] / jobs, "B")
    out["monge_ampere.solve_master.iterations"] = (
        counts["monge_ampere.solve_master.iterations"] / jobs, "count")
    out["monge_ampere.solve_master.trials"] = (
        tracer.child_counts("monge_ampere.solve_master",
                            "monge_ampere.f_gradient_residual") / jobs,
        "count")
    out["process.import_s"] = (import_s, "s")
    out["process.cpu_s_per_job"] = (cpu_s / jobs, "s")
    out["trace.jobs_per_s"] = (jobs / busy_s, "1/s")
    return out


def run_jobs(round_jobs, seconds, tracer):
    """Repeat the round until seconds have passed; returns the tallies."""
    durations, failed, wrong, reported, cpu_s = [], 0, 0, set(), 0.0
    start = time.perf_counter()
    while True:
        for job in round_jobs:
            call = tracer.span("job", job.run) if tracer else job.run
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out, error = call(), None
            except Exception as exc:  # a job's crash is a failed operation
                out, error = None, exc
            durations.append(time.perf_counter() - t0)
            cpu_s += time.process_time() - c0
            if error is not None:
                failed += 1
                if job.kind not in reported:
                    reported.add(job.kind)
                    print(f"job {job.kind} failed: "
                          f"{traceback.format_exception_only(error)[-1].strip()}",
                          file=sys.stderr)
                continue
            problems = job.check(out)
            if problems:
                failed += 1
                wrong += 1
                print(f"job {job.kind} gave a wrong output: "
                      + "; ".join(problems[:5]), file=sys.stderr)
        if time.perf_counter() - start >= seconds:
            break
    return durations, failed, wrong, cpu_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--outdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child(args)
        return 0
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")

    require_package()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_s, import_s = time_setup(args, run_dir)
    import_program()
    round_jobs = build_round(args.workload, args.seed, run_dir / "jobs")
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(TRACED)

    durations, failed, wrong, cpu_s = run_jobs(round_jobs, args.seconds,
                                               tracer)
    jobs, busy = len(durations), sum(durations)
    if tracer:
        tracer.write(run_dir)
        metrics = layer_metrics(tracer, jobs, busy, cpu_s, import_s)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "jobs_per_s": (jobs / busy, "1/s"),
            "job_p50_s": (statistics.median(durations), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": jobs,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
