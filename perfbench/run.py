"""End-to-end benchmark of bipotkit on the numpy backend.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads (inputs are generated from --seed; see workloads.py):

* certify: the four demos and seeded interval covers through ``verify --cover``
* table:   ``build`` CSVs plus direct ``verify_axioms``/``graph_of_bipotential``
* law:     ``check-law``, ``reconstruct`` (+ conjugate) and ``verify --law``
* refute:  negative verdicts, each witness re-checked by the harness

One client runs each workload's fixed job list in a closed loop: the next
job starts when the previous one returns. A pass is one run over the list;
passes repeat while another one fits in --seconds (at least one runs).
There is no warm-up: the first pass pays first-call costs, as a CLI user
does. Every job's output is re-checked by ``checks.py``; a job that raises,
exits with the wrong code, ships a witness the re-check rejects or differs
from a pinned digest counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With --trace 0 the metrics are
end to end: ``wall_s`` (median pass time), ``setup_s`` (median of
``SETUP_REPEATS`` fresh processes that import bipotkit, generate the inputs
and write them) and ``peak_rss_mb``. ``wall_s`` and ``setup_s`` are rescaled
to the speed of the reference machine by a calibration loop sampled
throughout the run (see speed.py). With --trace 1, the first half of the
time runs untraced, the rest under the tracer of tracing.py, and the metrics
are per layer, per traced pass, plus ``trace.overhead_s`` (traced minus
untraced median pass time). Full results, the environment and the spans go
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "table", "law", "refute"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", default=None, metavar="DIR",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "bipotkit", "__init__.py")):
        sys.exit(f"bipotkit sources not found under {SRC}")


def import_library():
    """bipotkit from this checkout's src/, never an installed copy."""
    require_sources()
    sys.path.insert(0, SRC)
    import bipotkit

    if os.path.dirname(os.path.dirname(os.path.abspath(bipotkit.__file__))) != SRC:
        sys.exit(f"imported bipotkit from {bipotkit.__file__}, not from {SRC}")
    return bipotkit


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


def setup(workload, seed, workdir):
    """Everything before the first job: import, input generation, files."""
    import_library()
    import workloads

    os.makedirs(workdir, exist_ok=True)
    return workloads.BUILDERS[workload](seed, workdir, load_pins()["demos"])


def time_setups(args):
    """Wall times of fresh processes doing the set-up alone."""
    times = []
    for k in range(SETUP_REPEATS):
        workdir = os.path.join(WORK, f"setup-{os.getpid()}-{k}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", workdir]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            sys.exit(f"set-up process failed:\n{proc.stderr.decode()}")
    return times


def run_pass(jobs, tracer, log, speed=None):
    """One closed-loop pass; returns (seconds in jobs, failures, per-job
    seconds, jobs that evaluated a table). Checks, and the calibration ticks
    of an active ``speed``, stay outside the timing."""
    wall, failed, per_job, with_tables = 0.0, 0, {}, 0
    for job in jobs:
        run = job.run if tracer is None else tracer.timed(f"job:{job.name}", job.run)
        evals = tracer.counts["table.evals"] if tracer else 0
        ticks = speed.spent if speed else 0.0
        t0 = time.perf_counter()
        try:
            output = run()
            problems = None
        except (Exception, SystemExit) as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0 - ((speed.spent if speed else 0.0) - ticks)
        wall += dt
        per_job[job.name] = dt
        if tracer is not None:
            with_tables += tracer.counts["table.evals"] > evals
            tracer.counts["formats.bytes_written"] += job.bytes_written(output) if problems is None else 0
        if problems is None:
            try:
                problems = job.check(output)
            except Exception as exc:  # a malformed output is a failed job
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            log(f"FAILED {job.name}: " + "; ".join(problems[:3]))
    return wall, failed, per_job, with_tables


def environment(args):
    from bipotkit import kernels
    import numpy

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    baseline = load_pins()["baseline_env"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "numba": version("numba"), "backend": kernels.BACKEND,
            "backend_matches_baseline": kernels.BACKEND == baseline["backend"],
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(),
            "workload": args.workload, "seed": args.seed, "trace": args.trace}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            return next((l.split()[0] for l in fh if l.rstrip().endswith(ref[5:])), None)
    except OSError:
        return None


def timed_passes(jobs, budget, tracer, log, speed=None):
    """Passes while another one fits in ``budget`` seconds; at least one."""
    start = time.perf_counter()
    walls, failed, attempted, per_job, with_tables = [], 0, 0, [], 0
    while True:
        w, f, pj, wt = run_pass(jobs, tracer, log, speed)
        walls.append(w)
        failed += f
        attempted += len(jobs)
        per_job.append(pj)
        with_tables += wt
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > budget:
            return walls, failed, attempted, per_job, with_tables


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    require_sources()
    if args.setup_only is not None:
        setup(args.workload, args.seed, args.setup_only)
        return 0

    def log(msg):
        print(msg, file=sys.stderr)

    speed = Speed()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        with speed:
            setup_times = time_setups(args)
            jobs = setup(args.workload, args.seed, workdir)
            budget = args.seconds / 2 if args.trace else args.seconds
            walls, failed, attempted, per_job, _ = timed_passes(jobs, budget, None, log, speed)
        import workloads

        env = environment(args)
        if not env["backend_matches_baseline"]:
            log(f"WARNING: kernel backend {env['backend']} differs from the baseline's")
        wall_s = statistics.median(walls)
        result = {"env": env, "sizes": workloads.SIZES[args.workload],
                  "raw_setup_s": setup_times, "raw_pass_s": walls, "raw_jobs_s": per_job,
                  "speed_samples": len(speed.samples), "speed_factor": speed.factor}
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                t_walls, t_failed, t_attempted, _, with_tables = timed_passes(
                    jobs, args.seconds / 2, tracer, log)
            finally:
                tracer.uninstall()
            failed += t_failed
            attempted += t_attempted
            metrics = tracer.metrics(len(t_walls), with_tables)
            metrics["formats.bytes_written"] = (
                tracer.counts["formats.bytes_written"] / len(t_walls), "bytes")
            metrics["trace.overhead_s"] = (statistics.median(t_walls) - wall_s, "s")
            metrics["trace.toplevel_s"] = (
                sum(t1 - t0 for _, _, t0, t1, parent in tracer.spans if parent is None)
                / len(t_walls), "s")
            result["traced_pass_s"] = t_walls
            os.makedirs(RESULTS, exist_ok=True)
            tracer.write(os.path.join(RESULTS, f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"wall_s": (wall_s * speed.factor, "s"),
                       "setup_s": (statistics.median(setup_times) * speed.factor, "s"),
                       "peak_rss_mb": (rss, "MB")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    result.update(out)
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
