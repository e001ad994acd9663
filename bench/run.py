#!/usr/bin/env python3
"""Benchmark of conedeform: one workload in one fresh single-threaded process.

    python3 bench/run.py --workload structured --seed 1 --seconds 32 --trace 0

Run from the repository root.  The load is a closed loop with one client:
jobs run back to back with no think time, each calling conedeform the way a
user does (``conedeform.cli.main`` with a deck file, ``--format kv`` and
``--output``; the library API where no subcommand exists).  Jobs run in
rounds (see ``workloads.py``); another round starts only while it is
expected to end within ``--seconds``, and the first round always runs, so
every metric is taken over whole rounds of the same job mix.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
round untraced and then again with every layer wrapped (``tracing.py``), and
prints the per-layer totals of the traced round and the tracing overhead.
Both modes check every output and fold the exact outputs of the first round
into one digest, which must be the same on a commit that changes no result.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  The full result, with provenance, goes to
``bench/results/``; spans of a traced run go next to it.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy can load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
SETUP_REPEATS = 7

END_TO_END = [("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "ratio")]


class SetupError(RuntimeError):
    pass


def import_program():
    """Import conedeform.cli from this checkout's src/; returns seconds."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import conedeform.cli  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import conedeform from {SRC}: {exc}")
    elapsed = time.perf_counter() - t0
    import conedeform
    if Path(conedeform.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"conedeform was imported from "
                         f"{conedeform.__file__}, not from {SRC}")
    return elapsed


def measure_setup():
    """Median wall time of a fresh interpreter importing conedeform.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import conedeform.cli"],
                              env=env, cwd=ROOT, capture_output=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError("fresh interpreter failed to import "
                             f"conedeform.cli: {proc.stderr.decode()[-500:]}")
    return statistics.median(times), times


def percentile(values, p):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    """Runs rounds of one workload and keeps per-job records."""

    def __init__(self, workloads, workload, seed, workdir):
        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.records = []        # dicts: round, job, latency_s, failure

    def run_round(self, index, tracer=None):
        """Runs one round; returns (wall seconds, digest of exact outputs)."""
        t0 = time.perf_counter()
        jobs = self.w.make_round(self.workload, self.seed, index, self.workdir)
        digest = hashlib.sha256()
        for pos, job in enumerate(jobs):
            gc.collect()
            failure, output = None, None
            span = (tracer.job_span(f"r{index}.{pos}", f"job.{job.name}")
                    if tracer else contextlib.nullcontext())
            with span:
                start = time.perf_counter()
                try:
                    output = job.run()
                except Exception as exc:   # a job that raises is a failed job
                    failure = self.w.Failure(f"{type(exc).__name__}: {exc}")
                latency = time.perf_counter() - start
            if failure is None:
                try:
                    failure = job.check(output)
                except Exception as exc:   # malformed output fails its check
                    failure = self.w.Failure(
                        f"check raised {type(exc).__name__}: {exc}")
            if job.exact:
                digest.update(f"{job.name}\n".encode())
                digest.update(("FAILED" if failure or output is None
                               else str(output)).encode())
            self.records.append({
                "round": index, "job": job.name, "latency_s": latency,
                "failure": None if failure is None else failure.message,
                "known_defect": None if failure is None
                else failure.known_defect})
        return time.perf_counter() - t0, digest.hexdigest()

    def run_timed(self, seconds):
        """Whole rounds while the next one is expected to end in time."""
        t0 = time.perf_counter()
        walls = []
        digest = None
        while True:
            wall, d = self.run_round(len(walls))
            walls.append(wall)
            digest = digest or d
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.mean(walls) > seconds:
                return walls, digest


def summarize(records, tail_pct):
    lat = [r["latency_s"] for r in records]
    failed = [r for r in records if r["failure"] is not None]
    tail = percentile(lat, tail_pct)
    return {
        "attempted": len(records),
        "failed": len(failed),
        "unexpected_failures": [r for r in failed if not r["known_defect"]],
        "known_defect_failures": [r for r in failed if r["known_defect"]],
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_s": percentile(lat, 50),
        "job_tail_s": tail,
        "tail_percentile": tail_pct,
        "jobs_beyond_tail": sum(1 for x in lat if x > tail),
        "success_rate": (len(lat) - len(failed)) / len(lat),
        "error_rate": len(failed) / len(lat),
    }


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "conedeform").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args):
    import numpy
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": usable,
        "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "platform": platform.platform(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("structured", "generic", "beltrami", "checks"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_s = import_program()
        setup = measure_setup() if args.trace == 0 else None
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark set-up failed: {exc}\n")
        return 2
    import workloads
    import tracing

    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    cwd = os.getcwd()
    os.chdir(workdir)
    runner = Runner(workloads, args.workload, args.seed, workdir)
    tracer = None
    try:
        if args.trace == 0:
            walls, digest = runner.run_timed(args.seconds)
            digest_traced = None
        else:
            untraced_wall, digest = runner.run_round(0)
            tracer = tracing.Tracer()
            tracer.install(extra_modules=[workloads])
            try:
                traced_wall, digest_traced = runner.run_round(0, tracer)
            finally:
                tracer.uninstall()
            walls = [untraced_wall, traced_wall]
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(runner.records,
                        workloads.TAIL_PERCENTILE[args.workload])
    digests_match = digest_traced is None or digest_traced == digest
    correct = not summary["unexpected_failures"] and digests_match
    if args.trace == 0:
        summary["setup_s"] = setup[0]
        summary["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        layer = tracer.layer_metrics()
        layer["import.s"] = import_s
        layer["trace.overhead_s"] = walls[1] - walls[0]
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in tracing.PER_LAYER}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "provenance": provenance(args),
        "metrics": metrics,
        "exact_digest": digest,
        "exact_digest_traced": digest_traced,
        "digests_match": digests_match,
        "rounds": len(walls),
        "round_walls_s": walls,
        "setup_samples_s": setup[1] if setup else None,
        "import_s": import_s,
        **{k: summary[k] for k in ("attempted", "failed", "error_rate",
                                   "tail_percentile", "jobs_beyond_tail")},
        "failures": [r for r in runner.records if r["failure"]],
        "jobs": runner.records,
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {summary['error_rate']:.6g} "
          f"({summary['failed']}/{summary['attempted']} jobs; "
          f"{len(summary['known_defect_failures'])} known-defect)")
    print(f"job_tail_s is p{summary['tail_percentile']} with "
          f"{summary['jobs_beyond_tail']} of {summary['attempted']} jobs beyond")
    print(f"exact_digest = {digest}"
          + (f" (traced: {digest_traced}, "
             f"{'match' if digests_match else 'MISMATCH'})"
             if digest_traced else ""))
    for r in result["failures"]:
        tag = f" [known defect: {r['known_defect']}]" if r["known_defect"] else ""
        print(f"failed: round {r['round']} {r['job']}: {r['failure']}{tag}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
