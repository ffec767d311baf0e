"""kgcoherent benchmark: one process, one closed-loop client.

    python3 perfbench/run.py --workload figure_series --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Jobs of the chosen workload run back to back, each one
starting after the previous one finished, in whole rounds until the jobs
have been busy for ``--seconds``.  Every job is timed from outside, through
the package's public entry points, and its output is checked against an
independent witness after the timed loop.  Time metrics are scaled to a
reference host speed measured by a fixed kernel run before the first job and
after every job (see ``REFERENCE_MS``).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, whose rounds alternate between untraced and traced so that the
tracing overhead is measured too.  A full record of the run (provenance,
inputs, per-job latency and witness) is written to ``perfbench/out``.
"""

import os

# Pin BLAS to one thread before numpy is imported, in this process and in
# the set-up probes it starts.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)
os.environ.pop("KGCOHERENT_OUTDIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("figure_series", "spectral_oracle", "coherent_checks")
SETUP_SAMPLES = 11

# On a shared host the CPU's speed drifts by tens of percent over minutes,
# for the program and for any other code alike. A fixed reference kernel runs
# before the first job and after every job, so each job lies between two
# kernel runs, and its latency is scaled to a host on which that kernel takes
# REFERENCE_MS. Drift cancels in the ratio; a change of the program does not.
REFERENCE_MS = 7.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import kgcoherent from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "kgcoherent" / "__init__.py").is_file():
        raise SystemExit(f"error: no kgcoherent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kgcoherent

    if Path(kgcoherent.__file__).resolve().parent != SRC / "kgcoherent":
        raise SystemExit(f"error: imported kgcoherent from {kgcoherent.__file__}")
    return kgcoherent


def reference_kernel():
    """Fixed work with the program's kinds of cost: an interpreted float loop,
    many small numpy calls and one larger array expression."""
    total = 0.0
    for i in range(30000):
        total += i * 0.5
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(1000):
        x = np.where(np.abs(x) < 1e-300, 1e-300, 0.999 * x + 0.001)
    grid = np.outer(np.linspace(0.0, 1.0, 200), np.linspace(0.0, 2.0, 200))
    return total + float(np.exp(-grid).sum())


def time_reference():
    start = time.perf_counter()
    reference_kernel()
    return 1e3 * (time.perf_counter() - start)


def probe_setup():
    """Wall time in seconds of a fresh interpreter importing ``kgcoherent.cli``.

    Users pay this on every command. No timeout: with one, ``subprocess``
    polls the child every 50 ms and the samples snap to that grid.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import kgcoherent.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(args, kgcoherent):
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kgcoherent": kgcoherent.__version__,
        "numpy": numpy.__version__, "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "blas_pin": BLAS_PIN, "git_commit": git_commit(),
    }


def tail(latencies):
    """Highest percentile with at least 10 jobs beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Runner:
    """Runs one workload's rounds and keeps every job's record."""

    def __init__(self, workload, seed, tracer):
        self.workload = workload
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.job_dir = OUT / "jobs" / workload.name
        self.job_dir.mkdir(parents=True, exist_ok=True)
        self.records = []
        self.reference_ms = []
        self.setup_s = []

    def new_round(self):
        return self.workload.round(self.rng, str(self.job_dir))

    def execute(self, job, traced):
        """Run one job; time it from outside; observe its output untimed."""
        if "path" in job and os.path.exists(job["path"]):
            os.remove(job["path"])  # a job that writes nothing must not pass
        record = {"job": len(self.records), "kind": job["kind"], "traced": traced,
                  "input": job, "error": None, "observed": None}
        call = (lambda: self.workload.run(job))
        start = time.perf_counter()
        try:
            if traced:
                result = self.tracer.job(record["job"], call)
            else:
                result = call()
        except (Exception, SystemExit):
            # A job that raises, or exits through argparse, is a failed job.
            result = None
            record["error"] = traceback.format_exc(limit=-1).strip()
        record["ms"] = 1e3 * (time.perf_counter() - start)
        if record["error"] is None:
            try:
                record["observed"] = self.workload.observe(job, result)
            except Exception:
                record["error"] = traceback.format_exc(limit=-1).strip()
        return record

    def loop(self, seconds, trace):
        """Whole rounds until the jobs have been busy for ``seconds``.

        An untraced run also probes set-up SETUP_SAMPLES times, spread over
        the run between jobs, so that set-up sees the same host as the jobs.
        """
        jobs = self.new_round()
        self.execute(jobs[0], False)  # warm-up, not recorded
        time_reference()
        self.reference_ms.append(time_reference())  # before the first job
        if not trace:
            probe_setup()  # may still write bytecode caches; not recorded
        rounds = 0
        busy = 0.0
        while True:
            traced = bool(trace) and rounds % 2 == 1
            for job in jobs:
                if traced:
                    with self.tracer.installed():
                        record = self.execute(job, True)
                else:
                    record = self.execute(job, False)
                record["round"] = rounds
                self.records.append(record)
                busy += record["ms"] / 1e3
                self.reference_ms.append(time_reference())
                if not trace and len(self.setup_s) < min(busy / seconds, 1.0) * SETUP_SAMPLES:
                    self.setup_s.append(probe_setup())
            rounds += 1
            if busy >= seconds and rounds >= (2 if trace else 1):
                return busy, rounds
            jobs = self.new_round()

    def check_witnesses(self):
        for record in self.records:
            if record["error"] is not None:
                record["witness_ratio"] = math.inf
                continue
            worst = (0.0, None)
            try:
                for check, error, tol in self.workload.witness(record["input"],
                                                               record["observed"]):
                    ratio = error / tol if tol > 0.0 else (0.0 if error == 0.0 else math.inf)
                    if not ratio <= worst[0]:
                        worst = (ratio, check)
            except Exception:
                record["error"] = traceback.format_exc(limit=-1).strip()
                worst = (math.inf, "witness raised")
            record["witness_ratio"], record["witness_check"] = worst
            if not worst[0] <= 1.0 and record["error"] is None:
                record["error"] = f"witness {worst[1]}: error/tolerance = {worst[0]:.3g}"


def p50(kinds, latencies):
    """Median over job kinds of each kind's median latency.

    Rounds mix job sizes in equal shares, so the pooled median would fall in
    the gap between sizes, halfway between two extreme order statistics.
    """
    by_kind = {}
    for kind, ms in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(ms)
    return statistics.median(statistics.median(ms) for ms in by_kind.values())


def scaled_ms(records, reference_ms):
    """Each job's latency at reference speed.

    Job ``i`` ran between kernel runs ``i`` and ``i + 1`` of ``reference_ms``;
    the mean of the two is the host's speed during the job.
    """
    return [r["ms"] * 2.0 * REFERENCE_MS / (reference_ms[i] + reference_ms[i + 1])
            for i, r in enumerate(records)]


def end_to_end(records, setup_s, reference_ms, peak_rss_mb):
    """End-to-end metrics scaled to the reference host speed, and as timed.

    ``setup_s`` holds the set-up probes and ``reference_ms`` the kernel times
    taken before the first job and after each job.  Set-up is scaled by the
    run's mean kernel time, which is returned as ``scale``.
    """
    kinds = [r["kind"] for r in records]
    scale = REFERENCE_MS / statistics.fmean(reference_ms)
    metrics = []
    for latencies, setup in (([r["ms"] for r in records], statistics.median(setup_s)),
                             (scaled_ms(records, reference_ms), None)):
        tail_ms, tail_pct = tail(latencies)
        metrics.append({
            "setup_s": setup,
            "jobs_per_s": 1e3 * len(latencies) / math.fsum(latencies),
            "job_ms.p50": p50(kinds, latencies),
            "job_ms.tail": tail_ms,
            "peak_rss_mb": peak_rss_mb,
        })
    timed, scaled = metrics
    scaled["setup_s"] = timed["setup_s"] * scale
    return scaled, timed, scale, tail_pct


def main(argv=None):
    args = parse_args(argv)
    kgcoherent = import_package()
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    prov = provenance(args, kgcoherent)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(workload, args.seed, tracer)
    busy, rounds = runner.loop(args.seconds, args.trace)
    # Peak memory of the timed loop, read before the witnesses import scipy
    # and mpmath.  ru_maxrss is in KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check_witnesses()

    records = runner.records
    failed = [r for r in records if r["error"] is not None]
    ratios = [r["witness_ratio"] for r in records]
    tail_pct = timed = None
    print(f"kgcoherent benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workload.why}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"inputs: {len(records)} jobs in {rounds} rounds of "
          f"{len(records) // rounds} ({', '.join(sorted({r['kind'] for r in records}))}); "
          f"first: {json.dumps(records[0]['input'])}")
    for r in failed[:5]:
        print(f"FAILED job {r['job']} ({r['kind']}): {r['error'].splitlines()[-1]}")

    if args.trace:
        # Latencies at reference speed, so that host drift between the
        # untraced and the traced rounds does not count as tracing cost.
        ms = scaled_ms(records, runner.reference_ms)
        untraced = [t for t, r in zip(ms, records) if not r["traced"]]
        traced = [t for t, r in zip(ms, records) if r["traced"]]
        overhead = statistics.fmean(traced) / statistics.fmean(untraced) - 1.0
        values = spans.layer_metrics(tracer, len(traced), overhead)
        units = dict(spans.layer_metric_names())
        problems = spans.completeness_problems(args.workload, values, tracer)
        for problem in problems:
            print(f"trace check: {problem}")
        summary = tracer.summary()
        job_total = summary["total_s"].get(spans.JOB_SPAN, 0.0)
        print(f"trace.overhead_share {overhead:.4f}: traced jobs took that much "
              f"longer than the {len(untraced)} untraced jobs of the same mix, "
              "both at reference speed")
        print(f"share of {job_total:.3f} s traced job time ({len(traced)} jobs), "
              "self / including children:")
        for name, s in sorted(summary["self_s"].items(), key=lambda kv: -kv[1])[:8]:
            print(f"  {name:40s} {100.0 * s / job_total:6.2f} % "
                  f"{100.0 * summary['total_s'][name] / job_total:6.2f} %  "
                  f"{summary['calls'][name]} calls")
        tracer.save(OUT / f"{args.workload}.spans.npz")
    else:
        values, timed, scale, tail_pct = end_to_end(
            records, runner.setup_s, runner.reference_ms, peak_rss_mb)
        units = END_TO_END_UNITS
        problems = []
        print(f"host speed: the reference kernel took {REFERENCE_MS / scale:.2f} ms "
              f"on average ({REFERENCE_MS:g} ms at reference speed); times below are "
              "scaled to reference speed job by job, as timed in brackets")
        print(f"  setup_s        {values['setup_s']:.4f} s    ({timed['setup_s']:.4f}) "
              f"median of {len(runner.setup_s)} fresh imports of kgcoherent.cli")
        print(f"  jobs_per_s     {values['jobs_per_s']:.4f} 1/s  "
              f"({timed['jobs_per_s']:.4f}) {len(records)} jobs in {busy:.2f} s busy")
        print(f"  job_ms.p50     {values['job_ms.p50']:.2f} ms   ({timed['job_ms.p50']:.2f}) "
              f"median over {len({r['kind'] for r in records})} job kinds of each "
              "kind's median")
        print(f"  job_ms.tail    {values['job_ms.tail']:.2f} ms   "
              f"({timed['job_ms.tail']:.2f}) p{tail_pct:.1f}, {len(records)} jobs")
        print(f"  failed_share   {len(failed) / len(records):.4f} share  "
              f"{len(failed)}/{len(records)} jobs")
        print(f"  witness_ratio  {max(ratios):.4g} ratio  worst witness error "
              "over its tolerance, all jobs")
        print(f"  peak_rss_mb    {values['peak_rss_mb']:.1f} MB")

    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "setup_samples_s": runner.setup_s,
                   "reference_ms": runner.reference_ms,
                   "busy_s": busy, "rounds": rounds, "tail_percentile": tail_pct,
                   "failed_share": len(failed) / len(records),
                   "witness_ratio": max(ratios), "metrics": values,
                   "timed_metrics": timed, "trace_problems": problems,
                   "jobs": records},
                  fh, indent=1, default=str)
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
