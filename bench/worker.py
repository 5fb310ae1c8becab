"""Runs one workload in its own process and prints one JSON line.

Usage (normally started by run.py):
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

The worker imports mathieulab from the checkout's ``src`` directory, builds
the workload's job list from the seed, warms up on the smallest job of each
family, then drives the jobs closed-loop (one simulated researcher, one
thread: the next job starts only after the previous verdict returns) in
whole passes over the list until the time is up.  Every output is checked
against the workload's reference; a job fails if it raises, or if its output
or exit code disagrees with the reference.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.common import SLICE_S, reference_slice, warmup_jobs  # noqa: E402

WORKLOADS = {"radical-ladder": "wl_radical", "orthopoly-ladder": "wl_orthopoly",
             "surjective-ladder": "wl_surjective", "cli-mix": "wl_climix"}
TAIL_LEVELS = (50, 90, 99, 99.9)
# Enough passes that every workload's sample count sits inside one tail level
# (p90 for the ladders, p99 for cli-mix) whatever the machine speed.
MIN_PASSES = 3
SLICE_WINDOW = 3


def import_package():
    """Import mathieulab from this checkout, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mathieulab
    import mathieulab.cli  # noqa: F401  (the CLI layer is not imported by the package)

    if not Path(mathieulab.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"mathieulab was imported from {mathieulab.__file__}, not {src}")
    return mathieulab


def workload_module(name):
    return importlib.import_module(f"bench.{WORKLOADS[name]}")


def tail_level(n):
    """Highest level in TAIL_LEVELS with at least ten of n samples beyond it."""
    return max(q for q in TAIL_LEVELS if q == 50 or n * (100 - q) / 100 >= 10)


def quantile(sorted_values, q):
    """Nearest-rank quantile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Runner:
    """Closed-loop driver with reference checking."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.verified = [None] * len(jobs)  # repr of the output already checked
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_job(self, index):
        """Run and check one job; returns (seconds, output or None)."""
        job = self.jobs[index]
        start = perf_counter()
        try:
            out = job.run()
            reason = None
        except Exception as exc:  # an unexpected raise is a failed job
            out = None
            reason = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        self.attempted += 1
        if reason is None:
            fingerprint = repr(out)
            if fingerprint != self.verified[index]:
                reason = job.check(out)
                if reason is None:
                    self.verified[index] = fingerprint
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{job.family}/{job.size}: {reason}")
        return elapsed, out

    def run_pass(self, on_output=None):
        """One pass over the job list, with a reference slice after each job.

        Returns (per-job seconds, scaled per-job seconds).  A job's time is
        scaled by SLICE_S over the median of the slices timed after it and
        after its neighbours, up to SLICE_WINDOW jobs on either side.
        """
        times = []
        slices = []
        for index in range(len(self.jobs)):
            elapsed, out = self.run_job(index)
            times.append(elapsed)
            if on_output is not None:
                on_output(out)
            slices.append(reference_slice())
        window = SLICE_WINDOW
        scaled = [t * SLICE_S / statistics.median(slices[max(0, i - window):i + window + 1])
                  for i, t in enumerate(times)]
        return times, scaled

    def run_for(self, seconds, min_passes=1):
        """Whole passes until ``seconds`` have elapsed and ``min_passes`` are done."""
        passes = []
        start = perf_counter()
        while len(passes) < min_passes or perf_counter() - start < seconds:
            passes.append(self.run_pass())
        return passes


def end_to_end(passes):
    """End-to-end metrics from (per-job seconds, scaled per-job seconds) passes."""
    samples = sorted(t for _, scaled in passes for t in scaled)
    level = tail_level(len(samples))
    return {
        "wall_s": statistics.median(sum(scaled) for _, scaled in passes),
        "job_s_p50": statistics.median(samples),
        "job_s_tail": quantile(samples, level),
        "tail_level": level,
        "samples": len(samples),
        "passes": len(passes),
        "jobs_per_pass": len(passes[0][0]),
        "raw_wall_s": statistics.median(sum(times) for times, _ in passes),
        "speed_scale": statistics.median(sum(scaled) / sum(times) for times, scaled in passes),
    }


def traced(runner, package, seconds):
    """Untraced passes, then traced passes, for half the time each."""
    from bench.trace import Tracer, combine_passes

    untraced = runner.run_for(seconds / 2)
    untraced_wall = statistics.median(sum(scaled) for _, scaled in untraced)
    tracer = Tracer(package, lambda: runner.attempted)
    tracer.install()
    per_pass = []
    walls = []
    start = perf_counter()
    try:
        while not per_pass or perf_counter() - start < seconds / 2:
            before = tracer.snapshot()
            bytes_out = 0

            def count_bytes(out):  # CLI replies are (exit code, stdout, stderr)
                nonlocal bytes_out
                if isinstance(out, tuple) and len(out) == 3 and isinstance(out[1], str):
                    bytes_out += len(out[1].encode()) + len(out[2].encode())

            times, scaled = runner.run_pass(count_bytes)
            per_pass.append(tracer.pass_metrics(before, tracer.snapshot(), sum(times), bytes_out))
            walls.append(sum(scaled))
    finally:
        tracer.uninstall()
    metrics = combine_passes(per_pass)
    metrics["trace_overhead_ratio"] = statistics.median(walls) / untraced_wall
    return metrics, len(per_pass), len(tracer.s_fn)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = import_package()
    module = workload_module(args.workload)
    jobs = module.build(random.Random(f"{args.workload}:{args.seed}"), package)
    runner = Runner(jobs)

    # warm-up; wrong outputs are counted by the measured passes, not here
    warm = Runner(warmup_jobs(jobs))
    for index in range(len(warm.jobs)):
        warm.run_job(index)
    if args.setup_only:
        return 0

    result = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        metrics, traced_passes, spans = traced(runner, package, args.seconds)
        result.update(per_layer=metrics, traced_passes=traced_passes, spans=spans)
    else:
        result.update(end_to_end(runner.run_for(args.seconds, MIN_PASSES)))
    result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
