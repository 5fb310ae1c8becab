"""mathieulab benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload radical-ladder --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1                      # every workload
    python3 bench/run.py --workload cli-mix --seed 1 --trace 1         # per-layer metrics

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  Earlier lines give the machine
facts and a readable summary.  The exit code is 0 only when every run
completed; reference mismatches are reported through ``correct`` and
``failed``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
sys.path.insert(0, str(ROOT))

from bench.common import SLICE_S, reference_slice  # noqa: E402
from bench.trace import LAYERS, per_layer_metric_specs  # noqa: E402
WORKLOADS = ("radical-ladder", "orthopoly-ladder", "surjective-ladder", "cli-mix")
SETUP_REPEATS = 5
SETUP_SLICES = 50  # reference slices timed after each set-up, about 0.1 s
DEADLINE_S = 170  # per workload; the contract allows 180 s per invocation

END_TO_END = (("wall_s", "s"), ("job_s_p50", "s"), ("job_s_tail", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class RunFailed(Exception):
    pass


def child(args, deadline):
    """Run the worker with ``args``; returns (seconds, stdout).  Raises RunFailed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise RunFailed("out of time")
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed(f"worker {' '.join(args)} timed out")
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited {proc.returncode}: {err.strip()[-600:]}")
    return elapsed, out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(seed):
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_start": list(os.getloadavg()), "seed": seed, "git_commit": git_commit()}


def run_workload(name, seed, seconds, trace, deadline):
    """(summary line, worker result, metrics dict) for one workload."""
    base = ["--workload", name, "--seed", str(seed)]
    if trace:
        _, out = child(base + ["--seconds", str(seconds), "--trace", "1"], deadline)
        result = json.loads(out.strip().splitlines()[-1])
        metrics = {key: {"value": result["per_layer"][key], "unit": unit}
                   for key, unit, _ in per_layer_metric_specs()}
        layer = result["per_layer"]
        shares = "  ".join(f"{key}={layer[key + '.self_s']:.4f} s ({layer[key + '.share']:.1%})"
                           for key in LAYERS)
        summary = (f"{name}: traced {result['traced_passes']} passes, {result['spans']} spans, "
                   f"trace_overhead_ratio={layer['trace_overhead_ratio']:.3f}\n  {shares}")
        return summary, result, metrics
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed = child(base + ["--setup-only"], deadline)[0]
        slices = [reference_slice() for _ in range(SETUP_SLICES)]
        setups.append(elapsed * SLICE_S / statistics.median(slices))
    _, out = child(base + ["--seconds", str(seconds), "--trace", "0"], deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    metrics = {key: {"value": result[key], "unit": unit} for key, unit in END_TO_END}
    fail_ratio = result["failed"] / result["attempted"]
    summary = (f"{name}: wall_s={result['wall_s']:.4f} s  job_s_p50={result['job_s_p50']:.4f} s  "
               f"job_s_tail={result['job_s_tail']:.4f} s (p{result['tail_level']} of "
               f"{result['samples']} samples; {result['passes']} passes x "
               f"{result['jobs_per_pass']} jobs)  fail_ratio={fail_ratio:.4f} "
               f"({result['failed']}/{result['attempted']})  setup_s={result['setup_s']:.4f} s  "
               f"peak_rss_mb={result['peak_rss_mb']:.2f} MB  [unscaled wall_s="
               f"{result['raw_wall_s']:.4f} s, speed scale {result['speed_scale']:.3f}]")
    return summary, result, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    facts = machine_facts(args.seed)
    deadline = perf_counter() + DEADLINE_S * len(names)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, deadline))
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"machine": facts, "trace": args.trace, "seconds": args.seconds}))
    for summary, result, _ in results:
        print(summary)
        for error in result["errors"]:
            print(f"  failed job: {error}")
    attempted = sum(r["attempted"] for _, r, _ in results)
    failed = sum(r["failed"] for _, r, _ in results)
    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {f"{name}.{key}": value
                   for name, (_, _, m) in zip(names, results) for key, value in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
